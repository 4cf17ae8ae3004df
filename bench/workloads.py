"""The benchmark's workloads: seeded inputs that carry their known answers.

Each workload is a closed loop with one client: the next item starts only
after the previous one has finished.  Inputs depend on the seed alone.
Every item carries the outcome its generator's label predicts (an
admissible current passes every certificate, a violating one fails every
certificate), and ``check`` compares the program's outputs against it.

Items follow a fixed cycle of kinds (family, s, metric, label, tasks); the
seed draws the values.  A fixed cycle keeps the mix of cheap and costly
items the same in every run, so that run-to-run spread comes from the
program and not from the draw.

The library workloads call ``pbwforge`` through module attributes at call
time, so the tracer's rebinding of those attributes is seen.

Timings quoted here were taken on a 2-vCPU x86-64 KVM guest with CPython
3.11 and the ``fractions.Fraction`` backend.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from math import comb
from pathlib import Path
from typing import NamedTuple, Optional

import pbwforge.pbw as pbw
import pbwforge.sampling as sampling
import pbwforge.super_ym as super_ym
import pbwforge.yang_mills as ym
from pbwforge.rationals import format_rational

BENCH_DIR = Path(__file__).resolve().parent

# Violating labels.  YM: one side condition of the closed-form family fails
# (sampler's ``violate``).  SYM: the criterion-3 perturbations of the
# linear (j2) or scalar (j1) block of an admissible super current.
YM_CATEGORIES = ("ok", "s3", "ok", "s2", "ok", "s1")
SYM_CATEGORIES = ("ok", "j2", "ok", "j1")
YM_VIOLATIONS = ("s3", "s2", "s1")
SYM_VIOLATIONS = ("j2", "j1")


class Item(NamedTuple):
    index: int
    kind: tuple  # the cycle slot, e.g. ("ym", 2, "euclidean")
    category: str  # "ok" or the violation label
    payload: object  # a Current, or the problem file path for the CLI

    @property
    def admissible(self) -> bool:
        return self.category == "ok"


def make_metric(kind: str, dim: int, rng: random.Random):
    if kind == "euclidean":
        return ym.Metric.euclidean(dim)
    if kind == "minkowski":
        return ym.Metric.minkowski(dim)
    return sampling.random_metric(rng, dim)


def build_algebra(family: str, s: int, metric):
    return (ym.build_ym if family == "ym" else super_ym.build_sym)(s, metric)


def labelled_current(rng: random.Random, family: str, metric, category: str):
    """(parameters, current) for the label; parameters as the family takes them."""
    n = metric.dim
    if family == "ym":
        params = sampling.sample_current_parameters(
            rng, metric, violate=None if category == "ok" else category
        )
        return params, ym.current_from_parameters(params, metric)
    b, omega2 = sampling.sample_super_parameters(rng, n)
    c = super_ym.super_current_from_parameters(b, omega2, metric)
    if category == "j2":
        j2 = tuple(
            tuple(c.j2[i][j] + (1 if i == j == 0 else 0) for j in range(n)) for i in range(n)
        )
        c = ym.Current(c.j3, j2, c.j1)
    elif category == "j1":
        c = ym.Current(c.j3, c.j2, (c.j1[0] + 1,) + tuple(c.j1[1:]))
    return (b, omega2), c


def to_deformation(family: str, current, algebra):
    if family == "ym":
        return ym.current_to_deformation(current, algebra)
    return super_ym.super_current_to_deformation(current, algebra)


def _metrics_for(kinds, rng: random.Random) -> dict:
    """One metric per (s, kind), made in sorted order so that the random
    ones are the same draws in every run with the seed."""
    return {(s, kind): make_metric(kind, s + 1, rng) for s, kind in sorted(kinds)}


class Workload:
    """Inputs for ``cycles`` repetitions of the workload's cycle of kinds.

    ``nominal_cycle_s`` is one cycle's item time on the code the benchmark
    was defined on, at the reference speed (see ``speed.py``); a run of S
    seconds covers ``round(S / nominal_cycle_s)`` cycles.
    """

    in_process = True
    cycle: tuple = ()
    nominal_cycle_s = 1.0

    def __init__(self, seed: int, root: Path, cycles: int) -> None:
        self.seed = seed
        self.root = root
        self.cycles = cycles
        self.items: list = []
        self.warm: list = []

    def close(self) -> None:
        pass


class ChainBatch(Workload):
    """pbw_verdict (plus conservation_residual for YM) over a stream of
    YM and SYM currents at s = 2 and 3.  The random metric is used at s = 2
    only: at s = 3 its dense rational relations make one verdict take
    1.5-2.7 s, depending on the draw, and would dominate the run."""

    name = "chain-batch"
    # Euclidean and Minkowski at s = 2 appear twice per cycle, which puts
    # the median latency inside one group of similar items.
    cycle = (
        ("ym", 2, "euclidean"),
        ("sym", 2, "minkowski"),
        ("ym", 3, "euclidean"),
        ("sym", 2, "euclidean"),
        ("ym", 2, "random"),
        ("ym", 2, "minkowski"),
        ("sym", 3, "minkowski"),
        ("sym", 2, "euclidean"),
        ("ym", 2, "minkowski"),
        ("ym", 3, "minkowski"),
        ("sym", 2, "minkowski"),
        ("sym", 2, "random"),
        ("ym", 2, "euclidean"),
        ("sym", 3, "euclidean"),
    )
    nominal_cycle_s = 3.33

    def build(self) -> None:
        rng = random.Random(self.seed)
        metrics = _metrics_for({(s, k) for _, s, k in self.cycle}, rng)
        self.algebras = {
            key: build_algebra(key[0], key[1], metrics[key[1:]]) for key in sorted(set(self.cycle))
        }
        self.warm = [
            Item(-1, key, "ok", labelled_current(rng, key[0], metrics[key[1:]], "ok")[1])
            for key in sorted(self.algebras)
        ]
        seen = {"ym": 0, "sym": 0}
        for i in range(self.cycles * len(self.cycle)):
            key = self.cycle[i % len(self.cycle)]
            family = key[0]
            labels = YM_CATEGORIES if family == "ym" else SYM_CATEGORIES
            category = labels[seen[family] % len(labels)]
            seen[family] += 1
            current = labelled_current(rng, family, metrics[key[1:]], category)[1]
            self.items.append(Item(i, key, category, current))

    def run(self, item: Item, trace_to=None) -> dict:
        family = item.kind[0]
        d = to_deformation(family, item.payload, self.algebras[item.kind])
        out = {"verdict": pbw.pbw_verdict(d).overall}
        if family == "ym":
            out["conserved"] = pbw.conservation_residual(d).conserved
        return out

    def check(self, item: Item, out: dict) -> Optional[str]:
        wrong = sorted(k for k, v in out.items() if v != item.admissible)
        return f"{item.kind} {item.category}: {wrong} disagree with the label" if wrong else None


class OracleTriangle(Workload):
    """The three certificates on YM s = 2 (Euclidean) currents, with the
    admissible/violating mix of acceptance criterion 5 (40% admissible)."""

    name = "oracle-triangle"
    cycle = ("ok", "s3", "ok", "s2", "s1")
    nominal_cycle_s = 6.16
    n_max = 5
    cutoff = 6

    def build(self) -> None:
        rng = random.Random(self.seed)
        metric = ym.Metric.euclidean(3)
        self.algebra = build_algebra("ym", 2, metric)
        key = ("ym", 2, "euclidean")
        self.warm = [Item(-1, key, "ok", labelled_current(rng, "ym", metric, "ok")[1])]
        for i in range(self.cycles * len(self.cycle)):
            category = self.cycle[i % len(self.cycle)]
            self.items.append(Item(i, key, category, labelled_current(rng, "ym", metric, category)[1]))

    def run(self, item: Item, trace_to=None) -> dict:
        d = ym.current_to_deformation(item.payload, self.algebra)
        verdict = pbw.pbw_verdict(d).overall
        conserved = pbw.conservation_residual(d).conserved
        oracle = pbw.brute_force_oracle(d, self.n_max, self.cutoff)
        return {
            "verdict": verdict,
            "conserved": conserved,
            "oracle": oracle.verdict,
            "quotient_dims": list(oracle.quotient_dims),
        }

    def check(self, item: Item, out: dict) -> Optional[str]:
        want = item.admissible
        got = {
            "verdict": out["verdict"],
            "conserved": out["conserved"],
            "oracle": out["oracle"] != "FAIL",
        }
        wrong = sorted(k for k, v in got.items() if v != want)
        return f"{item.category}: {wrong} disagree with the label ({out['oracle']})" if wrong else None


def hilbert_dims(s: int, n_max: int) -> list:
    """Coefficients of 1 / (1 - (s+1) t + (s+1) t^3 - t^4), the Hilbert
    series of the cubic YM and SYM algebras on s+1 generators."""
    denom = {0: 1, 1: -(s + 1), 3: s + 1, 4: -1}
    out: list = []
    for n in range(n_max + 1):
        out.append((1 if n == 0 else 0) - sum(c * out[n - k] for k, c in denom.items() if 0 < k <= n))
    return out


def stage1_dim(family: str, n: int) -> int:
    """Dimension of the closed-form family's top block: the b-family, plus
    for YM the antisymmetric and symmetric 3-tensors."""
    return n + comb(n, 3) + comb(n + 2, 3) if family == "ym" else n


def _nested(x):
    """Nested tuples of rationals as nested lists of "p/q" strings."""
    return [_nested(v) for v in x] if isinstance(x, (tuple, list)) else format_rational(x)


def _tails_doc(current) -> list:
    return [
        [{"word": list(w), "coeff": format_rational(c)} for w, c in sorted(t.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))]
        for t in current.tails()
    ]


class CliRun(Workload):
    """``pbwforge run`` (and ``demo-lie``) on generated problem files, one
    fresh interpreter per problem.  Violating problems expect exit code 1."""

    name = "cli-run"
    in_process = False
    # (family, s, metric, label, tasks) or ("demo", case).  "bad" takes the
    # family's violation kinds in turn.  Hilbert runs on the integer metrics
    # only: with the random metric, n_max = 7 takes about 19 s.  One s = 3
    # classify per cycle (about 3 s; the YM one takes 4-5 s) keeps a cycle
    # short enough for a run to hold two whole cycles.
    cycle = (
        ("ym", 2, "euclidean", "ok", ("identities", "check", "hilbert")),
        ("sym", 2, "minkowski", "bad", ("check", "classify")),
        ("demo", "so3"),
        ("ym", 3, "minkowski", "bad", ("identities", "check", "hilbert")),
        ("sym", 2, "euclidean", "ok", ("check", "hilbert")),
        ("ym", 2, "random", "bad", ("check", "classify")),
        ("sym", 3, "euclidean", "ok", ("check", "classify")),
        ("demo", "broken"),
        ("ym", 3, "euclidean", "ok", ("identities", "check")),
        ("sym", 3, "minkowski", "bad", ("identities", "check", "hilbert")),
        ("sym", 2, "random", "ok", ("check", "classify")),
    )
    nominal_cycle_s = 15.36
    hilbert_n_max = {2: 7, 3: 6}

    def __init__(self, seed: int, root: Path, cycles: int) -> None:
        super().__init__(seed, root, cycles)
        self.workdir = root / ".bench_out" / f"cli-{seed}-{os.getpid()}"
        self.max_child_rss_kb = 0
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env

    def build(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        rng = random.Random(self.seed)
        kinds = {(slot[1], slot[2]) for slot in self.cycle if slot[0] != "demo"}
        metrics = _metrics_for(kinds, rng)
        self.warm = [self._problem(-1, ("ym", 2, "euclidean", "ok", ("check",)), 0, rng, metrics)]
        for i in range(self.cycles * len(self.cycle)):
            turn, pos = divmod(i, len(self.cycle))
            self.items.append(self._problem(i, self.cycle[pos], turn + pos, rng, metrics))

    def _problem(self, index: int, slot: tuple, turn: int, rng, metrics) -> Item:
        if slot[0] == "demo":
            return Item(index, slot, "ok" if slot[1] == "so3" else "broken", None)
        family, s, kind, label, tasks = slot
        violations = YM_VIOLATIONS if family == "ym" else SYM_VIOLATIONS
        category = "ok" if label == "ok" else violations[turn % len(violations)]
        metric = metrics[(s, kind)]
        params, current = labelled_current(rng, family, metric, category)
        if family == "ym":
            p = params
            spec = {"parameters": {"b": _nested(p.b), "omega3": _nested(p.omega3), "s3": _nested(p.s3), "s2": _nested(p.s2), "s1": _nested(p.s1)}}
        elif category == "ok":
            spec = {"super_parameters": {"b": _nested(params[0]), "omega2": _nested(params[1])}}
        else:
            spec = {"tails": _tails_doc(current)}
        doc = {
            "schema_version": 1,
            "seed": self.seed,
            "algebra": {
                "family": "yang-mills" if family == "ym" else "super-yang-mills",
                "s": s,
                "metric": kind if kind != "random" else _nested(metric.g.data),
            },
            "current": spec,
            "tasks": [
                {"task": t, "n_max": self.hilbert_n_max[s]} if t == "hilbert" else {"task": t}
                for t in tasks
            ],
        }
        path = self.workdir / f"problem-{index}.json"
        path.write_text(json.dumps(doc, indent=1))
        return Item(index, slot, category, str(path))

    def run(self, item: Item, trace_to=None) -> dict:
        out = self.workdir / "report.json"
        tsv = self.workdir / "table.tsv"
        for f in (out, tsv):
            f.unlink(missing_ok=True)
        if item.kind[0] == "demo":
            argv = ["demo-lie", "--case", item.kind[1], "--out", str(out)]
        else:
            argv = ["run", "--input", item.payload, "--out", str(out), "--tsv", str(tsv)]
        if trace_to is None:
            cmd = [sys.executable, "-m", "pbwforge.cli", *argv]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "cli_shim.py"), str(trace_to), *argv]
        with open(self.workdir / "stderr.txt", "wb") as err:
            proc = subprocess.Popen(cmd, env=self.env, cwd=self.root, stdout=subprocess.DEVNULL, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.last_rss_kb = usage.ru_maxrss
        result = {"exit": proc.returncode, "report": None, "tsv": None, "report_bytes": 0}
        if out.exists():
            text = out.read_text()
            result["report"] = json.loads(text)
            result["report_bytes"] = len(text.encode())
        if tsv.exists():
            result["tsv"] = tsv.read_text()
        if proc.returncode not in (0, 1):
            result["stderr"] = (self.workdir / "stderr.txt").read_text()[-400:]
        return result

    def check(self, item: Item, out: dict) -> Optional[str]:
        want = item.admissible
        problems = []
        if out["exit"] != (0 if want else 1):
            problems.append(f"exit {out['exit']} {out.get('stderr', '')!r}")
        report = out["report"]
        if report is None:
            return f"{item.kind}: no report; " + "; ".join(problems)
        if report.get("pass") is not want:
            problems.append("report pass")
        if item.kind[0] == "demo":
            task = report["tasks"][0]
            if task["verdict"] is not want or (task["oracle"] == "CONSISTENT") is not want:
                problems.append(f"demo-lie verdict {task['verdict']} oracle {task['oracle']}")
            if want and task["quotient_dims"] != [sum(comb(k + 2, 2) for k in range(n + 1)) for n in range(7)]:
                problems.append("demo-lie quotient dims")
        else:
            family, s, _, _, tasks = item.kind
            results = report["tasks"]
            if [r["task"] for r in results] != list(tasks):
                problems.append("task list")
            for r in results:
                problems.extend(self._check_task(r, family, s, want, out["tsv"]))
        return f"{item.kind} {item.category}: " + "; ".join(problems) if problems else None

    def _check_task(self, r: dict, family: str, s: int, want: bool, tsv) -> list:
        kind = r["task"]
        if kind == "check":
            bad = r["pass"] is not want or (family == "ym" and r["conserved"] is not want)
            return ["check"] if bad else []
        if kind == "classify":
            dim = stage1_dim(family, s + 1)
            ok = r["pass"] is True and r["stage1_dim"] == r["family_dim"] == dim
            return [] if ok else [f"classify {r}"]
        if kind == "hilbert":
            dims = hilbert_dims(s, self.hilbert_n_max[s])
            table = "n\tdim\n" + "".join(f"{n}\t{d}\n" for n, d in enumerate(dims))
            ok = r["pass"] is True and r["dims"] == dims and tsv == table
            return [] if ok else ["hilbert dims"]
        return [] if r["pass"] is True else [f"{kind} failed"]

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (ChainBatch, OracleTriangle, CliRun)}
