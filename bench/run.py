"""pbwforge benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``workloads.py``) against the package in ``src/``
of the checkout this file sits in, checks every output against the
answer its generator's label predicts, and prints one JSON object as the
last line of standard output::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
BENCHMARK.json, measured with no tracing installed, over whole cycles of
the workload's items: as many as take about ``--seconds`` at the
reference speed on the code the benchmark was defined on.  With ``--trace 1``
they are the per-layer metrics: spans recorded around the package's
public functions during one set-up (input generation and algebra
construction) and during repeated passes over the workload's first cycle
of items; each traced pass follows an untraced pass over the same items,
which gives the tracing overhead and a check that tracing changes no
outcome.  Counts are those of one set-up plus one pass; times are the
set-up's plus the median pass's.  Spans go to ``.bench_out/`` as JSON
lines.

Times are reported at a reference machine speed (see ``speed.py``); the
line before the result holds the raw wall times, the environment
(arithmetic backend, Python version, CPU count, source revision, seed)
and the sample count behind ``item_tail_s``.  The benchmark pins itself
and its child processes to one CPU, so that the speed probe measures the
CPU that runs the work.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import Monitor  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
TAIL_BEYOND = 10
SETUP_REPS = 3  # set-ups timed per run; setup_s is their median


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--items", type=int, default=0, help="cap on items per phase or pass (0: none)")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_package():
    """Import pbwforge from this checkout's src/, never from elsewhere."""
    if not (SRC / "pbwforge" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'pbwforge'}")
    sys.path.insert(0, str(SRC))
    import pbwforge

    if SRC.resolve() not in Path(pbwforge.__file__).resolve().parents:
        raise SystemExit(f"error: imported pbwforge from {pbwforge.__file__}, not {SRC}")


def environment(seed: int) -> dict:
    from pbwforge.rationals import Q

    digest = hashlib.sha256()
    for path in sorted((SRC / "pbwforge").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "backend": f"{Q.__module__}.{Q.__qualname__}",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": sorted(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


class Tally:
    """Attempted and failed items, with the first few failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list = []

    def record(self, problem) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(problem)


def run_item(wl, item, tally: Tally, trace_to=None):
    """Run and check one item; returns (start, end, outcome or None)."""
    t0 = time.perf_counter()
    try:
        out = wl.run(item, trace_to)
    except Exception:
        t1 = time.perf_counter()
        traceback.print_exc(file=sys.stderr)
        tally.record(f"item {item.index}: {traceback.format_exc(limit=1).strip().splitlines()[-1]}")
        return t0, t1, None
    t1 = time.perf_counter()
    tally.record(wl.check(item, out))
    return t0, t1, out


def set_up(wl, tally: Tally) -> tuple:
    """Generate inputs, build the algebras, run one warm-up item per algebra.

    Returns (start, end): this process's start and the end of set-up."""
    wl.build()
    for item in wl.warm:
        run_item(wl, item, tally)
    return START, time.perf_counter()


def setup_in_child(args) -> tuple:
    """Time one more set-up in a fresh interpreter; returns its (start, end)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed ({proc.returncode}): {proc.stderr[-400:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if out["failed"]:
        raise RuntimeError("a warm-up item failed its check in the set-up child")
    return out["start"], out["end"]


def tail(latencies: list) -> tuple:
    """The highest percentile with at least TAIL_BEYOND samples above it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def peak_rss_mb(wl) -> float:
    if wl.in_process:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return wl.max_child_rss_kb / 1024.0


def measure(wl, args, tally: Tally, speed: Monitor) -> tuple:
    """Closed loop over the workload's items; end-to-end metrics.

    The items are whole cycles of the workload, as many as take about
    ``--seconds`` at the reference speed on the code the benchmark was
    defined on.  Fixing the work rather than the wall time gives every run
    the same items, so the sample count behind each statistic does not
    move with the machine's speed.  As a guard against a very slow
    machine the loop stops early, at a cycle boundary, after twice
    ``--seconds`` of wall time."""
    windows = []
    correct = 0
    begin = time.perf_counter()
    n_items = len(wl.items) if not args.items else min(args.items, len(wl.items))
    for i, item in enumerate(wl.items[:n_items], 1):
        failed = tally.failed
        t0, t1, _ = run_item(wl, item, tally)
        windows.append((t0, t1))
        correct += tally.failed == failed
        if not wl.in_process:
            wl.max_child_rss_kb = max(wl.max_child_rss_kb, wl.last_rss_kb)
        if i % len(wl.cycle) == 0 and time.perf_counter() - begin >= 2 * args.seconds:
            break
    speed.refresh()
    raw = [t1 - t0 for t0, t1 in windows]
    scaled = [speed.scaled(t1 - t0, t0, t1) for t0, t1 in windows]
    tail_value, tail_pct = tail(scaled)
    metrics = {
        "items_per_s": (correct / sum(scaled), "1/s"),
        "item_p50_s": (statistics.median(scaled), "s"),
        "item_tail_s": (tail_value, "s"),
        "peak_rss_mb": (peak_rss_mb(wl), "MB"),
    }
    detail = {
        "item_tail": {"percentile": tail_pct, "samples": len(scaled), "beyond": min(TAIL_BEYOND, len(scaled) - 1)},
        "cycles": len(scaled) / len(wl.cycle),
        "item_s": sum(scaled),
        "wall_s": time.perf_counter() - begin,
        "raw": {
            "items_per_s": correct / sum(raw),
            "item_p50_s": statistics.median(raw),
            "item_tail_s": tail(raw)[0],
        },
    }
    return metrics, detail


def traced(wl, args, tally: Tally, speed: Monitor) -> tuple:
    """Per-layer metrics: a traced build, an untraced warm-up, then
    alternating untraced and traced passes over the first cycle of items."""
    import spans

    tracer = spans.Tracer()
    tracer.item = "setup"
    tracer.install()
    setup_root = tracer.open(spans.SETUP_SPAN)
    try:
        wl.build()
    finally:
        tracer.close(setup_root)
        tracer.uninstall()
    n_setup = len(tracer.spans)
    for item in wl.warm:
        run_item(wl, item, tally)

    n_items = len(wl.cycle) if not args.items else min(args.items, len(wl.cycle))
    items = wl.items[:n_items]
    passes = []  # (t0, t1, t2, t3, span indices): untraced [t0, t1], traced [t2, t3]
    begin = time.perf_counter()
    child_spans = OUT_DIR / f"child-{args.workload}-{args.seed}-{os.getpid()}.json"
    while True:
        t0 = time.perf_counter()
        plain = [run_item(wl, item, tally)[2] for item in items]
        t1 = time.perf_counter()
        first = len(tracer.spans)
        t2 = time.perf_counter()
        if wl.in_process:
            tracer.install()
        try:
            for item, expected in zip(items, plain):
                tracer.item = f"pass{len(passes)}:{item.index}"
                root = tracer.open(spans.ITEM_SPAN)
                try:
                    out = run_item(wl, item, tally, None if wl.in_process else child_spans)[2]
                finally:
                    tracer.close(root)
                if out is not None and "report_bytes" in out:
                    tracer.spans[root][5] = {"report_bytes": out["report_bytes"]}
                if child_spans.exists():
                    tracer.spans.extend(spans.read_spans(child_spans, root, len(tracer.spans), tracer.item))
                    child_spans.unlink()
                if out != expected:
                    tally.record(f"item {item.index}: traced outcome differs from untraced")
        finally:
            if wl.in_process:
                tracer.uninstall()
        t3 = time.perf_counter()
        passes.append((t0, t1, t2, t3, range(first, len(tracer.spans))))
        if time.perf_counter() - begin + (t3 - t0) > args.seconds:
            break
    speed.refresh()
    all_spans = tracer.spans
    own = spans.self_times(all_spans)

    def totals(indices, factor):
        t = spans.layer_totals(all_spans, own, indices)
        return {k: v * factor if k.endswith(".self_s") else v for k, v in t.items()}

    setup_rec = all_spans[setup_root]
    setup = totals(range(n_setup), speed.scaled(1.0, setup_rec[1], setup_rec[2]))
    per_pass = [totals(p[4], speed.scaled(1.0, p[2], p[3])) for p in passes]

    def one_pass(name):
        return statistics.median(t[name] for t in per_pass)

    metrics = {}
    for name, (unit, _, _) in spans.LAYER_METRICS.items():
        if name == "trace.overhead_frac":
            plain = statistics.median(speed.scaled(t1 - t0, t0, t1) for t0, t1, _, _, _ in passes)
            value = statistics.median(speed.scaled(t3 - t2, t2, t3) for _, _, t2, t3, _ in passes) / plain - 1.0
        elif name == "linalg.echelon.max_bits":
            value = max(setup[name], one_pass(name))
        elif name == "linalg.echelon.useful_ratio":
            rank = setup["linalg.echelon.rank"] + one_pass("linalg.echelon.rank")
            inserts = setup["linalg.echelon.inserts"] + one_pass("linalg.echelon.inserts")
            value = rank / inserts if inserts else 0.0
        else:
            value = setup[name] + one_pass(name)
        metrics[name] = (value, unit)
    trace_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(trace_file, "w") as fh:
        for rec, self_s in zip(all_spans, own):
            fh.write(json.dumps(dict(spans.span_dict(rec), self=self_s)) + "\n")
    detail = {"passes": len(passes), "items_per_pass": n_items, "trace_file": str(trace_file.relative_to(ROOT))}
    return metrics, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    kind = workloads.WORKLOADS[args.workload]
    cycles = 1 if args.trace else max(1, round(args.seconds / kind.nominal_cycle_s))
    wl = kind(args.seed, ROOT, cycles)
    tally = Tally()
    if args.setup_only:
        try:
            start, end = set_up(wl, tally)
        finally:
            wl.close()
        print(json.dumps({"start": start, "end": end, "failed": tally.failed}))
        return 0
    speed = Monitor(OUT_DIR / f"speed-{os.getpid()}.txt")
    try:
        if args.trace:
            metrics, detail = traced(wl, args, tally, speed)
        else:
            setups = [set_up(wl, tally)]
            setups += [setup_in_child(args) for _ in range(SETUP_REPS - 1)]
            metrics, detail = measure(wl, args, tally, speed)
            scaled = [speed.scaled(end - start, start, end) for start, end in setups]
            metrics = {"setup_s": (statistics.median(scaled), "s"), **metrics}
            detail["raw"]["setup_s"] = statistics.median(end - start for start, end in setups)
            detail["setup_runs_s"] = scaled
    finally:
        speed.close()
        wl.close()
    detail.update(
        workload=args.workload,
        env=environment(args.seed),
        failed_frac=tally.failed / tally.attempted,
        failures=tally.reasons,
    )
    print("detail: " + json.dumps(detail, sort_keys=True))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
