"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps public functions of the ``pbwforge`` modules from the
outside: it rebinds every module attribute that refers to a traced
function (modules import each other's names with ``from .x import f``,
so one function can have several bindings) and patches the traced
methods on their classes.  ``uninstall`` restores every original
binding, so an untraced pass in the same process runs the unmodified
package.

A span is ``[name, start, end, parent, item, attrs]``.  The self time
of a span is its duration minus the durations of its direct children;
children never overlap because the traced code is single-threaded.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from typing import Callable, Optional

MODULES = (
    "pbwforge",
    "pbwforge.rationals",
    "pbwforge.linalg",
    "pbwforge.tensors",
    "pbwforge.algebra",
    "pbwforge.pbw",
    "pbwforge.classify",
    "pbwforge.yang_mills",
    "pbwforge.super_ym",
    "pbwforge.sampling",
    "pbwforge.cli",
)

# (span name, module, attribute path).  Several functions may share a
# layer prefix; per-layer metrics aggregate by prefix (see LAYER_METRICS).
TRACED = (
    ("linalg.dense.rref", "pbwforge.linalg", "rref"),
    ("linalg.dense.rank", "pbwforge.linalg", "rank"),
    ("linalg.dense.kernel", "pbwforge.linalg", "kernel"),
    ("linalg.dense.inverse", "pbwforge.linalg", "inverse"),
    ("linalg.dense.solve_affine", "pbwforge.linalg", "solve_affine"),
    ("linalg.dense.from_spanning", "pbwforge.linalg", "Subspace.from_spanning"),
    ("linalg.dense.intersect", "pbwforge.linalg", "Subspace.intersect"),
    ("linalg.subspace_reduce", "pbwforge.linalg", "Subspace.reduce"),
    ("linalg.echelon.insert", "pbwforge.linalg", "SparseEchelon.insert"),
    ("linalg.echelon.reduce", "pbwforge.linalg", "SparseEchelon.reduce"),
    ("tensors.side_decompose", "pbwforge.tensors", "side_decompose"),
    ("tensors.apply_graded_side", "pbwforge.tensors", "apply_graded_side"),
    ("tensors.side_tensor", "pbwforge.tensors", "side_tensor"),
    ("algebra.overlap_space", "pbwforge.algebra", "overlap_space"),
    ("algebra.relation_coords", "pbwforge.algebra", "AlgebraPresentation.relation_coords"),
    ("algebra.graded_dim", "pbwforge.algebra", "graded_dim"),
    ("pbw.verdict", "pbwforge.pbw", "pbw_verdict"),
    ("pbw.check_j1", "pbwforge.pbw", "check_j1"),
    ("pbw.check_j2", "pbwforge.pbw", "check_j2"),
    ("pbw.check_j3", "pbwforge.pbw", "check_j3"),
    ("pbw.conservation_residual", "pbwforge.pbw", "conservation_residual"),
    ("pbw.ideal_span", "pbwforge.pbw", "IdealSpan.__init__"),
    ("pbw.oracle", "pbwforge.pbw", "brute_force_oracle"),
    ("classify.solve_stage1", "pbwforge.classify", "solve_stage1"),
    ("classify.family_equals_solutions", "pbwforge.classify", "family_equals_solutions"),
    ("yang_mills.build.ym", "pbwforge.yang_mills", "build_ym"),
    ("yang_mills.build.sym", "pbwforge.super_ym", "build_sym"),
    ("yang_mills.current.ym", "pbwforge.yang_mills", "current_from_parameters"),
    ("yang_mills.current.ym_deformation", "pbwforge.yang_mills", "current_to_deformation"),
    ("yang_mills.current.sym", "pbwforge.super_ym", "super_current_from_parameters"),
    ("yang_mills.current.sym_deformation", "pbwforge.super_ym", "super_current_to_deformation"),
    ("yang_mills.identities.ym", "pbwforge.yang_mills", "verify_identities"),
    ("yang_mills.identities.sym", "pbwforge.super_ym", "verify_super_identities"),
    ("sampling.metric", "pbwforge.sampling", "random_metric"),
    ("sampling.current", "pbwforge.sampling", "sample_current_parameters"),
    ("sampling.super", "pbwforge.sampling", "sample_super_parameters"),
    ("cli.load_problem", "pbwforge.cli", "load_problem"),
    ("cli.run_problem.run", "pbwforge.cli", "run_problem"),
    ("cli.run_problem.demo_lie", "pbwforge.cli", "run_demo_lie"),
)

ITEM_SPAN = "bench.item"
SETUP_SPAN = "bench.setup"
BOOKKEEPING_SPAN = "trace.bookkeeping"

# name -> (unit, better, which end-to-end metric it should move, on which workload)
LAYER_METRICS = {
    "linalg.echelon.inserts": ("count", "lower", "items_per_s, item_p50_s on oracle-triangle; item_p50_s a little on cli-run; nothing on chain-batch"),
    "linalg.echelon.self_s": ("s", "lower", "items_per_s, item_p50_s on oracle-triangle; item_p50_s a little on cli-run; nothing on chain-batch"),
    "linalg.echelon.useful_ratio": ("ratio", "higher", "items_per_s, item_p50_s on oracle-triangle; item_p50_s a little on cli-run"),
    "linalg.echelon.rank": ("count", "lower", "items_per_s, item_p50_s on oracle-triangle; item_p50_s a little on cli-run"),
    "linalg.echelon.nnz": ("count", "lower", "items_per_s, item_p50_s on oracle-triangle; item_p50_s a little on cli-run"),
    "linalg.echelon.max_bits": ("bits", "lower", "items_per_s, item_p50_s on oracle-triangle; item_p50_s a little on cli-run"),
    "linalg.dense.calls": ("count", "lower", "items_per_s on chain-batch; item_tail_s on cli-run"),
    "linalg.dense.self_s": ("s", "lower", "items_per_s on chain-batch; item_tail_s on cli-run"),
    "linalg.dense.cells": ("count", "lower", "items_per_s on chain-batch; item_tail_s on cli-run"),
    "linalg.subspace_reduce.calls": ("count", "lower", "items_per_s on chain-batch"),
    "linalg.subspace_reduce.self_s": ("s", "lower", "items_per_s on chain-batch"),
    "tensors.side_decompose.calls": ("count", "lower", "items_per_s on chain-batch"),
    "tensors.side_decompose.self_s": ("s", "lower", "items_per_s on chain-batch"),
    "tensors.apply_graded_side.calls": ("count", "lower", "items_per_s on chain-batch"),
    "tensors.apply_graded_side.self_s": ("s", "lower", "items_per_s on chain-batch"),
    "tensors.side_tensor.calls": ("count", "lower", "items_per_s on chain-batch"),
    "tensors.side_tensor.self_s": ("s", "lower", "items_per_s on chain-batch"),
    "algebra.overlap_space.calls": ("count", "lower", "items_per_s on chain-batch"),
    "algebra.overlap_space.self_s": ("s", "lower", "items_per_s on chain-batch"),
    "algebra.relation_coords.calls": ("count", "lower", "items_per_s on chain-batch"),
    "algebra.relation_coords.self_s": ("s", "lower", "items_per_s on chain-batch"),
    "algebra.graded_dim.calls": ("count", "lower", "items_per_s, item_p50_s on cli-run"),
    "algebra.graded_dim.self_s": ("s", "lower", "items_per_s, item_p50_s on cli-run"),
    "pbw.check_j1.self_s": ("s", "lower", "items_per_s on chain-batch"),
    "pbw.check_j2.self_s": ("s", "lower", "items_per_s on chain-batch"),
    "pbw.check_j3.self_s": ("s", "lower", "items_per_s on chain-batch"),
    "pbw.conservation_residual.self_s": ("s", "lower", "items_per_s on chain-batch and oracle-triangle"),
    "pbw.ideal_span.self_s": ("s", "lower", "items_per_s, item_p50_s on oracle-triangle"),
    "pbw.oracle.self_s": ("s", "lower", "items_per_s, item_p50_s on oracle-triangle"),
    "classify.solve_stage1.calls": ("count", "lower", "item_tail_s on cli-run only"),
    "classify.solve_stage1.self_s": ("s", "lower", "item_tail_s on cli-run only"),
    "classify.family_equals_solutions.self_s": ("s", "lower", "item_tail_s on cli-run only"),
    "yang_mills.build.self_s": ("s", "lower", "setup_s on every workload"),
    "yang_mills.current.self_s": ("s", "lower", "setup_s on every workload"),
    "sampling.self_s": ("s", "lower", "setup_s on every workload"),
    "yang_mills.identities.self_s": ("s", "lower", "items_per_s, item_p50_s on cli-run"),
    "cli.load_problem.self_s": ("s", "lower", "items_per_s, item_p50_s on cli-run"),
    "cli.run_problem.self_s": ("s", "lower", "items_per_s, item_p50_s on cli-run"),
    "cli.report_bytes": ("bytes", "lower", "items_per_s, item_p50_s on cli-run"),
    "trace.overhead_frac": ("frac", "lower", "none: traced pass time over untraced pass time, minus one"),
}


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def _dense_cells(name: str, args: tuple) -> int:
    """Rows x cols of the matrix handed to a dense elimination entry point."""
    if name == "linalg.dense.from_spanning":
        return len(args[1]) * args[2]
    if name == "linalg.dense.intersect":
        return (args[0].dim + args[1].dim) * 2 * args[0].ambient_dim
    m = args[0]
    return m.rows * (m.cols + (1 if name == "linalg.dense.solve_affine" else 0))


def echelon_stats(echelon) -> dict:
    """Rank, nonzeros and largest numerator/denominator bit length."""
    nnz = 0
    bits = 0
    for row in echelon.rows.values():
        nnz += len(row)
        for c in row.values():
            bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return {"rank": len(echelon.rows), "nnz": nnz, "max_bits": bits}


class Tracer:
    """Records spans around the traced pbwforge functions while installed."""

    def __init__(self) -> None:
        self.spans: list = []
        self.item: Optional[str] = None
        self._stack: list = []
        self._patches: list = []
        self._echelons: dict = {}  # owning span index -> [SparseEchelon]

    # -- spans -----------------------------------------------------------
    def open(self, name: str, attrs: Optional[dict] = None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.item, attrs])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def close(self, idx: int) -> None:
        rec = self.spans[idx]
        rec[2] = time.perf_counter()
        self._stack.pop()
        owned = self._echelons.pop(idx, None)
        if owned:
            # Counters are read after the owning call returned; the time
            # spent reading them is its own span so no layer is charged.
            book = len(self.spans)
            self.spans.append([BOOKKEEPING_SPAN, rec[2], 0.0, rec[3], rec[4], None])
            stats = [echelon_stats(e) for e in owned]
            rec[5] = dict(rec[5] or {}, echelons=stats)
            self.spans[book][2] = time.perf_counter()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self
        dense = name.startswith("linalg.dense.")
        spanning = name == "linalg.dense.from_spanning"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = None
            if spanning and len(args) > 1:
                args = (args[0], list(args[1])) + args[2:]
            if dense and not kwargs:
                attrs = {"cells": _dense_cells(name, args)}
            idx = tracer.open(name, attrs)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return wrapper

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        replacements = {}  # id(original function) -> wrapper
        for name, module, path in TRACED:
            owner, attr = _resolve(module, path)
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__))
            else:
                wrapped = self._wrap(name, raw)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapped)
            else:
                replacements[id(raw)] = (raw, wrapped)
        for module in MODULES:
            mod = importlib.import_module(module)
            for attr, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1])
        self._hook_echelon_init()

    def _hook_echelon_init(self) -> None:
        from pbwforge.linalg import SparseEchelon

        original = SparseEchelon.__dict__["__init__"]
        tracer = self

        @functools.wraps(original)
        def init(echelon, *args, **kwargs):
            original(echelon, *args, **kwargs)
            owner = tracer._stack[-1] if tracer._stack else -1
            tracer._echelons.setdefault(owner, []).append(echelon)

        self._patch(SparseEchelon, "__init__", init)

    def _patch(self, owner, attr: str, value) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------
    def dump(self, path) -> None:
        """Write the raw span records in one JSON document (fast, for
        handing spans from a traced child process to the benchmark)."""
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def span_dict(rec) -> dict:
    name, start, end, parent, item, attrs = rec
    out = {"name": name, "start": start, "end": end, "parent": parent, "item": item}
    if attrs:
        out.update(attrs)
    return out


def read_spans(path, parent: int, offset: int, item: str) -> list:
    """Spans dumped by another process for ``item``, re-indexed to follow
    ``offset`` existing spans, with their roots attached to span ``parent``."""
    with open(path) as fh:
        recs = json.load(fh)
    for rec in recs:
        rec[3] = parent if rec[3] < 0 else rec[3] + offset
        rec[4] = item
    return recs


def self_times(spans: list) -> list:
    """Duration of each span minus the durations of its direct children."""
    own = [rec[2] - rec[1] for rec in spans]
    for rec in spans:
        if rec[3] >= 0:
            own[rec[3]] -= rec[2] - rec[1]
    return own


def layer_totals(spans: list, own: list, indices) -> dict:
    """Per-layer metrics over the spans at ``indices`` (one pass)."""
    calls: dict = {}
    selfs: dict = {}
    cells = 0
    inserts = 0
    rank = nnz = bits = 0
    report_bytes = 0
    for i in indices:
        name, _, _, _, _, attrs = spans[i]
        for prefix in _prefixes(name):
            calls[prefix] = calls.get(prefix, 0) + 1
            selfs[prefix] = selfs.get(prefix, 0.0) + own[i]
        if name == "linalg.echelon.insert":
            inserts += 1
        if attrs:
            cells += attrs.get("cells", 0)
            report_bytes += attrs.get("report_bytes", 0)
            for st in attrs.get("echelons", ()):
                rank += st["rank"]
                nnz += st["nnz"]
                bits = max(bits, st["max_bits"])
    out = {}
    for metric in LAYER_METRICS:
        layer, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = calls.get(layer, 0)
        elif kind == "self_s":
            out[metric] = selfs.get(layer, 0.0)
    out.update(
        {
            "linalg.echelon.inserts": inserts,
            "linalg.echelon.useful_ratio": rank / inserts if inserts else 0.0,
            "linalg.echelon.rank": rank,
            "linalg.echelon.nnz": nnz,
            "linalg.echelon.max_bits": bits,
            "linalg.dense.cells": cells,
            "cli.report_bytes": report_bytes,
        }
    )
    return out


def _prefixes(name: str):
    parts = name.split(".")
    return (".".join(parts[:k]) for k in range(1, len(parts) + 1))
