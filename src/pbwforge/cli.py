"""Batch front-end.

Problem files are JSON documents validated against the shipped strict
schema (``problem.schema.json``) by :func:`schema_violation`, a small
checker for exactly the keywords that schema uses; an "integer" is a JSON
integer literal, so ``2.0`` is rejected.  Every rational is an integer or
a "p/q" string, so parsing is exact.  Reports are emitted with sorted keys
and a fixed layout, which makes a rerun of the same problem
byte-identical.

Exit codes: 0 all requested checks passed, 1 at least one check returned
a negative mathematical verdict, 2 invalid input, 3 resource guard.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from typing import Optional

from . import __version__
from .algebra import AlgebraPresentation, build_antisymmetrizer_relations, graded_dims
from .classify import family_equals_solutions, solve_stage1
from .pbw import (
    DeformationMap,
    brute_force_oracle,
    conservation_residual,
    deformation_from_tails,
    pbw_verdict,
)
from .rationals import format_rational, rational
from .super_ym import (
    build_sym,
    isym_family_generators,
    super_current_from_parameters,
    verify_super_identities,
)
from .tensors import ResourceGuardError, TensorElement, guard_tensor_dim, tensor_dim_limit
from .yang_mills import (
    CurrentParameters,
    Metric,
    build_ym,
    current_from_parameters,
    iym_family_generators,
    verify_identities,
)

SUBCOMMAND_TASKS = {
    "identities": "identities",
    "check-current": "check",
    "classify": "classify",
    "oracle": "oracle",
    "hilbert": "hilbert",
}


class ProblemError(Exception):
    """Invalid problem input (maps to exit code 2)."""


def load_schema() -> dict:
    with open(os.path.join(os.path.dirname(__file__), "problem.schema.json"), encoding="utf-8") as f:
        return json.load(f)


_JSON_TYPES = {"object": dict, "array": list, "string": str, "integer": int}


def _is_type(node, name: str) -> bool:
    # bool is a subclass of int, but true is no integer; nor is 2.0
    return isinstance(node, _JSON_TYPES[name]) and not isinstance(node, bool)


def _same(node, value) -> bool:
    # const/enum compare by JSON type: 1.0 and true are not the constant 1
    return type(node) is type(value) and node == value


@functools.cache
def _ecma_regex(pattern: str) -> re.Pattern:
    """``pattern`` compiled with ECMA-262's ``$``: the end of the input.

    Python's ``$`` also matches before a final newline, so each ``$``
    outside an escape or a character class becomes ``\\Z``.
    """
    return re.compile(
        re.sub(r"\\.|\[(?:\\.|[^\]])*\]|\$", lambda m: r"\Z" if m[0] == "$" else m[0], pattern)
    )


def _describe(node) -> str:
    """A JSON value in at most 40 characters: an object or array by its
    type and size, a scalar by its repr, cut."""
    if isinstance(node, (dict, list)):
        return f"{'an object' if isinstance(node, dict) else 'an array'} of length {len(node)}"
    text = repr(node[:41] if isinstance(node, str) else node)
    return text if len(text) <= 40 else text[:37] + "..."


def _violations(node, schema: dict, root: dict, path: tuple):
    """Yield (path, offending node, predicate) for each way ``node`` breaks ``schema``.

    Implements only the keywords ``problem.schema.json`` uses (see
    ``tests/test_schema.py``), with JSON Schema 2020-12 meaning, except
    that an integer must be an integer literal and ``const``/``enum``
    compare by JSON type, and ``pattern`` matches as ECMA-262 does.
    ``$ref`` must point into the root's ``$defs``.  Annotations
    (``$schema``, ``title``, ...) and keywords that do not apply to the
    node's type are skipped.
    """
    for key, want in schema.items():
        if key == "$ref":
            sub = root["$defs"][want.removeprefix("#/$defs/")]
            yield from _violations(node, sub, root, path)
        elif key == "type":
            if not _is_type(node, want):
                yield path, node, f"is not of type {want!r}"
        elif key == "const":
            if not _same(node, want):
                yield path, node, f"is not {want!r}"
        elif key == "enum":
            if not any(_same(node, v) for v in want):
                yield path, node, f"is not one of {want!r}"
        elif key == "oneOf":
            matches = sum(not any(_violations(node, s, root, path)) for s in want)
            if matches != 1:
                yield path, node, f"matches {matches} of the {len(want)} alternatives, not one"
        elif key == "minimum" and isinstance(node, (int, float)) and not isinstance(node, bool):
            if node < want:
                yield path, node, f"is less than the minimum of {want!r}"
        elif key == "pattern" and isinstance(node, str):
            if not _ecma_regex(want).search(node):
                yield path, node, f"does not match {want!r}"
        elif key == "minItems" and isinstance(node, list):
            if len(node) < want:
                yield path, node, f"has fewer than {want} items"
        elif key == "items" and isinstance(node, list):
            for i, item in enumerate(node):
                yield from _violations(item, want, root, path + (i,))
        elif key == "required" and isinstance(node, dict):
            for name in want:
                if name not in node:
                    yield path, node, f"lacks the required property {name!r}"
        elif key == "additionalProperties" and want is False and isinstance(node, dict):
            extra = sorted(k for k in node if k not in schema.get("properties", {}))
            if extra:
                yield path, extra[0], f"is no property of the schema ({len(extra)} unexpected)"
        elif key == "properties" and isinstance(node, dict):
            for name, sub in want.items():
                if name in node:
                    yield from _violations(node[name], sub, root, path + (name,))


def schema_violation(doc, schema: dict) -> Optional[tuple]:
    """The first (path, message) by which ``doc`` breaks ``schema``, in path
    order, or None when ``doc`` is valid.  A path is a tuple of object keys
    and array indices, () for the root.  Only this violation is formatted,
    and the message describes the offending value in bounded length."""
    found = min(_violations(doc, schema, schema, ()), key=lambda v: v[0], default=None)
    return None if found is None else (found[0], f"{_describe(found[1])} {found[2]}")


def load_problem(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
        violation = schema_violation(doc, load_schema())
    except OSError as e:
        raise ProblemError(f"cannot read problem file: {e}") from e
    except ValueError as e:  # JSONDecodeError, or an integer literal past CPython's digit limit
        raise ProblemError(f"malformed JSON: {e}") from e
    except RecursionError as e:  # in the decoder
        raise ProblemError("malformed JSON: nested too deeply") from e
    if violation is not None:
        where = "/".join(str(p) for p in violation[0]) or "(root)"
        raise ProblemError(f"schema violation at {where}: {violation[1]}")
    return doc


def _parse_metric(spec, dim: int) -> Metric:
    try:
        if spec == "euclidean" or spec is None:
            return Metric.euclidean(dim)
        if spec == "minkowski":
            return Metric.minkowski(dim)
        metric = Metric.from_rows(spec)
    except ValueError as e:
        raise ProblemError(f"invalid metric: {e}") from e
    if metric.dim != dim:
        raise ProblemError(f"invalid metric: dimension {metric.dim}, not s + 1 = {dim}")
    return metric


def _parse_tensor(entries, dim_v: int) -> TensorElement:
    terms: dict = {}
    for item in entries:
        word = tuple(item["word"])
        if any(i >= dim_v for i in word):
            raise ProblemError(f"word {list(word)} has a letter outside 0..{dim_v - 1}")
        terms[word] = terms.get(word, 0) + rational(item["coeff"])
    return TensorElement.from_terms(dim_v, terms)


def build_algebra(spec: dict):
    """(presentation, metric or None) from the algebra block."""
    family = spec["family"]
    s = spec.get("s")
    if family in ("yang-mills", "super-yang-mills"):
        if s is None:
            raise ProblemError(f"family {family!r} requires 's'")
        # build_ym and build_sym fill an (s+1)^4 coefficient array
        guard_tensor_dim(s + 1, 4)
        metric = _parse_metric(spec.get("metric"), s + 1)
        builder = build_ym if family == "yang-mills" else build_sym
        return builder(s, metric), metric
    if family == "antisymmetrizer":
        if s is None or "N" not in spec:
            raise ProblemError("family 'antisymmetrizer' requires 's' and 'N'")
        guard_tensor_dim(s + 1, spec["N"])
        return build_antisymmetrizer_relations(s + 1, spec["N"]), None
    if s is None or "N" not in spec or "custom_relations" not in spec:
        raise ProblemError("family 'custom' requires 's', 'N' and 'custom_relations'")
    dim_v = s + 1
    guard_tensor_dim(dim_v, spec["N"])
    try:
        basis = tuple(_parse_tensor(t, dim_v) for t in spec["custom_relations"])
        return AlgebraPresentation(dim_v, spec["N"], basis), None
    except ValueError as e:
        raise ProblemError(f"invalid custom relations: {e}") from e


def _nested_rationals(x):
    if isinstance(x, list):
        return tuple(_nested_rationals(v) for v in x)
    return rational(x)


def build_deformation(
    problem: dict, a: AlgebraPresentation, metric: Optional[Metric]
) -> DeformationMap:
    spec = problem.get("current")
    if spec is None:
        zero = tuple(TensorElement.zero(a.dim_v) for _ in a.relation_basis)
        return deformation_from_tails(a, zero)
    keys = [k for k in ("parameters", "super_parameters", "tails") if k in spec]
    if len(keys) != 1:
        raise ProblemError("current must carry exactly one of parameters/super_parameters/tails")
    family = problem["algebra"]["family"]
    try:
        if keys[0] == "parameters":
            if family != "yang-mills" or metric is None:
                raise ProblemError("current.parameters requires the yang-mills family")
            p = spec["parameters"]
            n = metric.dim
            zero3 = _nested_rationals([[[0] * n] * n] * n)
            zero2 = _nested_rationals([[0] * n] * n)
            params = CurrentParameters(
                _nested_rationals(p["b"]),
                _nested_rationals(p["omega3"]) if "omega3" in p else zero3,
                _nested_rationals(p["s3"]) if "s3" in p else zero3,
                _nested_rationals(p["s2"]) if "s2" in p else zero2,
                _nested_rationals(p["s1"]) if "s1" in p else (rational(0),) * n,
            )
            current = current_from_parameters(params, metric)
            return deformation_from_tails(a, current.tails())
        if keys[0] == "super_parameters":
            if family != "super-yang-mills" or metric is None:
                raise ProblemError("current.super_parameters requires the super-yang-mills family")
            p = spec["super_parameters"]
            n = metric.dim
            omega2 = (
                _nested_rationals(p["omega2"])
                if "omega2" in p
                else _nested_rationals([[0] * n] * n)
            )
            current = super_current_from_parameters(_nested_rationals(p["b"]), omega2, metric)
            return deformation_from_tails(a, current.tails())
        tails = [_parse_tensor(t, a.dim_v) for t in spec["tails"]]
        if len(tails) != len(a.relation_basis):
            raise ProblemError(
                f"expected {len(a.relation_basis)} tails, got {len(tails)}"
            )
        return deformation_from_tails(a, tuple(tails))
    except ProblemError:
        raise
    except ValueError as e:
        raise ProblemError(f"invalid current: {e}") from e


def serialize_tensor(t: TensorElement) -> list:
    try:
        return [
            {"word": list(word), "coeff": format_rational(c)}
            for word, c in sorted(t.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))
            if c != 0
        ]
    except ValueError as e:  # an int past CPython's limit on decimal digits
        raise ResourceGuardError("a report coefficient has too many decimal digits to print") from e


def _recurrence_dims(s: int, n_max: int) -> list:
    # cubic Koszul, global dimension 3, Gorenstein: the Hilbert series is
    # 1 / (1 - (s+1) t + (s+1) t^3 - t^4)
    dims = []
    for n in range(n_max + 1):
        if n == 0:
            dims.append(1)
            continue
        a1 = dims[n - 1]
        a3 = dims[n - 3] if n >= 3 else 0
        a4 = dims[n - 4] if n >= 4 else 0
        dims.append((s + 1) * a1 - (s + 1) * a3 + a4)
    return dims


def run_task(task: dict, problem: dict, a, metric, deformation):
    """Execute one task; returns (result dict, passed, tsv rows or None)."""
    kind = task["task"]
    family = problem["algebra"]["family"]
    if kind == "identities":
        verify = {"yang-mills": verify_identities, "super-yang-mills": verify_super_identities}
        if family not in verify:
            raise ProblemError(f"task 'identities' is not defined for family {family!r}")
        rep = verify[family](metric, presentation=a)
        return {"task": kind, **rep._asdict(), "pass": rep.all_pass}, rep.all_pass, None
    if kind == "check":
        v = pbw_verdict(deformation)
        result = {
            "task": kind,
            "top_condition": v.j1_holds,
            "lower_conditions": list(v.j2_holds),
            "scalar_condition": v.j3_holds,
            "pass": v.overall,
        }
        if v.witness is not None:
            result["witness"] = serialize_tensor(v.witness)
        if family == "yang-mills":
            cons = conservation_residual(deformation)
            result["conserved"] = cons.conserved
            if not cons.conserved:
                result["conservation_residual"] = serialize_tensor(cons.residual)
        return result, v.overall, None
    if kind == "classify":
        stage1 = solve_stage1(a)
        result = {"task": kind, "stage1_dim": stage1.parameters.dim}
        if family in ("yang-mills", "super-yang-mills"):
            gens = (
                iym_family_generators(metric)
                if family == "yang-mills"
                else isym_family_generators(metric)
            )
            cmp = family_equals_solutions(a, gens, stage1)
            result["family_dim"] = cmp.family_dim
            result["family_equals_solutions"] = cmp.equal
            result["pass"] = cmp.equal
            return result, cmp.equal, None
        result["pass"] = True
        return result, True, None
    if kind == "oracle":
        n_max = task.get("n_max", 4)
        cutoff = task.get("cutoff", n_max + 1)
        if cutoff < max(n_max, a.degree):
            raise ProblemError(
                f"oracle cutoff {cutoff} is below n_max {n_max} or the relation degree {a.degree}"
            )
        res = brute_force_oracle(deformation, n_max, cutoff)
        passed = res.verdict != "FAIL"
        result = {
            "task": kind,
            "n_max": n_max,
            "cutoff": cutoff,
            "quotient_dims": list(res.quotient_dims),
            "expected_dims": list(res.expected_dims),
            "verdict": res.verdict,
            "failure_degree": res.failure_degree,
            "pass": passed,
        }
        tsv = [("n", "quotient_dim", "expected_dim")]
        tsv += [
            (str(n), str(q), str(e))
            for n, (q, e) in enumerate(zip(res.quotient_dims, res.expected_dims))
        ]
        return result, passed, tsv
    if kind == "hilbert":
        n_max = task.get("n_max", 5)
        dims = graded_dims(a, n_max)
        result = {"task": kind, "n_max": n_max, "dims": dims}
        passed = True
        if family in ("yang-mills", "super-yang-mills"):
            expected = _recurrence_dims(problem["algebra"]["s"], n_max)
            passed = dims == expected
            result["recurrence_dims"] = expected
            result["matches_recurrence"] = passed
        result["pass"] = passed
        tsv = [("n", "dim")] + [(str(n), str(d)) for n, d in enumerate(dims)]
        return result, passed, tsv
    raise ProblemError(f"unknown task {kind!r}")


def _emit(report: dict, out_path: Optional[str]) -> None:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_tsv(rows: list, path: str) -> None:
    with open(path, "w") as fh:
        for row in rows:
            fh.write("\t".join(row) + "\n")


def _summarize(results: list) -> None:
    for r in results:
        print(f"{r['task']}: {'pass' if r['pass'] else 'FAIL'}")


def run_problem(problem: dict, tasks: list, args) -> int:
    a, metric = build_algebra(problem["algebra"])
    deformation = build_deformation(problem, a, metric)
    results = []
    tsv_rows: list = []
    all_pass = True
    for task in tasks:
        result, passed, tsv = run_task(task, problem, a, metric, deformation)
        results.append(result)
        all_pass = all_pass and passed
        if tsv:
            tsv_rows.extend(tsv)
    report = {
        "provenance": {
            "engine": "pbwforge",
            "version": __version__,
            "schema_version": problem["schema_version"],
            "seed": problem.get("seed"),
        },
        "tasks": results,
        "pass": all_pass,
    }
    _emit(report, args.out)
    if args.tsv and tsv_rows:
        _emit_tsv(tsv_rows, args.tsv)
    if args.summary:
        _summarize(results)
    return 0 if all_pass else 1


def _so3_deformation(broken: bool) -> DeformationMap:
    a = build_antisymmetrizer_relations(3, 2)
    # relation basis order: (0,1), (0,2), (1,2)
    e = [TensorElement.generator(3, i) for i in range(3)]
    tails = (e[2], -e[1], e[1] if broken else e[0])
    return deformation_from_tails(a, tails)


def run_demo_lie(args) -> int:
    broken = args.case == "broken"
    d = _so3_deformation(broken)
    v = pbw_verdict(d)
    res = brute_force_oracle(d, 6, 7)
    passed = v.overall and res.verdict != "FAIL"
    report = {
        "provenance": {"engine": "pbwforge", "version": __version__, "case": args.case},
        "tasks": [
            {
                "task": "demo-lie",
                "case": args.case,
                "verdict": v.overall,
                "oracle": res.verdict,
                "quotient_dims": list(res.quotient_dims),
                "expected_dims": list(res.expected_dims),
                "pass": passed,
            }
        ],
        "pass": passed,
    }
    _emit(report, args.out)
    if args.summary:
        print(f"demo-lie {args.case}: {'pass' if passed else 'FAIL'}")
    return 0 if passed else 1


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pbwforge")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "identities", "check-current", "classify", "oracle", "hilbert"):
        p = sub.add_parser(name)
        p.add_argument("--input", required=True, help="problem JSON file")
        p.add_argument("--out", help="write the JSON report here (default stdout)")
        p.add_argument("--tsv", help="write dimension tables as TSV")
        p.add_argument("--summary", action="store_true", help="print per-task pass/fail lines")
    demo = sub.add_parser("demo-lie")
    demo.add_argument("--case", choices=("so3", "broken"), default="so3")
    demo.add_argument("--out", help="write the JSON report here (default stdout)")
    demo.add_argument("--summary", action="store_true")
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        tensor_dim_limit()
    except ValueError as e:  # a limit that is no integer >= 1 is invalid input, found before any task
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        if args.command == "demo-lie":
            return run_demo_lie(args)
        problem = load_problem(args.input)
        if args.command == "run":
            tasks = problem["tasks"]
        else:
            wanted = SUBCOMMAND_TASKS[args.command]
            tasks = [t for t in problem["tasks"] if t["task"] == wanted]
            if not tasks:
                tasks = [{"task": wanted}]
        return run_problem(problem, tasks, args)
    except ProblemError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ResourceGuardError as e:
        print(f"resource guard: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
