import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbwforge.algebra import IdealSpan
from pbwforge.cli import main

DATA = Path(__file__).parent / "data"
ROOT = Path(__file__).resolve().parent.parent


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)
def ym_problem(**overrides):
    doc = {
        "schema_version": 1,
        "seed": 0,
        "algebra": {"family": "yang-mills", "s": 2, "metric": "euclidean"},
        "tasks": [{"task": "check"}],
    }
    doc.update(overrides)
    return doc
def test_zero_current_check_passes(tmp_path, capsys):
    path = write(tmp_path, "p.json", ym_problem())
    assert main(["run", "--input", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is True
    assert report["tasks"][0]["conserved"] is True
def test_violating_current_exits_one(tmp_path, capsys):
    doc = ym_problem(current={"parameters": {"b": [1, 0, 0], "s1": [1, 0, 0]}})
    doc["tasks"] = [{"task": "check"}, {"task": "oracle", "n_max": 3, "cutoff": 4}]
    path = write(tmp_path, "p.json", doc)
    assert main(["run", "--input", path]) == 1
    report = json.loads(capsys.readouterr().out)
    check = report["tasks"][0]
    assert check["pass"] is False
    assert "witness" in check or check["conserved"] is False
    assert report["tasks"][1]["verdict"] == "FAIL"
def test_hilbert_tsv(tmp_path):
    doc = ym_problem(tasks=[{"task": "hilbert", "n_max": 5}])
    path = write(tmp_path, "p.json", doc)
    out = tmp_path / "r.json"
    tsv = tmp_path / "dims.tsv"
    assert main(["hilbert", "--input", path, "--out", str(out), "--tsv", str(tsv)]) == 0
    rows = [line.split("\t") for line in tsv.read_text().splitlines()]
    assert rows[0] == ["n", "dim"]
    assert [r[1] for r in rows[1:]] == ["1", "3", "9", "24", "64", "168"]
def test_report_determinism(tmp_path):
    doc = ym_problem(
        current={"parameters": {"b": ["1/2", 0, "-2/3"]}},
        tasks=[{"task": "identities"}, {"task": "check"}, {"task": "classify"}],
    )
    path = write(tmp_path, "p.json", doc)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["run", "--input", path, "--out", str(a)]) == 0
    assert main(["run", "--input", path, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
def test_unknown_field_rejected(tmp_path, capsys):
    doc = ym_problem()
    doc["algebra"]["mystery"] = 1
    path = write(tmp_path, "p.json", doc)
    assert main(["run", "--input", path]) == 2
    assert "schema violation" in capsys.readouterr().err
def test_float_rational_rejected(tmp_path):
    doc = ym_problem(current={"parameters": {"b": [0.5, 0, 0]}})
    path = write(tmp_path, "p.json", doc)
    assert main(["run", "--input", path]) == 2


@pytest.mark.parametrize(
    "overrides",
    [
        {"algebra": {"family": "yang-mills", "s": 2.0, "metric": "euclidean"}},
        {"tasks": [{"task": "hilbert", "n_max": 3.0}]},
        {"current": {"tails": [[{"word": [1.0], "coeff": 1}], [], []]}},
        {"schema_version": 1.0},
    ],
    ids=["s", "n_max", "word-letter", "schema_version"],
)
def test_integral_float_rejected(tmp_path, capsys, overrides):
    # 2.0 is not an integer literal: a schema violation (exit 2), not a
    # TypeError traceback (exit 1) or a report that echoes 1.0
    path = write(tmp_path, "p.json", ym_problem(**overrides))
    assert main(["run", "--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: schema violation at ")
    assert captured.out == ""


def test_malformed_json_rejected(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["run", "--input", str(p)]) == 2


def test_deeply_nested_file_is_invalid_input(tmp_path, capsys):
    # the JSON decoder gives up with a RecursionError: a bad file (exit 2
    # with one error line), not a traceback with exit 1
    p = tmp_path / "deep.json"
    p.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["run", "--input", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: malformed JSON")
    assert len(captured.err.splitlines()) == 1
    assert captured.out == ""


@pytest.mark.parametrize(
    "value",
    ["[" * 900 + "0" + "]" * 900, json.dumps("1" * 5000 + "x"), json.dumps({f"k{i}": i for i in range(2000)})],
    ids=["nested", "long-string", "wide-object"],
)
def test_schema_violation_line_is_bounded(tmp_path, capsys, value):
    # the error line describes the offending value in bounded length
    # (by its type and size, or a cut repr), whatever its depth or size
    p = tmp_path / "p.json"
    p.write_text(json.dumps(ym_problem(current={"parameters": {"b": ["@", 0, 0]}})).replace('"@"', value))
    assert main(["run", "--input", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: schema violation at current/parameters/b/0: ")
    assert len(captured.err.splitlines()) == 1 and len(captured.err) < 200
    assert captured.out == ""


def test_integer_literal_past_the_digit_limit_is_invalid_input(tmp_path, capsys):
    # CPython refuses to parse an integer of more than 4,300 digits with a
    # plain ValueError, not a JSONDecodeError: still a bad file, exit 2
    p = tmp_path / "long.json"
    p.write_text(json.dumps(ym_problem()).replace('"seed": 0', '"seed": ' + "7" * 5000))
    assert main(["run", "--input", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: malformed JSON: ")
    assert len(captured.err.splitlines()) == 1
    assert captured.out == ""


def test_rational_past_the_digit_limit_in_a_custom_relation_is_invalid_input(tmp_path, capsys):
    # CPython refuses to convert a decimal string of more than 4,300 digits
    # with a plain ValueError: exit 2 with one error line, not a traceback
    doc = json.loads((DATA / "custom_xyx_check.problem.json").read_text())
    doc["algebra"]["custom_relations"][0][0]["coeff"] = "1" * 5000
    assert_invalid_input(tmp_path, capsys, doc)


def test_every_nesting_depth_is_invalid_input(tmp_path, capsys):
    # near the recursion limit the decoder reads a value that the schema
    # check, a few calls deeper, can no longer repr for its message: still
    # exit 2 with one error line
    limit = sys.getrecursionlimit()
    doc = json.dumps(ym_problem(current={"parameters": {"b": ["@", 0, 0]}}))
    for depth in range(limit - 150, limit + 10):
        p = tmp_path / "deep.json"
        p.write_text(doc.replace('"@"', "[" * depth + "]" * depth))
        assert main(["run", "--input", str(p)]) == 2, depth
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, depth
        assert captured.out == "", depth


def test_report_coefficient_past_the_digit_limit_trips_the_guard(tmp_path, capsys):
    # a metric entry of 4,200 digits gives a j1 witness whose coefficients
    # CPython will not write in decimal: exit 3 with one guard line and no
    # report, not a ValueError traceback
    doc = json.loads((DATA / "ym_random_metric_tails.problem.json").read_text())
    doc["algebra"]["metric"][0][1] = doc["algebra"]["metric"][1][0] = "9" * 4200
    out = tmp_path / "report.json"
    assert main(["run", "--input", write(tmp_path, "p.json", doc), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err == "resource guard: a report coefficient has too many decimal digits to print\n"
    assert captured.out == ""
    assert not out.exists()


def test_rational_with_trailing_newline_rejected(tmp_path, capsys):
    # the schema's pattern ends in $, which in ECMA-262 matches only at the
    # end of the string, not before a final newline as Python's $ does
    path = write(tmp_path, "p.json", ym_problem(current={"parameters": {"b": ["1\n", 0, 0]}}))
    assert main(["run", "--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: schema violation at current/parameters/b/0: ")
    assert captured.out == ""
def test_degenerate_metric_rejected(tmp_path):
    doc = ym_problem()
    doc["algebra"]["metric"] = [[1, 1], [1, 1]]
    doc["algebra"]["s"] = 1
    path = write(tmp_path, "p.json", doc)
    assert main(["run", "--input", path]) == 2
@pytest.mark.parametrize("family", ["yang-mills", "super-yang-mills"])
@pytest.mark.parametrize("size", [2, 4])
def test_metric_of_the_wrong_size_is_invalid_input(tmp_path, capsys, family, size):
    # s = 2 needs a 3 x 3 metric: any other size is a bad problem file,
    # not a failed check, so exit 2 with one error line and no report
    doc = ym_problem()
    doc["algebra"] = {"family": family, "s": 2, "metric": [[int(i == j) for j in range(size)] for i in range(size)]}
    path = write(tmp_path, "p.json", doc)
    assert main(["run", "--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: invalid metric: dimension {size}, not s + 1 = 3\n"
    assert captured.out == ""


@pytest.mark.parametrize("limit", ["abc", "-5", "0", "1e4"])
@pytest.mark.parametrize("command", ["run", "demo-lie"])
def test_a_limit_that_is_no_positive_integer_is_invalid_input(tmp_path, capsys, monkeypatch, limit, command):
    # not a ValueError traceback (exit 1, a failed check's code) and not
    # the resource guard (exit 3): exit 2 with one error line and no report
    monkeypatch.setenv("PBWFORGE_MAX_TENSOR_DIM", limit)
    out = tmp_path / "report.json"
    path = write(tmp_path, "p.json", ym_problem())
    argv = ["run", "--input", path] if command == "run" else ["demo-lie"]
    assert main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: PBWFORGE_MAX_TENSOR_DIM must be an integer >= 1, got {limit!r}\n"
    assert captured.out == ""
    assert not out.exists()


def test_wrong_size_metric_problem_file(capsys):
    assert main(["run", "--input", str(DATA / "ym_wrong_size_metric.problem.json")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: invalid metric: ")
    assert captured.out == ""


def family_problem(family, s, current):
    doc = ym_problem(current=current)
    doc["algebra"] = {"family": family, "s": s, "metric": "euclidean"}
    return doc


def ym_parameters(s, **arrays):
    return family_problem("yang-mills", s, {"parameters": {"b": [1] + [0] * s, **arrays}})


def sym_parameters(s, **arrays):
    return family_problem("super-yang-mills", s, {"super_parameters": {"b": [1] + [0] * s, **arrays}})


def zeros(n, rank):
    return [zeros(n, rank - 1) for _ in range(n)] if rank else 0


def one_at(t, idx):
    t = json.loads(json.dumps(t))
    row = t
    for i in idx[:-1]:
        row = row[i]
    row[idx[-1]] = 1
    return t


# every mis-sized parameter array found in problem files: each exited 1
# with an IndexError traceback, ran silently truncated with exit 0, or
# exited 2 only through a later check; s + 1 entries per axis are right
WRONG_SHAPES = {
    "ym-b-long-s1": ym_parameters(1, b=[1, 0, 0]),
    "ym-b-long-s2": ym_parameters(2, b=[1, 0, 0, 0]),
    "ym-s2-one-row": ym_parameters(1, s2=[[0, 0]]),
    "ym-s3-1x1x1": ym_parameters(1, s3=[[[1]]]),
    "ym-s1-long": ym_parameters(1, s1=[0, 0, 0]),
    "sym-b-short": sym_parameters(2, b=[1]),
    "sym-omega2-1x1": sym_parameters(1, omega2=[[0]]),
    "ym-s2-3x3-at-s1": ym_parameters(1, s2=one_at(zeros(3, 2), (2, 2))),
    "sym-b-long": sym_parameters(1, b=[1, 0, 1]),
    "sym-omega2-3x3-at-s1": sym_parameters(1, omega2=zeros(3, 2)),
    "ym-omega3-3x3x3-at-s1": ym_parameters(1, omega3=zeros(3, 3)),
    "ym-b-short": ym_parameters(2, b=[1, 0]),
    "ym-s1-short": ym_parameters(2, s1=[0, 0]),
    "ym-omega3-1x1x1": ym_parameters(1, omega3=[[[1]]]),
    "ym-s2-ragged": ym_parameters(2, s2=[[0, 0, 0], [0, 0], [0, 0, 0]]),
}


def assert_invalid_input(tmp_path, capsys, doc, label=None):
    # exit 2, one error line and no report
    out = tmp_path / "report.json"
    assert main(["run", "--input", write(tmp_path, "p.json", doc), "--out", str(out)]) == 2, label
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, label
    assert captured.out == "", label
    assert not out.exists(), label


@pytest.mark.parametrize("name", sorted(WRONG_SHAPES))
def test_a_parameter_array_of_the_wrong_shape_is_invalid_input(tmp_path, capsys, name):
    assert_invalid_input(tmp_path, capsys, WRONG_SHAPES[name])


def resized(t, axis, delta):
    """``t`` with one entry fewer (delta -1) or one more (delta 1) along ``axis``."""
    if axis:
        return [resized(row, axis - 1, delta) for row in t]
    return t[:-1] if delta < 0 else t + [json.loads(json.dumps(t[0]))]


def resized_problems():
    """Every parameter array of both families at s = 1 and 2, one entry
    short and one entry long along each axis, the other arrays right."""
    for s in (1, 2):
        n = s + 1
        ym = {"b": ([1] + [0] * s, 1), "omega3": (zeros(n, 3), 3), "s3": (zeros(n, 3), 3), "s2": (zeros(n, 2), 2), "s1": (zeros(n, 1), 1)}
        sym = {"b": ([1] + [0] * s, 1), "omega2": (zeros(n, 2), 2)}
        for family, key, arrays in (("yang-mills", "parameters", ym), ("super-yang-mills", "super_parameters", sym)):
            right = {name: t for name, (t, _) in arrays.items()}
            yield f"{family}-s{s}-right", family_problem(family, s, {key: right}), 0
            for name, (t, rank) in arrays.items():
                for axis in range(rank):
                    for delta in (-1, 1):
                        wrong = {**right, name: resized(t, axis, delta)}
                        label = f"{family}-s{s}-{name}-axis{axis}-{'short' if delta < 0 else 'long'}"
                        yield label, family_problem(family, s, {key: wrong}), 2


def test_parameter_arrays_resized_along_each_axis_are_invalid_input(tmp_path, capsys):
    cases = list(resized_problems())
    assert len(cases) == 2 * (2 + 2 * (1 + 3 + 3 + 2 + 1) + 2 * (1 + 2))
    for label, doc, code in cases:
        if code == 0:
            assert main(["run", "--input", write(tmp_path, "p.json", doc)]) == 0, label
            capsys.readouterr()
        else:
            assert_invalid_input(tmp_path, capsys, doc, label)


def test_oracle_on_the_free_algebra(tmp_path, capsys):
    # three letters antisymmetrized over two generators: no relation at
    # all, so the ideal is zero and every quotient is the whole of F^n
    doc = ym_problem(
        algebra={"family": "antisymmetrizer", "s": 1, "N": 3},
        tasks=[{"task": "oracle"}, {"task": "check"}],
    )
    path = write(tmp_path, "p.json", doc)
    assert main(["run", "--input", path]) == 0
    oracle = json.loads(capsys.readouterr().out)["tasks"][0]
    assert oracle["verdict"] == "CONSISTENT"
    assert oracle["quotient_dims"] == oracle["expected_dims"] == [1, 3, 7, 15, 31]


def test_resource_guard_exit_code(tmp_path, monkeypatch):
    monkeypatch.setenv("PBWFORGE_MAX_TENSOR_DIM", "10")
    doc = ym_problem(tasks=[{"task": "oracle", "n_max": 4}])
    path = write(tmp_path, "p.json", doc)
    assert main(["run", "--input", path]) == 3
@pytest.mark.parametrize(
    "task",
    [{"task": "oracle", "n_max": 5, "cutoff": 3}, {"task": "oracle", "n_max": 1, "cutoff": 2}],
    ids=["below-n_max", "below-degree"],
)
def test_oracle_cutoff_too_low_is_invalid_input(tmp_path, capsys, task):
    # a cutoff below n_max or below N (3 for YM) is a bad problem file,
    # not a failed check: exit 2 with an error line and no report
    path = write(tmp_path, "p.json", ym_problem(tasks=[{"task": "check"}, task]))
    assert main(["run", "--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "cutoff" in captured.err
    assert captured.out == ""


def test_hilbert_task_builds_one_span(tmp_path, capsys, monkeypatch):
    # the task reads every degree off one span of R, built at its top degree
    cutoffs = []
    original_init = IdealSpan.__init__

    def init(self, relations, dim_v, cutoff):
        cutoffs.append(cutoff)
        original_init(self, relations, dim_v, cutoff)

    monkeypatch.setattr(IdealSpan, "__init__", init)
    path = write(tmp_path, "p.json", ym_problem(tasks=[{"task": "hilbert", "n_max": 7}]))
    assert main(["run", "--input", path]) == 0
    assert json.loads(capsys.readouterr().out)["tasks"][0]["dims"] == [1, 3, 9, 24, 64, 168, 441, 1155]
    assert cutoffs == [7]


def test_super_family_problem(tmp_path, capsys):
    doc = {
        "schema_version": 1,
        "algebra": {"family": "super-yang-mills", "s": 2, "metric": "minkowski"},
        "current": {
            "super_parameters": {
                "b": [1, 2, -1],
                "omega2": [[0, 2, -1], [-2, 0, 3], [1, -3, 0]],
            }
        },
        "tasks": [{"task": "identities"}, {"task": "check"}, {"task": "classify"}],
    }
    path = write(tmp_path, "p.json", doc)
    assert main(["run", "--input", path]) == 0
def test_custom_algebra_with_tails(tmp_path, capsys):
    # so(3) fed through the generic path
    doc = {
        "schema_version": 1,
        "algebra": {
            "family": "custom",
            "s": 2,
            "N": 2,
            "custom_relations": [
                [{"word": [0, 1], "coeff": 1}, {"word": [1, 0], "coeff": -1}],
                [{"word": [0, 2], "coeff": 1}, {"word": [2, 0], "coeff": -1}],
                [{"word": [1, 2], "coeff": 1}, {"word": [2, 1], "coeff": -1}],
            ],
        },
        "current": {
            "tails": [
                [{"word": [2], "coeff": 1}],
                [{"word": [1], "coeff": -1}],
                [{"word": [0], "coeff": 1}],
            ]
        },
        "tasks": [{"task": "check"}, {"task": "oracle", "n_max": 4}],
    }
    path = write(tmp_path, "p.json", doc)
    assert main(["run", "--input", path]) == 0
def test_tail_count_mismatch_rejected(tmp_path):
    doc = ym_problem(current={"tails": [[{"word": [0], "coeff": 1}]]})
    path = write(tmp_path, "p.json", doc)
    assert main(["run", "--input", path]) == 2
def test_demo_lie_cases(tmp_path, capsys):
    assert main(["demo-lie", "--case", "so3"]) == 0
    report = json.loads(capsys.readouterr().out)
    task = report["tasks"][0]
    assert task["verdict"] is True
    assert task["oracle"] == "CONSISTENT"
    assert main(["demo-lie", "--case", "broken"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["tasks"][0]["pass"] is False
def test_subcommand_appends_default_task(tmp_path, capsys):
    doc = ym_problem(tasks=[{"task": "check"}])
    path = write(tmp_path, "p.json", doc)
    assert main(["classify", "--input", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["tasks"][0]["task"] == "classify"
    assert report["tasks"][0]["family_equals_solutions"] is True
def test_summary_lines(tmp_path, capsys):
    path = write(tmp_path, "p.json", ym_problem())
    out = tmp_path / "r.json"
    assert main(["run", "--input", path, "--out", str(out), "--summary"]) == 0
    assert "check: pass" in capsys.readouterr().out
def run_cli(path):
    """(exit code, stderr, stdout) of ``pbwforge run`` on ``path`` in a
    fresh interpreter, which is killed after 30 s."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "pbwforge.cli", "run", "--input", str(path)]
    out = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=30)
    return out.returncode, out.stderr, out.stdout


@pytest.mark.parametrize(
    "problem",
    [
        DATA / "antisymmetrizer_degree_9100.problem.json",
        ym_problem(
            current={"parameters": {"b": [1, 0, 0]}},
            tasks=[{"task": "oracle", "n_max": 3, "cutoff": 100_000_000}],
        ),
    ],
    ids=["antisymmetrizer-N-9100", "oracle-cutoff-1e8"],
)
def test_resource_guard_decides_without_the_power(tmp_path, problem):
    # 3^9100 has more decimal digits than CPython will format, and 3^(10^8)
    # takes minutes to build: the guard decides from the degree alone, at once
    path = problem if isinstance(problem, Path) else write(tmp_path, "p.json", problem)
    start = time.monotonic()
    code, err, out = run_cli(path)
    assert code == 3
    assert time.monotonic() - start < 10
    assert len(err.splitlines()) == 1 and err.startswith("resource guard: ")
    assert out == ""


@pytest.mark.parametrize(
    "task",
    [{"task": "hilbert", "n_max": 6}, {"task": "classify"}, {"task": "check"}, {"task": "identities"}],
    ids=lambda t: t["task"],
)
def test_resource_guard_every_task(tmp_path, monkeypatch, task):
    # YM s=2 touches V^(x)4 (81 dims) in every task, above the limit of 50
    monkeypatch.setenv("PBWFORGE_MAX_TENSOR_DIM", "50")
    path = write(tmp_path, "p.json", ym_problem(tasks=[task]))
    assert main(["run", "--input", path]) == 3
@pytest.mark.parametrize(
    "algebra",
    [
        {"family": "yang-mills", "s": 3, "metric": "euclidean"},
        {"family": "antisymmetrizer", "s": 3, "N": 3},
    ],
    ids=["yang-mills", "antisymmetrizer"],
)
def test_resource_guard_runs_before_the_algebra_is_built(tmp_path, monkeypatch, algebra):
    # 4^4 and 4^3 exceed the limit of 50; hilbert up to degree 2 never
    # sizes a tensor space, so only the guard on the algebra itself stops it
    import pbwforge.cli
    import pbwforge.yang_mills

    def built(*args):
        raise AssertionError("algebra built before the resource guard ran")

    monkeypatch.setattr(pbwforge.yang_mills, "ym_coefficients", built)
    monkeypatch.setattr(pbwforge.cli, "build_antisymmetrizer_relations", built)
    monkeypatch.setenv("PBWFORGE_MAX_TENSOR_DIM", "50")
    doc = ym_problem(algebra=algebra, tasks=[{"task": "hilbert", "n_max": 2}])
    path = write(tmp_path, "p.json", doc)
    assert main(["run", "--input", path]) == 3


def test_identities_reuse_the_problem_overlap_space(tmp_path, monkeypatch, capsys):
    # identities reads W from the problem's overlap core, which check
    # builds anyway: one overlap_space per run, not one per task
    import pbwforge.algebra
    import pbwforge.yang_mills

    calls = []
    original = pbwforge.algebra.overlap_space

    def counting(a):
        calls.append(a)
        return original(a)

    monkeypatch.setattr(pbwforge.algebra, "overlap_space", counting)
    # a by-name import of overlap_space in yang_mills would escape the algebra patch
    monkeypatch.setattr(pbwforge.yang_mills, "overlap_space", counting, raising=False)
    doc = ym_problem(
        current={"parameters": {"b": [1, 0, "1/2"]}},
        tasks=[{"task": "identities"}, {"task": "check"}],
    )
    assert main(["run", "--input", write(tmp_path, "p.json", doc)]) == 0
    assert len(calls) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["tasks"][0]["overlap_is_line"] is True
    assert report["tasks"][0]["pass"] is True


IDENTITY_REPORTS = {
    ("yang-mills", "euclidean"): {
        "task": "identities",
        "cyclic_invariance": True,
        "two_sided_overlap": True,
        "cyclic_sum_zero": True,
        "commutator_form": True,
        "overlap_is_line": True,
        "pass": True,
    },
    ("super-yang-mills", "minkowski"): {
        "task": "identities",
        "anti_cyclic": True,
        "two_sided_overlap": True,
        "bracket_form": True,
        "overlap_is_line": True,
        "pass": True,
    },
}


@pytest.mark.parametrize("family, metric", sorted(IDENTITY_REPORTS))
def test_identities_result_keys(tmp_path, capsys, family, metric):
    # each family reports exactly the fields of its identity report
    doc = ym_problem(
        algebra={"family": family, "s": 2, "metric": metric},
        tasks=[{"task": "identities"}],
    )
    assert main(["run", "--input", write(tmp_path, "p.json", doc)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["tasks"] == [IDENTITY_REPORTS[family, metric]]


GOLDEN = (
    (["run", "--input", "ym_minkowski_check_j1_violation.problem.json"], 1, "ym_minkowski_check_j1_violation"),
    (["run", "--input", "ym_euclidean_check_lower_violation.problem.json"], 1, "ym_euclidean_check_lower_violation"),
    (["run", "--input", "sym_s3_classify.problem.json"], 0, "sym_s3_classify"),
    (["run", "--input", "ym_s2_hilbert.problem.json"], 0, "ym_s2_hilbert"),
    (["run", "--input", "ym_random_metric_tails.problem.json"], 0, "ym_random_metric_tails"),
    (["run", "--input", "ym_random_metric_s3_oracle.problem.json"], 1, "ym_random_metric_s3_oracle"),
    (["run", "--input", "ym_minkowski_identities.problem.json"], 0, "ym_minkowski_identities"),
    (["run", "--input", "sym_euclidean_identities.problem.json"], 0, "sym_euclidean_identities"),
    # the SYM family on a rational, non-diagonal inverse metric
    (["run", "--input", "sym_random_metric_identities.problem.json"], 0, "sym_random_metric_identities"),
    (["demo-lie", "--case", "broken"], 1, "demo_lie_broken"),
    (["demo-lie", "--case", "so3"], 0, "demo_lie_so3"),
    # the super family on the Minkowski metric of dimension 4, to degree 6
    (["run", "--input", "sym_s3_minkowski_hilbert.problem.json"], 0, "sym_s3_minkowski_hilbert"),
    # a wrong positive: the chain accepts a tail that the oracle refutes
    (["run", "--input", "custom_xyx_check.problem.json"], 0, "custom_xyx_check"),
)
@pytest.mark.parametrize("argv, code, name", GOLDEN, ids=[g[2] for g in GOLDEN])
def test_golden_reports(tmp_path, argv, code, name):
    # the reports are stored byte for byte; a change to any verdict,
    # witness, residual or layout shows up here
    argv = [str(DATA / a) if a.endswith(".json") else a for a in argv]
    out = tmp_path / "report.json"
    assert main([*argv, "--out", str(out)]) == code
    assert out.read_bytes() == (DATA / f"{name}.report.json").read_bytes()


# the front-end fuzz: golden problem files with their arrays resized,
# emptied or made ragged, rationals with a zero denominator or thousands
# of digits, values nested deeply, a small s, under a low tensor limit
RATIONAL = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?\Z")
DEEP = "@deep:{}@"  # a value nested this deep, written out after json.dumps
DEPTHS = (3, 200, 950, 5000)


def json_nodes(node, path=()):
    """(path, node) for every node of a JSON document, the root first."""
    yield path, node
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from json_nodes(child, path + (key,))


def replaced(node, path, value):
    """A copy of ``node`` with the node at ``path`` replaced by ``value``."""
    if not path:
        return value
    copy = dict(node) if isinstance(node, dict) else list(node)
    copy[path[0]] = replaced(node[path[0]], path[1:], value)
    return copy


def is_rational(node):
    return type(node) is int or isinstance(node, str) and RATIONAL.match(node) is not None


def is_matrix(node):
    return isinstance(node, list) and any(isinstance(row, list) and row for row in node)


def ragged(node, draw):
    """One nonempty row of the list of lists ``node`` one entry short."""
    i = draw(st.sampled_from([i for i, row in enumerate(node) if isinstance(row, list) and row]))
    return node[:i] + [node[i][:-1]] + node[i + 1 :]


# name: (whether it applies to a (path, node), the new node from the node and a draw)
MUTATIONS = {
    "mis-sized": (
        lambda path, node: isinstance(node, list),
        lambda node, draw: node + node[-1:] if node and draw(st.booleans()) else node[:-1],
    ),
    "empty": (lambda path, node: isinstance(node, list), lambda node, draw: []),
    "ragged": (lambda path, node: is_matrix(node), ragged),
    "zero denominator": (
        lambda path, node: is_rational(node),
        lambda node, draw: str(node).partition("/")[0] + "/0",
    ),
    "huge literal": (
        lambda path, node: is_rational(node),
        lambda node, draw: draw(st.sampled_from([10**30, -(10**4000), "9" * 4200, "1" * 4400 + "/3", f"-1/{10**60}"])),
    ),
    "deep nesting": (lambda path, node: True, lambda node, draw: DEEP.format(draw(st.sampled_from(DEPTHS)))),
    "small s": (lambda path, node: path == ("algebra", "s"), lambda node, draw: draw(st.sampled_from([0, 1]))),
}


def run_quietly(argv, out):
    """(exit code, stdout, stderr, report bytes or None) of ``main(argv)``
    writing its report to ``out``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([*argv, "--out", str(out)])
    return code, stdout.getvalue(), stderr.getvalue(), out.read_bytes() if out.exists() else None


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_mutated_problem_files_exit_cleanly(data):
    source = data.draw(st.sampled_from(sorted(DATA.glob("*.problem.json"))), label="file")
    doc = json.loads(source.read_text())
    for _ in range(data.draw(st.integers(0, 2), label="mutations")):
        kind = data.draw(st.sampled_from(sorted(MUTATIONS)), label="mutation")
        applies, mutate = MUTATIONS[kind]
        targets = [(path, node) for path, node in json_nodes(doc) if applies(path, node)]
        if targets:
            path, node = data.draw(st.sampled_from(targets), label="at")
            doc = replaced(doc, path, mutate(node, data.draw))
    text = json.dumps(doc)
    for depth in DEPTHS:
        text = text.replace(json.dumps(DEEP.format(depth)), "[" * depth + "0" + "]" * depth)
    # one run in three under a low limit
    limit = data.draw(st.integers(1, 2000), label="limit") if data.draw(st.integers(0, 2)) == 0 else None
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        if limit is None:
            mp.delenv("PBWFORGE_MAX_TENSOR_DIM", raising=False)
        else:
            mp.setenv("PBWFORGE_MAX_TENSOR_DIM", str(limit))
        problem = Path(tmp) / "p.json"
        problem.write_text(text)
        first, second = (run_quietly(["run", "--input", str(problem)], Path(tmp) / f"r{i}.json") for i in (1, 2))
    code, stdout, stderr, report = first
    assert code in (0, 1, 2, 3)
    assert stdout == ""
    if code in (2, 3):
        assert stderr.count("\n") == 1 and stderr.endswith("\n")
    assert (report is not None) == (code in (0, 1))
    assert second == first
