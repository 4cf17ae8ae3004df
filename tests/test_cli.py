import json
from pathlib import Path

import pytest

from pbwforge.cli import main

DATA = Path(__file__).parent / "data"


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


def test_wrong_size_metric_problem_file(capsys):
    assert main(["run", "--input", str(DATA / "ym_wrong_size_metric.problem.json")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: invalid metric: ")
    assert captured.out == ""


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
    (["demo-lie", "--case", "broken"], 1, "demo_lie_broken"),
)
@pytest.mark.parametrize("argv, code, name", GOLDEN, ids=[g[2] for g in GOLDEN])
def test_golden_reports(tmp_path, argv, code, name):
    # the reports are stored byte for byte; a change to any verdict,
    # witness, residual or layout shows up here
    argv = [str(DATA / a) if a.endswith(".json") else a for a in argv]
    out = tmp_path / "report.json"
    assert main([*argv, "--out", str(out)]) == code
    assert out.read_bytes() == (DATA / f"{name}.report.json").read_bytes()
