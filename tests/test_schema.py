"""The problem-file checker in ``pbwforge.cli`` against the schema it reads.

``cli.schema_violation`` implements only the JSON Schema keywords that
``problem.schema.json`` uses.  These tests pin that set, compare the
checker with ``jsonschema.Draft202012Validator`` on seeded mutations of
problem documents, and check that the command line never imports
``jsonschema``.

The checker differs from ``jsonschema`` in two places, and the
differential test states both.  An integral float such as ``2.0`` is no
integer.  And ``pattern`` matches as ECMA-262 specifies, where ``$`` is
the end of the string; ``jsonschema`` matches with Python's ``re``,
whose ``$`` also matches before a final newline, so it accepts ``"1\n"``
as a rational and the checker does not.  Every other document gets the
same verdict and the same first error path from both.
"""

import copy
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from pbwforge.cli import load_schema, schema_violation
from pbwforge.rationals import RATIONAL_PATTERN, Q, rational

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"

# what cli._violations implements, and the annotations it skips
KEYWORDS = {
    "type", "const", "enum", "minimum", "minItems", "pattern",
    "items", "properties", "required", "additionalProperties", "oneOf", "$ref",
}
ROOT_ONLY = {"$schema", "$id", "$defs"}
TYPES = {"object", "array", "string", "integer"}


def test_schema_uses_only_implemented_keywords():
    schema = load_schema()
    assert schema["$schema"] == "https://json-schema.org/draft/2020-12/schema"
    seen = set()

    def walk(node, at_root=False):
        for key, value in node.items():
            seen.add(key)
            if key in ROOT_ONLY:
                assert at_root, f"{key} below the root"
                continue
            assert key in KEYWORDS or key == "title", f"unimplemented keyword {key!r}"
            if key == "type":
                assert value in TYPES, f"unimplemented type {value!r}"
            elif key == "additionalProperties":
                assert value is False, "only additionalProperties: false is implemented"
            elif key == "$ref":
                assert value.startswith("#/$defs/"), value
                assert value.removeprefix("#/$defs/") in schema["$defs"], value
            elif key == "items":
                walk(value)
            elif key == "properties":
                for sub in value.values():
                    walk(sub)
            elif key == "oneOf":
                for sub in value:
                    walk(sub)

    walk(schema, at_root=True)
    for sub in schema["$defs"].values():
        walk(sub)
    assert KEYWORDS <= seen, f"implemented but unused: {KEYWORDS - seen}"


def _base_documents():
    docs = [json.loads(p.read_text()) for p in sorted(DATA.glob("*.problem.json"))]
    docs.append({
        "schema_version": 1,
        "seed": 5,
        "algebra": {"family": "yang-mills", "s": 1, "metric": [[1, 0], [0, "-1/2"]]},
        "current": {"parameters": {
            "b": [1, "2/3"],
            "omega3": [[[0, 1], [-1, 0]], [[0, "1/2"], ["-1/2", 0]]],
            "s3": [[[1, 0], [0, 1]], [[0, 0], [0, 0]]],
            "s2": [[1, 2], [3, 4]],
            "s1": [0, "-7/3"],
        }},
        "tasks": [
            {"task": "check"},
            {"task": "oracle", "n_max": 4, "cutoff": 5, "seed": 2},
            {"task": "hilbert", "n_max": 3},
        ],
    })
    docs.append({
        "schema_version": 1,
        "algebra": {"family": "super-yang-mills", "s": 2, "metric": "minkowski"},
        "current": {"super_parameters": {
            "b": [1, 2, -1], "omega2": [[0, 2, -1], [-2, 0, 3], [1, -3, 0]],
        }},
        "tasks": [{"task": "identities"}, {"task": "classify"}],
    })
    docs.append({
        "schema_version": 1,
        "algebra": {
            "family": "custom",
            "s": 2,
            "N": 2,
            "custom_relations": [
                [{"word": [0, 1], "coeff": 1}, {"word": [1, 0], "coeff": -1}],
                [{"word": [0, 2], "coeff": "3/4"}, {"word": [2, 0], "coeff": -1}],
            ],
        },
        "current": {"tails": [[{"word": [2], "coeff": 1}], []]},
        "tasks": [{"task": "check"}, {"task": "oracle", "n_max": 4}],
    })
    docs.append({
        "schema_version": 1,
        "algebra": {"family": "antisymmetrizer", "s": 2, "N": 3},
        "tasks": [{"task": "hilbert"}],
    })
    return docs


REPLACEMENTS = (
    True, False, -1, -7, 0, 1.5, "", "1/0", "x", "-3/4", " 1", "1\n", [], {}, None, 2.0, 3.0, 1.0,
)


def _locations(node, out):
    """Every (container, key) pair below ``node``."""
    if isinstance(node, dict):
        for k, v in node.items():
            out.append((node, k))
            _locations(v, out)
    elif isinstance(node, list):
        for i, v in enumerate(node):
            out.append((node, i))
            _locations(v, out)
    return out


def _mutate(doc, rng):
    """Drop a key, add an unknown one, truncate an array or swap in a value."""
    container, key = rng.choice(_locations(doc, []))
    value = container[key]
    target = value if isinstance(value, dict) else container
    op = rng.randrange(4)
    if op == 0 and isinstance(container, dict):
        del container[key]
    elif op == 1 and isinstance(target, dict):
        target[rng.choice(["mystery", "s", "N", "b", "word", "task"]) + rng.choice(["", "_"])] = 1
    elif op == 2 and isinstance(value, list) and value:
        del value[rng.randrange(len(value)):]
    else:
        container[key] = copy.deepcopy(rng.choice(REPLACEMENTS))


def _has_integral_float(node):
    if isinstance(node, float):
        return node.is_integer()
    if isinstance(node, dict):
        node = list(node.values())
    return isinstance(node, list) and any(_has_integral_float(v) for v in node)


def _has_trailing_newline(node):
    if isinstance(node, str):
        return node.endswith("\n")
    if isinstance(node, dict):
        node = list(node.values())
    return isinstance(node, list) and any(_has_trailing_newline(v) for v in node)


def test_checker_matches_draft_2020_12():
    jsonschema = pytest.importorskip("jsonschema")
    schema = load_schema()
    reference = jsonschema.Draft202012Validator(schema)
    rng = random.Random(20261018)
    bases = _base_documents()
    for doc in bases:
        assert schema_violation(doc, schema) is None
        assert reference.is_valid(doc)
    verdicts = {True: 0, False: 0}
    floats = newlines = 0
    for _ in range(2400):
        doc = copy.deepcopy(rng.choice(bases))
        for _ in range(rng.choice((1, 1, 2, 3))):
            _mutate(doc, rng)
        mine = schema_violation(doc, schema)
        if _has_integral_float(doc):
            # Draft 2020-12 counts 2.0 as an integer; the checker does not
            floats += 1
            assert mine is not None, doc
            continue
        if _has_trailing_newline(doc):
            # "1\n" is no rational under ECMA-262's $; every string with a
            # final newline sits where the schema wants a rational or a
            # constant, so the checker rejects the document
            newlines += 1
            assert mine is not None, doc
            continue
        errors = sorted(reference.iter_errors(doc), key=lambda e: list(e.absolute_path))
        assert (mine is None) == (not errors), (doc, mine, errors[:1])
        if errors:
            assert mine[0] == tuple(errors[0].absolute_path), (doc, mine, errors[0].message)
        verdicts[mine is None] += 1
    assert min(verdicts.values()) >= 100, verdicts
    assert floats >= 50
    assert newlines >= 50


def test_trailing_newline_is_the_pattern_difference():
    jsonschema = pytest.importorskip("jsonschema")
    schema = load_schema()
    doc = json.loads((DATA / "ym_s2_hilbert.problem.json").read_text())
    doc["current"] = {"parameters": {"b": ["1\n", 0, 0]}}
    assert jsonschema.Draft202012Validator(schema).is_valid(doc)
    assert schema_violation(doc, schema)[0] == ("current", "parameters", "b", 0)
    doc["current"]["parameters"]["b"][0] = "1"
    assert schema_violation(doc, schema) is None


def rational_schema():
    """The schema's rational definition as a schema of its own."""
    return {"$defs": load_schema()["$defs"], "$ref": "#/$defs/rational"}


def test_rational_reads_the_schema_pattern():
    # the library and the schema accept one grammar for a rational string
    alternatives = load_schema()["$defs"]["rational"]["oneOf"]
    assert [a.get("pattern") for a in alternatives] == [None, RATIONAL_PATTERN]
    assert RATIONAL_PATTERN == "^-?[0-9]+(/[1-9][0-9]*)?$"


@pytest.mark.parametrize("text", ["1_000", "\u0661\u0662", "3/ 4", " 5 ", "1/-2", "+3", "1/0", "5\n", "", "/2", "1/2/3"])
def test_rational_rejects_strings_outside_the_pattern(text):
    # underscores, non-ASCII digits, spaces, a signed denominator, a plus
    # sign and a zero denominator are no rational of the schema
    assert schema_violation(text, rational_schema()) is not None
    with pytest.raises(ValueError):
        rational(text)


@pytest.mark.parametrize("text, value", [("0", Q(0)), ("-7", Q(-7)), ("12/8", Q(3, 2)), ("-3/4", Q(-3, 4)), ("007/10", Q(7, 10))])
def test_rational_reads_strings_in_the_pattern(text, value):
    assert schema_violation(text, rational_schema()) is None
    assert rational(text) == value


@pytest.mark.parametrize("doc, where", [
    ({"schema_version": 1, "algebra": {"family": "custom"}}, ()),
    ({"schema_version": 1, "algebra": {"family": "lie"}, "tasks": [{}]}, ("algebra", "family")),
    ({"schema_version": 1, "algebra": {"family": "custom", "s": 0}, "tasks": [{}]}, ("algebra", "s")),
    ({"schema_version": 1, "algebra": {"family": "custom"}, "tasks": [{"task": "check"}, {}]}, ("tasks", 1)),
    ({"schema_version": 1, "algebra": {"family": "custom", "metric": [[1, "1/0"]]},
      "tasks": [{"task": "check"}]}, ("algebra", "metric")),
])
def test_first_violation_in_path_order(doc, where):
    path, message = schema_violation(doc, load_schema())
    assert path == where, message


def test_cli_never_imports_jsonschema(tmp_path):
    # the runtime needs no validator package: a full run leaves it unloaded
    code = (
        "import sys\n"
        "from pbwforge.cli import main\n"
        f"code = main(['run', '--input', {str(DATA / 'ym_s2_hilbert.problem.json')!r},"
        f" '--out', {str(tmp_path / 'r.json')!r}])\n"
        "print(code, 'jsonschema' in sys.modules)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["0", "False"]
