"""The benchmark's span tracer resolves every function it traces.

``bench/spans.py`` wraps package functions by module and attribute
name, so deleting or renaming one of them breaks a traced benchmark run.
This test loads the tracer's tables (without writing bytecode next to
it) and resolves each entry against the package.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.modules.pop(spec.name, None)
        sys.dont_write_bytecode = saved


def test_traced_modules_import(spans):
    for name in spans.MODULES:
        importlib.import_module(name)


def test_traced_functions_resolve(spans):
    missing = []
    for span, module, path in spans.TRACED:
        owner = importlib.import_module(module)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{span}: {module}.{path}")
    assert missing == []
