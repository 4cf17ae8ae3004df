"""Every import in the package modules is used.

A name that a module imports and never reads is dead weight that hides
what the module really depends on; it is left behind when the last use
goes.  ``__init__.py`` re-exports by design and is skipped, as are
``from __future__`` imports and names whose line carries ``# noqa``.

Importing the command line pulls in neither ``dataclasses`` nor
``inspect`` (with ``ast``, ``dis`` and ``tokenize`` behind it): every
``pbwforge run`` starts a fresh interpreter and would pay for them.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "pbwforge"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa" in lines[alias.lineno - 1]:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_an_unused_import():
    source = "from __future__ import annotations\nimport os\nfrom x import a, b  # noqa\nfrom y import c\nc()\n"
    assert unused_imports(source) == [(2, "os")]


def test_the_command_line_imports_no_dataclasses_or_inspect():
    # -S: no site module, so no .pth file of the installation imports
    # anything first; src/ goes on the path by hand
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import pbwforge.cli; "
        "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"
