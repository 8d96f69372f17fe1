"""Source hygiene: no module of the package imports a name it never uses,
and no function imports from the package at call time."""

from __future__ import annotations

import ast
import os

import pytest

PACKAGE = os.path.join(os.path.dirname(__file__), os.pardir, "src",
                       "wallcross")
MODULES = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements and never read in the module."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(
        imported.items(), key=lambda kv: kv[1]) if name not in used]


def local_relative_imports(source: str) -> list[str]:
    """Relative imports made inside a function body."""
    tree = ast.parse(source)
    return sorted({f"line {node.lineno}: {fn.name}"
                   for fn in ast.walk(tree)
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn)
                   if isinstance(node, ast.ImportFrom) and node.level > 0})


def test_detector_flags_an_unused_import():
    assert unused_imports("import os\nimport sys\nsys.exit()\n") == \
        ["line 1: os"]
    assert unused_imports("from a import b as c\nc()\n") == []


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    with open(os.path.join(PACKAGE, module)) as fh:
        assert unused_imports(fh.read()) == []


def test_detector_flags_a_local_relative_import():
    source = ("from .a import b\nimport os\n\n"
              "def f():\n    import json\n    from .c import d\n"
              "    return b, d, json, os\n")
    assert local_relative_imports(source) == ["line 6: f"]


@pytest.mark.parametrize("module", MODULES)
def test_no_local_relative_imports(module):
    with open(os.path.join(PACKAGE, module)) as fh:
        assert local_relative_imports(fh.read()) == []
