"""Source hygiene: no module of the package or of the tests imports a name
it never uses, no function imports from the package at call time, no
top-level function or class of the package goes unnamed outside its
definition, no method or property of a package class is never taken as an
attribute, and no parameter with a default goes unset by every caller.

Callers are the package itself, the benchmark and the scripts (``src/``,
``perfbench/``, ``scripts/``).  Tests do not count: a definition that only
a test names is not part of the engine."""

from __future__ import annotations

import argparse
import ast
import importlib
import inspect
import os
from collections import Counter
from functools import cached_property

import pytest

PACKAGE = os.path.join(os.path.dirname(__file__), os.pardir, "src",
                       "wallcross")
MODULES = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))
ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
# the package modules by file name, the test modules as tests/<file name>
IMPORTING = {**{f: os.path.join(PACKAGE, f) for f in MODULES},
             **{f"tests/{f}": os.path.join(os.path.dirname(__file__), f)
                for f in os.listdir(os.path.dirname(__file__))
                if f.endswith(".py")}}
CALLER_DIRS = ("src", "perfbench", "scripts")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


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


@pytest.mark.parametrize("module", sorted(IMPORTING))
def test_no_unused_imports(module):
    with open(IMPORTING[module]) as fh:
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


def _names(node):
    """Names read, attributes taken and names imported under ``node``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            for alias in sub.names:
                yield alias.name


def references(source: str) -> Counter:
    """How often each name is used in a module, not counting a top-level
    definition's uses of its own name (recursion, ``Cls.method`` inside the
    class)."""
    tree = ast.parse(source)
    counts = Counter(_names(tree))
    for node in tree.body:
        if isinstance(node, DEFINITIONS):
            counts[node.name] -= sum(1 for name in _names(node)
                                     if name == node.name)
    return counts


def orphans(definitions: dict[str, str], sources: list[str]) -> list[str]:
    """Top-level functions and classes of the package modules
    (module name -> source) that no source names outside their own
    definition."""
    used = Counter()
    for source in sources:
        used.update(references(source))
    return sorted(f"{module}.{node.name}"
                  for module, source in definitions.items()
                  for node in ast.parse(source).body
                  if isinstance(node, DEFINITIONS) and used[node.name] <= 0)


def caller_sources(root: str = ROOT) -> list[str]:
    """The Python sources under the caller directories of ``root``."""
    sources = []
    for top in CALLER_DIRS:
        for dirpath, _dirs, files in os.walk(os.path.join(root, top)):
            for name in sorted(files):
                if name.endswith(".py"):
                    with open(os.path.join(dirpath, name)) as fh:
                        sources.append(fh.read())
    return sources


def _plant(root, files: dict[str, str]):
    for path, text in files.items():
        full = root / path
        full.parent.mkdir(parents=True, exist_ok=True)
        full.write_text(text)


def test_detector_flags_an_orphaned_helper():
    module = ("def used():\n    return 1\n\n"
              "def orphan(n):\n    return orphan(n - 1) if n else used()\n\n"
              "class Lonely:\n    def make(self):\n        return Lonely()\n")
    caller = "from pkg.mod import used as u\nu()\n"
    assert orphans({"mod": module}, [module, caller]) == \
        ["mod.Lonely", "mod.orphan"]
    assert orphans({"mod": module}, [module, caller, "pkg.orphan\n"]) == \
        ["mod.Lonely"]


PLANTED_MODULE = ("def used():\n    return 1\n\n"
                  "def planted():\n    return 2\n")


def test_caller_sources_flag_a_helper_only_tests_name(tmp_path):
    _plant(tmp_path, {
        "src/pkg/mod.py": PLANTED_MODULE,
        "scripts/run.py": "from pkg.mod import used\nused()\n",
        "tests/test_mod.py": "from pkg.mod import planted\nplanted()\n"})
    assert orphans({"mod": PLANTED_MODULE}, caller_sources(str(tmp_path))) \
        == ["mod.planted"]


def test_no_orphaned_helpers():
    definitions = {}
    for module in MODULES:
        with open(os.path.join(PACKAGE, module)) as fh:
            definitions[module[:-3]] = fh.read()
    assert orphans(definitions, caller_sources()) == []


def _defaulted(fn, method: bool):
    """(parameter, position) of each parameter of ``fn`` with a default;
    the position counts the arguments a caller passes (not ``self`` or
    ``cls``), and is None for a keyword-only parameter."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    out = [(arg.arg, i - method) for i, arg in enumerate(positional)
           if i >= first]
    out += [(arg.arg, None) for arg, default in
            zip(fn.args.kwonlyargs, fn.args.kw_defaults)
            if default is not None]
    return out


def _callables(tree):
    """(qualified name, called name, function node, is a method) of each
    top-level function and each method of a top-level class; a class is
    called by its own name for ``__init__``, other dunders are skipped."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.name, node, False
        elif isinstance(node, ast.ClassDef):
            for fn in node.body:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if fn.name.startswith("__") and fn.name != "__init__":
                    continue
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in fn.decorator_list)
                called = node.name if fn.name == "__init__" else fn.name
                yield f"{node.name}.{fn.name}", called, fn, not static


def unset_optionals(definitions: dict[str, str], sources: list[str]
                    ) -> list[str]:
    """Parameters with a default, of the functions and methods of the
    package modules (module name -> source), that no call in ``sources``
    sets, by keyword or by position.  Calls are matched by name; a call
    with ``*args`` sets every positional parameter, one with ``**kwargs``
    every parameter."""
    positions, keywords = Counter(), set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            if name is None:
                continue
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            count = float("inf") if starred else len(node.args)
            positions[name] = max(positions[name], count)
            keywords.update((name, k.arg) for k in node.keywords)
    out = []
    for module, source in definitions.items():
        for qualname, called, fn, method in _callables(ast.parse(source)):
            for param, position in _defaulted(fn, method):
                if (called, param) in keywords or (called, None) in keywords:
                    continue
                if position is not None and positions[called] > position:
                    continue
                out.append(f"{module}.{qualname}({param})")
    return sorted(out)


PLANTED_OPTIONS = ("def f(a, b=1, *, c=2):\n    return a + b + c\n\n"
                   "class K:\n    def __init__(self, x=0):\n"
                   "        self.x = x\n\n"
                   "    def m(self, x, y=0, z=1):\n        return x + y + z\n")


def test_detector_flags_an_optional_parameter_no_caller_sets():
    callers = ["f(1, 2)\nK().m(1, z=3)\n"]
    assert unset_optionals({"mod": PLANTED_OPTIONS}, callers) == \
        ["mod.K.__init__(x)", "mod.K.m(y)", "mod.f(c)"]
    callers.append("K(4).m(*args)\nf(**options)\n")
    assert unset_optionals({"mod": PLANTED_OPTIONS}, callers) == []


def test_caller_sources_flag_an_option_only_tests_set(tmp_path):
    _plant(tmp_path, {
        "src/pkg/mod.py": PLANTED_OPTIONS,
        "perfbench/bench.py": "f(1, c=3)\nK(2).m(1, 2, 3)\n",
        "tests/test_mod.py": "f(1, 2)\n"})
    assert unset_optionals({"mod": PLANTED_OPTIONS},
                           caller_sources(str(tmp_path))) == ["mod.f(b)"]


def test_no_optional_parameter_only_tests_set():
    definitions = {}
    for module in MODULES:
        with open(os.path.join(PACKAGE, module)) as fh:
            definitions[module[:-3]] = fh.read()
    assert unset_optionals(definitions, caller_sources()) == []


def orphaned_members(classes: dict[str, type], sources: list[str]
                     ) -> list[str]:
    """Methods and properties of ``classes`` (qualified name -> class) that
    no source takes as an attribute.  Dunders and overrides of a base class
    from outside the class's package are called by that base's code, and
    are exempt."""
    taken = {node.attr for source in sources
             for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Attribute)}
    out = []
    for qualname, cls in classes.items():
        package = cls.__module__.split(".")[0]
        outside = [base for base in cls.__mro__[1:]
                   if base.__module__.split(".")[0] != package]
        for name, member in vars(cls).items():
            if name.startswith("__") and name.endswith("__"):
                continue
            if not (inspect.isfunction(member) or isinstance(
                    member, (property, cached_property, classmethod,
                             staticmethod))):
                continue
            if name not in taken and not any(name in vars(base)
                                              for base in outside):
                out.append(f"{qualname}.{name}")
    return sorted(out)


class _Used:
    def read(self):
        return 1

    @property
    def shown(self):
        return 2

    @property
    def hidden(self):
        return 3

    def __repr__(self):
        return "_Used()"


class _Quiet(argparse.ArgumentParser, _Used):
    def error(self, message):
        return message

    def unused(self):
        return None


def test_detector_flags_an_orphaned_member():
    classes = {"mod._Used": _Used, "mod._Quiet": _Quiet}
    caller = "x.shown\n"
    assert orphaned_members(classes, [caller]) == \
        ["mod._Quiet.unused", "mod._Used.hidden", "mod._Used.read"]
    assert orphaned_members(classes, [caller, "y.read()\nz.unused\n"]) == \
        ["mod._Used.hidden"]


def test_caller_sources_flag_a_member_only_tests_name(tmp_path):
    _plant(tmp_path, {
        "perfbench/bench.py": "x.shown\ny.read()\n",
        "tests/test_used.py": "z.hidden\n"})
    assert orphaned_members({"mod._Used": _Used},
                            caller_sources(str(tmp_path))) == \
        ["mod._Used.hidden"]


def test_no_orphaned_members():
    classes = {}
    for module in MODULES:
        mod = importlib.import_module("wallcross." + module[:-3])
        for name, obj in vars(mod).items():
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                classes[f"{module[:-3]}.{name}"] = obj
    assert orphaned_members(classes, caller_sources()) == []


def unraised_errors(errors_source: str, sources: list[str]) -> list[str]:
    """Classes of ``errors_source`` that no class there derives from and
    that no ``raise`` statement of ``sources`` names.  Callers name error
    classes to catch them, so the orphan check cannot see these."""
    classes = [node for node in ast.parse(errors_source).body
               if isinstance(node, ast.ClassDef)]
    bases = {base.id for node in classes for base in node.bases
             if isinstance(base, ast.Name)}
    raised = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) \
                    else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    raised.add(exc.attr)
    return sorted(node.name for node in classes
                  if node.name not in bases and node.name not in raised)


def test_detector_flags_an_unraised_error():
    errors = ("class Base(Exception):\n    pass\n\n"
              "class Raised(Base):\n    pass\n\n"
              "class Caught(Base):\n    pass\n\n"
              "class Qualified(Base):\n    pass\n")
    module = ("def f(x):\n    if x:\n        raise Raised('x')\n"
              "    try:\n        g()\n    except Caught:\n        pass\n"
              "    raise errors.Qualified from None\n")
    assert unraised_errors(errors, [module]) == ["Caught"]


def test_every_leaf_error_is_raised():
    sources = {}
    for module in MODULES:
        with open(os.path.join(PACKAGE, module)) as fh:
            sources[module] = fh.read()
    assert unraised_errors(sources.pop("errors.py"),
                           list(sources.values())) == []
