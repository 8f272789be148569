"""Every import in the package and its tests is used or re-exported,
every function, method and class the package defines is referenced by the
package itself, unless it is a declared test oracle, and every defaulted
parameter is set by some call.

Standard-library stand-ins for a linter's unused-import and dead-code rules.
A module fails when it imports a name that its code never reads and that its
``__all__`` does not list; ``from __future__`` imports are exempt.  A
definition in ``src/mfglab`` fails when no ``Name`` or ``Attribute`` in the
package or its tests mentions it; dunder methods are exempt.  A definition
that only tests mention fails unless it is listed in ``ORACLES``.  A
defaulted parameter fails when no call in the package or its tests passes
it, by keyword or by position.  An ``__all__`` entry fails when its module
binds no such name, which would break ``from mfglab.<module> import *``.
Importing the CLI must not load ``scipy.sparse``, which nothing uses.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "mfglab").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))

# Definitions the package keeps although only tests call them: what the
# acceptance criteria measure, and the readers that check the writers.
ORACLES = {
    "assemble_final_estimate",
    "derived_residuals",
    "feasibility_margin",
    "fubini_swap_residual",
    "inequality_constants",
    "inject_noise",
    "ladder_residual",
    "load_field_csv",
    "load_grid_json",
    "negligible_decays",
    "nondegeneracy_constant",
    "quadratic_form",
    "reconstruct_k_tilde",
    "reconstruction_identity_residual",
    "reconstruction_spread",
    "residual",
    "solve_hjb",
    "weight_extrema",
}


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import statement -> its line."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    keep = read | _exported_names(tree)
    return [f"line {line}: {name}" for name, line in _imported_names(tree).items() if name not in keep]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_an_unused_import():
    source = "\n".join([
        "from __future__ import annotations",
        "import os",
        "import math as m",
        "from a import b, c",
        "__all__ = ['c']",
        "m.pi",
    ])
    assert unused_imports(source) == ["line 2: os", "line 4: b"]


def stale_exports(source: str) -> list[str]:
    """``__all__`` entries that no top-level definition, assignment or import
    of the module binds."""
    tree = ast.parse(source)
    bound = set(_imported_names(tree))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return sorted(_exported_names(tree) - bound)


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_stale_exports(path):
    assert stale_exports(path.read_text()) == []


def test_checker_flags_a_stale_export():
    source = "\n".join([
        "from a import b",
        "import c.d",
        "X, Y = 1, 2",
        "Z: int = 3",
        "def f(): pass",
        "class K: pass",
        "__all__ = ['b', 'c', 'X', 'Y', 'Z', 'f', 'K', 'gone', 'd']",
    ])
    assert stale_exports(source) == ["d", "gone"]


def referenced_names(trees) -> set[str]:
    out = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                # ``from m import x as y`` reads x under the name y
                out.update(alias.name for alias in node.names if alias.asname)
    return out


def unreferenced_definitions(defining, referencing) -> list[str]:
    """Functions, methods and classes of ``defining`` (name -> tree) that no
    tree of ``referencing`` mentions by name."""
    used = referenced_names(referencing)
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return sorted(
        f"{label}:{node.lineno}: {node.name}"
        for label, tree in defining.items()
        for node in ast.walk(tree)
        if isinstance(node, kinds)
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in used
    )


def test_no_unreferenced_definitions():
    trees = {p.name: ast.parse(p.read_text()) for p in SOURCES}
    package = {p.name: trees[p.name] for p in PACKAGE}
    assert unreferenced_definitions(package, trees.values()) == []


def test_checker_flags_an_unreferenced_definition():
    tree = ast.parse("\n".join([
        "class A:",
        "    def __init__(self): self.used()",
        "    def used(self): pass",
        "    def dead(self): pass",
        "def helper(): pass",
        "def orphan(): pass",
        "A().x = helper",
    ]))
    assert unreferenced_definitions({"m.py": tree}, [tree]) == ["m.py:4: dead", "m.py:6: orphan"]


def test_no_definitions_only_tests_reach():
    package = {p.name: ast.parse(p.read_text()) for p in PACKAGE}
    test_only = {
        entry.rsplit(" ", 1)[1]
        for entry in unreferenced_definitions(package, package.values())
    }
    assert sorted(test_only - ORACLES) == []
    # an oracle the package itself now calls leaves the list
    assert sorted(ORACLES - test_only) == []


def test_checker_counts_an_aliased_import_as_a_reference():
    lib = ast.parse("def dtt(): pass\ndef spare(): pass")
    user = ast.parse("from lib import dtt as field_dtt\nfield_dtt()")
    assert unreferenced_definitions({"lib.py": lib}, [lib, user]) == ["lib.py:2: spare"]


def _defaulted(fn: ast.FunctionDef, bound: bool) -> list[tuple[str, int | None]]:
    """(name, position in a call or None if keyword-only) of each defaulted
    parameter; a bound method's call does not pass its first parameter."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    shift = 1 if bound else 0
    out = [(a.arg, i - shift) for i, a in enumerate(positional) if i >= first]
    out += [
        (a.arg, None)
        for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
        if d is not None
    ]
    return out


def _callee(node: ast.expr) -> str | None:
    """Name a call or decorator goes by: ``f``, ``m.f`` and ``f(...)`` give ``f``."""
    if isinstance(node, ast.Call):
        node = node.func
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _defaulted_fields(cls: ast.ClassDef) -> list[tuple[str, int, int]]:
    """(name, line, position in a call) of each defaulted field of a
    ``@dataclass`` class; a ``field(init=False)`` is no parameter."""
    if not any(_callee(d) == "dataclass" for d in cls.decorator_list):
        return []
    out, pos = [], 0
    for node in cls.body:
        if not isinstance(node, ast.AnnAssign):
            continue
        value = node.value
        if isinstance(value, ast.Call) and (_callee(value) or "").endswith("field"):
            keywords = {k.arg: k.value for k in value.keywords}
            init = keywords.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
            if not {"default", "default_factory"} & keywords.keys():
                value = None
        if value is not None:
            out.append((node.target.id, node.lineno, pos))
        pos += 1
    return out


def _defaulted_parameters(tree: ast.Module):
    """(called name, function name, line, parameter, position); a class's
    ``__init__`` and a dataclass's fields are called by the class name."""
    found = []

    def visit(body, cls):
        for node in body:
            if isinstance(node, ast.ClassDef):
                for param, line, pos in _defaulted_fields(node):
                    found.append((node.name, node.name, line, param, pos))
                visit(node.body, node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                static = any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in node.decorator_list
                )
                called = cls if cls and node.name == "__init__" else node.name
                for param, pos in _defaulted(node, cls is not None and not static):
                    found.append((called, node.name, node.lineno, param, pos))
                visit(node.body, None)

    visit(tree.body, None)
    return found


def _passes(call: ast.Call, param: str, pos: int | None) -> bool:
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg is None or k.arg == param for k in call.keywords):
        return True
    return pos is not None and len(call.args) > pos


def unset_options(defining, calling) -> list[str]:
    """Defaulted parameters of ``defining`` (name -> tree) that no call in
    ``calling`` passes; calls are matched by function or attribute name."""
    calls: dict[str, list[ast.Call]] = {}
    for tree in calling:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(_callee(node), []).append(node)
    return sorted(
        f"{label}:{line}: {fn}({param}=)"
        for label, tree in defining.items()
        for called, fn, line, param, pos in _defaulted_parameters(tree)
        if not any(_passes(c, param, pos) for c in calls.get(called, []))
    )


def test_no_options_nothing_sets():
    trees = {p.name: ast.parse(p.read_text()) for p in SOURCES}
    package = {p.name: trees[p.name] for p in PACKAGE}
    assert unset_options(package, trees.values()) == []


def test_checker_flags_an_option_nothing_sets():
    lib = ast.parse("\n".join([
        "class A:",
        "    def __init__(self, x=1, y=2): pass",
        "    def run(self, n=3, *, tol=4): pass",
        "    @staticmethod",
        "    def make(k=5): pass",
        "def f(a, b=6, *, c=7, d=8): pass",
        "def g(e=9): pass",
        "def h(z=0): pass",
    ]))
    user = ast.parse("\n".join([
        "A(0)",
        "A().run(tol=1)",
        "A.make(1)",
        "f(1, 2, c=3)",
        "g(*args)",
        "m.h(**kw)",
    ]))
    assert unset_options({"m.py": lib}, [lib, user]) == [
        "m.py:2: __init__(y=)",
        "m.py:3: run(n=)",
        "m.py:6: f(d=)",
    ]


def test_checker_flags_a_dataclass_field_nothing_sets():
    lib = ast.parse("\n".join([
        "@dataclass(frozen=True)",
        "class P:",
        "    a: int",
        "    b: int = 1",
        "    c: list = field(default_factory=list)",
        "    d: int = field(init=False)",
        "    e: int = 2",
        "@dataclasses.dataclass",
        "class Q:",
        "    r: int = 4",
        "class Plain:",
        "    s: int = 5",
    ]))
    user = ast.parse("\n".join([
        "P(0, 1)",
        "P(0, c=[])",
        "m.Q(r=6)",
    ]))
    # d takes no position, so e is the fourth argument; s is no parameter
    assert unset_options({"m.py": lib}, [lib, user]) == ["m.py:7: P(e=)"]
    user = ast.parse("P(0, 1, [], 7)")
    assert unset_options({"m.py": lib}, [lib, user]) == ["m.py:10: Q(r=)"]


def test_cli_import_loads_no_scipy_sparse():
    # the march factors with LAPACK alone; scipy.sparse would cost import time
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = "import sys, mfglab.cli; print('scipy.sparse' in sys.modules)"
    res = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"
