"""Every import in the package and its tests is used or re-exported, and
every function, method and class the package defines is referenced by the
package itself, unless it is a declared test oracle.

Standard-library stand-ins for a linter's unused-import and dead-code rules.
A module fails when it imports a name that its code never reads and that its
``__all__`` does not list; ``from __future__`` imports are exempt.  A
definition in ``src/mfglab`` fails when no ``Name`` or ``Attribute`` in the
package or its tests mentions it; dunder methods are exempt.  A definition
that only tests mention fails unless it is listed in ``ORACLES``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "mfglab").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))

# Definitions the package keeps although only tests call them: what the
# acceptance criteria measure, and the readers that check the writers.
ORACLES = {
    "assemble_final_estimate",
    "carleman_sweep",
    "check_inequality",
    "feasibility_margin",
    "fubini_swap_residual",
    "inject_noise",
    "ladder_residual",
    "load_field_csv",
    "load_grid_json",
    "nondegeneracy_constant",
    "quadratic_form",
    "reconstruct_k_tilde",
    "reconstruction_identity_residual",
    "reconstruction_spread",
    "residual",
    "residual_derived_system",
    "sample_field",
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
