"""Every package name the benchmark workloads call exists in the package.

``perfbench/workloads.py`` reaches the package as ``lp.<name>``, names sweeps
as strings handed to ``verify_op`` or listed in ``SWEEP_BOUNDS``, and calls
members of the space catalog and methods of the rings it binds as ``ring``.  A renamed or deleted name would only fail when
a benchmark run starts.  The workloads file is read with ``ast`` and never
imported.
"""

import ast
from pathlib import Path

import loopalg
from loopalg.ring import Ring
from loopalg.spaces import SpaceCatalog

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

CATALOG_MEMBERS = {
    "pullback_pL", "pullback_pV", "sm", "sm_pair", "gamma", "sm_dual", "sm_pair_dual"
}

RING_METHODS = {"gen", "monomial", "exponents_by_name"}


def _tree() -> ast.Module:
    return ast.parse(WORKLOADS.read_text(), filename=str(WORKLOADS))


def _strings(node: ast.AST) -> set[str]:
    return {
        n.value for n in ast.walk(node) if isinstance(n, ast.Constant) and isinstance(n.value, str)
    }


def _sweep_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "verify_op":
            names |= {s for arg in node.args for s in _strings(arg) if s.startswith("verify_")}
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "SWEEP_BOUNDS" for t in node.targets
        ):
            names |= {s for s in _strings(node.value) if s.startswith("verify_")}
    return names


def test_every_lp_attribute_resolves():
    used = {
        node.attr
        for node in ast.walk(_tree())
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "lp"
    }
    assert "coproduct_pipeline" in used
    assert sorted(name for name in used if not hasattr(loopalg, name)) == []


def test_every_named_sweep_resolves():
    names = _sweep_names(_tree())
    assert {"verify_pipeline", "verify_ring_axioms", "verify_gysin_values"} <= names
    assert sorted(name for name in names if not callable(getattr(loopalg, name, None))) == []


def _is_catalog(node: ast.AST) -> bool:
    """``cat`` or a direct ``lp.catalog_for(...)`` call."""
    if isinstance(node, ast.Name):
        return node.id == "cat"
    return isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "catalog_for"


def test_catalog_members_exist():
    used = {
        node.attr
        for node in ast.walk(_tree())
        if isinstance(node, ast.Attribute) and _is_catalog(node.value)
    }
    assert CATALOG_MEMBERS <= used
    assert sorted(name for name in used if not hasattr(SpaceCatalog, name)) == []


def test_ring_methods_exist():
    used = {
        node.attr
        for node in ast.walk(_tree())
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "ring"
    }
    assert RING_METHODS <= used
    assert sorted(name for name in used if not hasattr(Ring, name)) == []
