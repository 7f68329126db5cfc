"""Exact loop-space homology computations on projective spaces.

The package models the loop homology of complex and quaternionic projective
spaces relative to constant loops, the coproduct that splits a loop at a
self-intersection, and the dual cohomology product.  Everything is computed
over the rationals with exact arithmetic, through two independent routes that
are checked against each other: closed combinatorial formulas and a geometric
pipeline built from finite-dimensional models of short loop spaces.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it.  A name is imported from its
# submodule on first use (PEP 562), so ``import loopalg`` loads no submodule.
_ORIGIN = {
    name: module
    for module, names in {
        "expr": ("ExprError", "evaluate", "format_latex", "format_text", "parse"),
        "homology": (
            "HomologyElement", "OrientedSpace", "RingMap", "cap", "diagonal_pushforward",
            "dual", "gysin", "pairing", "pd", "pd_inverse",
        ),
        "loops": (
            "CohClass", "LoopClass", "PipelineMatchError", "PresMonomial", "TensorCohClass",
            "TensorLoopClass", "betti_table", "coproduct_closed", "coproduct_pipeline",
            "gh_product", "gh_product_pairs", "presentation_normalize",
            "verify_coassociativity", "verify_duality", "verify_pipeline", "verify_presentation",
        ),
        "report": ("Report",),
        "ring": (
            "Generator", "Ring", "RingElement", "RingMismatchError", "TensorRing", "cross", "cup",
        ),
        "spaces": ("SpaceCatalog", "SpaceParams", "catalog_for", "generator_degree"),
        "verify": ("verify_gysin_values", "verify_ring_axioms", "verify_structure"),
    }.items()
    for name in names
}

__all__ = sorted(_ORIGIN)


def __getattr__(name: str):
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _ORIGIN.keys())
