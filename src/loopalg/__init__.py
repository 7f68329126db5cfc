"""Exact loop-space homology computations on projective spaces.

The package models the loop homology of complex and quaternionic projective
spaces relative to constant loops, the coproduct that splits a loop at a
self-intersection, and the dual cohomology product.  Everything is computed
over the rationals with exact arithmetic, through two independent routes that
are checked against each other: closed combinatorial formulas and a geometric
pipeline built from finite-dimensional models of short loop spaces.
"""

from .expr import ExprError, evaluate, format_latex, format_text, parse
from .homology import (
    HomologyElement,
    OrientedSpace,
    RingMap,
    cap,
    diagonal_pushforward,
    dual,
    gysin,
    pairing,
    pd,
    pd_inverse,
)
from .loops import (
    CohClass,
    LoopClass,
    PipelineMatchError,
    PresMonomial,
    TensorCohClass,
    TensorLoopClass,
    betti_table,
    coh_cross,
    coproduct_closed,
    coproduct_pipeline,
    gh_dual_pairing,
    gh_product,
    gh_product_pairs,
    presentation_normalize,
    tensor_pairing,
    verify_coassociativity,
    verify_duality,
    verify_pipeline,
    verify_presentation,
)
from .ring import (
    Generator,
    Ring,
    RingElement,
    RingMismatchError,
    TensorRing,
    cross,
    cup,
)
from .spaces import SpaceCatalog, SpaceParams, catalog_for, generator_degree
from .verify import Report, verify_gysin_values, verify_ring_axioms, verify_structure

__version__ = "0.1.0"

__all__ = [
    "CohClass",
    "ExprError",
    "Generator",
    "HomologyElement",
    "LoopClass",
    "OrientedSpace",
    "PipelineMatchError",
    "PresMonomial",
    "Report",
    "Ring",
    "RingElement",
    "RingMap",
    "RingMismatchError",
    "SpaceCatalog",
    "SpaceParams",
    "TensorCohClass",
    "TensorLoopClass",
    "TensorRing",
    "betti_table",
    "cap",
    "catalog_for",
    "coh_cross",
    "coproduct_closed",
    "coproduct_pipeline",
    "cross",
    "cup",
    "diagonal_pushforward",
    "dual",
    "evaluate",
    "format_latex",
    "format_text",
    "generator_degree",
    "gh_dual_pairing",
    "gh_product",
    "gh_product_pairs",
    "gysin",
    "pairing",
    "parse",
    "pd",
    "pd_inverse",
    "presentation_normalize",
    "tensor_pairing",
    "verify_coassociativity",
    "verify_duality",
    "verify_gysin_values",
    "verify_pipeline",
    "verify_presentation",
    "verify_ring_axioms",
    "verify_structure",
]
