"""Guards that refuse operands of the wrong kind, with their exact messages.

Every correct computation passes these checks by, so only a deliberately bad
call reaches them: a class over another ring, a class of the wrong type
(homology for cohomology, a loop class for a cohomology class, a bool for a
power), a map between other spaces, a generator kind a type does not hold, a
CLI expression mixing homology and cohomology generators, a float or bool
where the kernel counts (an exponent, a presentation index, a generator's
degree or truncation, a degree bound, a sweep's level bound, a seed), or a
count out of range.
"""

import contextlib
import io

import pytest

from loopalg.cli import run
from loopalg.homology import (
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
from loopalg.loops import (
    CohClass,
    LoopClass,
    PresMonomial,
    TensorLoopClass,
    betti_table,
    coproduct_closed,
    coproduct_pipeline,
    gh_product,
    gh_product_pairs,
    presentation_normalize,
    verify_coassociativity,
    verify_duality,
    verify_pipeline,
    verify_presentation,
)
from loopalg.ring import Generator, Ring, RingMismatchError, cross, cup
from loopalg.spaces import SpaceCatalog, SpaceParams, generator_degree
from loopalg.verify import verify_gysin_values, verify_ring_axioms, verify_structure

RING = Ring([Generator("a", 2, 3), Generator("u", 1, 2)])
OTHER = Ring([Generator("a", 2, 3), Generator("u", 3, 2)])
SPACE = OrientedSpace(RING)
IDENTITY = RingMap(RING, RING, {"a": RING.gen("a"), "u": RING.gen("u")})
CP2 = SpaceParams.from_token("cp", 2)
CP3 = SpaceParams.from_token("cp", 3)
HOM = dual(RING, (1, 0))
COH = RING.gen("a")
LOOP = LoopClass.generator(CP2, "A", 1, 0)
SIGMA = CohClass.generator(CP2, "s", 2, 0)


def _point(ring):
    """The dual of the unit monomial, a homology class over ``ring``."""
    return dual(ring, ring.monomial())


class _CliExit(Exception):
    """A CLI run's exit code and what it wrote to stderr, raised as one value."""


def _cli(*argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(list(argv))
    raise _CliExit(f"exit {code}: {err.getvalue()}")


@pytest.mark.parametrize(
    ("call", "error", "message"),
    [
        (
            lambda: pairing(OTHER.one(), _point(RING)),
            RingMismatchError,
            "pairing of classes over different rings",
        ),
        (
            lambda: cap(OTHER.one(), _point(RING)),
            RingMismatchError,
            "cap of classes over different rings",
        ),
        (
            lambda: pd(SPACE, OTHER.one()),
            RingMismatchError,
            "class does not live over the space's ring",
        ),
        (
            lambda: pd_inverse(SPACE, _point(OTHER)),
            RingMismatchError,
            "class does not live over the space's ring",
        ),
        (
            lambda: RingMap(RING, RING, {"a": OTHER.gen("a"), "u": RING.gen("u")}),
            RingMismatchError,
            "image of 'a' lives over the wrong ring",
        ),
        (
            lambda: IDENTITY(OTHER.one()),
            RingMismatchError,
            "element does not live over the map's source",
        ),
        (
            lambda: gysin(IDENTITY, OrientedSpace(OTHER), SPACE, _point(OTHER)),
            RingMismatchError,
            "pullback does not connect the given spaces",
        ),
        (
            lambda: gysin(IDENTITY, SPACE, SPACE, _point(OTHER)),
            RingMismatchError,
            "class does not live over the source space",
        ),
        (
            lambda: cross(RING.one(), _point(RING)),
            TypeError,
            "cross of RingElement and HomologyElement",
        ),
        (
            lambda: cross(LOOP, LOOP),
            TypeError,
            "cross of LoopClass and LoopClass",
        ),
        (
            lambda: cross(RING.one(), OTHER.one()),
            RingMismatchError,
            "cross of classes over different rings",
        ),
        (
            lambda: _cli("--space", "cp", "--n", "2", "coproduct", "A[1,0] x s[1,0]"),
            _CliExit,
            "exit 2: loopalg: error: cannot mix homology and cohomology generators "
            "(at position 0)\n",
        ),
        (
            lambda: LoopClass(CP2, {("s", 1, 0): 1}),
            ValueError,
            "unexpected generator kind 's'",
        ),
        (
            lambda: generator_degree(CP2, "C", 1, 0),
            ValueError,
            "unknown generator kind 'C'",
        ),
        (
            lambda: gh_product(LOOP, LOOP),
            TypeError,
            "gh_product of LoopClass and LoopClass",
        ),
        (
            lambda: gh_product(SIGMA, 2),
            TypeError,
            "gh_product of CohClass and int",
        ),
        (
            lambda: gh_product_pairs(TensorLoopClass(CP2, {(("A", 1, 0), ("A", 1, 1)): 1})),
            TypeError,
            "gh_product_pairs of TensorLoopClass",
        ),
        (
            lambda: coproduct_closed(SIGMA),
            TypeError,
            "coproduct_closed of CohClass",
        ),
        (
            lambda: coproduct_pipeline(SIGMA),
            TypeError,
            "coproduct_pipeline of CohClass",
        ),
        (
            lambda: cup(HOM, HOM),
            TypeError,
            "cup of HomologyElement and HomologyElement",
        ),
        (
            lambda: cap(HOM, HOM),
            TypeError,
            "cap of HomologyElement and HomologyElement",
        ),
        (
            lambda: pairing(HOM, HOM),
            TypeError,
            "pairing of HomologyElement and HomologyElement",
        ),
        (
            lambda: pairing(COH, COH),
            TypeError,
            "pairing of RingElement and RingElement",
        ),
        (
            lambda: pd(SPACE, HOM),
            TypeError,
            "pd of HomologyElement",
        ),
        (
            lambda: pd_inverse(SPACE, COH),
            TypeError,
            "pd_inverse of RingElement",
        ),
        (
            lambda: diagonal_pushforward(COH),
            TypeError,
            "diagonal_pushforward of RingElement",
        ),
        (
            lambda: IDENTITY(HOM),
            TypeError,
            "RingMap applied to HomologyElement",
        ),
        (
            lambda: gysin(IDENTITY, SPACE, SPACE, COH),
            TypeError,
            "pd_inverse of RingElement",
        ),
        (
            lambda: COH**True,
            TypeError,
            "power must be an int, not True",
        ),
        (
            lambda: COH**-1,
            ValueError,
            "power must be a non-negative integer",
        ),
        (
            lambda: RING.monomial({"a": 3}),
            ValueError,
            "exponent 3 of 'a' outside [0, 3)",
        ),
        (
            lambda: RING.monomial({"a": 1.5}),
            TypeError,
            "exponent of 'a' must be an int, not 1.5",
        ),
        (
            lambda: RING.check_monomial((True, 0)),
            TypeError,
            "exponent must be an int, not True",
        ),
        (
            lambda: dual(RING, (1.5, 0)),
            TypeError,
            "exponent must be an int, not 1.5",
        ),
        (
            lambda: RING.element({(1.0, 0): 1}),
            TypeError,
            "exponent must be an int, not 1.0",
        ),
        (
            lambda: Generator("a", 2.0, 3),
            TypeError,
            "generator 'a': degree must be an int, not 2.0",
        ),
        (
            lambda: Generator("a", True, 2),
            TypeError,
            "generator 'a': degree must be an int, not True",
        ),
        (
            lambda: Generator("a", 2, 3.0),
            TypeError,
            "generator 'a': truncation must be an int, not 3.0",
        ),
        (
            lambda: Generator(5, 2, 3),
            TypeError,
            "generator name must be a str, not 5",
        ),
        (
            lambda: RING.poincare_series(-1),
            ValueError,
            "degree must be non-negative",
        ),
        (
            lambda: RING.poincare_series(2.5),
            TypeError,
            "degree must be an int, not 2.5",
        ),
        (
            lambda: RING.poincare_series(True),
            TypeError,
            "degree must be an int, not True",
        ),
        (
            lambda: betti_table(CP2, -1),
            ValueError,
            "degree must be non-negative",
        ),
        (
            lambda: betti_table(CP2, 2.5),
            TypeError,
            "degree must be an int, not 2.5",
        ),
        (
            lambda: betti_table(CP2, True),
            TypeError,
            "degree must be an int, not True",
        ),
        (
            lambda: PresMonomial(1, (), (0,)).mul(PresMonomial(1, (0,), (0, 0))),
            ValueError,
            "presentation monomials over different n",
        ),
        (
            lambda: presentation_normalize(PresMonomial(1, (), (0,)), CP2),
            ValueError,
            "presentation monomial does not match n",
        ),
        (
            lambda: PresMonomial.build(CP3, alphas={True: 1}),
            TypeError,
            "alpha index must be an int, not True",
        ),
        (
            lambda: PresMonomial.build(CP3, betas={1.0: 1}),
            TypeError,
            "beta index must be an int, not 1.0",
        ),
        (
            lambda: verify_duality(CP2, 1.5),
            TypeError,
            "level k must be an int, not 1.5",
        ),
        (
            lambda: verify_duality(CP2, 1),
            ValueError,
            "level k must be >= 2",
        ),
        (
            lambda: verify_coassociativity(CP2, 0),
            ValueError,
            "level k must be >= 1",
        ),
        (
            lambda: verify_pipeline(CP2, True),
            TypeError,
            "level k must be an int, not True",
        ),
        (
            lambda: verify_presentation(CP2, -1),
            ValueError,
            "level k must be >= 1",
        ),
        (
            lambda: verify_gysin_values(CP2, 2.0),
            TypeError,
            "level k must be an int, not 2.0",
        ),
        (
            lambda: verify_structure(CP2, 0),
            ValueError,
            "level k must be >= 1",
        ),
        (
            lambda: verify_ring_axioms(CP2, True),
            TypeError,
            "seed must be an int, not True",
        ),
        (
            lambda: verify_ring_axioms(CP2, 1.0),
            TypeError,
            "seed must be an int, not 1.0",
        ),
        (
            lambda: verify_ring_axioms(CP2, -1),
            ValueError,
            "seed must be >= 0",
        ),
    ],
    ids=[
        "pairing",
        "cap",
        "pd",
        "pd_inverse",
        "RingMap-image",
        "RingMap-call",
        "gysin-spaces",
        "gysin-class",
        "cross-type",
        "cross-loop",
        "cross-ring",
        "cli-mixed-tensor-term",
        "LoopClass-kind",
        "generator_degree-kind",
        "gh_product-loop",
        "gh_product-int",
        "gh_product_pairs-loop",
        "coproduct_closed-coh",
        "coproduct_pipeline-coh",
        "cup-homology",
        "cap-homology",
        "pairing-homology",
        "pairing-cohomology",
        "pd-homology",
        "pd_inverse-cohomology",
        "diagonal_pushforward-cohomology",
        "RingMap-call-homology",
        "gysin-cohomology",
        "power-bool",
        "power-negative",
        "monomial-range",
        "monomial-float",
        "check_monomial-bool",
        "dual-float",
        "element-float",
        "Generator-float-degree",
        "Generator-bool-degree",
        "Generator-float-truncation",
        "Generator-int-name",
        "poincare_series-negative",
        "poincare_series-float",
        "poincare_series-bool",
        "betti_table-negative",
        "betti_table-float",
        "betti_table-bool",
        "PresMonomial-mul-n",
        "presentation_normalize-n",
        "PresMonomial-build-bool-alpha",
        "PresMonomial-build-float-beta",
        "verify_duality-float",
        "verify_duality-one",
        "verify_coassociativity-zero",
        "verify_pipeline-bool",
        "verify_presentation-negative",
        "verify_gysin_values-float",
        "verify_structure-zero",
        "verify_ring_axioms-bool",
        "verify_ring_axioms-float",
        "verify_ring_axioms-negative",
    ],
)
def test_guard_refuses_with_its_message(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message


# A level, index or break of the space catalog must be an int, bools included,
# in the words LoopClass.generator uses: a float used to reach a generator
# name (``x2.0``) or a degree (``7.0``), and True built a level-1 ring.
@pytest.mark.parametrize(
    ("call", "message"),
    [
        (lambda cat: cat.params.check_level(2.0), "level k must be an int, not 2.0"),
        (lambda cat: cat.params.check_index(True), "index i must be an int, not True"),
        (lambda cat: cat.params.lambda_k(2.5), "level k must be an int, not 2.5"),
        (
            lambda cat: generator_degree(cat.params, "A", 2, 1.0),
            "index i must be an int, not 1.0",
        ),
        (lambda cat: cat.gamma(True), "level k must be an int, not True"),
        (lambda cat: cat.gamma_dual(2, 1.0), "index i must be an int, not 1.0"),
        (lambda cat: cat.fiber_class(3, 1.0), "break index m must be an int, not 1.0"),
        (lambda cat: cat.fiber_class(3.0, 1), "level k must be an int, not 3.0"),
        (lambda cat: cat.pullback_pV(3, True), "break index m must be an int, not True"),
        (lambda cat: cat.pv_gysin_table(3, 1.0), "break index m must be an int, not 1.0"),
        # A bool is no int to the break check's valid-path test (a True break
        # passes its range part), so it falls through to the check naming it.
        (lambda cat: cat.pv_gysin_table(True, 1), "level k must be an int, not True"),
        (lambda cat: cat.pv_gysin_table(3, True), "break index m must be an int, not True"),
        (lambda cat: cat.fiber_class(3, True), "break index m must be an int, not True"),
        # LoopClass.generator checks both types before either range.
        (
            lambda cat: LoopClass.generator(cat.params, "A", 0, 1.0),
            "index i must be an int, not 1.0",
        ),
    ],
    ids=[
        "check_level",
        "check_index",
        "lambda_k",
        "generator_degree",
        "gamma",
        "gamma_dual",
        "fiber_class-m",
        "fiber_class-k",
        "pullback_pV",
        "pv_gysin_table",
        "pv_gysin_table-bool-k",
        "pv_gysin_table-bool-m",
        "fiber_class-bool-m",
        "LoopClass-order",
    ],
)
def test_space_catalog_refuses_a_non_int(call, message):
    cat = SpaceCatalog(CP2)
    with pytest.raises(TypeError) as err:
        call(cat)
    assert str(err.value) == message
    assert 1 not in cat._levels and cat._halves.keys() == {1}
