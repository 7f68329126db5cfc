"""The shared sparse-combination contract of ring, homology and loop classes.

Every type built on ``Combination`` must add, negate, subtract, scale,
compare and report degrees the same way, refuse operands of another type
with ``TypeError`` and operands over another ring or space with
``RingMismatchError``.  The printed forms are pinned per type.
"""

from fractions import Fraction

import pytest

from loopalg import (
    CohClass,
    Generator,
    HomologyElement,
    LoopClass,
    Ring,
    RingElement,
    RingMismatchError,
    SpaceParams,
    TensorCohClass,
    TensorLoopClass,
    gh_product,
)
from loopalg.loops import (
    _class_and_key,
    _pres_monomials,
    coh_cross,
    coproduct_closed,
    coproduct_pipeline,
    gh_dual_pairing,
    gh_product_pairs,
    presentation_normalize,
    tensor_pairing,
)

RING = Ring([Generator("a", 2, 3), Generator("u", 1, 2)])
OTHER_RING = Ring([Generator("a", 2, 3), Generator("u", 3, 2)])
CP2 = SpaceParams.from_token("cp", 2)
CP3 = SpaceParams.from_token("cp", 3)

# (type, owner, a different owner, key of degree d1, d1, key of degree d2, d2);
# the degrees are the hand-computed values of the keys over the first owner.
CASES = [
    (RingElement, RING, OTHER_RING, RING.monomial({"a": 1}), 2, RING.monomial({"u": 1}), 1),
    (HomologyElement, RING, OTHER_RING, RING.monomial({"a": 1}), 2, RING.monomial({"u": 1}), 1),
    (LoopClass, CP2, CP3, ("A", 1, 0), 1, ("B", 1, 1), 8),
    (CohClass, CP2, CP3, ("s", 1, 0), 1, ("m", 1, 1), 8),
    (TensorLoopClass, CP2, CP3, (("A", 1, 0), ("A", 1, 1)), 4, (("B", 1, 0), ("A", 1, 0)), 7),
    (TensorCohClass, CP2, CP3, (("s", 1, 0), ("s", 1, 1)), 4, (("m", 1, 0), ("s", 1, 0)), 7),
]


@pytest.mark.parametrize("case", CASES, ids=lambda c: c[0].__name__)
def test_combination_contract(case):
    cls, owner, other_owner, k1, d1, k2, d2 = case
    third = Fraction(1, 3)
    x = cls(owner, {k1: 2, k2: third})
    y = cls(owner, {k1: -1})
    zero = cls(owner, {})

    assert zero.is_zero() and not zero and zero.terms == {}
    assert cls(owner, {k1: 0, k2: Fraction(0)}) == zero
    if hasattr(cls, "zero"):
        assert cls.zero(owner) == zero

    assert (x + y).terms == {k1: 1, k2: third}
    assert (x + zero) == x and (zero + x) == x
    assert (-x).terms == {k1: -2, k2: -third}
    assert (x - y).terms == {k1: 3, k2: third}
    assert (x - x).is_zero()
    assert (x * 3).terms == {k1: 6, k2: 1}
    assert (3 * x) == x * 3
    assert (x * third).terms == {k1: Fraction(2, 3), k2: Fraction(1, 9)}
    assert (0 * x).is_zero()
    # Canonical coefficients: an exact int when integral, else a proper Fraction.
    assert all(type(c) is int for c in (x * 3).terms.values())
    assert all(type(c) is Fraction and c.denominator > 1 for c in (x * third).terms.values())

    assert x == cls(owner, {k2: third, k1: 2})
    assert x != y
    assert x != cls(other_owner, {k1: 2, k2: third})
    assert x != x.terms
    with pytest.raises(TypeError):
        hash(x)

    assert cls(owner, {k1: 5}).degree() == d1
    assert cls(owner, {k2: -1}).degree() == d2
    assert x.degree() is None
    assert zero.degree() is None

    other_type = next(c for c, o, *_ in CASES if c is not cls and o is owner)
    for bad in (1, Fraction(1), object()):
        with pytest.raises(TypeError):
            x + bad
        with pytest.raises(TypeError):
            x - bad
    with pytest.raises(TypeError):
        x * 1.5
    with pytest.raises(TypeError):
        x + other_type(owner, {})

    stranger = cls(other_owner, {k1: 1})
    with pytest.raises(RingMismatchError):
        x + stranger
    with pytest.raises(RingMismatchError):
        x - stranger


@pytest.mark.parametrize("case", CASES, ids=lambda c: c[0].__name__)
def test_sum_over_an_equal_owner_built_apart(case):
    cls, owner, other_owner, k1, _, k2, _ = case
    if isinstance(owner, Ring):
        twin = Ring(list(owner.generators))
    else:
        twin = SpaceParams(owner.family, owner.n)
    assert twin is not owner and twin == owner
    x = cls(owner, {k1: 2, k2: -1})
    assert (x + cls(twin, {k1: 1})).terms == {k1: 3, k2: -1}
    assert (x - cls(twin, {k2: -1})).terms == {k1: 2}
    with pytest.raises(RingMismatchError) as err:
        x + cls(other_owner, {k1: 1})
    assert str(err.value) == f"sum of {cls.__name__}s over different rings or spaces"


def test_ring_mismatch_is_a_type_error():
    assert issubclass(RingMismatchError, TypeError)
    assert not issubclass(RingMismatchError, ValueError)


def test_loop_classes_over_different_spaces_do_not_add():
    with pytest.raises(RingMismatchError):
        LoopClass.generator(CP2, "A", 2, 1) + LoopClass.generator(CP3, "A", 2, 1)


def _over(params, cls, *keys):
    return cls(params, {key: 1 for key in keys})


# The dual-product operations refuse operands over different spaces the way
# ``+`` and ``-`` do.
@pytest.mark.parametrize(
    "fn, left, right",
    [
        (gh_product, _over(CP2, CohClass, ("s", 1, 0)), _over(CP3, CohClass, ("s", 1, 0))),
        (gh_dual_pairing, _over(CP2, CohClass, ("s", 1, 0)), _over(CP3, LoopClass, ("A", 1, 0))),
        (coh_cross, _over(CP2, CohClass, ("s", 1, 0)), _over(CP3, CohClass, ("m", 1, 1))),
        (
            tensor_pairing,
            _over(CP2, TensorCohClass, (("s", 1, 0), ("s", 1, 1))),
            _over(CP3, TensorLoopClass, (("A", 1, 0), ("A", 1, 1))),
        ),
    ],
    ids=["gh_product", "gh_dual_pairing", "coh_cross", "tensor_pairing"],
)
def test_dual_product_operands_over_different_spaces(fn, left, right):
    with pytest.raises(RingMismatchError, match="different spaces"):
        fn(left, right)


# ... and accept operands over an equal space built apart, with the answer of
# operands over one space object.
CP2_TWIN = SpaceParams("complex", 2)


@pytest.mark.parametrize(
    "fn, left, right, want",
    [
        (
            gh_product,
            _over(CP2, CohClass, ("s", 1, 0)),
            _over(CP2_TWIN, CohClass, ("s", 2, 1)),
            _over(CP2, CohClass, ("s", 3, 1)),
        ),
        (
            gh_dual_pairing,
            _over(CP2, CohClass, ("s", 1, 0)),
            _over(CP2_TWIN, LoopClass, ("A", 1, 0)),
            1,
        ),
        (
            coh_cross,
            _over(CP2, CohClass, ("s", 1, 0)),
            _over(CP2_TWIN, CohClass, ("m", 1, 1)),
            _over(CP2, TensorCohClass, (("s", 1, 0), ("m", 1, 1))),
        ),
        (
            tensor_pairing,
            _over(CP2, TensorCohClass, (("s", 1, 0), ("s", 1, 1))),
            _over(CP2_TWIN, TensorLoopClass, (("A", 1, 0), ("A", 1, 1))),
            1,
        ),
    ],
    ids=["gh_product", "gh_dual_pairing", "coh_cross", "tensor_pairing"],
)
def test_dual_product_operands_over_an_equal_space_built_apart(fn, left, right, want):
    assert CP2_TWIN is not CP2 and CP2_TWIN == CP2
    assert fn(left, right) == want


_TERMS = {
    RING.check_monomial(m): c
    for m, c in {(0, 0): Fraction(1, 3), (0, 1): -1, (1, 0): 1, (1, 1): Fraction(-1, 3)}.items()
}
_LOOP = {("A", 1, 0): 1, ("B", 1, 1): -1, ("A", 2, 1): Fraction(1, 3)}
_TENSOR_LOOP = {
    (("A", 1, 0), ("B", 1, 1)): 1,
    (("B", 1, 0), ("A", 1, 0)): -1,
    (("A", 2, 1), ("A", 1, 1)): Fraction(1, 3),
}
_LOOP_TEXT = "A[1,0] + 1/3*A[2,1] - B[1,1]"
_COH_TEXT = "s[1,0] + 1/3*s[2,1] - m[1,1]"
_TENSOR_LOOP_TEXT = "A[1,0] x B[1,1] + 1/3*A[2,1] x A[1,1] - B[1,0] x A[1,0]"
_TENSOR_COH_TEXT = "s[1,0] x m[1,1] + 1/3*s[2,1] x s[1,1] - m[1,0] x s[1,0]"


def _coh(key):
    return (key[0].replace("A", "s").replace("B", "m"), key[1], key[2])


@pytest.mark.parametrize(
    "value, text, rep",
    [
        (RingElement(RING, _TERMS), "1/3 - u + a - 1/3*a u", "<1/3 - u + a - 1/3*a u>"),
        (
            HomologyElement(RING, _TERMS),
            "1/3*[1] - [u] + [a] - 1/3*[a u]",
            "<1/3*[1] - [u] + [a] - 1/3*[a u]>",
        ),
        (RING.one(), "1", "<1>"),
        (-RING.one(), "-1", "<-1>"),
        (RING.zero(), "0", "<0>"),
        (HomologyElement(RING, {}), "0", "<0>"),
        # loop classes print like every other type: the text the parser reads
        (LoopClass(CP2, _LOOP), _LOOP_TEXT, f"<{_LOOP_TEXT}>"),
        (CohClass(CP2, {_coh(k): c for k, c in _LOOP.items()}), _COH_TEXT, f"<{_COH_TEXT}>"),
        (TensorLoopClass(CP2, _TENSOR_LOOP), _TENSOR_LOOP_TEXT, f"<{_TENSOR_LOOP_TEXT}>"),
        (
            TensorCohClass(CP2, {tuple(map(_coh, k)): c for k, c in _TENSOR_LOOP.items()}),
            _TENSOR_COH_TEXT,
            f"<{_TENSOR_COH_TEXT}>",
        ),
        (LoopClass.zero(CP2), "0", "<0>"),
    ],
)
def test_printed_forms_are_pinned(value, text, rep):
    assert str(value) == text
    assert repr(value) == rep


# The one reader of the key layout refuses a key of the wrong shape, and says
# which class it was building.
@pytest.mark.parametrize(
    "cls, key",
    [
        (TensorLoopClass, (("A", 1, 0),)),
        (TensorLoopClass, (("A", 1, 0), ("A", 1, 0), ("A", 1, 0))),
        (LoopClass, (("A", 1, 0), ("A", 1, 0))),
        (TensorLoopClass, "garbage"),
    ],
    ids=["tensor-one-part", "tensor-three-parts", "loop-pair", "tensor-string"],
)
def test_malformed_keys_are_refused(cls, key):
    # A key with coefficient 0 is checked too, before its term is dropped.
    for c in (1, 0):
        with pytest.raises(ValueError, match=f"^malformed {cls.__name__} key "):
            cls(CP2, {key: c})


# A level or index must be an int: a float or bool would print as a level
# (``B[3.0,1]``) and fail only when a computation uses it.
@pytest.mark.parametrize("cls, kind", [(LoopClass, "B"), (CohClass, "m")])
@pytest.mark.parametrize(
    "k, i, message",
    [
        (3.0, 1, "level k must be an int, not 3.0"),
        (True, 1, "level k must be an int, not True"),
        (3, 1.0, "index i must be an int, not 1.0"),
        (3, False, "index i must be an int, not False"),
    ],
)
def test_non_int_level_or_index_is_refused(cls, kind, k, i, message):
    with pytest.raises(TypeError, match=f"^{message}$"):
        cls.generator(CP2, kind, k, i)


@pytest.mark.parametrize(
    "k, i, message",
    [(0, 1, "level k must be >= 1"), (3, 2, "index out of range for n=2")],
)
def test_level_and_index_range_messages(k, i, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        LoopClass.generator(CP2, "B", k, i)


# The coproducts, the dual products and the normal form build their results
# without checking keys; each result must rebuild through the checked
# constructor unchanged.
@pytest.mark.parametrize("family", ["cp", "hp"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_unchecked_results_have_valid_keys(family, n):
    params, top = SpaceParams.from_token(family, n), 6
    keys = [(k, i) for k in range(1, top + 1) for i in range(n)]
    gens = [LoopClass.generator(params, kind, k, i) for kind in "AB" for k, i in keys]
    duals = [CohClass.generator(params, kind, k, i) for kind in "sm" for k, i in keys]
    results = [op(x) for x in gens for op in (coproduct_closed, coproduct_pipeline)]
    for a in duals:
        for b in duals:
            results += [gh_product(a, b), gh_product_pairs(coh_cross(a, b))]
    for f in range(1, top + 1):
        results += [presentation_normalize(p, params) for p in _pres_monomials(params, f)]
    assert any(not x.is_zero() for x in results)
    for x in results:
        assert type(x)(x.params, dict(x.terms)) == x


@pytest.mark.parametrize(
    "cls, key, message",
    [
        (LoopClass, ("s", 1, 0), "unexpected generator kind 's'"),
        (LoopClass, ("A", 0, 0), "level k must be >= 1"),
        (LoopClass, ("B", 1, 2), "index out of range for n=2"),
        (CohClass, ("A", 1, 0), "unexpected generator kind 'A'"),
        (CohClass, ("s", 0, 0), "level k must be >= 1"),
        (CohClass, ("m", 1, -1), "index out of range for n=2"),
        (TensorLoopClass, (("A", 1, 0), ("m", 1, 0)), "unexpected generator kind 'm'"),
        (TensorLoopClass, (("A", 1, 0), ("B", 0, 1)), "level k must be >= 1"),
        (TensorLoopClass, (("A", 1, 2), ("B", 1, 0)), "index out of range for n=2"),
        (LoopClass, ("Z", 0, 9), "unexpected generator kind 'Z'"),
        (LoopClass, ("A", 1, 5), "index out of range for n=2"),
    ],
)
def test_checked_constructors_refuse_bad_keys(cls, key, message):
    # A key with coefficient 0 is checked too, before its term is dropped.
    for c in (1, 0, Fraction(0)):
        with pytest.raises(ValueError, match=f"^{message}$"):
            cls(CP2, {key: c})


# ``_class_and_key`` writes the key layout that ``_FormalSum._parts`` reads.
@pytest.mark.parametrize(
    "parts, cls",
    [
        ((("A", 2, 1),), LoopClass),
        ((("m", 1, 0),), CohClass),
        ((("B", 1, 0), ("A", 2, 1)), TensorLoopClass),
        ((("s", 1, 1), ("m", 1, 0)), TensorCohClass),
    ],
    ids=lambda v: v.__name__ if isinstance(v, type) else None,
)
def test_class_and_key_round_trip(parts, cls):
    got, key = _class_and_key(parts)
    assert got is cls
    assert cls(CP2, {key: 1})._parts(key) == parts


@pytest.mark.parametrize(
    "parts",
    [(("A", 1, 0), ("s", 1, 0)), (("A", 1, 0),) * 3, ()],
    ids=["mixed", "three", "none"],
)
def test_class_and_key_refuses(parts):
    with pytest.raises(ValueError):
        _class_and_key(parts)
