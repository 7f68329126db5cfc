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
    coh_cross,
    gh_dual_pairing,
    gh_product,
    tensor_pairing,
)

RING = Ring([Generator("a", 2, 3), Generator("u", 1, 2)])
OTHER_RING = Ring([Generator("a", 2, 3), Generator("u", 3, 2)])
CP2 = SpaceParams.from_token("cp", 2)
CP3 = SpaceParams.from_token("cp", 3)

# (type, owner, a different owner, key of degree d1, d1, key of degree d2, d2);
# the degrees are the hand-computed values of the keys over the first owner.
CASES = [
    (RingElement, RING, OTHER_RING, (1, 0), 2, (0, 1), 1),
    (HomologyElement, RING, OTHER_RING, (1, 0), 2, (0, 1), 1),
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
    assert all(type(c) is Fraction for c in (x * 3).terms.values())

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


_TERMS = {(0, 0): Fraction(1, 3), (0, 1): -1, (1, 0): 1, (1, 1): Fraction(-1, 3)}
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
    ],
    ids=["tensor-one-part", "tensor-three-parts", "loop-pair"],
)
def test_malformed_keys_are_refused(cls, key):
    with pytest.raises(ValueError, match=f"^malformed {cls.__name__} key "):
        cls(CP2, {key: 1})
