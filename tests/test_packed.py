"""Packed monomials: layout, signs against their definition, and wide rings.

A monomial is one int with generator 0 in the most significant bits, so the
tests here check what the packing must preserve: the lexicographic order of
exponent tuples, the Koszul sign as the parity of a permutation, and the
agreement of the pipeline with the closed formula on level rings whose
packed width crosses a machine-word or 256-bit boundary, and on rings where
``a`` takes a multi-bit field (n = 8).
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopalg import (
    Generator,
    LoopClass,
    Ring,
    SpaceCatalog,
    SpaceParams,
    coproduct_closed,
    coproduct_pipeline,
    verify_pipeline,
    verify_ring_axioms,
)


def permutation_sign(ring, left, right):
    """Sign of the stable sort of the odd factors of ``left`` then ``right``.

    ``left`` and ``right`` are exponent tuples; the sort brings the
    concatenated word of odd factors into generator order, and its sign is
    read from its cycles: (-1) ** (length - cycles).
    """
    odd = [pos for pos, g in enumerate(ring.generators) if g.degree % 2]
    word = [pos for pos in odd if left[pos]] + [pos for pos in odd if right[pos]]
    perm = sorted(range(len(word)), key=word.__getitem__)
    seen, cycles = set(), 0
    for start in range(len(perm)):
        if start not in seen:
            cycles += 1
            p = start
            while p not in seen:
                seen.add(p)
                p = perm[p]
    return -1 if (len(perm) - cycles) % 2 else 1


@settings(max_examples=40, deadline=5000, database=None)
@given(r=st.integers(min_value=1, max_value=2000), rnd=st.randoms(use_true_random=False))
def test_merge_sign_is_the_permutation_parity(r, rnd):
    degrees = [rnd.randint(1, 6) for _ in range(r)]
    ring = Ring(
        Generator(f"g{pos}", d, 2 if d % 2 else rnd.randint(2, 9)) for pos, d in enumerate(degrees)
    )
    left = tuple(rnd.randrange(t) for t in ring.truncations)
    right = tuple(rnd.randrange(t) for t in ring.truncations)
    packed = ring.check_monomial(left), ring.check_monomial(right)
    assert ring.merge_sign(*packed) == permutation_sign(ring, left, right)


def _catalog_rings(cat, max_k):
    rings = [cat.sm.ring, cat.sm_pair.ring, cat.sm.ring.square]
    return rings + [cat.gamma(k).ring for k in range(1, max_k + 1)]


@pytest.mark.parametrize("n", [1, 2, 3, 8])
@pytest.mark.parametrize("token", ["cp", "hp"])
def test_monomials_keep_the_exponent_tuple_order(token, n):
    for ring in _catalog_rings(SpaceCatalog(SpaceParams.from_token(token, n)), 4):
        monos = list(ring.monomials())
        tuples = list(itertools.product(*(range(t) for t in ring.truncations)))
        assert [ring.unpack(m) for m in monos] == tuples
        assert monos == sorted(monos) == [ring.check_monomial(t) for t in tuples]
        assert ring.top_monomial == monos[-1] < 1 << ring.width


def test_a_multi_bit_field_stays_in_range():
    ring = SpaceCatalog(SpaceParams.from_token("cp", 8)).sm.ring
    a, b = ring.gen("a"), ring.gen("b")
    assert ring.width == 4 and ring.unpack(ring.top_monomial) == (7, 1)
    assert str(a**7 * b) == "a^7 b" and (a**8).is_zero() and (a**4 * a**4).is_zero()
    assert ring.check_monomial((7, 1)) == ring.top_monomial
    for bad in (-1, 16, ring.top_monomial + 1):
        with pytest.raises(ValueError) as err:
            ring.check_monomial(bad)
        assert str(err.value) == f"packed monomial {bad} is not a monomial of {ring!r}"
    with pytest.raises(TypeError) as err:
        ring.check_monomial(True)
    assert str(err.value) == "packed monomial must be an int, not True"


# (space, n, level) -> the level ring's packed width, on both sides of 64 and 256 bits.
WIDE_LEVELS = {
    (2, 31): 63,
    (3, 31): 64,
    (2, 32): 65,
    (2, 127): 255,
    (3, 127): 256,
    (2, 128): 257,
}


@pytest.mark.parametrize(("n", "k"), sorted(WIDE_LEVELS))
@pytest.mark.parametrize("token", ["cp", "hp"])
def test_pipeline_agrees_across_word_boundaries(token, n, k):
    params = SpaceParams.from_token(token, n)
    cat = SpaceCatalog(params)
    assert cat.gamma(k).ring.width == WIDE_LEVELS[n, k]
    for kind, i in itertools.product("AB", range(n)):
        x = LoopClass.generator(params, kind, k, i)
        assert coproduct_pipeline(x, cat) == coproduct_closed(x)


@pytest.mark.parametrize("token", ["cp", "hp"])
def test_ring_laws_and_routes_with_a_multi_bit_field(token):
    params = SpaceParams.from_token(token, 8)
    assert SpaceCatalog(params).gamma(2).ring._fields  # a has truncation 8: three bits
    reports = verify_ring_axioms(params), verify_pipeline(params, 6)
    for rep in reports:
        assert rep.passed, rep.failures[:3]
    # The counts of the tuple kernel this layout replaced.
    assert tuple(rep.checks for rep in reports) == (8555269, 96)

