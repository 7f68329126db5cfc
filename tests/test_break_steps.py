"""The pipeline's packed break loop against the same steps on classes.

The wrong-way tables and the pipeline's breaks work on packed monomials,
with no class built per table entry or per break, and the breaks match a
capped carrier with no table at all.  Here the tables are rebuilt with
every cap taken on ``HomologyElement`` operands, each break's match is
compared with its table's entry, each break's ``pd(x_{2m})`` with the
kernel's, the parity that lets an image take no sign of its own is
checked at every break, and each break's step is retaken with
``cap_with_thom`` and ``_match_wrongway``, the class-level stages, on
every A and B generator of small levels.
"""

from fractions import Fraction

import pytest

from loopalg import (
    LoopClass,
    RingElement,
    SpaceCatalog,
    SpaceParams,
    cap,
    coproduct_closed,
    coproduct_pipeline,
    dual,
    gysin,
    pd,
    pd_inverse,
)
from loopalg.loops import _breaks, _match_wrongway, cap_with_thom, gamma_class

SPACES = [(token, n) for token in ("cp", "hp") for n in (1, 2, 3)]
IDS = [f"{token}{n}" for token, n in SPACES]


def _class_tables(cat: SpaceCatalog, k: int) -> list[dict]:
    """The tables of level k with every image a class: ``cap(L(w), pd(x_{2m}))`` per xi-free source."""
    pair = cat.sm_pair
    ring = pair.ring
    gam, lift = cat.gamma(k), cat.pullback_pL(k)
    p_v = cat.pullback_pV(k, 1)
    images, lifted = {}, {}
    for u in ring.monomials():
        du = dual(ring, u)
        if u & 1:
            images[u] = gysin(p_v, pair, gam, du)
        else:
            ((wxi, c),) = pd_inverse(pair, du).terms.items()
            lifted[u] = lift(RingElement(cat.sm.ring, {wxi >> 1: c}))
    tables = []
    for m in range(1, k):
        fiber_dual = pd(gam, cat.fiber_class(k, m))
        table = {}
        for u in ring.monomials():
            image = images[u] if u & 1 else cap(lifted[u], fiber_dual)
            ((mono, coeff),) = image.terms.items()
            assert coeff in (1, -1) and mono not in table
            table[mono] = (u, coeff)
        tables.append(table)
    return tables


@pytest.mark.parametrize(("token", "n"), SPACES, ids=IDS)
def test_packed_tables_equal_the_class_tables(token, n):
    cat = SpaceCatalog(SpaceParams.from_token(token, n))
    for k in range(2, 13):
        assert [cat.pv_gysin_table(k, m) for m in range(1, k)] == _class_tables(cat, k)


def test_packed_tables_equal_the_class_tables_on_a_ring_wider_than_256_bits():
    cat = SpaceCatalog(SpaceParams.from_token("hp", 3))
    assert cat.gamma(130).ring.width > 256
    assert [cat.pv_gysin_table(130, m) for m in range(1, 130)] == _class_tables(cat, 130)


@pytest.mark.parametrize(("token", "n"), SPACES, ids=IDS)
def test_each_break_reads_pd_of_its_fiber_class_off_the_fiber_bit(token, n):
    # A level's half keeps per break m the monomial xm of x_{2m} and the
    # coefficient fc of the one term fc [top - xm] of pd(x_{2m}), read off
    # the fiber bit with no pd taken.  Each must be what the kernel's pd of
    # fiber_class(k, m) gives.  At k = 40 the level ring is wider than 64 bits.
    cat = SpaceCatalog(SpaceParams.from_token(token, n))
    for k in [*range(2, 9), 40]:
        gam = cat.gamma(k)
        assert k <= 8 or gam.ring.width > 64
        _, _, breaks = cat._half(k)
        assert len(breaks) == k - 1
        for m, (xm, fc) in enumerate(breaks, 1):
            fiber = cat.fiber_class(k, m)
            assert fiber.terms == {xm: 1}
            assert pd(gam, fiber).terms == {gam.ring.top_monomial - xm: fc}


@pytest.mark.parametrize(
    ("token", "n"),
    [(token, n) for token in ("cp", "hp") for n in range(1, 5)],
    ids=[f"{token}{n}" for token in ("cp", "hp") for n in range(1, 5)],
)
def test_an_xi_free_image_takes_no_sign_of_its_own(token, n):
    # The image of an xi-free source at break m is cap(L(w), pd(x_{2m})):
    # the monomial fm / L(w), fm = top - xm, with the coefficient lc * fc
    # signed by normal-ordering (fm / L(w)) * L(w).  L(w) holds at most a,
    # which is even, and b, which comes before every x, so that sign moves
    # b past the image's 2k - 2 odd x's, an even count, and is +1.  The
    # tables and the pipeline take lc * fc unsigned; this pins the parity
    # they rely on.  At k = 40 the level ring is wider than 64 bits, and on
    # hp3 at k = 130 wider than 256.
    cat = SpaceCatalog(SpaceParams.from_token(token, n))
    for k in [*range(2, 13), 40, *([130] if (token, n) == ("hp", 3) else [])]:
        ring = cat.gamma(k).ring
        _, lifted, breaks = cat._half(k)
        assert len(lifted) == 2 * n and len(breaks) == k - 1
        for m, (xm, fc) in enumerate(breaks, 1):
            table = cat.pv_gysin_table(k, m)
            fm = ring.top_monomial - xm
            for lm, (u, lc) in lifted.items():
                mono = fm - lm
                assert ring.div_monomials(fm, lm) == mono
                assert ring.merge_sign(mono, lm) == 1
                assert table[mono] == (u, lc * fc)


@pytest.mark.parametrize(("token", "n"), SPACES, ids=IDS)
def test_each_break_inverts_the_one_image_its_table_holds(token, n):
    # The pipeline matches a capped carrier by the source whose image
    # fm / L(w) it is, with no table.  For every carrier, A and B at every
    # index, at every break, that source and sign must be the entry of the
    # break's table, built by a catalog of its own; the pipeline's catalog
    # builds no table.  On hp3 at k = 130 the ring is wider than 256 bits.
    params = SpaceParams.from_token(token, n)
    cat, tables = SpaceCatalog(params), SpaceCatalog(params)
    for k in [*range(2, 13), *([130] if (token, n) == ("hp", 3) else [])]:
        for kind in "AB":
            for i in range(n):
                steps = list(_breaks(cat, LoopClass.generator(params, kind, k, i)))
                assert [step[0] for step in steps] == list(range(1, k))
                for m, capped, sign, matched, terms in steps:
                    # One term is c * sign * t * dc, with c = 1 and t the match's sign.
                    (_, _, dc), (_, v) = cat._spreads[matched][0], terms[0]
                    want = tables.pv_gysin_table(k, m)[capped]
                    assert (matched << 1, Fraction(v, sign * dc)) == want
    assert cat._halves.keys() == {1, *cat._levels}


def _summed(steps) -> dict:
    """The tensor terms of the steps, summed from 0, zeros dropped."""
    out: dict = {}
    for *_, terms in steps:
        for key, v in terms:
            out[key] = out.get(key, 0) + v
    return {key: v for key, v in out.items() if v}


@pytest.mark.parametrize(("token", "n"), SPACES, ids=IDS)
def test_break_steps_are_the_class_steps_and_sum_to_the_coproduct(token, n):
    # Per break: the capped monomial and sign are cap_with_thom's one term,
    # the matched monomial _match_wrongway's one key, and the tensor terms
    # the matched coefficient times the pushforward's, at levels (m, k - m).
    params = SpaceParams.from_token(token, n)
    cat = SpaceCatalog(params)
    combination = LoopClass.zero(params)
    for kind in "AB":
        for k in range(1, 7):
            for i in range(n):
                x = LoopClass.generator(params, kind, k, i)
                combination = combination + x * Fraction(k, i + 2)
                steps = list(_breaks(cat, x))
                classes = cap_with_thom(cat, k, gamma_class(cat, kind, k, i))
                assert [step[0] for step in steps] == [m for m, _ in classes] == list(range(1, k))
                for (m, capped, sign, matched, terms), (_, z) in zip(steps, classes):
                    assert z.terms == {capped: sign}
                    ((key, cu),) = _match_wrongway(cat, k, m, z).items()
                    assert key == matched
                    spread = cat._spreads[matched]
                    assert terms == [
                        (((kind_l, m, il), (kind_r, k - m, ir)), cu * dc)
                        for (kind_l, il), (kind_r, ir), dc in spread
                    ]
                assert _summed(steps) == coproduct_pipeline(x, cat).terms
                assert coproduct_pipeline(x, cat) == coproduct_closed(x)
    # The steps of a rational combination carry each term's coefficient.
    assert _summed(_breaks(cat, combination)) == coproduct_closed(combination).terms
