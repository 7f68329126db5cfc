"""The kernel's products against term-by-term references.

``cup``, ``cap`` and ``pairing`` each run one loop over their operands'
terms.  ``cup`` and ``cap`` store a new monomial's piece in canonical form
and build the result as it stands when no monomial repeats, or clean the
sum once when one does; every accumulation site starts a sum at its first
piece, not at 0.  These tests check one-, two- and three-term operands,
both build branches among them, against references computed here from
exponent tuples, with coefficient types compared as well as values.  They
also check that the ring-axiom sweep's random elements are the ones its
original formula drew.
"""

import functools
import random
from fractions import Fraction

import pytest

from loopalg import (
    Generator,
    HomologyElement,
    OrientedSpace,
    Ring,
    RingElement,
    RingMap,
    RingMismatchError,
    cap,
    cup,
    pairing,
    pd,
    pd_inverse,
    SpaceParams,
    catalog_for,
    verify,
)
from loopalg.ring import as_coeff

HALF, THIRD = Fraction(1, 2), Fraction(1, 3)

# Coefficient pairs of the operands' first terms: ints, 1/2 x 2 (the int 1),
# fractions whose product stays a fraction, and negatives.
COEFF_PAIRS = [(1, 1), (-3, 2), (HALF, 2), (Fraction(-2, 3), Fraction(3, 4)), (5, Fraction(-1, 7))]
# Coefficients of a longer operand's later terms: 2/3 x -3/2 is the int -1.
LATER = (Fraction(2, 3), Fraction(-3, 2))


def _typed(terms: dict) -> dict:
    """``terms`` with each coefficient's type, so ``1`` and ``Fraction(1)`` differ."""
    return {m: (type(c), c) for m, c in terms.items()}


def _canonical(out: dict) -> dict:
    return {m: as_coeff(c) for m, c in out.items() if c}


@functools.cache
def _product(ring, ma, mb):
    """``(monomial, sign)`` of ``ma * mb`` from exponent tuples, or None when truncated.

    The sign counts the transpositions of odd factors: an odd generator of
    ``mb`` at position j moves past each odd generator of ``ma`` at i > j.
    Cached, as the longer operands of the reference tests share their pairs.
    """
    ea, eb = ring.unpack(ma), ring.unpack(mb)
    if any(x + y >= t for x, y, t in zip(ea, eb, ring.truncations)):
        return None
    odd = [g.degree % 2 for g in ring.generators]
    swaps = sum(
        ea[i] * eb[j]
        for i in range(len(odd))
        for j in range(i)
        if odd[i] and odd[j]
    )
    return ring.check_monomial(tuple(x + y for x, y in zip(ea, eb))), (-1) ** swaps


def _cup_pieces(a, b):
    """``(monomial, signed coefficient)`` of each product of terms not truncated away."""
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            hit = _product(a.ring, ma, mb)
            if hit is not None:
                yield hit[0], hit[1] * ca * cb


def _cap_pieces(a, x):
    # cap(a, dual(m)) is sign(sub * a) dual(sub) when sub = m / a is a monomial.
    ring = a.ring
    for ma, ca in a.terms.items():
        for mx, cx in x.terms.items():
            exps = [e - d for e, d in zip(ring.unpack(mx), ring.unpack(ma))]
            if min(exps) >= 0:
                sub = ring.check_monomial(exps)
                yield sub, _product(ring, sub, ma)[1] * ca * cx


def _summed(pieces) -> dict:
    out: dict = {}
    for m, c in pieces:
        out[m] = out.get(m, 0) + c
    return _canonical(out)


def _ref_cup(a, b) -> dict:
    return _summed(_cup_pieces(a, b))


def _ref_cap(a, x) -> dict:
    return _summed(_cap_pieces(a, x))


def _branch(pieces) -> str:
    """The build branch of a product: cleaned after a repeated monomial, else built.

    A built product is told apart by whether a piece is an integral
    ``Fraction``, which needs ``as_coeff`` before it is stored.
    """
    pieces = list(pieces)
    if len({m for m, _ in pieces}) < len(pieces):
        return "cleaned"
    if any(type(c) is Fraction and c.denominator == 1 for _, c in pieces):
        return "built, integral Fraction"
    return "built"


def _ref_pairing(c, x):
    return as_coeff(sum((cc * x.terms.get(m, 0) for m, cc in c.terms.items()), 0))


def _cases():
    """(id, ring, monomials) of the reference tests."""
    cp3 = catalog_for(SpaceParams.from_token("cp", 3))
    hp2 = catalog_for(SpaceParams.from_token("hp", 2))
    wide = cp3.gamma(33).ring  # 67 generators over 68 bits
    picks = [0, wide.top_monomial, wide.monomial({"a": 2}), wide.monomial({"a": 1, "x65": 1})]
    for name in ("a", "b", "x1", "x2", "x64", "x65"):
        m = wide.monomial({name: 1})
        picks += [m, wide.top_monomial - m]
    return [
        # a is a two-bit field of the packed monomial at n = 3.
        ("cp3-level2", cp3.gamma(2).ring, list(cp3.gamma(2).ring.monomials())),
        ("hp2-pair", hp2.sm_pair.ring, list(hp2.sm_pair.ring.monomials())),
        ("cp3-level33", wide, picks),
    ]


def _outcome(terms: dict, scale):
    """``"truncated"`` for an empty result, else the sign its one term carries."""
    if not terms:
        return "truncated"
    (c,) = terms.values()
    return c / scale


def _operand(monos, start, size, c) -> dict:
    """``size`` terms on the monomials of ``monos`` from ``start`` on, cyclically:
    ``c`` on the first, then the ``LATER`` coefficients."""
    return {monos[(start + j) % len(monos)]: cj for j, cj in zip(range(size), (c, *LATER))}


def _sized_cases():
    """(id, ring, monomials, size) of the reference tests: each ring at 1, 2 and 3 terms."""
    for case, ring, monos in _cases():
        yield case, ring, monos, 1
        yield f"{case}-two-term", ring, monos, 2
        yield f"{case}-three-term", ring, monos, 3


@pytest.mark.parametrize(
    ("ring", "monos", "size"), [c[1:] for c in _sized_cases()], ids=[c[0] for c in _sized_cases()]
)
def test_one_two_and_three_term_paths_match_the_reference(ring, monos, size):
    seen = set()
    for pa, ma in enumerate(monos):
        for pb, mb in enumerate(monos):
            for ca, cb in COEFF_PAIRS:
                a = RingElement(ring, _operand(monos, pa, size, ca))
                b_terms = _operand(monos, pb, size, cb)
                b, x = RingElement(ring, b_terms), HomologyElement(ring, b_terms)
                got = cup(a, b).terms
                assert _typed(got) == _typed(_ref_cup(a, b)), (ma, mb, ca, cb)
                outcome = _outcome(got, ca * cb) if size == 1 else _branch(_cup_pieces(a, b))
                seen.add(("cup", outcome))
                got = cap(a, x).terms
                assert _typed(got) == _typed(_ref_cap(a, x)), (ma, mb, ca, cb)
                outcome = _outcome(got, ca * cb) if size == 1 else _branch(_cap_pieces(a, x))
                seen.add(("cap", outcome))
                value, want = pairing(a, x), _ref_pairing(a, x)
                assert (type(value), value) == (type(want), want), (ma, mb, ca, cb)
    if size == 1:
        # Both signs and truncation occur for both products on every ring.
        outcomes = (1, -1, "truncated")
    else:
        # Both build branches occur for both products on every ring, and a
        # built product with an integral Fraction piece among them.
        outcomes = ("built", "built, integral Fraction", "cleaned")
    assert seen == {(op, o) for op in ("cup", "cap") for o in outcomes}


def test_one_half_times_two_is_the_int_one():
    ring = Ring([Generator("a", 2, 3)])
    half, two = RingElement(ring, {0: HALF}), RingElement(ring, {0: 2})
    assert _typed(cup(half, two).terms) == {0: (int, 1)}
    assert _typed(cap(half, HomologyElement(ring, {0: 2})).terms) == {0: (int, 1)}
    value = pairing(half, HomologyElement(ring, {0: 2}))
    assert (type(value), value) == (int, 1)
    value = pairing(RingElement(ring, {0: THIRD}), HomologyElement(ring, {0: HALF}))
    assert (type(value), value) == (Fraction, Fraction(1, 6))


def test_one_term_operands_are_refused_as_before():
    ring = Ring([Generator("a", 2, 3)])
    other = Ring([Generator("a", 4, 3)])
    a, x = ring.gen("a"), HomologyElement(ring, {0: 1})
    foreign, foreign_x = other.gen("a"), HomologyElement(other, {0: 1})
    refusals = [
        (cup, a, foreign, RingMismatchError, "cup of elements over different rings"),
        (cap, a, foreign_x, RingMismatchError, "cap of classes over different rings"),
        (pairing, a, foreign_x, RingMismatchError, "pairing of classes over different rings"),
        (cup, a, x, TypeError, "cup of RingElement and HomologyElement"),
        (cap, x, x, TypeError, "cap of HomologyElement and HomologyElement"),
        (pairing, a, a, TypeError, "pairing of RingElement and RingElement"),
    ]
    for fn, left, right, error, message in refusals:
        with pytest.raises(error) as info:
            fn(left, right)
        assert str(info.value) == message


# -- accumulation sites --------------------------------------------------

RING = Ring([Generator("a", 2, 3), Generator("u", 1, 2)])
ONE, A, A2 = 0, RING.monomial({"a": 1}), RING.monomial({"a": 2})


@pytest.mark.parametrize(
    ("left", "right", "want"),
    [
        # (1 + a)(1 - a) = 1 - a^2: the two a pieces cancel.
        ({ONE: 1, A: 1}, {ONE: 1, A: -1}, {ONE: (int, 1), A2: (int, -1)}),
        # (1 + a)(1/3 + 2/3 a): the a coefficient 2/3 + 1/3 is the int 1.
        (
            {ONE: 1, A: 1},
            {ONE: THIRD, A: 2 * THIRD},
            {ONE: (Fraction, THIRD), A: (int, 1), A2: (Fraction, 2 * THIRD)},
        ),
    ],
    ids=["cancels", "integral"],
)
def test_cup_sums_stay_canonical(left, right, want):
    assert _typed(cup(RingElement(RING, left), RingElement(RING, right)).terms) == want


@pytest.mark.parametrize(
    ("left", "want"),
    [
        # cap(1 - a, [a] + [a^2]) = [a] + [a^2] - [1] - [a]: the [a] pieces cancel.
        ({ONE: 1, A: -1}, {A2: (int, 1), ONE: (int, -1)}),
        # cap(1/3 + 2/3 a, [a] + [a^2]): the [a] coefficient 1/3 + 2/3 is the int 1.
        (
            {ONE: THIRD, A: 2 * THIRD},
            {A: (int, 1), A2: (Fraction, THIRD), ONE: (Fraction, 2 * THIRD)},
        ),
    ],
    ids=["cancels", "integral"],
)
def test_cap_sums_stay_canonical(left, want):
    x = HomologyElement(RING, {A: 1, A2: 1})
    assert _typed(cap(RingElement(RING, left), x).terms) == want


@pytest.mark.parametrize("cls", [RingElement, HomologyElement])
def test_sums_of_elements_stay_canonical(cls):
    x = cls(RING, {A: THIRD, ONE: 1})
    assert _typed((x + cls(RING, {A: 2 * THIRD})).terms) == {A: (int, 1), ONE: (int, 1)}
    assert _typed((x + cls(RING, {A: -THIRD})).terms) == {ONE: (int, 1)}
    assert (x + -x).terms == {}


def test_pd_inverse_keeps_canonical_coefficients():
    # Distinct monomials have distinct complements, so no sum forms here:
    # each coefficient is the class's own, signed.
    ring = Ring([Generator("u", 1, 2), Generator("v", 1, 2), Generator("a", 2, 2)])
    space = OrientedSpace(ring)
    u, v = ring.monomial({"u": 1}), ring.monomial({"v": 1})
    c = RingElement(ring, {u: THIRD, v: -2})
    x = pd(space, c)
    assert sorted(map(type, x.terms.values()), key=str) == [Fraction, int]
    assert _typed(pd_inverse(space, x).terms) == _typed(c.terms)


def test_ring_map_sums_stay_canonical():
    source = Ring([Generator("u", 2, 2), Generator("v", 2, 2)])
    target = Ring([Generator("a", 2, 2)])
    fold = RingMap(source, target, {"u": target.gen("a"), "v": target.gen("a")})
    u, v = source.monomial({"u": 1}), source.monomial({"v": 1})
    a = target.monomial({"a": 1})
    assert _typed(fold(RingElement(source, {u: THIRD, v: 2 * THIRD})).terms) == {a: (int, 1)}
    assert fold(RingElement(source, {u: 1, v: -1})).terms == {}
    assert _typed(fold(RingElement(source, {u: THIRD, v: THIRD})).terms) == {
        a: (Fraction, 2 * THIRD)
    }


# -- the ring-axiom sweep's random draws -----------------------------------


def _drawn(rng, monos) -> dict:
    """The sweep's original draw: randint for the count and for p and q of p/q."""
    picks = rng.sample(monos, k=min(len(monos), rng.randint(1, 3)))
    return {m: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for m in picks}


def _sweep_rings():
    """The rings the ring-axiom sweep draws from on cp1 and hp2, with ids."""
    for token, n in (("cp", 1), ("hp", 2)):
        cat = catalog_for(SpaceParams.from_token(token, n))
        for label, space in (("sm", cat.sm), ("pair", cat.sm_pair), ("level2", cat.gamma(2))):
            yield f"{token}{n}-{label}", space.ring


@pytest.mark.parametrize("ring", [r for _, r in _sweep_rings()], ids=[i for i, _ in _sweep_rings()])
def test_random_draws_are_the_original_ones(ring):
    monos = list(ring.monomials())
    layers: dict = {}
    for m in monos:
        layers.setdefault(ring.monomial_degree(m), []).append(m)
    layers = [layers[d] for d in sorted(layers)]
    for seed in range(200):
        old, new = random.Random(seed), random.Random(seed)
        for _ in range(50):
            want = {m: as_coeff(c) for m, c in _drawn(old, monos).items()}
            assert _typed(verify._random_terms(new, monos)) == _typed(want)
            want = ring.element(_drawn(old, old.choice(layers)))
            got = verify._random_homogeneous(ring, new, layers)
            assert type(got) is RingElement and got.ring is ring
            assert _typed(got.terms) == _typed(want.terms)
        assert new.getstate() == old.getstate()
