"""Kernel tests: graded generators, monomial arithmetic, Koszul signs.

Sign and dimension oracles here are computed independently of the shipped
formulas: signs by explicit transposition counting on generator words,
dimensions by brute-force enumeration of exponent tuples.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopalg import (
    Generator,
    Ring,
    RingMismatchError,
    SpaceParams,
    TensorRing,
    catalog_for,
    cross,
    cup,
)
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


def sign_by_transpositions(ring, left, right):
    """Count odd-odd inversions created by concatenating two normal-form words.

    ``left`` and ``right`` are exponent tuples, not packed monomials.
    """
    lw = [(idx, g.degree) for idx, g in enumerate(ring.generators) for _ in range(left[idx])]
    rw = [(idx, g.degree) for idx, g in enumerate(ring.generators) for _ in range(right[idx])]
    sign = 1
    for li, ld in lw:
        for ri, rd in rw:
            if li > ri and ld % 2 == 1 and rd % 2 == 1:
                sign = -sign
    return sign


def brute_basis(ring, d):
    ranges = [range(t) for t in ring.truncations]
    degrees = [g.degree for g in ring.generators]
    degree = lambda m: sum(g * e for g, e in zip(degrees, m))  # noqa: E731
    return sorted(m for m in itertools.product(*ranges) if degree(m) == d)


@pytest.fixture(scope="module")
def mixed():
    # one truncated even, one exterior even, three exterior odds
    return Ring(
        [
            Generator("a", 2, 3),
            Generator("b", 8, 2),
            Generator("u", 1, 2),
            Generator("v", 3, 2),
            Generator("w", 5, 2),
        ]
    )


class TestConstruction:
    def test_generator_rejects_bad_truncation(self):
        with pytest.raises(ValueError, match="truncation"):
            Generator("a", 2, 1)

    def test_generator_rejects_odd_with_high_truncation(self):
        with pytest.raises(ValueError, match="odd"):
            Generator("u", 3, 4)

    def test_generator_rejects_negative_degree(self):
        with pytest.raises(ValueError, match="degree"):
            Generator("a", -2, 3)

    def test_ring_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="unique"):
            Ring([Generator("a", 2, 3), Generator("a", 4, 2)])

    def test_ring_rejects_degree_zero_generator(self):
        with pytest.raises(ValueError, match="top monomial"):
            Ring([Generator("a", 0, 3)])

    def test_top_monomial(self, mixed):
        assert mixed.top_monomial == mixed.check_monomial((2, 1, 1, 1, 1))
        assert mixed.top_degree == 2 * 2 + 8 + 1 + 3 + 5

    def test_monomial_validates_names(self, mixed):
        with pytest.raises(KeyError):
            mixed.monomial({"zz": 1})

    def test_element_validates_exponent_range(self, mixed):
        with pytest.raises(ValueError, match="exponent"):
            mixed.element({(3, 0, 0, 0, 0): 1})

    def test_structural_equality(self):
        gens = [Generator("a", 2, 3)]
        assert Ring(gens) == Ring(list(gens))
        assert Ring(gens) != Ring([Generator("a", 2, 4)])

    def test_equal_rings_built_apart_hash_equal(self):
        gens = [Generator("a", 2, 3), Generator("u", 1, 2)]
        one, twin = Ring(gens), Ring(list(gens))
        assert one is not twin and hash(one) == hash(twin)
        assert len({one, twin}) == 1

    def test_kernel_accepts_equal_rings_built_apart(self):
        # cup, cap, pairing and cross refuse a foreign ring through the one
        # owner rule, which tests identity first; a ring equal to the
        # operand's but built separately still passes, and an unequal one is
        # still refused.
        gens = [Generator("a", 2, 3), Generator("u", 1, 2)]
        one, twin, other = Ring(gens), Ring(list(gens)), Ring([Generator("a", 2, 3)])
        a, u = one.gen("a"), twin.gen("u")
        x = 3 * dual(one, (2, 1))
        assert cup(a, u) == cup(a, one.gen("u"))
        assert cap(u, x) == cap(one.gen("u"), x) == 3 * dual(one, (2, 0))
        assert pairing(cup(a, twin.gen("a")) * u, x) == pairing(cup(a, a) * one.gen("u"), x) == 3
        half = pairing(u * Fraction(1, 2), 2 * dual(one, (0, 1)))
        assert half == 1 and type(half) is int
        # The squares of equal rings built apart are two objects, but equal.
        b, y = cup(a, one.gen("u")), 3 * dual(twin, (2, 1))
        assert pairing(cross(a, b), diagonal_pushforward(y)) == pairing(a * b, y) == 3
        with pytest.raises(RingMismatchError, match="cross of classes over different rings"):
            cross(a, other.gen("a"))
        with pytest.raises(RingMismatchError, match="cup of elements over different rings"):
            cup(a, other.gen("a"))
        with pytest.raises(RingMismatchError, match="cap of classes over different rings"):
            cap(other.gen("a"), x)
        with pytest.raises(RingMismatchError, match="pairing of classes over different rings"):
            pairing(other.gen("a"), x)

    def test_duality_maps_and_gysin_accept_equal_rings_built_apart(self):
        # pd, pd_inverse, a RingMap's images and argument, and gysin's two
        # spaces and class all pass the owner rule on an equal ring built apart.
        gens = [Generator("a", 2, 3), Generator("u", 1, 2)]
        one, twin, third = Ring(gens), Ring(list(gens)), Ring(list(gens))
        space, space_twin = OrientedSpace(one), OrientedSpace(twin)
        a, x = one.gen("a"), dual(one, (1, 1))
        assert pd(space_twin, a) == pd(space, a) == x
        assert pd_inverse(space_twin, x) == pd_inverse(space, x) == a
        identity = RingMap(one, third, {g.name: twin.gen(g.name) for g in gens})
        au = twin.gen("a") * twin.gen("u")
        assert identity(au) == a * one.gen("u")
        assert gysin(identity, space_twin, OrientedSpace(twin), 2 * x) == 2 * x

    def test_combination_keeps_canonical_coefficients(self):
        # Only a coefficient that is not exactly an int goes through as_coeff.
        ring = Ring([Generator("a", 2, 3)])
        flag = type("Flag", (int,), {})
        terms = ring.element({(1,): flag(2), (2,): Fraction(6, 3)}).terms
        assert terms == {ring.check_monomial((1,)): 2, ring.check_monomial((2,)): 2}
        assert all(type(c) is int for c in terms.values())
        with pytest.raises(TypeError, match="exact rational expected, not bool"):
            ring.element({(1,): True})


class TestBasisAndSeries:
    # Every bound from 0 to mixed's top degree 21; a bound below a
    # generator's degree stops that generator's powers early.
    @pytest.mark.parametrize("bound", range(22))
    def test_poincare_series_matches_brute_force(self, mixed, bound):
        assert mixed.top_degree == 21
        series = mixed.poincare_series(bound)
        assert [d for d, _ in series] == list(range(bound + 1))
        for d, dim in series:
            assert dim == len(brute_basis(mixed, d))

    def test_total_dimension(self, mixed):
        series = mixed.poincare_series(mixed.top_degree)
        assert sum(c for _, c in series) == 3 * 2 * 2 * 2 * 2
        assert sum(c for _, c in series) == sum(1 for _ in mixed.monomials())

    def test_poincare_series_palindrome(self, mixed):
        # the rings here satisfy exact duality, so the series is symmetric
        series = dict(mixed.poincare_series(mixed.top_degree))
        for d in range(mixed.top_degree + 1):
            assert series.get(d, 0) == series.get(mixed.top_degree - d, 0)


class TestSigns:
    def test_merge_sign_matches_transposition_count(self, mixed):
        monos = list(itertools.product(*(range(t) for t in mixed.truncations)))
        for left in monos:
            for right in monos:
                packed = mixed.check_monomial(left), mixed.check_monomial(right)
                assert mixed.merge_sign(*packed) == sign_by_transpositions(mixed, left, right)

    @settings(max_examples=150, deadline=None)
    @given(
        token=st.sampled_from(["cp", "hp"]),
        n=st.integers(min_value=1, max_value=3),
        k=st.integers(min_value=1, max_value=40),
        data=st.data(),
    )
    def test_merge_sign_on_level_rings(self, token, n, k, data):
        # level-k rings carry 2k - 1 odd or even exterior generators
        ring = catalog_for(SpaceParams.from_token(token, n)).gamma(k).ring
        monomial = st.tuples(*(st.integers(0, t - 1) for t in ring.truncations))
        left, right = data.draw(monomial), data.draw(monomial)
        packed = ring.check_monomial(left), ring.check_monomial(right)
        assert ring.merge_sign(*packed) == sign_by_transpositions(ring, left, right)

    def test_odd_square_is_zero(self, mixed):
        u = mixed.gen("u")
        assert (u * u).is_zero()

    def test_odd_anticommute(self, mixed):
        u, v = mixed.gen("u"), mixed.gen("v")
        assert u * v == -(v * u)
        assert not (u * v).is_zero()

    def test_even_commute_with_everything(self, mixed):
        a, u = mixed.gen("a"), mixed.gen("u")
        assert a * u == u * a

    def test_truncation_kills_power(self, mixed):
        a = mixed.gen("a")
        assert not (a ** 2).is_zero()
        assert (a ** 3).is_zero()

    def test_three_odd_reversal(self, mixed):
        # w v u = -(u v w): three pairwise transpositions
        u, v, w = mixed.gen("u"), mixed.gen("v"), mixed.gen("w")
        assert w * v * u == -(u * v * w)


class TestElementAlgebra:
    def test_scalar_and_fraction_coefficients(self, mixed):
        a = mixed.gen("a")
        x = Fraction(1, 2) * a + a
        assert x == Fraction(3, 2) * a
        assert (x - x).is_zero()

    def test_float_coefficients_rejected(self, mixed):
        with pytest.raises(TypeError):
            mixed.element({mixed.monomial({"a": 1}): 0.5})

    def test_bool_coefficients_rejected(self, mixed):
        with pytest.raises(TypeError):
            mixed.element({mixed.monomial({"a": 1}): True})

    def test_degree_of_mixed_sum_is_none(self, mixed):
        a, b = mixed.gen("a"), mixed.gen("b")
        assert (a + b).degree() is None
        assert a.degree() == 2
        assert mixed.zero().degree() is None

    def test_cross_ring_operations_rejected(self, mixed):
        other = Ring([Generator("a", 2, 3)])
        with pytest.raises(RingMismatchError):
            mixed.gen("a") + other.gen("a")
        with pytest.raises(RingMismatchError):
            cup(mixed.gen("a"), other.gen("a"))

    def test_pow_zero_is_one(self, mixed):
        assert mixed.gen("v") ** 0 == mixed.one()

    def test_str_forms(self, mixed):
        a = mixed.gen("a")
        assert str(mixed.zero()) == "0"
        assert str(mixed.one()) == "1"
        assert str(a ** 2) == "a^2"
        assert str(-(a * mixed.gen("u"))) == "-a u"


def _coeffs():
    return st.fractions(
        min_value=Fraction(-4), max_value=Fraction(4), max_denominator=6
    )


def _elements(ring):
    monos = list(ring.monomials())

    def build(pairs):
        return ring.element(dict(pairs))

    return st.builds(
        build,
        st.lists(st.tuples(st.sampled_from(monos), _coeffs()), max_size=4),
    )


@pytest.fixture(scope="module")
def small():
    return Ring([Generator("a", 2, 3), Generator("u", 1, 2), Generator("v", 3, 2)])


class TestPropertyBased:
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_associativity(self, small, data):
        x = data.draw(_elements(small))
        y = data.draw(_elements(small))
        z = data.draw(_elements(small))
        assert (x * y) * z == x * (y * z)

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_distributivity(self, small, data):
        x = data.draw(_elements(small))
        y = data.draw(_elements(small))
        z = data.draw(_elements(small))
        assert x * (y + z) == x * y + x * z

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_unit(self, small, data):
        x = data.draw(_elements(small))
        assert small.one() * x == x
        assert x * small.one() == x

    def test_graded_commutativity_exhaustive(self, small):
        for ma in small.monomials():
            for mb in small.monomials():
                x = small.element({ma: 1})
                y = small.element({mb: 1})
                da = small.monomial_degree(ma)
                db = small.monomial_degree(mb)
                sign = -1 if (da % 2 and db % 2) else 1
                assert x * y == sign * (y * x)


class TestTensor:
    def test_tensor_dimension(self, small):
        t = small.square
        assert sum(1 for _ in t.monomials()) == sum(1 for _ in small.monomials()) ** 2

    def test_cross_has_no_sign(self, small):
        t = small.square
        u, v = small.gen("u"), small.gen("v")
        m = cross(u, v)
        ((mono, coeff),) = m.terms.items()
        assert coeff == 1
        ml, mr = t.split(mono)
        assert small.monomial_str(ml) == "u"
        assert small.monomial_str(mr) == "v"

    def test_product_rule_sign(self, small):
        # the two u's land in different tensor factors, so (a x u)(u x 1)
        # survives; (a x u)(v x 1) = -(a v) x u from one odd-odd swap
        a, u, v = small.gen("a"), small.gen("u"), small.gen("v")
        assert (cross(a, u) * cross(u, small.one())).is_zero() is False
        lhs = cross(a, u) * cross(v, small.one())
        assert lhs == -cross(a * v, u)

    def test_tensor_product_rule_exhaustive(self, small):
        t = small.square
        monos = list(small.monomials())
        for ma, mb, mc, md in itertools.product(monos, repeat=4):
            left = t.element({small.unpack(ma) + small.unpack(mb): 1})
            right = t.element({small.unpack(mc) + small.unpack(md): 1})
            db = small.monomial_degree(mb)
            dc = small.monomial_degree(mc)
            ac = small.element({ma: 1}) * small.element({mc: 1})
            bd = small.element({mb: 1}) * small.element({md: 1})
            sign = -1 if (db % 2 and dc % 2) else 1
            assert left * right == sign * cross(ac, bd)

    def test_name_collisions_prefixed(self, small):
        t = small.square
        names = [g.name for g in t.generators]
        assert names == ["a", "u", "v", "r.a", "r.u", "r.v"]

    def test_square_is_one_tensor_ring_per_ring(self, small):
        # Built on first use and kept, so classes over it share one owner.
        t = small.square
        assert t is small.square and type(t) is TensorRing and t.factor is small
        assert t == TensorRing(small)
        assert cross(small.gen("a"), small.one()).ring is t
        assert diagonal_pushforward(dual(small, (1, 0, 0))).ring is t

    def test_prefixed_names_stay_free(self):
        # A name already prefixed with "r." pushes its copy one prefix further.
        ring = Ring([Generator("u", 1, 2), Generator("r.u", 3, 2)])
        names = [g.name for g in ring.square.generators]
        assert names == ["u", "r.u", "r.r.u", "r.r.r.u"]

    def test_split_roundtrip(self, small):
        t = small.square
        for m in t.monomials():
            ml, mr = t.split(m)
            assert small.unpack(ml) + small.unpack(mr) == t.unpack(m)


class TestProjectiveRings:
    """Pinned values over the concrete bundle rings, not toy generators."""

    def test_level_two_generator_degrees(self, cp2):
        g2 = cp2.gamma(2).ring
        assert [(g.name, g.degree) for g in g2.generators] == [
            ("a", 2),
            ("b", 5),
            ("x1", 1),
            ("x2", 3),
            ("x3", 1),
        ]

    def test_odd_generators_anticommute(self, cp2):
        g2 = cp2.gamma(2).ring
        x1, x3 = g2.gen("x1"), g2.gen("x3")
        assert x3 * x1 == -(x1 * x3)
        assert x1 * x3 == g2.element({g2.monomial({"x1": 1, "x3": 1}): 1})

    def test_even_generator_truncates(self, cp2):
        a = cp2.gamma(2).ring.gen("a")
        assert (a * a).is_zero()

    def test_sum_of_odd_generators_squares_to_zero(self, cp2):
        g2 = cp2.gamma(2).ring
        s = g2.gen("x1") + g2.gen("x3")
        assert (s * s).is_zero()

    def test_degree_one_basis(self, cp2):
        g2 = cp2.gamma(2).ring
        degree_one = [m for m in g2.monomials() if g2.monomial_degree(m) == 1]
        assert sorted(g2.monomial_str(m) for m in degree_one) == ["x1", "x3"]

    def test_degree_zero_basis_is_the_unit(self, cp2):
        g2 = cp2.gamma(2).ring
        assert [m for m in g2.monomials() if g2.monomial_degree(m) == 0] == [g2.monomial()]

    def test_top_basis_is_the_full_product(self, cp2):
        g2 = cp2.gamma(2).ring
        assert g2.top_degree == 12
        assert dict(g2.poincare_series(12))[12] == 1
        assert g2.monomial_str(g2.top_monomial) == "a b x1 x2 x3"

    def test_tensor_square_dimension(self, cp2):
        assert sum(1 for _ in cp2.sm.ring.square.monomials()) == 16

    def test_cross_of_units(self, cp2):
        sm = cp2.sm.ring
        assert cross(sm.one(), sm.one()) == sm.square.one()

    def test_cross_koszul_sign(self, cp2):
        # (a x b)(b x 1) moves the degree-5 b past the other b: one swap
        sm = cp2.sm.ring
        a, b = sm.gen("a"), sm.gen("b")
        assert cross(a, b) * cross(b, sm.one()) == -cross(a * b, b)

    def test_bundle_series(self, cp2):
        dims = [d for _, d in cp2.sm.ring.poincare_series(7)]
        assert dims == [1, 0, 1, 0, 0, 1, 0, 1]

    def test_tensor_series_is_convolution(self, cp2):
        sm = cp2.sm.ring
        top = sm.top_degree
        dims = dict(sm.poincare_series(top))
        for deg, dim in sm.square.poincare_series(2 * top):
            conv = sum(
                dims[i] * dims.get(deg - i, 0) for i in range(top + 1)
            )
            assert dim == conv

    def test_empty_ring_is_the_ground_field(self):
        r = Ring([])
        assert sum(c for _, c in r.poincare_series(3)) == 1
        assert r.poincare_series(3) == [(0, 1), (1, 0), (2, 0), (3, 0)]
        assert list(r.monomials()) == [r.monomial()]
