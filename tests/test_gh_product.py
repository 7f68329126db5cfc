"""Cohomology product, its duality with the coproduct, and the presentation."""

import itertools
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopalg import (
    CohClass,
    LoopClass,
    PresMonomial,
    Report,
    betti_table,
    coproduct_closed,
    generator_degree,
    gh_product,
    gh_product_pairs,
    loops,
    presentation_normalize,
    verify_duality,
    verify_presentation,
)
from loopalg.loops import coh_cross, gh_dual_pairing, tensor_pairing


_counts = operator.attrgetter("factor_count", "sub_index", "beta_count")


def s(params, k, i):
    return CohClass.generator(params, "s", k, i)


def m(params, k, i):
    return CohClass.generator(params, "m", k, i)


class TestProduct:
    def test_s_times_s(self, cp2):
        p = cp2.params
        assert gh_product(s(p, 1, 0), s(p, 2, 1)) == s(p, 3, 1)

    def test_s_times_m_both_orders(self, cp2):
        p = cp2.params
        assert gh_product(s(p, 1, 0), m(p, 1, 1)) == m(p, 2, 1)
        assert gh_product(m(p, 1, 1), s(p, 1, 0)) == m(p, 2, 1)

    def test_m_times_m_is_zero(self, cp3):
        p = cp3.params
        assert gh_product(m(p, 1, 0), m(p, 2, 2)).is_zero()

    def test_index_truncation(self, cp2):
        # indices add; anything above n-1 dies
        p = cp2.params
        assert gh_product(s(p, 1, 1), s(p, 1, 1)).is_zero()
        assert gh_product(s(p, 1, 0), m(p, 1, 1)) == m(p, 2, 1)
        assert gh_product(s(p, 1, 1), m(p, 1, 1)).is_zero()

    def test_bilinearity(self, cp3):
        p = cp3.params
        x = 2 * s(p, 1, 0) - m(p, 1, 1)
        y = s(p, 2, 1) + 3 * m(p, 2, 0)
        expect = (
            2 * gh_product(s(p, 1, 0), s(p, 2, 1))
            + 6 * gh_product(s(p, 1, 0), m(p, 2, 0))
            - gh_product(m(p, 1, 1), s(p, 2, 1))
            - 3 * gh_product(m(p, 1, 1), m(p, 2, 0))
        )
        assert gh_product(x, y) == expect

    def test_associativity_on_generators(self, cp3):
        p = cp3.params
        gens = [
            CohClass.generator(p, kind, k, i)
            for kind, k, i in itertools.product("sm", (1, 2), range(p.n))
        ]
        for x, y, z in itertools.product(gens, repeat=3):
            assert gh_product(gh_product(x, y), z) == gh_product(x, gh_product(y, z))

    def test_graded_commutativity(self, cp2, hp2):
        # all s are odd and all m even, but the product never sees a sign:
        # odd*odd lands in the vanishing m*m corner
        for cat in (cp2, hp2):
            p = cat.params
            gens = [
                CohClass.generator(p, kind, k, i)
                for kind, k, i in itertools.product("sm", (1, 2, 3), range(p.n))
            ]
            for x, y in itertools.product(gens, repeat=2):
                assert gh_product(x, y) == gh_product(y, x)

    def test_pairs_form(self, cp2):
        p = cp2.params
        t = coh_cross(s(p, 1, 0), m(p, 1, 1)) + coh_cross(m(p, 1, 0), s(p, 1, 1))
        assert gh_product_pairs(t) == 2 * m(p, 2, 1)

    def test_degree_law(self, hp2):
        # deg(a * b) = deg a + deg b + N - 1
        p = hp2.params
        for x, y in itertools.product(
            [s(p, 1, 0), s(p, 2, 1), m(p, 1, 0)], repeat=2
        ):
            out = gh_product(x, y)
            if not out.is_zero():
                assert out.degree() == x.degree() + y.degree() + p.N - 1


class TestDuality:
    def test_pairing_is_kronecker(self, cp2):
        p = cp2.params
        assert gh_dual_pairing(s(p, 2, 1), LoopClass.generator(p, "A", 2, 1)) == 1
        assert gh_dual_pairing(s(p, 2, 1), LoopClass.generator(p, "B", 2, 1)) == 0
        assert gh_dual_pairing(m(p, 2, 1), LoopClass.generator(p, "B", 2, 1)) == 1

    def test_duality_instance(self, cp2):
        # <s[1,0] x m[1,1], coproduct B[2,1]> = <s[1,0]*m[1,1], B[2,1]> = 1
        p = cp2.params
        t = coh_cross(s(p, 1, 0), m(p, 1, 1))
        x = LoopClass.generator(p, "B", 2, 1)
        lhs = tensor_pairing(t, coproduct_closed(x))
        rhs = gh_dual_pairing(gh_product_pairs(t), x)
        assert lhs == rhs == 1

    def test_duality_zero_instance(self, hp2):
        # m*m = 0 forces <m x m, coproduct -> > = 0 for every target
        p = hp2.params
        t = coh_cross(m(p, 1, 0), m(p, 1, 1))
        for kind, k, i in itertools.product("AB", (2, 3), range(p.n)):
            x = LoopClass.generator(p, kind, k, i)
            assert tensor_pairing(t, coproduct_closed(x)) == 0

    def test_duality_sweep(self, cp2, hp1):
        assert verify_duality(cp2.params, 4).passed
        assert verify_duality(hp1.params, 4).passed


def _text(key):
    kind, k, i = key
    return f"{kind}[{k},{i}]"


def _dense_duality(params, max_k):
    """Reference sweep: one gh_dual_pairing and one tensor_pairing per triple.

    Kept as a test oracle for verify_duality, which reads the same triples
    off sparse tables.  It calls gh_product and coproduct_closed through the
    module, so a patched version reaches both sweeps.
    """
    rep = Report("dense duality")
    coh = [(kind, k, i) for k in range(1, max_k) for kind in "sm" for i in range(params.n)]
    split = {}
    for k in range(1, max_k + 1):
        for kind in "AB":
            for i in range(params.n):
                x = LoopClass.generator(params, kind, k, i)
                split[(kind, k, i)] = (x, loops.coproduct_closed(x))
    for ka in coh:
        ca = CohClass.generator(params, *ka)
        for kb in coh:
            if ka[1] + kb[1] > max_k:
                continue
            cb = CohClass.generator(params, *kb)
            prod = loops.gh_product(ca, cb)
            crossed = coh_cross(ca, cb)
            for key, (x, vee) in split.items():
                lhs = gh_dual_pairing(prod, x)
                rhs = tensor_pairing(crossed, vee)
                rep.note(lhs == rhs, "<{}*{}, {}>: {} != {}", *map(_text, (ka, kb, key)), lhs, rhs)
    return rep


class TestDualityAgainstDenseReference:
    @pytest.mark.parametrize("space", ["cp2", "hp2"])
    def test_same_counts_and_verdict(self, space, request):
        params = request.getfixturevalue(space).params
        dense = _dense_duality(params, 8)
        sparse = verify_duality(params, 8)
        assert dense.checks == 14336
        assert (sparse.checks, sparse.failed, sparse.passed) == (
            dense.checks,
            dense.failed,
            dense.passed,
        )

    def test_same_failures_in_the_same_order(self, cp2, monkeypatch):
        product = loops.gh_product

        def doubled(a, b):
            out = product(a, b)
            return 2 * out if any(kind == "m" for kind, _, _ in a.terms) else out

        monkeypatch.setattr(loops, "gh_product", doubled)
        dense = _dense_duality(cp2.params, 8)
        sparse = verify_duality(cp2.params, 8)
        assert dense.failed > len(dense.failures) > 0
        assert (sparse.checks, sparse.failed) == (dense.checks, dense.failed)
        assert sparse.failures == dense.failures


class TestPresentation:
    def test_build_and_bounds(self, cp3):
        p = cp3.params
        w = PresMonomial.build(p, omega=2)
        assert (w.factor_count, w.sub_index, w.beta_count) == (2, 0, 0)
        with pytest.raises(ValueError, match="alpha index"):
            PresMonomial.build(p, alphas={3: 1})
        with pytest.raises(ValueError, match="beta index"):
            PresMonomial.build(p, betas={3: 1})
        with pytest.raises(
            ValueError, match="^the constant monomial is not in the presentation ring$"
        ):
            PresMonomial.build(p)
        for args in [(-1, (0, 0), (1, 0, 0)), (0, (-1, 0), (1, 0, 0)), (1, (0, 0), (0, 0, -2))]:
            with pytest.raises(ValueError, match="^exponents must be non-negative$"):
                PresMonomial(*args)

    @pytest.mark.parametrize(
        "args",
        [(0, (1,), (1,)), (0, (), (1, 0)), (1, (0, 0), (0, 0)), (0, (1,), (0, 1, 0))],
    )
    def test_shape_that_fits_no_n_is_refused(self, args):
        with pytest.raises(ValueError, match="^alphas of length .* fit no n$"):
            PresMonomial(*args)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((True, (), (False,)), "exponents must be ints, not True"),
            ((0.5, (), (0,)), "exponents must be ints, not 0.5"),
            ((1, (0,), (0, 1.0)), "exponents must be ints, not 1.0"),
            ((0, [1], (0, 1)), "alphas must be a tuple, not [1]"),
            ((0, (1,), [0, 1]), "betas must be a tuple, not [0, 1]"),
        ],
    )
    def test_non_int_exponent_and_non_tuple_part_are_refused(self, args, message):
        with pytest.raises(TypeError) as err:
            PresMonomial(*args)
        assert str(err.value) == message

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_product_counts_match_the_naive_formulas(self, data):
        n = data.draw(st.integers(1, 5), label="n")
        parts = st.tuples(
            st.integers(0, 6),
            st.lists(st.integers(0, 6), min_size=n - 1, max_size=n - 1).map(tuple),
            st.lists(st.integers(0, 6), min_size=n, max_size=n).map(tuple),
        ).filter(lambda row: row[0] + sum(row[1]) + sum(row[2]) > 0)
        (w1, a1, b1), (w2, a2, b2) = data.draw(parts), data.draw(parts)
        p, q = PresMonomial(w1, a1, b1), PresMonomial(w2, a2, b2)
        row = (w1 + w2, tuple(x + y for x, y in zip(a1, a2)), tuple(x + y for x, y in zip(b1, b2)))
        product, summed = p.mul(q), PresMonomial(*row)
        for x, (w, a, b) in ((p, (w1, a1, b1)), (q, (w2, a2, b2)), (product, row)):
            assert (x.omega, x.alphas, x.betas) == (w, a, b)
            sub_index = sum(i * e for i, e in enumerate(a, 1)) + sum(i * e for i, e in enumerate(b))
            assert _counts(x) == (w + sum(a) + sum(b), sub_index, sum(b))
        assert product == summed and hash(product) == hash(summed)
        assert _counts(product) == _counts(summed)

    @pytest.mark.parametrize("space", ["cp3", "hp3"])
    def test_counts_are_read_from_the_exponents(self, request, space):
        p = request.getfixturevalue(space).params
        for factors in range(1, 5):
            for x in loops._pres_monomials(p, factors):
                alphas = sum((j + 1) * e for j, e in enumerate(x.alphas))
                betas = sum(j * e for j, e in enumerate(x.betas))
                assert (x.factor_count, x.sub_index, x.beta_count) == (
                    x.omega + sum(x.alphas) + sum(x.betas),
                    alphas + betas,
                    sum(x.betas),
                )
                assert x.factor_count == factors

    def test_counts_stay_out_of_repr_eq_and_hash(self, cp3):
        x = PresMonomial.build(cp3.params, omega=1, alphas={2: 1}, betas={1: 1})
        y = PresMonomial(1, (0, 1), (0, 1, 0))
        object.__setattr__(y, "sub_index", -1)  # a stale count must not show
        assert repr(x) == repr(y) == "PresMonomial(omega=1, alphas=(0, 1), betas=(0, 1, 0))"
        assert x == y and hash(x) == hash(y)
        assert len({x, y}) == 1

    def test_omega_power_normalizes_to_bottom_class(self, cp2):
        p = cp2.params
        for k in range(1, 13):
            w_k = PresMonomial.build(p, omega=k)
            assert presentation_normalize(w_k, p) == CohClass.generator(p, "s", k, 0)

    def test_omega_alpha(self, cp2):
        p = cp2.params
        x = PresMonomial.build(p, omega=1, alphas={1: 1})
        assert presentation_normalize(x, p) == CohClass.generator(p, "s", 2, 1)

    def test_single_beta(self, cp2):
        p = cp2.params
        x = PresMonomial.build(p, betas={1: 1})
        assert presentation_normalize(x, p) == CohClass.generator(p, "m", 1, 1)

    def test_two_betas_vanish(self, cp2):
        p = cp2.params
        x = PresMonomial.build(p, betas={0: 1, 1: 1})
        assert presentation_normalize(x, p).is_zero()

    def test_index_overflow_vanishes(self, cp2):
        p = cp2.params
        x = PresMonomial.build(p, alphas={1: 2})
        assert presentation_normalize(x, p).is_zero()

    def test_normalization_is_multiplicative(self, cp3):
        p = cp3.params
        mono_args = [
            {"omega": 1},
            {"alphas": {1: 1}},
            {"alphas": {2: 1}},
            {"betas": {0: 1}},
            {"betas": {2: 1}},
            {"omega": 1, "alphas": {1: 1}},
        ]
        monos = [PresMonomial.build(p, **kw) for kw in mono_args]
        for x, y in itertools.product(monos, repeat=2):
            lhs = presentation_normalize(x.mul(y), p)
            rhs = gh_product(presentation_normalize(x, p), presentation_normalize(y, p))
            assert lhs == rhs

    def test_presentation_sweep(self, cp2, hp2, cp1):
        assert verify_presentation(cp2.params, 4).passed
        assert verify_presentation(hp2.params, 4).passed
        assert verify_presentation(cp1.params, 4).passed


class TestBetti:
    def test_cp2_low_degrees(self, cp2):
        p = cp2.params
        # degrees 1,3 from level 1 odd classes; 6,8 from the even family
        assert [v for _, v in betti_table(p, 8)] == [0, 1, 0, 1, 0, 1, 1, 1, 1]

    def test_hp2_sparse(self, hp2):
        # level 1 sits in degrees 3, 7 (odd family) and 14, 18 (even family)
        rows = dict(betti_table(hp2.params, 18))
        assert rows[3] == 1
        assert rows[7] == 1
        assert rows[14] == 1
        assert rows[18] == 1
        assert rows[10] == 0
        assert rows[2] == 0

    def test_table_matches_pointwise(self, cp3):
        p = cp3.params
        table = betti_table(p, 30)
        gens = list(itertools.product("AB", range(1, 31), range(p.n)))
        pointwise = [sum(generator_degree(p, *g) == d for g in gens) for d in range(31)]
        assert table == list(enumerate(pointwise))

    def test_total_count_matches_enumeration(self, cp2):
        p = cp2.params
        top = 40
        total = sum(c for _, c in betti_table(p, top))
        by_hand = sum(
            1
            for kind, k, i in itertools.product("AB", range(1, 12), range(p.n))
            if generator_degree(p, kind, k, i) <= top
        )
        assert total == by_hand
