"""Model spaces: presentations, dimensions, pullbacks, wrong-way values.

The six signed values pinned in TestSignedGateValues were derived by hand
from the pairing adjunction with the orientation that gives every top
monomial coefficient +1; the whole geometric route is calibrated by them.
"""

import pytest

from loopalg import (
    LoopClass,
    SpaceParams,
    cap,
    catalog_for,
    coproduct_closed,
    coproduct_pipeline,
    cross,
    diagonal_pushforward,
    dual,
    gysin,
    pd,
)
from loopalg.spaces import SpaceCatalog, generator_degree


class TestParams:
    def test_token_parsing(self):
        assert SpaceParams.from_token("cp", 2) == SpaceParams("complex", 2)
        assert SpaceParams.from_token("hp", 2) == SpaceParams("quaternionic", 2)
        for token in ("rp", "complex", "quaternionic", "CP"):
            with pytest.raises(ValueError, match="unknown space token"):
                SpaceParams.from_token(token, 2)
        with pytest.raises(ValueError):
            SpaceParams.from_token("cp", 0)

    @pytest.mark.parametrize("n", [2.0, 2.5, True, "2"], ids=repr)
    def test_rank_must_be_an_int(self, n):
        with pytest.raises(TypeError, match="n must be an int"):
            SpaceParams("complex", n)

    def test_rank_check_keeps_the_shared_catalog_sound(self, monkeypatch):
        # A float rank used to equal and hash like the int one, so it shared
        # (and broke) the int rank's cached catalog.
        monkeypatch.setattr("loopalg.spaces._CATALOGS", {})
        with pytest.raises(TypeError):
            bad = SpaceParams("complex", 2.0)
            coproduct_pipeline(LoopClass.generator(bad, "B", 3, 1))
        x = LoopClass.generator(SpaceParams("complex", 2), "B", 3, 1)
        assert coproduct_pipeline(x) == coproduct_closed(x)

    def test_characteristic_numbers(self):
        cp = SpaceParams.from_token("cp", 3)
        hp = SpaceParams.from_token("hp", 3)
        assert (cp.lam, cp.N) == (1, 6)
        assert (hp.lam, hp.N) == (3, 12)

    def test_lambda_k(self):
        cp2 = SpaceParams.from_token("cp", 2)
        # lambda_k = k*lam + (k-1)(N-1)
        assert [cp2.lambda_k(k) for k in (1, 2, 3, 4)] == [1, 5, 9, 13]
        hp2 = SpaceParams.from_token("hp", 2)
        assert [hp2.lambda_k(k) for k in (1, 2, 3)] == [3, 13, 23]

    def test_bounds_checks(self):
        p = SpaceParams.from_token("cp", 2)
        with pytest.raises(ValueError, match="level"):
            p.check_level(0)
        with pytest.raises(ValueError, match="index out of range"):
            p.check_index(2)
        p.check_index(0)
        p.check_index(1)


class TestPresentations:
    def test_sm_ring(self, cp2):
        ring = cp2.sm.ring
        assert [(g.name, g.degree, g.truncation) for g in ring.generators] == [
            ("a", 2, 2),
            ("b", 5, 2),
        ]
        assert cp2.sm.dimension == 2 * cp2.params.N - 1

    def test_sm_ring_hp(self, hp3):
        ring = hp3.sm.ring
        assert [(g.name, g.degree, g.truncation) for g in ring.generators] == [
            ("a", 4, 3),
            ("b", 15, 2),
        ]
        assert hp3.sm.dimension == 2 * hp3.params.N - 1

    def test_sm_pair_ring(self, cp2):
        ring = cp2.sm_pair.ring
        assert [(g.name, g.degree) for g in ring.generators] == [
            ("a", 2),
            ("b", 5),
            ("xi", 3),
        ]
        assert cp2.sm_pair.dimension == 3 * cp2.params.N - 2

    def test_gamma_ring(self, cp2):
        ring = cp2.gamma(3).ring
        assert [(g.name, g.degree) for g in ring.generators] == [
            ("a", 2),
            ("b", 5),
            ("x1", 1),
            ("x2", 3),
            ("x3", 1),
            ("x4", 3),
            ("x5", 1),
        ]
        assert cp2.gamma(3).dimension == cp2.params.lambda_k(3) + 2 * cp2.params.N - 1

    def test_n_equals_one_omits_even_generator(self, cp1, hp1):
        for cat in (cp1, hp1):
            names = [g.name for g in cat.sm.ring.generators]
            assert names == ["b"]
            assert sum(1 for _ in cat.sm.ring.monomials()) == 2
            assert cat.sm.dimension == 2 * cat.params.N - 1

    def test_gamma_total_dimension(self, cp2, hp2):
        # dim H*(level k) = 2n * 2^(2k-1)
        for cat in (cp2, hp2):
            n = cat.params.n
            for k in (1, 2, 3):
                ring = cat.gamma(k).ring
                total = sum(c for _, c in ring.poincare_series(ring.top_degree))
                assert total == 2 * n * 2 ** (2 * k - 1)

    def test_gamma_poincare_product_identity(self, cp2, hp2, cp3):
        # series(level k) = series(SM) * (1 + t^lam)^k * (1 + t^(N-1))^(k-1)
        for cat in (cp2, hp2, cp3):
            p = cat.params
            k = 3
            top = cat.gamma(k).ring.top_degree
            series = [0] * (top + 1)
            for d, c in cat.sm.ring.poincare_series(cat.sm.ring.top_degree):
                series[d] = c
            for deg, count in ((p.lam, k), (p.N - 1, k - 1)):
                for _ in range(count):
                    nxt = list(series)
                    for d, c in enumerate(series):
                        if c and d + deg <= top:
                            nxt[d + deg] += c
                    series = nxt
            assert series == [c for _, c in cat.gamma(k).ring.poincare_series(top)]


class TestPullbacks:
    def test_pL_fixes_base_classes(self, cp2):
        pl = cp2.pullback_pL(2)
        gam = cp2.gamma(2).ring
        assert pl(cp2.sm.ring.gen("a")) == gam.gen("a")
        assert pl(cp2.sm.ring.gen("b")) == gam.gen("b")

    def test_pV_sends_fiber_class_to_break_class(self, cp3):
        for k, m in [(2, 1), (3, 1), (3, 2)]:
            pv = cp3.pullback_pV(k, m)
            gam = cp3.gamma(k).ring
            assert pv(cp3.sm_pair.ring.gen("xi")) == gam.gen(f"x{2 * m}")
            assert pv(cp3.sm_pair.ring.gen("xi")) == cp3.fiber_class(k, m)

    def test_pV_break_index_bounds(self, cp2):
        with pytest.raises(ValueError, match="break index"):
            cp2.pullback_pV(2, 2)
        with pytest.raises(ValueError, match="break index"):
            cp2.pullback_pV(1, 1)

    def test_fiber_class_is_break_generator(self, cp2, hp3):
        for cat in (cp2, hp3):
            for k in range(2, 5):
                for m in range(1, k):
                    assert cat.fiber_class(k, m) == cat.gamma(k).ring.gen(f"x{2 * m}")

    def test_fiber_class_break_index_bounds(self, cp2, hp3):
        for cat in (cp2, hp3):
            for k, m in [(3, 0), (3, 3), (1, 0), (1, 1)]:
                with pytest.raises(ValueError, match="break index"):
                    cat.fiber_class(k, m)

    def test_truncation_respected_on_small_n(self, cp1):
        # n=1 has no even base class, so the maps only carry b and xi
        pl = cp1.pullback_pL(2)
        assert pl(cp1.sm.ring.gen("b")) == cp1.gamma(2).ring.gen("b")


class TestDegrees:
    def test_deg_values_cp2(self, cp2):
        p = cp2.params
        assert generator_degree(p, "A", 1, 0) == 1
        assert generator_degree(p, "A", 1, 1) == 3
        assert generator_degree(p, "B", 1, 0) == 6
        assert generator_degree(p, "B", 1, 1) == 8
        assert generator_degree(p, "A", 3, 1) == 11
        assert generator_degree(p, "B", 2, 1) == 12

    def test_deg_values_hp2(self, hp2):
        p = hp2.params
        assert generator_degree(p, "A", 1, 0) == 3
        assert generator_degree(p, "B", 1, 1) == 18
        assert generator_degree(p, "A", 2, 1) == 17

    def test_parity(self, cp2, hp3):
        for cat in (cp2, hp3):
            for k in (1, 2, 3):
                for i in range(cat.params.n):
                    assert generator_degree(cat.params, "A", k, i) % 2 == 1
                    assert generator_degree(cat.params, "B", k, i) % 2 == 0

    def test_degree_compatibility_with_gamma(self, cp2, hp2):
        # deg B[k,i] - deg A[k,i] = lam + N, the gap between the two
        # families; both sit inside the level-k manifold's degree range
        for cat in (cp2, hp2):
            p = cat.params
            for k in (1, 2, 3):
                top = cat.gamma(k).ring.top_degree
                for i in range(p.n):
                    deg_a = generator_degree(p, "A", k, i)
                    deg_b = generator_degree(p, "B", k, i)
                    assert deg_b - deg_a == p.lam + p.N
                    assert deg_a <= top
                    assert deg_b <= top


class TestSignedGateValues:
    """Frozen hand-derived signs that calibrate the geometric route."""

    def test_cap_break_class_without_b(self, cp2):
        # cap(x2, [x1 x2 x3]) = -[x1 x3]
        ring = cp2.gamma(2).ring
        full = ring.monomial({"x1": 1, "x2": 1, "x3": 1})
        omit = ring.monomial({"x1": 1, "x3": 1})
        assert cap(ring.gen("x2"), dual(ring, full)) == dual(ring, omit, -1)

    def test_cap_break_class_with_b(self, cp2):
        # cap(x2, [a b x1 x2 x3]) = -[a b x1 x3]: moving x2 past x3 in
        # (a b x1 x3) x2 costs one odd transposition
        ring = cp2.gamma(2).ring
        full = ring.monomial({"a": 1, "b": 1, "x1": 1, "x2": 1, "x3": 1})
        omit = ring.monomial({"a": 1, "b": 1, "x1": 1, "x3": 1})
        assert cap(ring.gen("x2"), dual(ring, full)) == dual(ring, omit, -1)

    def test_pL_gysin_without_b(self, cp2):
        # pL_!([a^i]) = -[a^i x1 x2 x3] at level 2
        out = gysin(cp2.pullback_pL(2), cp2.sm, cp2.gamma(2), cp2.sm_dual(1))
        ring = cp2.gamma(2).ring
        expect = ring.monomial({"a": 1, "x1": 1, "x2": 1, "x3": 1})
        assert out == dual(ring, expect, -1)

    def test_pL_gysin_with_b(self, cp2):
        # pL_!([a^i b]) = +[a^i b x1 x2 x3] at level 2
        out = gysin(cp2.pullback_pL(2), cp2.sm, cp2.gamma(2), cp2.sm_dual(1, True))
        ring = cp2.gamma(2).ring
        expect = ring.monomial({"a": 1, "b": 1, "x1": 1, "x2": 1, "x3": 1})
        assert out == dual(ring, expect, 1)

    def test_pV_gysin_without_b(self, cp2):
        # pV_!([a^i]) = -[a^i x1 x3] at (k, m) = (2, 1)
        out = gysin(cp2.pullback_pV(2, 1), cp2.sm_pair, cp2.gamma(2), cp2.sm_pair_dual(1))
        ring = cp2.gamma(2).ring
        expect = ring.monomial({"a": 1, "x1": 1, "x3": 1})
        assert out == dual(ring, expect, -1)

    def test_pV_gysin_with_b(self, cp2):
        # pV_!([a^i b]) = -[a^i b x1 x3] at (k, m) = (2, 1)
        out = gysin(
            cp2.pullback_pV(2, 1), cp2.sm_pair, cp2.gamma(2), cp2.sm_pair_dual(1, True)
        )
        ring = cp2.gamma(2).ring
        expect = ring.monomial({"a": 1, "b": 1, "x1": 1, "x3": 1})
        assert out == dual(ring, expect, -1)

    def test_same_signs_on_hp3_level3(self, hp3):
        # the same shape holds at (k, m) = (3, 2) on a quaternionic space
        ring = hp3.gamma(3).ring
        out = gysin(hp3.pullback_pV(3, 2), hp3.sm_pair, hp3.gamma(3), hp3.sm_pair_dual(2))
        expect = ring.monomial({"a": 2, "x1": 1, "x2": 1, "x3": 1, "x5": 1})
        assert out == dual(ring, expect, -1)


class TestBundleDuality:
    """Duality and diagonal values over the bundle itself."""

    @pytest.mark.parametrize("name", ["cp2", "cp3", "hp2"])
    def test_pd_pairs_complementary_powers(self, name, request):
        # pd(a^(n-1-i) b) lands on the dual of a^i with coefficient +1
        cat = request.getfixturevalue(name)
        n = cat.params.n
        a, b = cat.sm.ring.gen("a"), cat.sm.ring.gen("b")
        for i in range(n):
            assert pd(cat.sm, a ** (n - 1 - i) * b) == cat.sm_dual(i)

    def test_pd_on_minimal_bundle(self, cp1):
        # n = 1 has no even generator left; b alone is complementary to 1
        assert pd(cp1.sm, cp1.sm.ring.gen("b")) == cp1.sm_dual(0)

    @pytest.mark.parametrize("name", ["cp3", "hp2"])
    def test_diagonal_splits_duals_without_b(self, name, request):
        cat = request.getfixturevalue(name)
        t = cat.sm_tensor
        for i in range(cat.params.n):
            want = cross(cat.sm_dual(0), cat.sm_dual(i), t)
            for j in range(1, i + 1):
                want = want + cross(cat.sm_dual(j), cat.sm_dual(i - j), t)
            assert diagonal_pushforward(cat.sm_dual(i), t) == want

    @pytest.mark.parametrize("name", ["cp3", "hp2"])
    def test_diagonal_splits_duals_with_b(self, name, request):
        # every split keeps coefficient +1: the lone odd factor never crosses
        # another odd one
        cat = request.getfixturevalue(name)
        t = cat.sm_tensor
        for i in range(cat.params.n):
            pieces = []
            for j in range(i + 1):
                pieces.append(
                    cross(cat.sm_dual(j), cat.sm_dual(i - j, True), t)
                )
                pieces.append(
                    cross(cat.sm_dual(j, True), cat.sm_dual(i - j), t)
                )
            want = pieces[0]
            for extra in pieces[1:]:
                want = want + extra
            assert diagonal_pushforward(cat.sm_dual(i, True), t) == want

    def test_diagonal_on_point_class(self, cp2):
        t = cp2.sm_tensor
        x = cp2.sm_dual(0)
        assert diagonal_pushforward(x, t) == cross(x, x, t)


class TestGysinTable:
    def test_table_covers_full_dual_basis(self, cp2):
        table = cp2.pv_gysin_table(2, 1)
        pair_monos = set(cp2.sm_pair.ring.monomials())
        assert {src for src, _ in table.values()} == pair_monos
        assert len(table) == len(pair_monos)

    def test_table_signs_are_units(self, cp2, hp2):
        for cat in (cp2, hp2):
            for sign in (s for _, s in cat.pv_gysin_table(3, 1).values()):
                assert sign in (1, -1)

    def test_table_matches_direct_gysin(self, cp3):
        table = cp3.pv_gysin_table(2, 1)
        pmap = cp3.pullback_pV(2, 1)
        for mono, (src, sign) in table.items():
            image = gysin(pmap, cp3.sm_pair, cp3.gamma(2), dual(cp3.sm_pair.ring, src))
            assert image == dual(cp3.gamma(2).ring, mono, sign)


class TestCatalogCache:
    def test_catalog_identity(self):
        p = SpaceParams.from_token("cp", 2)
        assert catalog_for(p) is catalog_for(SpaceParams.from_token("cp", 2))

    def test_rings_cached_inside_catalog(self, cp2):
        assert cp2.gamma(2) is cp2.gamma(2)
        assert cp2.pv_gysin_table(3, 1) is cp2.pv_gysin_table(3, 1)

    def test_fresh_catalog_equivalent(self):
        p = SpaceParams.from_token("hp", 2)
        fresh = SpaceCatalog(p)
        cached = catalog_for(p)
        assert fresh.sm.ring == cached.sm.ring
        assert fresh.gamma(2).ring == cached.gamma(2).ring
