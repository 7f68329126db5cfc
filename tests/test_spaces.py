"""Model spaces: presentations, dimensions, pullbacks, wrong-way values.

The six signed values pinned in TestSignedGateValues were derived by hand
from the pairing adjunction with the orientation that gives every top
monomial coefficient +1; the whole geometric route is calibrated by them.
"""

import sys

import pytest

from loopalg import (
    LoopClass,
    RingMap,
    RingMismatchError,
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
from loopalg import homology, loops, spaces
from loopalg.loops import cap_with_thom, gamma_class
from loopalg.ring import Ring
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
        # In every ring of the catalog: SM, SM x_M SM and each level.
        for cat in (cp1, hp1):
            names = [g.name for g in cat.sm.ring.generators]
            assert names == ["b"]
            assert sum(1 for _ in cat.sm.ring.monomials()) == 2
            assert cat.sm.dimension == 2 * cat.params.N - 1
            assert [g.name for g in cat.sm_pair.ring.generators] == ["b", "xi"]
            for k in (1, 2, 4):
                names = [g.name for g in cat.gamma(k).ring.generators]
                assert names == ["b", *(f"x{j}" for j in range(1, 2 * k))]

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

    @pytest.mark.parametrize("name", ["cp1", "cp2", "cp3", "hp1", "hp2", "hp3"])
    def test_pV_is_pL_images_plus_xi_to_x2m_and_pL_one_per_level(self, name, request):
        cat = request.getfixturevalue(name)
        pair = cat.sm_pair.ring
        for k in range(2, 7):
            gam = cat.gamma(k).ring
            assert cat.pullback_pL(k) is cat.pullback_pL(k)
            for m in range(1, k):
                images = {g.name: gam.gen(g.name) for g in cat.sm.ring.generators}
                scratch = RingMap(pair, gam, images | {"xi": gam.gen(f"x{2 * m}")})
                pv = cat.pullback_pV(k, m)
                assert (pv.source, pv.target) == (pair, gam)
                for u in pair.monomials():
                    elem = pair.element({u: 1})
                    assert pv(elem) == scratch(elem)

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

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("token", ["cp", "hp"])
    def test_fiber_classes_and_word_from_slot_bits_are_the_named_forms(self, token, n):
        # A level builds its fiber classes x_{2m} and its carrier word
        # x_1 .. x_{2k-1} from the level ring's slot shifts, with no name
        # looked up; they must be the class and the monomial built by name.
        cat = SpaceCatalog(SpaceParams.from_token(token, n))
        levels = [*range(1, 13), *([130] if (token, n) == ("hp", 3) else [])]
        for k in levels:
            _, _, fibers, word = cat._level(k)
            ring = cat.gamma(k).ring
            assert fibers == tuple(ring.gen(f"x{2 * m}") for m in range(1, k))
            assert word == ring.monomial({f"x{j}": 1 for j in range(1, 2 * k)})

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("token", ["cp", "hp"])
    def test_gamma_dual_is_the_carrier_named_generator_by_generator(self, token, n):
        # The carrier word x1 .. x{2k-1} is packed once per level and or-ed
        # into a^i (b); the dual must be the one built from the names.  On
        # hp3 at k = 130 the ring has 261 generators, wider than 256 bits.
        cat = SpaceCatalog(SpaceParams.from_token(token, n))
        levels = [*range(1, 13), *([130] if (token, n) == ("hp", 3) else [])]
        for k in levels:
            ring = cat.gamma(k).ring
            word = {f"x{j}": 1 for j in range(1, 2 * k)}
            for i in range(n):
                for with_b in (False, True):
                    names = word | ({"a": i} if i else {}) | ({"b": 1} if with_b else {})
                    got = cat.gamma_dual(k, i, with_b)
                    assert got.ring is ring
                    assert got == dual(ring, ring.monomial(names))
        if (token, n) == ("hp", 3):
            assert cat.gamma(130).ring.width > 256

    @pytest.mark.parametrize(
        ("k", "i", "error", "message"),
        [
            (2, 2, ValueError, "index out of range for n=2"),
            (2, -1, ValueError, "index out of range for n=2"),
            (2, True, TypeError, "index i must be an int, not True"),
            (0, 0, ValueError, "level k must be >= 1"),
            (2.0, 0, TypeError, "level k must be an int, not 2.0"),
        ],
    )
    def test_gamma_dual_refuses_a_bad_index_or_level(self, k, i, error, message):
        cat = SpaceCatalog(SpaceParams.from_token("cp", 2))
        with pytest.raises(error) as err:
            cat.gamma_dual(k, i)
        assert str(err.value) == message

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
        assert cap(ring.gen("x2"), dual(ring, full)) == -dual(ring, omit)

    def test_cap_break_class_with_b(self, cp2):
        # cap(x2, [a b x1 x2 x3]) = -[a b x1 x3]: moving x2 past x3 in
        # (a b x1 x3) x2 costs one odd transposition
        ring = cp2.gamma(2).ring
        full = ring.monomial({"a": 1, "b": 1, "x1": 1, "x2": 1, "x3": 1})
        omit = ring.monomial({"a": 1, "b": 1, "x1": 1, "x3": 1})
        assert cap(ring.gen("x2"), dual(ring, full)) == -dual(ring, omit)

    def test_pL_gysin_without_b(self, cp2):
        # pL_!([a^i]) = -[a^i x1 x2 x3] at level 2
        out = gysin(cp2.pullback_pL(2), cp2.sm, cp2.gamma(2), cp2.sm_dual(1))
        ring = cp2.gamma(2).ring
        expect = ring.monomial({"a": 1, "x1": 1, "x2": 1, "x3": 1})
        assert out == -dual(ring, expect)

    def test_pL_gysin_with_b(self, cp2):
        # pL_!([a^i b]) = +[a^i b x1 x2 x3] at level 2
        out = gysin(cp2.pullback_pL(2), cp2.sm, cp2.gamma(2), cp2.sm_dual(1, True))
        ring = cp2.gamma(2).ring
        expect = ring.monomial({"a": 1, "b": 1, "x1": 1, "x2": 1, "x3": 1})
        assert out == dual(ring, expect)

    def test_pV_gysin_without_b(self, cp2):
        # pV_!([a^i]) = -[a^i x1 x3] at (k, m) = (2, 1)
        out = gysin(cp2.pullback_pV(2, 1), cp2.sm_pair, cp2.gamma(2), cp2.sm_pair_dual(1))
        ring = cp2.gamma(2).ring
        expect = ring.monomial({"a": 1, "x1": 1, "x3": 1})
        assert out == -dual(ring, expect)

    def test_pV_gysin_with_b(self, cp2):
        # pV_!([a^i b]) = -[a^i b x1 x3] at (k, m) = (2, 1)
        out = gysin(
            cp2.pullback_pV(2, 1), cp2.sm_pair, cp2.gamma(2), cp2.sm_pair_dual(1, True)
        )
        ring = cp2.gamma(2).ring
        expect = ring.monomial({"a": 1, "b": 1, "x1": 1, "x3": 1})
        assert out == -dual(ring, expect)

    def test_same_signs_on_hp3_level3(self, hp3):
        # the same shape holds at (k, m) = (3, 2) on a quaternionic space
        ring = hp3.gamma(3).ring
        out = gysin(hp3.pullback_pV(3, 2), hp3.sm_pair, hp3.gamma(3), hp3.sm_pair_dual(2))
        expect = ring.monomial({"a": 2, "x1": 1, "x2": 1, "x3": 1, "x5": 1})
        assert out == -dual(ring, expect)


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
        for i in range(cat.params.n):
            want = cross(cat.sm_dual(0), cat.sm_dual(i))
            for j in range(1, i + 1):
                want = want + cross(cat.sm_dual(j), cat.sm_dual(i - j))
            assert diagonal_pushforward(cat.sm_dual(i)) == want

    @pytest.mark.parametrize("name", ["cp3", "hp2"])
    def test_diagonal_splits_duals_with_b(self, name, request):
        # every split keeps coefficient +1: the lone odd factor never crosses
        # another odd one
        cat = request.getfixturevalue(name)
        for i in range(cat.params.n):
            pieces = []
            for j in range(i + 1):
                pieces.append(
                    cross(cat.sm_dual(j), cat.sm_dual(i - j, True))
                )
                pieces.append(
                    cross(cat.sm_dual(j, True), cat.sm_dual(i - j))
                )
            want = pieces[0]
            for extra in pieces[1:]:
                want = want + extra
            assert diagonal_pushforward(cat.sm_dual(i, True)) == want

    def test_diagonal_on_point_class(self, cp2):
        x = cp2.sm_dual(0)
        assert diagonal_pushforward(x) == cross(x, x)


class TestGysinTable:
    def test_table_signs_are_units(self, cp2, hp2):
        for cat in (cp2, hp2):
            for sign in (s for _, s in cat.pv_gysin_table(3, 1).values()):
                assert sign in (1, -1)

    @pytest.mark.parametrize(
        ("name", "levels"),
        [
            ("cp1", range(2, 7)),
            ("cp2", (*range(2, 7), 32)),
            ("cp3", range(2, 7)),
            ("hp1", range(2, 7)),
            ("hp2", range(2, 7)),
            ("hp3", (*range(2, 7), 32)),
        ],
        ids=["cp1", "cp2", "cp3", "hp1", "hp2", "hp3"],
    )
    def test_table_matches_direct_gysin(self, name, levels, request):
        # Every break's table covers the full dual basis, and each entry is
        # the image through that break's own map, although a level's tables
        # share the images of the sources carrying xi and take the others by
        # a cap of pd(x_{2m}).  At level 32 the ring is wider than 64 bits,
        # so a packed monomial spans several machine words.
        cat = request.getfixturevalue(name)
        pair = cat.sm_pair
        sources = set(pair.ring.monomials())
        assert len(sources) == 4 * cat.params.n
        for k in levels:
            gam = cat.gamma(k)
            assert k <= 6 or gam.ring.width > 64
            for m in range(1, k):
                table = cat.pv_gysin_table(k, m)
                assert len(table) == len(sources)
                assert {src for src, _ in table.values()} == sources
                pmap = cat.pullback_pV(k, m)
                for mono, (src, sign) in table.items():
                    image = gysin(pmap, pair, gam, dual(pair.ring, src))
                    assert image == sign * dual(gam.ring, mono)

    @pytest.mark.parametrize(("token", "n", "k"), [("cp", 1, 5), ("cp", 3, 10), ("hp", 2, 7)])
    def test_a_cold_level_makes_2n_gysin_calls(self, monkeypatch, token, n, k):
        # 2n sources carry xi and are imaged by one gysin call per level.  The
        # other 2n take one pd_inverse per level.  A break takes no pd: its
        # x_{2m} is one bit, and pd(x_{2m}) is read off it.  The maps built
        # are the level's retraction pullback and break 1's pullback.  The
        # pipeline builds no table: the table entry builder's packed cap
        # (one div_monomials, and no merge_sign, as an image takes no sign
        # of its own) runs only when a table is asked for.
        calls = {"gysin": [], "pd_inverse": [], "pd": [], "RingMap": []}
        calls |= {"div_monomials": [], "merge_sign": []}

        def counted(name):
            real = getattr(spaces, name)

            def call(*args):
                calls[name].append(args)
                return real(*args)

            monkeypatch.setattr(spaces, name, call)

        def counted_pd():
            # Every pd a cold level takes outside its gysin calls: through
            # homology, or through spaces should it import pd again.
            real = homology.pd

            def call(*args):
                if sys._getframe(1).f_code is not homology.gysin.__code__:
                    calls["pd"].append(args)
                return real(*args)

            monkeypatch.setattr(homology, "pd", call)
            monkeypatch.setattr(spaces, "pd", call, raising=False)

        def packed(name):
            real = getattr(Ring, name)
            builder = SpaceCatalog._table.__code__

            def call(ring, *args):
                # Made by the table builder, directly or through one helper.
                if builder in (sys._getframe(1).f_code, sys._getframe(2).f_code):
                    calls[name].append(args)
                return real(ring, *args)

            monkeypatch.setattr(Ring, name, call)

        for name in ("gysin", "pd_inverse", "RingMap"):
            counted(name)
        counted_pd()
        packed("div_monomials")
        packed("merge_sign")
        params = SpaceParams.from_token(token, n)
        cat = SpaceCatalog(params)
        x = LoopClass.generator(params, "B", k, 0)
        want = {
            "gysin": 2 * n,
            "pd_inverse": 2 * n,
            "pd": 0,
            "RingMap": 2,
            "div_monomials": 0,
            "merge_sign": 0,
        }
        assert coproduct_pipeline(x, cat) == coproduct_closed(x)
        assert {name: len(c) for name, c in calls.items()} == want
        coproduct_pipeline(x, cat)
        assert {name: len(c) for name, c in calls.items()} == want
        for kk, m in [(k, 0), (k, -1), (k, k), (1, 1)]:
            with pytest.raises(ValueError) as err:
                cat.pv_gysin_table(kk, m)
            assert str(err.value) == f"break index m={m} outside 1 .. {kk - 1}"
        assert {name: len(c) for name, c in calls.items()} == want
        # A table asked for is built from the level's half, 2n packed
        # divisions, and keeps nothing: the catalog holds what it held.
        kept = (cat._halves.copy(), cat._levels.copy())
        assert len(cat.pv_gysin_table(k, k - 1)) == 4 * n
        assert (cat._halves, cat._levels) == kept
        want |= {"div_monomials": 2 * n}
        assert {name: len(c) for name, c in calls.items()} == want
        # The fiber classes are built with the level: the break pullbacks
        # and cap_with_thom read those same objects, and the half keeps
        # each one's monomial.
        capped = []
        real_cap = loops.cap
        monkeypatch.setattr(loops, "cap", lambda a, y: capped.append(a) or real_cap(a, y))
        cap_with_thom(cat, k, gamma_class(cat, "B", k, 0))
        breaks = cat._half(k)[2]
        for m in range(1, k):
            fiber = cat.fiber_class(k, m)
            assert fiber is cat.fiber_class(k, m)
            assert cat.pullback_pV(k, m).images["xi"] is fiber
            assert fiber.terms == {breaks[m - 1][0]: 1}
            assert capped[m - 1] is fiber
        assert len(capped) == k - 1

    def test_repeated_image_is_refused(self, monkeypatch):
        real = spaces.pd_inverse
        cat = SpaceCatalog(SpaceParams.from_token("cp", 2))
        unit, b = cat.sm_pair.ring.monomial(), cat.sm_pair.ring.monomial({"b": 1})

        def collide(space, x):
            """The real inverse dual, with [b] sent where [1] goes, so both share an image."""
            if b in x.terms:
                x = dual(x.ring, unit)
            return real(space, x)

        monkeypatch.setattr(spaces, "pd_inverse", collide)
        refused = "wrong-way images of [1] and [b] at level 3, break 1 are both [x1 x3 x4 x5]"
        # Asking for break 2 builds the whole level, so break 1 trips first.
        with pytest.raises(RuntimeError) as err:
            cat.pv_gysin_table(3, 2)
        assert str(err.value) == refused
        assert cat._halves.keys() == {1} and list(cat._levels) == [3]

    def test_a_source_carrying_xi_sharing_an_image_is_named_in_basis_order(self, monkeypatch):
        # The image of [xi], entered once per level, is sent where the image
        # of [1] goes at break 1; [1] comes first in the basis, so first in
        # the refusal, though its entry is made after that of [xi].
        real = spaces.gysin
        cat = SpaceCatalog(SpaceParams.from_token("cp", 2))
        xi = cat.sm_pair.ring.monomial({"xi": 1})
        shared = cat.gamma(3).ring.monomial({"x1": 1, "x3": 1, "x4": 1, "x5": 1})

        def collide(pullback, source, target, x):
            return dual(target.ring, shared) if xi in x.terms else real(pullback, source, target, x)

        monkeypatch.setattr(spaces, "gysin", collide)
        refused = "wrong-way images of [1] and [xi] at level 3, break 1 are both [x1 x3 x4 x5]"
        with pytest.raises(RuntimeError) as err:
            cat.pv_gysin_table(3, 2)
        assert str(err.value) == refused
        assert cat._halves.keys() == {1} and list(cat._levels) == [3]


class TestCatalogCache:
    def test_catalog_identity(self):
        p = SpaceParams.from_token("cp", 2)
        assert catalog_for(p) is catalog_for(SpaceParams.from_token("cp", 2))

    def test_rings_cached_inside_catalog(self, cp2):
        assert cp2.gamma(2) is cp2.gamma(2)
        assert cp2.pv_gysin_table(3, 1) == cp2.pv_gysin_table(3, 1)

    @pytest.mark.parametrize("first", ["gamma", "pullback_pL"])
    def test_a_level_and_its_retraction_are_built_together(self, first):
        cat = SpaceCatalog(SpaceParams.from_token("hp", 2))
        getattr(cat, first)(3)
        pull = cat.pullback_pL(3)
        assert pull is cat.pullback_pL(3)
        assert pull.source is cat.sm.ring and pull.target is cat.gamma(3).ring
        assert list(cat._levels) == [3]

    @pytest.mark.parametrize(
        ("cls_space", "cat_space", "i"),
        [(("cp", 2), ("hp", 2), 1), (("cp", 2), ("cp", 3), 1), (("cp", 3), ("cp", 2), 2)],
    )
    def test_pipeline_refuses_another_space_catalog(self, cls_space, cat_space, i):
        # B[3,2] of cp3 used to fail deep in the catalog, B[3,1] of cp2 to
        # be computed silently in the other space's model.
        x = LoopClass.generator(SpaceParams.from_token(*cls_space), "B", 3, i)
        cat = SpaceCatalog(SpaceParams.from_token(*cat_space))
        want = "coproduct_pipeline of a {}{} class with a {}{} catalog"
        with pytest.raises(RingMismatchError) as err:
            coproduct_pipeline(x, cat)
        assert str(err.value) == want.format(*cls_space, *cat_space)
        assert cat._levels == {} and cat._halves.keys() == {1}

    def test_pipeline_accepts_a_catalog_of_an_equal_space_built_apart(self):
        params = SpaceParams.from_token("cp", 2)
        x = LoopClass.generator(params, "B", 3, 1) - LoopClass.generator(params, "A", 2, 0)
        cat = SpaceCatalog(SpaceParams.from_token("cp", 2))
        assert cat.params is not params
        assert coproduct_pipeline(x, cat) == coproduct_closed(x)
        assert sorted(cat._levels) == [2, 3]

    def test_fresh_catalog_equivalent(self):
        p = SpaceParams.from_token("hp", 2)
        fresh = SpaceCatalog(p)
        cached = catalog_for(p)
        assert fresh.sm.ring == cached.sm.ring
        assert fresh.gamma(2).ring == cached.gamma(2).ring
