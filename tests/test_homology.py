"""Dual-basis homology: cap, Poincare duality, wrong-way maps, diagonal."""

import itertools
from fractions import Fraction

import pytest

from loopalg import (
    Generator,
    HomologyElement,
    OrientedSpace,
    Ring,
    RingMap,
    RingMismatchError,
    cap,
    cross,
    diagonal_pushforward,
    dual,
    gysin,
    pairing,
    pd,
    pd_inverse,
)


# Generators (name, degree, truncation) of the refusal tests.
_A, _U, _W = ("a", 2, 3), ("u", 1, 2), ("w", 3, 2)


@pytest.fixture(scope="module")
def space():
    ring = Ring([Generator("a", 2, 3), Generator("u", 1, 2), Generator("v", 3, 2)])
    return OrientedSpace(ring)


class TestPairingAndCap:
    def test_pairing_is_kronecker(self, space):
        ring = space.ring
        monos = list(ring.monomials())
        for ma in monos:
            for mb in monos:
                val = pairing(ring.element({ma: 1}), dual(ring, mb))
                assert val == (1 if ma == mb else 0)

    def test_pairing_scales(self, space):
        ring = space.ring
        am = ring.monomial({"a": 1})
        assert pairing(Fraction(2, 3) * ring.gen("a"), dual(ring, am)) == Fraction(2, 3)

    def test_cap_degree_drop(self, space):
        ring = space.ring
        a = ring.gen("a")
        x = dual(ring, ring.monomial({"a": 2, "u": 1}))
        out = cap(a, x)
        assert out.degree() == x.degree() - a.degree()

    def test_cap_outside_divisibility_is_zero(self, space):
        ring = space.ring
        assert cap(ring.gen("v"), dual(ring, ring.monomial({"a": 1}))).is_zero()

    def test_cap_unit(self, space):
        ring = space.ring
        x = dual(ring, ring.monomial({"a": 1, "v": 1}))
        assert cap(ring.one(), x) == x

    def test_cap_odd_sign(self, space):
        # <b, u cap [u v]> = <b u, [u v]> forces u cap [u v] = -[v]
        ring = space.ring
        out = cap(ring.gen("u"), dual(ring, ring.monomial({"u": 1, "v": 1})))
        assert out == -dual(ring, ring.monomial({"v": 1}))

    def test_cap_adjunction_exhaustive(self, space):
        ring = space.ring
        monos = list(ring.monomials())
        for ma, mb, mx in itertools.product(monos, repeat=3):
            a = ring.element({ma: 1})
            b = ring.element({mb: 1})
            x = dual(ring, mx)
            assert pairing(b, cap(a, x)) == pairing(b * a, x)

    def test_cap_module_axiom_exhaustive(self, space):
        # <c, b cap (a cap x)> = <(c b) a, x> = <c, (b a) cap x>
        ring = space.ring
        monos = list(ring.monomials())
        for ma, mb, mx in itertools.product(monos, repeat=3):
            a = ring.element({ma: 1})
            b = ring.element({mb: 1})
            x = dual(ring, mx)
            assert cap(b * a, x) == cap(b, cap(a, x))


class TestDual:
    def test_rejects_wrong_length(self, space):
        with pytest.raises(ValueError, match="wrong length"):
            dual(space.ring, (1, 0))
        with pytest.raises(ValueError, match="wrong length"):
            dual(space.ring, (1, 0, 0, 0))

    def test_rejects_exponent_out_of_range(self, space):
        with pytest.raises(ValueError, match="out of range"):
            dual(space.ring, (3, 0, 0))
        with pytest.raises(ValueError, match="out of range"):
            dual(space.ring, (0, -1, 0))

    def test_accepts_any_exponent_sequence(self, space):
        assert dual(space.ring, [2, 1, 1]) == dual(space.ring, space.ring.top_monomial)


class TestPoincareDuality:
    def test_fundamental_class(self, space):
        assert space.fundamental == dual(space.ring, space.ring.top_monomial)
        assert space.dimension == space.ring.top_degree

    def test_repr_names_dimension_and_ring(self, space):
        assert repr(space) == "OrientedSpace(dim=8, Ring(a:2^3, u:1^2, v:3^2))"

    def test_pd_of_one_is_fundamental(self, space):
        assert pd(space, space.ring.one()) == space.fundamental

    def test_pd_roundtrip_both_ways(self, space):
        ring = space.ring
        for m in ring.monomials():
            c = ring.element({m: 1})
            assert pd_inverse(space, pd(space, c)) == c
            x = dual(ring, m)
            assert pd(space, pd_inverse(space, x)) == x

    def test_pd_is_signed_permutation_of_basis(self, space):
        ring = space.ring
        for m in ring.monomials():
            image = pd(space, ring.element({m: 1}))
            ((mono, coeff),) = image.terms.items()
            assert coeff in (1, -1)
            assert ring.monomial_degree(mono) == space.dimension - ring.monomial_degree(m)

    def test_pd_sign_example(self, space):
        # u cap [a^2 u v] = -[a^2 v], so pd(u) picks up a sign
        ring = space.ring
        assert pd(space, ring.gen("u")) == -dual(ring, ring.monomial({"a": 2, "v": 1}))

    def test_pd_requires_homogeneous(self, space):
        ring = space.ring
        a, u = ring.monomial({"a": 1}), ring.monomial({"u": 1})
        refusals = [
            (pd, ring.element({a: 1, u: 1}), "Poincare duality input"),
            (pd_inverse, HomologyElement(ring, {a: 1, u: 1}), "inverse duality input"),
        ]
        for fn, mixed, what in refusals:
            with pytest.raises(ValueError) as err:
                fn(space, mixed)
            assert str(err.value) == f"{what} must be homogeneous"
            # A class of at most one term is homogeneous.
            fn(space, type(mixed)(ring, {}))
            fn(space, type(mixed)(ring, {u: 3}))


class TestRingMap:
    def test_images_must_cover_generators(self, space):
        ring = space.ring
        with pytest.raises(ValueError, match="image"):
            RingMap(ring, ring, {"a": ring.gen("a")})

    def test_degree_mismatch_rejected(self, space):
        ring = space.ring
        with pytest.raises(ValueError, match="degree"):
            RingMap(
                ring,
                ring,
                {"a": ring.gen("v"), "u": ring.gen("u"), "v": ring.gen("v")},
            )

    def test_repr_lists_each_image(self, space):
        ring = space.ring
        a, u, v = ring.gen("a"), ring.gen("u"), ring.gen("v")
        flip = RingMap(ring, ring, {"a": -a, "u": -u, "v": v})
        assert repr(flip) == "RingMap(a -> -a, u -> -u, v -> v)"

    def test_truncation_must_be_respected(self):
        src = Ring([Generator("a", 2, 2)])
        tgt = Ring([Generator("c", 2, 3)])
        with pytest.raises(ValueError, match="truncation"):
            RingMap(src, tgt, {"a": tgt.gen("c")})

    def test_identity_map(self, space):
        ring = space.ring
        ident = RingMap(ring, ring, {g.name: ring.gen(g.name) for g in ring.generators})
        for m in ring.monomials():
            assert ident(ring.element({m: 1})) == ring.element({m: 1})

    def test_map_is_multiplicative(self, space):
        ring = space.ring
        # send v to a*u, a nontrivial degree-preserving substitution
        f = RingMap(
            ring,
            ring,
            {"a": ring.gen("a"), "u": ring.gen("u"), "v": ring.gen("a") * ring.gen("u")},
        )
        monos = list(ring.monomials())
        for ma in monos:
            for mb in monos:
                x = ring.element({ma: 1})
                y = ring.element({mb: 1})
                assert f(x * y) == f(x) * f(y)

    def test_multi_term_element_with_unit(self, space):
        ring = space.ring
        a, u, v = ring.gen("a"), ring.gen("u"), ring.gen("v")
        images = {"a": a, "u": u, "v": a * u + v}
        f = RingMap(ring, ring, images)
        elem = ring.element(
            {
                ring.monomial(): Fraction(3, 2),
                ring.monomial({"a": 1, "u": 1}): -2,
                ring.monomial({"a": 2, "v": 1}): 5,
                ring.monomial({"a": 1, "u": 1, "v": 1}): Fraction(1, 3),
                ring.monomial({"u": 1, "v": 1}): 7,
            }
        )
        expect = ring.zero()
        for m, c in elem.terms.items():
            term = ring.one()
            for g, e in zip(ring.generators, ring.unpack(m)):
                for _ in range(e):
                    term = term * images[g.name]
            expect = expect + c * term
        assert f(elem) == expect
        assert f(Fraction(3, 2) * ring.one()) == Fraction(3, 2) * ring.one()
        assert f(ring.zero()).is_zero()

    # Each case: the source's generators, the images beside a -> a and
    # u -> u by target generator name (None: a class over another ring),
    # and the refusal.
    @pytest.mark.parametrize(
        ("gens", "images", "error", "message"),
        [
            ([_A, _U, _W], {}, ValueError, "images must cover exactly ['a', 'u', 'w']"),
            ([_A, _U, _W], {"w": "v", "z": "u"}, ValueError, "images must cover exactly ['a', 'u', 'w']"),
            ([_A, _U, _W], {"w": None}, RingMismatchError, "image of 'w' lives over the wrong ring"),
            ([_A, _U, _W], {"w": "u"}, ValueError, "image of 'w' is not of degree 3"),
            ([_A, _U, ("c", 2, 2)], {"c": "a"}, ValueError, "image of 'c' violates its truncation"),
            ([_A, _W], {"w": "v"}, ValueError, "images must cover exactly ['a', 'w']"),
            ([("a", 4, 2), _U, _W], {"w": "v"}, ValueError, "image of 'a' is not of degree 4"),
        ],
        ids=[
            "missing",
            "extra",
            "wrong-ring",
            "wrong-degree",
            "truncation",
            "source-lacks-u",
            "source-changes-a",
        ],
    )
    def test_constructor_refuses_in_its_words(self, space, gens, images, error, message):
        ring = space.ring
        source = Ring([Generator(*g) for g in gens])
        other = Ring([Generator("w", 3, 2)]).gen("w")
        images = {"a": "a", "u": "u"} | images
        images = {k: other if v is None else ring.gen(v) for k, v in images.items()}
        with pytest.raises(error) as err:
            RingMap(source, ring, images)
        assert type(err.value) is error and str(err.value) == message


class TestGysin:
    # the wrong-way map of f: X -> Y runs against homology pushforward:
    # gysin(f^*, Y, X, -) : H(Y) -> H(X), shifting degree by dim X - dim Y

    def test_gysin_degree_shift(self):
        small = Ring([Generator("a", 2, 3)])
        big = Ring([Generator("a", 2, 4)])
        pull = RingMap(big, small, {"a": small.gen("a")})
        x_space, y_space = OrientedSpace(small), OrientedSpace(big)
        shift = x_space.dimension - y_space.dimension
        for m in big.monomials():
            y = dual(big, m)
            out = gysin(pull, y_space, x_space, y)
            if not out.is_zero():
                assert out.degree() == y.degree() + shift

    def test_gysin_sends_fundamental_to_fundamental(self):
        small = Ring([Generator("a", 2, 3)])
        big = Ring([Generator("a", 2, 4)])
        pull = RingMap(big, small, {"a": small.gen("a")})
        x_space, y_space = OrientedSpace(small), OrientedSpace(big)
        assert gysin(pull, y_space, x_space, y_space.fundamental) == x_space.fundamental
        # the class below the bottom of the image dies
        assert gysin(pull, y_space, x_space, dual(big, big.monomial())).is_zero()

    def test_gysin_projection_formula(self):
        small = Ring([Generator("a", 2, 3), Generator("u", 1, 2)])
        big = Ring([Generator("a", 2, 4), Generator("u", 1, 2)])
        pull = RingMap(big, small, {"a": small.gen("a"), "u": small.gen("u")})
        x_space, y_space = OrientedSpace(small), OrientedSpace(big)
        # f_!(c cap y) = f^*(c) cap f_!(y)
        for mc in big.monomials():
            c = big.element({mc: 1})
            for my in big.monomials():
                y = dual(big, my)
                lhs = gysin(pull, y_space, x_space, cap(c, y))
                rhs = cap(pull(c), gysin(pull, y_space, x_space, y))
                assert lhs == rhs


class TestDiagonal:
    def test_dual_to_cup_exhaustive(self, space):
        ring = space.ring
        monos = list(ring.monomials())
        for mx in monos:
            dx = diagonal_pushforward(dual(ring, mx))
            for ma in monos:
                for mb in monos:
                    a = ring.element({ma: 1})
                    b = ring.element({mb: 1})
                    lhs = pairing(cross(a, b), dx)
                    rhs = pairing(a * b, dual(ring, mx))
                    assert lhs == rhs

    def test_split_formula_even_times_odd(self, space):
        ring = space.ring
        x = dual(ring, ring.monomial({"a": 1, "u": 1}))
        out = diagonal_pushforward(x)
        expect = (
            cross(dual(ring, ring.monomial()), x)
            + cross(x, dual(ring, ring.monomial()))
            + cross(
                dual(ring, ring.monomial({"a": 1})), dual(ring, ring.monomial({"u": 1}))
            )
            + cross(
                dual(ring, ring.monomial({"u": 1})), dual(ring, ring.monomial({"a": 1}))
            )
        )
        assert out == expect

    def test_split_sign_on_two_odds(self, space):
        # <v x u, d[u v]> = <v u, [u v]> = -1 while <u x v, d[u v]> = +1
        ring = space.ring
        out = diagonal_pushforward(dual(ring, ring.monomial({"u": 1, "v": 1})))
        u = dual(ring, ring.monomial({"u": 1}))
        v = dual(ring, ring.monomial({"v": 1}))
        one = dual(ring, ring.monomial())
        uv = dual(ring, ring.monomial({"u": 1, "v": 1}))
        expect = (
            cross(one, uv)
            + cross(uv, one)
            + cross(u, v)
            - cross(v, u)
        )
        assert out == expect

    def test_pushforward_prints_each_tensor_factor(self):
        # TensorRing.monomial_str writes the two factors' monomials around "x".
        ring = Ring([Generator("a", 2, 3), Generator("b", 3, 2)])
        out = diagonal_pushforward(dual(ring, (1, 1)))
        assert str(out) == "[1 x a b] + [b x a] + [a x b] + [a b x 1]"

    def test_homology_cross_pairs_against_cross_unsigned(self, space):
        ring = space.ring
        monos = list(ring.monomials())
        for ma, mb in itertools.product(monos, repeat=2):
            xy = cross(dual(ring, ma), dual(ring, mb))
            for mc, md in itertools.product(monos, repeat=2):
                ab = cross(ring.element({mc: 1}), ring.element({md: 1}))
                expect = Fraction(1 if (mc, md) == (ma, mb) else 0)
                assert pairing(ab, xy) == expect
