"""Loop coproduct: closed formula, geometric pipeline, and their agreement."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopalg import (
    LoopClass,
    Report,
    PipelineMatchError,
    TensorLoopClass,
    cap,
    coproduct_closed,
    coproduct_pipeline,
    dual,
    verify_coassociativity,
    verify_pipeline,
)
from loopalg import loops, report
from loopalg.loops import cap_with_thom, gamma_class
from loopalg.spaces import SpaceParams


def A(params, k, i):
    return LoopClass.generator(params, "A", k, i)


def B(params, k, i):
    return LoopClass.generator(params, "B", k, i)


def tensor(params, *triples):
    terms = {}
    for left, right, c in triples:
        terms[(left, right)] = Fraction(c)
    return TensorLoopClass(params, terms)


class TestClosedFormula:
    def test_level_one_vanishes(self, cp2, hp3):
        for cat in (cp2, hp3):
            p = cat.params
            for i in range(p.n):
                assert coproduct_closed(A(p, 1, i)).is_zero()
                assert coproduct_closed(B(p, 1, i)).is_zero()

    def test_A20_single_split(self, cp2):
        p = cp2.params
        assert coproduct_closed(A(p, 2, 0)) == tensor(
            p, (("A", 1, 0), ("A", 1, 0), 1)
        )

    def test_A31_four_terms(self, cp2):
        p = cp2.params
        out = coproduct_closed(A(p, 3, 1))
        assert out == tensor(
            p,
            (("A", 1, 0), ("A", 2, 1), 1),
            (("A", 1, 1), ("A", 2, 0), 1),
            (("A", 2, 0), ("A", 1, 1), 1),
            (("A", 2, 1), ("A", 1, 0), 1),
        )
        assert len(out.terms) == 4

    def test_B20_two_terms(self, cp2):
        p = cp2.params
        assert coproduct_closed(B(p, 2, 0)) == tensor(
            p,
            (("A", 1, 0), ("B", 1, 0), 1),
            (("B", 1, 0), ("A", 1, 0), 1),
        )

    def test_B21_four_terms(self, cp2):
        p = cp2.params
        assert coproduct_closed(B(p, 2, 1)) == tensor(
            p,
            (("A", 1, 0), ("B", 1, 1), 1),
            (("A", 1, 1), ("B", 1, 0), 1),
            (("B", 1, 0), ("A", 1, 1), 1),
            (("B", 1, 1), ("A", 1, 0), 1),
        )

    def test_linearity(self, cp3):
        p = cp3.params
        x = 2 * A(p, 2, 1) - Fraction(1, 3) * B(p, 3, 0)
        assert (
            coproduct_closed(x)
            == 2 * coproduct_closed(A(p, 2, 1))
            - Fraction(1, 3) * coproduct_closed(B(p, 3, 0))
        )

    def test_degree_law(self, cp2, cp3, hp2):
        # deg(coproduct x) = deg x + 1 - N
        for cat in (cp2, cp3, hp2):
            p = cat.params
            for kind in "AB":
                for k in (2, 3, 4):
                    for i in range(p.n):
                        x = LoopClass.generator(p, kind, k, i)
                        out = coproduct_closed(x)
                        assert out.degree() == x.degree() + 1 - p.N

    def test_term_count_formula(self, cp3):
        # A[k,i] has (k-1)(i+1) splits, B[k,i] twice that
        p = cp3.params
        for k in (2, 3, 4, 5):
            for i in range(p.n):
                assert len(coproduct_closed(A(p, k, i)).terms) == (k - 1) * (i + 1)
                assert len(coproduct_closed(B(p, k, i)).terms) == 2 * (k - 1) * (i + 1)


class TestPipelineStages:
    def test_cap_with_thom_breaks(self, cp2):
        # One capped class per interior break m, capped by the fiber class x_{2m}.
        with pytest.raises(ValueError, match="level k"):
            cap_with_thom(cp2, 0, gamma_class(cp2, "A", 1, 0))
        assert cap_with_thom(cp2, 1, gamma_class(cp2, "A", 1, 0)) == []
        assert [str(cp2.fiber_class(4, m)) for m in (1, 2, 3)] == ["x2", "x4", "x6"]
        x = gamma_class(cp2, "B", 4, 1)  # of even degree, so no sign
        assert cap_with_thom(cp2, 4, x) == [(m, cap(cp2.fiber_class(4, m), x)) for m in (1, 2, 3)]

    def test_carrier_classes(self, cp2):
        ring = cp2.gamma(2).ring
        x_all = {"x1": 1, "x2": 1, "x3": 1}
        assert gamma_class(cp2, "A", 2, 1) == -dual(ring, ring.monomial({"a": 1, **x_all}))
        assert gamma_class(cp2, "B", 2, 0) == dual(ring, ring.monomial({"b": 1, **x_all}))

    def test_carrier_rejects_unknown_kind(self, cp2):
        with pytest.raises(ValueError, match="kind"):
            gamma_class(cp2, "C", 2, 0)

    def test_cap_with_thom_on_A_carrier(self, cp2):
        # (-1)^deg cap(x2, -[a x_all]) = -[a x1 x3] since deg A[2,1] is odd
        ring = cp2.gamma(2).ring
        [(m, z)] = cap_with_thom(cp2, 2, gamma_class(cp2, "A", 2, 1))
        assert m == 1
        assert z == -dual(ring, ring.monomial({"a": 1, "x1": 1, "x3": 1}))

    def test_cap_with_thom_on_B_carrier(self, cp2):
        # deg B[2,0] is even: +cap(x2, [b x_all]) = -[b x1 x3]
        ring = cp2.gamma(2).ring
        [(m, z)] = cap_with_thom(cp2, 2, gamma_class(cp2, "B", 2, 0))
        assert m == 1
        assert z == -dual(ring, ring.monomial({"b": 1, "x1": 1, "x3": 1}))

    def test_cap_with_thom_requires_homogeneous(self, cp2):
        ring = cp2.gamma(2).ring
        x = dual(ring, ring.monomial({"a": 1})) + dual(ring, ring.monomial({"b": 1}))
        with pytest.raises(ValueError, match="homogeneous"):
            cap_with_thom(cp2, 2, x)

    def test_unmatched_component_fails_loudly(self, cp2):
        # a class that is not a wrong-way image must not be silently dropped
        ring = cp2.gamma(2).ring
        stray = dual(ring, ring.monomial({"x2": 1}))
        with pytest.raises(PipelineMatchError, match="unmatched"):
            from loopalg.loops import _match_wrongway

            _match_wrongway(cp2, 2, 1, stray)


class TestRouteAgreement:
    def test_examples_agree(self, cp2):
        p = cp2.params
        for x in (A(p, 2, 0), A(p, 3, 1), B(p, 2, 1), A(p, 1, 0)):
            assert coproduct_pipeline(x, cp2) == coproduct_closed(x)

    def test_sweep_small_levels(self, cp1, cp2, hp2):
        for cat in (cp1, cp2, hp2):
            p = cat.params
            for kind, k, i in itertools.product("AB", (1, 2, 3), range(p.n)):
                x = LoopClass.generator(p, kind, k, i)
                assert coproduct_pipeline(x, cat) == coproduct_closed(x)

    @settings(max_examples=25, deadline=None)
    @given(
        kind=st.sampled_from("AB"),
        k=st.integers(min_value=1, max_value=4),
        i=st.integers(min_value=0, max_value=2),
        c=st.fractions(
            min_value=Fraction(-3), max_value=Fraction(3), max_denominator=4
        ).filter(bool),
    )
    def test_pipeline_is_linear_like_closed(self, cp3, kind, k, i, c):
        p = cp3.params
        x = c * LoopClass.generator(p, kind, k, i)
        assert coproduct_pipeline(x, cp3) == coproduct_closed(x)

    def test_high_level_agrees(self, cp2, hp2):
        for cat in (cp2, hp2):
            p = cat.params
            for kind, i in itertools.product("AB", range(p.n)):
                x = LoopClass.generator(p, kind, 120, i)
                assert coproduct_pipeline(x, cat) == coproduct_closed(x)

    def test_verify_pipeline_sweep(self, cp2, hp1):
        assert verify_pipeline(cp2.params, 4).passed
        assert verify_pipeline(hp1.params, 4).passed


class TestCoassociativity:
    def test_small_sweep(self, cp2, hp2):
        assert verify_coassociativity(cp2.params, 5).passed
        assert verify_coassociativity(hp2.params, 5).passed

    def test_hand_instance(self, cp2):
        # both refinements of the two-fold splitting of A[3,0]
        p = cp2.params
        x = A(p, 3, 0)
        once = coproduct_closed(x)
        left: dict = {}
        right: dict = {}
        for (lk, rk), c in once.terms.items():
            for (ll, lr), cc in coproduct_closed(
                LoopClass(p, {lk: 1})
            ).terms.items():
                key = (ll, lr, rk)
                left[key] = left.get(key, 0) + c * cc
            for (rl, rr), cc in coproduct_closed(
                LoopClass(p, {rk: 1})
            ).terms.items():
                key = (lk, rl, rr)
                right[key] = right.get(key, 0) + c * cc
        expect = {(("A", 1, 0), ("A", 1, 0), ("A", 1, 0)): Fraction(1)}
        assert {k: v for k, v in left.items() if v} == expect
        assert {k: v for k, v in right.items() if v} == expect


def _bump(d, key, c):
    d[key] = d.get(key, 0) + c


def _tuple_triple_closed(kind, k, i):
    out = {}
    for m1 in range(1, k - 1):
        for m2 in range(1, k - m1):
            m3 = k - m1 - m2
            for j1 in range(i + 1):
                for j2 in range(i - j1 + 1):
                    j3 = i - j1 - j2
                    if kind == "A":
                        _bump(out, (("A", m1, j1), ("A", m2, j2), ("A", m3, j3)), 1)
                    else:
                        _bump(out, (("B", m1, j1), ("A", m2, j2), ("A", m3, j3)), 1)
                        _bump(out, (("A", m1, j1), ("B", m2, j2), ("A", m3, j3)), 1)
                        _bump(out, (("A", m1, j1), ("A", m2, j2), ("B", m3, j3)), 1)
    return out


def _tuple_coassociativity(params, max_k):
    """Reference sweep: iterated coproducts keyed by tuples of ``(kind, k, i)``.

    Kept as a test oracle for verify_coassociativity, which counts the same
    triples over packed int codes.  It calls coproduct_closed through the
    module, so a patched version reaches both sweeps.
    """
    rep = Report("tuple coassociativity")
    keys = [(kind, k, i) for k in range(1, max_k + 1) for kind in "AB" for i in range(params.n)]
    split = {key: loops.coproduct_closed(LoopClass.generator(params, *key)).terms for key in keys}
    for key, vee in split.items():
        left, right = {}, {}
        for (u, v), c in vee.items():
            for (p, q), d in split[u].items():
                _bump(left, (p, q, v), c * d)
            for (p, q), d in split[v].items():
                _bump(right, (u, p, q), c * d)
        left = {t: c for t, c in left.items() if c}
        right = {t: c for t, c in right.items() if c}
        rep.note(left == right, "coassociativity fails at {}[{},{}]", *key)
        rep.note(left == _tuple_triple_closed(*key), "triple split mismatch at {}[{},{}]", *key)
    return rep


def _scaled(x, coproduct):
    return 2 * coproduct(x)


def _sign_at_level_one(x, coproduct):
    terms = coproduct(x).terms
    return TensorLoopClass(x.params, {key: -c if key[0][1] == 1 else c for key, c in terms.items()})


def _extra_term(x, coproduct):
    ((_, k, _),) = x.terms
    extra = {(("A", 1, 0), ("A", k - 1, 0)): 1} if k >= 2 else {}
    return coproduct(x) + TensorLoopClass(x.params, extra)


def _without_index_1(x, coproduct):
    terms = coproduct(x).terms
    return TensorLoopClass(
        x.params, {key: c for key, c in terms.items() if 1 not in (key[0][2], key[1][2])}
    )


class TestCoassociativityAgainstTupleReference:
    @pytest.mark.parametrize(
        "mutant", [None, _scaled, _sign_at_level_one, _extra_term, _without_index_1]
    )
    @pytest.mark.parametrize("token", ["cp", "hp"])
    def test_same_report(self, token, mutant, monkeypatch):
        monkeypatch.setattr(report, "KEEP_FAILURES", 10**6)
        if mutant is not None:
            coproduct = loops.coproduct_closed
            monkeypatch.setattr(loops, "coproduct_closed", lambda x: mutant(x, coproduct))
        for n in (1, 2, 3):
            params = SpaceParams.from_token(token, n)
            for max_k in (1, 2, 3, 7):
                packed = verify_coassociativity(params, max_k)
                tupled = _tuple_coassociativity(params, max_k)
                assert packed.checks == tupled.checks == 4 * n * max_k
                assert packed.failed == tupled.failed == len(tupled.failures)
                assert packed.failures == tupled.failures
                assert packed.passed or mutant is not None
        # Every mutant fails more checks at n = 3 and k <= 7 than a Report
        # keeps by default, so the failure lists compared above are longer.
        assert mutant is None or packed.failed > 12
