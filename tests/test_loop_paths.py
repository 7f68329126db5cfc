"""The loop-class results against term-by-term references.

``coproduct_closed`` stores each term once, since no key repeats, and
builds its result without re-cleaning.  ``gh_product`` runs one loop: a new
key's piece is stored in canonical form, and the result is built as it
stands when no key repeats, or cleaned once when one does.  The sums that
can cancel (the pipeline, a dual product with a repeated key and
``gh_product_pairs``) start at their first piece and are cleaned once.
These tests check each result against a reference that sums from 0 and
cleans every coefficient, with coefficient types compared as well as values.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopalg import (
    CohClass,
    LoopClass,
    RingMismatchError,
    SpaceParams,
    TensorCohClass,
    coproduct_closed,
    coproduct_pipeline,
    gh_product,
    gh_product_pairs,
    presentation_normalize,
)
from loopalg.loops import _match_wrongway, _pres_monomials, cap_with_thom, gamma_class
from loopalg.ring import as_coeff
from loopalg.spaces import SpaceCatalog

HALF, THIRD = Fraction(1, 2), Fraction(1, 3)
CP2 = SpaceParams.from_token("cp", 2)
CP3 = SpaceParams.from_token("cp", 3)
LOOP = LoopClass.generator(CP2, "A", 1, 0)
SIGMA = CohClass.generator(CP2, "s", 1, 0)


def _typed(terms: dict) -> dict:
    """``terms`` with each coefficient's type, so ``1`` and ``Fraction(1)`` differ."""
    return {key: (type(c), c) for key, c in terms.items()}


def _canonical(terms: dict) -> bool:
    """Every coefficient nonzero, and an ``int`` or a ``Fraction`` with denominator > 1."""
    return all(
        type(c) is int and c or type(c) is Fraction and c.denominator > 1 for c in terms.values()
    )


def _cleaned(out: dict) -> dict:
    return {key: as_coeff(c) for key, c in out.items() if c}


def _bump(d: dict, key, c) -> None:
    d[key] = d.get(key, 0) + c


def _summed_coproduct_closed(x: LoopClass) -> dict:
    """The closed formula as a sum from 0, every coefficient cleaned after."""
    out: dict = {}
    for (kind, k, i), c in x.terms.items():
        for m in range(1, k):
            for j in range(i + 1):
                if kind == "A":
                    _bump(out, (("A", m, j), ("A", k - m, i - j)), c)
                else:
                    _bump(out, (("A", m, j), ("B", k - m, i - j)), c)
                    _bump(out, (("B", m, j), ("A", k - m, i - j)), c)
    return _cleaned(out)


# -- the closed coproduct -----------------------------------------------

COEFFS = st.one_of(
    st.integers(-9, 9).filter(bool),
    st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 6)),
)


@st.composite
def loop_classes(draw):
    params = SpaceParams.from_token(draw(st.sampled_from(["cp", "hp"])), draw(st.integers(1, 3)))
    keys = st.tuples(st.sampled_from("AB"), st.integers(1, 8), st.integers(0, params.n - 1))
    return LoopClass(params, draw(st.dictionaries(keys, COEFFS, min_size=2, max_size=6)))


@settings(max_examples=150, deadline=2000, database=None)
@given(loop_classes())
def test_closed_coproduct_equals_the_summed_formula(x):
    got = coproduct_closed(x).terms
    assert _typed(got) == _typed(_summed_coproduct_closed(x))
    # No key repeats: each input term gives (k - 1)(i + 1) keys, twice that for B.
    assert len(got) == sum(
        (k - 1) * (i + 1) * (2 if kind == "B" else 1) for kind, k, i in x.terms
    )


# -- the dual product --------------------------------------------------

GH_COEFF_PAIRS = [(1, 1), (-2, 3), (HALF, THIRD), (Fraction(2, 3), Fraction(3, 2))]


def _ref_gh_key(n, ka, kb):
    """s*s -> s, s*m and m*s -> m, m*m = 0; levels and indices add, above n - 1 is 0."""
    (kind_a, la, ia), (kind_b, lb, ib) = ka, kb
    if kind_a == kind_b == "m" or ia + ib > n - 1:
        return None
    return ("m" if "m" in (kind_a, kind_b) else "s", la + lb, ia + ib)


@pytest.mark.parametrize("token", ["cp", "hp"])
@pytest.mark.parametrize("ca, cb", GH_COEFF_PAIRS, ids=lambda c: str(c))
def test_one_term_dual_product_follows_its_rules(token, ca, cb):
    params = SpaceParams.from_token(token, 3)
    gens = [
        (kind, k, i) for kind, k, i in itertools.product("sm", range(1, 5), range(params.n))
    ]
    want_c = as_coeff(Fraction(ca) * cb)
    outcomes = set()
    for ka, kb in itertools.product(gens, repeat=2):
        got = gh_product(CohClass(params, {ka: ca}), CohClass(params, {kb: cb})).terms
        key = _ref_gh_key(params.n, ka, kb)
        if key is None:
            assert got == {}
            outcomes.add("m*m" if ka[0] == kb[0] == "m" else "overflow")
        else:
            assert _typed(got) == {key: (type(want_c), want_c)}
            outcomes.add(key[0])
    assert outcomes == {"s", "m", "m*m", "overflow"}
    if (ca, cb) == GH_COEFF_PAIRS[-1]:
        assert type(want_c) is int and want_c == 1


def test_dual_product_that_cancels_is_empty():
    m10, s21 = ("m", 1, 0), ("s", 2, 1)
    # m*s21 and s21*m give m[3,1] with opposite signs; m*m and s21*s21 vanish.
    a = CohClass(CP2, {m10: 1, s21: 1})
    b = CohClass(CP2, {s21: 1, m10: -1})
    assert gh_product(a, b).terms == {}
    # Halves that add up to the int 1.
    a = CohClass(CP2, {m10: HALF, s21: HALF})
    b = CohClass(CP2, {s21: 1, m10: 1})
    assert _typed(gh_product(a, b).terms) == {("m", 3, 1): (int, 1)}


def test_dual_product_with_no_repeated_key_is_canonical():
    # (1/2 s[1,0] + 1/3 s[1,1]) * 2 s[1,0]: two keys, each met once, and the
    # piece 1/2 x 2 is stored as the int 1.
    s10, s11 = ("s", 1, 0), ("s", 1, 1)
    a = CohClass(CP3, {s10: HALF, s11: THIRD})
    got = gh_product(a, CohClass(CP3, {s10: 2})).terms
    assert _typed(got) == {("s", 2, 0): (int, 1), ("s", 2, 1): (Fraction, Fraction(2, 3))}


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: gh_product(LOOP, LOOP),
            TypeError,
            "gh_product of LoopClass and LoopClass",
        ),
        (lambda: gh_product(SIGMA, 2), TypeError, "gh_product of CohClass and int"),
        (
            lambda: gh_product(TensorCohClass(CP2, {(("s", 1, 0), ("s", 1, 1)): 1}), SIGMA),
            TypeError,
            "gh_product of TensorCohClass and CohClass",
        ),
        (
            lambda: gh_product(SIGMA, CohClass.generator(CP3, "s", 1, 0)),
            RingMismatchError,
            "operands are classes over different spaces",
        ),
    ],
    ids=["loop", "int", "tensor", "other-space"],
)
def test_one_term_operands_get_the_refusal_messages(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


# -- canonical coefficients in every result -----------------------------


def _summed_pipeline(x: LoopClass, cat: SpaceCatalog) -> dict:
    """The pipeline's sum from 0, uncleaned, over the spreads ``cat`` holds."""
    out: dict = {}
    for (kind, k, i), c in x.terms.items():
        for m, z in cap_with_thom(cat, k, gamma_class(cat, kind, k, i)):
            for mono, cu in _match_wrongway(cat, k, m, z).items():
                for (kind_l, il), (kind_r, ir), dc in cat._spreads[mono]:
                    _bump(out, ((kind_l, m, il), (kind_r, k - m, ir)), Fraction(c) * cu * dc)
    return out


@pytest.mark.parametrize("token", ["cp", "hp"])
@pytest.mark.parametrize("n", [1, 3])
def test_coproducts_of_a_rational_class_are_canonical(token, n):
    # A[7,2] - 3/2*B[6,1] + 2/3*A[5,0] at n = 3, its indices cut to 0 at n = 1.
    params = SpaceParams.from_token(token, n)
    top = n - 1
    x = LoopClass(
        params, {("A", 7, top): 1, ("B", 6, min(1, top)): -3 * HALF, ("A", 5, 0): Fraction(2, 3)}
    )
    closed = coproduct_closed(x)
    assert _canonical(closed.terms) and len(closed.terms) > 3
    assert coproduct_pipeline(x) == closed
    assert _canonical(coproduct_pipeline(x).terms)


def test_pipeline_sums_that_cancel_or_turn_integral_are_cleaned():
    # Each SM monomial's diagonal spread is replaced by pieces that cancel
    # (A x A) or add two halves up to an int (A x B), on a catalog of its own.
    params = SpaceParams.from_token("cp", 2)
    cat = SpaceCatalog(params)
    for mono in cat.sm.ring.monomials():
        cat._spreads[mono] = [
            (("A", 0), ("A", 1), 1),
            (("A", 0), ("A", 1), -1),
            (("A", 1), ("B", 0), 1),
            (("A", 1), ("B", 0), 1),
        ]
    x = LoopClass(params, {("A", 4, 1): HALF, ("B", 3, 0): 1})
    summed = _summed_pipeline(x, cat)
    assert 0 in summed.values()
    assert any(type(c) is Fraction and c.denominator == 1 and c for c in summed.values())
    got = coproduct_pipeline(x, cat).terms
    assert _typed(got) == _typed(_cleaned(summed))
    assert _canonical(got)


def test_dual_products_are_canonical():
    results = []
    for token in ("cp", "hp"):
        params = SpaceParams.from_token(token, 3)
        gens = list(itertools.product("sm", (1, 2), range(params.n)))
        for ka, kb in itertools.product(gens, repeat=2):
            for ca, cb in GH_COEFF_PAIRS:
                a = CohClass(params, {ka: ca, ("s", 1, 0): cb})
                b = CohClass(params, {kb: cb})
                results += [gh_product(a, b), gh_product(b, a)]
                t = TensorCohClass(params, {(ka, kb): ca, (kb, ka): cb})
                results.append(gh_product_pairs(t))
    assert any(r.terms for r in results)
    assert all(_canonical(r.terms) for r in results)


def test_dual_product_pairs_that_cancel_or_turn_integral_are_cleaned():
    s10, s21 = ("s", 1, 0), ("s", 2, 1)
    assert gh_product_pairs(TensorCohClass(CP2, {(s10, s21): 1, (s21, s10): -1})).terms == {}
    t = TensorCohClass(CP2, {(s10, s21): HALF, (s21, s10): HALF})
    assert _typed(gh_product_pairs(t).terms) == {("s", 3, 1): (int, 1)}


@pytest.mark.parametrize("token", ["cp", "hp"])
def test_normal_forms_are_canonical(token):
    params = SpaceParams.from_token(token, 3)
    forms = [
        presentation_normalize(p, params) for f in range(1, 5) for p in _pres_monomials(params, f)
    ]
    assert any(form.terms for form in forms)
    assert all(_typed(form.terms) == {key: (int, 1) for key in form.terms} for form in forms)
