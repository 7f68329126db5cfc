"""Fault injection: a sweep must report a broken law, not only pass.

Each test patches one function a sweep calls by name with a wrong version
and pins how many of the sweep's checks then fail.  The counts follow from
the sweep's structure, so a rewrite that stops checking a fact, or checks it
against the broken function itself, changes them.
"""

import pytest

from loopalg import loops, verify
from loopalg.loops import (
    CohClass,
    TensorLoopClass,
    verify_coassociativity,
    verify_duality,
    verify_pipeline,
    verify_presentation,
)
from loopalg.spaces import SpaceParams
from loopalg.verify import verify_gysin_values, verify_ring_axioms

CP1 = SpaceParams.from_token("cp", 1)
CP2 = SpaceParams.from_token("cp", 2)
CP3 = SpaceParams.from_token("cp", 3)


def _negated(fn):
    return lambda *args: -fn(*args)


def test_gysin_sweep_catches_wrong_cap_sign(monkeypatch):
    monkeypatch.setattr(verify, "cap", _negated(verify.cap))
    rep = verify_gysin_values(CP2, 3)
    # One cap check per (k, i, carrier, m): 2 * 2 * (1 + 2) = 12.
    assert (rep.checks, rep.failed) == (36, 12)
    assert all(f.startswith("cap(x") for f in rep.failures)


def test_gysin_sweep_catches_wrong_gysin_sign(monkeypatch):
    monkeypatch.setattr(verify, "gysin", _negated(verify.gysin))
    rep = verify_gysin_values(CP2, 3)
    # 12 retraction checks plus 12 figure-eight checks.
    assert (rep.checks, rep.failed) == (36, 24)
    assert not any(f.startswith("cap(x") for f in rep.failures)


def test_presentation_sweep_catches_lost_beta_classes(monkeypatch):
    normalize = loops.presentation_normalize

    def broken(p, params):
        if p.beta_count > 0:
            return CohClass.zero(params)
        return normalize(p, params)

    monkeypatch.setattr(loops, "presentation_normalize", broken)
    rep = verify_presentation(CP2, 4)
    # alpha_1 beta_0 -> m[2,1], and the eight witnesses w^(k-1) beta_i -> m[k,i].
    assert (rep.checks, rep.failed) == (387, 9)
    assert all(" misses m[" in f for f in rep.failures)


def test_ring_sweep_catches_wrong_cross_sign(monkeypatch):
    monkeypatch.setattr(verify, "cross", _negated(verify.cross))
    rep = verify_ring_axioms(CP1, seed=0)
    # Only the diagonal adjunction builds a cross product; it fails wherever
    # the pairing is nonzero.
    assert (rep.checks, rep.failed) == (18024, 93)
    assert all(f.startswith("diagonal adjunction fails at ") for f in rep.failures)


@pytest.mark.parametrize(
    ("params", "seed", "counts"), [(CP1, 0, (18024, 528)), (CP2, 7, (135625, 1480))]
)
def test_ring_sweep_catches_wrong_cap_sign(monkeypatch, params, seed, counts):
    monkeypatch.setattr(verify, "cap", _negated(verify.cap))
    rep = verify_ring_axioms(params, seed=seed)
    # A negated cap breaks the cap module axiom (one cap against two) and the
    # pairing adjunction (one cap against none) wherever they are nonzero; on
    # CP1 that is 276 + 93 exhaustive and 87 + 72 randomized failures.  The
    # randomized count pins which elements each seed draws.  The first twelve
    # kept are exhaustive ones.
    assert (rep.checks, rep.failed) == counts
    assert all(
        f.startswith(("cap module axiom fails at ", "pairing adjunction fails at "))
        for f in rep.failures
    )


def test_ring_sweep_catches_wrong_pd_inverse(monkeypatch):
    monkeypatch.setattr(verify, "pd_inverse", _negated(verify.pd_inverse))
    rep = verify_ring_axioms(CP1, seed=0)
    # One pd_inverse . pd check per basis monomial: 2 + 4 + 16.
    assert (rep.checks, rep.failed) == (18024, 22)
    assert all(f.startswith("pd_inverse . pd != id at ") for f in rep.failures)


def test_duality_sweep_catches_wrong_product(monkeypatch):
    product = loops.gh_product

    def doubled(a, b):
        out = product(a, b)
        return 2 * out if any(kind == "m" for kind, _, _ in a.terms) else out

    monkeypatch.setattr(loops, "gh_product", doubled)
    rep = verify_duality(CP3, 6)
    # One failure per nonzero m*s product: m[l,i] * s[l',j] with l + l' <= 6
    # and i + j <= 2 is 15 level pairs times 6 index pairs.
    assert (rep.checks, rep.failed) == (19440, 90)
    assert all(f.startswith("<('m', ") and ": 2 != 1" in f for f in rep.failures)


def test_duality_sweep_catches_wrong_coproduct_sign(monkeypatch):
    coproduct = loops.coproduct_closed

    def negated_at_level_one(x):
        terms = coproduct(x).terms
        return TensorLoopClass(
            x.params, {key: -c if key[0][1] == 1 else c for key, c in terms.items()}
        )

    monkeypatch.setattr(loops, "coproduct_closed", negated_at_level_one)
    rep = verify_duality(CP3, 6)
    # One failure per nonzero product with a level-1 left factor.
    assert (rep.checks, rep.failed) == (19440, 90)
    assert all(f.endswith(": 1 != -1") for f in rep.failures)


def test_duality_sweep_catches_extra_coproduct_term(monkeypatch):
    coproduct = loops.coproduct_closed

    def with_extra_term(x):
        ((_, k, _),) = x.terms
        extra = {(("A", 1, 0), ("A", k - 1, 0)): 1} if k >= 2 else {}
        return coproduct(x) + TensorLoopClass(x.params, extra)

    monkeypatch.setattr(loops, "coproduct_closed", with_extra_term)
    rep = verify_duality(CP3, 6)
    # One failure per generator of level 2 .. 6: 5 levels * 2 kinds * 3 indices.
    assert (rep.checks, rep.failed) == (19440, 30)
    assert all(f.startswith("<('s', 1, 0)*('s', ") for f in rep.failures)


def test_coassociativity_sweep_cannot_see_a_uniform_scale(monkeypatch):
    coproduct = loops.coproduct_closed
    monkeypatch.setattr(loops, "coproduct_closed", lambda x: 2 * coproduct(x))
    rep = verify_coassociativity(CP3, 6)
    # Both iterated coproducts scale by 4 and still agree; only the direct
    # triple split, nonzero from level 3 on, sees it: 4 levels * 2 kinds * 3.
    assert (rep.checks, rep.failed) == (72, 24)
    assert all(f.startswith("triple split mismatch at ") for f in rep.failures)


def test_coassociativity_sweep_catches_wrong_coproduct_sign(monkeypatch):
    coproduct = loops.coproduct_closed

    def negated_at_level_one(x):
        terms = coproduct(x).terms
        return TensorLoopClass(
            x.params, {key: -c if key[0][1] == 1 else c for key, c in terms.items()}
        )

    monkeypatch.setattr(loops, "coproduct_closed", negated_at_level_one)
    rep = verify_coassociativity(CP3, 6)
    # Every generator of level 3 or more fails both of its checks: 24 * 2.
    assert (rep.checks, rep.failed) == (72, 48)
    assert {f.split(" at ")[0] for f in rep.failures} == {
        "coassociativity fails",
        "triple split mismatch",
    }


def test_coassociativity_sweep_catches_wrong_triple_split(monkeypatch):
    triple = loops._triple_closed

    def without_middle_b(params, kind, k, i):
        return {t: c for t, c in triple(params, kind, k, i).items() if t[1][0] != "B"}

    monkeypatch.setattr(loops, "_triple_closed", without_middle_b)
    rep = verify_coassociativity(CP3, 6)
    # Only B classes of level 3 or more have a B middle factor: 4 levels * 3.
    assert (rep.checks, rep.failed) == (72, 12)
    assert all(f.startswith("triple split mismatch at ('B', ") for f in rep.failures)


def test_pipeline_sweep_catches_wrong_pushforward_sign(monkeypatch):
    monkeypatch.setattr(
        loops, "diagonal_pushforward", _negated(loops.diagonal_pushforward)
    )
    rep = verify_pipeline(CP3, 6)
    # Level-1 generators have no break index and stay zero: 36 - 6 fail.
    assert (rep.checks, rep.failed) == (36, 30)
    assert all(": pipeline gives -A[" in f for f in rep.failures)


def test_sweeps_build_one_coproduct_per_generator(monkeypatch):
    coproduct = loops.coproduct_closed
    built = []

    def counted(x):
        built.append(tuple(x.terms))
        return coproduct(x)

    monkeypatch.setattr(loops, "coproduct_closed", counted)
    # CP3 up to level 6 has 6 levels * 2 kinds * 3 indices = 36 generators.
    verify_coassociativity(CP3, 6)
    assert len(built) == len(set(built)) == 36
    built.clear()
    verify_duality(CP3, 6)
    assert len(built) == len(set(built)) == 36
