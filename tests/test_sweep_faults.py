"""Fault injection: a sweep must report a broken law, not only pass.

Each test patches one function a sweep calls by name with a wrong version
and pins how many of the sweep's checks then fail.  The counts follow from
the sweep's structure, so a rewrite that stops checking a fact, or checks it
against the broken function itself, changes them.
"""

from loopalg import loops, verify
from loopalg.loops import CohClass, verify_presentation
from loopalg.spaces import SpaceParams
from loopalg.verify import verify_gysin_values, verify_ring_axioms

CP1 = SpaceParams.from_token("cp", 1)
CP2 = SpaceParams.from_token("cp", 2)


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


def test_ring_sweep_catches_wrong_cap_sign(monkeypatch):
    monkeypatch.setattr(verify, "cap", _negated(verify.cap))
    rep = verify_ring_axioms(CP1, seed=0)
    # A negated cap breaks the cap module axiom (one cap against two) and the
    # pairing adjunction (one cap against none) wherever they are nonzero:
    # 276 + 93 exhaustive and 87 + 72 randomized failures.  The first twelve
    # kept are exhaustive ones.
    assert (rep.checks, rep.failed) == (18024, 528)
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
