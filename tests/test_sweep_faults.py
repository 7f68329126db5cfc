"""Fault injection: a sweep must report a broken law, not only pass.

Each test patches one function a sweep calls by name with a wrong version
and pins how many of the sweep's checks then fail.  The counts follow from
the sweep's structure, so a rewrite that stops checking a fact, or checks it
against the broken function itself, changes them.
"""

import operator
from collections import Counter

import pytest

from loopalg import loops, report, ring, verify
from loopalg.loops import (
    CohClass,
    LoopClass,
    PresMonomial,
    TensorLoopClass,
    coproduct_pipeline,
    verify_coassociativity,
    verify_duality,
    verify_pipeline,
    verify_presentation,
)
from loopalg.homology import HomologyElement, diagonal_pushforward, dual
from loopalg.ring import RingElement, TensorRing, cross
from loopalg.spaces import SpaceCatalog, SpaceParams
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


def test_gysin_sweep_catches_a_misnamed_carrier(monkeypatch):
    named = SpaceCatalog.gamma_dual

    def without_x1(self, k, i, with_b=False):
        x = named(self, k, i, with_b)
        pos = x.ring.index["x1"]
        terms = {m[:pos] + (0,) + m[pos + 1 :]: c for m, c in x.terms.items()}
        return HomologyElement(x.ring, terms)

    monkeypatch.setattr(SpaceCatalog, "gamma_dual", without_x1)
    rep = verify_gysin_values(CP2, 3)
    # The gate takes its carriers from gamma_dual, so a carrier missing x1
    # fails the 12 retraction checks and the 12 caps made from it.
    assert (rep.checks, rep.failed) == (36, 24)
    assert rep.failures[0] == "retraction_!(a^0) at k=1: -[x1]"


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


def test_presentation_sweep_catches_mul_dropping_the_right_betas(monkeypatch):
    def dropped(self, other):
        alphas = tuple(map(operator.add, self.alphas, other.alphas))
        return PresMonomial(self.omega + other.omega, alphas, self.betas)

    monkeypatch.setattr(PresMonomial, "mul", dropped)
    rep = verify_presentation(CP2, 4)
    # Every relation and multiplicativity check whose right factor carries a
    # beta fails.  A product whose counts were added up from its operands'
    # counts, not read from its own exponents, would hide most of them.
    assert (rep.checks, rep.failed) == (387, 133)
    assert rep.failures[0] == "alpha_1 beta_0 misses m[2,1]"


def test_presentation_sweep_calls_gh_product_per_distinct_normal_pair(monkeypatch):
    cp4 = SpaceParams.from_token("cp", 4)
    calls = Counter()

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(owner, name, wrapper)

    def normal_key(p):
        return tuple(loops.presentation_normalize(p, cp4).terms.items())

    by_count = {f: [normal_key(p) for p in loops._pres_monomials(cp4, f)] for f in range(1, 5)}
    pairs = {
        (a, b)
        for f1, keys1 in by_count.items()
        for f2, keys2 in by_count.items()
        if f1 + f2 <= 5
        for a in keys1
        for b in keys2
    }
    counted(PresMonomial, "mul")
    counted(loops, "presentation_normalize")
    counted(loops, "gh_product")
    rep = verify_presentation(cp4, 5)
    assert (rep.checks, rep.failed) == (17863, 0)
    # Every product is still built and normalized.  A dual product per
    # monomial pair made 17,776 gh_product calls here; equal normal forms
    # share one object, and each distinct pair of them is multiplied once.
    assert len(pairs) == 689
    assert calls == {"mul": 17813, "presentation_normalize": 18357, "gh_product": len(pairs)}


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


def _unsigned_cup(a, b):
    # ring.cup without the Koszul sign of normal-ordering the merged monomial.
    out: dict = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            hit = a.ring.mul_monomials(ma, mb)
            if hit is not None:
                out[hit[0]] = out.get(hit[0], 0) + ca * cb
    return RingElement(a.ring, out)


@pytest.mark.parametrize(
    ("params", "seed", "counts"), [(CP1, 0, (18024, 137)), (CP2, 7, (135625, 409))]
)
def test_ring_sweep_catches_unsigned_cup(monkeypatch, params, seed, counts):
    monkeypatch.setattr(ring, "cup", _unsigned_cup)
    rep = verify_ring_axioms(params, seed=seed)
    # A product of two odd classes loses its sign, so graded commutativity
    # fails on every odd pair, and the cap, pairing and diagonal adjunctions,
    # whose caps and pushforwards keep their signs, fail wherever that product
    # is nonzero.  The unsigned product is still associative: on CP1 the
    # failures are 22 + 47 + 21 + 21 exhaustive and 15 + 6 + 5 randomized,
    # none of them associativity.  The first twelve kept are exhaustive ones.
    assert (rep.checks, rep.failed) == counts
    assert not any("associativity" in f for f in rep.failures)


def test_ring_sweep_catches_non_associative_cup(monkeypatch):
    product = ring.cup

    def skewed(a, b):
        out = product(a, b)
        return -out if (a.degree() or 0) % 2 else out

    monkeypatch.setattr(ring, "cup", skewed)
    monkeypatch.setattr(report, "KEEP_FAILURES", 1000)
    rep = verify_ring_axioms(CP1, seed=0)
    # Negating every product with an odd left factor makes (ab)c and a(bc)
    # differ in sign wherever a is odd and abc != 0, and breaks every other
    # law that multiplies an odd class on the left.
    assert (rep.checks, rep.failed) == (18024, 566)
    assert Counter(f.split(" fails at ")[0].split(":")[0] for f in rep.failures) == {
        "unit law": 11,
        "graded commutativity": 46,
        "associativity": 127,
        "cap module axiom": 127,
        "pairing adjunction": 45,
        "diagonal adjunction": 45,
        "random commutativity": 67,
        "random associativity": 35,
        "random cap module axiom": 33,
        "random pairing adjunction": 30,
    }


def test_ring_sweep_catches_wrong_pd_inverse(monkeypatch):
    monkeypatch.setattr(verify, "pd_inverse", _negated(verify.pd_inverse))
    rep = verify_ring_axioms(CP1, seed=0)
    # One pd_inverse . pd check per basis monomial: 2 + 4 + 16.
    assert (rep.checks, rep.failed) == (18024, 22)
    assert all(f.startswith("pd_inverse . pd != id at ") for f in rep.failures)


def test_ring_sweep_compares_every_associativity_cell(monkeypatch):
    ring_ = SpaceCatalog(CP1).gamma(2).ring
    x1x2, b = (0, 1, 1, 0), (1, 0, 0, 0)
    product = ring.cup

    def perturbed(u, c):
        out = product(u, c)
        if u.ring == ring_ and u.terms == {x1x2: -1} and c.terms == {b: 1}:
            return -out
        return out

    monkeypatch.setattr(ring, "cup", perturbed)
    rep = verify_ring_axioms(CP1, seed=0)
    # Only x2 * x1 is -x1 x2, so the table entry (x2 x1) b of that one product
    # feeds one associativity cell, in the middle of its row over c; nothing
    # else multiplies -x1 x2 by b.
    assert (rep.checks, rep.failed) == (18024, 1)
    assert rep.failures == ["associativity fails at (0, 0, 1, 0),(0, 1, 0, 0),(1, 0, 0, 0)"]


def test_ring_sweep_compares_every_diagonal_adjunction_cell(monkeypatch):
    ring_ = SpaceCatalog(CP1).gamma(2).ring
    square = TensorRing(ring_, ring_)
    ma, mb, mx = (0, 1, 0, 0), (0, 0, 1, 0), (1, 0, 1, 1)
    cell = (
        cross(ring_.element({ma: 1}), ring_.element({mb: 1}), square),
        diagonal_pushforward(dual(ring_, mx), square),
    )
    kronecker = verify.pairing

    def perturbed(c, x):
        value = kronecker(c, x)
        return value + 1 if (c, x) == cell else value

    monkeypatch.setattr(verify, "pairing", perturbed)
    rep = verify_ring_axioms(CP1, seed=0)
    # Each (cross, push) operand pair is paired once, for one diagonal
    # adjunction check, away from the ends of its row over x.
    assert (rep.checks, rep.failed) == (18024, 1)
    assert rep.failures == ["diagonal adjunction fails at (0, 1, 0, 0),(0, 0, 1, 0),(1, 0, 1, 1)"]


@pytest.mark.parametrize(
    ("params", "rounds", "checks", "calls"),
    [
        (CP2, 0, 134625, {"cap": 4648, "pairing": 36888, "cup": 4948}),
        (CP1, 250, 18024, {"cap": 1934, "pairing": 5576, "cup": 2540}),
        (CP2, 250, 135625, {"cap": 5398, "pairing": 37388, "cup": 6198}),
    ],
    ids=["cp2-pairs-only", "cp1", "cp2"],
)
def test_ring_sweep_calls_the_kernel_per_distinct_operand_pair(
    monkeypatch, params, rounds, checks, calls
):
    counts = dict.fromkeys(("cap", "pairing", "cup"), 0)

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(verify, "cap")
    counted(verify, "pairing")
    counted(ring, "cup")
    monkeypatch.setattr(verify, "RANDOM_ROUNDS", rounds)
    rep = verify_ring_axioms(params, seed=0)
    assert (rep.checks, rep.failed) == (checks, 0)
    # Without the random rounds on CP2: fresh kernel calls on every basis
    # triple made 67,792 caps, 133,376 pairings and 67,900 cups there.  The
    # pair pass's tables call the kernel once per distinct operand pair; only
    # the diagonal adjunction still pairs once per triple: 4^3 + 8^3 + 32^3 =
    # 33,344 of the pairings.  A random round builds a*b, b*a and cap(a, x)
    # once each, for five cups, three caps and two pairings; with three cups
    # and one cap more per round, 250 rounds made 750 cups and 250 caps more.
    assert counts == calls


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
    assert all(f.startswith("<m[") and ": 2 != 1" in f for f in rep.failures)


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
    assert all(f.startswith("<s[1,0]*s[") for f in rep.failures)


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
    assert all(f.startswith("triple split mismatch at B[") for f in rep.failures)


def test_pipeline_sweep_catches_wrong_pushforward_sign(monkeypatch):
    monkeypatch.setattr(
        loops, "diagonal_pushforward", _negated(loops.diagonal_pushforward)
    )
    rep = verify_pipeline(CP3, 6)
    # Level-1 generators have no break index and stay zero: 36 - 6 fail.
    assert (rep.checks, rep.failed) == (36, 30)
    assert all(": pipeline gives -A[" in f for f in rep.failures)


def test_pipeline_sweep_catches_lost_index_3_terms(monkeypatch):
    coproduct = loops.coproduct_closed

    def without_index_3(x):
        terms = coproduct(x).terms
        return TensorLoopClass(
            x.params, {key: c for key, c in terms.items() if 3 not in (key[0][2], key[1][2])}
        )

    monkeypatch.setattr(loops, "coproduct_closed", without_index_3)
    rep = verify_pipeline(SpaceParams.from_token("cp", 4), 12)
    # Index 3 exists only for n >= 4, so no sweep at n <= 3 can see this.
    # Every A[k,3] and B[k,3] above level 1 has such a term: 2 kinds * 11.
    assert (rep.checks, rep.failed) == (96, 22)
    assert rep.failures[0].startswith("A[2,3]: pipeline gives A[1,0] x A[1,3] + ")


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


def test_pipeline_builds_one_pushforward_per_diagonal_class(monkeypatch):
    pushforward = loops.diagonal_pushforward
    built = []

    def counted(x, tensor):
        built.append(tuple(x.terms))
        return pushforward(x, tensor)

    monkeypatch.setattr(loops, "diagonal_pushforward", counted)
    # Every break m = 1 .. 5 matches the same diagonal classes a^j (times b),
    # so a pushforward per break would build each one five times.
    for kind in "AB":
        for i in range(CP3.n):
            built.clear()
            x = LoopClass.generator(CP3, kind, 6, i)
            assert coproduct_pipeline(x) == loops.coproduct_closed(x)
            assert 0 < len(built) == len(set(built))
