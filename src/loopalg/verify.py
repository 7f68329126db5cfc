"""Verification sweeps over the kernel and the space catalog.

Each sweep returns a Report whose failures list holds printable
counterexamples; an empty list means every check passed.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .homology import (
    HomologyElement,
    cap,
    diagonal_pushforward,
    dual,
    gysin,
    pairing,
    pd,
    pd_inverse,
)
from .report import Report
from .ring import TensorRing, cross
from .spaces import SpaceParams, catalog_for, generator_degree

__all__ = [
    "verify_gysin_values",
    "verify_ring_axioms",
    "verify_structure",
]


# Rounds of randomized checks in verify_ring_axioms, four checks each.
RANDOM_ROUNDS = 250


def verify_gysin_values(params: SpaceParams, max_k: int) -> Report:
    """Re-derive the signed wrong-way and cap values the pipeline rests on.

    For every level k <= max_k, index i and break index m this checks, with
    x_all = x1 .. x_{2k-1} and x_omit the same word without x_{2m}:

        retraction_!(dual a^i)       == -[a^i x_all]
        cap(x_{2m}, -[a^i x_all])    == +[a^i x_omit]
        figure8_!(dual a^i)          == -[a^i x_omit]
        retraction_!(dual a^i b)     == +[a^i b x_all]
        cap(x_{2m}, [a^i b x_all])   == -[a^i b x_omit]
        figure8_!(dual a^i b)        == -[a^i b x_omit]
    """
    # (with b, sign of the carrier [a^i (b) x_all], sign of its cap)
    variants = ((False, -1, 1), (True, 1, -1))
    cat = catalog_for(params)
    rep = Report(f"gysin signs ({params.token}, n={params.n}, k<={max_k})")
    for k in range(1, max_k + 1):
        gam = cat.gamma(k)
        ring = gam.ring
        full = {f"x{j}": 1 for j in range(1, 2 * k)}
        p_l = cat.pullback_pL(k)
        p_v = {m: cat.pullback_pV(k, m) for m in range(1, k)}
        for i in range(params.n):
            for with_b, sign, cap_sign in variants:
                part = ({"a": i} if i else {}) | ({"b": 1} if with_b else {})
                name = f"a^{i} b" if with_b else f"a^{i}"
                carrier = dual(ring, ring.monomial(full | part)) * sign
                shown = f"{'-' if sign < 0 else ''}[{name} x..]"

                got = gysin(p_l, cat.sm, gam, cat.sm_dual(i, with_b))
                rep.note(
                    got == carrier, lambda g=got, k=k, s=name: f"retraction_!({s}) at k={k}: {g}"
                )

                for m in range(1, k):
                    omit = {f"x{j}": 1 for j in range(1, 2 * k) if j != 2 * m}
                    omitted = dual(ring, ring.monomial(omit | part))
                    x2m = ring.gen(f"x{2 * m}")

                    got = cap(x2m, carrier)
                    rep.note(
                        got == omitted * cap_sign,
                        lambda g=got, k=k, m=m, s=shown: f"cap(x{2 * m}, {s}) at k={k}: {g}",
                    )
                    got = gysin(p_v[m], cat.sm_pair, gam, cat.sm_pair_dual(i, with_b))
                    rep.note(
                        got == -omitted,
                        lambda g=got, k=k, m=m, s=name: f"figure8_!({s}) at k={k}, m={m}: {g}",
                    )
    return rep


def _random_terms(rng, monos) -> dict:
    """One to three of ``monos``, each with a random rational coefficient."""
    picks = rng.sample(monos, k=min(len(monos), rng.randint(1, 3)))
    return {m: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for m in picks}


def _random_homogeneous(ring, rng, layers):
    """A random element of one degree; ``layers`` lists the monomials by degree."""
    return ring.element(_random_terms(rng, rng.choice(layers)))


def verify_ring_axioms(params: SpaceParams, seed: int = 0) -> Report:
    """Kernel law suite, exhaustive over the SM and level-2 rings.

    For each ring: the truncation of every generator; one pass over basis
    elements for the unit law, monomiality of pd and pd_inverse . pd = id,
    then the bijectivity of pd on bases; one pass over basis pairs (a, b)
    for graded commutativity, associativity against every c, and against
    every dual basis class x the cap module axiom, the pairing adjunction
    and the diagonal/cup adjunction.  Then RANDOM_ROUNDS rounds of four
    randomized combination checks drawn from ``seed``; their elements are
    drawn from the monomials the element pass lists, grouped by degree.
    """
    cat = catalog_for(params)
    rep = Report(f"ring axioms ({params.token}, n={params.n})")
    spaces = [cat.sm, cat.sm_pair, cat.gamma(2)]
    pool = []

    for space in spaces:
        ring = space.ring
        monos = list(ring.monomials())
        elems = {m: ring.element({m: 1}) for m in monos}
        duals = {m: dual(ring, m) for m in monos}
        one = ring.one()

        for g in ring.generators:
            rep.note(
                (ring.gen(g.name) ** g.truncation).is_zero(),
                f"{ring!r}: {g.name}^{g.truncation} != 0",
            )

        seen = set()
        by_degree: dict = {}
        for m, e in elems.items():
            by_degree.setdefault(ring.monomial_degree(m), []).append(m)
            rep.note(one * e == e and e * one == e, lambda m=m: f"unit law fails at {m}")
            image = pd(space, e)
            rep.note(len(image.terms) == 1, lambda m=m: f"pd not monomial at {m}")
            seen.update(image.terms)
            rep.note(
                pd_inverse(space, image) == e,
                lambda m=m: f"pd_inverse . pd != id at {m}",
            )
        rep.note(seen == set(monos), f"{ring!r}: pd is not a bijection on bases")
        pool.append((ring, [by_degree[d] for d in sorted(by_degree)], monos))

        square = TensorRing(ring, ring)
        pushes = {mx: diagonal_pushforward(dx, square) for mx, dx in duals.items()}
        # Every basis product a*b, built once.  Most are zero or +-one basis
        # monomial, so equal products share one element to keep the table small.
        unique: dict = {}
        table: dict = {}
        for ma, ea in elems.items():
            row = table[ma] = {}
            for mb, eb in elems.items():
                ab = ea * eb
                row[mb] = unique.setdefault(tuple(ab.terms.items()), ab)
        for ma, ea in elems.items():
            da = ring.monomial_degree(ma)
            caps = {mx: cap(ea, dx) for mx, dx in duals.items()}
            for mb, eb in elems.items():
                db = ring.monomial_degree(mb)
                ab = table[ma][mb]
                ba = table[mb][ma]
                ab_cross = cross(ea, eb, square)
                flip = -1 if (da % 2 and db % 2) else 1
                rep.note(
                    ab == ba * flip,
                    lambda ma=ma, mb=mb: f"graded commutativity fails at {ma}, {mb}",
                )
                for mc, ec in elems.items():
                    rep.note(
                        ab * ec == ea * table[mb][mc],
                        lambda ma=ma, mb=mb, mc=mc: f"associativity fails at {ma},{mb},{mc}",
                    )
                for mx, dx in duals.items():
                    inner = caps[mx]
                    rep.note(
                        cap(ba, dx) == cap(eb, inner),
                        lambda ma=ma, mb=mb, mx=mx: f"cap module axiom fails at {ma},{mb},{mx}",
                    )
                    rep.note(
                        pairing(eb, inner) == pairing(ba, dx),
                        lambda ma=ma, mb=mb, mx=mx: f"pairing adjunction fails at {ma},{mb},{mx}",
                    )
                    rep.note(
                        pairing(ab_cross, pushes[mx]) == pairing(ab, dx),
                        lambda ma=ma, mb=mb, mx=mx: f"diagonal adjunction fails at {ma},{mb},{mx}",
                    )

    rng = random.Random(seed)
    for _ in range(RANDOM_ROUNDS):
        ring, layers, monos = rng.choice(pool)
        a = _random_homogeneous(ring, rng, layers)
        b = _random_homogeneous(ring, rng, layers)
        c = _random_homogeneous(ring, rng, layers) + _random_homogeneous(ring, rng, layers)
        x = HomologyElement(ring, _random_terms(rng, monos))
        da, db = a.degree() or 0, b.degree() or 0
        flip = -1 if (da % 2 and db % 2) else 1
        rep.note(a * b == (b * a) * flip, lambda: f"random commutativity: {a} vs {b}")
        rep.note((a * b) * c == a * (b * c), lambda: f"random associativity: {a},{b},{c}")
        rep.note(
            cap(b * a, x) == cap(b, cap(a, x)),
            lambda: f"random cap module axiom: {a},{b},{x}",
        )
        rep.note(
            pairing(b, cap(a, x)) == pairing(b * a, x),
            lambda: f"random pairing adjunction: {a},{b},{x}",
        )
    return rep


def verify_structure(params: SpaceParams, max_k: int) -> Report:
    """Structural facts about the level rings up to max_k.

    Total dimension 2n * 2^(2k-1), top degree lambda_k + 2N - 1 attained
    once, and the odd/even degree split of the two generator families.
    """
    cat = catalog_for(params)
    rep = Report(f"structure ({params.token}, n={params.n}, k<={max_k})")
    for k in range(1, max_k + 1):
        ring = cat.gamma(k).ring
        series = dict(ring.poincare_series(ring.top_degree))
        total = sum(series.values())
        rep.note(
            total == 2 * params.n * 2 ** (2 * k - 1),
            f"k={k}: total dimension {total}",
        )
        expected_top = params.lambda_k(k) + 2 * params.N - 1
        rep.note(
            ring.top_degree == expected_top,
            f"k={k}: top degree {ring.top_degree} != {expected_top}",
        )
        rep.note(series[ring.top_degree] == 1, f"k={k}: top degree not one-dimensional")
        for i in range(params.n):
            rep.note(generator_degree(params, "A", k, i) % 2 == 1, f"A[{k},{i}] has even degree")
            rep.note(generator_degree(params, "B", k, i) % 2 == 0, f"B[{k},{i}] has odd degree")
    return rep
