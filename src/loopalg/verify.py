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
from .report import Interner, Report
from .ring import RingElement, _require_int, as_coeff, cross
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

    Sources, carriers and x_{2m} come from the catalog builders the pipeline
    uses; the signs and the x_omit classes are written out as the oracle.
    """
    params.check_level(max_k)
    # (with b, sign of the carrier [a^i (b) x_all], sign of its cap)
    variants = ((False, -1, 1), (True, 1, -1))
    cat = catalog_for(params)
    rep = Report(f"gysin signs ({params.token}, n={params.n}, k<={max_k})")
    for k in range(1, max_k + 1):
        gam = cat.gamma(k)
        ring = gam.ring
        p_l = cat.pullback_pL(k)
        p_v = {m: cat.pullback_pV(k, m) for m in range(1, k)}
        for i in range(params.n):
            for with_b, sign, cap_sign in variants:
                part = ({"a": i} if i else {}) | ({"b": 1} if with_b else {})
                name = f"a^{i} b" if with_b else f"a^{i}"
                carrier = cat.gamma_dual(k, i, with_b) * sign
                shown = f"{'-' if sign < 0 else ''}[{name} x..]"

                got = gysin(p_l, cat.sm, gam, cat.sm_dual(i, with_b))
                rep.note(got == carrier, "retraction_!({}) at k={}: {}", name, k, got)

                for m in range(1, k):
                    omit = {f"x{j}": 1 for j in range(1, 2 * k) if j != 2 * m}
                    omitted = dual(ring, ring.monomial(omit | part))
                    got = cap(cat.fiber_class(k, m), carrier)
                    rep.note(
                        got == omitted * cap_sign, "cap(x{}, {}) at k={}: {}", 2 * m, shown, k, got
                    )
                    got = gysin(p_v[m], cat.sm_pair, gam, cat.sm_pair_dual(i, with_b))
                    rep.note(got == -omitted, "figure8_!({}) at k={}, m={}: {}", name, k, m, got)
    return rep


# The random coefficients p/q, p in -9 .. 9 and q in 1 .. 9, in canonical
# form: _COEFFS[p + 9][q - 1] is as_coeff(Fraction(p, q)).
_COEFFS = tuple(tuple(as_coeff(Fraction(p, q)) for q in range(1, 10)) for p in range(-9, 10))


def _random_terms(rng, monos) -> dict:
    """One to three of ``monos``, each with a random rational coefficient.

    ``rng.randint(a, b)`` draws ``a + rng._randbelow(b - a + 1)``, and so does
    ``rng.choice`` over ``b - a + 1`` values in order, so each ``choice``
    below draws what ``randint`` drew, from the same stream: the count
    ``randint(1, 3)``, then p = ``randint(-9, 9)`` and q = ``randint(1, 9)``
    per term, which pick ``_COEFFS[p + 9][q - 1]``.
    """
    picks = rng.sample(monos, k=min(len(monos), rng.choice((1, 2, 3))))
    return {m: rng.choice(rng.choice(_COEFFS)) for m in picks}


def _random_homogeneous(ring, rng, layers):
    """A random element of one degree; ``layers`` lists the monomials by degree.

    Built with ``RingElement`` rather than ``ring.element``: every key comes
    from ``ring.monomials()``, so ``check_monomial`` would check nothing new.
    """
    return RingElement(ring, _random_terms(rng, rng.choice(layers)))


def verify_ring_axioms(params: SpaceParams, seed: int = 0) -> Report:
    """Kernel law suite, exhaustive over the SM and level-2 rings.

    For each ring: the truncation of every generator; one pass over basis
    elements for the unit law, monomiality of pd and pd_inverse . pd = id,
    then the bijectivity of pd on bases; one pass over basis pairs (a, b)
    for graded commutativity, associativity against every c, and against
    every dual basis class x the cap module axiom, the pairing adjunction
    and the diagonal/cup adjunction.  Then RANDOM_ROUNDS rounds of four
    randomized combination checks drawn from ``seed``; their elements are
    drawn from the monomials the element pass lists, grouped by degree, and
    each round builds a*b, b*a and cap(a, x) once for all four.

    Products and caps of basis classes are 0 or +-one basis class, so the
    pair pass meets few distinct operands.  It builds its kernel values as
    tables first: every basis product a*b and cap(a, x), indexed by distinct
    value; for each distinct product u, u*c, cap(u, x) and <u, x>; for each
    basis a, a*u; for each basis b and distinct cap h, cap(b, h) and <b, h>.
    The indices come from ``Interner``, and equal entries share one object.
    Both sides of every check are built by the kernel from the operands the
    law names; only the diagonal adjunction's <cross(a, b), push(x)> is
    computed per check, since those operand pairs are all distinct.  For
    each pair (a, b) ``Report.rows`` compares a law's checks over c or x as
    two rows of table entries, one list comparison per row; only a row with
    a mismatch is noted cell by cell.

    ``seed`` must be an int >= 0: ``random.Random`` draws the same rounds
    for ``True``, ``1.0``, ``1`` and ``-1``.
    """
    _require_int("seed", seed)
    if seed < 0:
        raise ValueError("seed must be >= 0")
    cat = catalog_for(params)
    rep = Report(f"ring axioms ({params.token}, n={params.n})")
    spaces = [cat.sm, cat.sm_pair, cat.gamma(2)]
    pool = []

    for space in spaces:
        ring = space.ring
        monos = list(ring.monomials())
        shown = [ring.unpack(m) for m in monos]  # failures print exponent tuples
        degrees = [ring.monomial_degree(m) for m in monos]
        elems = [ring.element({m: 1}) for m in monos]
        duals = [dual(ring, m) for m in monos]
        one = ring.one()

        for g in ring.generators:
            vanishes = (ring.gen(g.name) ** g.truncation).is_zero()
            rep.note(vanishes, "{!r}: {}^{} != 0", ring, g.name, g.truncation)

        seen = set()
        by_degree: dict = {}
        for m, e, m_shown, d in zip(monos, elems, shown, degrees):
            by_degree.setdefault(d, []).append(m)
            rep.note(one * e == e and e * one == e, "unit law fails at {}", m_shown)
            image = pd(space, e)
            rep.note(len(image.terms) == 1, "pd not monomial at {}", m_shown)
            seen.update(image.terms)
            rep.note(pd_inverse(space, image) == e, "pd_inverse . pd != id at {}", m_shown)
        rep.note(seen == set(monos), "{!r}: pd is not a bijection on bases", ring)
        pool.append((ring, [by_degree[d] for d in sorted(by_degree)], monos))

        pushes = [diagonal_pushforward(dx) for dx in duals]
        products, caps, shared = Interner(), Interner(), Interner()
        prod = [[products.index(ea * eb) for eb in elems] for ea in elems]
        capped = [[caps.index(cap(ea, dx)) for dx in duals] for ea in elems]
        u_c = [[shared.share(u * ec) for ec in elems] for u in products.values]
        u_cap = [[shared.share(cap(u, dx)) for dx in duals] for u in products.values]
        u_pair = [[pairing(u, dx) for dx in duals] for u in products.values]
        a_u = [[shared.share(ea * u) for u in products.values] for ea in elems]
        b_cap = [[shared.share(cap(eb, h)) for h in caps.values] for eb in elems]
        b_pair = [[pairing(eb, h) for h in caps.values] for eb in elems]

        for i, (ma, ea, da) in enumerate(zip(shown, elems, degrees)):
            a_row, a_caps = a_u[i], capped[i]
            for j, (mb, eb, db) in enumerate(zip(shown, elems, degrees)):
                ab, ba = prod[i][j], prod[j][i]
                flip = -1 if (da % 2 and db % 2) else 1
                commute = products.values[ab] == products.values[ba] * flip
                rep.note(commute, "graded commutativity fails at {}, {}", ma, mb)
                a_bc = [a_row[bc] for bc in prod[j]]
                rep.rows(shown, "{} fails at {},{},{}", (("associativity", ma, mb), u_c[ab], a_bc))
                ab_cross = cross(ea, eb)
                b_caps, b_pairs = b_cap[j], b_pair[j]
                diagonal = [pairing(ab_cross, p) for p in pushes]
                rep.rows(
                    shown,
                    "{} fails at {},{},{}",
                    (("cap module axiom", ma, mb), u_cap[ba], [b_caps[h] for h in a_caps]),
                    (("pairing adjunction", ma, mb), [b_pairs[h] for h in a_caps], u_pair[ba]),
                    (("diagonal adjunction", ma, mb), diagonal, u_pair[ab]),
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
        ab, ba, ax = a * b, b * a, cap(a, x)
        rep.note(ab == ba * flip, "random commutativity: {} vs {}", a, b)
        rep.note(ab * c == a * (b * c), "random associativity: {},{},{}", a, b, c)
        rep.note(cap(ba, x) == cap(b, ax), "random cap module axiom: {},{},{}", a, b, x)
        adjoint = pairing(b, ax) == pairing(ba, x)
        rep.note(adjoint, "random pairing adjunction: {},{},{}", a, b, x)
    return rep


def verify_structure(params: SpaceParams, max_k: int) -> Report:
    """Structural facts about the level rings up to max_k.

    Total dimension 2n * 2^(2k-1), top degree lambda_k + 2N - 1 attained
    once, and the odd/even degree split of the two generator families.
    """
    params.check_level(max_k)
    cat = catalog_for(params)
    rep = Report(f"structure ({params.token}, n={params.n}, k<={max_k})")
    for k in range(1, max_k + 1):
        ring = cat.gamma(k).ring
        series = dict(ring.poincare_series(ring.top_degree))
        total = sum(series.values())
        rep.note(total == 2 * params.n * 2 ** (2 * k - 1), "k={}: total dimension {}", k, total)
        top, expected_top = ring.top_degree, params.lambda_k(k) + 2 * params.N - 1
        rep.note(top == expected_top, "k={}: top degree {} != {}", k, top, expected_top)
        rep.note(series[top] == 1, "k={}: top degree not one-dimensional", k)
        for i in range(params.n):
            rep.note(generator_degree(params, "A", k, i) % 2 == 1, "A[{},{}] has even degree", k, i)
            rep.note(generator_degree(params, "B", k, i) % 2 == 0, "B[{},{}] has odd degree", k, i)
    return rep
