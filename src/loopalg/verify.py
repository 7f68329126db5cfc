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
from .report import Report, _intern
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

    Sources, carriers and x_{2m} come from the catalog builders the pipeline
    uses; the signs and the x_omit classes are written out as the oracle.
    """
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


def _distinct(table) -> tuple[list, list]:
    """``table`` with each entry replaced by its index among the distinct
    values, and those values in index order."""
    first: dict = {}
    rows = [[_intern(first, v)[0] for v in row] for row in table]
    return rows, [v for _, v in first.values()]


def _note_rows(rep: Report, keys: list, ma, mb, *laws) -> None:
    """Check each law's row over ``keys`` at the basis pair (ma, mb).

    A law is its name and two rows, left and right sides indexed like
    ``keys``.  When every row matches, one list comparison each, their
    checks are credited; otherwise every cell is noted, key by key and law
    by law, so a failure reads as it would from a check per cell.
    """
    if all(left == right for _, left, right in laws):
        rep.credit(len(laws) * len(keys))
        return
    for pos, key in enumerate(keys):
        for name, left, right in laws:
            rep.note(left[pos] == right[pos], "{} fails at {},{},{}", name, ma, mb, key)


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
    drawn from the monomials the element pass lists, grouped by degree, and
    each round builds a*b, b*a and cap(a, x) once for all four.

    Products and caps of basis classes are 0 or +-one basis class, so the
    pair pass meets few distinct operands.  It builds its kernel values as
    tables first: every basis product a*b and cap(a, x), indexed by distinct
    value; for each distinct product u, u*c, cap(u, x) and <u, x>; for each
    basis a, a*u; for each basis b and distinct cap h, cap(b, h) and <b, h>.
    Equal entries share one object.  Both sides of every check are built by
    the kernel from the operands the law names; only the diagonal
    adjunction's <cross(a, b), push(x)> is computed per check, since those
    operand pairs are all distinct.  For each pair (a, b) a law's checks
    over c or x are compared as two rows of table entries, one list
    comparison per row; only a row with a mismatch is noted cell by cell.
    """
    cat = catalog_for(params)
    rep = Report(f"ring axioms ({params.token}, n={params.n})")
    spaces = [cat.sm, cat.sm_pair, cat.gamma(2)]
    pool = []

    for space in spaces:
        ring = space.ring
        monos = list(ring.monomials())
        elems = [ring.element({m: 1}) for m in monos]
        duals = [dual(ring, m) for m in monos]
        one = ring.one()

        for g in ring.generators:
            vanishes = (ring.gen(g.name) ** g.truncation).is_zero()
            rep.note(vanishes, "{!r}: {}^{} != 0", ring, g.name, g.truncation)

        seen = set()
        by_degree: dict = {}
        for m, e in zip(monos, elems):
            by_degree.setdefault(ring.monomial_degree(m), []).append(m)
            rep.note(one * e == e and e * one == e, "unit law fails at {}", m)
            image = pd(space, e)
            rep.note(len(image.terms) == 1, "pd not monomial at {}", m)
            seen.update(image.terms)
            rep.note(pd_inverse(space, image) == e, "pd_inverse . pd != id at {}", m)
        rep.note(seen == set(monos), "{!r}: pd is not a bijection on bases", ring)
        pool.append((ring, [by_degree[d] for d in sorted(by_degree)], monos))

        square = TensorRing(ring, ring)
        pushes = [diagonal_pushforward(dx, square) for dx in duals]
        shared: dict = {}

        def share(value):
            return _intern(shared, value)[1]

        prod, products = _distinct((ea * eb for eb in elems) for ea in elems)
        capped, caps = _distinct((cap(ea, dx) for dx in duals) for ea in elems)
        u_c = [[share(u * ec) for ec in elems] for u in products]
        u_cap = [[share(cap(u, dx)) for dx in duals] for u in products]
        u_pair = [[pairing(u, dx) for dx in duals] for u in products]
        a_u = [[share(ea * u) for u in products] for ea in elems]
        b_cap = [[share(cap(eb, h)) for h in caps] for eb in elems]
        b_pair = [[pairing(eb, h) for h in caps] for eb in elems]

        for i, (ma, ea) in enumerate(zip(monos, elems)):
            da = ring.monomial_degree(ma)
            a_row, a_caps = a_u[i], capped[i]
            for j, (mb, eb) in enumerate(zip(monos, elems)):
                db = ring.monomial_degree(mb)
                ab, ba = prod[i][j], prod[j][i]
                flip = -1 if (da % 2 and db % 2) else 1
                commute = products[ab] == products[ba] * flip
                rep.note(commute, "graded commutativity fails at {}, {}", ma, mb)
                a_bc = [a_row[bc] for bc in prod[j]]
                _note_rows(rep, monos, ma, mb, ("associativity", u_c[ab], a_bc))
                ab_cross = cross(ea, eb, square)
                b_caps, b_pairs = b_cap[j], b_pair[j]
                _note_rows(
                    rep,
                    monos,
                    ma,
                    mb,
                    ("cap module axiom", u_cap[ba], [b_caps[h] for h in a_caps]),
                    ("pairing adjunction", [b_pairs[h] for h in a_caps], u_pair[ba]),
                    ("diagonal adjunction", [pairing(ab_cross, p) for p in pushes], u_pair[ab]),
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
