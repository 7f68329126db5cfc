"""Homology as the dual basis of a truncated algebra.

Homology classes are rational combinations of dual basis elements, written
``dual(m)`` for a monomial m.  The evaluation pairing is the Kronecker pairing
on dual bases, and the cap product is the unique bilinear operation satisfying

    <b, cap(a, x)> = <cup(b, a), x>

Orientations give the dual of the top monomial coefficient +1.  Every signed
wrong-way value computed downstream depends on this pair of conventions, so
changing either one means re-deriving those signs.

Classes are keyed by the packed monomials of ``loopalg.ring``: a cap is a
containment test and a subtract, ``pd_inverse`` takes the complement
``top - m``, and every sign comes from ``Ring.merge_sign``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .ring import (
    Combination,
    Monomial,
    Ring,
    RingElement,
    _require_same,
    as_coeff,
)

__all__ = [
    "HomologyElement",
    "OrientedSpace",
    "RingMap",
    "cap",
    "diagonal_pushforward",
    "dual",
    "gysin",
    "pairing",
    "pd",
    "pd_inverse",
]


class HomologyElement(Combination):
    """Sparse rational combination of dual basis classes of a ring."""

    __slots__ = ()

    ring = Combination.owner

    def _body(self, m: Monomial) -> str:
        return f"[{self.ring.monomial_str(m)}]"

    def _latex_body(self, m: Monomial) -> str:
        """``[a^{2} x_{1} \\xi]``: digits become subscripts, powers superscripts."""
        parts = []
        for g, e in zip(self.ring.generators, self.ring.unpack(m)):
            if not e:
                continue
            if g.name == "xi":
                base = "\\xi"
            else:
                head = g.name.rstrip("0123456789")
                tail = g.name[len(head) :]
                base = f"{head}_{{{tail}}}" if tail else head
            parts.append(base if e == 1 else f"{base}^{{{e}}}")
        return "[" + (" ".join(parts) or "1") + "]"

    def _json_body(self, m: Monomial) -> dict:
        return {"dual": self.ring.exponents_by_name(m)}


def dual(ring: Ring, m: Monomial) -> HomologyElement:
    """The dual basis class of a monomial."""
    return HomologyElement(ring, {ring.check_monomial(m): 1})


def pairing(c: RingElement, x: HomologyElement) -> int | Fraction:
    """Kronecker pairing of a cohomology element against a homology class."""
    if type(c) is not RingElement or type(x) is not HomologyElement:
        raise TypeError(f"pairing of {type(c).__name__} and {type(x).__name__}")
    if x.ring is not c.ring:
        _require_same(c.ring, x.ring, "pairing of classes over different rings")
    total = 0
    for m, cc in c.terms.items():
        cx = x.terms.get(m)
        if cx is not None:
            total += cc * cx
    return total if type(total) is int else as_coeff(total)


def cap(a: RingElement, x: HomologyElement) -> HomologyElement:
    """Cap product, the adjoint of right cup multiplication.

    On dual classes: ``cap(a, dual(m)) = merge_sign(m - a, a) * dual(m - a)``
    whenever ``a`` divides ``m``, and 0 otherwise: a containment test, then a
    subtract of the packed monomials.  Pieces are stored, and the result
    built, as in ``cup``.
    """
    if type(a) is not RingElement or type(x) is not HomologyElement:
        raise TypeError(f"cap of {type(a).__name__} and {type(x).__name__}")
    ring = a.ring
    if x.ring is not ring:
        _require_same(ring, x.ring, "cap of classes over different rings")
    out: dict[Monomial, int | Fraction] = {}
    repeat = False
    for ma, ca in a.terms.items():
        for mx, cx in x.terms.items():
            sub = ring.div_monomials(mx, ma)
            if sub is None:
                continue
            piece = ca * cx if ring.merge_sign(sub, ma) > 0 else -(ca * cx)
            if sub in out:
                out[sub] += piece
                repeat = True
            else:
                out[sub] = piece if type(piece) is int else as_coeff(piece)
    return HomologyElement(ring, out) if repeat else HomologyElement._built(ring, out)


def _require_homogeneous(x, what: str) -> None:
    # A class of at most one term is homogeneous, so only a longer one needs a degree.
    if len(x.terms) > 1 and x.degree() is None:
        raise ValueError(f"{what} must be homogeneous")


class OrientedSpace:
    """A closed oriented manifold presented through its cohomology ring.

    The dimension is the ring's top degree and the fundamental class is the
    +1 multiple of the dual of the unique top monomial.
    """

    __slots__ = ("ring", "dimension", "fundamental")

    def __init__(self, ring: Ring):
        self.ring = ring
        self.dimension = ring.top_degree
        self.fundamental = dual(ring, ring.top_monomial)

    def __repr__(self) -> str:
        return f"OrientedSpace(dim={self.dimension}, {self.ring!r})"


def pd(space: OrientedSpace, c: RingElement) -> HomologyElement:
    """Poincare duality, cap against the fundamental class."""
    if type(c) is not RingElement:
        raise TypeError(f"pd of {type(c).__name__}")
    _require_same(c.ring, space.ring, "class does not live over the space's ring")
    _require_homogeneous(c, "Poincare duality input")
    return cap(c, space.fundamental)


def pd_inverse(space: OrientedSpace, x: HomologyElement) -> RingElement:
    """Inverse duality by signed coordinate transport.

    ``pd`` sends the basis monomial ``top - m`` to ``merge_sign(m, top - m)
    * dual(m)``, a signed permutation of bases, so inverting is exact and
    needs no linear solve.  ``top - m`` never borrows, as every slot of
    ``top`` is at its maximum.
    """
    if type(x) is not HomologyElement:
        raise TypeError(f"pd_inverse of {type(x).__name__}")
    ring = _require_same(space.ring, x.ring, "class does not live over the space's ring")
    _require_homogeneous(x, "inverse duality input")
    top = ring.top_monomial
    out: dict[Monomial, int | Fraction] = {}
    for m, c in x.terms.items():
        # Distinct monomials have distinct complements, so no key repeats.
        comp = top - m
        out[comp] = c if ring.merge_sign(m, comp) > 0 else -c
    return RingElement(ring, out)


class RingMap:
    """Degree-preserving algebra map fixed by generator images.

    Images must be homogeneous of the generator's degree (or zero) and must
    satisfy the source truncations in the target ring.
    """

    __slots__ = ("source", "target", "images", "_powers")

    def __init__(self, source: Ring, target: Ring, images: dict[str, RingElement]):
        expected = {g.name for g in source.generators}
        if set(images) != expected:
            raise ValueError(f"images must cover exactly {sorted(expected)}")
        powers: list[list[RingElement]] = []
        for g in source.generators:
            img = images[g.name]
            _require_same(target, img.ring, "image of {!r} lives over the wrong ring", g.name)
            if img.terms and img.degree() != g.degree:
                raise ValueError(f"image of {g.name!r} is not of degree {g.degree}")
            pows = [target.one(), img]
            for _ in range(g.truncation - 1):
                pows.append(pows[-1] * img)
            if not pows[g.truncation].is_zero():
                raise ValueError(f"image of {g.name!r} violates its truncation")
            powers.append(pows)
        self.source = source
        self.target = target
        self.images = dict(images)
        self._powers = powers

    def __call__(self, elem: RingElement) -> RingElement:
        if type(elem) is not RingElement:
            raise TypeError(f"RingMap applied to {type(elem).__name__}")
        _require_same(self.source, elem.ring, "element does not live over the map's source")
        out: dict[Monomial, int | Fraction] = {}
        for m, c in elem.terms.items():
            acc = None
            for pos, e in enumerate(self.source.unpack(m)):
                if e:
                    power = self._powers[pos][e]
                    acc = power if acc is None else acc * power
            if acc is None:
                acc = self.target.one()
            for mono, coeff in acc.terms.items():
                if mono in out:
                    out[mono] += coeff * c
                else:
                    out[mono] = coeff * c
        return RingElement(self.target, out)

    def __repr__(self) -> str:
        body = ", ".join(f"{n} -> {img}" for n, img in self.images.items())
        return f"RingMap({body})"


def gysin(
    pullback: RingMap,
    source: OrientedSpace,
    target: OrientedSpace,
    x: HomologyElement,
) -> HomologyElement:
    """Wrong-way map ``pd . pullback . pd_inverse`` on homology.

    ``x`` lives over ``source`` and the result over ``target``; the degree
    shifts by ``target.dimension - source.dimension``.
    """
    _require_same(pullback.source, source.ring, "pullback does not connect the given spaces")
    _require_same(pullback.target, target.ring, "pullback does not connect the given spaces")
    _require_same(source.ring, x.ring, "class does not live over the source space")
    return pd(target, pullback(pd_inverse(source, x)))


def _splits(ring: Ring, m: Monomial):
    for exps in itertools.product(*(range(e + 1) for e in ring.unpack(m))):
        left = ring._pack(exps)
        yield left, m - left


def diagonal_pushforward(x: HomologyElement) -> HomologyElement:
    """Pushforward along the diagonal into ``x.ring.square``.

    Characterized by ``<cross(a, b), result> = <cup(a, b), x>`` for all a, b.
    On a dual class this is the sum over exponent splittings ``m = l + r`` of
    ``merge_sign(l, r) * dual(l x r)``.
    """
    if type(x) is not HomologyElement:
        raise TypeError(f"diagonal_pushforward of {type(x).__name__}")
    ring = x.ring
    shift = ring.width
    out: dict[Monomial, int | Fraction] = {}
    for m, c in x.terms.items():
        # The split l x r determines m = l + r, so no key repeats.
        for left, right in _splits(ring, m):
            out[left << shift | right] = c if ring.merge_sign(left, right) > 0 else -c
    return HomologyElement(ring.square, out)
