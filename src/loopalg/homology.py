"""Homology as the dual basis of a truncated algebra.

Homology classes are rational combinations of dual basis elements, written
``dual(m)`` for a monomial m.  The evaluation pairing is the Kronecker pairing
on dual bases, and the cap product is the unique bilinear operation satisfying

    <b, cap(a, x)> = <cup(b, a), x>

Orientations give the dual of the top monomial coefficient +1.  Every signed
wrong-way value computed downstream depends on this pair of conventions, so
changing either one means re-deriving those signs.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction

from .ring import (
    Combination,
    Monomial,
    Ring,
    RingElement,
    RingMismatchError,
    TensorRing,
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
        for g, e in zip(self.ring.generators, m):
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


def dual(ring: Ring, m: Monomial, coeff: int | Fraction = 1) -> HomologyElement:
    """The dual basis class of a monomial, scaled by ``coeff``."""
    return HomologyElement(ring, {ring.check_monomial(m): coeff})


def pairing(c: RingElement, x: HomologyElement) -> int | Fraction:
    """Kronecker pairing of a cohomology element against a homology class."""
    if type(c) is not RingElement or type(x) is not HomologyElement:
        raise TypeError(f"pairing of {type(c).__name__} and {type(x).__name__}")
    if x.ring is not c.ring and c.ring != x.ring:
        raise RingMismatchError("pairing of classes over different rings")
    total = 0
    for m, cc in c.terms.items():
        cx = x.terms.get(m)
        if cx is not None:
            total += cc * cx
    return total if type(total) is int else as_coeff(total)


def cap(a: RingElement, x: HomologyElement) -> HomologyElement:
    """Cap product, the adjoint of right cup multiplication.

    On dual classes: ``cap(a, dual(m)) = merge_sign(m - a, a) * dual(m - a)``
    whenever the exponent difference stays non-negative, and 0 otherwise.
    """
    if type(a) is not RingElement or type(x) is not HomologyElement:
        raise TypeError(f"cap of {type(a).__name__} and {type(x).__name__}")
    ring = a.ring
    if x.ring is not ring and ring != x.ring:
        raise RingMismatchError("cap of classes over different rings")
    out: dict[Monomial, int | Fraction] = {}
    for ma, ca in a.terms.items():
        for mx, cx in x.terms.items():
            sub = tuple(map(operator.sub, mx, ma))
            if min(sub, default=0) < 0:
                continue
            sign = ring.merge_sign(sub, ma)
            piece = ca * cx if sign > 0 else -(ca * cx)
            out[sub] = out.get(sub, 0) + piece
    return HomologyElement(ring, out)


def _require_homogeneous(x, what: str) -> None:
    if x.terms and x.degree() is None:
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
    if c.ring != space.ring:
        raise RingMismatchError("class does not live over the space's ring")
    _require_homogeneous(c, "Poincare duality input")
    return cap(c, space.fundamental)


def pd_inverse(space: OrientedSpace, x: HomologyElement) -> RingElement:
    """Inverse duality by signed coordinate transport.

    ``pd`` sends the basis monomial ``top - m`` to ``merge_sign(m, top - m)
    * dual(m)``, a signed permutation of bases, so inverting is exact and
    needs no linear solve.
    """
    if type(x) is not HomologyElement:
        raise TypeError(f"pd_inverse of {type(x).__name__}")
    if x.ring != space.ring:
        raise RingMismatchError("class does not live over the space's ring")
    _require_homogeneous(x, "inverse duality input")
    ring = space.ring
    top = ring.top_monomial
    out: dict[Monomial, int | Fraction] = {}
    for m, c in x.terms.items():
        comp = tuple(t - e for t, e in zip(top, m))
        sign = ring.merge_sign(m, comp)
        out[comp] = out.get(comp, 0) + (c if sign > 0 else -c)
    return RingElement(ring, out)


class RingMap:
    """Degree-preserving algebra map fixed by generator images.

    Images must be homogeneous of the generator's degree (or zero) and must
    satisfy the source truncations in the target ring.
    """

    __slots__ = ("source", "target", "images", "_powers")

    def __init__(self, source: Ring, target: Ring, images: dict[str, RingElement]):
        given = set(images)
        expected = {g.name for g in source.generators}
        if given != expected:
            raise ValueError(f"images must cover exactly {sorted(expected)}")
        powers: list[list[RingElement]] = []
        for g in source.generators:
            img = images[g.name]
            if img.ring != target:
                raise RingMismatchError(f"image of {g.name!r} lives over the wrong ring")
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
        if elem.ring != self.source:
            raise RingMismatchError("element does not live over the map's source")
        out: dict[Monomial, int | Fraction] = {}
        for m, c in elem.terms.items():
            acc = None
            for pos, e in enumerate(m):
                if e:
                    power = self._powers[pos][e]
                    acc = power if acc is None else acc * power
            if acc is None:
                acc = self.target.one()
            for mono, coeff in acc.terms.items():
                out[mono] = out.get(mono, 0) + coeff * c
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
    if pullback.source != source.ring or pullback.target != target.ring:
        raise RingMismatchError("pullback does not connect the given spaces")
    if x.ring != source.ring:
        raise RingMismatchError("class does not live over the source space")
    return pd(target, pullback(pd_inverse(source, x)))


def _splits(m: Monomial):
    for left in itertools.product(*(range(e + 1) for e in m)):
        right = tuple(e - l for e, l in zip(m, left))
        yield left, right


def diagonal_pushforward(x: HomologyElement, tensor: TensorRing) -> HomologyElement:
    """Pushforward along the diagonal into ``tensor``, the square of x's ring.

    Characterized by ``<cross(a, b), result> = <cup(a, b), x>`` for all a, b.
    On a dual class this is the sum over exponent splittings ``m = l + r`` of
    ``merge_sign(l, r) * dual(l x r)``.
    """
    if type(x) is not HomologyElement:
        raise TypeError(f"diagonal_pushforward of {type(x).__name__}")
    ring = x.ring
    if tensor.left != ring or tensor.right != ring:
        raise RingMismatchError("tensor ring is not the square of the class's ring")
    out: dict[Monomial, int | Fraction] = {}
    for m, c in x.terms.items():
        for left, right in _splits(m):
            sign = ring.merge_sign(left, right)
            key = tensor.combine(left, right)
            out[key] = out.get(key, 0) + (c if sign > 0 else -c)
    return HomologyElement(tensor, out)
