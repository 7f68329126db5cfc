"""Truncated graded-commutative algebras over the rationals.

A ring is presented by an ordered list of generators, each carrying a degree
and a truncation exponent (the smallest vanishing power).  Monomials are
exponent tuples in generator order; that order is the normal form, and every
product is brought back to it, picking up a Koszul sign for each transposition
of odd-degree factors.  Coefficients are exact and kept in one canonical
form: an ``int`` when the value is integral, otherwise a `fractions.Fraction`
with denominator > 1; never a float.

Rings are not modified after construction, and the arithmetic operations
build new elements instead of changing their operands.  Elements are not
frozen, though: ``Combination.terms`` is a plain dict that any caller can
mutate, so elements are unhashable and the module makes no thread-safety
promise.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Iterable, Iterator
from fractions import Fraction

Monomial = tuple[int, ...]

__all__ = [
    "Combination",
    "Generator",
    "Monomial",
    "Ring",
    "RingElement",
    "RingMismatchError",
    "TensorRing",
    "as_coeff",
    "cross",
    "cup",
]


class RingMismatchError(TypeError):
    """Operands belong to different rings or spaces.

    A ``TypeError``, not a ``ValueError``: it signals a program fault, not bad
    input, so the CLI reports it as an internal error.
    """


def as_coeff(value: int | Fraction) -> int | Fraction:
    """An exact scalar in canonical form: ``int`` when integral, else ``Fraction``.

    An integral ``Fraction`` becomes its numerator.  Floats, bools and every
    other type are rejected outright with ``TypeError``.
    """
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int) and not isinstance(value, bool):
        return int(value)
    raise TypeError(f"exact rational expected, not {type(value).__name__}")


def _require_int(what: str, value) -> None:
    """Refuse a non-int value, bools included, naming it ``what``."""
    # A float or bool would pass range checks, and fail only when used.
    if type(value) is not int:
        raise TypeError(f"{what} must be an int, not {value!r}")


class _Frozen:
    """Base of the immutable value types: compared, hashed and printed by field.

    A subclass lists its compared fields in ``_fields``, in the order its
    ``__init__`` takes them, and ``__init__`` sets every slot once with
    ``object.__setattr__`` or the slot's own descriptor.  ``repr``, ``==`` and
    ``hash`` read ``_fields`` only, an instance equals only instances of its
    own class, and assigning or deleting an attribute raises ``AttributeError``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._astuple = operator.attrgetter(*cls._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple(self) == self._astuple(other)

    def __hash__(self) -> int:
        return hash(self._astuple(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._astuple(self)))
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        """Copy and pickle through ``__init__``, which takes the fields in order."""
        return type(self), self._astuple(self)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Generator(_Frozen):
    """A ring generator; ``g ** truncation == 0`` is the defining relation.

    An odd-degree generator squares to zero over the rationals by graded
    commutativity, so odd degree forces truncation 2.
    """

    __slots__ = _fields = ("name", "degree", "truncation")

    def __init__(self, name: str, degree: int, truncation: int) -> None:
        if not isinstance(name, str):  # monomial_str joins names as text
            raise TypeError(f"generator name must be a str, not {name!r}")
        _require_int(f"generator {name!r}: degree", degree)
        _require_int(f"generator {name!r}: truncation", truncation)
        if degree < 0:
            raise ValueError(f"generator {name!r}: degree must be non-negative")
        if truncation < 2:
            raise ValueError(f"generator {name!r}: truncation must be at least 2")
        if degree % 2 == 1 and truncation != 2:
            raise ValueError(f"generator {name!r}: odd degree forces truncation 2")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "truncation", truncation)


class Ring:
    """``Q[g_1, ..., g_r] / (g_i ** t_i)`` with declaration order as normal form.

    Monomials are plain exponent tuples aligned with ``generators``.  The top
    monomial (every exponent at ``truncation - 1``) is the unique monomial of
    maximal degree; keeping it unique is why degree-0 generators are refused.
    """

    def __init__(self, generators: Iterable[Generator]):
        gens = tuple(generators)
        names = [g.name for g in gens]
        if len(set(names)) != len(names):
            raise ValueError("generator names must be unique within a ring")
        for g in gens:
            if g.degree == 0:
                raise ValueError(
                    f"generator {g.name!r}: degree 0 would make the top monomial non-unique"
                )
        self.generators = gens
        self.degrees = tuple(g.degree for g in gens)
        self.truncations = tuple(g.truncation for g in gens)
        self.index = {g.name: pos for pos, g in enumerate(gens)}
        self.top_monomial: Monomial = tuple(t - 1 for t in self.truncations)
        self.top_degree = self.monomial_degree(self.top_monomial)
        self._odd_positions = tuple(
            pos for pos, d in enumerate(self.degrees) if d % 2 == 1
        )

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, Ring) and self.generators == other.generators
        )

    def __hash__(self) -> int:
        return hash(self.generators)

    def __repr__(self) -> str:
        body = ", ".join(f"{g.name}:{g.degree}^{g.truncation}" for g in self.generators)
        return f"Ring({body})"

    # -- monomials -----------------------------------------------------

    def monomial(self, exponents: dict[str, int] | None = None) -> Monomial:
        """Build a monomial from a name -> exponent mapping, checking bounds."""
        exps = [0] * len(self.generators)
        for name, e in (exponents or {}).items():
            if name not in self.index:
                raise KeyError(f"unknown generator {name!r}")
            pos = self.index[name]
            if type(e) is not int or not 0 <= e < self.truncations[pos]:
                _require_int(f"exponent of {name!r}", e)
                raise ValueError(
                    f"exponent {e} of {name!r} outside [0, {self.truncations[pos]})"
                )
            exps[pos] = e
        return tuple(exps)

    def check_monomial(self, m: Iterable[int]) -> Monomial:
        """``m`` as a tuple, after checking its length and exponents against the ring."""
        m = tuple(m)
        if len(m) != len(self.generators):
            raise ValueError(f"monomial {m} has wrong length for {self!r}")
        for e, t in zip(m, self.truncations):
            # One test per exponent; a failing one is refused as a non-int first.
            if type(e) is not int or not 0 <= e < t:
                _require_int("exponent", e)
                raise ValueError(f"exponent out of range in monomial {m}")
        return m

    def monomial_degree(self, m: Monomial) -> int:
        return sum(map(operator.mul, self.degrees, m))

    def exponents_by_name(self, m: Monomial) -> dict[str, int]:
        """Nonzero exponents of ``m`` keyed by generator name, in ring order."""
        return {g.name: e for g, e in zip(self.generators, m) if e}

    def monomial_str(self, m: Monomial) -> str:
        parts = []
        for g, e in zip(self.generators, m):
            if e == 0:
                continue
            parts.append(g.name if e == 1 else f"{g.name}^{e}")
        return " ".join(parts) if parts else "1"

    def monomials(self) -> Iterator[Monomial]:
        """All monomials of the ring, in lexicographic exponent order."""
        return itertools.product(*(range(t) for t in self.truncations))

    # -- products --------------------------------------------------------

    def merge_sign(self, left: Monomial, right: Monomial) -> int:
        """Koszul sign of normal-ordering the concatenation ``left * right``.

        Counts the transpositions of odd-degree factors: one for every pair
        of positions i > j with an odd generator of ``left`` at i moving past
        an odd generator of ``right`` at j.  One pass over the odd positions
        keeps the running count of odd factors of ``right`` seen so far, so
        the cost is linear in the number of generators.
        """
        total = seen = 0
        for i in self._odd_positions:
            total += left[i] * seen
            seen += right[i]
        return -1 if total & 1 else 1

    def mul_monomials(self, ma: Monomial, mb: Monomial) -> tuple[Monomial, int] | None:
        """Merged monomial and sign of ``ma * mb``, or None if truncated away."""
        out = []
        for e1, e2, t in zip(ma, mb, self.truncations):
            e = e1 + e2
            if e >= t:
                return None
            out.append(e)
        return tuple(out), self.merge_sign(ma, mb)

    # -- elements --------------------------------------------------------

    def zero(self) -> RingElement:
        return RingElement(self, {})

    def one(self) -> RingElement:
        return RingElement(self, {(0,) * len(self.generators): 1})

    def gen(self, name: str) -> RingElement:
        return RingElement(self, {self.monomial({name: 1}): 1})

    def element(self, terms: dict[Monomial, int | Fraction]) -> RingElement:
        """Validating element constructor for externally built exponent tuples."""
        return RingElement(self, {self.check_monomial(m): c for m, c in terms.items()})

    # -- enumeration -----------------------------------------------------

    def poincare_series(self, max_degree: int) -> list[tuple[int, int]]:
        """Pairs ``(d, dim)`` for d = 0 .. max_degree, counted without signs."""
        _require_int("degree", max_degree)
        if max_degree < 0:
            raise ValueError("degree must be non-negative")
        dims = [0] * (max_degree + 1)
        dims[0] = 1
        for g in self.generators:
            acc = [0] * (max_degree + 1)
            for e in range(g.truncation):
                shift = e * g.degree
                if shift > max_degree:
                    break
                for d in range(max_degree + 1 - shift):
                    if dims[d]:
                        acc[d + shift] += dims[d]
            dims = acc
        return list(enumerate(dims))


class Combination:
    """Sparse rational combination of keys over an owner, a ring or a space.

    ``terms`` maps each key to its nonzero coefficient in the canonical form
    of ``as_coeff``: an ``int``, or a ``Fraction`` with denominator > 1.  The
    ring, homology and loop-class types share this arithmetic.  A subclass
    supplies the degree and the printed body of a key through
    ``_key_degree`` and ``_body``, and names the owner by binding the
    ``owner`` slot descriptor under a second name (``ring``, ``params``), so
    the alias reads as fast as the slot itself.  Classes the CLI prints also
    give a key's LaTeX body and JSON fields through ``_latex_body`` and
    ``_json_body``.
    """

    __slots__ = ("owner", "terms")

    def __init__(self, owner, terms: dict):
        clean: dict = {}
        for key, c in terms.items():
            if type(c) is not int:
                c = as_coeff(c)
            if c:
                clean[key] = c
        self.owner = owner
        self.terms = clean

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _key_degree(self, key) -> int:
        return self.owner.monomial_degree(key)

    def degree(self) -> int | None:
        """The common degree of all keys, or None when mixed or zero."""
        degs = {self._key_degree(key) for key in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if self.owner != other.owner:
            raise RingMismatchError(
                f"sum of {type(self).__name__}s over different rings or spaces"
            )
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0) + c
        return type(self)(self.owner, out)

    def __neg__(self):
        return type(self)(self.owner, {key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: int | Fraction):
        scalar = as_coeff(other)
        return type(self)(self.owner, {key: c * scalar for key, c in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is type(self)
            and (self.owner is other.owner or self.owner == other.owner)
            and self.terms == other.terms
        )

    __hash__ = None  # mutable container semantics

    def _sort_key(self, key):
        return (self._key_degree(key), key)

    def sorted_terms(self) -> list[tuple[object, int | Fraction]]:
        """``(key, coefficient)`` pairs in printing order."""
        return [(key, self.terms[key]) for key in sorted(self.terms, key=self._sort_key)]

    def _body(self, key) -> str:
        raise NotImplementedError

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for key, c in self.sorted_terms():
            body = self._body(key)
            if body == "1":  # the unit monomial prints as its coefficient
                bits.append(str(c))
            elif c == 1:
                bits.append(body)
            elif c == -1:
                bits.append(f"-{body}")
            else:
                bits.append(f"{c}*{body}")
        return " + ".join(bits).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"<{self}>"


class RingElement(Combination):
    """Sparse rational combination of normal-ordered monomials."""

    __slots__ = ()

    ring = Combination.owner

    def _body(self, m: Monomial) -> str:
        return self.ring.monomial_str(m)

    def __mul__(self, other: RingElement | int | Fraction) -> RingElement:
        if isinstance(other, RingElement):
            return cup(self, other)
        return super().__mul__(other)

    def __pow__(self, power: int) -> RingElement:
        # A bool would pass for 0 or 1; it is refused, as ``as_coeff`` refuses it.
        _require_int("power", power)
        if power < 0:
            raise ValueError("power must be a non-negative integer")
        out = self.ring.one()
        for _ in range(power):
            out = cup(out, self)
        return out


def cup(a: RingElement, b: RingElement) -> RingElement:
    """Graded product of ``a`` and ``b``; truncated monomials drop out."""
    if type(a) is not RingElement or type(b) is not RingElement:
        raise TypeError(f"cup of {type(a).__name__} and {type(b).__name__}")
    ring = a.ring
    if b.ring is not ring and ring != b.ring:
        raise RingMismatchError("cup of elements over different rings")
    out: dict[Monomial, int | Fraction] = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            hit = ring.mul_monomials(ma, mb)
            if hit is None:
                continue
            m, sign = hit
            piece = ca * cb if sign > 0 else -(ca * cb)
            out[m] = out.get(m, 0) + piece
    return RingElement(ring, out)


class TensorRing(Ring):
    """Ring of a cross product, left factor's generators first.

    Either side's generator names are kept when possible; a right-hand name
    colliding with a used one is prefixed with ``r.`` until it is free.
    """

    def __init__(self, left: Ring, right: Ring):
        taken = {g.name for g in left.generators}
        gens = list(left.generators)
        for g in right.generators:
            name = g.name
            while name in taken:
                name = f"r.{name}"
            taken.add(name)
            gens.append(Generator(name, g.degree, g.truncation))
        super().__init__(gens)
        self.left = left
        self.right = right
        self._split_at = len(left.generators)

    def combine(self, ml: Monomial, mr: Monomial) -> Monomial:
        """Concatenate factor monomials; no sign, the order is already normal."""
        return ml + mr

    def split(self, m: Monomial) -> tuple[Monomial, Monomial]:
        return m[: self._split_at], m[self._split_at :]

    def monomial_str(self, m: Monomial) -> str:
        ml, mr = self.split(m)
        return f"{self.left.monomial_str(ml)} x {self.right.monomial_str(mr)}"


def cross(a: Combination, b: Combination, tensor: TensorRing) -> Combination:
    """Embed the pair (a, b) as a product monomial of the tensor ring.

    Works for ring elements and for homology classes alike; the result has
    the operands' type.  No sign appears here; the Koszul sign of the usual
    product rule ``(a x b)(c x d) = (-1)^(|b||c|) (ac x bd)`` falls out of
    ``cup`` on the merged monomials.
    """
    if type(a) is not type(b):
        raise TypeError(f"cross of {type(a).__name__} and {type(b).__name__}")
    if tensor.left != a.owner or tensor.right != b.owner:
        raise RingMismatchError("cross factors do not match the tensor ring")
    out: dict[Monomial, int | Fraction] = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            m = tensor.combine(ma, mb)
            out[m] = out.get(m, 0) + ca * cb
    return type(a)(tensor, out)
