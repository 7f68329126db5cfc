"""Truncated graded-commutative algebras over the rationals.

A ring is presented by an ordered list of generators, each carrying a degree
and a truncation exponent (the smallest vanishing power).  A monomial is one
``int`` that packs its exponents in generator order: generator 0 in the most
significant bits, a generator of truncation 2 (every odd one) in one bit, and
any other generator in a field just wide enough for its truncation.  Numeric
order is then lexicographic exponent order, which is the normal form.  A
product is an overlap test on the one-bit slots, a range test per wide field
and an add; it picks up a Koszul sign for each transposition of odd-degree
factors, which ``Ring.merge_sign`` reads off the odd bits with a popcount.
Exponent tuples appear only at the boundary: ``Ring.monomial``,
``check_monomial``, ``unpack`` and the printers.  Coefficients are exact and
kept in one canonical form: an ``int`` when the value is integral, otherwise
a `fractions.Fraction` with denominator > 1; never a float.

Rings are not modified after construction; a ring builds its tensor square,
``Ring.square``, once, on first use.  The arithmetic operations
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
from functools import cached_property

Monomial = int

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


def _require_same(a, b, message: str, *args):
    """The owner rule: ``a`` if ``b`` is ``a`` or equals it; else a ``RingMismatchError``.

    The kernel's hot entries (``cup``, ``cap``, ``pairing``, ``cross``, the sum
    of two classes and ``gh_product``) test ``b is a`` inline and call this
    only for two distinct owners, so it stays the one rule for equal owners
    and the one place a refusal is formatted.
    """
    if b is a or a == b:
        return a
    raise RingMismatchError(message.format(*args))


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
        if type(degree) is not int or type(truncation) is not int:
            # Refuse the first non-int, formatting its text only now.
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

    Monomials are packed ints (see the module docstring); ``width`` is the
    number of bits they span.  The top monomial (every exponent at
    ``truncation - 1``) is the unique monomial of maximal degree; keeping it
    unique is why degree-0 generators are refused.
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
        self.truncations = tuple(g.truncation for g in gens)
        self.index = {g.name: pos for pos, g in enumerate(gens)}
        # (shift, mask) of each generator's slot, the last generator at bit 0.
        slots = []
        shift = 0
        for t in reversed(self.truncations):
            width = (t - 1).bit_length()
            slots.append((shift, (1 << width) - 1))
            shift += width
        self._slots = tuple(reversed(slots))
        self.width = shift
        bit_masks: dict[int, int] = {}  # degree -> one-bit slots of that degree
        fields = []  # (shift, mask, truncation, degree) of each wider slot
        odd = 0
        for g, (shift, mask) in zip(gens, self._slots):
            if g.truncation == 2:
                bit_masks[g.degree] = bit_masks.get(g.degree, 0) | 1 << shift
                odd |= (g.degree & 1) << shift
            else:
                fields.append((shift, mask, g.truncation, g.degree))
        self._bits = sum(bit_masks.values())
        self._bit_degrees = tuple((mask, d) for d, mask in bit_masks.items())
        self._fields = tuple(fields)
        self._odd = odd
        # Shifts of the prefix-parity scan, enough to span every pair of odd bits.
        self._scan = tuple(1 << j for j in range(max(odd.bit_length() - 1, 0).bit_length()))
        self.top_monomial: Monomial = self._pack(t - 1 for t in self.truncations)
        self.top_degree = self.monomial_degree(self.top_monomial)

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, Ring) and self.generators == other.generators
        )

    def __hash__(self) -> int:
        return hash(self.generators)

    def __repr__(self) -> str:
        body = ", ".join(f"{g.name}:{g.degree}^{g.truncation}" for g in self.generators)
        return f"Ring({body})"

    @cached_property
    def square(self) -> TensorRing:
        """The tensor square ``self x self``, where cross products and pushforwards live.

        One object per ring, so classes over it meet the kernel's identity tests.
        """
        return TensorRing(self)

    # -- monomials -----------------------------------------------------

    def _pack(self, exponents: Iterable[int]) -> Monomial:
        """The packed monomial of in-range exponents in generator order, unchecked."""
        m = 0
        for (shift, _), e in zip(self._slots, exponents):
            m |= e << shift
        return m

    def unpack(self, m: Monomial) -> tuple[int, ...]:
        """The exponent tuple of a packed monomial, in generator order."""
        return tuple((m >> shift) & mask for shift, mask in self._slots)

    def monomial(self, exponents: dict[str, int] | None = None) -> Monomial:
        """Build a monomial from a name -> exponent mapping, checking bounds."""
        m = 0
        for name, e in (exponents or {}).items():
            if name not in self.index:
                raise KeyError(f"unknown generator {name!r}")
            pos = self.index[name]
            if type(e) is not int or not 0 <= e < self.truncations[pos]:
                _require_int(f"exponent of {name!r}", e)
                raise ValueError(
                    f"exponent {e} of {name!r} outside [0, {self.truncations[pos]})"
                )
            m |= e << self._slots[pos][0]
        return m

    def check_monomial(self, m: Monomial | Iterable[int]) -> Monomial:
        """``m``, packed or an exponent sequence, as a packed monomial of this ring.

        A sequence needs one int exponent per generator, each below its
        truncation; a packed int needs every slot below its truncation.
        """
        if isinstance(m, int):
            _require_int("packed monomial", m)
            # Every slot is below its truncation when m divides the top monomial.
            if m < 0 or m >> self.width or self.div_monomials(self.top_monomial, m) is None:
                raise ValueError(f"packed monomial {m} is not a monomial of {self!r}")
            return m
        exps = tuple(m)
        if len(exps) != len(self.generators):
            raise ValueError(f"monomial {exps} has wrong length for {self!r}")
        for e, t in zip(exps, self.truncations):
            # One test per exponent; a failing one is refused as a non-int first.
            if type(e) is not int or not 0 <= e < t:
                _require_int("exponent", e)
                raise ValueError(f"exponent out of range in monomial {exps}")
        return self._pack(exps)

    def monomial_degree(self, m: Monomial) -> int:
        total = 0
        for mask, d in self._bit_degrees:
            total += d * (m & mask).bit_count()
        for shift, mask, _, d in self._fields:
            total += d * ((m >> shift) & mask)
        return total

    def exponents_by_name(self, m: Monomial) -> dict[str, int]:
        """Nonzero exponents of ``m`` keyed by generator name, in ring order."""
        return {g.name: e for g, e in zip(self.generators, self.unpack(m)) if e}

    def monomial_str(self, m: Monomial) -> str:
        parts = []
        for g, e in zip(self.generators, self.unpack(m)):
            if e == 0:
                continue
            parts.append(g.name if e == 1 else f"{g.name}^{e}")
        return " ".join(parts) if parts else "1"

    def monomials(self) -> Iterator[Monomial]:
        """All monomials of the ring, in lexicographic exponent order."""
        return map(self._pack, itertools.product(*(range(t) for t in self.truncations)))

    # -- products --------------------------------------------------------

    def merge_sign(self, left: Monomial, right: Monomial) -> int:
        """Koszul sign of normal-ordering the concatenation ``left * right``.

        Counts the transpositions of odd-degree factors: one for every pair
        of positions i > j with an odd generator of ``left`` at i moving past
        an odd generator of ``right`` at j.  Generator 0 is the most
        significant bit, so that is the parity of ``left``'s odd bits
        against the parity of ``right``'s odd bits strictly above each: a
        prefix-parity scan of O(log r) xor-shifts, then one popcount.
        """
        left &= self._odd
        if not left:
            return 1
        right &= self._odd
        for s in self._scan:
            right ^= right >> s
        return -1 if (left & (right >> 1)).bit_count() & 1 else 1

    def mul_monomials(self, ma: Monomial, mb: Monomial) -> tuple[Monomial, int] | None:
        """Merged monomial and sign of ``ma * mb``, or None if truncated away."""
        if ma & mb & self._bits:
            return None
        for shift, mask, t, _ in self._fields:
            if ((ma >> shift) & mask) + ((mb >> shift) & mask) >= t:
                return None
        return ma + mb, self.merge_sign(ma, mb)

    def div_monomials(self, m: Monomial, d: Monomial) -> Monomial | None:
        """The monomial ``m / d``, or None unless ``d`` divides ``m``; no sign."""
        if d & ~m & self._bits:
            return None
        for shift, mask, _, _ in self._fields:
            if (d >> shift) & mask > (m >> shift) & mask:
                return None
        return m - d

    # -- elements --------------------------------------------------------

    def zero(self) -> RingElement:
        return RingElement(self, {})

    def one(self) -> RingElement:
        return RingElement(self, {0: 1})

    def gen(self, name: str) -> RingElement:
        return RingElement(self, {self.monomial({name: 1}): 1})

    def element(self, terms: dict[Monomial, int | Fraction]) -> RingElement:
        """Validating element constructor; each key goes through ``check_monomial``."""
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

    @classmethod
    def _built(cls, owner, terms: dict):
        """An element that owns ``terms`` as given, with no coefficient cleaned.

        Use it only when every coefficient is already canonical (``as_coeff``)
        and nonzero, as in a product where no key repeats: each piece is then
        a product of nonzero canonical coefficients passed through
        ``as_coeff``.  Any other input breaks the ``terms`` invariant.
        ``_built`` means this everywhere; a sum that can cancel is cleaned by
        ``__init__`` or, for the loop classes, ``_FormalSum._cleaned``.
        """
        out = object.__new__(cls)
        out.owner = owner
        out.terms = terms
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _key_degree(self, key) -> int:
        return self.owner.monomial_degree(key)

    def degree(self) -> int | None:
        """The common degree of all keys, or None when mixed or zero."""
        if len(self.terms) == 1:
            (key,) = self.terms
            return self._key_degree(key)
        degs = {self._key_degree(key) for key in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        owner = self.owner
        if other.owner is not owner:
            wrong = "sum of {.__name__}s over different rings or spaces"
            _require_same(owner, other.owner, wrong, type(self))
        out = dict(self.terms)
        for key, c in other.terms.items():
            if key in out:
                out[key] += c
            else:
                out[key] = c
        return type(self)(owner, out)

    def __neg__(self):
        # The negative of a canonical, nonzero coefficient is one too, on the same keys.
        return self._built(self.owner, {key: -c for key, c in self.terms.items()})

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
        if type(other) is RingElement:
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
    """Graded product of ``a`` and ``b``; truncated monomials drop out.

    A new monomial's piece is stored in canonical form, and a repeated one's
    is added in place.  With no repeat every piece is a nonzero canonical
    product, built as it stands; otherwise the sum is cleaned once.
    """
    if type(a) is not RingElement or type(b) is not RingElement:
        raise TypeError(f"cup of {type(a).__name__} and {type(b).__name__}")
    ring = a.ring
    if b.ring is not ring:
        _require_same(ring, b.ring, "cup of elements over different rings")
    out: dict[Monomial, int | Fraction] = {}
    repeat = False
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            hit = ring.mul_monomials(ma, mb)
            if hit is None:
                continue
            m, sign = hit
            piece = ca * cb if sign > 0 else -(ca * cb)
            if m in out:
                out[m] += piece
                repeat = True
            else:
                out[m] = piece if type(piece) is int else as_coeff(piece)
    return RingElement(ring, out) if repeat else RingElement._built(ring, out)


class TensorRing(Ring):
    """Tensor square of a ring, the left factor's generators first.

    A right-hand name colliding with a used one is prefixed with ``r.`` until
    it is free, as the ring may already hold an ``r.`` name.  A pair of factor
    monomials concatenates with no sign, the left one shifted above the
    right one's ``width`` bits; reach the square as ``ring.square``.
    """

    def __init__(self, ring: Ring):
        taken = {g.name for g in ring.generators}
        gens = list(ring.generators)
        for g in ring.generators:
            name = g.name
            while name in taken:
                name = f"r.{name}"
            taken.add(name)
            gens.append(Generator(name, g.degree, g.truncation))
        super().__init__(gens)
        self.factor = ring
        self._split_at = ring.width
        self._right = (1 << ring.width) - 1

    def split(self, m: Monomial) -> tuple[Monomial, Monomial]:
        return m >> self._split_at, m & self._right

    def monomial_str(self, m: Monomial) -> str:
        ml, mr = self.split(m)
        return f"{self.factor.monomial_str(ml)} x {self.factor.monomial_str(mr)}"


def cross(a: Combination, b: Combination) -> Combination:
    """The pair (a, b) as a product monomial of the square of their ring.

    Works for ring elements and for homology classes alike, not for classes
    over a space; the result has the operands' type.  No sign appears here; the Koszul sign of the usual
    product rule ``(a x b)(c x d) = (-1)^(|b||c|) (ac x bd)`` falls out of
    ``cup`` on the merged monomials.
    """
    if type(a) is not type(b) or not isinstance(a.owner, Ring):
        raise TypeError(f"cross of {type(a).__name__} and {type(b).__name__}")
    ring = a.owner
    if b.owner is not ring:
        _require_same(ring, b.owner, "cross of classes over different rings")
    # Distinct factor pairs concatenate to distinct monomials.
    shift = ring.width
    out = {ma << shift | mb: ca * cb for ma, ca in a.terms.items() for mb, cb in b.terms.items()}
    return type(a)(ring.square, out)
