"""Expression language for classes, shared by the CLI and the emitters.

Grammar (whitespace insensitive):

    expr     := term (('+' | '-') term)*
    term     := (rational '*')? atom | rational
    atom     := gen ('x' gen)?
    gen      := ('A' | 'B' | 's' | 'm') '[' nat ',' nat ']'
    rational := int ('/' nat)?

The tensor separator is the literal letter x and must be set off by
whitespace or a bracket on both sides.  A bare rational term is only legal
when it is zero, which denotes the zero class.  Formatting emits canonical
strings that parse back to the same class.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction

from .loops import (
    CohClass,
    LoopClass,
    TensorCohClass,
    TensorLoopClass,
    _class_and_key,
)
from .spaces import SpaceParams

__all__ = [
    "ClassExpr",
    "ExprError",
    "GenAtom",
    "Term",
    "evaluate",
    "format_latex",
    "format_text",
    "parse",
]

_GEN_LETTERS = "ABsm"


class ExprError(ValueError):
    """Parse or semantic error, with the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class GenAtom:
    kind: str
    k: int
    i: int


@dataclass(frozen=True)
class Term:
    coeff: Fraction
    atoms: tuple[GenAtom, ...]
    pos: int = 0


@dataclass(frozen=True)
class ClassExpr:
    terms: tuple[Term, ...]


def _numeral(text: str) -> int:
    """The one numeral rule for every number loopalg reads, else ``ValueError``.

    One or more Unicode decimal digits (``str.isdecimal``), with no sign,
    space or underscore, and at most ``sys.get_int_max_str_digits()`` of them.
    """
    if not text.isdecimal():
        raise ValueError("expected a number")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"number longer than {sys.get_int_max_str_digits()} digits") from None


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str | None:
        self._skip_ws()
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def expect(self, ch: str) -> None:
        got = self.peek()
        if got != ch:
            raise ExprError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def nat(self) -> int:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        try:
            return _numeral(self.text[start : self.pos])
        except ValueError as err:
            raise ExprError(str(err), start) from None

    def tensor_sep(self) -> bool:
        """Consume a tensor separator if one is next."""
        self._skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != "x":
            return False
        before = self.text[self.pos - 1] if self.pos > 0 else " "
        after = self.text[self.pos + 1] if self.pos + 1 < len(self.text) else " "
        if not (before.isspace() or before in "[]") or not (after.isspace() or after in "[]"):
            raise ExprError(
                "tensor separator 'x' must be set off by whitespace or brackets", self.pos
            )
        self.pos += 1
        return True


def _parse_gen(lex: _Lexer, n: int) -> GenAtom:
    lex._skip_ws()
    pos = lex.pos
    ch = lex.peek()
    if ch is None or ch not in _GEN_LETTERS:
        raise ExprError("expected a generator (one of A, B, s, m)", pos)
    lex.pos += 1
    lex.expect("[")
    k = lex.nat()
    lex.expect(",")
    i = lex.nat()
    lex.expect("]")
    if k < 1:
        raise ExprError("k must be >= 1", pos)
    if i > n - 1:
        raise ExprError(f"index out of range for n={n}", pos)
    return GenAtom(ch, k, i)


def _parse_rational(lex: _Lexer) -> Fraction:
    num = lex.nat()
    if lex.peek() == "/":
        lex.pos += 1
        pos = lex.pos
        den = lex.nat()
        if den == 0:
            raise ExprError("denominator must be positive", pos)
        return Fraction(num, den)
    return Fraction(num)


def _parse_term(lex: _Lexer, sign: int, n: int) -> Term:
    lex._skip_ws()
    pos = lex.pos
    ch = lex.peek()
    coeff = Fraction(sign)
    if ch is not None and ch.isdecimal():
        coeff = sign * _parse_rational(lex)
        if lex.peek() == "*":
            lex.pos += 1
        else:
            if coeff != 0:
                raise ExprError("constant term without a generator", pos)
            return Term(coeff, (), pos)
    atoms = [_parse_gen(lex, n)]
    if lex.tensor_sep():
        atoms.append(_parse_gen(lex, n))
    return Term(coeff, tuple(atoms), pos)


def parse(text: str, n: int) -> ClassExpr:
    """Parse an expression, validating levels and indices against n."""
    lex = _Lexer(text)
    terms: list[Term] = []
    sign = 1
    ch = lex.peek()
    if ch in ("+", "-"):
        sign = 1 if ch == "+" else -1
        lex.pos += 1
    terms.append(_parse_term(lex, sign, n))
    while True:
        ch = lex.peek()
        if ch is None:
            break
        if ch not in ("+", "-"):
            raise ExprError("expected '+' or '-'", lex.pos)
        lex.pos += 1
        terms.append(_parse_term(lex, 1 if ch == "+" else -1, n))
    return ClassExpr(tuple(terms))


def evaluate(
    expr: ClassExpr, params: SpaceParams
) -> LoopClass | CohClass | TensorLoopClass | TensorCohClass | None:
    """Build the class a parsed expression denotes; None for the bare zero.

    Loop generators (A, B) and cohomology generators (s, m) cannot be mixed,
    nor can plain and tensor terms.
    """
    cls = None
    terms: dict = {}
    for term in expr.terms:
        if not term.atoms:
            continue
        try:
            term_cls, key = _class_and_key(tuple((a.kind, a.k, a.i) for a in term.atoms))
        except ValueError as err:
            raise ExprError(str(err), term.pos) from None
        if cls is None:
            cls = term_cls
        elif term_cls.kinds != cls.kinds:
            raise ExprError("cannot mix homology and cohomology generators", term.pos)
        elif term_cls.pair != cls.pair:
            raise ExprError("cannot mix plain and tensor terms", term.pos)
        terms[key] = terms.get(key, 0) + term.coeff
    if cls is None:
        return None
    return cls(params, terms)


def format_text(obj) -> str:
    """Canonical expression string; ``parse . format_text`` is the identity.

    This is the class's own ``str``, the signed print of ``Combination``;
    ``None``, the bare zero, prints as ``0``.
    """
    return "0" if obj is None else str(obj)


def _coeff_latex(c: int | Fraction) -> str:
    sign = "-" if c < 0 else ""
    mag = abs(c)
    if mag == 1:
        return sign
    if mag.denominator == 1:
        return f"{sign}{mag.numerator}"
    return f"{sign}\\tfrac{{{mag.numerator}}}{{{mag.denominator}}}"


def format_latex(obj) -> str:
    """LaTeX rendering of a loop, cohomology or homology class.

    Each term's body comes from the class's ``_latex_body``: sub- and
    superscripted generators, or a bracketed dual monomial.
    """
    if obj is None or obj.is_zero():
        return "0"
    pieces: list[str] = []
    for key, coeff in obj.sorted_terms():
        body = obj._latex_body(key)
        if pieces:
            pieces.append("-" if coeff < 0 else "+")
            pieces.append(f"{_coeff_latex(abs(coeff))}{body}")
        else:
            pieces.append(f"{_coeff_latex(coeff)}{body}")
    return " ".join(pieces)
