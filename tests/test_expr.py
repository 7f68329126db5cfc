"""Expression grammar: parsing, evaluation, canonical formatting."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopalg import (
    CohClass,
    ExprError,
    Generator,
    HomologyElement,
    LoopClass,
    Ring,
    SpaceParams,
    TensorCohClass,
    TensorLoopClass,
    catalog_for,
    evaluate,
    format_latex,
    format_text,
    parse,
)

CP3 = SpaceParams.from_token("cp", 3)


def ev(text, params=CP3):
    return evaluate(parse(text, params.n), params)


class TestParse:
    def test_single_generator(self):
        v = ev("A[2,1]")
        assert v == LoopClass.generator(CP3, "A", 2, 1)

    def test_coefficients_and_signs(self):
        v = ev("2*A[1,0] - 3/2*B[2,1] + A[1,0]")
        expect = LoopClass(
            CP3,
            {("A", 1, 0): Fraction(3), ("B", 2, 1): Fraction(-3, 2)},
        )
        assert v == expect

    def test_leading_sign(self):
        assert ev("-A[1,0]") == -LoopClass.generator(CP3, "A", 1, 0)
        assert ev("+A[1,0]") == LoopClass.generator(CP3, "A", 1, 0)

    def test_tensor_terms(self):
        v = ev("A[1,0] x B[1,1]")
        assert isinstance(v, TensorLoopClass)
        assert v.terms == {(("A", 1, 0), ("B", 1, 1)): Fraction(1)}

    def test_cohomology_generators(self):
        v = ev("s[1,0] + m[1,2]")
        assert isinstance(v, CohClass)
        v = ev("s[1,0] x m[1,2]")
        assert isinstance(v, TensorCohClass)

    def test_zero_literal(self):
        assert ev("0") is None
        assert ev("0/5") is None

    def test_cancellation_to_zero(self):
        assert ev("A[1,0] - A[1,0]").is_zero()

    def test_whitespace_insensitive_except_tensor(self):
        assert ev("  2 * A[ 1 , 0 ]  ") == ev("2*A[1,0]")

    def test_brackets_satisfy_tensor_separation(self):
        # ']' before and whitespace after the 'x' is enough
        assert ev("A[1,0]x B[1,1]") == ev("A[1,0] x B[1,1]")


class TestParseErrors:
    def err(self, text, params=CP3):
        with pytest.raises(ExprError) as info:
            ev(text, params)
        return str(info.value)

    def test_level_bound(self):
        msg = self.err("A[0,1]")
        assert "k must be >= 1" in msg

    def test_index_bound_names_n(self):
        msg = self.err("A[1,3]")
        assert "index out of range for n=3" in msg

    def test_unseparated_tensor(self):
        msg = self.err("A[1,0]xB[1,1]")
        assert "tensor separator" in msg
        assert "(at position 6)" in msg

    def test_bare_rational(self):
        assert "constant term" in self.err("5")
        assert "constant term" in self.err("1/2 + A[1,0]")

    def test_zero_denominator(self):
        assert "denominator" in self.err("1/0*A[1,0]")

    def test_trailing_junk(self):
        assert "'+' or '-'" in self.err("A[1,0] B[1,1]")

    def test_unclosed_bracket(self):
        assert "expected" in self.err("A[1,0")

    def test_mixed_families(self):
        assert "mix" in self.err("A[1,0] + s[1,0]")

    def test_mixed_plain_and_tensor(self):
        assert "mix" in self.err("A[1,0] + A[1,0] x A[1,0]")

    def test_double_tensor(self):
        assert "'+' or '-'" in self.err("A[1,0] x A[1,0] x A[1,0]")

    def test_non_decimal_digit_in_index(self):
        # '²' passes str.isdigit() but int() rejects it.
        assert self.err("A[\u00b2,1]").endswith("expected a number (at position 2)")

    def test_non_decimal_digit_as_coefficient(self):
        msg = self.err("\u00b2*A[1,1]")
        assert msg.endswith("expected a generator (one of A, B, s, m) (at position 0)")

    def test_other_script_decimal_digits_still_parse(self):
        # ARABIC-INDIC DIGIT THREE is a decimal digit that int() accepts.
        assert parse("A[\u0663,1]", 3) == parse("A[3,1]", 3)

    def test_empty_input(self):
        assert "generator" in self.err("")

    def test_position_is_reported(self):
        with pytest.raises(ExprError) as info:
            ev("A[1,0] + A[0,0]")
        assert info.value.position == 9
        assert "(at position 9)" in str(info.value)


class TestFormat:
    def test_zero(self):
        assert format_text(None) == "0"
        assert format_text(LoopClass.zero(CP3)) == "0"

    def test_sorted_canonical_order(self):
        v = ev("B[1,0] + A[2,1] + A[1,0]")
        assert format_text(v) == "A[1,0] + A[2,1] + B[1,0]"

    def test_coefficient_rendering(self):
        v = ev("-A[1,0] + 3/2*B[1,1] - 2*B[2,0]")
        assert format_text(v) == "-A[1,0] + 3/2*B[1,1] - 2*B[2,0]"

    def test_tensor_rendering(self):
        v = ev("A[1,0] x B[1,1] - 1/3*B[1,0] x A[1,1]")
        assert format_text(v) == "A[1,0] x B[1,1] - 1/3*B[1,0] x A[1,1]"

    def test_latex(self):
        assert format_latex(ev("A[2,1]")) == "A_{2}^{1}"
        assert format_latex(ev("-3/2*s[1,0] x m[1,1]")) == (
            "-\\tfrac{3}{2}\\sigma_{1}^{0} \\times \\mu_{1}^{1}"
        )
        assert format_latex(None) == "0"

    def test_homology_class(self):
        ring = Ring([Generator("a", 2, 3), Generator("x1", 1, 2), Generator("x2", 3, 2)])
        x = HomologyElement(
            ring,
            {
                ring.check_monomial(m): c
                for m, c in {
                    (0, 1, 1): Fraction(-3, 4),
                    (2, 0, 0): 1,
                    (2, 1, 0): -2,
                    (1, 1, 1): -1,
                    (2, 1, 1): Fraction(3, 2),
                }.items()
            },
        )
        assert format_text(x) == (
            "-3/4*[x1 x2] + [a^2] - 2*[a^2 x1] - [a x1 x2] + 3/2*[a^2 x1 x2]"
        )
        # a negative fraction in front keeps its sign outside \tfrac
        assert format_latex(x) == (
            "-\\tfrac{3}{4}[x_{1} x_{2}] + [a^{2}] - 2[a^{2} x_{1}]"
            " - [a x_{1} x_{2}] + \\tfrac{3}{2}[a^{2} x_{1} x_{2}]"
        )

    def test_homology_class_with_fiber_generator(self):
        ring = catalog_for(CP3).sm_pair.ring
        x = HomologyElement(
            ring, {ring.monomial({"xi": 1}): -1, ring.monomial({"a": 2, "b": 1, "xi": 1}): 2}
        )
        assert format_text(x) == "-[xi] + 2*[a^2 b xi]"
        assert format_latex(x) == "-[\\xi] + 2[a^{2} b \\xi]"


def _class_strategy(cls, kinds, pair):
    keys = st.tuples(
        st.sampled_from(kinds),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=CP3.n - 1),
    )
    if pair:
        keys = st.tuples(keys, keys)
    coeffs = st.fractions(
        min_value=Fraction(-9), max_value=Fraction(9), max_denominator=12
    )
    return st.builds(
        lambda pairs: cls(CP3, dict(pairs)),
        st.lists(st.tuples(keys, coeffs), max_size=5),
    )


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(
        v=st.one_of(
            _class_strategy(LoopClass, "AB", False),
            _class_strategy(CohClass, "sm", False),
            _class_strategy(TensorLoopClass, "AB", True),
            _class_strategy(TensorCohClass, "sm", True),
        )
    )
    def test_parse_after_format_is_identity(self, v):
        text = format_text(v)
        assert str(v) == text
        back = evaluate(parse(text, CP3.n), CP3)
        if v.is_zero():
            assert back is None
        else:
            assert type(back) is type(v)
            assert back == v

    @settings(max_examples=100, deadline=None)
    @given(v=_class_strategy(LoopClass, "AB", False))
    def test_format_is_stable(self, v):
        text = format_text(v)
        back = evaluate(parse(text, CP3.n), CP3)
        assert format_text(back) == text
