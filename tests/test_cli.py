"""End-to-end CLI behavior: output shapes, formats, exit codes."""

import json
import sys
import time

import pytest

from loopalg import Report
from loopalg.cli import EXIT_INTERNAL, run
from loopalg.loops import PipelineMatchError
from loopalg.ring import RingMismatchError


def call(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def call_json(capsys, *argv):
    code, out, err = call(capsys, *argv, "--format", "json")
    assert code == 0, err
    return json.loads(out)


class TestCoproduct:
    def test_text_output(self, capsys):
        code, out, err = call(capsys, "--space", "cp", "--n", "2", "coproduct", "A[3,1]")
        assert code == 0
        assert out.strip() == (
            "A[1,0] x A[2,1] + A[1,1] x A[2,0] + A[2,0] x A[1,1] + A[2,1] x A[1,0]"
        )

    def test_routes_agree(self, capsys):
        argv = ["--space", "hp", "--n", "2", "coproduct", "B[3,1]"]
        code1, out1, _ = call(capsys, *argv, "--route", "closed")
        code2, out2, _ = call(capsys, *argv, "--route", "pipeline")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_json_schema(self, capsys):
        rec = call_json(capsys, "--space", "cp", "--n", "2", "coproduct", "A[3,1]")
        assert set(rec) == {"space", "n", "command", "result", "degree"}
        assert rec["space"] == "cp"
        assert rec["n"] == 2
        assert rec["command"] == "coproduct"
        assert rec["degree"] == 8
        assert rec["result"]["route"] == "closed"
        assert rec["result"]["input"] == "A[3,1]"
        assert len(rec["result"]["terms"]) == 4
        first = rec["result"]["terms"][0]
        assert first["coeff"] == "1"
        assert first["gen"] == [
            {"kind": "A", "k": 1, "i": 0},
            {"kind": "A", "k": 2, "i": 1},
        ]

    def test_level_one_gives_zero(self, capsys):
        code, out, _ = call(capsys, "--space", "cp", "--n", "2", "coproduct", "A[1,1]")
        assert code == 0
        assert out.strip() == "0"

    def test_latex_format(self, capsys):
        code, out, _ = call(
            capsys, "--space", "cp", "--n", "2", "coproduct", "A[2,0]",
            "--format", "latex",
        )
        assert code == 0
        assert out.strip() == "A_{1}^{0} \\times A_{1}^{0}"

    def test_fractional_coefficients_survive_json(self, capsys):
        rec = call_json(
            capsys, "--space", "cp", "--n", "2", "coproduct", "1/3*A[2,0]"
        )
        assert rec["result"]["terms"][0]["coeff"] == "1/3"


class TestProduct:
    def test_two_arguments(self, capsys):
        code, out, _ = call(
            capsys, "--space", "cp", "--n", "2", "product", "s[1,0]", "s[2,1]"
        )
        assert code == 0
        assert out.strip() == "s[3,1]"

    def test_single_tensor_argument(self, capsys):
        code, out, _ = call(
            capsys, "--space", "cp", "--n", "2", "product",
            "s[1,0] x m[1,1] + m[1,0] x s[1,1]",
        )
        assert code == 0
        assert out.strip() == "2*m[2,1]"

    def test_vanishing_product(self, capsys):
        code, out, _ = call(
            capsys, "--space", "cp", "--n", "2", "product", "m[1,0]", "m[1,1]"
        )
        assert code == 0
        assert out.strip() == "0"

    def test_json_input_echo(self, capsys):
        rec = call_json(
            capsys, "--space", "hp", "--n", "3", "product", "s[1,1]", "m[2,0]"
        )
        assert rec["result"]["input"] == ["s[1,1]", "m[2,0]"]
        assert rec["result"]["terms"] == [
            {"coeff": "1", "gen": [{"kind": "m", "k": 3, "i": 1}]}
        ]

    def test_three_arguments_rejected(self, capsys):
        code, _, err = call(
            capsys, "--space", "cp", "--n", "2", "product", "s[1,0]", "s[1,0]", "s[1,0]"
        )
        assert code == 2
        assert "product takes" in err

    def test_plain_argument_in_tensor_slot_rejected(self, capsys):
        code, _, err = call(capsys, "--space", "cp", "--n", "2", "product", "s[1,0]")
        assert code == 2
        assert "tensor" in err

    def test_homology_argument_rejected(self, capsys):
        code, out, err = call(
            capsys, "--space", "cp", "--n", "2", "product", "A[1,0]", "s[1,0]"
        )
        assert (code, out) == (2, "")
        assert err == "loopalg: error: product expects cohomology expressions in s and m\n"


@pytest.mark.parametrize(
    "argv", [("coproduct", "0"), ("product", "0"), ("product", "0", "s[1,0]")]
)
def test_zero_input_gives_zero(capsys, argv):
    code, out, err = call(capsys, "--space", "cp", "--n", "2", *argv)
    assert (code, out, err) == (0, "0\n", "")
    rec = call_json(capsys, "--space", "cp", "--n", "2", *argv)
    assert rec["result"]["terms"] == []
    assert "degree" not in rec


class TestGysinAndCap:
    def test_pL_image(self, capsys):
        code, out, _ = call(
            capsys, "--space", "hp", "--n", "3", "gysin", "a1", "--k", "2",
            "--map", "pL",
        )
        assert code == 0
        assert out.strip() == "-[a x1 x2 x3]"

    def test_pV_image(self, capsys):
        code, out, _ = call(
            capsys, "--space", "hp", "--n", "3", "gysin", "ab1", "--k", "3",
            "--map", "pV:2",
        )
        assert code == 0
        assert out.strip() == "-[a b x1 x2 x3 x5]"

    def test_cap_value(self, capsys):
        code, out, _ = call(
            capsys, "--space", "cp", "--n", "2", "cap", "a0", "--k", "2", "--m", "1"
        )
        assert code == 0
        assert out.strip() == "-[x1 x3]"

    def test_gysin_json_degree(self, capsys):
        rec = call_json(
            capsys, "--space", "cp", "--n", "2", "gysin", "a0", "--k", "2",
            "--map", "pL",
        )
        # [x1 x2 x3] sits in degree 5 over the level-2 manifold
        assert rec["degree"] == 5
        assert rec["result"]["terms"] == [
            {"coeff": "-1", "dual": {"x1": 1, "x2": 1, "x3": 1}}
        ]

    @pytest.mark.parametrize("token", ["q1", "a1\n"])
    def test_bad_gen_token(self, capsys, token):
        code, _, err = call(
            capsys, "--space", "cp", "--n", "2", "gysin", token, "--k", "2",
            "--map", "pL",
        )
        assert code == 2
        assert "bad class token" in err

    def test_index_bound_in_token(self, capsys):
        code, _, err = call(
            capsys, "--space", "cp", "--n", "2", "gysin", "a2", "--k", "2",
            "--map", "pL",
        )
        assert code == 2
        assert "index out of range for n=2" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["gysin", "a" + "1" * 5000, "--k", "2", "--map", "pL"],
            ["cap", "ab" + "1" * 5000, "--k", "2", "--m", "1"],
        ],
        ids=["gysin", "cap"],
    )
    def test_overlong_index_in_token_is_out_of_range(self, capsys, argv):
        code, out, err = call(capsys, "--space", "cp", "--n", "2", *argv)
        assert code == 2
        assert out == ""
        assert err == "loopalg: error: index out of range for n=2\n"

    @pytest.mark.parametrize("spec", ["pV:1_1", "pV: 1", "pV:+1"])
    def test_break_index_must_be_a_plain_decimal(self, capsys, spec):
        code, out, err = call(
            capsys, "--space", "cp", "--n", "2", "gysin", "a0", "--k", "3", "--map", spec
        )
        assert code == 2
        assert out == ""
        assert err == f"loopalg: error: bad map {spec!r}; expected pL or pV:<m>\n"

    def test_bad_map_spec(self, capsys):
        code, _, err = call(
            capsys, "--space", "cp", "--n", "2", "gysin", "a0", "--k", "2",
            "--map", "pW",
        )
        assert code == 2
        assert "expected pL or pV" in err

    def test_break_index_bounds(self, capsys):
        code, _, err = call(
            capsys, "--space", "cp", "--n", "2", "cap", "a0", "--k", "2", "--m", "2"
        )
        assert code == 2
        assert "break index" in err


class TestTable:
    def test_rows(self, capsys):
        code, out, _ = call(
            capsys, "--space", "cp", "--n", "2", "table", "--max-degree", "8"
        )
        assert code == 0
        assert out.splitlines() == [
            "0 0", "1 1", "2 0", "3 1", "4 0", "5 1", "6 1", "7 1", "8 1",
        ]

    def test_json_rows(self, capsys):
        rec = call_json(capsys, "--space", "cp", "--n", "2", "table", "--max-degree", "3")
        assert rec["result"]["rows"] == [
            {"degree": 0, "dim": 0},
            {"degree": 1, "dim": 1},
            {"degree": 2, "dim": 0},
            {"degree": 3, "dim": 1},
        ]
        assert "degree" not in rec or rec["command"] == "table"

    def test_default_bound_is_the_degree_of_b_8(self, capsys, monkeypatch):
        # deg B[8,1] = 36 on CP^2; no environment setting moves the bound
        monkeypatch.setenv("LOOPALG_MAX_LEVEL", "2")
        code, out, _ = call(capsys, "--space", "cp", "--n", "2", "table")
        assert code == 0
        assert len(out.splitlines()) == 37
        assert out.splitlines()[-1].startswith("36 ")

    def test_huge_n_walks_only_the_degrees_in_range(self, capsys):
        # With N = 2n far above 20, only A[1,0] .. A[1,9] fall in range, in the
        # odd degrees 1 .. 19; the index walk must stop there, not at n.
        start = time.perf_counter()
        code, out, _ = call(
            capsys, "--space", "cp", "--n", "100000000", "table", "--max-degree", "20"
        )
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert out.splitlines() == [f"{d} {d % 2}" for d in range(21)]


class TestVerify:
    def test_pass_exit_zero(self, capsys):
        code, out, _ = call(
            capsys, "--space", "cp", "--n", "2", "verify", "gysin", "--max-k", "3"
        )
        assert code == 0
        assert out.startswith("PASS (")

    def test_all_suites_pass_small(self, capsys):
        for suite in ("duality", "coassoc", "pipeline", "presentation", "gysin", "rings"):
            code, out, err = call(
                capsys, "--space", "cp", "--n", "1", "verify", suite, "--max-k", "2"
            )
            assert code == 0, (suite, err)
            assert out.startswith("PASS ("), suite

    @pytest.mark.parametrize("setting", ["2", "soon"])
    def test_default_level_is_8_whatever_the_environment(
        self, capsys, monkeypatch, setting
    ):
        argv = ["--space", "cp", "--n", "2", "verify", "coassoc"]
        explicit = call(capsys, *argv, "--max-k", "8")
        monkeypatch.setenv("LOOPALG_MAX_LEVEL", setting)
        assert call(capsys, *argv) == explicit == (0, "PASS (64 checks)\n", "")

    def test_failing_report_exits_one(self, capsys, monkeypatch):
        bad = Report("duality")
        bad.note(True, "fine")
        bad.note(False, "sample counterexample")
        monkeypatch.setattr("loopalg.cli.verify_duality", lambda params, k: bad)
        code, out, _ = call(capsys, "--space", "cp", "--n", "2", "verify", "duality")
        assert code == 1
        assert "FAIL (1 of 2 checks failed)" in out
        assert "sample counterexample" in out

    def test_failing_report_json(self, capsys, monkeypatch):
        bad = Report("duality")
        bad.note(False, "boom")
        monkeypatch.setattr("loopalg.cli.verify_duality", lambda params, k: bad)
        code, out, _ = call(
            capsys, "--space", "cp", "--n", "2", "verify", "duality",
            "--format", "json",
        )
        assert code == 1
        rec = json.loads(out)
        assert rec["result"]["passed"] is False
        assert rec["result"]["failures"] == ["boom"]


class TestUsage:
    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        capsys.readouterr()

    def test_missing_required_options(self, capsys):
        assert run(["coproduct", "A[1,0]"]) == 2
        capsys.readouterr()

    def test_bad_space_token(self, capsys):
        assert run(["--space", "rp", "--n", "2", "table"]) == 2
        capsys.readouterr()

    def test_nonpositive_n(self, capsys):
        assert run(["--space", "cp", "--n", "0", "table"]) == 2
        capsys.readouterr()

    def test_expression_error_reported(self, capsys):
        code, _, err = call(capsys, "--space", "cp", "--n", "2", "coproduct", "A[1,5]")
        assert code == 2
        assert "index out of range for n=2" in err

    def test_overlong_coefficient_names_the_limit(self, capsys):
        expr = "1" * 5000 + "*A[3,1]"
        code, out, err = call(capsys, "--space", "cp", "--n", "2", "coproduct", expr)
        assert code == 2
        assert out == ""
        limit = sys.get_int_max_str_digits()
        assert err == f"loopalg: error: number longer than {limit} digits (at position 0)\n"
        assert "set_int_max_str_digits" not in err

    def test_non_decimal_digit_is_a_positioned_parse_error(self, capsys):
        code, out, err = call(capsys, "--space", "cp", "--n", "2", "coproduct", "A[\u00b2,1]")
        assert code == 2
        assert out == ""
        assert err == "loopalg: error: expected a number (at position 2)\n"
        assert "invalid literal" not in err

    def test_cohomology_expr_rejected_by_coproduct(self, capsys):
        code, _, err = call(capsys, "--space", "cp", "--n", "2", "coproduct", "s[1,0]")
        assert code == 2
        assert "loop-homology" in err

    def test_internal_error_has_its_own_exit_code(self, capsys, monkeypatch):
        def broken(x):
            raise PipelineMatchError("level 3, m=1: capped class\nmissed the table")

        monkeypatch.setattr("loopalg.cli.coproduct_pipeline", broken)
        code, out, err = call(
            capsys, "--space", "cp", "--n", "2", "coproduct", "A[3,1]", "--route", "pipeline"
        )
        assert code == EXIT_INTERNAL == 3
        assert out == ""
        assert err == (
            "loopalg: internal error: PipelineMatchError: "
            "level 3, m=1: capped class missed the table\n"
        )

    def test_ring_mismatch_is_an_internal_error(self, capsys, monkeypatch):
        def broken(x):
            raise RingMismatchError("sum of\nclasses over different spaces")

        monkeypatch.setattr("loopalg.cli.coproduct_closed", broken)
        code, out, err = call(capsys, "--space", "cp", "--n", "2", "coproduct", "A[3,1]")
        assert code == EXIT_INTERNAL == 3
        assert out == ""
        assert err == (
            "loopalg: internal error: RingMismatchError: "
            "sum of classes over different spaces\n"
        )


class TestNumerals:
    """Every CLI number follows the expression lexer's numeral rule."""

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["cap", "a0", "--k", "1_0", "--m", "1"], "--k"),
            (["cap", "a0", "--k", "3", "--m", "+1"], "--m"),
            (["cap", "a0", "--k", " 3", "--m", "1"], "--k"),
            (["table", "--max-degree", "1_0"], "--max-degree"),
        ],
        ids=["underscore", "plus-sign", "space", "max-degree-underscore"],
    )
    def test_option_must_be_a_plain_decimal(self, capsys, argv, option):
        code, out, err = call(capsys, "--space", "cp", "--n", "2", *argv)
        assert code == 2
        assert out == ""
        assert err.endswith(f": error: argument {option}: expected a number\n")

    def test_overlong_option_names_the_limit(self, capsys):
        code, out, err = call(
            capsys, "--space", "cp", "--n", "2", "cap", "a0", "--k", "1" * 5000, "--m", "1"
        )
        assert code == 2
        assert out == ""
        limit = sys.get_int_max_str_digits()
        assert err.endswith(f": error: argument --k: number longer than {limit} digits\n")
        assert "1" * 100 not in err

    def test_other_script_decimal_digits_still_read(self, capsys):
        argv = ["--space", "cp", "--n", "2", "cap", "a0", "--m", "1", "--k"]
        arabic = call(capsys, *argv, "٣")
        assert arabic == call(capsys, *argv, "3")
        assert arabic[0] == 0
