"""Command-line driver.

    loopalg --space {cp|hp} --n <int> <command> [args] [--format text|json|latex]

Exit codes: 0 on success, 1 when a verification sweep finds a counterexample,
2 for usage or expression errors, 3 for an internal error (an exception the
package did not expect, such as a PipelineMatchError or RingMismatchError),
reported on one line of stderr.  Output depends on the arguments alone:
verification sweeps run to level DEFAULT_LEVEL (8) unless --max-k is given,
and `table` runs to the degree of B[DEFAULT_LEVEL, n-1] unless --max-degree
is given.

Every number read here is a numeral by the expression lexer's rule,
``expr._numeral``; an option value may also start with '-'.
"""

from __future__ import annotations

import argparse
import re
import sys

from .expr import _numeral, evaluate, format_latex, format_text, parse
from .homology import cap, gysin
from .loops import (
    CohClass,
    LoopClass,
    TensorCohClass,
    betti_table,
    coproduct_closed,
    coproduct_pipeline,
    gh_product,
    gh_product_pairs,
    verify_coassociativity,
    verify_duality,
    verify_pipeline,
    verify_presentation,
)
from .report import Report
from .spaces import SpaceParams, catalog_for, generator_degree

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

# Level of `verify` without --max-k, and of `table`'s default degree bound.
DEFAULT_LEVEL = 8

_GEN_TOKEN = re.compile(r"(ab|a)(\d+)")


class UsageError(ValueError):
    pass


def _verify_gysin(params: SpaceParams, level: int) -> Report:
    from .verify import verify_gysin_values

    return verify_gysin_values(params, level)


def _verify_rings(params: SpaceParams, level: int) -> Report:
    from .verify import verify_ring_axioms, verify_structure

    report = verify_ring_axioms(params)
    report.absorb(verify_structure(params, max_k=level))
    return report


# Suite name -> sweep(params, level).  Each entry looks its sweeps up when it
# runs, so a sweep rebound on its module (a test double, a tracer) is the one
# called: the four loops sweeps on this module, and the gysin and rings sweeps
# on ``verify``, which only those two entries import.
SUITES = {
    "duality": lambda params, level: verify_duality(params, level),
    "coassoc": lambda params, level: verify_coassociativity(params, level),
    "pipeline": lambda params, level: verify_pipeline(params, level),
    "presentation": lambda params, level: verify_presentation(params, level),
    "gysin": _verify_gysin,
    "rings": _verify_rings,
}


def _integer(text: str) -> int:
    """A numeral, or its negative, so that a negative value fails its range check."""
    try:
        return -_numeral(text[1:]) if text.startswith("-") else _numeral(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _positive_int(text: str) -> int:
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError("value must be at least 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="loopalg",
        description="Exact loop-homology coproduct and product computations "
        "on complex and quaternionic projective spaces.",
    )
    ap.add_argument("--space", choices=["cp", "hp"], required=True, help="base space family")
    ap.add_argument("--n", type=_positive_int, required=True, help="projective rank, n >= 1")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=["text", "json", "latex"], default="text")

    p = sub.add_parser("coproduct", help="coproduct of a loop-homology expression")
    p.add_argument("expr")
    p.add_argument("--route", choices=["closed", "pipeline"], default="closed")
    common(p)

    p = sub.add_parser("product", help="product of cohomology expressions")
    p.add_argument("exprs", nargs="+", metavar="expr")
    common(p)

    p = sub.add_parser("gysin", help="wrong-way image of a dual basis class")
    p.add_argument("gen", help="source class, a<i> or ab<i>")
    p.add_argument("--k", type=_positive_int, required=True, help="target level")
    p.add_argument("--map", dest="map_spec", required=True, help="pL or pV:<m>")
    common(p)

    p = sub.add_parser("cap", help="cap a Thom fiber class into a level class")
    p.add_argument("gen", help="level class, a<i> or ab<i>")
    p.add_argument("--k", type=_positive_int, required=True, help="level")
    p.add_argument("--m", type=_positive_int, required=True, help="break index")
    common(p)

    p = sub.add_parser("table", help="Betti numbers of the relative loop homology")
    p.add_argument("--max-degree", type=_integer, default=None)
    common(p)

    p = sub.add_parser("verify", help="run a verification sweep")
    p.add_argument("suite", choices=list(SUITES))
    p.add_argument("--max-k", type=_positive_int, default=DEFAULT_LEVEL)
    common(p)

    return ap


def _emit(
    args, params: SpaceParams, payload: dict, text: str, latex=None, degree=None
) -> None:
    """Print the result in the chosen format; JSON nests ``payload`` under ``result``."""
    if args.format == "json":
        import json

        rec = {"space": params.token, "n": params.n, "command": args.command, "result": payload}
        if degree is not None:
            rec["degree"] = degree
        print(json.dumps(rec, indent=2))
    elif args.format == "latex" and latex is not None:
        print(latex)
    else:
        print(text)


def _emit_class(args, params: SpaceParams, payload: dict, result) -> None:
    """Emit a class-valued result; its terms close the JSON payload."""
    payload["terms"] = [
        {"coeff": str(c), **result._json_body(key)} for key, c in result.sorted_terms()
    ]
    _emit(args, params, payload, format_text(result), format_latex(result), result.degree())


def _parse_gen_token(token: str, params: SpaceParams) -> tuple[int, bool]:
    hit = _GEN_TOKEN.fullmatch(token)
    if hit is None:
        raise UsageError(f"bad class token {token!r}; expected a<i> or ab<i>, like a0 or ab1")
    try:
        i = _numeral(hit.group(2))
    except ValueError:  # a numeral too long to read is past any index
        i = params.n
    params.check_index(i)
    return i, hit.group(1) == "ab"


def _cmd_coproduct(args, params: SpaceParams) -> int:
    value = evaluate(parse(args.expr, params.n), params)
    if value is None:
        value = LoopClass.zero(params)
    if not isinstance(value, LoopClass):
        raise UsageError("coproduct expects a loop-homology expression in A and B")
    result = (
        coproduct_closed(value) if args.route == "closed" else coproduct_pipeline(value)
    )
    _emit_class(args, params, {"input": args.expr, "route": args.route}, result)
    return EXIT_OK


def _cmd_product(args, params: SpaceParams) -> int:
    if len(args.exprs) == 1:
        value = evaluate(parse(args.exprs[0], params.n), params)
        if value is None:
            result = CohClass.zero(params)
        elif isinstance(value, TensorCohClass):
            result = gh_product_pairs(value)
        else:
            raise UsageError(
                "product with one argument expects tensor terms like 's[1,0] x m[1,1]'"
            )
    elif len(args.exprs) == 2:
        sides = []
        for text in args.exprs:
            value = evaluate(parse(text, params.n), params)
            if value is None:
                value = CohClass.zero(params)
            if not isinstance(value, CohClass):
                raise UsageError("product expects cohomology expressions in s and m")
            sides.append(value)
        result = gh_product(sides[0], sides[1])
    else:
        raise UsageError("product takes one tensor expression or two expressions")
    _emit_class(args, params, {"input": list(args.exprs)}, result)
    return EXIT_OK


def _cmd_gysin(args, params: SpaceParams) -> int:
    cat = catalog_for(params)
    i, with_b = _parse_gen_token(args.gen, params)
    k = args.k
    if args.map_spec == "pL":
        out = gysin(cat.pullback_pL(k), cat.sm, cat.gamma(k), cat.sm_dual(i, with_b))
    else:
        digits = args.map_spec[3:] if args.map_spec.startswith("pV:") else ""
        try:
            m = _numeral(digits)
        except ValueError:
            raise UsageError(f"bad map {args.map_spec!r}; expected pL or pV:<m>") from None
        out = gysin(
            cat.pullback_pV(k, m), cat.sm_pair, cat.gamma(k), cat.sm_pair_dual(i, with_b)
        )
    _emit_class(args, params, {"input": args.gen, "map": args.map_spec, "k": k}, out)
    return EXIT_OK


def _cmd_cap(args, params: SpaceParams) -> int:
    cat = catalog_for(params)
    i, with_b = _parse_gen_token(args.gen, params)
    k, m = args.k, args.m
    out = cap(cat.fiber_class(k, m), cat.gamma_dual(k, i, with_b))
    _emit_class(args, params, {"input": args.gen, "k": k, "m": m}, out)
    return EXIT_OK


def _cmd_table(args, params: SpaceParams) -> int:
    max_degree = args.max_degree
    if max_degree is None:
        max_degree = generator_degree(params, "B", DEFAULT_LEVEL, params.n - 1)
    if max_degree < 0:
        raise UsageError("--max-degree must be non-negative")
    rows = betti_table(params, max_degree)
    payload = {"rows": [{"degree": d, "dim": v} for d, v in rows]}
    _emit(args, params, payload, "\n".join(f"{d} {v}" for d, v in rows))
    return EXIT_OK


def _cmd_verify(args, params: SpaceParams) -> int:
    report = SUITES[args.suite](params, args.max_k)
    payload = {
        "suite": args.suite,
        "passed": report.passed,
        "checks": report.checks,
        "failures": report.failures,
    }
    text = report.summary()
    if not report.passed:
        text += f"\nfirst counterexample: {report.failures[0]}"
    _emit(args, params, payload, text)
    return EXIT_OK if report.passed else EXIT_FAIL


_COMMANDS = {
    "coproduct": _cmd_coproduct,
    "product": _cmd_product,
    "gysin": _cmd_gysin,
    "cap": _cmd_cap,
    "table": _cmd_table,
    "verify": _cmd_verify,
}


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    params = SpaceParams.from_token(args.space, args.n)
    try:
        return _COMMANDS[args.command](args, params)
    except ValueError as err:
        print(f"loopalg: error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as err:
        detail = " ".join(str(err).split())
        print(f"loopalg: internal error: {type(err).__name__}: {detail}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
