"""The benchmark's workloads: inputs made from a seed, references and checks.

A workload is a fixed list of operations, one pass.  Each operation has a
reference computed before any timing and a check that compares the
operation's value with it; the check runs outside the timed interval.  The
seed only picks among inputs of equal work (kind and index of a generator,
family of a space, ring-axiom seeds, order of the list), so every seed asks
for the same amount of work.

Builders take the freshly imported ``loopalg`` package and call it only through
its public names, looked up at call time, so a tracer that swaps those names
sees every call.  Checks use functions captured when the workload is built,
so they stay out of the traced spans.
"""

from __future__ import annotations

import importlib
import io
import json
import operator
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent

# Each CLI child gets at most this long; a hang then counts as one failure.
CLI_TIMEOUT_S = 120


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    ref: object
    check: Callable[[object, object], bool]
    # The same operation without a child process, for traced passes.
    inprocess: Callable[[], object] | None = None
    level: int | None = None
    space: str = ""


@dataclass
class Workload:
    name: str
    ops: list[Op]
    # Nominal duration of one pass in calibrated seconds; a run repeats the
    # pass round(seconds / pass_s) times, so that every run does the same
    # work and its percentiles sit at the same ranks.
    pass_s: float
    cli: bool = False


def _params(lp, family: str, n: int):
    return lp.SpaceParams.from_token(family, n)


# -- pipeline_ladder --------------------------------------------------------

LADDER_LEVELS = (8, 16, 24, 32, 40, 48, 56)
LADDER_SPACES = (("cp", 2), ("cp", 3), ("hp", 2), ("hp", 3))


def pipeline_ops(lp, rng: random.Random, spaces, levels) -> list[Op]:
    """One cold pipeline coproduct per (space, level); the seed picks kind and index."""
    ops = []
    for family, n in spaces:
        params = _params(lp, family, n)
        for k in levels:
            kind = rng.choice("AB")
            i = rng.randrange(n)
            x = lp.LoopClass.generator(params, kind, k, i)
            ops.append(
                Op(
                    f"pipeline {family}{n} {kind}[{k},{i}]",
                    lambda x=x, params=params: lp.coproduct_pipeline(
                        x, catalog=lp.SpaceCatalog(params)
                    ),
                    lp.coproduct_closed(x),
                    operator.eq,
                    level=k,
                    space=f"{family}{n}",
                )
            )
    return ops


def pipeline_ladder(lp, seed: int) -> Workload:
    """Cold catalog per operation: almost all time is the wrong-way tables."""
    rng = random.Random(seed)
    ops = pipeline_ops(lp, rng, LADDER_SPACES, LADDER_LEVELS)
    rng.shuffle(ops)
    return Workload("pipeline_ladder", ops, pass_s=2.1)


# -- sweeps -----------------------------------------------------------------


def _passed(report, ref) -> bool:
    return report.passed is ref and report.checks > 0


def verify_op(lp, label: str, fn_name: str, *args, **kwargs) -> Op:
    return Op(label, lambda: getattr(lp, fn_name)(*args, **kwargs), True, _passed)


SWEEP_SPACES = (("cp", 4), ("hp", 4))
# Bounds above the acceptance bounds (k <= 6) or on spaces above them (n <= 3).
SWEEP_BOUNDS = (
    ("verify_duality", (7, 8, 9)),
    ("verify_coassociativity", (8, 10)),
    ("verify_pipeline", (8, 10, 12, 14)),
    ("verify_presentation", (4, 5)),
)


def sweep_stretch(lp, seed: int) -> Workload:
    """Whole sweeps; the pipeline sweep reads the shared catalog, warmed here."""
    ops = []
    for family, n in SWEEP_SPACES:
        params = _params(lp, family, n)
        for fn_name, bounds in SWEEP_BOUNDS:
            if fn_name == "verify_pipeline":
                lp.verify_pipeline(params, max(bounds))
            for k in bounds:
                ops.append(verify_op(lp, f"{fn_name} {family}{n} k<={k}", fn_name, params, k))
    random.Random(seed).shuffle(ops)
    return Workload("sweep_stretch", ops, pass_s=5.6)


# Ring-axiom seeds per n.  The n = 3 suite alone takes about 4 s, which would
# leave too few operations in a run to place a tail percentile; n = 3 runs in
# the gysin suite.  Three n = 1 calls per family keep the median operation a
# ring-axiom call rather than a millisecond gysin sweep.
KERNEL_RING_SEEDS = {1: 3, 2: 1}
KERNEL_GYSIN_N = (1, 2, 3)
KERNEL_GYSIN_BOUND = 4


def kernel_laws(lp, seed: int) -> Workload:
    """Kernel law suites on rings with at most five odd generators."""
    rng = random.Random(seed)
    ops = []
    for family in ("cp", "hp"):
        for n, seeds in KERNEL_RING_SEEDS.items():
            params = _params(lp, family, n)
            for _ in range(seeds):
                s = rng.randrange(2**31)
                ops.append(
                    verify_op(lp, f"ring axioms {family}{n} seed={s}", "verify_ring_axioms", params, seed=s)
                )
        for n in KERNEL_GYSIN_N:
            params = _params(lp, family, n)
            ops.append(
                verify_op(
                    lp,
                    f"gysin values {family}{n} k<={KERNEL_GYSIN_BOUND}",
                    "verify_gysin_values",
                    params,
                    KERNEL_GYSIN_BOUND,
                )
            )
    rng.shuffle(ops)
    return Workload("kernel_laws", ops, pass_s=4.2)


# -- cli_mix ----------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ, PYTHONPATH="src")
    env.pop("LOOPALG_MAX_LEVEL", None)
    return env


def run_child(argv: list[str]) -> tuple[int, str, str]:
    proc = subprocess.run(
        [sys.executable, "-m", "loopalg.cli", *argv],
        cwd=ROOT,
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=CLI_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_inprocess(argv: list[str]) -> tuple[int, str, str]:
    # The module is looked up at call time, so a fresh import of the package
    # gives a cold run.
    cli = sys.modules["loopalg.cli"]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(list(argv))
    return code, out.getvalue(), err.getvalue()


class CliOps:
    """Builds CLI operations with library references for one package import."""

    def __init__(self, lp):
        importlib.import_module("loopalg.cli")
        self.lp = lp
        self.parse = lp.parse
        self.evaluate = lp.evaluate

    def _op(self, label, argv, code, expected, normalize) -> Op:
        def check(value, ref):
            got_code, out, err = value
            return got_code == ref[0] and normalize(out, err) == ref[1]

        return Op(
            label,
            lambda: run_child(argv),
            (code, expected),
            check,
            inprocess=lambda: run_inprocess(argv),
        )

    def _class_op(self, family, n, command, args, fmt, expected) -> Op:
        params = _params(self.lp, family, n)
        argv = ["--space", family, "--n", str(n), command, *args, "--format", fmt]
        label = f"cli {family}{n} {command} {' '.join(args)} [{fmt}]"
        if fmt == "text":
            parse, evaluate = self.parse, self.evaluate

            def normalize(out, err):
                value = evaluate(parse(out.strip(), n), params)
                return value if value is not None else type(expected).zero(params)

            return self._op(label, argv, 0, expected, normalize)
        if fmt == "latex":
            return self._op(label, argv, 0, self.lp.format_latex(expected), lambda out, err: out.strip())
        ref = {
            "space": family,
            "n": n,
            "command": command,
            "degree": expected.degree(),
            "terms": dict(expected.terms),
        }
        return self._op(label, argv, 0, ref, _json_classes)

    def coproduct(self, family, n, expr, route, fmt) -> Op:
        lp = self.lp
        params = _params(lp, family, n)
        # Both routes are checked against the closed formula.
        expected = lp.coproduct_closed(self.evaluate(self.parse(expr, n), params))
        return self._class_op(family, n, "coproduct", [expr, "--route", route], fmt, expected)

    def product(self, family, n, exprs, fmt) -> Op:
        lp = self.lp
        params = _params(lp, family, n)
        values = [self.evaluate(self.parse(e, n), params) for e in exprs]
        expected = lp.gh_product(*values) if len(values) == 2 else lp.gh_product_pairs(values[0])
        return self._class_op(family, n, "product", list(exprs), fmt, expected)

    def _homology_op(self, family, n, command, args, fmt, expected) -> Op:
        argv = ["--space", family, "--n", str(n), command, *args, "--format", fmt]
        label = f"cli {family}{n} {command} {' '.join(args)} [{fmt}]"
        if fmt == "text":
            return self._op(label, argv, 0, str(expected), lambda out, err: out.strip())
        ring = expected.ring
        ref = {
            "space": family,
            "n": n,
            "command": command,
            "degree": expected.degree(),
            "terms": {
                tuple(sorted(ring.exponents_by_name(m).items())): c
                for m, c in expected.terms.items()
            },
        }
        return self._op(label, argv, 0, ref, _json_duals)

    def gysin(self, family, n, i, with_b, k, m, fmt) -> Op:
        lp = self.lp
        cat = lp.catalog_for(_params(lp, family, n))
        if m is None:
            expected = lp.gysin(cat.pullback_pL(k), cat.sm, cat.gamma(k), cat.sm_dual(i, with_b))
            spec = "pL"
        else:
            expected = lp.gysin(
                cat.pullback_pV(k, m), cat.sm_pair, cat.gamma(k), cat.sm_pair_dual(i, with_b)
            )
            spec = f"pV:{m}"
        gen = f"{'ab' if with_b else 'a'}{i}"
        return self._homology_op(family, n, "gysin", [gen, "--k", str(k), "--map", spec], fmt, expected)

    def cap(self, family, n, i, with_b, k, m, fmt) -> Op:
        lp = self.lp
        ring = lp.catalog_for(_params(lp, family, n)).gamma(k).ring
        exps = {f"x{j}": 1 for j in range(1, 2 * k)}
        if i:
            exps["a"] = i
        if with_b:
            exps["b"] = 1
        expected = lp.cap(ring.gen(f"x{2 * m}"), lp.dual(ring, ring.monomial(exps)))
        gen = f"{'ab' if with_b else 'a'}{i}"
        return self._homology_op(family, n, "cap", [gen, "--k", str(k), "--m", str(m)], fmt, expected)

    def table(self, family, n, max_degree, fmt) -> Op:
        rows = self.lp.betti_table(_params(self.lp, family, n), max_degree)
        argv = ["--space", family, "--n", str(n), "table", "--max-degree", str(max_degree), "--format", fmt]
        label = f"cli {family}{n} table {max_degree} [{fmt}]"
        if fmt == "text":
            text = "\n".join(f"{d} {v}" for d, v in rows)
            return self._op(label, argv, 0, text, lambda out, err: out.strip())
        ref = [{"degree": d, "dim": v} for d, v in rows]
        return self._op(label, argv, 0, ref, lambda out, err: json.loads(out)["result"]["rows"])

    def verify(self, family, n, suite, max_k, fmt) -> Op:
        lp = self.lp
        params = _params(lp, family, n)
        if suite == "rings":
            report = lp.verify_ring_axioms(params)
            report.absorb(lp.verify_structure(params, max_k=max_k))
        else:
            fn = {
                "duality": lp.verify_duality,
                "coassoc": lp.verify_coassociativity,
                "pipeline": lp.verify_pipeline,
                "presentation": lp.verify_presentation,
                "gysin": lp.verify_gysin_values,
            }[suite]
            report = fn(params, max_k)
        argv = ["--space", family, "--n", str(n), "verify", suite, "--max-k", str(max_k), "--format", fmt]
        label = f"cli {family}{n} verify {suite} {max_k} [{fmt}]"
        if fmt == "text":
            return self._op(label, argv, 0, f"PASS ({report.checks} checks)", lambda out, err: out.strip())
        ref = {"suite": suite, "passed": True, "checks": report.checks, "failures": []}
        return self._op(label, argv, 0, ref, lambda out, err: json.loads(out)["result"])

    def malformed(self, family, n, args) -> Op:
        argv = ["--space", family, "--n", str(n), *args]
        return self._op(
            f"cli {family}{n} malformed {' '.join(args)}",
            argv,
            2,
            ("", True),
            lambda out, err: (out, err.startswith("loopalg: error:")),
        )


def _json_head(rec: dict) -> dict:
    return {
        "space": rec["space"],
        "n": rec["n"],
        "command": rec["command"],
        "degree": rec.get("degree"),
    }


def _json_classes(out: str, err: str) -> dict:
    rec = json.loads(out)
    terms = {}
    for term in rec["result"]["terms"]:
        parts = tuple((g["kind"], g["k"], g["i"]) for g in term["gen"])
        terms[parts if len(parts) > 1 else parts[0]] = Fraction(term["coeff"])
    return {**_json_head(rec), "terms": terms}


def _json_duals(out: str, err: str) -> dict:
    rec = json.loads(out)
    terms = {
        tuple(sorted(term["dual"].items())): Fraction(term["coeff"])
        for term in rec["result"]["terms"]
    }
    return {**_json_head(rec), "terms": terms}


def cli_mix(lp, seed: int) -> Workload:
    """Every CLI command and format, each run as a fresh child process."""
    rng = random.Random(seed)
    c = CliOps(lp)

    def fam():
        return rng.choice(("cp", "hp"))

    def gen(kind_choices, k, n):
        return f"{rng.choice(kind_choices)}[{k},{rng.randrange(n)}]"

    ops = [
        c.coproduct(fam(), 2, gen("AB", 4, 2), "closed", "text"),
        c.coproduct(fam(), 3, f"{gen('AB', 5, 3)} - 3/2*{gen('AB', 3, 3)}", "closed", "json"),
        c.coproduct(fam(), 2, gen("AB", 6, 2), "closed", "latex"),
        c.coproduct(fam(), 2, gen("AB", 6, 2), "pipeline", "text"),
        c.coproduct(fam(), 3, gen("AB", 5, 3), "pipeline", "json"),
        c.product(fam(), 3, [gen("sm", 2, 3), f"s[3,{rng.randrange(3)}]"], "text"),
        c.product(fam(), 3, [f"2*{gen('sm', 1, 3)}", f"s[4,{rng.randrange(3)}]"], "json"),
        c.product(fam(), 2, [f"s[1,0] x {gen('sm', 2, 2)} + {gen('sm', 2, 2)} x s[1,1]"], "text"),
        c.product(fam(), 2, [f"{gen('sm', 3, 2)} x s[1,0] - 1/3*s[2,1] x {gen('sm', 2, 2)}"], "latex"),
        c.gysin(fam(), 2, rng.randrange(2), rng.random() < 0.5, 5, None, "text"),
        c.gysin(fam(), 3, rng.randrange(3), rng.random() < 0.5, 5, 1 + rng.randrange(4), "json"),
        c.gysin(fam(), 2, rng.randrange(2), rng.random() < 0.5, 5, 1 + rng.randrange(4), "text"),
        c.cap(fam(), 2, rng.randrange(2), rng.random() < 0.5, 4, 1 + rng.randrange(3), "text"),
        c.cap(fam(), 3, rng.randrange(3), rng.random() < 0.5, 4, 1 + rng.randrange(3), "json"),
        c.table(fam(), 3, 60, "text"),
        c.table(fam(), 2, 60, "json"),
        c.verify(fam(), 2, "pipeline", 4, "text"),
        c.verify(fam(), 2, "duality", 4, "json"),
        c.malformed(fam(), 2, ["coproduct", "A[2,"]),
        c.malformed(fam(), 2, ["product", "s[1,0] x"]),
        c.malformed(fam(), 2, ["coproduct", "A[1,0]xB[1,1]"]),
    ]
    rng.shuffle(ops)
    return Workload("cli_mix", ops, pass_s=2.6, cli=True)


def probe_ops(lp) -> list[Op]:
    """A small fixed list that reaches every traced function at least once.

    Traced runs end with it, so that every per-layer name carries a measured
    value on every workload; on workloads without CLI operations its CLI part
    also gives the CLI start-up cost.  The cold-catalog pipeline call keeps a
    wrong-way table build in every trace, since the CLI part finds its tables
    already built while its references were computed.
    """
    c = CliOps(lp)
    return [
        *pipeline_ops(lp, random.Random(0), [("cp", 2)], (4,)),
        c.coproduct("cp", 2, "A[3,1]", "closed", "text"),
        c.coproduct("cp", 2, "B[3,1]", "pipeline", "json"),
        c.product("cp", 2, ["s[1,0]", "m[1,1]"], "latex"),
        c.product("cp", 2, ["s[1,0] x m[1,1] + m[1,0] x s[1,1]"], "text"),
        c.gysin("cp", 2, 1, False, 3, None, "text"),
        c.gysin("cp", 2, 0, True, 3, 1, "json"),
        c.cap("cp", 2, 1, False, 3, 1, "text"),
        c.table("cp", 2, 20, "text"),
        c.verify("cp", 2, "duality", 3, "text"),
        c.verify("cp", 2, "coassoc", 3, "text"),
        c.verify("cp", 2, "presentation", 3, "text"),
        c.verify("cp", 2, "pipeline", 3, "text"),
        c.verify("cp", 2, "gysin", 3, "text"),
        c.verify("cp", 1, "rings", 2, "text"),
    ]


BUILDERS = {
    "pipeline_ladder": pipeline_ladder,
    "sweep_stretch": sweep_stretch,
    "kernel_laws": kernel_laws,
    "cli_mix": cli_mix,
}
