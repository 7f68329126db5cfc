"""loopalg benchmark: one workload per run, or every workload in turn.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a checkout of the repository; the package is
imported from ``src/`` next to this directory, never from an installed copy.

Load is one caller in a closed loop: each operation starts when the previous
one has returned.  A run sets the workload up several times (re-importing
``loopalg`` and rebuilding the inputs each time), then repeats the workload's
fixed list of operations round(seconds / nominal pass time) times.  Every
operation's value is checked against a reference computed before timing;
a failed check, an exception or a wrong exit code counts as a failed
operation and the run goes on.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of a
traced pass (see tracer.py), and the aggregated spans are written under
``.bench_out/``.  ``--workload all`` runs each workload in its own child
interpreter, so no cache or peak memory carries over between workloads.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_REPS = 5
CAL_REF_S = 0.001
# How strongly loopalg's run time follows the calibration loop's.  Over five
# seeds of every workload, exponents of 0.8 to 1.0 gave the smallest
# run-to-run spread (0.9 best overall, 0 left spreads of 5 to 21%); direct
# fits of log(operation time) on log(calibration time) give 0.73 to 0.89,
# biased low by the noise in each calibration.
CAL_EXPONENT = 0.9
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10

WORKLOADS = ("pipeline_ladder", "sweep_stretch", "kernel_laws", "cli_mix")


@dataclass
class Passes:
    # Times are in calibrated seconds (see calibrate); raw_pass_s is unscaled.
    pass_s: list[float] = field(default_factory=list)
    raw_pass_s: list[float] = field(default_factory=list)
    # Per pass, the latency of each operation in list order, calibrated and
    # raw, and the calibration time taken around it.
    latencies: list[list[float]] = field(default_factory=list)
    raw_latencies: list[list[float]] = field(default_factory=list)
    cal_s: list[list[float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def absorb(self, other: Passes) -> None:
        self.attempted += other.attempted
        self.failed += other.failed

    def samples(self) -> list[float]:
        return [t for one in self.latencies for t in one]

    def by_op(self) -> list[list[float]]:
        return [list(col) for col in zip(*self.latencies)]


def _calibration_work() -> int:
    # Tuples, zips, dict updates and Fractions: the same mix as loopalg's
    # kernels, and no loopalg code, so no change to the package can move it.
    acc: dict = {}
    third = Fraction(1, 3)
    for i in range(200):
        key = tuple((i >> b) & 1 for b in range(8))
        s = 0
        for a, b in zip(key, key[1:]):
            if a and b:
                s += a * b
        acc[key] = acc.get(key, Fraction(0)) + (third if s & 1 else -third)
    return len(acc)


def calibrate() -> float:
    """Seconds the fixed calibration loop takes right now, best of three.

    On a shared host a core's speed drifts by up to half over periods of
    seconds (other tenants share it), and process CPU time drifts with it.  Every
    measured interval is rescaled by the calibration time taken around it
    (see calibrated), which cancels most of the drift.
    """
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        _calibration_work()
        best = min(best, time.perf_counter() - start)
    return best


def calibrated(elapsed: float, cal_before: float, cal_after: float) -> float:
    """``elapsed`` in calibrated seconds: the time it would take at the speed
    at which the calibration loop takes CAL_REF_S."""
    return elapsed * (CAL_REF_S * 2 / (cal_before + cal_after)) ** CAL_EXPONENT


def run_passes(ops, passes: int, inprocess: bool = False) -> Passes:
    """Time ``passes`` passes over ``ops``; check each value after its timing."""
    out = Passes()
    clock = time.perf_counter
    for _ in range(passes):
        lat, raw_lat, cals = [], [], []
        cal = calibrate()
        for op in ops:
            call = op.inprocess if inprocess and op.inprocess is not None else op.call
            error = None
            start = clock()
            try:
                value = call()
            except Exception as exc:  # a failed operation is counted, not fatal
                error = exc
            elapsed = clock() - start
            after = calibrate()
            lat.append(calibrated(elapsed, cal, after))
            raw_lat.append(elapsed)
            cals.append((cal + after) / 2)
            cal = after
            out.attempted += 1
            ok = False
            if error is None:
                try:
                    ok = bool(op.check(value, op.ref))
                except Exception as exc:
                    error = exc
            if not ok:
                out.failed += 1
                reason = "".join(traceback.format_exception_only(error)).strip() if error else "wrong value"
                print(f"FAILED {op.label}: {reason}", file=sys.stderr)
        out.pass_s.append(sum(lat))
        out.raw_pass_s.append(sum(raw_lat))
        out.latencies.append(lat)
        out.raw_latencies.append(raw_lat)
        out.cal_s.append(cals)
    return out


def tail_percentile(samples: list[float]) -> tuple[float, float, int]:
    """Highest ladder percentile with at least ten samples beyond it (nearest rank).

    Returns (percentile, value, samples beyond).  Below twenty samples no
    percentile qualifies and the median is returned with what lies beyond it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(p / 100 * n))
        if n - rank >= MIN_BEYOND or p == TAIL_LADDER[-1]:
            return p, ordered[rank - 1], n - rank
    raise AssertionError("unreachable")


def peak_rss_mb(cli: bool) -> float:
    """Peak resident memory of the process that does the work, in MB.

    For a CLI workload that is the largest CLI child (the harness's own memory
    holds only references); otherwise the run's own process.  ru_maxrss is in
    KiB on Linux, and RUSAGE_CHILDREN covers every child waited for.
    """
    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def loopalg_modules() -> dict:
    return {k: m for k, m in sys.modules.items() if k == "loopalg" or k.startswith("loopalg.")}


def import_loopalg():
    for name in loopalg_modules():
        del sys.modules[name]
    lp = importlib.import_module("loopalg")
    if Path(lp.__file__).resolve().parent != SRC / "loopalg":
        raise RuntimeError(f"loopalg imported from {lp.__file__}, not from {SRC}")
    return lp


def set_up(name: str, seed: int):
    """Median over SETUP_REPS of: import loopalg, then build the workload (calibrated s)."""
    import workloads

    times = []
    for _ in range(SETUP_REPS):
        gc.collect()
        cal = calibrate()
        start = time.perf_counter()
        lp = import_loopalg()
        wl = workloads.BUILDERS[name](lp, seed)
        elapsed = time.perf_counter() - start
        times.append(calibrated(elapsed, cal, calibrate()))
    return statistics.median(times), lp, wl


def cold_inprocess(ops) -> Passes:
    """One in-process pass over CLI ops, each after a fresh, untimed import of
    ``loopalg.cli``, so that it starts with empty catalogs and tables as a
    child process does.  The package's current modules are put back after."""
    saved = loopalg_modules()
    out = Passes(latencies=[[]])
    try:
        for op in ops:
            import_loopalg()
            importlib.import_module("loopalg.cli")
            one = run_passes([op], 1, inprocess=True)
            out.latencies[0] += one.latencies[0]
            out.absorb(one)
    finally:
        for name in loopalg_modules():
            del sys.modules[name]
        sys.modules.update(saved)
    return out


def passes_for(wl, seconds: float) -> int:
    return max(1, round(seconds / wl.pass_s))


def median_of_pass_medians(p: Passes) -> float:
    return statistics.median(statistics.median(one) for one in p.latencies)


def fit_slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log t against log k."""
    xs = [math.log(k) for k, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx if sxx else 0.0


def scaling(ops, p: Passes) -> dict:
    """Median time per (space, level) of the pipeline operations, and their fits."""
    per_space: dict[str, dict[int, float]] = {}
    for op, times in zip(ops, p.by_op()):
        if op.level is not None:
            per_space.setdefault(op.space, {})[op.level] = statistics.median(times)
    slopes = [fit_slope(sorted(levels.items())) for levels in per_space.values() if len(levels) > 1]
    n2 = sum(t for s, levels in per_space.items() if s.endswith("2") for t in levels.values())
    n3 = sum(t for s, levels in per_space.items() if s.endswith("3") for t in levels.values())
    return {
        "level_s": {s: {str(k): t for k, t in sorted(v.items())} for s, v in sorted(per_space.items())},
        "k_exponent": statistics.median(slopes) if slopes else 0.0,
        "n3_over_n2": n3 / n2 if n2 and n3 else None,
    }


def write_out(name: str, payload: dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / name
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path


def end_to_end(name: str, seed: int, seconds: float) -> tuple[dict, Passes]:
    setup_s, lp, wl = set_up(name, seed)
    passes = passes_for(wl, seconds)
    p = run_passes(wl.ops, passes)
    samples = p.samples()
    pct, tail, beyond = tail_percentile(samples)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(p.pass_s), "s"),
        "op_p50_ms": (median_of_pass_medians(p) * 1000, "ms"),
        "op_tail_ms": (tail * 1000, "ms"),
        "peak_rss_mb": (peak_rss_mb(wl.cli), "MB"),
    }
    info = {
        "passes": passes,
        "ops_per_pass": len(wl.ops),
        "tail_percentile": pct,
        "tail_samples": len(samples),
        "tail_beyond": beyond,
        "error_rate": p.failed / p.attempted,
        "pass_s": p.pass_s,
        "raw_pass_s": p.raw_pass_s,
        "raw_latencies": p.raw_latencies,
        "cal_s": p.cal_s,
        "ops": {op.label: statistics.median(t) for op, t in zip(wl.ops, p.by_op())},
    }
    if any(op.level is not None for op in wl.ops):
        info["scaling"] = scaling(wl.ops, p)
    print(f"workload {name} seed {seed}: {passes} passes of {len(wl.ops)} operations")
    for key, (value, unit) in metrics.items():
        extra = ""
        if key == "op_tail_ms":
            extra = f" (p{pct:g} of {len(samples)} samples, {beyond} beyond)"
        print(f"{key} {value:.6g} {unit}{extra}")
    print(f"error_rate {info['error_rate']:.6g} ratio ({p.failed} of {p.attempted} failed)")
    print(f"raw_wall_s {statistics.median(p.raw_pass_s):.6g} s (uncalibrated)")
    if "scaling" in info:
        sc = info["scaling"]
        print(f"scaling k_exponent {sc['k_exponent']:.4g}, n3/n2 {sc['n3_over_n2']:.4g}")
        for space, levels in sc["level_s"].items():
            row = " ".join(f"k{k}={t * 1000:.1f}ms" for k, t in levels.items())
            print(f"scaling {space} {row}")
    write_out(f"{name}-seed{seed}-trace0.json", {"metrics": metrics, **info})
    return metrics, p


def traced(name: str, seed: int, seconds: float) -> tuple[dict, Passes]:
    import workloads
    from tracer import Tracer, VERIFY_SUITES

    _, lp, wl = set_up(name, seed)
    total = Passes()
    # Untraced passes, in-process like the traced one, give the overhead base.
    base = run_passes(wl.ops, max(1, passes_for(wl, seconds) // 2), inprocess=True)
    total.absorb(base)

    probe = workloads.probe_ops(lp)
    cli_ops = wl.ops if wl.cli else [op for op in probe if op.inprocess is not None]
    child = run_passes(cli_ops, 1)
    inproc = cold_inprocess(cli_ops)
    total.absorb(child)
    total.absorb(inproc)

    if any(op.level is not None for op in wl.ops):
        k_exponent = scaling(wl.ops, base)["k_exponent"]
    else:
        series = workloads.pipeline_ops(lp, random.Random(seed), [("cp", 2)], (8, 16, 24, 32))
        ks = run_passes(series, 1)
        total.absorb(ks)
        k_exponent = scaling(series, ks)["k_exponent"]

    tracer = Tracer()
    tracer.install()
    try:
        trace_pass = run_passes(wl.ops, 1, inprocess=True)
        probe_pass = run_passes(probe, 1, inprocess=True)
    finally:
        tracer.uninstall()
    total.absorb(trace_pass)
    total.absorb(probe_pass)
    # Span times are raw; bring them to calibrated seconds like the rest.
    scale = (trace_pass.pass_s[0] + probe_pass.pass_s[0]) / (
        trace_pass.raw_pass_s[0] + probe_pass.raw_pass_s[0]
    )

    m: dict[str, tuple[float, str]] = {}
    counters = tracer.counters

    def calls_self(span: str) -> None:
        calls, _, self_s = tracer.totals(span)
        m[f"{span}.calls"] = (calls, "count")
        m[f"{span}.self_s"] = (self_s * scale, "s")

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    for span in ("ring.merge_sign", "ring.cup", "ring.cross"):
        calls_self(span)
    mul_calls = tracer.totals("ring.mul_monomials")[0]
    m["ring.mul_monomials.calls"] = (mul_calls, "count")
    m["ring.mul_monomials.kept_ratio"] = (
        ratio(counters.get("ring.mul_monomials.kept", 0), mul_calls),
        "ratio",
    )
    m["ring.Ring.__eq__.calls"] = (tracer.totals("ring.Ring.__eq__")[0], "count")
    for fn in ("cap", "pairing", "pd", "pd_inverse", "RingMap.__call__", "gysin", "diagonal_pushforward"):
        calls_self(f"homology.{fn}")
    table_calls = tracer.totals("spaces.pv_gysin_table")[0]
    builds = counters.get("spaces.pv_gysin_table.builds", 0)
    m["spaces.pv_gysin_table.calls"] = (table_calls, "count")
    m["spaces.pv_gysin_table.builds"] = (builds, "count")
    m["spaces.pv_gysin_table.hit_ratio"] = (ratio(table_calls - builds, table_calls), "ratio")
    m["spaces.pv_gysin_table.build_s"] = (counters.get("spaces.pv_gysin_table.build_s", 0.0) * scale, "s")
    m["spaces.gamma.calls"] = (tracer.totals("spaces.gamma")[0], "count")
    for fn in (
        "coproduct_pipeline",
        "coproduct_closed",
        "cap_with_thom",
        "gh_product",
        "gh_dual_pairing",
        "tensor_pairing",
        "coh_cross",
        "presentation_normalize",
    ):
        calls_self(f"loops.{fn}")
    m["loops.duality.nonzero_ratio"] = (
        ratio(counters.get("loops.duality.nonzero", 0), counters.get("loops.duality.pairs", 0)),
        "ratio",
    )
    m["loops.coproduct_pipeline.k_exponent"] = (k_exponent, "1")
    for suite in VERIFY_SUITES:
        m[f"verify.{suite}.total_s"] = (tracer.totals(f"verify.{suite}")[1] * scale, "s")
        m[f"verify.{suite}.checks"] = (counters.get(f"verify.{suite}.checks", 0), "count")
    for fn in ("parse", "evaluate", "format_text", "format_latex"):
        calls_self(f"expr.{fn}")
    m["cli.run.total_s"] = (sum(inproc.samples()), "s")
    m["cli.start_ms"] = (
        (statistics.median(child.samples()) - statistics.median(inproc.samples())) * 1000,
        "ms",
    )
    m["trace.overhead_ratio"] = (
        ratio(trace_pass.pass_s[0], statistics.median(base.pass_s)),
        "ratio",
    )

    print(f"workload {name} seed {seed}: traced pass of {len(wl.ops)} operations")
    for key, (value, unit) in m.items():
        print(f"{key} {value:.6g} {unit}")
    path = write_out(
        f"{name}-seed{seed}-trace1.json",
        {"metrics": m, "spans": tracer.span_records(), "counters": counters},
    )
    print(f"spans written to {path.relative_to(ROOT)}")
    return m, total


def run_all(args) -> int:
    """Each workload in its own interpreter; prints each one's result line."""
    status = 0
    for name in WORKLOADS:
        cmd = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "loopalg" / "__init__.py").is_file():
        print(f"error: no loopalg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)

    if args.workload == "all":
        return run_all(args)
    if args.trace:
        metrics, p = traced(args.workload, args.seed, args.seconds)
    else:
        metrics, p = end_to_end(args.workload, args.seed, args.seconds)
    result = {
        "correct": p.failed == 0,
        "attempted": p.attempted,
        "failed": p.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
