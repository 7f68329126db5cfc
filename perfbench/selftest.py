"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. A deliberately wrong reference is counted as a failed operation, for a
   library operation and for a CLI operation.
2. Every end-to-end metric in BENCHMARK.json is printed with its unit, and a
   traced run emits every per-layer name the benchmark defines, with its unit.
3. In a directory holding only BENCHMARK.json and the benchmark's own files,
   the benchmark exits non-zero without printing a result.

Takes about half a minute.  Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

# The per-layer names the benchmark promises, by module.
LAYER_NAMES = (
    [f"ring.{f}.{s}" for f in ("merge_sign", "cup", "cross") for s in ("calls", "self_s")]
    + ["ring.mul_monomials.calls", "ring.mul_monomials.kept_ratio", "ring.Ring.__eq__.calls"]
    + [
        f"homology.{f}.{s}"
        for f in ("cap", "pairing", "pd", "pd_inverse", "RingMap.__call__", "gysin", "diagonal_pushforward")
        for s in ("calls", "self_s")
    ]
    + [
        "spaces.pv_gysin_table.calls",
        "spaces.pv_gysin_table.builds",
        "spaces.pv_gysin_table.hit_ratio",
        "spaces.pv_gysin_table.build_s",
        "spaces.gamma.calls",
    ]
    + [
        f"loops.{f}.{s}"
        for f in (
            "coproduct_pipeline",
            "coproduct_closed",
            "cap_with_thom",
            "gh_product",
            "gh_dual_pairing",
            "tensor_pairing",
            "coh_cross",
            "presentation_normalize",
        )
        for s in ("calls", "self_s")
    ]
    + ["loops.duality.nonzero_ratio", "loops.coproduct_pipeline.k_exponent"]
    + [
        f"verify.{suite}.{s}"
        for suite in ("duality", "coassoc", "presentation", "pipeline", "gysin", "rings")
        for s in ("total_s", "checks")
    ]
    + [f"expr.{f}.{s}" for f in ("parse", "evaluate", "format_text", "format_latex") for s in ("calls", "self_s")]
    + ["cli.run.total_s", "cli.start_ms", "trace.overhead_ratio"]
)

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def wrong_reference_counts(label: str, ops) -> None:
    """Give the first op the second op's (different) reference; one must fail."""
    first, second = ops
    expect(first.ref != second.ref, f"{label}: the two references differ")
    first.ref = second.ref
    result = run.run_passes([first, second], 1)
    expect(
        (result.attempted, result.failed) == (2, 1),
        f"{label}: wrong reference counted as 1 failure of 2, got {result.failed} of {result.attempted}",
    )


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def printed_with_units(proc, declared: list[dict], label: str) -> None:
    lines = proc.stdout.strip().splitlines()
    expect(proc.returncode == 0 and bool(lines), f"{label}: run exits 0 with output")
    if not lines:
        return
    result = json.loads(lines[-1])
    expect(result["correct"] and result["failed"] == 0, f"{label}: every operation correct")
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) >= 3:
            printed[parts[0]] = parts[2]
    missing = [
        m["name"]
        for m in declared
        if printed.get(m["name"]) != m["unit"] or result["metrics"].get(m["name"], {}).get("unit") != m["unit"]
    ]
    expect(not missing, f"{label}: every declared metric printed with its unit (missing {missing})")
    extra = sorted(set(result["metrics"]) - {m["name"] for m in declared})
    expect(not extra, f"{label}: no undeclared metric in the result (extra {extra})")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect(
        [m["name"] for m in spec["per_layer"]] == LAYER_NAMES,
        "BENCHMARK.json declares exactly the promised per-layer names",
    )

    lp = run.import_loopalg()
    ladder = workloads.pipeline_ops(lp, random.Random(0), [("cp", 2)], (3, 4))
    wrong_reference_counts("library op", ladder)
    cli = workloads.CliOps(lp)
    wrong_reference_counts(
        "CLI op",
        [
            cli.coproduct("cp", 2, "A[3,1]", "closed", "text"),
            cli.coproduct("cp", 2, "B[4,0]", "closed", "text"),
        ],
    )

    printed_with_units(
        run_bench("--workload", "cli_mix", "--seed", "5", "--seconds", "1", "--trace", "0"),
        spec["end_to_end"],
        "untraced run",
    )
    printed_with_units(
        run_bench("--workload", "cli_mix", "--seed", "5", "--seconds", "1", "--trace", "1"),
        spec["per_layer"],
        "traced run",
    )

    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "pipeline_ladder", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    expect(
        proc.returncode != 0 and not proc.stdout.strip(),
        f"bare directory: exits non-zero without a result (exit {proc.returncode})",
    )
    shutil.rmtree(bare)

    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
