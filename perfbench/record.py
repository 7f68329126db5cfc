"""Run every workload over two sets of seeds and record the figures.

    python3 perfbench/record.py --out perfbench/BENCH_0.json

Each run is a separate ``run.py`` process.  Every workload runs once per seed in
two sets of ten seeds, 101-110 and 201-210, as a check that two sets of runs of
the same code agree.  For every end-to-end metric and set, the record holds the
values, their median and their spread, the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the median, next
to the bound from BENCHMARK.json; and the change of the second set's median
against the first's, as a share of the first.  It also holds one traced run per
workload, the scaling series of ``pipeline_ladder`` (median time of each level
over both sets, the n = 3 to n = 2 ratio and the fitted exponent in k), and the
interpreter version and processor count the figures were taken with.

Exits 1 if any spread reaches its bound, or if a second median is worse than
the first by its bound or more.  Later records go to new files; a record is not
rewritten once committed.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
SEED_SETS = (range(101, 111), range(201, 211))


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, help="write the record here")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in spec["end_to_end"]}
    sets = [list(seeds) for seeds in SEED_SETS]
    record = {
        "date": datetime.date.today().isoformat(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "run_seconds": spec["run_seconds"],
        "sets": sets,
        "workloads": {},
    }
    ok = True
    for wl in spec["workloads"]:
        name = wl["name"]
        entry = {"why": wl["why"], "failed": 0, "sets": [], "second_vs_first": {}}
        for seeds in sets:
            results = [run_once(spec, name, seed, 0) for seed in seeds]
            entry["failed"] += sum(r["failed"] for r in results)
            print(f"{name} seeds {seeds[0]}-{seeds[-1]}: {sum(r['attempted'] for r in results)} operations")
            one = {}
            for metric, m in declared.items():
                values = [r["metrics"][metric]["value"] for r in results]
                s = spread(values)
                one[metric] = {
                    "unit": m["unit"],
                    "median": statistics.median(values),
                    "spread": s,
                    "bound": m["bound"],
                    "values": values,
                }
                flag = "ok" if s < m["bound"] / 3 else ("WIDE" if s < m["bound"] else "OVER")
                ok &= s < m["bound"]
                print(f"  {metric:12s} median {one[metric]['median']:10.5g}  spread {s:6.3f}  bound {m['bound']}  {flag}")
            entry["sets"].append(one)
        for metric, m in declared.items():
            first, second = (one[metric]["median"] for one in entry["sets"])
            worse = (second - first) / first * (1 if m["better"] == "lower" else -1)
            entry["second_vs_first"][metric] = worse
            ok &= worse < m["bound"]
            print(f"  {metric:12s} second set worse by {worse:+.3f} (bound {m['bound']})")
        ok &= entry["failed"] == 0
        if name == "pipeline_ladder":
            details = [
                json.loads((OUT_DIR / f"{name}-seed{seed}-trace0.json").read_text())["scaling"]
                for seeds in sets
                for seed in seeds
            ]
            levels = {}
            for space in details[0]["level_s"]:
                levels[space] = {
                    k: statistics.median(d["level_s"][space][k] for d in details)
                    for k in sorted(details[0]["level_s"][space], key=int)
                }
            entry["scaling"] = {
                "level_s": levels,
                "n3_over_n2": statistics.median(d["n3_over_n2"] for d in details),
                "k_exponent": statistics.median(d["k_exponent"] for d in details),
            }
        traced = run_once(spec, name, sets[0][0], 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        record["workloads"][name] = entry
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
        print(f"wrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
