"""Run every workload over sets of seeds and summarize the spread.

    python3 perfbench/sweep.py --sets 1-10,11-20 --out perfbench/baseline.json

For each set of seeds and each workload, runs `run.py --trace 0` once per
seed, one run at a time, then one traced run on the set's first seed.
Prints, per end-to-end metric, the median and the interquartile range as
a share of the median (quartiles as `statistics.quantiles(values, n=4)`
gives them). A (workload, metric) pair whose spread is above its bound in
BENCHMARK.json is flagged ``over_bound``; from the second set on, a
median that is worse than the first set's by more than the bound is
flagged ``shift_over_bound``. Writes all values and both lists of flags
to --out when given.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _worse_by(first: float, second: float, better: str) -> float:
    """How much worse `second` is than `first`, as a share of `first`."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", default="1-10,11-20",
                        help="comma-separated inclusive seed ranges, e.g. 1-10,11-20")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--hardware", default="", help="a description of the machine")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    sets, over_bound, shift_over_bound = {}, [], []
    for seeds in args.sets.split(","):
        first_set = next(iter(sets.values()), None)
        summary = sets[f"seeds {seeds}"] = {}
        for workload in args.workloads.split(","):
            runs = [_run(workload, seed, args.seconds, 0) for seed in _seeds(seeds)]
            rows = {}
            for name, metric in metrics.items():
                values = [r["metrics"][name]["value"] for r in runs]
                q1, _, q3 = statistics.quantiles(values, n=4)
                median = statistics.median(values)
                row = rows[name] = {"median": median, "q1": q1, "q3": q3,
                                    "spread": (q3 - q1) / median, "values": values}
                row["over_bound"] = row["spread"] > metric["bound"]
                if row["over_bound"]:
                    over_bound.append([seeds, workload, name, round(row["spread"], 3)])
                if first_set is not None:
                    first = first_set[workload]["end_to_end"][name]
                    row["worse_than_first_set"] = _worse_by(first["median"], median,
                                                            metric["better"])
                    if row["worse_than_first_set"] > metric["bound"]:
                        shift_over_bound.append([seeds, workload, name,
                                                 round(row["worse_than_first_set"], 3)])
                print(f"{seeds:6s} {workload:16s} {name:20s} median {median:12.6g}  "
                      f"spread {row['spread']:.3f}  bound {metric['bound']}"
                      + ("  OVER" if row["over_bound"] else ""), flush=True)
            traced = _run(workload, _seeds(seeds)[0], args.seconds, 1)
            summary[workload] = {
                "end_to_end": rows,
                "attempted": [r["attempted"] for r in runs],
                "failed": [r["failed"] for r in runs],
                "per_layer": {k: v["value"] for k, v in traced["metrics"].items()}}
            print(f"{seeds:6s} {workload:16s} failed/attempted per run: "
                  f"{[(r['failed'], r['attempted']) for r in runs]}", flush=True)
    doc = {"what": "End-to-end medians and spreads per workload over sets of seeds "
                   "(perfbench/sweep.py), plus one traced run per set",
           "hardware": args.hardware, "cpus": os.cpu_count(), "platform": platform.platform(),
           "python": platform.python_version(), "run_seconds": args.seconds,
           "over_bound": over_bound, "shift_over_bound": shift_over_bound, "sets": sets}
    print(f"over bound (set, workload, metric, spread): {over_bound}")
    print(f"median worse than the first set by more than the bound: {shift_over_bound}")
    if args.out:
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
