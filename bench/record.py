"""Record a benchmark trajectory file from `perfbench/run.py` runs.

    python3 bench/record.py --out BENCH.json --seeds 41 42 43 \\
        --side parent=../parent-checkout --side change=.

For each seed, each side (a source checkout holding `perfbench/` and
`src/`) runs the four workloads in turn, untraced, for --seconds each;
the sides alternate within a seed, so a pair of runs shares the
machine's state, and which side runs first alternates from seed to
seed. certify, membership-scan and verify-sweep then run once more per
side and seed with --trace 1 for their per-layer rows (see TRACED), and
one more child per side times direct calls by n (see DIRECT): the
`verify` checks, and total-cone membership, certificates and splits and
multiplicity-3 certificates and regular classifications up to n = 500,
past the workloads' n <= 48, best of DIRECT_CALLS each. Children run with
PYTHONDONTWRITEBYTECODE=1, so no checkout gains `__pycache__` files.

The output JSON holds, per side, the checkout's commit (when it is a git
checkout, with a flag for uncommitted changes), every run's end-to-end
metrics, counts and first-round digest, the traced rows and the direct
rows; then, per workload and metric, each side's median and quartiles
and, with two sides, in how many pairs the second side was better (the
direction is the metric's `better` entry in BENCHMARK.json), and the
same medians and quartiles of every traced row (`summary.traced`) and
direct row (`summary.direct`). Every run and child records whether all
its answers were correct. Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("membership-scan", "certify", "cli-roundtrip", "verify-sweep")
# workload traced with --trace 1 -> the per-layer rows kept from its runs
TRACED = {
    "certify": re.compile(r"\.decompose_ms\.n\d+$|\.split_ms\.n48$"),
    "membership-scan": re.compile(r"\.(facets_check|member|classify)_ms\.n\d+$"),
    "verify-sweep": re.compile(r"^(verification\.check_\w+|oracle\.\w+)_ms$"),
}
DIGEST_PREFIX = "# digest sha256 of the first round's answers: "
# call -> the arguments it is timed at, as direct calls: n (and d), and
# for membership and certificates the point, when it is not a seeded
# member (see DIRECT_SCRIPT)
DIRECT = {"verification.check_regular": [(6,), (8,), (11,)],
          "verification.check_total": [(6,), (8,), (11,)],
          "verification.check_fixed": [(6, 3), (6, 6)],
          "verification.check_triangulations": [(6,)],
          "hyper_total.facets_check": [(48,), (200,), (500,), (200, "coprime_negative")],
          "hyper_total.decompose": [(48,), (200,), (500, "coprime")],
          "hyper_total.split": [(48,), (200,), (500, "coprime")],
          "hyper_fixed.decompose": [(48, 3), (500, 3)],
          "regular.classify": [(48,), (200,), (500, "coprime")]}
# Calls per DIRECT case, the best kept.  5 calls mostly timed warm-up: 7
# back-to-back children on a shared 2-vCPU VM spread 5-31% (IQR over
# median) with 5 and 1-7% with 30, at about 1.2 s a child.  Children
# minutes apart drift further (34-65% over the 10 seeds of BENCH_9.json).
DIRECT_CALLS = 30
# Run in a child with the checkout's src/ on the path: best of
# DIRECT_CALLS calls of each case, in ms, under a row name like
# verification.check_fixed_ms.n6.d3 or hyper_total.facets_check_ms.n500,
# with the point's name last when it is not a seeded member.  Membership
# and certificates run on a point built first: a member seeded by n; a
# "coprime" member, level at 2(n+1) and moved off the integers by a
# fraction of the k-th prime at entry k < n; or the "coprime_negative"
# point, -1 - 1/p^2 at entry k for the k-th prime p, on which every
# total-cone window is negative.  Their denominators are pairwise coprime,
# so their common denominator has thousands of bits at n = 500.
# `regular.classify` runs on a seeded member of the regular cone or on
# the point's entries 0..n as a finite vector, and checks its answer
# against the regular cone's own membership test.
DIRECT_SCRIPT = """
import json, random, sys, time
from fractions import Fraction
from betticone import hyper_fixed, hyper_total, regular, verification
from betticone.sequences import BettiVector, TailPeriodicSequence

def member(cone):
    rng = random.Random(cone.n)
    return cone.combine([rng.randint(1, 9) for _ in cone.names])

def primes(count):
    out, k = [], 2
    while len(out) < count:
        if all(k % p for p in out if p * p <= k):
            out.append(k)
        k += 1
    return out

def flat(head):
    return TailPeriodicSequence(len(head) - 1, tuple(head[:-1]), head[-1], head[-1])

def coprime(n):
    rng = random.Random(n)
    return flat([2 * (n + 1) + Fraction(rng.randrange(p), p) for p in primes(n)]
                + [Fraction(2 * (n + 1))])

def coprime_negative(n):
    return flat([-1 - Fraction(1, p * p) for p in primes(n + 1)])

POINTS = {"coprime": coprime, "coprime_negative": coprime_negative}

def call(name, args):
    if name.startswith("hyper_total."):
        n, *point = args
        w = POINTS[point[0]](n) if point else member(hyper_total.cone(n))
        if name == "hyper_total.facets_check":
            ok = point != ["coprime_negative"]
            return lambda: hyper_total.facets_check(w, n).ok == ok
        if name == "hyper_total.split":
            return lambda: min(min(v.entries) for v in hyper_total.split(w, n)) >= 0
        return lambda: min(hyper_total.decompose(w, n).coefficients) >= 0
    if name == "regular.classify":
        n, *point = args
        v = BettiVector.of(POINTS[point[0]](n).prefix(n + 1)) if point else member(regular.cone(n))
        ok = regular.cone(n).member(v).ok
        return lambda: regular.classify(v).member_of_closure == ok
    if name == "hyper_fixed.decompose":
        p = hyper_fixed.FixedConeParams(*args)
        w = member(hyper_fixed.cone(p))
        return lambda: min(hyper_fixed.decompose(w, p).coefficients) >= 0
    check = getattr(verification, name.split(".")[1])
    return lambda: check(*args).ok

rows, correct = {}, True
for name, cases in json.loads(sys.argv[1]).items():
    for args in cases:
        once, times = call(name, args), []
        for _ in range(int(sys.argv[2])):
            start = time.perf_counter()
            correct = once() and correct
            times.append(time.perf_counter() - start)
        row = f"{name}_ms.n{args[0]}" + "".join(f".d{a}" if isinstance(a, int) else f".{a}"
                                                for a in args[1:])
        rows[row] = {"value": 1000 * min(times), "unit": "ms"}
print(json.dumps({"correct": correct, "rows": rows}))
"""


def run_perfbench(checkout: Path, workload: str, seed: int, seconds: float,
                  trace: int) -> dict:
    """One `perfbench/run.py` child; its final JSON line plus the digest."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, env=env, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["digest"] = next((line[len(DIGEST_PREFIX):] for line in lines
                             if line.startswith(DIGEST_PREFIX)), None)
    return result


def run_direct(checkout: Path) -> dict:
    """One child timing the DIRECT calls in the checkout."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run([sys.executable, "-c", DIRECT_SCRIPT, json.dumps(DIRECT),
                           str(DIRECT_CALLS)],
                          cwd=checkout, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def commit_of(checkout: Path) -> dict:
    def git(*args):
        proc = subprocess.run(["git", "-C", str(checkout), *args],
                              capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None
    head = git("rev-parse", "HEAD")
    if head is None:
        return {"commit": None, "uncommitted_changes": None}
    return {"commit": head, "uncommitted_changes": bool(git("status", "--porcelain"))}


def machine() -> dict:
    model = None
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        model = next((line.split(":", 1)[1].strip()
                      for line in cpuinfo.read_text().splitlines()
                      if line.startswith("model name")), None)
    return {"platform": platform.platform(), "cpu": model or platform.processor(),
            "cpu_count": os.cpu_count(), "python": platform.python_version()}


def spread(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(sides: dict, better: dict) -> dict:
    names = list(sides)
    out = {}
    for workload in WORKLOADS:
        rows = {}
        for metric, direction in better.items():
            series = {name: [run["metrics"][metric]["value"] for run in side["runs"][workload]]
                      for name, side in sides.items()}
            row = {name: spread(values) for name, values in series.items()}
            if len(names) == 2:
                first, second = series[names[0]], series[names[1]]
                wins = sum((b < a) if direction == "lower" else (b > a)
                           for a, b in zip(first, second))
                row[f"{names[1]}_better_in"] = f"{wins}/{len(first)}"
            rows[metric] = row
        out[workload] = rows
    out["traced"] = {}
    for workload in TRACED:
        runs = {name: [run["rows"] for run in side["traced"] if run["workload"] == workload]
                for name, side in sides.items()}
        out["traced"][workload] = {
            row: {name: spread([rows[row]["value"] for rows in side_runs])
                  for name, side_runs in runs.items()}
            for row in runs[names[0]][0]}
    out["direct"] = {row: {name: spread([run["rows"][row]["value"] for run in side["direct"]])
                           for name, side in sides.items()}
                     for row in sides[names[0]]["direct"][0]["rows"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seeds", required=True, type=int, nargs="+")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--side", action="append", default=[],
                        help="NAME=DIR, a checkout to run; repeat to alternate sides "
                             "(default: change=<this checkout>)")
    parser.add_argument("--note", default="", help="Free text stored with the machine note.")
    args = parser.parse_args(argv)

    checkouts = {}
    for spec in args.side or [f"change={ROOT}"]:
        name, sep, path = spec.partition("=")
        if not sep or not (Path(path) / "perfbench" / "run.py").is_file():
            parser.error(f"--side needs NAME=DIR with DIR a source checkout, got {spec!r}")
        checkouts[name] = Path(path).resolve()
    better = {m["name"]: m["better"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}

    sides = {name: {**commit_of(path), "runs": {w: [] for w in WORKLOADS}, "traced": [],
                    "direct": []}
             for name, path in checkouts.items()}
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    for i, seed in enumerate(args.seeds):
        order = list(checkouts.items())[::1 if i % 2 == 0 else -1]
        for workload in WORKLOADS:
            for name, path in order:
                result = run_perfbench(path, workload, seed, args.seconds, trace=0)
                sides[name]["runs"][workload].append(
                    {"seed": seed, "digest": result["digest"], "correct": result["correct"],
                     "attempted": result["attempted"], "failed": result["failed"],
                     "metrics": result["metrics"]})
                print(f"{name} {workload} seed={seed}: "
                      f"ops_per_s {result['metrics']['ops_per_s']['value']:.4g}, "
                      f"correct {result['correct']}", file=sys.stderr)
        for workload, pattern in TRACED.items():
            for name, path in order:
                result = run_perfbench(path, workload, seed, args.seconds, trace=1)
                sides[name]["traced"].append(
                    {"seed": seed, "workload": workload, "correct": result["correct"],
                     "rows": {k: v for k, v in result["metrics"].items() if pattern.search(k)}})
        for name, path in order:
            sides[name]["direct"].append({"seed": seed, **run_direct(path)})

    record = {"started": started, "machine": {**machine(), "note": args.note},
              "seconds": args.seconds, "seeds": args.seeds,
              "sides": {name: {"checkout": path.name, **sides[name]}
                        for name, path in checkouts.items()},
              "summary": summarize(sides, better)}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
