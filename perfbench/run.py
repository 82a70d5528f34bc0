"""The betticone benchmark.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Runs one workload from the root of a source checkout (the package is
imported from ``src``; nothing is installed). Load is a closed loop with
one client in one thread: each request starts after the previous answer
was checked. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a readable table with sample counts.

--trace 0 measures the end-to-end metrics. Every reported time is scaled
to a machine-speed reference run between requests (see `speed`): the
interpreter start for cli-roundtrip, a Fraction sum for the others and
for set-up; the table also prints the raw wall-clock values. Whole
rounds of requests run until their summed scaled latency reaches
--seconds and at least MIN_ROUNDS rounds and MIN_OPS requests ran, so
every run serves the same mix of operations and, whatever the load on
the machine, the same number of rounds. Each answer is checked right
after its clock stops. Set-up time is the median of PROBES fresh
interpreters. --trace 1 serves the first
TRACE_ROUNDS rounds twice, first untraced and then traced, and reports
the per-layer metrics (raw wall clock); the fixed list makes counts such
as solves per certificate repeat exactly for a seed. Spans are written
to .perfbench_out/.

cli-roundtrip also serves the known input-boundary defects once, after
the measured requests (`gen.known_defects`). They are neither timed nor
counted in ``attempted``/``failed``; the table lists each that fails, and
the traced run reports how many as ``cli.known_defects.failed``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from itertools import count
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import check, gen, metrics, speed, trace  # noqa: E402

PROBES = 3
MIN_OPS = 100
# A certify round's cost varies with its inputs by about a quarter, so one
# costly round must not end a run on its own.
MIN_ROUNDS = 2
WALL_LIMIT_S = 150
# Rounds per traced run: about ten seconds untraced on a 2-core x86 VM.
TRACE_ROUNDS = {"membership-scan": 20, "certify": 1, "cli-roundtrip": 1, "verify-sweep": 6}
BREAKDOWN_RUNS = 10
REPLAYS = 5
OUT_DIR = ROOT / ".perfbench_out"


def probe_setup(workload: str) -> tuple[list[float], list[float]]:
    """Set-up seconds in PROBES fresh interpreters, one at a time: raw and
    scaled to the machine-speed reference."""
    raw, scaled = [], []
    for _ in range(PROBES):
        proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "probe.py"), workload],
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        seconds, seconds_scaled = proc.stdout.strip().splitlines()[-1].split()
        raw.append(float(seconds))
        scaled.append(float(seconds_scaled))
    return raw, scaled


class Runner:
    """Performs and checks requests for one workload."""

    def __init__(self, workload: str):
        from perfbench import ops
        self.ops = ops
        self.cli = workload == "cli-roundtrip"
        self.env = ops.cli_env()

    def perform(self, req, call):
        """Returns the outcome: an answer, a CLI triple, or the exception raised."""
        try:
            if self.cli:
                return call("cli.request", self.ops.run_cli, req["args"]["argv"], self.env)
            return self.ops.execute(req, call)
        except Exception as exc:  # an unexpected exception is a failed request
            return exc

    @staticmethod
    def judge(req, outcome) -> str | None:
        if isinstance(outcome, Exception):
            return f"raised {type(outcome).__name__}: {outcome}"
        if isinstance(outcome, tuple):
            return check.check_cli(req, *outcome)
        return check.check_answer(req, outcome)

    @staticmethod
    def digest_line(index, outcome) -> str:
        if isinstance(outcome, tuple):
            outcome = f"{outcome[0]}\t{outcome[1]}"
        elif isinstance(outcome, Exception):
            outcome = f"raised {type(outcome).__name__}"
        return f"{index}\t{outcome}\n"


def measure(workload: str, seed: int, seconds: float) -> dict:
    """The untraced closed loop over whole rounds; returns latencies, raw
    and scaled to the machine-speed reference, and counts. The digest
    covers the answers of the first round."""
    from perfbench import ops
    runner = Runner(workload)
    reference = speed.Reference(metrics.REFERENCE[workload])
    digest = hashlib.sha256()
    latencies, sizes, problems = [], [], []
    start = time.perf_counter()
    for r in count():
        for req in gen.ROUNDS[workload](seed, r):
            if time.perf_counter() - start > WALL_LIMIT_S:
                break
            index = len(latencies)
            t0 = time.perf_counter()
            outcome = runner.perform(req, ops.direct)
            dt = time.perf_counter() - t0
            latencies.append(dt)
            sizes.append(req["n"])
            reference.after(len(latencies), dt)
            problem = runner.judge(req, outcome)
            if problem:
                problems.append((index, req, problem))
            if r == 0:
                digest.update(runner.digest_line(index, outcome).encode())
        reference.close(len(latencies))
        if (r + 1 >= MIN_ROUNDS and len(latencies) >= MIN_OPS
                and sum(reference.scale(latencies)) >= seconds
                or time.perf_counter() - start > WALL_LIMIT_S):
            break
    return {"latencies": latencies, "scaled": reference.scale(latencies), "sizes": sizes,
            "problems": problems, "digest": digest.hexdigest(),
            "reference": reference}


def _rate(latencies, sizes, keep):
    picked = [t for t, n in zip(latencies, sizes) if keep(n)]
    return (len(picked) / sum(picked) if picked else 0.0), len(picked)


def end_to_end(workload, lat, sizes, setup_times) -> tuple[dict, dict]:
    small, n_small = _rate(lat, sizes, lambda n: n <= metrics.SMALL_N)
    large, n_large = _rate(lat, sizes, lambda n: n >= metrics.LARGE_N[workload])
    values = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(lat) / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3,
        "n_small.ops_per_s": small,
        "n_large.ops_per_s": large,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = {"setup_s": len(setup_times), "ops_per_s": len(lat),
               "latency_p50_ms": len(lat), "latency_p90_ms": len(lat),
               "n_small.ops_per_s": n_small, "n_large.ops_per_s": n_large,
               "peak_rss_mb": 1}
    return values, samples


def cli_breakdown(requests, failed_ops) -> tuple[dict, trace.Tracer]:
    """Split CLI latency into bare interpreter, package import and the
    command itself. The command is replayed in process, untraced and then
    traced, REPLAYS times after one warm-up pair; the last traced replay
    gives the layer metrics of cli-roundtrip and the layer each failed
    request is credited to, and all of them the tracing overhead."""
    from perfbench import ops
    from betticone import linalg, oracle
    import betticone.cli as cli
    env = ops.cli_env()
    bare, imported = [], []
    for _ in range(BREAKDOWN_RUNS):
        for argv, out in (((sys.executable, "-c", "pass"), bare),
                          ((sys.executable, "-c", "import betticone.cli"), imported)):
            t0 = time.perf_counter()
            subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, timeout=120)
            out.append(time.perf_counter() - t0)

    escaped = {}

    def replay(call) -> float:
        escaped.clear()
        t0 = time.perf_counter()
        for i, req in enumerate(requests):
            tracer.op = i
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                try:
                    call("op", call, "cli.main", cli.main, list(req["args"]["argv"]))
                except Exception as exc:  # the known defects escape main()
                    escaped[i] = exc
        return time.perf_counter() - t0

    names = {"sequence_from_json": "sequences.parse", "sequence_to_json": "sequences.serialize"}
    plain = with_spans = 0.0
    for k in range(REPLAYS + 1):
        tracer = trace.Tracer()
        untraced = replay(ops.direct)
        with tracer.wrap_modules(linalg, oracle), tracer.wrap_names(cli, names):
            traced_s = replay(tracer.call)
        if k:
            plain, with_spans = plain + untraced, with_spans + traced_s
    blamed = [trace.blame(requests[i], escaped.get(i)) for i in failed_ops]
    values = trace.layer_metrics(tracer.spans, requests, blamed)
    interp = statistics.median(bare) * 1e3
    values.update({"cli.interp_start_ms": interp,
                   "cli.import_ms": statistics.median(imported) * 1e3 - interp,
                   "cli.command_ms": statistics.mean(
                       (s[2] - s[1]) * 1e3 for s in tracer.spans if s[0] == "cli.main"),
                   "trace.overhead_pct": (with_spans - plain) / plain * 100})
    return values, tracer


def traced(workload: str, seed: int) -> tuple[dict, int, int]:
    from perfbench import ops
    from betticone import linalg, oracle
    runner = Runner(workload)
    requests = [req for r in range(TRACE_ROUNDS[workload])
                for req in gen.ROUNDS[workload](seed, r)]

    plain = 0.0
    failed = 0
    for req in requests:
        t0 = time.perf_counter()
        outcome = runner.perform(req, ops.direct)
        plain += time.perf_counter() - t0
        failed += runner.judge(req, outcome) is not None

    tracer = trace.Tracer()
    failed_ops, blamed, answers = [], [], []
    with tracer.wrap_modules(linalg, oracle):
        for i, req in enumerate(requests):
            tracer.op = i
            outcome = tracer.call("op", runner.perform, req, tracer.call)
            if runner.judge(req, outcome) is not None:
                failed_ops.append(i)
                blamed.append(trace.blame(req, outcome))
            elif req["op"] in trace.CERTIFYING_OPS:
                answers.append(outcome)
    with_spans = sum(s[2] - s[1] for s in tracer.spans if s[0] == "op")
    tracer.write(OUT_DIR / f"spans-{workload}-seed{seed}.json")
    if runner.cli:
        # The children are untraced: layer metrics and overhead come from
        # the in-process replay of the same requests.
        values, replay = cli_breakdown(requests, failed_ops)
        replay.write(OUT_DIR / f"spans-{workload}-seed{seed}-inprocess.json")
    else:
        values = trace.layer_metrics(tracer.spans, requests, blamed, answers)
        values.update({"cli.interp_start_ms": 0.0, "cli.import_ms": 0.0, "cli.command_ms": 0.0,
                       "trace.overhead_pct": (with_spans - plain) / plain * 100})
    values["error_rate"] = failed / len(requests)
    return values, len(requests), failed


def probe_known_defects(seed: int) -> list[tuple[str, str]]:
    """(kind, problem) for each known input-boundary defect that still fails."""
    from perfbench import ops
    runner = Runner("cli-roundtrip")
    failures = []
    for req in gen.known_defects(seed):
        problem = runner.judge(req, runner.perform(req, ops.direct))
        if problem:
            failures.append((req["meta"]["inner"]["malformed"], problem))
    return failures


def _fmt(x) -> str:
    return f"{x:.6g}" if isinstance(x, float) else str(x)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "betticone").is_dir():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    from perfbench import ops
    ops.setup(args.workload, gen.warmups(args.workload))

    if args.trace:
        values, attempted, failed = traced(args.workload, args.seed)
        defects = probe_known_defects(args.seed) if args.workload == "cli-roundtrip" else []
        values["cli.known_defects.failed"] = len(defects)
        units = {name: unit for name, unit, _, _ in metrics.PER_LAYER}
        print(f"# traced {args.workload} seed={args.seed}: {attempted} requests, "
              f"{failed} failed")
        for name, _, _, _ in metrics.PER_LAYER:
            print(f"  {name:45s} {_fmt(values[name]):>12} {units[name]}")
    else:
        setup_raw, setup_scaled = probe_setup(args.workload)
        raw = measure(args.workload, args.seed, args.seconds)
        defects = probe_known_defects(args.seed) if args.workload == "cli-roundtrip" else []
        values, samples = end_to_end(args.workload, raw["scaled"], raw["sizes"], setup_scaled)
        unscaled, _ = end_to_end(args.workload, raw["latencies"], raw["sizes"], setup_raw)
        attempted, failed = len(raw["latencies"]), len(raw["problems"])
        units = {name: unit for name, unit, _ in metrics.END_TO_END}
        print(f"# {args.workload} seed={args.seed}: {attempted} requests, {failed} failed, "
              f"error_rate {failed / attempted:.4f}")
        print(f"# digest sha256 of the first round's answers: {raw['digest']}")
        ref = raw["reference"]
        print(f"# times scaled to the {ref.name} reference at {ref.nominal * 1e3:g} ms; it took "
              f"{statistics.median(ref.times) * 1e3:.4g} ms here (median of {len(ref.times)}); "
              "raw wall-clock values after")
        for name, unit, _ in metrics.END_TO_END:
            print(f"  {name:20s} {_fmt(values[name]):>12} {unit:6s} n={samples[name]:<6} "
                  f"raw {_fmt(unscaled[name])}")
        for index, req, problem in raw["problems"][:10]:
            print(f"  failed #{index} {req['op']} n={req['n']}: {problem[:160]}")
    if args.workload == "cli-roundtrip":
        print(f"# known input-boundary defects, untimed and not counted above: {len(defects)} "
              f"of {len(gen.MALFORMED_DEFECTS)} fail")
        for kind, problem in defects:
            print(f"  known defect {kind}: {problem[:160]}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": values[name], "unit": units[name]}
                          for name in units}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
