"""Set-up time of one workload in this fresh interpreter.

    python3 perfbench/probe.py certify

Prints the seconds from the first `import betticone` until the first timed
operation could start: building the workload's cones and one warm-up op
per (op, n). Making the warm-up requests is not counted. It prints them
twice, raw and scaled to the workload's reference (see `speed`), whose
time is the median of its runs in the REFERENCE_S before and after the
set-up (at least three runs each side).
"""

import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import gen, metrics, speed  # noqa: E402

REFERENCE_S = 0.1


def _references(measure) -> list[float]:
    times = []
    while len(times) < 3 or sum(times) < REFERENCE_S:
        times.append(measure())
    return times


def main() -> None:
    workload = sys.argv[1]
    warmups = gen.warmups(workload)
    measure, nominal, _ = speed.REFERENCES[metrics.REFERENCE[workload]]
    refs = _references(measure)
    t0 = time.perf_counter()
    from perfbench import ops
    ops.setup(workload, warmups)
    raw = time.perf_counter() - t0
    refs += _references(measure)
    print(repr(raw), repr(raw * nominal / statistics.median(refs)))


if __name__ == "__main__":
    main()
