"""Machine-speed references that the timed loop runs between requests.

On a shared VM the same pure-Python code runs up to twice as slow for
seconds at a time while another tenant is busy, which moves raw
wall-clock figures by 20-40% from one run to the next. A reference is a
fixed piece of work that no change to the package can move, timed now:

- `fraction_sum`, exact `Fraction` arithmetic on small integers written
  here, like the package's own in-process work;
- `interpreter_start`, a bare `python -c pass` child from spawn to exit,
  like the start-up that dominates one CLI request.

`Reference` takes one reference time before the first request and again
whenever the requests since the last one have run for its quantum, and
`Reference.scale` divides each request's latency by the mean of the two
reference times around it and multiplies by the reference's nominal
time. A scaled time is thus the time on a machine where the reference
takes its nominal time.
"""

from __future__ import annotations

import subprocess
import sys
from fractions import Fraction
from time import perf_counter


def fraction_sum() -> float:
    """Seconds one fixed Fraction computation takes now."""
    t0 = perf_counter()
    total = Fraction(0)
    for i in range(1, 250):
        total += Fraction(1, i)
    return perf_counter() - t0


def interpreter_start() -> float:
    """Seconds a bare interpreter child takes now, from spawn to exit."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], capture_output=True, timeout=120)
    return perf_counter() - t0


# name: (reference, nominal seconds, quantum seconds)
REFERENCES = {"fraction_sum": (fraction_sum, 0.001, 0.004),
              "interpreter_start": (interpreter_start, 0.07, 0.1)}


class Reference:
    """Reference times, and the requests each consecutive pair brackets."""

    def __init__(self, name: str = "fraction_sum"):
        self.name = name
        self._measure, self.nominal, self._quantum = REFERENCES[name]
        self.times = [self._measure()]
        self.marks: list[int] = []  # requests served when each later time was taken
        self._since = 0.0

    def after(self, served: int, latency: float) -> None:
        """Record one more request; take a reference time every quantum."""
        self._since += latency
        if self._since >= self._quantum:
            self.close(served)

    def close(self, served: int) -> None:
        if not self.marks or self.marks[-1] != served:
            self.times.append(self._measure())
            self.marks.append(served)
        self._since = 0.0

    def scale(self, latencies: list[float]) -> list[float]:
        out, start = [], 0
        for k, end in enumerate(self.marks):
            factor = 2 * self.nominal / (self.times[k] + self.times[k + 1])
            out += [t * factor for t in latencies[start:end]]
            start = end
        return out
