"""Spans for the traced run and the per-layer metrics computed from them.

A span is [name, start, end, parent, op]: ``parent`` is the index of the
enclosing span (-1 for none) and ``op`` the position of the request being
served. The benchmark opens a span around each of its own calls into a
layer; `wrap_modules` also replaces the public functions of `linalg` and
`oracle`, at their module attributes and at every name another package
module bound them to (``from .linalg import dot``), so that calls made
from inside `hyper_total`, `oracle` and `verification` appear as child
spans. A layer is the package module a span name starts with. Spans stay
in memory until `write`.

An exception is tagged with the layer of the innermost span it left, so
a failed request is credited to the layer that raised (see `blame`).
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import Counter
from contextlib import contextmanager
from statistics import mean
from time import perf_counter

from . import gen

LAYERS = ("sequences", "regular", "hyper_total", "hyper_fixed", "linalg", "pure",
          "oracle", "verification", "cli")
CERTIFYING_OPS = ("hyper_total.decompose", "hyper_fixed.decompose", "hyper_total.split")
RAISED_IN = "perfbench_raised_in"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            if not hasattr(exc, RAISED_IN):
                setattr(exc, RAISED_IN, name.split(".")[0])
            raise
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    @contextmanager
    def wrap_modules(self, *modules):
        """Route every public function of each module through `call`,
        wherever a loaded package module holds it."""
        wrapped = {}
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for attr, fn in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__):
                    wrapped[fn] = self._wrapper(f"{layer}.{attr}", fn)
        package = modules[0].__name__.split(".")[0]
        saved = []
        for name, holder in list(sys.modules.items()):
            if holder is None or name.split(".")[0] != package:
                continue
            for attr, fn in vars(holder).copy().items():
                if inspect.isfunction(fn) and fn in wrapped:
                    saved.append((holder, attr, fn))
                    setattr(holder, attr, wrapped[fn])
        try:
            yield
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    @contextmanager
    def wrap_names(self, module, names: dict):
        """Route module attributes {attr: span name} through `call`."""
        saved = {attr: getattr(module, attr) for attr in names}
        for attr, span_name in names.items():
            setattr(module, attr, self._wrapper(span_name, saved[attr]))
        try:
            yield
        finally:
            for attr, fn in saved.items():
                setattr(module, attr, fn)

    def _wrapper(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def blame(req, outcome) -> str:
    """The layer a failed request is credited to: the innermost span an
    exception left, else the layer whose answer was wrong."""
    return getattr(outcome, RAISED_IN, None) or req["op"].split(".")[0]


def layer_metrics(spans, ops, failed_layers, answers=()) -> dict[str, float]:
    """Per-layer metrics from one traced pass.

    ``ops`` is the request list the pass served (indexed by span ``op``),
    ``failed_layers`` the layer each failed request is credited to, and
    ``answers`` the certificate payloads for `certificate.max_bits`. A
    per-call mean over zero calls reads 0; ``<layer>.calls`` tells them
    apart.
    """
    own = self_times(spans)
    roots = [i for i, s in enumerate(spans) if s[3] == -1 and s[0] == "op"]
    op_time = sum(spans[i][2] - spans[i][1] for i in roots) or 1.0

    def durations(name, n=None, scale=1e3):
        return [(s[2] - s[1]) * scale for s in spans
                if s[0] == name and (n is None or ops[s[4]]["n"] == n)]

    def avg(name, n=None, scale=1e3):
        values = durations(name, n, scale)
        return mean(values) if values else 0.0

    def layer_self(layer):
        return sum(t for s, t in zip(spans, own) if s[0].split(".")[0] == layer)

    m = {}
    for n in (8, 16, 32, 48):
        m[f"hyper_total.facets_check_ms.n{n}"] = avg("hyper_total.facets_check", n)
        m[f"hyper_total.decompose_ms.n{n}"] = avg("hyper_total.decompose", n)
    for n in (8, 48):
        m[f"hyper_fixed.member_ms.n{n}"] = avg("hyper_fixed.member", n)
        m[f"regular.classify_ms.n{n}"] = avg("regular.classify", n)
        m[f"hyper_fixed.decompose_ms.n{n}"] = avg("hyper_fixed.decompose", n)
    m["hyper_total.split_ms.n48"] = avg("hyper_total.split", 48)

    certifying = {s[4] for s in spans if s[0] in CERTIFYING_OPS}
    solves = sum(1 for s in spans if s[0] == "linalg.solve_columns" and s[4] in certifying)
    m["linalg.solve_columns.calls_per_certificate"] = (
        solves / len(certifying) if certifying else 0.0)
    m["linalg.solve_columns.useful_ratio"] = len(certifying) / solves if solves else 0.0
    m["linalg.self_share"] = layer_self("linalg") / op_time
    m["linalg.nullspace.calls"] = len(durations("linalg.nullspace"))
    m["certificate.max_bits"] = max((_max_bits(a) for a in answers), default=0)

    m["sequences.parse_us"] = avg("sequences.parse", scale=1e6)
    m["sequences.serialize_us"] = avg("sequences.serialize", scale=1e6)
    m["sequences.self_share"] = layer_self("sequences") / op_time
    m["pure.herzog_kuhl_us"] = avg("pure.herzog_kuhl", scale=1e6)
    m["pure.limit_gap_ms"] = avg("pure.limit_gap")

    sweeps = sum(1 for s in spans if s[0].startswith("verification.")) / len(gen.VERIFY_GRID)
    m["oracle.self_s_per_sweep"] = layer_self("oracle") / sweeps if sweeps else 0.0
    m["oracle.cone_equal_ms"] = avg("oracle.cone_equal")
    m["oracle.validate_triangulation_ms"] = avg("oracle.validate_triangulation")
    for kind in ("regular", "total", "fixed", "triangulations"):
        m[f"verification.check_{kind}_ms"] = avg(f"verification.check_{kind}")

    failed = Counter(failed_layers)
    for layer in LAYERS:
        m[f"{layer}.calls"] = sum(1 for s in spans if s[0].split(".")[0] == layer)
        m[f"{layer}.failed"] = failed[layer]
    return m


def _max_bits(answer: str) -> int:
    """Largest numerator or denominator bit length among a certificate's values."""
    payload = json.loads(answer)
    if "coefficients" in payload:
        values = list(payload["coefficients"].values())
    else:
        values = payload["v1"]["entries"] + payload["v2"]["entries"]
    bits = 0
    for text in values:
        num, _, den = text.partition("/")
        bits = max(bits, abs(int(num)).bit_length(), int(den or 1).bit_length())
    return bits
