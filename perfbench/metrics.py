"""Metric definitions, and for each layer metric the end-to-end metric it
should move and the workload where it shows. `BENCHMARK.json` lists the
same names; a test keeps the two equal.

End-to-end metrics come from the untraced run; layer metrics from the
traced run. Workloads and layers: see `gen` and `trace`.
"""

from __future__ import annotations

# name, unit, better
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "ops/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("n_small.ops_per_s", "ops/s", "higher"),
    ("n_large.ops_per_s", "ops/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

# Operations with n at or above this count toward n_large. cli-roundtrip
# and verify-sweep stop at n = 8, so their large tier is the top of their
# own range.
LARGE_N = {"membership-scan": 32, "certify": 32, "cli-roundtrip": 6, "verify-sweep": 6}
SMALL_N = 8

# The machine-speed reference each workload's times are scaled to (see
# `speed`): a CLI request is mostly interpreter start-up, the rest is
# in-process Fraction arithmetic.
REFERENCE = {"membership-scan": "fraction_sum", "certify": "fraction_sum",
             "cli-roundtrip": "interpreter_start", "verify-sweep": "fraction_sum"}

_MEMBERSHIP = "n_large.ops_per_s, ops_per_s on membership-scan; a small share of certify"
_CERTIFY = "n_large.ops_per_s, latency_p90_ms on certify"
_SOLVE = "n_large.ops_per_s on certify; membership-scan predicted unchanged"
_CODEC = "n_small.ops_per_s, latency_p50_ms on membership-scan and cli-roundtrip"
_CLI = "latency_p50_ms, latency_p90_ms on cli-roundtrip"
_ORACLE = "ops_per_s on verify-sweep"
_FAIL = "failures (the attempted/failed counts) on every workload"

# name, unit, better, prediction
PER_LAYER = (
    *((f"hyper_total.facets_check_ms.n{n}", "ms", "lower", _MEMBERSHIP) for n in (8, 16, 32, 48)),
    *((f"hyper_fixed.member_ms.n{n}", "ms", "lower", _MEMBERSHIP) for n in (8, 48)),
    *((f"regular.classify_ms.n{n}", "ms", "lower", _MEMBERSHIP) for n in (8, 48)),
    *((f"hyper_total.decompose_ms.n{n}", "ms", "lower", _CERTIFY) for n in (8, 16, 32, 48)),
    *((f"hyper_fixed.decompose_ms.n{n}", "ms", "lower", _CERTIFY) for n in (8, 48)),
    ("hyper_total.split_ms.n48", "ms", "lower", _CERTIFY),
    ("linalg.solve_columns.calls_per_certificate", "count", "lower", _SOLVE),
    ("linalg.solve_columns.useful_ratio", "ratio", "higher", _SOLVE),
    ("linalg.self_share", "fraction", "lower", _SOLVE),
    ("linalg.nullspace.calls", "count", "lower", _SOLVE),
    ("certificate.max_bits", "bits", "lower", "none: must not change on certify"),
    ("sequences.parse_us", "us", "lower", _CODEC),
    ("sequences.serialize_us", "us", "lower", _CODEC),
    ("sequences.self_share", "fraction", "lower", _CODEC),
    ("pure.herzog_kuhl_us", "us", "lower", "n_small.ops_per_s on membership-scan"),
    ("pure.limit_gap_ms", "ms", "lower", "n_small.ops_per_s on membership-scan"),
    ("cli.interp_start_ms", "ms", "lower", _CLI),
    ("cli.import_ms", "ms", "lower", _CLI),
    ("cli.command_ms", "ms", "lower", _CLI),
    ("oracle.self_s_per_sweep", "s", "lower", _ORACLE),
    ("oracle.cone_equal_ms", "ms", "lower", _ORACLE),
    ("oracle.validate_triangulation_ms", "ms", "lower", _ORACLE),
    *((f"verification.check_{kind}_ms", "ms", "lower", _ORACLE)
      for kind in ("regular", "total", "fixed", "triangulations")),
    *((f"{layer}.{what}", "count", "lower", _FAIL)
      for layer in ("sequences", "regular", "hyper_total", "hyper_fixed", "linalg", "pure",
                    "oracle", "verification", "cli")
      for what in ("calls", "failed")),
    ("cli.known_defects.failed", "count", "lower",
     "none: input-boundary validation in the CLI takes it to 0 on cli-roundtrip"),
    ("trace.overhead_pct", "%", "lower", "none: tracing cost against the untraced pass"),
    ("error_rate", "fraction", "lower", _FAIL),
)
