"""Executes requests against the package: in process for three workloads,
one `python -m betticone` child per request for cli-roundtrip.

Importing this module imports `betticone`, so the set-up probe imports it
only after its clock has started. Every call into a package layer goes
through ``call(name, fn, *args)``: a plain call when untraced, a span
when traced (see `trace`). An in-process answer is serialized to the same
JSON payload the CLI prints, so one checker reads both.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from betticone import hyper_fixed, hyper_total, pure, regular, verification
from betticone.hyper_fixed import FixedConeParams
from betticone.sequences import rational_str, sequence_from_json, sequence_to_json

ROOT = Path(__file__).resolve().parent.parent
CLI_TIMEOUT_S = 120


def direct(name, fn, *args):
    return fn(*args)


def _violations(violations):
    return [{"constraint": name, "value": rational_str(value)} for name, value in violations]


def _classify_payload(n, sc):
    dec = sc.decomposition
    payload = {"n": n, "member_of_closure": sc.member_of_closure,
               "realizable": sc.realizable, "cm_choice_exists": sc.cm_choice_exists,
               "decomposition": {"a_minus_1": rational_str(dec.a_minus_1),
                                 "a": [rational_str(dec.coefficient(i)) for i in range(n)]}}
    if sc.depth is not None:
        payload["depth"] = sc.depth
    return payload


def _hyper_payload(cone, n, d, dec):
    payload = {"cone": cone, "n": n}
    if d is not None:
        payload["multiplicity"] = d
    payload.update({"triangulation": dec.label,
                    "simplex": [dec.names[k] for k in dec.simplex_used],
                    "coefficients": {name: rational_str(c)
                                     for name, c in zip(dec.names, dec.coefficients)}})
    return payload


def _compute(call, req, seq):
    """The op's main layer call; returns a function building the payload."""
    op, n, args = req["op"], req["n"], req["args"]
    if op == "regular.facet_violations":
        bad = call(op, regular.facet_violations, seq)
        return lambda: {"cone": "regular", "n": n, "member": not bad,
                        "violations": _violations(bad)}
    if op == "regular.classify":
        sc = call(op, regular.classify, seq)
        return lambda: _classify_payload(n, sc)
    if op == "hyper_total.facets_check":
        report = call(op, hyper_total.facets_check, seq, n)
        return lambda: {"cone": "total", "n": n, "member": report.ok,
                        "violations": _violations(report.violations)}
    if op == "hyper_fixed.member":
        report = call(op, hyper_fixed.member, seq, FixedConeParams(n, args["d"]))
        return lambda: {"cone": "fixed", "n": n, "multiplicity": args["d"],
                        "member": report.ok, "violations": _violations(report.violations)}
    if op == "pure.herzog_kuhl":
        v = call(op, pure.herzog_kuhl, pure.DegreeSequence(tuple(args["degrees"])), n)
        sc = call("regular.classify", regular.classify, v)
        return lambda: _classify_payload(n, sc)
    if op == "pure.limit_gap":
        gap = call(op, pure.limit_gap, args["j"], args["t"], n)
        return lambda: rational_str(gap)
    if op == "hyper_total.decompose":
        dec = call(op, hyper_total.decompose, seq, n, args["which"])
        return lambda: _hyper_payload("total", n, None, dec)
    if op == "hyper_fixed.decompose":
        d = args["d"]
        dec = call(op, hyper_fixed.decompose, seq, FixedConeParams(n, d), args["which"])
        return lambda: _hyper_payload("fixed", n, d, dec)
    if op == "hyper_total.split":
        v1, v2 = call(op, hyper_total.split, seq, n)
        return lambda: {"n": n, "v1": sequence_to_json(v1), "v2": sequence_to_json(v2)}
    if op == "regular.decompose":
        dec = call(op, regular.decompose, seq)
        return lambda: {"cone": "regular", "n": n, "coefficients": {
            name: rational_str(c) for name, c in zip(regular.ray_names(n), dec.a)}}
    raise KeyError(f"unknown operation {op!r}")


def execute(req, call=direct) -> str:
    """One in-process operation: parse, compute, serialize. Returns the answer."""
    op = req["op"]
    if op.startswith("verification."):
        fn = getattr(verification, op.split(".")[1])
        params = [req["args"][k] for k in ("n", "d") if k in req["args"]]
        result = call(op, fn, *params)
        return f"{result.ok}\t{result.name}\t{result.detail}"
    seq = None
    if "seq" in req["args"]:
        text = req["args"]["seq"]
        seq = call("sequences.parse", lambda: sequence_from_json(json.loads(text)))
    build = _compute(call, req, seq)
    return call("sequences.serialize", lambda: _dump(build()))


def _dump(payload) -> str:
    # `limit` prints a bare rational, every other command a JSON object.
    return payload if isinstance(payload, str) else json.dumps(payload)


def cli_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(argv, env) -> tuple[int, str, str]:
    """One CLI request in a fresh child; waits for it to end."""
    proc = subprocess.run([sys.executable, "-m", "betticone", *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
    return proc.returncode, proc.stdout, proc.stderr


# Cones each workload builds before its first timed operation.
def _build_membership():
    for n in (4, 8, 16, 32, 48):
        regular.facets(n), regular.rays(n), hyper_total.ray_basis(n)
        hyper_fixed.rays(FixedConeParams(n, 3))


def _build_certify():
    for n in (4, 8, 16, 32, 48):
        regular.rays(n), hyper_total.ray_basis(n), hyper_total.triangulations(n)
        for d in (2, 3):
            hyper_fixed.rays(FixedConeParams(n, d))


def setup(workload: str, warmups: list[dict]) -> None:
    """Build the workload's cones and run one warm-up op per (op, n)."""
    if workload == "membership-scan":
        _build_membership()
    elif workload == "certify":
        _build_certify()
    if workload == "cli-roundtrip":
        import betticone.cli  # noqa: F401  (the in-process breakdown calls it)
        env = cli_env()
        for req in warmups:
            run_cli(req["args"]["argv"], env)
        return
    for req in warmups:
        execute(req)
