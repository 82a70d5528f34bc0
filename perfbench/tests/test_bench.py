"""Tests of the benchmark itself: determinism, checker negative controls,
and metric names against BENCHMARK.json.

    python -m pytest -q perfbench/tests
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[0:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import check, gen, metrics, model, run, speed, trace  # noqa: E402
from perfbench import ops  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _first(workload, seed, count):
    stream = gen.requests(workload, seed)
    return [next(stream)[1] for _ in range(count)]


@pytest.mark.parametrize("workload", sorted(gen.ROUNDS))
def test_same_seed_same_inputs(workload):
    assert _first(workload, 7, 120) == _first(workload, 7, 120)
    assert _first(workload, 7, 120) != _first(workload, 8, 120)


@pytest.mark.parametrize("workload", ["membership-scan", "certify"])
def test_same_seed_same_digest_and_all_answers_pass(workload):
    first = run.measure(workload, 3, 0.0)
    second = run.measure(workload, 3, 0.0)
    assert first["problems"] == [] and second["problems"] == []
    assert first["digest"] == second["digest"]
    assert first["digest"] != run.measure(workload, 4, 0.0)["digest"]


def _answered(workload, op, want):
    for _, req in gen.requests(workload, 5):
        if req["op"] == op and want(req):
            answer = ops.execute(req)
            assert check.check_answer(req, answer) is None
            return req, json.loads(answer)
    raise AssertionError("unreachable: the stream is endless")


def test_checker_flags_a_tampered_coefficient():
    req, payload = _answered("certify", "hyper_total.decompose", lambda r: r["n"] == 8)
    name = payload["simplex"][0]
    payload["coefficients"][name] = model.rat(Fraction(payload["coefficients"][name]) + 1)
    assert "reconstruct" in check.check_answer(req, json.dumps(payload))


def test_checker_flags_a_dropped_violation():
    req, payload = _answered("membership-scan", "hyper_total.facets_check",
                             lambda r: r["meta"]["crossed"] is not None)
    payload["violations"].pop()
    assert check.check_answer(req, json.dumps(payload)) is not None


def test_checker_flags_a_wrong_exit_code():
    req = next(r for r in _first("cli-roundtrip", 5, 40) if r["meta"]["expect_exit"] == 2)
    code, out, err = ops.run_cli(req["args"]["argv"], ops.cli_env())
    assert check.check_cli(req, code, out, err) is None
    assert "expected 2" in check.check_cli(req, 0, out, err)


def test_known_defects_are_served_apart_from_the_rounds():
    kinds = [r["meta"]["inner"]["malformed"] for r in gen.known_defects(5)]
    assert kinds == list(gen.MALFORMED_DEFECTS)
    assert gen.known_defects(5) == gen.known_defects(5)
    in_rounds = {(r["meta"]["inner"] or {}).get("malformed") for r in _first("cli-roundtrip", 5, 400)}
    assert not in_rounds & set(gen.MALFORMED_DEFECTS)


def test_checker_flags_a_traceback():
    req = next(r for r in gen.known_defects(5)
               if r["meta"]["inner"]["malformed"] == "zero_denominator")
    assert "traceback" in check.check_cli(
        req, 1, "", "Traceback (most recent call last):\nZeroDivisionError: x\n")


def test_tracing_sees_linalg_calls_bound_by_name_in_other_modules():
    from betticone import linalg, oracle, verification
    dot = oracle.dot
    tracer = trace.Tracer()
    with tracer.wrap_modules(linalg, oracle):
        assert verification.check_total(3).ok
    assert oracle.dot is dot
    names = {span[0] for span in tracer.spans}
    assert {"linalg.dot", "linalg.primitive", "oracle.cone_equal"} <= names


def test_a_failure_is_credited_to_the_innermost_layer_that_raised():
    def parse():
        return 1 // 0

    tracer = trace.Tracer()
    with pytest.raises(ZeroDivisionError) as raised:
        tracer.call("cli.main", tracer.call, "sequences.parse", parse)
    req = {"op": "cli"}
    assert trace.blame(req, raised.value) == "sequences"
    assert trace.blame(req, "a wrong answer") == "cli"


def test_latencies_are_scaled_by_the_reference_times_around_them():
    reference = speed.Reference()
    reference.times, reference.marks = [0.002, 0.002, 0.004], [2, 3]
    scale = reference.nominal / 0.002
    assert reference.scale([0.01, 0.02, 0.03]) == pytest.approx(
        [0.01 * scale, 0.02 * scale, 0.03 * scale * 2 / 3])


def _printed_metrics(monkeypatch, trace):
    monkeypatch.setattr(run, "PROBES", 1)
    monkeypatch.setattr(run, "TRACE_ROUNDS", dict.fromkeys(run.TRACE_ROUNDS, 1))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(["--workload", "membership-scan", "--seed", "1",
                         "--seconds", "0.2", "--trace", str(trace)]) == 0
    result = json.loads(out.getvalue().splitlines()[-1])
    assert result["correct"] and result["attempted"] >= 1
    return result["metrics"]


def test_metric_names_match_benchmark_json(monkeypatch):
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == [m[0] for m in metrics.END_TO_END]
    assert [m["name"] for m in BENCHMARK["per_layer"]] == [m[0] for m in metrics.PER_LAYER]
    for key, trace in (("end_to_end", 0), ("per_layer", 1)):
        printed = _printed_metrics(monkeypatch, trace)
        assert {name: m["unit"] for name, m in printed.items()} == {
            m["name"]: m["unit"] for m in BENCHMARK[key]}


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *BENCHMARK["command"][1:], "--workload", "certify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
