import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import betticone
from betticone import cli, hyper_fixed, hyper_total, pure, regular, verification
from betticone.cli import MAX_N, MAX_PLOT_LEN, main
from betticone.errors import quoted
from betticone.hyper_total import phi
from betticone.sequences import (BettiVector, TailPeriodicSequence, embed, rational_str,
                                 sequence_from_json, sequence_to_json)

from reference_sequences import primes, ray, rho_vector, tail_sum


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def finite_json(entries):
    return json.dumps(sequence_to_json(BettiVector.of(entries)))


class TestHk:
    def test_basic(self, capsys):
        code, out, _ = run(capsys, "hk", "--degrees", "0,1,2", "--n", "2")
        assert code == 0
        assert json.loads(out) == {"kind": "finite", "n": 2,
                                   "entries": ["1/2", "1", "1/2"]}

    def test_normalize(self, capsys):
        code, out, _ = run(capsys, "hk", "--degrees", "0,1,11", "--n", "2",
                           "--normalize-at", "0")
        assert code == 0
        assert json.loads(out)["entries"] == ["1", "11/10", "1/10"]

    def test_bad_degrees_string_is_malformed(self, capsys):
        code, _, err = run(capsys, "hk", "--degrees", "a,b", "--n", "2")
        assert code == 1

    def test_non_increasing_is_precondition(self, capsys):
        code, _, err = run(capsys, "hk", "--degrees", "1,1", "--n", "2")
        assert code == 2


class TestLimit:
    def test_exact_gap(self, capsys):
        code, out, _ = run(capsys, "limit", "--j", "0", "--t", "10", "--n", "2")
        assert code == 0 and out.strip() == "1/10"

    def test_bad_parameter(self, capsys):
        code, _, _ = run(capsys, "limit", "--j", "0", "--t", "1", "--n", "2")
        assert code == 2

    def test_n_cap(self, capsys):
        cap = pure.LIMIT_MAX_N
        code, out, err = run(capsys, "limit", "--j", "0", "--t", "2", "--n", str(cap))
        assert code == 0 and err == "" and out.strip()
        code, out, err = run(capsys, "limit", "--j", "0", "--t", "2", "--n", str(cap + 1))
        assert code == 2 and out == ""
        assert err == f"error: limit needs n <= {cap}, got n={cap + 1}\n"

    def test_t_cap(self, capsys):
        cap = pure.LIMIT_MAX_T
        # the worst accepted call still prints its exact answer
        code, out, err = run(capsys, "limit", "--j", "0", "--t", str(cap),
                             "--n", str(pure.LIMIT_MAX_N))
        assert code == 0 and err == "" and "/" in out
        code, out, err = run(capsys, "limit", "--j", "0", "--t", str(cap + 1), "--n", "2")
        assert code == 2 and out == ""
        assert err == f"error: limit needs t <= {cap}, got t={cap + 1}\n"

    def test_t_of_3001_digits_exits_2_on_one_line(self, capsys):
        code, out, err = run(capsys, "limit", "--j", "0", "--t", "9" * 3001, "--n", "20")
        assert code == 2 and out == ""
        assert err == (f"error: limit needs t <= {pure.LIMIT_MAX_T}, "
                       f"got t={'9' * 40}... (3001 digits)\n")


class TestUsageValues:
    @pytest.mark.parametrize("argv, ending", [
        (["limit", "--j", "0", "--t", "9" * 5000, "--n", "20"],
         f"'{'9' * 39}... is not a valid integer.\n"),
        (["member", "--n", "9" * 5000], f"'{'9' * 39}... is not a valid integer.\n"),
        (["member", "--cone", "x" * 5000, "--n", "2", "--inline", "{}"],
         f"'{'x' * 39}... is not one of 'regular', 'total', 'fixed'.\n"),
        (["member", "--cone=" + "x" * 5000, "--n", "2"],
         f"'{'x' * 39}... is not one of 'regular', 'total', 'fixed'.\n"),
        (["member", "--" + "x" * 4998], f"No such option '--{'x' * 37}....\n"),
        (["x" * 5000], f"No such command '{'x' * 39}....\n"),
        (["member", "--cone", "total", "--n", "2", "--inline", "{}", "x" * 5000],
         f"Got unexpected extra argument ({'x' * 40}...)\n")],
        ids=["limit_t", "member_n", "choice", "choice_with_equals", "unknown_option",
             "unknown_command", "extra_argument"])
    def test_an_overlong_value_is_quoted_short(self, capsys, argv, ending):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert len((out + err).encode()) < 300
        assert err.endswith(ending)

    @pytest.mark.parametrize("value", ["12x", "x" * 40])
    def test_a_short_value_reads_as_click_prints_it(self, capsys, value):
        code, out, err = run(capsys, "limit", "--j", "0", "--t", value, "--n", "20")
        assert code == 1 and out == ""
        assert err.endswith(f"Error: Invalid value for '--t': '{value}' is not a valid integer.\n")

    def test_a_short_usage_value_is_echoed_whole(self, capsys):
        value = "x" * 40
        code, _, err = run(capsys, "member", "--cone", value, "--n", "2")
        assert code == 1
        assert err.endswith(f"'{value}' is not one of 'regular', 'total', 'fixed'.\n")
        code, _, err = run(capsys, "member", "--cone", "total", "--n", "2",
                           "--inline", "{}", value)
        assert code == 1 and err.endswith(f"Got unexpected extra argument ({value})\n")


class TestPhi:
    def test_transform(self, capsys):
        code, out, _ = run(capsys, "phi", "--inline", finite_json([1, 3, 3, 1]))
        assert code == 0
        assert json.loads(out) == {"kind": "tail", "stab": 2, "head": ["1", "3"],
                                   "tail_even": "4", "tail_odd": "4"}

    def test_rejects_tail_input(self, capsys):
        tail = json.dumps(sequence_to_json(ray("tau_inf", 1, 3)))
        code, _, _ = run(capsys, "phi", "--inline", tail)
        assert code == 2


class TestMember:
    def test_regular_violation_named(self, capsys):
        code, out, _ = run(capsys, "member", "--cone", "regular", "--n", "2",
                           "--inline", finite_json([0, 1, 0]))
        assert code == 0
        payload = json.loads(out)
        assert payload["member"] is False
        assert payload["violations"] == [{"constraint": "chi[0,2]", "value": "-1"}]

    def test_total_member(self, capsys):
        w = json.dumps(sequence_to_json(ray("tau_inf", 1, 2)))
        code, out, _ = run(capsys, "member", "--cone", "total", "--n", "2",
                           "--inline", w)
        assert code == 0 and json.loads(out)["member"] is True

    def test_fixed_has_caveat(self, capsys):
        w = json.dumps(sequence_to_json(ray("tau_d", 1, 2, 3)))
        code, out, _ = run(capsys, "member", "--cone", "fixed", "--n", "2",
                           "--mult", "3", "--inline", w)
        assert code == 0
        payload = json.loads(out)
        assert payload["member"] is True and "conjectured" in payload["caveat"]

    def test_fixed_needs_mult(self, capsys):
        code, _, _ = run(capsys, "member", "--cone", "fixed", "--n", "2",
                         "--inline", finite_json([1, 1, 0]))
        assert code == 1


class TestDecompose:
    def test_regular_coefficients(self, capsys):
        code, out, _ = run(capsys, "decompose", "--cone", "regular", "--n", "3",
                           "--inline", finite_json([1, 3, 3, 1]))
        assert code == 0
        assert json.loads(out)["coefficients"] == {
            "rho[-1]": "0", "rho[0]": "1", "rho[1]": "2", "rho[2]": "1"}

    def test_total_certificate(self, capsys):
        w = tail_sum(tail_sum(ray("tau_inf", 1, 3), embed(rho_vector(0, 3))), embed(rho_vector(0, 3)))
        w = json.dumps(sequence_to_json(w))
        code, out, _ = run(capsys, "decompose", "--cone", "total", "--n", "3",
                           "--inline", w, "--triangulation", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["triangulation"] == "omit_even"
        assert payload["coefficients"]["tau_inf[1]"] == "1"
        assert payload["coefficients"]["rho[0]"] == "2"

    def test_not_in_cone_exits_2_naming_functional(self, capsys):
        code, _, err = run(capsys, "decompose", "--cone", "regular", "--n", "2",
                           "--inline", finite_json([0, 1, 0]))
        assert code == 2
        assert "chi[0,2]" in err

    def test_fixed_certificate(self, capsys):
        three_tau = hyper_fixed.cone(hyper_fixed.FixedConeParams(2, 3)).combine((0, 0, 0, 3))
        w = json.dumps(sequence_to_json(three_tau))
        code, out, _ = run(capsys, "decompose", "--cone", "fixed", "--n", "2",
                           "--mult", "3", "--inline", w)
        assert code == 0
        assert json.loads(out)["coefficients"]["tau_d[1]"] == "3"

    def test_simplicial_cones_ignore_the_triangulation(self, capsys):
        cases = ([("regular", n, None, regular.cone(n)) for n in range(7)]
                 + [("total", 2, None, hyper_total.cone(2))]
                 + [("fixed", n, 2, hyper_fixed.cone(hyper_fixed.FixedConeParams(n, 2)))
                    for n in range(2, 7)])
        for cone, n, mult, described in cases:
            w = described.combine([k % 3 for k in range(1, len(described.names) + 1)])
            argv = ["decompose", "--cone", cone, "--n", str(n),
                    "--inline", json.dumps(sequence_to_json(w))]
            argv += ["--mult", str(mult)] if mult else []
            first = run(capsys, *argv, "--triangulation", "1")
            assert first[0] == 0 and first[2] == "", (cone, n)
            assert run(capsys, *argv, "--triangulation", "2") == first, (cone, n)


class TestClassify:
    def test_depth_reported(self, capsys):
        code, out, _ = run(capsys, "classify", "--n", "1",
                           "--inline", finite_json([1, 1]))
        assert code == 0
        payload = json.loads(out)
        assert payload["realizable"] is True and payload["depth"] == 0
        assert payload["cm_choice_exists"] is True

    def test_depth_absent_when_not_realizable(self, capsys):
        code, out, _ = run(capsys, "classify", "--n", "3",
                           "--inline", finite_json([1, 1, 1, 1]))
        assert code == 0
        payload = json.loads(out)
        assert payload["member_of_closure"] is True
        assert payload["realizable"] is False and "depth" not in payload


class TestSplit:
    def test_round_trip(self, capsys):
        w = tail_sum(ray("tau_inf", 2, 3), embed(rho_vector(-1, 3)))
        code, out, _ = run(capsys, "split", "--n", "3",
                           "--inline", json.dumps(sequence_to_json(w)))
        assert code == 0
        payload = json.loads(out)
        v1 = sequence_from_json(payload["v1"])
        v2 = sequence_from_json(payload["v2"])
        assert v1.n == 3 and v2.n == 2
        assert tail_sum(phi(v1), embed(v2)) == w


class TestVerify:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--n-max", "3", "--mult-max", "2")
        assert code == 0
        assert "checks passed" in out and "FAIL" not in out

    @pytest.mark.parametrize("option", ["--n-max", "--mult-max"])
    def test_bound_below_two_is_usage_error(self, capsys, option):
        code, out, err = run(capsys, "verify", option, "1")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_other_commands_do_not_import_the_oracle(self):
        src = str(Path(betticone.__file__).parents[1])
        loaded = subprocess.run(
            [sys.executable, "-c", "import sys, betticone.cli; "
             "print(sorted(m for m in sys.modules if m.startswith('betticone.')))"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
            check=True).stdout
        assert "betticone.cli" in loaded
        assert "betticone.oracle" not in loaded and "betticone.verification" not in loaded

    def test_only_verify_loads_linalg(self):
        src = str(Path(betticone.__file__).parents[1])
        w = json.dumps(sequence_to_json(ray("tau_inf", 2, 3)))
        wf = json.dumps(sequence_to_json(
            hyper_fixed.cone(hyper_fixed.FixedConeParams(3, 3)).combine([1] * 5)))
        v = finite_json([1, 3, 3, 1])
        script = "\n".join([
            "import contextlib, io, sys",
            "from betticone.cli import main",
            "calls = [" + ", ".join(repr(argv) for argv in [
                ["member", "--cone", "total", "--n", "3", "--inline", w],
                ["decompose", "--cone", "total", "--n", "3", "--inline", w],
                ["decompose", "--cone", "fixed", "--mult", "3", "--n", "3", "--inline", wf],
                ["decompose", "--cone", "regular", "--n", "3", "--inline", v],
                ["classify", "--n", "3", "--inline", v], ["split", "--n", "3", "--inline", w],
                ["phi", "--inline", v], ["hk", "--degrees", "0,1,3", "--n", "3"],
                ["limit", "--j", "0", "--t", "2", "--n", "3"],
                ["plot", "--len", "3", "--inline", v]]) + "]",
            "with contextlib.redirect_stdout(io.StringIO()):",
            "    codes = [main(argv) for argv in calls]",
            "print(codes, 'betticone.linalg' in sys.modules)",
            "main(['verify', '--n-max', '2', '--mult-max', '2'])",
            "print('betticone.linalg' in sys.modules)"])
        out = subprocess.run([sys.executable, "-c", script],
                             env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                             text=True, check=True).stdout
        assert out.splitlines()[0] == f"{[0] * 10} False"
        assert out.splitlines()[-1] == "True"

    def test_failure_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(verification, "run_sweep",
                            lambda n, m: [verification.SweepResult("forced", False)])
        code, out, err = run(capsys, "verify")
        assert code == 3 and "FAIL" in out

    @pytest.mark.parametrize("n_max, code", [("11", 0), ("12", 1), ("13", 1)])
    def test_n_max_capped_before_any_check(self, capsys, monkeypatch, n_max, code):
        calls = []
        for name in ("check_regular", "check_total", "check_fixed", "check_triangulations"):
            monkeypatch.setattr(verification, name, lambda *args, name=name: (
                calls.append(name) or verification.SweepResult(name, True)))
        got, out, err = run(capsys, "verify", "--n-max", n_max)
        assert got == code
        if code:
            assert out == "" and calls == []
            assert err.startswith("error: ") and err.count("\n") == 1
        else:
            assert "check_regular" in calls and err == ""

    @pytest.mark.parametrize("mult_max, shown", [
        (verification.MAX_MULT, None),
        (verification.MAX_MULT + 1, str(verification.MAX_MULT + 1)),
        (10**50, "1" + "0" * 39 + "... (51 digits)")])
    def test_mult_max_capped_before_any_check(self, capsys, monkeypatch, mult_max, shown):
        calls = []
        for name in ("check_regular", "check_total", "check_fixed", "check_triangulations"):
            monkeypatch.setattr(verification, name, lambda *args, name=name: (
                calls.append(name) or verification.SweepResult(name, True)))
        code, out, err = run(capsys, "verify", "--n-max", "3", "--mult-max", str(mult_max))
        if shown is None:
            assert code == 0 and err == ""
            assert calls.count("check_fixed") == 2 * (mult_max - 1)
        else:
            assert code == 2 and out == "" and calls == []
            assert err == (f"error: verify needs mult_max <= {verification.MAX_MULT}, "
                           f"got mult_max={shown}\n")


class TestStartUp:
    def test_the_cli_loads_neither_click_nor_the_dataclass_machinery(self):
        src = str(Path(betticone.__file__).parents[1])
        regular_member = ["member", "--cone", "regular", "--n", "3", "--inline",
                          finite_json([1, 3, 3, 1])]
        script = "\n".join([
            "import sys",
            "import betticone.cli",
            "print(sorted(m for m in ('click', 'dataclasses', 'inspect', 'difflib')"
            " if m in sys.modules))",
            f"code = betticone.cli.main({regular_member!r})",
            "print(code, sorted(m for m in ('betticone.hyper_fixed', 'betticone.pure', 'difflib')"
            " if m in sys.modules))",
            "import betticone.hyper_fixed, betticone.pure",
            "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))",
            "import betticone.verification",
            "betticone.verification.run_sweep(3, 3)",
            "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"])
        out = subprocess.run([sys.executable, "-c", script],
                             env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                             text=True, check=True).stdout.splitlines()
        assert out[0] == "[]"
        assert json.loads(out[1])["member"] is True
        assert out[2] == "0 []"
        assert out[3] == "[]"  # no module on the CLI path builds a dataclass
        assert out[4] == "[]"  # nor does verify's: the oracle and its sweep


class TestHelp:
    @pytest.mark.parametrize("name", sorted(cli.COMMANDS))
    def test_each_command_lists_every_option_of_its_table(self, capsys, name):
        code, out, err = run(capsys, name, "--help")
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[0] == f"Usage: betticone {name} [OPTIONS]"
        listed = [line.split()[0] for line in lines[lines.index("Options:") + 1:]]
        assert listed == [option[0] for option in cli.COMMANDS[name][1]] + ["--help"]

    def test_help_wins_over_a_bad_value_but_not_over_an_unknown_option(self, capsys):
        code, out, _ = run(capsys, "member", "--n", "x", "extra", "--help")
        assert code == 0 and out.startswith("Usage: betticone member [OPTIONS]\n")
        code, out, err = run(capsys, "member", "--help", "--bogus")
        assert (code, out) == (1, "") and err.endswith("Error: No such option '--bogus'.\n")

    def test_the_top_level_lists_every_command(self, capsys):
        code, out, err = run(capsys, "--help")
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[0] == "Usage: betticone [OPTIONS] COMMAND [ARGS]..."
        listed = [line.split()[0] for line in lines[lines.index("Commands:") + 1:]]
        assert listed == sorted(cli.COMMANDS)

    def test_a_bare_call_prints_the_top_level_help_on_stderr(self, capsys):
        code, out, err = run(capsys)
        assert (code, out) == (1, "")
        assert err.startswith("Usage: betticone [OPTIONS] COMMAND [ARGS]...\n")
        assert err == run(capsys, "--help")[1]

    def test_limit_help_names_its_n_cap(self, capsys):
        _, out, _ = run(capsys, "limit", "--help")
        assert f"(at most {pure.LIMIT_MAX_N})" in out


class TestSizeCap:
    @pytest.mark.parametrize("command", [
        ["member", "--cone", "regular"], ["member", "--cone", "total"],
        ["member", "--cone", "fixed", "--mult", "3"], ["decompose", "--cone", "total"],
        ["classify"], ["split"]])
    def test_n_above_the_cap_exits_2_before_any_cone_is_built(
            self, capsys, monkeypatch, command):
        for module in (regular, hyper_total, hyper_fixed):
            monkeypatch.setattr(module, "cone", None)  # any use would raise
        big = MAX_N + 1
        code, out, err = run(capsys, *command, "--n", str(big),
                             "--inline", finite_json([1] * (big + 1)))
        assert (code, out) == (2, "")
        assert err == f"error: n must be at most {MAX_N}, got --n {big}\n"
        code, out, err = run(capsys, *command, "--n", "2",
                             "--inline", finite_json([1] * (big + 1)))
        assert (code, out) == (2, "")
        assert err == f"error: n must be at most {MAX_N}, got a sequence with n={big}\n"

    def test_the_cap_itself_is_accepted(self, capsys):
        entries = [1] + [2] * MAX_N
        code, out, _ = run(capsys, "member", "--cone", "regular", "--n", str(MAX_N),
                           "--inline", finite_json(entries))
        assert code == 0 and json.loads(out)["n"] == MAX_N


class TestHkCap:
    def test_n_above_the_cap_exits_2_before_any_shape_is_built(self, capsys, monkeypatch):
        monkeypatch.setattr(pure, "herzog_kuhl", None)  # any use would raise
        code, out, err = run(capsys, "hk", "--degrees", "0,1", "--n", str(MAX_N + 1))
        assert (code, out) == (2, "")
        assert err == f"error: n must be at most {MAX_N}, got --n {MAX_N + 1}\n"

    def test_the_cap_itself_is_accepted(self, capsys):
        code, out, _ = run(capsys, "hk", "--degrees", "0,1", "--n", str(MAX_N))
        assert code == 0 and json.loads(out)["n"] == MAX_N

    def test_long_degrees_exit_2_on_one_line_before_any_shape_is_built(
            self, capsys, monkeypatch):
        monkeypatch.setattr(pure, "herzog_kuhl", None)  # any use would raise
        degrees = ",".join(str(k * 10**249) for k in range(1, 481))  # 121 KB
        start = time.perf_counter()
        code, out, err = run(capsys, "hk", "--degrees", degrees, "--n", "479")
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == (f"error: hk needs |degree| <= {pure.HK_MAX_DEGREE}, "
                       f"got {'48' + '0' * 38}... (252 digits)\n")

    def test_the_degree_cap_is_two_sided_and_itself_accepted(self, capsys):
        cap = pure.HK_MAX_DEGREE
        for degrees in (f"{-cap - 1},0", f"0,{cap + 1}"):
            code, out, err = run(capsys, "hk", "--degrees", degrees, "--n", "2")
            assert (code, out) == (2, "") and err.count("\n") == 1, degrees
        code, out, _ = run(capsys, "hk", "--degrees", f"{-cap},0,{cap}", "--n", "2",
                           "--normalize-at", "1")
        assert code == 0 and json.loads(out)["entries"] == ["1/2", "1", "1/2"]

    def test_spread_degrees_at_the_cap_print_in_under_2_s(self, capsys):
        # 201 degrees at random over +-HK_MAX_DEGREE: the entries'
        # denominators share few factors, and the shape is printed as it is
        # built, never put over one common denominator
        cap = pure.HK_MAX_DEGREE
        degrees = sorted(random.Random("hk-spread").sample(range(-cap, cap + 1), 201))
        start = time.perf_counter()
        code, out, _ = run(capsys, "hk", "--degrees", ",".join(map(str, degrees)),
                           "--n", "200", "--normalize-at", "0")
        assert time.perf_counter() - start < 2
        assert code == 0 and json.loads(out)["entries"][0] == "1"


class TestPlot:
    def test_csv_columns(self, capsys):
        code, out, _ = run(capsys, "plot", "--len", "4",
                           "--inline", finite_json(["1/2", "1", "1/2"]))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "index,approx,exact"
        assert lines[1] == "0,0.5,1/2"
        assert lines[-1] == "3,0,0"

    def test_len_cap(self, capsys):
        w = finite_json(["1/2", "1", "1/2"])
        code, out, err = run(capsys, "plot", "--len", str(MAX_PLOT_LEN), "--inline", w)
        assert code == 0 and err == "" and out.count("\n") == MAX_PLOT_LEN + 1
        code, out, err = run(capsys, "plot", "--len", str(MAX_PLOT_LEN + 1), "--inline", w)
        assert code == 2 and out == ""
        assert err == f"error: --len must be at most {MAX_PLOT_LEN}, got --len {MAX_PLOT_LEN + 1}\n"

    def test_tail_input(self, capsys):
        w = json.dumps(sequence_to_json(ray("tau_d", 1, 2, 3)))
        code, out, _ = run(capsys, "plot", "--len", "3", "--inline", w)
        assert code == 0
        assert out.strip().splitlines()[1].startswith("0,0.333333333333,1/3")

    def test_values_past_the_float_range(self, capsys):
        big = "9" * 400
        w = finite_json([big, "-" + big + "/7"])
        code, out, err = run(capsys, "plot", "--len", "2", "--inline", w)
        assert code == 0 and err == ""
        assert out.splitlines()[1:] == [f"0,inf,{big}", f"1,-inf,-{big}/7"]

    def test_each_distinct_value_is_formatted_once(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "rational_str",
                            lambda value: calls.append(value) or rational_str(value))
        data = {"kind": "tail", "stab": 3, "head": ["1", "2/3", "5"],
                "tail_even": "7" * 60 + "/3", "tail_odd": "1/" + "9" * 60}
        code, out, _ = run(capsys, "plot", "--len", "1000", "--inline", json.dumps(data))
        assert code == 0 and len(calls) <= 3 + 2
        entries = sequence_from_json(data).prefix(1000)
        assert out.splitlines() == ["index,approx,exact"] + [
            f"{i},{float(v):.12g},{rational_str(v)}" for i, v in enumerate(entries)]


class TestInputHandling:
    def test_file_input(self, tmp_path, capsys):
        path = tmp_path / "seq.json"
        path.write_text(finite_json([1, 2, 1]))
        code, out, _ = run(capsys, "member", "--cone", "regular", "--n", "2",
                           "--input", str(path))
        assert code == 0 and json.loads(out)["member"] is True

    def test_missing_file(self, capsys):
        code, _, _ = run(capsys, "member", "--cone", "regular", "--n", "2",
                         "--input", "/nonexistent/seq.json")
        assert code == 1

    def test_both_sources_rejected(self, tmp_path, capsys):
        path = tmp_path / "seq.json"
        path.write_text(finite_json([1, 2, 1]))
        code, _, _ = run(capsys, "member", "--cone", "regular", "--n", "2",
                         "--input", str(path), "--inline", finite_json([1, 2, 1]))
        assert code == 1

    def test_non_utf8_file(self, tmp_path, capsys):
        path = tmp_path / "seq.json"
        path.write_bytes(b"\xff\xfe" + finite_json([1, 2, 1]).encode())
        code, _, err = run(capsys, "member", "--cone", "regular", "--n", "2",
                           "--input", str(path))
        assert code == 1
        assert err.startswith("error: cannot read") and err.count("\n") == 1

    def test_unreadable_path_is_quoted_once(self, tmp_path, capsys):
        for name in ("a" * 300, "b" * 200 + "/seq.json"):
            code, out, err = run(capsys, "member", "--cone", "regular", "--n", "2",
                                 "--input", str(tmp_path / name))
            assert code == 1 and out == ""
            assert err.startswith("error: cannot read '") and err.count("\n") == 1
            assert len(err) < 200

    def test_a_file_past_the_byte_cap_exits_2_on_one_line(self, tmp_path, capsys):
        text = finite_json([1, 2, 1])
        path = tmp_path / "seq.json"
        path.write_text(text + " " * (cli.MAX_INPUT_BYTES - len(text)))
        code, out, err = run(capsys, "member", "--cone", "regular", "--n", "2",
                             "--input", str(path))
        assert code == 0 and err == "" and json.loads(out)["member"] is True
        with path.open("a") as file:
            file.write(" ")
        for source in (str(path), "/dev/zero"):
            start = time.perf_counter()
            code, out, err = run(capsys, "member", "--cone", "regular", "--n", "2",
                                 "--input", source)
            assert time.perf_counter() - start < 1
            assert (code, out) == (2, "")
            assert err == (f"error: --input must be at most {cli.MAX_INPUT_BYTES} bytes, "
                           f"got more in {quoted(source)}\n")

    def test_the_largest_input_the_other_caps_accept_reads(self, tmp_path, capsys):
        # a constant tail sequence at n = MAX_N, every one of its 503
        # entries written out as two 4,300-digit parts (the digit limit)
        entry = f"{'7' * 4300}/{'7' * 4299}8"
        path = tmp_path / "seq.json"
        head = [entry] * (MAX_N + 1)
        path.write_text(json.dumps({"kind": "tail", "stab": len(head), "head": head,
                                    "tail_even": entry, "tail_odd": entry}))
        assert path.stat().st_size > 4_300_000
        code, out, err = run(capsys, "member", "--cone", "total", "--n", str(MAX_N),
                             "--input", str(path))
        assert code == 0 and err == "" and json.loads(out)["member"] is True

    def test_a_tail_head_past_the_cap_exits_2_before_the_scan(self, tmp_path, capsys):
        # 800,000 head entries in 4 MB, inside the byte cap: membership would
        # scan flatness over the whole head and report every unequal pair
        head = ["1", "2"] * 400_000
        path = tmp_path / "seq.json"
        path.write_text(json.dumps({"kind": "tail", "stab": len(head), "head": head,
                                    "tail_even": "1", "tail_odd": "1"}))
        start = time.perf_counter()
        code, out, err = run(capsys, "member", "--cone", "total", "--n", "3",
                             "--input", str(path))
        assert time.perf_counter() - start < 5  # parsing the entries is most of it
        assert (code, out) == (2, "")
        assert err == (f"error: stab must be at most {MAX_N + 1}, "
                       f"got a sequence with stab={len(head)}\n")

    def test_a_coprime_tail_head_past_the_cap_exits_2_before_the_scan(self, tmp_path, capsys):
        # 32,000 head entries 1/p for distinct primes p in 373 KB: their
        # least common denominator has about 190,000 digits, so nothing
        # before the cap may put the entries over it
        head = [f"1/{p}" for p in primes(32_000)]
        path = tmp_path / "seq.json"
        path.write_text(json.dumps({"kind": "tail", "stab": len(head), "head": head,
                                    "tail_even": "1", "tail_odd": "1"}))
        start = time.perf_counter()
        code, out, err = run(capsys, "member", "--cone", "total", "--n", "3",
                             "--input", str(path))
        assert time.perf_counter() - start < 5
        assert (code, out) == (2, "")
        assert err == (f"error: stab must be at most {MAX_N + 1}, "
                       f"got a sequence with stab={len(head)}\n")

    @pytest.mark.parametrize("command", [["member", "--cone", "total"],
                                         ["decompose", "--cone", "total"], ["split"]],
                             ids=lambda argv: argv[0])
    def test_the_stab_cap_is_max_n_plus_one(self, capsys, command):
        # a finite input at n = MAX_N, embedded, has stab MAX_N + 1
        assert embed(BettiVector.of([1] * (MAX_N + 1))).stab == MAX_N + 1
        for stab, refused in ((MAX_N + 1, False), (MAX_N + 2, True)):
            seq = TailPeriodicSequence(stab, [0] * (stab - 1) + [1], 0, 0)
            code, _, err = run(capsys, *command, "--n", str(MAX_N),
                               "--inline", json.dumps(sequence_to_json(seq)))
            assert (code == 2 and err.startswith("error: stab must")) is refused

    def test_deeply_nested_json(self, tmp_path, capsys):
        path = tmp_path / "seq.json"
        path.write_text("[" * 200000)
        for source in (("--inline", "[" * 200000), ("--input", str(path))):
            code, _, err = run(capsys, "member", "--cone", "regular", "--n", "2", *source)
            assert code == 1
            assert err.startswith("error: invalid JSON") and err.count("\n") == 1

    @pytest.mark.parametrize("data", [
        {"kind": "finite", "n": 1, "entries": ["1/0", "1"]},
        {"kind": "finite", "n": 1, "entries": ["7" * 4301, "1"]},
        {"kind": "finite", "n": 1, "entries": ["\uff11", "1"]},
        {"kind": "finite", "n": True, "entries": ["1", "1"]},
    ], ids=["zero_denominator", "huge_integer", "non_ascii_digit", "bool_n"])
    def test_input_boundary_defects(self, capsys, data):
        code, out, err = run(capsys, "member", "--cone", "regular", "--n", "1",
                             "--inline", json.dumps(data))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_invalid_json(self, capsys):
        code, _, _ = run(capsys, "member", "--cone", "regular", "--n", "2",
                         "--inline", "{not json")
        assert code == 1

    def test_float_entries_rejected(self, capsys):
        code, _, _ = run(capsys, "member", "--cone", "regular", "--n", "2",
                         "--inline", '{"kind":"finite","n":2,"entries":["0.5","1","0.5"]}')
        assert code == 1

    def test_mismatched_n_is_precondition(self, capsys):
        code, _, _ = run(capsys, "classify", "--n", "4",
                         "--inline", finite_json([1, 1]))
        assert code == 2


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys):
        args = ("decompose", "--cone", "total", "--n", "4", "--inline",
                json.dumps(sequence_to_json(
                    tail_sum(tail_sum(ray("tau_inf", 2, 4), ray("tau_inf", 3, 4)),
                             embed(BettiVector.of([Fraction(5, 3), 0, 0, 0, 0]))))))
        first = run(capsys, *args)
        second = run(capsys, *args)
        assert first == second

    def test_emitted_json_reparses_structurally(self, capsys):
        code, out, _ = run(capsys, "phi", "--inline", finite_json([1, 0, 0]))
        payload = json.loads(out)
        assert sequence_to_json(sequence_from_json(payload)) == payload


class TestFailurePaths:
    def test_unexpected_exception_exits_3_on_one_line(self, capsys, monkeypatch):
        def broken(v):
            raise RuntimeError("boom\nsecond line")
        monkeypatch.setattr(hyper_total, "phi", broken)
        code, out, err = run(capsys, "phi", "--inline", finite_json([1, 3, 3, 1]))
        assert code == 3 and out == ""
        assert err == "internal error: RuntimeError: 'boom\\nsecond line'\n"

    @pytest.mark.parametrize("argv, code", [
        (["member", "--cone", "regular", "--n", "2", "--inline",
          '{"kind":"finite","entries":[' + "[" * 500 + "]" * 500 + "]}"], 1),
        (["member", "--cone", "regular", "--n", "1", "--inline",
          json.dumps({"kind": "finite", "entries": ["x" * 5000, "1"]})], 1),
        (["member", "--cone", "regular", "--n", "1", "--inline",
          json.dumps({"kind": "finite", "entries": ["7" * 4000 + "/0", "1"]})], 1),
        (["member", "--cone", "regular", "--n", "1", "--inline",
          json.dumps({"kind": "finite", "n": "9" * 5000, "entries": ["1", "1"]})], 1),
        (["member", "--cone", "regular", "--n", "1", "--inline",
          json.dumps({"kind": "k" * 5000})], 1),
        (["member", "--cone", "regular", "--n", "1", "--inline",
          '{"kind":"finite","entries":[' + "1" * 5000 + ',1]}'], 1),
        (["hk", "--degrees", "0," * 2500 + "x", "--n", "2"], 1),
        (["hk", "--degrees", ",".join(str(3000 - i) for i in range(3000)), "--n", "3000"], 2),
    ], ids=["nested_list", "long_string", "zero_denominator", "long_n", "long_kind",
            "json_integer_past_digit_limit", "long_degrees", "decreasing_degrees"])
    def test_message_quotes_bounded_input(self, capsys, argv, code):
        got, out, err = run(capsys, *argv)
        assert got == code and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 200


    @pytest.mark.parametrize("command", [
        ["member", "--cone", "regular"], ["member", "--cone", "total"],
        ["member", "--cone", "fixed", "--mult", "3"], ["decompose", "--cone", "regular"],
        ["decompose", "--cone", "total"], ["classify"], ["split"]])
    def test_a_value_past_the_digit_limit_exits_2_on_one_line(self, capsys, command):
        # valid input whose window sums have denominators of about 16,000 digits
        seq = finite_json([Fraction(-1, 10**4000 + k) for k in (1, 3, 7, 9)])
        code, out, err = run(capsys, *command, "--n", "3", "--inline", seq)
        assert (code, out) == (2, "")
        assert re.fullmatch(r"error: exact value of \d+/\d+ bits \(numerator/denominator\) "
                            r"exceeds the interpreter's 4300-digit limit for printing "
                            r"integers\n", err), err

    def test_a_pure_shape_past_the_digit_limit_exits_2_on_one_line(self, capsys):
        degrees = ",".join(str(k * 10**8) for k in range(MAX_N + 1))
        code, out, err = run(capsys, "hk", "--degrees", degrees, "--n", str(MAX_N))
        assert (code, out) == (2, "")
        assert err.startswith("error: exact value of 1/") and err.count("\n") == 1

    def test_violation_values_are_bounded_on_stderr(self, capsys):
        huge = "-" + "7" * 4000
        exact = "-" + "7" * 3999 + "8"  # chi[0,1] = huge - 1
        seq = json.dumps({"kind": "finite", "entries": [huge, "1"]})
        code, out, err = run(capsys, "decompose", "--cone", "regular", "--n", "1",
                             "--inline", seq)
        assert code == 2 and out == ""
        assert err == ("error: not in the regular cone: chi[0,1] = "
                       f"{exact[:40]}... (4000 digits)\n"
                       f"  violated: chi[0,1] = {exact[:40]}... (4000 digits)\n")
        code, out, err = run(capsys, "member", "--cone", "regular", "--n", "1",
                             "--inline", seq)
        assert code == 0 and err == ""
        assert json.loads(out)["violations"] == [{"constraint": "chi[0,1]", "value": exact}]


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12)
    | st.from_regex(r"-?[0-9]{1,3}(/[0-9])?", fullmatch=True),
    lambda inner: (st.lists(inner, max_size=5)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=12)
sequence_like = st.fixed_dictionaries(
    {"kind": st.sampled_from(["finite", "tail"]) | json_values},
    optional={key: json_values
              for key in ("n", "stab", "entries", "head", "tail_even", "tail_odd")})


rationals = (st.from_regex(r"[0-9]{1,2}(/[1-9])?", fullmatch=True)
             | st.from_regex(r"-[1-9](/[1-9])?", fullmatch=True)
             | (st.integers(10 ** 310, 10 ** 400) | st.integers(-10 ** 400, -10 ** 310))
             .map(str))  # past the float range


def valid_sequences(n):
    """Well-formed finite and tail sequences near length n, flat tails and
    nonnegative ray combinations (members) of the cones at n among them."""
    finite = st.lists(rationals, min_size=n + 1, max_size=n + 1).map(
        lambda entries: {"kind": "finite", "n": n, "entries": entries})
    tail = st.tuples(st.lists(rationals, max_size=n + 2), rationals, rationals | st.none()).map(
        lambda t: {"kind": "tail", "stab": len(t[0]), "head": t[0],
                   "tail_even": t[1], "tail_odd": t[1] if t[2] is None else t[2]})
    cones = [regular.cone(n)] + ([hyper_total.cone(n), hyper_fixed.cone(
        hyper_fixed.FixedConeParams(n, 3))] if n >= 2 else [])
    members = st.sampled_from(cones).flatmap(lambda cone: st.lists(
        st.integers(0, 4), min_size=len(cone.names), max_size=len(cone.names)).map(
        lambda coeffs: sequence_to_json(cone.combine(coeffs))))
    return finite | tail | members


SEQUENCE_COMMANDS = {
    **{f"member-{cone}": ["member", "--cone", cone, "--mult", "3"]
       for cone in ("regular", "total", "fixed")},
    **{f"decompose-{cone}-{t}": ["decompose", "--cone", cone, "--mult", "3", "--triangulation", t]
       for cone in ("regular", "total", "fixed") for t in "12"},
    "classify": ["classify"], "split": ["split"], "phi": ["phi"],
}


@pytest.mark.parametrize("command", [*SEQUENCE_COMMANDS, "plot"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_sequence_commands_on_arbitrary_json_end_in_a_documented_exit(command, data):
    n = data.draw(st.integers(0, 5), label="n")
    payload = data.draw(json_values | sequence_like | valid_sequences(n), label="input")
    argv = SEQUENCE_COMMANDS[command] + ["--n", str(n)] if command != "plot" else [
        "plot", "--len", str(n + 4)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--inline", json.dumps(payload)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    lines = err.getvalue().splitlines()
    assert (code == 0) == (lines == [])
    assert lines[:1] == [] or lines[0].startswith("error: ")
    assert all(line.startswith("  violated: ") for line in lines[1:])
