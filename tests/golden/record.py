"""Record the golden CLI corpus: argv, exit code, stdout and stderr for a
fixed list of cases covering every command and cone at n = 2..6, plus
members and crossed non-members of the total and multiplicity-3 cones
at n = 48, the command line's usage errors and parsing rules, a tail
input refused for its head length, and `split` and multiplicity-3
certificates on rational and tie-heavy members at n = 8 and 48, and
`classify` at n = 48 on a rational non-member and on the coprime point
that `bench/record.py` times, `verify` at its defaults, and the entry
forms the parser accepts and refuses.

Each case runs in process through ``betticone.cli.main``; the inputs are
fixed combinations of each cone's rays through ``Cone.combine``, the named
rays in ``tests/reference_sequences.py`` and sequences written out entry
by entry, so two recordings of the same code are byte-identical. Run from
the repository root:

    PYTHONPATH=src python tests/golden/record.py

and commit ``tests/golden/cli_corpus.json``. ``tests/test_golden.py``
replays every case and requires the same three outputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

from betticone import hyper_fixed, hyper_total, regular
from betticone.cli import MAX_N, main
from betticone.sequences import BettiVector, TailPeriodicSequence, embed, sequence_to_json

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # the tests' references
from reference_sequences import coprime_entries, ray, rho_vector, tail_sum  # noqa: E402

CORPUS = Path(__file__).with_name("cli_corpus.json")
NS = range(2, 7)
MULTS = (2, 3, 5)
LARGE_N = 48


def _json(seq) -> str:
    return json.dumps(sequence_to_json(seq))


def _coeffs(n: int, count: int, salt: int) -> list[Fraction]:
    # small, tie-heavy integer and rational coefficients, fixed per (n, salt)
    return [Fraction((3 * k + n + salt) % 4, 1 + (k + salt) % 2) for k in range(count)]


def _rational(n: int, count: int) -> list[Fraction]:
    # positive coefficients over the denominators 1 to 7, fixed per n
    return [Fraction(1 + (5 * k + n) % 9, 1 + (k + n) % 7) for k in range(count)]


def _ties(count: int) -> list[int]:
    # coefficients 0 and 1 only, so the ratio test meets many equal ratios
    return [int(k % 3 != 1) for k in range(count)]


def _total(n, salt):
    return hyper_total.cone(n).combine(_coeffs(n, n + 2, salt))


def _fixed(n, d):
    coeffs = _coeffs(n, n + 2, d)
    if d == 2:  # the one tail ray, into which the two tail rays of d > 2 merge
        coeffs = coeffs[:n] + [coeffs[n] + coeffs[n + 1]]
    return hyper_fixed.cone(hyper_fixed.FixedConeParams(n, d)).combine(coeffs)


def _finite(n, salt):
    return regular.cone(n).combine(_coeffs(n, n + 1, salt))


def _finite_nonmember(n):
    # a two-term ray with its first entry pushed below zero: rho[0] - rho[-1]
    return regular.cone(n).combine([-1, 1] + [0] * (n - 1))


def _tail_nonmember(n):
    # a member with 3 added at index n-1, which breaks windows ending at n
    w = _total(n, 1)
    return tail_sum(w, TailPeriodicSequence(n, (Fraction(0),) * (n - 1) + (Fraction(3),),
                                            Fraction(0), Fraction(0)))


def _crossed(w, n, bumps):
    # ``w`` with bumps[k] added at entry k < n: windows from starts of both
    # parities turn negative, chi[n-1,n] among them when k = n-1 is bumped
    return tail_sum(w, TailPeriodicSequence(n, tuple(Fraction(bumps.get(k, 0)) for k in range(n)),
                                            Fraction(0), Fraction(0)))


def cases() -> list[list[str]]:
    out = []
    out += [["hk", "--degrees", "0,1,2", "--n", "2"],
            ["hk", "--degrees", "0,1,3,5", "--n", "3"],
            ["hk", "--degrees", "0,2,3,7,8", "--n", "4", "--normalize-at", "0"],
            ["hk", "--degrees", "0,1,11", "--n", "2", "--normalize-at", "0"],
            ["hk", "--degrees", "a,b", "--n", "2"],
            ["hk", "--degrees", "1,1", "--n", "2"]]
    for n in NS:
        out.append(["limit", "--j", str(n % 2), "--t", str(n + 3), "--n", str(n)])
    out.append(["limit", "--j", "0", "--t", "1", "--n", "2"])
    for n in NS:
        out.append(["phi", "--inline", _json(_finite(n, 0))])
        out.append(["phi", "--inline", _json(_finite(n, 1)), "--n", str(n)])
    out.append(["phi", "--inline", _json(ray("tau_inf", 1, 3))])
    for n in NS:
        member_f, member_t = _finite(n, 0), _total(n, 0)
        for inline in (_json(member_f), _json(_finite_nonmember(n))):
            out.append(["member", "--cone", "regular", "--n", str(n), "--inline", inline])
            out.append(["decompose", "--cone", "regular", "--n", str(n), "--inline", inline])
            out.append(["classify", "--n", str(n), "--inline", inline])
        out.append(["classify", "--n", str(n), "--inline", _json(rho_vector(n - 2, n))])
        out.append(["classify", "--n", str(n), "--inline",  # rho[0] + rho[n-1]
                    _json(regular.cone(n).combine([0, 1] + [0] * (n - 2) + [1]))])
        for inline in (_json(member_t), _json(embed(member_f)), _json(_tail_nonmember(n))):
            out.append(["member", "--cone", "total", "--n", str(n), "--inline", inline])
            for tri in ("1", "2"):
                out.append(["decompose", "--cone", "total", "--n", str(n),
                            "--triangulation", tri, "--inline", inline])
            out.append(["split", "--n", str(n), "--inline", inline])
        for d in MULTS:
            member_x = _fixed(n, d)
            for inline in (_json(member_x), _json(member_t)):
                out.append(["member", "--cone", "fixed", "--n", str(n), "--mult", str(d),
                            "--inline", inline])
                for tri in ("1", "2"):
                    out.append(["decompose", "--cone", "fixed", "--n", str(n),
                                "--mult", str(d), "--triangulation", tri, "--inline", inline])
        out.append(["plot", "--len", str(n + 2), "--inline", _json(member_f)])
        out.append(["plot", "--len", str(n + 3), "--inline", _json(member_t)])
    finite2, tail3 = _json(_finite(2, 0)), _json(ray("tau_inf", 2, 3))
    # windows, then flatness, then xi violations in one answer
    mixed = _json(TailPeriodicSequence(4, (0, 0, 0, 1), Fraction(1), Fraction(2)))
    out += [
        ["member", "--cone", "fixed", "--n", "3", "--mult", "3", "--inline", mixed],
        ["decompose", "--cone", "fixed", "--n", "3", "--mult", "3", "--inline", mixed],
        ["member", "--cone", "total", "--n", "3", "--inline", mixed],
        # an alternating tail that is not flat
        ["member", "--cone", "total", "--n", "2", "--inline",
         _json(TailPeriodicSequence(0, (), Fraction(1), Fraction(0)))],
        # the wrong sequence kind
        ["member", "--cone", "regular", "--n", "3", "--inline", tail3],
        ["decompose", "--cone", "regular", "--n", "3", "--inline", tail3],
        ["classify", "--n", "3", "--inline", tail3],
        ["phi", "--inline", tail3, "--n", "3"],
        # a finite input whose length disagrees with --n
        ["member", "--cone", "regular", "--n", "4", "--inline", finite2],
        # --mult missing
        ["member", "--cone", "fixed", "--n", "3", "--inline", tail3],
        ["decompose", "--cone", "fixed", "--n", "3", "--inline", tail3],
        # n below the cone's minimum
        ["member", "--cone", "total", "--n", "1", "--inline", tail3],
        ["decompose", "--cone", "total", "--n", "1", "--inline", tail3],
        ["member", "--cone", "fixed", "--n", "1", "--mult", "3", "--inline", tail3],
        ["decompose", "--cone", "fixed", "--n", "1", "--mult", "3", "--inline", tail3],
        ["split", "--n", "1", "--inline", tail3],
        ["member", "--cone", "fixed", "--n", "3", "--mult", "1", "--inline", tail3],
        # usage and malformed input
        ["member", "--cone", "regular", "--n", "2"],
        ["member", "--cone", "cubic", "--n", "2", "--inline", finite2],
        ["decompose", "--cone", "total", "--n", "3", "--triangulation", "3",
         "--inline", tail3],
        ["member", "--cone", "regular", "--n", "2", "--inline", "{not json"],
        ["member", "--cone", "regular", "--n", "2", "--inline",
         '{"kind":"finite","n":2,"entries":["0.5","1","0.5"]}'],
        ["plot", "--len", "0", "--inline", finite2],
        ["verify", "--n-max", "3", "--mult-max", "3"],
    ]
    # past the small cases: many violated windows from several starts, so
    # the report order of a long violation list is pinned
    n, bumps = LARGE_N, {4: -2, 11: Fraction(3, 2), 25: -1, LARGE_N - 1: -4}
    for cone, member in ((["--cone", "total"], _total(n, 2)),
                         (["--cone", "fixed", "--mult", "3"], _fixed(n, 3))):
        for inline in (_json(member), _json(_crossed(member, n, bumps))):
            for command in ("member", "decompose"):
                out.append([command, *cone, "--n", str(n), "--inline", inline])
    regular2 = ["--cone", "regular", "--n", "2"]
    out += [
        # missing required options (a choice lists its values)
        ["member", "--cone", "regular", "--inline", finite2],
        ["member", "--n", "2", "--inline", finite2],
        ["hk", "--n", "2"],
        # values that are not integers or not a choice
        ["verify", "--n-max", "x"],
        ["plot", "--len", "1.5", "--inline", finite2],
        ["hk", "--degrees", "0,1,2", "--n", "2", "--normalize-at", "a"],
        ["decompose", *regular2, "--triangulation", "omit_odd", "--inline", finite2],
        # unknown options: one close match, several, none
        ["member", *regular2, "--mlt", "3", "--inline", finite2],
        ["member", *regular2, "--inlin", finite2],
        ["--version"],
        ["-h"],
        ["member", "--version"],
        ["member", *regular2, "-h"],
        # unknown commands: with a close match, with two, with none
        ["membr", *regular2],
        ["plt", "--len", "2"],
        ["cubic"],
        # no command after the top-level options
        ["--"],
        # extra arguments, one or two, and everything after "--"
        ["member", *regular2, "--inline", finite2, "x"],
        ["member", *regular2, "x", "--inline", finite2, "y"],
        ["member", *regular2, "--", "--inline", finite2],
        # the errors come in command-line order, the missing ones last
        ["member", "--n", "x", "--cone", "cubic"],
        ["member", "--cone", "cubic", "--n", "x"],
        ["member", "--n", "x"],
        # --opt=value, a repeated option (the last one wins), a value that
        # starts with "-", an empty value
        ["member", "--cone=total", "--n=3", f"--inline={tail3}"],
        ["decompose", "--cone", "total", "--n", "3", "--triangulation=2", "--inline", tail3],
        ["member", "--cone", "cubic", "--cone", "regular", "--n", "5", "--n", "2",
         "--inline", finite2],
        ["limit", "--j", "-1", "--t", "3", "--n", "2"],
        ["member", "--cone", "regular", "--n", "", "--inline", finite2],
        ["member", "--cone", "regular", "--n=", "--inline", finite2],
        # an option given no value, and a value given to --help: the same
        # three-line form as every other usage error
        ["member", "--cone", "total", "--n"],
        ["member", "--help=1"],
        # a tail input whose canonical stab is past MAX_N + 1
        ["member", "--cone", "total", "--n", "3", "--inline",
         _json(TailPeriodicSequence(MAX_N + 2, [0] * (MAX_N + 1) + [1], 0, 0))],
    ]
    # split's parts over a certificate denominator past 1, and on ties;
    # a rational multiplicity-3 certificate past the small cases
    for n in (8, LARGE_N):
        out.append(["split", "--n", str(n), "--inline",
                    _json(hyper_total.cone(n).combine(_rational(n, n + 2)))])
    out.append(["split", "--n", str(LARGE_N), "--inline",
                _json(hyper_total.cone(LARGE_N).combine(_ties(LARGE_N + 2)))])
    fixed3 = hyper_fixed.cone(hyper_fixed.FixedConeParams(LARGE_N, 3))
    out.append(["decompose", "--cone", "fixed", "--n", str(LARGE_N), "--mult", "3",
                "--inline", _json(fixed3.combine(_rational(LARGE_N, LARGE_N + 2)))])
    # classify past the small cases: a rational non-member whose ray
    # coefficients are negative at four positions, and the coprime point
    negated = [-c if k in (3, 17, 30, 44) else c
               for k, c in enumerate(_rational(LARGE_N, LARGE_N + 1))]
    out.append(["classify", "--n", str(LARGE_N), "--inline",
                _json(regular.cone(LARGE_N).combine(negated))])
    out.append(["classify", "--n", str(LARGE_N), "--inline",
                _json(BettiVector.of(coprime_entries(LARGE_N)))])
    # the default verify grid: every relation detail the 45 checks print
    out.append(["verify"])
    # entries as the parser reads them: signs, a negative zero, unreduced
    # and padded rationals, JSON numbers, then the refusals (a digit
    # separator, a non-ASCII digit, a zero denominator, an integer past the
    # interpreter's 4,300-digit limit), and a tail whose head the tail
    # reproduces in full, so it trims to stab 0
    regular2 = ["--cone", "regular", "--n", "2", "--inline"]
    for entries in (["+3", "-0", "0/5"], [" 7 ", "06/04", "-6/4"], [5, "2", 0],
                    ["1_000", "0", "0"], ["\u0663", "0", "0"], ["1/0", "0", "0"],
                    ["1" * 4301, "0", "0"], [True, "0", "0"], [0.5, "1", "1"]):
        inline = json.dumps({"kind": "finite", "n": 2, "entries": entries})
        out.append(["decompose", *regular2, inline])
    out.append(["member", "--cone", "total", "--n", "2", "--inline", json.dumps(
        {"kind": "tail", "stab": 3, "head": ["1", "2/2", " +1"],
         "tail_even": "1", "tail_odd": "01"})])
    return out


def run_case(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


if __name__ == "__main__":
    corpus = [run_case(argv) for argv in cases()]
    CORPUS.write_text(json.dumps(corpus, indent=1, ensure_ascii=False) + "\n")
    print(f"{len(corpus)} cases written to {CORPUS}")
