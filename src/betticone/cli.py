"""Command-line front end.

All commands read and write the package's JSON sequence schema (rationals
are strings, never JSON numbers, so nothing is ever rounded):

    {"kind": "finite", "n": 3, "entries": ["1", "3", "3", "1"]}
    {"kind": "tail", "stab": 2, "head": ["1", "3"],
     "tail_even": "4", "tail_odd": "4"}

Exit codes: 0 success, 1 malformed input or usage error, 2 precondition
violation (e.g. a vector outside the requested cone, with the violated
functional named), 3 internal verification failure or any other error.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from . import hyper_fixed, hyper_total, pure, regular
from .errors import (ConeInputError, InternalInconsistencyError,
                     MalformedInputError, NotInConeError, bounded, quoted)
from .hyper_fixed import MEMBERSHIP_CAVEAT, FixedConeParams
from .sequences import (BettiVector, TailPeriodicSequence, embed, rational_str,
                        sequence_from_json, sequence_to_json)


def _echo_json(payload) -> None:
    click.echo(json.dumps(payload))


def _load_sequence(input_path: str | None, inline: str | None):
    if (input_path is None) == (inline is None):
        raise click.UsageError("exactly one of --input and --inline is required")
    if input_path is not None:
        try:
            text = Path(input_path).read_text(encoding="utf-8")
        except OSError as exc:
            # strerror, not str(exc): that repeats the path in full
            raise MalformedInputError(
                f"cannot read {quoted(input_path)}: {exc.strerror}") from exc
        except UnicodeDecodeError as exc:
            raise MalformedInputError(
                f"cannot read {quoted(input_path)}: not UTF-8 ({exc.reason})") from exc
    else:
        text = inline
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError: also an integer past the interpreter's digit limit;
        # RecursionError: nesting deeper than the interpreter's recursion limit
        raise MalformedInputError(f"invalid JSON: {exc}") from exc
    return sequence_from_json(data)


# The largest n that member, decompose, classify and split accept, as --n
# and as a finite input's "n", and the largest `hk --n` (which also bounds
# the degree count).  Membership is O(n) on a member, plus O(n) for each
# start with a negative window on a non-member, and a certificate's solve
# and reconstruction check are O(n) after it: at n = 500 one `member` or
# `decompose` process takes 0.2-0.3 s end to end on a member or a point
# crossed at a few starts, and up to 0.8 s when all 63,000 windows are
# negative (shared 2-vCPU VM).
MAX_N = 500


# The most rows `plot` prints.  Each distinct value is formatted once, so a
# tail-periodic input costs its head plus two values: 1,000 rows of
# 4,250-digit tails print 8.5 MB in 0.17-0.20 s end to end.  With 1,000
# distinct values of 4,300 digits (the interpreter's limit) the worst
# accepted call prints 8.6 MB in 1.1-1.3 s (shared 2-vCPU VM).
MAX_PLOT_LEN = 1000


def _capped(n: int) -> int:
    if n > MAX_N:
        raise ConeInputError(f"n must be at most {MAX_N}, got --n {bounded(str(n))}")
    return n


def _load_capped(input_path: str | None, inline: str | None, n: int):
    """`_load_sequence` for the cone commands: --n and a finite input's "n"
    are checked against MAX_N before the cone is built."""
    _capped(n)
    seq = _load_sequence(input_path, inline)
    if isinstance(seq, BettiVector) and seq.n > MAX_N:
        raise ConeInputError(f"n must be at most {MAX_N}, got a sequence with n={seq.n}")
    return seq


def _finite(seq, n: int) -> BettiVector:
    if isinstance(seq, TailPeriodicSequence):
        raise ConeInputError(
            "this command needs a finite sequence (kind \"finite\")")
    if seq.n != n:
        raise ConeInputError(f"sequence has n={seq.n}, but --n {n} was given")
    return seq


def _tail(seq) -> TailPeriodicSequence:
    if isinstance(seq, BettiVector):
        return embed(seq)
    return seq


def _violations_json(violations) -> list[dict]:
    return [{"constraint": name, "value": rational_str(value)}
            for name, value in violations]


input_option = click.option("--input", "input_path", type=str, default=None,
                            help="Path of a JSON sequence file.")
inline_option = click.option("--inline", type=str, default=None,
                             help="Inline JSON sequence.")


@click.group()
def cli():
    """Exact cone computations for shapes of minimal free resolutions."""


@cli.command()
@click.option("--degrees", required=True,
              help="Comma-separated strictly increasing integers, e.g. 0,1,3.")
@click.option("--n", type=int, required=True, help="Ambient homological length.")
@click.option("--normalize-at", type=int, default=None,
              help="Scale the result so this entry becomes 1.")
def hk(degrees: str, n: int, normalize_at: int | None):
    """Shape vector of the pure resolution for a degree sequence."""
    try:
        parsed = tuple(int(part) for part in degrees.split(","))
    except ValueError as exc:
        raise MalformedInputError(f"invalid --degrees {quoted(degrees)}") from exc
    sequence = pure.DegreeSequence(parsed)
    largest = max(parsed, key=abs)
    if abs(largest) > pure.HK_MAX_DEGREE:
        raise ConeInputError(f"hk needs |degree| <= {pure.HK_MAX_DEGREE}, "
                             f"got {bounded(str(largest))}")
    v = pure.herzog_kuhl(sequence, _capped(n))
    if normalize_at is not None:
        v = pure.normalize_at(v, normalize_at)
    _echo_json(sequence_to_json(v))


@cli.command()
@click.option("--j", type=int, required=True, help="Which two-term ray to approach.")
@click.option("--t", type=int, required=True, help="Family parameter (>= 2).")
@click.option("--n", type=int, required=True,
              help=f"Ambient homological length (at most {pure.LIMIT_MAX_N}).")
def limit(j: int, t: int, n: int):
    """Exact max-norm gap between the normalized pure shape and its limit ray."""
    click.echo(rational_str(pure.limit_gap(j, t, n)))


@cli.command()
@input_option
@inline_option
@click.option("--n", type=int, default=None,
              help="Optional check that the input has this ambient length.")
def phi(input_path, inline, n):
    """Even/odd prefix-sum transform of a finite sequence."""
    v = _load_sequence(input_path, inline)
    image = hyper_total.phi(v)  # refuses a tail-periodic input first
    if n is not None and v.n != n:
        raise ConeInputError(f"sequence has n={v.n}, but --n {n} was given")
    _echo_json(sequence_to_json(image))


def _fixed(seq, n, mult):
    if mult is None:
        raise click.UsageError("--cone fixed requires --mult")
    return (hyper_fixed.cone(FixedConeParams(n, mult)), _tail(seq),
            {"multiplicity": mult}, {"caveat": MEMBERSHIP_CAVEAT})


def _certificate(cone, w, which) -> dict:
    """The answer of `decompose`: the coefficients, after the
    triangulation and simplex in a tail cone (the regular cone prints
    neither)."""
    dec = cone.decompose(w, which)
    coefficients = {"coefficients": {name: rational_str(c)
                                     for name, c in zip(dec.names, dec.coefficients)}}
    if cone.tail is None:
        return coefficients
    return {"triangulation": dec.label,
            "simplex": [dec.names[k] for k in dec.simplex_used], **coefficients}


# --cone -> reader: it takes the parsed input, --n and --mult and returns
# the Cone, the input in the cone's space, and the payload fields printed
# before and after the answer.
_CONES = {"regular": lambda seq, n, mult: (regular.cone(n), _finite(seq, n), {}, {}),
          "total": lambda seq, n, mult: (hyper_total.cone(n), _tail(seq), {}, {}),
          "fixed": _fixed}
cone_option = click.option("--cone", type=click.Choice(list(_CONES)), required=True)


@cli.command()
@input_option
@inline_option
@cone_option
@click.option("--n", type=int, required=True)
@click.option("--mult", type=int, default=None,
              help="Multiplicity d (required for --cone fixed).")
def member(input_path, inline, cone, n, mult):
    """Cone membership with the violated constraints named."""
    described, point, before, after = _CONES[cone](_load_capped(input_path, inline, n), n, mult)
    violations = described.violations(point)
    _echo_json({"cone": cone, "n": n, **before, "member": not violations,
                "violations": _violations_json(violations), **after})


@cli.command()
@input_option
@inline_option
@cone_option
@click.option("--n", type=int, required=True)
@click.option("--mult", type=int, default=None)
@click.option("--triangulation", type=click.Choice(["1", "2"]), default="1",
              help="1 = omit_odd, 2 = omit_even (total/fixed cones, n >= 3).")
def decompose(input_path, inline, cone, n, mult, triangulation):
    """Nonnegative ray-coefficient certificate for a member vector."""
    described, point, before, after = _CONES[cone](_load_capped(input_path, inline, n), n, mult)
    _echo_json({"cone": cone, "n": n, **before,
                **_certificate(described, point, int(triangulation)), **after})


@cli.command()
@input_option
@inline_option
@click.option("--n", type=int, required=True)
def classify(input_path, inline, n):
    """Shape classification over the regular cone: closure membership,
    realizability, depth, and the Cohen-Macaulay coefficient criterion."""
    v = _finite(_load_capped(input_path, inline, n), n)
    sc = regular.classify(v)
    payload = {
        "n": n,
        "member_of_closure": sc.member_of_closure,
        "realizable": sc.realizable,
        "cm_choice_exists": sc.cm_choice_exists,
        "decomposition": {
            "a_minus_1": rational_str(sc.decomposition.a_minus_1),
            "a": [rational_str(sc.decomposition.coefficient(i)) for i in range(n)],
        },
    }
    if sc.depth is not None:
        payload["depth"] = sc.depth
    _echo_json(payload)


@cli.command()
@input_option
@inline_option
@click.option("--n", type=int, required=True)
def split(input_path, inline, n):
    """Write a total-cone member as transform image plus finite part."""
    w = _tail(_load_capped(input_path, inline, n))
    v1, v2 = hyper_total.split(w, n)
    _echo_json({"n": n, "v1": sequence_to_json(v1), "v2": sequence_to_json(v2)})


@cli.command()
@click.option("--n-max", type=int, default=8, show_default=True)
@click.option("--mult-max", type=int, default=6, show_default=True)
@click.pass_context
def verify(ctx, n_max: int, mult_max: int):
    """Run the oracle sweep re-deriving every rays/facets equivalence."""
    from . import verification  # only this command loads the oracle

    results = verification.run_sweep(n_max, mult_max)
    failures = 0
    for result in results:
        status = "ok" if result.ok else "FAIL"
        suffix = f"  [{result.detail}]" if result.detail else ""
        click.echo(f"{status:4} {result.name}{suffix}")
        failures += 0 if result.ok else 1
    click.echo(f"{len(results) - failures}/{len(results)} checks passed")
    if failures:
        raise InternalInconsistencyError(f"{failures} oracle checks failed")


@cli.command()
@input_option
@inline_option
@click.option("--len", "length", type=int, required=True,
              help="Number of leading entries to emit.")
def plot(input_path, inline, length):
    """CSV rows `index,approx,exact` for external plotting of a shape."""
    seq = _load_sequence(input_path, inline)
    if length < 1:
        raise ConeInputError("--len must be at least 1")
    if length > MAX_PLOT_LEN:
        raise ConeInputError(
            f"--len must be at most {MAX_PLOT_LEN}, got --len {bounded(str(length))}")
    click.echo("index,approx,exact")
    rows = {}  # each distinct value formatted once: a tail repeats two
    for i, value in enumerate(_tail(seq).prefix(length)):
        if value not in rows:
            try:
                approx = f"{float(value):.12g}"
            except OverflowError:  # past the float range
                approx = "inf" if value > 0 else "-inf"
            rows[value] = f"{approx},{rational_str(value)}"
        click.echo(f"{i},{rows[value]}")


def _cut_echoed(message: str, args) -> str:
    """A click usage message with every command-line value longer than 40
    characters (a whole argument, or what follows "=" in one) cut the way
    `quoted` cuts it; click echoes a value either as its repr or bare."""
    for arg in args:
        for value in (arg, arg.partition("=")[2]):
            if len(value) > 40:
                message = message.replace(repr(value), quoted(value))
                message = message.replace(value, value[:40] + "...")
    return message


def main(argv=None) -> int:
    """Entry point with the documented exit-code mapping."""
    args = sys.argv[1:] if argv is None else list(argv)
    try:
        cli.main(args=args, prog_name="betticone", standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.ClickException as exc:
        exc.message = _cut_echoed(exc.message, args)
        exc.show()
        return 1
    except MalformedInputError as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    except NotInConeError as exc:
        try:
            lines = [f"error: {exc}"] + [f"  violated: {name} = {bounded(rational_str(value))}"
                                         for name, value in exc.violations]
        except ConeInputError as wide:  # a violated value past the digit limit
            lines = [f"error: {wide}"]
        for line in lines:
            click.echo(line, err=True)
        return 2
    except ConeInputError as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    except InternalInconsistencyError as exc:
        click.echo(f"internal verification failure: {exc}", err=True)
        return 3
    except click.Abort:
        return 1
    except Exception as exc:
        click.echo(f"internal error: {type(exc).__name__}: {quoted(str(exc))}", err=True)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
