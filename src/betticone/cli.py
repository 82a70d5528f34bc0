"""Command-line front end.

All commands read and write the package's JSON sequence schema (rationals
are strings, never JSON numbers, so nothing is ever rounded):

    {"kind": "finite", "n": 3, "entries": ["1", "3", "3", "1"]}
    {"kind": "tail", "stab": 2, "head": ["1", "3"],
     "tail_even": "4", "tail_odd": "4"}

Exit codes: 0 success, 1 malformed input or usage error, 2 precondition
violation (e.g. a vector outside the requested cone, with the violated
functional named), 3 internal verification failure or any other error.

The arguments are parsed by `main` from one option table per command (see
`command`), by the rules and with the usage messages of the `click`
library, as the golden corpus pins them: ``--opt value`` or
``--opt=value``, the next argument is the value even when it starts with
"-", the last of a repeated option wins, and errors come in command-line
order, missing options last.  Modules that only some commands need are
imported by those commands.
"""

from __future__ import annotations

import json
import sys

from . import hyper_total, regular
from .errors import (ConeInputError, InternalInconsistencyError,
                     MalformedInputError, NotInConeError, bounded, quoted)
from .sequences import (BettiVector, TailPeriodicSequence, embed, rational_str,
                        sequence_from_json, sequence_to_json)

PROG = "betticone"


class UsageError(Exception):
    """A command line that does not parse, or a combination of options a
    command refuses; ``command`` is the command's name, None at the top
    level."""

    command: str | None = None


def _echo_json(payload) -> None:
    print(json.dumps(payload))


# The largest --input file read, in bytes.  The largest input the other
# caps accept is a tail sequence at n = MAX_N whose 503 entries are
# fractions of two 4,300-digit parts (the interpreter's limit), about
# 4.3 MB of JSON; the cap leaves room for whitespace.  Only this many
# bytes (plus one) are read, so `--input /dev/zero` is refused at once.
MAX_INPUT_BYTES = 8 * 2**20


def _read_input(input_path: str) -> str:
    from pathlib import Path  # only --input reads a file

    try:
        with Path(input_path).open("rb") as file:
            data = file.read(MAX_INPUT_BYTES + 1)
    except OSError as exc:
        # strerror, not str(exc): that repeats the path in full
        raise MalformedInputError(f"cannot read {quoted(input_path)}: {exc.strerror}") from exc
    if len(data) > MAX_INPUT_BYTES:
        raise ConeInputError(
            f"--input must be at most {MAX_INPUT_BYTES} bytes, got more in {quoted(input_path)}")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedInputError(
            f"cannot read {quoted(input_path)}: not UTF-8 ({exc.reason})") from exc
    return text.replace("\r\n", "\n").replace("\r", "\n")  # newlines as text mode reads them


def _load_sequence(input_path: str | None, inline: str | None):
    if (input_path is None) == (inline is None):
        raise UsageError("exactly one of --input and --inline is required")
    text = _read_input(input_path) if input_path is not None else inline
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
    are checked against MAX_N, and a tail input's canonical "stab" against
    MAX_N + 1 (a finite input's once embedded), before the cone is built:
    membership scans flatness up to the stab."""
    _capped(n)
    seq = _load_sequence(input_path, inline)
    if isinstance(seq, BettiVector) and seq.n > MAX_N:
        raise ConeInputError(f"n must be at most {MAX_N}, got a sequence with n={seq.n}")
    if isinstance(seq, TailPeriodicSequence) and seq.stab > MAX_N + 1:
        raise ConeInputError(
            f"stab must be at most {MAX_N + 1}, got a sequence with stab={seq.stab}")
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


# A command's options: (name, kind, required, default, help), where kind
# is int, str or a tuple of the accepted strings.  The command's function
# takes the options' values positionally, in table order.
COMMANDS: dict = {}


def command(*options):
    """Register the decorated function as the command of its name, with
    the option table ``options``; its docstring is its help text."""
    def register(function):
        COMMANDS[function.__name__] = (function, options)
        return function
    return register


INPUT = ("--input", str, False, None, "Path of a JSON sequence file.")
INLINE = ("--inline", str, False, None, "Inline JSON sequence.")
N = ("--n", int, True, None, "Ambient homological length.")
MULT = ("--mult", int, False, None, "Multiplicity d (required for --cone fixed).")


@command(("--degrees", str, True, None,
          "Comma-separated strictly increasing integers, e.g. 0,1,3."),
         N,
         ("--normalize-at", int, False, None, "Scale the result so this entry becomes 1."))
def hk(degrees: str, n: int, normalize_at: int | None):
    """Shape vector of the pure resolution for a degree sequence."""
    from . import pure

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


@command(("--j", int, True, None, "Which two-term ray to approach."),
         ("--t", int, True, None, "Family parameter (>= 2)."),
         ("--n", int, True, None, "Ambient homological length (at most 400)."))
def limit(j: int, t: int, n: int):
    """Exact max-norm gap between the normalized pure shape and its limit ray."""
    from . import pure

    print(rational_str(pure.limit_gap(j, t, n)))


@command(INPUT, INLINE,
         ("--n", int, False, None, "Optional check that the input has this ambient length."))
def phi(input_path, inline, n):
    """Even/odd prefix-sum transform of a finite sequence."""
    v = _load_sequence(input_path, inline)
    image = hyper_total.phi(v)  # refuses a tail-periodic input first
    if n is not None and v.n != n:
        raise ConeInputError(f"sequence has n={v.n}, but --n {n} was given")
    _echo_json(sequence_to_json(image))


def _fixed(seq, n, mult):
    if mult is None:
        raise UsageError("--cone fixed requires --mult")
    from . import hyper_fixed  # only --cone fixed builds the multiplicity-d cone

    return (hyper_fixed.cone(hyper_fixed.FixedConeParams(n, mult)), _tail(seq),
            {"multiplicity": mult}, {"caveat": hyper_fixed.MEMBERSHIP_CAVEAT})


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
CONE = ("--cone", tuple(_CONES), True, None, "")


@command(INPUT, INLINE, CONE, N, MULT)
def member(input_path, inline, cone, n, mult):
    """Cone membership with the violated constraints named."""
    described, point, before, after = _CONES[cone](_load_capped(input_path, inline, n), n, mult)
    violations = described.violations(point)
    _echo_json({"cone": cone, "n": n, **before, "member": not violations,
                "violations": _violations_json(violations), **after})


@command(INPUT, INLINE, CONE, N, MULT,
         ("--triangulation", ("1", "2"), False, "1",
          "1 = omit_odd, 2 = omit_even (total/fixed cones, n >= 3)."))
def decompose(input_path, inline, cone, n, mult, triangulation):
    """Nonnegative ray-coefficient certificate for a member vector."""
    described, point, before, after = _CONES[cone](_load_capped(input_path, inline, n), n, mult)
    _echo_json({"cone": cone, "n": n, **before,
                **_certificate(described, point, int(triangulation)), **after})


@command(INPUT, INLINE, N)
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


@command(INPUT, INLINE, N)
def split(input_path, inline, n):
    """Write a total-cone member as transform image plus finite part."""
    w = _tail(_load_capped(input_path, inline, n))
    v1, v2 = hyper_total.split(w, n)
    _echo_json({"n": n, "v1": sequence_to_json(v1), "v2": sequence_to_json(v2)})


@command(("--n-max", int, False, 8, "Largest n the sweep checks."),
         ("--mult-max", int, False, 6, "Largest multiplicity the sweep checks."))
def verify(n_max: int, mult_max: int):
    """Run the oracle sweep re-deriving every rays/facets equivalence."""
    from . import verification  # only this command loads the oracle

    results = verification.run_sweep(n_max, mult_max)
    failures = 0
    for result in results:
        status = "ok" if result.ok else "FAIL"
        suffix = f"  [{result.detail}]" if result.detail else ""
        print(f"{status:4} {result.name}{suffix}")
        failures += 0 if result.ok else 1
    print(f"{len(results) - failures}/{len(results)} checks passed")
    if failures:
        raise InternalInconsistencyError(f"{failures} oracle checks failed")


@command(INPUT, INLINE, ("--len", int, True, None, "Number of leading entries to emit."))
def plot(input_path, inline, length):
    """CSV rows `index,approx,exact` for external plotting of a shape."""
    seq = _load_sequence(input_path, inline)
    if length < 1:
        raise ConeInputError("--len must be at least 1")
    if length > MAX_PLOT_LEN:
        raise ConeInputError(
            f"--len must be at most {MAX_PLOT_LEN}, got --len {bounded(str(length))}")
    print("index,approx,exact")
    rows = {}  # each distinct value formatted once: a tail repeats two
    for i, value in enumerate(_tail(seq).prefix(length)):
        if value not in rows:
            try:
                approx = f"{float(value):.12g}"
            except OverflowError:  # past the float range
                approx = "inf" if value > 0 else "-inf"
            rows[value] = f"{approx},{rational_str(value)}"
        print(f"{i},{rows[value]}")


def _shown(value: str) -> str:
    """A command-line value quoted in a usage message: its repr, cut as
    `quoted` cuts it when the value is longer than 40 characters."""
    return quoted(value) if len(value) > 40 else repr(value)


def _no_such(what: str, name: str, known) -> UsageError:
    """The error for an unknown option or command, naming its close
    matches among ``known``."""
    from difflib import get_close_matches  # only this error needs it

    matches = sorted(get_close_matches(name, known))
    listed = ", ".join(map(repr, matches))
    hint = ("" if not matches else f" Did you mean {listed}?" if len(matches) == 1
            else f" (Did you mean one of: {listed}?)")
    return UsageError(f"No such {what} {_shown(name)}.{hint}")


def _option(arg: str, known) -> tuple[str, str | None]:
    """An argument that starts with "-" as (name, the value after "=" or
    None), checked against the long options ``known``, "--help" among
    them."""
    name, eq, value = arg.partition("=")
    if name not in known:
        # a single-dash argument reads as single-letter options, of which
        # there are none: the first letter is named
        raise (_no_such("option", name, known) if arg[:2] == "--"
               else UsageError(f"No such option {_shown(arg[:2])}."))
    if name == "--help" and eq:
        raise UsageError("Option '--help' does not take a value.")
    return name, value if eq else None


def _parse(options, args: list[str]):
    """The values of a command's ``options`` (see `command`) given by
    ``args``, in table order, or None when --help is given."""
    table = {option[0]: option for option in options}
    given, extra, help_asked = {}, [], False
    tokens = iter(args)
    for arg in tokens:
        if arg == "--":
            extra += tokens
        elif arg[:1] != "-" or arg == "-":
            extra.append(arg)
        else:
            name, value = _option(arg, [*table, "--help"])
            if name == "--help":
                help_asked = True
                continue
            if value is None:
                value = next(tokens, None)
                if value is None:
                    raise UsageError(f"Option {name!r} requires an argument.")
            given[name] = value  # the first place, the last value
    if help_asked:
        return None
    values = {}
    for name in [*given, *(name for name in table if name not in given)]:
        _, kind, required, default, _ = table[name]
        if name not in given:
            if required:
                choices = "" if kind in (int, str) else " Choose from:\n\t" + ",\n\t".join(kind)
                raise UsageError(f"Missing option {name!r}.{choices}")
            values[name] = default
            continue
        value = given[name]
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise UsageError(f"Invalid value for {name!r}: "
                                 f"{_shown(value)} is not a valid integer.") from None
        elif kind is not str and value not in kind:
            raise UsageError(f"Invalid value for {name!r}: {_shown(value)} is not one of "
                             f"{', '.join(map(repr, kind))}.")
        values[name] = value
    if extra:
        shown = " ".join(arg if len(arg) <= 40 else arg[:40] + "..." for arg in extra)
        raise UsageError(f"Got unexpected extra argument{'s' if len(extra) > 1 else ''} "
                         f"({shown})")
    return [values[name] for name in table]


def _usage(name: str | None) -> str:
    """The usage line of a command, or of the top level (name None)."""
    return (f"Usage: {PROG} {name} [OPTIONS]" if name
            else f"Usage: {PROG} [OPTIONS] COMMAND [ARGS]...")


def _rows(rows) -> list[str]:
    """(left, right) pairs as help lines, the right column aligned."""
    width = max(len(left) for left, _ in rows)
    return [f"  {left:{width}}  {right}".rstrip() for left, right in rows]


def _help(name: str | None) -> str:
    """The --help text of a command, or of the top level (name None),
    with each docstring on one line."""
    help_row = ("--help", "Show this message and exit.")
    if name is None:
        listed = [(cmd, " ".join(COMMANDS[cmd][0].__doc__.split())) for cmd in sorted(COMMANDS)]
        return "\n".join([_usage(None), "",
                          "  Exact cone computations for shapes of minimal free resolutions.", "",
                          "Options:", *_rows([help_row]), "", "Commands:", *_rows(listed)])
    function, options = COMMANDS[name]
    rows = []
    for option, kind, required, default, text in options:
        shape = "INTEGER" if kind is int else "TEXT" if kind is str else f"[{'|'.join(kind)}]"
        note = "[required]" if required else "" if default is None else f"[default: {default}]"
        rows.append((f"{option} {shape}", "  ".join(part for part in (text, note) if part)))
    return "\n".join([_usage(name), "", f"  {' '.join(function.__doc__.split())}", "",
                      "Options:", *_rows([*rows, help_row])])


def _top_level(args: list[str]) -> int:
    """How many leading arguments are top-level options, each checked:
    the top level's one option is --help."""
    k = 0
    while k < len(args) and args[k][:1] == "-" and args[k] not in ("-", "--"):
        _option(args[k], ["--help"])
        k += 1
    return k


def _run(args: list[str]) -> None:
    """Parse the command line and run its command."""
    if _top_level(args):
        print(_help(None))
        return
    rest = args[1:] if args[:1] == ["--"] else args
    if not rest:
        raise UsageError("Missing command.")
    name = rest[0]
    if name not in COMMANDS:
        # a name after "--" that reads as an option is parsed as one
        if _top_level(rest):
            print(_help(None))
            return
        raise _no_such("command", name, list(COMMANDS))
    function, options = COMMANDS[name]
    try:
        values = _parse(options, rest[1:])
        if values is None:
            print(_help(name))
            return
        function(*values)
    except UsageError as exc:
        exc.command = name
        raise


def main(argv=None) -> int:
    """Entry point with the documented exit-code mapping."""
    args = sys.argv[1:] if argv is None else list(argv)
    try:
        if not args:
            print(_help(None), file=sys.stderr)
            return 1
        _run(args)
    except UsageError as exc:
        hint = f"{PROG} {exc.command}" if exc.command else PROG
        print(f"{_usage(exc.command)}\nTry '{hint} --help' for help.\n\nError: {exc}",
              file=sys.stderr)
        return 1
    except MalformedInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NotInConeError as exc:
        try:
            lines = [f"error: {exc}"] + [f"  violated: {name} = {bounded(rational_str(value))}"
                                         for name, value in exc.violations]
        except ConeInputError as wide:  # a violated value past the digit limit
            lines = [f"error: {wide}"]
        print("\n".join(lines), file=sys.stderr)
        return 2
    except ConeInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInconsistencyError as exc:
        print(f"internal verification failure: {exc}", file=sys.stderr)
        return 3
    except (EOFError, KeyboardInterrupt):  # an interrupted run: a blank line, exit 1
        print(file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {quoted(str(exc))}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
