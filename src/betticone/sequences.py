"""Finite and tail-periodic rational sequences, exact rational parsing
and printing, and the JSON codec.

Two ambient spaces appear throughout: finite vectors of length n+1
(`BettiVector`, resolutions over a regular ring of dimension n) and
infinite sequences whose entries are eventually 2-periodic
(`TailPeriodicSequence`, resolutions over a hypersurface ring, and every
image of the prefix-sum transform).  All entries are exact rationals; no
floating point enters anywhere.  Both are `Frozen`, the small base that
every value type of the package builds on in place of `dataclasses`,
which costs the command line several milliseconds to import.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import Iterable, Union

from .errors import ConeInputError, MalformedInputError, quoted

RationalLike = Union[Fraction, int, str]

# [0-9], not \d: \d also matches non-ASCII digits such as "１".
_RATIONAL_RE = re.compile(r"^[+-]?[0-9]+(/[0-9]+)?$")


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce ints, Fractions, and "p/q" strings; floats are rejected."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if not _RATIONAL_RE.match(text):
            raise MalformedInputError(f"not a rational string: {quoted(value)}")
        num, _, den = text.partition("/")
        try:
            # an integer needs no gcd, so it is built without a denominator
            return Fraction(int(num), int(den)) if den else Fraction(int(num))
        except ZeroDivisionError:
            raise MalformedInputError(f"zero denominator in {quoted(value)}") from None
        except ValueError:
            # int() refuses strings longer than sys.get_int_max_str_digits()
            raise MalformedInputError(
                f"rational string of {len(text)} characters has too many digits") from None
    raise MalformedInputError(f"not a rational: {quoted(value)}")


def rational_str(value: Fraction) -> str:
    """Serialize exactly: "p/q", or a bare integer string when q = 1.  Every
    exact value the package prints passes here, so a part past the
    interpreter's int-to-str digit limit is a `ConeInputError` naming the
    value's bit length."""
    try:
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    except ValueError:
        num, den = value.numerator.bit_length(), value.denominator.bit_length()
        size = (f"{num} bits" if value.denominator == 1
                else f"{num}/{den} bits (numerator/denominator)")
        raise ConeInputError(
            f"exact value of {size} exceeds the interpreter's "
            f"{sys.get_int_max_str_digits()}-digit limit for printing integers") from None


_set = object.__setattr__  # how a constructor writes a field of a `Frozen` value


class Frozen:
    """Base of the package's immutable value types.  The fields are the
    names in ``__slots__`` that do not start with "_", in constructor
    order; a private slot holds what a constructor derives from them.  A
    type whose constructor only stores its fields inherits this one,
    which takes them positionally; a type that checks, normalises or
    defaults its arguments writes each field once through ``_set`` in its
    own constructor.  Any later assignment or deletion is an
    `AttributeError`.  Values of one type are equal when their fields
    are, and hash as the tuple of their fields."""

    __slots__ = ()
    _field_names: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._field_names = tuple(name for name in cls.__slots__ if not name.startswith("_"))

    def __init__(self, *fields):
        names = self._field_names
        if len(fields) != len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} fields "
                            f"({', '.join(names)}), got {len(fields)}")
        for name, value in zip(names, fields):
            _set(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self._field_names)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._field_names)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild through the constructor
        return self.__class__, self._fields()


class BettiVector(Frozen):
    """A finite shape vector (v_0, ..., v_n) in Q^{n+1}."""

    __slots__ = ("n", "entries")
    n: int
    entries: tuple[Fraction, ...]

    def __init__(self, n: int, entries: Iterable[RationalLike]):
        if n < 0:
            raise ConeInputError(f"ambient length must be nonnegative, got n={n}")
        entries = tuple(as_fraction(e) for e in entries)
        if len(entries) != n + 1:
            raise ConeInputError(f"expected {n + 1} entries for n={n}, got {len(entries)}")
        _set(self, "n", n)
        _set(self, "entries", entries)

    @classmethod
    def of(cls, entries: Iterable[RationalLike]) -> "BettiVector":
        """The vector of the given entries, each coerced once, by the
        constructor."""
        items = tuple(entries)
        if not items:
            raise ConeInputError("a shape vector needs at least one entry")
        return cls(len(items) - 1, items)

    def __getitem__(self, i: int) -> Fraction:
        return self.entries[i]


class TailPeriodicSequence(Frozen):
    """An infinite sequence whose entries, from index ``stab`` on, depend
    only on index parity: ``tail_even`` at even indices, ``tail_odd`` at
    odd ones.

    The stored form is canonical: ``stab`` is minimal, i.e. no trailing
    head entry already agrees with the tail value for its parity.  This
    makes equality structural and the type hashable.
    """

    __slots__ = ("stab", "head", "tail_even", "tail_odd")
    stab: int
    head: tuple[Fraction, ...]
    tail_even: Fraction
    tail_odd: Fraction

    def __init__(self, stab: int, head: Iterable[RationalLike], tail_even: RationalLike,
                 tail_odd: RationalLike):
        if stab < 0:
            raise ConeInputError("stabilization index must be nonnegative")
        head = tuple(as_fraction(e) for e in head)
        if len(head) != stab:
            raise ConeInputError(f"head length {len(head)} does not match stab={stab}")
        te = as_fraction(tail_even)
        to = as_fraction(tail_odd)
        # Trim head entries that the periodic tail already reproduces.
        while stab > 0:
            tail_value = te if (stab - 1) % 2 == 0 else to
            if head[stab - 1] != tail_value:
                break
            stab -= 1
        _set(self, "stab", stab)
        _set(self, "head", head[:stab])
        _set(self, "tail_even", te)
        _set(self, "tail_odd", to)

    def entry(self, i: int) -> Fraction:
        if i < 0:
            raise ConeInputError(f"sequence index must be nonnegative, got {i}")
        if i < self.stab:
            return self.head[i]
        return self.tail_even if i % 2 == 0 else self.tail_odd

    def prefix(self, length: int) -> tuple[Fraction, ...]:
        return tuple(self.entry(i) for i in range(length))


Sequence = Union[BettiVector, TailPeriodicSequence]


def described(value) -> str:
    """How an error names a point it refuses: its space, with n when it is
    finite, or its quoted value when it is no sequence."""
    if isinstance(value, BettiVector):
        return f"a finite sequence with n={value.n}"
    return "a tail-periodic sequence" if isinstance(value, TailPeriodicSequence) else quoted(value)


def embed(v: BettiVector) -> TailPeriodicSequence:
    """View a finite vector inside the tail-periodic space (zero tail)."""
    return TailPeriodicSequence(v.n + 1, v.entries, Fraction(0), Fraction(0))


# ---------------------------------------------------------------------------
# JSON schema shared by all CLI commands.
#
# finite:        {"kind": "finite", "n": 3, "entries": ["1","3","3","1"]}
# tail-periodic: {"kind": "tail", "stab": 2, "head": ["1","3"],
#                 "tail_even": "4", "tail_odd": "4"}
# ---------------------------------------------------------------------------

def sequence_to_json(seq: Sequence) -> dict:
    if isinstance(seq, BettiVector):
        return {"kind": "finite", "n": seq.n,
                "entries": [rational_str(e) for e in seq.entries]}
    return {"kind": "tail", "stab": seq.stab,
            "head": [rational_str(e) for e in seq.head],
            "tail_even": rational_str(seq.tail_even),
            "tail_odd": rational_str(seq.tail_odd)}


def sequence_from_json(data) -> Sequence:
    if not isinstance(data, dict):
        raise MalformedInputError("sequence JSON must be an object")
    kind = data.get("kind")
    for key in ("n", "stab"):
        # `type(...) is int`: bool is an int subclass, so `true` would read as 1
        if key in data and type(data[key]) is not int:
            raise MalformedInputError(f'"{key}" must be an integer, got {quoted(data[key])}')
    try:
        if kind == "finite":
            entries = data["entries"]
            if not isinstance(entries, list):
                raise MalformedInputError('"entries" must be a list of rational strings')
            vec = BettiVector.of(entries)
            if "n" in data and data["n"] != vec.n:
                raise MalformedInputError(
                    f'"n"={quoted(data["n"])} does not match {len(entries)} entries')
            return vec
        if kind == "tail":
            head = data["head"]
            if not isinstance(head, list):
                raise MalformedInputError('"head" must be a list of rational strings')
            # the constructor coerces every entry through as_fraction
            seq = TailPeriodicSequence(len(head), tuple(head), data["tail_even"],
                                       data["tail_odd"])
            if "stab" in data and data["stab"] != len(head):
                raise MalformedInputError(
                    f'"stab"={quoted(data["stab"])} does not match head length {len(head)}')
            return seq
    except KeyError as exc:
        raise MalformedInputError(f"sequence JSON is missing field {exc}") from exc
    except ConeInputError as exc:
        raise MalformedInputError(str(exc)) from exc
    raise MalformedInputError(f'unknown sequence kind: {quoted(kind)}')
