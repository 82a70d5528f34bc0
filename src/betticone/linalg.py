"""The two exact vector helpers the double-description oracle runs on.

`dot` is the inner product and `primitive` scales a rational vector to
its primitive integer form.  Their callers are `oracle` (on its
primitive integer rays and facets) and `verification` (the relation's
sum, and facet lists compared), at desk scale (dims around a dozen).
Membership and certificates never call this module: they use prefix
sums and a banded solve (see `cones`).

Arithmetic is exact.  `dot` keeps the type of its inputs: integer
vectors give an `int`, rational ones a `Fraction`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Sequence


def dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    """Inner product of two equal-length vectors.  The sum starts at the
    integer 0, so integer vectors stay in `int` arithmetic."""
    if len(a) != len(b):
        raise ValueError(f"dot of vectors of lengths {len(a)} and {len(b)}")
    return sum(map(mul, a, b))


def primitive(vec: Sequence[Fraction]) -> tuple[int, ...]:
    """Scale a nonzero rational vector by a positive rational to the unique
    integer vector with content gcd 1.  Orientation is preserved."""
    if all(type(x) is int for x in vec):
        ints = vec
    else:
        fracs = [x if type(x) is Fraction else Fraction(x) for x in vec]
        mult = lcm(*(f.denominator for f in fracs))
        ints = [f.numerator * (mult // f.denominator) for f in fracs]
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in ints)
