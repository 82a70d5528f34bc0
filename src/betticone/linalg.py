"""The exact vector helpers of the double-description oracle and of the
checks that `verify` runs with it.

`dot` is the inner product, which the oracle's double description takes
of its primitive integer rays and facets.  `primitive` scales a rational
vector to its primitive integer form: the oracle's input vectors and
new rays, and `verification`'s compared facet lists.
`scaled_combination` sums a relation over vectors on integers
(`verification`'s ray relation), and `all_nonnegative` evaluates every
facet on every ray from the facet columns at each ray's nonzero
coordinates only (`oracle.cone_equal`'s check that the listed facets
hold on the rays).  Dims are at desk scale (around a dozen).
Membership and certificates never call this module: they use prefix
sums and a banded solve (see `cones`).

Arithmetic is exact.  `dot` keeps the type of its inputs: integer
vectors give an `int`, rational ones a `Fraction`.  The other three
read each rational entry's numerator and denominator pair once and
build no `Fraction`.
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


def _cleared(vec: Sequence[Fraction]) -> Sequence[int]:
    """``vec`` times the least common multiple of its entries'
    denominators: integers, the vector itself when it holds only `int`s."""
    if set(map(type, vec)) == {int}:
        return vec
    pairs = [x.as_integer_ratio() for x in vec]
    mult = lcm(*(b for _, b in pairs))
    return [a * (mult // b) for a, b in pairs]


def primitive(vec: Sequence[Fraction]) -> tuple[int, ...]:
    """Scale a nonzero rational vector by a positive rational to the unique
    integer vector with content gcd 1.  Orientation is preserved."""
    ints = _cleared(vec)
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(ints) if g == 1 else tuple(x // g for x in ints)


def scaled_combination(coeffs: Sequence[Fraction],
                       vectors: Sequence[Sequence[Fraction]]) -> list[int]:
    """The sum of coeffs[k] times vectors[k], each coordinate times a
    positive integer: integers with the signs of the exact coordinates.
    The coefficients are cleared of denominators once, and each
    coordinate once over all the vectors; clearing vector by vector would
    sum another combination."""
    if len(coeffs) != len(vectors):
        raise ValueError(f"{len(coeffs)} coefficients for {len(vectors)} vectors")
    ints = _cleared(coeffs)
    return [sum(map(mul, ints, _cleared(column))) for column in zip(*vectors)]


def all_nonnegative(facets: Sequence[Sequence[int]], rays: Sequence[Sequence[int]]) -> bool:
    """Whether dot(f, r) >= 0 for every facet f and ray r, all of one
    length.  A ray's values on all the facets are the sum of the facet
    columns at its nonzero coordinates, each column times that
    coordinate, so a sparse ray costs a few column additions."""
    columns = list(zip(*facets))
    if not columns:
        return True
    for r in rays:
        terms = [columns[j] if x == 1 else [x * v for v in columns[j]]
                 for j, x in enumerate(r) if x]
        if min(map(sum, zip(*terms)), default=0) < 0:
            return False
    return True
