"""Small exact linear algebra kernel.

Matrices are lists of row lists.  The package's callers are the
double-description oracle (`dot` and `primitive`, on its primitive
integer rays and facets), `verification` (`primitive`, to compare facet
lists) and `hyper_total.linear_relation` (`nullspace`, the relation that
`verify` compares with the closed form), all at desk scale (dims around
a dozen).  `rank`, `solve_columns` and `invert` serve the tests'
`Fraction` references (the earlier oracle and simplex search).

Arithmetic is exact.  `dot` keeps the type of its inputs: integer
vectors give an `int`, rational ones a `Fraction`.  The elimination
routines coerce to `Fraction` and run plain Gaussian elimination.
Membership and certificates never call this module: they use prefix
sums and a banded solve (see `cones`).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Sequence

Vector = tuple[Fraction, ...]


def dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    """Inner product of two equal-length vectors.  The sum starts at the
    integer 0, so integer vectors stay in `int` arithmetic."""
    if len(a) != len(b):
        raise ValueError(f"dot of vectors of lengths {len(a)} and {len(b)}")
    return sum(map(mul, a, b))


def _echelon(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    # Row-reduce a Fraction copy; returns (matrix, pivot column list).
    # Coercion here keeps int inputs exact (int/int would drop to float).
    m = [[Fraction(x) for x in r] for r in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return m, pivots


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    if not rows:
        return 0
    _, pivots = _echelon([list(r) for r in rows])
    return len(pivots)


def solve_columns(columns: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]):
    """Solve sum_j c_j * columns[j] = rhs exactly.

    Returns the coefficient tuple, or None when the system is inconsistent.
    Requires the columns to be linearly independent.
    """
    n_rows = len(rhs)
    n_cols = len(columns)
    aug = [[Fraction(columns[j][i]) for j in range(n_cols)] + [Fraction(rhs[i])]
           for i in range(n_rows)]
    m, pivots = _echelon(aug)
    if n_cols in pivots:
        return None  # pivot in the augmented column: inconsistent
    if len(pivots) != n_cols:
        raise ValueError("columns are linearly dependent")
    sol = [Fraction(0)] * n_cols
    for row, c in enumerate(pivots):
        sol[c] = m[row][n_cols]
    return tuple(sol)


def invert(rows: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Inverse of a square matrix; raises ValueError if singular."""
    n = len(rows)
    aug = [list(map(Fraction, rows[i])) + [Fraction(int(i == j)) for j in range(n)]
           for i in range(n)]
    m, pivots = _echelon(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [m[i][n:] for i in range(n)]


def nullspace(rows: Sequence[Sequence[Fraction]]) -> list[Vector]:
    """Basis of the right nullspace {x : rows @ x = 0}."""
    if not rows:
        return []
    n_cols = len(rows[0])
    m, pivots = _echelon([list(map(Fraction, r)) for r in rows])
    free = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * n_cols
        vec[f] = Fraction(1)
        for row, c in enumerate(pivots):
            vec[c] = -m[row][f]
        basis.append(tuple(vec))
    return basis


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
