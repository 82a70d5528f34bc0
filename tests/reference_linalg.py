"""The dense `Fraction` Gauss-Jordan routines the tests use as references.

`rank`, `solve_columns`, `invert` and `nullspace` serve the earlier
`Fraction` double description (`test_oracle_reference`), the simplex
search that certificates used before the circuit walk
(`test_circuit_walk`), the pure shapes' linear-system reference
(`test_pure`) and the relation checks below.  `linear_relation` derives
the total cone's ray relation from the nullspace, independently of the
closed form `Cone.relation` that certificates walk.  Arithmetic is exact:
every routine coerces to `Fraction` and runs plain Gaussian elimination.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from betticone import hyper_total

from reference_sequences import constant_tail

Vector = tuple[Fraction, ...]


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



def linear_relation(n: int) -> Vector:
    """The unique (up to scale) linear relation among the n+2 rays of the
    total cone, from the nullspace of their projections, normalized so the
    tau_inf[n-1] coefficient is +1 and checked to sum to zero exactly."""
    cone = hyper_total.cone(n)
    columns = cone.projected()
    rows = [[columns[k][i] for k in range(n + 2)] for i in range(n + 1)]
    kernel = nullspace(rows)
    assert len(kernel) == 1, f"ray relation space has dimension {len(kernel)}"
    last = kernel[0][n + 1]
    assert last != 0, "relation does not involve tau_inf[n-1]"
    coeffs = tuple(c / last for c in kernel[0])
    assert cone.combine(coeffs) == constant_tail((), 0), "ray relation failed exact verification"
    return coeffs
