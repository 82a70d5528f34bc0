"""Numerics of pure resolutions: the closed-form shape vector attached to
a strictly increasing degree sequence, its defining linear equations, and
the degree families whose normalized shapes converge to the two-term rays.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from .errors import ConeInputError, bounded, quoted
from .sequences import BettiVector, Frozen, described

# limit_gap is O(n^2) in big integers (about 40 ms at n = 400 and t = 2,
# 1.5 s at n = 1600), so its ambient length is capped.  Its exact answer
# grows with the digits of t: at n = 400 and t = LIMIT_MAX_T the worst j
# (j = 0) takes 0.35-0.55 s end to end and prints a numerator of 3,884
# digits, and from t = 10**11 on the numerator passes the interpreter's
# 4,300-digit int-string limit.
LIMIT_MAX_N = 400
LIMIT_MAX_T = 10**9

# herzog_kuhl multiplies s differences of degrees per entry, so its cost
# grows with their digits: `hk --n 479` on 480 degrees of about 250 digits
# runs for over a minute before its answer is refused as unprintable.  The
# CLI accepts |degree| <= HK_MAX_DEGREE; at n = 500 the worst degrees
# measured (501 drawn at random over +-10**12) take 0.3-0.5 s end to end,
# and 0.55-1.0 s with --normalize-at 0, on a shared 2-vCPU VM, before the
# answer is refused as unprintable (exit 2).
HK_MAX_DEGREE = 10**12


class DegreeSequence(Frozen):
    """Strictly increasing integers (d_0, ..., d_s)."""

    __slots__ = ("degrees",)
    degrees: tuple[int, ...]

    def __init__(self, degrees: tuple[int, ...]):
        degrees = tuple(int(d) for d in degrees)
        if not degrees:
            raise ConeInputError("degree sequence must be nonempty")
        if any(a >= b for a, b in zip(degrees, degrees[1:])):
            raise ConeInputError(
                f"degree sequence must be strictly increasing, got {quoted(degrees)}")
        super().__init__(degrees)

    @property
    def s(self) -> int:
        return len(self.degrees) - 1


def herzog_kuhl(d: DegreeSequence, n: int) -> BettiVector:
    """Shape of the pure resolution with degree sequence d, zero-padded to
    length n+1: entry i (for i <= s) is 1 / prod_{j != i} |d_j - d_i|."""
    if d.s > n:
        raise ConeInputError(
            f"degree sequence length {d.s + 1} exceeds ambient n+1={n + 1}")
    degs = d.degrees
    entries = [
        Fraction(1, prod(abs(dj - degs[i]) for j, dj in enumerate(degs) if j != i))
        for i in range(d.s + 1)
    ]
    entries += [Fraction(0)] * (n - d.s)
    return BettiVector(n, tuple(entries))


def degree_family(j: int, t: int, n: int) -> DegreeSequence:
    """The degree sequence d^{j,t}: d_k = k*t for k <= j, (k-1)*t + 1 for
    k > j; length n+1.  Requires t >= 2 so the entries stay strictly
    increasing."""
    if not 0 <= j <= n - 1:
        raise ConeInputError(f"family index j={j} out of range for n={n}")
    if t < 2:
        raise ConeInputError(f"family parameter must satisfy t >= 2, got t={t}")
    return DegreeSequence(tuple(k * t if k <= j else (k - 1) * t + 1
                                for k in range(n + 1)))


def normalize_at(v: BettiVector, j: int) -> BettiVector:
    """Scale the finite v so entry j becomes 1."""
    if not isinstance(v, BettiVector):
        raise ConeInputError(f"normalizing needs a finite sequence, got {described(v)}")
    if not 0 <= j <= v.n:
        raise ConeInputError(f"pivot index {j} out of range")
    if v[j] == 0:
        raise ConeInputError(f"cannot normalize at a zero entry (index {j})")
    return BettiVector(v.n, tuple(e / v[j] for e in v.entries))


def limit_gap(j: int, t: int, n: int) -> Fraction:
    """Max-norm distance between the j-normalized pure shape for d^{j,t}
    and its limit ray epsilon_j + epsilon_{j+1}; n is at most LIMIT_MAX_N
    and t at most LIMIT_MAX_T."""
    if n > LIMIT_MAX_N:
        raise ConeInputError(f"limit needs n <= {LIMIT_MAX_N}, got n={bounded(str(n))}")
    if t > LIMIT_MAX_T:
        raise ConeInputError(f"limit needs t <= {LIMIT_MAX_T}, got t={bounded(str(t))}")
    v = normalize_at(herzog_kuhl(degree_family(j, t, n), n), j)
    # entry k of the limit ray is 1 at k = j and k = j + 1, else 0
    return max(abs(x - (j <= k <= j + 1)) for k, x in enumerate(v.entries))
