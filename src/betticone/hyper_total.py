"""The total hypersurface cone for embedding dimension n: the prefix-sum
transform, the cone's `Cone` description (ray basis, facets and the
unique linear relation among the rays), the cone's two triangulations,
certificate-producing decomposition, and the split into a transform image
plus a lower-dimensional finite part.

Every element of this cone is flat from index n on, so all linear algebra
happens on the projection to coordinates 0..n; the flatness constraints
are checked separately.  That projection does not change the face
structure of the cone.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .cones import (CONES_KEPT, Cone, Decomposition, MembershipReport, Triangulation, _fractions,
                    _rebuilds)
from .errors import ConeInputError, InternalInconsistencyError
from .sequences import BettiVector, TailPeriodicSequence


def phi(v: BettiVector) -> TailPeriodicSequence:
    """Even/odd prefix-sum transform: entry ell is the sum of the entries
    of v at indices of the same parity up to ell.

    The image stabilizes by index n+1: the even tail is the sum of the
    even-index entries, the odd tail the sum of the odd-index ones.  The
    two tails agree exactly when the alternating sum chi[0,n](v) is 0.
    A point that is not finite is a `ConeInputError`.
    """
    if not isinstance(v, BettiVector):
        raise ConeInputError("the transform applies to finite sequences")
    head = []
    acc = [Fraction(0), Fraction(0)]  # running even and odd sums
    for i in range(v.n + 1):
        acc[i % 2] += v[i]
        head.append(acc[i % 2])
    return TailPeriodicSequence(v.n + 1, tuple(head), acc[0], acc[1])


@lru_cache(maxsize=CONES_KEPT)
def cone(n: int) -> Cone:
    """The total hypersurface cone: nonnegative chi[i,j] for j - i even
    and j <= n (one open span per start i) and chi[n-1,n], flat from
    index n on.  Built once per n and shared (see `cones.CONES_KEPT`).

    The n+2 generating rays come in the fixed order rho[-1], rho[0], ...,
    rho[n-2], tau_inf[n-2], tau_inf[n-1].  They satisfy exactly one linear
    relation; for n = 2 the ray tau_inf[0] is a combination of the others,
    and the cone is the simplex on rho[-1], rho[0], tau_inf[1].
    """
    if n < 2:
        raise ConeInputError(f"the total hypersurface cone needs n >= 2, got n={n}")
    spans = tuple((i, None, None) for i in range(n + 1)) + ((n - 1, n, None),)
    return Cone("the total hypersurface cone", n, spans,
                tail="tau_inf", corners=(Fraction(1), Fraction(0)))


ray_basis = cone  # the cone's ``names`` and ``projected()`` rows are the ray basis


def facets_check(w: TailPeriodicSequence, n: int) -> MembershipReport:
    """Membership in the total hypersurface cone."""
    return cone(n).member(w)


def triangulations(n: int) -> tuple[Triangulation, Triangulation]:
    """Both triangulations of the total cone; defined for n >= 3 (at n = 2
    the ray list is redundant and the cone is already simplicial)."""
    if n < 3:
        raise ConeInputError(f"triangulations are defined for n >= 3, got n={n}")
    return tuple(map(cone(n).triangulation, (1, 2)))


def decompose(w: TailPeriodicSequence, n: int, which: str | int = "omit_odd"
              ) -> Decomposition:
    """Nonnegative ray certificate for a member of the total cone."""
    return cone(n).decompose(w, which)


def split(w: TailPeriodicSequence, n: int) -> tuple[BettiVector, BettiVector]:
    """Write a member as (transform of a finite alternating-sum-zero
    vector) + (embedded member of the one-smaller finite cone).

    The tau coefficients t0, t1 of the ray certificate (omit_odd) pull back
    through the transform to the last two rays of the n-dimensional
    regular cone (the transform sends rho_i to tau_inf[i]), so v1 is n-2
    zeros, then t0, t0 + t1 and t1; the finite coefficients combine the
    rays of the (n-1)-dimensional one into v2, the adjacent sums of the
    rho coefficients and then the last of them.  Returns (v1 of length
    n+1, v2 of length n).

    Both parts are written as the certificate's integers over its
    denominator q, and `_pulls_back` checks phi(v1) + embed(v2) = w on
    them; only the returned parts become `Fraction`s.
    """
    x, q, _, _, (entries, _, _) = cone(n)._certificate(w, "omit_odd")
    t0, t1 = x[n], x[n + 1]
    v1 = [0] * (n - 2) + [t0, t0 + t1, t1]
    v2 = [a + b for a, b in zip(x, x[1:n])] + [x[n - 1]]
    if not _pulls_back(w, entries, v1, v2, q):
        raise InternalInconsistencyError("split failed exact reconstruction")
    return BettiVector(n, _fractions(v1, q)), BettiVector(n - 1, _fractions(v2, q))


def _pulls_back(w: TailPeriodicSequence, entries, v1: list[int], v2: list[int], q: int) -> bool:
    """Whether phi(v1) + embed(v2) = w for the integers v1 (n+1 of them)
    and v2 (n) over q > 0, w's entries 0..n being ``entries``: the running
    even and odd sums of v1 plus v2 are entries 0..n of w, and the two
    whole sums, phi(v1)'s tails, are w's (see `_rebuilds`)."""
    sums, acc = [], [0, 0]
    for i, (a, b) in enumerate(zip(v1, v2 + [0])):
        acc[i % 2] += a
        sums.append(acc[i % 2] + b)
    return _rebuilds(w, entries, sums, q, acc)
