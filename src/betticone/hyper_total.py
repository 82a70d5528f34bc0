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

from . import regular
from .cones import Cone, Decomposition, MembershipReport, Triangulation
from .errors import ConeInputError, InternalInconsistencyError
from .sequences import BettiVector, TailPeriodicSequence, embed


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


def cone(n: int) -> Cone:
    """The total hypersurface cone: nonnegative chi[i,j] for j - i even
    and j <= n (one open span per start i) and chi[n-1,n], flat from
    index n on.

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

    The tau coefficients of the ray certificate pull back through the
    transform to the last two rays of the n-dimensional regular cone (the
    transform sends rho_i to tau_inf[i]); the finite coefficients combine
    the rays of the (n-1)-dimensional one into the second part.
    Returns (v1 of length n+1, v2 of length n); the reconstruction
    phi(v1) + embed(v2) = w is verified exactly.
    """
    c = decompose(w, n, "omit_odd").coefficients
    v1 = regular.cone(n).combine((0,) * (n - 1) + c[n:])
    v2 = regular.cone(n - 1).combine(c[:n])
    if phi(v1) + embed(v2) != w:
        raise InternalInconsistencyError("split failed exact reconstruction")
    return v1, v2
