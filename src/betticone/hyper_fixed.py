"""The conjectured shape cone for a hypersurface ring of embedding
dimension n and multiplicity d.

Only one containment is proved: every actual resolution shape lies in
this cone.  A positive membership answer therefore certifies membership
in the *conjectured* cone and does not by itself certify realizability;
callers (and the CLI) surface that caveat.  The d -> infinity limit of
these cones is the total hypersurface cone, coordinatewise on rays.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import hyper_total
from .cones import CONES_KEPT, Cone, Decomposition, MembershipReport
from .errors import ConeInputError
from .sequences import Frozen, TailPeriodicSequence

MEMBERSHIP_CAVEAT = ("membership in the conjectured cone; does not certify "
                     "that the shape is realizable")


class FixedConeParams(Frozen):
    """Embedding dimension n >= 2 and multiplicity d >= 2."""

    __slots__ = ("n", "d")
    n: int
    d: int

    def __init__(self, n: int, d: int):
        if n < 2:
            raise ConeInputError(f"embedding dimension must be >= 2, got n={n}")
        if d < 2:
            raise ConeInputError(f"multiplicity must be >= 2, got d={d}")
        super().__init__(n, d)


@lru_cache(maxsize=CONES_KEPT)
def cone(p: FixedConeParams) -> Cone:
    """The conjectured multiplicity-d cone: the total cone cut by
    xi[i,n] >= 0 for 0 <= i <= n, built once per (n, d) and shared (see
    `cones.CONES_KEPT`); it holds the shared total cone as ``within``.

    Its tail rays tau_d[n-2] and tau_d[n-1] hold (d-1)/d and 1/d at n-2.
    d = 2 collapses them, leaving an outright simplicial cone; n = 2
    leaves one redundant tail ray, tau_d[0] = (d-2)/d * rho[-1] +
    tau_d[1], that is set aside.  Otherwise its two triangulations omit
    the same rays as the total cone's (the unique ray relation has the
    same support and signs).
    """
    n, d = p.n, p.d
    corners = (Fraction(d - 1, d),) + ((Fraction(1, d),) if d > 2 else ())
    return Cone(f"the multiplicity-{d} cone", n, tuple((i, n, d) for i in range(n + 1)),
                tail="tau_d", corners=corners, within=hyper_total.cone(n))


def rays(p: FixedConeParams) -> list[tuple]:
    """The extremal rays as coordinate rows on 0..n: `int`s, but a corner is a `Fraction`."""
    return cone(p).projected()


def member(w: TailPeriodicSequence, p: FixedConeParams) -> MembershipReport:
    """Membership in the conjectured multiplicity-d cone: the total-cone
    constraints plus xi[i,n] >= 0 for 0 <= i <= n."""
    return cone(p).member(w)


def decompose(w: TailPeriodicSequence, p: FixedConeParams,
              which: str | int = "omit_odd") -> Decomposition:
    """Nonnegative ray certificate with exact reconstruction."""
    return cone(p).decompose(w, which)
