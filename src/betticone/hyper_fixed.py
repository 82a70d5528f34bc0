"""The conjectured shape cone for a hypersurface ring of embedding
dimension n and multiplicity d.

Only one containment is proved: every actual resolution shape lies in
this cone.  A positive membership answer therefore certifies membership
in the *conjectured* cone and does not by itself certify realizability;
callers (and the CLI) surface that caveat.  The d -> infinity limit of
these cones is the total hypersurface cone, coordinatewise on rays.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import hyper_total
from .cones import Cone, Decomposition, MembershipReport
from .errors import ConeInputError
from .sequences import TailPeriodicSequence

MEMBERSHIP_CAVEAT = ("membership in the conjectured cone; does not certify "
                     "that the shape is realizable")


@dataclass(frozen=True)
class FixedConeParams:
    n: int
    d: int

    def __post_init__(self):
        if self.n < 2:
            raise ConeInputError(f"embedding dimension must be >= 2, got n={self.n}")
        if self.d < 2:
            raise ConeInputError(f"multiplicity must be >= 2, got d={self.d}")


def cone(p: FixedConeParams) -> Cone:
    """The conjectured multiplicity-d cone: the total cone cut by
    xi[i,n] >= 0 for 0 <= i <= n.

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


def rays(p: FixedConeParams) -> list[TailPeriodicSequence]:
    return list(cone(p).rays)


def ray_names(p: FixedConeParams) -> list[str]:
    return list(cone(p).names)


def member(w: TailPeriodicSequence, p: FixedConeParams) -> MembershipReport:
    """Membership in the conjectured multiplicity-d cone: the total-cone
    constraints plus xi[i,n] >= 0 for 0 <= i <= n."""
    return cone(p).member(w)


def decompose(w: TailPeriodicSequence, p: FixedConeParams,
              which: str | int = "omit_odd") -> Decomposition:
    """Nonnegative ray certificate with exact reconstruction."""
    return cone(p).decompose(w, which)


@dataclass(frozen=True)
class RayContainment:
    name: str
    in_total: bool
    total_violations: tuple[tuple[str, Fraction], ...]
    in_larger: Optional[bool] = None
    certificate: Optional[tuple[tuple[str, Fraction], ...]] = None


@dataclass(frozen=True)
class ContainmentReport:
    params: FixedConeParams
    larger: Optional[FixedConeParams]
    entries: tuple[RayContainment, ...]

    @property
    def ok(self) -> bool:
        return all(e.in_total and e.in_larger is not False for e in self.entries)


def containment_report(p: FixedConeParams, p2: Optional[FixedConeParams] = None
                       ) -> ContainmentReport:
    """Per-ray certificates that cone(n, d) sits inside the total cone,
    and (when p2 is given, with the same n and d' >= d) inside
    cone(n, d')."""
    if p2 is not None:
        if p2.n != p.n:
            raise ConeInputError("containment comparison needs matching n")
        if p2.d < p.d:
            raise ConeInputError(
                f"containment holds for growing multiplicity; got d'={p2.d} < d={p.d}")
    entries = []
    fixed, total = cone(p), hyper_total.cone(p.n)
    larger = cone(p2) if p2 is not None else None
    for name, r in zip(fixed.names, fixed.rays):
        total_report = total.member(r)
        in_larger = None
        certificate = None
        if larger is not None:
            in_larger = larger.member(r).ok
            if in_larger:
                certificate = tuple(larger.decompose(r).supported())
        entries.append(RayContainment(name, total_report.ok,
                                      total_report.violations,
                                      in_larger, certificate))
    return ContainmentReport(p, p2, tuple(entries))
