"""One description shared by the three cone families, and one driver for
membership and certificates.

A `Cone` names its facet functionals and its extremal rays and builds
each list on first use: membership never builds a ray, and `verification`
projects the same facet list that membership evaluates.  Members of the
two hyperplane families (total and multiplicity-d) are flat from index n
on, so their linear algebra happens on coordinates 0..n and flatness is
checked separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Optional

from . import linalg
from .errors import ConeInputError, InternalInconsistencyError, NotInConeError, quoted
from .sequences import (BettiVector, LinearFunctional, Sequence,
                        TailPeriodicSequence, chi_name)

TRIANGULATION_LABELS = ("omit_odd", "omit_even")


@dataclass(frozen=True)
class MembershipReport:
    """Outcome of a membership check with the violated constraints, as
    (name, value) pairs like ("chi[1,2]", Fraction(-1))."""

    ok: bool
    violations: tuple[tuple[str, Fraction], ...]

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class Triangulation:
    """A set of simplices covering a cone.  Simplices are index tuples
    into the ray list.  For the parity triangulations they are listed by
    ascending omitted-ray position; the label records which parity class
    of rays gets omitted (the ray at position i has index label i-1 for
    the finite rays and tail start n-2 or n-1 for the tau rays; position
    n-1, the last finite ray, sits outside the unique relation and is
    omitted by neither family).  A simplicial cone has the one simplex
    and no omitted positions."""

    label: str
    n: int
    simplices: tuple[tuple[int, ...], ...]
    omitted: tuple[int, ...]


@dataclass(frozen=True)
class Decomposition:
    """Nonnegative ray coefficients supported on one simplex, plus which
    simplex was used.  ``coefficients`` is aligned with the ray list."""

    n: int
    names: tuple[str, ...]
    coefficients: tuple[Fraction, ...]
    simplex_used: tuple[int, ...]
    label: str

    def supported(self) -> list[tuple[str, Fraction]]:
        return [(name, c) for name, c in zip(self.names, self.coefficients) if c != 0]


def _index_label(position: int, n: int) -> int:
    if position <= n - 1:
        return position - 1
    return n - 2 if position == n else n - 1


def parity_triangulation(n: int, label: str) -> Triangulation:
    """One of the two triangulations of a hyperplane-family cone with n+2
    rays: each simplex omits one ray of the label's index parity."""
    parity = 1 if label == "omit_odd" else 0
    omitted = tuple(p for p in range(n + 2)
                    if p != n - 1 and _index_label(p, n) % 2 == parity)
    simplices = tuple(tuple(q for q in range(n + 2) if q != p) for p in omitted)
    return Triangulation(label, n, simplices, omitted)


@dataclass(frozen=True, eq=False)
class Cone:
    """A cone of shapes on coordinates 0..n: named facet functionals, each
    nonnegative on members, and named extremal rays, each list built on
    first use.  ``title`` names the cone in errors; the constraints of the
    enclosing cone ``within`` are checked and reported first; tail cones
    are flat from index ``flat_from`` on; ``core`` is the one simplex of a
    simplicial cone, else certificates use the parity triangulations."""

    title: str
    n: int
    facet_list: Callable[[], Iterable[tuple[str, LinearFunctional]]]
    ray_list: Callable[[], list[tuple[str, Sequence]]]
    within: Optional["Cone"] = None
    flat_from: Optional[int] = None
    core: Optional[tuple[int, ...]] = None

    @cached_property
    def facets(self) -> tuple[tuple[str, LinearFunctional], ...]:
        """Every named facet functional, in the order violations are reported."""
        inherited = self.within.facets if self.within is not None else ()
        return inherited + tuple(self.facet_list())

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self._named_rays)

    @cached_property
    def rays(self) -> tuple[Sequence, ...]:
        return tuple(r for _, r in self._named_rays)

    @cached_property
    def _named_rays(self) -> tuple[tuple[str, Sequence], ...]:
        return tuple(self.ray_list())

    def projected(self) -> list[tuple[Fraction, ...]]:
        """The rays as coordinate vectors on indices 0..n."""
        return [r.entries if isinstance(r, BettiVector) else r.prefix(self.n + 1)
                for r in self.rays]

    def combine(self, coeffs) -> Sequence:
        """The exact sum of ``coeffs[k] * rays[k]`` over this cone's rays, in
        the rays' own sequence type; zero coefficients are skipped."""
        if len(coeffs) != len(self.rays):
            raise ConeInputError(f"{len(coeffs)} coefficients for {len(self.rays)} rays")
        return sum((r.scale(c) for c, r in zip(coeffs, self.rays) if c != 0),
                   self.rays[0].scale(0))

    def violations(self, w: Sequence) -> list[tuple[str, Fraction]]:
        """Violated constraints with their values: the enclosing cone's,
        then this cone's negative facets, then flatness."""
        out = self.within.violations(w) if self.within is not None else []
        # evaluated as built, not read from `facets`: holding all O(n^2)
        # functionals at once measured slower at n = 48
        for name, f in self.facet_list():
            value = f(w)
            if value < 0:
                out.append((name, value))
        if self.flat_from is not None:
            # entry(i) = entry(i+1) for i >= flat_from; scanning up to two
            # indices past the stabilization point decides the whole
            # infinite family because the tail is 2-periodic.
            for i in range(self.flat_from, max(self.flat_from, w.stab) + 2):
                gap = w.entry(i) - w.entry(i + 1)
                if gap != 0:
                    out.append((chi_name(i, i + 1), gap))
        return out

    def member(self, w: Sequence) -> MembershipReport:
        violations = self.violations(w)
        return MembershipReport(not violations, tuple(violations))

    def decompose(self, w: TailPeriodicSequence, which: str | int = "omit_odd"
                  ) -> Decomposition:
        """Nonnegative ray certificate for a member of a tail cone, with
        exact reconstruction.

        The simplices of the chosen triangulation are tried in order
        (ascending omitted-ray position) and the first exact nonnegative
        solve wins, so output is deterministic; points on shared faces get
        the same answer from both triangulations.  ``which`` is 1, 2 or
        one of TRIANGULATION_LABELS.
        """
        if isinstance(which, int):
            if which not in (1, 2):
                raise ConeInputError(f"triangulation choice must be 1 or 2, got {which}")
            which = TRIANGULATION_LABELS[which - 1]
        if which not in TRIANGULATION_LABELS:
            raise ConeInputError(f"unknown triangulation label {quoted(which)}")
        tri = (parity_triangulation(self.n, which) if self.core is None
               else Triangulation("simplicial", self.n, (self.core,), ()))
        violations = self.violations(w)
        if violations:
            name, value = violations[0]
            raise NotInConeError(f"not in {self.title}: {name} = {value}", violations)
        projected = self.projected()
        target = w.prefix(self.n + 1)
        for simplex in tri.simplices:
            sol = linalg.solve_columns([projected[k] for k in simplex], target)
            if sol is not None and all(c >= 0 for c in sol):
                break
        else:
            raise InternalInconsistencyError(
                "member vector admits no nonnegative simplex certificate")
        coeffs = [Fraction(0)] * len(self.rays)
        for k, c in zip(simplex, sol):
            coeffs[k] = c
        if self.combine(coeffs) != w:
            raise InternalInconsistencyError("decomposition failed exact reconstruction")
        return Decomposition(self.n, self.names, tuple(coeffs), simplex, tri.label)
