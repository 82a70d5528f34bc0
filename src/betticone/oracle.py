"""Independent brute-force polyhedral engine over exact rationals.

Everything else in the package describes specific cones through closed
formulas; this module re-derives ray/facet presentations from scratch so
those formulas can be cross-checked.  The only dependencies are the tiny
Gaussian-elimination kernel and `fractions.Fraction`, so a bug elsewhere
cannot leak in here.

The core primitive is extreme-ray enumeration for a pointed cone given by
halfspaces, via the classical double description method with the
combinatorial adjacency test.  Facet enumeration is the same computation
run on the dual cone.  Desk scale only: ambient dimension is capped.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from . import linalg
from .errors import ConeInputError
from .linalg import dot, primitive

MAX_DIM = 12
COVERAGE_SAMPLES = 40  # random ray combinations `validate_triangulation` tests
COVERAGE_SEED = 20240817

IntVector = tuple[int, ...]


@dataclass(frozen=True)
class ConeDescription:
    """A pointed polyhedral cone, by generators and/or inequalities.

    ``rays`` generate the cone; ``facets`` are inward normals (the cone is
    where all of them are nonnegative).  At least one presentation must be
    given.  Both are stored exactly as supplied; the conversion functions
    return canonical primitive-integer, lexicographically sorted lists.
    """

    dim: int
    rays: Optional[tuple[tuple[Fraction, ...], ...]] = None
    facets: Optional[tuple[tuple[Fraction, ...], ...]] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ConeInputError("ambient dimension must be positive")
        if self.dim > MAX_DIM:
            raise ConeInputError(
                f"ambient dimension {self.dim} exceeds the desk-scale cap {MAX_DIM}")
        if self.rays is None and self.facets is None:
            raise ConeInputError("a cone needs rays or facets")
        for name in ("rays", "facets"):
            vecs = getattr(self, name)
            if vecs is None:
                continue
            vecs = tuple(tuple(Fraction(x) for x in v) for v in vecs)
            if any(len(v) != self.dim for v in vecs):
                raise ConeInputError(f"every {name[:-1]} must have length {self.dim}")
            object.__setattr__(self, name, vecs)


def _canonical(vectors) -> list[IntVector]:
    seen = []
    for v in vectors:
        if all(x == 0 for x in v):
            continue
        p = primitive(v)
        if p not in seen:
            seen.append(p)
    return seen


def _extreme_rays_from_halfspaces(halfspaces: Sequence[IntVector], dim: int
                                  ) -> list[IntVector]:
    """Extreme rays of {x : h.x >= 0 for all h}; the cone must be pointed,
    i.e. the halfspace normals have full rank."""
    hs = _canonical(halfspaces)
    # Initial simplicial cone from a maximal independent subset.
    chosen: list[IntVector] = []
    chosen_idx: list[int] = []
    for idx, h in enumerate(hs):
        if linalg.rank(chosen + [h]) > len(chosen):
            chosen.append(h)
            chosen_idx.append(idx)
            if len(chosen) == dim:
                break
    if len(chosen) < dim:
        raise ConeInputError(
            "halfspace normals do not span the ambient space (cone is not pointed)")
    inv = linalg.invert([list(map(Fraction, h)) for h in chosen])
    rays = [primitive([inv[r][c] for r in range(dim)]) for c in range(dim)]
    processed = list(chosen_idx)

    for idx in range(len(hs)):
        if idx in chosen_idx:
            continue
        f = hs[idx]
        vals = {r: dot(f, r) for r in rays}
        neg = [r for r in rays if vals[r] < 0]
        if neg:
            pos = [r for r in rays if vals[r] > 0]
            zero = [r for r in rays if vals[r] == 0]
            tight = {r: frozenset(i for i in processed if dot(hs[i], r) == 0)
                     for r in rays}
            new: list[IntVector] = []
            for p in pos:
                for q in neg:
                    common = tight[p] & tight[q]
                    adjacent = not any(r != p and r != q and common <= tight[r]
                                       for r in rays)
                    if not adjacent:
                        continue
                    combo = tuple(vals[p] * qc - vals[q] * pc
                                  for pc, qc in zip(p, q))
                    cand = primitive(combo)
                    if cand not in new:
                        new.append(cand)
            rays = pos + zero + new
        processed.append(idx)
    return sorted(rays)


def rays_to_facets(cone: ConeDescription) -> ConeDescription:
    """Irredundant facet normals of a full-dimensional cone given by rays.

    Facets of the cone are exactly the extreme rays of its dual, so this
    is double description run on {y : r.y >= 0 for every generator r}.
    """
    if cone.rays is None:
        raise ConeInputError("rays_to_facets needs a ray presentation")
    gens = _canonical(cone.rays)
    if linalg.rank([list(map(Fraction, g)) for g in gens]) < cone.dim:
        raise ConeInputError(
            "cone is not full-dimensional; facet conversion is unsupported")
    facets = _extreme_rays_from_halfspaces(gens, cone.dim)
    return ConeDescription(cone.dim, rays=cone.rays,
                           facets=tuple(tuple(Fraction(x) for x in f) for f in facets))


def facets_to_rays(cone: ConeDescription) -> ConeDescription:
    """Irredundant extreme rays of a pointed cone given by facet normals."""
    if cone.facets is None:
        raise ConeInputError("facets_to_rays needs a facet presentation")
    rays = _extreme_rays_from_halfspaces(_canonical(cone.facets), cone.dim)
    return ConeDescription(cone.dim, facets=cone.facets,
                           rays=tuple(tuple(Fraction(x) for x in r) for r in rays))


def canonical_rays(cone: ConeDescription) -> list[IntVector]:
    """Extremal rays in primitive-integer form, computed via the double
    dual when only a (possibly redundant) generator list is available."""
    facets = cone.facets if cone.facets is not None else rays_to_facets(cone).facets
    return _extreme_rays_from_halfspaces(_canonical(facets), cone.dim)


def canonical_facets(cone: ConeDescription) -> list[IntVector]:
    rays = cone.rays if cone.rays is not None else facets_to_rays(cone).rays
    return _extreme_rays_from_halfspaces(_canonical(rays), cone.dim)


def _complete(cone: ConeDescription) -> ConeDescription:
    if cone.rays is None:
        return facets_to_rays(cone)
    if cone.facets is None:
        return rays_to_facets(cone)
    return cone


def cone_equal(a: ConeDescription, b: ConeDescription) -> bool:
    """Mutual containment, checked exactly: every ray of each cone must
    satisfy every facet inequality of the other."""
    if a.dim != b.dim:
        raise ConeInputError("cone comparison needs matching ambient dimensions")
    a = _complete(a)
    b = _complete(b)
    return (all(dot(f, r) >= 0 for r in a.rays for f in b.facets)
            and all(dot(f, r) >= 0 for r in b.rays for f in a.facets))


# ---------------------------------------------------------------------------
# Triangulation validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TriangulationProblem:
    kind: str      # "simplex" | "overlap" | "coverage"
    detail: str


@dataclass(frozen=True)
class TriangulationReport:
    valid: bool
    problems: tuple[TriangulationProblem, ...] = field(default=())

    def __bool__(self) -> bool:
        return self.valid

    def kinds(self) -> set[str]:
        return {p.kind for p in self.problems}


def _simplex_membership(inverse, point) -> bool:
    return all(dot(row, point) >= 0 for row in inverse)


def validate_triangulation(cone: ConeDescription, triangulation) -> TriangulationReport:
    """Check that the given simplices triangulate the cone.

    ``triangulation`` is anything with a ``simplices`` attribute (or a bare
    iterable) of index tuples into the cone's ray list.  Three families of
    checks, all exact:

    * each simplex is full-dimensional and simplicial;
    * every pairwise intersection is the common face (computed by double
      description on the union of the two facet systems);
    * the union covers the cone: every codimension-one face of a simplex
      either lies on the cone boundary (then it belongs to one simplex) or
      is shared by exactly two, and a deterministic batch of sampled
      nonnegative ray combinations each land inside some simplex.
    """
    if cone.rays is None:
        raise ConeInputError("triangulation validation needs the cone's rays")
    simplices = getattr(triangulation, "simplices", triangulation)
    simplices = [tuple(s) for s in simplices]
    rays = [tuple(map(Fraction, r)) for r in cone.rays]
    dim = cone.dim
    problems: list[TriangulationProblem] = []

    inverses = []
    for s in simplices:
        if len(set(s)) != len(s) or any(not 0 <= i < len(rays) for i in s):
            raise ConeInputError(f"malformed simplex indices {s}")
        if len(s) != dim:
            problems.append(TriangulationProblem(
                "simplex", f"simplex {s} has {len(s)} rays, expected {dim}"))
            continue
        columns = [[rays[i][r] for i in s] for r in range(dim)]
        try:
            inverses.append(linalg.invert(columns))
        except ValueError:
            problems.append(TriangulationProblem(
                "simplex", f"simplex {s} is not full-dimensional"))
            inverses.append(None)
    if any(p.kind == "simplex" for p in problems):
        return TriangulationReport(False, tuple(problems))

    # Pairwise intersections must equal the cone on the shared rays.
    for ia in range(len(simplices)):
        for ib in range(ia + 1, len(simplices)):
            sa, sb = simplices[ia], simplices[ib]
            shared = sorted(set(sa) & set(sb))
            expected = sorted(primitive(rays[i]) for i in shared)
            halfspaces = [tuple(row) for row in inverses[ia]] + \
                         [tuple(row) for row in inverses[ib]]
            meet = _extreme_rays_from_halfspaces(halfspaces, dim)
            if meet != expected:
                problems.append(TriangulationProblem(
                    "overlap",
                    f"simplices {sa} and {sb} intersect beyond their common face"))

    # Ridge matching: interior walls are shared by exactly two simplices,
    # boundary walls by exactly one.
    ridge_count: dict[frozenset, int] = {}
    ridge_interior: dict[frozenset, bool] = {}
    for s, inverse in zip(simplices, inverses):
        for k in range(dim):
            ridge = frozenset(s) - {s[k]}
            normal = inverse[k]
            interior = any(dot(normal, r) < 0 for r in rays)
            ridge_count[ridge] = ridge_count.get(ridge, 0) + 1
            ridge_interior[ridge] = ridge_interior.get(ridge, False) or interior
    for ridge, count in sorted(ridge_count.items(), key=lambda kv: sorted(kv[0])):
        expected = 2 if ridge_interior[ridge] else 1
        if count < expected:
            problems.append(TriangulationProblem(
                "coverage",
                f"interior wall {sorted(ridge)} belongs to only {count} simplex"))
        elif count > expected:
            problems.append(TriangulationProblem(
                "overlap",
                f"wall {sorted(ridge)} belongs to {count} simplices, expected {expected}"))

    # Sampled coverage with deterministic witnesses.
    rng = random.Random(COVERAGE_SEED)
    points = [tuple(sum(r[c] for r in rays) for c in range(dim))]
    for i in range(len(rays)):
        for j in range(i + 1, len(rays)):
            points.append(tuple(rays[i][c] + rays[j][c] for c in range(dim)))
    for _ in range(COVERAGE_SAMPLES):
        coeffs = [Fraction(rng.randint(0, 9)) for _ in rays]
        if all(c == 0 for c in coeffs):
            coeffs[0] = Fraction(1)
        points.append(tuple(sum(c * r[k] for c, r in zip(coeffs, rays))
                            for k in range(dim)))
    for point in points:
        if not any(_simplex_membership(inv, point) for inv in inverses):
            problems.append(TriangulationProblem(
                "coverage", f"sampled cone point {point} lies in no simplex"))

    return TriangulationReport(not problems, tuple(problems))
