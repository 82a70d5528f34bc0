"""The earlier `Fraction` double description, and the general
triangulation validator that `verify` no longer runs.

The `reference_*` functions are that earlier oracle, kept verbatim apart
from their names: inner products summed from `Fraction(0)`, one `rank`
call per candidate halfspace, tight sets recomputed with `dot` at every
step, and `Fraction` simplex inverses.  `test_oracle_reference` compares
the integer oracle with them.  `reference_validate_triangulation` checks
any list of simplices against a cone's rays by search (simplex checks,
pairwise common faces by double description, ridge matching and
`COVERAGE_SAMPLES` seeded coverage points); it is the tests' only
triangulation validator, the independent check on the proof in
`verification.check_triangulations` for n <= 6.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from betticone.errors import ConeInputError
from betticone.oracle import ConeDescription

from reference_linalg import invert, rank

COVERAGE_SAMPLES = 40  # random ray combinations `reference_validate_triangulation` tests
COVERAGE_SEED = 20240817

IntVector = tuple[int, ...]


def reference_dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    return sum((x * y for x, y in zip(a, b, strict=True)), Fraction(0))


def reference_primitive(vec: Sequence[Fraction]) -> tuple[int, ...]:
    fracs = [Fraction(x) for x in vec]
    mult = lcm(*(f.denominator for f in fracs)) if fracs else 1
    ints = [int(f * mult) for f in fracs]
    g = gcd(*ints) if any(ints) else 0
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in ints)


def reference_canonical(vectors) -> list[IntVector]:
    seen = []
    for v in vectors:
        if all(x == 0 for x in v):
            continue
        p = reference_primitive(v)
        if p not in seen:
            seen.append(p)
    return seen


def reference_extreme_rays(halfspaces: Sequence[IntVector], dim: int
                                  ) -> list[IntVector]:
    """Extreme rays of {x : h.x >= 0 for all h}; the cone must be pointed,
    i.e. the halfspace normals have full rank."""
    hs = reference_canonical(halfspaces)
    # Initial simplicial cone from a maximal independent subset.
    chosen: list[IntVector] = []
    chosen_idx: list[int] = []
    for idx, h in enumerate(hs):
        if rank(chosen + [h]) > len(chosen):
            chosen.append(h)
            chosen_idx.append(idx)
            if len(chosen) == dim:
                break
    if len(chosen) < dim:
        raise ConeInputError(
            "halfspace normals do not span the ambient space (cone is not pointed)")
    inv = invert([list(map(Fraction, h)) for h in chosen])
    rays = [reference_primitive([inv[r][c] for r in range(dim)]) for c in range(dim)]
    processed = list(chosen_idx)

    for idx in range(len(hs)):
        if idx in chosen_idx:
            continue
        f = hs[idx]
        vals = {r: reference_dot(f, r) for r in rays}
        neg = [r for r in rays if vals[r] < 0]
        if neg:
            pos = [r for r in rays if vals[r] > 0]
            zero = [r for r in rays if vals[r] == 0]
            tight = {r: frozenset(i for i in processed if reference_dot(hs[i], r) == 0)
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
                    cand = reference_primitive(combo)
                    if cand not in new:
                        new.append(cand)
            rays = pos + zero + new
        processed.append(idx)
    return sorted(rays)


def reference_rays_to_facets(cone: ConeDescription) -> ConeDescription:
    """Irredundant facet normals of a full-dimensional cone given by rays.

    Facets of the cone are exactly the extreme rays of its dual, so this
    is double description run on {y : r.y >= 0 for every generator r}.
    """
    if cone.rays is None:
        raise ConeInputError("rays_to_facets needs a ray presentation")
    gens = reference_canonical(cone.rays)
    if rank([list(map(Fraction, g)) for g in gens]) < cone.dim:
        raise ConeInputError(
            "cone is not full-dimensional; facet conversion is unsupported")
    facets = reference_extreme_rays(gens, cone.dim)
    return ConeDescription(cone.dim, rays=cone.rays,
                           facets=tuple(tuple(Fraction(x) for x in f) for f in facets))


def reference_facets_to_rays(cone: ConeDescription) -> ConeDescription:
    """Irredundant extreme rays of a pointed cone given by facet normals."""
    if cone.facets is None:
        raise ConeInputError("facets_to_rays needs a facet presentation")
    rays = reference_extreme_rays(reference_canonical(cone.facets), cone.dim)
    return ConeDescription(cone.dim, facets=cone.facets,
                           rays=tuple(tuple(Fraction(x) for x in r) for r in rays))


def reference_complete(cone: ConeDescription) -> ConeDescription:
    if cone.rays is None:
        return reference_facets_to_rays(cone)
    if cone.facets is None:
        return reference_rays_to_facets(cone)
    return cone


def reference_cone_equal(a: ConeDescription, b: ConeDescription) -> bool:
    """Mutual containment, checked exactly: every ray of each cone must
    satisfy every facet inequality of the other."""
    if a.dim != b.dim:
        raise ConeInputError("cone comparison needs matching ambient dimensions")
    a = reference_complete(a)
    b = reference_complete(b)
    return (all(reference_dot(f, r) >= 0 for r in a.rays for f in b.facets)
            and all(reference_dot(f, r) >= 0 for r in b.rays for f in a.facets))


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


def reference_simplex_membership(inverse, point) -> bool:
    return all(reference_dot(row, point) >= 0 for row in inverse)


def reference_validate_triangulation(cone: ConeDescription, triangulation) -> TriangulationReport:
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
            inverses.append(invert(columns))
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
            expected = sorted(reference_primitive(rays[i]) for i in shared)
            halfspaces = [tuple(row) for row in inverses[ia]] + \
                         [tuple(row) for row in inverses[ib]]
            meet = reference_extreme_rays(halfspaces, dim)
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
            interior = any(reference_dot(normal, r) < 0 for r in rays)
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
        if not any(reference_simplex_membership(inv, point) for inv in inverses):
            problems.append(TriangulationProblem(
                "coverage", f"sampled cone point {point} lies in no simplex"))

    return TriangulationReport(not problems, tuple(problems))
