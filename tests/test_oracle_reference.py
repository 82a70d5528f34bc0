"""The integer double description in `oracle` against the Fraction
implementation it replaced.

The `reference_*` functions below are that earlier oracle, kept verbatim
apart from their names: inner products summed from `Fraction(0)`, one
`rank` call per candidate halfspace, tight sets recomputed with
`dot` at every step, and `Fraction` simplex inverses.  Every comparison
is exact: sorted primitive ray lists, booleans, error messages and
whole triangulation reports must be identical.
"""

import random
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

import pytest

from betticone import hyper_fixed, hyper_total, linalg, oracle, regular
from betticone.errors import ConeInputError
from betticone.hyper_fixed import FixedConeParams
from betticone.oracle import (COVERAGE_SAMPLES, COVERAGE_SEED, ConeDescription,
                              TriangulationProblem, TriangulationReport)
from betticone.verification import _description_pair

from reference_linalg import invert, rank

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


# ---------------------------------------------------------------------------
# Comparisons
# ---------------------------------------------------------------------------

def outcome(fn, *args):
    """What a call returns, or the type and text of the error it raises."""
    try:
        return ("value", fn(*args))
    except (ConeInputError, ValueError) as exc:
        return ("error", type(exc).__name__, str(exc))


def sweep_cones():
    yield from (regular.cone(n) for n in range(0, 9))
    yield from (hyper_total.cone(n) for n in range(2, 9))
    yield from (hyper_fixed.cone(FixedConeParams(n, d))
                for n in range(2, 7) for d in range(2, 7))


@pytest.mark.parametrize("cone", list(sweep_cones()), ids=lambda c: f"{c.title} n={c.n}")
def test_sweep_cones_convert_and_compare_as_before(cone):
    by_rays, by_facets = _description_pair(cone)
    assert (oracle.rays_to_facets(by_rays).facets
            == reference_rays_to_facets(by_rays).facets)
    assert (oracle.facets_to_rays(by_facets).rays
            == reference_facets_to_rays(by_facets).rays)
    assert oracle.cone_equal(by_rays, by_facets) is True
    assert reference_cone_equal(by_rays, by_facets) is True
    # one facet fewer: a larger cone (or one that is no longer pointed)
    wider = ConeDescription(by_facets.dim, facets=by_facets.facets[1:])
    assert (outcome(oracle.cone_equal, by_rays, wider)
            == outcome(reference_cone_equal, by_rays, wider))
    assert (outcome(oracle.cone_equal, wider, by_rays)
            == outcome(reference_cone_equal, wider, by_rays))


def random_halfspaces(rng, dim):
    """A tie-heavy system: entries in {-1, 0, 1, 2}, plus a repeated normal,
    a positive multiple of one and a redundant sum of two."""
    hs = [tuple(rng.choice((-1, 0, 1, 2)) for _ in range(dim))
          for _ in range(dim + rng.randint(0, 4))]
    a, b = rng.choice(hs), rng.choice(hs)
    hs += [a, tuple(3 * x for x in b), tuple(x + y for x, y in zip(a, b))]
    rng.shuffle(hs)
    return [tuple(Fraction(x) for x in h) for h in hs]


@pytest.mark.parametrize("dim", range(2, 9))
def test_random_tie_heavy_systems_give_the_same_rays(dim):
    rng = random.Random(5150 + dim)
    pointed = 0
    for _ in range(12 if dim < 7 else 6):
        hs = random_halfspaces(rng, dim)
        new = outcome(oracle._extreme_rays_from_halfspaces, hs, dim)
        assert new == outcome(reference_extreme_rays, hs, dim)
        pointed += new[0] == "value"
        cone = ConeDescription(dim, facets=tuple(hs))
        assert (outcome(lambda c: oracle.facets_to_rays(c).rays, cone)
                == outcome(lambda c: reference_facets_to_rays(c).rays, cone))
        # the dual conversion costs the reference seconds past ~40 rays
        if new[0] == "value" and 0 < len(new[1]) <= 30:
            generated = ConeDescription(dim, rays=tuple(new[1]))
            assert (outcome(oracle.cone_equal, generated, cone)
                    == outcome(reference_cone_equal, generated, cone))
            assert (outcome(lambda c: oracle.rays_to_facets(c).facets, generated)
                    == outcome(lambda c: reference_rays_to_facets(c).facets, generated))
    assert pointed  # the systems are not all rejected


@pytest.mark.parametrize("dim", range(2, 9))
def test_non_pointed_systems_raise_the_same_error(dim):
    rng = random.Random(404 + dim)
    for _ in range(5):
        # every normal has last coordinate 0, so the last axis is a line
        hs = [tuple(Fraction(rng.choice((-1, 0, 1, 2))) for _ in range(dim - 1))
              + (Fraction(0),) for _ in range(2 * dim)]
        new = outcome(oracle._extreme_rays_from_halfspaces, hs, dim)
        assert new[0] == "error" and new[1] == "ConeInputError"
        assert new == outcome(reference_extreme_rays, hs, dim)
        rays = ConeDescription(dim, rays=tuple(hs))
        assert (outcome(lambda c: oracle.rays_to_facets(c).facets, rays)
                == outcome(lambda c: reference_rays_to_facets(c).facets, rays))


def total_cone(n, scaled=False):
    """The projected total cone; ``scaled`` multiplies ray k by (k+1)/(k+2),
    so the rays have different denominators and span the same cone."""
    rays = [tuple(x * (Fraction(k + 1, k + 2) if scaled else 1) for x in r)
            for k, r in enumerate(hyper_total.cone(n).projected())]
    return ConeDescription(n + 1, rays=tuple(rays))


def broken_triangulations(n):
    """Per triangulation: itself, one simplex dropped, one duplicated, and
    one simplex of the other triangulation added (an overlap)."""
    first, second = (tri.simplices for tri in hyper_total.triangulations(n))
    for own, other in ((first, second), (second, first)):
        extra = next(s for s in other if s not in own)
        yield own
        yield own[1:]
        yield own + own[:1]
        yield own + (extra,)


@pytest.mark.parametrize("n", range(3, 7))
@pytest.mark.parametrize("scaled", [False, True])
def test_triangulation_reports_are_identical(n, scaled):
    cone = total_cone(n, scaled)
    reports = [oracle.validate_triangulation(cone, simplices)
               for simplices in broken_triangulations(n)]
    assert reports == [reference_validate_triangulation(cone, simplices)
                       for simplices in broken_triangulations(n)]
    assert [r.valid for r in reports] == [True, False, False, False] * 2


def test_a_coverage_failure_prints_the_cone_point():
    cone = total_cone(3, scaled=True)
    simplices = hyper_total.triangulations(3)[0].simplices[1:]
    problems = [p.detail for p in oracle.validate_triangulation(cone, simplices).problems
                if p.detail.startswith("sampled")]
    assert problems
    assert all("Fraction(" in text for text in problems)
    assert problems == [p.detail for p in reference_validate_triangulation(
        cone, simplices).problems if p.detail.startswith("sampled")]


def test_a_degenerate_simplex_is_reported_as_before():
    cone = ConeDescription(3, rays=((1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)))
    for simplices in ([(0, 1, 2)], [(0, 1, 3), (0, 1)]):
        assert (oracle.validate_triangulation(cone, simplices)
                == reference_validate_triangulation(cone, simplices))


def test_dot_checks_lengths_and_keeps_the_input_type():
    with pytest.raises(ValueError):
        linalg.dot((1, 2), (1, 2, 3))
    with pytest.raises(ValueError):
        linalg.dot((Fraction(1),), ())
    value = linalg.dot((Fraction(1, 2), Fraction(3)), (Fraction(2), Fraction(1, 3)))
    assert type(value) is Fraction and value == 2
    value = linalg.dot((1, -2), (3, 4))
    assert type(value) is int and value == -5


def test_primitive_agrees_with_the_fraction_round_trip():
    rng = random.Random(9)
    for _ in range(200):
        ints = tuple(rng.randint(-6, 6) for _ in range(rng.randint(1, 6)))
        if not any(ints):
            continue
        fracs = tuple(Fraction(x, rng.randint(1, 5)) for x in ints)
        assert linalg.primitive(ints) == reference_primitive(ints)
        assert linalg.primitive(fracs) == reference_primitive(fracs)
    with pytest.raises(ValueError):
        linalg.primitive((0, 0))
