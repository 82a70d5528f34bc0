"""Oracle sweep: re-derive every rays/facets equivalence from scratch and
compare with the closed-form modules.

Each case is independent; a failure is reported, never raised, so the CLI
can print the whole table and exit nonzero at the end.
"""

from __future__ import annotations

from typing import Optional

from . import hyper_fixed, hyper_total, oracle, regular
from .cones import Cone
from .errors import ConeInputError, MalformedInputError, bounded
from .hyper_fixed import FixedConeParams
from .linalg import dot, primitive
from .oracle import ConeDescription
from .sequences import Frozen

# The sweep runs 5(mult_max - 1) fixed-cone checks: the worst accepted one,
# n_max = 11 and mult_max = MAX_MULT, takes 0.65-0.8 s end to end on a
# shared 2-vCPU VM (1.5 s at mult_max = 200).
MAX_MULT = 100


class SweepResult(Frozen):
    """One row of the sweep: a check's name, whether it passed, a detail."""

    __slots__ = ("name", "ok", "detail")
    name: str
    ok: bool
    detail: str

    def __init__(self, name: str, ok: bool, detail: str = ""):
        super().__init__(name, ok, detail)


def _description_pair(cone: Cone, rays) -> tuple[ConeDescription, ConeDescription]:
    """The cone from its rays (``cone.projected()``, read once by the
    caller) and from the normals of the windows that membership
    evaluates, both on coordinates 0..n (flatness vanishes there)."""
    dim = cone.n + 1
    return ConeDescription(dim, rays=rays), ConeDescription(dim, facets=cone.normals())


def _relation_failure(cone: Cone, rays, relation) -> Optional[str]:
    """Why the closed-form ``relation`` that certificates walk is not the
    one relation among the cone's n+2 ``rays``, or None.  Rank n+1 leaves
    a one-dimensional relation space, so a zero sum with last coefficient
    1 pins the closed form."""
    if (found := oracle.rank(rays)) != cone.n + 1:
        return f"rays have rank {found}, expected {cone.n + 1}"
    if any(dot(relation, column) for column in zip(*rays)):
        return "closed-form relation does not sum the rays to zero"
    if relation[-1] != 1:
        return f"closed-form relation has {cone.names[-1]} coefficient {relation[-1]}"
    return None


def check_regular(n: int) -> SweepResult:
    # the rays' irredundant facets are the normals, each vector scaled once
    cone = regular.cone(n)
    a, b = _description_pair(cone, cone.projected())
    ok = list(oracle.rays_to_facets(a).facets) == sorted(map(primitive, b.facets))
    return SweepResult(f"regular n={n}: rays <-> facets", ok)


def check_total(n: int) -> SweepResult:
    cone = hyper_total.cone(n)
    rays, relation = cone.projected(), cone.relation
    if not oracle.cone_equal(*_description_pair(cone, rays)):
        return SweepResult(f"total n={n}: rays <-> facets", False, "cones differ")
    if (failure := _relation_failure(cone, rays, relation)) is not None:
        return SweepResult(f"total n={n}: ray relation", False, failure)
    return SweepResult(
        f"total n={n}: rays <-> facets, relation space 1-dim", True,
        "relation " + "+".join(f"({c})*{name}" for c, name
                               in zip(relation, cone.names) if c != 0))


def check_fixed(n: int, d: int) -> SweepResult:
    """For d >= 3 also the relation that certificates walk; at d = 2 the
    n+1 rays are independent."""
    cone = hyper_fixed.cone(FixedConeParams(n, d))
    rays = cone.projected()
    ok = oracle.cone_equal(*_description_pair(cone, rays))
    if ok and d >= 3 and (failure := _relation_failure(cone, rays, cone.relation)) is not None:
        return SweepResult(f"fixed n={n} d={d}: ray relation", False, failure)
    return SweepResult(f"fixed n={n} d={d}: rays <-> facets", ok)


def check_triangulations(n: int) -> SweepResult:
    """Both triangulations of the total cone, proved from its relation: n+2
    rays of rank n+1 whose one relation has both signs have exactly two
    triangulations, one per side of the relation, whose simplices omit in
    turn each ray of that side (De Loera, Rambau and Santos,
    *Triangulations*, §2.4).  The sides are read off the relation just
    proved; "omit_odd" is rho[-1]'s."""
    name = f"total n={n}: triangulations"
    cone = hyper_total.cone(n)
    relation = cone.relation
    if (failure := _relation_failure(cone, cone.projected(), relation)) is not None:
        return SweepResult(name, False, failure)
    sides = {"omit_odd": [p for p, k in enumerate(relation) if k * relation[0] > 0],
             "omit_even": [p for p, k in enumerate(relation) if k * relation[0] < 0]}
    if not all(sides.values()):
        return SweepResult(name, False, "rho[-1]'s side of the relation or the other is empty")
    tris = hyper_total.triangulations(n)
    valid = [sorted(map(sorted, tri.simplices))
             == sorted([q for q in range(len(relation)) if q != p] for p in sides[tri.label])
             for tri in tris]
    return SweepResult(name, all(valid), "; ".join(
        f"{tri.label}: {len(tri.simplices)} simplices {'valid' if ok else 'INVALID'}"
        for tri, ok in zip(tris, valid)))


def run_sweep(n_max: int = 8, mult_max: int = 6) -> list[SweepResult]:
    # regular n = n_max is checked in dimension n_max + 1
    if not 2 <= n_max <= oracle.MAX_DIM - 1 or mult_max < 2:
        raise MalformedInputError(
            f"sweep bounds need 2 <= n_max <= {oracle.MAX_DIM - 1} and mult_max >= 2, "
            f"got n_max={bounded(str(n_max))}, mult_max={bounded(str(mult_max))}")
    if mult_max > MAX_MULT:
        raise ConeInputError(
            f"verify needs mult_max <= {MAX_MULT}, got mult_max={bounded(str(mult_max))}")
    results = [check_regular(n) for n in range(0, n_max + 1)]
    results += [check_total(n) for n in range(2, n_max + 1)]
    results += [check_fixed(n, d)
                for n in range(2, min(n_max, 6) + 1)
                for d in range(2, mult_max + 1)]
    results += [check_triangulations(n) for n in range(3, min(n_max, 6) + 1)]
    return results
