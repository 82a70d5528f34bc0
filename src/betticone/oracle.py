"""Independent brute-force polyhedral engine in exact arithmetic.

Everything else in the package describes specific cones through closed
formulas; this module re-derives ray/facet presentations from scratch so
those formulas can be cross-checked.  Its arithmetic still comes only
from `dot` and `primitive` in the tiny `linalg` module, so a bug
elsewhere cannot leak in here; `ConeDescription` is a `sequences.Frozen`
value, which stores fields and brings no arithmetic.  It holds the
package's two exact eliminations, both fraction-free: `_independent`
serves `rank` (which `verification` proves the ray relation with), the
double description's starting basis and its full-dimension check;
`_primitive_inverse_rows` gives the starting rays (one pass for both
needs a flag and was no faster on the `verify` sweep).  No search here
checks triangulations: `verification` proves both of the total cone's
from the sides of its ray relation.

The core primitive is extreme-ray enumeration for a pointed cone given by
halfspaces, by the classical double description method with the
combinatorial adjacency test; facet enumeration runs it on the dual cone,
and `cone_equal` needs one conversion.  Each public function scales every
input ray or facet once (`_canonical`) to its primitive integer form, by a
positive rational, which keeps the sign of every inner product; the steps
below take those integer lists as they are.  Desk scale only: ambient
dimension is capped.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from .errors import ConeInputError
from .linalg import dot, primitive
from .sequences import Frozen

MAX_DIM = 12

IntVector = tuple[int, ...]


class ConeDescription(Frozen):
    """A pointed polyhedral cone, by generators and/or inequalities.

    ``rays`` generate the cone; ``facets`` are inward normals (the cone is
    where all of them are nonnegative).  At least one presentation must be
    given.  Each is stored as the tuples it was given, integers or
    `Fraction`s, with no coercion: the functions below scale each vector
    once per call, and the conversions return canonical primitive-integer,
    lexicographically sorted lists.
    """

    __slots__ = ("dim", "rays", "facets")
    dim: int
    rays: Optional[tuple[tuple[Fraction, ...], ...]]
    facets: Optional[tuple[tuple[Fraction, ...], ...]]

    def __init__(self, dim: int, rays=None, facets=None):
        if dim < 1:
            raise ConeInputError("ambient dimension must be positive")
        if dim > MAX_DIM:
            raise ConeInputError(f"ambient dimension {dim} exceeds the desk-scale cap {MAX_DIM}")
        if rays is None and facets is None:
            raise ConeInputError("a cone needs rays or facets")
        given = [None if vecs is None else tuple(map(tuple, vecs)) for vecs in (rays, facets)]
        for name, vecs in zip(("rays", "facets"), given):
            if vecs is not None and any(len(v) != dim for v in vecs):
                raise ConeInputError(f"every {name[:-1]} must have length {dim}")
        super().__init__(dim, *given)


def _canonical(vectors) -> list[IntVector]:
    """The primitive integer forms of the nonzero vectors, each once, in
    first-seen order: what every step below a public function runs on."""
    return list(dict.fromkeys(primitive(v) for v in vectors if any(v)))


def _independent(vectors: Sequence[IntVector], dim: int) -> list[int]:
    """Indices of the greedy maximal independent subset of ``vectors``:
    a vector is kept when it is independent of those kept before it.  One
    fraction-free elimination: each vector is reduced against the echelon
    rows kept so far, and a nonzero remainder becomes a new echelon row."""
    echelon: list[tuple[int, list[int]]] = []  # (pivot column, row)
    kept: list[int] = []
    for idx, v in enumerate(vectors):
        for col, row in echelon:
            if v[col]:
                a, b = row[col], v[col]
                v = [a * x - b * y for x, y in zip(v, row)]
        pivot = next((c for c, x in enumerate(v) if x), None)
        if pivot is None:
            continue
        g = gcd(*v)
        echelon.append((pivot, [x // g for x in v]))
        kept.append(idx)
        if len(kept) == dim:
            break
    return kept


def rank(vectors: Sequence[Sequence[Fraction]]) -> int:
    """The rank of rational vectors of one length, by the fraction-free
    elimination of `_independent` on their primitive integer forms."""
    vectors = _canonical(vectors)
    return len(_independent(vectors, len(vectors[0]))) if vectors else 0


def _primitive_inverse_rows(matrix: Sequence[Sequence[int]]) -> list[IntVector]:
    """The rows of the inverse of an integer matrix, each scaled by a
    positive rational to its primitive integer vector, by fraction-free
    Gauss-Jordan elimination on [matrix | I]; ValueError if singular."""
    n = len(matrix)
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(matrix)]
    for c in range(n):
        p = next((i for i in range(c, n) if m[i][c]), None)
        if p is None:
            raise ValueError("matrix is singular")
        m[c], m[p] = m[p], m[c]
        pivot = m[c]
        for i in range(n):
            if i != c and m[i][c]:
                a, b = pivot[c], m[i][c]
                row = [a * x - b * y for x, y in zip(m[i], pivot)]
                g = gcd(*row)
                m[i] = [x // g for x in row]
    # each row now reads [d_i e_i | d_i * (row i of the inverse)]
    return [primitive(row[n:] if row[i] > 0 else [-x for x in row[n:]])
            for i, row in enumerate(m)]


def _extreme_rays_from_halfspaces(hs: list[IntVector], dim: int) -> list[IntVector]:
    """Extreme rays of {x : h.x >= 0 for all h in hs}, a canonical list
    (see `_canonical`); the cone must be pointed, i.e. the halfspace
    normals have full rank.

    Each ray carries the set of processed halfspaces tight on it as a
    bitmask over positions in hs."""
    # Initial simplicial cone from a maximal independent subset: its rays
    # are the columns of the inverse of the chosen rows, and ray c is tight
    # on every chosen halfspace but the c-th.
    chosen = _independent(hs, dim)
    if len(chosen) < dim:
        raise ConeInputError(
            "halfspace normals do not span the ambient space (cone is not pointed)")
    rays = _primitive_inverse_rows([[hs[i][r] for i in chosen] for r in range(dim)])
    every = sum(1 << i for i in chosen)
    tight = [every ^ (1 << i) for i in chosen]

    for idx, f in enumerate(hs):
        if idx in chosen:
            continue
        bit = 1 << idx
        vals = [dot(f, r) for r in rays]
        if any(v < 0 for v in vals):
            pos = [k for k, v in enumerate(vals) if v > 0]
            neg = [k for k, v in enumerate(vals) if v < 0]
            zero = [k for k, v in enumerate(vals) if v == 0]
            new: dict[IntVector, int] = {}
            for p in pos:
                for q in neg:
                    common = tight[p] & tight[q]
                    # adjacent rays share at least dim - 2 tight halfspaces,
                    # and no third ray is tight on all of them
                    if common.bit_count() < dim - 2 or any(
                            k != p and k != q and t & common == common
                            for k, t in enumerate(tight)):
                        continue
                    cand = primitive([vals[p] * qc - vals[q] * pc
                                      for pc, qc in zip(rays[p], rays[q])])
                    new.setdefault(cand, common | bit)
            rays = [rays[k] for k in pos + zero] + list(new)
            tight = ([tight[k] for k in pos] + [tight[k] | bit for k in zero]
                     + list(new.values()))
        else:
            tight = [t | bit if v == 0 else t for t, v in zip(tight, vals)]
    return sorted(rays)


def _facets_from_rays(gens: list[IntVector], dim: int) -> list[IntVector]:
    """The facets of the cone the canonical generators gens span."""
    if len(_independent(gens, dim)) < dim:
        raise ConeInputError(
            "cone is not full-dimensional; facet conversion is unsupported")
    return _extreme_rays_from_halfspaces(gens, dim)


def rays_to_facets(cone: ConeDescription) -> ConeDescription:
    """Irredundant facet normals of a full-dimensional cone given by rays.

    Facets of the cone are exactly the extreme rays of its dual, so this
    is double description run on {y : r.y >= 0 for every generator r}.
    """
    if cone.rays is None:
        raise ConeInputError("rays_to_facets needs a ray presentation")
    return ConeDescription(cone.dim, cone.rays, _facets_from_rays(_canonical(cone.rays), cone.dim))


def facets_to_rays(cone: ConeDescription) -> ConeDescription:
    """Irredundant extreme rays of a pointed cone given by facet normals."""
    if cone.facets is None:
        raise ConeInputError("facets_to_rays needs a facet presentation")
    rays = _extreme_rays_from_halfspaces(_canonical(cone.facets), cone.dim)
    return ConeDescription(cone.dim, rays, cone.facets)


def cone_equal(a: ConeDescription, b: ConeDescription) -> bool:
    """Whether two presentations give one cone, by one conversion.  The
    rays of the side that gives them (else the first side's facets,
    converted) must span a full-dimensional cone, and every inequality
    description of that cone lists each of its facets up to positive scale
    (Ziegler, *Lectures on Polytopes*, 1995).  So the cones are equal
    exactly when each facet of the rays is in the other side's canonical
    list (its rays' facets, if it gives only rays) and every listed facet
    holds on every ray; the other side's cone may contain a line."""
    if a.dim != b.dim:
        raise ConeInputError("cone comparison needs matching ambient dimensions")
    if a.rays is None and b.rays is not None:
        a, b = b, a
    rays = _canonical(a.rays) if a.rays is not None else facets_to_rays(a).rays
    listed = _canonical(b.facets) if b.facets is not None else rays_to_facets(b).facets
    return (set(_facets_from_rays(rays, a.dim)) <= set(listed)
            and all(dot(f, r) >= 0 for r in rays for f in listed))
