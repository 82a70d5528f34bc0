"""Independent brute-force polyhedral engine in exact arithmetic.

Everything else in the package describes specific cones through closed
formulas; this module re-derives ray/facet presentations from scratch so
those formulas can be cross-checked.  Its public functions take plain
lists of rational vectors of one length, the ambient dimension, and its
arithmetic still comes only from `dot`, `primitive` and
`all_nonnegative` in the small `linalg` module, so a bug elsewhere
cannot leak in here.  It holds the package's two exact eliminations,
both fraction-free: `_independent` serves `rank` (which `verification`
proves the ray relation with) and the double description's starting
basis, which is also the check that rays span the space;
`_primitive_inverse_rows` gives the starting rays
(one pass for both needs a flag and was no faster on the `verify`
sweep).  No search here checks triangulations: `verification` proves
both of the total cone's from the sides of its ray relation.

The core primitive is extreme-ray enumeration for a pointed cone given by
halfspaces, by the classical double description method with the
combinatorial adjacency test; `rays_to_facets` runs it on the dual cone,
and `cone_equal` needs that one conversion and one check that every
listed facet holds on every ray, which `all_nonnegative` evaluates on
each ray's nonzero coordinates only (a rho ray of the closed forms has
two, a tail ray three).  Each public function scales every input ray or
facet once (`_canonical`) to its primitive integer form, by a positive
rational, which keeps the sign of every inner product; the steps below
take those integer lists as they are.  Desk scale only: ambient
dimension is capped.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

from .errors import ConeInputError
from .linalg import all_nonnegative, dot, primitive

MAX_DIM = 12

IntVector = tuple[int, ...]


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


def _length(vectors, name: str) -> int:
    """The one length of ``vectors`` (0 for none), within the desk-scale cap."""
    dim = len(vectors[0]) if vectors else 0
    if dim > MAX_DIM:
        raise ConeInputError(f"ambient dimension {dim} exceeds the desk-scale cap {MAX_DIM}")
    if any(len(v) != dim for v in vectors):
        raise ConeInputError(f"every {name} must have length {dim}")
    return dim


def _facets(rays: list[IntVector], dim: int) -> list[IntVector]:
    """The facets of the cone the canonical rays span: the extreme rays of
    its dual {y : r.y >= 0 for every ray r}, whose starting basis is also
    the check that the rays span the space."""
    if dim:
        try:
            return _extreme_rays_from_halfspaces(rays, dim)
        except ConeInputError:
            pass  # the dual is not pointed: the rays have lower rank
    raise ConeInputError("cone is not full-dimensional; facet conversion is unsupported")


def rays_to_facets(rays: Sequence[Sequence[Fraction]]) -> list[IntVector]:
    """The irredundant facet normals of the full-dimensional cone that
    rational rays of one length span, a canonical sorted list."""
    return _facets(_canonical(rays), _length(rays, "ray"))


def cone_equal(rays: Sequence[Sequence[Fraction]], facets: Sequence[Sequence[Fraction]]) -> bool:
    """Whether the rays span the cone the facet normals cut out, by one
    conversion.  The rays must span a full-dimensional cone, and every
    inequality description of that cone lists each of its facets up to
    positive scale (Ziegler, *Lectures on Polytopes*, 1995).  So the cones
    are equal exactly when each facet of the rays is in the canonical
    facet list and every listed facet holds on every ray (all of them,
    evaluated sparsely); the facets' cone may contain a line."""
    dim = _length(rays, "ray")
    if _length(facets, "facet") not in (0, dim):
        raise ConeInputError("cone comparison needs matching ambient dimensions")
    gens, listed = _canonical(rays), _canonical(facets)
    return set(_facets(gens, dim)) <= set(listed) and all_nonnegative(listed, gens)
