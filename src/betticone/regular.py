"""The closed cone of resolution shapes over an n-dimensional regular
local ring: a simplicial cone in Q^{n+1} cut out by the partial Euler
characteristics ending at n, spanned by the free-module ray and the
two-term rays.

Because the cone is simplicial, membership and the shape classification
are one O(n) pass of alternating prefix sums, and the facet values are
the ray coefficients that the shared certificate driver solves for.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .cones import CONES_KEPT, Cone, Window, _fractions
from .errors import ConeInputError
from .sequences import BettiVector, Frozen, described


@lru_cache(maxsize=CONES_KEPT)
def cone(n: int) -> Cone:
    """The regular cone: facets chi[j,n], j = 0..n, and rays rho[-1..n-1].
    It is simplicial and rho[i] is dual to chi[i+1,n], so the facet values
    of a vector are its ray coefficients.  Built once per n and shared
    (see `cones.CONES_KEPT`)."""
    return Cone("the regular cone", n, tuple((j, n, None) for j in range(n + 1)))


def facets(n: int) -> list[Window]:
    """The n+1 facet windows chi[j,n], j = 0..n."""
    return list(cone(n).windows)


def rays(n: int) -> list[tuple[Fraction, ...]]:
    """The n+1 extremal rays as coordinate rows: the free shape, then the
    two-term shapes."""
    return cone(n).projected()


def ray_names(n: int) -> list[str]:
    return list(cone(n).names)


def _cone_of(v: BettiVector) -> Cone:
    """The regular cone of a finite point's own n; any other point is a
    `ConeInputError`."""
    if not isinstance(v, BettiVector):
        raise ConeInputError(f"the regular cone needs a finite sequence, got {described(v)}")
    return cone(v.n)


def facet_violations(v: BettiVector) -> list[tuple[str, Fraction]]:
    """The facet windows chi[j,n] that are negative on v, with values."""
    return _cone_of(v).violations(v)


class RegularDecomposition(Frozen):
    """Coefficients a_i of the ray expansion v = sum a_i rho_i, i = -1..n-1.

    ``a[k]`` holds the coefficient of rho_{k-1}; use ``coefficient(i)`` to
    address by ray index.  All coefficients are nonnegative exactly when
    the vector is a member of the closed cone.
    """

    __slots__ = ("n", "a")
    n: int
    a: tuple[Fraction, ...]

    def coefficient(self, i: int) -> Fraction:
        if not -1 <= i <= self.n - 1:
            raise IndexError(f"ray index {i} out of range for n={self.n}")
        return self.a[i + 1]

    @property
    def a_minus_1(self) -> Fraction:
        return self.a[0]


def decompose(v: BettiVector) -> RegularDecomposition:
    """Exact ray-coefficient certificate for a member vector, from
    `Cone.decompose`.

    Raises NotInConeError naming the violated facet when some chi[j,n] is
    negative.
    """
    shapes = _cone_of(v)
    return RegularDecomposition(shapes.n, shapes.decompose(v).coefficients)


class ShapeClass(Frozen):
    """Classification of a shape vector.

    realizable means some module's resolution has this shape; it requires
    closure membership plus a contiguous strictly-positive prefix among
    the two-term coefficients (an interior zero rules out every depth).
    depth is defined only for realizable nonzero vectors; the zero vector
    is realizable by convention with no depth.  cm_choice_exists records
    whether the free-ray coefficient vanishes.
    """

    __slots__ = ("member_of_closure", "realizable", "depth", "cm_choice_exists",
                 "decomposition")
    member_of_closure: bool
    realizable: bool
    depth: Optional[int]
    cm_choice_exists: bool
    decomposition: RegularDecomposition


def classify(v: BettiVector) -> ShapeClass:
    """The shape's classification from its ray coefficients, solved on the
    point's integer read: position k of `Cone._solve` is chi[k,n] in the
    regular cone, member or not, and the coefficients over q > 0 have the
    signs of their integer numerators."""
    shapes = _cone_of(v)
    n = shapes.n
    x, q = shapes._solve(*shapes._read(v)[1:])
    dec = RegularDecomposition(n, _fractions(x, q))
    cm = x[0] == 0

    if any(c < 0 for c in x):
        return ShapeClass(False, False, None, cm, dec)
    if not any(x):  # the rays are a basis: v is 0 when its coefficients are
        return ShapeClass(True, True, None, cm, dec)

    positive = [i for i in range(0, n) if x[i + 1] > 0]
    m = positive[-1] if positive else -1
    contiguous = positive == list(range(0, m + 1))
    if not contiguous:
        return ShapeClass(True, False, None, cm, dec)
    return ShapeClass(True, True, n - 1 - m, cm, dec)
