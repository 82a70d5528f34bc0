"""The `Fraction` certificate that `Cone.decompose` computed before its
integer core, kept as a reference for the tests.

`fraction_solve` is the banded back substitution on the point's
`Fraction` entries, and `fraction_decompose` the ratio test along
`Cone.relation`: every ratio x_p / relation_p built as a `Fraction`, the
least (positive side) or greatest (negative side) taken, and a tie
broken by `ratios.index`, so the first omitted position wins.
`fraction_reconstructs` is the exact reconstruction check it ran after
them: the ray sum written out by `Cone.combine` and compared with the
point as a sequence.  `fraction_split_reconstructs` is the check that
`hyper_total.split` ran before its integer pullback check: the transform
of the first part plus the embedded second part, as sequences.
`fraction_classify_coefficients` is how `regular.classify` listed its
ray coefficients before it solved on the integer read: the regular
cone's window values on the point's `Fraction` entries.
`misrelate` writes a wrong relation into a private cone for the tests
that check `verify` catches one.
"""

from __future__ import annotations

from fractions import Fraction

from betticone import regular
from betticone.hyper_total import phi
from betticone.sequences import _set, embed
from reference_sequences import tail_sum


def fraction_solve(cone, w) -> list[Fraction]:
    """Coefficients on the rho rays and the last ray (0 between), solved
    top-down in `Fraction` arithmetic."""
    y = list(w.entries if cone.tail is None else w.prefix(cone.n + 1))
    x = [Fraction(0)] * len(cone.names)
    if cone.tail is not None:
        x[-1] = t = y.pop()
        y[-1] -= t
        y[-2] -= cone.corners[-1] * t
    above = 0
    for k in range(len(cone.names) - len(cone.corners) - 1, -1, -1):
        x[k] = above = y[k] - above
    return x


def fraction_decompose(cone, w, which) -> tuple[str, tuple[int, ...], tuple[Fraction, ...]]:
    """(label, simplex_used, coefficients) of a member, as `Cone.decompose`
    gave them before its integer core."""
    coeffs = fraction_solve(cone, w)
    if (core := cone.core) is not None:
        return "simplicial", core, tuple(coeffs)
    relation, tri = cone.relation, cone.triangulation(which)
    omitted = tri.omitted
    ratios = [coeffs[p] / relation[p] for p in omitted]
    t = (min if relation[omitted[0]].numerator > 0 else max)(ratios)
    skip = omitted[ratios.index(t)]
    simplex = tuple(q for q in range(len(coeffs)) if q != skip)
    return tri.label, simplex, tuple(c - t * r for c, r in zip(coeffs, relation))


def fraction_reconstructs(cone, w, x, q) -> bool:
    """Whether the coefficients x / q (integer numerators over q) rebuild
    w, as `Cone.decompose` checked before its integer reconstruction."""
    return cone.combine([Fraction(c, q) for c in x]) == w


def fraction_split_reconstructs(w, v1, v2) -> bool:
    """Whether phi(v1) + embed(v2) is w, as `hyper_total.split` checked
    before its integer pullback check."""
    return tail_sum(phi(v1), embed(v2)) == w


def fraction_classify_coefficients(v) -> tuple[Fraction, ...]:
    """The ray coefficients a[-1..n-1] of the finite v, member or not, as
    `regular.classify` listed them before its integer solve: chi[j,n]
    for j = 0..n on the `Fraction` entries."""
    shapes = regular.cone(v.n)
    return tuple(shapes.values(v.entries))


def misrelate(cone, relation) -> None:
    """Make ``relation`` the closed form that ``cone.relation`` reads, by
    writing it over the corners' common denominator into the cone's
    derived slot.  Only for a private cone, built by a builder's
    ``__wrapped__``: the builders share theirs."""
    s = cone._scaled_corners[1]
    scaled = [c * s for c in relation]
    assert all(c.denominator == 1 for c in scaled)
    _set(cone, "_scaled_relation", tuple(c.numerator for c in scaled))
