"""The integer double description in `oracle` against the `Fraction`
implementation it replaced, kept in `reference_oracle`.

Every comparison is exact: sorted primitive ray lists, booleans and error
messages must be identical.  The reference's triangulation validator,
the tests' only one, must agree with the proof in
`verification.check_triangulations` on the total cone's triangulations
and on broken copies of them.
"""

import random
from fractions import Fraction

import pytest

from betticone import hyper_fixed, hyper_total, linalg, oracle, regular, verification
from betticone.cones import Triangulation
from betticone.errors import ConeInputError
from betticone.hyper_fixed import FixedConeParams

from reference_oracle import (ConeDescription, fraction_primitive, reference_cone_equal,
                              reference_extreme_rays, reference_facets_to_rays,
                              reference_primitive,
                              reference_rays_to_facets, reference_validate_triangulation)

# ---------------------------------------------------------------------------
# Comparisons
# ---------------------------------------------------------------------------

def outcome(fn, *args):
    """What a call returns, or the type and text of the error it raises."""
    try:
        return ("value", fn(*args))
    except (ConeInputError, ValueError) as exc:
        return ("error", type(exc).__name__, str(exc))


NOT_POINTED = ("error", "ConeInputError",
               "halfspace normals do not span the ambient space (cone is not pointed)")


def sweep_cones():
    yield from (regular.cone(n) for n in range(0, 9))
    yield from (hyper_total.cone(n) for n in range(2, 9))
    yield from (hyper_fixed.cone(FixedConeParams(n, d))
                for n in range(2, 7) for d in range(2, 7))


@pytest.mark.parametrize("cone", list(sweep_cones()), ids=lambda c: f"{c.title} n={c.n}")
def test_sweep_cones_convert_and_compare_as_before(cone):
    rays, normals = cone.projected(), cone.normals()
    by_rays = ConeDescription(cone.n + 1, rays=rays)
    by_facets = ConeDescription(cone.n + 1, facets=normals)
    assert oracle.rays_to_facets(rays) == list(reference_rays_to_facets(by_rays).facets)
    assert (oracle._extreme_rays_from_halfspaces(oracle._canonical(normals), cone.n + 1)
            == list(reference_facets_to_rays(by_facets).rays))
    assert oracle.cone_equal(rays, normals) is True
    assert reference_cone_equal(by_rays, by_facets) is True
    # one facet fewer: a larger cone, or, from a simplicial facet list, one
    # that contains a line, which the reference refuses to convert and the
    # oracle, converting only the rays, tells apart from the pointed cone
    wider = ConeDescription(cone.n + 1, facets=normals[1:])
    simplicial = len(normals) == cone.n + 1
    expected = outcome(reference_cone_equal, by_rays, wider)
    assert (expected == NOT_POINTED) == simplicial
    if simplicial:
        expected = ("value", False)
    assert outcome(oracle.cone_equal, rays, normals[1:]) == expected


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
        new = outcome(oracle._extreme_rays_from_halfspaces, oracle._canonical(hs), dim)
        assert new == outcome(reference_extreme_rays, hs, dim)
        pointed += new[0] == "value"
        cone = ConeDescription(dim, facets=tuple(hs))
        assert new == outcome(lambda c: list(reference_facets_to_rays(c).rays), cone)
        # the dual conversion costs the reference seconds past ~40 rays
        if new[0] == "value" and 0 < len(new[1]) <= 30:
            generated = ConeDescription(dim, rays=tuple(new[1]))
            assert (outcome(oracle.cone_equal, new[1], hs)
                    == outcome(reference_cone_equal, generated, cone))
            assert (outcome(oracle.rays_to_facets, new[1])
                    == outcome(lambda c: list(reference_rays_to_facets(c).facets), generated))
    assert pointed  # the systems are not all rejected


@pytest.mark.parametrize("dim", range(2, 9))
def test_non_pointed_systems_raise_the_same_error(dim):
    rng = random.Random(404 + dim)
    for _ in range(5):
        # every normal has last coordinate 0, so the last axis is a line
        hs = [tuple(Fraction(rng.choice((-1, 0, 1, 2))) for _ in range(dim - 1))
              + (Fraction(0),) for _ in range(2 * dim)]
        new = outcome(oracle._extreme_rays_from_halfspaces, oracle._canonical(hs), dim)
        assert new[0] == "error" and new[1] == "ConeInputError"
        assert new == outcome(reference_extreme_rays, hs, dim)
        rays = ConeDescription(dim, rays=tuple(hs))
        assert (outcome(oracle.rays_to_facets, hs)
                == outcome(lambda c: list(reference_rays_to_facets(c).facets), rays))


def total_cone(n, scaled=False):
    """The projected total cone; ``scaled`` multiplies ray k by (k+1)/(k+2),
    so the rays have different denominators and span the same cone."""
    rays = [tuple(x * (Fraction(k + 1, k + 2) if scaled else 1) for x in r)
            for k, r in enumerate(hyper_total.cone(n).projected())]
    return ConeDescription(n + 1, rays=tuple(rays))


def broken_triangulations(n):
    """Per triangulation, with its label: itself, one simplex dropped, one
    duplicated, and one simplex of the other triangulation added (an
    overlap)."""
    first, second = hyper_total.triangulations(n)
    for own, other in ((first, second), (second, first)):
        extra = next(s for s in other.simplices if s not in own.simplices)
        for simplices in (own.simplices, own.simplices[1:],
                          own.simplices + own.simplices[:1], own.simplices + (extra,)):
            yield own.label, simplices


def proof_verdict(monkeypatch, n, label, simplices):
    """`verification.check_triangulations(n).ok` with ``simplices`` listed
    as the triangulation ``label`` and the other one as built."""
    tris = tuple(Triangulation(label, simplices, ()) if tri.label == label else tri
                 for tri in hyper_total.triangulations(n))
    with monkeypatch.context() as patch:
        patch.setattr(hyper_total, "triangulations", lambda n: tris)
        return verification.check_triangulations(n).ok


@pytest.mark.parametrize("n", range(3, 7))
@pytest.mark.parametrize("scaled", [False, True])
def test_triangulation_reports_are_identical(monkeypatch, n, scaled):
    # the reference's verdicts on the scaled and unscaled rays, and the
    # proof's on the total cone, are the same
    cone = total_cone(n, scaled)
    cases = list(broken_triangulations(n))
    reports = [reference_validate_triangulation(cone, simplices) for _, simplices in cases]
    expected = [True, False, False, False] * 2
    assert [r.valid for r in reports] == expected
    assert [proof_verdict(monkeypatch, n, *case) for case in cases] == expected


def test_a_coverage_failure_prints_the_cone_point():
    cone = total_cone(3, scaled=True)
    simplices = hyper_total.triangulations(3)[0].simplices[1:]
    problems = [p.detail for p in reference_validate_triangulation(cone, simplices).problems
                if p.detail.startswith("sampled")]
    assert problems
    assert all("Fraction(" in text for text in problems)


def test_a_degenerate_simplex_is_reported_as_before():
    cone = ConeDescription(3, rays=((1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)))
    for simplices, detail in (([(0, 1, 2)], "simplex (0, 1, 2) is not full-dimensional"),
                              ([(0, 1, 3), (0, 1)], "simplex (0, 1) has 2 rays, expected 3")):
        report = reference_validate_triangulation(cone, simplices)
        assert not report.valid
        assert [(p.kind, p.detail) for p in report.problems] == [("simplex", detail)]


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


def sign(x) -> int:
    return (x > 0) - (x < 0)


def random_entry(rng, kind):
    """A small entry, zero a third of the time, of the given kind: "int",
    "fraction" (denominators up to 6, so some are whole), or either."""
    if kind == "mixed":
        kind = rng.choice(("int", "fraction"))
    x = rng.choice((0, rng.randint(-9, 9), rng.randint(-10**12, 10**12)))
    return x if kind == "int" else Fraction(x, rng.randint(1, 6))


@pytest.mark.parametrize("kind", ["int", "fraction", "mixed"])
def test_primitive_is_its_fraction_body(kind):
    rng = random.Random(271)
    for _ in range(400):
        vec = [random_entry(rng, kind) for _ in range(rng.randint(1, 8))]
        for form in (tuple(vec), vec):
            expected = outcome(fraction_primitive, form)
            got = outcome(linalg.primitive, form)
            assert got == expected, form
            if got[0] == "value":
                assert type(got[1]) is tuple and all(type(x) is int for x in got[1])
    for zero in ((), (0,), (0, 0), (Fraction(0), 0), [Fraction(0)] * 3):
        assert outcome(linalg.primitive, zero) == outcome(fraction_primitive, zero) == (
            "error", "ValueError", "zero vector has no primitive representative")


def test_scaled_combination_has_the_signs_of_the_fraction_sum():
    rng = random.Random(272)
    zero_sums = 0
    for _ in range(300):
        dim, count = rng.randint(1, 6), rng.randint(1, 6)
        vectors = [[random_entry(rng, "mixed") for _ in range(dim)] for _ in range(count)]
        coeffs = [random_entry(rng, "mixed") for _ in range(count)]
        if rng.random() < 0.4:
            # make the last vector a combination of the others, and the
            # coefficients that relation, so every coordinate sums to 0
            mults = [random_entry(rng, "fraction") for _ in range(count - 1)]
            vectors[-1] = [sum((m * v[i] for m, v in zip(mults, vectors)), Fraction(0))
                           for i in range(dim)]
            coeffs = mults + [Fraction(-1)]
        exact = [sum((c * v[i] for c, v in zip(coeffs, vectors)), Fraction(0))
                 for i in range(dim)]
        got = linalg.scaled_combination(coeffs, vectors)
        assert all(type(x) is int for x in got) and list(map(sign, got)) == list(map(sign, exact))
        zero_sums += not any(exact)
    assert zero_sums > 100
    with pytest.raises(ValueError):
        linalg.scaled_combination((1, 2), [(1, 0)])


def dense_verdict(facets, rays) -> bool:
    return all(linalg.dot(f, r) >= 0 for r in rays for f in facets)


def test_all_nonnegative_is_the_dense_verdict_on_random_cones():
    rng = random.Random(273)
    verdicts = []
    for _ in range(600):
        dim = rng.randint(1, 7)
        # zero-heavy entries; nonnegative ones hold on every ray
        entries = (0, 0, 0, 1) + tuple(range(rng.choice((0, -1, -3)), 6))
        facets = [tuple(rng.choice(entries) for _ in range(dim))
                  for _ in range(rng.randint(0, 9))]
        rays = [tuple(rng.choice(entries) for _ in range(dim)) for _ in range(rng.randint(0, 9))]
        verdict = dense_verdict(facets, rays)
        assert linalg.all_nonnegative(facets, rays) is verdict, (facets, rays)
        verdicts.append(verdict)
    assert verdicts.count(True) > 150 and verdicts.count(False) > 150


def test_all_nonnegative_is_the_dense_verdict_with_a_facet_negated():
    for cone in sweep_cones():
        rays, facets = oracle._canonical(cone.projected()), oracle._canonical(cone.normals())
        assert linalg.all_nonnegative(facets, rays) is dense_verdict(facets, rays) is True
        for k, f in enumerate(facets):
            negated = facets[:k] + [tuple(-x for x in f)] + facets[k + 1:]
            assert linalg.all_nonnegative(negated, rays) is dense_verdict(negated, rays) is False
