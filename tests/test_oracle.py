import random
from fractions import Fraction

import pytest

from betticone import linalg, oracle
from betticone.errors import ConeInputError
from betticone.oracle import ConeDescription, cone_equal, facets_to_rays, rays_to_facets

import reference_linalg
from reference_oracle import reference_validate_triangulation


def basis_rays(dim):
    return tuple(tuple(Fraction(int(i == j)) for j in range(dim)) for i in range(dim))


def random_pointed_cone(rng, dim, n_extra):
    # rays in the open positive orthant span a pointed, full-dimensional
    # cone; at most 8 rays in total
    while True:
        rays = [tuple(Fraction(rng.randint(1, 9)) for _ in range(dim))
                for _ in range(min(n_extra, 8 - dim))]
        rays += [tuple(Fraction(9 if i == j else 1) for j in range(dim))
                 for i in range(dim)]
        if reference_linalg.rank(rays) == dim:
            return ConeDescription(dim, rays=tuple(rays))


class TestRank:
    def test_matches_the_fraction_reference(self):
        rng = random.Random(31)
        values = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(40)]
        values += [Fraction(-1), Fraction(0), Fraction(1)] * 10  # tie-heavy
        deficient = 0
        for _ in range(300):
            dim, count = rng.randint(1, 7), rng.randint(0, 9)
            gens = [tuple(rng.choice(values) for _ in range(dim))
                    for _ in range(rng.randint(0, min(dim, count) + 1))]
            vectors = [tuple(sum((rng.randint(-3, 3) * g[i] for g in gens), Fraction(0))
                             for i in range(dim)) for _ in range(count)]
            expected = reference_linalg.rank(vectors)
            assert oracle.rank(vectors) == expected
            deficient += expected < min(dim, count)
        assert deficient > 50  # both kinds of input were drawn

    def test_full_rank_and_zero_inputs(self):
        assert oracle.rank(basis_rays(5)) == 5
        assert oracle.rank([(Fraction(0),) * 4] * 3) == 0
        assert oracle.rank([]) == 0


class TestOrthant:
    def test_rays_to_facets(self):
        cone = rays_to_facets(ConeDescription(3, rays=basis_rays(3)))
        assert sorted(cone.facets) == sorted(basis_rays(3))

    def test_facets_to_rays(self):
        cone = facets_to_rays(ConeDescription(3, facets=basis_rays(3)))
        assert sorted(cone.rays) == sorted(basis_rays(3))

    def test_self_equality(self):
        a = ConeDescription(4, rays=basis_rays(4))
        b = ConeDescription(4, facets=basis_rays(4))
        assert cone_equal(a, b)


class TestGuards:
    def test_dimension_cap(self):
        with pytest.raises(ConeInputError):
            ConeDescription(13, rays=basis_rays(13))

    def test_needs_some_presentation(self):
        with pytest.raises(ConeInputError):
            ConeDescription(3)

    def test_not_pointed_rejected(self):
        # halfspaces x0 >= 0 in Q^2: the cone contains the x1 axis line
        with pytest.raises(ConeInputError):
            facets_to_rays(ConeDescription(2, facets=((Fraction(1), Fraction(0)),)))

    def test_not_full_dimensional_rejected(self):
        with pytest.raises(ConeInputError):
            rays_to_facets(ConeDescription(
                2, rays=((Fraction(1), Fraction(0)),)))

    def test_mismatched_lengths(self):
        with pytest.raises(ConeInputError):
            ConeDescription(3, rays=((Fraction(1),),))


class TestDuality:
    def test_round_trip_random_cones(self):
        rng = random.Random(2024)
        for _ in range(50):
            dim = rng.randint(2, 6)
            cone = random_pointed_cone(rng, dim, rng.randint(1, 8 - dim + 1))
            completed = rays_to_facets(cone)
            back = facets_to_rays(ConeDescription(dim, facets=completed.facets))
            # the extreme rays are primitive generators that span the same cone
            assert {tuple(map(int, r)) for r in back.rays} <= {
                oracle.primitive(r) for r in cone.rays}
            assert cone_equal(cone, back)

    def test_every_output_facet_is_irredundant(self):
        rng = random.Random(77)
        for _ in range(15):
            dim = rng.randint(2, 4)
            cone = random_pointed_cone(rng, dim, rng.randint(1, 4))
            both = facets_to_rays(rays_to_facets(cone))
            facets, rays = list(both.facets), list(both.rays)
            for k in range(len(facets)):
                if len(facets) == dim:
                    break  # simplicial: dropping a facet unpoints the cone
                rest = facets[:k] + facets[k + 1:]
                try:
                    bigger = facets_to_rays(ConeDescription(dim, facets=tuple(rest)))
                except ConeInputError:
                    continue  # cone became unpointed: the facet was essential
                # some ray of the enlarged cone must violate the dropped facet
                dropped = facets[k]
                assert any(linalg.dot(dropped, r) < 0 for r in bigger.rays)
                assert sorted(tuple(map(int, r)) for r in bigger.rays) != sorted(rays)

    def test_output_ordering_is_deterministic(self):
        rays = (tuple(map(Fraction, (2, 1, 0))), tuple(map(Fraction, (0, 1, 1))),
                tuple(map(Fraction, (1, 0, 3))))
        first = rays_to_facets(ConeDescription(3, rays=rays)).facets
        second = rays_to_facets(ConeDescription(3, rays=tuple(reversed(rays)))).facets
        assert first == second
        assert list(first) == sorted(first)

    def test_redundant_generator_removed(self):
        # (1,1) is inside the cone of (1,0) and (0,1)
        cone = ConeDescription(2, rays=(
            (Fraction(1), Fraction(0)), (Fraction(1), Fraction(1)),
            (Fraction(0), Fraction(1))))
        assert list(facets_to_rays(rays_to_facets(cone)).rays) == [(0, 1), (1, 0)]


class TestConeEqual:
    def test_dim_mismatch(self):
        with pytest.raises(ConeInputError):
            cone_equal(ConeDescription(2, rays=basis_rays(2)),
                       ConeDescription(3, rays=basis_rays(3)))

    def test_strict_containment_is_not_equality(self):
        small = ConeDescription(2, rays=((Fraction(1), Fraction(0)),
                                         (Fraction(1), Fraction(1))))
        big = ConeDescription(2, rays=basis_rays(2))
        assert not cone_equal(small, big)
        assert cone_equal(big, ConeDescription(2, facets=basis_rays(2)))

    def test_finite_cone_differs_from_projected_tail_cone(self):
        # the tail rays break the ending-partial-Euler inequalities
        from betticone import hyper_total, regular
        n = 3
        finite = ConeDescription(
            n + 1, rays=tuple(regular.rays(n)))
        projected = ConeDescription(
            n + 1, rays=tuple(hyper_total.ray_basis(n).projected()))
        assert not cone_equal(finite, projected)


class TestValidateTriangulation:
    def setup_method(self):
        # square cone over the 4 rays of an orthant-like configuration:
        # rays of cone over a square in dim 3
        self.rays = (
            (Fraction(1), Fraction(0), Fraction(1)),
            (Fraction(0), Fraction(1), Fraction(1)),
            (Fraction(-1), Fraction(0), Fraction(1)),
            (Fraction(0), Fraction(-1), Fraction(1)),
        )
        self.cone = ConeDescription(3, rays=self.rays)

    def test_valid_split(self):
        report = reference_validate_triangulation(self.cone, [(0, 1, 2), (0, 2, 3)])
        assert report.valid, report.problems

    def test_other_diagonal_also_valid(self):
        report = reference_validate_triangulation(self.cone, [(0, 1, 3), (1, 2, 3)])
        assert report.valid, report.problems

    def test_dropped_simplex_is_coverage_failure(self):
        report = reference_validate_triangulation(self.cone, [(0, 1, 2)])
        assert not report.valid
        assert "coverage" in {p.kind for p in report.problems}

    def test_added_simplex_is_overlap_failure(self):
        report = reference_validate_triangulation(
            self.cone, [(0, 1, 2), (0, 2, 3), (0, 1, 3)])
        assert not report.valid
        assert "overlap" in {p.kind for p in report.problems}

    def test_degenerate_simplex_reported(self):
        collinear = ConeDescription(3, rays=self.rays + (
            (Fraction(2), Fraction(0), Fraction(2)),))
        report = reference_validate_triangulation(collinear, [(0, 2, 4)])
        assert not report.valid
        assert "simplex" in {p.kind for p in report.problems}

    def test_malformed_indices_raise(self):
        with pytest.raises(ConeInputError):
            reference_validate_triangulation(self.cone, [(0, 1, 9)])
        with pytest.raises(ConeInputError):
            reference_validate_triangulation(self.cone, [(0, 0, 1)])
