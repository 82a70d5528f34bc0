import random
from fractions import Fraction

import pytest

from betticone import hyper_fixed, hyper_total, linalg, oracle, regular, verification
from betticone.errors import ConeInputError
from betticone.oracle import cone_equal, rays_to_facets

import reference_linalg
from reference_oracle import (ConeDescription, reference_cone_equal,
                              reference_validate_triangulation)


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
            return rays


def halfspace_rays(facets, dim):
    """The extreme rays of the pointed cone the facet normals cut out: the
    double description `rays_to_facets` runs on the dual cone."""
    return oracle._extreme_rays_from_halfspaces(oracle._canonical(facets), dim)


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
        assert rays_to_facets(basis_rays(3)) == sorted(basis_rays(3))

    def test_facets_to_rays(self):
        assert halfspace_rays(basis_rays(3), 3) == sorted(basis_rays(3))

    def test_self_equality(self):
        assert cone_equal(basis_rays(4), basis_rays(4))


def scaled_tuples(monkeypatch) -> list:
    """Record every tuple the oracle passes to `linalg.primitive`: the
    vectors it canonicalizes (its own steps pass lists)."""
    seen = []

    def primitive(vec):
        if type(vec) is tuple:
            seen.append(vec)
        return linalg.primitive(vec)
    monkeypatch.setattr(oracle, "primitive", primitive)
    return seen


class TestCanonicalOnce:
    @pytest.mark.parametrize("cone", [regular.cone(5), hyper_total.cone(6),
                                      hyper_fixed.cone(hyper_fixed.FixedConeParams(5, 3))],
                             ids=lambda c: c.title)
    def test_each_call_scales_each_supplied_vector_once(self, monkeypatch, cone):
        rays, normals = cone.projected(), cone.normals()
        seen = scaled_tuples(monkeypatch)
        for call, supplied in ((lambda: oracle.cone_equal(rays, normals), rays + normals),
                               (lambda: rays_to_facets(rays), rays),
                               (lambda: oracle.rank(rays), rays)):
            seen.clear()
            call()
            assert sorted(map(id, seen)) == sorted(map(id, supplied))

    def test_a_regular_check_scales_each_ray_and_normal_once(self, monkeypatch):
        seen = scaled_tuples(monkeypatch)
        monkeypatch.setattr(verification, "primitive", oracle.primitive)  # counted too
        assert verification.check_regular(8).ok
        assert len(seen) == 18  # the 9 rays in the conversion, the 9 normals compared

    def test_a_total_check_scales_each_ray_and_normal_once(self, monkeypatch):
        cone = hyper_total.cone(8)
        rays, normals = cone.projected(), cone.normals()
        seen = scaled_tuples(monkeypatch)
        assert verification.check_total(8).ok
        # cone_equal's rays and normals, then rank's rays
        assert (len(rays), len(normals)) == (10, 26) and len(seen) == 46


class TestGuards:
    @pytest.mark.parametrize("call, text", [
        (lambda: rays_to_facets(basis_rays(13)),
         "ambient dimension 13 exceeds the desk-scale cap 12"),
        (lambda: cone_equal(basis_rays(2), ((1,) * 13,)),
         "ambient dimension 13 exceeds the desk-scale cap 12"),
        (lambda: rays_to_facets(((1, 0, 0), (1,))), "every ray must have length 3"),
        (lambda: cone_equal(basis_rays(3), ((1, 0, 0), (1, 0))), "every facet must have length 3"),
        (lambda: cone_equal(basis_rays(3), ((1,),)),
         "cone comparison needs matching ambient dimensions"),
        (lambda: rays_to_facets(((1, 0),)),
         "cone is not full-dimensional; facet conversion is unsupported"),
        (lambda: rays_to_facets(()), "cone is not full-dimensional; facet conversion is unsupported"),
        (lambda: cone_equal(((0, 0), (0, 0)), basis_rays(2)),
         "cone is not full-dimensional; facet conversion is unsupported")],
        ids=["cap", "cap-facets", "ray-lengths", "facet-lengths", "dimensions",
             "lower-rank", "no-rays", "zero-rays"])
    def test_refusals_keep_their_texts(self, call, text):
        with pytest.raises(ConeInputError) as caught:
            call()
        assert str(caught.value) == text

    def test_dimension_cap(self):
        with pytest.raises(ConeInputError):
            rays_to_facets(basis_rays(13))

    def test_not_pointed_rejected(self):
        # halfspaces x0 >= 0 in Q^2: the cone contains the x1 axis line
        with pytest.raises(ConeInputError):
            halfspace_rays(((Fraction(1), Fraction(0)),), 2)

    def test_not_full_dimensional_rejected(self):
        with pytest.raises(ConeInputError):
            rays_to_facets(((Fraction(1), Fraction(0)),))

    def test_mismatched_lengths(self):
        with pytest.raises(ConeInputError):
            cone_equal(basis_rays(3), ((Fraction(1),),))


@pytest.mark.parametrize("call", [lambda: rays_to_facets(basis_rays(4)),
                                  lambda: cone_equal(basis_rays(4), basis_rays(4)),
                                  lambda: rays_to_facets(((1, 0, 0), (0, 1, 0)))],
                         ids=["rays_to_facets", "cone_equal", "lower-rank"])
def test_each_conversion_runs_one_elimination(monkeypatch, call):
    # the double description's starting basis is also the full-dimension check
    calls = []
    independent = oracle._independent
    monkeypatch.setattr(oracle, "_independent", lambda *a: calls.append(1) or independent(*a))
    try:
        call()
    except ConeInputError:
        pass
    assert len(calls) == 1


class TestDuality:
    def test_round_trip_random_cones(self):
        rng = random.Random(2024)
        for _ in range(50):
            dim = rng.randint(2, 6)
            cone = random_pointed_cone(rng, dim, rng.randint(1, 8 - dim + 1))
            facets = rays_to_facets(cone)
            back = halfspace_rays(facets, dim)
            # the extreme rays are primitive generators that span the same cone
            assert set(back) <= {oracle.primitive(r) for r in cone}
            assert cone_equal(cone, facets) and cone_equal(back, facets)
            assert rays_to_facets(back) == facets

    def test_every_output_facet_is_irredundant(self):
        rng = random.Random(77)
        for _ in range(15):
            dim = rng.randint(2, 4)
            cone = random_pointed_cone(rng, dim, rng.randint(1, 4))
            facets = rays_to_facets(cone)
            rays = halfspace_rays(facets, dim)
            for k in range(len(facets)):
                if len(facets) == dim:
                    break  # simplicial: dropping a facet unpoints the cone
                rest = facets[:k] + facets[k + 1:]
                try:
                    bigger = halfspace_rays(rest, dim)
                except ConeInputError:
                    continue  # cone became unpointed: the facet was essential
                # some ray of the enlarged cone must violate the dropped facet
                dropped = facets[k]
                assert any(linalg.dot(dropped, r) < 0 for r in bigger)
                assert sorted(bigger) != sorted(rays)

    def test_output_ordering_is_deterministic(self):
        rays = (tuple(map(Fraction, (2, 1, 0))), tuple(map(Fraction, (0, 1, 1))),
                tuple(map(Fraction, (1, 0, 3))))
        first = rays_to_facets(rays)
        second = rays_to_facets(tuple(reversed(rays)))
        assert first == second
        assert first == sorted(first)

    def test_redundant_generator_removed(self):
        # (1,1) is inside the cone of (1,0) and (0,1)
        cone = ((Fraction(1), Fraction(0)), (Fraction(1), Fraction(1)),
                (Fraction(0), Fraction(1)))
        assert halfspace_rays(rays_to_facets(cone), 2) == [(0, 1), (1, 0)]


class TestConeEqual:
    def test_dim_mismatch(self):
        with pytest.raises(ConeInputError):
            cone_equal(basis_rays(2), basis_rays(3))

    def test_strict_containment_is_not_equality(self):
        small = ((Fraction(1), Fraction(0)), (Fraction(1), Fraction(1)))
        big = basis_rays(2)
        assert not cone_equal(small, rays_to_facets(big))
        assert not cone_equal(big, rays_to_facets(small))
        assert cone_equal(big, basis_rays(2))

    def test_finite_cone_differs_from_projected_tail_cone(self):
        # the tail rays break the ending-partial-Euler inequalities
        n = 3
        finite = regular.rays(n)
        projected = hyper_total.ray_basis(n).projected()
        assert not cone_equal(finite, rays_to_facets(projected))

    def test_a_facet_list_with_a_line_is_answered(self):
        # the cone of these rays is the upper half-plane, which contains
        # the x0 axis; only the rays are converted, so the facet lists,
        # which the reference refuses as not pointed, are compared as given
        rays = ((1, 0), (-1, 0), (0, 1))
        for facet, equal in (((0, 1), True), ((1, 0), False)):
            assert cone_equal(rays, (facet,)) is equal
            with pytest.raises(ConeInputError, match="not pointed"):
                reference_cone_equal(ConeDescription(2, rays=rays),
                                     ConeDescription(2, facets=(facet,)))

    def test_a_ray_side_of_lower_rank_is_refused(self):
        # the facets cut out the ray (0, 1) alone, whose facets the one
        # conversion cannot list
        with pytest.raises(ConeInputError, match="not full-dimensional"):
            cone_equal(((0, 1),), ((1, 0), (-1, 0), (0, 1)))


@pytest.mark.parametrize("check, args", [(verification.check_regular, (8,)),
                                         (verification.check_total, (8,)),
                                         (verification.check_fixed, (5, 4))],
                         ids=["regular", "total", "fixed"])
def test_each_sweep_check_runs_one_double_description(monkeypatch, check, args):
    calls = []
    convert = oracle._extreme_rays_from_halfspaces
    monkeypatch.setattr(oracle, "_extreme_rays_from_halfspaces",
                        lambda *a: calls.append(1) or convert(*a))
    assert check(*args).ok
    assert len(calls) == 1


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
