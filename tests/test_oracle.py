import pickle
import random
from fractions import Fraction

import pytest

from betticone import hyper_fixed, hyper_total, linalg, oracle, regular, verification
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


class TestValue:
    RAYS = ((1, 0, 0), (Fraction(1, 2), 1, 0), (0, 0, 3))

    def test_a_description_keeps_the_tuples_it_is_given(self):
        cone = ConeDescription(3, self.RAYS)
        assert (cone.dim, cone.rays, cone.facets) == (3, self.RAYS, None)
        assert all(got is given for got, given in zip(cone.rays, self.RAYS))
        # no coercion: integers stay integers, the one Fraction stays one
        assert [type(x) for r in cone.rays for x in r] == [int] * 3 + [Fraction] + [int] * 5
        by_facets = ConeDescription(3, facets=self.RAYS)
        assert by_facets.rays is None and by_facets.facets == self.RAYS

    def test_equality_hash_repr_and_pickle(self):
        cone = ConeDescription(3, rays=self.RAYS)
        twin = ConeDescription(3, [list(r) for r in self.RAYS])  # rows become tuples
        assert cone == twin and hash(cone) == hash(twin) and twin.rays == self.RAYS
        # equal numbers are equal coordinates, as in the tuples themselves
        assert cone == ConeDescription(3, tuple(tuple(map(Fraction, r)) for r in self.RAYS))
        assert cone != ConeDescription(3, facets=self.RAYS)
        assert cone != ConeDescription(3, self.RAYS[:2]) and cone != (3, self.RAYS, None)
        assert repr(cone) == f"ConeDescription(dim=3, rays={self.RAYS!r}, facets=None)"
        back = pickle.loads(pickle.dumps(cone))
        assert back == cone and back.rays == self.RAYS and type(back.rays[0][0]) is int
        with pytest.raises(AttributeError):
            cone.dim = 4

    @pytest.mark.parametrize("args, kwargs, text", [
        ((0,), {"rays": ((1,),)}, "ambient dimension must be positive"),
        ((13,), {"rays": ((1,) * 13,)}, "ambient dimension 13 exceeds the desk-scale cap 12"),
        ((3,), {}, "a cone needs rays or facets"),
        ((3, None, None), {}, "a cone needs rays or facets"),
        ((3,), {"rays": ((1, 0, 0), (1,))}, "every ray must have length 3"),
        ((3, ((1, 0, 0),)), {"facets": ((1, 0),)}, "every facet must have length 3")])
    def test_refusals_keep_their_texts(self, args, kwargs, text):
        with pytest.raises(ConeInputError) as caught:
            ConeDescription(*args, **kwargs)
        assert str(caught.value) == text


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
        by_rays, by_facets = verification._description_pair(cone, cone.projected())
        seen = scaled_tuples(monkeypatch)
        for call, supplied in ((lambda: oracle.cone_equal(by_rays, by_facets),
                                by_rays.rays + by_facets.facets),
                               (lambda: rays_to_facets(by_rays), by_rays.rays),
                               (lambda: facets_to_rays(by_facets), by_facets.facets),
                               (lambda: oracle.rank(by_rays.rays), by_rays.rays)):
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
