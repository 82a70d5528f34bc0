import random
from fractions import Fraction

import pytest

from betticone import hyper_fixed, hyper_total, oracle, verification
from betticone.errors import ConeInputError, NotInConeError
from betticone.hyper_fixed import FixedConeParams, decompose, member, rays
from betticone.sequences import TailPeriodicSequence, embed

from reference_certificate import misrelate
from reference_oracle import ConeDescription, reference_validate_triangulation
from reference_sequences import constant_tail, evaluate, ray, rho_vector, tail_sum, unit_rays


def tail_const(head, value):
    return constant_tail(head, value)


class TestParams:
    def test_validation(self):
        with pytest.raises(ConeInputError):
            FixedConeParams(1, 3)
        with pytest.raises(ConeInputError):
            FixedConeParams(3, 1)


class TestRays:
    def test_n2_d3(self):
        p = FixedConeParams(2, 3)
        listed = unit_rays(hyper_fixed.cone(p))
        assert ray("tau_d", 0, 2, 3) in listed and ray("tau_d", 1, 2, 3) in listed
        assert rays(p)[2] == (Fraction(2, 3), 1, 1)
        assert rays(p)[3] == (Fraction(1, 3), 1, 1)

    def test_d2_deduplicates(self):
        p = FixedConeParams(4, 2)
        listed = rays(p)
        assert len(listed) == 5  # n+1 instead of n+2
        assert hyper_fixed.cone(p).names == (
            "rho[-1]", "rho[0]", "rho[1]", "rho[2]", "tau_d[2]")
        assert listed[-1][2] == Fraction(1, 2)

    def test_every_ray_in_total_cone(self):
        for n in (2, 3, 5):
            for d in (2, 3, 7):
                for r in unit_rays(hyper_fixed.cone(FixedConeParams(n, d))):
                    assert hyper_total.facets_check(r, n).ok


class TestMember:
    def test_scaled_tail_ray(self):
        for d in range(2, 11):
            w = tail_const([1], d)  # (1, d, d, ...)
            assert member(w, FixedConeParams(2, d)).ok
            w0 = tail_const([d - 1], d)  # (d-1, d, d, ...)
            assert member(w0, FixedConeParams(2, d)).ok

    def test_zero_is_member(self):
        assert member(constant_tail((), 0), FixedConeParams(3, 2)).ok

    def test_total_tail_rays_excluded_at_small_multiplicity(self):
        p = FixedConeParams(3, 2)
        report = member(ray("tau_inf", 2, 3), p)
        assert not report.ok
        assert ("xi[1,3]", Fraction(-1)) in report.violations
        # the same for the sequence starting one step later
        report2 = member(tail_const([0, 0, 0], 1), p)
        assert not report2.ok
        assert ("xi[2,3]", Fraction(-1)) in report2.violations

    def test_xi_values_on_rays(self):
        # xi[0,2] at d=3 takes values (3, 0, 1, 0) on the four generators
        values = [evaluate((0, 2, 3), r) for r in unit_rays(hyper_fixed.cone(FixedConeParams(2, 3)))]
        assert values == [3, 0, 1, 0]


class TestDecompose:
    def test_ray_multiple(self):
        p = FixedConeParams(2, 3)
        dec = decompose(hyper_fixed.cone(p).combine((0, 0, 0, 3)), p)  # 3 * tau_d[1]
        assert dict(zip(dec.names, dec.coefficients)) == {
            "rho[-1]": 0, "rho[0]": 0, "tau_d[0]": 0, "tau_d[1]": 3}

    def test_two_ray_combination(self):
        p = FixedConeParams(2, 3)
        w = tail_sum(embed(rho_vector(-1, 2)), ray("tau_d", 0, 2, 3))
        dec = decompose(w, p)
        assert hyper_fixed.cone(p).combine(dec.coefficients) == w

    def test_round_trips(self):
        rng = random.Random(55)
        for _ in range(300):
            n = rng.randint(2, 6)
            d = rng.randint(2, 6)
            p = FixedConeParams(n, d)
            cone = hyper_fixed.cone(p)
            w = cone.combine([Fraction(rng.randint(0, 9)) for _ in cone.names])
            dec = decompose(w, p)
            assert all(c >= 0 for c in dec.coefficients)
            assert cone.combine(dec.coefficients) == w

    def test_not_in_cone(self):
        with pytest.raises(NotInConeError):
            decompose(ray("tau_inf", 2, 3), FixedConeParams(3, 2))

    @pytest.mark.parametrize("n", range(3, 7))
    @pytest.mark.parametrize("d", range(3, 8))
    def test_parity_triangulations_valid_for_fixed_rays(self, n, d):
        p = FixedConeParams(n, d)
        cone = ConeDescription(n + 1, rays=tuple(rays(p)))
        for label in ("omit_odd", "omit_even"):
            tri = hyper_fixed.cone(p).triangulation(label)
            report = reference_validate_triangulation(cone, tri)
            assert report.valid, (n, d, label, report.problems)


class TestContainment:
    def test_within_total(self):
        for n in (2, 4):
            total = hyper_total.cone(n)
            for d in (2, 5):
                for r in unit_rays(hyper_fixed.cone(FixedConeParams(n, d))):
                    assert total.member(r).ok, (n, d, r)

    def test_monotone_in_multiplicity(self):
        small = hyper_fixed.cone(FixedConeParams(3, 2))
        large = hyper_fixed.cone(FixedConeParams(3, 5))
        assert all(large.member(r).ok for r in unit_rays(small))
        # the merged d=2 tail ray splits evenly across the two d=5 tail rays
        assert small.names[-1] == "tau_d[1]"
        dec = large.decompose(unit_rays(small)[-1])
        assert {name: c for name, c in zip(dec.names, dec.coefficients) if c} == {
            "tau_d[1]": Fraction(1, 2), "tau_d[2]": Fraction(1, 2)}

    def test_larger_multiplicity_required(self):
        # the d=2 cone has one tail ray, with corner 1/2; the d=5 tail rays,
        # with corners 4/5 and 1/5, both lie outside it
        small = hyper_fixed.cone(FixedConeParams(3, 2))
        large = hyper_fixed.cone(FixedConeParams(3, 5))
        outside = [name for name, r in zip(large.names, unit_rays(large))
                   if not small.member(r).ok]
        assert outside == ["tau_d[1]", "tau_d[2]"]
        with pytest.raises(NotInConeError):
            small.decompose(unit_rays(large)[-1])

    def test_sweep_over_grid(self):
        for n in (2, 3, 4):
            for d in range(2, 6):
                for d2 in range(d, 7):
                    larger = hyper_fixed.cone(FixedConeParams(n, d2))
                    for r in unit_rays(hyper_fixed.cone(FixedConeParams(n, d))):
                        assert larger.member(r).ok, (n, d, d2, r)
                        larger.decompose(r)  # raises without an exact certificate


class TestSweepIntegration:
    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("d", range(2, 7))
    def test_ray_facet_equivalence(self, n, d):
        assert verification.check_fixed(n, d).ok

    @pytest.mark.parametrize("n", [3, 6])
    @pytest.mark.parametrize("d", [3, 6])
    @pytest.mark.parametrize("wrong, detail", [
        ("flipped", "coefficient -1"), ("scaled", "coefficient 2"),
        ("moved", "does not sum the rays to zero"), ("negated", "does not sum the rays to zero")])
    def test_a_wrong_closed_form_relation_fails(self, monkeypatch, n, d, wrong, detail):
        # "moved" (rho[-1]'s coefficient plus 1/d) and "negated" (rho[0]'s
        # sign flipped) keep the last coefficient 1, so only the zero sum,
        # on the relation's `Fraction`s, can catch them
        cone = hyper_fixed.cone.__wrapped__(FixedConeParams(n, d))  # not the shared one
        relation = cone.relation
        misrelate(cone, {
            "flipped": tuple(-c for c in relation),
            "scaled": tuple(2 * c for c in relation),
            "moved": (relation[0] + Fraction(1, d),) + relation[1:],
            "negated": relation[:1] + (-relation[1],) + relation[2:]}[wrong])
        monkeypatch.setattr(hyper_fixed, "cone", lambda p: cone)
        result = verification.check_fixed(n, d)
        assert not result.ok and result.name == f"fixed n={n} d={d}: ray relation"
        assert detail in result.detail

    def test_functional_list_recovers_exact_ray_list(self):
        # at n=3, d=3 every listed generator is extremal, so enumerating
        # the functional cone's rays must reproduce the list exactly
        from betticone.linalg import primitive
        n, d = 3, 3
        facets = hyper_fixed.cone(FixedConeParams(n, d)).normals()
        found = oracle._extreme_rays_from_halfspaces(oracle._canonical(facets), n + 1)
        expected = sorted(primitive(r) for r in rays(FixedConeParams(n, d)))
        assert found == expected


class TestSharedDriver:
    @pytest.mark.parametrize("which", [0, 3, "foo"])
    def test_bad_triangulation_choice(self, which):
        w = ray("tau_inf", 2, 3)
        with pytest.raises(ConeInputError):
            hyper_total.decompose(w, 3, which)
        with pytest.raises(ConeInputError):
            decompose(ray("tau_d", 2, 3, 3), FixedConeParams(3, 3), which)

    def test_violation_order(self):
        # chi windows, then flatness, then xi
        w = TailPeriodicSequence(4, (0, 0, 0, 1), Fraction(1), Fraction(2))
        report = member(w, FixedConeParams(3, 3))
        assert report.violations == (
            ("chi[2,3]", -1), ("chi[4,5]", -1), ("chi[5,6]", 1),
            ("xi[0,3]", -1), ("xi[2,3]", -1))
