import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betticone import cones, hyper_total, oracle, sequences, verification
from betticone.cones import Cone, Triangulation
from betticone.errors import ConeInputError, InternalInconsistencyError, NotInConeError
from betticone.hyper_total import (decompose, facets_check, phi, ray_basis, split,
                                   triangulations)
from betticone.oracle import ConeDescription
from betticone.pure import DegreeSequence, herzog_kuhl
from betticone.sequences import BettiVector, TailPeriodicSequence, embed

from reference_certificate import fraction_split_reconstructs, misrelate
from reference_linalg import linear_relation, nullspace
from reference_oracle import reference_validate_triangulation
from reference_sequences import constant_tail, evaluate, ray, rho_vector, tail_sum

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=6)
DELTA = Fraction(1, 10)

# Head of the eventually-constant spike example: delta/2, two 4s, a run of
# deltas, two 1s, a delta, then 6 + delta/2 before the constant 6 tail.
INTRO_HEAD = ([DELTA / 2, 4, 4] + [DELTA] * 8 + [1, 1, DELTA, 6 + DELTA / 2])
INTRO_W = constant_tail(INTRO_HEAD, 6)
# Same pattern with a one-shorter delta run, which stabilizes one step earlier.
INTRO_W_SHORT = constant_tail(
    [DELTA / 2, 4, 4] + [DELTA] * 7 + [1, 1, DELTA, 6 + DELTA / 2], 6)


def random_member(rng, n, max_coeff=9):
    basis = ray_basis(n)
    coeffs = [Fraction(rng.randint(0, max_coeff)) for _ in basis.names]
    return basis.combine(coeffs), coeffs


class TestPhi:
    def test_prefix_sums(self):
        s = phi(BettiVector.of([1, 3, 3, 1]))
        assert s == constant_tail([1, 3], 4)

    def test_two_periodic_image(self):
        s = phi(BettiVector.of([1, 0, 0]))
        assert (s.stab, s.tail_even, s.tail_odd) == (0, 1, 0)
        assert s.prefix(5) == (1, 0, 1, 0, 1)

    def test_sends_two_term_rays_to_tail_rays(self):
        for n in range(1, 9):
            for i in range(0, n):
                expected = constant_tail((Fraction(0),) * i, 1)
                assert phi(rho_vector(i, n)) == expected

    @given(st.lists(rationals, min_size=2, max_size=8),
           rationals, rationals)
    @settings(max_examples=80)
    def test_linearity(self, entries, a, b):
        x = BettiVector.of(entries)
        y = BettiVector.of(list(reversed(entries)))
        image = phi(BettiVector.of([a * p + b * q for p, q in zip(x.entries, y.entries)]))
        # every image is 2-periodic from index n+1 on, so n+3 entries decide it
        assert all(image.entry(k) == a * phi(x).entry(k) + b * phi(y).entry(k)
                   for k in range(x.n + 3))

    @given(st.lists(rationals, min_size=1, max_size=9))
    def test_constant_tail_iff_alternating_sum_vanishes(self, entries):
        v = BettiVector.of(entries)
        image = phi(v)
        assert (image.tail_even == image.tail_odd) == (evaluate((0, v.n, None), v) == 0)


class TestRayBasis:
    def test_count_and_names(self):
        basis = ray_basis(4)
        assert len(basis.projected()) == 6
        assert basis.names == ("rho[-1]", "rho[0]", "rho[1]", "rho[2]",
                               "tau_inf[2]", "tau_inf[3]")

    def test_needs_n_at_least_two(self):
        with pytest.raises(ConeInputError):
            ray_basis(1)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_single_relation(self, n):
        columns = ray_basis(n).projected()
        rows = [[col[i] for col in columns] for i in range(n + 1)]
        assert len(nullspace(rows)) == 1


class TestFacetsCheck:
    def test_tail_ray_is_member(self):
        assert facets_check(ray("tau_inf", 1, 2), 2).ok

    def test_descending_tail_violates_adjacent_window(self):
        w = constant_tail([0, 1], 2)
        report = facets_check(w, 2)
        assert not report.ok
        assert ("chi[1,2]", Fraction(-1)) in report.violations

    def test_alternating_tail_violates_flatness(self):
        report = facets_check(phi(BettiVector.of([1, 0, 0])), 2)
        assert not report.ok
        assert any(name == "chi[2,3]" and value == 1
                   for name, value in report.violations)

    def test_dimension_guard(self):
        with pytest.raises(ConeInputError):
            facets_check(constant_tail((), 0), 1)

    def test_transform_of_pure_shapes_members(self):
        rng = random.Random(4)
        for _ in range(100):
            n = rng.randint(2, 6)
            degrees = tuple(sorted(rng.sample(range(-40, 41), n + 1)))
            image = phi(herzog_kuhl(DegreeSequence(degrees), n))
            assert facets_check(image, n).ok

    def test_intro_spike_vector(self):
        # As printed the head has 16 meaningful entries (indices 0..15), so
        # the cone with stabilization at 15 is the one containing it; at
        # n=14 the last head entry breaks both chi[13,14] >= 0 and the
        # flatness family.  See the n=15/n=14 pair below and the short
        # variant that stabilizes at 14.
        assert facets_check(INTRO_W, 15).ok
        report14 = facets_check(INTRO_W, 14)
        assert not report14.ok
        assert {name for name, _ in report14.violations} == {
            "chi[13,14]", "chi[14,15]"}
        assert facets_check(INTRO_W_SHORT, 14).ok


class TestLinearRelation:
    def test_small_cases(self):
        # both sides of each relation sum to the all-ones sequence
        assert linear_relation(3) == (-1, 1, 0, -1, 1)
        assert linear_relation(4) == (1, -1, 1, 0, -1, 1)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_closed_form(self, n):
        rel = linear_relation(n)
        assert rel[n + 1] == 1 and rel[n] == -1
        assert rel[n - 1] == 0  # the last finite ray never participates
        for position in range(0, n - 1):
            i = position - 1  # ray index of rho at this position
            if i % 2 == (n - 1) % 2 and i <= n - 3:
                assert rel[position] == 1
            elif i % 2 == n % 2 and i <= n - 4:
                assert rel[position] == -1
            else:
                assert rel[position] == 0

    @pytest.mark.parametrize("n", range(2, 9))
    def test_exactness(self, n):
        assert ray_basis(n).combine(linear_relation(n)) == constant_tail((), 0)


class TestTriangulations:
    def test_needs_n_at_least_three(self):
        with pytest.raises(ConeInputError):
            triangulations(2)

    def test_n3(self):
        t1, t2 = triangulations(3)
        basis = ray_basis(3)
        assert [basis.names[o] for o in t1.omitted] == ["rho[-1]", "tau_inf[1]"]
        assert [basis.names[o] for o in t2.omitted] == ["rho[0]", "tau_inf[2]"]
        assert t1.simplices == ((1, 2, 3, 4), (0, 1, 2, 4))

    def test_n4(self):
        t1, t2 = triangulations(4)
        basis = ray_basis(4)
        assert [basis.names[o] for o in t1.omitted] == [
            "rho[-1]", "rho[1]", "tau_inf[3]"]
        assert [basis.names[o] for o in t2.omitted] == ["rho[0]", "tau_inf[2]"]

    def test_n2_cone_keeps_the_two_sides_of_its_circuit(self):
        # rho[0] is outside the relation at n = 2, so "omit_even" is the
        # side opposite rho[-1]'s; certificates use the one simplex there
        basis = ray_basis(2)
        cone = ConeDescription(3, rays=tuple(basis.projected()))
        tris = [basis.triangulation(which) for which in (1, 2)]
        assert [tri.omitted for tri in tris] == [(0, 3), (2,)]
        assert tris[1].simplices == (basis.core,)
        for tri in tris:
            assert reference_validate_triangulation(cone, tri).valid, tri.label

    @pytest.mark.parametrize("n", range(3, 7))
    def test_oracle_validates_both(self, n):
        basis = ray_basis(n)
        cone = ConeDescription(n + 1, rays=tuple(basis.projected()))
        for tri in triangulations(n):
            report = reference_validate_triangulation(cone, tri)
            assert report.valid, (n, tri.label, report.problems)

    @pytest.mark.parametrize("n", range(3, 7))
    def test_swapping_tau_omissions_breaks_both(self, n):
        # each family must omit the rays of one side of the relation;
        # swapping the two tail omissions produces non-triangulations
        basis = ray_basis(n)
        cone = ConeDescription(n + 1, rays=tuple(basis.projected()))
        for tri in triangulations(n):
            swapped = [tuple(q for q in range(n + 2)
                             if q != (n + 1 if o == n else n if o == n + 1 else o))
                       for o in tri.omitted]
            report = reference_validate_triangulation(cone, swapped)
            assert not report.valid


def supported(dec):
    """A certificate's nonzero coefficients by ray name."""
    return {name: c for name, c in zip(dec.names, dec.coefficients) if c}


class TestDecompose:
    def test_example_certificate(self):
        w = tail_sum(tail_sum(ray("tau_inf", 1, 3), embed(rho_vector(0, 3))),
                     embed(rho_vector(0, 3)))
        for which in (1, 2):
            assert supported(decompose(w, 3, which)) == {"rho[0]": 2, "tau_inf[1]": 1}

    def test_shared_face_same_answer(self):
        w = tail_sum(embed(rho_vector(-1, 3)), ray("tau_inf", 2, 3))
        first = decompose(w, 3, "omit_odd")
        second = decompose(w, 3, "omit_even")
        assert first.coefficients == second.coefficients
        assert supported(first) == {"rho[-1]": 1, "tau_inf[2]": 1}

    def test_all_rays_combination_uses_at_most_n_plus_one(self):
        for n in (3, 4, 5):
            w = ray_basis(n).combine([1] * (n + 2))
            dec = decompose(w, n)
            assert sum(1 for c in dec.coefficients if c != 0) <= n + 1

    def test_round_trip_reconstruction(self):
        rng = random.Random(21)
        for _ in range(300):
            n = rng.randint(2, 6)
            w, _ = random_member(rng, n)
            for which in ("omit_odd", "omit_even"):
                dec = decompose(w, n, which)
                assert ray_basis(n).combine(dec.coefficients) == w
                assert all(c >= 0 for c in dec.coefficients)

    def test_n2_direct(self):
        w = tail_sum(ray("tau_inf", 0, 2), embed(rho_vector(0, 2)))
        dec = decompose(w, 2)
        assert dec.label == "simplicial"
        # tau_inf[0] itself is redundant: certificate uses rho[-1] + tau_inf[1]
        assert supported(dec) == {"rho[-1]": 1, "rho[0]": 1, "tau_inf[1]": 1}

    def test_not_in_cone(self):
        with pytest.raises(NotInConeError) as err:
            decompose(constant_tail([0, 1], 2), 2)
        assert err.value.violations

    def test_unknown_label(self):
        with pytest.raises(ConeInputError):
            decompose(ray("tau_inf", 1, 3), 3, "omit_everything")


class TestSplit:
    def test_pullback_of_tail_part(self):
        w = tail_sum(ray("tau_inf", 2, 3), embed(rho_vector(-1, 3)))
        v1, v2 = split(w, 3)
        assert v1 == rho_vector(2, 3)
        assert v2 == rho_vector(-1, 2)

    def test_finite_member_passes_through(self):
        inner = BettiVector.of([1, 4, 3])  # rho[0] + 3 rho[1]
        w = embed(BettiVector(3, inner.entries + (Fraction(0),)))
        v1, v2 = split(w, 3)
        assert v1.entries == (0,) * 4
        assert v2 == inner

    def test_pure_tail_ray(self):
        for n in (2, 4, 6):
            v1, v2 = split(ray("tau_inf", n - 1, n), n)
            assert v1 == rho_vector(n - 1, n)
            assert v2.entries == (0,) * n

    def test_transform_part_has_zero_alternating_sum(self):
        rng = random.Random(31)
        for _ in range(100):
            n = rng.randint(2, 6)
            w, _ = random_member(rng, n)
            v1, v2 = split(w, n)
            assert evaluate((0, n, None), v1) == 0
            assert tail_sum(phi(v1), embed(v2)) == w

    def test_intro_vector_splits(self):
        v1, v2 = split(INTRO_W, 15)
        assert tail_sum(phi(v1), embed(v2)) == INTRO_W
        v1s, v2s = split(INTRO_W_SHORT, 14)
        assert tail_sum(phi(v1s), embed(v2s)) == INTRO_W_SHORT
        with pytest.raises(NotInConeError):
            split(INTRO_W, 14)

    def test_split_checks_on_integers(self, monkeypatch):
        # neither the parts nor the pullback check go through a Fraction
        # sequence: no combine, transform or embedding, and the package
        # has no tail sum to call
        points = [(n, ray_basis(n).combine([1 + k % 3 for k in range(n + 2)]))
                  for n in (2, 3, 6, 48)] + [(15, INTRO_W)]
        expected = [split(w, n) for n, w in points]

        def refuse(*args):
            raise AssertionError("a Fraction sequence operation on split's path")
        monkeypatch.setattr(hyper_total, "phi", refuse)
        monkeypatch.setattr(sequences, "embed", refuse)
        monkeypatch.setattr(Cone, "combine", refuse)
        assert not hasattr(TailPeriodicSequence, "__add__")
        assert [split(w, n) for n, w in points] == expected

    @pytest.mark.parametrize("position", [0, 3, 4, 5])
    def test_a_wrong_certificate_fails_the_pullback_check(self, monkeypatch, position):
        # a coefficient off by one after the certificate's own check: a
        # rho coefficient moves v2, a tau coefficient v1
        w = ray_basis(4).combine([1] * 6)
        certificate = Cone._certificate

        def bumped(self, w, which):
            x, *rest = certificate(self, w, which)
            return [c + (k == position) for k, c in enumerate(x)], *rest
        monkeypatch.setattr(Cone, "_certificate", bumped)
        with pytest.raises(InternalInconsistencyError, match="^split failed exact reconstruction$"):
            split(w, 4)


def split_members(n):
    """Integer, tie-heavy and rational members of the total cone at n."""
    rng, basis = random.Random(f"split-{n}"), ray_basis(n)
    size = len(basis.names)
    return [basis.combine(coeffs) for coeffs in (
        [rng.randint(0, 9) for _ in range(size)],
        [rng.choice((0, 0, 1, 1, 3)) for _ in range(size)],
        [Fraction(rng.randint(0, 9), rng.randint(1, 7)) for _ in range(size)])]


@pytest.mark.parametrize("n", [*range(2, 13), 20, 33, 48])
def test_the_integer_pullback_check_agrees_with_the_fraction_one(n):
    for w in split_members(n):
        v1, v2 = split(w, n)
        nums, q = cones._over_common_denominator(v1.entries + v2.entries)
        x1, x2 = nums[:n + 1], nums[n + 1:]

        def agree(point, y1, y2, over, holds):
            parts = (BettiVector(n, [Fraction(c, over) for c in y1]),
                     BettiVector(n - 1, [Fraction(c, over) for c in y2]))
            got = hyper_total._pulls_back(point, point.prefix(n + 1), y1, y2, over)
            assert got == fraction_split_reconstructs(point, *parts) == holds, (n, point)

        agree(w, x1, x2, q, True)
        for k in range(n + 1):  # one numerator off by one, in either part
            for step in (1, -1):
                agree(w, [c + step * (m == k) for m, c in enumerate(x1)], x2, q, False)
                if k < n:
                    agree(w, x1, [c + step * (m == k) for m, c in enumerate(x2)], q, False)
        agree(w, x1, x2, q + 1, not any(nums))
        head, top = w.prefix(n + 1), w.entry(n)
        # a bent tail: entry n+1 leaves the tail, so stab = n+2, tails kept
        bent = TailPeriodicSequence(n + 2, head + (top + 1,), w.tail_even, w.tail_odd)
        # unequal tails: the one of n's parity (entry n is still in the
        # head, stab = n+1), then the other one
        other = [(top + 1, top), (top, top + 1)][n % 2]
        changed = [TailPeriodicSequence(n + 1, head, *other),
                   TailPeriodicSequence(n + 1, head, *other[::-1])]
        assert bent.stab == n + 2 and changed[0].stab == n + 1
        for point in [bent, *changed]:
            assert point.prefix(n + 1) == head
            agree(point, x1, x2, q, False)


class TestSweepIntegration:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_ray_facet_equivalence(self, n):
        assert verification.check_total(n).ok

    @pytest.mark.parametrize("n", [3, 6, 8])
    @pytest.mark.parametrize("wrong, detail", [
        ("flipped", "coefficient -1"), ("scaled", "coefficient 2"),
        ("partly_zeroed", "does not sum the rays to zero")])
    def test_a_wrong_closed_form_relation_fails(self, monkeypatch, n, wrong, detail):
        cone = hyper_total.cone.__wrapped__(n)  # a private cone, not the shared one
        relation = cone.relation
        misrelate(cone, {
            "flipped": tuple(-c for c in relation),
            "scaled": tuple(2 * c for c in relation),
            "partly_zeroed": tuple(Fraction(0) if k < 2 else c
                                   for k, c in enumerate(relation))}[wrong])
        monkeypatch.setattr(hyper_total, "cone", lambda n: cone)
        result = verification.check_total(n)
        assert not result.ok and result.name == f"total n={n}: ray relation"
        assert detail in result.detail

    @pytest.mark.parametrize("n", range(3, 9))
    def test_both_triangulations_are_proved(self, n):
        result = verification.check_triangulations(n)
        odd, even = triangulations(n)
        assert (result.ok, result.name, result.detail) == (
            True, f"total n={n}: triangulations",
            f"omit_odd: {len(odd.simplices)} simplices valid; "
            f"omit_even: {len(even.simplices)} simplices valid")

    @pytest.mark.parametrize("n", [3, 6, 8])
    @pytest.mark.parametrize("wrong, invalid", [
        ("dropped", ["omit_odd"]), ("other_side", ["omit_odd"]),
        ("labels_swapped", ["omit_even", "omit_odd"])])
    def test_a_wrong_triangulation_fails(self, monkeypatch, n, wrong, invalid):
        odd, even = triangulations(n)
        listed = {
            "dropped": (Triangulation(odd.label, odd.simplices[1:], odd.omitted[1:]), even),
            "other_side": (Triangulation(odd.label, odd.simplices[:-1] + even.simplices[:1],
                                         odd.omitted[:-1] + even.omitted[:1]), even),
            "labels_swapped": (Triangulation(even.label, odd.simplices, odd.omitted),
                               Triangulation(odd.label, even.simplices, even.omitted))}[wrong]
        monkeypatch.setattr(hyper_total, "triangulations", lambda n: listed)
        result = verification.check_triangulations(n)
        assert not result.ok
        assert [part.split(":")[0] for part in result.detail.split("; ")
                if part.endswith("INVALID")] == invalid

    @pytest.mark.parametrize("n", [3, 6, 8])
    @pytest.mark.parametrize("wrong, detail", [
        ("flipped", "coefficient -1"), ("one_sign_flipped", "does not sum the rays to zero")])
    def test_triangulations_fail_on_a_wrong_relation(self, monkeypatch, n, wrong, detail):
        cone = hyper_total.cone.__wrapped__(n)  # a private cone, not the shared one
        relation = cone.relation
        misrelate(cone, {
            "flipped": tuple(-c for c in relation),
            "one_sign_flipped": (-relation[0],) + relation[1:]}[wrong])
        monkeypatch.setattr(hyper_total, "cone", lambda n: cone)
        result = verification.check_triangulations(n)
        assert not result.ok and result.name == f"total n={n}: triangulations"
        assert detail in result.detail

    @pytest.mark.parametrize("n", [3, 6, 8])
    def test_triangulations_fail_on_a_perturbed_ray(self, monkeypatch, n):
        rays = ray_basis(n).projected()
        rays[1] = (rays[1][0] + 1,) + rays[1][1:]
        monkeypatch.setattr(Cone, "projected", lambda self: list(rays))
        result = verification.check_triangulations(n)
        assert not result.ok
        assert result.detail == "closed-form relation does not sum the rays to zero"

    @pytest.mark.parametrize("n", [3, 6, 8])
    def test_triangulations_need_rho_minus_1_on_a_side(self, monkeypatch, n):
        # rho[-1] and rho[n-2], which is outside the relation, trade places
        # in the rays and the relation: still the one relation, but rho[-1]'s
        # side, which "omit_odd" names, is empty
        cone = hyper_total.cone.__wrapped__(n)  # a private cone, not the shared one
        rays, relation = cone.projected(), list(cone.relation)
        for vectors in (rays, relation):
            vectors[0], vectors[n - 1] = vectors[n - 1], vectors[0]
        misrelate(cone, relation)
        monkeypatch.setattr(Cone, "projected", lambda self: list(rays))
        monkeypatch.setattr(hyper_total, "cone", lambda n: cone)
        result = verification.check_triangulations(n)
        assert not result.ok
        assert result.detail == "rho[-1]'s side of the relation or the other is empty"

    @pytest.mark.parametrize("n", [3, 6, 8])
    def test_rays_with_a_second_relation_fail(self, monkeypatch, n):
        # rho[n-2], outside the relation, replaced by a copy of rho[-1]: the
        # closed form still sums to zero, but the relation space is 2-dim
        rays = ray_basis(n).projected()
        rays[n - 1] = rays[0]
        monkeypatch.setattr(Cone, "projected", lambda self: list(rays))
        monkeypatch.setattr(oracle, "cone_equal", lambda a, b: True)
        result = verification.check_total(n)
        assert not result.ok
        assert result.detail == f"rays have rank {n}, expected {n + 1}"
