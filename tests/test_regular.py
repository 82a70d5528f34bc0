import random
from fractions import Fraction

import pytest

from betticone import oracle, regular, verification
from betticone.cones import Cone
from betticone.errors import NotInConeError
from betticone.oracle import ConeDescription
from betticone.sequences import BettiVector

from reference_certificate import fraction_classify_coefficients
from reference_sequences import coprime_entries, evaluate, rho_vector, row

DELTA = Fraction(1, 10)

# Plotted end-to-middle spike vector of length 15 (finite-length module shape).
SPIKE_14 = BettiVector.of(
    [1 - DELTA / 2, 1] + [DELTA] * 6 + [4, 4] + [DELTA] * 3 + [1, 1 - DELTA / 2])


def combine(n, coeffs):
    """sum_i coeffs[i] * rho[i-1], entry by entry over the reference rays."""
    rays = [rho_vector(i - 1, n) for i in range(n + 1)]
    return BettiVector(n, tuple(sum((c * r[k] for c, r in zip(coeffs, rays)), Fraction(0))
                                for k in range(n + 1)))


class TestFacetsAndRays:
    def test_facets_are_ending_partial_eulers(self):
        fs = regular.facets(2)
        assert fs == [(0, 2, None), (1, 2, None), (2, 2, None)]
        assert [row(f, 2) for f in fs] == [(1, -1, 1), (0, 1, -1), (0, 0, 1)]

    def test_degenerate_dimension(self):
        assert [row(f, 0) for f in regular.facets(0)] == [(1,)]
        assert regular.rays(0) == [(1,)]

    def test_rays_small(self):
        assert regular.rays(2) == [(1, 0, 0), (1, 1, 0), (0, 1, 1)]
        assert regular.rays(1) == [(1, 0), (1, 1)]

    @pytest.mark.parametrize("n", range(0, 9))
    def test_oracle_equivalence(self, n):
        rays = ConeDescription(n + 1, rays=tuple(regular.rays(n)))
        facets = ConeDescription(
            n + 1, facets=tuple(row(f, n) for f in regular.facets(n)))
        assert oracle.cone_equal(rays, facets)
        # and as canonical sets, each presentation derives the other exactly
        assert sorted(oracle.rays_to_facets(rays).facets) == sorted(
            oracle.primitive(row(f, n)) for f in regular.facets(n))
        assert sorted(oracle.facets_to_rays(facets).rays) == sorted(
            oracle.primitive(r) for r in regular.rays(n))

    def test_sweep_check_converts_once_and_keeps_both_checks(self, monkeypatch):
        calls = []
        convert = oracle._extreme_rays_from_halfspaces
        monkeypatch.setattr(oracle, "_extreme_rays_from_halfspaces",
                            lambda *args: calls.append(1) or convert(*args))
        assert verification.check_regular(8).ok
        assert len(calls) == 1  # rays to facets; the facet lists are compared

        def cone_with(windows):
            return lambda n: Cone("the regular cone", n, tuple(windows(n)))
        # chi[0,n-1] for chi[0,n]: another cone
        monkeypatch.setattr(regular, "cone", cone_with(
            lambda n: [(0, n - 1, None)] + [(j, n, None) for j in range(1, n + 1)]))
        assert not verification.check_regular(4).ok
        # a repeated facet: the same cone, but not the irredundant facet list
        monkeypatch.setattr(regular, "cone", cone_with(
            lambda n: [(0, n, None)] + [(j, n, None) for j in range(n + 1)]))
        assert not verification.check_regular(4).ok


class TestMember:
    def test_koszul(self):
        assert not regular.facet_violations(BettiVector.of([1, 3, 3, 1]))

    def test_negative_euler(self):
        assert regular.facet_violations(BettiVector.of([0, 1, 0]))

    def test_ray_combinations_always_member(self):
        rng = random.Random(5)
        for _ in range(100):
            n = rng.randint(0, 7)
            v = combine(n, [Fraction(rng.randint(0, 8), rng.randint(1, 3))
                            for _ in range(n + 1)])
            assert not regular.facet_violations(v)

    def test_perturbation_flips_membership(self):
        rng = random.Random(6)
        for _ in range(50):
            n = rng.randint(0, 6)
            coeffs = [Fraction(rng.randint(0, 5)) for _ in range(n + 1)]
            v = combine(n, coeffs)
            j = rng.randint(0, n)
            eps = Fraction(1, rng.randint(1, 9))
            pushed = combine(n, [c - (eps + coeffs[j] if i == j else 0)
                                 for i, c in enumerate(coeffs)])
            assert evaluate((j, n, None), pushed) == -eps
            assert regular.facet_violations(pushed)


class TestDecompose:
    def test_hand_examples(self):
        assert regular.decompose(BettiVector.of([1, 2, 1])).a == (0, 1, 1)
        assert regular.decompose(BettiVector.of([1, 3, 3, 1])).a == (0, 1, 2, 1)

    def test_ray_decomposes_to_itself(self):
        for n in (0, 3, 6):
            dec = regular.decompose(rho_vector(-1, n))
            assert dec.a == (1,) + (0,) * n

    def test_round_trip_exact(self):
        rng = random.Random(11)
        for _ in range(1000):
            n = rng.randint(0, 7)
            coeffs = tuple(Fraction(rng.randint(0, 9), rng.randint(1, 4))
                           for _ in range(n + 1))
            dec = regular.decompose(combine(n, coeffs))
            assert dec.a == coeffs
            assert regular.cone(n).combine(dec.a) == combine(n, coeffs)

    def test_alternating_sum_is_free_coefficient(self):
        rng = random.Random(12)
        for _ in range(50):
            n = rng.randint(0, 7)
            coeffs = tuple(Fraction(rng.randint(0, 9)) for _ in range(n + 1))
            v = combine(n, coeffs)
            assert evaluate((0, n, None), v) == regular.decompose(v).a_minus_1

    def test_non_member_raises_with_facet(self):
        with pytest.raises(NotInConeError) as err:
            regular.decompose(BettiVector.of([0, 1, 0]))
        assert ("chi[0,2]", Fraction(-1)) in err.value.violations


class TestClassify:
    def test_principal_quotient_shape(self):
        for n in (1, 4, 7):
            v = BettiVector(n, (Fraction(1), Fraction(1)) + (Fraction(0),) * (n - 1))
            sc = regular.classify(v)
            assert sc.realizable and sc.depth == n - 1 and sc.cm_choice_exists

    def test_interior_zero_blocks_realizability(self):
        sc = regular.classify(BettiVector.of([1, 1, 1, 1]))
        assert sc.member_of_closure and not sc.realizable and sc.depth is None
        assert sc.decomposition.a == (0, 1, 0, 1)

    def test_spike_vector_depth_zero(self):
        sc = regular.classify(SPIKE_14)
        assert sc.member_of_closure and sc.realizable
        assert sc.depth == 0 and sc.cm_choice_exists
        # coefficients re-derived by peeling chi[i+1,14] off the entries:
        # a_0 = 19/20, a_1..a_7 = 1/20, a_8 = 79/20, a_9..a_12 = 1/20,
        # a_13 = 19/20, with no free-ray part
        expected = (Fraction(0), Fraction(19, 20)) + (Fraction(1, 20),) * 7 + \
            (Fraction(79, 20),) + (Fraction(1, 20),) * 4 + (Fraction(19, 20),)
        assert sc.decomposition.a == expected

    def test_two_term_rays_are_closure_only(self):
        for n in (2, 5, 8):
            for j in range(1, n):
                sc = regular.classify(rho_vector(j, n))
                assert sc.member_of_closure and not sc.realizable

    def test_free_ray_realizable_depth_n(self):
        for n in (0, 3):
            sc = regular.classify(rho_vector(-1, n))
            assert sc.realizable and sc.depth == n and not sc.cm_choice_exists

    def test_zero_vector_convention(self):
        sc = regular.classify(BettiVector.of([0, 0, 0]))
        assert sc.member_of_closure and sc.realizable
        assert sc.depth is None and sc.cm_choice_exists

    def test_non_member(self):
        sc = regular.classify(BettiVector.of([0, 1, 0]))
        assert not sc.member_of_closure and not sc.realizable

    def test_oscillating_family(self):
        n = 7
        coeffs = [Fraction(0)] + [
            1 - DELTA / 2 if i % 3 == 0 else DELTA / 2 for i in range(n)]
        v = combine(n, coeffs)
        assert v == BettiVector.of(
            ["19/20", "1", "1/10", "1", "1", "1/10", "1", "19/20"])
        sc = regular.classify(v)
        assert sc.realizable and sc.depth == 0

    def test_depth_matches_positive_prefix(self):
        rng = random.Random(13)
        for _ in range(200):
            n = rng.randint(1, 7)
            m = rng.randint(-1, n - 1)
            coeffs = [Fraction(rng.randint(0, 3))] + \
                [Fraction(rng.randint(1, 5)) if i <= m else Fraction(0)
                 for i in range(n)]
            v = combine(n, coeffs)
            sc = regular.classify(v)
            if v.entries == (0,) * (n + 1):
                continue
            assert sc.realizable
            assert sc.depth == n - 1 - m


def _classify_points(n: int) -> list[BettiVector]:
    """Integer, tie-heavy and rational members of the regular cone at n,
    and each again with its coefficients at 0 and (n+1)//2 made negative:
    a non-member with one or two negative ray coefficients."""
    rng = random.Random(n)
    size = n + 1
    members = [[rng.randint(0, 9) for _ in range(size)],
               [int(k % 3 != 1) for k in range(size)],
               [Fraction(rng.randint(0, 9), rng.randint(1, 7)) for _ in range(size)]]
    points = []
    for coeffs in members:
        flipped = list(coeffs)
        for k in {0, size // 2}:
            flipped[k] = -1 - flipped[k]
        points += [regular.cone(n).combine(coeffs), regular.cone(n).combine(flipped)]
    return points


@pytest.mark.parametrize("n", [*range(13), 20, 33, 48])
def test_classify_coefficients_agree_with_the_fraction_listing(n):
    # classify solves on the integer read; the former listing evaluated
    # every chi[j,n] on the Fraction entries
    for v in _classify_points(n):
        sc = regular.classify(v)
        expected = fraction_classify_coefficients(v)
        assert sc.decomposition.a == expected
        assert sc.member_of_closure == all(c >= 0 for c in expected)
        assert sc.member_of_closure == regular.cone(n).member(v).ok


@pytest.mark.parametrize("n", [48, 200])
def test_classify_coefficients_on_the_coprime_point(n):
    v = BettiVector.of(coprime_entries(n))
    assert regular.classify(v).decomposition.a == fraction_classify_coefficients(v)


def test_classify_reads_no_window_values(monkeypatch):
    points = [v for n in (0, 1, 6, 48) for v in _classify_points(n)] + [SPIKE_14]
    expected = [regular.classify(v) for v in points]

    def refuse(*args):
        raise AssertionError("classify evaluated the windows on Fraction entries")
    monkeypatch.setattr(Cone, "values", refuse)
    assert [regular.classify(v) for v in points] == expected
