import random
from fractions import Fraction

import pytest

from betticone.errors import ConeInputError
from betticone.pure import (DegreeSequence, degree_family, herzog_kuhl, limit_gap,
                            normalize_at)
from betticone.sequences import BettiVector

from reference_linalg import nullspace
from reference_sequences import evaluate, hk_residual, rho_vector


def hk_by_linear_system(degrees: tuple[int, ...]) -> BettiVector:
    """Independent oracle: the defining equations sum_i (-1)^i d_i^k v_i = 0
    for k = 0..s-1 have a one-dimensional solution space; solve it by
    nullspace computation, oriented to make the first entry positive."""
    s = len(degrees) - 1
    rows = [[Fraction((-1) ** i) * (1 if k == 0 else degrees[i] ** k)
             for i in range(s + 1)] for k in range(s)]
    basis = nullspace(rows)
    assert len(basis) == 1
    vec = basis[0]
    if vec[0] < 0:
        vec = tuple(-x for x in vec)
    return BettiVector.of(vec)


class TestDegreeSequence:
    def test_strictly_increasing_required(self):
        with pytest.raises(ConeInputError):
            DegreeSequence((0, 0, 1))
        with pytest.raises(ConeInputError):
            DegreeSequence((3, 1))
        with pytest.raises(ConeInputError):
            DegreeSequence(())

    def test_s(self):
        assert DegreeSequence((0, 1, 3)).s == 2


class TestHerzogKuhl:
    def test_product_formula_012(self):
        # direct evaluation: 1/(1*2), 1/(1*1), 1/(2*1)
        v = herzog_kuhl(DegreeSequence((0, 1, 2)), 2)
        assert v.entries == (Fraction(1, 2), Fraction(1), Fraction(1, 2))

    def test_product_formula_013_padded(self):
        v = herzog_kuhl(DegreeSequence((0, 1, 3)), 3)
        assert v.entries == (Fraction(1, 3), Fraction(1, 2), Fraction(1, 6), 0)

    def test_two_term(self):
        for t in (1, 2, 9):
            v = herzog_kuhl(DegreeSequence((0, t)), 1)
            assert v.entries == (Fraction(1, t), Fraction(1, t))

    def test_dimension_guard(self):
        with pytest.raises(ConeInputError):
            herzog_kuhl(DegreeSequence((0, 1, 2)), 1)

    def test_against_linear_system_oracle(self):
        rng = random.Random(101)
        for _ in range(50):
            n = rng.randint(1, 7)
            s = rng.randint(1, n)
            degrees = tuple(sorted(rng.sample(range(-50, 51), s + 1)))
            v = herzog_kuhl(DegreeSequence(degrees), n)
            oracle = hk_by_linear_system(degrees)
            # the same shape: a positive multiple of the oracle's vector
            scale = v[0] / oracle[0]
            assert scale > 0 and v.entries[:s + 1] == tuple(scale * x for x in oracle.entries)
            # support and positivity of the padded vector
            assert all(v[i] > 0 for i in range(s + 1))
            assert all(v[i] == 0 for i in range(s + 1, n + 1))

    def test_shift_invariance(self):
        a = herzog_kuhl(DegreeSequence((0, 2, 7)), 2)
        b = herzog_kuhl(DegreeSequence((10, 12, 17)), 2)
        assert a == b


class TestResiduals:
    def test_zero_on_pure_vectors(self):
        d = DegreeSequence((0, 1, 3))
        v = herzog_kuhl(d, 3)
        assert hk_residual(v, d, 0) == 0
        assert hk_residual(v, d, 1) == 0

    def test_nonzero_on_non_pure(self):
        d = DegreeSequence((0, 1, 3))
        assert hk_residual(BettiVector.of([1, 1, 0, 0]), d, 1) == -1

    def test_zero_power_convention(self):
        d = DegreeSequence((0, 5))
        assert hk_residual(BettiVector.of([1, 1]), d, 0) == 0  # 0^0 = 1

    def test_random_sweep(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(0, 8)
            s = rng.randint(0, n)
            degrees = tuple(sorted(rng.sample(range(-50, 51), s + 1)))
            d = DegreeSequence(degrees)
            v = herzog_kuhl(d, n)
            for k in range(s):
                assert hk_residual(v, d, k) == 0


class TestDegreeFamily:
    def test_piecewise_formula(self):
        assert degree_family(1, 4, 4).degrees == (0, 4, 5, 9, 13)
        assert degree_family(0, 10, 2).degrees == (0, 1, 11)
        assert degree_family(2, 5, 3).degrees == (0, 5, 10, 11)

    def test_symbolic_shape_for_j1_n4(self):
        for t in (2, 3, 17):
            assert degree_family(1, t, 4).degrees == (0, t, t + 1, 2 * t + 1, 3 * t + 1)

    def test_parameter_guards(self):
        with pytest.raises(ConeInputError):
            degree_family(0, 1, 3)
        with pytest.raises(ConeInputError):
            degree_family(3, 5, 3)


class TestNormalizeAt:
    def test_examples(self):
        v = normalize_at(BettiVector.of(["1/11", "1/10", "1/110"]), 0)
        assert v.entries == (1, Fraction(11, 10), Fraction(1, 10))
        assert normalize_at(BettiVector.of([1, 2, 1]), 1).entries == (
            Fraction(1, 2), 1, Fraction(1, 2))

    def test_zero_pivot(self):
        with pytest.raises(ConeInputError):
            normalize_at(BettiVector.of([0, 1]), 0)


class TestLimitGap:
    def test_exact_value(self):
        # normalized vector is (1, 11/10, 1/10); entrywise gaps to (1,1,0)
        assert limit_gap(0, 10, 2) == Fraction(1, 10)

    def test_matches_the_distance_to_the_reference_ray(self):
        rng = random.Random("limit-gap")
        for _ in range(200):
            n = rng.randint(1, 12)
            j, t = rng.randint(0, n - 1), rng.randint(2, 10**6)
            v = normalize_at(herzog_kuhl(degree_family(j, t, n), n), j)
            target = rho_vector(j, n)
            assert limit_gap(j, t, n) == max(abs(a - b) for a, b in zip(v.entries, target.entries))

    def test_nonnegative(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randint(1, 5)
            j = rng.randint(0, n - 1)
            assert limit_gap(j, rng.randint(2, 30), n) >= 0

    def test_gap_shrinks_with_halving_margin(self):
        for n in range(1, 7):
            for j in range(n):
                gaps = [limit_gap(j, t, n) for t in (10, 100, 1000, 10000)]
                for before, after in zip(gaps, gaps[1:]):
                    assert after <= before / 2

    def test_normalized_pivot_is_one_and_next_tends_to_one(self):
        for n in (2, 4):
            for j in range(n):
                v = normalize_at(herzog_kuhl(degree_family(j, 1000, n), n), j)
                assert v[j] == 1
                assert abs(v[j + 1] - 1) < Fraction(1, 100)

    def test_family_vectors_live_on_alternating_sum_zero_hyperplane(self):
        for n in (1, 3, 5):
            for j in range(n):
                for t in (2, 11, 300):
                    v = herzog_kuhl(degree_family(j, t, n), n)
                    assert evaluate((0, n, None), v) == 0
