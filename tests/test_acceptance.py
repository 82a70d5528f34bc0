"""Acceptance suite.

One test per criterion; every comparison is exact (tolerance 0), and each
test prints a single pass/fail line (run with `pytest -s` to see them on
success).  Random inputs are generated from fixed seeds so reruns are
byte-identical.
"""

import random
import time
from fractions import Fraction

from betticone import hyper_fixed, hyper_total, regular, verification
from betticone.hyper_fixed import FixedConeParams
from betticone.oracle import ConeDescription
from betticone.pure import DegreeSequence, herzog_kuhl, limit_gap
from betticone.sequences import BettiVector, embed

import reference_linalg
from reference_oracle import reference_validate_triangulation
from reference_sequences import constant_tail, evaluate, hk_residual, ray, rho_vector, tail_sum

DELTA = Fraction(1, 10)


class _report:
    def __init__(self, num, description):
        self.num = num
        self.description = description

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[acceptance] criterion {self.num:>2} {status}: {self.description}")
        return False


def _random_degrees(rng, lo, hi, count):
    return tuple(sorted(rng.sample(range(lo, hi + 1), count)))


def _closed_form_relation(n):
    # rays of one index parity on each side, the last finite ray absent;
    # normalized so the tau_inf[n-1] coefficient is +1
    coeffs = [Fraction(0)] * (n + 2)
    coeffs[n + 1] = Fraction(1)
    coeffs[n] = Fraction(-1)
    for position in range(0, n - 1):
        i = position - 1
        if i % 2 == (n - 1) % 2 and i <= n - 3:
            coeffs[position] = Fraction(1)
        elif i % 2 == n % 2 and i <= n - 4:
            coeffs[position] = Fraction(-1)
    return tuple(coeffs)


def test_criterion_1_regular_cone_equivalence():
    with _report(1, "regular cone: ray and facet presentations agree, "
                    "n = 0..8, within 10 s"):
        start = time.monotonic()
        for n in range(0, 9):
            assert verification.check_regular(n).ok, n
        assert time.monotonic() - start < 10


def test_criterion_2_total_cone_equivalence():
    with _report(2, "total cone: rays vs functionals agree and the ray "
                    "relation space is 1-dimensional with the expected "
                    "alternating relation, n = 2..8, within 30 s"):
        start = time.monotonic()
        for n in range(2, 9):
            assert verification.check_total(n).ok, n
            columns = hyper_total.ray_basis(n).projected()
            rows = [[col[i] for col in columns] for i in range(n + 1)]
            kernel = reference_linalg.nullspace(rows)
            assert len(kernel) == 1, n
            assert reference_linalg.linear_relation(n) == _closed_form_relation(n), n
        assert time.monotonic() - start < 30


def test_criterion_3_fixed_cone_equivalence():
    with _report(3, "fixed-multiplicity cone: ray span equals functional "
                    "cone, n = 2..6, d = 2..6, within 60 s"):
        start = time.monotonic()
        for n in range(2, 7):
            for d in range(2, 7):
                assert verification.check_fixed(n, d).ok, (n, d)
        assert time.monotonic() - start < 60


def test_criterion_4_hk_residuals():
    with _report(4, "pure-shape defining equations vanish exactly on 200 "
                    "random degree sequences (s <= n <= 8, |degrees| <= 50)"):
        rng = random.Random(20240404)
        for _ in range(200):
            n = rng.randint(0, 8)
            s = rng.randint(0, n)
            d = DegreeSequence(_random_degrees(rng, -50, 50, s + 1))
            v = herzog_kuhl(d, n)
            for k in range(s):
                assert hk_residual(v, d, k) == 0, (d.degrees, k)


def test_criterion_5_limit_convergence():
    with _report(5, "normalized pure shapes converge to the two-term rays: "
                    "gap(10t) <= gap(t)/2 for t in {10,100,1000}, n <= 6; "
                    "gap(j=0,t=10,n=2) = 1/10 exactly"):
        assert limit_gap(0, 10, 2) == Fraction(1, 10)
        for n in range(1, 7):
            for j in range(0, n):
                for t in (10, 100, 1000):
                    assert limit_gap(j, 10 * t, n) <= limit_gap(j, t, n) / 2, (n, j, t)


def test_criterion_6_decompose_round_trips():
    with _report(6, "1000 random nonnegative ray combinations per cone "
                    "family reconstruct exactly (regular: coefficients "
                    "recovered exactly)"):
        rng = random.Random(20240406)
        for _ in range(1000):
            n = rng.randint(0, 6)
            coeffs = tuple(Fraction(rng.randint(0, 9), rng.randint(1, 4))
                           for _ in range(n + 1))
            v = regular.cone(n).combine(coeffs)
            assert regular.decompose(v).a == coeffs
            assert regular.cone(n).combine(regular.decompose(v).a) == v

        for _ in range(1000):
            n = rng.randint(2, 6)
            basis = hyper_total.ray_basis(n)
            w = basis.combine([Fraction(rng.randint(0, 9)) for _ in basis.names])
            dec = hyper_total.decompose(w, n, 1 + rng.randint(0, 1))
            assert all(c >= 0 for c in dec.coefficients)
            assert basis.combine(dec.coefficients) == w

        for _ in range(1000):
            n = rng.randint(2, 6)
            d = rng.randint(2, 6)
            p = FixedConeParams(n, d)
            cone = hyper_fixed.cone(p)
            w = cone.combine([Fraction(rng.randint(0, 9)) for _ in cone.names])
            dec = hyper_fixed.decompose(w, p)
            assert all(c >= 0 for c in dec.coefficients)
            assert cone.combine(dec.coefficients) == w


def test_criterion_7a_spike_vector_is_depth_zero():
    with _report(7, "(a) plotted spike vector (delta = 1/10, n = 14): "
                    "member, realizable, depth 0, Cohen-Macaulay choice"):
        v = BettiVector.of([1 - DELTA / 2, 1] + [DELTA] * 6 + [4, 4]
                           + [DELTA] * 3 + [1, 1 - DELTA / 2])
        sc = regular.classify(v)
        assert sc.member_of_closure and sc.realizable
        assert sc.depth == 0 and sc.cm_choice_exists


def test_criterion_7b_oscillating_vector():
    with _report(7, "(b) oscillating coefficient family at n = 7, "
                    "delta = 1/10: expected entries, depth 0"):
        n = 7
        coeffs = [Fraction(0)] + [1 - DELTA / 2 if i % 3 == 0 else DELTA / 2
                                  for i in range(n)]
        v = regular.cone(n).combine(coeffs)
        assert v == BettiVector.of(
            ["19/20", "1", "1/10", "1", "1", "1/10", "1", "19/20"])
        sc = regular.classify(v)
        assert sc.realizable and sc.depth == 0


def test_criterion_7c_hypersurface_spike_vector():
    # The printed vector has sixteen meaningful leading entries (the last
    # head entry 6 + delta/2 sits at index 14, the constant 6 tail starts
    # at 15), so its stabilization index is 15, not 14: at n = 14 it
    # provably violates chi[13,14] >= 0 and chi[14,15] = 0, over any cone
    # presentation.  The stated n = 14 is satisfiable only by the variant
    # whose delta run is one shorter.  Both coherent readings are
    # verified, and the stated-but-inconsistent combination is pinned as a
    # non-member so the defect stays visible.  See the decisions ledger.
    with _report(7, "(c) eventually-constant spike vector: membership and "
                    "exact split at its stabilization dimension (printed "
                    "head: n = 15; one-shorter variant: n = 14); the "
                    "printed head at n = 14 is exactly non-member"):
        head = [DELTA / 2, 4, 4] + [DELTA] * 8 + [1, 1, DELTA, 6 + DELTA / 2]
        w = constant_tail(head, 6)
        assert hyper_total.facets_check(w, 15).ok
        v1, v2 = hyper_total.split(w, 15)
        assert tail_sum(hyper_total.phi(v1), embed(v2)) == w
        assert evaluate((0, 15, None), v1) == 0

        short = constant_tail(
            [DELTA / 2, 4, 4] + [DELTA] * 7 + [1, 1, DELTA, 6 + DELTA / 2], 6)
        assert hyper_total.facets_check(short, 14).ok
        v1s, v2s = hyper_total.split(short, 14)
        assert tail_sum(hyper_total.phi(v1s), embed(v2s)) == short

        stated = hyper_total.facets_check(w, 14)
        assert not stated.ok
        assert ("chi[13,14]", DELTA / 2 - 6) in stated.violations
        assert ("chi[14,15]", DELTA / 2) in stated.violations


def test_criterion_7d_non_closedness_witness():
    with _report(7, "(d) (1,1,1,1) at n = 3 is in the closure but not "
                    "realizable"):
        sc = regular.classify(BettiVector.of([1, 1, 1, 1]))
        assert sc.member_of_closure and not sc.realizable


def test_criterion_8_transform_identities():
    with _report(8, "prefix-sum transform: rho_i maps to the tail ray at i "
                    "(i <= n-1, n <= 8); 100 random full-length pure shapes "
                    "map into the total cone"):
        for n in range(1, 9):
            for i in range(0, n):
                expected = constant_tail((Fraction(0),) * i, 1)
                assert hyper_total.phi(rho_vector(i, n)) == expected, (n, i)
        rng = random.Random(20240408)
        for _ in range(100):
            n = rng.randint(2, 6)
            d = DegreeSequence(_random_degrees(rng, -40, 40, n + 1))
            image = hyper_total.phi(herzog_kuhl(d, n))
            assert hyper_total.facets_check(image, n).ok, d.degrees


def test_criterion_9_embedding_dimension_two_witnesses():
    with _report(9, "(1, d, d, ...) and (d-1, d, d, ...) are fixed-cone "
                    "members for d = 2..10 and sit on the expected facet"):
        for d in range(2, 11):
            p = FixedConeParams(2, d)
            w1 = constant_tail([1], d)
            w0 = constant_tail([d - 1], d)
            assert hyper_fixed.member(w1, p).ok, d
            assert hyper_fixed.member(w0, p).ok, d
            tau = ray("tau_d", 1, 2, d)  # w1 = d * tau, entry by entry past both heads
            assert all(w1.entry(k) == d * tau.entry(k) for k in range(tau.stab + 3))
            assert evaluate((0, 2, d), w1) == 0, d


def test_criterion_10_triangulation_validity():
    with _report(10, "both triangulations validate for n = 3..6; dropped "
                     "simplex fails coverage, added simplex fails overlap"):
        for n in range(3, 7):
            basis = hyper_total.ray_basis(n)
            cone = ConeDescription(n + 1, rays=tuple(basis.projected()))
            tris = hyper_total.triangulations(n)
            for tri in tris:
                report = reference_validate_triangulation(cone, tri)
                assert report.valid, (n, tri.label, report.problems)
            assert verification.check_triangulations(n).ok, n

            dropped = list(tris[0].simplices)[1:]
            report = reference_validate_triangulation(cone, dropped)
            assert not report.valid and "coverage" in {p.kind for p in report.problems}, n

            added = list(tris[0].simplices) + [tris[1].simplices[0]]
            report = reference_validate_triangulation(cone, added)
            assert not report.valid and "overlap" in {p.kind for p in report.problems}, n
