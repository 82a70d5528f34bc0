import gc
import random
import re
import tracemalloc
from fractions import Fraction

import pytest

from betticone import cli, cones, hyper_fixed, hyper_total, pure, regular, sequences, verification
from betticone.cones import Cone
from betticone.errors import (ConeInputError, InternalInconsistencyError, NotInConeError,
                              bounded)
from betticone.hyper_fixed import FixedConeParams
from betticone.sequences import BettiVector, TailPeriodicSequence, as_fraction, embed, rational_str

from reference_certificate import fraction_reconstructs
from reference_sequences import (constant_tail, evaluate, ray, rho_vector, row, tail_sum,
                                 unit_rays, window_values)


def reference_rays(family, n):
    """(name, ray) pairs built one by one with the reference `ray` and
    `rho_vector`: the ray lists the cones carried before the layout."""
    if family == "regular":
        return [(f"rho[{i}]", rho_vector(i, n)) for i in range(-1, n)]
    rho = [(f"rho[{i}]", ray("rho", i, n)) for i in range(-1, n - 1)]
    if family == "total":
        return rho + [(f"tau_inf[{i}]", ray("tau_inf", i, n)) for i in (n - 2, n - 1)]
    d = family
    tails = (n - 2, n - 1) if d > 2 else (n - 2,)
    return rho + [(f"tau_d[{i}]", ray("tau_d", i, n, d)) for i in tails]


def build(family, n):
    if family == "regular":
        return regular.cone(n)
    if family == "total":
        return hyper_total.cone(n)
    return hyper_fixed.cone(FixedConeParams(n, family))


def reference_combine(rays, coeffs):
    """The generic ray-object sum: ``coeffs[k] * rays[k]`` accumulated
    entry by entry over every ray, in the rays' own sequence type."""
    terms = [(c, r) for c, r in zip(map(as_fraction, coeffs), rays) if c != 0]
    if isinstance(rays[0], BettiVector):
        acc = [Fraction(0)] * len(rays[0].entries)
        for c, r in terms:
            for i, e in enumerate(r.entries):
                if e:
                    acc[i] += c * e
        return BettiVector(len(acc) - 1, tuple(acc))
    stab = max((r.stab for _, r in terms), default=0)
    acc = [Fraction(0)] * stab
    even = odd = Fraction(0)
    for c, r in terms:
        for i, e in enumerate(r.head):
            if e:
                acc[i] += c * e
        for i in range(r.stab, stab):  # r's tail inside the sum's head
            e = r.tail_even if i % 2 == 0 else r.tail_odd
            if e:
                acc[i] += c * e
        even += c * r.tail_even
        odd += c * r.tail_odd
    return TailPeriodicSequence(stab, tuple(acc), even, odd)


FAMILIES = ["regular", "total", *range(2, 9)]


def coordinates(w, n):
    """Entries 0..n of a reference ray, finite or tail-periodic."""
    return w.entries if isinstance(w, BettiVector) else w.prefix(n + 1)


@pytest.mark.parametrize("family", FAMILIES)
def test_layout_rays_match_the_ray_constructors(family):
    # the layout's two writers: `projected` rows and `combine` of a unit
    # coefficient vector, each against the reference rays
    for n in range(0 if family == "regular" else 2, 61):
        cone = build(family, n)
        expected = reference_rays(family, n)
        assert cone.names == tuple(name for name, _ in expected), (family, n)
        rows, units = cone.projected(), unit_rays(cone)
        assert len(rows) == len(units) == len(expected), (family, n)
        for row_got, got, (name, want) in zip(rows, units, expected):
            assert row_got == coordinates(want, n), (family, n, name)
            # an integer entry is an int, only a fractional corner a Fraction
            assert [type(x) for x in row_got] == [
                int if x.denominator == 1 else Fraction for x in row_got], (family, n, name)
            assert type(got) is type(want) and got == want, (family, n, name)


@pytest.mark.parametrize("family", FAMILIES)
def test_layout_combine_matches_the_ray_object_sum(family):
    rng = random.Random(f"layout-combine-{family}")
    ties = (Fraction(-1), Fraction(0), Fraction(1), Fraction(1, 2))
    for n in list(range(0 if family == "regular" else 2, 13)) + [20, 33, 48]:
        cone = build(family, n)
        rays = [r for _, r in reference_rays(family, n)]
        size = len(rays)
        vectors = [[0] * size, [-1] * size]
        vectors += [[int(k == p) for k in range(size)] for p in range(size)]
        vectors += [[rng.choice(ties) for _ in range(size)] for _ in range(6)]
        vectors += [[Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(size)]
                    for _ in range(6)]
        for coeffs in vectors:
            got = cone.combine(coeffs)
            want = reference_combine(rays, coeffs)
            assert type(got) is type(want) and got == want, (family, n, coeffs)


@pytest.mark.parametrize("family", FAMILIES)
def test_one_layout_sum_serves_combine_and_the_reconstruction_check(family):
    # _reconstructs sums integer coefficients over the corners' common
    # denominator s; combine sums Fractions: both are s times the same sum
    rng = random.Random(f"layout-sum-{family}")
    for n in list(range(0 if family == "regular" else 2, 9)) + [48]:
        cone = build(family, n)
        corners, s = cone._scaled_corners
        for _ in range(4):
            x = [rng.randint(-9, 9) for _ in cone.names]
            w = cone.combine(x)
            entries = w.entries if family == "regular" else w.prefix(n + 1)
            assert cone._layout_sum(x, corners, s) == [s * e for e in entries], (family, n, x)
            assert cone._reconstructs(w, cone._read(w), x, 1)


@pytest.mark.parametrize("family", ["regular", "total", 2, 3])
def test_a_wrong_solve_fails_the_reconstruction_check(monkeypatch, family):
    cone = build(family, 6)
    w = cone.combine([1] * len(cone.names))
    solve = Cone._solve

    def doubled(self, nums, q):
        x, q = solve(self, nums, q)
        return [2 * c for c in x], q
    monkeypatch.setattr(Cone, "_solve", doubled)
    with pytest.raises(InternalInconsistencyError, match="exact reconstruction"):
        cone.decompose(w)


@pytest.mark.parametrize("family", ["regular", "total", 2, 3])
def test_right_numerators_over_a_wrong_denominator_fail_the_reconstruction_check(
        monkeypatch, family):
    # the solve returns numerators over one denominator; the check must
    # catch a wrong denominator as it catches wrong numerators
    cone = build(family, 6)
    w = cone.combine([1] * len(cone.names))
    solve = Cone._solve

    def over_twice(self, nums, q):
        x, q = solve(self, nums, q)
        return x, 2 * q
    monkeypatch.setattr(Cone, "_solve", over_twice)
    with pytest.raises(InternalInconsistencyError, match="exact reconstruction"):
        cone.decompose(w)


@pytest.mark.parametrize("family", ["total", 2, 3])
@pytest.mark.parametrize("n", [6, 7])
def test_a_tail_that_is_not_flat_fails_the_reconstruction_check(family, n):
    # entries 0..n match the coefficients, but the point leaves entry n's
    # value past n: the other tail differs, or a head entry at n or n+1
    # does.  Membership refuses such a point first, so the check is
    # called directly.
    cone = build(family, n)
    w = cone.combine(range(1, len(cone.names) + 1))
    x, q = cones._over_common_denominator(cone.decompose(w).coefficients)
    head = w.prefix(n + 1)
    top = head[n]
    assert cone._reconstructs(w, cone._read(w), x, q)
    other = (top, top + 1) if n % 2 == 0 else (top + 1, top)  # entry n stays at top
    for bent in (TailPeriodicSequence(n, head[:n], *other),
                 TailPeriodicSequence(n + 1, head, top + 1, top + 1),
                 TailPeriodicSequence(n + 2, head + (top + 1,), top, top)):
        assert bent.prefix(n + 1) == head and bent.stab >= n
        assert not cone.member(bent)
        assert not cone._reconstructs(bent, cone._read(bent), x, q), bent
        assert not fraction_reconstructs(cone, bent, x, q)


def test_certificates_check_on_integers(monkeypatch):
    # decompose neither writes its ray sum with combine nor builds the
    # Fraction relation
    points = [(cone, cone.combine([1] * len(cone.names)))
              for cone in (regular.cone(6), hyper_total.cone(6), hyper_total.cone(2),
                           hyper_fixed.cone(FixedConeParams(6, 3)))]

    def refuse(*args):
        raise AssertionError("a Fraction sum or relation on the certificate path")
    monkeypatch.setattr(Cone, "combine", refuse)
    monkeypatch.setattr(Cone, "relation", property(refuse))
    for cone, w in points:
        for which in (1, 2):
            assert cone.decompose(w, which).coefficients


def test_a_cone_without_two_corners_has_no_relation():
    for cone, rays in ((regular.cone(4), 5), (hyper_fixed.cone(FixedConeParams(4, 2)), 5)):
        with pytest.raises(ConeInputError) as caught:
            cone.relation
        assert str(caught.value) == f"{cone.title} has no relation among {rays} rays"


def reference_value(cone, name, w):
    """A reported constraint's value read from its name, and whether the
    name is a flatness gap: chi[i,i+1] with i >= n in a tail cone, the
    gap w_i - w_(i+1); else the reference row's dot product."""
    kind, i, j = re.fullmatch(r"(chi|xi)\[(\d+),(\d+)\]", name).groups()
    i, j = int(i), int(j)
    if kind == "xi":
        return evaluate((i, j, cone.windows[-1][2]), w), False
    if cone.tail is not None and i >= cone.n and j == i + 1:
        here, after = w.prefix(i + 2)[i:]
        return here - after, True
    return evaluate((i, j, None), w), False


@pytest.mark.parametrize("family", ["regular", "total", *range(2, 7)])
def test_members_round_trip_and_a_pushed_window_is_rejected(family):
    rng = random.Random(f"pushed-window-{family}")
    ties = (Fraction(0), Fraction(0), Fraction(1), Fraction(1, 2), Fraction(3))
    for n in range(0 if family == "regular" else 2, 8):
        cone = build(family, n)
        all_windows = [window for c in (cone.within, cone) if c is not None
                       for window in c.windows]
        for _ in range(6):
            coeffs = [rng.choice(ties) for _ in cone.names]
            w = cone.combine(coeffs)
            assert cone.member(w), (family, n, coeffs)
            for which in (1, 2):
                dec = cone.decompose(w, which)
                assert min(dec.coefficients) >= 0 and cone.combine(dec.coefficients) == w
            if cone.core is not None and len(cone.core) == len(coeffs):
                assert list(dec.coefficients) == coeffs  # a simplicial cone's one answer
            # take enough off entry i that the window's value becomes -delta
            window = rng.choice(all_windows)
            i = window[0]
            delta = Fraction(rng.randint(1, 9), rng.randint(1, 4))
            step = -(evaluate(window, w) + delta) / row(window, n)[i]
            if isinstance(w, BettiVector):
                pushed = BettiVector(n, tuple(e + step * (k == i) for k, e in enumerate(w.entries)))
            else:
                pushed = tail_sum(w, TailPeriodicSequence(i + 1, (0,) * i + (step,), 0, 0))
            assert evaluate(window, pushed) == -delta
            with pytest.raises(NotInConeError) as caught:
                cone.decompose(pushed)
            violations = caught.value.violations
            assert violations == list(cone.member(pushed).violations)  # in report order
            assert cones.window_name(window) in [name for name, _ in violations]
            for name, value in violations:
                reference, flatness = reference_value(cone, name, pushed)
                assert value == reference, (family, n, name)
                assert value != 0 if flatness else value < 0, (family, n, name)
            name, value = violations[0]
            assert str(caught.value) == f"not in {cone.title}: {name} = {rational_str(value)}"


@pytest.mark.parametrize("family", ["regular", "total", 2, 5])
def test_positive_scaling_scales_the_certificate(family):
    rng = random.Random(f"scaled-{family}")
    for n in range(2, 8):
        cone = build(family, n)
        coeffs = [Fraction(rng.randint(0, 9)) for _ in cone.names]
        w = cone.combine(coeffs)
        lam = Fraction(rng.randint(1, 30), rng.randint(1, 30))
        for which in ("omit_odd", "omit_even"):
            dec = cone.decompose(w, which)
            scaled = cone.decompose(cone.combine([lam * c for c in coeffs]), which)
            assert scaled.simplex_used == dec.simplex_used, (family, n, which)
            assert scaled.coefficients == tuple(lam * c for c in dec.coefficients)


@pytest.mark.parametrize("family", ["regular", "total", 2, 5])
def test_a_negated_member_leaves_the_cone_unless_zero(family):
    rng = random.Random(f"negated-{family}")
    for n in range(2, 8):
        cone = build(family, n)
        zero = cone.combine((Fraction(0),) * len(cone.names))
        assert cone.member(zero)
        assert cone.decompose(zero).coefficients == (Fraction(0),) * len(cone.names)
        coeffs = [Fraction(rng.randint(1, 9)) for _ in cone.names]
        assert not cone.member(cone.combine([-c for c in coeffs])), (family, n)
        with pytest.raises(NotInConeError):
            cone.decompose(cone.combine([c * Fraction(-1, 3) for c in coeffs]))


@pytest.mark.parametrize("family", ["regular", "total", 2, 5])
def test_a_point_of_another_space_is_refused_naming_the_cone(family):
    rng = random.Random(f"space-{family}")
    for n in range(2, 8):
        cone = build(family, n)
        w = cone.combine([Fraction(rng.randint(0, 9)) for _ in cone.names])
        if family == "regular":  # the tail space, a longer and a shorter n
            others = [embed(w), BettiVector.of(w.entries + (1,)), BettiVector.of(w.entries[:-1])]
        else:
            others = [BettiVector.of(w.prefix(n + 1))]
        for other in others:
            for call in (cone.member, cone.decompose):
                with pytest.raises(ConeInputError) as caught:
                    call(other)
                assert not isinstance(caught.value, NotInConeError)
                assert str(caught.value).startswith(f"{cone.title} for n={n} needs "), (family, n)
        # a point of the cone's own space is read as before
        assert cone.member(w) and cone.combine(cone.decompose(w).coefficients) == w


def test_the_reported_wrong_space_calls_are_refused():
    finite, tail = "a finite sequence", "a tail-periodic sequence"
    calls = [
        (lambda: regular.cone(1).member(BettiVector.of([1, 1, -5, 7])),
         f"the regular cone for n=1 needs {finite} with n=1, got {finite} with n=3"),
        (lambda: regular.cone(3).member(embed(BettiVector.of([1, 1, 1, 1]))),
         f"the regular cone for n=3 needs {finite} with n=3, got {tail}"),
        (lambda: regular.cone(3).member(BettiVector.of([1, 1])),
         f"the regular cone for n=3 needs {finite} with n=3, got {finite} with n=1"),
        (lambda: hyper_total.cone(3).member(BettiVector.of([1, 1, 1, 1])),
         f"the total hypersurface cone for n=3 needs {tail}, got {finite} with n=3"),
        (lambda: hyper_total.decompose(BettiVector.of([1, 1, 1, 1]), 3),
         f"the total hypersurface cone for n=3 needs {tail}, got {finite} with n=3"),
        (lambda: hyper_fixed.member(BettiVector.of([1, 1, 1, 1]), FixedConeParams(3, 5)),
         f"the multiplicity-5 cone for n=3 needs {tail}, got {finite} with n=3"),
        (lambda: regular.cone(2).member((1, 2, 1)),
         f"the regular cone for n=2 needs {finite} with n=2, got (1, 2, 1)"),
        # the module wrappers that read v.n before building their cone
        (lambda: regular.decompose(embed(BettiVector.of([1, 1, 1]))),
         f"the regular cone needs {finite}, got {tail}"),
        (lambda: regular.classify(embed(BettiVector.of([1, 1, 1]))),
         f"the regular cone needs {finite}, got {tail}"),
        (lambda: regular.facet_violations(embed(BettiVector.of([1, 1, 1]))),
         f"the regular cone needs {finite}, got {tail}"),
        (lambda: regular.classify((1, 2, 1)), f"the regular cone needs {finite}, got (1, 2, 1)"),
        (lambda: hyper_total.phi(embed(BettiVector.of([1, 1, 1]))),
         "the transform applies to finite sequences"),
        (lambda: pure.normalize_at(embed(BettiVector.of([1, 1, 1])), 0),
         f"normalizing needs {finite}, got {tail}"),
    ]
    for call, message in calls:
        with pytest.raises(ConeInputError) as caught:
            call()
        assert str(caught.value) == message


def test_certificates_build_no_ray(monkeypatch):
    def refuse(*args):
        raise AssertionError("a ray was written out on the certificate path")
    monkeypatch.setattr(Cone, "projected", refuse)
    # Cone.projected writes the ray rows and Cone.combine every ray sum;
    # nothing else builds a ray
    assert not hasattr(Cone, "rays")
    assert not hasattr(sequences, "rho_vector") and not hasattr(sequences, "ray")
    n = 48
    w = hyper_total.cone(n).combine(list(range(1, n + 3)))
    for which in (1, 2):
        assert hyper_total.decompose(w, n, which).coefficients
        p = FixedConeParams(n, 3)
        assert hyper_fixed.decompose(hyper_fixed.cone(p).combine([1] * (n + 2)), p, which)
    v1, v2 = hyper_total.split(w, n)
    assert (v1.n, v2.n) == (n, n - 1)
    v = regular.cone(n).combine(list(range(n + 1)))
    assert regular.decompose(v).a == tuple(range(n + 1))
    payload = cli._certificate(regular.cone(n), v, 1)
    assert payload["coefficients"]["rho[47]"] == "48"


def test_certificates_build_one_simplex(monkeypatch):
    n = 48
    cases = [(cone, cone.combine([1 + k % 3 for k in range(n + 2)]))
             for cone in (hyper_total.cone(n), hyper_fixed.cone(FixedConeParams(n, 3)))]
    expected = [cone.decompose(w, which) for cone, w in cases for which in (1, 2)]

    def refuse(*args):
        raise AssertionError("a whole triangulation was built on the certificate path")
    monkeypatch.setattr(Cone, "triangulation", refuse)
    assert [cone.decompose(w, which) for cone, w in cases for which in (1, 2)] == expected


def test_membership_and_certificates_build_no_window_list(monkeypatch):
    # the total cone has about n^2/4 windows; member, decompose and split
    # decide from its n+2 spans and never write the list out
    n, p = 48, FixedConeParams(48, 3)
    bump = TailPeriodicSequence(n, (0,) * 4 + (-2,) + (0,) * (n - 6) + (-4,), 0, 0)
    points = []
    for cone in (hyper_total.cone(n), hyper_fixed.cone(p)):
        member = cone.combine([1 + k % 3 for k in range(n + 2)])
        points += [member, tail_sum(member, bump)]

    def answers():
        out = []
        for w in points:
            calls = [lambda: hyper_total.facets_check(w, n), lambda: hyper_fixed.member(w, p),
                     lambda: hyper_total.split(w, n)]
            calls += [lambda which=which: hyper_total.decompose(w, n, which) for which in (1, 2)]
            calls += [lambda which=which: hyper_fixed.decompose(w, p, which) for which in (1, 2)]
            for call in calls:
                try:
                    out.append(call())
                except NotInConeError as exc:
                    out.append((str(exc), exc.violations))
        return out
    expected = answers()
    reports = [a for a in expected if isinstance(a, cones.MembershipReport)]
    assert sum(map(bool, reports)) == 4 and any(len(r.violations) > 1 for r in reports)
    assert any(r.violations and r.violations[-1][0] == "chi[47,48]" for r in reports)

    def refuse(self):
        raise AssertionError("the window list was built on the membership path")
    monkeypatch.setattr(Cone, "windows", property(refuse))
    assert answers() == expected
    with pytest.raises(AssertionError, match="window list"):
        window_values(hyper_total.cone(n), (0,) * (n + 1))


def test_triangulation_input_handling():
    total = hyper_total.cone(4)
    assert total.triangulation(1) == total.triangulation("omit_odd")
    assert total.triangulation(2) == total.triangulation("omit_even")
    for which in (0, 3, -1, "omit_all", "", None):
        with pytest.raises(ConeInputError):
            total.triangulation(which)
    for cone in (regular.cone(4), hyper_fixed.cone(FixedConeParams(4, 2))):
        with pytest.raises(ConeInputError, match="no relation"):
            cone.triangulation(1)
    with pytest.raises(ConeInputError):
        hyper_total.triangulations(2)


def reference_normals(cone):
    """Each window's reference coefficient row on 0..n, the enclosing
    cone's first."""
    inherited = reference_normals(cone.within) if cone.within is not None else []
    return inherited + [row(window, cone.n) for window in cone.windows]


def test_normals_are_the_closed_form_functionals():
    cases = ([("regular", n) for n in range(12)] + [("total", n) for n in range(2, 12)]
             + [(d, n) for n in range(2, 7) for d in range(2, 8)])
    for family, n in cases:
        cone = build(family, n)
        normals = cone.normals()
        assert normals == reference_normals(cone), (family, n)
        assert all(type(x) is int for row in normals for x in row)


def misstate(monkeypatch, window_of, slip_of):
    """Patch the window evaluator, which membership, `Cone.normals` and
    `window_values` share, so that the window ``window_of(n)``, where it is evaluated on
    entries 0..n, reads ``slip_of(n)`` times entry n more than it is."""
    evaluate = cones._evaluate

    def misstated(windows, sums, entries):
        out = evaluate(windows, sums, entries)
        n = len(entries) - 1
        if (window := window_of(n)) in windows:
            out[windows.index(window)] += slip_of(n) * entries[n]
        return out
    monkeypatch.setattr(cones, "_evaluate", misstated)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_a_chi_slip_in_the_evaluator_fails_verify(monkeypatch, n):
    assert verification.check_regular(n).ok and verification.check_total(n).ok
    # chi[0,n] read as chi[0,n-1]: entry n's coefficient (-1)^n dropped
    misstate(monkeypatch, lambda n: (0, n, None), lambda n: -(-1) ** n)
    assert window_values(regular.cone(n), (0,) * n + (1,))[0] == 0
    assert not verification.check_regular(n).ok
    assert not verification.check_total(n).ok


@pytest.mark.parametrize("n", [2, 4, 6])
@pytest.mark.parametrize("d", [3, 5])
def test_an_xi_slip_in_the_evaluator_fails_verify(monkeypatch, n, d):
    assert verification.check_fixed(n, d).ok
    # xi[0,n]'s end coefficient read as d+1 (it is d-1 for n even, -1 for n odd)
    misstate(monkeypatch, lambda n: (0, n, d), lambda n: d + 1 - (d - 1 if n % 2 == 0 else -1))
    assert not verification.check_fixed(n, d).ok


def test_combine_edge_cases():
    cases = [(regular.cone(3), BettiVector(3, (0,) * 4), 4),
             (hyper_total.cone(3), constant_tail((), 0), 5),
             (hyper_fixed.cone(FixedConeParams(3, 4)), constant_tail((), 0), 5),
             (hyper_fixed.cone(FixedConeParams(3, 2)), constant_tail((), 0), 4)]
    for cone, zero, count in cases:
        assert len(cone.projected()) == len(cone.names) == count
        combined = cone.combine((Fraction(0),) * count)
        assert type(combined) is type(zero) and combined == zero
        for wrong in (count - 1, count + 1):
            with pytest.raises(ConeInputError):
                cone.combine((Fraction(1),) * wrong)


def test_not_in_cone_error_names_its_first_violation():
    violations = [("chi[0,1]", Fraction(-1, 2)), ("chi[1,1]", Fraction(-2))]
    err = NotInConeError.naming_first("the regular cone", violations)
    assert str(err) == "not in the regular cone: chi[0,1] = -1/2"
    assert err.violations == violations
    plain = NotInConeError("a message of the caller's own")
    assert str(plain) == "a message of the caller's own" and plain.violations == []
    with pytest.raises(InternalInconsistencyError):
        NotInConeError.naming_first("the regular cone", [])


def test_bounded_counts_digits_per_part():
    assert bounded("-123/45") == "-123/45"
    integer = "-" + "7" * 4000
    assert bounded(integer) == integer[:40] + "... (4000 digits)"
    fraction = "-" + "7" * 50 + "/" + "3" * 45
    assert bounded(fraction) == fraction[:40] + "... (50/45 digits)"


BUILDERS = (regular.cone, hyper_total.cone, hyper_fixed.cone)


def clear_cone_caches():
    for builder in BUILDERS:
        builder.cache_clear()


def test_each_builder_keeps_a_bounded_cache_and_shares_the_enclosing_cone():
    assert [builder.cache_info().maxsize for builder in BUILDERS] == [64] * 3
    for n, d in ((2, 2), (5, 3), (48, 7)):
        p = FixedConeParams(n, d)
        clear_cone_caches()
        assert hyper_fixed.cone(p).within is hyper_total.cone(n)  # fixed first
        clear_cone_caches()
        total = hyper_total.cone(n)
        assert hyper_fixed.cone(FixedConeParams(n, d)) is hyper_fixed.cone(p)
        assert hyper_fixed.cone(p).within is total
        assert regular.cone(n) is regular.cone(n) and regular.cone(n) is not total
    # 65 keys evict the least recently used one, which is then built anew
    clear_cone_caches()
    first = regular.cone(0)
    for n in range(1, 65):
        regular.cone(n)
    assert regular.cone.cache_info().currsize == 64 and regular.cone(0) is not first


def test_a_cached_cone_keeps_no_window_list():
    # the n = 500 total cone's 63,002 windows take about 5.9 MB as a list;
    # `window_values` writes them out and lets them go
    n = 500
    cone = hyper_total.cone(n)
    entries = tuple(range(n + 1))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert len(window_values(cone, entries)) == 63002
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 100_000, kept
    assert hyper_total.cone(n) is cone and not hasattr(cone, "__dict__")
    slots = [getattr(cone, name) for name in Cone.__slots__]
    assert all(len(value) <= n + 2 for value in slots if isinstance(value, tuple))


def cache_answers(family, n, clear):
    """The module functions' answers at (family, n) on seeded, tie-heavy
    and rational members and on a point with negative coefficients (a
    refusal is its message and violations), clearing every cone cache
    before each call when ``clear``."""
    rng = random.Random(f"cache-{family}-{n}")
    size = len(build(family, n).names)
    points = [build(family, n).combine(coeffs) for coeffs in (
        [rng.randint(0, 9) for _ in range(size)],
        [rng.choice((0, 0, 1, 1, 3)) for _ in range(size)],
        [Fraction(rng.randint(0, 9), rng.randint(1, 7)) for _ in range(size)],
        [rng.choice((0, 1, -1)) for _ in range(size)])]
    if family == "regular":
        calls = [regular.facet_violations, regular.decompose, regular.classify]
    elif family == "total":
        calls = [lambda w: hyper_total.cone(n).violations(w), lambda w: hyper_total.split(w, n)]
        calls += [lambda w, which=which: hyper_total.decompose(w, n, which) for which in (1, 2)]
    else:
        p = FixedConeParams(n, family)
        calls = [lambda w: hyper_fixed.cone(p).violations(w)]
        calls += [lambda w, which=which: hyper_fixed.decompose(w, p, which) for which in (1, 2)]
    out = []
    for w in points:
        for call in calls:
            if clear:
                clear_cone_caches()
            try:
                out.append(call(w))
            except NotInConeError as exc:
                out.append((str(exc), exc.violations))
    return out


@pytest.mark.parametrize("family", ["regular", "total", *range(2, 8)])
def test_a_warm_cache_answers_as_a_cleared_one(family):
    builder = {"regular": regular.cone, "total": hyper_total.cone}.get(family, hyper_fixed.cone)
    for n in range(2, 49):
        cleared = cache_answers(family, n, clear=True)
        misses = builder.cache_info().misses
        assert cache_answers(family, n, clear=False) == cleared, (family, n)
        assert builder.cache_info().misses == misses  # every warm call hit
    assert any(isinstance(answer, tuple) for answer in cleared)  # refusals were asked


def test_verify_answers_alike_from_a_warm_and_a_cleared_cache():
    clear_cone_caches()
    cleared = verification.run_sweep(8, 7)
    misses = [builder.cache_info().misses for builder in BUILDERS]
    assert verification.run_sweep(8, 7) == cleared and all(result.ok for result in cleared)
    assert [builder.cache_info().misses for builder in BUILDERS] == misses
