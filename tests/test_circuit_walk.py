"""The fast certificate and membership paths against slow references.

`reference_decompose` is the simplex search that `Cone.decompose` used
before the circuit walk: solve each simplex of the triangulation in turn
with dense elimination and keep the first nonnegative solution.
`reference_violations` evaluates the reference row of every window in
`Cone.windows` one by one, and `listing` is the full `Cone.values`
listing, which membership reads only from the starts it finds crossed.
They must agree exactly with the fast paths, tie-breaking and report
order included.  `reference_omitted` is
the index-label parity rule that defined the two triangulations before
`Cone.triangulation` read them off the signs of the ray relation, and
`fraction_decompose` the `Fraction` solve and ratio test that the
integer certificate replaced, and `fraction_reconstructs` the `Fraction`
reconstruction check that the integer one replaced.
"""

import random
from fractions import Fraction

import pytest

from betticone import cones, hyper_fixed, hyper_total, linalg, regular
from betticone.cones import Triangulation, window_name
from betticone.hyper_fixed import FixedConeParams
from betticone.sequences import BettiVector, TailPeriodicSequence

from reference_certificate import fraction_decompose, fraction_reconstructs
from reference_linalg import linear_relation, solve_columns
from reference_sequences import constant_tail, evaluate, primes, row

CONES = {"total": hyper_total.cone,
         **{f"fixed_d{d}": (lambda n, d=d: hyper_fixed.cone(FixedConeParams(n, d)))
            for d in range(2, 7)}}


def reference_decompose(cone, w, which):
    """(label, simplex_used, coefficients) by trying every simplex."""
    tri = (cone.triangulation(which) if cone.core is None
           else Triangulation("simplicial", (cone.core,), ()))
    projected = cone.projected()
    target = w.prefix(cone.n + 1)
    for simplex in tri.simplices:
        sol = solve_columns([projected[k] for k in simplex], target)
        if sol is not None and all(c >= 0 for c in sol):
            break
    else:
        raise AssertionError("no nonnegative simplex")
    coeffs = [Fraction(0)] * len(cone.names)
    for k, c in zip(simplex, sol):
        coeffs[k] = c
    return tri.label, simplex, tuple(coeffs)


def reference_violations(cone, w):
    """The enclosing cone's violations, then every negative value of this
    cone's own windows, then each nonzero flatness gap of a tail cone
    not cut from another."""
    out = reference_violations(cone.within, w) if cone.within is not None else []
    for i, j, d in cone.windows:
        name = window_name((i, j, d))
        value = evaluate((i, j, d), w)
        if value < 0:
            out.append((name, value))
    if cone.tail is not None and cone.within is None:
        last = max(cone.n, w.stab) + 2
        out += [(window_name((i, i + 1, None)), w.entry(i) - w.entry(i + 1))
                for i in range(cone.n, last) if w.entry(i) != w.entry(i + 1)]
    return out


def coefficients(rng, kind, count):
    if kind == "integer":
        return [rng.randint(0, 9) for _ in range(count)]
    if kind == "ties":  # many zeros and equal ratios: points on shared faces
        return [rng.choice((0, 0, 1, 2)) for _ in range(count)]
    return [Fraction(rng.randint(0, 9), rng.randint(1, 7)) for _ in range(count)]


KINDS = ("integer", "ties", "rational")


@pytest.mark.parametrize("name", list(CONES))
def test_certificates_match_the_simplex_search(name):
    rng = random.Random(f"circuit-walk-{name}")
    index = list(CONES).index(name)
    # every kind at n <= 12; one kind per larger n, rotating over the
    # cones, keeps the dense reference (up to a second a member at
    # n = 48) affordable
    cases = [(n, kind) for n in range(2, 13) for kind in KINDS]
    cases += [(n, KINDS[(index + n // 8) % 3]) for n in (16, 24, 32, 48)]
    for n, kind in cases:
        cone = CONES[name](n)
        coeffs = coefficients(rng, kind, len(cone.names))
        if kind == "rational":  # a rational multiple of the combination
            lam = Fraction(rng.randint(1, 30), rng.randint(1, 30))
            coeffs = [lam * c for c in coeffs]
        w = cone.combine(coeffs)
        for which in ("omit_odd", "omit_even"):
            dec = cone.decompose(w, which)
            assert (dec.label, dec.simplex_used, dec.coefficients) == \
                reference_decompose(cone, w, which), (name, n, kind, which)


def point(cone, head):
    """Entries 0..n as a point of the cone's space: the finite vector, or
    flat from n on."""
    if cone.tail is None:
        return BettiVector(cone.n, tuple(head))
    return constant_tail(head[:cone.n], head[cone.n])


def coprime_member(rng, cone):
    """A member whose entries have pairwise-coprime denominators: entry k
    moved off an integer by a fraction of the k-th prime in [0, 1).  The
    regular cone's entries fall by 2 a step, so each chi[j,n] is a sum of
    pairs above 1; a tail cone's are level at 2(n+1) with entry n an
    integer, so every window is far from 0 and chi[n-1,n] is not
    negative."""
    n = cone.n
    moves = [Fraction(rng.randrange(p), p) for p in primes(n)] + [Fraction(0)]
    base = ([2 * (n + 1 - k) for k in range(n + 1)] if cone.tail is None
            else [2 * (n + 1)] * (n + 1))
    return point(cone, [b + m for b, m in zip(base, moves)])


LISTED_CONES = {"total": hyper_total.cone,
                **{f"fixed_d{d}": (lambda n, d=d: hyper_fixed.cone(FixedConeParams(n, d)))
                   for d in (2, 3, 7)}}
CERTIFIED_CONES = {"regular": regular.cone, **LISTED_CONES}
POINT_KINDS = ("integer", "ties", "single_scale", "coprime")


@pytest.mark.parametrize("name", list(CERTIFIED_CONES))
def test_integer_certificates_match_the_fraction_certificate(name):
    # coefficients, simplex and label against the Fraction solve and
    # ratio test; tie-heavy members lie on faces the two triangulations
    # share, where the first omitted position must win
    rng = random.Random(f"integer-core-{name}")
    low = 0 if name == "regular" else 2
    kinds = dict.fromkeys(POINT_KINDS, 0)
    for n in list(range(low, 61)) + [200, 500]:
        cone = CERTIFIED_CONES[name](n)
        for kind in POINT_KINDS:
            if kind == "coprime":
                w = coprime_member(rng, cone)
            else:
                coeffs = coefficients(rng, "ties" if kind == "ties" else "integer",
                                      len(cone.names))
                if kind == "single_scale":  # entries over one denominator
                    den = rng.randint(2, 30)
                    coeffs = [Fraction(c, den) for c in coeffs]
                w = cone.combine(coeffs)
            assert cone.member(w), (name, n, kind)
            for which in ("omit_odd", "omit_even"):
                dec = cone.decompose(w, which)
                got = (dec.label, dec.simplex_used, dec.coefficients)
                assert got == fraction_decompose(cone, w, which), (name, n, kind, which)
                assert all(type(c) is Fraction for c in dec.coefficients)
            kinds[kind] += 1
    assert min(kinds.values()) > 60, kinds


@pytest.mark.parametrize("name", ["regular", "total", "fixed_d2", "fixed_d3"])
def test_the_integer_reconstruction_check_matches_the_fraction_check(name):
    # on the true coefficients, on one perturbed numerator and on the
    # right numerators over a wrong denominator, the check on integers
    # must judge as the Fraction sum compared with the point does
    rng = random.Random(f"reconstruction-{name}")
    low = 0 if name == "regular" else 2
    verdicts = []
    for n in list(range(low, 13)) + [20, 33, 48]:
        cone = CERTIFIED_CONES[name](n)
        for kind in KINDS:
            w = cone.combine(coefficients(rng, kind, len(cone.names)))
            x, q = cones._over_common_denominator(cone.decompose(w).coefficients)
            perturbed = list(x)
            perturbed[rng.randrange(len(x))] += rng.choice((-1, 1))
            for numerators, denominator in ((x, q), (perturbed, q), (x, q + 1)):
                got = cone._reconstructs(w, cone._read(w), numerators, denominator)
                assert got == fraction_reconstructs(cone, w, numerators, denominator), \
                    (name, n, kind, numerators, denominator)
                verdicts.append(got)
    assert True in verdicts and False in verdicts


def test_certificates_solve_no_dense_system(monkeypatch):
    def refuse(*args):
        raise AssertionError("linalg on the certificate path")
    for attr in ("dot", "primitive"):
        monkeypatch.setattr(linalg, attr, refuse)
    for name, build in CONES.items():
        for n in (2, 3, 8):
            cone = build(n)
            w = cone.combine([1] * len(cone.names))
            for which in (1, 2):
                assert cone.decompose(w, which).coefficients


def reference_omitted(n, label):
    """The positions a triangulation omits by index-label parity: the ray
    at position p <= n-1 has label p-1, the tail rays at n and n+1 have
    n-2 and n-1, and position n-1 is never omitted.  "omit_odd" omits the
    odd labels, "omit_even" the even ones."""
    def index_label(p):
        return p - 1 if p <= n - 1 else (n - 2 if p == n else n - 1)
    parity = 1 if label == "omit_odd" else 0
    return tuple(p for p in range(n + 2) if p != n - 1 and index_label(p) % 2 == parity)


def test_triangulations_are_the_two_sides_of_the_relation():
    cones = [hyper_total.cone(n) for n in range(3, 61)]
    cones += [hyper_fixed.cone(FixedConeParams(n, d)) for d in range(3, 9) for n in range(3, 31)]
    for cone in cones:
        relation, sides = cone.relation, []
        for label in ("omit_odd", "omit_even"):
            omitted = cone.triangulation(label).omitted
            assert omitted == reference_omitted(cone.n, label), (cone.title, cone.n, label)
            assert len({relation[p] > 0 for p in omitted}) == 1, (cone.title, cone.n, label)
            sides.append(set(omitted))
        assert not sides[0] & sides[1], (cone.title, cone.n)
        assert sides[0] | sides[1] == {p for p, r in enumerate(relation) if r}, \
            (cone.title, cone.n)


@pytest.mark.parametrize("n", range(2, 13))
def test_closed_form_relation(n):
    assert hyper_total.cone(n).relation == linear_relation(n)
    for d in range(3, 7):
        cone = hyper_fixed.cone(FixedConeParams(n, d))
        assert cone.combine(cone.relation) == constant_tail((), 0)
        assert {abs(c) for c in cone.relation[:n - 1]} == {Fraction(d - 2, d)}


def _probes(rng, cone):
    """Members, members moved off one coordinate, and sequences that are
    not flat past n (stab > n)."""
    n = cone.n
    for kind in KINDS:
        w = cone.combine(coefficients(rng, kind, len(cone.names)))
        yield w
        k, delta = rng.randint(0, n), Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3))
        if isinstance(w, BettiVector):
            entries = list(w.entries)
            entries[k] += delta
            yield BettiVector(n, tuple(entries))
        else:
            head = list(w.prefix(n + 1))
            head[k] += delta
            yield TailPeriodicSequence(n + 1, tuple(head), w.tail_even, w.tail_odd)
    if cone.tail is not None and cone.within is None:
        stab = n + rng.randint(1, 4)
        yield TailPeriodicSequence(stab, tuple(rng.randint(-2, 3) for _ in range(stab)),
                                   rng.randint(0, 3), rng.randint(0, 3))
    yield from _coprime_probes(random.Random(f"coprime-{cone.title}-{n}"), cone)


def _coprime_probes(rng, cone):
    """Points whose entries have pairwise-coprime denominators: a member,
    the member lowered at one to five entries by 3(n+1) and the
    reciprocal of a further prime (so some windows cross 0), and a point
    below -1 at every entry by the reciprocal of a prime's square, on
    which every window of the total cone is negative."""
    n = cone.n
    member = coprime_member(rng, cone)
    yield member
    head = list(member.entries if cone.tail is None else member.prefix(n + 1))
    ps = primes(n + 7)
    for _ in range(rng.randint(1, 5)):
        k = rng.randint(0, n)
        head[k] -= 3 * (n + 1) + Fraction(1, ps[n + rng.randint(1, 6)])
    yield point(cone, head)
    yield point(cone, [-1 - Fraction(1, p * p) for p in ps[:n + 1]])


MEMBERSHIP_CONES = {"regular": regular.cone, **CONES}


@pytest.mark.parametrize("name", list(MEMBERSHIP_CONES))
def test_violations_match_the_facet_functionals(name):
    rng = random.Random(f"prefix-sums-{name}")
    low = 0 if name == "regular" else 2
    fired = set()  # which kinds of constraint some probe violated
    for n in list(range(low, 14)) + [20, 31, 48]:
        cone = MEMBERSHIP_CONES[name](n)
        for w in _probes(rng, cone):
            got = cone.violations(w)
            assert got == reference_violations(cone, w), (name, n, w)
            for label, _ in got:
                kind, window = label[:-1].split("[")
                fired.add("flat" if int(window.split(",")[1]) > n else kind)
    expected = {"chi"} if name == "regular" else {"chi", "flat"}
    assert fired == (expected | {"xi"} if name.startswith("fixed") else expected)


def test_regular_facet_values_are_the_ray_coefficients():
    rng = random.Random(7)
    for n in range(0, 30):
        cone = regular.cone(n)
        coeffs = coefficients(rng, "rational", n + 1)
        v = cone.combine(coeffs)
        assert cone.values(v.entries) == coeffs
        assert regular.decompose(v).a == tuple(coeffs)
        assert regular.classify(v).decomposition.a == tuple(coeffs)


TIES = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2))


def listing(cone, entries):
    """The full `Cone.values` listing, window by window, the enclosing
    cone's first."""
    out = listing(cone.within, entries) if cone.within is not None else []
    return out + list(zip(cone.windows, cone.values(entries)))


def _listing_probes(rng, cone, every_kind):
    """Tie-heavy points flat from n on: a member of the cone, the member
    moved at one entry so that one window reads exactly 0, and (with
    ``every_kind``) an arbitrary point and the member moved at 0 to 5
    entries."""
    n = cone.n
    all_windows = [window for c in (cone.within, cone) if c is not None for window in c.windows]

    def flat(head):
        return constant_tail(head[:n], head[n])
    member = cone.combine([rng.choice(TIES) for _ in cone.names])
    head = list(member.prefix(n + 1))
    yield member
    window = rng.choice(all_windows)
    i = window[0]
    on_facet = head[:]
    on_facet[i] -= evaluate(window, member) / row(window, n)[i]
    on_facet = flat(on_facet)
    assert evaluate(window, on_facet) == 0
    yield on_facet
    if every_kind:
        yield flat([rng.choice(TIES) for _ in range(n + 1)])
        moved = head[:]
        for _ in range(rng.randint(0, 5)):
            moved[rng.randint(0, n)] += rng.choice((-1, Fraction(-1, 2), Fraction(1, 2), 1))
        yield flat(moved)
        yield from _coprime_probes(random.Random(f"listing-coprime-{cone.title}-{n}"), cone)


@pytest.mark.parametrize("name", list(LISTED_CONES))
def test_violations_match_the_full_listing(name):
    # the total cone decides each start from prefix-sum extrema and lists
    # only crossed starts; the answer must be the full listing's, in order,
    # and the crossed starts exactly those with a negative chi[i,j], j - i
    # even (a start flagged in excess would only cost time)
    rng = random.Random(f"full-listing-{name}")
    members = several = 0
    for n in list(range(2, 61)) + [200, 500]:
        cone = LISTED_CONES[name](n)
        for w in _listing_probes(rng, cone, every_kind=n <= 60):
            got, entries = cone.violations(w), w.prefix(n + 1)
            listed = listing(cone, entries)  # w is flat from n on: no flatness gap
            assert got == [(window_name(window), v) for window, v in listed if v < 0], (name, n, w)
            negative = {i for (i, j, d), v in listed if v < 0 and d is None and (j - i) % 2 == 0}
            assert cones._crossed_starts(cones._prefix_sums(entries)) == negative, (name, n, w)
            members += not got
            several += len(negative) > 1
    assert members > 60 and several > 60, (members, several)
