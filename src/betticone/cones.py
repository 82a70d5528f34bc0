"""One description shared by the three cone families, and one driver for
membership and certificates.

A `Cone` describes each facet once, by its window (see `Window`), and its
rays by one closed-form layout (see `Cone`).  `Cone.values` is the one
facet evaluator: membership reads it, certificates read only the layout,
and `verification` hands the oracle the normals that `values` gives on
the unit vectors and the rays written out from the layout.  Members of
the two hyperplane families (total and multiplicity-d) are flat from
index n on, so their linear algebra happens on coordinates 0..n and
flatness is checked separately.

Costs: one alternating prefix-sum array gives every window value in
O(1).  The total cone has about n^2/4 windows, but all windows from one
start are nonnegative exactly when one prefix sum bounds a suffix of
the others, so one backward pass decides membership in O(n); a
non-member pays O(n) more for each start with a negative window, whose
windows are then listed.  The other cones' n+1 values are O(n).  The
n+2 rays of a hyperplane-family cone satisfy exactly one linear
relation (the cone is a pyramid over a circuit), so a certificate is
one banded solve, one ratio test along the relation and an exact
reconstruction check that sums the layout: O(n) after membership.

Arithmetic: a point holds only its `Fraction`s, and a call reads it
once: `Cone._read` puts entries 0..n over their least common
denominator, reading each entry's pair once.  Membership and the
certificate decide, solve and check on ints: the ray relation and the
corners are written once over the corners' common denominator, and the
reconstruction check sums the integer coefficients on the layout and
cross-multiplies each sum with the read.  Flatness is read off the
point's canonical form.  A `Fraction` is built only for a value a
report names and for a certificate's coefficients, from its coprime
pair.  `values`, and so `normals()` and `verify`, keep the entries' own
type.

Memory: a `Cone` is immutable all the way down and holds O(n): its
fields, and the names, scaled corners and scaled relation its
constructor derives once, as tuples.  No window list is kept, so the
family builders (`regular.cone`, `hyper_total.cone`, `hyper_fixed.cone`)
can each share one cone per key from a bounded cache.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from .errors import ConeInputError, InternalInconsistencyError, NotInConeError, quoted
from .sequences import (BettiVector, Frozen, Sequence, TailPeriodicSequence, _coprime, _set,
                        as_fraction, described)

TRIANGULATION_LABELS = ("omit_odd", "omit_even")

# Cones each family builder keeps (`functools.lru_cache`), by its key: n,
# or the parameters (n, d).  A certify round asks 20 keys, membership-scan
# 15 and the default `verify` grid about 45, so a run builds each cone
# once.  A cone holds about 7.5 KB at n = 48 and 80 KB at n = 500; the
# three caches hold at most 3 * 64 cones, plus the enclosing total cones
# of cached multiplicity-d cones (at most 64 more).
CONES_KEPT = 64

Window = tuple[int, Optional[int], Optional[int]]
"""A facet by its window (i, j, d): chi[i,j], the alternating sum of the
entries i..j starting with +1, when d is None; else xi[i,j] of
multiplicity d, which is d * chi[i,j-1] plus (d-1) or -1 (for j-i even
or odd) times entry j.  In a cone's ``spans`` the open window (i, None,
None) stands for every chi[i,j] with j - i even and j <= n."""


def _over_common_denominator(values) -> tuple[list[int], int]:
    """Rationals as integer numerators over one positive denominator q,
    the least common multiple of their denominators, each value's pair
    read once."""
    pairs = [v.as_integer_ratio() for v in values]
    q = math.lcm(*(b for _, b in pairs))
    return [a * (q // b) for a, b in pairs], q


def _fractions(nums, q: int) -> tuple[Fraction, ...]:
    """The integers ``nums`` over q > 0 as `Fraction`s, each reduced by one
    gcd and built from its coprime pair."""
    return tuple(_coprime(c // g, q // g) for c in nums for g in (math.gcd(c, q),))


def _rebuilds(w: Sequence, read, sums: list[int], q: int, tails=None) -> bool:
    """Whether the integers ``sums`` over q > 0 are entries 0..n of the
    point w, whose read (see `Cone._read`) is numerators e over p: v * p
    == e * q.  A tail point must also have no head entry past n and its
    even and odd tails equal to ``tails`` over q, each cross-multiplied
    with the tail's own numerator and denominator."""
    nums, p = read
    if any(v * p != e * q for v, e in zip(sums, nums)):
        return False
    return tails is None or (w.stab <= len(nums) and all(
        v * t.denominator == t.numerator * q for v, t in zip(tails, (w.tail_even, w.tail_odd))))


def _prefix_sums(entries) -> list:
    """sums[k], the sum of (-1)^m entries[m] over m < k, for k = 0..n+1."""
    sums = [0]
    for m, v in enumerate(entries):
        sums.append(sums[-1] - v if m % 2 else sums[-1] + v)
    return sums


def _evaluate(windows, sums: list, entries) -> list:
    """The windows' values from the prefix sums, in the entries' own
    type: chi[i,j] = (-1)^i (sums[j+1] - sums[i]), and xi[i,j] adds d *
    chi[i,j-1] and the end coefficient times entry j."""
    out = []
    for i, j, d in windows:
        s = sums[j + 1 if d is None else j] - sums[i]
        if i % 2:
            s = -s
        if d is not None:
            s = d * s + (d - 1 if (j - i) % 2 == 0 else -1) * entries[j]
        out.append(s)
    return out


def _crossed_starts(sums: list) -> set[int]:
    """The starts i of an open window (see `Window`) with a negative
    chi[i,j], in one backward pass.  chi[i,j] = (-1)^i (sums[j+1] -
    sums[i]) and k = j+1 runs over i+1, i+3, ..., n+1, the suffix of the
    other parity; so start i is crossed when sums[i] exceeds the least
    odd-index sum past it (i even) or falls below the greatest even-index
    one (i odd)."""
    crossed, low, high = set(), None, None
    for i in range(len(sums) - 2, -1, -1):
        s = sums[i + 1]
        if i % 2:
            high = s if high is None or s > high else high
            if sums[i] < high:
                crossed.add(i)
        else:
            low = s if low is None or s < low else low
            if sums[i] > low:
                crossed.add(i)
    return crossed


def _written_out(span: Window, n: int):
    """The windows a span stands for, by ascending end."""
    i, j, _ = span
    return ((i, end, None) for end in range(i, n + 1, 2)) if j is None else (span,)


def window_name(window: Window) -> str:
    """The constraint's name in reports, like "chi[1,2]" or "xi[0,3]"."""
    i, j, d = window
    return f"{'chi' if d is None else 'xi'}[{i},{j}]"


class MembershipReport(Frozen):
    """Outcome of a membership check with the violated constraints, as
    (name, value) pairs like ("chi[1,2]", Fraction(-1))."""

    __slots__ = ("ok", "violations")
    ok: bool
    violations: tuple[tuple[str, Fraction], ...]

    def __bool__(self) -> bool:
        return self.ok


class Triangulation(Frozen):
    """A set of simplices covering a cone, as index tuples into the ray
    list.  `Cone.triangulation` lists them by ascending omitted-ray
    position; the omitted rays are one side of `Cone.relation`, so they
    share one relation sign by construction.  A simplicial cone has the
    one simplex and no omitted positions."""

    __slots__ = ("label", "simplices", "omitted")
    label: str
    simplices: tuple[tuple[int, ...], ...]
    omitted: tuple[int, ...]


class Decomposition(Frozen):
    """Nonnegative ray coefficients supported on one simplex, plus which
    simplex was used.  ``coefficients`` is aligned with the ray list."""

    __slots__ = ("names", "coefficients", "simplex_used", "label")
    names: tuple[str, ...]
    coefficients: tuple[Fraction, ...]
    simplex_used: tuple[int, ...]
    label: str


def _triangulation_label(which: str | int) -> str:
    if isinstance(which, int):
        if which not in (1, 2):
            raise ConeInputError(f"triangulation choice must be 1 or 2, got {which}")
        return TRIANGULATION_LABELS[which - 1]
    if which not in TRIANGULATION_LABELS:
        raise ConeInputError(f"unknown triangulation label {quoted(which)}")
    return which


class Cone(Frozen):
    """A cone of shapes on coordinates 0..n: facets described by their
    windows in ``spans`` (see `Window`), each facet nonnegative on
    members; `windows` writes the open ones out.  ``title`` names the cone
    in errors; the constraints of the enclosing cone ``within`` are
    checked and reported first; a tail cone not cut from another cone is
    flat from index n on.

    The extremal rays follow one layout: rho[-1] = e_0 and rho[k] = e_k +
    e_{k+1}, up to rho[n-1] in a finite cone (``tail`` None).  A tail
    cone, which certificates need, has rho[-1..n-2] and then one ray
    ``tail[n-2+k]`` per value in ``corners``: 1 from index n-1 on, 0
    below n-2 and corners[k] at n-2.

    A cone is equal only to itself.  The constructor derives the ray
    names, the scaled corners and the scaled relation once, as tuples in
    private slots, which are not fields: equality, ``repr`` and pickling
    see the six fields only, and no slot can be written afterwards."""

    __slots__ = ("title", "n", "spans", "tail", "corners", "within",
                 "_names", "_scaled_corners", "_scaled_relation")
    title: str
    n: int
    spans: tuple[Window, ...]
    tail: Optional[str]
    corners: tuple[Fraction, ...]
    within: Optional["Cone"]

    def __init__(self, title: str, n: int, spans: tuple[Window, ...], tail: Optional[str] = None,
                 corners: tuple[Fraction, ...] = (), within: Optional["Cone"] = None):
        super().__init__(title, n, spans, tail, corners, within)
        _set(self, "_names", tuple(f"rho[{i}]" for i in range(-1, self._rho - 1))
             + tuple(f"{tail}[{n - 2 + k}]" for k in range(len(corners))))
        # the corners as integer numerators over their common denominator s
        # (1 when there are none)
        nums, s = _over_common_denominator(corners)
        _set(self, "_scaled_corners", (tuple(nums), s))
        # `relation` over s, written once in closed form; None without one
        if len(corners) == 2:
            g = nums[0] - nums[1]
            relation = tuple(g if (n - k) % 2 == 0 else -g for k in range(n - 1)) + (0, -s, s)
        else:
            relation = None
        _set(self, "_scaled_relation", relation)

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    @property
    def core(self) -> Optional[tuple[int, ...]]:
        """The one simplex of a simplicial cone, else None (certificates
        use the circuit's triangulations).  With fewer than two corners the
        rays are independent; at n = 2 the ray at position 2, tail[0],
        is a combination of the others and is set aside."""
        if len(self.corners) < 2:
            return tuple(range(len(self._names)))
        return (0, 1, 3) if self.n == 2 else None

    @property
    def _rho(self) -> int:  # how many rho rays lead the layout
        return self.n + 1 if self.tail is None else self.n

    @property
    def names(self) -> tuple[str, ...]:
        """The rays' names in layout order, like "rho[-1]" or "tau_inf[2]"."""
        return self._names

    def projected(self) -> list[tuple]:
        """The rays as coordinate rows on indices 0..n, written out from
        the layout: the rho ray at position p is e_{p-1} + e_p (e_0 at
        p = 0), and a tail ray holds its corner (an `int` if it is one) at
        n-2 and 1 from n-1 on."""
        nums, s = self._scaled_corners
        return ([tuple(int(p - 1 <= k <= p) for k in range(self.n + 1)) for p in range(self._rho)]
                + [(0,) * (self.n - 2) + (c, 1, 1) for c in (nums if s == 1 else self.corners)])

    def _read(self, w: Sequence) -> tuple[list[int], int]:
        """The one check (a finite cone takes a `BettiVector` of its own n, a
        tail cone a `TailPeriodicSequence`) and read of a point per call:
        entries 0..n as integer numerators over the least common
        denominator q of exactly those entries, and q."""
        if self.tail is None and isinstance(w, BettiVector) and w.n == self.n:
            return _over_common_denominator(w.entries)
        if self.tail is not None and isinstance(w, TailPeriodicSequence):
            return _over_common_denominator(w.prefix(self.n + 1))
        space = "a tail-periodic sequence" if self.tail else f"a finite sequence with n={self.n}"
        raise ConeInputError(f"{self.title} for n={self.n} needs {space}, got {described(w)}")

    def combine(self, coeffs) -> Sequence:
        """The exact sum of ``coeffs[k]`` times the k-th ray, in the rays'
        own sequence type, read off the layout in O(n) (`_layout_sum`)."""
        if len(coeffs) != len(self._names):
            raise ConeInputError(f"{len(coeffs)} coefficients for {len(self._names)} rays")
        sums = self._layout_sum([as_fraction(c) for c in coeffs], self.corners, 1)
        if self.tail is None:
            return BettiVector(self.n, tuple(sums))
        return TailPeriodicSequence(self.n + 1, tuple(sums), sums[-1], sums[-1])

    def _layout_sum(self, coeffs, corners, s) -> list:
        """Entries 0..n of s times the sum of coeffs[k] times the k-th ray,
        in the coefficients' own type.  The rho ray at position k adds its
        coefficient to entries k-1 and k (rho[-1] to entry 0 only); a tail
        ray adds ``corners[k]`` (its corner times s) times its coefficient
        at n-2, and its coefficient from n-1 on."""
        rho = [c * s for c in coeffs[:self._rho]]
        sums = [a + b for a, b in zip(rho, rho[1:])] + [rho[-1]]
        if self.tail is not None:
            tails = coeffs[self._rho:]
            top = sum(tails) * s
            sums[-2] += sum(c * t for c, t in zip(corners, tails))
            sums[-1] += top
            sums.append(top)
        return sums

    @property
    def windows(self) -> tuple[Window, ...]:
        """Every facet's window in report order, the open spans written
        out anew on each read: about n^2/4 in the total cone, so no cone
        keeps it, and membership and certificates never build it."""
        return tuple(window for span in self.spans for window in _written_out(span, self.n))

    def values(self, entries, windows: Optional[tuple[Window, ...]] = None) -> list:
        """This cone's own window values on entries 0..n, in `windows`
        order and in the entries' own type; the enclosing cone's are not
        included.  A caller that evaluates several points may pass the
        `windows` it wrote out once."""
        windows = self.windows if windows is None else windows
        return _evaluate(windows, _prefix_sums(entries), entries)

    def normals(self) -> list[tuple[int, ...]]:
        """Every facet's integer normal on coordinates 0..n, the enclosing
        cone's first: a window's value is linear in the entries, so its
        normal is its `values` on the n+1 unit tuples, with the windows
        written out once."""
        inherited = self.within.normals() if self.within is not None else []
        dim, windows = self.n + 1, self.windows
        columns = [self.values(tuple(int(k == m) for k in range(dim)), windows)
                   for m in range(dim)]
        return inherited + list(zip(*columns))

    def violations(self, w: Sequence) -> list[tuple[str, Fraction]]:
        """Violated constraints with their values: the enclosing cone's,
        then this cone's negative facets in `windows` order, then
        flatness."""
        return self._violations(w, self._read(w))

    def _violations(self, w: Sequence, point) -> list[tuple[str, Fraction]]:
        """`violations` on the point's one read (see `_read`), which the
        enclosing cone shares.  Windows are decided on the integer
        numerators, an open span written out only from a crossed start.
        The negative ones are evaluated again on the `Fraction` entries:
        on pairwise-coprime denominators that is cheaper than reducing
        each numerator over the common denominator."""
        nums, _ = point
        out = self.within._violations(w, point) if self.within is not None else []
        sums = _prefix_sums(nums)
        crossed = _crossed_starts(sums) if any(j is None for _, j, _ in self.spans) else ()
        scanned = [window for span in self.spans if span[1] is not None or span[0] in crossed
                   for window in _written_out(span, self.n)]
        negative = [window for window, v in zip(scanned, _evaluate(scanned, sums, nums)) if v < 0]
        if negative:
            entries = w.entries if self.tail is None else w.prefix(self.n + 1)
            values = _evaluate(negative, _prefix_sums(entries), entries)
            out += [(window_name(window), v) for window, v in zip(negative, values)]
        if self.tail is not None and self.within is None and (
                w.stab > self.n or w.tail_even != w.tail_odd):
            # entry(i) = entry(i+1) for all i >= n exactly when the canonical
            # form (see `TailPeriodicSequence`) has no head past n and equal
            # tails; otherwise the gaps up to two indices past the
            # stabilization point are all of them, the tail being 2-periodic.
            at = w.prefix(max(self.n, w.stab) + 3)[self.n:]
            out += [(window_name((i, i + 1, None)), a - b)
                    for i, (a, b) in enumerate(zip(at, at[1:]), self.n) if a != b]
        return out

    def member(self, w: Sequence) -> MembershipReport:
        violations = self.violations(w)
        return MembershipReport(not violations, tuple(violations))

    @property
    def relation(self) -> tuple[Fraction, ...]:
        """The one linear relation among the n+2 rays of a hyperplane-family
        cone, scaled so the last ray has coefficient +1.

        The two tail rays differ by g * e_{n-2}, g the difference of their
        corner values (1 in the total cone, (d-2)/d in the multiplicity-d
        cone), and e_{n-2} is the alternating sum of rho[n-3], rho[n-4],
        ..., rho[-1].  So the ray at position k <= n-2 carries
        (-1)^(n-k) g, rho[n-2] carries 0 and the tails -1 and +1.
        """
        s = self._scaled_corners[1]
        return tuple(Fraction(r, s) for r in self._relation_numerators())

    def _relation_numerators(self) -> tuple[int, ...]:
        """`relation` over the corners' common denominator; a cone without
        two corners has none, a `ConeInputError`."""
        if self._scaled_relation is None:
            raise ConeInputError(f"{self.title} has no relation among {len(self._names)} rays")
        return self._scaled_relation

    def _omitted(self, label: str) -> tuple[int, ...]:
        """The positions on the label's side of the relation, ascending:
        rho[-1]'s side for "omit_odd", the other side (rho[0]'s from n = 3
        on) for "omit_even"."""
        relation = self._relation_numerators()
        positive = (relation[0] > 0) == (label == "omit_odd")
        return tuple(p for p, k in enumerate(relation) if k and (k > 0) == positive)

    def triangulation(self, which: str | int) -> Triangulation:
        """The triangulation ``which`` (as in `decompose`) of the circuit:
        its simplices omit, in turn, each ray on one side of the relation."""
        label = _triangulation_label(which)
        omitted = self._omitted(label)
        return Triangulation(label, tuple(tuple(q for q in range(len(self._names)) if q != p)
                                          for p in omitted), omitted)

    def _solve(self, nums: list[int], q: int) -> tuple[list[int], int]:
        """Exact coefficients of a member on the rho rays and the last ray
        (0 on any ray between), by back substitution on the banded system,
        as integer numerators over one positive denominator.  The point
        comes as its numerators over q (see `_read`); both are scaled by
        the corners' common denominator, so the corner term is an integer.
        A tail cone first takes off its last ray: coordinate n meets only
        that ray, which also adds its coefficient at n-1 and its corner
        times it at n-2.  Then each coordinate k left meets only the rho
        rays at positions k and k+1, solved top-down; in the regular cone
        this gives chi[k,n] on the ray at position k."""
        corners, scale = self._scaled_corners
        y = [v * scale for v in nums]
        x = [0] * len(self._names)
        if self.tail is not None:
            x[-1] = t = y.pop()
            y[-1] -= t
            y[-2] -= corners[-1] * nums[-1]
        above = 0
        for k in range(self._rho - 1, -1, -1):
            x[k] = above = y[k] - above
        return x, q * scale

    def decompose(self, w: Sequence, which: str | int = "omit_odd") -> Decomposition:
        """Nonnegative ray certificate for a member, with exact
        reconstruction; ``which`` is 1, 2 or one of TRIANGULATION_LABELS.
        A simplicial cone has the one certificate, the banded solve,
        labelled "simplicial"; ``which`` is still checked.  The certificate
        is `_certificate`'s, its coefficients the only `Fraction`s built."""
        x, q, simplex, label, _ = self._certificate(w, which)
        return Decomposition(self._names, _fractions(x, q), simplex, label)

    def _certificate(self, w: Sequence, which: str | int
                     ) -> tuple[list[int], int, tuple[int, ...], str, tuple]:
        """`decompose`'s certificate on integers: the coefficients as
        integer numerators x over one positive denominator q, the simplex
        used, its label and the point's read (see `_read`).

        The certificate is the exact solution in the first simplex of the
        chosen triangulation (ascending omitted-ray position) whose
        solution is nonnegative, so output is deterministic; points on
        shared faces get the same answer from both triangulations.  All
        solutions are x - t * relation for one solution x; the simplex
        omitting p gives t = x_p / relation_p.  The omitted rays are one
        side of the relation, so the nonnegative simplices are those whose
        t is the least (positive side) or the greatest (negative side); on
        a tie the first omitted position wins.

        Membership and the solve share one read of the point, and the
        ratio test and the exact reconstruction check (see
        `_reconstructs`) run on integers: the relation is read over the
        corners' common denominator, and as the omitted rays share one
        relation sign, two ratios compare by cross-multiplying.
        """
        which = _triangulation_label(which)
        point = self._read(w)
        violations = self._violations(w, point)
        if violations:
            raise NotInConeError.naming_first(self.title, violations)
        x, q = self._solve(*point)
        if (core := self.core) is not None:
            label, simplex = "simplicial", core
        else:
            relation = self._scaled_relation
            omitted = self._omitted(which)
            sign = 1 if relation[omitted[0]] > 0 else -1
            skip = omitted[0]
            for p in omitted[1:]:
                if sign * (x[p] * relation[skip] - x[skip] * relation[p]) < 0:
                    skip = p
            label, simplex = which, tuple(k for k in range(len(x)) if k != skip)
            # x - t * relation with t = x_skip / relation_skip, over q * |relation_skip|
            pivot, lead = abs(relation[skip]), sign * x[skip]
            x, q = [c * pivot - lead * r for c, r in zip(x, relation)], q * pivot
        if any(c < 0 for c in x):
            raise InternalInconsistencyError(
                "member vector admits no nonnegative simplex certificate")
        if not self._reconstructs(w, point, x, q):
            raise InternalInconsistencyError("decomposition failed exact reconstruction")
        return x, q, simplex, label, point

    def _reconstructs(self, w: Sequence, read, x: list[int], q: int) -> bool:
        """Whether the coefficients x / q sum to the point w, whose read is
        ``read`` (see `_read`): `_layout_sum` in integers over q times the
        corners' common denominator s, compared by `_rebuilds`.  The sum
        covers entries 0..n, so a tail point must also be flat from n on
        at entry n's value."""
        corners, s = self._scaled_corners
        sums = self._layout_sum(x, corners, s)
        return _rebuilds(w, read, sums, q * s, None if self.tail is None else (sums[-1],) * 2)
