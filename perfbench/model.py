"""The benchmark's own exact model of the three cones.

The input generator builds members and non-members from these rays, and
the output checker recomputes every expected answer from these
functionals. Nothing here imports `betticone`, so a defect in the
package cannot hide itself by agreeing with its own checker. The
algorithms differ on purpose too: constraint values come from prefix
alternating sums instead of per-window sums.

Sequences are plain values: a finite vector is a list of Fractions, a
tail-periodic sequence is a `Tail` (head, even tail, odd tail).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

ZERO = Fraction(0)


def rat(value: Fraction) -> str:
    """The package's rational wire format: "p/q", or "p" when q = 1."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class Tail:
    """Entries head[i] for i < len(head), then tail_even / tail_odd by parity."""

    head: tuple[Fraction, ...]
    tail_even: Fraction
    tail_odd: Fraction

    def entry(self, i: int) -> Fraction:
        if i < len(self.head):
            return self.head[i]
        return self.tail_even if i % 2 == 0 else self.tail_odd

    def prefix(self, length: int) -> list[Fraction]:
        return [self.entry(i) for i in range(length)]

    def canonical_stab(self) -> int:
        stab = len(self.head)
        while stab > 0 and self.head[stab - 1] == (
                self.tail_even if (stab - 1) % 2 == 0 else self.tail_odd):
            stab -= 1
        return stab

    def to_json(self) -> dict:
        stab = self.canonical_stab()
        return {"kind": "tail", "stab": stab,
                "head": [rat(x) for x in self.head[:stab]],
                "tail_even": rat(self.tail_even), "tail_odd": rat(self.tail_odd)}


def finite_json(v: list[Fraction]) -> dict:
    return {"kind": "finite", "n": len(v) - 1, "entries": [rat(x) for x in v]}


def combine(coeffs, rays) -> Tail:
    """sum c_k * ray_k over tail sequences, skipping zero entries (the rays
    are sparse); the head is as long as the longest ray head."""
    length = max(len(r.head) for r in rays)
    head = [ZERO] * length
    even = odd = ZERO
    for c, r in zip(coeffs, rays):
        if not c:
            continue
        for i, x in enumerate(r.head):
            if x:
                head[i] += c * x
        for i in range(len(r.head), length):
            head[i] += c * (r.tail_even if i % 2 == 0 else r.tail_odd)
        even += c * r.tail_even
        odd += c * r.tail_odd
    return Tail(tuple(head), even, odd)


def combine_finite(coeffs, rays) -> list[Fraction]:
    out = [ZERO] * len(rays[0])
    for c, r in zip(coeffs, rays):
        for i, x in enumerate(r):
            if x and c:
                out[i] += c * x
    return out


# --- rays -------------------------------------------------------------------

def rho(i: int, n: int) -> list[Fraction]:
    """epsilon_0 for i = -1, else epsilon_i + epsilon_{i+1}, in Q^{n+1}."""
    v = [ZERO] * (n + 1)
    v[max(i, 0)] = Fraction(1)
    if i >= 0:
        v[i + 1] = Fraction(1)
    return v


def regular_rays(n: int) -> list[list[Fraction]]:
    return [rho(i, n) for i in range(-1, n)]


def regular_ray_names(n: int) -> list[str]:
    return [f"rho[{i}]" for i in range(-1, n)]


def as_tail(seq) -> Tail:
    """A finite vector viewed with a zero tail; a Tail unchanged."""
    return seq if isinstance(seq, Tail) else Tail(tuple(seq), ZERO, ZERO)


def total_rays(n: int) -> list[Tail]:
    """rho[-1..n-2], then ones from n-2 on, then ones from n-1 on."""
    rays = [as_tail(rho(i, n)) for i in range(-1, n - 1)]
    one = Fraction(1)
    rays.append(Tail((ZERO,) * (n - 2), one, one))
    rays.append(Tail((ZERO,) * (n - 1), one, one))
    return rays


def total_ray_names(n: int) -> list[str]:
    return [f"rho[{i}]" for i in range(-1, n - 1)] + [
        f"tau_inf[{n - 2}]", f"tau_inf[{n - 1}]"]


def fixed_rays(n: int, d: int) -> list[Tail]:
    """Like the total cone's, with the corner entry at n-2 scaled to
    (d-1)/d and 1/d; at d = 2 the two tail rays coincide and one is kept."""
    rays = [as_tail(rho(i, n)) for i in range(-1, n - 1)]
    one = Fraction(1)
    corners = [Fraction(d - 1, d)] + ([Fraction(1, d)] if d > 2 else [])
    for corner in corners:
        rays.append(Tail((ZERO,) * (n - 2) + (corner,), one, one))
    return rays


def fixed_ray_names(n: int, d: int) -> list[str]:
    return [f"rho[{i}]" for i in range(-1, n - 1)] + [
        f"tau_d[{n - 2}]"] + ([f"tau_d[{n - 1}]"] if d > 2 else [])


# --- triangulations -----------------------------------------------------------

def triangulation(n: int, which: int) -> list[tuple[int, ...]]:
    """Simplices of omit_odd (which=1) or omit_even (which=2), by ascending
    omitted position. Position p carries index label p-1 for the finite
    rays and n-2, n-1 for the two tail rays; position n-1 is never omitted."""
    parity = 1 if which == 1 else 0
    label = lambda p: p - 1 if p <= n - 1 else n - 2 + (p - n)  # noqa: E731
    omitted = [p for p in range(n + 2) if p != n - 1 and label(p) % 2 == parity]
    return [tuple(q for q in range(n + 2) if q != p) for p in omitted]


def simplices_for(cone: str, n: int, d: int | None, which: int
                  ) -> tuple[str, list[tuple[int, ...]]]:
    """(label, simplices) the package must certify on."""
    if cone == "fixed" and d == 2:
        return "simplicial", [tuple(range(n + 1))]
    if n == 2:
        return "simplicial", [(0, 1, 3)]
    return ("omit_odd" if which == 1 else "omit_even"), triangulation(n, which)


# --- functionals ----------------------------------------------------------------

def _alt_prefix(entries: list[Fraction]) -> list[Fraction]:
    """P[m] = sum_{k<m} (-1)^k e_k, so chi[i,j] = (-1)^i (P[j+1] - P[i])."""
    out = [ZERO]
    for k, e in enumerate(entries):
        out.append(out[-1] + (e if k % 2 == 0 else -e))
    return out


def _chi(p: list[Fraction], i: int, j: int) -> Fraction:
    value = p[j + 1] - p[i]
    return value if i % 2 == 0 else -value


def regular_values(v: list[Fraction]) -> list[tuple[str, Fraction]]:
    """chi[j,n](v) for j = 0..n; the coefficient of rho[j-1] in v."""
    n = len(v) - 1
    p = _alt_prefix(v)
    return [(f"chi[{j},{n}]", _chi(p, j, n)) for j in range(n + 1)]


def regular_violations(v):
    return [(name, x) for name, x in regular_values(v) if x < 0]


def total_violations(w: Tail, n: int) -> list[tuple[str, Fraction]]:
    """Odd-length chi windows inside 0..n, chi[n-1,n], then flatness from n."""
    stab = w.canonical_stab()
    entries = w.prefix(max(n, stab) + 3)
    p = _alt_prefix(entries)
    out = [(f"chi[{i},{j}]", _chi(p, i, j))
           for i in range(n + 1) for j in range(i, n + 1, 2)]
    out.append((f"chi[{n - 1},{n}]", _chi(p, n - 1, n)))
    out = [(name, x) for name, x in out if x < 0]
    for i in range(n, max(n, stab) + 2):
        gap = entries[i] - entries[i + 1]
        if gap != 0:
            out.append((f"chi[{i},{i + 1}]", gap))
    return out


def xi_values(w: Tail, n: int, d: int) -> list[tuple[str, Fraction]]:
    """xi[i,n] = d * chi[i,n-1] + (d-1 or -1 by parity of n-i) * e_n."""
    p = _alt_prefix(w.prefix(n + 1))
    out = []
    for i in range(n + 1):
        window = _chi(p, i, n - 1) if i <= n - 1 else ZERO
        end = Fraction(d - 1) if (n - i) % 2 == 0 else Fraction(-1)
        out.append((f"xi[{i},{n}]", d * window + end * w.entry(n)))
    return out


def fixed_violations(w: Tail, n: int, d: int):
    return total_violations(w, n) + [(name, x) for name, x in xi_values(w, n, d) if x < 0]


def constraint_at(name: str, w: Tail, n: int, d: int | None = None) -> Fraction:
    """Value of one named constraint chi[i,j] or xi[i,n] on w."""
    kind, rest = name.split("[")
    i, j = (int(x) for x in rest.rstrip("]").split(","))
    if kind == "xi":
        return dict(xi_values(w, n, d))[name]
    return _chi(_alt_prefix(w.prefix(j + 1)), i, j)


# --- regular classification -----------------------------------------------------

def classify_fields(n: int, coeffs: list[Fraction]) -> dict:
    """Expected classify payload from the ray coefficients a[-1..n-1]."""
    member = all(c >= 0 for c in coeffs)
    out = {"n": n, "member_of_closure": member, "realizable": False,
           "cm_choice_exists": coeffs[0] == 0,
           "decomposition": {"a_minus_1": rat(coeffs[0]),
                             "a": [rat(c) for c in coeffs[1:]]}}
    if member:
        positive = [i for i in range(n) if coeffs[i + 1] > 0]
        if not any(coeffs):
            out["realizable"] = True
        elif positive == list(range(len(positive))):
            out["realizable"] = True
            out["depth"] = n - len(positive)
    return out


# --- pure resolutions -------------------------------------------------------------

def herzog_kuhl(degrees: list[int], n: int) -> list[Fraction]:
    s = len(degrees) - 1
    v = [Fraction(1, prod(abs(dj - di) for j, dj in enumerate(degrees) if j != i))
         for i, di in enumerate(degrees)]
    return v + [ZERO] * (n - s)


def limit_gap(j: int, t: int, n: int) -> Fraction:
    degrees = [k * t if k <= j else (k - 1) * t + 1 for k in range(n + 1)]
    v = herzog_kuhl(degrees, n)
    target = rho(j, n)
    return max(abs(x / v[j] - y) for x, y in zip(v, target))


def phi(v: list[Fraction]) -> Tail:
    """Even/odd prefix sums of v, flat after index n."""
    acc = [ZERO, ZERO]
    head = []
    for i, x in enumerate(v):
        acc[i % 2] += x
        head.append(acc[i % 2])
    return Tail(tuple(head), acc[0], acc[1])
