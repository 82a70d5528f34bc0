"""Independent references for the sequence layer, kept out of the package.

`ray` builds each named extremal ray one by one from `rho_vector` and
`constant_tail`, the reference that the layout's two writers,
`Cone.projected` and `Cone.combine`, are checked against; `tail_sum`
adds two tail-periodic sequences, which the package never needs;
`coprime_entries` writes out a point whose common denominator grows
fast with n; `unit_rays` reads a cone's rays through `Cone.combine` for
the tests.  `row` writes a facet window's coefficients out one by one,
and `evaluate` pairs a row with a sequence by a plain dot product, so
neither shares the alternating prefix sums that `Cone.values` runs.
`hk_residual` evaluates the defining equations of a pure shape.
"""

from __future__ import annotations

import random
from fractions import Fraction

from betticone.errors import ConeInputError, quoted
from betticone.pure import DegreeSequence
from betticone.sequences import BettiVector, TailPeriodicSequence, embed


def rho_vector(i: int, n: int) -> BettiVector:
    """The two-term-complex shape epsilon_i + epsilon_{i+1} in Q^{n+1};
    i = -1 degenerates to the free-module shape epsilon_0."""
    if not -1 <= i <= n - 1:
        raise ConeInputError(f"rho index {i} out of range for n={n}")
    entries = [Fraction(0)] * (n + 1)
    if i == -1:
        entries[0] = Fraction(1)
    else:
        entries[i] = Fraction(1)
        entries[i + 1] = Fraction(1)
    return BettiVector(n, tuple(entries))


def constant_tail(head, tail) -> TailPeriodicSequence:
    """The head followed by one value at every index past it;
    constant_tail((), 0) is the zero sequence."""
    head = tuple(head)
    return TailPeriodicSequence(len(head), head, tail, tail)


def ray(kind: str, i: int, n: int, d: int | None = None) -> TailPeriodicSequence:
    """Named extremal rays as tail-periodic sequences.

    kind "rho": finite ray, -1 <= i <= n-1.
    kind "tau_inf": ones from index i on, i in {n-2, n-1}, n >= 2.
    kind "tau_d": like tau_inf but the entry at index n-2 is (d-1)/d
        for i = n-2 and 1/d for i = n-1; requires d >= 2.
    """
    if kind == "rho":
        return embed(rho_vector(i, n))
    if kind in ("tau_inf", "tau_d"):
        if n < 2:
            raise ConeInputError(f"tau rays need n >= 2, got n={n}")
        if i not in (n - 2, n - 1):
            raise ConeInputError(f"tau index {i} out of range for n={n}")
        if kind == "tau_inf":
            head = (Fraction(0),) * i
            return constant_tail(head, 1)
        if d is None or d < 2:
            raise ConeInputError(f"tau_d rays need multiplicity d >= 2, got {d}")
        at_corner = Fraction(d - 1, d) if i == n - 2 else Fraction(1, d)
        head = (Fraction(0),) * (n - 2) + (at_corner,)
        return TailPeriodicSequence(n - 1, head, Fraction(1), Fraction(1))
    raise ConeInputError(f"unknown ray kind: {quoted(kind)}")


def tail_sum(u: TailPeriodicSequence, w: TailPeriodicSequence) -> TailPeriodicSequence:
    """The entrywise sum of two tail-periodic sequences: the head runs to
    the later stab, and the tails add by parity."""
    stab = max(u.stab, w.stab)
    head = tuple(u.entry(i) + w.entry(i) for i in range(stab))
    return TailPeriodicSequence(stab, head, u.tail_even + w.tail_even, u.tail_odd + w.tail_odd)


def primes(count: int) -> list[int]:
    """The first ``count`` primes, by a sieve doubled until it holds them."""
    limit = 16
    while True:
        sieve = bytearray([1]) * limit
        sieve[:2] = b"\0\0"
        for i in range(2, int(limit ** 0.5) + 1):
            if sieve[i]:
                sieve[i * i::i] = bytes(len(range(i * i, limit, i)))
        found = [k for k in range(limit) if sieve[k]]
        if len(found) >= count:
            return found[:count]
        limit *= 2


def coprime_entries(n: int) -> list[Fraction]:
    """Entries 0..n of bench/record.py's "coprime" point: level at
    2(n+1), moved off the integers by a seeded fraction of the k-th prime
    at each entry k < n, so the denominators are pairwise coprime."""
    rng = random.Random(n)
    level = 2 * (n + 1)
    return [level + Fraction(rng.randrange(p), p) for p in primes(n)] + [Fraction(level)]


def unit_rays(cone) -> list:
    """The cone's rays as sequences: `Cone.combine` of each unit
    coefficient vector."""
    size = len(cone.names)
    return [cone.combine([int(k == p) for k in range(size)]) for p in range(size)]


def row(window, n: int) -> tuple[Fraction, ...]:
    """The coefficients of the window (i, j, d) on indices 0..n.

    chi[i,j] (d None) is (-1)^(k-i) at each k in i..j; the empty range
    j = i-1 is the zero row.  xi[i,j] of multiplicity d is d * chi[i,j-1]
    plus d-1 (j-i even) or -1 (j-i odd) at j.  Windows outside that
    domain raise ConeInputError.
    """
    i, j, d = window
    if d is not None and d < 2:
        raise ConeInputError(f"multiplicity must be at least 2, got d={d}")
    if i < 0 or i > (j + 1 if d is None else j):
        raise ConeInputError(f"invalid window range [{i},{j}]")
    coeffs = [Fraction(0)] * (n + 1)
    for k in range(i, j + 1 if d is None else j):
        coeffs[k] = Fraction((-1) ** (k - i) * (1 if d is None else d))
    if d is not None:
        coeffs[j] = Fraction(d - 1 if (j - i) % 2 == 0 else -1)
    return tuple(coeffs)


def evaluate(window, w) -> Fraction:
    """The window's value on a finite or tail-periodic sequence: its row
    on 0..j dotted with the sequence's entries 0..j."""
    j = window[1]
    entries = w.entries if isinstance(w, BettiVector) else w.prefix(j + 1)
    return sum((c * e for c, e in zip(row(window, j), entries)), Fraction(0))


def hk_residual(v: BettiVector, d: DegreeSequence, k: int) -> Fraction:
    """The k-th defining equation, sum_i (-1)^i d_i^k v_i with 0^0 = 1.

    Vanishes identically on herzog_kuhl(d) for 0 <= k <= s-1; nonzero
    residuals witness that a vector is not the pure shape for d.
    """
    total = Fraction(0)
    for i, di in enumerate(d.degrees):
        power = 1 if k == 0 else di ** k
        total += Fraction((-1) ** i) * power * v[i]
    return total
