"""Seeded request generator for the four workloads.

A workload is an endless sequence of rounds. Round r is built from its
own `random.Random` stream keyed by (workload, seed, r), so the same seed
gives the same requests in the same order, however many rounds a run
reaches. Each round holds a fixed multiset of (operation, n) slots; only
the inputs and their order vary. The order interleaves the slot groups so
that every prefix of a round keeps the round's proportions, which keeps
throughput from depending on where the clock stops.

A request is a JSON-able dict: ``op`` (a package function, or "cli"),
``n``, ``args`` (what the program receives) and ``meta`` (what the
generator knows: ray coefficients, the crossed constraint, the expected
exit code), which only the checker reads.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from . import model

NS = (4, 8, 16, 32, 48)
GOLDEN = 0.6180339887498949

# Slot counts per round, by n. Certification is weighted toward small n
# so that no single size takes most of the run: on the seed package, n=48
# and n=32 each take about 40% of a certify round's time (measured
# from the traced run's spans; see CHANGES.md).
MEMBERSHIP_COUNTS = {4: 8, 8: 4, 16: 2, 32: 1, 48: 1}
MEMBERSHIP_OPS = ("regular.facet_violations", "regular.classify",
                  "hyper_total.facets_check", "hyper_fixed.member",
                  "pure.herzog_kuhl", "pure.limit_gap")
CERTIFY_COUNTS = {4: 40, 8: 20, 16: 10, 32: 5, 48: 1}
CERTIFY_OPS = (("hyper_total.decompose", 1), ("hyper_total.decompose", 2),
               ("hyper_fixed.decompose", 3), ("hyper_fixed.decompose", 2),
               ("hyper_total.split", 1), ("regular.decompose", 1))
CERTIFY_KINDS = ("integer", "tie", "rational")

# The default `verify` grid (n_max=8, mult_max=6): 45 checks.
VERIFY_GRID = ([("verification.check_regular", {"n": n}) for n in range(0, 9)]
               + [("verification.check_total", {"n": n}) for n in range(2, 9)]
               + [("verification.check_fixed", {"n": n, "d": d})
                  for n in range(2, 7) for d in range(2, 7)]
               + [("verification.check_triangulations", {"n": n}) for n in range(3, 7)])

# Input-boundary cases that must exit 1. The known defects end in a
# traceback or are wrongly accepted by the seed package; a timed round
# must have no failing request, so they are served once per run by
# `known_defects`, outside the rounds, and reported on their own.
MALFORMED_DEFECTS = ("zero_denominator", "huge_integer", "non_ascii_digit", "bool_n")
MALFORMED_PLAIN = ("invalid_json", "float_string", "missing_entries")


def _stream(workload: str, seed: int, r: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{r}")


def _interleave(rng: random.Random, groups: list[list[dict]]) -> list[dict]:
    """Merge groups so the k-th item of a group of size c sits near (k+u)/c."""
    keyed = []
    for group in groups:
        u = rng.random()
        keyed += [((k + u) / len(group), rng.random(), item)
                  for k, item in enumerate(group)]
    keyed.sort(key=lambda t: (t[0], t[1]))
    return [item for _, _, item in keyed]


def _stratum(slot_key: str, r: int, size: int) -> int:
    """Which simplex a certify input lies in: a golden-ratio sequence over
    rounds, so consecutive rounds spread evenly over 0..size-1. It does not
    depend on the seed: the simplex position sets the number of solves, and
    a seed should change the inputs, not how much work a run holds."""
    u = random.Random(slot_key).random()
    return int(size * ((u + r * GOLDEN) % 1.0))


# --- members and non-members ------------------------------------------------------

def _coeffs(rng, count: int, kind: str) -> list[Fraction]:
    if kind == "tie":
        out = [Fraction(rng.choice((0, 1, 2))) for _ in range(count)]
        if not any(out):
            out[rng.randrange(count)] = Fraction(1)
        return out
    return [Fraction(rng.randint(1, 30)) for _ in range(count)]


def _regular_member(rng, n, kind):
    coeffs = _coeffs(rng, n + 1, kind)
    return coeffs, model.combine_finite(coeffs, model.regular_rays(n))


def _regular_request(rng, op, n, member, kind):
    coeffs, _ = _regular_member(rng, n, kind)
    crossed = None
    if not member:
        # Coefficient a[j-1] is exactly chi[j,n]: making it negative crosses
        # that facet and no other.
        j = rng.randint(0, n)
        coeffs[j] = -Fraction(rng.randint(1, 9))
        crossed = f"chi[{j},{n}]"
    v = model.combine_finite(coeffs, model.regular_rays(n))
    return {"op": op, "n": n, "args": {"seq": json.dumps(model.finite_json(v))},
            "meta": {"coeffs": [model.rat(c) for c in coeffs], "crossed": crossed}}


def _cross(rng, w: model.Tail, n: int, d: int | None) -> tuple[model.Tail, str]:
    """Push w across one named constraint by lowering one head entry i < n,
    which keeps the sequence flat from n."""
    if d is not None and rng.random() < 0.5:
        i = rng.randint(0, n - 1)
        name = f"xi[{i},{n}]"
        slope = Fraction(d)
    else:
        i = rng.randint(0, n - 1)
        j = rng.choice(list(range(i, n + 1, 2)) + ([n] if i == n - 1 else []))
        name = f"chi[{i},{j}]"
        slope = Fraction(1)
    value = model.constraint_at(name, w, n, d)
    shift = (value + rng.randint(1, 5)) / slope
    head = list(w.prefix(max(len(w.head), n)))
    head[i] -= shift
    return model.Tail(tuple(head), w.tail_even, w.tail_odd), name


def _hyper_request(rng, op, n, d, member, kind, extra=None):
    rays = model.total_rays(n) if d is None else model.fixed_rays(n, d)
    w = model.combine(_coeffs(rng, len(rays), kind), rays)
    crossed = None
    if not member:
        w, crossed = _cross(rng, w, n, d)
    args = {"seq": json.dumps(w.to_json())}
    if d is not None:
        args["d"] = d
    args.update(extra or {})
    return {"op": op, "n": n, "args": args, "meta": {"crossed": crossed}}


def _certified_member(rng, n, d, which, k, kind):
    """A member inside simplex k of the given triangulation: positive (or
    for tie-heavy, {0,1,2}) coefficients on that simplex's rays only."""
    if d is None:
        rays = model.total_rays(n)
    else:
        rays = model.fixed_rays(n, d)
    _, simplices = model.simplices_for("total" if d is None else "fixed", n, d, which)
    simplex = simplices[k]
    coeffs = [Fraction(0)] * len(rays)
    for pos, c in zip(simplex, _coeffs(rng, len(simplex), kind)):
        coeffs[pos] = c
    w = model.combine(coeffs, rays)
    if kind == "rational":
        scale = Fraction(rng.randint(1, 999), rng.randint(1, 999))
        w = model.Tail(tuple(scale * x for x in w.head),
                       scale * w.tail_even, scale * w.tail_odd)
    return w


def _degrees(rng, n):
    s = rng.randint(1, n)
    return sorted(rng.sample(range(0, 3 * n + 4), s + 1))


# --- workloads -----------------------------------------------------------------------

def membership_round(seed: int, r: int) -> list[dict]:
    rng = _stream("membership-scan", seed, r)
    groups = []
    for op in MEMBERSHIP_OPS:
        for n, count in MEMBERSHIP_COUNTS.items():
            group = []
            for k in range(count):
                member = (k + r) % 2 == 0
                kind = "tie" if (k + r // 2) % 2 else "integer"
                if op.startswith("regular."):
                    group.append(_regular_request(rng, op, n, member, kind))
                elif op == "hyper_total.facets_check":
                    group.append(_hyper_request(rng, op, n, None, member, kind))
                elif op == "hyper_fixed.member":
                    group.append(_hyper_request(rng, op, n, 3, member, kind))
                elif op == "pure.herzog_kuhl":
                    group.append({"op": op, "n": n,
                                  "args": {"degrees": _degrees(rng, n)}, "meta": {}})
                else:
                    group.append({"op": op, "n": n, "meta": {},
                                  "args": {"j": rng.randint(0, n - 1),
                                           "t": rng.randint(2, 9)}})
            groups.append(group)
    return _interleave(rng, groups)


def certify_round(seed: int, r: int) -> list[dict]:
    rng = _stream("certify", seed, r)
    groups = []
    for slot, (op, param) in enumerate(CERTIFY_OPS):
        for n, count in CERTIFY_COUNTS.items():
            group = []
            for k in range(count):
                kind = CERTIFY_KINDS[(r + k + slot) % 3]
                if op == "regular.decompose":
                    coeffs, v = _regular_member(rng, n, kind)
                    if kind == "rational":
                        scale = Fraction(rng.randint(1, 999), rng.randint(1, 999))
                        v = [scale * x for x in v]
                    group.append({"op": op, "n": n, "meta": {},
                                  "args": {"seq": json.dumps(model.finite_json(v))}})
                    continue
                d = param if op == "hyper_fixed.decompose" else None
                which = param if op == "hyper_total.decompose" else 1
                size = len(model.simplices_for("total" if d is None else "fixed",
                                               n, d, which)[1])
                stratum = _stratum(f"{op}:{param}:{n}:{k}", r, size)
                w = _certified_member(rng, n, d, which, stratum, kind)
                args = {"seq": json.dumps(w.to_json()), "which": which}
                if d is not None:
                    args["d"] = d
                group.append({"op": op, "n": n, "args": args, "meta": {}})
            groups.append(group)
    return _interleave(rng, groups)


def verify_round(seed: int, r: int) -> list[dict]:
    rng = _stream("verify-sweep", seed, r)
    ops = [{"op": op, "n": args["n"], "args": dict(args), "meta": {}}
           for op, args in VERIFY_GRID]
    rng.shuffle(ops)
    return ops


def _cli(argv, n, expect_exit, inner=None):
    return {"op": "cli", "n": n, "args": {"argv": argv},
            "meta": {"expect_exit": expect_exit, "inner": inner}}


def _malformed(kind: str, n: int) -> str:
    entries = ["1"] * (n + 1)
    data = {"kind": "finite", "n": n, "entries": entries}
    if kind == "zero_denominator":
        entries[0] = "1/0"
    elif kind == "huge_integer":
        entries[0] = "7" * 4301
    elif kind == "non_ascii_digit":
        entries[0] = "１"  # FULLWIDTH DIGIT ONE
    elif kind == "bool_n":
        data = {"kind": "finite", "n": True, "entries": ["1", "1"]}
    elif kind == "invalid_json":
        return '{"kind": "finite", "entries": ['
    elif kind == "float_string":
        entries[0] = "1.5"
    elif kind == "missing_entries":
        del data["entries"]
    return json.dumps(data, ensure_ascii=False)


def _seq_argv(command, req, extra=()):
    return [command, "--inline", req["args"]["seq"], *extra]


def cli_round(seed: int, r: int) -> list[dict]:
    """40 requests: 26 that exit 0, 12 rejections that exit 2, and 2
    malformed inputs that must exit 1."""
    rng = _stream("cli-roundtrip", seed, r)
    small = lambda lo=2: rng.randint(lo, 8)  # noqa: E731
    kind = lambda: rng.choice(("integer", "tie"))  # noqa: E731
    ok, reject = [], []

    for member in (True, False, True):
        n = small()
        req = _regular_request(rng, "regular.facet_violations", n, member, kind())
        ok.append(_cli(_seq_argv("member", req, ("--cone", "regular", "--n", str(n))), n, 0, req))
        n = small()
        req = _hyper_request(rng, "hyper_total.facets_check", n, None, member, kind())
        ok.append(_cli(_seq_argv("member", req, ("--cone", "total", "--n", str(n))), n, 0, req))
    for member in (True, False):
        n, d = small(), rng.randint(2, 5)
        req = _hyper_request(rng, "hyper_fixed.member", n, d, member, kind())
        ok.append(_cli(_seq_argv("member", req, ("--cone", "fixed", "--n", str(n),
                                                 "--mult", str(d))), n, 0, req))
    for _ in range(2):
        n = small()
        req = _regular_request(rng, "regular.decompose", n, True, kind())
        ok.append(_cli(_seq_argv("decompose", req, ("--cone", "regular", "--n", str(n))), n, 0, req))
    for which in (1, 2, 1):
        n = small()
        req = _hyper_request(rng, "hyper_total.decompose", n, None, True, kind(),
                             {"which": which})
        ok.append(_cli(_seq_argv("decompose", req, ("--cone", "total", "--n", str(n),
                                                    "--triangulation", str(which))), n, 0, req))
    for d in (3, 2):
        n = small()
        req = _hyper_request(rng, "hyper_fixed.decompose", n, d, True, kind(), {"which": 1})
        ok.append(_cli(_seq_argv("decompose", req, ("--cone", "fixed", "--n", str(n),
                                                    "--mult", str(d))), n, 0, req))
    for member in (True, False, True):
        n = small()
        req = _regular_request(rng, "regular.classify", n, member, kind())
        ok.append(_cli(_seq_argv("classify", req, ("--n", str(n))), n, 0, req))
    for _ in range(2):
        n = small()
        req = _hyper_request(rng, "hyper_total.split", n, None, True, kind())
        ok.append(_cli(_seq_argv("split", req, ("--n", str(n))), n, 0, req))
    for _ in range(2):
        n = small()
        req = _regular_request(rng, "phi", n, True, kind())
        ok.append(_cli(_seq_argv("phi", req), n, 0, req))
    n = small()
    degrees = _degrees(rng, n)
    ok.append(_cli(["hk", "--degrees", ",".join(map(str, degrees)), "--n", str(n)], n, 0,
                   {"op": "hk", "n": n, "args": {"degrees": degrees}, "meta": {}}))
    n = small()
    degrees = _degrees(rng, n)
    at = rng.randint(0, len(degrees) - 1)
    ok.append(_cli(["hk", "--degrees", ",".join(map(str, degrees)), "--n", str(n),
                    "--normalize-at", str(at)], n, 0,
                   {"op": "hk", "n": n, "args": {"degrees": degrees, "at": at}, "meta": {}}))
    for _ in range(2):
        n = small()
        j, t = rng.randint(0, n - 1), rng.randint(2, 9)
        ok.append(_cli(["limit", "--j", str(j), "--t", str(t), "--n", str(n)], n, 0,
                       {"op": "pure.limit_gap", "n": n, "args": {"j": j, "t": t}, "meta": {}}))

    for _ in range(2):
        n = small()
        req = _regular_request(rng, "regular.decompose", n, False, kind())
        reject.append(_cli(_seq_argv("decompose", req, ("--cone", "regular", "--n", str(n))),
                           n, 2, req))
    for _ in range(2):
        n = small()
        req = _hyper_request(rng, "hyper_total.decompose", n, None, False, kind())
        reject.append(_cli(_seq_argv("decompose", req, ("--cone", "total", "--n", str(n))),
                           n, 2, req))
    n, d = small(), rng.randint(2, 5)
    req = _hyper_request(rng, "hyper_fixed.decompose", n, d, False, kind())
    reject.append(_cli(_seq_argv("decompose", req, ("--cone", "fixed", "--n", str(n),
                                                    "--mult", str(d))), n, 2, req))
    n = small()
    req = _hyper_request(rng, "hyper_total.split", n, None, False, kind())
    reject.append(_cli(_seq_argv("split", req, ("--n", str(n))), n, 2, req))
    n = small()
    req = _regular_request(rng, "regular.classify", n, True, kind())
    reject.append(_cli(_seq_argv("classify", req, ("--n", str(n + 1))), n, 2))
    n = small()
    req = _hyper_request(rng, "hyper_total.facets_check", n, None, True, kind())
    reject.append(_cli(_seq_argv("phi", req), n, 2))
    n = small()
    degrees = _degrees(rng, n)
    degrees[-1] = degrees[-2]
    reject.append(_cli(["hk", "--degrees", ",".join(map(str, degrees)), "--n", str(n)], n, 2))
    n = small()
    reject.append(_cli(["limit", "--j", str(n), "--t", "3", "--n", str(n)], n, 2))
    n = small()
    reject.append(_cli(["limit", "--j", "0", "--t", "1", "--n", str(n)], n, 2))
    req = _regular_request(rng, "regular.facet_violations", 1, True, kind())
    reject.append(_cli(_seq_argv("member", req, ("--cone", "total", "--n", "1")), 1, 2))

    bad = [_malformed_cli(k, small()) for k in rng.sample(MALFORMED_PLAIN, 2)]
    return _interleave(rng, [ok, reject, bad])


def _malformed_cli(kind: str, n: int) -> dict:
    n = 1 if kind == "bool_n" else n
    return _cli(["member", "--inline", _malformed(kind, n), "--cone", "regular", "--n", str(n)],
                n, 1, {"malformed": kind})


def known_defects(seed: int) -> list[dict]:
    """One CLI request per known input-boundary defect; each must exit 1
    with a one-line error."""
    rng = _stream("cli-known-defects", seed, 0)
    return [_malformed_cli(k, rng.randint(2, 8)) for k in MALFORMED_DEFECTS]


ROUNDS = {"membership-scan": membership_round, "certify": certify_round,
          "cli-roundtrip": cli_round, "verify-sweep": verify_round}


def requests(workload: str, seed: int):
    """Endless request stream, tagged with its position in the stream."""
    make = ROUNDS[workload]
    index = 0
    r = 0
    while True:
        for req in make(seed, r):
            yield index, req
            index += 1
        r += 1


# --- warm-up requests (fixed, not seeded) ----------------------------------------------

def _ones_regular(op, n):
    v = model.combine_finite([Fraction(1)] * (n + 1), model.regular_rays(n))
    return {"op": op, "n": n, "args": {"seq": json.dumps(model.finite_json(v))}, "meta": {}}


def _first_simplex_member(op, n, d, which):
    rays = model.total_rays(n) if d is None else model.fixed_rays(n, d)
    _, simplices = model.simplices_for("total" if d is None else "fixed", n, d, which)
    coeffs = [Fraction(int(p in simplices[0])) for p in range(len(rays))]
    args = {"seq": json.dumps(model.combine(coeffs, rays).to_json()), "which": which}
    if d is not None:
        args["d"] = d
    return {"op": op, "n": n, "args": args, "meta": {}}


def warmups(workload: str) -> list[dict]:
    """One cheap request per (operation, n) the workload uses."""
    out = []
    if workload == "membership-scan":
        for n in NS:
            out += [_ones_regular("regular.facet_violations", n),
                    _ones_regular("regular.classify", n),
                    _first_simplex_member("hyper_total.facets_check", n, None, 1),
                    _first_simplex_member("hyper_fixed.member", n, 3, 1),
                    {"op": "pure.herzog_kuhl", "n": n, "args": {"degrees": [0, 1]}, "meta": {}},
                    {"op": "pure.limit_gap", "n": n, "args": {"j": 0, "t": 2}, "meta": {}}]
    elif workload == "certify":
        for n in NS:
            out += [_first_simplex_member(op, n, param if op == "hyper_fixed.decompose" else None,
                                          param if op == "hyper_total.decompose" else 1)
                    for op, param in CERTIFY_OPS if op != "regular.decompose"]
            out.append(_ones_regular("regular.decompose", n))
    elif workload == "cli-roundtrip":
        seq = json.dumps(model.finite_json([Fraction(x) for x in (2, 1, 0, 0)]))
        for command, extra in (("member", ("--cone", "total", "--n", "3")),
                               ("decompose", ("--cone", "total", "--n", "3")),
                               ("classify", ("--n", "3")), ("split", ("--n", "3")),
                               ("phi", ())):
            out.append(_cli([command, "--inline", seq, *extra], 3, 0))
        out.append(_cli(["hk", "--degrees", "0,1,2", "--n", "2"], 2, 0))
        out.append(_cli(["limit", "--j", "0", "--t", "2", "--n", "2"], 2, 0))
    else:
        firsts = {}
        for op, args in VERIFY_GRID:
            firsts.setdefault(op, args)
        out = [{"op": op, "n": args["n"], "args": dict(args), "meta": {}}
               for op, args in firsts.items()]
    return out
