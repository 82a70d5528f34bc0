"""Independent output checker.

Every expected value is recomputed with `model` (the benchmark's own
arithmetic), never with the package. `check` returns None for a correct
answer and a one-line reason otherwise. It runs outside the timed region.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from . import model

_TERM = re.compile(r"\(([^)]*)\)\*([a-z_]+\[-?\d+\])")


def _parse_rational(text: str) -> Fraction:
    if not re.fullmatch(r"-?[0-9]+(/[0-9]+)?", text):
        raise ValueError(f"not a rational string: {text!r}")
    return Fraction(text)


def _parse_seq(text: str):
    """The request's sequence as a finite list or a `model.Tail`."""
    data = json.loads(text)
    if data["kind"] == "finite":
        return [_parse_rational(x) for x in data["entries"]]
    return model.Tail(tuple(_parse_rational(x) for x in data["head"]),
                      _parse_rational(data["tail_even"]), _parse_rational(data["tail_odd"]))


def _violations_json(violations) -> list[dict]:
    return [{"constraint": name, "value": model.rat(x)} for name, x in violations]


def _expect_violations(req) -> list[tuple[str, Fraction]]:
    op, n, args = req["op"], req["n"], req["args"]
    seq = _parse_seq(args["seq"])
    if op.startswith("regular."):
        return model.regular_violations(seq)
    if op.startswith("hyper_fixed."):
        return model.fixed_violations(model.as_tail(seq), n, args["d"])
    return model.total_violations(model.as_tail(seq), n)


def _membership(req, payload) -> str | None:
    violations = _expect_violations(req)
    crossed = req["meta"].get("crossed")
    names = [name for name, _ in violations]
    if (crossed is None) != (not violations) or (crossed and crossed not in names):
        return f"generator invariant broken: crossed {crossed}, violations {names}"
    cone = {"regular": "regular", "hyper_total": "total", "hyper_fixed": "fixed"}[
        req["op"].split(".")[0]]
    expected = {"cone": cone, "n": req["n"], "member": not violations,
                "violations": _violations_json(violations)}
    if cone == "fixed":
        expected["multiplicity"] = req["args"]["d"]
    payload = {k: v for k, v in payload.items() if k != "caveat"}
    if payload != expected:
        return f"membership answer differs: got {payload}, expected {expected}"
    return None


def _classify(req, payload) -> str | None:
    n = req["n"]
    if req["op"] == "pure.herzog_kuhl":
        v = model.herzog_kuhl(req["args"]["degrees"], n)
        coeffs = [x for _, x in model.regular_values(v)]
    else:
        coeffs = [Fraction(c) for c in req["meta"]["coeffs"]]
        v = _parse_seq(req["args"]["seq"])
        if coeffs != [x for _, x in model.regular_values(v)]:
            return "generator invariant broken: coefficients do not match chi values"
    expected = model.classify_fields(n, coeffs)
    if payload != expected:
        return f"classify answer differs: got {payload}, expected {expected}"
    return None


def _regular_certificate(req, payload) -> str | None:
    n = req["n"]
    v = _parse_seq(req["args"]["seq"])
    expected = {"cone": "regular", "n": n, "coefficients": {
        name: model.rat(x) for name, (_, x)
        in zip(model.regular_ray_names(n), model.regular_values(v))}}
    if payload != expected:
        return f"regular certificate differs: got {payload}, expected {expected}"
    return None


def _support_check(coeffs: list[Fraction], simplex: tuple[int, ...],
                   simplices: list[tuple[int, ...]]) -> str | None:
    if simplex not in simplices:
        return f"simplex {simplex} is not in the named triangulation"
    if any(c < 0 for c in coeffs):
        return "negative certificate coefficient"
    if any(c != 0 for p, c in enumerate(coeffs) if p not in simplex):
        return "certificate is not supported on its simplex"
    return None


def _same_sequence(a: model.Tail, b: model.Tail) -> bool:
    length = max(len(a.head), len(b.head)) + 2
    return a.prefix(length) == b.prefix(length)


def _hyper_certificate(req, payload) -> str | None:
    n, args = req["n"], req["args"]
    d = args.get("d")
    cone = "fixed" if d is not None else "total"
    w = model.as_tail(_parse_seq(args["seq"]))
    names = model.fixed_ray_names(n, d) if d is not None else model.total_ray_names(n)
    rays = model.fixed_rays(n, d) if d is not None else model.total_rays(n)
    label, simplices = model.simplices_for(cone, n, d, args.get("which", 1))
    head = {"cone": cone, "n": n}
    if d is not None:
        head["multiplicity"] = d
    if {k: payload.get(k) for k in head} != head:
        return f"certificate header differs: {payload}"
    if payload.get("triangulation") != label:
        return f"triangulation label {payload.get('triangulation')!r}, expected {label!r}"
    if list(payload["coefficients"]) != names:
        return f"certificate ray names {list(payload['coefficients'])}, expected {names}"
    coeffs = [_parse_rational(payload["coefficients"][name]) for name in names]
    simplex = tuple(names.index(name) for name in payload["simplex"])
    problem = _support_check(coeffs, simplex, simplices)
    if problem:
        return problem
    if not _same_sequence(model.combine(coeffs, rays), w):
        return "certificate does not reconstruct the input"
    return None


def _split(req, payload) -> str | None:
    n = req["n"]
    w = model.as_tail(_parse_seq(req["args"]["seq"]))
    v1 = [_parse_rational(x) for x in payload["v1"]["entries"]]
    v2 = [_parse_rational(x) for x in payload["v2"]["entries"]]
    if payload["n"] != n or len(v1) != n + 1 or len(v2) != n:
        return "split parts have the wrong lengths"
    # v1 = a*rho[n-2] + b*rho[n-1]; with v2's ray coefficients this is the
    # omit_odd certificate, which must sit on one simplex.
    a, b = v1[n - 2], v1[n]
    if any(v1[:n - 2]) or v1[n - 1] != a + b:
        return "v1 is not a combination of rho[n-2] and rho[n-1]"
    coeffs = [x for _, x in model.regular_values(v2)] + [a, b]
    _, simplices = model.simplices_for("total", n, None, 1)
    problem = _support_check(coeffs, _support_simplex(coeffs, simplices), simplices)
    if problem:
        return "split " + problem
    total = model.combine([Fraction(1), Fraction(1)], [model.phi(v1), model.as_tail(v2)])
    if not _same_sequence(total, w):
        return "phi(v1) + v2 does not reconstruct the input"
    return None


def _support_simplex(coeffs, simplices):
    """The first simplex containing the support, or the support itself."""
    support = {p for p, c in enumerate(coeffs) if c != 0}
    for simplex in simplices:
        if support <= set(simplex):
            return simplex
    return tuple(sorted(support))


def _verify(req, answer: str) -> str | None:
    ok, name, detail = answer.split("\t")
    n = req["n"]
    kind = req["op"].split("check_")[1]
    if ok != "True":
        return f"oracle check failed: {name} {detail}"
    if kind == "regular":
        expected = (f"regular n={n}: rays <-> facets", "")
    elif kind == "fixed":
        expected = (f"fixed n={n} d={req['args']['d']}: rays <-> facets", "")
    elif kind == "triangulations":
        counts = [len(model.triangulation(n, which)) for which in (1, 2)]
        expected = (f"total n={n}: triangulations",
                    f"omit_odd: {counts[0]} simplices valid; "
                    f"omit_even: {counts[1]} simplices valid")
    else:
        expected = (f"total n={n}: rays <-> facets, relation space 1-dim", detail)
        terms = dict((term, Fraction(c)) for c, term in _TERM.findall(detail))
        names = model.total_ray_names(n)
        coeffs = [terms.get(ray, Fraction(0)) for ray in names]
        relation = model.combine(coeffs, model.total_rays(n))
        if (set(terms) - set(names) or coeffs[-1] != 1
                or any(relation.prefix(n + 3)) or relation.tail_even or relation.tail_odd):
            return f"ray relation is wrong: {detail}"
    if (name, detail) != expected:
        return f"sweep row {name!r} [{detail}], expected {expected}"
    return None


def check_answer(req, answer: str) -> str | None:
    """Check one in-process answer (the serialized payload)."""
    op = req["op"]
    try:
        if op.startswith("verification."):
            return _verify(req, answer)
        if op == "pure.limit_gap":
            a = req["args"]
            expected = model.rat(model.limit_gap(a["j"], a["t"], req["n"]))
            return None if answer == expected else f"limit gap {answer}, expected {expected}"
        payload = json.loads(answer)
        if op == "phi":
            expected = model.phi(_parse_seq(req["args"]["seq"])).to_json()
            return None if payload == expected else f"phi {payload}, expected {expected}"
        if op == "hk":
            a = req["args"]
            v = model.herzog_kuhl(a["degrees"], req["n"])
            if "at" in a:
                v = [x / v[a["at"]] for x in v]
            expected = model.finite_json(v)
            return None if payload == expected else f"hk {payload}, expected {expected}"
        if op in ("regular.facet_violations", "hyper_total.facets_check",
                  "hyper_fixed.member"):
            return _membership(req, payload)
        if op in ("regular.classify", "pure.herzog_kuhl"):
            return _classify(req, payload)
        if op == "regular.decompose":
            return _regular_certificate(req, payload)
        if op == "hyper_total.split":
            return _split(req, payload)
        return _hyper_certificate(req, payload)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return f"unreadable answer: {type(exc).__name__}: {exc}"


def check_cli(req, code: int, out: str, err: str) -> str | None:
    """Check one CLI process: exit code, stderr shape, then the answer."""
    meta = req["meta"]
    if "Traceback" in err:
        return f"traceback on stderr (exit {code}): {err.strip().splitlines()[-1]}"
    if code != meta["expect_exit"]:
        return f"exit {code}, expected {meta['expect_exit']}"
    inner = meta.get("inner")
    if code == 0:
        if err or out.count("\n") != 1:
            return "a successful call must print one line and nothing on stderr"
        return check_answer(inner, out.strip()) if inner else None
    if out:
        return f"a failed call printed on stdout: {out.strip()[:80]}"
    lines = err.splitlines()
    if len(lines) < 1 or not lines[0].startswith("error: "):
        return f"stderr must start with one 'error: ' line, got {err[:80]!r}"
    extra = lines[1:]
    if code == 2 and inner and inner.get("meta", {}).get("crossed"):
        expected = [f"  violated: {name} = {model.rat(x)}"
                    for name, x in _expect_violations(inner)]
        if extra != expected:
            return f"violation lines {extra}, expected {expected}"
    elif extra:
        return f"stderr has {len(lines)} lines, expected one"
    return None
