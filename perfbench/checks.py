"""Output checks: every report is recomputed by an independent route.

`check` runs outside the timed region and keeps no state between requests, so
it adds no long-lived allocations to the benchmark process.
"""

from __future__ import annotations

import json
from fractions import Fraction

from reference import (
    PRIME,
    ZERO_TEST_MODULUS,
    Asymptotics,
    berlekamp_massey_mod,
    c0_enumerated,
    check_bits,
    degree_value,
    eval_mod,
    exp_sum_brute,
    exp_sum_walk,
    exp_sums_stepped,
    factored_eval_mod,
    fraction_text,
    orbit_structure,
    parse_int,
    signs_pascal,
)
from workloads import Request, canonical_degrees

BRUTE_FORCE_MAX_N = 20
BM_MAX_R = 8
"""Berlekamp-Massey re-fits recurrences up to order 2**8; above, the factored form is checked."""

EVAL_POINTS = (3, 1000003, 987654321987654321)


class Mismatch(Exception):
    pass


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def check(req: Request, code, stdout: str) -> str | None:
    """None when the exit code and the report are right, else a short reason."""
    try:
        _expect(code == 0, f"exit code {code}")
        _CHECKS[req.command](req, stdout)
    except Mismatch as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed output: {exc!r}"
    return None


def _signs(req: Request) -> list[int]:
    return signs_pascal([degree_value(b) for b in req.degrees], req.r)


def _report(req: Request, stdout: str) -> dict:
    report = json.loads(stdout)
    _expect(report["command"] == req.command, "command echo")
    _expect(report["degrees"] == canonical_degrees(req), "degree echo")
    return report


def _sum(req: Request, stdout: str) -> None:
    result = _report(req, stdout)["result"]
    n = req.params["n"]
    if n <= BRUTE_FORCE_MAX_N:
        expected = exp_sum_brute(n, [degree_value(b) for b in req.degrees])
    else:
        expected = exp_sum_walk(n, _signs(req))
    _expect(result["n"] == n, "n echo")
    _expect(parse_int(result["exponential_sum"]) == expected, "S(n)")
    _expect(result["correlation"] == fraction_text(Fraction(expected, 1 << n)), "S(n)/2^n")


def _balanced(req: Request, stdout: str) -> None:
    result = _report(req, stdout)["result"]
    max_n = req.params["max_n"]
    values = exp_sums_stepped(_signs(req), range(1, max_n + 1), ZERO_TEST_MODULUS)
    expected = [n for n in range(1, max_n + 1) if values[n] == 0]
    _expect(result["max_n"] == max_n, "max_n echo")
    _expect(result["balanced"] == expected, "balanced list")


def _recurrence(req: Request, stdout: str) -> None:
    result = _report(req, stdout)["result"]
    r = req.r
    signs = _signs(req)
    x2, levels, alternating = orbit_structure(signs)
    degree = int(x2) + sum(1 << t for t in levels)
    _expect(
        result["minimal"] == {"x_minus_2": x2, "levels": sorted(levels), "degree": degree},
        "minimal charpoly",
    )
    poly = [parse_int(c) for c in result["polynomial"]]
    _expect(len(poly) == degree + 1 and poly[-1] == 1, "polynomial degree")
    for x in EVAL_POINTS:
        _expect(eval_mod(poly, x) == factored_eval_mod(x2, levels, x), "polynomial value")
    rec = [parse_int(c) for c in result["recurrence"]]
    _expect(rec == [-poly[degree - m] for m in range(1, degree + 1)], "companion recurrence")
    valid_from = degree + (1 if alternating else 0)
    _expect(result["valid_from"] == valid_from, "valid_from")
    values = [degree_value(b) for b in req.degrees]
    union = 0
    for k in values:
        union |= k
    top = max(values)
    _expect(
        result["degree_bounds"] == {"lower": 1 << (top.bit_length() - 1), "upper": union | 1},
        "degree bounds",
    )
    if r <= BM_MAX_R:
        length = (1 << (r + 1)) + 8
        prefix = exp_sums_stepped(signs, range(length), PRIME)
        conn = berlekamp_massey_mod([prefix[n] for n in range(length)])
        fitted = [(-c) % PRIME for c in conn[1:]]
        while fitted and fitted[-1] == 0:
            fitted.pop()
        _expect(len(conn) - 1 == valid_from, "Berlekamp-Massey order")
        _expect(fitted == [c % PRIME for c in rec], "Berlekamp-Massey coefficients")
    if req.params.get("full"):
        full = [parse_int(c) for c in result["full_polynomial"]]
        _expect(len(full) == 1 << r and full[-1] == 1, "full polynomial degree")
        for x in EVAL_POINTS:
            _expect(
                eval_mod(full, x) == factored_eval_mod(True, range(1, r), x),
                "full polynomial value",
            )
        full_rec = [parse_int(c) for c in result["full_recurrence"]]
        d = len(full) - 1
        _expect(full_rec == [-full[d - m] for m in range(1, d + 1)], "full recurrence")
    else:
        _expect("full_polynomial" not in result, "unrequested full polynomial")
    if "verify" in req.params:
        _expect(result["verify"] == {"through": req.params["verify"], "ok": True}, "verify")


def _c0(req: Request, stdout: str) -> None:
    result = _report(req, stdout)["result"]
    c0 = c0_enumerated(req.degrees)
    _expect(result["c0"] == fraction_text(c0), "c0")
    _expect(result["asymptotically_balanced"] == (c0 == 0), "balanced verdict")


def _asymptotics(req: Request, n_max: int) -> Asymptotics:
    return Asymptotics(_signs(req), req.r, check_bits(n_max, req.r))


def _asym(req: Request, stdout: str) -> None:
    report = _report(req, stdout)
    result = report["result"]
    n = req.params["n"]
    c0 = c0_enumerated(req.degrees)
    ref = _asymptotics(req, n)
    _expect(report["precision_bits"] == req.params["precision"], "precision echo")
    _expect(result["n"] == n and result["c0"] == fraction_text(c0), "n and c0")
    _expect(ref.agrees(result["main_term"], ref.main_term(n)), "main term")
    _expect(ref.agrees(result["asymptotic_value"], ref.asymptotic_value(n, c0)), "asymptotic value")
    if c0 == 0:
        s_value = exp_sum_walk(n, _signs(req))
        _expect(ref.agrees(result["error_term"], ref.error_term(n, s_value)), "error term")
    else:
        _expect("error_term" not in result, "error term with c0 != 0")


def _error_table(req: Request, stdout: str) -> None:
    rows = req.params["rows"]
    lines = stdout.splitlines()
    _expect(lines[0] == "n,error" and len(lines) == len(rows) + 1, "table shape")
    ref = _asymptotics(req, max(rows))
    values = exp_sums_stepped(_signs(req), rows)
    for n, line in zip(rows, lines[1:]):
        got_n, text = line.split(",")
        _expect(int(got_n) == n, "row index")
        _expect(ref.agrees(text, ref.error_term(n, values[n])), f"Error_{n}")


_CHECKS = {
    "sum": _sum,
    "balanced": _balanced,
    "recurrence": _recurrence,
    "c0": _c0,
    "asym": _asym,
    "error-table": _error_table,
}
