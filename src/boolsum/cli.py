"""Command-line front end: every capability as a reproducible, scriptable report.

Usage examples:

    boolsum sum --degrees 3 --n 4 --oracle
    boolsum recurrence --degrees 6,17
    boolsum recurrence --degrees 3,5 --full --verify 40
    boolsum c0 --degrees 7,9,2^100000+2^10000,2^1000000+5
    boolsum asym --degrees 5,9,12 --n 100 --precision 1024
    boolsum error-table --degrees 5,9,12 --rows 100,200,300,400,500
    boolsum balanced --degrees 2 --max-n 20

Degrees are comma-separated; each degree is an integer or a '+'-separated sum
of terms `INT` or `2^INT` whose powers of two must all be distinct, e.g.
`2^1000000+5`; an `INT` may have any number of digits.  Reports are JSON by default (error-table defaults to CSV);
all integers above 53-bit magnitude serialize as decimal strings (with no
digit limit) so that double-precision JSON consumers cannot corrupt them.
Exit codes: 0 success, 2 bad input, 3 infeasible request (enumeration or
precision guard).
"""

from __future__ import annotations

import json
import re
import sys
from contextlib import contextmanager
from fractions import Fraction

import click

from . import __version__
from .asymptotics import (
    PrecisionConfig,
    asymptotic_value,
    error_table,
    error_term,
    limit_correlation,
    main_term,
)
from .bitcombinatorics import R_MAX_DEFAULT, DegreeSet, bits_of
from .cyclotomic import orbit_sums
from .errors import BoolsumError, PrecisionError, ResourceLimitError
from .expsum import (
    N_MAX_BRUTEFORCE,
    correlation,
    exp_sum,
    exp_sum_bruteforce,
    find_balanced,
    sequence,
)
from .recurrence import (
    degree_bounds,
    expand,
    full_charpoly,
    minimal_charpoly,
    recurrence_of,
    to_recurrence,
    verify,
)

_INT_RE = re.compile(r"^[0-9]+$")
_JSON_SAFE_MAGNITUDE = 1 << 53


class DegreeParseError(ValueError):
    """The degree expression does not follow the grammar."""


def _parse_degree(text: str) -> tuple[int, ...]:
    bits: set[int] = set()
    for raw_term in text.split("+"):
        term = raw_term.strip()
        if term.startswith("2^"):
            exponent = term[2:].strip()
            if not _INT_RE.match(exponent):
                raise DegreeParseError(f"bad power-of-two term {term!r}")
            new_bits = [_int(exponent)]
        elif _INT_RE.match(term):
            value = _int(term)
            if value == 0:
                raise DegreeParseError("zero term in degree expression")
            new_bits = list(bits_of(value))
        else:
            raise DegreeParseError(f"bad degree term {term!r}")
        for b in new_bits:
            if b in bits:
                raise DegreeParseError(
                    f"terms of {text!r} repeat the power of two 2^{b}"
                )
            bits.add(b)
    return tuple(sorted(bits))


def parse_degrees(expr: str) -> DegreeSet:
    """Parse a comma-separated degree expression into a sorted DegreeSet."""
    parts = [p.strip() for p in expr.split(",")]
    if not expr.strip() or any(not p for p in parts):
        raise DegreeParseError("empty degree expression")
    try:
        return DegreeSet.from_bit_sets(_parse_degree(p) for p in parts)
    except ValueError as exc:
        raise DegreeParseError(str(exc)) from None


def format_degree(bits: tuple[int, ...]) -> str:
    """Canonical text form: decimal when small, '2^a+2^b+...' otherwise."""
    if bits[-1] < 64:
        return str(DegreeSet.mask(bits))
    return "+".join(f"2^{b}" for b in reversed(bits))


def _decimal(value: int) -> str:
    """Decimal string of an int of any size.

    str() refuses ints past the interpreter's digit limit; those are split
    recursively at a power of ten instead of raising the process-wide limit.
    """
    try:
        return str(value)
    except ValueError:
        pass
    if value < 0:
        return "-" + _decimal(-value)
    half = value.bit_length() * 3 // 20  # about half the decimal digits
    high, low = divmod(value, 10**half)
    return _decimal(high) + _decimal(low).zfill(half)


def _int(digits: str) -> int:
    """int() of a decimal digit string of any length; the inverse of _decimal."""
    try:
        return int(digits)
    except ValueError:
        pass
    half = len(digits) // 2
    return _int(digits[:-half]) * 10**half + _int(digits[-half:])


def _ratio(q: Fraction) -> str:
    """str(q) for a Fraction, without the digit limit."""
    if q.denominator == 1:
        return _decimal(q.numerator)
    return f"{_decimal(q.numerator)}/{_decimal(q.denominator)}"


def _jsonable(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return value if -_JSON_SAFE_MAGNITUDE < value < _JSON_SAFE_MAGNITUDE else _decimal(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def _report(command: str, K: DegreeSet, result: dict, precision_bits: int | None) -> dict:
    return {
        "command": command,
        "degrees": [format_degree(bits) for bits in K.degrees],
        "result": result,
        "version": __version__,
        "precision_bits": precision_bits,
    }


def _emit(report: dict, fmt: str, csv_rows: "list[str] | None") -> None:
    if fmt == "csv" and csv_rows is not None:
        for line in csv_rows:
            click.echo(line)
        return
    if fmt == "csv":
        # Scalar payloads flatten to key,value rows in sorted key order.
        payload = _jsonable(report["result"])
        for key in sorted(payload):
            value = payload[key]
            cell = value if isinstance(value, str) else json.dumps(value, sort_keys=True)
            click.echo(f"{key},{cell}")
        return
    click.echo(json.dumps(_jsonable(report), sort_keys=True, indent=2))


@contextmanager
def _error_exit():
    try:
        yield
    except (ResourceLimitError, PrecisionError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(3)
    except (BoolsumError, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)


def _common_options(fn):
    fn = click.option(
        "--format",
        "fmt",
        type=click.Choice(["json", "csv"]),
        default=None,
        help="Output format (default json; error-table defaults to csv).",
    )(fn)
    fn = click.option(
        "--r-max",
        "r_max",
        type=int,
        default=R_MAX_DEFAULT,
        show_default=True,
        help="Cap on the period exponent r for 2**r enumerations.",
    )(fn)
    fn = click.option(
        "--degrees",
        "degrees_expr",
        required=True,
        metavar="EXPR",
        help="Comma-separated degrees, e.g. '3,5' or '31,2^10000+64'.",
    )(fn)
    return fn


@click.group()
@click.version_option(version=__version__, prog_name="boolsum")
def cli() -> None:
    """Exact exponential sums of symmetric Boolean functions."""


@cli.command("sum")
@_common_options
@click.option("--n", "n", type=int, required=True, help="Number of variables.")
@click.option(
    "--oracle",
    is_flag=True,
    help="Also run the brute-force enumeration and report whether it matches.",
)
@click.option(
    "--max-brute",
    type=int,
    default=N_MAX_BRUTEFORCE,
    show_default=True,
    help="Cap on n for the 2**n brute-force enumeration.",
)
def cmd_sum(degrees_expr, n, oracle, max_brute, fmt, r_max) -> None:
    """Exact exponential sum S(n) for the given degrees."""
    with _error_exit():
        K = parse_degrees(degrees_expr)
        value = exp_sum(n, K)
        result = {
            "n": n,
            "exponential_sum": value,
            "correlation": _ratio(correlation(n, K)),
        }
        if oracle:
            check = exp_sum_bruteforce(n, K, n_max=max_brute)
            result["oracle"] = check
            result["match"] = check == value
        _emit(_report("sum", K, result, None), fmt or "json", None)


@cli.command("recurrence")
@_common_options
@click.option("--full", is_flag=True, help="Also report the full period-2**r recurrence.")
@click.option(
    "--verify",
    "verify_to",
    type=int,
    default=None,
    metavar="M",
    help="Verify the minimal recurrence against the exact sequence up to n=M.",
)
def cmd_recurrence(degrees_expr, full, verify_to, fmt, r_max) -> None:
    """Minimal characteristic polynomial, recurrence, and degree bounds."""
    with _error_exit():
        K = parse_degrees(degrees_expr)
        sums = orbit_sums(K, r_max=r_max)
        factored = minimal_charpoly(K, sums=sums)
        poly = expand(factored)
        rec = recurrence_of(poly, sums)
        lower, upper = degree_bounds(K)
        result = {
            "minimal": factored.to_dict(),
            "polynomial": list(poly.coeffs),
            "recurrence": list(rec.coefficients),
            "valid_from": rec.valid_from,
            "degree_bounds": {"lower": lower, "upper": upper},
        }
        if full:
            full_poly = full_charpoly(K.period_exponent, r_max=r_max)
            result["full_polynomial"] = list(full_poly.coeffs)
            result["full_recurrence"] = list(to_recurrence(full_poly).coefficients)
        if verify_to is not None:
            failure = verify(sequence(K, 0, verify_to), rec)
            result["verify"] = {"through": verify_to, "ok": failure is None}
            if failure is not None:
                result["verify"]["first_failure"] = failure
        _emit(_report("recurrence", K, result, None), fmt or "json", None)


@cli.command("c0")
@_common_options
def cmd_c0(degrees_expr, fmt, r_max) -> None:
    """Exact limit of S(n)/2**n and the asymptotic balancedness verdict."""
    with _error_exit():
        K = parse_degrees(degrees_expr)
        c0 = limit_correlation(K)
        result = {"c0": _ratio(c0), "asymptotically_balanced": c0 == 0}
        _emit(_report("c0", K, result, None), fmt or "json", None)


@cli.command("asym")
@_common_options
@click.option("--n", "n", type=int, required=True, help="Evaluation point.")
@click.option(
    "--precision",
    "precision_bits",
    type=int,
    default=None,
    envvar="BOOLSUM_PRECISION",
    help="Working precision in bits (default 1024; env BOOLSUM_PRECISION).",
)
def cmd_asym(degrees_expr, n, precision_bits, fmt, r_max) -> None:
    """Main term, two-term asymptotic value, and (when c0 = 0) the error term."""
    with _error_exit():
        K = parse_degrees(degrees_expr)
        prec = PrecisionConfig(bits=1024 if precision_bits is None else precision_bits)
        sums = orbit_sums(K, r_max=r_max)
        c0 = sums.c0
        result = {
            "n": n,
            "c0": _ratio(c0),
            "main_term": prec.format(main_term(K, n, prec, sums=sums)),
            "asymptotic_value": prec.format(asymptotic_value(K, n, prec, sums=sums)),
        }
        if c0 == 0:
            result["error_term"] = prec.format(error_term(K, n, prec, r_max=r_max, sums=sums))
        _emit(_report("asym", K, result, prec.bits), fmt or "json", None)


@cli.command("error-table")
@_common_options
@click.option(
    "--rows",
    "rows_expr",
    required=True,
    metavar="N1,N2,...",
    help="Comma-separated n values for the table rows.",
)
@click.option(
    "--precision",
    "precision_bits",
    type=int,
    default=None,
    envvar="BOOLSUM_PRECISION",
    help="Working precision in bits (default 1024; env BOOLSUM_PRECISION).",
)
def cmd_error_table(degrees_expr, rows_expr, precision_bits, fmt, r_max) -> None:
    """Error_n table; CSV with header n,error unless --format json."""
    with _error_exit():
        K = parse_degrees(degrees_expr)
        try:
            rows = [int(part.strip()) for part in rows_expr.split(",")]
        except ValueError:
            raise DegreeParseError(f"bad row list {rows_expr!r}") from None
        prec = PrecisionConfig(bits=1024 if precision_bits is None else precision_bits)
        table = error_table(K, rows, prec, r_max=r_max)
        result = {"rows": [{"n": n, "error": prec.format(v)} for n, v in table]}
        csv_rows = ["n,error"] + [f"{n},{prec.format(v)}" for n, v in table]
        _emit(_report("error-table", K, result, prec.bits), fmt or "csv", csv_rows)


@cli.command("balanced")
@_common_options
@click.option("--max-n", "max_n", type=int, required=True, help="Search bound.")
def cmd_balanced(degrees_expr, max_n, fmt, r_max) -> None:
    """All n up to the bound where the function is balanced (S(n) = 0)."""
    with _error_exit():
        K = parse_degrees(degrees_expr)
        found = find_balanced(K, max_n)
        result = {"max_n": max_n, "balanced": found}
        csv_rows = ["n"] + [str(n) for n in found]
        _emit(_report("balanced", K, result, None), fmt or "json", csv_rows)


def main() -> None:
    cli(prog_name="boolsum")


if __name__ == "__main__":
    main()
