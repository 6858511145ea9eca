"""Limiting correlation, oscillating main term, and exact error terms.

The limiting correlation c0 = lim S(n)/2**n is computed three independent
ways: an inclusion-exclusion over subsets that needs only binary weights of
ORed degrees (and so works for degrees with millions of bits), a closed chain
formula for nested degree sets, and a direct enumeration over one period built
from Pascal's identity.  Vanishing of c0 is always decided in exact rational
arithmetic.

When c0 = 0 the sequence S(n), rescaled by the dominant root modulus
2*cos(pi/2**r), approaches the periodic main term

    M(n) = 2**(1-r) * sum over m of (-1)**e(m) * cos((n - 2m)*pi/2**r)

and the remainder Error_n = S(n)/(2*cos(pi/2**r))**n - M(n) is evaluated in
explicit high-precision contexts (mpmath), with the precision requirement
enforced up front because S(n) itself carries about n*log2(2*cos(pi/2**r))
bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import mpmath

from .bitcombinatorics import R_MAX_DEFAULT, DegreeSet, guard_period
from .cyclotomic import OrbitSums, ScaledCoefficient, orbit_sums
from .errors import PrecisionError
from .expsum import exp_sum, sequence


@dataclass(frozen=True)
class PrecisionConfig:
    """Working precision for real evaluation; passed explicitly, never ambient."""

    bits: int = 1024
    output_digits: int = 15

    def __post_init__(self) -> None:
        if self.bits < 64:
            raise ValueError("working precision below 64 bits is not supported")
        if self.output_digits < 1:
            raise ValueError("output_digits must be positive")

    def context(self):
        """A fresh mpmath context at this precision (independent of the global one)."""
        ctx = mpmath.mp.clone()
        ctx.prec = self.bits
        return ctx

    def format(self, x) -> str:
        """Decimal string at output_digits significant digits."""
        return mpmath.nstr(x, self.output_digits)


DEFAULT_PRECISION = PrecisionConfig()


def limit_correlation(K: DegreeSet) -> Fraction:
    """c0 = lim S(n)/2**n via inclusion-exclusion over subsets of the degrees.

    Each nonempty subset T contributes (-1)**|T| * 2**(|T| - w) with w the
    binary weight of the OR of T; only bit-set unions are needed, so this is
    fast even for astronomically large degrees.
    """
    bit_sets = [frozenset(bits) for bits in K.degrees]
    total = Fraction(1)
    for size in range(1, len(bit_sets) + 1):
        sign = -1 if size % 2 else 1
        for combo in combinations(bit_sets, size):
            weight = len(frozenset().union(*combo))
            total += Fraction(sign * (1 << size), 1 << weight)
    return total


def limit_correlation_nested(K: DegreeSet) -> Fraction:
    """c0 for a nested chain (each degree's bits contain the previous one's)."""
    if any(not set(low) <= set(high) for low, high in zip(K.degrees, K.degrees[1:])):
        raise ValueError("degrees do not form a nested chain")
    weights = [len(bits) for bits in K.degrees]
    s = len(weights)
    total = Fraction(1)
    if s % 2:
        total -= Fraction(2, 1 << weights[-1])
    for j in range(1, s // 2 + 1):
        # For nested pairs the weight of the difference telescopes.
        diff_weight = weights[2 * j - 1] - weights[2 * j - 2]
        total -= ((1 << diff_weight) - 1) * Fraction(2, 1 << weights[2 * j - 1])
    return total


def limit_correlation_enumerated(
    K: DegreeSet, *, r_max: int = R_MAX_DEFAULT
) -> Fraction:
    """c0 by direct enumeration of one full period.

    Walks Pascal's triangle modulo 2 row by row (row XOR shifted row), so the
    binomial parities come from the addition identity alone; this route shares
    nothing with the subset formula or the bit-subset parity test.
    """
    r = K.period_exponent
    guard_period(r, r_max)
    ks = K.values()
    period = 1 << r
    row = 1
    odd_count = 0
    for _ in range(period):
        e = 0
        for k in ks:
            e ^= (row >> k) & 1
        odd_count += e
        row ^= row << 1
    return Fraction(period - 2 * odd_count, period)


def is_asymptotically_balanced(K: DegreeSet) -> bool:
    """Whether S(n)/2**n tends to zero, i.e. the limit correlation vanishes."""
    return limit_correlation(K) == 0


@dataclass(frozen=True)
class MainTermProfile:
    """One full period of the main term plus its exact cyclotomic source."""

    degrees: DegreeSet
    period_exponent: int
    period: int
    profile: tuple
    c1: ScaledCoefficient


def _main_term_at(ctx, c1, r: int, n: int) -> "mpmath.mpf":
    """M(n) from the dominant coefficient c1 = (re, im), already evaluated in ctx."""
    re, im = c1
    n_reduced = n % (1 << (r + 1))
    theta = ctx.pi / (1 << r)
    value = ctx.cos(n_reduced * theta) * re - ctx.sin(n_reduced * theta) * im
    return value / (1 << (r - 1))


def main_term(
    K: DegreeSet,
    n: int,
    prec: PrecisionConfig | None = None,
    *,
    r_max: int = R_MAX_DEFAULT,
    sums: OrbitSums | None = None,
) -> "mpmath.mpf":
    """M(n), periodic in n with period 2**(r+1).

    Evaluates the exact cyclotomic coefficient of the dominant root
    numerically; the cosine sum in the module docstring is the same value.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    prec = prec or DEFAULT_PRECISION
    ctx = prec.context()
    c1 = (sums or orbit_sums(K, r_max=r_max)).c1
    return _main_term_at(ctx, c1.numerator.evaluate(ctx), K.period_exponent, n)


def main_term_exact(
    K: DegreeSet, n: int, *, r_max: int = R_MAX_DEFAULT
) -> ScaledCoefficient:
    """2**r * M(n) as an exact, conjugation-fixed cyclotomic integer.

    Periodicity M(n) = M(n + 2**(r+1)) is literal equality of these vectors.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    numerator = orbit_sums(K, r_max=r_max).c1.numerator
    r = K.period_exponent
    rotated = numerator.promote(r).times_zeta_power(n % (1 << (r + 1)))
    return ScaledCoefficient(rotated + rotated.conjugate(), 1 << r)


def main_term_profile(
    K: DegreeSet, prec: PrecisionConfig | None = None, *, r_max: int = R_MAX_DEFAULT
) -> MainTermProfile:
    """M(0), ..., M(period - 1) at working precision, plus the exact coefficient."""
    prec = prec or DEFAULT_PRECISION
    ctx = prec.context()
    c1 = orbit_sums(K, r_max=r_max).c1
    c1_value = c1.numerator.evaluate(ctx)
    r = K.period_exponent
    period = 1 << (r + 1)
    profile = tuple(_main_term_at(ctx, c1_value, r, n) for n in range(period))
    return MainTermProfile(
        degrees=K, period_exponent=r, period=period, profile=profile, c1=c1
    )


def _required_bits(n: int, r: int) -> int:
    growth = math.log2(2.0 * math.cos(math.pi / (1 << r)))
    return max(64, math.ceil(n * growth) + 64)


def _require_vanishing_limit(sums: OrbitSums) -> None:
    if sums.c0 != 0:
        raise ValueError(
            "the error term is defined only when the limit correlation vanishes"
        )


def _error_at(ctx, c1, r: int, n: int, s_value: int) -> "mpmath.mpf":
    """Error_n from the exact S(n) and c1 = (re, im), already evaluated in ctx."""
    modulus = 2 * ctx.cos(ctx.pi / (1 << r))
    return ctx.mpf(s_value) / modulus**n - _main_term_at(ctx, c1, r, n)


def error_term(
    K: DegreeSet,
    n: int,
    prec: PrecisionConfig | None = None,
    *,
    r_max: int = R_MAX_DEFAULT,
    sums: OrbitSums | None = None,
) -> "mpmath.mpf":
    """Error_n = S(n)/(2*cos(pi/2**r))**n - M(n); defined only when c0 = 0."""
    prec = prec or DEFAULT_PRECISION
    sums = sums or orbit_sums(K, r_max=r_max)
    r = K.period_exponent
    _require_vanishing_limit(sums)
    required = _required_bits(n, r)
    if prec.bits < required:
        raise PrecisionError(
            f"error term at n={n} needs at least {required} bits, got {prec.bits}"
        )
    ctx = prec.context()
    return _error_at(ctx, sums.c1.numerator.evaluate(ctx), r, n, exp_sum(n, K))


def error_table(
    K: DegreeSet,
    rows: "list[int] | tuple[int, ...]",
    prec: PrecisionConfig | None = None,
    *,
    r_max: int = R_MAX_DEFAULT,
) -> list[tuple[int, "mpmath.mpf"]]:
    """Error_n for each requested n, sharing one exact sequence and one c1 evaluation."""
    prec = prec or DEFAULT_PRECISION
    sums = orbit_sums(K, r_max=r_max)
    r = K.period_exponent
    if not rows:
        raise ValueError("no rows requested")
    if any(n < 0 for n in rows):
        raise ValueError("row indices must be nonnegative")
    _require_vanishing_limit(sums)
    required = _required_bits(max(rows), r)
    if prec.bits < required:
        raise PrecisionError(
            f"error table up to n={max(rows)} needs at least {required} bits, "
            f"got {prec.bits}"
        )
    seq = sequence(K, 0, max(rows))
    ctx = prec.context()
    c1 = sums.c1.numerator.evaluate(ctx)
    return [(n, _error_at(ctx, c1, r, n, seq.value_at(n))) for n in rows]


def asymptotic_value(
    K: DegreeSet,
    n: int,
    prec: PrecisionConfig | None = None,
    *,
    r_max: int = R_MAX_DEFAULT,
    sums: OrbitSums | None = None,
) -> "mpmath.mpf":
    """Two-term truncation c0 * 2**n + (2*cos(pi/2**r))**n * M(n).

    The residual against the exact S(n) is of the order of the next root
    modulus 2*cos(pi/2**(r-1)) raised to n.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    prec = prec or DEFAULT_PRECISION
    sums = sums or orbit_sums(K, r_max=r_max)
    r = K.period_exponent
    ctx = prec.context()
    c0 = sums.c0
    modulus = 2 * ctx.cos(ctx.pi / (1 << r))
    head = ctx.mpf(c0.numerator) / c0.denominator * ctx.mpf(2) ** n
    return head + modulus**n * main_term(K, n, prec, r_max=r_max, sums=sums)
