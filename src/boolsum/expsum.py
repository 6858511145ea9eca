"""Exponential sums of sums of elementary symmetric polynomials over GF(2).

Two independent computations of the same quantity live here.  The fast route
walks the weight classes with exact binomial coefficients and the parity of
binomial(j, k_i) taken from the bit-subset test.  The brute-force oracle
enumerates every assignment of the hypercube, popcounts it, and evaluates the
function value from scratch with big-integer binomials; it exists so the fast
route has something honest to be checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .bitcombinatorics import R_MAX_DEFAULT, DegreeSet, sign_exponents
from .errors import ResourceLimitError
from .recurrence import minimal_recurrence

N_MAX_BRUTEFORCE = 24
"""Default cap on n for the 2**n brute-force enumeration."""

SEQUENCE_CROSSOVER = 64
"""Direct summation is used up to this n; recurrence stepping beyond it."""


@dataclass(frozen=True)
class ExpSumSequence:
    """Consecutive exponential-sum values S(start_n), S(start_n + 1), ..."""

    degrees: DegreeSet
    start_n: int
    values: tuple[int, ...]

    def value_at(self, n: int) -> int:
        if not self.start_n <= n < self.start_n + len(self.values):
            raise IndexError(f"n={n} outside the computed window")
        return self.values[n - self.start_n]


def exp_sum(n: int, K: DegreeSet) -> int:
    """S(n) = sum over j of (-1)**e(j) * binomial(n, j), exactly.

    Defined for every n >= 0, including n below the largest degree; S(0) = 1.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    total = 0
    binom = 1
    for j, e in enumerate(sign_exponents(K, n + 1)):
        total += -binom if e else binom
        binom = binom * (n - j) // (j + 1)
    return total


def exp_sum_bruteforce(n: int, K: DegreeSet, *, n_max: int = N_MAX_BRUTEFORCE) -> int:
    """Signed count over all 2**n assignments (independent oracle).

    Every assignment is enumerated and popcounted; the function value on a
    weight-j point is the parity of sum(binomial(j, k_i)) computed with exact
    big-integer binomials, deliberately not the bit-subset shortcut.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > n_max:
        raise ResourceLimitError(f"brute force over 2**{n} points exceeds n_max={n_max}")
    ks = K.values()
    sign_by_weight = [1 - 2 * (sum(comb(j, k) for k in ks) % 2) for j in range(n + 1)]
    return sum(sign_by_weight[x.bit_count()] for x in range(1 << n))


def sequence(
    K: DegreeSet,
    n0: int,
    n1: int,
    *,
    r_max: int = R_MAX_DEFAULT,
) -> ExpSumSequence:
    """Exact values S(n0), ..., S(n1).

    Values up to the crossover come from direct summation; past it the minimal
    recurrence steps the tail, which is bit-identical to direct computation.
    Degree sets without usable cyclotomic structure fall back to direct
    summation throughout.
    """
    if n0 < 0 or n0 > n1:
        raise ValueError("need 0 <= n0 <= n1")
    accelerate = n1 > SEQUENCE_CROSSOVER and 2 <= K.period_exponent <= r_max
    if not accelerate:
        values = [exp_sum(n, K) for n in range(n0, n1 + 1)]
        return ExpSumSequence(K, n0, tuple(values))

    rec = minimal_recurrence(K, r_max=r_max)
    # Stepping only ever applies at n > max(SEQUENCE_CROSSOVER, order), safely
    # past the first index where the relation is guaranteed.
    direct_end = max(SEQUENCE_CROSSOVER, rec.order)
    window = [exp_sum(n, K) for n in range(0, min(direct_end, n1) + 1)]
    for n in range(len(window), n1 + 1):
        window.append(
            sum(c * window[n - m] for m, c in enumerate(rec.coefficients, start=1))
        )
    return ExpSumSequence(K, n0, tuple(window[n0:]))


def correlation(n: int, K: DegreeSet) -> Fraction:
    """S(n) / 2**n in lowest terms."""
    return Fraction(exp_sum(n, K), 1 << n)


def find_balanced(
    K: DegreeSet, N: int, *, r_max: int = R_MAX_DEFAULT
) -> list[int]:
    """All n in [1, N] where the function is balanced, i.e. S(n) = 0."""
    if N < 1:
        raise ValueError("N must be at least 1")
    seq = sequence(K, 1, N, r_max=r_max)
    return [n for n, v in enumerate(seq.values, start=1) if v == 0]
