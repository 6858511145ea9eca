"""Exponential sums of sums of elementary symmetric polynomials over GF(2).

S(n) = sum over j of (-1)**e(j) * binomial(n, j) is computed by three
independent routes; the first two share only the sign table:

- `exp_sum` walks the weight classes of one n with exact binomials, O(n)
  big-integer operations for a single value;
- `sequence` steps a whole window S(0), ..., S(n1) by Pascal's rule on the
  shifted sign row, with additions only and no characteristic polynomial;
- `exp_sum_bruteforce` enumerates every assignment of the hypercube and
  evaluates the function value from scratch with big-integer binomials, so
  the other two have something honest to be checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from operator import add

from .bitcombinatorics import DegreeSet, sign_exponents
from .errors import ResourceLimitError

N_MAX_BRUTEFORCE = 24
"""Default cap on n for the 2**n brute-force enumeration."""


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


def sequence(K: DegreeSet, n0: int, n1: int) -> ExpSumSequence:
    """Exact values S(n0), ..., S(n1), by additions only.

    With w = min(2**r, n1 + 1), the row T_0(a) = (-1)**e(a) for a < w is
    stepped by T_{n+1}(a) = T_n(a) + T_n((a + 1) mod w), so that
    T_n(a) = sum over j of binomial(n, j) * T_0((a + j) mod w) and
    S(n) = T_n(0).  The wrap is exact for both values of w: at w = 2**r the
    signs are periodic with period w, and at w = n1 + 1 the value T_n(0) reads
    only entries j <= n <= n1 < w, which never wrap.
    """
    if n0 < 0 or n0 > n1:
        raise ValueError("need 0 <= n0 <= n1")
    # 2**n1.bit_length() > n1, so capping r there leaves w unchanged and never
    # builds the integer 2**r for a degree such as 2^10^9.
    w = min(1 << min(K.period_exponent, n1.bit_length()), n1 + 1)
    row = [1 - 2 * e for e in sign_exponents(K, w)]
    values = [row[0]]
    for _ in range(n1):
        row = list(map(add, row, row[1:] + row[:1]))
        values.append(row[0])
    return ExpSumSequence(K, n0, tuple(values[n0:]))


def correlation(n: int, K: DegreeSet) -> Fraction:
    """S(n) / 2**n in lowest terms."""
    return Fraction(exp_sum(n, K), 1 << n)


def find_balanced(K: DegreeSet, N: int) -> list[int]:
    """All n in [1, N] where the function is balanced, i.e. S(n) = 0."""
    if N < 1:
        raise ValueError("N must be at least 1")
    seq = sequence(K, 1, N)
    return [n for n, v in enumerate(seq.values, start=1) if v == 0]
