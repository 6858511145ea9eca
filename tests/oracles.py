"""Independent reference computations the tests check the library against.

Everything here goes through exact big-integer binomials (math.comb) or raw
enumeration; nothing reuses the library's bit-subset shortcuts.
"""

import math
import random
from fractions import Fraction
from itertools import combinations

from boolsum import CyclotomicInt, DegreeSet, ScaledCoefficient


def comb_parity(m: int, k: int) -> int:
    return math.comb(m, k) % 2


def binary_weight(k: int) -> int:
    """Number of ones in the binary expansion of k."""
    if k < 1:
        raise ValueError("binary_weight is defined for positive integers")
    return k.bit_count()


def or_merge(a: int, b: int) -> int:
    """Coordinatewise OR of the binary expansions of two positive integers."""
    if a < 1 or b < 1:
        raise ValueError("or_merge is defined for positive integers")
    return a | b


def binom_parity(m: int, k: int) -> int:
    """Parity of binomial(m, k) by Lucas: 1 exactly when every bit of k is a bit of m."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    if k < 1:
        raise ValueError("k must be positive")
    return 1 if m & k == k else 0


def reference_sign_exponent(m: int, ks) -> int:
    return sum(math.comb(m, k) for k in ks) % 2


def reference_signs(K: DegreeSet) -> list:
    """(-1)**e(m) for m over one period 2**r, parities from math.comb."""
    ks = K.values()
    return [1 - 2 * reference_sign_exponent(m, ks) for m in range(1 << K.period_exponent)]


def reference_exp_sum(n: int, ks) -> int:
    return sum(
        (-1) ** reference_sign_exponent(j, ks) * math.comb(n, j) for j in range(n + 1)
    )


def reference_c0_enumeration(ks) -> Fraction:
    """(2**r - 2#N)/2**r with parities from math.comb; feasible for small k only."""
    r = max(ks).bit_length()
    period = 1 << r
    odd = sum(reference_sign_exponent(m, ks) for m in range(period))
    return Fraction(period - 2 * odd, period)


def monomial_sigma_parity(assignment_bits: int, n: int, k: int) -> int:
    """Elementary symmetric polynomial of degree k, evaluated monomial by monomial."""
    ones = [i for i in range(n) if (assignment_bits >> i) & 1]
    total = 0
    for subset in combinations(range(n), k):
        product = 1
        for i in subset:
            if i not in ones:
                product = 0
                break
        total += product
    return total % 2


def orbit_sums_by_level(K: DegreeSet) -> tuple:
    """(orbit sums for t = 0..r-1, alternating sum), one pass over the signs per level."""
    signs = reference_signs(K)
    levels = [CyclotomicInt(0, (sum(signs),))]
    for t in range(1, K.period_exponent):
        n = 1 << t
        coeffs = [0] * n
        for m, s in enumerate(signs):
            idx = m & (2 * n - 1)
            if idx < n:
                coeffs[idx] += s
            else:
                coeffs[idx - n] -= s
        levels.append(CyclotomicInt(t, coeffs))
    alternating = sum(s if m % 2 == 0 else -s for m, s in enumerate(signs))
    return tuple(levels), alternating


def closed_form_coefficient(K: DegreeSet, j: int) -> ScaledCoefficient:
    """Exact coefficient of (1 + zeta_j)**n in the closed form, scaled by 2**r.

    zeta_j = exp(pi*i*j / 2**(r-1)).  The numerator lives at level r - 1, i.e.
    in Z[zeta] for zeta the primitive 2**r-th root of unity, and the true
    coefficient is numerator / scale.
    """
    signs = reference_signs(K)
    period = len(signs)
    n = period >> 1
    coeffs = [0] * n
    for i, s in enumerate(signs):
        q, idx = divmod((-i * j) % period, n)
        if q:
            coeffs[idx] -= s
        else:
            coeffs[idx] += s
    return ScaledCoefficient(CyclotomicInt(n.bit_length() - 1, coeffs), period)


def cosine_main_term(K: DegreeSet, n: int, prec):
    """M(n) = 2**(1-r) * sum over m of (-1)**e(m) * cos((n - 2m)*pi/2**r), term by term."""
    ctx = prec.context()
    r = K.period_exponent
    theta = ctx.pi / (1 << r)
    acc = ctx.mpf(0)
    for m, s in enumerate(reference_signs(K)):
        acc += s * ctx.cos((n - 2 * m) * theta)
    return acc / (1 << (r - 1))


def schoolbook_product(a, b) -> tuple:
    """Coefficients of the product of two coefficient tuples, by the double loop."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def random_degree_set(rng: random.Random, max_k: int, max_s: int = 4) -> DegreeSet:
    """Random degree set with largest degree at least 2 (so r >= 2)."""
    while True:
        s = rng.randint(1, max_s)
        ks = rng.sample(range(1, max_k + 1), min(s, max_k))
        if max(ks) >= 2:
            return DegreeSet.of(*ks)


def random_nested_chain(
    rng: random.Random, max_bit: int = 40, max_s: int = 6
) -> DegreeSet:
    """Random chain where each degree's bit set contains the previous one's.

    A lone power of two is excluded: it is the one degenerate "chain" whose
    limit correlation is zero rather than positive.
    """
    while True:
        s = rng.randint(1, max_s)
        top_size = rng.randint(s, min(max_bit, s + 5))
        top = rng.sample(range(max_bit + 1), top_size)
        chain = [sorted(top)]
        current = list(top)
        for _ in range(s - 1):
            drop = rng.randint(1, len(current) - 1) if len(current) > 1 else 0
            if drop == 0:
                break
            current = rng.sample(current, len(current) - drop)
            chain.append(sorted(current))
        chain = chain[::-1]
        if len(chain) == 1 and len(chain[0]) == 1:
            continue
        return DegreeSet.from_bit_sets(chain)
