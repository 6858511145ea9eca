"""Independent reference computations the tests check the library against.

Everything here goes through exact big-integer binomials (math.comb) or raw
enumeration; nothing reuses the library's bit-subset shortcuts.
"""

import math
import random
from fractions import Fraction
from itertools import combinations

from boolsum import DegreeSet


def comb_parity(m: int, k: int) -> int:
    return math.comb(m, k) % 2


def reference_sign_exponent(m: int, ks) -> int:
    return sum(math.comb(m, k) for k in ks) % 2


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
