"""Reference computations the benchmark checks boolsum's outputs against.

Nothing here imports boolsum.  The routes are chosen to share no code and,
where possible, no algorithm with the library:

* parities of binomial(m, k) come from Pascal's triangle modulo 2 (row XOR
  shifted row), never from the bit-subset test;
* surviving orbit levels come from folding residue-class sums, O(2**r) for all
  levels together;
* recurrences are re-fitted by Berlekamp-Massey modulo a large prime on a
  prefix long enough to certify the result;
* c0 is decided by inclusion-exclusion over subset masks (generator) and by a
  bitset enumeration of the Boolean function on the union of degree bits
  (checker);
* the main term is a direct cosine sum, not the cyclotomic coefficient.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

PRIME = (1 << 62) - 57
"""Modulus for the modular checks.  Not a Mersenne prime: 2 has tiny order modulo
2**61 - 1, which makes S(n) vanish modulo it periodically."""

ZERO_TEST_MODULUS = PRIME * ((1 << 64) - 59)
"""S(n) = 0 is decided modulo this 126-bit product of two primes: exact when the
residue is nonzero, and a nonzero S(n) divisible by both is not to be expected.
Balanced n come in long arithmetic progressions, so confirming each one with an
exact O(n**2) sum would cost minutes."""


# ---------------------------------------------------------------------------
# Decimal conversion that works past the interpreter's int/str digit limit.
# The benchmark must not raise that limit: the library's own int->str defect
# has to stay visible.


def dec(x: int) -> str:
    """Decimal string of x, splitting around the int->str digit limit."""
    if x < 0:
        return "-" + dec(-x)
    try:
        return str(x)
    except ValueError:
        half = int(x.bit_length() * 0.30103) // 2
        hi, lo = divmod(x, 10**half)
        return dec(hi) + dec(lo).rjust(half, "0")


def parse_int(value) -> int:
    """JSON integer or decimal string (reports stringify |x| >= 2**53) to int."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if not isinstance(value, str):
        raise TypeError(f"expected an integer, got {value!r}")
    if value.startswith("-"):
        return -parse_int(value[1:])
    try:
        return int(value)
    except ValueError:
        if not value.isdigit():
            raise
        half = len(value) // 2
        return parse_int(value[:-half]) * 10**half + parse_int(value[-half:])


def fraction_text(q: Fraction) -> str:
    """str(Fraction) without the digit limit."""
    if q.denominator == 1:
        return dec(q.numerator)
    return f"{dec(q.numerator)}/{dec(q.denominator)}"


# ---------------------------------------------------------------------------
# Degree sets are plain sorted tuples of ints here, or of bit-position tuples
# for degrees too large to materialize.


def degree_value(bits) -> int:
    return sum(1 << b for b in bits)


def format_degree(bits) -> str:
    """The CLI's canonical degree text: decimal below 2**64, else '2^a+2^b+...'."""
    bits = sorted(bits)
    if bits[-1] < 64:
        return str(degree_value(bits))
    return "+".join(f"2^{b}" for b in reversed(bits))


def signs_pascal(ks, r: int) -> list[int]:
    """(-1)**(sum of binomial(m, k) mod 2) for m in [0, 2**r), from Pascal rows mod 2."""
    out = []
    row = 1
    for _ in range(1 << r):
        e = 0
        for k in ks:
            e ^= (row >> k) & 1
        out.append(-1 if e else 1)
        row ^= row << 1
    return out


def orbit_structure(signs: list[int]) -> tuple[bool, frozenset[int], int]:
    """(x - 2 present, surviving levels t >= 1, alternating sum) from one period.

    The level-t orbit sum has coefficients R(i) - R(i + 2**t), i < 2**t, where R
    holds residue-class sums modulo 2**(t+1); folding R halves it per level.
    """
    sums = list(signs)
    levels = set()
    while len(sums) > 2:
        half = len(sums) >> 1
        low, high = sums[:half], sums[half:]
        if low != high:
            levels.add(half.bit_length() - 1)
        sums = [a + b for a, b in zip(low, high)]
    total = sums[0] + sums[1]
    alternating = sums[0] - sums[1]
    return total != 0, frozenset(levels), alternating


# ---------------------------------------------------------------------------
# Exact and modular S(n).


def exp_sum_walk(n: int, signs: list[int]) -> int:
    """S(n) = sum over residues a of sign(a) * (sum of binomial(n, j), j = a mod 2**r)."""
    mask = len(signs) - 1
    buckets = [0] * len(signs)
    binom = 1
    for j in range(n + 1):
        buckets[j & mask] += binom
        binom = binom * (n - j) // (j + 1)
    return sum(s * b for s, b in zip(signs, buckets))


def exp_sum_brute(n: int, ks) -> int:
    """Signed count over all 2**n points with exact binomials (n <= 20 only)."""
    sign_by_weight = [
        -1 if sum(math.comb(w, k) for k in ks) % 2 else 1 for w in range(n + 1)
    ]
    return sum(sign_by_weight[x.bit_count()] for x in range(1 << n))


def exp_sums_stepped(signs: list[int], n_values, modulus: int | None = None) -> dict[int, int]:
    """S(n) for each requested n by stepping residue classes of (1 + x)**n.

    f_{n+1}(a) = f_n(a) + f_n(a - 1) modulo x**(2**r) - 1; optionally reduced
    modulo `modulus` so the entries stay word-sized.
    """
    wanted = set(n_values)
    top = max(wanted)
    plus = [a for a, s in enumerate(signs) if s > 0]
    minus = [a for a, s in enumerate(signs) if s < 0]
    f = [0] * len(signs)
    f[0] = 1
    out = {}
    for n in range(top + 1):
        if n in wanted:
            v = sum(f[a] for a in plus) - sum(f[a] for a in minus)
            out[n] = v % modulus if modulus else v
        shifted = f[-1:] + f[:-1]
        if modulus:
            f = [(a + b) % modulus for a, b in zip(f, shifted)]
        else:
            f = [a + b for a, b in zip(f, shifted)]
    return out


def berlekamp_massey_mod(seq: list[int], p: int = PRIME) -> list[int]:
    """Shortest connection polynomial [1, c1, ..., cL] mod p with sum c_i * s_{n-i} = 0."""
    c, b = [1], [1]
    length, shift, last = 0, 1, 1
    for n, s in enumerate(seq):
        d = s % p
        for i in range(1, length + 1):
            d = (d + c[i] * seq[n - i]) % p
        if d == 0:
            shift += 1
            continue
        coef = d * pow(last, p - 2, p) % p
        t = c[:]
        c = c + [0] * max(0, len(b) + shift - len(c))
        for i, bi in enumerate(b):
            c[i + shift] = (c[i + shift] - coef * bi) % p
        if 2 * length <= n:
            length, b, last, shift = n + 1 - length, t, d, 1
            c += [0] * max(0, length + 1 - len(c))
        else:
            shift += 1
    return c[: length + 1]


# ---------------------------------------------------------------------------
# Polynomials modulo PRIME.


def eval_mod(coeffs, x: int, p: int = PRIME) -> int:
    """Horner evaluation of a constant-first coefficient list modulo p."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def factored_eval_mod(has_x_minus_2: bool, levels, x: int, p: int = PRIME) -> int:
    """(x - 2)**e * prod over levels t of ((x - 1)**2**t + 1), modulo p."""
    acc = (x - 2) % p if has_x_minus_2 else 1
    for t in levels:
        acc = acc * (pow(x - 1, 1 << t, p) + 1) % p
    return acc


# ---------------------------------------------------------------------------
# Limit correlation c0.


def compress(bit_sets) -> list[int]:
    """Degrees as masks over the sorted union of their bit positions."""
    alphabet = sorted(set().union(*map(set, bit_sets)))
    index = {b: i for i, b in enumerate(alphabet)}
    return [sum(1 << index[b] for b in bits) for bits in bit_sets]


def c0_inclusion_exclusion(bit_sets) -> Fraction:
    """c0 = sum over subsets T of (-1)**|T| * 2**(|T| - weight(OR of T)), by subset DP."""
    masks = compress(bit_sets)
    w = max(masks).bit_length() if masks else 0
    s = len(masks)
    union = [0] * (1 << s)
    total = 0
    for sub in range(1 << s):
        if sub:
            low = sub & -sub
            union[sub] = union[sub ^ low] | masks[low.bit_length() - 1]
        size = sub.bit_count()
        term = 1 << (size - union[sub].bit_count() + w)
        total += -term if size & 1 else term
    return Fraction(total, 1 << w)


def c0_enumerated(bit_sets) -> Fraction:
    """c0 as the bias of the Boolean function on the union bits, by bitset enumeration.

    Bit y of `odd` is the parity of the number of degrees whose bits all lie in
    the assignment y; each variable's column is a periodic bit pattern.
    """
    masks = compress(bit_sets)
    w = max(masks).bit_length()
    size = 1 << w
    full = (1 << size) - 1
    columns = []
    for v in range(w):
        block = 1 << v
        unit = ((1 << block) - 1) << block
        columns.append(full // ((1 << (2 * block)) - 1) * unit)
    odd = 0
    for mask in masks:
        cell = full
        for v in range(w):
            if mask >> v & 1:
                cell &= columns[v]
        odd ^= cell
    return Fraction(size - 2 * odd.bit_count(), size)


# ---------------------------------------------------------------------------
# Asymptotics.


def required_bits(n: int, r: int) -> int:
    """Smallest precision the library's Error_n guard accepts at (n, r)."""
    growth = math.log2(2.0 * math.cos(math.pi / (1 << r)))
    return max(64, math.ceil(n * growth) + 64)


def check_bits(n: int, r: int) -> int:
    """Working precision that resolves Error_n: its size is about the root ratio to the n."""
    ratio = math.cos(math.pi / (1 << (r - 1))) / math.cos(math.pi / (1 << r))
    decay = -n * math.log2(ratio) if ratio > 0 else n
    return 160 + math.ceil(decay) + n.bit_length() + r


class Asymptotics:
    """M(n), the two-term value and Error_n for one degree set, by cosine sums."""

    def __init__(self, signs: list[int], r: int, bits: int):
        self.ctx = mpmath.mp.clone()
        self.ctx.prec = bits
        self.signs = signs
        self.r = r

    def main_term(self, n: int):
        ctx = self.ctx
        theta = ctx.pi / (1 << self.r)
        acc = ctx.mpf(0)
        for m, s in enumerate(self.signs):
            acc += s * ctx.cos((n - 2 * m) * theta)
        return acc / (1 << (self.r - 1))

    def modulus(self):
        return 2 * self.ctx.cos(self.ctx.pi / (1 << self.r))

    def asymptotic_value(self, n: int, c0: Fraction):
        ctx = self.ctx
        head = ctx.mpf(c0.numerator) / c0.denominator * ctx.mpf(2) ** n
        return head + self.modulus() ** n * self.main_term(n)

    def error_term(self, n: int, s_value: int):
        return self.ctx.mpf(s_value) / self.modulus() ** n - self.main_term(n)

    def agrees(self, text: str, expected) -> bool:
        """Whether a 15-significant-digit report matches the reference value."""
        ctx = self.ctx
        got = ctx.mpf(text)
        scale = max(abs(got), abs(expected))
        noise = ctx.mpf(2) ** (64 - ctx.prec)
        return abs(got - expected) <= max(scale * ctx.mpf("1e-12"), noise)
