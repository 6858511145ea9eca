"""Characteristic polynomials and integer linear recurrences for exponential sums.

The full characteristic polynomial of period exponent r factors as
(x - 2) * prod_{t=1}^{r-1} Phi(t), with Phi(t) = (x - 1)**2**t + 1 the
2**(t+1)-th cyclotomic polynomial shifted by one.  The minimal polynomial for
a given degree set keeps exactly the factors whose coefficient orbits survive
the exact vanishing tests in `cyclotomic`, and an independent exact-rational
sequence-fitting oracle cross-checks that minimality.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import comb
from typing import Sequence

from .bitcombinatorics import R_MAX_DEFAULT, DegreeSet, bits_of, guard_period
from .cyclotomic import OrbitSums, orbit_sums
from .expsum import ExpSumSequence


@dataclass(frozen=True)
class IntPolynomial:
    """Dense integer polynomial, constant term first."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("polynomial needs at least one coefficient")
        if len(self.coeffs) > 1 and self.coeffs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_monic(self) -> bool:
        return self.coeffs[-1] == 1

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        """Kronecker substitution: one big-int product of the packed operands.

        Each coefficient gets a slot of `width` bytes (w bits) with 2**(w-1)
        above every product coefficient's magnitude, so adding 2**(w-1) to each
        slot keeps the slots non-negative and carry-free for a single linear
        unpack.
        """
        a, b = self.coeffs, other.coeffs
        bound = max(1, *map(abs, a)) * max(1, *map(abs, b)) * min(len(a), len(b))
        width = bound.bit_length() // 8 + 1
        size = len(a) + len(b) - 1
        half = 1 << (8 * width - 1)
        offset = int.from_bytes((bytes(width - 1) + b"\x80") * size, "little")
        slots = memoryview(
            (_pack(a, width) * _pack(b, width) + offset).to_bytes(size * width, "little")
        )
        return IntPolynomial(tuple(
            int.from_bytes(slots[i:i + width], "little") - half
            for i in range(0, size * width, width)
        ))


def _pack(coeffs: tuple[int, ...], width: int) -> int:
    """Sum of c_i * 2**(8*width*i); each |c_i| must fit in 8*width - 1 bits."""
    pos = b"".join(max(c, 0).to_bytes(width, "little") for c in coeffs)
    neg = b"".join(max(-c, 0).to_bytes(width, "little") for c in coeffs)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


@dataclass(frozen=True)
class FactoredCharPoly:
    """(x - 2)**e * prod of shifted cyclotomic factors, kept in factored form.

    `levels` holds the integers t >= 1 whose factor (x - 1)**2**t + 1 is
    present; each contributes 2**t to the degree.
    """

    has_x_minus_2: bool
    levels: frozenset[int]

    def __post_init__(self) -> None:
        if any(t < 1 for t in self.levels):
            raise ValueError("factor levels start at 1")

    @property
    def degree(self) -> int:
        return int(self.has_x_minus_2) + sum(1 << t for t in self.levels)

    def to_dict(self) -> dict:
        """Serialized form: {"x_minus_2": bool, "levels": [t...], "degree": d}."""
        return {
            "x_minus_2": self.has_x_minus_2,
            "levels": sorted(self.levels),
            "degree": self.degree,
        }


@dataclass(frozen=True)
class LinearRecurrence:
    """x_n = sum(c_m * x_{n-m}), asserted for n >= valid_from."""

    coefficients: tuple[int, ...]
    valid_from: int

    def __post_init__(self) -> None:
        if not self.coefficients or self.coefficients[-1] == 0:
            raise ValueError("trailing recurrence coefficient must be nonzero")

    @property
    def order(self) -> int:
        return len(self.coefficients)


def shifted_cyclotomic_factor(t: int) -> IntPolynomial:
    """(x - 1)**2**t + 1, the degree-2**t factor contributed by level t."""
    if t < 1:
        raise ValueError("factor levels start at 1")
    n = 1 << t
    coeffs = [(-1) ** (n - i) * comb(n, i) for i in range(n + 1)]
    coeffs[0] += 1
    return IntPolynomial(tuple(coeffs))


def full_charpoly(r: int, *, r_max: int = R_MAX_DEFAULT) -> IntPolynomial:
    """Degree 2**r - 1 characteristic polynomial every period-2**r sequence satisfies.

    Built from the alternating binomial form; the factored product form is the
    same polynomial (an exact identity the tests exercise).
    """
    if r < 2:
        raise ValueError("period exponent must be at least 2")
    guard_period(r, r_max)
    d = (1 << r) - 1
    coeffs = [(-1) ** (d - i) * comb(1 << r, d - i) for i in range(d + 1)]
    return IntPolynomial(tuple(coeffs))


def minimal_charpoly(
    K: DegreeSet, *, r_max: int = R_MAX_DEFAULT, sums: OrbitSums | None = None
) -> FactoredCharPoly:
    """Minimal characteristic polynomial, found by exact orbit vanishing tests."""
    levels = (sums or orbit_sums(K, r_max=r_max)).levels
    return FactoredCharPoly(
        has_x_minus_2=not levels[0].is_zero,
        levels=frozenset(t for t in range(1, len(levels)) if not levels[t].is_zero),
    )


def single_degree_charpoly(k: int) -> FactoredCharPoly:
    """Closed form of the minimal characteristic polynomial for one degree k >= 2.

    The surviving levels are exactly the bits of k above bit 0, and the factor
    x - 2 is present unless k is a power of two.  Needs no enumeration, so it
    works for arbitrarily large k.
    """
    if k < 2:
        raise ValueError("closed form needs k >= 2")
    bits = bits_of(k)
    return FactoredCharPoly(
        has_x_minus_2=len(bits) > 1,
        levels=frozenset(b for b in bits if b >= 1),
    )


def expand(f: FactoredCharPoly) -> IntPolynomial:
    """Multiply the factored form out to a monic integer polynomial."""
    poly = IntPolynomial((1,))
    if f.has_x_minus_2:
        poly = IntPolynomial((-2, 1))
    for t in sorted(f.levels):
        poly = poly * shifted_cyclotomic_factor(t)
    return poly


def to_recurrence(p: IntPolynomial) -> LinearRecurrence:
    """Companion recurrence of a monic polynomial: c_m = -(coefficient of x**(d-m))."""
    if not p.is_monic:
        raise ValueError("recurrence conversion needs a monic polynomial")
    if p.degree < 1:
        raise ValueError("constant polynomials have no companion recurrence")
    coeffs = tuple(-p.coeffs[p.degree - m] for m in range(1, p.degree + 1))
    return LinearRecurrence(coefficients=coeffs, valid_from=p.degree)


def recurrence_of(poly: IntPolynomial, sums: OrbitSums) -> LinearRecurrence:
    """Recurrence of an expanded minimal polynomial with its exact first valid index.

    The relation holds from n = order, except that a nonzero 0**n coefficient
    in the closed form (the alternating orbit sum) shifts the first valid
    window off n = 0 by one.
    """
    rec = to_recurrence(poly)
    if sums.alternating != 0:
        rec = replace(rec, valid_from=rec.order + 1)
    return rec


def minimal_recurrence(K: DegreeSet, *, r_max: int = R_MAX_DEFAULT) -> LinearRecurrence:
    """Minimal integer recurrence with its exact first valid index."""
    sums = orbit_sums(K, r_max=r_max)
    return recurrence_of(expand(minimal_charpoly(K, sums=sums)), sums)


def verify(
    seq: ExpSumSequence, rec: LinearRecurrence, *, valid_from: int | None = None
) -> int | None:
    """Check the recurrence against a sequence window; None on success.

    Returns the first failing index n otherwise.  Only windows whose history
    lies inside the sequence are checked; raises if there is none.
    """
    start = max(valid_from if valid_from is not None else rec.valid_from,
                seq.start_n + rec.order)
    end = seq.start_n + len(seq.values) - 1
    if start > end:
        raise ValueError("sequence window too short to apply the recurrence")
    vals = seq.values
    base = seq.start_n
    for n in range(start, end + 1):
        expected = sum(
            c * vals[n - m - base] for m, c in enumerate(rec.coefficients, start=1)
        )
        if vals[n - base] != expected:
            return n
    return None


def degree_bounds(K: DegreeSet) -> tuple[int, int]:
    """(lower, upper) bounds on the minimal recurrence order.

    Lower: the largest power of two at most k_s.  Upper: the OR of all degrees
    with its low bit forced on.  Both come straight off the sparse bit sets.
    """
    lower = 1 << K.top_bits[-1]
    upper = DegreeSet.mask(K.or_all_bits()) | 1
    return lower, upper


def minimal_recurrence_oracle(prefix: Sequence[int]) -> LinearRecurrence:
    """Fit the minimal rational recurrence to a prefix; independent of the orbit route.

    Runs Berlekamp-Massey over exact rationals and refuses to answer unless the
    fitted order stayed put while consuming the last quarter of the prefix and
    the prefix is long enough to certify it.  Trailing zero taps (a pure delay)
    are dropped into `valid_from` instead of the coefficient list.
    """
    terms = [Fraction(v) for v in prefix]
    if len(terms) < 4:
        raise ValueError("prefix too short to certify stability")

    connection = [Fraction(1)]
    previous = [Fraction(1)]
    L = 0
    gap = 1
    last_discrepancy = Fraction(1)
    history = []
    for i, value in enumerate(terms):
        d = value + sum(connection[j] * terms[i - j] for j in range(1, L + 1))
        if d == 0:
            gap += 1
        else:
            scale = d / last_discrepancy
            update = connection[:]
            while len(update) < len(previous) + gap:
                update.append(Fraction(0))
            for j, pj in enumerate(previous):
                update[j + gap] -= scale * pj
            if 2 * L <= i:
                previous = connection
                L = i + 1 - L
                last_discrepancy = d
                gap = 1
            else:
                gap += 1
            connection = update
        history.append(L)

    # A legitimate order change can never happen at step >= 2L - 1, so starting
    # the stability window at 2L keeps near-maximal fits (prefix about twice
    # the order) from being flagged while still catching late drift.
    window_start = max(len(terms) - len(terms) // 4, 2 * L)
    if any(h != L for h in history[window_start:]):
        raise ValueError("prefix too short to certify stability")
    if len(terms) < 2 * L + 2:
        raise ValueError("prefix too short to certify stability")

    while len(connection) < L + 1:
        connection.append(Fraction(0))
    fitted = [-connection[m] for m in range(1, L + 1)]
    while fitted and fitted[-1] == 0:
        fitted.pop()
    if not fitted:
        raise ValueError("prefix is eventually zero; no nontrivial recurrence")
    if any(c.denominator != 1 for c in fitted):
        raise ValueError("fitted recurrence is not integral")
    return LinearRecurrence(
        coefficients=tuple(int(c) for c in fitted), valid_from=L
    )
