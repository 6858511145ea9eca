"""Binary-expansion primitives for sets of polynomial degrees.

Degrees are kept as sparse sets of bit positions, so quantities built from
binary weights and bitwise ORs stay cheap even for degrees on the order of
2**10**6.  Dense integer values are materialized only on demand; everything
that enumerates 2**r values first passes `guard_period`, the one explicit cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import ResourceLimitError

R_MAX_DEFAULT = 20
"""Default cap on the period exponent r for operations that enumerate 2**r values."""


def guard_period(r: int, r_max: int) -> None:
    """Refuse, with ResourceLimitError, any enumeration of 2**r values past r_max."""
    if r > r_max:
        raise ResourceLimitError(
            f"period exponent {r} exceeds the enumeration cap r_max={r_max}"
        )


def bits_of(k: int) -> tuple[int, ...]:
    """Ascending bit positions of a positive integer."""
    if k < 1:
        raise ValueError("expected a positive integer")
    return tuple(i for i in range(k.bit_length()) if (k >> i) & 1)


def _numeric_key(bits: tuple[int, ...]) -> tuple[int, ...]:
    # Descending bit lists compare lexicographically like the numbers they encode.
    return tuple(sorted(bits, reverse=True))


@dataclass(frozen=True)
class DegreeSet:
    """Strictly increasing degrees k_1 < ... < k_s, each a sparse set of bit positions."""

    degrees: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.degrees:
            raise ValueError("a degree set needs at least one degree")
        keys = []
        for bits in self.degrees:
            if not bits:
                raise ValueError("each degree needs at least one bit")
            if any(b < 0 for b in bits):
                raise ValueError("bit positions must be nonnegative")
            if tuple(sorted(set(bits))) != tuple(bits):
                raise ValueError("bit positions must be distinct and ascending")
            keys.append(_numeric_key(bits))
        for low, high in zip(keys, keys[1:]):
            if low >= high:
                raise ValueError("degrees must be strictly increasing")

    @classmethod
    def of(cls, *ks: int) -> "DegreeSet":
        """Build from plain integers, e.g. DegreeSet.of(3, 5)."""
        if len(set(ks)) != len(ks):
            raise ValueError("duplicate degree")
        return cls(tuple(bits_of(k) for k in sorted(ks)))

    @classmethod
    def from_bit_sets(cls, bit_sets: Iterable[Iterable[int]]) -> "DegreeSet":
        """Build from iterables of bit positions, e.g. [{0, 2}, {1000000}]."""
        normalized = [tuple(sorted(set(bits))) for bits in bit_sets]
        normalized.sort(key=_numeric_key)
        for low, high in zip(normalized, normalized[1:]):
            if low == high:
                raise ValueError("duplicate degree")
        return cls(tuple(normalized))

    def __len__(self) -> int:
        return len(self.degrees)

    @staticmethod
    def mask(bits: Iterable[int]) -> int:
        """The integer whose binary expansion has exactly the given bit positions."""
        return sum(1 << b for b in bits)

    def values(self) -> tuple[int, ...]:
        """Degrees as integers (cheap, but may be astronomically large)."""
        return tuple(map(self.mask, self.degrees))

    @property
    def top_bits(self) -> tuple[int, ...]:
        """Bit positions of the largest degree k_s."""
        return self.degrees[-1]

    @property
    def period_exponent(self) -> int:
        """r = floor(log2(k_s)) + 1; sign patterns repeat with period 2**r."""
        return self.top_bits[-1] + 1

    def or_all_bits(self) -> frozenset[int]:
        """Union of the bit positions of all degrees."""
        return frozenset().union(*map(frozenset, self.degrees))


def sign_exponent(m: int, K: DegreeSet) -> int:
    """Parity of binomial(m, k_1) + ... + binomial(m, k_s).

    Periodic in m with period 2**r.  Works for degrees of any size: a degree
    with a bit above m's top bit contributes parity 0.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    e = 0
    for bits in K.degrees:
        if all((m >> b) & 1 for b in bits):
            e ^= 1
    return e


def sign_exponents(K: DegreeSet, limit: int) -> list[int]:
    """sign_exponent(m, K) for every m in [0, limit), computed in one sweep."""
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    top = (limit - 1).bit_length() if limit > 1 else 0
    # Degrees with a bit at or above `top` can never be submasks of m < limit.
    masks = [DegreeSet.mask(bits) for bits in K.degrees if bits[-1] < top]
    out = []
    for m in range(limit):
        e = 0
        for mask in masks:
            if m & mask == mask:
                e ^= 1
        out.append(e)
    return out
