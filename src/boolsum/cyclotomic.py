"""Exact arithmetic in Z[zeta] for zeta a primitive 2**(t+1)-th root of unity.

Elements live on the power basis 1, zeta, ..., zeta**(2**t - 1) with integer
coefficients and the reduction zeta**(2**t) = -1.  The basis comes from an
irreducible polynomial, so an element is zero exactly when its coefficient
vector is zero; every vanishing test in this module is therefore exact integer
arithmetic, never floating point.

The root-of-unity sums computed here decide which factors survive in the
minimal characteristic polynomial of an exponential-sum sequence: slot t = 0
stands for the root 2 (factor x - 2) and slot t >= 1 for the orbit of the
roots 1 + zeta with zeta primitive of order 2**(t+1).  `orbit_sums` folds
one sign table into every slot at once; a request that needs several of them
passes that one result along instead of folding again.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .bitcombinatorics import R_MAX_DEFAULT, DegreeSet, guard_period, sign_exponents
from .errors import DegenerateDegreeSetError


class CyclotomicInt:
    """Element of Z[zeta], zeta = exp(pi*i / 2**level), on the power basis."""

    __slots__ = ("level", "coeffs")

    def __init__(self, level: int, coeffs: Sequence[int]):
        if level < 0:
            raise ValueError("level must be nonnegative")
        if len(coeffs) != 1 << level:
            raise ValueError(f"level {level} needs exactly {1 << level} coefficients")
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("CyclotomicInt is immutable")

    @classmethod
    def zero(cls, level: int) -> "CyclotomicInt":
        return cls(level, (0,) * (1 << level))

    @classmethod
    def from_int(cls, level: int, value: int) -> "CyclotomicInt":
        coeffs = [0] * (1 << level)
        coeffs[0] = value
        return cls(level, coeffs)

    @classmethod
    def zeta_power(cls, level: int, exponent: int) -> "CyclotomicInt":
        """zeta**exponent reduced into the basis."""
        n = 1 << level
        q, i = divmod(exponent % (2 * n), n)
        coeffs = [0] * n
        coeffs[i] = -1 if q else 1
        return cls(level, coeffs)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero

    def __eq__(self, other) -> bool:
        if not isinstance(other, CyclotomicInt):
            return NotImplemented
        return self.level == other.level and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.level, self.coeffs))

    def __repr__(self) -> str:
        return f"CyclotomicInt(level={self.level}, coeffs={self.coeffs})"

    def _check_level(self, other: "CyclotomicInt") -> None:
        if self.level != other.level:
            raise ValueError("operands live in different cyclotomic rings")

    def __add__(self, other: "CyclotomicInt") -> "CyclotomicInt":
        self._check_level(other)
        return CyclotomicInt(self.level, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "CyclotomicInt") -> "CyclotomicInt":
        self._check_level(other)
        return CyclotomicInt(self.level, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "CyclotomicInt":
        return CyclotomicInt(self.level, [-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return CyclotomicInt(self.level, [a * other for a in self.coeffs])
        if not isinstance(other, CyclotomicInt):
            return NotImplemented
        self._check_level(other)
        n = 1 << self.level
        # Negacyclic convolution: zeta**n = -1.
        out = [0] * n
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b == 0:
                    continue
                idx = i + j
                if idx < n:
                    out[idx] += a * b
                else:
                    out[idx - n] -= a * b
        return CyclotomicInt(self.level, out)

    def __rmul__(self, other):
        return self * other

    def __pow__(self, exponent: int) -> "CyclotomicInt":
        if exponent < 0:
            raise ValueError("negative powers are not defined here")
        result = CyclotomicInt.from_int(self.level, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def times_zeta_power(self, exponent: int) -> "CyclotomicInt":
        """Multiply by zeta**exponent (a basis rotation, cheaper than __mul__)."""
        n = 1 << self.level
        out = [0] * n
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            q, idx = divmod(i + exponent % (2 * n), n)
            out[idx] += -a if q & 1 else a
        return CyclotomicInt(self.level, out)

    def conjugate(self) -> "CyclotomicInt":
        """Image under zeta -> zeta**(-1) (complex conjugation)."""
        n = 1 << self.level
        out = [0] * n
        out[0] = self.coeffs[0]
        for i in range(1, n):
            out[n - i] = -self.coeffs[i]
        return CyclotomicInt(self.level, out)

    def promote(self, level: int) -> "CyclotomicInt":
        """Embed into the ring at a higher level via zeta_old = zeta_new**2**d."""
        if level < self.level:
            raise ValueError("cannot demote to a smaller ring")
        stride = 1 << (level - self.level)
        out = [0] * (1 << level)
        for i, a in enumerate(self.coeffs):
            out[i * stride] = a
        return CyclotomicInt(level, out)

    def evaluate(self, ctx):
        """Numeric value as a pair (real, imag) in the given mpmath context."""
        step = ctx.pi / (1 << self.level)
        re = ctx.mpf(0)
        im = ctx.mpf(0)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            re += a * ctx.cos(i * step)
            im += a * ctx.sin(i * step)
        return re, im


class ScaledCoefficient(NamedTuple):
    """Exact coefficient numerator together with its power-of-two denominator."""

    numerator: CyclotomicInt
    scale: int


class OrbitSums(NamedTuple):
    """Every signed root-of-unity sum of one period of (-1)**e(m), for one degree set.

    levels[t] for t >= 1 is the sum of (-1)**e(m) * zeta**m with zeta primitive
    of order 2**(t+1), reduced into the level-t basis; it vanishes exactly when
    the whole orbit of roots 1 + zeta drops out of the minimal characteristic
    polynomial.  levels[0] uses zeta = 1 and holds 2**r times the limiting
    correlation.  `alternating` is the sum against zeta = -1, i.e. 2**r times
    the coefficient of the 0**n term of the closed form, which only contributes
    at n = 0.
    """

    levels: tuple[CyclotomicInt, ...]
    alternating: int

    @property
    def c0(self) -> Fraction:
        """The limiting correlation lim S(n)/2**n, read off levels[0] = 2**r * c0."""
        return Fraction(self.levels[0].coeffs[0], 1 << len(self.levels))

    @property
    def c1(self) -> ScaledCoefficient:
        """Exact coefficient of the dominant root power (1 + zeta)**n, scaled by 2**r.

        zeta = exp(pi*i / 2**(r-1)).  The coefficient pairs each sign with
        zeta**(-m), so its numerator is the conjugate of the top orbit sum.
        """
        top = self.levels[-1]
        return ScaledCoefficient(top.conjugate(), 2 << top.level)


def orbit_sums(K: DegreeSet, *, r_max: int = R_MAX_DEFAULT) -> OrbitSums:
    """All orbit sums of K from one sign-table sweep, folded by residue classes.

    The residue sums modulo 2**(t+1), split into halves low and high, give
    level t as low - high (zeta**(2**t) = -1) and the residue sums modulo 2**t
    as low + high, so the fold costs O(2**r) for all levels together.
    """
    r = K.period_exponent
    if r < 2:
        raise DegenerateDegreeSetError(
            "degree set {1} has no cyclotomic structure; sums and limits remain available"
        )
    guard_period(r, r_max)
    residues = [1 - 2 * e for e in sign_exponents(K, 1 << r)]
    levels = []
    for t in range(r - 1, 0, -1):
        low, high = residues[:1 << t], residues[1 << t:]
        levels.append(CyclotomicInt(t, [a - b for a, b in zip(low, high)]))
        residues = [a + b for a, b in zip(low, high)]
    even, odd = residues
    levels.append(CyclotomicInt(0, (even + odd,)))
    return OrbitSums(tuple(reversed(levels)), even - odd)
