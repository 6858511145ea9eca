import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from boolsum import (
    CyclotomicInt,
    DegenerateDegreeSetError,
    DegreeSet,
    ResourceLimitError,
    bits_of,
    exp_sum,
    orbit_sums,
)

from oracles import closed_form_coefficient, orbit_sums_by_level, random_degree_set


def is_zero_orbit(K, t):
    return orbit_sums(K).levels[t].is_zero


class TestCyclotomicInt:
    def test_power_basis_reduction(self):
        # zeta**(2**t) = -1 at every level.
        for level in range(4):
            n = 1 << level
            assert CyclotomicInt.zeta_power(level, n) == CyclotomicInt.from_int(level, -1)
            assert CyclotomicInt.zeta_power(level, 2 * n) == CyclotomicInt.from_int(level, 1)

    def test_mul_matches_rotation(self):
        rng = random.Random(7)
        for level in (1, 2, 3):
            n = 1 << level
            x = CyclotomicInt(level, [rng.randint(-9, 9) for _ in range(n)])
            for e in range(2 * n + 3):
                assert x * CyclotomicInt.zeta_power(level, e) == x.times_zeta_power(e)

    def test_pow_square(self):
        x = CyclotomicInt(2, (1, 2, 0, -1))
        assert x**2 == x * x
        assert x**0 == CyclotomicInt.from_int(2, 1)

    def test_conjugate_involution(self):
        rng = random.Random(8)
        for level in (1, 2, 3):
            coeffs = [rng.randint(-9, 9) for _ in range(1 << level)]
            x = CyclotomicInt(level, coeffs)
            assert x.conjugate().conjugate() == x
            assert (x + x.conjugate()).conjugate() == x + x.conjugate()

    def test_conjugate_is_complex_conjugate_numerically(self):
        import mpmath

        ctx = mpmath.mp.clone()
        ctx.prec = 80
        x = CyclotomicInt(3, (3, -1, 4, 1, -5, 9, 2, -6))
        re, im = x.evaluate(ctx)
        cre, cim = x.conjugate().evaluate(ctx)
        assert abs(re - cre) < ctx.mpf(2) ** -60
        assert abs(im + cim) < ctx.mpf(2) ** -60

    def test_promote_preserves_value(self):
        import mpmath

        ctx = mpmath.mp.clone()
        ctx.prec = 80
        x = CyclotomicInt(2, (1, -2, 3, 4))
        y = x.promote(4)
        for a, b in zip(x.evaluate(ctx), y.evaluate(ctx)):
            assert abs(a - b) < ctx.mpf(2) ** -60

    def test_level_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CyclotomicInt.from_int(1, 1) + CyclotomicInt.from_int(2, 1)

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            CyclotomicInt(2, (1, 2, 3))


class TestOrbitSum:
    def test_level_zero_orbit_is_signed_count(self):
        # For {3,5}: signs over one period sum to 4, i.e. 8 * c0 = 4.
        assert orbit_sums(DegreeSet.of(3, 5)).levels[0].coeffs == (4,)

    def test_pair_3_5_drops_level_one(self):
        assert is_zero_orbit(DegreeSet.of(3, 5), 1)
        assert not is_zero_orbit(DegreeSet.of(3, 5), 2)

    def test_triple_3_5_17_keeps_only_top(self):
        K = DegreeSet.of(3, 5, 17)
        assert not is_zero_orbit(K, 0)
        assert is_zero_orbit(K, 1)
        assert is_zero_orbit(K, 2)
        assert is_zero_orbit(K, 3)
        assert not is_zero_orbit(K, 4)

    def test_single_degree_zero_pattern(self):
        # Orbit t >= 1 survives exactly when bit t is set in k; the t = 0 slot
        # survives exactly when k is not a power of two.
        for k in range(2, 65):
            K = DegreeSet.of(k)
            bits = set(bits_of(k))
            levels = orbit_sums(K).levels
            assert levels[0].is_zero == (len(bits) == 1), k
            for t in range(1, K.period_exponent):
                assert levels[t].is_zero == (t not in bits), (k, t)

    def test_top_orbit_never_vanishes(self):
        rng = random.Random(9)
        for _ in range(30):
            K = random_degree_set(rng, max_k=32)
            assert not is_zero_orbit(K, K.period_exponent - 1)

    def test_orbit_sums_sweep_matches_single_calls(self):
        K = DegreeSet.of(5, 9, 12)
        sums = orbit_sums(K)
        assert len(sums.levels) == K.period_exponent
        assert [v.level for v in sums.levels] == list(range(K.period_exponent))
        assert sums == orbit_sums_by_level(K)

    @settings(max_examples=60, deadline=None)
    @given(st.sets(st.integers(min_value=2, max_value=1023), min_size=1, max_size=5))
    def test_fold_matches_per_level_loop(self, ks):
        K = DegreeSet.of(*ks)
        assert orbit_sums(K) == orbit_sums_by_level(K)

    def test_guards(self):
        with pytest.raises(DegenerateDegreeSetError):
            orbit_sums(DegreeSet.of(1))
        with pytest.raises(ResourceLimitError):
            orbit_sums(DegreeSet.from_bit_sets([{25}]))
        with pytest.raises(ResourceLimitError):
            orbit_sums(DegreeSet.of(33), r_max=5)


class TestClosedFormCoefficients:
    def test_dominant_coefficient_survives_even_when_limit_vanishes(self):
        K = DegreeSet.of(5, 9, 12)
        sums = orbit_sums(K)
        assert sums.levels[0].is_zero  # the limit itself is zero
        assert not sums.c1.numerator.is_zero

    def test_c1_is_the_conjugate_top_orbit(self):
        rng = random.Random(15)
        sets = [DegreeSet.of(5, 9, 12), DegreeSet.of(2), DegreeSet.of(6, 17)]
        sets += [random_degree_set(rng, max_k=300) for _ in range(20)]
        for K in sets:
            assert orbit_sums(K).c1 == closed_form_coefficient(K, 1), K

    def test_j_zero_matches_level_zero_orbit(self):
        rng = random.Random(10)
        for _ in range(12):
            K = random_degree_set(rng, max_k=16)
            scaled = closed_form_coefficient(K, 0)
            assert scaled.scale == 1 << K.period_exponent
            assert scaled.numerator.coeffs[0] == orbit_sums(K).levels[0].coeffs[0]
            assert all(c == 0 for c in scaled.numerator.coeffs[1:])

    def test_conjugate_symmetry(self):
        rng = random.Random(11)
        for _ in range(12):
            K = random_degree_set(rng, max_k=16)
            period = 1 << K.period_exponent
            for j in range(1, period):
                left = closed_form_coefficient(K, period - j).numerator
                right = closed_form_coefficient(K, j).numerator.conjugate()
                assert left == right

    def test_orbits_are_all_or_nothing(self):
        rng = random.Random(12)
        for _ in range(10):
            K = random_degree_set(rng, max_k=20)
            r = K.period_exponent
            period = 1 << r
            for t in range(1, r):
                orbit_js = [
                    j for j in range(1, period) if math.gcd(j, period) == period >> (t + 1)
                ]
                zero_flags = {
                    closed_form_coefficient(K, j).numerator.is_zero for j in orbit_js
                }
                assert len(zero_flags) == 1
                assert zero_flags == {is_zero_orbit(K, t)}

    def test_zero_count_for_single_degree(self):
        # Among j >= 1 the number of vanishing coefficients is 2**r - 1 - k:
        # the degree of the subset-sum polynomial in the vanishing argument.
        for k in range(2, 65):
            K = DegreeSet.of(k)
            period = 1 << K.period_exponent
            zeros = sum(
                1
                for j in range(1, period)
                if closed_form_coefficient(K, j).numerator.is_zero
            )
            assert zeros == period - 1 - k, k

    def test_closed_form_resolves_exponential_sum(self):
        # 2**r * S(n) = sum over j of T_j * (1 + zeta**j)**n, exactly in the ring.
        rng = random.Random(13)
        sets = [DegreeSet.of(3, 5), DegreeSet.of(7), DegreeSet.of(5, 9), DegreeSet.of(2)]
        sets += [random_degree_set(rng, max_k=10) for _ in range(8)]
        for K in sets:
            r = K.period_exponent
            level = r - 1
            period = 1 << r
            terms = [
                (
                    closed_form_coefficient(K, j).numerator,
                    CyclotomicInt.from_int(level, 1) + CyclotomicInt.zeta_power(level, j),
                )
                for j in range(period)
            ]
            for n in range(period + 5):
                acc = CyclotomicInt.zero(level)
                for numerator, root in terms:
                    acc = acc + numerator * root**n
                assert acc == CyclotomicInt.from_int(level, exp_sum(n, K) << r), (K, n)


class TestAlternatingOrbitSum:
    def test_known_values(self):
        assert orbit_sums(DegreeSet.of(7)).alternating == 2
        assert orbit_sums(DegreeSet.of(3, 5)).alternating == 4
        assert orbit_sums(DegreeSet.of(4)).alternating == 0

    def test_even_single_degrees_vanish(self):
        for k in range(2, 65):
            value = orbit_sums(DegreeSet.of(k)).alternating
            assert (value == 0) == (k % 2 == 0), k

    def test_matches_coefficient_at_half_period(self):
        rng = random.Random(14)
        for _ in range(10):
            K = random_degree_set(rng, max_k=16)
            period = 1 << K.period_exponent
            scaled = closed_form_coefficient(K, period >> 1)
            assert scaled.numerator.coeffs[0] == orbit_sums(K).alternating
            assert all(c == 0 for c in scaled.numerator.coeffs[1:])
