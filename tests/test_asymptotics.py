import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from boolsum import (
    DegenerateDegreeSetError,
    DegreeSet,
    PrecisionConfig,
    PrecisionError,
    asymptotic_value,
    correlation,
    error_table,
    error_term,
    exp_sum,
    is_asymptotically_balanced,
    limit_correlation,
    limit_correlation_enumerated,
    limit_correlation_nested,
    main_term,
    main_term_exact,
    main_term_profile,
    minimal_charpoly,
    orbit_sums,
)

from oracles import (
    binary_weight,
    cosine_main_term,
    random_degree_set,
    random_nested_chain,
    reference_c0_enumeration,
)

PREC = PrecisionConfig(bits=256)


class TestLimitCorrelation:
    def test_huge_degree_example(self):
        K = DegreeSet.from_bit_sets(
            [{0, 1, 2}, {0, 3}, {10**4, 10**5}, {0, 2, 10**6}]
        )
        assert limit_correlation(K) == Fraction(1, 4)

    def test_powers_of_two_vanish(self):
        for j in range(1, 7):
            assert limit_correlation(DegreeSet.of(2**j)) == 0

    def test_two_degree_formula(self):
        rng = random.Random(60)
        for _ in range(40):
            k1, k2 = sorted(rng.sample(range(2, 200), 2))
            expected = (
                1
                - Fraction(2, 1 << binary_weight(k1))
                - Fraction(2, 1 << binary_weight(k2))
                + Fraction(4, 1 << binary_weight(k1 | k2))
            )
            assert limit_correlation(DegreeSet.of(k1, k2)) == expected

    def test_5_9_12_vanishes(self):
        assert limit_correlation(DegreeSet.of(5, 9, 12)) == 0

    def test_three_routes_agree(self):
        rng = random.Random(61)
        for _ in range(40):
            K = random_degree_set(rng, max_k=16)
            subset = limit_correlation(K)
            enumerated = limit_correlation_enumerated(K)
            orbit = Fraction(orbit_sums(K).levels[0].coeffs[0], 1 << K.period_exponent)
            assert subset == enumerated == orbit, K
            denominator = subset.denominator
            assert denominator & (denominator - 1) == 0  # power of two

    @given(st.sets(st.integers(1, 1023), min_size=1, max_size=6).filter(
        lambda ks: max(ks) >= 2))
    @settings(max_examples=60, deadline=None)
    def test_fold_reads_off_c0(self, ks):
        K = DegreeSet.of(*ks)
        assert orbit_sums(K).c0 == limit_correlation(K) == limit_correlation_enumerated(K)

    def test_reference_enumeration_agrees(self):
        rng = random.Random(62)
        for _ in range(15):
            K = random_degree_set(rng, max_k=16)
            assert limit_correlation(K) == reference_c0_enumeration(K.values())

    def test_single_degree_law(self):
        for k in range(2, 65):
            K = DegreeSet.of(k)
            expected = 1 - Fraction(2, 1 << binary_weight(k))
            assert limit_correlation(K) == expected
            assert limit_correlation_enumerated(K) == expected

    def test_degree_one_allowed(self):
        assert limit_correlation(DegreeSet.of(1)) == 0
        assert limit_correlation_enumerated(DegreeSet.of(1)) == 0

    def test_bit_relabeling_invariance(self):
        rng = random.Random(63)
        for _ in range(20):
            K = random_degree_set(rng, max_k=16)
            positions = sorted({b for bits in K.degrees for b in bits})
            target = rng.sample(range(500, 10**6), len(positions))
            mapping = dict(zip(positions, target))
            relabeled = DegreeSet.from_bit_sets(
                [{mapping[b] for b in bits} for bits in K.degrees]
            )
            assert limit_correlation(relabeled) == limit_correlation(K)

    def test_converges_to_sequence_ratio(self):
        # |S(n)/2**n - c0| <= 2 * 2**r * cos(pi/2**r)**n for n past one period.
        rng = random.Random(64)
        for _ in range(12):
            K = random_degree_set(rng, max_k=12)
            r = K.period_exponent
            c0 = limit_correlation(K)
            for n in (1 << r, (1 << r) + 5, 40):
                gap = abs(correlation(n, K) - c0)
                bound = 2 * (1 << r) * math.cos(math.pi / (1 << r)) ** n
                assert float(gap) <= bound, (K, n)


class TestNestedChains:
    def test_single(self):
        assert limit_correlation_nested(DegreeSet.of(3)) == Fraction(1, 2)

    def test_pair_10_14(self):
        K = DegreeSet.of(10, 14)
        assert limit_correlation_nested(K) == limit_correlation(K) == Fraction(3, 4)

    def test_rejects_non_nested(self):
        with pytest.raises(ValueError):
            limit_correlation_nested(DegreeSet.of(3, 4))

    def test_chains_positive_and_consistent(self):
        rng = random.Random(65)
        for _ in range(60):
            K = random_nested_chain(rng)
            value = limit_correlation_nested(K)
            assert value == limit_correlation(K)
            assert value > 0


class TestBalancedness:
    def test_examples(self):
        assert is_asymptotically_balanced(DegreeSet.of(4))
        assert is_asymptotically_balanced(DegreeSet.of(5, 9, 12))
        assert not is_asymptotically_balanced(DegreeSet.of(3, 5))

    def test_equivalent_to_missing_root_two(self):
        rng = random.Random(66)
        for _ in range(25):
            K = random_degree_set(rng, max_k=20)
            assert is_asymptotically_balanced(K) == (
                not minimal_charpoly(K).has_x_minus_2
            )


class TestMainTerm:
    def test_methods_agree(self):
        rng = random.Random(67)
        for _ in range(15):
            K = random_degree_set(rng, max_k=24)
            n = rng.randint(0, 200)
            a = main_term(K, n, PREC)
            b = cosine_main_term(K, n, PREC)
            assert abs(a - b) < mpmath.mpf(2) ** -200

    def test_periodic(self):
        K = DegreeSet.of(5, 9, 12)
        period = 1 << (K.period_exponent + 1)
        for n in (0, 3, 17):
            a = main_term(K, n, PREC)
            b = main_term(K, n + period, PREC)
            assert abs(a - b) < mpmath.mpf(2) ** -240

    def test_exact_representation_is_periodic_and_consistent(self):
        K = DegreeSet.of(5, 9, 12)
        period = 1 << (K.period_exponent + 1)
        ctx = PREC.context()
        for n in (0, 1, 11, 30):
            exact, scale = main_term_exact(K, n)
            again, _ = main_term_exact(K, n + period)
            assert exact == again
            re, im = exact.evaluate(ctx)
            assert abs(im) < ctx.mpf(2) ** -200  # conjugation-fixed, hence real
            assert abs(re / scale - main_term(K, n, PREC)) < ctx.mpf(2) ** -200

    def test_profile_contents(self):
        K = DegreeSet.of(3, 5)
        profile = main_term_profile(K, PREC)
        assert profile.period == 1 << (K.period_exponent + 1)
        assert len(profile.profile) == profile.period
        assert max(abs(v) for v in profile.profile) > mpmath.mpf(10) ** -30
        for n in (0, 5, 9):
            assert abs(profile.profile[n] - main_term(K, n, PREC)) < mpmath.mpf(2) ** -240

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateDegreeSetError):
            main_term(DegreeSet.of(1), 3, PREC)


class TestErrorTerm:
    def test_requires_vanishing_limit(self):
        with pytest.raises(ValueError, match="vanishes"):
            error_term(DegreeSet.of(3, 5), 50, PrecisionConfig(bits=1024))

    def test_precision_guard(self):
        with pytest.raises(PrecisionError):
            error_term(DegreeSet.of(5, 9, 12), 2000, PrecisionConfig(bits=1024))

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateDegreeSetError):
            error_term(DegreeSet.of(1), 10, PREC)

    def test_decay_along_the_table(self):
        prec = PrecisionConfig(bits=1024)
        K = DegreeSet.of(5, 9, 12)
        values = [abs(v) for _, v in error_table(K, [100, 200, 300, 400, 500], prec)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[1] <= mpmath.mpf(2) * 10**-6  # reference row at n = 200

    def test_table_matches_pointwise_calls(self):
        prec = PrecisionConfig(bits=1024)
        K = DegreeSet.of(5, 9, 12)
        table = dict(error_table(K, [40, 80], prec))
        for n, value in table.items():
            assert abs(value - error_term(K, n, prec)) < mpmath.mpf(2) ** -900

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError):
            error_table(DegreeSet.of(5, 9, 12), [], PREC)


class TestAsymptoticValue:
    def test_ratio_tends_to_limit(self):
        K = DegreeSet.of(3, 5)
        value = asymptotic_value(K, 60, PREC)
        assert abs(value / mpmath.mpf(2) ** 60 - mpmath.mpf(1) / 2) < 1e-4

    def test_residual_within_rigorous_envelope(self):
        # S(n) minus the two-term truncation is a sum of at most 2**r root
        # powers, each coefficient of modulus at most 1, at the next modulus.
        K = DegreeSet.of(5, 9, 12)
        r = K.period_exponent
        prec = PrecisionConfig(bits=512)
        ctx = prec.context()
        next_modulus = 2 * ctx.cos(ctx.pi / (1 << (r - 1)))
        for n in (16, 32, 64, 128, 256):
            residual = abs(exp_sum(n, K) - asymptotic_value(K, n, prec))
            assert residual <= (1 << r) * next_modulus**n, n

    def test_degree_one_rejected(self):
        with pytest.raises(DegenerateDegreeSetError):
            asymptotic_value(DegreeSet.of(1), 10, PREC)


class TestPrecisionConfig:
    def test_bits_floor(self):
        with pytest.raises(ValueError):
            PrecisionConfig(bits=32)

    def test_contexts_are_independent(self):
        a = PrecisionConfig(bits=128).context()
        b = PrecisionConfig(bits=512).context()
        assert a.prec == 128
        assert b.prec == 512
        assert mpmath.mp.prec not in (128, 512)

    def test_format_digits(self):
        prec = PrecisionConfig(bits=128, output_digits=6)
        assert prec.format(mpmath.mpf(1) / 3) == "0.333333"
