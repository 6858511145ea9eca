import random
from fractions import Fraction
from functools import reduce
from operator import or_

import pytest
from hypothesis import given, strategies as st

from boolsum import (
    DegreeSet,
    bits_of,
    degree_bounds,
    limit_correlation_nested,
    sign_exponent,
    sign_exponents,
)

from oracles import (
    binary_weight,
    binom_parity,
    comb_parity,
    or_merge,
    random_degree_set,
    reference_sign_exponent,
)

positive_ints = st.integers(min_value=1, max_value=10**9)


class TestBinaryWeight:
    def test_examples(self):
        assert binary_weight(7) == 3
        assert binary_weight(31) == 5
        assert binary_weight(2**10**6 + 5) == 3

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            binary_weight(0)


class TestOrMerge:
    def test_worked_examples(self):
        assert or_merge(4, 6) == 6
        assert or_merge(3, 8) == 11

    @given(positive_ints)
    def test_idempotent(self, k):
        assert or_merge(k, k) == k

    @given(positive_ints, positive_ints)
    def test_commutative(self, a, b):
        assert or_merge(a, b) == or_merge(b, a)

    @given(positive_ints, positive_ints, positive_ints)
    def test_associative(self, a, b, c):
        assert or_merge(or_merge(a, b), c) == or_merge(a, or_merge(b, c))

    @given(positive_ints, positive_ints)
    def test_weight_subadditive(self, a, b):
        merged = binary_weight(or_merge(a, b))
        assert merged <= binary_weight(a) + binary_weight(b)
        disjoint = a & b == 0
        assert (merged == binary_weight(a) + binary_weight(b)) == disjoint


class TestBinomParity:
    def test_examples(self):
        assert binom_parity(6, 4) == 1  # binom(6,4) = 15
        assert binom_parity(5, 2) == 0  # binom(5,2) = 10

    @given(st.integers(min_value=1, max_value=10**6))
    def test_diagonal(self, k):
        assert binom_parity(k, k) == 1

    def test_matches_exact_binomials(self):
        for m in range(201):
            for k in range(1, 201):
                assert binom_parity(m, k) == comb_parity(m, k), (m, k)

    def test_odd_binomial_count_over_one_period(self):
        # Exactly 2**(r - weight) of the m below 2**r give an odd binomial:
        # the free bits are the complement of k's bits.
        for k in range(1, 65):
            r = k.bit_length()
            count = sum(binom_parity(m, k) for m in range(1 << r))
            assert count == 1 << (r - binary_weight(k)), k


class TestSignExponent:
    def test_reference_sign_string_3_5_10(self):
        K = DegreeSet.of(3, 5, 10)
        signs = [1 - 2 * sign_exponent(m, K) for m in range(16)]
        assert signs == [1, 1, 1, -1, 1, -1, 1, 1, 1, 1, -1, 1, 1, -1, -1, -1]

    def test_small_cases(self):
        assert sign_exponent(0, DegreeSet.of(9)) == 0
        assert sign_exponent(2, DegreeSet.of(2)) == 1

    def test_huge_degree_contributes_nothing_below_its_bits(self):
        K = DegreeSet.from_bit_sets([{0, 1}, {10**6}])
        assert sign_exponent(3, K) == 1  # only the degree-3 part fires

    def test_matches_reference(self):
        rng = random.Random(1001)
        for _ in range(25):
            K = random_degree_set(rng, max_k=24)
            ks = K.values()
            for m in range(40):
                assert sign_exponent(m, K) == reference_sign_exponent(m, ks)

    def test_periodicity(self):
        rng = random.Random(1002)
        sets = [random_degree_set(rng, max_k=32) for _ in range(12)]
        sets.append(DegreeSet.of(3, 5, 10))
        for K in sets:
            period = 1 << K.period_exponent
            for m in range(4 * period):
                assert sign_exponent(m + period, K) == sign_exponent(m, K)

    def test_sweep_agrees_with_pointwise(self):
        rng = random.Random(1003)
        for _ in range(10):
            K = random_degree_set(rng, max_k=20)
            limit = rng.randint(1, 70)
            assert sign_exponents(K, limit) == [
                sign_exponent(m, K) for m in range(limit)
            ]


class TestDegreeSet:
    def test_of_sorts(self):
        assert DegreeSet.of(5, 3) == DegreeSet.of(3, 5)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            DegreeSet.of(3, 3)
        with pytest.raises(ValueError):
            DegreeSet.from_bit_sets([{0, 1}, {1, 0}])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DegreeSet(())
        with pytest.raises(ValueError):
            DegreeSet.from_bit_sets([set()])

    def test_values_round_trip(self):
        K = DegreeSet.of(6, 17)
        assert K.values() == (6, 17)
        assert bits_of(17) == (0, 4)

    def test_huge_degree(self):
        K = DegreeSet.from_bit_sets([{0, 2, 10**6}])
        assert K.period_exponent == 10**6 + 1
        assert K.values() == (2**10**6 + 5,)


class TestStructureParams:
    """Structural parameters of a degree set: DegreeSet, its mask accessor and degree_bounds."""

    def test_single_seven(self):
        K = DegreeSet.of(7)
        assert K.period_exponent == 3
        assert degree_bounds(K)[1] == 7
        assert degree_bounds(K)[0] < 7  # the top degree is not a power of two

    def test_pair_6_17_structure(self):
        K = DegreeSet.of(6, 17)
        assert K.period_exponent == 5
        assert DegreeSet.mask(K.or_all_bits()) == 23
        assert degree_bounds(K)[1] == 23

    def test_nested_pair(self):
        assert limit_correlation_nested(DegreeSet.of(10, 14)) == Fraction(3, 4)
        with pytest.raises(ValueError):
            limit_correlation_nested(DegreeSet.of(3, 4))

    def test_power_of_two_top(self):
        assert degree_bounds(DegreeSet.of(3, 16))[0] == 16

    @given(st.sets(st.integers(min_value=1, max_value=40), min_size=1, max_size=5))
    def test_invariants(self, ks):
        K = DegreeSet.of(*ks)
        top = max(ks)
        r = K.period_exponent
        assert 2 ** (r - 1) <= top < 2**r
        assert K.values() == tuple(sorted(ks))
        or_all = DegreeSet.mask(K.or_all_bits())
        assert or_all == reduce(or_, ks)
        lower, upper = degree_bounds(K)
        assert upper == or_all | 1
        assert upper.bit_length() == or_all.bit_length()
        assert (lower == top) == (top & (top - 1) == 0)
