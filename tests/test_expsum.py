import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from boolsum import (
    DegreeSet,
    ResourceLimitError,
    correlation,
    exp_sum,
    exp_sum_bruteforce,
    find_balanced,
    minimal_recurrence_oracle,
    sequence,
    sign_exponent,
)

from oracles import (
    monomial_sigma_parity,
    random_degree_set,
    reference_exp_sum,
)


low_degrees = st.frozensets(st.integers(0, 11), min_size=1, max_size=4)


@st.composite
def stepper_degree_sets(draw):
    """Degree sets with r <= 12, some with one more degree that has a bit >= 64."""
    bit_sets = draw(st.lists(low_degrees, min_size=1, max_size=4, unique=True))
    if draw(st.booleans()):
        high = draw(st.sampled_from([64, 65, 200, 10**6]))
        bit_sets.append(draw(low_degrees) | {high})
    return DegreeSet.from_bit_sets(bit_sets)


class TestExpSum:
    def test_degree_one_is_always_balanced(self):
        assert exp_sum(3, DegreeSet.of(1)) == 0

    def test_small_example_matches_enumeration(self):
        assert exp_sum(4, DegreeSet.of(3)) == 8
        assert exp_sum_bruteforce(4, DegreeSet.of(3)) == 8

    def test_empty_cube(self):
        assert exp_sum(0, DegreeSet.of(3)) == 1
        assert exp_sum(0, DegreeSet.from_bit_sets([{10**6}])) == 1

    def test_below_largest_degree_still_defined(self):
        # The binomial form extends below k_s; all weights fall below every
        # degree, so the function is identically zero there.
        assert exp_sum(5, DegreeSet.of(9)) == 2**5

    def test_matches_reference_on_sampled_inputs(self):
        rng = random.Random(50)
        for _ in range(40):
            K = random_degree_set(rng, max_k=20)
            n = rng.randint(0, 40)
            assert exp_sum(n, K) == reference_exp_sum(n, K.values())

    @given(st.integers(min_value=0, max_value=40),
           st.sets(st.integers(min_value=1, max_value=12), min_size=1, max_size=3))
    @settings(max_examples=60)
    def test_bounded_by_cube_size(self, n, ks):
        K = DegreeSet.of(*ks)
        value = exp_sum(n, K)
        assert abs(value) <= 2**n
        if abs(value) == 2**n and n >= 1:
            # Saturation means the function is constant on the cube.
            assert all(sign_exponent(j, K) == 0 for j in range(n + 1))

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            exp_sum(-1, DegreeSet.of(2))


class TestBruteForce:
    def test_two_variables_degree_two(self):
        assert exp_sum_bruteforce(2, DegreeSet.of(2)) == 2

    def test_oracle_equals_formula(self):
        for n in range(9):
            assert exp_sum_bruteforce(n, DegreeSet.of(3, 5)) == exp_sum(
                n, DegreeSet.of(3, 5)
            )

    def test_resource_guard(self):
        with pytest.raises(ResourceLimitError):
            exp_sum_bruteforce(25, DegreeSet.of(2))
        assert exp_sum_bruteforce(5, DegreeSet.of(2), n_max=5) == exp_sum(
            5, DegreeSet.of(2)
        )

    def test_huge_degree_contributes_constant_zero(self):
        K = DegreeSet.from_bit_sets([{1}, {10**6}])
        assert exp_sum_bruteforce(6, K) == exp_sum(6, K)


class TestMonomialMicroOracle:
    def test_weight_evaluation_matches_monomial_expansion(self):
        # sigma_{n,k} on a point equals binomial(weight, k) mod 2; check the
        # literal sum over all k-subsets of the coordinates.
        for n in (2, 5, 8):
            for k in range(1, 5):
                K = DegreeSet.of(k)
                for x in range(1 << n):
                    weight_route = sign_exponent(x.bit_count(), K)
                    monomial_route = monomial_sigma_parity(x, n, k)
                    assert weight_route == monomial_route, (n, k, x)


class TestSequence:
    def test_degree_one(self):
        assert sequence(DegreeSet.of(1), 1, 5).values == (0, 0, 0, 0, 0)

    def test_degree_two_window(self):
        seq = sequence(DegreeSet.of(2), 1, 7)
        assert seq.values[-1] == 0
        assert seq.values[-1] == exp_sum_bruteforce(7, DegreeSet.of(2))

    def test_windows_and_lookup(self):
        seq = sequence(DegreeSet.of(3, 5), 4, 9)
        assert seq.start_n == 4
        assert seq.value_at(6) == exp_sum(6, DegreeSet.of(3, 5))
        with pytest.raises(IndexError):
            seq.value_at(3)

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            sequence(DegreeSet.of(3), 5, 4)

    @given(stepper_degree_sets(), st.integers(0, 300), st.integers(0, 300))
    @example(DegreeSet.of(5, 9, 12), 0, 14)  # n1 + 1 < 2**r: the row is not periodic
    @example(DegreeSet.of(5, 9, 12), 3, 15)  # n1 + 1 = 2**r: one full period
    @example(DegreeSet.of(5, 9, 12), 16, 16)  # n1 + 1 = 2**r + 1: the row wraps
    @example(DegreeSet.of(3, 200), 0, 255)
    @example(DegreeSet.of(3, 200), 0, 256)
    @example(DegreeSet.of(3, 200), 250, 257)
    @example(DegreeSet.from_bit_sets([{0, 1}, {0, 10**6}]), 0, 300)
    @settings(max_examples=60, deadline=None)
    def test_steps_equal_the_binomial_walk(self, K, a, b):
        n0, n1 = sorted((a, b))
        stepped = sequence(K, n0, n1).values
        assert stepped == tuple(exp_sum(n, K) for n in range(n0, n1 + 1))

    def test_fit_recovers_reference_recurrence(self):
        # Fitting the first thirty values (from n = 1) recovers the known
        # order-7 recurrence for a single degree-7 polynomial.
        prefix = sequence(DegreeSet.of(7), 1, 30).values
        rec = minimal_recurrence_oracle(prefix)
        assert rec.coefficients == (8, -28, 56, -70, 56, -28, 8)

    def test_start_of_sequence_is_one(self):
        rng = random.Random(51)
        for _ in range(10):
            K = random_degree_set(rng, max_k=24)
            assert sequence(K, 0, 3).values[0] == 1


class TestCorrelation:
    def test_examples(self):
        assert correlation(2, DegreeSet.of(2)) == Fraction(1, 2)
        assert correlation(3, DegreeSet.of(1)) == 0
        assert correlation(0, DegreeSet.of(4)) == 1

    def test_reduced_form(self):
        value = correlation(10, DegreeSet.of(3))
        assert value.denominator & (value.denominator - 1) == 0  # power of two


class TestFindBalanced:
    def test_degree_two(self):
        assert find_balanced(DegreeSet.of(2), 10) == [3, 7]

    def test_degree_one(self):
        assert find_balanced(DegreeSet.of(1), 5) == [1, 2, 3, 4, 5]

    def test_degree_four_against_bruteforce(self):
        found = find_balanced(DegreeSet.of(4), 4)
        brute = [
            n for n in range(1, 5) if exp_sum_bruteforce(n, DegreeSet.of(4)) == 0
        ]
        assert found == brute

    def test_bad_bound(self):
        with pytest.raises(ValueError):
            find_balanced(DegreeSet.of(2), 0)
