import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from boolsum import (
    DegreeSet,
    FactoredCharPoly,
    IntPolynomial,
    LinearRecurrence,
    degree_bounds,
    expand,
    exp_sum,
    full_charpoly,
    minimal_charpoly,
    minimal_recurrence,
    minimal_recurrence_oracle,
    orbit_sums,
    sequence,
    shifted_cyclotomic_factor,
    single_degree_charpoly,
    to_recurrence,
    verify,
)

from oracles import random_degree_set, schoolbook_product

REFERENCE_REC_K7 = (8, -28, 56, -70, 56, -28, 8)
REFERENCE_REC_35 = (6, -14, 16, -10, 4)

# Zeros, small values of both signs and values past 2**300.
_coefficients = st.one_of(
    st.just(0), st.integers(-3, 3), st.integers(-(1 << 320), 1 << 320)
)
_polynomials = st.builds(
    lambda body, lead: IntPolynomial((*body, lead)),
    st.lists(_coefficients, max_size=30),
    _coefficients.filter(bool),
)


class TestPolynomials:
    def test_shifted_cyclotomic_examples(self):
        assert shifted_cyclotomic_factor(1).coeffs == (2, -2, 1)  # x^2 - 2x + 2
        assert shifted_cyclotomic_factor(2).coeffs == (2, -4, 6, -4, 1)

    def test_full_charpoly_r2(self):
        # (x - 2)(x^2 - 2x + 2) = x^3 - 4x^2 + 6x - 4
        assert full_charpoly(2).coeffs == (-4, 6, -4, 1)

    def test_full_charpoly_binomial_equals_product(self):
        for r in range(2, 12):
            product = expand(
                FactoredCharPoly(has_x_minus_2=True, levels=frozenset(range(1, r)))
            )
            assert full_charpoly(r).coeffs == product.coeffs, r

    def test_full_charpoly_bounds(self):
        with pytest.raises(ValueError):
            full_charpoly(1)

    def test_poly_multiplication(self):
        a = IntPolynomial((-2, 1))
        b = IntPolynomial((2, -2, 1))
        assert (a * b).coeffs == (-4, 6, -4, 1)

    @given(_polynomials, _polynomials)
    @example(IntPolynomial((127,)), IntPolynomial((-1,)))
    @example(IntPolynomial((-(1 << 300),)), IntPolynomial((1, 0, 0, -(1 << 301))))
    @example(IntPolynomial((-255,) * 7), IntPolynomial((-255,) * 7))
    def test_product_matches_schoolbook(self, a, b):
        assert (a * b).coeffs == schoolbook_product(a.coeffs, b.coeffs)

    def test_leading_zero_rejected(self):
        with pytest.raises(ValueError):
            IntPolynomial((1, 0))


class TestMinimalCharPoly:
    def test_pair_6_17_attains_upper_bound(self):
        fact = minimal_charpoly(DegreeSet.of(6, 17))
        assert fact.has_x_minus_2
        assert fact.levels == frozenset({1, 2, 4})
        assert fact.degree == 23

    def test_triple_3_5_17_strictly_inside(self):
        fact = minimal_charpoly(DegreeSet.of(3, 5, 17))
        assert fact.has_x_minus_2
        assert fact.levels == frozenset({4})
        assert fact.degree == 17

    def test_pair_3_5_expansion(self):
        poly = expand(minimal_charpoly(DegreeSet.of(3, 5)))
        assert poly.coeffs == (-4, 10, -16, 14, -6, 1)

    def test_power_of_two_top(self):
        fact = minimal_charpoly(DegreeSet.of(3, 5, 16))
        assert not fact.has_x_minus_2
        assert fact.levels == frozenset({4})

    def test_serialization(self):
        fact = minimal_charpoly(DegreeSet.of(6, 17))
        assert fact.to_dict() == {"x_minus_2": True, "levels": [1, 2, 4], "degree": 23}


class TestSingleDegreeCharPoly:
    def test_examples(self):
        assert single_degree_charpoly(7).degree == 7
        k8 = single_degree_charpoly(8)
        assert not k8.has_x_minus_2
        assert k8.levels == frozenset({3})
        assert k8.degree == 8
        k4 = single_degree_charpoly(4)
        assert not k4.has_x_minus_2
        assert k4.degree == 4

    def test_closed_form_matches_orbit_route(self):
        for k in range(2, 65):
            closed = single_degree_charpoly(k)
            assert closed == minimal_charpoly(DegreeSet.of(k)), k
            eps = 0 if k & (k - 1) == 0 else 1
            assert closed.degree == 2 * (k // 2) + eps, k

    def test_huge_degree_needs_no_enumeration(self):
        fact = single_degree_charpoly(2**10**5 + 6)
        assert fact.has_x_minus_2
        assert fact.levels == frozenset({1, 2, 10**5})

    def test_rejects_k_below_two(self):
        with pytest.raises(ValueError):
            single_degree_charpoly(1)


class TestRecurrenceConversion:
    def test_reference_recurrence_for_k7(self):
        assert to_recurrence(full_charpoly(3)).coefficients == REFERENCE_REC_K7

    def test_pair_3_5(self):
        rec = to_recurrence(expand(minimal_charpoly(DegreeSet.of(3, 5))))
        assert rec.coefficients == REFERENCE_REC_35
        assert rec.valid_from == 5

    def test_geometric(self):
        rec = to_recurrence(IntPolynomial((-2, 1)))
        assert rec.coefficients == (2,)

    def test_non_monic_rejected(self):
        with pytest.raises(ValueError):
            to_recurrence(IntPolynomial((1, 2)))

    def test_trailing_zero_rejected(self):
        with pytest.raises(ValueError):
            LinearRecurrence(coefficients=(2, 0), valid_from=2)


class TestMinimalRecurrence:
    def test_valid_from_shifts_for_odd_top(self):
        rec = minimal_recurrence(DegreeSet.of(7))
        assert rec.coefficients == REFERENCE_REC_K7
        assert rec.valid_from == 8  # window at n = 7 touches the n = 0 delta term

    def test_valid_from_exact_for_power_of_two(self):
        rec = minimal_recurrence(DegreeSet.of(4))
        assert rec.coefficients == (4, -6, 4, -2)
        assert rec.valid_from == 4

    def test_first_window_defect_is_predicted_exactly(self):
        # At n = order the relation misses by c_order * alternating_sum / 2**r.
        rng = random.Random(40)
        for _ in range(20):
            K = random_degree_set(rng, max_k=16)
            rec = to_recurrence(expand(minimal_charpoly(K)))
            seq = sequence(K, 0, rec.order + 1)
            d = rec.order
            rhs = sum(c * seq.values[d - m] for m, c in enumerate(rec.coefficients, 1))
            defect = rhs - seq.values[d]
            period = 1 << K.period_exponent
            alternating = orbit_sums(K).alternating
            assert defect * period == rec.coefficients[-1] * alternating * 1, K
            assert (defect == 0) == (alternating == 0)


class TestVerify:
    def test_k7_full_window(self):
        K = DegreeSet.of(7)
        seq = sequence(K, 0, 60)
        assert verify(seq, minimal_recurrence(K)) is None

    def test_pair_3_5_minimal(self):
        K = DegreeSet.of(3, 5)
        seq = sequence(K, 0, 40)
        assert verify(seq, minimal_recurrence(K)) is None

    def test_wrong_recurrence_reports_first_failure(self):
        K = DegreeSet.of(3, 5)
        seq = sequence(K, 0, 40)
        doubling = LinearRecurrence(coefficients=(2,), valid_from=1)
        assert verify(seq, doubling) == 3  # S(3) = 6, not 2 * S(2) = 8

    def test_window_too_short(self):
        K = DegreeSet.of(3, 5)
        with pytest.raises(ValueError):
            verify(sequence(K, 0, 3), minimal_recurrence(K))

    def test_sampled_sets_satisfy_their_minimal_recurrence(self):
        rng = random.Random(41)
        for _ in range(25):
            K = random_degree_set(rng, max_k=20)
            rec = minimal_recurrence(K)
            seq = sequence(K, 0, 1 << (K.period_exponent + 1))
            assert verify(seq, rec) is None, K


class TestDegreeBounds:
    def test_examples(self):
        assert degree_bounds(DegreeSet.of(6, 17)) == (16, 23)
        assert degree_bounds(DegreeSet.of(3, 5, 17)) == (16, 23)

    def test_power_of_two_degrees(self):
        for k in (4, 8, 16):
            lower, upper = degree_bounds(DegreeSet.of(k))
            assert (lower, upper) == (k, k + 1)
            assert minimal_charpoly(DegreeSet.of(k)).degree == k

    def test_huge_sparse_degrees(self):
        K = DegreeSet.from_bit_sets([{0, 1, 2}, {10**6}])
        lower, upper = degree_bounds(K)
        assert lower == 1 << 10**6
        assert upper == 2**10**6 + 7


class TestOracle:
    def test_geometric_sequence(self):
        rec = minimal_recurrence_oracle([2**n for n in range(11)])
        assert rec.coefficients == (2,)
        assert rec.valid_from == 1

    def test_pair_3_5_from_n1(self):
        K = DegreeSet.of(3, 5)
        prefix = sequence(K, 1, 31).values
        rec = minimal_recurrence_oracle(prefix)
        assert rec.coefficients == REFERENCE_REC_35
        assert rec.valid_from == 5

    def test_pair_3_5_from_n0_moves_delay_into_valid_from(self):
        K = DegreeSet.of(3, 5)
        prefix = sequence(K, 0, 30).values
        rec = minimal_recurrence_oracle(prefix)
        assert rec.coefficients == REFERENCE_REC_35
        assert rec.valid_from == 6

    def test_pair_6_17_order(self):
        K = DegreeSet.of(6, 17)
        prefix = sequence(K, 1, 81).values
        assert minimal_recurrence_oracle(prefix).order == 23

    def test_unstable_prefix_rejected(self):
        with pytest.raises(ValueError, match="stability"):
            minimal_recurrence_oracle([0, 0, 0, 1])

    def test_non_integral_recurrence_rejected(self):
        with pytest.raises(ValueError, match="integral"):
            minimal_recurrence_oracle([Fraction(1, 2**n) for n in range(12)])

    def test_agrees_with_orbit_route_on_sampled_sets(self):
        rng = random.Random(42)
        for _ in range(500):
            K = random_degree_set(rng, max_k=16)
            degree = minimal_charpoly(K).degree
            prefix = sequence(K, 1, 1 << (K.period_exponent + 1)).values
            fitted = minimal_recurrence_oracle(prefix)
            assert fitted.order == degree, K
            assert fitted.coefficients == minimal_recurrence(K).coefficients, K

    def test_pair_6_17_from_n0_still_fits_order_23(self):
        # The zero-based prefix carries the 0**n delta, which lands in the
        # fitted delay rather than the coefficient list.
        K = DegreeSet.of(6, 17)
        rec = minimal_recurrence_oracle(sequence(K, 0, 80).values)
        assert rec.order == 23
        assert rec.valid_from == 24

    def test_bounds_contain_the_fitted_order(self):
        rng = random.Random(43)
        for _ in range(60):
            K = random_degree_set(rng, max_k=32)
            lower, upper = degree_bounds(K)
            degree = minimal_charpoly(K).degree
            assert lower <= degree <= upper

    def test_surviving_levels_divide_the_merged_degree_polynomial(self):
        # The minimal polynomial always divides (x - 2) times the factors
        # read off the OR of all degrees with its low bit forced on.
        from boolsum import bits_of

        rng = random.Random(45)
        for _ in range(80):
            K = random_degree_set(rng, max_k=32)
            allowed = {b for b in bits_of(degree_bounds(K)[1]) if b >= 1}
            assert set(minimal_charpoly(K).levels) <= allowed, K


class TestFullRecurrenceValidity:
    def test_every_sequence_satisfies_the_period_recurrence(self):
        # The order 2**r - 1 recurrence holds from n = 2**r on; the window at
        # n = 2**r - 1 touches S(0) and holds exactly when the closed form
        # has no 0**n term.
        rng = random.Random(44)
        for _ in range(20):
            K = random_degree_set(rng, max_k=16)
            r = K.period_exponent
            rec = to_recurrence(full_charpoly(r))
            seq = sequence(K, 0, (1 << r) + 20)
            assert verify(seq, rec, valid_from=1 << r) is None, K
            edge = verify(seq, rec, valid_from=(1 << r) - 1)
            holds_at_edge = edge is None
            assert holds_at_edge == (orbit_sums(K).alternating == 0), K
