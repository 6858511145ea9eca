"""Acceptance suite: one test per exit criterion, one PASS line each.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
Tolerances are pinned where stated; everything else is exact integer or
rational arithmetic.
"""

import math
import random
import time
from fractions import Fraction
from itertools import combinations

import mpmath

from boolsum import (
    DegreeSet,
    PrecisionConfig,
    degree_bounds,
    error_table,
    exp_sum,
    exp_sum_bruteforce,
    expand,
    find_balanced,
    full_charpoly,
    limit_correlation,
    limit_correlation_enumerated,
    limit_correlation_nested,
    main_term,
    main_term_exact,
    main_term_profile,
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

from oracles import closed_form_coefficient

REFERENCE_REC_K7 = (8, -28, 56, -70, 56, -28, 8)
REFERENCE_REC_35 = (6, -14, 16, -10, 4)

REFERENCE_ERROR_5912 = {
    100: "0.001530582098",
    200: "-1.60776038707e-6",
    300: "-9.843230768196e-9",
    400: "1.033957384537e-11",
    500: "6.330222602868e-14",
}
REFERENCE_ERROR_241135 = {
    250: "-0.014750",
    500: "-0.0012673",
    750: "-0.000024944",
    1000: "7.21779483609288e-6",
    1250: "1.01240694303367e-6",
}


def _pass(number: int, message: str) -> None:
    print(f"\nACCEPTANCE {number:2d} PASS: {message}")


def test_criterion_01_oracle_equivalence():
    start = time.perf_counter()
    checked = 0
    for size in range(1, 7):
        for ks in combinations(range(1, 7), size):
            K = DegreeSet.of(*ks)
            for n in range(15):
                assert exp_sum(n, K) == exp_sum_bruteforce(n, K), (ks, n)
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _pass(1, f"formula == brute force on {checked} (K, n) pairs in {elapsed:.1f}s")


def test_criterion_02_recurrence_for_degree_seven():
    K = DegreeSet.of(7)
    rec = to_recurrence(full_charpoly(3))
    assert rec.coefficients == REFERENCE_REC_K7
    assert expand(single_degree_charpoly(7)).coeffs == full_charpoly(3).coeffs

    seq = sequence(K, 0, 60)
    values = seq.values

    def window(n):
        return sum(c * values[n - m] for m, c in enumerate(rec.coefficients, 1))

    # The n = 7 window touches S(0), whose closed form carries a 0**n term
    # with coefficient 1/4; the relation there misses by exactly
    # c_7 * (2**3 * 1/4) / 2**3 * ... = 2, and holds everywhere afterwards.
    predicted_defect = rec.coefficients[-1] * orbit_sums(K).alternating // 8
    assert window(7) - values[7] == predicted_defect == 2
    for n in range(8, 61):
        assert window(n) == values[n], n

    # Equivalent statement on the 1-indexed sequence: the first seven terms
    # S(1..7) regenerate everything through n = 61.
    assert verify(sequence(K, 1, 61), rec, valid_from=8) is None
    assert minimal_recurrence(K).valid_from == 8

    fitted = minimal_recurrence_oracle(sequence(K, 1, 31).values)
    assert fitted.coefficients == REFERENCE_REC_K7
    _pass(
        2,
        "degree-7 coefficients {8,-28,56,-70,56,-28,8}; relation exact for all "
        "n >= 8 (the n = 7 window includes S(0), off by the predicted 0**n "
        "defect of exactly 2, so the first fully valid window is one later "
        "than the criterion's nominal n = 7)",
    )


def test_criterion_03_minimal_recurrence_for_3_5():
    K = DegreeSet.of(3, 5)
    poly = expand(minimal_charpoly(K))
    assert poly.coeffs == (-4, 10, -16, 14, -6, 1)
    assert to_recurrence(poly).coefficients == REFERENCE_REC_35

    fitted = minimal_recurrence_oracle(sequence(K, 1, 31).values)
    assert fitted.order == 5
    assert fitted.coefficients == REFERENCE_REC_35
    _pass(3, "minimal charpoly expands to [6,-14,16,-10,4]; 31-term fit agrees, order 5")


def test_criterion_04_single_degree_closed_form():
    start = time.perf_counter()
    for k in range(2, 65):
        closed = single_degree_charpoly(k)
        assert closed == minimal_charpoly(DegreeSet.of(k)), k
        eps = 0 if k & (k - 1) == 0 else 1
        assert closed.degree == 2 * (k // 2) + eps, k
    for k in range(2, 17):
        K = DegreeSet.of(k)
        prefix = sequence(K, 1, 1 << (K.period_exponent + 1)).values
        assert minimal_recurrence_oracle(prefix).order == minimal_charpoly(K).degree, k
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _pass(4, f"closed form == orbit route for k in 2..64; oracle-minimal for k in 2..16 ({elapsed:.1f}s)")


def test_criterion_05_tight_and_strict_examples():
    tight = minimal_charpoly(DegreeSet.of(6, 17))
    assert tight.has_x_minus_2 and tight.levels == frozenset({1, 2, 4})
    assert tight.degree == 23 == degree_bounds(DegreeSet.of(6, 17))[1]

    strict = minimal_charpoly(DegreeSet.of(3, 5, 17))
    assert strict.has_x_minus_2 and strict.levels == frozenset({4})
    assert strict.degree == 17
    lower, upper = degree_bounds(DegreeSet.of(3, 5, 17))
    assert (lower, upper) == (16, 23)
    assert lower < strict.degree < upper
    _pass(5, "{6,17} attains the upper bound 23; {3,5,17} sits strictly inside (16, 23)")


def test_criterion_06_degree_bounds_hold():
    rng = random.Random(2024)
    for _ in range(500):
        size = rng.randint(1, 4)
        ks = rng.sample(range(1, 21), size)
        if max(ks) < 2:
            ks.append(2)
        K = DegreeSet.of(*ks)
        fact = minimal_charpoly(K)
        lower, upper = degree_bounds(K)
        assert lower <= fact.degree <= upper, K
        assert K.period_exponent - 1 in fact.levels, K
    _pass(6, "bounds contain the minimal degree and the top factor is always present (500 random sets)")


def test_criterion_07_power_of_two_top_degree():
    sets = [(4,), (8,), (16,), (2, 8), (3, 5, 16), (1, 2, 4, 8, 16, 32)]
    for ks in sets:
        K = DegreeSet.of(*ks)
        r = K.period_exponent
        fact = minimal_charpoly(K)
        assert not fact.has_x_minus_2, ks
        assert fact.levels == frozenset({r - 1}), ks
        assert expand(fact).coeffs == shifted_cyclotomic_factor(r - 1).coeffs
        for j in range(1 << r):
            is_zero = closed_form_coefficient(K, j).numerator.is_zero
            assert is_zero == (j % 2 == 0), (ks, j)
    _pass(7, "power-of-two top degree keeps only the top factor; coefficients vanish exactly at even indices")


def test_criterion_08_general_limit_formula():
    start = time.perf_counter()
    huge = DegreeSet.from_bit_sets([{0, 1, 2}, {0, 3}, {10**4, 10**5}, {0, 2, 10**6}])
    value = limit_correlation(huge)
    elapsed = time.perf_counter() - start
    assert value == Fraction(1, 4)
    assert elapsed < 1.0

    # The reference value for this example is 45/128; both independent routes
    # disagree with it and agree with each other, so it is recorded as a
    # suspected erratum rather than asserted.
    claimed = DegreeSet.from_bit_sets([{0, 1, 2, 3, 4}, {6, 10**4}, {5, 7, 10**4}])
    subset_route = limit_correlation(claimed)
    relabeled = DegreeSet.from_bit_sets([{0, 1, 2, 3, 4}, {6, 13}, {5, 7, 13}])
    enumeration_route = limit_correlation_enumerated(relabeled)
    assert limit_correlation(relabeled) == subset_route  # relabeling invariance
    assert subset_route == enumeration_route == Fraction(15, 32)
    _pass(
        8,
        f"huge-degree limit 1/4 in {elapsed * 1000:.0f}ms; second example: both "
        f"routes give 15/32, not the reference value 45/128 (suspected erratum)",
    )


def test_criterion_09_single_degree_limit_resolution():
    for k in range(2, 65):
        K = DegreeSet.of(k)
        w = k.bit_count()
        enumerated = limit_correlation_enumerated(K)
        stated = Fraction(2 ** (w - 1) - 1, 2 ** (w - 1))  # denominator 2**(w-1)
        restated = Fraction(2 ** (w - 1) - 1, 2**w)  # the later restatement
        assert enumerated == stated == 1 - Fraction(2, 1 << w), k
        assert limit_correlation(K) == enumerated, k
        assert (enumerated == 0) == (k & (k - 1) == 0), k
        if w >= 2:
            assert enumerated != restated, k
    _pass(
        9,
        "enumeration gives 1 - 2**(1-w) for every k in 2..64 (zero exactly at "
        "powers of two), settling the two circulating variants in favor of the "
        "2**(w-1) denominator",
    )


def test_criterion_10_nested_chains():
    from oracles import random_nested_chain

    # A chain that is a single power of two is the one degenerate case where
    # positivity fails (its limit is exactly zero); the sampler excludes it.
    assert limit_correlation_nested(DegreeSet.of(4)) == 0

    rng = random.Random(77)
    for _ in range(200):
        K = random_nested_chain(rng, max_bit=40, max_s=6)
        nested = limit_correlation_nested(K)
        assert nested == limit_correlation(K), K
        assert nested > 0, K
    _pass(
        10,
        "chain formula matches the subset formula and is positive (200 random "
        "chains; the lone power-of-two chain is excluded as its limit is 0)",
    )


def _assert_sig_digits(computed, printed: str, digits: int) -> None:
    reference = mpmath.mpf(printed)
    rel = abs(computed - reference) / abs(reference)
    assert rel < mpmath.mpf(10) ** (1 - digits) / 2, (printed, mpmath.nstr(computed, 16))


def test_criterion_11_error_tables():
    start = time.perf_counter()
    table = dict(
        error_table(
            DegreeSet.of(5, 9, 12), sorted(REFERENCE_ERROR_5912), PrecisionConfig(bits=1024)
        )
    )
    for n, printed in REFERENCE_ERROR_5912.items():
        _assert_sig_digits(table[n], printed, 4)

    table = dict(
        error_table(
            DegreeSet.of(2, 4, 11, 35),
            sorted(REFERENCE_ERROR_241135),
            PrecisionConfig(bits=4096),
        )
    )
    for n, printed in REFERENCE_ERROR_241135.items():
        _assert_sig_digits(table[n], printed, 4)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _pass(11, f"both reference error tables reproduced to >= 4 significant digits in {elapsed:.1f}s")


def test_criterion_12_closed_form_main_term():
    K = DegreeSet.of(5, 9, 12)
    prec = PrecisionConfig(bits=256)
    ctx = prec.context()
    root2 = ctx.sqrt(2)
    cos_amp = root2 * (ctx.sqrt(2 + root2) - 1)
    sin_amp = 2 + root2 + ctx.sqrt(2 * (2 + root2))
    for n in range(32):
        reference = (
            cos_amp * ctx.cos(n * ctx.pi / 16) + sin_amp * ctx.sin(n * ctx.pi / 16)
        ) / 8
        computed = main_term(K, n, prec)
        if abs(reference) > mpmath.mpf(10) ** -35:
            assert abs(computed - reference) / abs(reference) < mpmath.mpf(10) ** -30, n
        else:
            # The closed form has exact zeros in the period (n = 15, 31).
            assert abs(computed - reference) < mpmath.mpf(10) ** -35, n
    _pass(12, "closed-form main term for {5,9,12} matched to 30 significant digits at n = 0..31")


def test_criterion_13_main_term_nonvanishing_and_periodic():
    rng = random.Random(99)
    prec = PrecisionConfig(bits=256)
    floor = mpmath.mpf(10) ** -30
    for _ in range(100):
        size = rng.randint(1, 4)
        ks = rng.sample(range(1, 33), size)
        if max(ks) < 2:
            ks.append(2)
        K = DegreeSet.of(*ks)
        profile = main_term_profile(K, prec)
        assert max(abs(v) for v in profile.profile) > floor, K
        period = profile.period
        for n in (0, 1, period - 1, 7):
            assert main_term_exact(K, n) == main_term_exact(K, n + period), (K, n)
    _pass(13, "main term nonvanishing over one period and exactly periodic (100 random sets)")


def test_criterion_14_balanced_search():
    K = DegreeSet.of(2)
    found = find_balanced(K, 20)
    brute = [n for n in range(1, 21) if exp_sum_bruteforce(n, K) == 0]
    assert found == brute
    assert {3, 7} <= set(found)
    _pass(14, f"balanced points below 20 for degree 2: {found}, identical to brute force")
