"""Exact exponential sums of symmetric Boolean functions.

Computes S(n) for sums of elementary symmetric polynomials over GF(2), finds
the minimal homogeneous integer linear recurrence those sequences satisfy via
exact cyclotomic-integer vanishing tests, and evaluates the exact limiting
correlation and the oscillating asymptotic expansion with its error term.
"""

from .asymptotics import (
    DEFAULT_PRECISION,
    MainTermProfile,
    PrecisionConfig,
    asymptotic_value,
    error_table,
    error_term,
    is_asymptotically_balanced,
    limit_correlation,
    limit_correlation_enumerated,
    limit_correlation_nested,
    main_term,
    main_term_exact,
    main_term_profile,
)
from .bitcombinatorics import (
    R_MAX_DEFAULT,
    DegreeSet,
    bits_of,
    sign_exponent,
    sign_exponents,
)
from .cyclotomic import (
    CyclotomicInt,
    OrbitSums,
    ScaledCoefficient,
    orbit_sums,
)
from .errors import (
    BoolsumError,
    DegenerateDegreeSetError,
    PrecisionError,
    ResourceLimitError,
)
from .expsum import (
    N_MAX_BRUTEFORCE,
    ExpSumSequence,
    correlation,
    exp_sum,
    exp_sum_bruteforce,
    find_balanced,
    sequence,
)
from .recurrence import (
    FactoredCharPoly,
    IntPolynomial,
    LinearRecurrence,
    degree_bounds,
    expand,
    full_charpoly,
    minimal_charpoly,
    minimal_recurrence,
    minimal_recurrence_oracle,
    shifted_cyclotomic_factor,
    single_degree_charpoly,
    to_recurrence,
    verify,
)

__version__ = "0.1.0"

__all__ = [
    "BoolsumError",
    "CyclotomicInt",
    "DEFAULT_PRECISION",
    "DegenerateDegreeSetError",
    "DegreeSet",
    "ExpSumSequence",
    "FactoredCharPoly",
    "IntPolynomial",
    "LinearRecurrence",
    "MainTermProfile",
    "N_MAX_BRUTEFORCE",
    "OrbitSums",
    "PrecisionConfig",
    "PrecisionError",
    "R_MAX_DEFAULT",
    "ResourceLimitError",
    "ScaledCoefficient",
    "asymptotic_value",
    "bits_of",
    "correlation",
    "degree_bounds",
    "error_table",
    "error_term",
    "exp_sum",
    "exp_sum_bruteforce",
    "expand",
    "find_balanced",
    "full_charpoly",
    "is_asymptotically_balanced",
    "limit_correlation",
    "limit_correlation_enumerated",
    "limit_correlation_nested",
    "main_term",
    "main_term_exact",
    "main_term_profile",
    "minimal_charpoly",
    "minimal_recurrence",
    "minimal_recurrence_oracle",
    "orbit_sums",
    "sequence",
    "shifted_cyclotomic_factor",
    "sign_exponent",
    "sign_exponents",
    "single_degree_charpoly",
    "to_recurrence",
    "verify",
]
