"""Exact analysis of hypergeometric rational sequences.

A sequence here satisfies f(n)·uₙ = g(n)·uₙ₋₁ for polynomials f, g over
Q.  The package computes terms, Weil heights, and p-adic valuations
exactly; finds primes where the root counts of f and g differ and turns
them into certified linear lower bounds on |ν_p(uₙ)|; uses those bounds
to decide whether a target value occurs in the sequence; and explores
the quadratic-field side: discriminant profiles, condition primes, and
the distribution of rep(r + s√Δ)/p over primes.
"""

from .asymmetry import (
    AsymmetryCertificate,
    Envelope,
    ScanResult,
    certified_envelope,
    find_asymmetric_prime,
    make_certificate,
    root_counts,
    slope_fit,
)
from .errors import (
    BadPrime,
    EmptySampleSet,
    HypervalError,
    InvalidF,
    NonResidue,
    NotHenselPrime,
    NotSimpleRoot,
    PolyParseError,
    PrecisionExhausted,
    UnsupportedFactorization,
    UnsupportedInput,
)
from .hyperseq import (
    HeightProfile,
    HypergeomSeq,
    RegularizationResult,
    TermCursor,
    ValidationFlags,
    height_profile,
    make_sequence,
    parse_sequence_spec,
    regularize,
    term,
    term_valuation,
    usable_prime,
    valuation_profile,
)
from .membership import (
    MembershipConfig,
    MembershipVerdict,
    decide,
)
from .numtheory import (
    INFINITY,
    Rational,
    is_prime,
    legendre,
    padic_valuation,
    sqrt_mod,
    squarefree_part,
    weil_height_exact,
)
from .padic import (
    PadicRoot,
    count_roots_mod_p,
    hensel_lift,
    is_hensel_prime,
    roots_mod_p,
    valuation_at_prime_power,
    zero_run_length,
)
from .polyq import RatPoly, RationalFunction, X, factor
from .quadratic import (
    DiscriminantProfile,
    EquidistributionReport,
    class_c_check,
    class_d_quadratic_check,
    discriminant_profile,
    equidistribution_sample,
    exists_condition_prime,
    find_condition_prime,
    rep_quadratic,
    star_discrepancy,
    window_count,
)

__version__ = "1.0.0"

__all__ = [
    "AsymmetryCertificate", "Envelope", "ScanResult", "certified_envelope",
    "find_asymmetric_prime", "make_certificate", "root_counts", "slope_fit",
    "BadPrime", "EmptySampleSet", "HypervalError", "InvalidF", "NonResidue",
    "NotHenselPrime", "NotSimpleRoot", "PolyParseError", "PrecisionExhausted",
    "UnsupportedFactorization", "UnsupportedInput",
    "HeightProfile", "HypergeomSeq", "RegularizationResult", "TermCursor",
    "ValidationFlags", "height_profile", "make_sequence",
    "parse_sequence_spec", "regularize", "term", "term_valuation",
    "usable_prime", "valuation_profile",
    "MembershipConfig", "MembershipVerdict", "decide",
    "INFINITY", "Rational", "is_prime", "legendre", "padic_valuation",
    "sqrt_mod", "squarefree_part", "weil_height_exact",
    "PadicRoot", "count_roots_mod_p", "hensel_lift", "is_hensel_prime",
    "roots_mod_p", "valuation_at_prime_power", "zero_run_length",
    "RatPoly", "RationalFunction", "X", "factor",
    "DiscriminantProfile", "EquidistributionReport", "class_c_check",
    "class_d_quadratic_check", "discriminant_profile",
    "equidistribution_sample", "exists_condition_prime",
    "find_condition_prime", "rep_quadratic", "star_discrepancy",
    "window_count",
    "__version__",
]
