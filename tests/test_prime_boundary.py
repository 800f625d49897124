"""The one primality check at the public boundary.

Every public function that takes a caller's p rejects a non-prime with
BadPrime before it computes anything; the loops over sieved primes
below that boundary test each prime at most once.
"""

import sys
from fractions import Fraction

import pytest

from hyperval import asymmetry, numtheory
from hyperval.asymmetry import (
    make_certificate,
    root_counts,
    slope_fit,
)
from hyperval.errors import BadPrime
from hyperval.hyperseq import (
    make_sequence,
    term_valuation,
    usable_prime,
    valuation_profile,
)
from hyperval.membership import MembershipConfig, decide
from hyperval.numtheory import legendre, padic_valuation, sqrt_mod
from hyperval.padic import (
    count_roots_mod_p,
    hensel_lift,
    is_hensel_prime,
    roots_mod_p,
    valuation_at_prime_power,
    zero_run_length,
)
from hyperval.polyq import RatPoly, X
from hyperval.quadratic import (
    discriminant_profile,
    equidistribution_sample,
    find_condition_prime,
    rep_quadratic,
    window_count,
)

NON_PRIMES = (0, 1, 4, 6, -7)
X2M2 = X * X - RatPoly([2])

# every public function that takes a caller's p, applied to (seq, p)
PUBLIC = {
    "legendre": lambda seq, p: legendre(3, p),
    "padic_valuation": lambda seq, p: padic_valuation(8, p),
    "sqrt_mod": lambda seq, p: sqrt_mod(2, p),
    "rep_quadratic": lambda seq, p: rep_quadratic(1, 1, 2, p),
    "count_roots_mod_p": lambda seq, p: count_roots_mod_p(X2M2, p),
    "roots_mod_p": lambda seq, p: roots_mod_p(X2M2, p),
    "is_hensel_prime": lambda seq, p: is_hensel_prime(X2M2, p),
    "hensel_lift": lambda seq, p: hensel_lift(X2M2, p, 3, 4),
    "valuation_at_prime_power":
        lambda seq, p: valuation_at_prime_power(seq, p, 1),
    "usable_prime": usable_prime,
    "term_valuation": lambda seq, p: term_valuation(seq, 5, p),
    "valuation_profile": lambda seq, p: valuation_profile(seq, p, 5),
    "slope_fit": lambda seq, p: slope_fit(seq, p, 40),
    "root_counts": root_counts,
    "make_certificate": make_certificate,
    "decide(forced_prime)":
        lambda seq, p: decide(seq, 120, MembershipConfig(forced_prime=p)),
}


@pytest.mark.parametrize("p", NON_PRIMES)
@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_non_prime_rejected(factorial, name, p):
    # before the boundary check, make_certificate divided by 0 and
    # reported 1 and 4 as dividing u0 or the target
    with pytest.raises(BadPrime, match=f"^{p} is not prime$"):
        PUBLIC[name](factorial, p)


@pytest.fixture
def prime_tests(monkeypatch):
    """Calls to is_prime, wrapped in every hyperval module that binds it."""
    calls = []
    original = numtheory.is_prime

    def counting(n):
        calls.append(n)
        return original(n)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "hyperval" and \
                getattr(module, "is_prime", None) is original:
            monkeypatch.setattr(module, "is_prime", counting)
    return calls


def test_quadratic_loops_make_no_primality_test(prime_tests):
    equidistribution_sample(2, p_limit=20_000)
    window_count(2, 1, 0, 0, 1, 1000, 0.5, 0, Fraction(1, 2))
    assert prime_tests == []


def test_condition_prime_search_makes_no_primality_test(prime_tests):
    profile = discriminant_profile(
        make_sequence(X2M2, X * X - RatPoly([3]), Fraction(1)))
    prime_tests.clear()
    assert find_condition_prime(profile, 2).prime is not None
    assert prime_tests == []


@pytest.mark.parametrize("name", ("sq_pair", "sym_pair", "fractional_coeffs",
                                  "class_c_seq", "catalan"))
def test_one_primality_test_per_gated_prime(name, request, prime_tests):
    # the scan gates its sieved primes with the sequence's integer gate
    # and tests none of them; usable_prime, the public gate, agrees with
    # it on every prime and tests each prime once
    seq = request.getfixturevalue(name)
    outcomes = list(asymmetry.scan_primes(seq, 2, 3000))
    assert prime_tests == []
    gated = [p for p, _ in outcomes]
    assert [outcome == "unusable" for _, outcome in outcomes] \
        == [not usable_prime(seq, p) for p in gated]
    assert prime_tests == gated


def test_usable_prime_tests_once(sq_pair, prime_tests):
    assert usable_prime(sq_pair, 7)
    assert prime_tests == [7]


def test_zero_run_lifts_without_retesting_p(prime_tests):
    # the run of 29 zeros in 1 + 7^30 needs four deeper lifts; each one
    # continues Newton's iteration from the root's own precision
    root = hensel_lift(X - RatPoly([1 + 7 ** 30]), 7, 1, 2)
    assert zero_run_length(root, 1) == 29
    assert prime_tests == [7]
