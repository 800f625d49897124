import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hyperval import _fp, numtheory, padic
from hyperval.errors import (
    BadPrime,
    NotHenselPrime,
    NotSimpleRoot,
    PrecisionExhausted,
)
from hyperval.hyperseq import make_sequence, term_valuation
from hyperval.numtheory import euler_criterion, fraction_valuation, sieve_primes
from hyperval.padic import (
    DEFAULT_DIGIT_CAP,
    _c_count,
    count_roots_mod_p,
    hensel_lift,
    is_hensel_prime,
    reduce_mod_p,
    roots_mod_p,
    valuation_at_prime_power,
    zero_run_length,
)
from hyperval.polyq import ONE, RatPoly, X, _yun, int_eval, poly_gcd

from conftest import polynomial_usable_prime

ODD_PRIMES_TO_2000 = sieve_primes(2000)[1:]


def count_roots_oracle(coeffs, p):
    """Roots in the p-element field counted with multiplicity, by repeated
    synthetic division at every residue."""
    c = [int(v) % p for v in coeffs]
    while c and c[-1] == 0:
        c.pop()
    total = 0
    for a in range(p):
        while True:
            # divide by (x - a) if a is a root of the current quotient
            if not c or sum(ci * pow(a, i, p) for i, ci in enumerate(c)) % p:
                break
            q, carry = [0] * (len(c) - 1), 0
            for i in range(len(c) - 1, 0, -1):
                carry = (carry * a + c[i]) % p
                q[i - 1] = carry
            c = q
            total += 1
    return total


class TestReduceModP:
    def test_coefficients(self):
        assert reduce_mod_p(X * X - RatPoly([2]), 7) == [5, 0, 1]

    def test_rational_coefficients(self):
        # 1/3 ≡ 5 (mod 7)
        assert reduce_mod_p(RatPoly([Fraction(1, 3)]) + X, 7) == [5, 1]

    def test_denominator_divisible(self):
        with pytest.raises(BadPrime,
                           match="^denominator of 1/7 is divisible by 7$"):
            reduce_mod_p(RatPoly([Fraction(1, 7)]), 7)


class TestCountRoots:
    @pytest.mark.parametrize("poly,p,expected", [
        (X * X - ONE, 7, 2),
        (X * X, 7, 2),                    # double root at 0 counts twice
        (X * X + ONE, 7, 0),
        (X * X + ONE, 5, 2),
        ((X + ONE) ** 3, 5, 3),
        (X * X - RatPoly([2]), 7, 2),
        (X * X - RatPoly([2]), 5, 0),
    ])
    def test_hand_cases(self, poly, p, expected):
        assert count_roots_mod_p(poly, p) == expected

    @given(st.lists(st.integers(-10, 10), min_size=1, max_size=6),
           st.sampled_from([2, 3, 5, 7, 11, 13]))
    @settings(max_examples=120, deadline=None)
    def test_matches_division_oracle(self, coeffs, p):
        poly = RatPoly(coeffs)
        fp = [c % p for c in coeffs]
        while fp and fp[-1] == 0:
            fp.pop()
        if not fp:  # vanishes identically mod p
            with pytest.raises(ValueError):
                count_roots_mod_p(poly, p)
            return
        assert count_roots_mod_p(poly, p) == count_roots_oracle(coeffs, p)

    def test_distinct_roots_listed(self):
        assert roots_mod_p(X * X - ONE, 7) == [1, 6]
        assert roots_mod_p(X * X, 7) == [0]
        assert roots_mod_p(X * X + ONE, 7) == []
        assert roots_mod_p(X * X + X, 2) == [0, 1]
        assert roots_mod_p(X * X + X + ONE, 2) == []


# -- the residue scan and the quadratic search that _fp.split replaced --


def oracle_roots(a, p):
    """The distinct roots of the reduced list a, by a scan of every
    residue (Horner's rule over all of them at once)."""
    vals = [0] * p
    for c in reversed(a):
        vals = [(v * x + c) % p for x, v in enumerate(vals)]
    return [x for x, v in enumerate(vals) if v == 0]


def oracle_quadratic_factors(a, p):
    """The distinct monic irreducible quadratic factors of a, by the
    search over all p² monic quadratics: with the roots divided out,
    every monic quadratic divisor of what is left is irreducible."""
    rest = a
    for r in oracle_roots(a, p):
        while _fp.eval_at(rest, r, p) == 0:
            rest = _fp.divmod_(rest, [-r % p, 1], p)[0]
    return [[c, b, 1] for b in range(p) for c in range(p)
            if not _fp.divmod_(rest, [c, b, 1], p)[1]]


def random_product(rng, p):
    """A monic product of random monic factors of degree 1-3 mod p, some
    of them repeated."""
    a = [1]
    for _ in range(rng.randint(1, 4)):
        q = [rng.randrange(p) for _ in range(rng.randint(1, 3))] + [1]
        a = _fp.mul(a, q, p)
        if rng.random() < 0.3:
            a = _fp.mul(a, q, p)
    return a


def _reduced_product(seq, p):
    """f·g mod p, or None where a denominator or the whole product
    vanishes mod p."""
    fg = seq.f * seq.g
    if any(c.denominator % p == 0 for c in fg.coeffs):
        return None
    return reduce_mod_p(fg, p) or None


FIXTURES_FOR_ROOTS = ("factorial", "telescoping", "sq_pair", "class_c_seq",
                      "twin_field", "catalan", "eventually_zero",
                      "fractional_coeffs", "double_root", "sym_pair",
                      "mixed_degree")


class TestSplitKernel:
    @pytest.mark.parametrize("name", FIXTURES_FOR_ROOTS)
    def test_roots_match_the_scan_on_fixtures(self, name, request):
        seq = request.getfixturevalue(name)
        for p in ODD_PRIMES_TO_2000:
            a = _reduced_product(seq, p)
            if a is not None:
                assert _fp.roots(a, p) == oracle_roots(a, p), (a, p)

    @given(st.lists(st.integers(-30, 30), min_size=1, max_size=4),
           st.lists(st.integers(-30, 30), min_size=0, max_size=3),
           st.integers(1, 3), st.sampled_from(ODD_PRIMES_TO_2000))
    @settings(max_examples=150, deadline=None)
    def test_roots_match_the_scan_with_repeated_roots(self, base, extra, e,
                                                       p):
        # base^e * extra, so every root of base is a root of order >= e
        a = [1]
        for _ in range(e):
            a = _fp.mul(a, _fp.from_int_coeffs(base + [1], p), p)
        a = _fp.mul(a, _fp.from_int_coeffs(extra + [1], p), p)
        assert _fp.roots(a, p) == oracle_roots(a, p)

    def test_quadratic_factors_match_the_search(self):
        rng = random.Random(2024)
        for p in sieve_primes(200)[1:]:
            a = random_product(rng, p)
            assert _fp.split(a, 2, p) == oracle_quadratic_factors(a, p), \
                (a, p)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_every_pair_of_quadratics_separates(self, p):
        # Weil's bound covers p >= 11; below it, every pair of distinct
        # monic irreducible quadratics q1, q2 must still differ in the
        # symbol of q(-delta) at some delta < p, and split must part them
        irreducible = [[c, b, 1] for b in range(p) for c in range(p)
                       if euler_criterion(b * b - 4 * c, p) == -1]
        assert len(irreducible) == (p * p - p) // 2
        for q1, q2 in itertools.combinations(irreducible, 2):
            assert any(euler_criterion(_fp.eval_at(q1, -d, p), p)
                       != euler_criterion(_fp.eval_at(q2, -d, p), p)
                       for d in range(p)), (q1, q2)
            assert _fp.split(_fp.mul(q1, q2, p), 2, p) == sorted(
                [q1, q2], key=lambda q: q[::-1])

    def test_large_prime_takes_no_scan(self):
        # a residue scan would evaluate x^3 - 2 at 10^9 + 7 points
        p = 10**9 + 7
        roots = roots_mod_p(X ** 3 - RatPoly([2]), p)
        assert roots and all(pow(r, 3, p) == 2 for r in roots)


class TestHenselPrime:
    def test_known_values(self):
        assert is_hensel_prime(X * X - RatPoly([2]), 7)
        assert not is_hensel_prime(X * X - RatPoly([2]), 2)   # x^2 mod 2
        assert not is_hensel_prime(X * X - ONE, 2)            # (x+1)^2 mod 2
        assert is_hensel_prime(X * X - ONE, 5)

    def test_leading_coefficient_vanishing(self):
        assert not is_hensel_prime(RatPoly([1, 0, 7]), 7)

    def test_denominator_blocked(self):
        assert not is_hensel_prime(X + RatPoly([Fraction(1, 5)]), 5)


class TestHenselLift:
    def test_sqrt2_digits_base7(self):
        root = hensel_lift(X * X - RatPoly([2]), 7, 3, 8)
        assert [root.digit(i) for i in range(4)] == [3, 1, 2, 6]
        v = root.lift_to(8).value
        assert (v * v - 2) % 7**8 == 0

    def test_deep_precision(self):
        root = hensel_lift(X * X - RatPoly([2]), 7, 3, 100)
        v = root.value
        assert (v * v - 2) % 7**100 == 0

    def test_other_branch(self):
        root = hensel_lift(X * X - RatPoly([2]), 7, 4, 6)
        v = root.value
        assert (v * v - 2) % 7**6 == 0 and v % 7 == 4

    def test_multiple_root_rejected(self):
        with pytest.raises(NotSimpleRoot):
            hensel_lift(X * X, 7, 0, 5)

    def test_non_root_rejected(self):
        with pytest.raises(ValueError):
            hensel_lift(X * X - RatPoly([2]), 7, 1, 5)

    def test_rational_coefficient_lift(self):
        # x - 1/3 over the 7-adics: root is the 7-adic expansion of 1/3
        root = hensel_lift(X - RatPoly([Fraction(1, 3)]), 7, 5, 6)
        v = root.value
        assert (3 * v - 1) % 7**6 == 0


FIXTURES = ("factorial", "telescoping", "sq_pair", "class_c_seq", "geometric",
            "twin_field", "catalan", "eventually_zero", "fractional_coeffs",
            "double_root", "sym_pair", "mixed_degree")


class TestLiftTo:
    """lift_to continues Newton's iteration; from-scratch lifts agree."""

    @pytest.mark.parametrize("name", FIXTURES)
    def test_continued_lifts_equal_scratch_lifts(self, name, request):
        seq = request.getfixturevalue(name)
        for poly in (seq.f, seq.g):
            if poly.degree < 1:
                continue
            sqfree = (poly // poly_gcd(poly, poly.derivative())).monic()
            for p in (3, 5, 7, 11):
                if not is_hensel_prime(sqfree, p):
                    continue
                for a in roots_mod_p(sqfree, p):
                    steps = hensel_lift(sqfree, p, a, 1)
                    jumps = steps
                    for k in range(2, 65):
                        scratch = hensel_lift(sqfree, p, a, k)
                        steps = steps.lift_to(k)
                        assert steps == scratch
                        assert steps.digits == scratch.digits
                        if k in (3, 7, 20, 64):
                            jumps = jumps.lift_to(k)
                            assert jumps == scratch
                    assert steps.lift_to(9) == hensel_lift(sqfree, p, a, 9)


def oracle_zero_run_length(root, s):
    """zero_run_length as a scan of the digit tuple, lifting by doubling
    while the scan runs past the precision: the loop that reading
    ν_p(value // p^s) replaced."""
    if s < 0:
        raise ValueError("digit index must be nonnegative")
    run = 0
    j = s
    digits = root.digits
    while True:
        if j >= root.precision:
            if root.precision >= DEFAULT_DIGIT_CAP:
                raise PrecisionExhausted(
                    f"zero run at index {s} still open at the "
                    f"{DEFAULT_DIGIT_CAP}-digit lifting cap"
                )
            root = root.lift_to(min(max(2 * root.precision, j + 1),
                                    DEFAULT_DIGIT_CAP))
            digits = root.digits
            continue
        if digits[j] != 0:
            return run
        run += 1
        j += 1


def _run_outcome(fn, root, s):
    try:
        return fn(root, s)
    except PrecisionExhausted as exc:
        return str(exc)


class TestZeroRun:
    def test_runs_in_small_integers(self):
        # 5 = 2 + 1*3: digits (2, 1, 0, 0, ...)
        five = hensel_lift(X - RatPoly([5]), 3, 2, 4)
        assert zero_run_length(five, 1) == 0
        # 19 = 1 + 0*3 + 2*9: digits (1, 0, 2, 0, ...)
        nineteen = hensel_lift(X - RatPoly([19]), 3, 1, 4)
        assert zero_run_length(nineteen, 1) == 1

    def test_all_zero_tail_exhausts(self):
        five = hensel_lift(X - RatPoly([5]), 3, 2, 4)
        with pytest.raises(PrecisionExhausted):
            zero_run_length(five, 2)

    def test_negative_index_rejected(self):
        five = hensel_lift(X - RatPoly([5]), 3, 2, 4)
        with pytest.raises(ValueError):
            zero_run_length(five, -1)
        with pytest.raises(ValueError):
            five.digit(-1)

    def test_matches_the_digit_scan_on_the_truncation_inputs(self):
        # the TestTruncationCount quadratics at every start index up to 6
        checked = 0
        for p in (2, 3, 5, 7, 11, 13):
            for b, j, k in itertools.product(range(1, 5), range(5), (1, -2)):
                poly = RatPoly([k * p**j, b, 1])
                if not is_hensel_prime(poly, p):
                    continue
                for a in roots_mod_p(poly, p):
                    root = hensel_lift(poly, p, a, 4)
                    for s in range(7):
                        assert _run_outcome(zero_run_length, root, s) == \
                            _run_outcome(oracle_zero_run_length, root, s), \
                            (poly, p, a, s)
                        checked += 1
        assert checked > 2000

    @pytest.mark.parametrize("name", FIXTURES)
    def test_matches_the_digit_scan_on_the_lift_inputs(self, name, request):
        # the TestLiftTo roots at precisions 1 to 9; the integer roots 0
        # (factorial) and 3 (eventually_zero) have runs that never end
        # and hit the cap
        seq = request.getfixturevalue(name)
        capped = 0
        for poly in (seq.f, seq.g):
            if poly.degree < 1:
                continue
            sqfree = (poly // poly_gcd(poly, poly.derivative())).monic()
            for p in (3, 5, 7, 11):
                if not is_hensel_prime(sqfree, p):
                    continue
                for a in roots_mod_p(sqfree, p):
                    for k in (1, 2, 5, 9):
                        root = hensel_lift(sqfree, p, a, k)
                        for s in (0, 1, 3, 8, 12):
                            got = _run_outcome(zero_run_length, root, s)
                            assert got == _run_outcome(
                                oracle_zero_run_length, root, s), \
                                (sqfree, p, a, k, s)
                            capped += isinstance(got, str)
        if name in ("factorial", "eventually_zero"):
            assert capped > 0


_GRID_EXTRA = {  # (f, g, u0)
    "dpair": (X * X - RatPoly([5]), X * X - RatPoly([45]), 1),
    "shift_pair": (X * X + X + ONE, (X + RatPoly([2])) ** 2 + X + RatPoly([3]),
                   1),
    "non_unit_u0": (X * X - RatPoly([2]), X * X - RatPoly([8]),
                    Fraction(7, 5)),
}
_GRID_FIXTURES = (
    "factorial", "telescoping", "sq_pair", "class_c_seq", "geometric",
    "twin_field", "catalan", "fractional_coeffs", "double_root", "sym_pair",
    "mixed_degree", *_GRID_EXTRA)


def _grid_sequence(name, request):
    if name in _GRID_EXTRA:
        return make_sequence(*_GRID_EXTRA[name])
    return request.getfixturevalue(name)


def _outcome(fn, *args):
    """fn's return value, or the type of the library error it raised."""
    try:
        return fn(*args)
    except (ValueError, NotHenselPrime, PrecisionExhausted) as exc:
        return type(exc)


def _polynomial_valuation_at_prime_power(seq, p, s):
    """valuation_at_prime_power before the RootPlan: the gate by
    polynomial arithmetic mod p, and the counts and roots from Yun's
    parts of f and g with their x^v factors stripped off."""
    if s < 0:
        raise ValueError("s must be nonnegative")
    if not polynomial_usable_prime(seq, p):
        raise NotHenselPrime(f"{p} is unusable")
    counts = []
    roots = []  # (signed weight, square-free part, root mod p)
    for poly, sign in ((seq.f, -1), (seq.g, +1)):
        m = 0
        while poly.coeff(m) == 0:
            m += 1
        rest = RatPoly(poly.coeffs[m:])
        for part, e in _yun(rest.monic()):
            for a in roots_mod_p(part, p):
                m += e
                roots.append((sign * e, part, a))
        counts.append(m)
    if counts[0] != counts[1]:
        raise ValueError("digit identity needs equal root counts")
    if fraction_valuation(seq.u0, p) != 0:
        raise ValueError("u0 must be a p-adic unit")
    direct = term_valuation(seq, p**s, p)
    start = max(2 * s, 4)
    digit_side = sum(
        weight * oracle_truncation_count(hensel_lift(part, p, a, start), s, p)
        for weight, part, a in roots)
    return int(direct), digit_side


def oracle_truncation_count(root, s, p):
    """#{r > s : 1 <= (root mod p^r) <= p^s}, by a scan over r that
    lifts the root further on demand: the loop _c_count replaced."""
    ps = p**s
    count = 0
    r = s + 1
    while True:
        if r > DEFAULT_DIGIT_CAP:
            raise PrecisionExhausted("truncation scan passed the cap")
        if root.precision < r:
            root = root.lift_to(min(max(2 * root.precision, r),
                                    DEFAULT_DIGIT_CAP))
        tau = root.value % p**r
        if tau > ps:
            return count
        if tau >= 1:
            count += 1
        r += 1


class TestTruncationCount:
    def test_matches_the_truncation_scan(self):
        # irrational roots of x^2 + b*x + c: c = p^j * k makes one root
        # divisible by p^j, so both branches of _c_count are reached
        checked = at_zero = 0
        for p in (2, 3, 5, 7, 11, 13):
            for b, j, k in itertools.product(range(1, 5), range(5), (1, -2)):
                poly = [k * p**j, b, 1]
                if any(int_eval(poly, r) == 0 for r in range(-40, 41)):
                    continue  # a rational root: its zero run never ends
                if not is_hensel_prime(RatPoly(poly), p):
                    continue
                for a in roots_mod_p(RatPoly(poly), p):
                    for s in range(5):
                        root = hensel_lift(RatPoly(poly), p, a, max(2 * s, 4))
                        at_zero += s > 0 and root.value % p**s == 0
                        assert _c_count(root, s) == \
                            oracle_truncation_count(root, s, p), (poly, p, s)
                        checked += 1
        assert checked > 1500 and at_zero > 400


class TestValuationAtPrimePower:
    def test_unequal_root_counts_rejected(self, factorial):
        # the digit formula needs matching root counts; f = 1, g = x has 0 vs 1
        with pytest.raises(ValueError):
            valuation_at_prime_power(factorial, 3, 1)

    def test_both_routes_agree_on_quadratic_pair(self, sq_pair):
        direct, digit_route = valuation_at_prime_power(sq_pair, 23, 1)
        assert direct == digit_route == 0

    def test_linear_shift_pair(self):
        seq = make_sequence(X + ONE, X + RatPoly([80]), Fraction(1))
        direct, digit_route = valuation_at_prime_power(seq, 3, 1)
        assert direct == digit_route == 3
        direct, digit_route = valuation_at_prime_power(seq, 3, 2)
        assert direct == digit_route == 2

    @pytest.mark.parametrize("name", [*_GRID_FIXTURES, "eventually_zero"])
    def test_grid(self, name, request):
        # sym_pair is the sextet; eventually_zero has u_n = 0 from n = 3
        # on, so at every usable prime u_{p^s} = 0
        seq = _grid_sequence(name, request)
        for p in sieve_primes(199):
            if not polynomial_usable_prime(seq, p):
                want = NotHenselPrime, "unusable"
            elif count_roots_mod_p(seq.f, p) != count_roots_mod_p(seq.g, p):
                want = ValueError, "equal root counts"
            elif fraction_valuation(seq.u0, p) != 0:
                want = ValueError, "p-adic unit"
            else:
                want = None
            for s in (1, 2):
                if want is None and any(
                        r <= p**s for r in seq.flags.g_positive_integer_roots):
                    with pytest.raises(ValueError, match="integer root"):
                        valuation_at_prime_power(seq, p, s)
                elif want is None:
                    direct, digit_route = valuation_at_prime_power(seq, p, s)
                    assert direct == digit_route
                else:
                    with pytest.raises(want[0], match=want[1]):
                        valuation_at_prime_power(seq, p, s)

    @pytest.mark.parametrize("name", _GRID_FIXTURES)
    def test_matches_the_polynomial_route(self, name, request):
        # the RootPlan's counts and parts against the route that reduced
        # f and g mod p and ran Yun on each: the same pairs, the same
        # exception types
        seq = _grid_sequence(name, request)
        for p in sieve_primes(199):
            for s in (1, 2):
                assert _outcome(valuation_at_prime_power, seq, p, s) \
                    == _outcome(_polynomial_valuation_at_prime_power,
                                seq, p, s), (p, s)

    def test_eventually_zero_raises_before_lifting(self, monkeypatch):
        # g = x - 30: u_n = 0 from n = 30 on, so 5^3 is past the first
        # zero; 5 and 25 are not, and both routes agree there
        seq = make_sequence(X + ONE, X - RatPoly([30]), Fraction(1))
        assert valuation_at_prime_power(seq, 5, 1) == (1, 1)
        assert valuation_at_prime_power(seq, 5, 2) == (0, 0)

        def no_lift(*args):
            raise AssertionError("lifted a root of an eventually-zero sequence")

        monkeypatch.setattr(padic, "_newton_root", no_lift)
        with pytest.raises(ValueError, match="^g has a positive integer root"):
            valuation_at_prime_power(seq, 5, 3)

    def test_lifts_the_plan_parts_directly(self, monkeypatch, sym_pair):
        # the gate has proved p prime, the parts square-free mod p and
        # every root simple: the public wrappers that re-check all three
        # are not called, and p is tested for primality twice
        # (usable_prime, term_valuation)
        def refuse(*args):
            raise AssertionError("public wrapper called")

        monkeypatch.setattr(padic, "roots_mod_p", refuse)
        monkeypatch.setattr(padic, "hensel_lift", refuse)
        seq = make_sequence((X * X - RatPoly([2])) * (X + RatPoly([5])),
                            (X * X - RatPoly([7])) * (X + RatPoly([9])), 1)
        for s in (1, 2):
            assert valuation_at_prime_power(seq, 31, s) == (0, 0)
        assert valuation_at_prime_power(sym_pair, 13, 2) == (0, 0)
        calls = []
        is_prime = numtheory.is_prime
        monkeypatch.setattr(numtheory, "is_prime",
                            lambda n: calls.append(n) or is_prime(n))
        valuation_at_prime_power(seq, 31, 2)
        assert calls == [31, 31]

    def test_include_initial_value(self):
        third_u0 = make_sequence(X + ONE, X + RatPoly([80]), Fraction(1, 3))
        # the initial value must be a p-adic unit
        with pytest.raises(ValueError, match="^u0 must be a p-adic unit$"):
            valuation_at_prime_power(third_u0, 3, 1)
