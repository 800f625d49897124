"""Tests for asymmetric primes, certificates, and the valuation envelope."""

import inspect
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hyperval.asymmetry import (
    AsymmetryCertificate,
    Envelope,
    SlopeFit,
    certified_envelope,
    find_asymmetric_prime,
    make_certificate,
    root_counts,
    scan_primes,
    slope_fit,
)
from hyperval import _fp
from hyperval.errors import (
    BadPrime,
    InvalidF,
    NotHenselPrime,
    UnsupportedFactorization,
    UnsupportedInput,
)
from hyperval.hyperseq import make_sequence, usable_prime, valuation_profile
from hyperval.numtheory import INFINITY, legendre, sieve_primes
from hyperval.padic import count_roots_mod_p, frobenius_root_count, reduce_mod_p
from hyperval.polyq import RatPoly
from hyperval.quadratic import class_d_quadratic_check

from conftest import polynomial_usable_prime

X = RatPoly([0, 1])
ONE = RatPoly([1])


class TestRootCounts:
    def test_square_pair_frozen(self, sq_pair):
        # m_f counts roots of x^2-2, m_g of x^2-3; both flip with the
        # quadratic character of 2 and 3.
        assert root_counts(sq_pair, 7) == (2, 0)
        assert root_counts(sq_pair, 5) == (0, 0)
        assert root_counts(sq_pair, 11) == (0, 2)
        assert root_counts(sq_pair, 13) == (0, 2)
        assert root_counts(sq_pair, 17) == (2, 0)

    def test_counts_follow_quadratic_character(self, sq_pair):
        # Independent route: Euler-criterion Legendre symbols instead of
        # brute root counting.
        for p in sieve_primes(300):
            if p in (2, 3):
                continue
            want = (2 if legendre(2, p) == 1 else 0,
                    2 if legendre(3, p) == 1 else 0)
            assert root_counts(sq_pair, p) == want

    def test_multiplicity_counted(self, double_root):
        # (x+1)^2 has a double root everywhere; x^2+1 has none mod 7.
        assert root_counts(double_root, 7) == (2, 0)

    def test_constant_f(self, factorial):
        for p in (2, 3, 5, 97):
            assert root_counts(factorial, p) == (0, 1)

    def test_untrusted_prime_rejected(self, sq_pair):
        with pytest.raises(NotHenselPrime):
            root_counts(sq_pair, 2)
        with pytest.raises(NotHenselPrime):
            root_counts(sq_pair, 3)


class TestIsPSymmetric:
    def test_verdicts(self, sq_pair):
        # p-symmetric: f and g have equally many roots mod p
        outcomes = dict(scan_primes(sq_pair, 5, 11))
        assert outcomes[5] == "symmetric"
        assert isinstance(outcomes[7], AsymmetryCertificate)
        assert isinstance(outcomes[11], AsymmetryCertificate)


class TestMakeCertificate:
    def test_square_pair_at_7(self, sq_pair):
        cert = make_certificate(sq_pair, 7)
        assert cert.p == 7
        assert (cert.m_f, cert.m_g) == (2, 0)
        assert cert.slope == Fraction(-1, 3)
        assert cert.A == Fraction(1, 3)
        assert cert.B == 4  # 1 + 0 + 3 from the constant-cleared x^2 - 3
        assert cert.u0_valuation == 0
        assert cert.to_record() == (
            "asymmetry-certificate: p=7 m_f=2 m_g=0 slope=-1/3 A=1/3 B=4 "
            "u0_valuation=0"
        )

    def test_symmetric_prime_rejected(self, sq_pair):
        with pytest.raises(ValueError, match="symmetric"):
            make_certificate(sq_pair, 5)

    def test_prime_dividing_u0_rejected(self):
        seq = make_sequence(ONE, X, Fraction(1, 3))
        with pytest.raises(ValueError, match="divides u0"):
            make_certificate(seq, 3)

    def test_coprime_with_rejected(self, factorial):
        with pytest.raises(ValueError, match="required-coprime"):
            make_certificate(factorial, 5, coprime_with=(Fraction(10),))

    def test_untrusted_prime_propagates(self, sq_pair):
        with pytest.raises(NotHenselPrime):
            make_certificate(sq_pair, 2)

    def test_only_proved_primes(self, factorial):
        # is_prime is a proof below 2^64; 2^89 - 1 is prime, but past
        # that bound it would only be probably prime
        assert make_certificate(factorial, 2**64 - 59).p == 2**64 - 59
        with pytest.raises(BadPrime, match="^certificates need a proved "):
            make_certificate(factorial, 2**89 - 1)

    def test_messages_never_print_the_value(self):
        # 3^10000 has 4772 digits, past Python's int-to-str limit
        big = Fraction(3**10000)
        seq = make_sequence(ONE, X, big)
        with pytest.raises(ValueError, match="^p = 3 divides u0$"):
            make_certificate(seq, 3)
        with pytest.raises(ValueError,
                           match="^p = 3 divides a required-coprime value$"):
            make_certificate(make_sequence(ONE, X, 1), 3, coprime_with=(big,))


class TestScans:
    def test_square_pair_scan(self, sq_pair):
        scan = find_asymmetric_prime(sq_pair)
        assert bool(scan)
        assert scan.certificate.p == 7
        # 2 and 3 fail the trust gate, 5 is symmetric, 7 certifies.
        assert (scan.tested, scan.symmetric, scan.unusable,
                scan.excluded) == (2, 1, 2, 0)
        assert scan.summary() == scan.certificate.to_record()

    def test_factorial_scan(self, factorial):
        scan = find_asymmetric_prime(factorial)
        assert scan.certificate.p == 2
        assert scan.certificate.slope == 1
        assert scan.certificate.A == 1
        assert scan.certificate.B == 1
        assert (scan.tested, scan.symmetric, scan.unusable,
                scan.excluded) == (1, 0, 0, 0)

    def test_coprime_with_steers_the_scan(self, factorial):
        scan = find_asymmetric_prime(factorial, coprime_with=(Fraction(6),))
        assert scan.certificate.p == 5
        assert scan.excluded == 2  # 2 and 3 divide the protected value

    def test_symmetric_everywhere_comes_back_empty(self, sym_pair):
        scan = find_asymmetric_prime(sym_pair, p_max=200)
        assert not scan
        assert scan.certificate is None
        assert scan.summary() == (
            "scan-summary: range=[2,200] tested=42 symmetric=42 "
            "unusable=4 excluded=0 result=empty"
        )

    def test_p_min_validated(self, factorial):
        with pytest.raises(ValueError):
            find_asymmetric_prime(factorial, p_min=1)

    def test_iter_in_increasing_order(self, sq_pair):
        ps = [p for p, o in scan_primes(sq_pair, 2, 60)
              if not isinstance(o, str)]
        assert ps == [7, 11, 13, 17, 31, 37, 41, 59]
        assert [p for p, o in scan_primes(sq_pair, 10, 60)
                if not isinstance(o, str)] == [11, 13, 17, 31, 37, 41, 59]


def _reference_outcome(seq, p, coprime_with):
    """The outcome at p as make_certificate and its exceptions define it."""
    divides = any(v != 0 and (v.numerator % p == 0 or v.denominator % p == 0)
                  for v in (seq.u0, *coprime_with))
    try:
        cert = make_certificate(seq, p, coprime_with)
    except NotHenselPrime:
        assert not divides
        return "unusable"
    except ValueError:
        if divides:
            return "excluded"
        m_f, m_g = root_counts(seq, p)
        assert m_f == m_g
        return "symmetric"
    assert not divides
    return cert


def _random_sequences(seed, count):
    rng = random.Random(seed)

    def poly():
        return RatPoly([rng.randint(-6, 6) for _ in range(rng.randint(1, 3))]
                       + [rng.choice((1, 1, 2, 3, Fraction(1, 2)))])

    out = []
    while len(out) < count:
        u0 = Fraction(rng.randint(-30, 30), rng.randint(1, 30))
        try:
            out.append(make_sequence(poly(), poly(), u0))
        except (InvalidF, ValueError):
            continue
    return out


_FIXTURES = ("factorial", "telescoping", "sq_pair", "class_c_seq",
             "geometric", "twin_field", "catalan", "eventually_zero",
             "fractional_coeffs", "double_root", "sym_pair", "mixed_degree")
_COPRIME = ((), (Fraction(30),), (Fraction(7, 11), Fraction(0)))


class TestScanOutcomes:
    """scan_primes against the per-prime definition it replaced."""

    def _check(self, seq, p_min, p_max, coprime_with):
        got = list(scan_primes(seq, p_min, p_max, coprime_with))
        want = [(p, _reference_outcome(seq, p, coprime_with))
                for p in sieve_primes(p_max) if p >= p_min]
        assert got == want
        # find_asymmetric_prime stops at the first certificate and counts
        # every outcome up to it
        tally = Counter()
        first = None
        for _, outcome in want:
            if isinstance(outcome, str):
                tally[outcome] += 1
            else:
                first = outcome
                break
        scan = find_asymmetric_prime(seq, p_min, p_max, coprime_with)
        assert scan.certificate == first
        assert (scan.tested, scan.symmetric, scan.unusable, scan.excluded) \
            == (tally["symmetric"] + (first is not None), tally["symmetric"],
                tally["unusable"], tally["excluded"])

    @pytest.mark.parametrize("name", _FIXTURES)
    def test_fixtures(self, name, request):
        seq = request.getfixturevalue(name)
        for coprime_with in _COPRIME:
            self._check(seq, 2, 160, coprime_with)
        self._check(seq, 11, 160, ())

    @pytest.mark.parametrize("seed", range(4))
    def test_random_sequences(self, seed):
        for seq in _random_sequences(seed, 6):
            for coprime_with in _COPRIME:
                self._check(seq, 2, 120, coprime_with)

    @pytest.mark.parametrize("digits", (1, 60, 6000))
    def test_targets_of_thousands_of_digits(self, digits, sq_pair, catalan):
        # the scan tests a block of primes with one gcd against the
        # product of u₀ and the targets; 4000 passes the blocks' cap of
        # 256 primes, and the planted factors sit in several blocks
        rng = random.Random(digits)
        body = rng.randrange(10 ** (digits - 1), 10 ** digits)
        target = Fraction(body * 3 * 1009 * 3989, 11 * 2003)
        for seq in (sq_pair, catalan):
            got = list(scan_primes(seq, 2, 4000, (target,)))
            assert got == [(p, _per_prime_body(seq, p, (target,)))
                           for p in sieve_primes(4000)]
            assert {p for p, o in got if o == "excluded"} >= {3, 11, 1009,
                                                              2003, 3989}


def _per_prime_body(seq, p, coprime_with):
    """scan_primes' per-prime body before the root-count plan: the gate
    by polynomial arithmetic mod p, the counts by Frobenius on all of f
    and of g."""
    if any(v != 0 and (v.numerator % p == 0 or v.denominator % p == 0)
           for v in (seq.u0, *coprime_with)):
        return "excluded"
    if not polynomial_usable_prime(seq, p):
        return "unusable"
    m_f = frobenius_root_count(reduce_mod_p(seq.f, p), p)
    m_g = frobenius_root_count(reduce_mod_p(seq.g, p), p)
    if m_f == m_g:
        return "symmetric"
    cert = make_certificate(seq, p, coprime_with)
    assert (cert.m_f, cert.m_g) == (m_f, m_g)
    return cert


_PRIMES_600 = sieve_primes(600)
_coef = st.fractions(min_value=-6, max_value=6, max_denominator=4)
_lead = st.sampled_from((1, -1, 2, 3, Fraction(1, 2), Fraction(-3, 4), 6))


@st.composite
def _plan_polys(draw):
    """f or g of degree at most 5: a leading unit times a power of x
    times powers of random linear, quadratic and cubic factors, or a
    dense random polynomial."""
    if draw(st.booleans()):
        coeffs = draw(st.lists(_coef, min_size=1, max_size=5))
        return RatPoly(coeffs + [draw(_lead)])
    poly = RatPoly([draw(_lead)]) * X ** draw(st.integers(0, 2))
    for _ in range(draw(st.integers(0, 3))):
        base = RatPoly(draw(st.lists(_coef, min_size=1, max_size=3)) + [1])
        power = base ** draw(st.integers(1, 3))
        if poly.degree + power.degree <= 5:
            poly = poly * power
    return poly


class TestRootPlan:
    """The plan's gate and counts, and usable_prime and root_counts that
    read them, against the gate by polynomial arithmetic and
    count_roots_mod_p, and the scan against its old per-prime body, at
    every prime up to 600."""

    def _check(self, seq, coprime_with=()):
        plan = seq.root_plan()
        for p in _PRIMES_600:
            usable = polynomial_usable_prime(seq, p)
            assert (plan.gate % p != 0) == usable_prime(seq, p) == usable, p
            if usable:
                want = (count_roots_mod_p(seq.f, p),
                        count_roots_mod_p(seq.g, p))
                assert plan.root_counts(p) == root_counts(seq, p) == want, p
        assert list(scan_primes(seq, 2, 600, coprime_with)) == [
            (p, _per_prime_body(seq, p, coprime_with)) for p in _PRIMES_600]

    @pytest.mark.parametrize("name", _FIXTURES)
    def test_fixtures(self, name, request):
        self._check(request.getfixturevalue(name), (Fraction(7, 30),))

    @settings(max_examples=40, deadline=None)
    @given(_plan_polys(), _plan_polys(),
           st.fractions(min_value=-9, max_value=9, max_denominator=9))
    def test_random_sequences(self, f, g, u0):
        assume(u0 != 0)
        try:
            seq = make_sequence(f, g, u0)
        except InvalidF:
            assume(False)
        self._check(seq)

    def test_quadratic_at_two_and_cubic_parts(self):
        # f = (x^2+x+2)·(x^3-x-1)^2, g = x^2+x+1: 2 is usable, so the
        # quadratic parts go through Frobenius there; the cubic part
        # always does
        f = (X * X + X + RatPoly([2])) * (X ** 3 - X - ONE) ** 2
        seq = make_sequence(f, X * X + X + ONE, Fraction(1))
        assert usable_prime(seq, 2)
        assert sorted((len(part) - 1, e) for part, e, _
                      in seq.root_plan().f_parts) == [(2, 1), (3, 2)]
        self._check(seq)

    def test_one_x_to_the_p_pass_per_part(self, monkeypatch):
        # past the gate each cubic part is square-free mod p, so its
        # count is deg gcd(part, x^p - x): one pow_mod per part per
        # usable prime, and none for an unusable or excluded prime
        seq = make_sequence(RatPoly([-2, 0, 0, 1]), RatPoly([-3, 0, 0, 1]),
                            Fraction(1))
        calls = []
        real = _fp.pow_mod

        def counting(*args):
            calls.append(args[1])
            return real(*args)

        monkeypatch.setattr(_fp, "pow_mod", counting)
        outcomes = [o for _, o in scan_primes(seq, 2, 3000)]
        usable = sum(o not in ("unusable", "excluded") for o in outcomes)
        assert usable > 400
        assert len(calls) == 2 * usable


class TestEnvelope:
    def test_factorial_values_frozen(self, factorial):
        env = certified_envelope(make_certificate(factorial, 2), factorial)
        assert env(1) == -1
        assert env(6) == 2
        assert env(100) == 92

    def test_log_cap_exact(self, sq_pair):
        env = certified_envelope(make_certificate(sq_pair, 7), sq_pair)
        for n in (1, 2, 7, 48, 49, 343, 1000, 2401):
            j = env.log_cap(n)
            t = env.B * n ** env.d
            assert env.p ** j <= t < env.p ** (j + 1)

    def test_factorial_envelope_sound(self, factorial):
        # Oracle: the base-2 digit-sum formula for the 2-adic valuation
        # of n!, not the cursor.
        env = certified_envelope(make_certificate(factorial, 2), factorial)
        for n in range(1, 3001):
            assert env(n) <= n - bin(n).count("1")

    def test_square_pair_envelope_sound(self, sq_pair):
        env = certified_envelope(make_certificate(sq_pair, 7), sq_pair)
        vals = valuation_profile(sq_pair, 7, 3000)
        for n in range(1, 3001):
            assert env(n) <= abs(vals[n])

    def test_bound_index_frozen(self, factorial, sq_pair):
        env_f = certified_envelope(make_certificate(factorial, 2), factorial)
        env_s = certified_envelope(make_certificate(sq_pair, 7), sq_pair)
        assert [env_f.bound_index(t) for t in (0, 3, 7)] == [5, 9, 13]
        assert [env_s.bound_index(t) for t in (0, 3, 7)] == [37, 46, 58]

    def test_bound_index_covers_every_small_valuation(self, sq_pair):
        # Past n0 the certified bound exceeds tau, so indices with
        # |v_7| <= tau must all sit below n0.
        env = certified_envelope(make_certificate(sq_pair, 7), sq_pair)
        prof = valuation_profile(sq_pair, 7, 3000)
        vals = {n: abs(prof[n]) for n in range(1, 3001)}
        for tau in (0, 3, 7):
            n0 = env.bound_index(tau)
            assert all(n < n0 for n, v in vals.items() if v <= tau)
            assert all(env(m) > tau for m in range(n0, n0 + 200))

    def test_bound_index_cap(self, sq_pair):
        env = certified_envelope(make_certificate(sq_pair, 7), sq_pair)
        with pytest.raises(UnsupportedInput):
            env.bound_index(0, max_n=2)

    @pytest.mark.parametrize("seed", range(4))
    def test_bound_index_is_the_least_cut_off(self, seed):
        # the walk against a scan of L to 20·n0 on random envelopes; p = 2
        # with d >= 3 has the slowest-growing runs
        rng = random.Random(seed)
        for _ in range(60):
            env = _random_envelope(rng)
            tau = rng.choice([0, 1, 5, rng.randint(0, 50), 50])
            n0 = env.bound_index(tau)
            assert n0 == _brute_bound_index(env, tau, 20 * n0), (env, tau)
            if n0 > 1:
                assert env(n0 - 1) <= tau
            assert env(n0) > tau
            assert n0 <= oracle_surrogate_bound_index(env, tau)
            assert env.bound_index(tau, max_n=n0) == n0
            with pytest.raises(UnsupportedInput):
                env.bound_index(tau, max_n=n0 - 1)

    @pytest.mark.parametrize("A, B", [(Fraction(0), 1), (Fraction(-1), 1),
                                      (Fraction(1), 0)])
    def test_bound_index_rejects_a_walk_without_end(self, A, B):
        env = Envelope(p=2, A=A, c=1, B=B, d=1, u0_valuation_abs=0)
        with pytest.raises(ValueError):
            env.bound_index(0)

    def test_no_float_in_the_envelope(self):
        source = inspect.getsource(Envelope)
        assert "math." not in source and "float" not in source

    def test_rejects_index_zero(self, factorial):
        env = certified_envelope(make_certificate(factorial, 2), factorial)
        with pytest.raises(ValueError):
            env(0)

    def test_u0_valuation_is_subtracted(self):
        # A hand-built certificate at a prime dividing u0 stays sound
        # because the envelope gives back the |v_p(u0)| head start.
        seq = make_sequence(ONE, X, Fraction(4))
        cert = AsymmetryCertificate(p=2, m_f=0, m_g=1, slope=Fraction(1),
                                    A=Fraction(1), B=1, u0_valuation=2)
        env = certified_envelope(cert, seq)
        assert env(6) == 0
        assert env(20) == 12
        for n in range(1, 200):
            v = n - bin(n).count("1") + 2  # v_2(4 * n!)
            assert env(n) <= v

    def test_certified_envelope_rejects_bad_inputs(self, geometric):
        flat = AsymmetryCertificate(p=5, m_f=1, m_g=1, slope=Fraction(0),
                                    A=Fraction(0), B=1, u0_valuation=0)
        with pytest.raises(ValueError, match="equal root counts"):
            certified_envelope(flat, geometric)
        tilted = AsymmetryCertificate(p=5, m_f=0, m_g=1, slope=Fraction(1, 4),
                                      A=Fraction(1, 4), B=1, u0_valuation=0)
        with pytest.raises(ValueError, match="constant"):
            certified_envelope(tilted, geometric)


def _random_envelope(rng):
    p = rng.choice([2, 2, 3, 5, 7, 13, 97])
    d = rng.randint(3, 8) if p == 2 else rng.randint(1, 8)
    m_f, m_g = rng.sample(range(d + 1), 2)
    return Envelope(p=p, A=Fraction(abs(m_g - m_f), p - 1), c=m_f + m_g,
                    B=rng.choice([1, rng.randint(1, 10**6), 10**6]), d=d,
                    u0_valuation_abs=rng.randint(0, 5))


def _brute_bound_index(env, tau, limit):
    """1 + the last m <= limit with L(m) <= tau (1 if none), with the
    level floor(log_p(B·m^d)) stepped up one m at a time."""
    num, den = env.A.numerator, env.A.denominator
    j, pw, last = 0, env.p, 0
    for m in range(1, limit + 1):
        t = env.B * m**env.d
        while pw <= t:
            j += 1
            pw *= env.p
        if num * m <= den * (tau + env.u0_valuation_abs + env.c * (j + 2)):
            last = m
    return last + 1


def oracle_surrogate_bound_index(env, tau, max_n=None):
    """The float surrogate search that preceded the exact walk: an n0
    with S(m) >= tau + 1 for the increasing minorant S(m) = A·m −
    c·(log_p B + d·log_p m + 2) − |v0| past S's stationary point, then
    an exact check of L(n0) > tau alone."""
    lp = math.log(env.p)
    a = float(env.A)
    base = env.c * (math.log(max(env.B, 1)) / lp + 2.0) + \
        env.u0_valuation_abs
    m_incr = max(1, math.ceil(env.c * env.d / (a * lp)) + 1)

    def surrogate_ok(m):
        s = a * m - (base + env.c * env.d * math.log(m) / lp)
        return s >= tau + 1.0

    hi = m_incr
    while not surrogate_ok(hi):
        hi *= 2
        if max_n is not None and hi > 4 * max_n:
            raise UnsupportedInput(
                f"certified bound index exceeds the cap {max_n}")
    lo = max(m_incr - 1, hi // 2)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid >= m_incr and surrogate_ok(mid):
            hi = mid
        else:
            lo = mid
    if max_n is not None and hi > max_n:
        raise UnsupportedInput(
            f"certified bound index {hi} exceeds the cap {max_n}")
    if env(hi) <= tau:
        raise AssertionError("envelope surrogate failed its safety check")
    return hi


class TestSlopeFit:
    def test_factorial_slope_near_one(self, factorial):
        fit = slope_fit(factorial, 2, 400)
        assert fit.window == (200, 400)
        assert abs(float(fit.slope) - 1.0) < 0.01

    def test_square_pair_slope_near_minus_third(self, sq_pair):
        fit = slope_fit(sq_pair, 7, 600)
        assert abs(float(fit.slope) + 1 / 3) < 0.01

    def test_matches_certificate_slope(self, factorial, sq_pair):
        for seq, p in ((factorial, 2), (sq_pair, 7)):
            cert = make_certificate(seq, p)
            fit = slope_fit(seq, p, 600)
            assert abs(float(fit.slope - cert.slope)) < 0.01

    def test_eventually_zero_rejected(self, eventually_zero):
        with pytest.raises(ValueError):
            slope_fit(eventually_zero, 5, 100)

    def test_window_too_small(self, factorial):
        with pytest.raises(ValueError):
            slope_fit(factorial, 2, 2)

    @pytest.mark.parametrize("name", (
        "factorial", "telescoping", "sq_pair", "class_c_seq", "geometric",
        "twin_field", "catalan", "eventually_zero", "fractional_coeffs",
        "double_root", "sym_pair", "mixed_degree"))
    def test_equals_the_fraction_expression(self, name, request):
        # the deviation is computed on integer pairs; it must be the same
        # float as the Fraction expression, bit for bit
        seq = request.getfixturevalue(name)
        for p in (2, 5):
            for n_max in (10, 333, 2001):
                lo = n_max // 2
                vals = valuation_profile(seq, p, n_max)[lo:]
                if INFINITY in vals:
                    with pytest.raises(ValueError, match="eventually zero"):
                        slope_fit(seq, p, n_max)
                    continue
                samples = list(enumerate(vals, lo))
                k = len(samples)
                sx = sum(n for n, _ in samples)
                sy = sum(vals)
                slope = Fraction(
                    k * sum(n * v for n, v in samples) - sx * sy,
                    k * sum(n * n for n, _ in samples) - sx * sx)
                dev = max(abs(v - slope * n) / math.log(n)
                          for n, v in samples)
                assert slope_fit(seq, p, n_max) == SlopeFit(
                    slope, Fraction(sy - slope * sx, k), float(dev),
                    (lo, n_max))


class TestClassDQuadraticCheck:
    def test_verdicts(self, sq_pair, twin_field, factorial, telescoping,
                      class_c_seq, double_root, geometric):
        assert class_d_quadratic_check(sq_pair)
        assert not class_d_quadratic_check(twin_field)
        assert class_d_quadratic_check(factorial)
        assert not class_d_quadratic_check(telescoping)
        assert class_d_quadratic_check(class_c_seq)
        assert class_d_quadratic_check(double_root)
        assert not class_d_quadratic_check(geometric)

    def test_quartic_factor_unsupported(self, sym_pair):
        with pytest.raises(UnsupportedFactorization):
            class_d_quadratic_check(sym_pair)


@settings(deadline=None, max_examples=60)
@given(a=st.integers(1, 40), b=st.integers(1, 40))
def test_linear_pairs_are_symmetric_at_large_primes(a, b):
    # Distinct monic linear polynomials each have exactly one root mod
    # any prime past the trust gate, so no certificate can exist.
    seq = make_sequence(X + RatPoly([a]), X + RatPoly([b]), Fraction(1))
    scan = find_asymmetric_prime(seq, p_max=300)
    assert scan.certificate is None
    assert scan.symmetric == scan.tested > 0
