import math
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from hyperval import hyperseq, numtheory, polyq
from hyperval.asymmetry import slope_fit
from hyperval.errors import (
    BadPrime,
    InvalidF,
    UnsupportedFactorization,
    UnsupportedInput,
)
from hyperval.hyperseq import (
    TermCursor,
    height_profile,
    make_sequence,
    parse_sequence_spec,
    regularize,
    step_polys,
    term,
    term_valuation,
    usable_prime,
    valuation_profile,
)
from hyperval.numtheory import (
    INFINITY,
    fraction_valuation,
    int_valuation,
    padic_valuation,
    sieve_primes,
    weil_height_exact,
)
from hyperval.padic import is_hensel_prime, valuation_at_prime_power
from hyperval.quadratic import (
    class_c_check,
    class_d_quadratic_check,
    discriminant_profile,
)
from hyperval.polyq import ONE, RatPoly, X, int_eval, radical

from conftest import polynomial_usable_prime


class TestClosedForms:
    def test_factorial(self, factorial):
        f = 1
        for n in range(12):
            assert term(factorial, n) == f
            f *= n + 1

    def test_telescoping(self, telescoping):
        for n in range(30):
            assert term(telescoping, n) == Fraction(2, n + 2)

    def test_geometric(self, geometric):
        for n in range(20):
            assert term(geometric, n) == 2**n

    def test_catalan(self, catalan):
        for n in range(15):
            assert term(catalan, n) == Fraction(math.comb(2 * n, n), n + 1)
            assert term(catalan, n).denominator == 1

    def test_eventually_zero(self, eventually_zero):
        values = [term(eventually_zero, n) for n in range(6)]
        assert values == [1, -1, Fraction(1, 3), 0, 0, 0]

    def test_fractional_coefficients(self, fractional_coeffs):
        # u_1 = g(1)/f(1) = (4/3)/(3/2) = 8/9
        assert term(fractional_coeffs, 1) == Fraction(8, 9)


class TestMakeSequence:
    def test_common_factor_cancelled(self):
        shared = X + RatPoly([2])
        seq = make_sequence(shared * (X + ONE), shared * RatPoly([2]),
                            Fraction(1))
        assert seq.flags.common_factor_removed
        assert seq.f == X + ONE and seq.g == RatPoly([2])

    def test_no_cancellation_flag(self, sq_pair):
        assert not sq_pair.flags.common_factor_removed

    def test_positive_root_in_f_rejected(self):
        with pytest.raises(InvalidF) as err:
            make_sequence(X - RatPoly([4]), X, Fraction(1))
        assert err.value.roots == (4,)

    def test_root_zero_in_f_allowed(self):
        # f(0) = 0 is harmless: the recurrence only divides by f(n) for n >= 1
        seq = make_sequence(X * X, X * X + ONE, Fraction(1))
        assert term(seq, 2) == Fraction(2 * 5, 1 * 4)

    def test_cancellation_unmasks_valid_input(self):
        # (x-1) appears in both f and g and cancels before validation
        shared = X - ONE
        seq = make_sequence(shared * (X + ONE), shared * X, Fraction(1))
        assert seq.f == X + ONE

    def test_zero_polynomials_rejected(self):
        with pytest.raises(ValueError):
            make_sequence(RatPoly([]), X, Fraction(1))
        with pytest.raises(ValueError):
            make_sequence(X, RatPoly([]), Fraction(1))

    def test_flags(self, eventually_zero, factorial):
        flags = eventually_zero.flags
        assert flags.g_positive_integer_roots == (3,)
        assert flags.degenerate_zero and not flags.u0_is_zero
        zero_start = make_sequence(ONE, X, Fraction(0))
        assert zero_start.flags.u0_is_zero
        assert zero_start.flags.degenerate_zero
        assert not factorial.flags.degenerate_zero

    def test_validation_factors_no_integer(self, monkeypatch):
        # a 31-digit product of two primes near 10^15: factoring it by
        # Brent's rho took seconds, and the root search needs no factoring
        def refuse(n):
            raise AssertionError(f"factorize({n}) called")

        original = numtheory.factorize
        for key, mod in list(sys.modules.items()):
            if key.split(".")[0] == "hyperval" and \
                    getattr(mod, "factorize", None) is original:
                monkeypatch.setattr(mod, "factorize", refuse)
        n = 1000000000000128000000000003367
        assert make_sequence(ONE, X + RatPoly([n]), 1).flags \
            .g_positive_integer_roots == ()
        assert make_sequence(ONE, X - RatPoly([n]), 1).flags \
            .g_positive_integer_roots == (n,)

    def test_factor_tables(self):
        f = (X + ONE) ** 2 * (X * X - RatPoly([2]))
        seq = make_sequence(f * X, RatPoly([3]) * X * X * (X - RatPoly([5])),
                            Fraction(1))
        assert seq.f_factors == polyq.factor(seq.f)
        assert seq.g_factors == polyq.factor(seq.g)
        assert [(str(pf.poly), pf.multiplicity)
                for pf in seq.f_factors.factors] == [("x + 1", 2),
                                                    ("x^2 - 2", 1)]
        assert seq.g_factors.unit == 3
        assert seq.flags.g_positive_integer_roots == (5,)

    def test_one_factorization_per_sequence(self, monkeypatch):
        # make_sequence factors f and g once each; the plan, the class C
        # and D checks, the digit identity and regularize read the
        # tables, and regularize factors only the sequence it builds
        calls = []
        original = polyq.factor

        def counting(poly):
            calls.append(poly)
            return original(poly)

        for key, mod in list(sys.modules.items()):
            if key.split(".")[0] == "hyperval" and \
                    getattr(mod, "factor", None) is original:
                monkeypatch.setattr(mod, "factor", counting)
        f = (X + ONE) * (X * X - RatPoly([2]))
        g = (X + RatPoly([3])) * (X * X - RatPoly([8]))
        seq = make_sequence(f, g, Fraction(1))
        assert calls == [seq.f, seq.g]
        calls.clear()
        seq.root_plan()
        assert class_c_check(seq) and not class_d_quadratic_check(seq)
        assert discriminant_profile(seq).discs == {2}
        p = next(p for p in sieve_primes(100) if usable_prime(seq, p))
        direct, digits = valuation_at_prime_power(seq, p, 1)
        assert direct == digits
        assert calls == []
        result = regularize(seq)
        assert calls == [result.regular_seq.f, result.regular_seq.g]

    def test_max_degree(self, sq_pair, factorial):
        assert sq_pair.max_degree == 2
        assert factorial.max_degree == 1

    def test_str_mentions_all_parts(self, sq_pair):
        text = str(sq_pair)
        assert "f = x^2 - 2" in text and "g = x^2 - 3" in text
        assert "u0 = 1" in text


class TestTermCursor:
    def test_matches_scratch_terms(self, sq_pair):
        cur = TermCursor(sq_pair)
        for n in range(25):
            if n:
                cur.advance()
            assert cur.n == n
            assert cur.value == term(sq_pair, n)

    def test_always_reduced(self, catalan):
        cur = TermCursor(catalan)
        for _ in range(40):
            cur.advance()
            assert math.gcd(cur.value.numerator, cur.value.denominator) == 1

    def test_advance_to(self, factorial):
        cur = TermCursor(factorial)
        cur.advance_to(10)
        assert cur.value == math.factorial(10)
        with pytest.raises(ValueError):
            cur.advance_to(5)  # cursors only move forward

    def test_steps_stay_aligned_on_the_zero_tail(self, eventually_zero):
        # u_n = 0 from n = 3 on; the cursor still takes one (A(m), B(m))
        # pair per step, so the next pair is the one at m = n + 1
        A, B = step_polys(eventually_zero)
        cur = TermCursor(eventually_zero)
        for n in range(1, 11):
            assert cur.advance() == n
            assert cur.value == term(eventually_zero, n)
        assert (cur.num, cur.den) == (0, 1)
        assert next(cur._steps) == (int_eval(A, 11), int_eval(B, 11))


FIXTURES = ("factorial", "telescoping", "sq_pair", "class_c_seq", "geometric",
            "twin_field", "catalan", "eventually_zero", "fractional_coeffs",
            "double_root", "sym_pair", "mixed_degree")


class TestWalkDifferential:
    """The value walk and the valuation walk against from-scratch terms."""

    @pytest.mark.parametrize("name", FIXTURES)
    def test_heights_match_terms(self, name, request):
        seq = request.getfixturevalue(name)
        prof = height_profile(seq, 60)
        mags = [weil_height_exact(term(seq, n)) for n in range(61)]
        assert [(n, mag) for n, mag, _ in prof.rows] == list(enumerate(mags))
        assert prof.growth_constant == min(
            math.log(mags[n]) / n for n in range(30, 61))

    @pytest.mark.parametrize("name", FIXTURES)
    def test_valuations_match_terms(self, name, request):
        seq = request.getfixturevalue(name)
        for p in (2, 3, 5, 7):
            assert valuation_profile(seq, p, 60) == \
                [padic_valuation(term(seq, n), p) for n in range(61)]


class TestUsablePrime:
    def test_factorial_all_small_primes(self, factorial):
        for p in (2, 3, 5, 7):
            assert usable_prime(factorial, p)

    def test_discriminant_primes_blocked(self, sq_pair):
        assert not usable_prime(sq_pair, 2)   # x^2-2 ≡ x^2 (mod 2)
        assert not usable_prime(sq_pair, 3)   # x^2-3 ≡ x^2 (mod 3)
        assert usable_prime(sq_pair, 5)
        assert usable_prime(sq_pair, 7)

    def test_coefficient_denominator_blocked(self, fractional_coeffs):
        assert not usable_prime(fractional_coeffs, 2)
        assert not usable_prime(fractional_coeffs, 3)
        assert usable_prime(fractional_coeffs, 5)

    def test_leading_coefficient_blocked(self):
        seq = make_sequence(ONE, RatPoly([-2, 4]), Fraction(1))
        assert not usable_prime(seq, 2)

    def test_composite_rejected(self, factorial):
        with pytest.raises(BadPrime):
            usable_prime(factorial, 6)

    @staticmethod
    def _full_gate(seq, p):
        """The gate with is_hensel_prime's own checks on the radical."""
        for poly in (seq.f, seq.g):
            if any(c.denominator % p == 0 for c in poly.coeffs) or \
                    poly.leading.numerator % p == 0:
                return False
        return is_hensel_prime(radical(seq.f * seq.g), p)

    @pytest.mark.parametrize("name", FIXTURES)
    def test_radical_checks_are_implied(self, name, request):
        # the polynomial gate tests only square-freeness of the monic
        # radical: the f and g checks make it p-integral with leading
        # coefficient 1; usable_prime reads the plan's integer gate
        seq = request.getfixturevalue(name)
        for p in sieve_primes(300):
            assert usable_prime(seq, p) == polynomial_usable_prime(seq, p) \
                == self._full_gate(seq, p), p

    def test_radical_checks_are_implied_on_random_sequences(self):
        rng = random.Random(5)
        dens = (1, 1, 2, 3, 4, 5, 9, 25)
        checked = 0
        while checked < 40:
            f, g = (RatPoly([Fraction(rng.randint(-12, 12), rng.choice(dens))
                             for _ in range(rng.randint(2, 4))]
                            + [Fraction(rng.choice((1, 2, 3, 6, 10)),
                                        rng.choice(dens))])
                    for _ in range(2))
            try:
                seq = make_sequence(f, g, Fraction(1))
            except InvalidF:
                continue
            checked += 1
            for p in sieve_primes(60):
                assert usable_prime(seq, p) == polynomial_usable_prime(
                    seq, p) == self._full_gate(seq, p), (str(f), str(g), p)


class TestValuationProfile:
    def test_factorial_legendre(self, factorial):
        prof = valuation_profile(factorial, 2, 300)
        for n, v in enumerate(prof):
            assert v == n - bin(n).count("1")

    def test_telescoping(self, telescoping):
        prof = valuation_profile(telescoping, 2, 40)
        for n, v in enumerate(prof):
            want = 1 - (((n + 2) & -(n + 2)).bit_length() - 1)
            assert v == want

    def test_zero_tail_infinite(self, eventually_zero):
        prof = valuation_profile(eventually_zero, 5, 6)
        assert prof[3] is INFINITY and prof[6] is INFINITY
        assert prof[2] == 0

    @pytest.mark.parametrize("p", [1, 0, 4, -3])
    def test_non_prime_rejected(self, factorial, p):
        with pytest.raises(BadPrime):
            valuation_profile(factorial, p, 5)
        with pytest.raises(BadPrime):
            term_valuation(factorial, 5, p)
        with pytest.raises(BadPrime):
            slope_fit(factorial, p, 40)

    def test_negative_n_max_rejected(self, factorial):
        with pytest.raises(ValueError):
            valuation_profile(factorial, 2, -3)


def _per_step_valuations(seq, p, n_max):
    """[ν_p(u₀), …, ν_p(u_{n_max})] one step at a time: ν_p(A(m)) −
    ν_p(B(m)) from two evaluations per index (the walk the sieved
    engine replaced), INFINITY from the first zero term on."""
    A, B = step_polys(seq)
    out = []
    if seq.u0 != 0:
        v = fraction_valuation(seq.u0, p)
        for m in range(n_max + 1):
            if m > 0:
                a = int_eval(A, m)
                if a == 0:
                    break
                v += int_valuation(a, p) - int_valuation(int_eval(B, m), p)
            out.append(v)
    return out + [INFINITY] * (n_max + 1 - len(out))


_ENGINE_PRIMES = (2, 3, 5, 7, 11, 101, 1009)


class TestSievedValuations:
    """The residue-class engine against the per-step walk."""

    @pytest.mark.parametrize("name", FIXTURES)
    def test_fixtures(self, name, request):
        seq = request.getfixturevalue(name)
        n_max = 5000
        for p in _ENGINE_PRIMES:
            want = _per_step_valuations(seq, p, n_max)
            assert valuation_profile(seq, p, n_max) == want, p
            for n in (0, 1, p - 1, p, p * p, n_max):
                if n <= n_max:
                    assert term_valuation(seq, n, p) == want[n], (p, n)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_random_pairs(self, data):
        # degree ≤ 5 with fractional coefficients, contents divisible by
        # p, repeated roots (including roots that collide mod p), positive
        # integer roots of g, u₀ = 0 and primes above n
        p = data.draw(st.sampled_from((2, 3, 5, 7, 11, 13)), "p")
        n_max = data.draw(st.sampled_from((0, 1, 5, 40, 300, 700)), "n")
        f, g = (data.draw(_step_poly(p), side) for side in "fg")
        u0 = data.draw(st.sampled_from((0, 1, Fraction(p ** 2, 3),
                                        Fraction(5, p), -7)), "u0")
        try:
            seq = make_sequence(f, g, u0)
        except (InvalidF, ValueError):  # f has a positive integer root,
            assume(False)               # or f or g is zero
        want = _per_step_valuations(seq, p, n_max)
        assert valuation_profile(seq, p, n_max) == want
        n = data.draw(st.integers(0, n_max), "index")
        assert term_valuation(seq, n, p) == want[n]

    def test_first_zero(self, eventually_zero):
        # g(3) = 0: finite through u₂, INFINITY from u₃ on
        assert term_valuation(eventually_zero, 2, 2) == 0
        assert term_valuation(eventually_zero, 3, 2) is INFINITY
        zero = make_sequence(X + ONE, X, Fraction(0))
        assert valuation_profile(zero, 3, 4) == [INFINITY] * 5
        assert term_valuation(zero, 0, 3) is INFINITY


@st.composite
def _step_poly(draw, p):
    """A polynomial of degree ≤ 5: a fractional unit, a power of p and
    linear factors x − a drawn with repetition, so roots repeat, collide
    mod p, or sit at positive integers."""
    unit = draw(st.sampled_from((1, -1, 2, Fraction(1, 2), Fraction(-3, 4),
                                 Fraction(p, 7), 6)))
    poly = RatPoly([unit * p ** draw(st.integers(0, 3))])
    roots = draw(st.lists(st.one_of(
        st.integers(-12, 12),
        st.fractions(min_value=-6, max_value=6, max_denominator=4),
        st.sampled_from((p, 2 * p, p * p + 1, -p ** 3))), max_size=5))
    for a in roots:
        poly = poly * (X - RatPoly([a]))
    if draw(st.booleans()):
        poly = poly + RatPoly([draw(st.sampled_from((1, p, p ** 4)))])
    return poly


class TestEngineBounds:
    def test_evaluations_for_a_sixfold_root(self, monkeypatch):
        # x⁶ at p = 2: level j holds the multiples of 2^⌈j/6⌉, so the
        # levels grow with n, yet building them and reading the deepest
        # class evaluates c at most 2·n·log₂ n times
        calls = []
        original = hyperseq.int_eval

        def counting(c, x):
            calls.append(x)
            return original(c, x)

        monkeypatch.setattr(hyperseq, "int_eval", counting)
        n = 10 ** 5
        vals = hyperseq._step_valuations([0] * 6 + [1], 2, n)
        assert len(calls) <= 2 * n * math.log2(n)
        monkeypatch.undo()
        assert vals == [6 * ((m & -m).bit_length() - 1)
                        for m in range(1, n + 1)]

    def test_legendre_at_a_trillion(self, factorial):
        n = 10 ** 12
        t0 = time.perf_counter()
        assert term_valuation(factorial, n, 2) == n - bin(n).count("1")
        assert time.perf_counter() - t0 < 1.0


class TestHeightProfile:
    def test_geometric_exact(self, geometric):
        prof = height_profile(geometric, 40)
        for n, mag, h in prof.rows:
            assert mag == 2**n
            assert h == pytest.approx(n * math.log(2))
        assert prof.growth_constant == pytest.approx(math.log(2))

    def test_factorial_magnitudes(self, factorial):
        prof = height_profile(factorial, 12)
        assert [mag for _, mag, _ in prof.rows] == [
            max(math.factorial(n), 1) for n in range(13)
        ]

    def test_stride_sampling(self, geometric):
        prof = height_profile(geometric, 20, stride=5)
        assert [n for n, _, _ in prof.rows] == [0, 5, 10, 15, 20]
        assert prof.stride == 5

    def test_csv_rows(self, geometric):
        rows = list(height_profile(geometric, 4).csv_rows())
        assert rows[0] == "0,0"
        assert rows[2].startswith("2,1.386")


class TestParseSequenceSpec:
    def test_round_trip(self):
        seq = parse_sequence_spec("f = x^2-2; g = x^2-3; u0 = 5/2")
        assert seq.f == X * X - RatPoly([2])
        assert seq.g == X * X - RatPoly([3])
        assert seq.u0 == Fraction(5, 2)

    def test_order_insensitive(self):
        seq = parse_sequence_spec("u0=1;g=x;f=1")
        assert term(seq, 4) == 24

    def test_missing_key(self):
        with pytest.raises(ValueError):
            parse_sequence_spec("f = x; g = x")

    def test_unknown_key(self):
        with pytest.raises(ValueError):
            parse_sequence_spec("f = x; g = x; u0 = 1; h = x")

    def test_duplicate_key(self):
        with pytest.raises(ValueError):
            parse_sequence_spec("f = x; f = x; g = x; u0 = 1")


class TestRegularize:
    def test_telescoping_exact(self, telescoping):
        result = regularize(telescoping)
        q = result.correction
        reg = result.regular_seq
        for n in range(30):
            assert term(telescoping, n) == q(n) * term(reg, n)

    def test_telescoping_closed_form(self, telescoping):
        q = regularize(telescoping).correction
        # u~ stays constant, so q itself carries the decay 2/(n+2)
        for n in range(10):
            assert q(n) * term(regularize(telescoping).regular_seq, n) \
                == Fraction(2, n + 2)

    def test_shifted_quadratics(self):
        seq = make_sequence((X + ONE) * (X + RatPoly([3])),
                            (X + RatPoly([2])) ** 2, Fraction(1))
        result = regularize(seq)
        for n in range(20):
            assert term(seq, n) == result.correction(n) \
                * term(result.regular_seq, n)

    def test_unrelated_roots_untouched(self, sq_pair):
        result = regularize(sq_pair)
        assert result.regular_seq.f == sq_pair.f
        assert result.regular_seq.g == sq_pair.g
        assert result.correction(5) == 1

    def test_non_monic_units_carried(self):
        seq = make_sequence(RatPoly([4, 2]), X + ONE, Fraction(1))  # 2(x+2)
        result = regularize(seq)
        for n in range(15):
            assert term(seq, n) == result.correction(n) \
                * term(result.regular_seq, n)

    def test_class_structure(self, telescoping):
        classes = regularize(telescoping).shift_classes
        assert len(classes) == 1
        cls = classes[0]
        assert cls.representative == X + RatPoly([2])
        assert {(m.source, m.shift) for m in cls.members} \
            == {("f", 0), ("g", 1)}

    def test_degenerate_refused(self, eventually_zero):
        with pytest.raises(UnsupportedInput):
            regularize(eventually_zero)

    def test_uncertified_factorization_refused(self, sym_pair):
        with pytest.raises(UnsupportedFactorization):
            regularize(sym_pair)


# random small sequences: f built from nonpositive roots so it is valid
@st.composite
def random_seq(draw):
    f_roots = draw(st.lists(st.integers(0, 5), min_size=0, max_size=2))
    g_coeffs = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=3))
    f = ONE
    for r in f_roots:
        f = f * (X + RatPoly([r]))
    g = RatPoly(g_coeffs)
    u0 = draw(st.fractions(min_value=-4, max_value=4, max_denominator=3))
    return f, g, u0


class TestStreamingConsistency:
    @given(random_seq(), st.integers(1, 25))
    @settings(max_examples=60, deadline=None)
    def test_cursor_equals_product_formula(self, fgu, n):
        f, g, u0 = fgu
        if g.is_zero:
            return
        seq = make_sequence(f, g, u0)
        value = Fraction(u0)
        for m in range(1, n + 1):
            value = value * g(m) / f(m)
        cur = TermCursor(seq)
        cur.advance_to(n)
        assert cur.value == value
