import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from hyperval import numtheory
from hyperval.errors import BadPrime, NonResidue, UnsupportedInput
from hyperval.numtheory import (
    INFINITY,
    factorize,
    int_valuation,
    is_prime,
    iter_primes,
    legendre,
    mod_rep,
    padic_valuation,
    reduced_fraction,
    sieve_primes,
    sqrt_mod,
    squarefree_part,
    weil_height_exact,
)


class TestIsPrime:
    def test_small_range_against_reference(self):
        for n in range(-3, 2000):
            assert is_prime(n) == sympy.isprime(n), n

    @pytest.mark.parametrize("n,expected", [
        ((1 << 61) - 1, True),        # Mersenne
        ((1 << 31) - 1, True),
        (561, False),                 # Carmichael
        (341550071728321, False),     # strong pseudoprime to several bases
        (2, True),
        (1, False),
        (0, False),
    ])
    def test_known_values(self, n, expected):
        assert is_prime(n) == expected

    def test_near_word_boundary(self):
        for n in range((1 << 62) - 20, (1 << 62) + 20):
            assert is_prime(n) == sympy.isprime(n), n


class TestLegendre:
    @pytest.mark.parametrize("a,p,expected", [
        (2, 7, 1), (3, 7, -1), (6, 7, -1),
        (2, 17, 1), (3, 17, -1),
        (-1, 5, 1), (-1, 7, -1),
        (5, 5, 0), (14, 7, 0),
        (2, 3, -1), (3, 13, 1),
    ])
    def test_hand_table(self, a, p, expected):
        assert legendre(a, p) == expected

    def test_against_reference(self):
        for p in sieve_primes(200):
            if p == 2:
                continue
            for a in range(-p, 2 * p):
                assert legendre(a, p) == sympy.legendre_symbol(a, p), (a, p)

    def test_matches_square_definition(self):
        for p in (3, 5, 7, 11, 13, 31):
            squares = {a * a % p for a in range(1, p)}
            for a in range(1, p):
                assert (legendre(a, p) == 1) == (a in squares)

    def test_rejects_two_and_composites(self):
        with pytest.raises(BadPrime):
            legendre(3, 2)
        with pytest.raises(BadPrime):
            legendre(3, 15)


class TestSqrtMod:
    def test_roots_square_back(self):
        for p in sieve_primes(100):
            if p == 2:
                continue
            for a in range(1, p):
                if legendre(a, p) == 1:
                    r = sqrt_mod(a, p)
                    assert r * r % p == a % p
                    assert 0 < r <= p // 2  # canonical small root

    def test_nonresidue_raises(self):
        with pytest.raises(NonResidue):
            sqrt_mod(3, 7)
        with pytest.raises(NonResidue):
            sqrt_mod(2, 5)
        with pytest.raises(NonResidue):
            sqrt_mod(0, 7)  # multiples of p have no unit square root

    def test_one_mod_eight_branch(self):
        # p ≡ 1 (mod 8) exercises the general (non-shortcut) lifting path
        for p in (17, 41, 73, 89, 97):
            for a in range(1, p):
                if legendre(a, p) == 1:
                    r = sqrt_mod(a, p)
                    assert r * r % p == a


class TestFactorize:
    @pytest.mark.parametrize("n", [2, 12, 97, 360, 2 * 3 * 5 * 7 * 11 * 13,
                                   1000003, 2**20, 999999999989])
    def test_reconstructs(self, n):
        fac = factorize(n)
        prod = 1
        for p, e in fac.items():
            assert is_prime(p)
            prod *= p**e
        assert prod == n

    def test_against_reference(self):
        for n in list(range(2, 200)) + [987654321, 2**31 - 1, 600851475143]:
            assert factorize(n) == dict(sympy.factorint(n)), n


class TestSquarefreePart:
    @pytest.mark.parametrize("n,expected", [
        (1, 1), (2, 2), (4, 1), (8, 2), (12, 3), (18, 2),
        (-8, -2), (-1, -1), (360, 10), (0, 1),
    ])
    def test_hand_values(self, n, expected):
        assert squarefree_part(n) == expected

    def test_against_reference(self):
        for n in range(1, 500):
            assert squarefree_part(n) == sympy.ntheory.factor_.core(n)
            assert squarefree_part(-n) == -sympy.ntheory.factor_.core(n)

    def test_rationals(self):
        # square-free part of a rational ignores square factors of num and den
        assert squarefree_part(Fraction(1, 2)) == 2
        assert squarefree_part(Fraction(8, 9)) == 2
        assert squarefree_part(Fraction(-4, 3)) == -3


class TestPadicValuation:
    @pytest.mark.parametrize("x,p,expected", [
        (8, 2, 3), (12, 2, 2), (12, 3, 1), (5, 3, 0),
        (Fraction(5, 8), 2, -3), (Fraction(9, 2), 3, 2), (-24, 2, 3),
    ])
    def test_values(self, x, p, expected):
        assert padic_valuation(x, p) == expected

    def test_zero_is_infinite(self):
        v = padic_valuation(0, 7)
        assert v is INFINITY
        assert v > 10**100 and not (v < 5)

    def test_additive_on_products(self):
        for a, b, p in [(12, 18, 2), (Fraction(5, 8), 16, 2), (9, 27, 3)]:
            assert (padic_valuation(Fraction(a) * b, p)
                    == padic_valuation(a, p) + padic_valuation(b, p))

    def test_composite_p_rejected(self):
        # 8 = 4^1 · 2 as a plain integer base; 4 is no prime
        for r, p in ((8, 4), (12, 6), (5, 1), (5, 0), (5, -2)):
            with pytest.raises(BadPrime, match=f"^{p} is not prime$"):
                padic_valuation(r, p)

    def test_int_valuation_of_zero_raises(self):
        # the valuation of 0 is infinite; the integer helper refuses it
        # instead of dividing 0 by p forever
        with pytest.raises(ValueError, match="infinite"):
            int_valuation(0, 7)


BIG = 3 ** 200 * 7 ** 90 + 2  # odd, prime to 3 and 7


class TestReducedFraction:
    """The gcd-free constructor against Fraction(num, den)."""

    PAIRS = [(0, 1), (1, 1), (-1, 1), (5, 7), (-5, 7), (7, 5), (-22, 1),
             (BIG, 2 ** 301), (-BIG, 2 ** 301), (2 ** 301, BIG),
             (-(2 ** 301), BIG), (BIG, 1), (1, BIG)]

    @pytest.mark.parametrize("num,den", PAIRS)
    def test_same_fraction(self, num, den):
        fast, slow = reduced_fraction(num, den), Fraction(num, den)
        assert type(fast) is Fraction
        assert (fast.numerator, fast.denominator) == (num, den)
        assert fast == slow and not fast != slow
        assert hash(fast) == hash(slow)
        assert str(fast) == str(slow) and repr(fast) == repr(slow)
        assert {fast: 1}[slow] == 1
        if den == 1:
            assert fast == num and hash(fast) == hash(num)
        for other in (Fraction(3, 4), Fraction(-BIG, 3), 2, slow):
            assert fast + other == slow + other
            assert fast - other == slow - other
            assert fast * other == slow * other
            if other:
                assert fast / other == slow / other
            assert (fast < other) == (slow < other)
            assert (fast <= other) == (slow <= other)
        assert -fast == -slow and abs(fast) == abs(slow)
        assert float(fast) == float(slow)
        if num:
            assert 1 / fast == 1 / slow
            assert fast ** -2 == slow ** -2

    @settings(max_examples=200)
    @given(st.integers(-10 ** 40, 10 ** 40), st.integers(1, 10 ** 40))
    def test_random_reduced_pairs(self, num, den):
        g = math.gcd(num, den)
        num, den = num // g, den // g
        fast, slow = reduced_fraction(num, den), Fraction(num, den)
        assert fast == slow and hash(fast) == hash(slow)
        assert str(fast) == str(slow)
        assert fast + Fraction(1, 3) == slow + Fraction(1, 3)


class TestModRep:
    def test_values(self):
        assert mod_rep(Fraction(1, 3), 7) == 5      # 3*5 = 15 ≡ 1
        assert mod_rep(Fraction(-1, 2), 11) == 5    # 2*5 ≡ -1
        assert mod_rep(10, 7) == 3
        assert mod_rep(Fraction(22, 5), 11) == 0

    def test_denominator_divisible_raises(self):
        with pytest.raises(BadPrime):
            mod_rep(Fraction(1, 7), 7)

    @given(st.integers(-50, 50), st.integers(1, 50))
    def test_defining_congruence(self, a, b):
        p = 101
        if b % p == 0:
            return
        r = mod_rep(Fraction(a, b), p)
        assert 0 <= r < p and (b * r - a) % p == 0


class TestHeights:
    @pytest.mark.parametrize("x,mag", [
        (Fraction(2, 3), 3), (Fraction(-7, 2), 7), (5, 5),
        (Fraction(1, 1), 1), (0, 1), (Fraction(4, 6), 3),
    ])
    def test_exact(self, x, mag):
        assert weil_height_exact(x) == mag

    def test_height_of_zero_and_one(self):
        # H = 1, so h = log H = 0
        assert weil_height_exact(0) == 1
        assert weil_height_exact(1) == 1


class TestPrimes:
    def test_sieve_against_reference(self):
        assert sieve_primes(1000) == list(sympy.primerange(2, 1001))
        assert sieve_primes(1) == []
        assert sieve_primes(2) == [2]

    @settings(max_examples=150, deadline=None)
    @given(st.integers(-5, 3000), st.integers(-5, 3000))
    def test_walker_equals_sieve(self, lo, hi):
        assert list(iter_primes(lo, hi)) == [p for p in sieve_primes(hi)
                                             if p >= lo]

    def test_walker_on_long_ranges(self):
        for lo, hi in ((2, 100_000), (65_000, 70_000), (10**6 - 200, 10**6)):
            assert list(iter_primes(lo, hi)) == [p for p in sieve_primes(hi)
                                                 if p >= lo]

    def test_walker_sieves_lazily(self, monkeypatch):
        # stopping at 10007 sieves segments up to about 2·10007, whose
        # base primes stay below its square root
        sieve = numtheory.sieve_primes

        def bounded(limit):
            assert limit <= 200
            return sieve(limit)

        monkeypatch.setattr(numtheory, "sieve_primes", bounded)
        assert next(p for p in iter_primes(2, 10**12) if p > 10**4) == 10007

    def test_walker_segments_are_capped(self, monkeypatch):
        # with 100-number segments, the walk over [10^4, 2·10^4] sieves
        # 101 segments and still yields exactly the primes there
        monkeypatch.setattr(numtheory, "_SEGMENT", 100)
        limits = []
        sieve = numtheory.sieve_primes

        def counted(limit):
            limits.append(limit)
            return sieve(limit)

        monkeypatch.setattr(numtheory, "sieve_primes", counted)
        got = list(iter_primes(10**4, 2 * 10**4))
        assert got == [p for p in sieve(2 * 10**4) if p >= 10**4]
        assert len(limits) == 101 and max(limits) <= 141

    def test_walker_refuses_where_base_primes_pass_the_bound(self,
                                                             monkeypatch):
        # with base primes capped at 10, the segments [2, 66) are
        # walked and the next one, [66, 132), needs the base prime 11
        monkeypatch.setattr(numtheory, "_MAX_BASE_PRIME", 10)
        got = []
        with pytest.raises(UnsupportedInput, match="^the prime walk stops"):
            for p in iter_primes(2, 1000):
                got.append(p)
        assert got == sieve_primes(65)

    def test_walker_refuses_a_window_near_2_to_the_89(self, monkeypatch):
        # nothing is sieved: the refusal comes before any allocation
        def refuse(limit):
            raise AssertionError(f"sieve_primes({limit}) called")

        monkeypatch.setattr(numtheory, "sieve_primes", refuse)
        walk = iter_primes(2**89 - 1, 2**89 + 200)
        with pytest.raises(UnsupportedInput):
            next(walk)
