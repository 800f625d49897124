import itertools
import math
import time
from fractions import Fraction
from itertools import islice
from unittest import mock

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from hyperval import _fp, polyq
from hyperval.errors import InvalidF
from hyperval.hyperseq import make_sequence
from hyperval.numtheory import factorize, sieve_primes
from hyperval.polyq import (
    ONE,
    RatPoly,
    RationalFunction,
    X,
    factor,
    int_discriminant,
    int_eval,
    int_values,
    poly_gcd,
    radical,
    shift_equivalent,
)

x = sympy.Symbol("x")

rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=6
)
small_polys = st.lists(rationals, min_size=1, max_size=5).map(RatPoly)


def to_sympy(p: RatPoly):
    return sympy.Poly([sympy.Rational(c) for c in reversed(p.coeffs)], x)


def from_sympy(q) -> RatPoly:
    return RatPoly([Fraction(str(c)) for c in reversed(q.all_coeffs())])


class TestRatPolyBasics:
    def test_trailing_zeros_trimmed(self):
        assert RatPoly([1, 2, 0, 0]) == RatPoly([1, 2])
        assert RatPoly([0]).is_zero and RatPoly([]).is_zero
        assert RatPoly([0]).degree == -1

    def test_accessors(self):
        p = X * X - RatPoly([2])
        assert p.degree == 2
        assert p.leading == 1
        assert p.coeff(0) == -2 and p.coeff(1) == 0 and p.coeff(5) == 0
        assert p(3) == 7
        assert p(Fraction(1, 2)) == Fraction(-7, 4)

    def test_hand_expansion(self):
        got = (X * X - RatPoly([2])) * (X * X - RatPoly([3]))
        assert got == RatPoly([6, 0, -5, 0, 1])  # x^4 - 5x^2 + 6

    def test_string_forms(self):
        assert str(RatPoly([6, 0, -5, 0, 1])) == "x^4 - 5*x^2 + 6"
        assert str(RatPoly([Fraction(1, 3), Fraction(1, 2)])) == "1/2*x + 1/3"
        assert str(RatPoly([3, -1])) == "-x + 3"
        assert str(RatPoly([])) == "0"
        assert str(-X) == "-x"

    def test_power_and_neg(self):
        assert (X + ONE) ** 2 == RatPoly([1, 2, 1])
        assert (X + ONE) ** 0 == ONE
        assert -(X - ONE) == ONE - X

    def test_shift_and_scale_arg(self):
        p = X * X
        assert p.shift_arg(1) == RatPoly([1, 2, 1])        # (x+1)^2
        assert p.scale_arg(Fraction(2)) == RatPoly([0, 0, 4])

    def test_derivative(self):
        assert RatPoly([5, 3, 1]).derivative() == RatPoly([3, 2])
        assert ONE.derivative().is_zero


class TestRingOps:
    @given(small_polys, small_polys)
    @settings(max_examples=60, deadline=None)
    def test_mul_matches_reference(self, p, q):
        got = p * q
        assert got == from_sympy(to_sympy(p) * to_sympy(q))

    @given(small_polys, small_polys)
    @settings(max_examples=60, deadline=None)
    def test_divmod_identity(self, a, b):
        if b.is_zero:
            with pytest.raises(ZeroDivisionError):
                divmod(a, b)
            return
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero or r.degree < b.degree

    def test_gcd_hand_case(self):
        a = (X - ONE) * (X + RatPoly([2]))
        b = (X - ONE) * (X + RatPoly([3]))
        assert poly_gcd(a, b) == X - ONE  # monic

    @given(small_polys, small_polys, small_polys)
    @settings(max_examples=40, deadline=None)
    def test_gcd_matches_reference(self, a, c, d):
        p, q = a * c, a * d
        if p.is_zero or q.is_zero:
            return
        got = poly_gcd(p, q)
        want = from_sympy(sympy.gcd(to_sympy(p), to_sympy(q)))
        assert got == want.monic()


class TestShiftEquivalent:
    def test_found(self):
        p = (X + ONE) * (X + RatPoly([4]))
        q = (X + RatPoly([3])) * (X + RatPoly([6]))
        assert shift_equivalent(q, p) == 2      # q(x) = p(x + 2)
        assert shift_equivalent(p, q) == -2

    def test_not_equivalent(self):
        assert shift_equivalent(X * X - RatPoly([2]),
                                X * X - RatPoly([3])) is None

    def test_equal_is_zero_shift(self):
        p = X * X + X
        assert shift_equivalent(p, p) == 0

    def test_requires_monic_same_degree(self):
        with pytest.raises(ValueError):
            shift_equivalent(RatPoly([0, 0, 2]), X * X)
        with pytest.raises(ValueError):
            shift_equivalent(X, X * X)


def table_nonnegative_integer_roots(table):
    """The nonnegative integer roots in a factor table, ascending: the
    roots of its monic linear factors x - r with r an integer >= 0."""
    return sorted(int(-f.poly.coeff(0)) for f in table.factors
                  if f.poly.degree == 1 and -f.poly.coeff(0) >= 0
                  and f.poly.coeff(0).denominator == 1)


def g_positive_integer_roots(p):
    """The positive integer roots of p as validation flags them, with p
    as the g of a sequence."""
    return make_sequence(ONE, p, 1).flags.g_positive_integer_roots


class TestIntegerRoots:
    def test_hand_cases(self):
        p = X * (X - RatPoly([3])) * (X + RatPoly([2]))
        assert table_nonnegative_integer_roots(factor(p)) == [0, 3]
        assert g_positive_integer_roots(p) == (3,)
        with pytest.raises(InvalidF) as err:
            make_sequence(p, ONE, 1)
        assert err.value.roots == (3,)
        assert g_positive_integer_roots(X * X + ONE) == ()

    def test_fractional_roots_ignored(self):
        p = RatPoly([-1, 2]) * (X - RatPoly([5]))  # roots 1/2 and 5
        assert g_positive_integer_roots(p) == (5,)


# -- the divisor route that the p-adic root search replaced, as oracle --


def oracle_divisors_upto(n, bound):
    """Positive divisors of |n| that are <= bound, by factoring n."""
    divs = [1]
    for q, e in factorize(n).items():
        fresh = []
        for d in divs:
            v = d
            for _ in range(e):
                v *= q
                if v > bound:
                    break
                fresh.append(v)
        divs.extend(fresh)
    return [d for d in set(divs) if d <= bound]


def oracle_integer_roots(c):
    """Integer roots of c (degree >= 1, c[0] != 0): each divides c[0]
    and lies inside the Cauchy bound, r - 1 divides c(1) and r + 1
    divides c(-1); the survivors are evaluated exactly."""
    bound = max(abs(a) for a in c) // abs(c[-1]) + 2
    c1, cm1 = int_eval(c, 1), int_eval(c, -1)
    return [r for d in sorted(oracle_divisors_upto(c[0], bound))
            for r in (d, -d)
            if (r == 1 or c1 % (r - 1) == 0)
            and (r == -1 or cm1 % (r + 1) == 0)
            and int_eval(c, r) == 0]


def oracle_nonnegative_integer_roots(p):
    coeffs = list(p.coeffs)
    nz = next(i for i, c in enumerate(coeffs) if c != 0)
    ic, _ = RatPoly(coeffs[nz:]).to_integer()
    found = oracle_integer_roots(ic) if len(ic) > 1 else []
    return ([0] if nz else []) + sorted(r for r in found if r > 0)


def oracle_factor(p):
    """factor() with its integer roots taken from the divisor route."""
    with mock.patch.object(polyq, "_lift_roots",
                           lambda c, _p, _cp: oracle_integer_roots(c)):
        return factor(p)


def _random_factor(draw):
    kind = draw(st.sampled_from(["linear", "fractional", "quadratic",
                                 "cubic"]))
    if kind == "linear":
        return X - RatPoly([draw(st.integers(-40, 40))])
    if kind == "fractional":
        return RatPoly([draw(st.integers(-30, 30)), draw(st.integers(1, 6))])
    return RatPoly([draw(st.integers(-30, 30))
                    for _ in range(2 if kind == "quadratic" else 3)] + [1])


@st.composite
def random_products(draw):
    """unit * prod(q**e): linear, fractional-linear, quadratic and cubic
    factors with multiplicities 1-3."""
    p = RatPoly([draw(st.integers(1, 5)) * draw(st.sampled_from([1, -1]))])
    for _ in range(draw(st.integers(1, 4))):
        p = p * _random_factor(draw) ** draw(st.integers(1, 3))
    return p


class TestRootSearchDifferential:
    @given(random_products())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_divisor_route(self, p):
        got = factor(p)
        want = oracle_nonnegative_integer_roots(p)
        assert table_nonnegative_integer_roots(got) == want
        assert g_positive_integer_roots(p) == tuple(r for r in want if r)
        assert got == oracle_factor(p)
        for f in got.factors:
            if f.certified:
                assert to_sympy(f.poly).is_irreducible, f.poly

    def test_repeated_factors_make_no_radical_call(self):
        # the roots come from the factor table, whose square-free parts
        # come from Yun's decomposition, so validation never takes the
        # radical of a polynomial with repeated factors
        big = 10 ** 20
        p = (X - RatPoly([big])) ** 2 * (X + RatPoly([7])) ** 3 \
            * (X * X + RatPoly([2]))
        calls = []
        real = polyq.radical

        def counting(q):
            calls.append(q)
            return real(q)

        with mock.patch.object(polyq, "radical", counting):
            assert g_positive_integer_roots(p) == (big,)
        assert calls == []
        assert oracle_nonnegative_integer_roots(p) == [big]
        ff = factor(p)
        assert ff == oracle_factor(p)
        assert [(str(f.poly), f.multiplicity, f.certified)
                for f in ff.factors] == [
            (f"x - {big}", 2, True), ("x + 7", 3, True), ("x^2 + 2", 1, True)]

    def test_good_prime_past_the_trial_primes(self):
        # the discriminant P^2 of (x - 1)(x - 1 - P) is divisible by every
        # odd prime below 100, so the least good prime is 101
        P = math.prod(q for q in range(3, 100, 2) if sympy.isprime(q))
        p = (X - ONE) * (X - RatPoly([1 + P]))
        ic, _ = p.to_integer()
        assert polyq._good_prime(ic)[0] == 101
        assert g_positive_integer_roots(p) == (1, 1 + P)
        ff = factor(p)
        assert [(f.poly, f.multiplicity, f.certified) for f in ff.factors] \
            == [(X - RatPoly([1 + P]), 1, True), (X - ONE, 1, True)]


class TestFactor:
    def test_quadratics_at_a_large_good_prime(self):
        # the discriminant of g is divisible by every odd prime below
        # 1000, so its least good prime is 1009; a search over all monic
        # quadratics mod 1009 took seconds, and the split kernel takes
        # milliseconds
        P = math.prod(sieve_primes(1000)[1:])
        q = X * X + RatPoly([1006, 1008])
        g = q * q.shift_arg(-P)
        assert polyq._good_prime(g.to_integer()[0])[0] == 1009
        t0 = time.monotonic()
        ff = factor(g)
        assert time.monotonic() - t0 < 1.0
        assert ff.is_certified
        assert {(f.poly, f.multiplicity) for f in ff.factors} == \
            {(q, 1), (q.shift_arg(-P), 1)}

    def test_quadratic_split(self):
        ff = factor(RatPoly([6, 0, -5, 0, 1]))
        assert ff.is_certified
        polys = sorted(str(f.poly) for f in ff.factors)
        assert polys == ["x^2 - 2", "x^2 - 3"]
        assert ff.expand() == RatPoly([6, 0, -5, 0, 1])

    def test_multiplicities(self):
        p = (X + ONE) ** 2 * (X - RatPoly([2]))
        ff = factor(p)
        by_mult = {str(f.poly): f.multiplicity for f in ff.factors}
        assert by_mult == {"x + 1": 2, "x - 2": 1}

    def test_unit_pulled_out(self):
        ff = factor(RatPoly([4, 0, 2]))  # 2x^2 + 4 = 2(x^2+2)
        assert ff.unit == 2
        assert [str(f.poly) for f in ff.factors] == ["x^2 + 2"]

    def test_irreducible_quartic_not_certified(self):
        ff = factor(X**4 - RatPoly([10]) * X * X + ONE)
        assert not ff.is_certified
        assert ff.expand() == X**4 - RatPoly([10]) * X * X + ONE

    def test_constant(self):
        ff = factor(RatPoly([Fraction(3, 2)]))
        assert ff.unit == Fraction(3, 2) and ff.factors == ()

    @given(st.lists(st.integers(-6, 6), min_size=1, max_size=3),
           st.integers(1, 2))
    @settings(max_examples=40, deadline=None)
    def test_linear_products_recover(self, roots, rep):
        p = ONE
        for r in roots:
            p = p * (X - RatPoly([r])) ** rep
        ff = factor(p)
        assert ff.is_certified
        assert ff.expand() == p


# -- two-factor Hensel lifting with Bézout cofactors (Zassenhaus), the
# quadratic lift that Newton's iteration in (Z/p^k)[t]/(u) replaced --


def _oracle_add(a, b, p):
    out = [0] * max(len(a), len(b))
    for i, v in enumerate(a):
        out[i] = v
    for i, v in enumerate(b):
        out[i] = (out[i] + v) % p
    return _fp.trim(out)


def _oracle_xgcd(a, b, p):
    """(g, s, t) with s*a + t*b = g, g monic."""
    r0, r1 = list(a), list(b)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _fp.divmod_(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _fp.sub(s0, _fp.mul(q, s1, p), p)
        t0, t1 = t1, _fp.sub(t0, _fp.mul(q, t1, p), p)
    if not r0:
        return [], s0, t0
    inv = pow(r0[-1], -1, p)
    return _fp.scale(r0, inv, p), _fp.scale(s0, inv, p), \
        _fp.scale(t0, inv, p)


def _oracle_add_shifted(base, delta, pk, newmod):
    out = list(base)
    for i, d in enumerate(delta):
        if i < len(out):
            out[i] = (out[i] + pk * d) % newmod
        else:
            out.append((pk * d) % newmod)
    while out and out[-1] == 0:
        out.pop()
    return out


def oracle_hensel_quadratic(H, u, p, bound):
    """Hensel-lift the candidate quadratic u (mod p) against H and test
    exact integer division.  Returns the integer quadratic or None."""
    v, r = _fp.divmod_(_fp.from_int_coeffs(H, p), u, p)
    if r:
        return None
    g, s, t = _oracle_xgcd(u, v, p)
    if _fp.deg(g) != 0:
        return None  # not coprime mod p; cannot lift this pair cleanly
    # s*u + t*v = 1 (mod p)
    pk = p
    target = 2 * bound + 1
    U = [c % p for c in u]
    V = [c % p for c in v]
    while pk < target:
        newmod = pk * p
        # defect E = (H - U*V) / pk (mod p); H = U*V (mod pk), so the
        # product is only needed mod pk*p
        prod = _fp.mul(U, V, newmod)
        E = [0] * max(len(H), len(prod))
        for i, c in enumerate(H):
            E[i] = c
        for i, c in enumerate(prod):
            E[i] -= c
        E = [(c // pk) % p for c in E]
        while E and E[-1] == 0:
            E.pop()
        # correction: du = (t*E mod u); dv = s*E + (t*E div u)*v (mod p)
        tE = _fp.mul(t, E, p)
        qq, du = _fp.divmod_(tE, u, p)
        dv = _oracle_add(_fp.mul(s, E, p), _fp.mul(qq, v, p), p)
        U = _oracle_add_shifted(U, du, pk, newmod)
        V = _oracle_add_shifted(V, dv, pk, newmod)
        pk = newmod
    # symmetric representatives
    cand = [c if c <= pk // 2 else c - pk for c in U]
    if len(cand) != 3 or cand[2] != 1:
        return None
    if max(abs(c) for c in cand) > bound:
        return None
    if polyq._int_divmod(H, cand)[1]:
        return None
    return cand


@st.composite
def square_free_products(draw):
    """The integer coefficients of a monic square-free product of 2-4
    linear and quadratic factors, at least one of them quadratic."""
    factors = [[draw(st.integers(-10 ** 6, 10 ** 6)),
                draw(st.integers(-30, 30)), 1]]
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            factors.append([draw(st.integers(-40, 40)), 1])
        else:
            factors.append([draw(st.integers(-10 ** 6, 10 ** 6)),
                            draw(st.integers(-30, 30)), 1])
    p = RatPoly([1])
    for f in factors:
        p = p * RatPoly(f)
    assume(poly_gcd(p, p.derivative()).degree == 0)
    return [int(c) for c in p.coeffs]


class TestQuadraticLiftDifferential:
    def test_matches_the_hensel_oracle_on_every_candidate(self):
        seen = set()

        @given(square_free_products())
        @settings(max_examples=300, deadline=None, derandomize=True)
        def check(H):
            p, Hp = polyq._good_prime(H)
            roots = _fp.roots(Hp, p)
            candidates = _fp.split(Hp, 2, p) + [
                _fp.mul([-a % p, 1], [-b % p, 1], p)
                for a, b in itertools.combinations(roots, 2)]
            bound = polyq._quadratic_coeff_bound(H)
            seen.add(p)
            for u in candidates:
                got = polyq._lift_quadratic(H, u, p, bound)
                assert got == oracle_hensel_quadratic(H, u, p, bound), u
                if got is not None:
                    seen.add("split" if _fp.roots(u, p) else "irreducible")

        check()
        assert {3, 5, "split", "irreducible"} <= seen, seen


class TestIntDiscriminant:
    """The fraction-free discriminant against sympy.discriminant."""

    @staticmethod
    def _sympy(c):
        return sympy.discriminant(sympy.Poly(list(reversed(c)), x))

    def test_low_degrees(self):
        for c in ([5], [-3], [1, 1], [7, -4], [0, 6]):
            assert int_discriminant(c) == self._sympy(c)
        assert int_discriminant([5]) == 0 and int_discriminant([7, -4]) == 1

    def test_non_primitive_and_repeated(self):
        for c in ([6, 10, 4], [-12, 0, 18, 0, 6], [0, 0, 9, 3],
                  [4, 4, 1], [-8, 12, -6, 1]):
            assert int_discriminant(c) == self._sympy(c)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-30, 30), max_size=7),
           st.integers(-30, 30).filter(bool))
    def test_matches_sympy(self, low, lead):
        c = low + [lead]
        assert int_discriminant(c) == self._sympy(c)


class TestIntValues:
    """The forward-difference evaluator against Horner's int_eval."""

    BIG = 10 ** 40 + 7

    @pytest.mark.parametrize("d", range(5))
    def test_matches_horner(self, d):
        for c in ([-3 - 2 * i for i in range(d)] + [-1],
                  [(-1) ** i * (self.BIG + i) for i in range(d + 1)],
                  [0] * d + [-self.BIG]):
            for n in (0, 1, d, d + 1, 1000):
                got = list(islice(int_values(c, n), 60))
                assert got == [int_eval(c, n + i) for i in range(60)], (c, n)
            got = list(islice(int_values(c, 0), 1001))
            assert got == [int_eval(c, m) for m in range(1001)], c

    def test_negative_start_and_zero_polynomial(self):
        c = [5, -7, 0, 2]
        assert list(islice(int_values(c, -9), 30)) == \
            [int_eval(c, m) for m in range(-9, 21)]
        assert list(islice(int_values([], 4), 3)) == [0, 0, 0]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(-10 ** 25, 10 ** 25), min_size=1, max_size=6),
           st.integers(-50, 2000))
    def test_random(self, c, start):
        got = list(islice(int_values(c, start), 40))
        assert got == [int_eval(c, start + i) for i in range(40)]


class TestRadical:
    def test_squares_dropped(self):
        p = (X + ONE) ** 2 * X ** 3
        assert radical(p) == X * (X + ONE)

    def test_squarefree_unchanged_up_to_monic(self):
        p = RatPoly([2]) * (X + ONE) * (X + RatPoly([3]))
        assert radical(p) == (X + ONE) * (X + RatPoly([3]))


class TestRationalFunction:
    def test_call_and_expand(self):
        q = RationalFunction(2, [(X + ONE, 1)], [(X + RatPoly([2]), 1)])
        assert q(1) == Fraction(4, 3)

    def test_str_mentions_factors(self):
        q = RationalFunction(Fraction(3, 2), [(X + ONE, 1)], [(X, 2)])
        s = str(q)
        assert "3/2" in s and "(x + 1)" in s and "(x)^2" in s
