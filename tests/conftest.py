from fractions import Fraction
from functools import cache

import pytest

from hyperval.hyperseq import make_sequence
from hyperval.numtheory import require_prime
from hyperval.padic import is_squarefree_mod_p, reduce_mod_p
from hyperval.polyq import RatPoly, X, radical

ONE = RatPoly([1])


def seq(f, g, u0=1):
    return make_sequence(f, g, Fraction(u0))


@cache
def _radical_fg(seq):
    return radical(seq.f * seq.g)


def polynomial_usable_prime(seq, p):
    """usable_prime by polynomial arithmetic mod p, the reference for the
    RootPlan's integer gate: p off every coefficient denominator and
    both leading coefficients, and the monic radical of f·g square-free
    mod p."""
    require_prime(p)
    for poly in (seq.f, seq.g):
        for c in poly.coeffs:
            if c.denominator % p == 0:
                return False
        if poly.leading.numerator % p == 0:
            return False
    # past these checks f·g is a p-unit times a monic p-integral
    # polynomial, so (Gauss's lemma) its monic radical is p-integral:
    # of is_hensel_prime's tests only square-freeness is left to make
    return is_squarefree_mod_p(reduce_mod_p(_radical_fg(seq), p), p)


@pytest.fixture(scope="session")
def factorial():
    """u_n = n!"""
    return seq(ONE, X)


@pytest.fixture(scope="session")
def telescoping():
    """u_n = 2/(n+2)"""
    return seq(X + RatPoly([2]), X + ONE)


@pytest.fixture(scope="session")
def sq_pair():
    """f = x^2-2, g = x^2-3: root counts differ at half the primes."""
    return seq(X * X - RatPoly([2]), X * X - RatPoly([3]))


@pytest.fixture(scope="session")
def class_c_seq():
    """f = x^2-2x-1 (roots 1±√2), g = x^2-3."""
    return seq(X * X - RatPoly([0, 2]) - ONE, X * X - RatPoly([3]))


@pytest.fixture(scope="session")
def geometric():
    """u_n = 2^n"""
    return seq(ONE, RatPoly([2]))


@pytest.fixture(scope="session")
def twin_field():
    """f = x^2-2, g = x^2-8: same square-free part, matched everywhere."""
    return seq(X * X - RatPoly([2]), X * X - RatPoly([8]))


@pytest.fixture(scope="session")
def catalan():
    """(n+1)u_n = (4n-2)u_{n-1}: the Catalan numbers."""
    return seq(X + ONE, RatPoly([-2, 4]))


@pytest.fixture(scope="session")
def eventually_zero():
    """g(3) = 0, so u_n = 0 from n = 3 on."""
    return seq(X + ONE, X - RatPoly([3]))


@pytest.fixture(scope="session")
def fractional_coeffs():
    return seq(X + RatPoly([Fraction(1, 2)]), X + RatPoly([Fraction(1, 3)]))


@pytest.fixture(scope="session")
def double_root():
    """f = (x+1)^2 keeps two roots mod every odd prime; g = x^2+1 varies."""
    return seq((X + ONE) * (X + ONE), X * X + ONE)


@pytest.fixture(scope="session")
def sym_pair():
    """Root counts of f and g agree modulo every usable prime."""
    f = (X**4 - RatPoly([10]) * X * X + ONE) * X * X
    g = (X * X - RatPoly([2])) * (X * X - RatPoly([3])) * (X * X - RatPoly([6]))
    return seq(f, g)


@pytest.fixture(scope="session")
def mixed_degree():
    """f = x^2-2, g = x+1: asymmetric wherever 2 is a residue or not."""
    return seq(X * X - RatPoly([2]), X + ONE)


@pytest.fixture(scope="session")
def certified_corpus(factorial, sq_pair, class_c_seq, double_root,
                     mixed_degree):
    """Sequences that admit an asymmetric-prime certificate."""
    return {
        "factorial": factorial,
        "sq_pair": sq_pair,
        "class_c_seq": class_c_seq,
        "double_root": double_root,
        "mixed_degree": mixed_degree,
    }
