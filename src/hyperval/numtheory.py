"""Integer and rational primitives.

Primality testing, Legendre symbols, modular square roots, square-free
parts, p-adic valuations, Weil heights of rationals, and the primes:
one list (sieve_primes) and one lazy segmented walk (iter_primes), the
source of every prime range in the library.  The walk sieves at most
2^20 numbers at once and refuses, with UnsupportedInput, a segment
whose base primes would pass 2^22, so it never allocates a sieve it
cannot hold.  require_prime is the one check that a caller's p is
prime; the mod-p kernels below it (euler_criterion, tonelli_shanks)
trust their p.  is_prime is a proof below PROVED_PRIME_LIMIT = 2^64 and
probabilistic above it.  Everything here is exact: rationals are
``fractions.Fraction`` (already reduced, positive denominator), and the
p-adic valuation of zero is :data:`INFINITY` (``math.inf``), never a
sentinel integer.

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain, compress
from typing import Iterator, Union

from .errors import BadPrime, NonResidue, UnsupportedInput

Rational = Fraction

# Deterministic Miller-Rabin witness set: correct for all n < 3.3 * 10^24,
# which covers the full 64-bit range with room to spare.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_TRIAL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_RANDOM_ROUNDS = 64  # error probability below 4**-64 = 2**-128
PROVED_PRIME_LIMIT = 1 << 64  # is_prime is a proof below this, not above

INFINITY = math.inf  # the valuation of zero

Valuation = Union[int, float]  # an int, or INFINITY


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin below 2**64; 64 fixed-seed pseudo-random
    rounds above that (error probability under 2**-128)."""
    if n < 2:
        return False
    for p in _TRIAL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def witness(a: int) -> bool:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            return False
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                return False
        return True

    if n < PROVED_PRIME_LIMIT:
        return not any(witness(a) for a in _MR_BASES)
    # Above 64 bits: deterministic sequence of bases derived from n so the
    # answer is reproducible run to run.
    seed = n
    for _ in range(_RANDOM_ROUNDS):
        seed = (seed * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        a = 2 + seed % (n - 3)
        if witness(a):
            return False
    return True


def require_prime(p: int) -> None:
    """Raise BadPrime unless p is prime: the one primality check, made
    where a caller's p enters the library."""
    if not is_prime(p):
        raise BadPrime(f"{p} is not prime")


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) in {-1, 0, 1}; p must be an odd prime."""
    require_prime(p)
    if p == 2:
        raise BadPrime(f"legendre symbol needs an odd prime, got {p}")
    return euler_criterion(a, p)


def euler_criterion(a: int, p: int) -> int:
    """(a/p) as a^((p-1)/2) mod p, in {-1, 0, 1}; p an odd prime, not
    re-tested."""
    ls = pow(a, (p - 1) // 2, p)
    return -1 if ls == p - 1 else ls


def sqrt_mod(a: int, p: int) -> int:
    """Tonelli-Shanks square root of a modulo an odd prime p.

    Returns the representative D with 0 < D < p/2 (exactly one of the two
    roots lies below p/2 since p is odd).  Raises NonResidue when a is a
    non-residue or p divides a.
    """
    ls = legendre(a, p)
    if ls == 0:
        raise NonResidue(f"{a} is divisible by {p}")
    if ls == -1:
        raise NonResidue(f"{a} is not a quadratic residue mod {p}")
    return tonelli_shanks(a % p, p)


def tonelli_shanks(a: int, p: int) -> int:
    """The root D < p/2 of D^2 = a mod p, for a nonzero quadratic residue
    a in [1, p); p an odd prime, not re-tested."""
    if p % 4 == 3:
        x = pow(a, (p + 1) // 4, p)
    else:
        # write p - 1 = q * 2^s with q odd
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = 2
        while euler_criterion(z, p) != -1:
            z += 1
        m, c, t, x = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
        while t != 1:
            i, t2 = 0, t
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            m, c = i, b * b % p
            t, x = t * c % p, x * b % p
    return x if 2 * x < p else p - x


def factorize(n: int) -> dict[int, int]:
    """Full prime factorization of |n| as {prime: exponent}.

    Trial division up to 10**4, then Brent's cycle-finding with recursive
    splitting.  Deterministic.  n must be nonzero; the sign is dropped.
    """
    n = abs(n)
    if n == 0:
        raise ValueError("cannot factor 0")
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 7
    increments = (4, 2, 4, 2, 4, 6, 2, 6)  # wheel mod 30
    i = 0
    while f * f <= n and f < 10_000:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += increments[i % 8]
        i += 1
    if n == 1:
        return out
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _brent_rho(m)
        stack.append(d)
        stack.append(m // d)
    return out


def _brent_rho(n: int) -> int:
    """A nontrivial factor of composite n (Brent's variant of Pollard rho)."""
    if n % 2 == 0:
        return 2
    c = 1
    while True:
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
        c += 1  # rare; retry with a different polynomial


def squarefree_part(r: Rational | int) -> int:
    """The square-free integer d with r = q**2 * d for rational q.

    Carries the sign of r; by convention the square-free part of 0 is 1.
    For a fraction a/b this equals the square-free part of a*b.
    """
    r = Fraction(r)
    if r == 0:
        return 1
    n = r.numerator * r.denominator
    sign = -1 if n < 0 else 1
    d = 1
    for p, e in factorize(n).items():
        if e % 2:
            d *= p
    return sign * d


def padic_valuation(r: Rational | int, p: int) -> Valuation:
    """nu_p(r): exponent of the prime p in r, INFINITY for r = 0."""
    require_prime(p)
    return fraction_valuation(Fraction(r), p)


def fraction_valuation(r: Fraction, p: int) -> Valuation:
    """nu_p(r) of a Fraction r, INFINITY for r = 0; p prime, not
    re-tested."""
    if r == 0:
        return INFINITY
    return int_valuation(r.numerator, p) - int_valuation(r.denominator, p)


def int_valuation(n: int, p: int) -> int:
    """Exponent of p in the nonzero integer n."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def reduced_fraction(num: int, den: int) -> Fraction:
    """The Fraction num/den from a pair already in lowest terms with
    den > 0, built without Fraction's gcd; the pair is not re-checked."""
    r = object.__new__(Fraction)
    r._numerator = num
    r._denominator = den
    return r


def mod_rep(r: Rational | int, p: int) -> int:
    """The representative of r in {0, ..., p-1}; requires p prime to the
    denominator of r."""
    if not isinstance(r, (int, Fraction)):  # both are in lowest terms
        r = Fraction(r)
    if r.denominator % p == 0:
        raise BadPrime(f"denominator of {r} is divisible by {p}")
    return r.numerator * pow(r.denominator, -1, p) % p


def weil_height_exact(r: Rational | int) -> int:
    """The loss-free form of the height: max(|a|, |b|) for r = a/b reduced.

    Heights multiply/compare exactly at this level, e.g. the product rule
    reads H(r*s) <= H(r)*H(s) and h = log H.
    """
    r = Fraction(r)
    return max(abs(r.numerator), r.denominator)


_SEGMENT = 1 << 20  # the longest segment iter_primes sieves at once
_MAX_BASE_PRIME = 1 << 22  # iter_primes serves primes below 2^44


def sieve_primes(limit: int) -> list[int]:
    """All primes <= limit, by Eratosthenes."""
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return list(compress(range(limit + 1), flags))


def iter_primes(lo: int, hi: int) -> Iterator[int]:
    """The primes in [lo, hi], ascending, sieved lazily in segments that
    double in length up to _SEGMENT: a caller that stops at p has sieved
    up to about 2p, not up to hi.

    UnsupportedInput once a segment would need base primes past
    _MAX_BASE_PRIME (primes past 2^44), raised when the walk gets there.
    """
    return chain.from_iterable(_prime_segments(max(lo, 2), hi))


def _prime_segments(lo: int, hi: int) -> Iterator[Iterator[int]]:
    while lo <= hi:
        end = min(hi + 1, max(2 * lo, lo + 64), lo + _SEGMENT)  # [lo, end)
        root = math.isqrt(end - 1)
        if root > _MAX_BASE_PRIME:
            raise UnsupportedInput(
                "the prime walk stops below 2^44: this segment needs base "
                f"primes above {_MAX_BASE_PRIME}")
        flags = bytearray([1]) * (end - lo)
        for q in sieve_primes(root):
            start = max(q * q, -(-lo // q) * q) - lo
            flags[start::q] = bytes(len(range(start, end - lo, q)))
        yield compress(range(lo, end), flags)
        lo = end
