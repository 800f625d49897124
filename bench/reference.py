"""Naive reference answers, written without hyperval.

Every function here recomputes what the benchmark checks a hyperval
answer against, by the plainest method that is still cheap enough to
run once per benchmark run: Fraction products term by term, Legendre's
formula, a plain sieve, Cipolla square roots and sorting.  Nothing in
this module imports the package under test.
"""

from __future__ import annotations

import math
import zlib
from fractions import Fraction
from typing import Any, Iterable, Iterator, Optional, Sequence

Coeffs = Sequence[Fraction]  # lowest degree first


def horner(coeffs: Coeffs, x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def terms(f: Coeffs, g: Coeffs, u0: Fraction) -> Iterator[Fraction]:
    """u₀, u₁, … with uₙ = uₙ₋₁·g(n)/f(n), one Fraction product per step."""
    u = Fraction(u0)
    yield u
    m = 0
    while True:
        m += 1
        u = u * horner(g, m) / horner(f, m)
        yield u


def term(f: Coeffs, g: Coeffs, u0: Fraction, n: int) -> Fraction:
    for i, u in enumerate(terms(f, g, u0)):
        if i == n:
            return u
    raise AssertionError("unreachable")


def height(u: Fraction) -> int:
    """max(|num|, den) of a reduced fraction."""
    return max(abs(u.numerator), u.denominator)


def int_val(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def clear_denominators(coeffs: Coeffs) -> tuple[list[int], int]:
    """(C, D) with poly = C/D and C an integer coefficient list."""
    d = 1
    for c in coeffs:
        d = d * c.denominator // math.gcd(d, c.denominator)
    return [int(c * d) for c in coeffs], d


def valuations(f: Coeffs, g: Coeffs, u0: Fraction, p: int,
               n_max: int) -> list[int]:
    """[ν_p(u₀), …, ν_p(u_{n_max})] from integer values of f and g."""
    F, DF = clear_denominators(f)
    G, DG = clear_denominators(g)
    shift = int_val(DF, p) - int_val(DG, p)
    v = int_val(u0.numerator, p) - int_val(u0.denominator, p)
    out = [v]
    for m in range(1, n_max + 1):
        gm = sum(c * m**i for i, c in enumerate(G))
        fm = sum(c * m**i for i, c in enumerate(F))
        if gm == 0:
            raise ValueError("the sequence reaches zero")
        v += int_val(gm, p) - int_val(fm, p) + shift
        out.append(v)
    return out


def factorial_v2(n: int) -> int:
    """Legendre's formula ν₂(n!) = n − s₂(n)."""
    return n - bin(n).count("1")


def primes_upto(limit: int) -> list[int]:
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i::i] = bytes(len(range(i * i, limit + 1, i)))
    return [i for i in range(limit + 1) if flags[i]]


def sqrt_mod(a: int, p: int) -> int:
    """A square root of a quadratic residue a mod an odd prime (Cipolla)."""
    a %= p
    if a == 0:
        return 0
    t = 0
    while pow((t * t - a) % p, (p - 1) // 2, p) != p - 1:
        t += 1
    w = (t * t - a) % p
    # (t + √w)^((p+1)/2) in F_p[√w]
    rx, ry = 1, 0
    bx, by = t, 1
    e = (p + 1) // 2
    while e:
        if e & 1:
            rx, ry = (rx * bx + ry * by * w) % p, (rx * by + ry * bx) % p
        bx, by = (bx * bx + by * by * w) % p, (2 * bx * by) % p
        e >>= 1
    return rx


def mod_rep(r: Fraction, p: int) -> int:
    return r.numerator * pow(r.denominator, -1, p) % p


def split_samples(delta: int, primes: Iterable[int], r: Fraction,
                  s: Fraction) -> tuple[list[tuple[int, int]], int]:
    """(rep, p) for both signs of r ± s√delta over split odd primes."""
    out, skipped = [], 0
    for p in primes:
        if p == 2 or pow(delta % p, (p - 1) // 2, p) != 1:
            continue
        if r.denominator % p == 0 or s.denominator % p == 0:
            skipped += 1
            continue
        root = sqrt_mod(delta, p)
        base, offs = mod_rep(r, p), mod_rep(s, p) * root % p
        out.append(((base + offs) % p, p))
        out.append(((base - offs) % p, p))
    return out, skipped


def star_discrepancy(samples: Sequence[tuple[int, int]]) -> Fraction:
    """Exact D* of the points rep/p, sorting by float and checking order.

    Denominators are below 2^31, so distinct points differ by more than
    a double's rounding; the order is re-checked exactly anyway.
    """
    pts = sorted(samples, key=lambda rp: rp[0] / rp[1])
    for (a, p), (b, q) in zip(pts, pts[1:]):
        if a * q > b * p:
            raise AssertionError("float order disagrees with exact order")
    n = len(pts)
    best_num, best_den = 0, 1
    for i, (rep, p) in enumerate(pts, start=1):
        # i/n − rep/p and rep/p − (i−1)/n over the common denominator n·p
        for num in (i * p - rep * n, rep * n - (i - 1) * p):
            if num * best_den > best_num * n * p:
                best_num, best_den = num, n * p
    return Fraction(best_num, best_den)


def equidistribution(delta: int, q: int, a: int, r: Fraction, s: Fraction,
                     p_limit: int, bins: int) -> tuple[int, int, list[float], float]:
    """(samples, skipped, bin frequencies, star discrepancy)."""
    primes = [p for p in primes_upto(p_limit) if p % q == a % q]
    samples, skipped = split_samples(delta, primes, r, s)
    counts = [0] * bins
    for rep, p in samples:
        counts[rep * bins // p] += 1
    k = len(samples)
    return k, skipped, [c / k for c in counts], float(star_discrepancy(samples))


def window_count(delta: int, q: int, a: int, r: Fraction, s: Fraction, N: int,
                 window: float, alpha: Fraction, beta: Fraction) -> int:
    hi = int(N * (1 + window))
    primes = [p for p in primes_upto(hi) if N <= p < hi and p % q == a % q]
    samples, _ = split_samples(delta, primes, r, s)
    return len({p for rep, p in samples if alpha * p <= rep < beta * p})


def legendre(d: int, p: int) -> int:
    v = pow(d % p, (p - 1) // 2, p)
    return -1 if v == p - 1 else v


def condition_prime(discs: Sequence[int], delta: int,
                    p_max: int) -> tuple[Optional[int], int]:
    """(smallest odd p coprime to every Δ with (delta/p) = 1 and (Δ′/p) = −1
    for the others, candidates examined) by a direct scan."""
    others = [d for d in discs if d != delta]
    tested = 0
    for p in primes_upto(p_max):
        if p == 2 or any(d % p == 0 for d in discs):
            continue
        tested += 1
        if legendre(delta, p) == 1 and all(legendre(d, p) == -1 for d in others):
            return p, tested
    return None, tested


def decimal(n: int) -> str:
    """str(n) for integers of any length, without the interpreter's
    int-to-str digit limit (divide and conquer on powers of ten)."""
    if n < 0:
        return "-" + decimal(-n)
    if n < 10**1000:
        return str(n)
    k = (n.bit_length() * 3 // 10) // 2  # about half the digit count
    hi, lo = divmod(n, 10**k)
    return decimal(hi) + decimal(lo).rjust(k, "0")


def fraction_text(u: Fraction) -> str:
    """str(Fraction) for any size."""
    if u.denominator == 1:
        return decimal(u.numerator)
    return f"{decimal(u.numerator)}/{decimal(u.denominator)}"


def _encode(x: Any) -> str:
    if isinstance(x, bool) or x is None:
        return repr(x)
    if isinstance(x, int):
        return hex(x)  # no int-to-str digit limit
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, Fraction):
        return f"{x.numerator:x}/{x.denominator:x}"
    if isinstance(x, str):
        return repr(x)
    if isinstance(x, (tuple, list)):
        return "(" + ",".join(_encode(y) for y in x) + ")"
    raise TypeError(f"cannot digest {type(x).__name__}")


def digest(items: Iterable[Any]) -> tuple[int, int, int]:
    """(item count, encoded length, CRC-32) of a stream of ints, floats,
    Fractions, strings and tuples of them: a compact stand-in for a long
    answer.  A checksum rather than hashlib, whose import alone would add
    megabytes to the peak RSS the benchmark reports."""
    n = length = crc = 0
    for x in items:
        data = _encode(x).encode() + b"\n"
        crc = zlib.crc32(data, crc)
        length += len(data)
        n += 1
    return n, length, crc
