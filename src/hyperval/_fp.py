"""Dense polynomial arithmetic over GF(p).

Polynomials are plain lists of ints in [0, p), little-endian (index =
degree), with no trailing zeros; [] is the zero polynomial.  Kept
deliberately low-level: callers pass p explicitly and lists are never
aliased back to the caller.
"""

from __future__ import annotations


def trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def deg(c: list[int]) -> int:
    return len(c) - 1


def add(a: list[int], b: list[int], p: int) -> list[int]:
    n = max(len(a), len(b))
    out = [0] * n
    for i, x in enumerate(a):
        out[i] = x
    for i, x in enumerate(b):
        out[i] = (out[i] + x) % p
    return trim(out)


def sub(a: list[int], b: list[int], p: int) -> list[int]:
    n = max(len(a), len(b))
    out = [0] * n
    for i, x in enumerate(a):
        out[i] = x
    for i, x in enumerate(b):
        out[i] = (out[i] - x) % p
    return trim(out)


def scale(a: list[int], k: int, p: int) -> list[int]:
    k %= p
    return trim([x * k % p for x in a])


def mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return trim(out)


def divmod_(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    r = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    inv_lc = pow(b[-1], -1, p)
    db = len(b) - 1
    while len(r) - 1 >= db and r:
        k = len(r) - 1 - db
        coef = r[-1] * inv_lc % p
        q[k] = coef
        for i, x in enumerate(b):
            r[k + i] = (r[k + i] - coef * x) % p
        trim(r)
    return trim(q), r


def rem(a: list[int], b: list[int], p: int) -> list[int]:
    return divmod_(a, b, p)[1]


def monic(a: list[int], p: int) -> list[int]:
    if not a:
        return []
    return scale(a, pow(a[-1], -1, p), p)


def gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = list(a), list(b)
    while b:
        a, b = b, rem(a, b, p)
    return monic(a, p)


def xgcd(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int], list[int]]:
    """(g, s, t) with s*a + t*b = g, g monic."""
    r0, r1 = list(a), list(b)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = divmod_(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, sub(s0, mul(q, s1, p), p)
        t0, t1 = t1, sub(t0, mul(q, t1, p), p)
    if not r0:
        return [], s0, t0
    inv = pow(r0[-1], -1, p)
    return scale(r0, inv, p), scale(s0, inv, p), scale(t0, inv, p)


def pow_mod(base: list[int], e: int, modpoly: list[int], p: int) -> list[int]:
    """base**e reduced mod modpoly, by binary exponentiation."""
    result = [1]
    b = rem(base, modpoly, p)
    while e > 0:
        if e & 1:
            result = rem(mul(result, b, p), modpoly, p)
        b = rem(mul(b, b, p), modpoly, p)
        e >>= 1
    return result


def eval_at(a: list[int], x: int, p: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % p
    return acc


def roots(a: list[int], p: int) -> list[int]:
    """The distinct roots of the nonzero list a in the p-element field, by
    a direct scan."""
    return [x for x in range(p) if eval_at(a, x, p) == 0]


def lift_root(c: list[int], r: int, p: int, prec: int, k: int) -> int:
    """The root mod p^k, congruent to r, of the integer polynomial c,
    where r is a root mod p^prec (prec ≤ k) that is simple mod p.

    Newton's iteration with doubling precision; p prime and r simple,
    neither re-tested.
    """
    d = [i * a for i, a in enumerate(c)][1:]
    while prec < k:
        prec = min(2 * prec, k)
        mod = p**prec
        r = (r - eval_at(c, r, mod) * pow(eval_at(d, r, mod), -1, mod)) % mod
    return r


def derivative(a: list[int], p: int) -> list[int]:
    return trim([i * c % p for i, c in enumerate(a)][1:])


def from_int_coeffs(coeffs, p: int) -> list[int]:
    return trim([c % p for c in coeffs])
