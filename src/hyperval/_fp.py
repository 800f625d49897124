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


def frobenius_gcd(a: list[int], q: int, p: int) -> list[int]:
    """gcd(a, x^q − x) for the nonzero list a, by one pow_mod: for
    q = p^d, the product of the distinct monic irreducible factors of a
    whose degree divides d."""
    return gcd(a, sub(pow_mod([0, 1], q, a, p), [0, 1], p), p)


def split(a: list[int], d: int, p: int) -> list[list[int]]:
    """The distinct monic irreducible factors of degree d ∈ {1, 2} of the
    nonzero list a, ascending; p an odd prime.

    g = gcd(a, x^(p^d) − x), with the linear part divided out for d = 2,
    is split by gcd(g, (x+δ)^((p^d−1)/2) − 1) for δ = 0, 1, ….  A
    factor q with a root α lands in that gcd exactly when the norm of
    α + δ, (−1)^d·q(−δ), is a nonzero square mod p.  Two roots r₁ ≠ r₂ are
    separated at some δ < p, since the (p−1)/2 nonzero squares are not
    invariant under translation by r₂ − r₁.  Two irreducible quadratics
    q₁ ≠ q₂ are separated at some δ < p, since Weil's bound
    |Σ_δ χ(q₁(−δ)·q₂(−δ))| ≤ 3√p is below p for p ≥ 11, and the tests
    check p ∈ {3, 5, 7} exhaustively.  So δ stays below p, and the split
    is deterministic.
    """
    g = frobenius_gcd(a, p, p)
    if d == 2:
        g = divmod_(frobenius_gcd(a, p * p, p), g, p)[0]
    out: list[list[int]] = []
    _split_equal_degree(g, d, p, 0, out)
    return sorted(out, key=lambda q: q[::-1])


def _split_equal_degree(g: list[int], d: int, p: int, delta: int,
                        out: list[list[int]]) -> None:
    # the factors of g agree at every shift below delta, so each piece
    # resumes the search where its parent found the split
    e = (p**d - 1) // 2
    while deg(g) > d:
        h = gcd(g, sub(pow_mod([delta, 1], e, g, p), [1], p), p)
        delta += 1
        if 0 < deg(h) < deg(g):
            _split_equal_degree(h, d, p, delta, out)
            g = divmod_(g, h, p)[0]
    if deg(g) == d:
        out.append(g)


def roots(a: list[int], p: int) -> list[int]:
    """The distinct roots of the nonzero list a in the p-element field,
    ascending: a two-point check at p = 2, else the linear factors that
    split finds."""
    if p == 2:
        return [x for x in (0, 1) if eval_at(a, x, p) == 0]
    return sorted(-q[0] % p for q in split(a, 1, p))


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
