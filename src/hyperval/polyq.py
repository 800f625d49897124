"""Exact univariate polynomials over the rationals.

:class:`RatPoly` is a dense immutable polynomial with Fraction
coefficients (index = degree; the zero polynomial has no coefficients and
degree -1).  On top of it this module provides gcd, square-free
decomposition, a factoring pipeline certified complete whenever every
irreducible factor has degree at most 2, fraction-free discriminants,
integer-shift detection, factored rational functions, and the
expression grammar that ``str(RatPoly)`` writes (:func:`parse_poly`,
:func:`parse_rational`).

Factoring strategy: strip powers of x, run Yun's square-free
decomposition, make each part monic with integer coefficients, then
work at one good prime p, the least odd prime that keeps the part
square-free and of full degree.  The part is split mod p once, by the
deterministic kernel _fp.split (no residue scan, no search over
quadratics): integer roots are its roots mod p lifted by Newton's
iteration and tested exactly, and monic quadratic factors are its
irreducible quadratic factors and pairs of its roots mod p, lifted by
the same Newton's iteration run in (Z/p^k)[t]/(u) and tested by exact
division.  No integer is factored.
Residual factors of degree >= 3 are returned opaque and flagged not
certified irreducible; degree <= 2 factors are always certified (a
monic integer quadratic with no integer root is irreducible).  A
sequence factors f and g once, when it is built (hyperseq.make_sequence),
and everything downstream reads those tables.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Iterable, Iterator, Optional, Sequence

from . import _fp
from .errors import PolyParseError
from .numtheory import Rational, is_prime

class RatPoly:
    """Immutable dense polynomial over Q. Coefficients little-endian."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: Iterable[Rational | int | str] = ()):
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self._c = tuple(cs)

    # -- basic structure ------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._c

    @property
    def degree(self) -> int:
        return len(self._c) - 1

    @property
    def is_zero(self) -> bool:
        return not self._c

    @property
    def leading(self) -> Fraction:
        if not self._c:
            raise ValueError("zero polynomial has no leading coefficient")
        return self._c[-1]

    @property
    def is_monic(self) -> bool:
        return bool(self._c) and self._c[-1] == 1

    def coeff(self, i: int) -> Fraction:
        return self._c[i] if 0 <= i < len(self._c) else Fraction(0)

    def __bool__(self):
        return bool(self._c)

    def __eq__(self, other):
        if isinstance(other, RatPoly):
            return self._c == other._c
        if isinstance(other, (int, Fraction)):
            return self == RatPoly([other])
        return NotImplemented

    def __hash__(self):
        return hash(self._c)

    def __repr__(self):
        return f"RatPoly({self})"

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        n = max(len(self._c), len(other._c))
        return RatPoly(
            [self.coeff(i) + other.coeff(i) for i in range(n)]
        )

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return RatPoly([-c for c in self._c])

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if not self._c or not other._c:
            return RatPoly()
        out = [Fraction(0)] * (len(self._c) + len(other._c) - 1)
        for i, a in enumerate(self._c):
            if a:
                for j, b in enumerate(other._c):
                    out[i + j] += a * b
        return RatPoly(out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power of a polynomial")
        result = RatPoly([1])
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __divmod__(self, other):
        other = _coerce(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        r = list(self._c)
        q = [Fraction(0)] * max(len(r) - len(other._c) + 1, 0)
        db = other.degree
        lc = other.leading
        while len(r) - 1 >= db and r:
            if r[-1] == 0:
                r.pop()
                continue
            k = len(r) - 1 - db
            c = r[-1] / lc
            q[k] = c
            for i, b in enumerate(other._c):
                r[k + i] -= c * b
            r.pop()
        return RatPoly(q), RatPoly(r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __call__(self, x: Rational | int) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self._c):
            acc = acc * x + c
        return acc

    # -- structural operations ------------------------------------------

    def derivative(self) -> "RatPoly":
        return RatPoly([i * c for i, c in enumerate(self._c)][1:])

    def monic(self) -> "RatPoly":
        if self.is_zero or self._c[-1] == 1:
            return self
        lc = self.leading
        return RatPoly([c / lc for c in self._c])

    def shift_arg(self, d: Rational | int) -> "RatPoly":
        """p(x + d)."""
        d = Fraction(d)
        out = RatPoly()
        xd = RatPoly([d, 1])
        power = RatPoly([1])
        for c in self._c:
            out = out + power * c
            power = power * xd
        return out

    def scale_arg(self, c: Rational | int) -> "RatPoly":
        """p(c * x)."""
        if c == 1:
            return self
        c = Fraction(c)
        return RatPoly([a * c**i for i, a in enumerate(self._c)])

    def to_integer(self) -> tuple[list[int], int]:
        """(coeffs, L) with L > 0 minimal so that L * self has integer
        coefficients; returns those integer coefficients."""
        L = 1
        for c in self._c:
            L = L * c.denominator // math.gcd(L, c.denominator)
        return [int(c * L) for c in self._c], L

    def __str__(self):
        if not self._c:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeff(i)
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                xpart = "x" if i == 1 else f"x^{i}"
                body = xpart if mag == 1 else f"{mag}*{xpart}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text


def _coerce(v) -> RatPoly:
    if isinstance(v, RatPoly):
        return v
    if isinstance(v, (int, Fraction)):
        return RatPoly([v])
    raise TypeError(f"cannot use {v!r} as a polynomial")


X = RatPoly([0, 1])
ONE = RatPoly([1])


# -- the expression grammar that RatPoly.__str__ writes ----------------

MAX_EXPONENT = 10_000
ECHO_CAP = 40  # characters of a bad input an error message repeats
_OPS = set("+-*^()/")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) triples; kinds: int, x, op."""
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(("int", text[i:j], i))
            i = j
        elif ch == "x":
            out.append(("x", ch, i))
            i += 1
        elif ch in _OPS:
            out.append(("op", ch, i))
            i += 1
        else:
            raise PolyParseError(f"unexpected character {ch!r}", i)
    return out


class _PolyParser:
    """Recursive descent over +, -, *, ^ with parentheses.

    Rational literals are `int` or `int/int`; `^` takes a nonnegative
    integer literal; there is no implicit multiplication and `/` appears
    only inside rational literals.
    """

    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self) -> Optional[tuple[str, str, int]]:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise PolyParseError("unexpected end of expression", len(self.text))
        self.pos += 1
        return tok

    def expect_op(self, symbol: str) -> None:
        tok = self.take()
        if tok[0] != "op" or tok[1] != symbol:
            raise PolyParseError(f"expected {symbol!r}", tok[2])

    def parse(self) -> RatPoly:
        poly = self.expr()
        tok = self.peek()
        if tok is not None:
            raise PolyParseError(f"unexpected {_echo(tok[1])}", tok[2])
        return poly

    def expr(self) -> RatPoly:
        poly = self.term()
        while True:
            tok = self.peek()
            if tok and tok[0] == "op" and tok[1] in "+-":
                self.pos += 1
                rhs = self.term()
                poly = poly + rhs if tok[1] == "+" else poly - rhs
            else:
                return poly

    def term(self) -> RatPoly:
        poly = self.factor()
        while True:
            tok = self.peek()
            if tok and tok[0] == "op" and tok[1] == "*":
                self.pos += 1
                poly = poly * self.factor()
            else:
                return poly

    def factor(self) -> RatPoly:
        tok = self.peek()
        sign = 1
        while tok and tok[0] == "op" and tok[1] in "+-":
            if tok[1] == "-":
                sign = -sign
            self.pos += 1
            tok = self.peek()
        poly = self.atom()
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "^":
            self.pos += 1
            etok = self.take()
            if etok[0] != "int":
                raise PolyParseError(
                    "exponent must be a nonnegative integer literal", etok[2]
                )
            e = int(etok[1])
            if e > MAX_EXPONENT:
                raise PolyParseError(f"exponent overflow ({e} > {MAX_EXPONENT})",
                                     etok[2])
            poly = poly**e
        return poly if sign == 1 else -poly

    def atom(self) -> RatPoly:
        tok = self.take()
        kind, text, at = tok
        if kind == "int":
            value = Fraction(int(text))
            nxt = self.peek()
            if nxt and nxt[0] == "op" and nxt[1] == "/":
                self.pos += 1
                dtok = self.take()
                if dtok[0] != "int":
                    raise PolyParseError("denominator must be an integer",
                                         dtok[2])
                if int(dtok[1]) == 0:
                    raise PolyParseError("division by zero", dtok[2])
                value /= int(dtok[1])
            return RatPoly([value])
        if kind == "x":
            return X
        if kind == "op" and text == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise PolyParseError(f"unexpected {_echo(text)}", at)


def parse_poly(text: str) -> RatPoly:
    """Exact polynomial from an expression like `(x^2-2)*(x^2-3)`."""
    if not text.strip():
        raise PolyParseError("empty polynomial expression", 0)
    return _PolyParser(text).parse()


def parse_rational(text: str) -> Fraction:
    """Exact rational from `-3`, `5/2`, or similar."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise PolyParseError(f"not a rational number: {_echo(text, exc)}", 0)


def _echo(text: str, exc: Optional[Exception] = None) -> str:
    """Bad input quoted for an error message, with exc's message.

    An input of up to ECHO_CAP characters is quoted whole; a longer one
    by its first ECHO_CAP characters, '...' and its length, and exc by
    its type only, since the interpreter's message can repeat the input.
    """
    if len(text) <= ECHO_CAP:
        return repr(text) if exc is None else f"{text!r} ({exc})"
    note = "" if exc is None else f", {type(exc).__name__}"
    return f"{text[:ECHO_CAP]!r}... ({len(text)} characters{note})"


def poly_gcd(a: RatPoly, b: RatPoly) -> RatPoly:
    """Monic gcd over Q (monic 1 for coprime inputs; gcd(0, 0) = 0)."""
    while not b.is_zero:
        a, b = b, (a % b)
        if not b.is_zero:
            b = b.monic()  # keeps coefficient growth in check
    return a.monic() if not a.is_zero else a


# -- factoring ----------------------------------------------------------


@dataclass(frozen=True)
class PolyFactor:
    poly: RatPoly
    multiplicity: int
    certified: bool = True  # irreducibility established (always for deg <= 2)


@dataclass(frozen=True)
class FactoredPoly:
    """unit * prod(poly**multiplicity), factors monic, canonically ordered."""

    unit: Fraction
    factors: tuple[PolyFactor, ...]

    @property
    def is_certified(self) -> bool:
        return all(f.certified for f in self.factors)

    def expand(self) -> RatPoly:
        out = RatPoly([self.unit])
        for f in self.factors:
            out = out * f.poly ** f.multiplicity
        return out


def _canonical_key(p: RatPoly):
    return (p.degree, tuple(reversed(p.coeffs)))


def factor(p: RatPoly) -> FactoredPoly:
    """Factor p into monic irreducibles over Q, up to certification limits.

    Complete and certified whenever all irreducible factors have degree
    <= 2.  A residual factor of degree >= 3 that the quadratic search
    cannot split is returned whole with certified=False.  The product of
    the result is checked against p on every call.
    """
    if p.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    unit = p.leading
    work = p.monic()

    # powers of x first, so every later constant term is nonzero
    nz = 0
    while nz <= work.degree and work.coeffs[nz] == 0:
        nz += 1
    factors = [PolyFactor(X, nz)] if nz else []
    work = RatPoly(work.coeffs[nz:])

    # Yun's parts are square-free and pairwise coprime, so no irreducible
    # factor turns up twice
    factors += (PolyFactor(q, mult, certified)
                for part, mult in _yun(work)
                for q, certified in _factor_squarefree(part))
    result = FactoredPoly(unit, tuple(
        sorted(factors, key=lambda f: _canonical_key(f.poly))))
    if result.expand() != p:  # self-check on every call; degrees are small
        raise AssertionError("factor() failed to reconstruct its input")
    return result


def _yun(p: RatPoly) -> list[tuple[RatPoly, int]]:
    """Square-free decomposition of monic p: [(part, multiplicity)]."""
    if p.degree < 1:
        return []
    d = p.derivative()
    g = poly_gcd(p, d)
    if g.degree == 0:
        return [(p, 1)]
    out = []
    c = p // g
    w = d // g - c.derivative()
    i = 1
    while c.degree > 0:
        pi = poly_gcd(c, w)
        if pi.degree > 0:
            out.append((pi, i))
        c = c // pi
        w = w // pi - c.derivative()
        i += 1
    return out


def _factor_squarefree(h: RatPoly) -> list[tuple[RatPoly, bool]]:
    """Factor a monic square-free h with nonzero constant term.

    Returns [(monic factor, certified)] working through an integer
    monicized image of h.
    """
    if h.degree <= 0:
        return []
    if h.degree == 1:
        return [(h, True)]

    ic, L = h.to_integer()
    # Monicize: H(y) = L^(n-1) * (L*h)(y/L) has integer coefficients, is
    # monic, and its factors map back by x -> L*x.
    n = h.degree
    H = [ic[i] * L ** (n - 1 - i) for i in range(n)] + [1]

    out_int: list[tuple[list[int], bool]] = []
    _factor_monic_int(H, out_int)

    out: list[tuple[RatPoly, bool]] = []
    for coeffs, certified in out_int:
        q = RatPoly(coeffs).scale_arg(L)
        q = q.monic()
        out.append((q, certified))
    return out


def int_eval(c: Sequence[int], x: int) -> int:
    """Exact Horner evaluation of the integer polynomial c at x."""
    acc = 0
    for a in reversed(c):
        acc = acc * x + a
    return acc


def int_values(c: Sequence[int], start: int) -> Iterator[int]:
    """c(start), c(start + 1), … without end, by forward differences.

    d + 1 Horner evaluations seed the difference table of the degree-d
    polynomial c; each later value costs d big-int additions, made by d
    nested accumulates with no per-value Python frame.
    """
    row = [int_eval(c, start + i) for i in range(max(len(c), 1))]
    heads = []
    while row:
        heads.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    values = itertools.repeat(heads.pop())
    for head in reversed(heads):
        values = itertools.accumulate(values, add, initial=head)
    return values


def _int_divmod(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """Exact division machinery for integer polys with monic b."""
    r = list(a)
    q = [0] * max(len(r) - len(b) + 1, 0)
    db = len(b) - 1
    while len(r) - 1 >= db and r:
        if r[-1] == 0:
            r.pop()
            continue
        k = len(r) - 1 - db
        c = r[-1]
        q[k] = c
        for i, bc in enumerate(b):
            r[k + i] -= c * bc
        r.pop()
    while r and r[-1] == 0:
        r.pop()
    return q, r


def _good_prime(c: list[int]) -> tuple[int, list[int]]:
    """(p, c mod p) for the least odd prime p at which the square-free
    integer polynomial c keeps its degree and stays square-free.

    The search ends: only the finitely many primes dividing the leading
    coefficient or the discriminant of c fail.
    """
    for p in filter(is_prime, itertools.count(3, 2)):
        cp = _fp.from_int_coeffs(c, p)
        if len(cp) == len(c) and \
                _fp.deg(_fp.gcd(cp, _fp.derivative(cp, p), p)) == 0:
            return p, cp


def _lift_roots(c: list[int], p: int, roots: list[int]) -> list[int]:
    """The integer roots of the integer polynomial c, ascending, from a
    good prime p and the roots of c mod p.

    An integer root r reduces to a root mod p, simple since c is
    square-free mod p, and Newton's iteration lifts that root to the one
    p-adic root above it.  Lifted past twice the Cauchy bound
    |r| < max|c| // |lc| + 2, the symmetric representative is the only
    candidate, and int_eval tests it exactly.  No float is formed.
    """
    bound = max(abs(a) for a in c) // abs(c[-1]) + 2
    k, pk = 1, p
    while pk <= 2 * bound:
        k, pk = k + 1, pk * p
    lifted = (_fp.lift_root(c, a, p, 1, k) for a in roots)
    return sorted(r for r in (v if v <= pk // 2 else v - pk for v in lifted)
                  if int_eval(c, r) == 0)


def _factor_monic_int(H: list[int], out: list[tuple[list[int], bool]]) -> None:
    """Factor monic square-free integer H; append (coeffs, certified).

    One good prime p serves every step, since each factor of H stays
    square-free mod p, and the factors of H mod p are split once.  The
    integer roots divide out first; what is left has no rational root,
    so a quadratic is irreducible.  From degree 4 on, the candidates for
    its quadratic factors are the irreducible quadratic factors mod p
    and the products of pairs of the remaining roots mod p, since any
    quadratic factor of H reduces to one of them; each candidate u is
    lifted by Newton's iteration in (Z/p^k)[t]/(u) to enough p-adic
    precision to pin integer coefficients and divides out when exact
    division confirms it.  A residual factor of degree >= 3 is appended
    whole, not certified.
    """
    p, Hp = _good_prime(H)
    roots = _fp.roots(Hp, p)
    for r in _lift_roots(H, p, roots):
        out.append(([-r, 1], True))
        H = _int_divmod(H, [-r, 1])[0]
        roots.remove(r % p)
    if len(H) > 4:
        candidates = _fp.split(Hp, 2, p) + [
            _fp.mul([-a % p, 1], [-b % p, 1], p)
            for a, b in itertools.combinations(roots, 2)]
        bound = _quadratic_coeff_bound(H)
        for cand in candidates:
            if len(H) <= 4:
                break
            q = _lift_quadratic(H, cand, p, bound)
            if q is not None:
                out.append((q, True))
                H = _int_divmod(H, q)[0]
    if len(H) > 1:
        out.append((H, len(H) <= 3))


def _quadratic_coeff_bound(H: list[int]) -> int:
    # roots of any factor are roots of H; Cauchy bound R = 1 + max|coef|
    R = 1 + max(abs(c) for c in H)
    return max(2 * R, R * R)


def _lift_quadratic(H: list[int], u: list[int], p: int,
                    bound: int) -> Optional[list[int]]:
    """The monic integer quadratic factor of H that reduces to the monic
    quadratic u mod p, or None.

    Newton's iteration, as for integer roots, run in the ring
    (Z/p^k)[t]/(u), whose elements a0 + a1*t are pairs.  When u divides
    H mod p, the class of t is a root of H mod p.  The ring mod p is
    F_{p^2} when u is irreducible and F_p x F_p when u = (x - a)(x - b)
    with a != b; H is square-free mod p, so H'(t) is a unit in both, and
    Newton's iteration lifts t to the root α of H with α ≡ t, dividing
    by way of the conjugate: 1/β = β̄/N(β).  The p-adic factor over u is
    x^2 - Tr(α)·x + N(α).  Lifted until p^k > 2·bound, its symmetric
    representative is the only candidate, and exact division tests it.
    """
    u0, u1 = u[0], u[1]

    def mul(a, b, m):
        t = a[1] * b[1]
        return ((a[0] * b[0] - t * u0) % m,
                (a[0] * b[1] + a[1] * b[0] - t * u1) % m)

    def norm(a, m):
        return (a[0] * a[0] - a[0] * a[1] * u1 + a[1] * a[1] * u0) % m

    def at(c, a, m):
        acc = (0, 0)
        for x in reversed(c):
            s0, s1 = mul(acc, a, m)
            acc = ((s0 + x) % m, s1)
        return acc

    if at(H, (0, 1), p) != (0, 0):
        return None
    k, pk = 1, p
    while pk <= 2 * bound:
        k, pk = k + 1, pk * p
    dH = [i * c for i, c in enumerate(H)][1:]
    a, prec = (0, 1), 1
    while prec < k:
        prec = min(2 * prec, k)
        m = p**prec
        b0, b1 = at(dH, a, m)
        inv = pow(norm((b0, b1), m), -1, m)
        e0, e1 = mul(at(H, a, m), (b0 - b1 * u1, -b1), m)  # H·conj(H')
        a = ((a[0] - e0 * inv) % m, (a[1] - e1 * inv) % m)
    q = [c if c <= pk // 2 else c - pk
         for c in (norm(a, pk), (a[1] * u1 - 2 * a[0]) % pk)] + [1]
    if max(abs(c) for c in q) > bound or _int_divmod(H, q)[1]:
        return None
    return q


# -- derived queries ----------------------------------------------------


def int_discriminant(c: list[int]) -> int:
    """Discriminant of the integer polynomial c (little-endian, nonzero
    leading coefficient), fraction-free: (-1)^(n(n-1)/2)·res(c, c')/lc.

    The resultant is the determinant of the Sylvester matrix, by
    Bareiss elimination, so every division is exact.  Degree 1 gives 1
    and degree 0 gives 0 (the resultant with a zero derivative).
    """
    n = len(c) - 1
    if n < 1:
        return 0
    d = [i * a for i, a in enumerate(c)][1:]
    # Sylvester matrix: n - 1 shifted rows of c, then n rows of c'
    size = 2 * n - 1
    m = [[0] * i + c[::-1] + [0] * (size - n - 1 - i) for i in range(n - 1)]
    m += [[0] * i + d[::-1] + [0] * (size - n - i) for i in range(n)]
    sign, prev = 1, 1
    for k in range(size - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, size) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    res = sign * m[-1][-1]
    return (-1) ** (n * (n - 1) // 2) * res // c[-1]


def shift_equivalent(h: RatPoly, h2: RatPoly) -> Optional[int]:
    """The integer d with h(x) = h2(x + d), or None.

    Both inputs must be monic of equal degree; the candidate shift is read
    off the subleading coefficients and then verified by expansion.
    """
    if not (h.is_monic and h2.is_monic):
        raise ValueError("shift equivalence is defined for monic polynomials")
    n = h.degree
    if n != h2.degree:
        raise ValueError("shift equivalence needs equal degrees")
    if n == 0:
        return 0
    diff = (h.coeff(n - 1) - h2.coeff(n - 1)) / n
    if diff.denominator != 1:
        return None
    d = int(diff)
    return d if h2.shift_arg(d) == h else None


def radical(p: RatPoly) -> RatPoly:
    """Product of the distinct irreducible factors of p, monic."""
    if p.is_zero:
        raise ValueError("radical of the zero polynomial")
    if p.degree == 0:
        return ONE
    g = poly_gcd(p, p.derivative())
    return (p // g).monic()


# -- rational functions -------------------------------------------------


class RationalFunction:
    """A rational function kept in factored form.

    unit * prod(numer_factors) / prod(denom_factors); factors are
    (RatPoly, positive exponent) pairs.  It evaluates exactly at a
    rational point and prints in this factored form.
    """

    __slots__ = ("unit", "numer_factors", "denom_factors")

    def __init__(
        self,
        unit: Rational | int = 1,
        numer_factors: Sequence[tuple[RatPoly, int]] = (),
        denom_factors: Sequence[tuple[RatPoly, int]] = (),
    ):
        self.unit = Fraction(unit)
        self.numer_factors = tuple((q, int(e)) for q, e in numer_factors)
        self.denom_factors = tuple((q, int(e)) for q, e in denom_factors)

    def __call__(self, x: Rational | int) -> Fraction:
        num = self.unit
        for q, e in self.numer_factors:
            num *= q(x) ** e
        den = Fraction(1)
        for q, e in self.denom_factors:
            den *= q(x) ** e
        return num / den

    def __str__(self):
        def side(factors):
            if not factors:
                return "1"
            return " * ".join(
                f"({q})" + (f"^{e}" if e > 1 else "") for q, e in factors
            )

        num = side(self.numer_factors)
        if self.unit != 1:
            num = f"{self.unit} * {num}" if num != "1" else str(self.unit)
        den = side(self.denom_factors)
        return num if den == "1" else f"({num}) / ({den})"

    def __repr__(self):
        return f"RationalFunction({self})"
