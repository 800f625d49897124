"""p-adic roots, one layer above the sequence model (hyperseq).

Covers reduction of rational polynomials mod p, root counting in the
p-element field via gcd with x^p - x, the roots themselves from the
split kernel _fp.split, detection of primes where every root lifts
uniquely, Newton lifting to prime-power precision, and digit-level
diagnostics of lifted roots: zero runs, and the valuation identity at
n = p^s that ties digit runs to ν_p(u_n).  A PadicRoot is its value mod
p^k; its digits are one base-p expansion of that value, made on demand.
The identity takes the integer parts of the sequence's RootPlan, past
whose gate p is prime and every root simple, so it finds their roots
with _fp.roots and lifts them by _newton_root, checking nothing again.
Public functions check that p is prime; the kernels on reduced lists
(reduce_mod_p, frobenius_root_count, is_squarefree_mod_p) trust it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import _fp
from .errors import (
    BadPrime,
    NotHenselPrime,
    NotSimpleRoot,
    PrecisionExhausted,
)
from .hyperseq import HypergeomSeq, term_valuation, usable_prime
from .numtheory import fraction_valuation, int_valuation, mod_rep, require_prime
from .polyq import RatPoly

DEFAULT_DIGIT_CAP = 2**14


def reduce_mod_p(f: RatPoly, p: int) -> list[int]:
    """Coefficientwise reduction of f modulo p, as a little-endian _fp
    list without trailing zeros; p prime, not re-tested.

    Denominators are inverted mod p; a denominator divisible by p is a
    BadPrime error.
    """
    coeffs = [mod_rep(c, p) for c in f.coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def count_roots_mod_p(f: RatPoly, p: int) -> int:
    """Number of roots of f in the p-element field, with multiplicity."""
    require_prime(p)
    h = reduce_mod_p(f, p)
    if not h:
        raise ValueError("polynomial vanishes identically mod p")
    return frobenius_root_count(h, p)


def frobenius_root_count(h: list[int], p: int) -> int:
    """Roots of the nonzero reduced list h mod p, with multiplicity; p
    prime, not re-tested.

    Iterated gcd with x^p - x (x^p computed by modular exponentiation):
    each pass collects deg gcd roots and divides them out, so a root of
    multiplicity e is counted e times.  A square-free h needs only the
    first pass, deg gcd(h, x^p - x), which is how the RootPlan counts.
    """
    total = 0
    while _fp.deg(h) > 0:
        r = _fp.frobenius_gcd(h, p, p)
        if _fp.deg(r) <= 0:
            break
        total += _fp.deg(r)
        h = _fp.divmod_(h, r, p)[0]
    return total


def roots_mod_p(f: RatPoly, p: int) -> list[int]:
    """The distinct roots of f in the p-element field, ascending, from
    the split kernel: gcd(f, x^p − x) split by gcd with
    (x+δ)^((p−1)/2) − 1 (a two-point check at p = 2)."""
    require_prime(p)
    c = reduce_mod_p(f, p)
    if not c:
        raise ValueError("polynomial vanishes identically mod p")
    return _fp.roots(c, p)


def is_hensel_prime(f: RatPoly, p: int) -> bool:
    """True iff every root of f mod p lifts uniquely to the p-adics.

    Operationally: p divides no coefficient denominator, p does not
    divide the leading coefficient, and f is square-free mod p.
    """
    require_prime(p)
    if f.is_zero:
        raise ValueError("zero polynomial")
    for c in f.coeffs:
        if c.denominator % p == 0:
            return False
    if mod_rep(f.leading, p) == 0:
        return False
    return is_squarefree_mod_p(reduce_mod_p(f, p), p)


def is_squarefree_mod_p(h: list[int], p: int) -> bool:
    """Is the reduced list h square-free mod p?  p prime, not re-tested."""
    return _fp.deg(_fp.gcd(h, _fp.derivative(h, p), p)) <= 0


@dataclass(frozen=True)
class PadicRoot:
    """A root of the integer polynomial poly (coefficients, constant term
    first) to precision k: value in [0, p^k).

    Immutable; ``lift_to`` continues Newton's iteration from this value
    and precision and returns a new root.
    """

    p: int
    precision: int
    value: int
    poly: tuple[int, ...] = field(repr=False, compare=False)

    @property
    def digits(self) -> tuple[int, ...]:
        """The precision base-p digits of value, least significant first,
        from one expansion of the value."""
        v, digits = self.value, []
        for _ in range(self.precision):
            v, d = divmod(v, self.p)
            digits.append(d)
        return tuple(digits)

    def digit(self, j: int) -> int:
        if j < 0:
            raise ValueError("digit index must be nonnegative")
        if j >= self.precision:
            raise PrecisionExhausted(
                f"digit {j} beyond precision {self.precision}"
            )
        return self.value // self.p**j % self.p

    def truncate(self, k: int) -> "PadicRoot":
        if k > self.precision:
            raise PrecisionExhausted(f"cannot truncate {self.precision} to {k}")
        return PadicRoot(self.p, k, self.value % self.p**k, self.poly)

    def lift_to(self, k: int) -> "PadicRoot":
        if k <= self.precision:
            return self.truncate(k)
        return _newton_root(self.poly, self.p, self.value, self.precision, k)


def hensel_lift(f: RatPoly, p: int, r0: int, k: int) -> PadicRoot:
    """The unique root of f mod p^k congruent to the simple root r0 mod p.

    Newton iteration with doubling precision; the defining congruence
    f(value) ≡ 0 (mod p^k) is asserted before returning.
    """
    require_prime(p)
    ic, L = f.to_integer()  # clearing denominators keeps the roots
    if L % p == 0:
        raise BadPrime(f"coefficient denominator divisible by {p}")
    F = tuple(ic)
    Fd = [i * c for i, c in enumerate(F)][1:]
    r0 %= p
    if _fp.eval_at(F, r0, p) != 0:
        raise ValueError(f"{r0} is not a root mod {p}")
    if _fp.eval_at(Fd, r0, p) == 0:
        raise NotSimpleRoot(
            f"derivative vanishes at {r0} mod {p}; root is not simple"
        )
    if k < 1:
        raise ValueError(f"precision must be >= 1, got {k}")
    return _newton_root(F, p, r0, 1, k)


def _newton_root(F: tuple[int, ...], p: int, r: int, prec: int,
                 k: int) -> PadicRoot:
    """Lift the simple root r of the integer polynomial F from mod p^prec
    to mod p^k (k ≥ prec) by _fp.lift_root.  p is prime and r simple,
    neither re-tested; F(value) ≡ 0 (mod p^k) is asserted before
    returning."""
    value = _fp.lift_root(F, r, p, prec, k)
    assert _fp.eval_at(F, value, p**k) == 0
    return PadicRoot(p, k, value, F)


def zero_run_length(root: PadicRoot, s: int) -> int:
    """Length of the zero-digit run starting at digit index s: ν_p of
    value // p^s once that quotient is nonzero.

    Lifts more digits on demand (doubling) so the run provably ends
    within the reported length; PrecisionExhausted once DEFAULT_DIGIT_CAP
    digits are lifted without a nonzero digit.
    """
    if s < 0:
        raise ValueError("digit index must be nonnegative")
    while True:
        rest = root.value // root.p**s
        if rest:
            return int_valuation(rest, root.p)
        if root.precision >= DEFAULT_DIGIT_CAP:
            raise PrecisionExhausted(
                f"zero run at index {s} still open at the "
                f"{DEFAULT_DIGIT_CAP}-digit lifting cap"
            )
        root = root.lift_to(min(max(2 * root.precision, s + 1),
                                DEFAULT_DIGIT_CAP))


# -- the valuation identity at n = p^s ---------------------------------


def _c_count(root: PadicRoot, s: int) -> int:
    """#{r > s : 1 ≤ (root mod p^r) ≤ p^s}, the digit-run count feeding
    the valuation identity, for a root lifted past digit s.

    When root mod p^s ≠ 0, a truncation past s stays at most p^s exactly
    while the digits from s on are zero.  When root ≡ 0 mod p^s, the
    only such truncation is p^s itself: digit s is 1 and the digits
    after it are zero.
    """
    if root.value % root.p**s:
        return zero_run_length(root, s)
    return 1 + zero_run_length(root, s + 1) if root.digit(s) == 1 else 0


def valuation_at_prime_power(seq: HypergeomSeq, p: int,
                             s: int) -> tuple[int, int]:
    """ν_p(u_{p^s}) computed two independent ways: (direct, digit formula).

    Direct: term_valuation, which sums ν_p(g(m)) − ν_p(f(m)) over
    m ≤ p^s by counting residue classes mod pʲ, not index by index.
    Digit formula: Σ over lifted roots β of g of the truncation count
    minus the same over roots α of f — the per-root count being the
    number of precisions r > s at which the truncated root lies in
    [1, p^s], which for a root with nonzero digit at index s−… reduces
    to the length of its zero-digit run.  Requires a usable prime, the
    same number of roots mod p on both sides so the coarse layers
    cancel, u₀ a p-adic unit, and u_{p^s} ≠ 0: no positive integer
    root of g at most p^s.

    The counts and the roots come from the integer parts of the
    sequence's RootPlan.  Past its gate the parts are square-free and
    pairwise coprime mod p, so each root of a part of multiplicity e is
    simple and counts e times, and it is lifted directly; the factor x
    is skipped, since the exact root 0 adds no digits: its truncations
    are 0.
    """
    if s < 0:
        raise ValueError("s must be nonnegative")
    if not usable_prime(seq, p):
        raise NotHenselPrime(
            f"{p} is unusable: root structure of f·g is not clean mod {p}"
        )
    plan = seq.root_plan()
    mf, mg = plan.root_counts(p)
    if mf != mg:
        raise ValueError(
            f"digit identity needs equal root counts; got {mf} vs {mg}"
        )
    if fraction_valuation(seq.u0, p) != 0:  # usable_prime checked p
        raise ValueError("u0 must be a p-adic unit")
    ps = p**s
    if any(r <= ps for r in seq.flags.g_positive_integer_roots):
        raise ValueError("g has a positive integer root at most p^s, "
                         "so u_{p^s} = 0")

    roots = []  # (signed weight, integer part, root mod p)
    for parts, sign in ((plan.f_parts, -1), (plan.g_parts, +1)):
        roots += [(sign * e, c, a) for c, e, _ in parts if c != (0, 1)
                  for a in _fp.roots(_fp.from_int_coeffs(c, p), p)]
    direct = term_valuation(seq, ps, p)
    start = max(2 * s, 4)
    digit_side = sum(weight * _c_count(_newton_root(c, p, a, 1, start), s)
                     for weight, c, a in roots)
    return int(direct), digit_side
