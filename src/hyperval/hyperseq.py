"""The hypergeometric sequence model.

A sequence is defined by f(n)·uₙ = g(n)·uₙ₋₁ with rational polynomials
f, g and a rational u₀, so uₙ = u₀·∏_{m=1}^{n} g(m)/f(m).  Construction
canonicalizes (divides out common factors of f and g), factors f and g
once, and validates that f has no positive integer roots; a g with
positive integer roots (or u₀ = 0) is allowed but flagged, since the
sequence is then eventually zero.  The two factor tables are kept, and
validation, the root-count plan, regularization, the digit identity and
the class C and D checks all read them; none of them factors again.
The root-count plan keeps each irreducible factor as its primitive
integer form, which the p-adic layer (padic, above this module; nothing
here imports it) reduces and lifts directly.

Every walk along the sequence steps with one integer form, step_polys:
uₘ = uₘ₋₁·A(m)/B(m).  TermCursor streams the exact values.  The p-adic
valuations build no term and evaluate A and B at few indices: ν_p(A(m))
is read from the residue classes mod pʲ on which pʲ divides A, sieved
once per prime (likewise B).  The module also rewrites a recurrence
into a regular one (no two roots of f·g differing by a nonzero integer)
times an explicit rational-function correction, and profiles
Weil-height growth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import sub
from typing import Iterator, Optional, Union

from . import _fp
from .errors import InvalidF, UnsupportedFactorization, UnsupportedInput
from .numtheory import (
    INFINITY,
    Rational,
    Valuation,
    euler_criterion,
    fraction_valuation,
    int_valuation,
    reduced_fraction,
    require_prime,
)
from .polyq import (
    ONE,
    FactoredPoly,
    RatPoly,
    RationalFunction,
    factor,
    int_discriminant,
    int_eval,
    int_values,
    parse_poly,
    parse_rational,
    poly_gcd,
    shift_equivalent,
)


@dataclass(frozen=True)
class ValidationFlags:
    common_factor_removed: bool
    g_positive_integer_roots: tuple[int, ...]
    u0_is_zero: bool

    @property
    def degenerate_zero(self) -> bool:
        """The sequence is eventually (or identically) zero."""
        return self.u0_is_zero or bool(self.g_positive_integer_roots)


class HypergeomSeq:
    """Validated recurrence f(n)·uₙ = g(n)·uₙ₋₁ with u₀, and the factor
    tables f_factors = factor(f) and g_factors = factor(g)."""

    __slots__ = ("f", "g", "u0", "flags", "f_factors", "g_factors",
                 "_int_forms", "_root_plan", "_square_classes")

    def __init__(self, f: RatPoly, g: RatPoly, u0: Fraction,
                 flags: ValidationFlags, f_factors: FactoredPoly,
                 g_factors: FactoredPoly):
        self.f = f
        self.g = g
        self.u0 = u0
        self.flags = flags
        self.f_factors = f_factors
        self.g_factors = g_factors
        self._int_forms: Optional[tuple[list[int], int, list[int], int]] = None
        self._root_plan: Optional[RootPlan] = None
        self._square_classes = None  # kept by quadratic._square_classes

    @property
    def max_degree(self) -> int:
        return max(self.f.degree, self.g.degree)

    def integer_forms(self) -> tuple[list[int], int, list[int], int]:
        """(F, DF, G, DG) with f = F/DF, g = G/DG, F, G integer polys."""
        if self._int_forms is None:
            F, DF = self.f.to_integer()
            G, DG = self.g.to_integer()
            self._int_forms = (F, DF, G, DG)
        return self._int_forms

    def root_plan(self) -> "RootPlan":
        """The gate and the root counts at every prime, built on the
        first query and kept."""
        if self._root_plan is None:
            self._root_plan = _root_plan(self)
        return self._root_plan

    def __str__(self):
        return f"f = {self.f}; g = {self.g}; u0 = {self.u0}"

    def __repr__(self):
        return f"HypergeomSeq({self})"


def make_sequence(f: RatPoly, g: RatPoly,
                  u0: Union[Rational, int, str]) -> HypergeomSeq:
    """Canonicalize and validate a recurrence.

    Common polynomial factors of f and g are divided out first, and
    then each is factored once; f must have no positive integer roots
    (InvalidF lists offenders) — that is exactly what keeps every uₙ,
    n ≥ 1, well-defined.  A root of f at 0 is harmless (f is never
    evaluated there) and legal.  The positive integer roots are read off
    the linear factors.
    """
    if f.is_zero or g.is_zero:
        raise ValueError("f and g must be nonzero")
    u0 = Fraction(u0)
    common = poly_gcd(f, g)
    reduced = common.degree > 0
    if reduced:
        f = f // common
        g = g // common
    f_factors = factor(f)
    bad = _positive_integer_roots(f_factors)
    if bad:
        raise InvalidF(bad)
    g_factors = factor(g)
    flags = ValidationFlags(
        common_factor_removed=reduced,
        g_positive_integer_roots=_positive_integer_roots(g_factors),
        u0_is_zero=(u0 == 0),
    )
    return HypergeomSeq(f, g, u0, flags, f_factors, g_factors)


def _positive_integer_roots(table: FactoredPoly) -> tuple[int, ...]:
    roots = (-pf.poly.coeff(0) for pf in table.factors if pf.poly.degree == 1)
    return tuple(sorted(int(r) for r in roots if r > 0 and r.denominator == 1))


def usable_prime(seq: HypergeomSeq, p: int) -> bool:
    """Can mod-p root structure of this recurrence be trusted at p?

    Holds when p is coprime to every coefficient denominator and to both
    leading coefficients, and the product of distinct irreducible
    factors of f·g is square-free mod p — so distinct roots stay
    distinct and every root lifts uniquely.  Read off the sequence's
    RootPlan: p must not divide its gate.
    """
    require_prime(p)
    return seq.root_plan().gate % p != 0


@dataclass(frozen=True)
class RootPlan:
    """usable_prime and the root counts of f and g, per prime, without
    polynomial arithmetic.

    gate: usable_prime(seq, p) holds exactly when p does not divide it.
    f_parts, g_parts: the irreducible factors of f and g from the
    sequence's factor tables, as (c, e, D): c the primitive integer form
    of the factor (a coefficient tuple, constant term first), e its
    multiplicity, and D = c₁² − 4c₀c₂ for a quadratic, None for any
    other degree.
    """

    gate: int
    f_parts: tuple
    g_parts: tuple

    def root_counts(self, p: int) -> tuple[int, int]:
        """(m_f, m_g) at a prime p that passes the gate; p not re-tested."""
        return (_roots_of_parts(self.f_parts, p),
                _roots_of_parts(self.g_parts, p))


def _roots_of_parts(parts: tuple, p: int) -> int:
    # past the gate the radical of f·g is square-free mod p and p keeps
    # each part's degree, so the parts stay square-free and pairwise
    # coprime mod p: each root of a part is a root of multiplicity
    # exactly e, and a part has deg gcd(part, x^p − x) roots, by one x^p
    # pass.  A quadratic part's D is a p-unit, and it has 1 + (D/p)
    # roots at odd p.
    total = 0
    for c, e, disc in parts:
        if len(c) == 2:
            total += e
        elif disc is not None and p != 2:
            total += e * (1 + euler_criterion(disc, p))
        else:
            h = _fp.from_int_coeffs(c, p)
            total += e * _fp.deg(_fp.frobenius_gcd(h, p, p))
    return total


def _root_plan(seq: HypergeomSeq) -> RootPlan:
    """The plan of seq.  The gate is N = lcm(coefficient denominators) ·
    numerator(lc f) · numerator(lc g) · disc(R), R the integer form of
    the monic radical of f·g (primitive, since the radical is monic):
    a prime off the first three factors leaves the radical p-integral
    and monic, and it is square-free mod p iff p ∤ disc(R).  f and g
    are coprime (make_sequence divides out their gcd), so the radical
    is the product of their distinct irreducible factors."""
    f, g = seq.f, seq.g
    f_parts, g_parts = _plan_parts(seq.f_factors), _plan_parts(seq.g_factors)
    den = math.lcm(*(c.denominator for c in f.coeffs + g.coeffs))
    factors = seq.f_factors.factors + seq.g_factors.factors
    R, _ = math.prod((pf.poly for pf in factors), start=ONE).to_integer()
    disc = int_discriminant(R) if len(R) > 2 else 1
    gate = abs(den * f.leading.numerator * g.leading.numerator * disc)
    return RootPlan(gate, f_parts, g_parts)


def _plan_parts(table: FactoredPoly) -> tuple:
    parts = []
    for pf in table.factors:
        c = tuple(pf.poly.to_integer()[0])  # primitive: the factor is monic
        disc = c[1] ** 2 - 4 * c[0] * c[2] if len(c) == 3 else None
        parts.append((c, pf.multiplicity, disc))
    return tuple(parts)


def step_polys(seq: HypergeomSeq) -> tuple[list[int], list[int]]:
    """(A, B), integer coefficient lists with uₘ = uₘ₋₁·A(m)/B(m).

    A = DF·G and B = DG·F for f = F/DF, g = G/DG.  B(m) ≠ 0 for m ≥ 1,
    A(m) = 0 exactly at a positive integer root of g, and the step
    changes ν_p by ν_p(A(m)) − ν_p(B(m)).
    """
    F, DF, G, DG = seq.integer_forms()
    return [DF * c for c in G], [DG * c for c in F]


class TermCursor:
    """Streams the exact values u₀, u₁, … with incremental reduction.

    Each step multiplies by A(m)/B(m) from step_polys, removing common
    factors against the running numerator and denominator as it goes, so
    the pair (num, den) is always fully reduced with den > 0 and never
    transits through unreduced products.  A(m) and B(m) come from
    int_values, one pair per step, on the zero tail too.
    """

    __slots__ = ("seq", "n", "num", "den", "_steps")

    def __init__(self, seq: HypergeomSeq):
        self.seq = seq
        self.n = 0
        self.num = seq.u0.numerator
        self.den = seq.u0.denominator
        A, B = step_polys(seq)
        self._steps = zip(int_values(A, 1), int_values(B, 1))

    @property
    def value(self) -> Fraction:
        return reduced_fraction(self.num, self.den)

    def advance(self) -> int:
        """Step to the next index; returns the new n."""
        a, b = next(self._steps)
        if a == 0:
            self.num, self.den = 0, 1
        elif self.num != 0:
            if b < 0:
                a, b = -a, -b
            g0 = math.gcd(a, b)
            if g0 > 1:
                a //= g0
                b //= g0
            al = math.gcd(a, self.den)
            if al > 1:
                a //= al
                self.den //= al
            be = math.gcd(b, self.num)
            if be > 1:
                b //= be
                self.num //= be
            self.num *= a
            self.den *= b
        self.n += 1
        return self.n

    def advance_to(self, n: int) -> None:
        if n < self.n:
            raise ValueError(f"cursor at {self.n} cannot rewind to {n}")
        while self.n < n:
            self.advance()


def term(seq: HypergeomSeq, n: int) -> Fraction:
    """Exact uₙ."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    cur = TermCursor(seq)
    cur.advance_to(n)
    return cur.value


def _residue_levels(c: list[int], p: int,
                    n: int) -> tuple[int, list[int], list[list[int]]]:
    """The level sets of the nonzero integer polynomial c at p, up to n.

    Returns (k, c1, levels) with c = (content)·c1, c1 primitive and
    k = ν_p(content).  levels[j−1] is Sⱼ = {r mod pʲ : pʲ | c1(r)}, for
    every j with pʲ ≤ n, up to the first empty one.  Each Sⱼ comes from
    testing the p lifts r + t·pʲ⁻¹ of every r in Sⱼ₋₁; no Hensel
    assumption is made, so the sets are exact at every prime.  Since
    |Sⱼ₋₁| ≤ pʲ⁻¹, building them evaluates c1 at most n·log_p n times.
    """
    content = math.gcd(*c)
    c1 = [a // content for a in c]
    levels: list[list[int]] = []
    period, level = 1, [0]
    while level and period * p <= n:
        lifted = period * p
        level = [r for s in level for r in range(s, lifted, period)
                 if int_eval(c1, r) % lifted == 0]
        levels.append(level)
        period = lifted
    return int_valuation(content, p), c1, levels


def _deep_indices(levels: list[list[int]], p: int, n: int) -> Iterator[int]:
    """The m in [1, n] whose class lies in the deepest level: there ν_p
    may exceed the level count, so it is computed exactly.  With no
    levels (p > n) that is every m."""
    period = p ** len(levels)
    for r in levels[-1] if levels else (0,):
        yield from range(r or period, n + 1, period)


def _step_valuations(c: list[int], p: int, n: int) -> list[int]:
    """[ν_p(c(1)), …, ν_p(c(n))] for c nonzero on [1, n]: each level is a
    repeated byte pattern, and the levels are summed as one integer."""
    k, c1, levels = _residue_levels(c, p, n)
    deepest = p ** len(levels)
    width = -(-(n + 1) // deepest) * deepest  # a multiple of every period
    total = 0
    period = 1
    for level in levels:
        period *= p
        pattern = bytearray(period)
        for r in level:
            pattern[r] = 1
        total += int.from_bytes(pattern * (width // period), "little")
    # a byte holds at most len(levels) < 256 levels, so no carries
    vals = list(total.to_bytes(width, "little")[1:n + 1])
    for m in _deep_indices(levels, p, n):
        vals[m - 1] = int_valuation(int_eval(c1, m), p)
    return list(map(k.__add__, vals)) if k else vals


def _valuation_sum(c: list[int], p: int, n: int) -> int:
    """Σ ν_p(c(m)) over 1 ≤ m ≤ n for c nonzero on [1, n], counting the
    members of each residue class in closed form."""
    k, c1, levels = _residue_levels(c, p, n)
    total = n * k
    period = 1
    for level in levels:
        period *= p
        # #{1 ≤ m ≤ n : m ≡ r mod period} for 0 ≤ r < period ≤ n
        total += sum((n - r) // period + (r > 0) for r in level)
    depth = len(levels)
    for m in _deep_indices(levels, p, n):
        total += int_valuation(int_eval(c1, m), p) - depth
    return total


def _first_zero(seq: HypergeomSeq) -> Optional[int]:
    """The first n with uₙ = 0, or None: 0 when u₀ = 0, else the least
    positive integer root of g (where A vanishes)."""
    if seq.u0 == 0:
        return 0
    return min(seq.flags.g_positive_integer_roots, default=None)


def term_valuation(seq: HypergeomSeq, n: int, p: int) -> Valuation:
    """ν_p(uₙ) without constructing the term itself, in O(levels) steps:
    ν_p(u₀) plus the class counts of the level sets of A and B."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    require_prime(p)
    zero = _first_zero(seq)
    if zero is not None and n >= zero:
        return INFINITY
    A, B = step_polys(seq)
    return (fraction_valuation(seq.u0, p) + _valuation_sum(A, p, n)
            - _valuation_sum(B, p, n))


def valuation_profile(seq: HypergeomSeq, p: int, n_max: int) -> list[Valuation]:
    """[ν_p(u₀), …, ν_p(u_{n_max})], INFINITY from the first zero term on:
    prefix sums of ν_p(A(m)) − ν_p(B(m)) over the level sets of A and B."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    require_prime(p)
    zero = _first_zero(seq)
    n = n_max if zero is None else min(n_max, zero - 1)
    if n < 0:
        return [INFINITY] * (n_max + 1)
    A, B = step_polys(seq)
    steps = map(sub, _step_valuations(A, p, n), _step_valuations(B, p, n))
    vals = list(accumulate(steps, initial=fraction_valuation(seq.u0, p)))
    return vals + [INFINITY] * (n_max - n)


# -- regularization ----------------------------------------------------


@dataclass(frozen=True)
class ShiftMember:
    poly: RatPoly
    shift: int  # member(x) = representative(x − shift), shift ≥ 0
    source: str  # "f" or "g"


@dataclass(frozen=True)
class ShiftClass:
    representative: RatPoly
    members: tuple[ShiftMember, ...]
    gamma: int  # (#g-members) − (#f-members)


@dataclass(frozen=True)
class RegularizationResult:
    regular_seq: HypergeomSeq
    correction: RationalFunction
    shift_classes: tuple[ShiftClass, ...]


def regularize(seq: HypergeomSeq) -> RegularizationResult:
    """Rewrite uₙ = q(n)·ũₙ with ũ regular (Gosper-style shift quotients).

    Groups the irreducible factors of f and g into shift-equivalence
    classes, keeps one representative per class (the member with the
    most negative roots, so no positive integer roots can appear), and
    telescopes every other member against it:

        ∏_{m=1}^{n} M(m) / ∏_{m=1}^{n} R(m)
            = ∏_{m=1}^{d} M(m) / ∏_{i=1}^{d} M(n+i)   when M(x) = R(x−d).

    The new recurrence keeps only reps with unbalanced counts; leading
    units are carried into f̃ and g̃ so the correction stays a pure
    shift quotient.
    """
    if seq.flags.g_positive_integer_roots:
        raise UnsupportedInput(
            "g has positive integer roots "
            f"{seq.flags.g_positive_integer_roots}; the telescoping "
            "constants vanish on the zero tail"
        )
    ff, gf = seq.f_factors, seq.g_factors
    for fac in (ff, gf):
        if not fac.is_certified:
            bad = [str(pf.poly) for pf in fac.factors if not pf.certified]
            raise UnsupportedFactorization(
                "factorization not certified complete; opaque factors: "
                + ", ".join(bad)
            )

    members: list[tuple[RatPoly, str]] = []
    for fac, tag in ((ff, "f"), (gf, "g")):
        for pf in fac.factors:
            members.extend([(pf.poly, tag)] * pf.multiplicity)

    # group into shift classes (anchor = first member seen)
    groups: list[list[tuple[RatPoly, str, int]]] = []  # (poly, tag, delta)
    for poly, tag in members:
        for grp in groups:
            anchor = grp[0][0]
            if poly.degree != anchor.degree:
                continue
            d = shift_equivalent(poly, anchor)
            if d is not None:
                grp.append((poly, tag, d))
                break
        else:
            groups.append([(poly, tag, 0)])

    classes: list[ShiftClass] = []
    unit_num = Fraction(1)
    unit_den = Fraction(1)
    numer_factors: dict[RatPoly, int] = {}
    denom_factors: dict[RatPoly, int] = {}
    f_tilde = RatPoly([ff.unit])
    g_tilde = RatPoly([gf.unit])

    for grp in groups:
        delta_rep = max(d for _, _, d in grp)
        rep = next(poly for poly, _, d in grp if d == delta_rep)
        cls_members = []
        gamma = 0
        for poly, tag, d_anchor in grp:
            d = delta_rep - d_anchor  # poly(x) = rep(x − d), d ≥ 0
            cls_members.append(ShiftMember(poly, d, tag))
            gamma += 1 if tag == "g" else -1
            c = Fraction(1)
            for m in range(1, d + 1):
                c *= poly(m)
            tgt = numer_factors if tag == "f" else denom_factors
            for s in range(1, d + 1):
                shifted = poly.shift_arg(s)
                tgt[shifted] = tgt.get(shifted, 0) + 1
            if tag == "g":
                unit_num *= c
            else:
                unit_den *= c
        classes.append(ShiftClass(rep, tuple(cls_members), gamma))
        if gamma > 0:
            g_tilde = g_tilde * rep**gamma
        elif gamma < 0:
            f_tilde = f_tilde * rep**(-gamma)

    q = RationalFunction(
        unit_num / unit_den,
        sorted(numer_factors.items(), key=lambda kv: str(kv[0])),
        sorted(denom_factors.items(), key=lambda kv: str(kv[0])),
    )
    regular = make_sequence(f_tilde, g_tilde, seq.u0)

    # cheap self-check on the first few indices
    cur, rcur = TermCursor(seq), TermCursor(regular)
    for n in range(4):
        if cur.value != q(n) * rcur.value:
            raise AssertionError(
                f"regularization identity failed at n = {n}"
            )
        cur.advance()
        rcur.advance()
    return RegularizationResult(regular, q, tuple(classes))


# -- height profiles ---------------------------------------------------


@dataclass(frozen=True)
class HeightProfile:
    rows: tuple[tuple[int, int, float], ...]  # (n, max(|num|,den), log of it)
    growth_constant: float  # min of height/n over the top half of the range
    n_max: int
    stride: int

    def csv_rows(self) -> Iterator[str]:
        for n, mag, h in self.rows:
            yield f"{n},{h:.12g}"


def height_profile(seq: HypergeomSeq, n_max: int,
                   stride: int = 1) -> HeightProfile:
    """Weil heights h(uₙ) along the sequence, one exact pass.

    Rows are sampled every `stride` indices; the growth constant is the
    minimum of h(uₙ)/n over the second half of the range (all indices,
    not only sampled ones).
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    cur = TermCursor(seq)
    rows = []
    growth = math.inf
    half = n_max // 2
    for n in range(n_max + 1):
        if n > 0:
            cur.advance()
        mag = max(abs(cur.num), cur.den)  # the pair is reduced, den > 0
        h = math.log(mag)
        if n % stride == 0 or n == n_max:
            rows.append((n, mag, h))
        if n >= max(half, 1):
            growth = min(growth, h / n)
    return HeightProfile(tuple(rows), growth, n_max, stride)


# -- sequence-spec text format ----------------------------------------


def parse_sequence_spec(text: str) -> HypergeomSeq:
    """Parse `f = <poly>; g = <poly>; u0 = <rational>` into a sequence."""
    fields = {}
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        key, eq, value = chunk.partition("=")
        if not eq:
            raise ValueError(f"malformed field {chunk!r}: expected key = value")
        key = key.strip()
        if key in fields:
            raise ValueError(f"sequence spec repeats field {key!r}")
        fields[key] = value.strip()
    missing = {"f", "g", "u0"} - fields.keys()
    if missing:
        raise ValueError(f"sequence spec missing {sorted(missing)}")
    extra = fields.keys() - {"f", "g", "u0"}
    if extra:
        raise ValueError(f"sequence spec has unknown fields {sorted(extra)}")
    return make_sequence(
        parse_poly(fields["f"]),
        parse_poly(fields["g"]),
        parse_rational(fields["u0"]),
    )
