"""Quadratic-parameter machinery and the equidistribution harness.

The irreducible quadratic factors of f·g carry square-free discriminant
parts Δ; their splitting behavior mod p is read off Legendre symbols.
This module profiles those discriminants, decides existence of
"condition primes" (p with (Δ/p) = 1 for one chosen Δ and −1 for the
rest) by GF(2) linear algebra over the character coordinates, searches
for the smallest such prime directly, and samples rep(r ± s√Δ)/p over
primes in progressions, drawn from iter_primes, to measure
equidistribution empirically.  A sequence's Δ come from one
factorization per distinct discriminant, kept on the sequence and
shared by the profile and the class C and D checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import islice
from operator import xor
from typing import Iterable, Iterator, Optional, Sequence, Union

from .errors import EmptySampleSet, UnsupportedFactorization
from .hyperseq import HypergeomSeq
from .numtheory import (
    Rational,
    euler_criterion,
    factorize,
    iter_primes,
    mod_rep,
    require_prime,
    sqrt_mod,
    squarefree_part,
    tonelli_shanks,
)


@dataclass(frozen=True)
class DiscriminantProfile:
    """Square-free discriminant parts of the quadratic factors of f·g.

    vectors[Δ] is the exponent vector of |Δ| over prime_support; the
    sign of a negative Δ is carried by the Δ itself (and surfaced via
    ``negatives``), not by the vector.
    """

    discs: frozenset[int]
    prime_support: tuple[int, ...]
    vectors: dict[int, tuple[int, ...]]

    @property
    def negatives(self) -> tuple[int, ...]:
        return tuple(sorted(d for d in self.discs if d < 0))

    @property
    def has_negative(self) -> bool:
        return any(d < 0 for d in self.discs)

    def summary(self) -> str:
        discs = ",".join(str(d) for d in sorted(self.discs))
        support = ",".join(str(p) for p in self.prime_support)
        note = ""
        if self.has_negative:
            negs = ",".join(str(d) for d in self.negatives)
            note = f" negative-discriminants={negs}"
        return f"discriminants={{{discs}}} prime-support=[{support}]{note}"


def _square_classes(seq: HypergeomSeq) -> tuple[
        tuple[int, ...], tuple[int, ...], dict[int, tuple[int, ...]]]:
    """(sorted f tags, sorted g tags, {Δ: primes of Δ}), kept on seq.

    A factor is tagged, once per multiplicity, 1 when linear and with
    the square-free part Δ of its discriminant when quadratic (never 1);
    Δ and its primes come from one factorization per distinct
    discriminant.  A factor of degree above 2, or one the factorization
    cannot certify, raises.
    """
    if seq._square_classes is None:
        # D = c₁² − 4c₀c₂ of the integer form -> (Δ, primes of Δ)
        classes: dict[int, tuple[int, tuple[int, ...]]] = {}
        sides = []
        for table in (seq.f_factors, seq.g_factors):
            tags: list[int] = []
            for pf in table.factors:
                if not pf.certified or pf.poly.degree > 2:
                    raise UnsupportedFactorization(
                        f"cannot certify the factor {pf.poly} "
                        "(degree above 2 or incomplete split)"
                    )
                tag = 1
                if pf.poly.degree == 2:
                    c = pf.poly.to_integer()[0]
                    n = c[1] ** 2 - 4 * c[0] * c[2]
                    if n not in classes:
                        odd = tuple(sorted(q for q, e in factorize(n).items()
                                           if e % 2))
                        classes[n] = ((-1 if n < 0 else 1) * math.prod(odd),
                                      odd)
                    tag = classes[n][0]
                tags.extend([tag] * pf.multiplicity)
            sides.append(tuple(sorted(tags)))
        seq._square_classes = (*sides, dict(classes.values()))
    return seq._square_classes


def discriminant_profile(seq: HypergeomSeq) -> DiscriminantProfile:
    """Collect Δ = squarefree part of disc over irreducible quadratics."""
    supports = _square_classes(seq)[2]
    prime_support = tuple(sorted(set().union(*supports.values())))
    vectors = {
        d: tuple(1 if abs(d) % p == 0 else 0 for p in prime_support)
        for d in supports
    }
    return DiscriminantProfile(frozenset(supports), prime_support, vectors)


# -- condition primes ---------------------------------------------------


def _solver_vectors(profile: DiscriminantProfile) -> dict[int, tuple[int, ...]]:
    """Character coordinates for each Δ: optional sign bit + prime bits.

    The Legendre symbol of a square-free Δ factors into independent
    characters (−1/p), (2/p), (q/p): a sign pattern on those coordinates
    is realizable by infinitely many primes, so solvability over these
    vectors is exactly existence of a condition prime.  The sign
    coordinate is prepended only when some Δ is negative.
    """
    if profile.has_negative:
        return {
            d: ((1 if d < 0 else 0),) + profile.vectors[d]
            for d in profile.discs
        }
    return dict(profile.vectors)


def exists_condition_prime(
    profile: DiscriminantProfile, delta: int
) -> Optional[tuple[int, ...]]:
    """An ε with δ^(delta)·ε ≡ 0 and δ^(Δ′)·ε ≡ 1 (mod 2) for the rest.

    Coordinates follow _solver_vectors (a leading sign coordinate
    appears iff the profile has negative discriminants).  The system is
    solved by GF(2) elimination, which returns the lex-least solution.
    None means the system is unsolvable, i.e. no condition prime exists
    at all.
    """
    if delta not in profile.discs:
        raise ValueError(f"delta = {delta} is not one of the discriminants")
    vectors = _solver_vectors(profile)
    r = len(next(iter(vectors.values()))) if vectors else 0
    targets = [(vec, 0 if d == delta else 1) for d, vec in vectors.items()]
    return _gf2_solve(targets, r)


def _gf2_solve(
    targets: Sequence[tuple[tuple[int, ...], int]], r: int
) -> Optional[tuple[int, ...]]:
    """The lex-least solution of the affine GF(2) system, or None.

    Rows become bitmasks with coordinate j at bit j.  Each pivot is the
    top bit of its reduced row, so a pivot coordinate depends only on
    lower coordinates; setting every free coordinate to 0 and fixing
    pivots in ascending order minimizes ε₀ first, then ε₁, and so on.
    """
    rows = []
    for vec, want in targets:
        mask = 0
        for j, v in enumerate(vec):
            if v:
                mask |= 1 << j
        rows.append((mask, want))
    pivots: list[tuple[int, int, int]] = []  # (pivot bit, mask, rhs)
    for mask, rhs in rows:
        for pbit, pmask, prhs in pivots:
            if mask >> pbit & 1:
                mask ^= pmask
                rhs ^= prhs
        if mask == 0:
            if rhs:
                return None
            continue
        pivots.append((mask.bit_length() - 1, mask, rhs))
    eps = 0
    # each mask's non-pivot bits sit below its pivot (the top bit), so
    # ascending pivot order sees only finalized coordinates
    for pbit, mask, rhs in sorted(pivots):
        if bin(eps & (mask ^ (1 << pbit))).count("1") & 1 != rhs:
            eps |= 1 << pbit
    return tuple(eps >> j & 1 for j in range(r))


@dataclass(frozen=True)
class ConditionPrimeSearch:
    prime: Optional[int]
    diagnostic: str
    tested: int  # candidate primes examined

    def __bool__(self) -> bool:
        return self.prime is not None


def find_condition_prime(
    profile: DiscriminantProfile, delta: int, p_max: int = 100_000
) -> ConditionPrimeSearch:
    """Smallest odd prime coprime to every Δ with the split/inert pattern.

    Requires legendre(delta, p) = 1 and legendre(Δ′, p) = −1 for every
    other discriminant.  When the ε-system is unsolvable no such prime
    exists at any cap, and the scan is skipped with a diagnostic;
    an exhausted scan of a solvable system is reported as such, never
    as nonexistence.
    """
    if delta not in profile.discs:
        raise ValueError(f"delta = {delta} is not one of the discriminants")
    if exists_condition_prime(profile, delta) is None:
        return ConditionPrimeSearch(
            None, "the character system is unsolvable: no such prime exists", 0
        )
    others = sorted(profile.discs - {delta})
    tested = 0
    for p in iter_primes(3, p_max):
        if any(abs(d) % p == 0 for d in profile.discs):
            continue
        tested += 1
        if euler_criterion(delta, p) != 1:
            continue
        if all(euler_criterion(d, p) == -1 for d in others):
            return ConditionPrimeSearch(p, "found by direct scan", tested)
    return ConditionPrimeSearch(
        None,
        f"solvable system but no prime found up to {p_max}; raise the cap",
        tested,
    )


# -- rep(r ± s√Δ) -------------------------------------------------------


def rep_quadratic(r: Rational, s: Rational, delta: int, p: int,
                  sign: int = 1) -> int:
    """rep(r + sign·s·D) in [0, p) with D = √delta mod p, D < p/2."""
    require_prime(p)
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    d_root = sqrt_mod(delta % p, p)
    return (mod_rep(r, p) + sign * mod_rep(s, p) * d_root) % p


# -- equidistribution harness ------------------------------------------


@dataclass(frozen=True)
class EquidistributionReport:
    delta: int
    progression: tuple[int, int]  # (a, q)
    p_limit: int
    samples: int
    skipped_undefined: int  # qualifying primes hitting a denominator
    bins: tuple[tuple[Fraction, Fraction, float], ...]  # (left, right, freq)
    star_discrepancy: float

    def csv_rows(self) -> Iterator[str]:
        for left, right, freq in self.bins:
            yield f"{float(left):.6f},{float(right):.6f},{freq:.8f}"

    def summary(self) -> str:
        return (
            f"delta={self.delta} progression={self.progression[0]}"
            f"(mod {self.progression[1]}) p_limit={self.p_limit} "
            f"samples={self.samples} skipped={self.skipped_undefined} "
            f"star_discrepancy={self.star_discrepancy:.6f}"
        )


def _require_sampling_delta(delta: int) -> None:
    if delta < 2 or squarefree_part(delta) != delta:
        raise ValueError(
            "sampling needs a square-free delta >= 2 "
            f"(got {delta}); negative or square parts are out of scope"
        )


def _progression(a: int, q: int, lo: int, hi: int) -> Iterator[int]:
    """The primes p ≡ a (mod q) in [lo, hi], from iter_primes."""
    a %= q
    return (p for p in iter_primes(lo, hi) if p % q == a)


def _collect_samples(
    primes: Iterable[int], delta: int, r: Rational, s: Rational
) -> tuple[list[tuple[int, int]], int]:
    """(rep, p) pairs for both signs over qualifying primes + skip count."""
    out: list[tuple[int, int]] = []
    skipped = 0
    r, s = Fraction(r), Fraction(s)
    rn, rd = r.numerator, r.denominator
    sn, sd = s.numerator, s.denominator
    for p in primes:  # sieved: the kernels need no primality check
        if p == 2 or euler_criterion(delta, p) != 1:
            continue
        if rd % p == 0 or sd % p == 0:
            skipped += 1
            continue
        d_root = tonelli_shanks(delta % p, p)
        base = rn * pow(rd, -1, p) % p
        offs = sn * pow(sd, -1, p) % p * d_root
        out.append(((base + offs) % p, p))
        out.append(((base - offs) % p, p))
    return out, skipped


def _cross_cmp(x: tuple[int, int], y: tuple[int, int]) -> int:
    """The sign of a/b − c/d for x = (a, b), y = (c, d) with b, d > 0."""
    lhs, rhs = x[0] * y[1], y[0] * x[1]
    return (lhs > rhs) - (lhs < rhs)


def star_discrepancy(points: Sequence[tuple[int, int]]) -> Fraction:
    """Exact D* of the points a/b in [0,1), given as integer pairs (a, b).

    The sup over [0,t) boxes is attained at a sorted point, so sort and
    take max(i/n − a/b, a/b − (i−1)/n).  The sort key is the float a/b:
    int true division rounds correctly, hence monotonically, so it can
    tie two distinct points but never invert them.  Neighbours are then
    checked by cross-multiplication, and only a failed check re-sorts
    with the exact comparator; no float decides the order.  The sup is
    kept as one integer pair num/(n·den).
    """
    n = len(points)
    if n == 0:
        raise ValueError("no points")
    for a, b in points:
        if b <= 0:
            raise ValueError(f"point {a}/{b}: denominator must be positive")
        if not 0 <= a < b:
            raise ValueError(f"point {a}/{b} lies outside [0, 1)")
    xs = sorted(points, key=lambda ab: ab[0] / ab[1])
    for (a, b), (c, d) in zip(xs, islice(xs, 1, None)):
        if a * d > c * b:
            xs.sort(key=cmp_to_key(_cross_cmp))
            break
    best_num, best_den = 0, 1
    for i, (a, b) in enumerate(xs, start=1):
        # i/n − a/b and a/b − (i−1)/n share the denominator n·b
        an = a * n
        num = max(i * b - an, an - (i - 1) * b)
        if num * best_den > best_num * b:
            best_num, best_den = num, b
    return Fraction(best_num, n * best_den)


def equidistribution_sample(
    delta: int,
    q: int = 1,
    a: int = 0,
    r: Union[Rational, int] = 0,
    s: Union[Rational, int] = 1,
    p_limit: int = 100_000,
    bin_count: int = 10,
) -> EquidistributionReport:
    """Histogram of rep(r ± s√delta)/p over primes p ≡ a (mod q).

    Pools both signs; primes where a denominator of r or s collides are
    counted as skipped.  The star discrepancy is computed exactly on the
    pooled sample.
    """
    _require_sampling_delta(delta)
    if Fraction(s) == 0:
        raise ValueError("s must be nonzero")
    if bin_count < 2:
        raise ValueError("bin_count must be >= 2")
    if q < 1:
        raise ValueError("q must be >= 1")
    samples, skipped = _collect_samples(_progression(a, q, 2, p_limit),
                                        delta, r, s)
    if not samples:
        raise EmptySampleSet(
            f"no primes <= {p_limit} with p = {a} (mod {q}) split delta = {delta}"
        )
    k = len(samples)
    counts = [0] * bin_count
    for rep, p in samples:
        counts[rep * bin_count // p] += 1
    bins = tuple(
        (Fraction(i, bin_count), Fraction(i + 1, bin_count), counts[i] / k)
        for i in range(bin_count)
    )
    return EquidistributionReport(
        delta=delta,
        progression=(a % q, q),
        p_limit=p_limit,
        samples=k,
        skipped_undefined=skipped,
        bins=bins,
        star_discrepancy=float(star_discrepancy(samples)),
    )


def window_count(
    delta: int,
    q: int,
    a: int,
    r: Union[Rational, int],
    s: Union[Rational, int],
    N: int,
    window_delta: float,
    alpha: Union[Rational, float],
    beta: Union[Rational, float],
) -> int:
    """#{primes p in [N, (1+δ)N): p ≡ a (mod q), some sign has rep/p ∈ [α,β)}."""
    _require_sampling_delta(delta)
    al, be = Fraction(alpha), Fraction(beta)
    if not (0 <= al < be <= 1):
        raise ValueError("need 0 <= alpha < beta <= 1")
    if window_delta <= 0:
        raise ValueError("window_delta must be positive")
    if q < 1:
        raise ValueError("q must be >= 1")
    hi = int(N * (1 + window_delta))
    samples, _ = _collect_samples(_progression(a, q, N, hi - 1), delta, r, s)
    an, ad = al.numerator, al.denominator
    bn, bd = be.numerator, be.denominator
    hits = {p for rep, p in samples if an * p <= rep * ad and rep * bd < bn * p}
    return len(hits)


# -- class C ------------------------------------------------------------


def class_c_check(seq: HypergeomSeq) -> bool:
    """Do all irrational parameters fit in Q(√Δ₁) ∪ Q(√Δ₂) ∪ Q(√Δ₁Δ₂)?

    True iff some factor is an irreducible quadratic and the square-free
    discriminant parts number at most three — with exactly three only
    when one is the square-free part of the product of the other two,
    read off the profile's sign and exponent vectors.
    Negative parts participate like any others (the profile flags them).
    """
    profile = discriminant_profile(seq)
    if not profile.discs:
        return False  # every parameter is rational
    if len(profile.discs) > 3:
        return False
    if len(profile.discs) == 3:
        # Δ₃ is the square-free part of Δ₁Δ₂ iff the sign and exponent
        # vectors add to Δ₃'s over GF(2); the relation is symmetric
        a, b, c = _solver_vectors(profile).values()
        return tuple(map(xor, a, b)) == c
    return True


def class_d_quadratic_check(seq: HypergeomSeq) -> bool:
    """Do f and g force divergence through mismatched quadratic data?

    Each irreducible factor (with multiplicity) contributes the
    square-free part of its discriminant — 1 for a linear factor — and
    the sequence is divergence-certified iff the two multisets differ:
    no pairing of parameters can then generate equal number fields with
    equal discriminant classes.
    """
    f_tags, g_tags, _ = _square_classes(seq)
    return f_tags != g_tags
