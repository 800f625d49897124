"""Root-count asymmetry at a prime and the certified valuation envelope.

If f and g have different numbers of roots mod p (counted with
multiplicity, at a prime where mod-p root structure is trustworthy),
the p-adic valuation of uₙ drifts linearly: each root contributes
n/(p−1) + O(log n) to the valuation sum on its side.  This module finds
such primes, packages them as certificates, and turns a certificate
into an explicit lower bound L(n) ≤ |ν_p(uₙ)| whose constants are
spelled out rather than hidden in an O(·).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, repeat
from operator import mul, sub, truediv
from typing import Iterator, Optional, Sequence, Union

from .errors import BadPrime, NotHenselPrime, UnsupportedInput
from .hyperseq import HypergeomSeq, usable_prime, valuation_profile
from .numtheory import (
    INFINITY,
    PROVED_PRIME_LIMIT,
    Rational,
    iter_primes,
    require_prime,
)


def root_counts(seq: HypergeomSeq, p: int) -> tuple[int, int]:
    """(m_f, m_g): roots of f and g mod p, counted with multiplicity,
    from the sequence's RootPlan."""
    if not usable_prime(seq, p):
        raise NotHenselPrime(
            f"p = {p} cannot be trusted for this recurrence "
            "(bad reduction or colliding roots)"
        )
    return seq.root_plan().root_counts(p)


@dataclass(frozen=True)
class AsymmetryCertificate:
    """A prime witnessing linear divergence of ν_p(uₙ).

    slope = (m_g − m_f)/(p−1) is signed (g drives valuations up); A is
    its magnitude and B bounds the integer-cleared polynomial values,
    max(|F(m)|, |G(m)|) ≤ B·n^d for 1 ≤ m ≤ n.  The producing scan only
    emits certificates at primes coprime to u₀ (and to any requested
    extra rationals), so u0_valuation is normally 0; the envelope still
    subtracts |u0_valuation| so a hand-built certificate stays sound.
    """

    p: int
    m_f: int
    m_g: int
    slope: Fraction
    A: Fraction
    B: int
    u0_valuation: int

    def to_record(self) -> str:
        return (
            f"asymmetry-certificate: p={self.p} m_f={self.m_f} "
            f"m_g={self.m_g} slope={self.slope} A={self.A} B={self.B} "
            f"u0_valuation={self.u0_valuation}"
        )


@dataclass(frozen=True)
class ScanResult:
    """Outcome of a prime scan: a certificate, or why every prime failed."""

    certificate: Optional[AsymmetryCertificate]
    p_min: int
    p_max: int
    tested: int  # usable primes examined
    symmetric: int  # usable but equal root counts
    unusable: int  # failed the reduction/collision gate
    excluded: int  # divided u₀ or a caller-supplied rational

    def __bool__(self) -> bool:
        return self.certificate is not None

    def summary(self) -> str:
        if self.certificate is not None:
            return self.certificate.to_record()
        return (
            f"scan-summary: range=[{self.p_min},{self.p_max}] "
            f"tested={self.tested} symmetric={self.symmetric} "
            f"unusable={self.unusable} excluded={self.excluded} "
            "result=empty"
        )


def _poly_value_bound(seq: HypergeomSeq) -> int:
    """B with max(|F(m)|, |G(m)|) ≤ B·n^d for 1 ≤ m ≤ n (integer forms)."""
    F, _, G, _ = seq.integer_forms()
    return max(sum(abs(c) for c in F), sum(abs(c) for c in G), 1)


def _divides(p: int, value: Rational) -> bool:
    return value.numerator % p == 0 or value.denominator % p == 0


def _exclusion(seq: HypergeomSeq, p: int,
               coprime_with: Sequence[Rational]) -> Optional[str]:
    """Why p may not carry a certificate, or None.  Never prints the
    value p divides: targets can run to thousands of digits."""
    if seq.u0 != 0 and _divides(p, seq.u0):
        return f"p = {p} divides u0"
    for value in coprime_with:
        if value != 0 and _divides(p, value):
            return f"p = {p} divides a required-coprime value"
    return None


def _certificate(seq: HypergeomSeq, p: int, m_f: int,
                 m_g: int) -> AsymmetryCertificate:
    """The certificate at a prime that passed the exclusion test."""
    return AsymmetryCertificate(
        p=p,
        m_f=m_f,
        m_g=m_g,
        slope=Fraction(m_g - m_f, p - 1),
        A=Fraction(abs(m_g - m_f), p - 1),
        B=_poly_value_bound(seq),
        u0_valuation=0,  # p is coprime to u0 (u0 = 0 also records 0)
    )


def make_certificate(seq: HypergeomSeq, p: int,
                     coprime_with: Sequence[Rational] = ()) -> AsymmetryCertificate:
    """Build the certificate at a specific prime, or fail loudly.

    Raises BadPrime if p is not a prime below 2^64 (where is_prime is a
    proof), NotHenselPrime if the prime cannot be trusted, ValueError if
    the root counts are equal or the prime divides u₀ (or one of the
    extra rationals to stay coprime with).
    """
    require_prime(p)
    if p >= PROVED_PRIME_LIMIT:
        raise BadPrime("certificates need a proved prime, below 2^64")
    reason = _exclusion(seq, p, coprime_with)
    if reason is not None:
        raise ValueError(reason)
    m_f, m_g = root_counts(seq, p)
    if m_f == m_g:
        raise ValueError(f"sequence is symmetric at p = {p} ({m_f} roots each)")
    return _certificate(seq, p, m_f, m_g)


Outcome = Union[str, AsymmetryCertificate]  # per prime, from scan_primes


def scan_primes(
    seq: HypergeomSeq,
    p_min: int,
    p_max: int,
    coprime_with: Sequence[Rational] = (),
) -> Iterator[tuple[int, Outcome]]:
    """(p, outcome) for every prime in [p_min, p_max], in increasing order.

    The outcome is "excluded" (p divides u₀ or a value in coprime_with),
    "unusable" (p fails the trust gate), "symmetric" (equal root
    counts), or the certificate at p.  This is the one prime-scan loop;
    it raises nothing per prime and tests no primality: the primes come
    from iter_primes, and the gate and the root counts from the
    sequence's RootPlan, as in usable_prime and root_counts.
    """
    plan = seq.root_plan()
    # p divides u₀ or a value iff it divides their product; one gcd per
    # block of primes replaces a % per prime on values that can run to
    # thousands of digits.  Blocks double up to 256 primes, so a caller
    # that stops early has tested few primes past its stop.
    guarded = math.prod(abs(v.numerator) * v.denominator
                        for v in (seq.u0, *coprime_with) if v != 0)
    primes = iter_primes(p_min, p_max)
    size = 8
    while block := list(islice(primes, size)):
        shared = math.gcd(guarded, math.prod(block))
        for p in block:
            if shared % p == 0:
                yield p, "excluded"
            elif plan.gate % p == 0:
                yield p, "unusable"
            else:
                m_f, m_g = plan.root_counts(p)
                yield p, ("symmetric" if m_f == m_g
                          else _certificate(seq, p, m_f, m_g))
        size = min(2 * size, 256)


def find_asymmetric_prime(
    seq: HypergeomSeq,
    p_min: int = 2,
    p_max: int = 10_000,
    coprime_with: Sequence[Rational] = (),
) -> ScanResult:
    """Smallest trustworthy prime with unequal root counts, with the
    counts of the scan_primes outcomes up to it (all of them when the
    range holds no such prime)."""
    if p_min < 2:
        raise ValueError("p_min must be >= 2")
    counts: Counter[str] = Counter()
    cert = None
    for _, outcome in scan_primes(seq, p_min, p_max, coprime_with):
        if not isinstance(outcome, str):
            cert = outcome
            break
        counts[outcome] += 1
    sym = counts["symmetric"]
    return ScanResult(cert, p_min, p_max, sym + (cert is not None), sym,
                      counts["unusable"], counts["excluded"])


# -- the certified envelope --------------------------------------------


@dataclass(frozen=True)
class Envelope:
    """L(n) ≤ |ν_p(uₙ)| for all n ≥ 1, with explicit constants.

    L(n) = A·n − c·(⌊log_p(B·n^d)⌋ + 2) − |ν_p(u₀)| with c = m_f + m_g
    and d = max(deg f, deg g).  Counting multiples layer by layer: for
    each of the c roots, #{m ≤ n : p^j divides the shifted factor} is
    ⌊n/p^j⌋ or ⌈n/p^j⌉ for every j ≥ 1 (roots lift uniquely past the
    collision gate), and no layer beyond ⌊log_p(B·n^d)⌋ is populated,
    so each root contributes n/(p−1) ± (⌊log_p(B·n^d)⌋ + 2).

    The level j = ⌊log_p(B·m^d)⌋ is constant on the run [m_j, m_{j+1}),
    m_j the least m with B·m^d ≥ p^j, and L rises along a run; so on run
    j, L(m) ≤ τ holds exactly for m ≤ ⌊(τ + |ν_p(u₀)| + c·(j+2))/A⌋.
    The real run lengths x_j·(p^{1/d} − 1), x_j = (p^j/B)^{1/d}, grow
    with j, and an integer run longer than c/A + 2 is a real one longer
    than c/A + 1: past a run that holds no such m, the slack
    (τ + |ν_p(u₀)| + c·(j+2))/A − x_j, below 1 there, falls by more than
    1 a level, so no later run holds one either.
    """

    p: int
    A: Fraction
    c: int
    B: int
    d: int
    u0_valuation_abs: int

    def log_cap(self, n: int) -> int:
        """⌊log_p(B·n^d)⌋, exactly."""
        t = self.B * n**self.d
        j = 0
        pw = self.p
        while pw <= t:
            j += 1
            pw *= self.p
        return j

    def __call__(self, n: int) -> Fraction:
        if n < 1:
            raise ValueError("the envelope is stated for n >= 1")
        return (self.A * n - self.c * (self.log_cap(n) + 2)
                - self.u0_valuation_abs)

    def bound_index(self, tau: int, max_n: Optional[int] = None) -> int:
        """The least n₀ with L(m) > tau for every m ≥ n₀, in integers.

        Walks the runs of constant level from m = 1 (see the class
        docstring) and stops at the first run that holds no m with
        L(m) ≤ tau and is longer than c/A + 2.  Raises UnsupportedInput
        as soon as n₀ exceeds max_n, and ValueError unless A > 0 and
        B ≥ 1 (else L has no cut-off, or its runs never end).
        """
        if self.A <= 0 or self.B < 1:
            raise ValueError("the walk needs A > 0 and B >= 1")
        num, den = self.A.numerator, self.A.denominator
        n0 = m = 1
        j = self.log_cap(1)
        while True:
            if max_n is not None and n0 > max_n:
                raise UnsupportedInput(
                    f"certified bound index exceeds the cap {max_n}")
            # the least m' with B·m'^d ≥ p^(j+1), by bisection on [0, hi]
            target = self.p ** (j + 1)
            lo, hi = 0, 1 << -(-target.bit_length() // self.d)
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if self.B * mid**self.d >= target:
                    hi = mid
                else:
                    lo = mid
            last = (tau + self.u0_valuation_abs + self.c * (j + 2)) * den // num
            if last >= m:
                n0 = min(last, hi - 1) + 1
            elif (hi - m) * num > self.c * den + 2 * num:
                return n0
            m, j = hi, self.log_cap(hi)


def certified_envelope(cert: AsymmetryCertificate,
                       seq: HypergeomSeq) -> Envelope:
    """Attach the divergence bound of a certificate to its sequence."""
    if cert.m_f == cert.m_g:
        raise ValueError("certificate has equal root counts")
    d = max(seq.f.degree, seq.g.degree)
    if d < 1:
        raise ValueError("constant f and g cannot carry an asymmetric prime")
    return Envelope(
        p=cert.p,
        A=cert.A,
        c=cert.m_f + cert.m_g,
        B=cert.B,
        d=d,
        u0_valuation_abs=abs(cert.u0_valuation),
    )


# -- empirical slope ----------------------------------------------------


@dataclass(frozen=True)
class SlopeFit:
    slope: Fraction  # exact least squares over the window
    intercept: Fraction
    max_log_deviation: float  # max |ν_p(uₙ) − slope·n| / log n on the window
    window: tuple[int, int]


def slope_fit(seq: HypergeomSeq, p: int, n_max: int) -> SlopeFit:
    """Fit ν_p(uₙ) ≈ slope·n over the top half of [0, n_max].

    The window comes from valuation_profile and the least squares is
    exact integer arithmetic.  The deviation statistic normalizes by
    log n, matching the expected O(log n) wobble around the line.
    """
    lo, hi = n_max // 2, n_max
    if lo < 2:
        raise ValueError("n_max too small for a slope window")
    vs = valuation_profile(seq, p, hi)[lo:]
    if vs[-1] is INFINITY:  # the INFINITY tail runs to the end
        raise ValueError("sequence is eventually zero; valuations are infinite")
    ns = range(lo, hi + 1)
    k = len(ns)
    sx = sum(ns)
    sy = sum(vs)
    sxx = sum(map(mul, ns, ns))
    sxy = sum(map(mul, ns, vs))
    denom = k * sxx - sx * sx
    slope = Fraction(k * sxy - sx * sy, denom)
    intercept = Fraction(sy - slope * sx, k)
    # |v − slope·n| as the integer pair |v·Q − P·n|/Q: int true division
    # rounds correctly, so this is the float of the Fraction, bit for bit
    P, Q = slope.numerator, slope.denominator
    gaps = map(abs, map(sub, map(Q.__mul__, vs), map(P.__mul__, ns)))
    dev = max(map(truediv, map(truediv, gaps, repeat(Q)), map(math.log, ns)))
    return SlopeFit(slope, intercept, dev, (lo, hi))
