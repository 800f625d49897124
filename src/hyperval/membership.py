"""Deciding whether a target value occurs in a sequence.

The certified route: find a prime p where root counts of f and g differ
(so |ν_p(uₙ)| grows linearly along the sequence) and p divides neither
u₀ nor the target t, so ν_p(t) = 0.  The envelope then yields an index
n₀ with |ν_p(uₙ)| > 0 for every n ≥ n₀ — beyond it uₙ = t is impossible
— and the finite prefix is scanned exhaustively.  The scan filters the
prefix with one residue pair of the cross-multiplied identity modulo a
product of two Mersenne primes, carried by lazy itertools chains; any
index surviving the filter is re-verified with a fresh exact term, so
filter collisions cost time, never correctness.

Eventually-zero sequences (u₀ = 0 or g with a positive integer root)
are decided by the same scan over their finite nonzero prefix, and
t = 0 is answered from the validation flags alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress, count, islice
from operator import eq
from typing import Optional, Union

from .asymmetry import (
    AsymmetryCertificate,
    certified_envelope,
    find_asymmetric_prime,
    make_certificate,
    scan_primes,
)
from .errors import NotHenselPrime, UnsupportedInput
from .hyperseq import HypergeomSeq, _first_zero, step_polys, term
from .numtheory import Rational
from .polyq import int_values

# filter modulus: a product of two Mersenne primes, so by CRT a residue
# pair agrees mod _M exactly when it agrees mod both; a congruence that
# holds for equal integers holds at every modulus, so the filter can
# never lose a witness
_M = ((1 << 61) - 1) * ((1 << 31) - 1)


@dataclass(frozen=True)
class MembershipConfig:
    prime_cap: int = 10_000
    term_cap: int = 10_000_000
    forced_prime: Optional[int] = None


@dataclass(frozen=True)
class MembershipVerdict:
    outcome: str  # "yes" | "no" | "unsupported"
    witness: Optional[int] = None
    reason: str = ""
    certificate: Optional[AsymmetryCertificate] = None
    bound_n0: Optional[int] = None
    terms_checked: int = 0

    def to_record(self) -> str:
        parts = [f"outcome={self.outcome}"]
        if self.witness is not None:
            parts.append(f"witness={self.witness}")
        if self.bound_n0 is not None:
            parts.append(f"n0={self.bound_n0}")
        parts.append(f"terms_checked={self.terms_checked}")
        if self.certificate is not None:
            parts.append(self.certificate.to_record())
        if self.reason:
            parts.append(f"reason={self.reason}")
        return "membership: " + " ".join(parts)

    def csv_row(self) -> str:
        cert = self.certificate
        return ",".join([
            self.outcome,
            "" if self.witness is None else str(self.witness),
            "" if self.bound_n0 is None else str(self.bound_n0),
            str(self.terms_checked),
            "" if cert is None else str(cert.p),
            "" if cert is None else str(cert.slope),
            self.reason.replace(",", ";"),
        ])


def _yes(n: int, certificate=None, bound_n0=None,
         checked=0) -> MembershipVerdict:
    """The verdict for a witness its caller has already checked exactly."""
    return MembershipVerdict(
        "yes", witness=n, certificate=certificate, bound_n0=bound_n0,
        terms_checked=checked)


def _best_certificate(
    seq: HypergeomSeq, t: Fraction, config: MembershipConfig
):
    """Asymmetric prime coprime to t, preferring the steepest slope.

    Scans primes in increasing order but keeps the certificate with the
    largest |slope| (ties to the smaller prime): a steep slope shrinks
    n₀.  Stops early once no later prime can beat the current best,
    since |m_g − m_f| ≤ max(deg f, deg g) caps future slopes.  When no
    prime qualifies, the reason carries the counts of
    find_asymmetric_prime over the same range.
    """
    if config.forced_prime is not None:
        return make_certificate(seq, config.forced_prime, coprime_with=(t,))
    maxdeg = seq.max_degree
    best = None
    for p, outcome in scan_primes(seq, 2, config.prime_cap, coprime_with=(t,)):
        if isinstance(outcome, str):
            continue
        if best is None or outcome.A > best.A:
            best = outcome
        if best.A >= Fraction(maxdeg, outcome.p):
            break
    if best is None:
        scan = find_asymmetric_prime(seq, 2, config.prime_cap, (t,))
        raise UnsupportedInput("no usable asymmetric prime below the cap; "
                               + scan.summary())
    # the public entry re-tests the chosen prime and the exclusions; its
    # gate and root counts read the same RootPlan as the scan
    return make_certificate(seq, best.p, coprime_with=(t,))


def decide(seq: HypergeomSeq, t: Union[Rational, int],
           config: MembershipConfig = MembershipConfig()) -> MembershipVerdict:
    """Does uₙ = t hold for some n ≥ 0?"""
    t = Fraction(t)

    if seq.flags.degenerate_zero:
        return _decide_degenerate(seq, t, config)

    if t == 0:
        # a product of nonzero rationals is never zero
        return MembershipVerdict(
            "no",
            reason="u0 is nonzero and g has no positive integer roots, "
                   "so every term is a product of nonzero rationals",
        )

    try:
        cert = _best_certificate(seq, t, config)
    except (UnsupportedInput, NotHenselPrime, ValueError) as exc:
        return MembershipVerdict("unsupported", reason=str(exc))

    envelope = certified_envelope(cert, seq)
    try:
        # τ = |ν_p(t)| = 0: the certificate's prime is coprime to t
        n0 = envelope.bound_index(0, max_n=config.term_cap)
    except UnsupportedInput as exc:
        return MembershipVerdict("unsupported", reason=str(exc),
                                 certificate=cert)

    hit = _scan_prefix(seq, t, n0)
    if hit is not None:
        return _yes(hit, certificate=cert, bound_n0=n0, checked=hit + 1)
    return MembershipVerdict(
        "no", certificate=cert, bound_n0=n0, terms_checked=n0,
        reason=f"|v_{cert.p}| exceeds 0 for all n >= {n0}; "
               "prefix scanned exhaustively",
    )


def _decide_degenerate(seq: HypergeomSeq, t: Fraction,
                       config: MembershipConfig) -> MembershipVerdict:
    """u₀ = 0 or g with a positive root: compare along the finite prefix."""
    first_zero = _first_zero(seq)
    if t == 0:
        # first_zero is not None here: degenerate_zero flag implies it
        if term(seq, first_zero) != 0:
            raise AssertionError(
                f"witness verification failed at n = {first_zero}")
        return _yes(first_zero, checked=first_zero + 1)
    if seq.u0 == 0:
        return MembershipVerdict(
            "no", reason="the zero sequence never equals a nonzero target")
    if first_zero > config.term_cap:
        return MembershipVerdict(
            "unsupported",
            reason=f"nonzero prefix of length {first_zero} exceeds the "
                   f"term cap {config.term_cap}",
        )
    hit = _scan_prefix(seq, t, first_zero)
    if hit is not None:
        return _yes(hit, checked=hit + 1)
    return MembershipVerdict(
        "no", terms_checked=first_zero,
        reason=f"target differs from the {first_zero} nonzero terms and "
               "from the zero tail",
    )


def _mulmod(x: int, y: int) -> int:
    return x * y % _M


def _scan_prefix(seq: HypergeomSeq, t: Fraction, n0: int) -> Optional[int]:
    """First n < n0 with uₙ = t, or None.

    With uₘ = uₘ₋₁·A(m)/B(m) from step_polys, uₙ = t exactly when
    u0num·tden·∏A(m) = tnum·u0den·∏B(m) over 1 ≤ m ≤ n.  A(m) and B(m)
    come from forward differences and both sides are prefix products
    mod _M, in itertools chains whose only Python frame per index is
    _mulmod.  A true witness always passes the congruence, and each
    index that passes gets an exact check from scratch; the chain is
    lazy, so a hit stops it at the witness.
    """
    A, B = step_polys(seq)
    u0n, u0d = seq.u0.numerator, seq.u0.denominator
    lhs = accumulate(islice(int_values(A, 1), n0 - 1), _mulmod,
                     initial=u0n * t.denominator % _M)
    rhs = accumulate(islice(int_values(B, 1), n0 - 1), _mulmod,
                     initial=t.numerator * u0d % _M)
    for n in compress(count(), map(eq, lhs, rhs)):
        if term(seq, n) == t:
            return n
    return None
