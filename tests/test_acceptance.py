"""End-to-end acceptance gate: one test per shipped guarantee.

Run with -v to get a pass/fail line per criterion.  Each test carries
its own wall-clock budget; exceeding it is a failure even if the math
checks out.
"""

import math
import random
import time
from fractions import Fraction

from hyperval.asymmetry import (
    certified_envelope,
    find_asymmetric_prime,
    make_certificate,
    slope_fit,
)
from hyperval.hyperseq import (
    TermCursor,
    make_sequence,
    regularize,
    term,
    valuation_profile,
)
from hyperval.membership import decide
from hyperval.numtheory import factorize, legendre, sieve_primes, weil_height_exact
from hyperval.padic import (
    count_roots_mod_p,
    is_hensel_prime,
    valuation_at_prime_power,
)
from hyperval.polyq import RatPoly, radical
from hyperval.quadratic import (
    DiscriminantProfile,
    class_d_quadratic_check,
    discriminant_profile,
    equidistribution_sample,
    exists_condition_prime,
    find_condition_prime,
)

X = RatPoly([0, 1])
ONE = RatPoly([1])


def corpus():
    """The five sequences that admit an asymmetric certificate."""
    return [
        make_sequence(ONE, X, 1),                                  # n!
        make_sequence(X * X - RatPoly([2]), X * X - RatPoly([3]), 1),
        make_sequence(RatPoly([-1, -2, 1]), X * X - RatPoly([3]), 1),
        make_sequence((X + ONE) ** 2, X * X + ONE, 1),
        make_sequence(X * X - RatPoly([2]), X + ONE, 1),
    ]


def test_criterion_01_sextet_root_counts():
    """(x^4-10x^2+1)x^2 and (x^2-2)(x^2-3)(x^2-6) always match mod p."""
    t0 = time.monotonic()
    f = (X ** 4 - RatPoly([10]) * X * X + ONE) * X * X
    g = (X * X - RatPoly([2])) * (X * X - RatPoly([3])) * (X * X - RatPoly([6]))
    rad = radical(f * g)
    checked = 0
    for p in sieve_primes(10_000):
        if p < 5 or not is_hensel_prime(rad, p):
            continue
        checked += 1
        cf = count_roots_mod_p(f, p)
        cg = count_roots_mod_p(g, p)
        assert cf == cg, f"count mismatch at p={p}: {cf} vs {cg}"
        all_squares = all(legendre(d, p) == 1 for d in (2, 3, 6))
        assert cf == (6 if all_squares else 2), f"wrong count at p={p}"
    assert checked > 1000  # the gate only drops finitely many primes
    assert time.monotonic() - t0 < 10.0


def test_criterion_02_factorial_valuation_oracle():
    """v_2(n!) = n - s_2(n) for n <= 1e5; fitted slope within 0.1% of 1."""
    t0 = time.monotonic()
    fact = make_sequence(ONE, X, 1)
    vals = valuation_profile(fact, 2, 100_000)
    for n in range(1, 100_001):
        assert vals[n] == n - bin(n).count("1"), f"n={n}"
    fit = slope_fit(fact, 2, 100_000)
    assert fit.window == (50_000, 100_000)
    assert abs(float(fit.slope) - 1.0) <= 0.001
    assert time.monotonic() - t0 < 5.0


def test_criterion_03_envelope_soundness():
    """The certified lower bound never exceeds |v_p(u_n)|, n <= 1e4."""
    t0 = time.monotonic()
    for seq in corpus():
        cert = find_asymmetric_prime(seq).certificate
        assert cert is not None
        env = certified_envelope(cert, seq)
        vals = valuation_profile(seq, cert.p, 10_000)
        for n in range(1, 10_001):
            assert env(n) <= abs(vals[n]), \
                f"envelope breach at p={cert.p}, n={n}"
    assert time.monotonic() - t0 < 60.0


def test_criterion_04_membership_end_to_end():
    """Fixed factorial verdicts plus planted witnesses across the corpus."""
    t0 = time.monotonic()
    fact = make_sequence(ONE, X, 1)
    v = decide(fact, 120)
    assert (v.outcome, v.witness) == ("yes", 5)
    assert decide(fact, 100).outcome == "no"
    assert decide(fact, 0).outcome == "no"
    rng = random.Random(40723)
    for seq in corpus():
        for n in (rng.randint(0, 500), rng.randint(0, 500)):
            t = term(seq, n)
            verdict = decide(seq, t)
            assert verdict.outcome == "yes", \
                f"planted u_{n} missed: {verdict.reason}"
            assert term(seq, verdict.witness) == t
    assert time.monotonic() - t0 < 30.0


def test_criterion_05_regularization_identity():
    """u_n = q(n) * u~_n for the telescoping pair, and u_n = 2/(n+2)."""
    t0 = time.monotonic()
    tele = make_sequence(X + RatPoly([2]), X + ONE, 1)
    reg = regularize(tele)
    for n in range(101):
        u_n = term(tele, n)
        assert u_n == reg.correction(n) * term(reg.regular_seq, n)
        assert u_n == Fraction(2, n + 2)
    assert time.monotonic() - t0 < 1.0


def test_criterion_06_height_laws():
    """Geometric heights are exactly n*log 2; height laws hold exactly."""
    t0 = time.monotonic()
    geom = make_sequence(ONE, RatPoly([2]), 1)
    cur = TermCursor(geom)
    for n in range(61):
        if n:
            cur.advance()
        assert weil_height_exact(cur.value) == 2 ** n  # h = n*log 2, exactly

    # 1000 random rationals; everything in multiplicative (exact) form:
    # h(a) = log mag(a) with mag(a) = max(|num|, |den|).
    rng = random.Random(61941)
    pool = []
    while len(pool) < 1000:
        num = rng.randint(-10 ** 6, 10 ** 6)
        den = rng.randint(1, 10 ** 6)
        if num:
            pool.append(Fraction(num, den))
    for i in range(0, 1000, 2):
        a, b = pool[i], pool[i + 1]
        # products never gain height
        assert weil_height_exact(a * b) <= \
            weil_height_exact(a) * weil_height_exact(b)
        # powers scale height by |m|
        m = rng.randint(-6, 6)
        assert weil_height_exact(a ** m) == weil_height_exact(a) ** abs(m)
        # twice the height dominates the total valuation mass:
        # mag^2 >= prod_p p^|v_p| = |num * den|
        assert weil_height_exact(a) ** 2 >= abs(a.numerator * a.denominator)
    assert time.monotonic() - t0 < 5.0


def test_criterion_07_growth_floor():
    """h(u_n)/n stays above 0.01 and its running minimum barely moves."""
    t0 = time.monotonic()
    seq = make_sequence(RatPoly([-1, -2, 1]), X * X - RatPoly([3]), 1)
    cur = TermCursor(seq)
    running_min = math.inf
    mid_min = None
    for n in range(1, 5001):
        cur.advance()
        if n < 1000:
            continue
        ratio = math.log(weil_height_exact(cur.value)) / n
        assert ratio >= 0.01, f"growth floor broken at n={n}: {ratio}"
        running_min = min(running_min, ratio)
        if n == 3000:
            mid_min = running_min
    assert running_min >= 0.9 * mid_min
    assert time.monotonic() - t0 < 120.0


def test_criterion_08_condition_primes():
    """The {2,3} scan lands on 7; closed triples are always solvable."""
    t0 = time.monotonic()
    seq = make_sequence(X * X - RatPoly([2]), X * X - RatPoly([3]), 1)
    prof = discriminant_profile(seq)
    # independent route: first odd prime with (2/p) = 1 and (3/p) = -1
    scan = next(p for p in sieve_primes(1000)
                if p > 3 and legendre(2, p) == 1 and legendre(3, p) == -1)
    assert scan == 7
    assert find_condition_prime(prof, 2).prime == 7

    rng = random.Random(80231)
    squarefree = [d for d in range(2, 120)
                  if all(d % (q * q) for q in range(2, 11))]
    done = 0
    while done < 100:
        d1, d2 = rng.sample(squarefree, 2)
        prod = d1 * d2
        sf = prod
        for q in factorize(prod):
            while sf % (q * q) == 0:
                sf //= q * q
        discs = {d1, d2, sf}
        if len(discs) < 3:
            continue
        support = sorted({q for d in discs for q in factorize(d)})
        vectors = {d: tuple(1 if d % q == 0 else 0 for q in support)
                   for d in discs}
        prof = DiscriminantProfile(frozenset(discs), tuple(support), vectors)
        assert exists_condition_prime(prof, d1) is not None, discs
        done += 1
    assert time.monotonic() - t0 < 10.0


def test_criterion_09_equidistribution():
    """rep(±√2 mod p)/p is uniform across split primes up to 1e6."""
    t0 = time.monotonic()
    wide = equidistribution_sample(2, p_limit=1_000_000)
    for left, right, freq in wide.bins:
        assert abs(freq - 0.1) <= 0.02, f"bin [{left},{right}) at {freq}"
    narrow = equidistribution_sample(2, p_limit=10_000)
    assert wide.star_discrepancy < narrow.star_discrepancy
    assert time.monotonic() - t0 < 60.0


def test_criterion_10_digit_identity():
    """Direct v_23(u_23^s) equals the digit formula for s = 1, 2, 3."""
    t0 = time.monotonic()
    seq = make_sequence(X * X - RatPoly([2]), X * X - RatPoly([3]), 1)
    for s in (1, 2, 3):
        direct, formula = valuation_at_prime_power(seq, 23, s)
        assert direct == formula, f"s={s}: {direct} != {formula}"
    assert time.monotonic() - t0 < 60.0


def test_criterion_11_asymmetric_prime_search():
    """The √2/√3 pair certifies at p = 7 and lands in the rigid class."""
    t0 = time.monotonic()
    seq = make_sequence(X * X - RatPoly([2]), X * X - RatPoly([3]), 1)
    cert = make_certificate(seq, 7)
    assert (cert.m_f, cert.m_g) == (2, 0)
    assert find_asymmetric_prime(seq).certificate.p == 7
    assert class_d_quadratic_check(seq)
    assert time.monotonic() - t0 < 1.0
