"""Tests for the membership decision procedure."""

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hyperval import asymmetry, membership, numtheory, padic, polyq
from hyperval.asymmetry import find_asymmetric_prime, scan_primes
from hyperval.errors import InvalidF
from hyperval.hyperseq import make_sequence, step_polys, term
from hyperval.membership import MembershipConfig, decide
from hyperval.numtheory import fraction_valuation, int_valuation
from hyperval.polyq import RatPoly, int_eval

X = RatPoly([0, 1])
ONE = RatPoly([1])
SMALL = MembershipConfig(prime_cap=500)


class TestYesVerdicts:
    def test_factorial_120(self, factorial):
        v = decide(factorial, 120)
        assert v.outcome == "yes"
        assert v.witness == 5
        # 2, 3, 5 all divide 120, so the certificate climbs to 7
        assert v.certificate.p == 7
        assert v.bound_n0 > 5

    def test_first_hit_wins(self, factorial):
        # u_0 = u_1 = 1; the scan reports the earliest index.
        v = decide(factorial, 1)
        assert (v.outcome, v.witness) == ("yes", 0)

    def test_rational_target(self, mixed_degree):
        t = term(mixed_degree, 7)
        assert t.denominator > 1
        v = decide(mixed_degree, t)
        assert (v.outcome, v.witness) == ("yes", 7)

    def test_quadratic_pair_target(self, sq_pair):
        t = term(sq_pair, 7)
        v = decide(sq_pair, t)
        assert (v.outcome, v.witness) == ("yes", 7)

    def test_fractional_u0(self):
        half = make_sequence(ONE, X, Fraction(1, 2))
        v = decide(half, 360)  # 720 / 2 = u_6
        assert (v.outcome, v.witness) == ("yes", 6)

    def test_distant_witness(self, factorial):
        big = term(factorial, 200)
        v = decide(factorial, big)
        assert (v.outcome, v.witness) == ("yes", 200)
        assert v.bound_n0 > 200


def _term_calls(monkeypatch):
    """The indices of every term() call made by membership."""
    calls = []

    def counting(seq, n):
        calls.append(n)
        return term(seq, n)

    monkeypatch.setattr(membership, "term", counting)
    return calls


class TestExactChecks:
    def test_one_exact_check_per_yes(self, factorial, sq_pair,
                                     mixed_degree, monkeypatch):
        targets = [(factorial, 120, 5), (sq_pair, term(sq_pair, 700), 700),
                   (mixed_degree, term(mixed_degree, 150), 150)]
        calls = _term_calls(monkeypatch)
        for seq, t, n in targets:
            del calls[:]
            assert decide(seq, t).witness == n
            assert calls == [n]

    def test_degenerate_zero_target_checked_once(self, eventually_zero,
                                                 monkeypatch):
        calls = _term_calls(monkeypatch)
        assert decide(eventually_zero, 0).witness == 3
        assert calls == [3]

    def test_cursor_match_needs_no_rebuild(self, eventually_zero,
                                           monkeypatch):
        # the nonzero prefix goes through the filtered scan: the witness
        # is its one survivor, confirmed by one exact term
        calls = _term_calls(monkeypatch)
        assert decide(eventually_zero, Fraction(1, 3)).witness == 2
        assert calls == [2]

    def test_no_exact_check_on_a_long_no_scan(self, sq_pair, monkeypatch):
        calls = _term_calls(monkeypatch)
        v = decide(sq_pair, Fraction(7, 5), MembershipConfig(forced_prime=2797))
        assert (v.outcome, v.bound_n0, v.terms_checked) == ("no", 11185, 11185)
        assert calls == []


def _per_step_scan(seq, t, p, vt, n0):
    """First n < n0 with uₙ = t, or None, one step at a time (the loop
    the iterator scan replaced): ν_p(uₙ) == vt and the cross-multiplied
    identity mod two Mersenne primes filter, term() confirms."""
    m1, m2 = (1 << 61) - 1, (1 << 31) - 1
    A, B = step_polys(seq)
    u0n, u0d = seq.u0.numerator, seq.u0.denominator
    tn, td = t.numerator, t.denominator
    lhs1, rhs1 = (u0n * td) % m1, (tn * u0d) % m1
    lhs2, rhs2 = (u0n * td) % m2, (tn * u0d) % m2
    v = int_valuation(u0n, p) - int_valuation(u0d, p)
    n = 0
    while True:
        if v == vt and lhs1 == rhs1 and lhs2 == rhs2:
            if term(seq, n) == t:
                return n
        n += 1
        if n >= n0:
            return None
        a, b = int_eval(A, n), int_eval(B, n)
        v += int_valuation(a, p) - int_valuation(b, p)
        lhs1, rhs1 = (lhs1 * a) % m1, (rhs1 * b) % m1
        lhs2, rhs2 = (lhs2 * a) % m2, (rhs2 * b) % m2


def _coprime_prime(t):
    return next(p for p in numtheory.sieve_primes(200)
                if t.numerator % p and t.denominator % p)


class TestPrefixScan:
    """The iterator scan against the per-step loop."""

    @pytest.mark.parametrize("name", ["factorial", "sq_pair", "class_c_seq",
                                      "double_root", "mixed_degree"])
    def test_corpus_at_decides_cutoff(self, name, request):
        seq = request.getfixturevalue(name)
        for k in (0, 1, 2, 9, 60, 400):
            u = term(seq, k)
            for t in (u, u * Fraction(3, 2), u * Fraction(5, 7), -u):
                v = decide(seq, t)
                assert v.outcome in ("yes", "no"), v.reason
                p, n0 = v.certificate.p, v.bound_n0
                vt = abs(fraction_valuation(t, p))
                got = membership._scan_prefix(seq, t, n0)
                assert got == _per_step_scan(seq, t, p, vt, n0) == v.witness
                if t == u:
                    assert got is not None and got <= k

    def test_cutoff_one_checks_index_zero(self, factorial, sq_pair,
                                          mixed_degree):
        for seq in (factorial, sq_pair, mixed_degree):
            for t in (seq.u0, seq.u0 + 1, term(seq, 3)):
                want = 0 if t == seq.u0 else None
                p = _coprime_prime(t)
                assert membership._scan_prefix(seq, t, 1) == want
                assert _per_step_scan(seq, t, p, 0, 1) == want

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_random_pairs(self, data):
        coeffs = st.lists(st.integers(-4, 4), min_size=1, max_size=4)
        f, g = (RatPoly(data.draw(coeffs, side)) for side in "fg")
        u0 = data.draw(st.fractions(-9, 9, max_denominator=5).filter(bool))
        try:
            seq = make_sequence(f, g, u0)
        except (InvalidF, ValueError):
            assume(False)
        assume(not seq.flags.degenerate_zero)
        n0 = data.draw(st.integers(1, 60), "n0")
        k = data.draw(st.integers(0, 70), "k")
        scale = data.draw(st.sampled_from((1, 1, Fraction(3, 2), -1, 7)))
        t = term(seq, k) * scale
        p = _coprime_prime(t)
        got = membership._scan_prefix(seq, t, n0)
        assert got == _per_step_scan(seq, t, p, 0, n0)
        if scale == 1 and k < n0:
            assert got is not None and got <= k


class TestNoVerdicts:
    def test_factorial_100(self, factorial):
        v = decide(factorial, 100)
        assert v.outcome == "no"
        assert v.certificate is not None
        assert v.certificate.p not in (2, 5)  # coprimality steering
        assert v.terms_checked == v.bound_n0
        # brute confirmation well past the certified cut-off
        assert not any(term(factorial, n) == 100
                       for n in range(2 * v.bound_n0))

    def test_negative_target(self, factorial):
        assert decide(factorial, -6).outcome == "no"

    def test_zero_target_needs_no_certificate(self, factorial):
        # u_0 != 0 and g never vanishes at a positive integer, so no
        # term can be zero; the verdict is direct.
        v = decide(factorial, 0)
        assert v.outcome == "no"
        assert v.certificate is None

    def test_near_miss(self, sq_pair, mixed_degree):
        t = term(sq_pair, 7)
        assert decide(sq_pair, t + 1).outcome == "no"
        tm = term(mixed_degree, 7)
        near = tm + Fraction(1, tm.denominator)
        v = decide(mixed_degree, near)
        assert v.outcome == "no"
        assert not any(term(mixed_degree, n) == near
                       for n in range(2 * v.bound_n0))

    def test_distant_near_miss_is_cheap(self, factorial):
        v = decide(factorial, term(factorial, 200) + 1)
        assert v.outcome == "no"
        # an odd target has 2-adic valuation 0, so the cut-off is tiny
        assert v.terms_checked < 20

    def test_zero_sequence_never_hits_nonzero(self):
        z = make_sequence(ONE, X, 0)
        assert decide(z, 5).outcome == "no"


class TestUnsupported:
    def test_symmetric_linear_pair(self, telescoping):
        v = decide(telescoping, Fraction(2, 9), MembershipConfig(prime_cap=300))
        assert v.outcome == "unsupported"
        assert "scan-summary" in v.reason

    def test_symmetric_sextet(self, sym_pair):
        v = decide(sym_pair, 5, SMALL)
        assert v.outcome == "unsupported"
        assert "scan-summary" in v.reason
        assert "result=empty" in v.reason

    def test_forced_prime_dividing_target_refused(self, sq_pair):
        t = term(sq_pair, 7)  # denominator picks up a factor of 7
        v = decide(sq_pair, t, MembershipConfig(forced_prime=7))
        assert v.outcome == "unsupported"

    def test_forced_prime_dividing_a_huge_target(self, factorial):
        # 1800! has over 5000 digits, past Python's int-to-str limit: the
        # reason names the prime and the role of the value, not its digits
        t = math.factorial(1800)
        v = decide(factorial, t, MembershipConfig(forced_prime=7))
        assert v.outcome == "unsupported"
        assert v.reason == "p = 7 divides a required-coprime value"

    def test_empty_scan_walks_twice(self, sym_pair, monkeypatch):
        # one walk looks for a certificate, and find_asymmetric_prime
        # walks the range again for the counts in the reason
        calls = []
        walk = asymmetry.iter_primes

        def counted(lo, hi):
            calls.append((lo, hi))
            return walk(lo, hi)

        monkeypatch.setattr(asymmetry, "iter_primes", counted)
        v = decide(sym_pair, 5, SMALL)
        assert v.outcome == "unsupported"
        assert calls == [(2, SMALL.prime_cap)] * 2

    def test_empty_scan_reason(self, sym_pair):
        v = decide(sym_pair, 5, SMALL)
        scan = find_asymmetric_prime(sym_pair, 2, SMALL.prime_cap,
                                     coprime_with=(Fraction(5),))
        assert v.reason == ("no usable asymmetric prime below the cap; "
                            + scan.summary())

    def test_term_cap_exhaustion(self, factorial):
        v = decide(factorial, 100, MembershipConfig(term_cap=3))
        assert v.outcome == "unsupported"
        assert "cap" in v.reason or "exceeds" in v.reason


class TestDegenerateSequences:
    def test_prefix_then_zeros(self, eventually_zero):
        assert [term(eventually_zero, n) for n in range(5)] == [
            1, -1, Fraction(1, 3), 0, 0]
        assert (decide(eventually_zero, 0).outcome,
                decide(eventually_zero, 0).witness) == ("yes", 3)
        v = decide(eventually_zero, Fraction(1, 3))
        assert (v.outcome, v.witness) == ("yes", 2)
        v = decide(eventually_zero, -1)
        assert (v.outcome, v.witness) == ("yes", 1)
        v = decide(eventually_zero, 99)
        assert (v.outcome, v.terms_checked) == ("no", 3)

    @pytest.mark.parametrize("f, g, u0", [
        (X + ONE, RatPoly([3]) - X, 1),  # u_1 = u_0: the first hit wins
        (X + ONE, X - ONE, Fraction(2, 3)),  # first zero at 1
        (X * X + ONE, RatPoly([40]) - X, -5),
    ])
    def test_nonzero_prefix_against_brute_force(self, f, g, u0):
        seq = make_sequence(f, g, u0)
        first_zero = min(seq.flags.g_positive_integer_roots)
        prefix = [term(seq, n) for n in range(first_zero)]
        absent = max(map(abs, prefix)) + 1
        for t in (prefix[0], prefix[-1], absent):
            v = decide(seq, t)
            if t in prefix:
                n = prefix.index(t)
                assert (v.outcome, v.witness, v.terms_checked) == \
                    ("yes", n, n + 1)
            else:
                assert (v.outcome, v.witness, v.terms_checked) == \
                    ("no", None, first_zero)
                assert v.reason == (
                    f"target differs from the {first_zero} nonzero terms "
                    "and from the zero tail")

    def test_zero_u0(self):
        z = make_sequence(ONE, X, 0)
        v = decide(z, 0)
        assert (v.outcome, v.witness) == ("yes", 0)


class TestCertificateSelection:
    def test_slope_preference(self, factorial):
        v = decide(factorial, 100)
        usable = [o for _, o in scan_primes(
            factorial, 2, 100, coprime_with=(Fraction(100),))
            if not isinstance(o, str)]
        want = max(usable, key=lambda c: (c.A, -c.p))
        assert (v.certificate.p, v.certificate.A) == (want.p, want.A)

    def test_u0_denominator_steers_the_prime(self):
        half = make_sequence(ONE, X, Fraction(1, 2))
        v = decide(half, 50)
        assert v.outcome == "no"
        assert v.certificate.p != 2

    def test_forced_primes_agree(self, sq_pair):
        t = term(sq_pair, 7)
        alts = [p for p, o in scan_primes(sq_pair, 2, 300, coprime_with=(t,))
                if not isinstance(o, str)][:3]
        assert len(alts) == 3
        for fp in alts:
            cfg = MembershipConfig(forced_prime=fp)
            v = decide(sq_pair, t, cfg)
            assert (v.outcome, v.witness, v.certificate.p) == ("yes", 7, fp)
            assert decide(sq_pair, t + 1, cfg).outcome == "no"


def test_corpus_search_makes_no_polynomial_arithmetic(certified_corpus,
                                                     monkeypatch):
    # the gate is one integer and the corpus has no square-free part of
    # degree 3 or more, so decide makes no Frobenius count or
    # factorization, the root-count plan's construction included, and
    # make_certificate reads the same plan; the one primality test runs
    # inside the make_certificate that rebuilds each verdict's certificate
    fresh = {name: make_sequence(s.f, s.g, s.u0)
             for name, s in certified_corpus.items()}
    targets = [(seq, t) for seq in fresh.values()
               for t in (term(seq, 9), term(seq, 9) * Fraction(3, 2))]
    calls, inside = [], []
    for module, name in ((padic, "frobenius_root_count"),
                         (numtheory, "is_prime"), (polyq, "factor"),
                         (numtheory, "factorize")):
        original = getattr(module, name)

        def counting(*args, _name=name, _original=original):
            calls.append((_name, bool(inside)))
            return _original(*args)

        for key, mod in list(sys.modules.items()):
            if key.split(".")[0] == "hyperval" and \
                    getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counting)
    certify = membership.make_certificate

    def certifying(*args, **kwargs):
        inside.append(1)
        try:
            return certify(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(membership, "make_certificate", certifying)
    verdicts = [decide(seq, t) for seq, t in targets]
    assert [v.outcome for v in verdicts] == ["yes", "no"] * len(fresh)
    assert all(v.certificate is not None for v in verdicts)
    assert calls and all(within for _, within in calls)
    assert {name for name, _ in calls} == {"is_prime"}


class TestBatchAndRecords:
    def test_record_shape(self, factorial):
        rec = decide(factorial, 120).to_record()
        assert rec.startswith("membership: outcome=yes witness=5")
        assert "wall_time" not in rec
        assert "asymmetry-certificate" in rec

    def test_unsupported_record(self, sym_pair):
        v = decide(sym_pair, 5, SMALL)
        assert "outcome=unsupported" in v.to_record()
        # reasons are comma-free so the csv stays seven columns
        assert v.csv_row().count(",") == 6

    def test_csv_row(self, factorial):
        row = decide(factorial, 120).csv_row()
        cols = row.split(",")
        assert len(cols) == 7
        assert cols[:2] == ["yes", "5"]


@settings(deadline=None, max_examples=25)
@given(n=st.integers(0, 60), which=st.integers(0, 4))
def test_planted_targets_are_always_found(n, which):
    # Built here rather than from fixtures to respect hypothesis's
    # function-scope rules: plant u_n as the target and demand an exact
    # round trip through the verdict's witness.
    seqs = [
        make_sequence(ONE, X, 1),
        make_sequence(X * X - RatPoly([2]), X * X - RatPoly([3]), 1),
        make_sequence(X * X - RatPoly([2]), X + ONE, 1),
        make_sequence((X + ONE) ** 2, X * X + ONE, 1),
        make_sequence(RatPoly([-1, -2, 1]), X * X - RatPoly([3]), 1),
    ]
    seq = seqs[which]
    t = term(seq, n)
    v = decide(seq, t)
    assert v.outcome == "yes"
    assert term(seq, v.witness) == t
