"""Tests for discriminant profiles, condition primes, and equidistribution."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperval.errors import EmptySampleSet, UnsupportedFactorization
from hyperval.hyperseq import make_sequence
from hyperval.numtheory import (
    factorize,
    legendre,
    sieve_primes,
    squarefree_part,
)
from hyperval.polyq import RatPoly
from hyperval.quadratic import (
    DiscriminantProfile,
    _gf2_solve,
    class_c_check,
    discriminant_profile,
    equidistribution_sample,
    exists_condition_prime,
    find_condition_prime,
    rep_quadratic,
    star_discrepancy,
    window_count,
)

X = RatPoly([0, 1])
ONE = RatPoly([1])


def quad(d: int) -> RatPoly:
    """x^2 - d."""
    return X * X - RatPoly([d])


def seq_with_discs(f_discs, g_discs):
    f = ONE
    for d in f_discs:
        f = f * quad(d)
    g = ONE
    for d in g_discs:
        g = g * quad(d)
    return make_sequence(f, g, Fraction(1))


def build_profile(discs) -> DiscriminantProfile:
    """Assemble the documented profile structure for hand-picked parts."""
    support = sorted({p for d in discs for p in factorize(abs(d))
                      if abs(d) > 1})
    vectors = {d: tuple(1 if abs(d) % p == 0 else 0 for p in support)
               for d in discs}
    return DiscriminantProfile(frozenset(discs), tuple(support), vectors)


class TestDiscriminantProfile:
    def test_square_pair(self, sq_pair):
        prof = discriminant_profile(sq_pair)
        assert prof.discs == {2, 3}
        assert prof.prime_support == (2, 3)
        assert prof.vectors == {2: (1, 0), 3: (0, 1)}
        assert not prof.has_negative
        assert prof.summary() == "discriminants={2,3} prime-support=[2,3]"

    def test_same_field_collapses(self, twin_field):
        # x^2-2 and x^2-8 share the square-free part 2.
        prof = discriminant_profile(twin_field)
        assert prof.discs == {2}
        assert prof.vectors == {2: (1,)}

    def test_negative_discriminant(self, double_root):
        # (x+1)^2 contributes nothing; x^2+1 has square-free part -1.
        prof = discriminant_profile(double_root)
        assert prof.discs == {-1}
        assert prof.prime_support == ()
        assert prof.negatives == (-1,)
        assert prof.summary() == (
            "discriminants={-1} prime-support=[] negative-discriminants=-1"
        )

    def test_quartic_splits_into_quadratics(self):
        prof = discriminant_profile(seq_with_discs([2], [3, 6]))
        assert prof.discs == {2, 3, 6}
        assert prof.vectors[6] == (1, 1)

    def test_linear_only_profile_is_empty(self, factorial):
        prof = discriminant_profile(factorial)
        assert prof.discs == frozenset()
        assert prof.prime_support == ()

    def test_unsplittable_factor_rejected(self, sym_pair):
        with pytest.raises(UnsupportedFactorization):
            discriminant_profile(sym_pair)


class TestConditionPrimes:
    def test_pair_solution_frozen(self, sq_pair):
        prof = discriminant_profile(sq_pair)
        assert exists_condition_prime(prof, 2) == (0, 1)
        assert exists_condition_prime(prof, 3) == (1, 0)

    def test_triple_solution(self):
        prof = discriminant_profile(seq_with_discs([2], [3, 6]))
        assert exists_condition_prime(prof, 6) == (1, 1)
        assert exists_condition_prime(prof, 2) == (0, 1)

    def test_unknown_delta_rejected(self, sq_pair):
        prof = discriminant_profile(sq_pair)
        with pytest.raises(ValueError):
            exists_condition_prime(prof, 5)

    def test_parity_obstruction(self):
        # delta = 30 would need (2/p) = (3/p) = (5/p) = -1 while their
        # product (30/p) is +1: three minus signs cannot multiply to +1.
        prof = build_profile({2, 3, 5, 30})
        assert exists_condition_prime(prof, 30) is None
        search = find_condition_prime(prof, 30)
        assert search.prime is None
        assert not search
        assert search.tested == 0
        assert "unsolvable" in search.diagnostic

    def test_scan_frozen(self, sq_pair):
        prof = discriminant_profile(sq_pair)
        search = find_condition_prime(prof, 2)
        assert search.prime == 7
        assert search.tested == 2  # 5 has (2/5) = -1, then 7 works
        assert search.diagnostic == "found by direct scan"
        assert find_condition_prime(prof, 3).prime == 11
        assert find_condition_prime(
            discriminant_profile(seq_with_discs([2], [3, 6])), 6).prime == 5

    def test_found_prime_satisfies_the_character_pattern(self):
        for discs, delta in [({2, 3}, 2), ({2, 3, 6}, 6), ({-1, 3}, -1),
                             ({5, 7}, 7), ({-2, -3, 6}, -2)]:
            search = find_condition_prime(build_profile(discs), delta)
            assert search
            p = search.prime
            assert legendre(delta, p) == 1
            assert all(legendre(d, p) == -1 for d in discs - {delta})

    def test_gf2_solve_is_lex_least(self):
        # Differential check against enumerating every ε in lex order.
        rng = random.Random(20261018)
        kinds = set()
        for _ in range(400):
            r = rng.randint(1, 7)
            targets = [(tuple(rng.randint(0, 1) for _ in range(r)),
                        rng.randint(0, 1)) for _ in range(rng.randint(1, 6))]
            want = next((eps for eps in itertools.product((0, 1), repeat=r)
                         if all(sum(v * e for v, e in zip(vec, eps)) % 2 == w
                                for vec, w in targets)), None)
            assert _gf2_solve(targets, r) == want, targets
            kinds.add(want is None)
        assert kinds == {True, False}

    def test_exists_matches_brute_scan(self):
        # Independent route: scan primes directly for the sign pattern;
        # the character solver must agree on existence every time.
        rng = random.Random(20260821)
        pool = [-1, 2, -2, 3, -3, 5, 6, -6, 7, 10, 15, -5, 21, 30]
        small_primes = sieve_primes(100_000)
        for _ in range(30):
            discs = set(rng.sample(pool, rng.randint(2, 4)))
            delta = rng.choice(sorted(discs))
            prof = build_profile(discs)
            eps = exists_condition_prime(prof, delta)
            others = discs - {delta}
            hit = None
            for p in small_primes:
                if p == 2 or any(abs(d) % p == 0 for d in discs):
                    continue
                if legendre(delta, p) == 1 and all(
                    legendre(d, p) == -1 for d in others
                ):
                    hit = p
                    break
            assert (eps is not None) == (hit is not None), (discs, delta)
            search = find_condition_prime(prof, delta)
            assert search.prime == hit


class TestRepQuadratic:
    def test_frozen(self):
        assert rep_quadratic(0, 1, 2, 7, 1) == 3
        assert rep_quadratic(0, 1, 2, 7, -1) == 4
        assert rep_quadratic(Fraction(1, 2), Fraction(1, 3), 5, 11, 1) == 0

    def test_sign_validated(self):
        with pytest.raises(ValueError):
            rep_quadratic(0, 1, 2, 7, 0)

    @settings(deadline=None, max_examples=120)
    @given(
        rn=st.integers(-9, 9), rd=st.integers(1, 9),
        sn=st.integers(1, 9), sd=st.integers(1, 9),
        delta=st.sampled_from([2, 3, 5, 6, 7, 10]),
        p=st.sampled_from([7, 11, 13, 17, 23, 31, 41]),
        sign=st.sampled_from([1, -1]),
    )
    def test_satisfies_its_quadratic(self, rn, rd, sn, sd, delta, p, sign):
        # x = rep(r + s*sqrt(delta)) must satisfy
        # x^2 - 2rx + (r^2 - s^2 delta) = 0 mod p whenever delta splits.
        if legendre(delta, p) != 1 or rd % p == 0 or sd % p == 0:
            return
        r, s = Fraction(rn, rd), Fraction(sn, sd)
        x = rep_quadratic(r, s, delta, p, sign)
        val = (x * x * (r.denominator ** 2 * s.denominator ** 2)
               - 2 * x * r.numerator * r.denominator * s.denominator ** 2
               + r.numerator ** 2 * s.denominator ** 2
               - s.numerator ** 2 * delta * r.denominator ** 2)
        assert val % p == 0


def fraction_dstar(pairs):
    """D* by the sorted-Fraction formula, the kernel's exact slow path."""
    xs = sorted(Fraction(a, b) for a, b in pairs)
    n = len(xs)
    return max(
        max(Fraction(i, n) - x, x - Fraction(i - 1, n))
        for i, x in enumerate(xs, start=1)
    )


class TestStarDiscrepancy:
    def test_frozen(self):
        assert star_discrepancy([(1, 2)]) == Fraction(1, 2)
        assert star_discrepancy([(1, 4), (3, 4)]) == Fraction(1, 4)
        assert star_discrepancy([(0, 1)]) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            star_discrepancy([])

    @pytest.mark.parametrize("bad", [(1, 0), (0, 0), (-1, -2), (1, -2),
                                     (-1, 5), (5, 5), (7, 5)])
    def test_bad_points_rejected(self, bad):
        with pytest.raises(ValueError):
            star_discrepancy([(1, 3), bad])

    @settings(deadline=None, max_examples=80)
    @given(st.lists(st.fractions(min_value=0, max_value=Fraction(99, 100)),
                    min_size=1, max_size=24))
    def test_dominates_every_anchored_box(self, points):
        # Independent route: measure |#{x < t}/n - t| on a probe grid of
        # the points themselves and nearby cuts; all must sit under D*.
        dstar = star_discrepancy([(x.numerator, x.denominator)
                                  for x in points])
        n = len(points)
        probes = set(points)
        probes.update(min(x + Fraction(1, 10 ** 9), Fraction(1))
                      for x in points)
        probes.add(Fraction(1))
        best = Fraction(0)
        for t in probes:
            count = sum(1 for x in points if x < t)
            best = max(best, abs(Fraction(count, n) - t))
        assert best <= dstar
        # the sup is attained at a point or just right of one
        attained = max(
            max(Fraction(i, n) - x, x - Fraction(i - 1, n))
            for i, x in enumerate(sorted(points), start=1)
        )
        assert attained == dstar

    @settings(deadline=None, max_examples=120)
    @given(st.lists(
        st.integers(1, 2 ** 70).flatmap(
            lambda b: st.tuples(st.integers(0, b - 1), st.just(b))),
        min_size=1, max_size=30))
    def test_equals_the_sorted_fraction_formula(self, pairs):
        # unreduced pairs and repeated points included
        assert star_discrepancy(pairs) == fraction_dstar(pairs)

    def test_equal_floats_force_the_exact_sort(self):
        # two distinct points whose float quotients coincide, listed in
        # the wrong exact order: a float-only sort keeps them there
        b1, b2 = 2 ** 61 + 1, 2 ** 61 + 2
        hi, lo = (b1 // 3, b1), (b2 // 3, b2)
        assert hi[0] / hi[1] == lo[0] / lo[1]
        assert Fraction(*hi) > Fraction(*lo)
        pairs = [hi, lo, (1, 7)]
        n = len(pairs)
        by_float = sorted(pairs, key=lambda ab: ab[0] / ab[1])
        float_only = max(
            max(Fraction(i, n) - Fraction(*x), Fraction(*x) - Fraction(i - 1, n))
            for i, x in enumerate(by_float, start=1)
        )
        assert star_discrepancy(pairs) == fraction_dstar(pairs) != float_only


class TestEquidistributionSample:
    def test_frozen_at_small_cap(self):
        rep = equidistribution_sample(2, p_limit=10_000)
        assert rep.samples == 1206
        assert rep.skipped_undefined == 0
        assert rep.progression == (0, 1)
        assert abs(rep.star_discrepancy - 0.011333) < 1e-4
        assert sum(freq for _, _, freq in rep.bins) == pytest.approx(1.0)

    def test_deterministic(self):
        one = equidistribution_sample(2, p_limit=10_000)
        two = equidistribution_sample(2, p_limit=10_000)
        assert one == two

    def test_bins_mirror(self):
        # rep and p - rep enter together, so the histogram is symmetric.
        rep = equidistribution_sample(2, p_limit=10_000)
        freqs = [freq for _, _, freq in rep.bins]
        for i in range(len(freqs) // 2):
            assert freqs[i] == pytest.approx(freqs[-1 - i])

    def test_denominator_primes_are_skipped(self):
        rep = equidistribution_sample(2, r=Fraction(1, 7), p_limit=10_000)
        assert rep.skipped_undefined == 1  # p = 7 splits 2 but hits the 1/7
        assert rep.samples == 1204

    def test_progression_filter(self):
        rep = equidistribution_sample(2, q=4, a=1, p_limit=10_000)
        assert rep.progression == (1, 4)
        assert rep.samples == 590

    def test_csv_rows(self):
        rep = equidistribution_sample(2, p_limit=10_000, bin_count=4)
        rows = list(rep.csv_rows())
        assert len(rows) == 4
        assert rows[0].startswith("0.000000,0.250000,")

    def test_summary_shape(self):
        rep = equidistribution_sample(2, p_limit=10_000)
        assert rep.summary().startswith(
            "delta=2 progression=0(mod 1) p_limit=10000 samples=1206 "
            "skipped=0 star_discrepancy=0.011"
        )

    @pytest.mark.parametrize("case,samples,skipped,counts,dstar", [
        ((3, 5, 2, Fraction(-18), Fraction(-19, 8), 60000), 1524, 0,
         (151, 145, 171, 134, 159, 165, 132, 175, 139, 153),
         0.011819497033914765),
        ((10, 4, 3, Fraction(-2, 3), Fraction(2), 60000), 3048, 1,
         (285, 289, 302, 300, 315, 298, 288, 321, 334, 316),
         0.023315895716506097),
        ((3, 3, 2, Fraction(5, 4), Fraction(20, 11), 5000), 332, 1,
         (30, 34, 48, 33, 30, 42, 26, 21, 25, 43),
         0.06352138177015185),
    ])
    def test_frozen_seeded_reports(self, case, samples, skipped, counts,
                                   dstar):
        # (delta, q, a, r, s, p_limit) drawn from random.Random(6)
        rep = equidistribution_sample(*case)
        assert rep.samples == samples
        assert rep.skipped_undefined == skipped
        assert rep.bins == tuple(
            (Fraction(i, 10), Fraction(i + 1, 10), c / samples)
            for i, c in enumerate(counts))
        assert rep.star_discrepancy == dstar

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            equidistribution_sample(8, p_limit=1000)  # not square-free
        with pytest.raises(ValueError):
            equidistribution_sample(-2, p_limit=1000)
        with pytest.raises(ValueError):
            equidistribution_sample(2, s=0, p_limit=1000)
        with pytest.raises(ValueError):
            equidistribution_sample(2, bin_count=1, p_limit=1000)
        with pytest.raises(ValueError):
            equidistribution_sample(2, q=0, p_limit=1000)
        with pytest.raises(EmptySampleSet):
            equidistribution_sample(2, p_limit=4)


class TestWindowCount:
    def test_full_window_counts_every_qualifying_prime(self):
        got = window_count(2, 1, 0, 0, 1, 1000, 0.5, 0, 1)
        direct = sum(
            1 for p in sieve_primes(1499)
            if 1000 <= p and p != 2 and legendre(2, p) == 1
        )
        assert got == direct == 37

    def test_half_window_equals_full_by_the_sign_pairing(self):
        # One of rep and p - rep always lands below 1/2.
        assert window_count(2, 1, 0, 0, 1, 1000, 0.5, 0, Fraction(1, 2)) == 37

    def test_narrow_window_frozen(self):
        assert window_count(
            2, 1, 0, 0, 1, 1000, 0.5, Fraction(1, 4), Fraction(5, 16)) == 6

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_a_fraction_comparison_count(self, seed):
        rng = random.Random(seed)
        delta = rng.choice([2, 3, 5, 6, 7, 10])
        q = rng.choice([1, 3, 4])
        a = rng.choice([x for x in range(q) if math.gcd(x, q) == 1])
        r = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        s = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        N = rng.randint(500, 5000)
        alpha = rng.choice([0, rng.random() / 2, Fraction(rng.randint(0, 4), 9)])
        beta = rng.choice([1, 0.5 + rng.random() / 2,
                           Fraction(rng.randint(5, 9), 9)])
        al, be = Fraction(alpha), Fraction(beta)
        hits = set()
        for p in sieve_primes(int(N * 1.5) - 1):
            if p < N or p % q != a or p == 2 or legendre(delta, p) != 1:
                continue
            if r.denominator % p == 0 or s.denominator % p == 0:
                continue
            for sign in (1, -1):
                if al <= Fraction(rep_quadratic(r, s, delta, p, sign), p) < be:
                    hits.add(p)
        assert window_count(delta, q, a, r, s, N, 0.5, alpha, beta) == len(hits)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            window_count(2, 1, 0, 0, 1, 1000, 0.5, Fraction(1, 2), Fraction(1, 2))
        with pytest.raises(ValueError):
            window_count(2, 1, 0, 0, 1, 1000, 0, 0, 1)
        with pytest.raises(ValueError):
            window_count(12, 1, 0, 0, 1, 1000, 0.5, 0, 1)


class TestClassCCheck:
    def test_verdicts(self, sq_pair, twin_field, factorial, geometric,
                      telescoping, class_c_seq):
        assert class_c_check(sq_pair)
        assert class_c_check(class_c_seq)
        assert class_c_check(twin_field)  # single field
        assert not class_c_check(factorial)  # rational parameters only
        assert not class_c_check(geometric)
        assert not class_c_check(telescoping)

    def test_closed_triple_accepted(self):
        assert class_c_check(seq_with_discs([2], [3, 6]))

    def test_open_triple_rejected(self):
        # 5 is not the square-free part of 2*3.
        assert not class_c_check(seq_with_discs([2], [3, 5]))

    def test_negative_parts_participate(self):
        assert class_c_check(seq_with_discs([-1], [-3]))
        # sf((-1)(-3)) = 3 closes the triple
        assert class_c_check(seq_with_discs([-1, -3], [3]))

    def test_four_fields_rejected(self):
        assert not class_c_check(seq_with_discs([2, 3], [5, 7]))

    def test_triples_match_the_square_free_product(self):
        # the XOR of sign and exponent vectors against the square-free
        # part of each pairwise product, on every triple of these parts
        parts = (-15, -6, -3, -2, -1, 2, 3, 5, 6, 10, 15, 30)
        for d1, d2, d3 in itertools.combinations(parts, 3):
            want = any(c == squarefree_part(a * b) for a, b, c in
                       ((d1, d2, d3), (d1, d3, d2), (d2, d3, d1)))
            assert class_c_check(seq_with_discs([d1], [d2, d3])) == want, \
                (d1, d2, d3)

    def test_unsplittable_factor_rejected(self, sym_pair):
        with pytest.raises(UnsupportedFactorization):
            class_c_check(sym_pair)
