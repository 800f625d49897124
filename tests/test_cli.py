"""Tests for the command-line interface: grammar, subcommands, exit codes."""

import ast
import contextlib
import io
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperval
from hyperval import numtheory, quadratic
from hyperval.cli import main
from hyperval.errors import PolyParseError
from hyperval.hyperseq import make_sequence, term
from hyperval.numtheory import sieve_primes
from hyperval.padic import (
    DEFAULT_DIGIT_CAP,
    PadicRoot,
    hensel_lift,
    zero_run_length,
)
from hyperval.polyq import (
    ECHO_CAP,
    MAX_EXPONENT,
    RatPoly,
    parse_poly,
    parse_rational,
)

X = RatPoly([0, 1])


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


class TestParsePoly:
    def test_frozen_expansions(self):
        assert parse_poly("(x^2-2)*(x^2-3)") == RatPoly([6, 0, -5, 0, 1])
        assert parse_poly("x") == X
        assert parse_poly("7") == RatPoly([7])
        assert parse_poly("3/2") == RatPoly([Fraction(3, 2)])
        assert parse_poly("x^3 - 2*x + 1") == RatPoly([1, -2, 0, 1])
        assert parse_poly("1 + 2*x^2") == RatPoly([1, 0, 2])
        assert parse_poly("(x+1)^2") == RatPoly([1, 2, 1])
        assert parse_poly("1/2*x") == RatPoly([0, Fraction(1, 2)])
        assert parse_poly("2^3") == RatPoly([8])
        assert parse_poly("  x + 1 ") == RatPoly([1, 1])

    def test_unary_minus(self):
        # the sign binds tighter than '^' applies: -x^2 is -(x^2)
        assert parse_poly("-x^2") == RatPoly([0, 0, -1])
        assert parse_poly("--x") == X
        assert parse_poly("-(x-1)") == RatPoly([1, -1])

    def test_exponent_cap(self):
        assert parse_poly(f"x^{MAX_EXPONENT}").degree == MAX_EXPONENT
        with pytest.raises(PolyParseError, match="exponent overflow"):
            parse_poly(f"x^{MAX_EXPONENT + 1}")

    def test_errors_carry_positions(self):
        cases = {
            "": 0,
            "x^^2": 2,
            "x x": 2,  # no implicit multiplication
            "2x": 1,
            "x/2": 1,  # '/' lives inside rational literals only
            "x^-2": 2,
            "(x+1": 4,
            "@": 0,
        }
        for text, pos in cases.items():
            with pytest.raises(PolyParseError) as exc:
                parse_poly(text)
            assert exc.value.position == pos, text

    def test_short_token_echoed_whole(self):
        bad = "1" * ECHO_CAP
        with pytest.raises(PolyParseError) as exc:
            parse_poly(f"x {bad}")
        assert str(exc.value) == (
            f"syntax error at position 2: unexpected {bad!r}")

    def test_long_token_truncated(self):
        bad = "1" * 3000
        code, out, err = run("terms", "--f", f"x {bad}", "--g", "x",
                             "--u0", "1", "--n", "1")
        assert (code, out) == (1, "")
        assert err == (
            "error: type=PolyParseError position=2 message=syntax error "
            f"at position 2: unexpected {bad[:ECHO_CAP]!r}... "
            "(3000 characters)\n")

    @settings(deadline=None, max_examples=120)
    @given(st.lists(
        st.fractions(min_value=Fraction(-20), max_value=Fraction(20),
                     max_denominator=9),
        min_size=0, max_size=6))
    def test_round_trip_through_str(self, coeffs):
        p = RatPoly(coeffs)
        assert parse_poly(str(p)) == p


class TestParseRational:
    def test_accepted(self):
        assert parse_rational("3/4") == Fraction(3, 4)
        assert parse_rational("-2") == -2
        assert parse_rational(" 5 ") == 5
        # decimal literals normalize to exact fractions
        assert parse_rational("1.5") == Fraction(3, 2)

    def test_rejected(self):
        for bad in ("abc", "", "1/0"):
            with pytest.raises(PolyParseError):
                parse_rational(bad)

    def test_short_input_echoed_whole(self):
        bad = "y" * ECHO_CAP
        with pytest.raises(PolyParseError) as exc:
            parse_rational(bad)
        assert str(exc.value) == (
            f"syntax error at position 0: not a rational number: {bad!r} "
            f"(Invalid literal for Fraction: {bad!r})")

    def test_long_input_truncated(self):
        bad = "y" * (ECHO_CAP + 1)
        with pytest.raises(PolyParseError) as exc:
            parse_rational(bad)
        assert str(exc.value) == (
            "syntax error at position 0: "
            f"not a rational number: {bad[:ECHO_CAP]!r}... "
            f"({ECHO_CAP + 1} characters, ValueError)")

    def test_digit_limit_error_stays_short(self):
        # past the interpreter's 4,300-digit limit on int conversion
        target = "7" * 5000
        code, out, err = run("membership", "--f", "1", "--g", "x",
                             "--u0", "1", "--target", target)
        assert (code, out) == (1, "")
        assert len(err) < 200
        assert f"({len(target)} characters, ValueError)" in err


class TestValidate:
    def test_human(self):
        code, out, _ = run("validate", "--f", "1", "--g", "x", "--u0", "1")
        assert code == 0
        assert out == (
            "f = 1\ng = x\nu0 = 1\ncommon_factor_removed = false\n"
            "g_positive_integer_roots = none\nu0_is_zero = false\n"
            "degenerate_zero = false\n"
        )

    def test_csv(self):
        code, out, _ = run("--format", "csv", "validate",
                           "--f", "1", "--g", "x", "--u0", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# hyperval csv 3"
        assert lines[1].startswith("f,g,u0,")
        assert lines[2] == "1,x,1,false,none,false,false"

    def test_invalid_sequence_is_a_domain_error(self):
        code, out, err = run("validate", "--f", "x-4", "--g", "x", "--u0", "1")
        assert code == 1
        assert "error: type=InvalidF" in err

    def test_root_past_the_float_range(self):
        # the root bound of x - 10^309 does not fit in a float
        code, out, err = run("validate", "--f", "x-1" + "0" * 309,
                             "--g", "x", "--u0", "1")
        assert (code, out) == (1, "")
        assert err.startswith("error: type=InvalidF message=f has "
                              "nonnegative integer root(s): 1000")

    def test_constant_term_with_many_divisors_answered(self):
        # the product of the first 18 primes has 2^18 divisors; the root
        # search lifts roots mod a prime and never lists them
        primorial = math.prod(sieve_primes(61))
        code, out, _ = run("validate", "--f", "1", "--g", f"x+{primorial}",
                           "--u0", "1")
        assert code == 0
        assert "g_positive_integer_roots = none\n" in out
        code, out, _ = run("validate", "--f", "1", "--g", f"x-{primorial}",
                           "--u0", "1")
        assert code == 0
        assert f"g_positive_integer_roots = {primorial}\n" in out


class TestTerms:
    def test_human(self):
        code, out, _ = run("terms", "--f", "x+2", "--g", "x+1",
                           "--u0", "1", "--n", "10")
        assert code == 0
        assert out.splitlines()[-1] == "u_10 = 1/6"

    def test_csv(self):
        code, out, _ = run("--format", "csv", "terms", "--f", "x+2",
                           "--g", "x+1", "--u0", "1", "--n", "2")
        assert out.splitlines() == [
            "# hyperval csv 3", "n,u_n", "0,1", "1,2/3", "2,1/2"]

    def test_structured(self):
        code, out, _ = run("--format", "structured-text", "terms",
                           "--f", "x+2", "--g", "x+1", "--u0", "1", "--n", "2")
        assert out.splitlines() == [
            "# hyperval structured-text 3",
            "term: n=0 u=1", "term: n=1 u=2/3", "term: n=2 u=1/2"]

    @pytest.mark.parametrize("fmt", ["human", "csv", "structured-text"])
    def test_negative_fractional_terms(self, fmt):
        seq = make_sequence(X + RatPoly([2]), X * X - RatPoly([7]),
                            Fraction(-5, 7))
        code, out, _ = run("--format", fmt, "terms", "--f", "x+2",
                           "--g", "x^2-7", "--u0=-5/7", "--n", "12")
        assert code == 0
        want = [str(term(seq, n)) for n in range(13)]
        assert want[0] == "-5/7" and any(u.startswith("-") and "/" in u
                                         for u in want[1:])
        rows = {"human": [f"u_{n} = {u}" for n, u in enumerate(want)],
                "csv": ["n,u_n"] + [f"{n},{u}" for n, u in enumerate(want)],
                "structured-text": [f"term: n={n} u={u}"
                                    for n, u in enumerate(want)]}[fmt]
        lines = out.splitlines()
        assert lines[-len(rows):] == rows
        assert len(lines) == len(rows) + (fmt != "human")


class TestHeightAndValuation:
    def test_height_csv(self):
        code, out, _ = run("--format", "csv", "height", "--f", "1",
                           "--g", "2", "--u0", "1", "--nmax", "2")
        assert out.splitlines() == [
            "# hyperval csv 3", "n,height",
            "0,0", "1,0.69314718056", "2,1.38629436112"]

    def test_height_structured(self):
        code, out, _ = run("--format", "structured-text", "height",
                           "--f", "1", "--g", "2", "--u0", "1",
                           "--nmax", "4", "--stride", "2")
        assert code == 0
        assert out.splitlines() == [
            "# hyperval structured-text 3", "height: n=0 h=0",
            "height: n=2 h=1.38629436112", "height: n=4 h=2.77258872224"]

    def test_height_human_growth_line(self):
        code, out, _ = run("height", "--f", "1", "--g", "2",
                           "--u0", "1", "--nmax", "2")
        assert out.splitlines()[-1] == \
            "growth constant (min h/n, top half): 0.693147"

    def test_valuation_reports_infinity(self):
        code, out, _ = run("valuation", "--f", "x+1", "--g", "x-3",
                           "--u0", "1", "--p", "3", "--nmax", "4")
        assert code == 0
        assert out.splitlines() == [
            "v_3(u_0) = 0", "v_3(u_1) = 0", "v_3(u_2) = -1",
            "v_3(u_3) = inf", "v_3(u_4) = inf"]

    @pytest.mark.parametrize("p", ["0", "4", "-3"])
    def test_non_prime_p_is_a_domain_error(self, p):
        code, out, err = run("valuation", "--f", "1", "--g", "x", "--u0", "1",
                             "--p", p, "--nmax", "5")
        assert (code, out) == (1, "")
        assert err.startswith("error: type=BadPrime ")

    def test_p_one_exits_instead_of_hanging(self):
        # a subprocess with a timeout, so a hang fails the test instead
        # of stalling the suite
        src = os.path.dirname(os.path.dirname(hyperval.__file__))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from hyperval.cli import main; "
             "sys.exit(main(sys.argv[1:]))",
             "valuation", "--f", "1", "--g", "x", "--u0", "1", "--p", "1",
             "--nmax", "5"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: type=BadPrime ")


class TestRegularize:
    def test_telescoping(self):
        code, out, _ = run("regularize", "--f", "x+2", "--g", "x+1",
                           "--u0", "1")
        assert code == 0
        assert out.splitlines() == [
            "f_tilde = 1", "g_tilde = 1", "u0_tilde = 1",
            "q = (2) / ((x + 2))",
            "class rep x + 2: f:x + 2 (shift 0), g:x + 1 (shift 1) [gamma=0]"]


class TestAsymmetry:
    def test_human(self):
        code, out, _ = run("asymmetry", "--f", "x^2-2", "--g", "x^2-3",
                           "--u0", "1")
        assert code == 0
        assert out.splitlines() == [
            "asymmetric prime p = 7",
            "m_f = 2, m_g = 0",
            "slope = -1/3  (v_p(u_n) ~ slope * n)",
            "envelope: A = 1/3, B = 4"]

    def test_structured(self):
        code, out, _ = run("--format", "structured-text", "asymmetry",
                           "--f", "x^2-2", "--g", "x^2-3", "--u0", "1")
        assert out.splitlines()[1] == (
            "asymmetry-certificate: p=7 m_f=2 m_g=0 slope=-1/3 A=1/3 B=4 "
            "u0_valuation=0")

    def test_empty_scan_exits_zero(self):
        code, out, _ = run(
            "asymmetry", "--f", "(x^4-10*x^2+1)*x^2",
            "--g", "(x^2-2)*(x^2-3)*(x^2-6)", "--u0", "1", "--pmax", "200")
        assert code == 0
        assert "result=empty" in out

    def test_window_past_the_prime_walk_bound_is_a_domain_error(
            self, monkeypatch):
        # its base primes would run to 2^44.5; nothing is sieved
        def refuse(limit):
            raise AssertionError(f"sieve_primes({limit}) called")

        monkeypatch.setattr(numtheory, "sieve_primes", refuse)
        code, out, err = run("asymmetry", "--f", "x^2-2", "--g", "x^2-3",
                             "--u0", "1", "--pmin", str(2**89 - 1),
                             "--pmax", str(2**89 + 200))
        assert (code, out) == (1, "")
        assert err.startswith("error: type=UnsupportedInput message=")


class TestClassify:
    def test_quadratic_pair(self):
        code, out, _ = run("classify", "--f", "x^2-2", "--g", "x^2-3",
                           "--u0", "1")
        assert code == 0
        assert out.splitlines() == [
            "discriminants={2,3} prime-support=[2,3]",
            "class_c = true",
            "class_d = true",
            "condition_prime[delta=2] = 7",
            "condition_prime[delta=3] = 11"]

    def test_each_discriminant_factored_once(self, monkeypatch):
        # the profile, class C and class D share one factorization per
        # distinct discriminant: 4N for x^2 - N, and 8 for x^2 - 2
        N = 1000000007 * 1000000009
        calls = []
        factorize = numtheory.factorize

        def counted(n):
            calls.append(n)
            return factorize(n)

        monkeypatch.setattr(numtheory, "factorize", counted)
        monkeypatch.setattr(quadratic, "factorize", counted)
        code, out, _ = run("classify", "--f", f"x^2-{N}", "--g", "x^2-2",
                           "--u0", "1")
        assert code == 0
        assert out.splitlines()[:3] == [
            f"discriminants={{2,{N}}} prime-support=[2,1000000007,1000000009]",
            "class_c = true",
            "class_d = true"]
        assert sorted(calls) == [8, 4 * N]


class TestMembership:
    def test_human(self):
        code, out, _ = run("membership", "--f", "1", "--g", "x",
                           "--u0", "1", "--target", "120")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "outcome: yes"
        assert lines[1] == "witness: n = 5"
        assert lines[2].startswith("certificate: asymmetry-certificate: p=7")
        assert lines[3] == "cutoff n0 = 19"
        assert lines[4] == "terms checked: 6"
        assert len(lines) == 5

    def test_csv(self):
        code, out, _ = run("--format", "csv", "membership", "--f", "1",
                           "--g", "x", "--u0", "1", "--target", "120")
        lines = out.splitlines()
        assert lines[0] == "# hyperval csv 3"
        assert lines[1] == (
            "outcome,witness,n0,terms_checked,cert_p,cert_slope,reason")
        cols = lines[2].split(",")
        assert cols == ["yes", "5", "19", "6", "7", "1/6", ""]

    def test_structured(self):
        code, out, _ = run("--format", "structured-text", "membership",
                           "--f", "1", "--g", "x", "--u0", "1",
                           "--target", "120")
        assert out.splitlines()[1].startswith(
            "membership: outcome=yes witness=5 n0=19 terms_checked=6")

    def test_unsupported_is_not_an_error(self):
        code, out, _ = run("membership", "--f", "x+2", "--g", "x+1",
                           "--u0", "1", "--target", "2/9",
                           "--prime-cap", "300")
        assert code == 0
        assert "outcome: unsupported" in out

    def test_rational_target(self):
        code, out, _ = run("membership", "--f", "x+2", "--g", "x+1",
                           "--u0", "1", "--target", "1/6")
        # telescoping is out of scope for the certificate route, but the
        # target itself must at least parse
        assert code == 0

    @pytest.mark.parametrize("p", ["0", "1", "4"])
    def test_non_prime_forced_prime_is_a_domain_error(self, p):
        code, out, err = run("membership", "--f", "1", "--g", "x",
                             "--u0", "1", "--target", "120",
                             "--forced-prime", p)
        assert (code, out) == (1, "")
        assert err == f"error: type=BadPrime message={p} is not prime\n"

    def test_forced_prime_past_2_to_the_64_is_refused(self):
        # 2^89 - 1 is prime, but is_prime proves primality only below 2^64
        code, out, err = run("membership", "--f", "x^2-2", "--g", "x^2-3",
                             "--u0", "1", "--target", "7/5",
                             "--forced-prime", str(2**89 - 1))
        assert (code, out) == (1, "")
        assert err == ("error: type=BadPrime message=certificates need a "
                       "proved prime, below 2^64\n")


class TestEquidist:
    def test_csv_bins(self):
        code, out, _ = run("--format", "csv", "equidist", "--delta", "2",
                           "--plimit", "3000", "--bins", "4")
        assert out.splitlines() == [
            "# hyperval csv 3",
            "0.000000,0.250000,0.25238095",
            "0.250000,0.500000,0.24761905",
            "0.500000,0.750000,0.24761905",
            "0.750000,1.000000,0.25238095"]

    def test_human_summary(self):
        code, out, _ = run("equidist", "--delta", "2", "--plimit", "3000")
        assert code == 0
        assert out.startswith("delta=2 progression=0(mod 1) p_limit=3000 ")

    def test_determinism(self):
        args = ("--format", "csv", "equidist", "--delta", "2",
                "--plimit", "3000")
        assert run(*args) == run(*args)

    def test_threads_flag_is_a_usage_error(self):
        code, out, _ = run("--threads", "2", "equidist", "--delta", "2",
                           "--plimit", "3000")
        assert code == 2
        assert out == ""

    def test_empty_sample_set_is_a_domain_error(self):
        code, _, err = run("equidist", "--delta", "2", "--plimit", "4")
        assert code == 1
        assert "error: type=EmptySampleSet" in err

    def test_bad_delta(self):
        code, _, err = run("equidist", "--delta", "8", "--plimit", "1000")
        assert code == 1
        assert "error: type=ValueError" in err


class TestPadic:
    def test_sqrt2_digits(self):
        code, out, _ = run("padic", "--poly", "x^2-2", "--p", "7",
                           "--digits", "4")
        assert code == 0
        assert out.splitlines() == [
            "root 3: digits (least significant first) 3 1 2 6",
            "root 4: digits (least significant first) 4 5 4 0"]

    def test_no_roots(self):
        code, out, _ = run("padic", "--poly", "x^2-3", "--p", "7")
        assert code == 0
        assert out.strip() == "no roots mod 7"

    def test_multiple_root_not_lifted(self):
        code, out, _ = run("padic", "--poly", "(x+1)^2", "--p", "5")
        assert code == 0
        assert "root 4: multiple root mod 5, not lifted" in out

    def test_multiple_root_reported_before_the_precision_check(self):
        code, out, _ = run("padic", "--poly", "(x+1)^2", "--p", "5",
                           "--digits", "0")
        assert (code, out) == (0, "root 4: multiple root mod 5, not lifted\n")

    def test_digits_above_the_cap_are_a_usage_error(self, monkeypatch):
        code, out, _ = run("padic", "--poly", "x-1", "--p", "7",
                           "--digits", str(DEFAULT_DIGIT_CAP))
        assert code == 0
        assert out.endswith(" 0" * (DEFAULT_DIGIT_CAP - 1) + "\n")
        # refused before any root is lifted
        monkeypatch.setattr(hyperval.cli, "hensel_lift", None)
        code, out, err = run("padic", "--poly", "x^2-2", "--p", "7",
                             "--digits", str(DEFAULT_DIGIT_CAP + 1))
        assert (code, out) == (2, "")
        assert err == (f"usage error: --digits must be <= "
                       f"{DEFAULT_DIGIT_CAP}\n")

    def test_zero_run(self):
        code, out, _ = run("padic", "--poly", "x^2-2", "--p", "7",
                           "--digits", "8", "--zero-run", "1")
        root = hensel_lift(parse_poly("x^2-2"), 7, 3, 8)
        want = zero_run_length(root, 1)
        assert f"root 3: zero run at index 1 has length {want}" in out

    def test_digits_come_from_one_expansion(self, monkeypatch):
        # a digit(i) read per index costs a division of the whole value
        # each: 16,384 of them took about 29 s
        def refuse(self, j):
            raise AssertionError("digit read one at a time")

        monkeypatch.setattr(PadicRoot, "digit", refuse)
        code, out, _ = run("padic", "--poly", "x^2-2", "--p", "7",
                           "--digits", "8", "--zero-run", "3")
        assert code == 0
        assert out.splitlines() == [
            "root 3: digits (least significant first) 3 1 2 6 1 2 1 2",
            "root 3: zero run at index 3 has length 0",
            "root 4: digits (least significant first) 4 5 4 0 5 4 5 4",
            "root 4: zero run at index 3 has length 1"]


class TestExitCodes:
    def test_missing_required_flag(self):
        code, _, _ = run("membership", "--f", "1", "--g", "x", "--u0", "1")
        assert code == 2

    def test_conflicting_sources(self):
        code, _, err = run("terms", "--f", "1", "--g", "x", "--u0", "1",
                           "--seq", "f=1; g=x; u0=1", "--n", "1")
        assert code == 2
        assert "usage error" in err

    def test_partial_inline_definition(self):
        code, _, _ = run("terms", "--f", "1", "--n", "1")
        assert code == 2

    def test_unknown_subcommand(self):
        assert run("frobnicate")[0] == 2

    def test_help_exits_zero(self):
        assert run("--help")[0] == 0

    def test_parse_error_reports_position(self):
        code, _, err = run("terms", "--f", "x^^2", "--g", "x",
                           "--u0", "1", "--n", "1")
        assert code == 1
        assert "type=PolyParseError" in err
        assert "position=2" in err


class TestSequenceSources:
    def test_inline_spec(self):
        code, out, _ = run("terms", "--seq", "f = x+2; g = x+1; u0 = 1",
                           "--n", "1")
        assert code == 0
        assert out.splitlines() == ["u_0 = 1", "u_1 = 2/3"]

    def test_spec_file(self, tmp_path):
        spec = tmp_path / "seq.txt"
        spec.write_text("f = x+2; g = x+1; u0 = 1\n")
        code, out, _ = run("terms", "--seq-file", str(spec), "--n", "1")
        assert code == 0
        assert out.splitlines() == ["u_0 = 1", "u_1 = 2/3"]


SQ = ["--f", "x^2-2", "--g", "x^2-3", "--u0", "1"]
EVERY_SUBCOMMAND = {
    "validate": ["validate", *SQ],
    "terms": ["terms", *SQ, "--n", "30"],
    "height": ["height", *SQ, "--nmax", "40", "--stride", "5"],
    "valuation": ["valuation", *SQ, "--p", "7", "--nmax", "40"],
    "regularize": ["regularize", "--f", "(x+2)*(x^2-2)", "--g", "x+1",
                   "--u0", "1"],
    "asymmetry": ["asymmetry", *SQ, "--pmax", "100"],
    "classify": ["classify", *SQ, "--pmax", "1000"],
    # a scan to n0 = 11185 takes long enough for a clock to show
    "membership": ["membership", *SQ, "--target", "7/5",
                   "--forced-prime", "2797"],
    "equidist": ["equidist", "--delta", "2", "--plimit", "2000"],
    "padic": ["padic", "--poly", "x^2-2", "--p", "7", "--digits", "8"],
}


class TestDeterminism:
    @pytest.mark.parametrize("fmt", ["csv", "structured-text"])
    @pytest.mark.parametrize("name", sorted(EVERY_SUBCOMMAND))
    def test_identical_invocations_identical_stdout(self, name, fmt):
        argv = ["--format", fmt, *EVERY_SUBCOMMAND[name]]
        first, second = run(*argv), run(*argv)
        assert first[0] == 0
        assert first[1].startswith(f"# hyperval {fmt} 3\n")
        assert first[1] == second[1]


def test_the_sequence_model_leaves_the_padic_layer_unloaded():
    # padic imports hyperseq, never the reverse; the package __init__
    # imports every module, so hyperseq is loaded under a bare package
    src = os.path.dirname(os.path.dirname(hyperval.__file__))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, types; pkg = types.ModuleType('hyperval'); "
         f"pkg.__path__ = [{os.path.join(src, 'hyperval')!r}]; "
         "sys.modules['hyperval'] = pkg; import hyperval.hyperseq; "
         "assert 'hyperval.padic' not in sys.modules, 'padic was imported'"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_no_import_inside_a_function():
    # every import in the package sits at the top of its module
    pkg = os.path.dirname(hyperval.__file__)
    for name in sorted(os.listdir(pkg)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(pkg, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                assert not any(
                    isinstance(inner, (ast.Import, ast.ImportFrom))
                    for inner in ast.walk(node)), (name, node.name)


def test_spec_parsing_leaves_the_cli_unloaded():
    # the grammar lives in polyq, below every command-line module
    src = os.path.dirname(os.path.dirname(hyperval.__file__))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, hyperval; "
         "hyperval.parse_sequence_spec('f = 1; g = x; u0 = 1'); "
         "assert 'hyperval.cli' not in sys.modules, 'cli was imported'"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
