"""Command-line surface: parse inputs, dispatch to analyses, print results.

One binary, ten subcommands, each mapped to a single library operation
family.  Output comes in three formats: `human` (default), `csv`, and
`structured-text`, the latter two opening with a versioned header line.
Exit codes: 0 success, 1 domain error (machine-readable reason on
stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from typing import Iterable, Optional

from .asymmetry import find_asymmetric_prime
from .errors import HypervalError, NotSimpleRoot, PolyParseError
from .hyperseq import (
    TermCursor,
    height_profile,
    make_sequence,
    parse_sequence_spec,
    regularize,
    valuation_profile,
)
from .membership import MembershipConfig, decide
from .numtheory import INFINITY
from .padic import (
    DEFAULT_DIGIT_CAP,
    hensel_lift,
    roots_mod_p,
    zero_run_length,
)
from .polyq import parse_poly, parse_rational
from .quadratic import (
    class_c_check,
    class_d_quadratic_check,
    discriminant_profile,
    equidistribution_sample,
    find_condition_prime,
)

# 3: `height --format structured-text` writes `height: n=… h=…` records,
# not the CSV rows; the cut-off n0 of `membership` is the least valid one
FORMAT_VERSION = 3


# -- output plumbing ----------------------------------------------------


class _UsageError(Exception):
    pass


def _header(fmt: str) -> Optional[str]:
    if fmt == "csv":
        return f"# hyperval csv {FORMAT_VERSION}"
    if fmt == "structured-text":
        return f"# hyperval structured-text {FORMAT_VERSION}"
    return None


def _emit(fmt: str, lines: Iterable[str]) -> None:
    head = _header(fmt)
    if head is not None:
        print(head)
    for line in lines:
        print(line)


def _sequence_from_args(args):
    inline = [v is not None for v in (args.f, args.g, args.u0)]
    if args.seq is not None or args.seq_file is not None:
        if args.seq is not None and args.seq_file is not None:
            raise _UsageError("give either --seq or --seq-file, not both")
        if any(inline):
            raise _UsageError("--seq/--seq-file conflicts with --f/--g/--u0")
        if args.seq is not None:
            text = args.seq
        else:
            with open(args.seq_file, "r", encoding="utf-8") as fh:
                text = fh.read()
        return parse_sequence_spec(text)
    if not all(inline):
        raise _UsageError("a sequence needs --f, --g and --u0 (or --seq)")
    return make_sequence(parse_poly(args.f), parse_poly(args.g),
                         parse_rational(args.u0))


def _fmt_bool(b: bool) -> str:
    return "true" if b else "false"


# -- subcommand handlers ------------------------------------------------


def _cmd_validate(args) -> int:
    seq = _sequence_from_args(args)
    flags = seq.flags
    roots = ";".join(str(r) for r in flags.g_positive_integer_roots) or "none"
    if args.format == "csv":
        _emit("csv", [
            "f,g,u0,common_factor_removed,g_positive_integer_roots,"
            "u0_is_zero,degenerate_zero",
            f"{seq.f},{seq.g},{seq.u0},{_fmt_bool(flags.common_factor_removed)},"
            f"{roots},{_fmt_bool(flags.u0_is_zero)},"
            f"{_fmt_bool(flags.degenerate_zero)}",
        ])
    else:
        _emit(args.format, [
            f"f = {seq.f}",
            f"g = {seq.g}",
            f"u0 = {seq.u0}",
            f"common_factor_removed = {_fmt_bool(flags.common_factor_removed)}",
            f"g_positive_integer_roots = {roots}",
            f"u0_is_zero = {_fmt_bool(flags.u0_is_zero)}",
            f"degenerate_zero = {_fmt_bool(flags.degenerate_zero)}",
        ])
    return 0


def _cmd_terms(args) -> int:
    seq = _sequence_from_args(args)
    if args.n < 0:
        raise _UsageError("--n must be nonnegative")

    def rows():
        cur = TermCursor(seq)
        for n in range(args.n + 1):
            if n > 0:
                cur.advance()
            # str() of the reduced pair, as Fraction prints it
            u = str(cur.num) if cur.den == 1 else f"{cur.num}/{cur.den}"
            if args.format == "csv":
                yield f"{n},{u}"
            elif args.format == "structured-text":
                yield f"term: n={n} u={u}"
            else:
                yield f"u_{n} = {u}"

    head = ["n,u_n"] if args.format == "csv" else []
    _emit(args.format, head + list(rows()))
    return 0


def _cmd_height(args) -> int:
    seq = _sequence_from_args(args)
    if args.nmax < 1:
        raise _UsageError("--nmax must be >= 1")
    if args.stride < 1:
        raise _UsageError("--stride must be >= 1")
    profile = height_profile(seq, args.nmax, args.stride)
    if args.format == "human":
        lines = [f"n={n} height={h:.6f}" for n, _, h in profile.rows]
        lines.append(f"growth constant (min h/n, top half): "
                     f"{profile.growth_constant:.6f}")
        _emit("human", lines)
    elif args.format == "csv":
        _emit("csv", ["n,height", *profile.csv_rows()])
    else:
        _emit("structured-text",
              [f"height: n={n} h={h:.12g}" for n, _, h in profile.rows])
    return 0


def _cmd_valuation(args) -> int:
    seq = _sequence_from_args(args)
    if args.nmax < 0:
        raise _UsageError("--nmax must be nonnegative")
    vals = valuation_profile(seq, args.p, args.nmax)

    def show(v):
        return "inf" if v is INFINITY else str(int(v))

    if args.format == "csv":
        _emit("csv", ["n,v_p", *(f"{n},{show(v)}" for n, v in enumerate(vals))])
    elif args.format == "structured-text":
        _emit("structured-text",
              [f"valuation: p={args.p} n={n} v={show(v)}"
               for n, v in enumerate(vals)])
    else:
        _emit("human", [f"v_{args.p}(u_{n}) = {show(v)}"
                        for n, v in enumerate(vals)])
    return 0


def _cmd_regularize(args) -> int:
    seq = _sequence_from_args(args)
    result = regularize(seq)
    reg = result.regular_seq
    lines = [
        f"f_tilde = {reg.f}",
        f"g_tilde = {reg.g}",
        f"u0_tilde = {reg.u0}",
        f"q = {result.correction}",
    ]
    if args.format == "human":
        for cls in result.shift_classes:
            members = ", ".join(
                f"{m.source}:{m.poly} (shift {m.shift})" for m in cls.members
            )
            lines.append(f"class rep {cls.representative}: {members} "
                         f"[gamma={cls.gamma}]")
    _emit(args.format, lines)
    return 0


def _cmd_asymmetry(args) -> int:
    seq = _sequence_from_args(args)
    if args.pmin < 2:
        raise _UsageError("--pmin must be >= 2")
    if args.pmax < args.pmin:
        raise _UsageError("--pmax must be >= --pmin")
    scan = find_asymmetric_prime(seq, args.pmin, args.pmax)
    if scan:
        cert = scan.certificate
        if args.format == "human":
            _emit("human", [
                f"asymmetric prime p = {cert.p}",
                f"m_f = {cert.m_f}, m_g = {cert.m_g}",
                f"slope = {cert.slope}  (v_p(u_n) ~ slope * n)",
                f"envelope: A = {cert.A}, B = {cert.B}",
            ])
        else:
            _emit(args.format, [cert.to_record()])
    else:
        _emit(args.format, [scan.summary()])
    return 0


def _cmd_classify(args) -> int:
    seq = _sequence_from_args(args)
    profile = discriminant_profile(seq)
    in_c = class_c_check(seq)
    in_d = class_d_quadratic_check(seq)
    lines = [
        profile.summary(),
        f"class_c = {_fmt_bool(in_c)}",
        f"class_d = {_fmt_bool(in_d)}",
    ]
    for delta in sorted(profile.discs):
        search = find_condition_prime(profile, delta, p_max=args.pmax)
        if search:
            lines.append(f"condition_prime[delta={delta}] = {search.prime}")
        else:
            lines.append(f"condition_prime[delta={delta}] = none "
                         f"({search.diagnostic})")
    _emit(args.format, lines)
    return 0


def _cmd_membership(args) -> int:
    seq = _sequence_from_args(args)
    target = parse_rational(args.target)
    config = MembershipConfig(
        prime_cap=args.prime_cap,
        term_cap=args.term_cap,
        forced_prime=args.forced_prime,
    )
    verdict = decide(seq, target, config)
    if args.format == "csv":
        _emit("csv", [
            "outcome,witness,n0,terms_checked,cert_p,cert_slope,reason",
            verdict.csv_row(),
        ])
    elif args.format == "structured-text":
        _emit("structured-text", [verdict.to_record()])
    else:
        lines = [f"outcome: {verdict.outcome}"]
        if verdict.witness is not None:
            lines.append(f"witness: n = {verdict.witness}")
        if verdict.certificate is not None:
            lines.append(f"certificate: {verdict.certificate.to_record()}")
        if verdict.bound_n0 is not None:
            lines.append(f"cutoff n0 = {verdict.bound_n0}")
        lines.append(f"terms checked: {verdict.terms_checked}")
        if verdict.reason:
            lines.append(f"reason: {verdict.reason}")
        _emit("human", lines)
    return 0


def _cmd_equidist(args) -> int:
    report = equidistribution_sample(
        args.delta,
        q=args.modulus,
        a=args.residue,
        r=parse_rational(args.r),
        s=parse_rational(args.s),
        p_limit=args.plimit,
        bin_count=args.bins,
    )
    if args.format == "csv":
        _emit("csv", list(report.csv_rows()))
    else:
        _emit(args.format, [report.summary()])
    return 0


def _cmd_padic(args) -> int:
    if args.digits > DEFAULT_DIGIT_CAP:
        raise _UsageError(f"--digits must be <= {DEFAULT_DIGIT_CAP}")
    poly = parse_poly(args.poly)
    lines = []
    roots = roots_mod_p(poly, args.p)
    if not roots:
        lines.append(f"no roots mod {args.p}")
    for r in roots:
        try:
            lifted = hensel_lift(poly, args.p, r, args.digits)
        except NotSimpleRoot:
            lines.append(f"root {r}: multiple root mod {args.p}, not lifted")
            continue
        digits = " ".join(map(str, lifted.digits))
        lines.append(f"root {r}: digits (least significant first) {digits}")
        if args.zero_run is not None:
            run = zero_run_length(lifted, args.zero_run)
            lines.append(f"root {r}: zero run at index {args.zero_run} "
                         f"has length {run}")
    _emit(args.format, lines)
    return 0


# -- parser construction ------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperval",
        description="Analyze hypergeometric rational sequences: terms, "
                    "heights, p-adic valuations, asymmetric primes, "
                    "membership decisions, equidistribution.",
    )
    parser.add_argument("--format", choices=("human", "csv", "structured-text"),
                        default="human")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    seqflags = argparse.ArgumentParser(add_help=False)
    seqflags.add_argument("--f", help="polynomial f, e.g. \"x^2-2\"")
    seqflags.add_argument("--g", help="polynomial g")
    seqflags.add_argument("--u0", help="initial value, e.g. \"1\" or \"5/2\"")
    seqflags.add_argument("--seq", help="inline spec: \"f=...; g=...; u0=...\"")
    seqflags.add_argument("--seq-file", help="path to a sequence spec file")

    p = sub.add_parser("validate", parents=[seqflags],
                       help="canonicalize a sequence and print its flags")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("terms", parents=[seqflags], help="stream u_0..u_n")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_terms)

    p = sub.add_parser("height", parents=[seqflags],
                       help="height profile h(u_n)")
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--stride", type=int, default=1)
    p.set_defaults(func=_cmd_height)

    p = sub.add_parser("valuation", parents=[seqflags],
                       help="p-adic valuations v_p(u_n)")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.set_defaults(func=_cmd_valuation)

    p = sub.add_parser("regularize", parents=[seqflags],
                       help="shift-quotient rewrite u_n = q(n) * u~_n")
    p.set_defaults(func=_cmd_regularize)

    p = sub.add_parser("asymmetry", parents=[seqflags],
                       help="search for an asymmetric prime certificate")
    p.add_argument("--pmin", type=int, default=2)
    p.add_argument("--pmax", type=int, default=10_000)
    p.set_defaults(func=_cmd_asymmetry)

    p = sub.add_parser("classify", parents=[seqflags],
                       help="quadratic-field class checks and condition primes")
    p.add_argument("--pmax", type=int, default=100_000,
                   help="condition-prime scan limit")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("membership", parents=[seqflags],
                       help="decide whether a target value occurs")
    p.add_argument("--target", required=True)
    p.add_argument("--prime-cap", type=int, default=10_000)
    p.add_argument("--term-cap", type=int, default=10_000_000)
    p.add_argument("--forced-prime", type=int, default=None)
    p.set_defaults(func=_cmd_membership)

    p = sub.add_parser("equidist",
                       help="sample rep(r+s*sqrt(delta))/p over primes")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--modulus", type=int, default=1,
                   help="arithmetic progression modulus q")
    p.add_argument("--residue", type=int, default=0,
                   help="arithmetic progression residue a")
    p.add_argument("--r", default="0")
    p.add_argument("--s", default="1")
    p.add_argument("--plimit", type=int, default=100_000)
    p.add_argument("--bins", type=int, default=10)
    p.set_defaults(func=_cmd_equidist)

    p = sub.add_parser("padic",
                       help="lift roots of a polynomial to p-adic digits")
    p.add_argument("--poly", required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--digits", type=int, default=16)
    p.add_argument("--zero-run", type=int, default=None,
                   help="report the zero-digit run starting at this index")
    p.set_defaults(func=_cmd_padic)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except PolyParseError as exc:
        print(f"error: type=PolyParseError position={exc.position} "
              f"message={exc}", file=sys.stderr)
        return 1
    except HypervalError as exc:
        print(f"error: type={type(exc).__name__} message={exc}",
              file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: type=ValueError message={exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
