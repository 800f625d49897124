"""Closed-loop harness: set-up timing, rounds of operations, checks, metrics.

One caller issues each operation only after the previous one returned.
A workload is a fixed list of operations made from the seed; a run
repeats that list in rounds until the measured time reaches the run
length.  Every round starts from freshly built sequences (outside the
timed region), so each round does the same work and per-round counts
repeat exactly.  Answers are checked after each round, also outside the
timed region.
"""

from __future__ import annotations

import gc
import importlib
import io
import math
import os
import pickle
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional


class WrongAnswer(Exception):
    """Raised by a check when hyperval's answer disagrees with the reference."""


@dataclass(frozen=True)
class Spec:
    """A recurrence f(n)·uₙ = g(n)·uₙ₋₁ as plain coefficient tuples."""

    name: str
    f: tuple[Fraction, ...]  # lowest degree first
    g: tuple[Fraction, ...]
    u0: Fraction = Fraction(1)

    def argv(self) -> list[str]:
        return [f"--f={poly_text(self.f)}", f"--g={poly_text(self.g)}",
                f"--u0={self.u0}"]


def poly_text(coeffs) -> str:
    """A CLI polynomial expression, e.g. "(-2)+(0)*x+(1)*x^2"."""
    parts = []
    for i, c in enumerate(coeffs):
        parts.append(f"({c})" if i == 0 else
                     f"({c})*x" if i == 1 else f"({c})*x^{i}")
    return "+".join(parts)


@dataclass
class Op:
    """One public call.  `want` computes the reference answer (in another
    process, so it must return something picklable and compact);
    `check(answer, reference)` raises WrongAnswer on a wrong answer."""

    kind: str
    call: Callable[[], Any]
    want: Callable[[], Any]
    check: Callable[[Any, Any], None]
    cli: bool = False  # call returns (exit code, stdout, stderr)


@dataclass
class Workload:
    """Sequences to build at set-up, and the ops to run on them; make_ops
    takes the imported package and the built sequences (name → sequence)."""

    specs: list[Spec]
    make_ops: Callable[[Any, dict[str, Any]], list[Op]]
    min_rounds: int = 2  # sets the tail percentile; see tail_percentile


def run_cli(cli, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# -- set-up --------------------------------------------------------------


def build_sequences(hv, specs: list[Spec]) -> dict[str, Any]:
    return {s.name: hv.make_sequence(hv.RatPoly(s.f), hv.RatPoly(s.g), s.u0)
            for s in specs}


def import_and_build(specs: list[Spec]):
    """(seconds, package, sequences) for one import of hyperval (and its
    CLI) followed by make_sequence on every spec."""
    t0 = time.perf_counter()
    hv = importlib.import_module("hyperval")
    importlib.import_module("hyperval.cli")
    seqs = build_sequences(hv, specs)
    return time.perf_counter() - t0, hv, seqs


def _package_modules() -> dict[str, Any]:
    return {k: m for k, m in sys.modules.items()
            if k == "hyperval" or k.startswith("hyperval.")}


def setup_sample(specs: list[Spec]) -> float:
    """Seconds for one fresh import_and_build, timed in a forked child
    with the inherited objects frozen out of the collector's view."""
    def fresh() -> float:
        for name in _package_modules():
            del sys.modules[name]
        gc.collect()
        gc.freeze()
        return import_and_build(specs)[0]
    return in_child(fresh)


def in_child(fn: Callable[[], Any]) -> Any:
    """fn() run in a forked copy of this process, its result passed back
    pickled; nothing it allocates counts toward this process's RSS."""
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(rfd)
            try:
                data = pickle.dumps((True, fn()))
            except BaseException as e:  # reported by the parent
                data = pickle.dumps((False, f"{type(e).__name__}: {e}"))
            with os.fdopen(wfd, "wb") as fh:
                fh.write(data)
        finally:
            os._exit(0)
    os.close(wfd)
    with os.fdopen(rfd, "rb") as fh:
        data = fh.read()
    os.waitpid(pid, 0)
    if not data:
        raise RuntimeError("child process died without a result")
    ok, value = pickle.loads(data)
    if not ok:
        raise RuntimeError(f"in child process: {value}")
    return value


def references(ops: list[Op]) -> list[Any]:
    """The reference answer of every op, computed in a child process."""
    return in_child(lambda: [op.want() for op in ops])


# -- rounds --------------------------------------------------------------


@dataclass
class Outcome:
    latency: float
    failed: bool
    wrong: Optional[str] = None  # set when the answer itself was wrong


def run_round(ops: list[Op]) -> tuple[float, list[tuple[float, Any, Optional[BaseException]]]]:
    """Execute every op once, back to back; returns (wall seconds, results).
    Garbage left by earlier rounds is collected first, untimed."""
    gc.collect()
    results = []
    start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            out, exc = op.call(), None
        except Exception as e:  # an op that raises is a failed op
            out, exc = None, e
        results.append((time.perf_counter() - t0, out, exc))
    return time.perf_counter() - start, results


def judge(ops: list[Op], results, wants: list[Any]) -> list[Outcome]:
    """Check every answer.  A library op that raises, a CLI call with a
    non-zero exit code and a wrong answer all count as failed; only a
    wrong answer or an unexpected library exception makes the run
    incorrect."""
    outcomes = []
    for op, (lat, out, exc), want in zip(ops, results, wants):
        if exc is not None:
            wrong = None if op.cli else f"{op.kind} raised {type(exc).__name__}: {str(exc)[:200]}"
            outcomes.append(Outcome(lat, True, wrong))
            continue
        if op.cli and out[0] != 0:
            outcomes.append(Outcome(lat, True))
            continue
        try:
            op.check(out, want)
        except WrongAnswer as e:
            outcomes.append(Outcome(lat, True, f"{op.kind}: {e}"))
            continue
        outcomes.append(Outcome(lat, False))
    return outcomes


# -- statistics ----------------------------------------------------------


def median(values):
    s = sorted(values)
    n = len(s)
    return s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2


def nearest_rank(sorted_values, pct: float):
    n = len(sorted_values)
    return sorted_values[max(0, math.ceil(pct / 100 * n) - 1)]


def tail_percentile(ops_per_round: int, min_rounds: int) -> int:
    """The highest whole percentile that leaves at least ten ops beyond it
    in the smallest pool a run can have (min_rounds rounds)."""
    pool = min_rounds * ops_per_round
    pct = 100
    while pct > 50 and pool - math.ceil(pct / 100 * pool) < 10:
        pct -= 1
    return pct


def latency_stats(outcomes: list[Outcome], pct: int) -> tuple[float, float]:
    """(p50, p<pct>) in seconds; a failed op ranks slower than every
    successful one, and a rank that lands on one reports the slowest
    successful op instead."""
    ok = sorted(o.latency for o in outcomes if not o.failed)
    ranked = ok + [math.inf] * (len(outcomes) - len(ok))
    slowest = ok[-1] if ok else 0.0
    return tuple(v if v != math.inf else slowest
                 for v in (nearest_rank(ranked, 50), nearest_rank(ranked, pct)))
