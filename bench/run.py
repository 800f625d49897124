"""hyperval benchmark: one workload per process, closed loop, checked answers.

    python3 bench/run.py --workload decide --seed 1 [--seconds N] --trace 0
    python3 bench/run.py --all --seed 1 [--holdout-seed 101]

A single run prints one line per metric (name, value, unit), an `info`
line with the environment and run details, and, as its last line, a
JSON object {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 the run
does one untraced round, then traced rounds, and reports per-layer
metrics plus trace.overhead_frac.  --all runs every workload untraced
and traced, each in its own process, and prints every metric.
--seconds defaults to run_seconds in BENCHMARK.json.

The package is imported from src/ next to this directory; without it
the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import subprocess
import sys
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_FIRST, SETUP_PER_ROUND = 6, 3  # set-up samples before / after each round

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def git_sha() -> str:
    """HEAD of the checkout, read from .git without starting git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "git_sha": git_sha(),
        "seed": seed,
    }


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_seconds() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)["run_seconds"]


def launch(name: str, seed: int, trace: int, seconds: float) -> subprocess.CompletedProcess:
    """One run of one workload in a fresh process, output captured."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=900)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """(result object, info) for one run of one workload."""
    from harness import (build_sequences, import_and_build, judge, latency_stats,
                         median, references, run_round, setup_sample,
                         tail_percentile)
    from tracer import Tracer, difference, finish, layer_metrics
    from workloads import WORKLOADS

    rng = random.Random(f"{name}:{seed}")
    workload = WORKLOADS[name](rng)
    _, hv, built = import_and_build(workload.specs)
    if not os.path.abspath(hv.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"hyperval was imported from {hv.__file__}, not from {SRC}")
    seqs = dict(built)
    ops = workload.make_ops(hv, seqs)
    wants = references(ops)
    pct = tail_percentile(len(ops), workload.min_rounds)
    outcomes, walls = [], []
    tracer, per_round = None, []

    def one_round() -> float:
        seqs.clear()
        seqs.update(build_sequences(hv, workload.specs))
        before = tracer.snapshot() if tracer else None
        wall, results = run_round(ops)
        if tracer:
            per_round.append(difference(tracer.snapshot(), before))
        outcomes.extend(judge(ops, results, wants))
        return wall

    rss_floor = max_rss_mb()
    if trace:
        untraced = one_round()
        tracer = Tracer()
        tracer.install()
        try:
            while not walls or untraced + sum(walls) < seconds:
                walls.append(one_round())
        finally:
            tracer.uninstall()
    else:
        # set-up samples are spread over the run, so the median sees the
        # same machine as the op loops
        setups = [setup_sample(workload.specs) for _ in range(SETUP_FIRST)]
        while len(walls) < workload.min_rounds or sum(walls) < seconds:
            walls.append(one_round())
            setups += [setup_sample(workload.specs) for _ in range(SETUP_PER_ROUND)]

    ok = sum(not o.failed for o in outcomes)
    if trace:
        first = per_round[0]
        totals = {k: (sum(r[k] for r in per_round) / len(per_round)
                      if k.endswith("ms") else first[k]) for k in first}
        values = finish(totals)
        values["trace.overhead_frac"] = median(walls) / untraced - 1
        units = dict(layer_metrics())
    else:
        p50, tail = latency_stats(outcomes, pct)
        values = {
            "setup_s": median(setups),
            "ops_per_s": ok / sum(walls),
            "op_p50_ms": 1e3 * p50,
            "op_tail_ms": 1e3 * tail,
            "peak_rss_mb": max_rss_mb(),
        }
        units = dict(END_TO_END)
    failed_kinds: Counter = Counter()
    by_kind: dict[str, list[float]] = {}
    for i, o in enumerate(outcomes):
        kind = ops[i % len(ops)].kind
        by_kind.setdefault(kind, []).append(1e3 * o.latency)
        failed_kinds[kind] += o.failed
    info = {
        "workload": name, **environment(seed), "trace": int(trace),
        "rounds": len(walls) + (1 if trace else 0), "ops_per_round": len(ops),
        "measured_s": sum(walls), "tail_percentile": pct,
        "rss_before_rounds_mb": rss_floor,
        "failed_frac": (len(outcomes) - ok) / len(outcomes),
        "failed_by_kind": {k: n for k, n in failed_kinds.items() if n},
        "kind_p50_ms": {k: round(median(v), 3) for k, v in by_kind.items()},
        "wrong": [o.wrong for o in outcomes if o.wrong][:5],
        "absent": tracer.absent if tracer else [],
    }
    result = {
        "correct": not any(o.wrong for o in outcomes),
        "attempted": len(outcomes),
        "failed": len(outcomes) - ok,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    return result, info


def print_run(result: dict, info: dict) -> None:
    for key, m in result["metrics"].items():
        print(f"{key:<48} {m['value']:>16.6g} {m['unit']}")
    print(f"{'failed_frac':<48} {info['failed_frac']:>16.6g} fraction")
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))


def run_all(seed: int, holdout: int | None, seconds: float) -> int:
    """Every workload, untraced and traced, each in a fresh process."""
    from workloads import WORKLOADS

    status = 0
    for s in [seed] + ([holdout] if holdout is not None else []):
        for name in WORKLOADS:
            for trace in (0, 1):
                proc = launch(name, s, trace, seconds)
                print(f"== {name} seed={s} trace={trace} exit={proc.returncode}")
                sys.stdout.write(proc.stdout)
                sys.stderr.write(proc.stderr)
                status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("decide", "stream", "equidist"))
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--holdout-seed", type=int, default=None,
                        help="with --all: also run this seed, kept for held-out checks")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: run_seconds "
                             "in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "hyperval", "__init__.py")):
        print(f"error: no hyperval package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.seconds is None:
        args.seconds = run_seconds()
    if args.all:
        return run_all(args.seed, args.holdout_seed, args.seconds)
    if args.workload is None:
        parser.error("give --workload or --all")
    result, info = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_run(result, info)
    return 0


if __name__ == "__main__":
    sys.exit(main())
