"""Tests of the benchmark itself: python3 -m pytest -q bench/test_bench.py"""

import dataclasses
import json
import os
import random
import shutil
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import hyperval as hv  # noqa: E402
import hyperval.cli  # noqa: E402,F401
import reference as ref  # noqa: E402
import tracer  # noqa: E402
from harness import build_sequences, judge, references, run_round  # noqa: E402
from run import END_TO_END  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def ops_of(name, seed=1, rebuild=None):
    wl = WORKLOADS[name](random.Random(f"{name}:{seed}"))
    seqs = build_sequences(hv, wl.specs)
    if rebuild is not None:
        rebuild.append(lambda: seqs.update(build_sequences(hv, wl.specs)))
    return wl.make_ops(hv, seqs)


def outcomes(ops):
    return judge(ops, run_round(ops)[1], references(ops))


def test_correct_answers_pass_and_a_corrupted_one_is_caught(monkeypatch):
    ops = [op for op in ops_of("decide") if op.kind == "decide.yes"][:4]
    assert not any(o.failed for o in outcomes(ops))

    real = hv.decide
    monkeypatch.setattr(hv, "decide", lambda seq, t: dataclasses.replace(
        real(seq, t), witness=real(seq, t).witness + 1))
    bad = outcomes(ops)
    assert all(o.failed and o.wrong for o in bad)


def test_corrupted_term_and_raising_op_are_failed(monkeypatch):
    ops = [op for op in ops_of("stream") if op.kind == "stream.term"]
    real = hv.term
    monkeypatch.setattr(hv, "term", lambda seq, n: real(seq, n) + 1)
    assert all(o.failed and o.wrong for o in outcomes(ops))

    def boom(seq, n):
        raise ValueError("injected")
    monkeypatch.setattr(hv, "term", boom)
    assert all(o.failed and "injected" in o.wrong for o in outcomes(ops))


def test_cli_error_exit_is_failed_but_not_wrong():
    ops = [op for op in ops_of("stream") if op.kind == "cli.terms"]
    res = outcomes(ops)
    # the second CLI terms op prints terms beyond 4300 digits
    for op, o in zip(ops, res):
        code = op.call()[0]
        assert o.failed == (code != 0)
        assert o.wrong is None


def test_self_time_never_exceeds_inclusive_time():
    ops = [op for op in ops_of("decide") if op.kind.startswith("decide")][:20]
    tr = tracer.Tracer()
    original = hv.decide
    tr.install()
    try:
        assert hv.decide is not original
        t0 = time.perf_counter()
        run_round(ops)
        wall = time.perf_counter() - t0
    finally:
        tr.uninstall()
    assert hv.decide is original
    assert tr.calls["membership.decide"] == len(ops)
    assert tr.calls["numtheory.is_prime"] > 0
    for name, calls in tr.calls.items():
        assert tr.self_[name] <= tr.incl[name] + 1e-9, name
    assert sum(tr.self_.values()) <= wall + 1e-6


def test_counts_repeat_on_fresh_sequences():
    rebuild = []
    all_ops = ops_of("decide", rebuild=rebuild)
    ops = ([op for op in all_ops if op.kind == "decide.no"][:9]
           + [op for op in all_ops if op.kind == "decide.unsupported"])
    counts = []
    for _ in range(2):
        rebuild[0]()
        tr = tracer.Tracer()
        tr.install()
        try:
            run_round(ops)
        finally:
            tr.uninstall()
        counts.append({k: v for k, v in tr.snapshot().items()
                       if not k.endswith("ms")})
    assert counts[0] == counts[1]
    assert counts[0]["membership.decide.calls"] == len(ops)
    assert counts[0]["asymmetry.find_asymmetric_prime.calls"] == 1


def test_missing_name_is_reported_absent(monkeypatch):
    monkeypatch.setattr(tracer, "TRACED",
                        tracer.TRACED + (("numtheory", "no_such_kernel"),))
    tr = tracer.Tracer()
    tr.install()
    tr.uninstall()
    assert tr.absent == ["numtheory.no_such_kernel"]
    assert tr.snapshot()["numtheory.no_such_kernel.calls"] == 0


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == tracer.layer_metrics()
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


def test_reference_helpers():
    assert ref.decimal(3**3000) == str(3**3000)
    big = 10**5000 + 12345
    assert ref.decimal(big) == "1" + "0" * 4995 + "12345"
    assert ref.factorial_v2(10) == 8
    row = (2, Fraction(1, 3), 0.5, "u_2")
    assert ref.digest([big, row]) == ref.digest((big, list(row)))
    assert ref.digest([big, row]) != ref.digest([big + 1, row])
    assert ref.digest([big, row]) != ref.digest([big, row[:2] + (0.25, "u_2")])
    assert ref.star_discrepancy([(1, 2)]) == Fraction(1, 2)
    for p in (13, 17, 41, 97):
        r = ref.sqrt_mod(2, p) if ref.legendre(2, p) == 1 else None
        assert r is None or r * r % p == 2


def test_without_source_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "decide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
