"""Run the benchmark over several seeds and summarize the spread.

    python3 bench/spread.py --seeds 1-10 --out a.json
    python3 bench/spread.py --seeds 1-10 --compare a.json   # a second set
    python3 bench/spread.py --seeds 1-2 --trace 1 --out t.json
    python3 bench/spread.py --seeds 1-2 --trace 1 --compare t.json

Each run is a fresh process of run.py on a workload of BENCHMARK.json,
measuring its run_seconds.  For end-to-end metrics it prints
the median, the quartiles (statistics.quantiles, n=4) and the spread
(q3 − q1)/median next to the bound in BENCHMARK.json; with --compare it
also checks that this set's median is not worse than the earlier set's
by more than the bound.  For traced runs, --compare checks that every
count (each .calls metric and each counter) is identical per seed.
Exit status 1 when a check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

from run import ROOT, launch


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def is_count(name: str) -> bool:
    return not (name.endswith("ms") or name.endswith("ratio")
                or name.endswith("_frac"))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write the runs and summary here (JSON)")
    ap.add_argument("--compare", help="an earlier --out file to check against")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    specs = {m["name"]: m for m in bench["end_to_end"]}
    earlier = None
    if args.compare:
        with open(args.compare, encoding="utf-8") as fh:
            earlier = json.load(fh)
    report = {"seconds": bench["run_seconds"], "trace": args.trace, "workloads": {}}
    ok = True
    for wl in workloads:
        runs = []
        for seed in seed_list(args.seeds):
            t0 = time.monotonic()
            proc = launch(wl, seed, args.trace, bench["run_seconds"])
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{wl} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            info = json.loads(next(x for x in lines if x.startswith("info "))[5:])
            result = json.loads(lines[-1])
            runs.append({"seed": seed, "process_s": time.monotonic() - t0,
                         "info": info, **result})
            ok &= result["correct"]
            print(f"{wl} seed {seed}: {time.monotonic() - t0:.1f}s "
                  f"correct={result['correct']} failed={result['failed']}/"
                  f"{result['attempted']} rounds={info['rounds']}", flush=True)
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                         else (values[0],) * 3)
            summary[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med if med else 0.0,
                             "values": values}
        report["workloads"][wl] = {"runs": runs, "summary": summary}
        if args.trace == 0:
            print(f"{'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}"
                  f"{'spread':>9}{'bound':>7}{'then':>12}")
            for name, s in summary.items():
                spec = specs[name]
                line = (f"{name:<14}{s['median']:>12.5g}{s['q1']:>12.5g}"
                        f"{s['q3']:>12.5g}{s['spread']:>9.3f}{spec['bound']:>7}")
                if s["spread"] > spec["bound"]:
                    ok, line = False, line + "  SPREAD > BOUND"
                elif s["spread"] > spec["bound"] / 3:
                    line += "  spread > bound/3"
                if earlier:
                    then = earlier["workloads"][wl]["summary"][name]["median"]
                    worse = ((s["median"] - then) / then if spec["better"] == "lower"
                             else (then - s["median"]) / then)
                    line += f"{then:>12.5g}"
                    if worse > spec["bound"]:
                        ok, line = False, line + f"  WORSE BY {worse:.3f}"
                print(line)
        elif earlier:
            before = {r["seed"]: r for r in earlier["workloads"][wl]["runs"]}
            for r in runs:
                other = before.get(r["seed"])
                if other is None:
                    continue
                diff = [k for k, m in r["metrics"].items() if is_count(k)
                        and m["value"] != other["metrics"][k]["value"]]
                if diff:
                    ok = False
                    print(f"{wl} seed {r['seed']}: counts differ: {diff}")
                else:
                    print(f"{wl} seed {r['seed']}: all counts identical")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
    print("OK" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
