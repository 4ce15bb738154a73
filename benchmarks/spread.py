"""Run the benchmark over several seeds and report each metric's spread.

    python3 benchmarks/spread.py --workloads fit-batch-ref cli-pipeline-ref \
        --seeds 1 2 3 4 5 [--sets 2] [--trace 0] [--out FILE]

For every workload and end-to-end metric this prints the median and the
distance between the first and third quartile (statistics.quantiles,
n=4) as a share of the median, against the metric's bound in
BENCHMARK.json: a steady benchmark keeps that spread under a third of
the bound. With --sets 2 the seeds run twice and the second set's median
is compared with the first. Runs go one at a time, from the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, *bench["command"][1:], "--workload", workload,
           "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    saved = os.path.join(ROOT, ".bench_work", "results",
                         f"{workload}-seed{seed}-trace{trace}.json")
    with open(saved, encoding="utf-8") as fh:
        result["full"] = json.load(fh)
    return result


def spread(values: list[float]) -> tuple[float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / abs(median) if median else float("inf")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="spread.py", description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", nargs="+", type=int, required=True)
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="also write every run's full result here as JSON")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    runs: dict = {}
    ok = True
    for workload in args.workloads:
        sets = []
        for _ in range(args.sets):
            results = []
            for seed in args.seeds:
                res = run_once(bench, workload, seed, args.trace)
                print(f"{workload} seed {seed}: correct={res['correct']} "
                      f"failed {res['failed']} of {res['attempted']}", flush=True)
                ok &= res["correct"]
                results.append(res)
            sets.append(results)
        runs[workload] = sets
        print(f"\n{workload}: {len(args.seeds)} seeds x {args.sets} set(s)")
        print(f"  {'metric':24} {'median':>14} {'spread':>8} {'bound':>6}  verdict")
        for m in metrics:
            name, bound = m["name"], m.get("bound")
            values = [[r["metrics"][name]["value"] for r in s] for s in sets]
            if any(v is None for vs in values for v in vs):
                print(f"  {name:24} missing values")
                ok = False
                continue
            median = statistics.median(values[0])
            spreads = [spread(vs)[1] for vs in values]
            verdict = ""
            if bound is not None:
                worst = max(spreads)
                verdict = "steady" if worst < bound / 3 else (
                    "within bound" if worst <= bound else "TOO WIDE")
                if name != "setup_s":
                    ok &= worst <= bound
                for later in values[1:]:
                    worse = (statistics.median(later) - median) / abs(median)
                    if m["better"] == "higher":
                        worse = -worse
                    verdict += f"; next set {worse:+.3f}"
                    ok &= worse <= bound
            shown = "/".join(f"{x:.4f}" for x in spreads)
            print(f"  {name:24} {median:14.6g} {shown:>8} {bound if bound else '':>6}  {verdict}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"seeds": args.seeds, "trace": args.trace, "runs": runs}, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
