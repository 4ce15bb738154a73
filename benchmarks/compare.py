"""Compare benchmark results of two checkouts, refusing unlike fingerprints.

    python3 benchmarks/compare.py BASE_RESULTS_DIR NEW_RESULTS_DIR

Each directory holds the result files run.py writes to
.bench_work/results/ (one per workload, seed and trace mode). Results are
compared only when the machine part of their fingerprints (core count,
CPU model, caches, BLAS and its thread pins, Python, numpy and scipy
versions), the workload spec and the set of seeds all match; otherwise
the comparison is refused with exit code 2. For every end-to-end metric
it prints both medians, the change, the bound from BENCHMARK.json (none
for the printed, ungated ones) and a verdict, and it names the seeds
whose deterministic results changed.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DETERMINISTIC = ("muc_f1", "polarity_acc", "free_energy_final")


def load(directory: str) -> dict:
    """(workload, trace) -> {seed: result} for the non-smoke results in directory."""
    out: dict = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        if os.path.basename(path).startswith("smoke-"):
            continue
        with open(path, encoding="utf-8") as fh:
            res = json.load(fh)
        w = res["fingerprint"]["workload"]
        trace = 1 if "per_layer" in res else 0
        out.setdefault((w["spec"]["name"], trace), {})[w["corpus_seed"]] = res
    return out


def comparable(a: dict, b: dict) -> list[str]:
    """Reasons two results may not be compared (empty when they may)."""
    fa, fb = a["fingerprint"], b["fingerprint"]
    reasons = [f"machine.{k}: {fa['machine'][k]!r} vs {fb['machine'].get(k)!r}"
               for k in fa["machine"] if fa["machine"][k] != fb["machine"].get(k)]
    for key in ("spec", "fit_rng_seed", "gen_priors", "run_seconds"):
        if fa["workload"][key] != fb["workload"][key]:
            reasons.append(f"workload.{key} differs")
    return reasons


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    if not base or not new:
        print("no results to compare", file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    refused = False
    for key in sorted(set(base) | set(new)):
        if key[1] == 1:
            continue  # traced runs carry per-layer numbers; they have no bound
        a, b = base.get(key, {}), new.get(key, {})
        if set(a) != set(b):
            print(f"{key[0]}: refused, seeds differ: {sorted(a)} vs {sorted(b)}")
            refused = True
            continue
        first = next(iter(a.values()))
        reasons = sorted({r for res in [*a.values(), *b.values()] for r in comparable(first, res)})
        if reasons:
            print(f"{key[0]}: refused, fingerprints differ: " + "; ".join(reasons))
            refused = True
            continue
        seeds = sorted(a)
        print(f"\n{key[0]}: {len(seeds)} seeds {seeds}")
        print(f"  {'metric':20} {'base':>12} {'new':>12} {'change':>8} {'bound':>6}  verdict")
        gated = {m["name"]: m for m in bench["end_to_end"]}
        shown = list(gated) + sorted(set(first["end_to_end"]) - set(gated))
        for name in shown:
            m = gated.get(name, {"better": "lower", "bound": None})
            va = [a[s]["end_to_end"].get(name) for s in seeds]
            vb = [b[s]["end_to_end"].get(name) for s in seeds]
            if None in va or None in vb:
                print(f"  {name:20} missing")
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            sign = -1.0 if m["better"] == "higher" else 1.0
            worse = sign * (mb - ma) / abs(ma)
            if len(va) >= 2:
                q1, _, q3 = statistics.quantiles(va, n=4)
                base_spread = (q3 - q1) / abs(ma)
            else:
                base_spread = 0.0
            bound = m["bound"]
            if bound is None:
                verdict = "not gated"
            elif worse > bound:
                verdict = "REGRESSION"
            elif base_spread > bound and not all(
                    sign * x < sign * y for x in vb for y in va):
                verdict = "unresolved (base spread exceeds bound)"
            else:
                verdict = "better" if worse < -base_spread else "no regression"
            print(f"  {name:20} {ma:12.6g} {mb:12.6g} {(mb - ma) / abs(ma):+8.3f} "
                  f"{bound if bound is not None else '-':>6}  {verdict}")
        changed = [s for s in seeds for n in DETERMINISTIC
                   if a[s]["end_to_end"].get(n) != b[s]["end_to_end"].get(n)]
        print("  deterministic results (muc_f1, polarity_acc, free_energy_final): "
              + (f"changed for seeds {sorted(set(changed))}" if changed else "identical per seed"))
    return 2 if refused else 0


if __name__ == "__main__":
    sys.exit(main())
