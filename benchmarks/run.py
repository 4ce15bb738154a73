"""Benchmark driver for snipagg.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout. The driver runs one child
process at a time: the in-process fit workloads run in benchmarks/child.py,
the CLI workload runs each snipagg stage as its own process. Children
import snipagg from this checkout's src/, at threads=1 with BLAS threads
pinned to 1. The corpus comes from --seed; the program only ever sees
the generated inputs.

With --trace 0 the last line of stdout is a JSON object whose metrics
are the end-to-end metrics; with --trace 1 it holds the per-layer
metrics from a separate traced run. The lines before it print every
metric by name with its unit, the output checks, the environment
fingerprint and, when traced, the span table. The full result is also
written to .bench_work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracing import SpanIndex, layer_metrics, read_spans  # noqa: E402
from workloads import (  # noqa: E402
    CLI_STAGES,
    DETAIL_UNITS,
    END_TO_END,
    FIT_RNG_SEED,
    GEN_PRIORS,
    PER_LAYER,
    SETUP_REPEATS,
    WORKLOADS,
    spec_for,
)

# The driver must print its result within this many seconds.
RUN_BUDGET_S = 170.0
# Environment of every child: BLAS threads pinned to 1, and a fixed string
# hash seed so dict and set layouts, and with them the timing of the
# dict-heavy stages, are the same on every run.
ENV_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
NOTES = [
    "the benchmark reads no hardware counters: times are wall clock",
    "factor_bytes is computed from array sizes; state_bytes and file_bytes are file sizes",
    "peak RSS comes from os.wait4 on each child process",
]
ITERATION_LINE = re.compile(r"iteration (\d+): free energy")


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        return max(1.0, self.end - time.monotonic())


def child_env() -> dict:
    env = dict(os.environ)
    env.update(ENV_PINS)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def run_process(cmd: list[str], stdout_path: str, deadline: Deadline) -> dict:
    """Run one child to completion; wall time and peak RSS come from os.wait4.

    stderr is read line by line as it arrives and each line is stamped
    with this process's clock.
    """
    with open(stdout_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=out,
                                stderr=subprocess.PIPE, text=True)
        timer = threading.Timer(deadline.left(), proc.kill)
        timer.start()
        lines = []
        try:
            for line in proc.stderr:
                lines.append((time.perf_counter(), line.rstrip("\n")))
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            proc.stderr.close()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0,
            "code": proc.returncode, "stderr": lines}


def stderr_tail(st: dict) -> str:
    return st["stderr"][-1][1] if st["stderr"] else ""


# ---------------------------------------------------------------- fingerprint

def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def fingerprint(spec: dict, seed: int, seconds: int) -> dict:
    import numpy
    import scipy

    cpu = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(os.path.join(base, index, "level"))
        kind = _read(os.path.join(base, index, "type"))
        if level in ("2", "3"):
            caches[f"L{level}"] = _read(os.path.join(base, index, "size"))
        elif level == "1" and kind == "Data":
            caches["L1d"] = _read(os.path.join(base, index, "size"))
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = None
    commit = dirty = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = ["git", "-C", ROOT]
        head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True)
        status = subprocess.run(git + ["status", "--porcelain", "--", "src"],
                                capture_output=True, text=True)
        if head.returncode == 0:
            commit, dirty = head.stdout.strip(), bool(status.stdout.strip())
    return {
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu,
            "caches": caches,
            "blas": blas,
            "env_pins": ENV_PINS,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "workload": {"spec": spec, "corpus_seed": seed, "fit_rng_seed": FIT_RNG_SEED,
                     "gen_priors": GEN_PRIORS, "run_seconds": seconds},
        "source": {"git_commit": commit, "git_dirty_src": dirty,
                   "src_sha256": source_hash()},
        "notes": NOTES,
    }


def source_hash() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


# ---------------------------------------------------------------- fit workloads

def run_fit_workload(spec, args, workdir, deadline) -> dict:
    out_path = os.path.join(workdir, "child.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "fit",
           "--spec", json.dumps(spec), "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--out", out_path]
    st = run_process(cmd, os.path.join(workdir, "child.out"), deadline)
    if st["code"] != 0 or not os.path.exists(out_path):
        return {"attempted": 1, "failed": 1, "end_to_end": {}, "details": {},
                "failures": [f"fit child exited {st['code']}: {stderr_tail(st)}"]}
    with open(out_path, encoding="utf-8") as fh:
        res = json.load(fh)
    res["end_to_end"]["peak_rss_mb"] = st["rss_mb"]
    return res


# ---------------------------------------------------------------- CLI workload

def cli_command(traced: bool, spans: str, run_id: str, argv: list[str]) -> list[str]:
    if traced:
        return [sys.executable, os.path.join(HERE, "child.py"), "cli",
                "--spans", spans, "--run-id", run_id, "--", *argv]
    return [sys.executable, "-m", "snipagg.cli", *argv]


def stage_arguments(spec: dict, seed: int, pdir: str) -> list[tuple[str, list[str]]]:
    c = spec["corpus"]
    data, fit, base = (os.path.join(pdir, d) for d in ("data", "fit", "base"))
    corpus = os.path.join(data, "corpus.jsonl")
    state = os.path.join(fit, "state.json")
    model_sets = ["--set", f"K={c['K']}", "--set", f"N={c['N']}"]
    gen_sets = [x for k, v in GEN_PRIORS.items() for x in ("--set", f"{k}={v}")]
    return [
        ("generate", ["generate", "--out", data, "--entities", str(c["entities"]),
                      "--snippets", str(c["snippets"]), "--mean-words", str(c["mean_words"]),
                      "--vocab-size", str(c["vocab_size"]),
                      "--seed-words-per-value", str(c["seed_words_per_value"]),
                      "--separation", str(c["separation"]),
                      "--topic-mix", ",".join(str(x) for x in c["topic_mix"]),
                      "--seed", str(seed), *model_sets, *gen_sets]),
        ("fit", ["fit", "--corpus", corpus, "--seeds", os.path.join(data, "seeds.txt"),
                 "--out", fit, "--threads", "1", *model_sets,
                 "--set", f"max_iters={spec['max_iters']}",
                 "--set", f"rng_seed={FIT_RNG_SEED}"]),
        ("eval_muc", ["eval", "--corpus", corpus, "--metric", "muc", "--state", state,
                      "--gold-clusters", os.path.join(data, "gold_clusters.tsv")]),
        ("eval_sentiment", ["eval", "--corpus", corpus, "--metric", "sentiment",
                            "--state", state,
                            "--gold-polarity", os.path.join(data, "gold_polarity.tsv")]),
        ("report", ["report", "--corpus", corpus, "--state", state]),
        ("baseline", ["baseline", "--corpus", corpus, "--variant", "cluster-all",
                      "--clusters", str(spec["baseline_clusters"]), "--out", base]),
    ]


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def check_manifest(stage_dir: str) -> list[str]:
    try:
        with open(os.path.join(stage_dir, "manifest.json"), encoding="utf-8") as fh:
            outputs = json.load(fh)["outputs"]
        bad = [name for name, o in outputs.items() if sha256_file(o["path"]) != o["sha256"]]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"manifest in {os.path.basename(stage_dir)} unreadable: {exc}"]
    return [f"sha256 of {name} does not match its manifest" for name in bad]


def read_eval(path: str, keys: tuple[str, ...]) -> tuple[dict, list[str]]:
    try:
        with open(path, encoding="utf-8") as fh:
            printed = json.load(fh)
        values = {k: printed[k] for k in keys}
    except (OSError, ValueError, KeyError) as exc:
        return {}, [f"eval output unreadable: {exc}"]
    bad = [k for k, v in values.items()
           if not isinstance(v, (int, float)) or not 0.0 <= v <= 1.0]
    return values, [f"eval value {k}={values[k]!r} outside [0, 1]" for k in bad]


def run_cli_pipeline(spec, seed, pdir, deadline, traced=False, after_fit=None) -> dict:
    """One pass of generate, fit, eval (muc, sentiment), report and baseline.

    Each stage is an operation; it fails when it exits non-zero, when a
    manifest sha256 does not match the file on disk, or when eval prints
    a value outside [0, 1]. Manifests are checked after the last stage.
    after_fit, when given, is called with the state path after the fit
    stage (the benchmark's tests use it to corrupt the state).
    """
    os.makedirs(pdir, exist_ok=True)
    stages, failed = {}, {}
    for name, argv in stage_arguments(spec, seed, pdir):
        if name == "eval_muc" and after_fit is not None:
            after_fit(os.path.join(pdir, "fit", "state.json"))
        spans = os.path.join(pdir, f"spans-{name}.jsonl")
        run_id = f"{spec['name']}-seed{seed}-{name}"
        st = run_process(cli_command(traced, spans, run_id, argv),
                         os.path.join(pdir, f"{name}.stdout"), deadline)
        stages[name] = st
        failed[name] = [] if st["code"] == 0 else [
            f"{name} exited {st['code']}: {stderr_tail(st)}"]
    for name, outdir in (("generate", "data"), ("fit", "fit"), ("baseline", "base")):
        failed[name] += check_manifest(os.path.join(pdir, outdir))
    muc, bad = read_eval(os.path.join(pdir, "eval_muc.stdout"), ("precision", "recall", "f1"))
    failed["eval_muc"] += bad
    acc, bad = read_eval(os.path.join(pdir, "eval_sentiment.stdout"), ("accuracy",))
    failed["eval_sentiment"] += bad
    with open(os.path.join(pdir, "report.stdout"), encoding="utf-8") as fh:
        if stages["report"]["code"] == 0 and "transition means" not in fh.read():
            failed["report"].append("report printed no transition table")

    fe_values = []
    fe_path = os.path.join(pdir, "fit", "free_energy.tsv")
    if os.path.exists(fe_path):
        with open(fe_path, encoding="utf-8") as fh:
            fe_values = [float(line.split("\t")[1]) for line in fh if line.strip()]
    stamps = [t for t, line in stages["fit"]["stderr"] if ITERATION_LINE.search(line)]
    try:
        with open(os.path.join(pdir, "fit", "manifest.json"), encoding="utf-8") as fh:
            inference_s = json.load(fh)["timings"]["fit"]
    except (OSError, ValueError, KeyError):
        inference_s = None
    return {
        "stages": stages,
        "failures": [msg for msgs in failed.values() for msg in msgs],
        "failed_stages": sorted(name for name, msgs in failed.items() if msgs),
        "muc_f1": muc.get("f1"),
        "polarity_acc": acc.get("accuracy"),
        "free_energy_final": fe_values[-1] if fe_values else None,
        "iterations": len(fe_values),
        "iter_s": [b - a for a, b in zip(stamps, stamps[1:])],
        "inference_s": inference_s,
    }


def count_tokens(corpus_path: str) -> int:
    with open(corpus_path, encoding="utf-8") as fh:
        return sum(len(json.loads(line)["tokens"]) for line in fh if line.strip())


def run_cli_workload(spec, args, workdir, deadline, after_fit=None) -> dict:
    help_cmd = [sys.executable, "-m", "snipagg.cli", "--help"]
    help_out = os.path.join(workdir, "help.stdout")
    cold = run_process(help_cmd, help_out, deadline)
    warm = []
    while len(warm) < SETUP_REPEATS or sum(st["wall_s"] for st in warm) < spec["setup_seconds"]:
        warm.append(run_process(help_cmd, help_out, deadline))

    runs = []
    measure_start = time.perf_counter()
    while True:
        pdir = os.path.join(workdir, f"pipeline{len(runs)}")
        run = run_cli_pipeline(spec, args.seed, pdir, deadline, after_fit=after_fit)
        runs.append(run)
        wall = sum(st["wall_s"] for st in run["stages"].values())
        if args.trace or time.perf_counter() - measure_start + wall > args.seconds:
            break
        shutil.rmtree(pdir)

    def stage_median(*names):
        return statistics.median(sum(r["stages"][n]["wall_s"] for n in names) for r in runs)

    last = runs[-1]
    tokens = None if "generate" in last["failed_stages"] else \
        count_tokens(os.path.join(pdir, "data", "corpus.jsonl"))
    iter_s = [s for r in runs for s in r["iter_s"]]
    e2e = {
        "setup_s": statistics.median(st["wall_s"] for st in warm),
        "fit_s": stage_median("fit"),
        "generate_s": stage_median("generate"),
        "eval_s": stage_median("eval_muc", "eval_sentiment"),
        "baseline_s": stage_median("baseline"),
        "report_s": stage_median("report"),
        "pipeline_s": stage_median(*CLI_STAGES),
        "peak_rss_mb": max(st["rss_mb"] for r in runs for st in r["stages"].values()),
        "muc_f1": last["muc_f1"],
        "polarity_acc": last["polarity_acc"],
        "free_energy_final": last["free_energy_final"],
        "iter_s_p50": statistics.median(iter_s) if iter_s else None,
    }
    per_token = [1e6 * r["inference_s"] / (tokens * r["iterations"])
                 for r in runs if tokens and r["inference_s"] and r["iterations"]]
    if per_token:
        e2e["us_per_token_iter"] = statistics.median(per_token)
    stage_rss = {
        f"{n}_rss_mb": max(r["stages"][s]["rss_mb"] for r in runs for s in CLI_STAGES
                           if s.split("_")[0] == n)
        for n in ("generate", "fit", "eval", "report", "baseline")
    }
    details = {
        "pipelines": len(runs),
        "iterations": last["iterations"],
        "iter_samples": len(iter_s),
        "tokens": tokens,
        "stage_wall_s": {n: last["stages"][n]["wall_s"] for n in CLI_STAGES},
        **stage_rss,
    }
    if last["inference_s"] is not None:
        details["fit_nonfit_s"] = e2e["fit_s"] - statistics.median(
            r["inference_s"] for r in runs)
    result = {
        "end_to_end": e2e,
        "details": details,
        "attempted": sum(len(r["stages"]) for r in runs),
        "failed": sum(len(r["failed_stages"]) for r in runs),
        "failures": [f for r in runs for f in r["failures"]],
    }
    if args.trace:
        result.update(traced_cli(spec, args, workdir, deadline, last, cold))
    return result


def traced_cli(spec, args, workdir, deadline, untraced, cold) -> dict:
    """A traced pipeline, then a traced replay on the state its fit wrote."""
    pdir = os.path.join(workdir, "traced")
    run = run_cli_pipeline(spec, args.seed, pdir, deadline, traced=True)
    records = []
    for name in CLI_STAGES:
        path = os.path.join(pdir, f"spans-{name}.jsonl")
        if os.path.exists(path):
            records += read_spans(path)
    data = os.path.join(pdir, "data")
    extras_path = os.path.join(pdir, "replay.json")
    spans_path = os.path.join(pdir, "spans-replay.jsonl")
    st = run_process([sys.executable, os.path.join(HERE, "child.py"), "replay",
                      "--spec", json.dumps(spec), "--workdir", pdir, "--out", extras_path,
                      "--corpus", os.path.join(data, "corpus.jsonl"),
                      "--seeds", os.path.join(data, "seeds.txt"),
                      "--state", os.path.join(pdir, "fit", "state.json"),
                      "--spans", spans_path],
                     os.path.join(pdir, "replay.stdout"), deadline)
    extras = {}
    failures = list(run["failures"])
    if st["code"] == 0:
        with open(extras_path, encoding="utf-8") as fh:
            extras = json.load(fh)
        records += read_spans(spans_path)
    else:
        failures.append(f"replay exited {st['code']}: {stderr_tail(st)}")
    iter_s = untraced["iter_s"]
    extras.update(
        iterations=untraced["iterations"],
        iter_s_p50=statistics.median(iter_s) if iter_s else None,
        state_bytes=os.path.getsize(os.path.join(pdir, "fit", "state.json")),
        file_bytes=os.path.getsize(os.path.join(data, "corpus.jsonl")),
        tracing_overhead_s=run["stages"]["fit"]["wall_s"] - untraced["stages"]["fit"]["wall_s"],
        import_s=cold["wall_s"],
    )
    index = SpanIndex(records)
    with open(os.path.join(workdir, "spans-cli.jsonl"), "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(rec) + "\n" for rec in records)
    return {
        "per_layer": layer_metrics(index, extras),
        "layer_self_s": index.layer_self_seconds(),
        "span_table": index.table()[:25],
        "traced": {"failures": failures,
                   "stage_wall_s": {n: run["stages"][n]["wall_s"] for n in CLI_STAGES}},
    }


# ---------------------------------------------------------------- output

def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def build_result(res: dict, trace: int) -> dict:
    """The final line: every gated metric of this mode, null where unmeasured."""
    names, source = (PER_LAYER, res.get("per_layer", {})) if trace else \
        (END_TO_END, res["end_to_end"])
    metrics = {name: {"value": source.get(name), "unit": unit} for name, unit in names.items()}
    complete = all(m["value"] is not None for m in metrics.values())
    return {
        "correct": res["failed"] == 0 and complete,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }


def print_report(res: dict, fp: dict, trace: int) -> None:
    w = fp["workload"]
    print(f"workload {w['spec']['name']}  corpus seed {w['corpus_seed']}  "
          f"fit seed {w['fit_rng_seed']}  trace {trace}"
          + ("  SMOKE (toy shape)" if w["spec"]["smoke"] else ""))
    print("end-to-end metrics:")
    for name, unit in END_TO_END.items():
        print(f"  {name} = {_fmt(res['end_to_end'].get(name))} {unit}")
    extra = {**res["end_to_end"], **res["details"]}
    extra["error_rate"] = res["failed"] / res["attempted"] if res["attempted"] else None
    for name, unit in DETAIL_UNITS.items():
        if name in extra:
            print(f"  {name} = {_fmt(extra[name])} {unit} (not gated)")
    print(f"  error_rate base: {res['failed']} failed of {res['attempted']} operations "
          f"({'fits' if w['spec']['kind'] == 'fit' else 'CLI stages'})")
    print("details: " + json.dumps(res["details"], sort_keys=True))
    for failure in res["failures"]:
        print(f"  FAILED: {failure}")
    if trace and "per_layer" in res:
        print("per-layer metrics (traced run):")
        for name, unit in PER_LAYER.items():
            print(f"  {name} = {_fmt(res['per_layer'].get(name))} {unit}")
        print("self seconds by layer: " + ", ".join(
            f"{k} {v:.4f}" for k, v in res["layer_self_s"].items()))
        print(f"  {'span':34} {'layer':10} {'calls':>8} {'total_s':>10} {'self_s':>10}")
        for row in res["span_table"]:
            print(f"  {row['name']:34} {row['layer']:10} {row['calls']:8d} "
                  f"{row['total_s']:10.4f} {row['self_s']:10.4f}")
        print("traced: " + json.dumps(res.get("traced", {}), sort_keys=True))
    m = fp["machine"]
    print(f"environment: nproc {m['nproc']}, {m['cpu_model']}, caches {m['caches']}, "
          f"{m['blas']}, pinned {m['env_pins']}, "
          f"python {m['python']}, numpy {m['numpy']}, scipy {m['scipy']}")
    s = fp["source"]
    print(f"source: git {s['git_commit']} dirty={s['git_dirty_src']} src sha256 {s['src_sha256'][:16]}")
    for note in fp["notes"]:
        print(f"note: {note}")


def parse_args(argv):
    p = argparse.ArgumentParser(prog="run.py", description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True, help="corpus seed")
    p.add_argument("--seconds", type=int, required=True, help="measuring time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="toy shapes: every metric in seconds, for the benchmark's tests")
    return p.parse_args(argv)


def main(argv=None, after_fit=None) -> int:
    """Run one workload and print its result; after_fit is a test hook of the
    CLI workload (see run_cli_pipeline)."""
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "snipagg", "__init__.py")):
        print(f"error: no snipagg sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    deadline = Deadline(RUN_BUDGET_S)
    spec = spec_for(args.workload, args.smoke)
    fp = fingerprint(spec, args.seed, args.seconds)
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if spec["kind"] == "fit":
            if args.trace:
                cold = run_process([sys.executable, "-m", "snipagg.cli", "--help"],
                                   os.path.join(workdir, "help.stdout"), deadline)
            res = run_fit_workload(spec, args, workdir, deadline)
            if args.trace and "per_layer" in res:
                res["per_layer"]["import_s"] = cold["wall_s"]
        else:
            res = run_cli_workload(spec, args, workdir, deadline, after_fit=after_fit)
        res["fingerprint"] = fp
        results = os.path.join(ROOT, ".bench_work", "results")
        os.makedirs(results, exist_ok=True)
        stem = os.path.join(results, ("smoke-" if args.smoke else "")
                            + f"{args.workload}-seed{args.seed}-trace{args.trace}")
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump(res, fh, indent=1, sort_keys=True)
        spans = [p for p in (os.path.join(workdir, "spans-fit.jsonl"),
                             os.path.join(workdir, "spans-cli.jsonl")) if os.path.exists(p)]
        if spans:
            os.replace(spans[0], stem + "-spans.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print_report(res, fp, args.trace)
    print(json.dumps(build_result(res, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
