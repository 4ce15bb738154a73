"""Child processes of the benchmark driver (run.py); one runs at a time.

    child.py fit --spec JSON --seed N --seconds S --trace 0|1 --workdir DIR --out FILE
        Generates the workload's corpus, fits it in process and checks the
        outputs; with --trace 1 it also runs the traced fit and the replays.
    child.py replay --workdir DIR --corpus F --seeds F --state F --spec JSON --out FILE
        Traced replay of the inference phases on a state the CLI fitted.
    child.py cli --spans FILE --run-id ID -- SNIPAGG-ARGS...
        Runs one snipagg CLI stage with public functions traced.

Every child writes its result as JSON to --out (or its spans to --spans).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import snipagg  # noqa: E402
from snipagg import baselines, corpus, evaluation, generator, inference, model  # noqa: E402

from tracing import SpanIndex, Tracer, layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    FIT_RNG_SEED,
    GEN_PRIORS,
    MONOTONE_TOL,
    QUALITY_THRESHOLD,
    SETUP_REPEATS,
)

# Repeats of short operations; their median is reported.
EVAL_REPEATS = 9
BASELINE_REPEATS = 3
REPLAY_REPEATS = 5
# Snippets covered by the per-op replay (update_snippet_* and update_word_topic).
PER_OP_SNIPPETS = 400


def _check_source() -> None:
    src = os.path.realpath(os.path.join(ROOT, "src"))
    if not os.path.realpath(snipagg.__file__).startswith(src + os.sep):
        raise SystemExit(f"snipagg imported from {snipagg.__file__}, not from {src}")


def gen_hp(spec: dict) -> model.Hyperparameters:
    c = spec["corpus"]
    return model.Hyperparameters(K=c["K"], N=c["N"], rng_seed=0, **GEN_PRIORS)


def fit_hp(spec: dict, max_iters: int | None = None) -> model.Hyperparameters:
    c = spec["corpus"]
    return model.Hyperparameters(
        K=c["K"], N=c["N"], rng_seed=FIT_RNG_SEED, schedule=spec["schedule"],
        max_iters=spec["max_iters"] if max_iters is None else max_iters,
    )


def generate(spec: dict, seed: int):
    c = spec["corpus"]
    shape = generator.CorpusShape(
        c["entities"], c["snippets"], mean_words=c["mean_words"],
        vocab_size=c["vocab_size"], seed_words_per_value=c["seed_words_per_value"],
    )
    return generator.make_separable(gen_hp(spec), shape, c["separation"], seed, c["topic_mix"])


def warm_up(spec: dict) -> None:
    """A two-iteration fit on a tiny corpus: first-call costs leave the timing."""
    shape = generator.CorpusShape(2, 4, vocab_size=40, seed_words_per_value=2)
    syn = generator.make_separable(gen_hp(spec), shape, 1.0, 0)
    inference.run_inference(fit_hp(spec, max_iters=2), syn.corpus, syn.seeds)


def timed_fit(hp, corp, seeds, threads: int = 1):
    """Fit; per-iteration wall times come from this process's clock at each
    progress callback, so iteration 1 (which follows init and priming) has none."""
    stamps: list[float] = []
    start = time.perf_counter()
    state, reports = inference.run_inference(
        hp, corp, seeds, threads=threads,
        progress=lambda it, fe, seconds: stamps.append(time.perf_counter()),
    )
    fit_s = time.perf_counter() - start
    iter_s = [b - a for a, b in zip(stamps, stamps[1:])]
    # A fit that stopped after one iteration has no interval to report.
    return state, reports, fit_s, iter_s or [fit_s / len(reports)]


def score(syn, state) -> tuple[float, float]:
    post = inference.extract_posteriors(state)
    gold = evaluation.gold_clustering(syn.gold.clusters, syn.corpus)
    response = evaluation.combine_clusterings(inference.aspect_clusterings(syn.corpus, post))
    muc = evaluation.muc_score(gold, response).f1
    acc = evaluation.sentiment_accuracy(
        inference.polarity_predictions(syn.corpus, post), syn.gold.polarity
    )
    return muc, acc


def check_fit(spec: dict, syn, state, reports) -> tuple[list[str], float, float]:
    """Output checks of one fit; returns the failures and the two scores."""
    failures = []
    values = [r.value for r in reports]
    if not all(math.isfinite(v) for v in values):
        failures.append("free energy is not finite")
    else:
        replayed = inference.compute_free_energy(state, syn.corpus)
        if abs(replayed - values[-1]) > 1e-9 * abs(values[-1]):
            failures.append(
                f"compute_free_energy {replayed!r} != last reported {values[-1]!r}"
            )
    for name, arrays in (("qa", state.qa), ("qv", state.qv or []), ("qw", state.qw)):
        for a in arrays:
            if not (np.isfinite(a).all() and a.min() >= 0.0
                    and np.abs(a.sum(axis=1) - 1.0).max() <= 1e-9):
                failures.append(f"{name} rows are not distributions")
                break
    if spec["monotone"]:
        for prev, nxt in zip(values, values[1:]):
            if (nxt - prev) / abs(prev) > MONOTONE_TOL:
                failures.append(f"free energy rose from {prev!r} to {nxt!r}")
                break
    muc, acc = score(syn, state)
    floor = spec["quality_floor"]
    if floor is not None and (muc < floor or acc < floor):
        failures.append(f"muc_f1 {muc:.4f} / polarity_acc {acc:.4f} below {floor}")
    return failures, muc, acc


def p80(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=5, method="inclusive")[3]


def factor_bytes(state) -> int:
    """Bytes of every factor's prior, concentration and cached expected log."""
    total = 0
    for f in state.parameter_factors():
        total += f.prior.nbytes + f.concentration.nbytes
        elog = f.expected_log()
        total += elog.nbytes
    return total


def thread_speedup(spec: dict, corp, seeds) -> tuple[float, dict]:
    """Median iteration time at threads=1 over threads=2, untraced."""
    hp = fit_hp(spec, max_iters=spec["speedup_iters"])
    medians = {}
    for threads in (1, 2):
        _, _, _, iter_s = timed_fit(hp, corp, seeds, threads=threads)
        medians[threads] = statistics.median(iter_s)
    return medians[1] / medians[2], medians


def replay(tracer: Tracer, spec: dict, corp, seeds, state) -> dict:
    """Traced replay of the inference phases on a fitted state.

    compute_free_energy, UpdateContext packing, update_parameters with the
    digamma refresh, extract_posteriors and the per-op updates run on the
    fitted state (per-op writes go to batch-mode buffers, and refitting
    from the state's own posteriors leaves its factors as they were).
    """
    with tracer.span("replay"):
        for _ in range(REPLAY_REPEATS):
            inference.compute_free_energy(state, corp)
        for _ in range(REPLAY_REPEATS):
            ctx = inference.UpdateContext(state, corp)
        for _ in range(REPLAY_REPEATS):
            inference.update_parameters(ctx)
            state.refresh_caches()
        for _ in range(REPLAY_REPEATS):
            inference.extract_posteriors(state)
        with tracer.span("replay.per_op"):
            ctx = inference.UpdateContext(state, corp)
            pairs = ((i, j, sn) for i, group in enumerate(corp.snippets)
                     for j, sn in enumerate(group))
            for i, j, sn in itertools.islice(pairs, PER_OP_SNIPPETS):
                inference.update_snippet_aspect(ctx, i, j)
                if state.qv is not None:
                    inference.update_snippet_value(ctx, i, j)
                for w in range(len(sn)):
                    inference.update_word_topic(ctx, i, j, w)
    tracer.uninstall()
    try:
        speedup, medians = thread_speedup(spec, corp, seeds)
    finally:
        tracer.install()
    return {
        "factor_bytes": factor_bytes(state),
        "thread_speedup_2": speedup,
        "speedup_iter_s": medians,
        "tokens": corp.n_tokens,
    }


def run_fit(args, spec: dict) -> dict:
    hp = fit_hp(spec)
    tracer = Tracer(f"{spec['name']}-seed{args.seed}-fit-{os.getpid()}")
    traced = args.trace == 1
    gen_s, setup_s = [], []
    while not setup_s or not traced and (
            len(setup_s) < SETUP_REPEATS or sum(setup_s) < spec["setup_seconds"]):
        syn = None
        if traced:
            tracer.install()
        start = time.perf_counter()
        syn = generate(spec, args.seed)
        generated = time.perf_counter()
        tracer.uninstall()
        warm_up(spec)
        gen_s.append(generated - start)
        setup_s.append(time.perf_counter() - start)
    tokens = syn.corpus.n_tokens

    ops, failures = [], []
    measure_start = time.perf_counter()
    while True:
        state, reports, fit_s, iter_s = timed_fit(hp, syn.corpus, syn.seeds)
        fails, muc, acc = check_fit(spec, syn, state, reports)
        ops.append({"fit_s": fit_s, "iter_s": iter_s, "iterations": len(reports),
                    "fe": reports[-1].value, "muc": muc, "acc": acc, "failed": bool(fails)})
        failures += fails
        if ops[0]["fe"] != ops[-1]["fe"]:
            failures.append("two fits of the same corpus gave different free energies")
            ops[-1]["failed"] = True
        if traced or time.perf_counter() - measure_start + fit_s > args.seconds:
            break
        del state

    eval_s = []
    for _ in range(EVAL_REPEATS):
        start = time.perf_counter()
        score(syn, state)
        eval_s.append(time.perf_counter() - start)
    base_s = []
    gold = evaluation.gold_clustering(syn.gold.clusters, syn.corpus)
    for _ in range(BASELINE_REPEATS):
        start = time.perf_counter()
        clusters = baselines.cluster_snippets(syn.corpus, spec["corpus"]["K"])
        base_s.append(time.perf_counter() - start)
    base_muc = evaluation.muc_score(gold, evaluation.combine_clusterings(clusters)).f1

    pooled = [s for op in ops for s in op["iter_s"]]
    fit_total = sum(op["fit_s"] for op in ops)
    last = ops[-1]
    e2e = {
        "setup_s": statistics.median(setup_s),
        # The run's whole fit time over its fits: every measured second
        # counts, where a median of three or four fits would keep one.
        "fit_s": fit_total / len(ops),
        "us_per_token_iter": 1e6 * fit_total / (tokens * sum(op["iterations"] for op in ops)),
        "iter_s_p50": statistics.median(pooled),
        "generate_s": statistics.median(gen_s),
        "eval_s": statistics.median(eval_s),
        "baseline_s": statistics.median(base_s),
        "muc_f1": last["muc"],
        "polarity_acc": last["acc"],
        "free_energy_final": last["fe"],
    }
    e2e["pipeline_s"] = e2e["generate_s"] + e2e["fit_s"] + e2e["eval_s"] + e2e["baseline_s"]
    details = {
        "fits": len(ops),
        "iterations": last["iterations"],
        "iter_samples": len(pooled),
        "tokens": tokens,
        "tfidf_baseline_muc_f1": base_muc,
        "samples_s": {"setup": setup_s, "fit": [op["fit_s"] for op in ops],
                      "iteration": pooled, "eval": eval_s, "baseline": base_s},
        "below_quality_threshold": [
            name for name, v in (("muc_f1", last["muc"]), ("polarity_acc", last["acc"]))
            if v < QUALITY_THRESHOLD
        ],
    }
    if all(op["iterations"] >= 50 for op in ops):
        e2e["iter_s_p80"] = p80(pooled)
    result = {
        "end_to_end": e2e,
        "details": details,
        "attempted": len(ops),
        "failed": sum(op["failed"] for op in ops),
        "failures": failures,
    }
    if traced:
        result.update(traced_layers(args, spec, tracer, syn, ops[0]["fit_s"], e2e["iter_s_p50"]))
    return result


def traced_layers(args, spec, tracer: Tracer, syn, untraced_fit_s: float,
                  iter_s_p50: float) -> dict:
    """The traced fit, scoring, baseline, replay and IO round trips."""
    hp = fit_hp(spec)
    tracer.install()
    try:
        with tracer.span("fit"):
            state, reports, traced_fit_s, _ = timed_fit(hp, syn.corpus, syn.seeds)
        for _ in range(REPLAY_REPEATS):
            score(syn, state)
        baselines.cluster_snippets(syn.corpus, spec["corpus"]["K"])
        extras = replay(tracer, spec, syn.corpus, syn.seeds, state)
        corpus_path = os.path.join(args.workdir, "corpus.jsonl")
        state_path = os.path.join(args.workdir, "state.json")
        corpus.save_corpus(syn.corpus, corpus_path)
        corpus.load_corpus(corpus_path)
        model.save_state(state, state_path)
        model.load_state(state_path)
    finally:
        tracer.uninstall()
    extras.update(
        iterations=len(reports),
        iter_s_p50=iter_s_p50,
        file_bytes=os.path.getsize(corpus_path),
        state_bytes=os.path.getsize(state_path),
        tracing_overhead_s=traced_fit_s - untraced_fit_s,
    )
    for path in (corpus_path, state_path):
        os.remove(path)
    index = SpanIndex(tracer.records())
    tracer.write(os.path.join(args.workdir, "spans-fit.jsonl"))
    return {
        "per_layer": layer_metrics(index, extras),
        "layer_self_s": index.layer_self_seconds(),
        "span_table": index.table()[:25],
        "traced": {"fit_s": traced_fit_s, "untraced_fit_s": untraced_fit_s,
                   "speedup_iter_s": extras["speedup_iter_s"]},
    }


def run_replay(args, spec: dict) -> dict:
    tracer = Tracer(f"{spec['name']}-replay-{os.getpid()}")
    tracer.install()
    try:
        corp = corpus.load_corpus(args.corpus)
        state = model.load_state(args.state)
        seeds = corpus.load_seed_lexicon(
            args.seeds, corp, corpus.default_value_names(state.hp.N)
        )
        extras = replay(tracer, spec, corp, seeds, state)
    finally:
        tracer.uninstall()
    tracer.write(args.spans)
    return extras


def run_cli_stage(argv: list[str], spans: str, run_id: str) -> int:
    import snipagg.cli

    tracer = Tracer(run_id)
    tracer.install()
    try:
        return snipagg.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.write(spans)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "cli":
        sep = argv.index("--")
        p = argparse.ArgumentParser(prog="child.py cli")
        p.add_argument("--spans", required=True)
        p.add_argument("--run-id", required=True)
        opts = p.parse_args(argv[1:sep])
        _check_source()
        return run_cli_stage(argv[sep + 1:], opts.spans, opts.run_id)

    p = argparse.ArgumentParser(prog="child.py")
    p.add_argument("mode", choices=("fit", "replay"))
    p.add_argument("--spec", required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--corpus")
    p.add_argument("--seeds")
    p.add_argument("--state")
    p.add_argument("--spans")
    args = p.parse_args(argv)
    _check_source()
    spec = json.loads(args.spec)
    result = run_fit(args, spec) if args.mode == "fit" else run_replay(args, spec)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
