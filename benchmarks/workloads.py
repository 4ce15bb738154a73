"""Workloads and metric names of the snipagg benchmark.

Plain data only: the driver imports this module without importing
snipagg, and the child processes build the program's objects from it.
"""

from __future__ import annotations

import copy

# The criterion-11 corpus of tests/test_acceptance.py: about 100k tokens.
REF_CORPUS = {
    "entities": 300, "snippets": 42, "mean_words": 8.0, "vocab_size": 1200,
    "seed_words_per_value": 10, "separation": 1.0, "topic_mix": [0.6, 0.25, 0.15],
    "K": 10, "N": 2,
}
# The criterion-01 separable corpus: about 16k tokens.
SMALL_CORPUS = {
    "entities": 50, "snippets": 40, "mean_words": 8.0, "vocab_size": 600,
    "seed_words_per_value": 10, "separation": 1.0, "topic_mix": [0.52, 0.35, 0.13],
    "K": 5, "N": 2,
}
# A toy corpus for smoke runs: every code path in seconds.
SMOKE_CORPUS = {
    "entities": 6, "snippets": 8, "mean_words": 5.0, "vocab_size": 120,
    "seed_words_per_value": 4, "separation": 1.0, "topic_mix": [0.6, 0.25, 0.15],
    "K": 3, "N": 2,
}
# Generation priors of the acceptance tests: a strong seed boost, so the
# sampled value words carry the polarity the seed words claim.
GEN_PRIORS = {"lambda_V": 4.0, "epsilon_V": 0.05}
# Initialisation seed of every fit; the corpus seed is the --seed argument.
FIT_RNG_SEED = 0
# Set-up (corpus generation and warm-up, or one CLI start) is repeated at
# least SETUP_REPEATS times and until it has taken SETUP_SECONDS in all,
# and its median reported: short set-ups get more samples.
SETUP_REPEATS = 3
SETUP_SECONDS = 3.0
# Acceptance threshold of criteria 01 and 02, which apply it to the
# criterion-01 corpus only.
QUALITY_THRESHOLD = 0.90
# Largest relative free-energy rise between sequential iterations (criterion 04).
MONOTONE_TOL = 1e-6

WORKLOADS = {
    # The ROADMAP reference shape. Almost all time is the batch E-step,
    # M-step, digamma refresh and free energy over a large factor bank
    # (E*K*V doubles per array), so the vectorised kernel work shows here.
    "fit-batch-ref": {
        "kind": "fit", "corpus": REF_CORPUS, "schedule": "batch", "max_iters": 50,
        "quality_floor": None, "monotone": False, "speedup_iters": 6,
    },
    # The per-token Python path (update_word_topic and friends) over a
    # factor bank small enough to sit in cache.
    "fit-sequential-small": {
        "kind": "fit", "corpus": SMALL_CORPUS, "schedule": "sequential", "max_iters": 15,
        "quality_floor": QUALITY_THRESHOLD, "monotone": True, "speedup_iters": 3,
    },
    # The CLI chain on the reference shape: sampling, corpus and state IO
    # and process start-up dominate, inference is a small share.
    "cli-pipeline-ref": {
        "kind": "cli", "corpus": REF_CORPUS, "schedule": "batch", "max_iters": 3,
        "baseline_clusters": 10, "speedup_iters": 3,
    },
}


def spec_for(name: str, smoke: bool = False) -> dict:
    """The workload's spec; smoke runs keep the structure at toy shape."""
    spec = copy.deepcopy(WORKLOADS[name])
    spec["name"] = name
    spec["smoke"] = smoke
    spec["setup_seconds"] = 0.0 if smoke else SETUP_SECONDS
    if smoke:
        spec["corpus"] = copy.deepcopy(SMOKE_CORPUS)
        spec["max_iters"] = min(spec["max_iters"], 3)
        spec["speedup_iters"] = 2
        # The acceptance threshold is defined for the criterion-01 shape,
        # not for a toy corpus.
        spec["quality_floor"] = None
        if spec["kind"] == "cli":
            spec["baseline_clusters"] = 3
    return spec


# End-to-end metrics every workload reports (name -> unit), the ones
# BENCHMARK.json gates. On a shared 2-vCPU VM (Xeon, Python 3.11, numpy
# 2.4) the quartile spread of 10-second stages over ten runs reached 0.25
# of the median, while pipeline_s, which sums 9 to 35 seconds of stages,
# stayed within 0.2; so pipeline_s carries the time gate and the stage
# times are printed beside it.
END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
    "muc_f1": "ratio",
    "polarity_acc": "ratio",
    "free_energy_final": "nats",
}
# Printed by name with their units, not gated.
DETAIL_UNITS = {
    "fit_s": "s",
    "us_per_token_iter": "us",
    "iter_s_p50": "s",
    "iter_s_p80": "s",
    "generate_s": "s",
    "eval_s": "s",
    "baseline_s": "s",
    "report_s": "s",
    "fit_nonfit_s": "s",
    **{f"{stage}_rss_mb": "MB" for stage in ("generate", "fit", "eval", "report", "baseline")},
    "error_rate": "ratio",
}
# Per-layer metrics every workload reports in a traced run (name -> unit).
PER_LAYER = {
    "estep_s_derived": "s",
    "compute_free_energy_s": "s",
    "update_parameters_s": "s",
    "update_context_s": "s",
    "update_word_topic_us": "us",
    "update_snippet_aspect_us": "us",
    "update_snippet_value_us": "us",
    "per_op_calls_per_iter": "count",
    "iterations": "count",
    "extract_posteriors_s": "s",
    "thread_speedup_2": "ratio",
    "refresh_caches_s": "s",
    "set_counts_calls_per_iter": "count",
    "kl_to_prior_calls_per_iter": "count",
    "kl_to_prior_s_per_iter": "s",
    "factor_bytes": "bytes",
    "init_state_s": "s",
    "save_state_s": "s",
    "state_bytes": "bytes",
    "load_state_s": "s",
    "load_corpus_s": "s",
    "save_corpus_s": "s",
    "file_bytes": "bytes",
    "tokens": "count",
    "make_separable_s": "s",
    "cluster_snippets_s": "s",
    "muc_score_s": "s",
    "sentiment_accuracy_s": "s",
    "import_s": "s",
    "tracing_overhead_s": "s",
}
CLI_STAGES = ("generate", "fit", "eval_muc", "eval_sentiment", "report", "baseline")
