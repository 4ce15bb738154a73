"""In-memory spans around the public functions of snipagg.

The tracer wraps public functions and methods from the outside (module
attributes and class attributes are swapped for timing wrappers), so
the program itself carries no tracing code. Each span records its
name, start, end, parent span and run id, so call counts at the same
boundaries are the span counts per name (``SpanIndex.table``). Spans
stay in memory and are written once, by ``write``, when the run ends.

Private helpers (names starting with ``_``) are never wrapped: their
time shows up as self time of the public caller.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict

from workloads import PER_LAYER

# Public functions wrapped per module, and public methods per class. A
# wrapped method's span is named "Class.method", a constructor's "Class".
FUNCTIONS = {
    "snipagg.generator": ["make_separable", "sample_corpus", "aspect_vocabularies_disjoint"],
    "snipagg.corpus": [
        "load_corpus", "save_corpus", "load_seed_lexicon", "load_gold", "save_seed_lexicon",
        "save_cluster_tsv", "save_polarity_tsv", "save_word_labels_jsonl",
    ],
    "snipagg.model": ["init_state", "build_priors", "save_state", "load_state"],
    "snipagg.inference": [
        "run_inference", "update_snippet_aspect", "update_snippet_value",
        "update_word_topic", "update_parameters", "compute_free_energy",
        "extract_posteriors", "aspect_clusterings", "polarity_predictions",
    ],
    "snipagg.baselines": ["cluster_snippets"],
    "snipagg.evaluation": [
        "muc_score", "sentiment_accuracy", "combine_clusterings", "gold_clustering",
    ],
    "snipagg.cli": ["cmd_generate", "cmd_fit", "cmd_eval", "cmd_report", "cmd_baseline"],
}
METHODS = {
    ("snipagg.model", "VariationalState"): ["refresh_caches"],
    ("snipagg.model", "DirichletFactor"): ["kl_to_prior", "set_counts"],
    ("snipagg.inference", "UpdateContext"): ["__init__"],
}
LAYERS = ("generator", "corpus", "model", "inference", "baselines", "evaluation", "cli")


class Tracer:
    """Collects spans while installed; ``uninstall`` restores the originals."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []  # (id, parent, name, layer, start, end)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name: str, layer: str, fn, args, kwargs):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, layer, start, end))

    @contextlib.contextmanager
    def span(self, name: str):
        """A span of the benchmark's own code (layer "bench"), e.g. one replay phase."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, "bench", start, end))

    def _wrapper(self, name: str, layer: str, fn):
        def traced(*args, **kwargs):
            return self._record(name, layer, fn, args, kwargs)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self) -> None:
        """Wrap every public function in FUNCTIONS and method in METHODS."""
        if self._patches:
            return
        loaded = {n: m for n, m in list(sys.modules.items())
                  if n == "snipagg" or n.startswith("snipagg.")}
        for modname, names in FUNCTIONS.items():
            module = loaded.get(modname)
            if module is None:
                continue
            layer = modname.split(".")[-1]
            for name in names:
                original = getattr(module, name)
                traced = self._wrapper(name, layer, original)
                # Rebind the name in every snipagg module that imported it,
                # so calls made inside the package are traced too.
                for mod in loaded.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, value))
                            setattr(mod, attr, traced)
        for (modname, clsname), names in METHODS.items():
            module = loaded.get(modname)
            if module is None:
                continue
            cls = getattr(module, clsname)
            layer = modname.split(".")[-1]
            for name in names:
                original = cls.__dict__[name]
                span_name = clsname if name == "__init__" else f"{clsname}.{name}"
                self._patches.append((cls, name, original))
                setattr(cls, name, self._wrapper(span_name, layer, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def records(self) -> list[tuple]:
        """Spans as (run, id, parent, name, layer, start, end) tuples."""
        return [(self.run_id,) + span for span in self.spans]

    def write(self, path: str) -> None:
        """Write every span as one JSON line, in the order of ``records``."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.records():
                fh.write(json.dumps(rec))
                fh.write("\n")


def read_spans(path: str) -> list[tuple]:
    with open(path, encoding="utf-8") as fh:
        return [tuple(json.loads(line)) for line in fh if line.strip()]


class SpanIndex:
    """Queries over span records from one or more runs."""

    def __init__(self, records: list[tuple]):
        self.records = records
        self.by_key = {(r[0], r[1]): r for r in records}
        self.children = defaultdict(list)
        self.by_name = defaultdict(list)
        for r in records:
            self.by_name[r[3]].append(r)
            if r[2]:
                self.children[(r[0], r[2])].append(r)

    def named(self, name: str, within: str | None = None) -> list[tuple]:
        """Spans called ``name``, optionally only those with an ancestor ``within``."""
        out = self.by_name.get(name, [])
        if within is not None:
            out = [r for r in out if self.has_ancestor(r, within)]
        return out

    def has_ancestor(self, rec: tuple, name: str) -> bool:
        parent = rec[2]
        while parent:
            rec = self.by_key[(rec[0], parent)]
            if rec[3] == name:
                return True
            parent = rec[2]
        return False

    def self_time(self, rec: tuple) -> float:
        """Duration minus the part covered by child spans (children never overlap)."""
        covered = sum(c[6] - c[5] for c in self.children[(rec[0], rec[1])])
        return (rec[6] - rec[5]) - covered

    def median_seconds(self, name: str, within: str | None = None):
        spans = self.named(name, within)
        return statistics.median(r[6] - r[5] for r in spans) if spans else None

    def layer_self_seconds(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for r in self.records:
            if r[4] in out:
                out[r[4]] += self.self_time(r)
        return out

    def table(self) -> list[dict]:
        """Calls, total and self seconds per span name, slowest self time first."""
        rows: dict[str, dict] = {}
        for r in self.records:
            row = rows.setdefault(r[3], {"name": r[3], "layer": r[4], "calls": 0,
                                         "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += r[6] - r[5]
            row["self_s"] += self.self_time(r)
        return sorted(rows.values(), key=lambda row: -row["self_s"])


def _per_call_us(index: SpanIndex, name: str):
    spans = index.named(name, within="replay.per_op")
    if not spans:
        return None
    return 1e6 * sum(r[6] - r[5] for r in spans) / len(spans)


def layer_metrics(index: SpanIndex, extras: dict) -> dict:
    """Per-layer metrics from spans plus the values measured outside them.

    extras carries iterations, iter_s_p50 (untraced), factor_bytes,
    thread_speedup_2, tokens, state_bytes, file_bytes, tracing_overhead_s
    and import_s. Calls "per iter" count every call made inside
    run_inference, priming included, over its iteration count.
    """
    iters = extras["iterations"]
    fit_calls = {
        name: index.named(name, within="run_inference")
        for name in ("DirichletFactor.set_counts", "DirichletFactor.kl_to_prior",
                     "update_snippet_aspect", "update_snippet_value", "update_word_topic")
    }
    med = index.median_seconds
    out = {
        "compute_free_energy_s": med("compute_free_energy"),
        "update_parameters_s": med("update_parameters"),
        "update_context_s": med("UpdateContext"),
        "refresh_caches_s": med("VariationalState.refresh_caches", within="replay"),
        "update_word_topic_us": _per_call_us(index, "update_word_topic"),
        "update_snippet_aspect_us": _per_call_us(index, "update_snippet_aspect"),
        "update_snippet_value_us": _per_call_us(index, "update_snippet_value"),
        "per_op_calls_per_iter": sum(
            len(fit_calls[n]) for n in
            ("update_snippet_aspect", "update_snippet_value", "update_word_topic")
        ) / iters,
        "iterations": iters,
        "extract_posteriors_s": med("extract_posteriors"),
        "set_counts_calls_per_iter": len(fit_calls["DirichletFactor.set_counts"]) / iters,
        "kl_to_prior_calls_per_iter": len(fit_calls["DirichletFactor.kl_to_prior"]) / iters,
        "kl_to_prior_s_per_iter": sum(
            r[6] - r[5] for r in fit_calls["DirichletFactor.kl_to_prior"]
        ) / iters,
        "init_state_s": med("init_state"),
        "save_state_s": med("save_state"),
        "load_state_s": med("load_state"),
        "load_corpus_s": med("load_corpus"),
        "save_corpus_s": med("save_corpus"),
        "make_separable_s": med("make_separable"),
        "cluster_snippets_s": med("cluster_snippets"),
        "muc_score_s": med("muc_score"),
        "sentiment_accuracy_s": med("sentiment_accuracy"),
    }
    for key in ("factor_bytes", "thread_speedup_2", "tokens", "state_bytes",
                "file_bytes", "tracing_overhead_s", "import_s"):
        out[key] = extras.get(key)
    # compute_free_energy packs the corpus before scoring it, as UpdateContext
    # does. A fit iteration reuses the packing made once per fit, so the
    # packing time is taken out of the free-energy time here.
    parts = (out["compute_free_energy_s"], out["refresh_caches_s"],
             out["update_parameters_s"], out["update_context_s"], extras.get("iter_s_p50"))
    if None not in parts:
        fe, refresh, mstep, packing, iteration = parts
        out["estep_s_derived"] = iteration - (fe - packing) - refresh - mstep
    return {name: out.get(name) for name in PER_LAYER}
