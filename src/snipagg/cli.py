"""Command line driver.

Subcommands:
    generate   sample a synthetic corpus with gold annotations
    fit        run variational inference on a corpus
    eval       score predictions against gold annotations
    baseline   run a reference method (tf-idf clustering, seed votes)
    report     summarize a fitted state in human-readable form

Every artifact-producing command writes a manifest.json alongside its
outputs recording the exact invocation, configuration, input and output
content hashes, seed, thread count, and wall-clock timings. Given the
same inputs, configuration and seed, the data outputs are byte
identical across runs; the thread count changes nothing.

Exit codes: 0 success, 2 usage error, 3 data error (unreadable or
malformed inputs), 4 numeric failure during inference.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import logging
import math
import os
import sys
import time
from typing import Optional, Sequence

from snipagg.baselines import BaselineError, cluster_snippets, majority_sentiment, seed_sentiment
from snipagg.corpus import (
    CorpusError,
    default_value_names,
    load_corpus,
    load_gold,
    load_polarity_predictions,
    load_seed_lexicon,
    save_cluster_tsv,
    save_corpus,
    save_polarity_tsv,
    save_seed_lexicon,
    save_word_labels_jsonl,
)
from snipagg.evaluation import (
    EvalError,
    combine_clusterings,
    gold_clustering,
    muc_score,
    restrict_clustering,
    sentiment_accuracy,
    tree_expand,
    word_label_prf,
)
from snipagg.generator import (
    CorpusShape,
    GeneratorError,
    aspect_vocabularies_disjoint,
    make_separable,
    save_true_params,
)
from snipagg.inference import (
    InferenceError,
    aspect_clusterings,
    extract_posteriors,
    free_energy_rises,
    polarity_predictions,
    run_inference,
    word_label_predictions,
)
from snipagg.model import (
    MAX_CELLS,  # re-exported: the ceiling check_cells enforces
    Hyperparameters,
    ModelError,
    check_cells,
    check_state_sizes,
    hp_to_json,
    load_config,
    load_state,
    parse_config_value,
    save_state,
    transition_means,
)
from snipagg.output import atomic_open

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class UsageError(ValueError):
    """Bad flag combination caught after argparse."""


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class RunManifest:
    """Record of one command invocation and its artifacts."""

    def __init__(self, command: str, argv: Sequence[str]):
        self.payload: dict = {
            "command": command,
            "argv": list(argv),
            "config": None,
            "seed": None,
            "threads": None,
            "inputs": {},
            "outputs": {},
            "timings": {},
        }

    def set_config(self, hp: Hyperparameters) -> None:
        self.payload["config"] = hp_to_json(hp)
        self.payload["seed"] = hp.rng_seed

    def add_input(self, name: str, path: Optional[str]) -> None:
        if path is not None:
            self.payload["inputs"][name] = {"path": path, "sha256": _sha256(path)}

    def add_output(self, name: str, path: str) -> None:
        self.payload["outputs"][name] = {"path": path, "sha256": _sha256(path)}

    def write(self, path: str) -> None:
        with atomic_open(path) as fh:
            json.dump(self.payload, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _load_hp(args: argparse.Namespace) -> Hyperparameters:
    hp = load_config(args.config) if args.config else Hyperparameters()
    for pair in args.set or []:
        if "=" not in pair:
            raise UsageError(f"--set expects key=value, got {pair!r}")
        key, _, raw = pair.partition("=")
        key, raw = key.strip(), raw.strip()
        try:
            value = parse_config_value(key, raw)
        except ValueError as exc:
            raise UsageError(f"--set {key}: {exc}") from None
        setattr(hp, key, value)
    try:
        hp.validate()  # load_config has validated the file already
    except ModelError as exc:
        raise UsageError(f"--set: {exc}") from None
    return hp


def _size_error(args: argparse.Namespace, keys, message: str, fallback=None) -> Exception:
    """message blamed on where keys came from: --set (UsageError, exit 2) if one
    was set there, else --config or else fallback (ModelError, exit 3) if given."""
    set_keys = {pair.partition("=")[0].strip() for pair in args.set or []}
    source = None if set_keys & set(keys) else args.config or fallback
    return ModelError(f"{source}: {message}") if source else UsageError(f"--set: {message}")


def _bound_sizes(args: argparse.Namespace, hp: Hyperparameters, limit: int, what: str) -> None:
    """Reject a K or N above limit, the inputs' snippet count, before any
    table is built: each aspect and value type in use needs a snippet.
    A value from --config names the file, any other names --set."""
    for key in ("K", "N"):
        if getattr(hp, key) > limit:
            raise _size_error(args, [key], f"{key} = {getattr(hp, key)} exceeds {what} ({limit})")


def _value_names(args: argparse.Namespace) -> list[str]:
    """The --value-names labels, one per value index."""
    return [n.strip() for n in args.value_names.split(",")]


def _outdir(args: argparse.Namespace) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def cmd_generate(args: argparse.Namespace) -> int:
    if args.seed < 0:
        raise UsageError(f"--seed must be non-negative, got {args.seed}")
    hp = _load_hp(args)
    shape = CorpusShape(
        n_entities=args.entities,
        snippets_per_entity=args.snippets,
        mean_words=args.mean_words,
        length_mode=args.length_mode,
        vocab_size=args.vocab_size,
        seed_words_per_value=args.seed_words_per_value,
    )
    topic_mix = None
    if args.topic_mix:
        try:
            topic_mix = [float(p) for p in args.topic_mix.split(",")]
        except ValueError:
            raise UsageError(
                f"--topic-mix expects comma-separated numbers, got {args.topic_mix!r}"
            ) from None
    if args.entities >= 1 and args.snippets >= 1:  # make_separable rejects other shapes
        _bound_sizes(args, hp, args.entities * args.snippets, "entities x snippets")
        try:
            check_cells("--vocab-size", args.vocab_size)
            check_cells("--entities", args.entities)
            check_cells("--entities x --snippets", args.entities, args.snippets)
            check_cells("--entities x K x --vocab-size", args.entities, hp.K, args.vocab_size)
            check_cells("N x --vocab-size", hp.N, args.vocab_size)
            check_cells("--entities x K x N", args.entities, hp.K, hp.N)
        except ModelError as exc:
            raise UsageError(str(exc)) from None
    t0 = time.perf_counter()
    syn = make_separable(hp, shape, args.separation, args.seed, topic_mix)
    if args.separation >= 1.0 and not aspect_vocabularies_disjoint(syn):
        raise GeneratorError("aspect vocabulary overlap at full separation")
    out = _outdir(args)
    manifest = RunManifest("generate", args.argv)
    manifest.set_config(hp)
    manifest.payload["seed"] = args.seed

    corpus_path = os.path.join(out, "corpus.jsonl")
    save_corpus(syn.corpus, corpus_path)
    manifest.add_output("corpus", corpus_path)

    clusters_path = os.path.join(out, "gold_clusters.tsv")
    save_cluster_tsv(syn.corpus, syn.gold.clusters, clusters_path)
    manifest.add_output("gold_clusters", clusters_path)

    labels_path = os.path.join(out, "gold_word_labels.jsonl")
    save_word_labels_jsonl(syn.corpus, syn.gold.word_labels, labels_path)
    manifest.add_output("gold_word_labels", labels_path)

    if hp.N >= 1:
        polarity_path = os.path.join(out, "gold_polarity.tsv")
        save_polarity_tsv(
            syn.corpus, syn.gold.polarity, syn.seeds.value_names, polarity_path
        )
        manifest.add_output("gold_polarity", polarity_path)
        if syn.seeds.total_seeds() > 0:
            seeds_path = os.path.join(out, "seeds.txt")
            save_seed_lexicon(syn.seeds, syn.corpus, seeds_path)
            manifest.add_output("seeds", seeds_path)

    params_path = os.path.join(out, "true_params.json")
    save_true_params(syn.true_parameters, params_path)
    manifest.add_output("true_params", params_path)

    manifest.payload["timings"]["total"] = round(time.perf_counter() - t0, 3)
    manifest.write(os.path.join(out, "manifest.json"))
    log.info(
        "wrote %d snippets over %d entities to %s",
        syn.corpus.n_snippets, syn.corpus.n_entities, out,
    )
    return EXIT_OK


def cmd_fit(args: argparse.Namespace) -> int:
    if args.threads < 1:
        raise UsageError(f"--threads must be at least 1, got {args.threads}")
    hp = _load_hp(args)
    corpus = load_corpus(args.corpus)
    _bound_sizes(args, hp, corpus.n_snippets, "the corpus's snippets")
    V, T = len(corpus.vocabulary), len(corpus.tag_set)
    try:
        check_state_sizes(hp, V, T, corpus.n_entities, corpus.n_snippets)
    except ModelError as exc:
        raise _size_error(args, ["K", "N"], str(exc), args.corpus) from None
    seeds = None
    if args.seeds:
        seeds = load_seed_lexicon(args.seeds, corpus, default_value_names(hp.N))
    t0 = time.perf_counter()
    state, reports = run_inference(hp, corpus, seeds, threads=args.threads)
    elapsed = time.perf_counter() - t0
    for r in reports:
        if not math.isfinite(r.value):
            raise InferenceError(
                f"free energy is not finite at iteration {r.iteration}: {r.value!r}"
            )

    out = _outdir(args)
    manifest = RunManifest("fit", args.argv)
    manifest.set_config(hp)
    manifest.payload["threads"] = args.threads
    manifest.payload["free_energy_rises"] = free_energy_rises(reports)
    manifest.add_input("corpus", args.corpus)
    manifest.add_input("config", args.config)
    manifest.add_input("seeds", args.seeds)

    state_path = os.path.join(out, "state.json")
    save_state(state, state_path)
    manifest.add_output("state", state_path)

    fe_path = os.path.join(out, "free_energy.tsv")
    with atomic_open(fe_path) as fh:
        for r in reports:
            fh.write(f"{r.iteration}\t{r.value!r}\n")
    manifest.add_output("free_energy", fe_path)

    manifest.payload["timings"]["fit"] = round(elapsed, 3)
    manifest.write(os.path.join(out, "manifest.json"))
    log.info(
        "fit finished after %d iterations in %.1fs, final free energy %.4f",
        len(reports), elapsed, reports[-1].value,
    )
    return EXIT_OK


# Each eval metric's gold labels flag and the flag of its predictions,
# which --state stands in for.
_EVAL_FLAGS = {
    "muc": ("gold_clusters", "pred_clusters"),
    "sentiment": ("gold_polarity", "pred_polarity"),
    "word-prf": ("gold_word_labels", "pred_word_labels"),
}


def cmd_eval(args: argparse.Namespace) -> int:
    # Usage is checked before the corpus or the state is read.
    gold_flag, pred_flag = _EVAL_FLAGS[args.metric]
    if not getattr(args, gold_flag):
        raise UsageError(f"{args.metric} needs --{gold_flag.replace('_', '-')}")
    if not (args.state or getattr(args, pred_flag)):
        raise UsageError(f"{args.metric} needs --state or --{pred_flag.replace('_', '-')}")
    if args.metric == "word-prf" and args.tree_expand and not args.parse_spans:
        raise UsageError("--tree-expand needs --parse-spans")
    corpus = load_corpus(args.corpus)
    value_names = _value_names(args)
    results: dict = {"metric": args.metric}

    state = post = None
    if args.state:
        state = load_state(args.state)
        if not state.matches_corpus(corpus):
            raise CorpusError("state was fit on a different corpus")
        if args.metric == "sentiment" and len(value_names) != state.hp.N:
            raise UsageError(
                f"--value-names gives {len(value_names)} names but the state "
                f"has N={state.hp.N} value types"
            )
        post = extract_posteriors(state)

    if args.metric == "muc":
        gold_ann = load_gold(corpus, clusters_path=args.gold_clusters)
        gold = gold_clustering(gold_ann.clusters, corpus, scope=args.scope)
        if args.pred_clusters:
            pred_ann = load_gold(corpus, clusters_path=args.pred_clusters)
            response = gold_clustering(pred_ann.clusters, corpus, scope=args.scope)
        else:
            response = combine_clusterings(aspect_clusterings(corpus, post))
        response = restrict_clustering(response, gold.assignment.keys())
        m = muc_score(gold, response)
        results.update(precision=m.precision, recall=m.recall, f1=m.f1)
    elif args.metric == "sentiment":
        gold_ann = load_gold(
            corpus, polarity_path=args.gold_polarity, value_names=value_names
        )
        if args.pred_polarity:
            preds = load_polarity_predictions(corpus, args.pred_polarity, value_names)
        else:
            preds = dict(polarity_predictions(corpus, post))
        results["accuracy"] = sentiment_accuracy(preds, gold_ann.polarity)
    else:  # word-prf
        gold_ann = load_gold(
            corpus,
            word_labels_path=args.gold_word_labels,
            parse_spans_path=args.parse_spans,
        )
        if args.pred_word_labels:
            pred_ann = load_gold(corpus, word_labels_path=args.pred_word_labels)
            preds = dict(pred_ann.word_labels)
        else:
            preds = word_label_predictions(corpus, post)
        if args.tree_expand:
            tags, bounds = corpus.tags.tolist(), corpus.offsets.tolist()
            for sid, a, b in zip(corpus.snippet_ids, bounds, bounds[1:]):
                if sid not in preds:
                    continue
                spans = gold_ann.parse_spans.get(sid, [])
                preds[sid] = tree_expand(preds[sid], spans, [corpus.tag_set[t] for t in tags[a:b]])
        prf = word_label_prf(preds, gold_ann.word_labels)
        results["aspect"] = dataclasses.asdict(prf.aspect)
        results["value"] = dataclasses.asdict(prf.value)

    text = json.dumps(results, indent=2, sort_keys=True) + "\n"
    sys.stdout.write(text)
    if args.out:
        with atomic_open(args.out) as fh:
            fh.write(text)
    return EXIT_OK


def cmd_baseline(args: argparse.Namespace) -> int:
    clustering = args.variant in ("cluster-all", "cluster-noun")
    if clustering and args.clusters is None:
        raise UsageError(f"{args.variant} needs --clusters")
    if clustering and args.clusters < 1:
        raise UsageError(f"--clusters must be at least 1, got {args.clusters}")
    if args.variant == "seed" and not args.seeds:
        raise UsageError("seed variant needs --seeds")
    if args.variant == "majority" and not args.gold_polarity:
        raise UsageError("majority variant needs --gold-polarity")
    corpus = load_corpus(args.corpus)
    out = _outdir(args)
    manifest = RunManifest("baseline", args.argv)
    manifest.payload["config"] = {"variant": args.variant}
    manifest.add_input("corpus", args.corpus)
    t0 = time.perf_counter()

    if clustering:
        manifest.payload["config"].update(
            clusters=args.clusters, linkage=args.linkage, scope=args.scope
        )
        parts = cluster_snippets(
            corpus,
            args.clusters,
            noun_only=args.variant == "cluster-noun",
            per_entity=args.scope == "entity",
            linkage=args.linkage,
        )
        labels = {
            sid: f"c{cl}" for p in parts for sid, cl in p.assignment.items()
        }
        pred_path = os.path.join(out, "clusters.tsv")
        save_cluster_tsv(corpus, labels, pred_path)
        manifest.add_output("clusters", pred_path)
    elif args.variant == "seed":
        lex = load_seed_lexicon(args.seeds, corpus, _value_names(args))
        manifest.add_input("seeds", args.seeds)
        preds = {
            sn.snippet_id: seed_sentiment(sn, lex) for sn in corpus.iter_snippets()
        }
        pred_path = os.path.join(out, "polarity.tsv")
        save_polarity_tsv(corpus, preds, lex.value_names, pred_path)
        manifest.add_output("polarity", pred_path)
    else:  # majority
        value_names = _value_names(args)
        gold_ann = load_gold(
            corpus, polarity_path=args.gold_polarity, value_names=value_names
        )
        if not gold_ann.polarity:
            raise BaselineError("gold polarity file has no labels")
        manifest.add_input("gold_polarity", args.gold_polarity)
        maj = majority_sentiment(list(gold_ann.polarity.values()))
        preds = dict.fromkeys(corpus.snippet_ids, maj)
        pred_path = os.path.join(out, "polarity.tsv")
        save_polarity_tsv(corpus, preds, value_names, pred_path)
        manifest.add_output("polarity", pred_path)

    manifest.payload["timings"]["total"] = round(time.perf_counter() - t0, 3)
    manifest.write(os.path.join(out, "manifest.json"))
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    if args.top_k < 1:
        raise UsageError(f"--top-k must be at least 1, got {args.top_k}")
    corpus = load_corpus(args.corpus)
    state = load_state(args.state)
    if not state.matches_corpus(corpus):
        raise CorpusError("state was fit on a different corpus")
    post = extract_posteriors(state)
    hp = state.hp
    lines: list[str] = []

    bounds = corpus.snippet_bounds.tolist()
    for i, (start, stop) in enumerate(zip(bounds, bounds[1:])):
        lines.append(f"entity {corpus.entities[i]} ({stop - start} snippets)")
        by_aspect: dict[int, list[int]] = {}
        for j in range(stop - start):
            by_aspect.setdefault(int(post.aspect[i][j]), []).append(j)
        theta_mean = state.theta_A_factor(i).mean()
        for a in sorted(by_aspect):
            members = by_aspect[a]
            top = theta_mean[a].argsort()[::-1][: args.top_k]
            words = " ".join(corpus.vocabulary[w] for w in top)
            lines.append(f"  aspect {a}: {len(members)} snippets")
            lines.append(f"    top words: {words}")
            if post.value is not None and hp.N >= 1:
                names = default_value_names(hp.N)
                counts = [0] * hp.N
                for j in members:
                    counts[int(post.value[i][j])] += 1
                pol = " ".join(f"{names[v]}={counts[v]}" for v in range(hp.N))
                lines.append(f"    polarity: {pol}")
        lines.append("")

    mean = transition_means(state.trans_start, state.trans_main)
    letters = list(state.layout.letters)
    header = ["from/to"] + letters + ["END"]
    lines.append("transition means")
    lines.append("  " + "  ".join(f"{h:>7}" for h in header))
    row_names = ["START"] + letters
    for r, name in enumerate(row_names):
        row_sum = mean[r].sum()
        if abs(row_sum - 1.0) > 1e-6:
            raise InferenceError(f"transition row {name} sums to {row_sum!r}")
        cells = "  ".join(f"{v:7.4f}" for v in mean[r])
        lines.append(f"  {name:>7}  {cells}")
    if mean[0, -1] != 0.0:
        raise InferenceError("start row leaks mass to the end state")

    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out:
        with atomic_open(args.out) as fh:
            fh.write(text)
    return EXIT_OK


def _add_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="model configuration file (key = value lines)")
    p.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override one configuration key (repeatable)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snipagg", description="snippet aspect aggregation toolkit"
    )
    parser.add_argument("-q", "--quiet", action="store_true", help="suppress progress logs")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="sample a synthetic corpus")
    _add_config_args(g)
    g.add_argument("--out", required=True, help="output directory")
    g.add_argument("--entities", type=int, required=True)
    g.add_argument("--snippets", type=int, required=True, help="snippets per entity")
    g.add_argument("--mean-words", type=float, default=8.0)
    g.add_argument("--length-mode", choices=("poisson", "chain"), default="poisson")
    g.add_argument("--vocab-size", type=int, default=600)
    g.add_argument("--seed-words-per-value", type=int, default=0)
    g.add_argument("--separation", type=float, default=0.0)
    g.add_argument("--topic-mix", help="comma-separated role weights")
    g.add_argument("--seed", type=int, default=0, help="sampling seed")
    g.set_defaults(func=cmd_generate)

    f = sub.add_parser("fit", help="run variational inference")
    _add_config_args(f)
    f.add_argument("--corpus", required=True)
    f.add_argument("--seeds", help="seed lexicon file")
    f.add_argument("--out", required=True, help="output directory")
    f.add_argument(
        "--threads", type=int, default=1,
        help="accepted for compatibility; changes neither results nor speed",
    )
    f.set_defaults(func=cmd_fit)

    e = sub.add_parser("eval", help="score predictions against gold")
    e.add_argument("--corpus", required=True)
    e.add_argument("--metric", choices=("muc", "sentiment", "word-prf"), required=True)
    e.add_argument("--state", help="fitted state to evaluate")
    e.add_argument("--pred-clusters", help="cluster predictions TSV")
    e.add_argument("--pred-polarity", help="polarity predictions TSV")
    e.add_argument("--pred-word-labels", help="word label predictions JSONL")
    e.add_argument("--gold-clusters")
    e.add_argument("--gold-polarity")
    e.add_argument("--gold-word-labels")
    e.add_argument("--parse-spans")
    e.add_argument("--scope", choices=("entity", "corpus"), default="entity")
    e.add_argument("--tree-expand", action="store_true")
    e.add_argument(
        "--value-names",
        default="positive,negative",
        help="comma-separated polarity label names",
    )
    e.add_argument("--out", help="also write the JSON results here")
    e.set_defaults(func=cmd_eval)

    b = sub.add_parser("baseline", help="run a reference method")
    b.add_argument("--corpus", required=True)
    b.add_argument(
        "--variant",
        choices=("cluster-all", "cluster-noun", "seed", "majority"),
        required=True,
    )
    b.add_argument("--out", required=True, help="output directory")
    b.add_argument("--clusters", type=int, help="target clusters per scope")
    b.add_argument("--linkage", choices=("average", "single", "complete"), default="average")
    b.add_argument("--scope", choices=("entity", "corpus"), default="entity")
    b.add_argument("--seeds", help="seed lexicon file (seed variant)")
    b.add_argument("--gold-polarity", help="training labels (majority variant)")
    b.add_argument(
        "--value-names",
        default="positive,negative",
        help="comma-separated polarity label names (seed and majority variants)",
    )
    b.set_defaults(func=cmd_baseline)

    r = sub.add_parser("report", help="summarize a fitted state")
    r.add_argument("--corpus", required=True)
    r.add_argument("--state", required=True)
    r.add_argument("--top-k", type=int, default=10)
    r.add_argument("--out", help="also write the report here")
    r.set_defaults(func=cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args.argv = argv
    logging.basicConfig(
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (
        CorpusError,
        ModelError,
        GeneratorError,
        BaselineError,
        EvalError,
        OSError,
        json.JSONDecodeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except InferenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
