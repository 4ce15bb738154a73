"""Cluster, sentiment, and word-level scoring.

Cluster quality uses the link-based MUC metric: recall is, summed over
gold clusters, (cluster size minus the number of pieces the response
partitions it into) over (cluster size minus one); precision swaps the
roles. Both sides must cover the same snippets. An empty denominator
(all singletons) scores 1 by convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Optional, Sequence

from snipagg.baselines import Clustering
from snipagg.corpus import Corpus


class EvalError(ValueError):
    """Invalid evaluation input."""


@dataclass(frozen=True)
class MucResult:
    precision: float
    recall: float
    f1: float


def _vilain(clusters: Iterable[set[str]], other: Mapping[str, object]) -> tuple[int, int]:
    """Link counts for one direction of the MUC metric.

    For each cluster, count its size minus the number of distinct
    pieces the other side's assignment, which covers every member,
    splits it into.
    """
    num = 0
    den = 0
    for members in clusters:
        num += len(members) - len({other[m] for m in members})
        den += len(members) - 1
    return num, den


def _ratio(num: int, den: int) -> float:
    return 1.0 if den == 0 else num / den


def muc_score(gold: Clustering, response: Clustering) -> MucResult:
    """MUC precision, recall, and F1 of a response partition against gold.

    Both partitions must cover the same snippet universe (hard error
    otherwise); restrict_clustering can pre-filter a wider response.
    """
    if set(gold.assignment) != set(response.assignment):
        missing = set(gold.assignment) ^ set(response.assignment)
        raise EvalError(
            f"gold and response cover different snippets "
            f"({len(missing)} mismatched, e.g. {sorted(missing)[:3]})"
        )
    recall = _ratio(*_vilain(gold.clusters().values(), response.assignment))
    precision = _ratio(*_vilain(response.clusters().values(), gold.assignment))
    f1 = 0.0 if precision + recall == 0.0 else 2 * precision * recall / (precision + recall)
    return MucResult(precision, recall, f1)


def _numbered(scope: str, pairs: Iterable[tuple[str, Hashable]]) -> Clustering:
    """The partition that puts each (snippet id, key) pair's snippet in
    its key's cluster, keys numbered densely in first appearance order."""
    assignment: dict[str, int] = {}
    index: dict[Hashable, int] = {}
    for sid, key in pairs:
        if sid in assignment:
            raise EvalError(f"snippet {sid!r} appears in more than one scope")
        assignment[sid] = index.setdefault(key, len(index))
    return Clustering(scope, assignment)


def combine_clusterings(clusterings: Sequence[Clustering]) -> Clustering:
    """Merge per-scope partitions into one, namespacing cluster indices
    by scope so clusters from different scopes never fuse."""
    return _numbered("combined", (
        (sid, (c.scope, cl)) for c in clusterings for sid, cl in c.assignment.items()
    ))


def gold_clustering(
    labels: Mapping[str, str], corpus: Corpus, scope: str = "entity"
) -> Clustering:
    """Build a partition from gold cluster labels.

    With entity scope, equal labels only corefer within one entity;
    with corpus scope, labels are global. Snippets are taken in corpus
    order, so cluster indices are deterministic.
    """
    if scope not in ("entity", "corpus"):
        raise EvalError(f"unknown scope {scope!r}")
    out = _numbered(scope, (
        (sid, (i if scope == "entity" else None, labels[sid]))
        for i, sid in zip(corpus.snippet_entities(), corpus.snippet_ids) if sid in labels
    ))
    if not out.assignment:
        raise EvalError("no gold cluster labels matched the corpus")
    return out


def restrict_clustering(clustering: Clustering, ids: Iterable[str]) -> Clustering:
    """The sub-partition over the given snippet ids, densely renumbered."""
    keep = set(ids)
    return _numbered(
        clustering.scope, ((sid, cl) for sid, cl in clustering.assignment.items() if sid in keep)
    )


def sentiment_accuracy(
    predictions: Mapping[str, Optional[int]], gold: Mapping[str, int]
) -> float:
    """Fraction of gold snippets predicted correctly, with split
    predictions (None) earning half credit."""
    if not gold:
        raise EvalError("no gold polarity labels")
    score = 0.0
    for sid, g in gold.items():
        if sid not in predictions:
            raise EvalError(f"no prediction for snippet {sid!r}")
        p = predictions[sid]
        if p is None:
            score += 0.5
        elif p == g:
            score += 1.0
    return score / len(gold)


@dataclass(frozen=True)
class ClassPrf:
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class WordPrfResult:
    aspect: ClassPrf
    value: ClassPrf


def _class_prf(tp: int, fp: int, fn: int) -> ClassPrf:
    precision = 1.0 if tp + fp == 0 else tp / (tp + fp)
    recall = 1.0 if tp + fn == 0 else tp / (tp + fn)
    f1 = 0.0 if precision + recall == 0.0 else 2 * precision * recall / (precision + recall)
    return ClassPrf(precision, recall, f1)


def word_label_prf(
    predicted: Mapping[str, Sequence[str]], gold: Mapping[str, Sequence[str]]
) -> WordPrfResult:
    """Micro-averaged per-word precision/recall/F1 for the A and V classes.

    Counts pool over every gold-labeled snippet; a missing or
    length-mismatched prediction is a hard error. Empty denominators
    score 1 by convention.
    """
    counts = {"A": [0, 0, 0], "V": [0, 0, 0]}  # tp, fp, fn
    for sid, gseq in gold.items():
        pseq = predicted.get(sid)
        if pseq is None:
            raise EvalError(f"no word labels predicted for snippet {sid!r}")
        if len(pseq) != len(gseq):
            raise EvalError(
                f"label length mismatch for snippet {sid!r}: "
                f"{len(pseq)} predicted, {len(gseq)} gold"
            )
        for p, g in zip(pseq, gseq):
            for cls, c in counts.items():
                if p == cls and g == cls:
                    c[0] += 1
                elif p == cls:
                    c[1] += 1
                elif g == cls:
                    c[2] += 1
    return WordPrfResult(
        aspect=_class_prf(*counts["A"]),
        value=_class_prf(*counts["V"]),
    )


def _tag_blocks_expansion(tag: str) -> bool:
    # Determiners, conjunctions, and pure punctuation stay background.
    return tag in ("DT", "CC") or not any(ch.isalnum() for ch in tag)


def tree_expand(
    labels: Sequence[str],
    parse_spans: Sequence[tuple[int, int, str]],
    tags: Sequence[str],
) -> list[str]:
    """Grow word labels over their enclosing parse phrases.

    Each aspect word claims its largest containing noun phrase, and each
    value word its largest containing noun, adjective, or adverb phrase,
    provided the phrase contains no oppositely labeled word; background
    tokens inside the claimed phrase take the anchor's label, except
    determiners, conjunctions, and punctuation. Ties between equally
    large phrases go to the earlier start. Non-background labels are
    never rewritten, and the operation is idempotent (sweeps repeat
    until a fixpoint).
    """
    if len(labels) != len(tags):
        raise EvalError(
            f"{len(labels)} labels for {len(tags)} tags"
        )
    for start, end, kind in parse_spans:
        if not (0 <= start < end <= len(labels)):
            raise EvalError(f"span [{start}, {end}) out of bounds")
        if kind not in ("NP", "ADJP", "ADVP"):
            raise EvalError(f"unknown span kind {kind!r}")
    out = list(labels)
    changed = True
    while changed:
        changed = False
        for pos, label in enumerate(out):
            if label not in ("A", "V"):
                continue
            kinds = ("NP",) if label == "A" else ("NP", "ADJP", "ADVP")
            opposite = "V" if label == "A" else "A"
            best = None
            best_rank = None
            for start, end, kind in parse_spans:
                if kind not in kinds or not (start <= pos < end):
                    continue
                if any(out[k] == opposite for k in range(start, end)):
                    continue
                rank = (end - start, -start)
                if best_rank is None or rank > best_rank:
                    best_rank = rank
                    best = (start, end)
            if best is None:
                continue
            for k in range(best[0], best[1]):
                if out[k] == "B" and not _tag_blocks_expansion(tags[k]):
                    out[k] = label
                    changed = True
    return out
