"""Clustering and sentiment baselines.

The clustering baseline represents each snippet as a TF-IDF vector
(raw term count times ln(scope size / document frequency), optionally
restricted to noun tokens) and merges clusters agglomeratively under
cosine similarity until a target cluster count remains. The sentiment
baselines are a seed-word vote and a constant majority-label predictor.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from snipagg.corpus import Corpus, SeedLexicon, Snippet
from snipagg.model import ModelError, check_cells

NOUN_TAG_PREFIX = "NN"

WeightedVector = dict[int, float]


class BaselineError(ValueError):
    """Invalid baseline input."""


@dataclass
class Clustering:
    """A hard partition of snippet ids within one scope.

    scope names the partitioned universe (an entity id, or something
    like "corpus"); assignment maps each snippet id to a cluster index.
    """

    scope: str
    assignment: dict[str, int]
    n_clusters: int

    def clusters(self) -> dict[int, set[str]]:
        out: dict[int, set[str]] = {}
        for sid, c in self.assignment.items():
            out.setdefault(c, set()).add(sid)
        return out


def tfidf_vectors(
    snippets: Sequence[Snippet], corpus: Corpus, noun_only: bool = False
) -> dict[str, WeightedVector]:
    """TF-IDF vectors for the given snippets, scoped to that collection.

    tf is the raw within-snippet count and idf is ln(scope size /
    document frequency), both computed after the optional noun filter
    (tags starting with NN). A term in every snippet weighs 0, and a
    snippet whose every token is filtered out gets the empty (zero)
    vector.
    """
    if not snippets:
        raise BaselineError("empty snippet scope")
    noun = np.array([t.startswith(NOUN_TAG_PREFIX) for t in corpus.tag_set.items], dtype=bool)
    per_snippet = [
        Counter((sn.words[noun[sn.tags]] if noun_only else sn.words).tolist()) for sn in snippets
    ]
    df = Counter()
    for counts in per_snippet:
        df.update(counts.keys())
    scope_size = len(snippets)
    out: dict[str, WeightedVector] = {}
    for sn, counts in zip(snippets, per_snippet):
        out[sn.snippet_id] = {
            w: tf * math.log(scope_size / df[w]) for w, tf in counts.items()
        }
    return out


def cosine(u: WeightedVector, v: WeightedVector) -> float:
    """Cosine similarity of sparse vectors; any zero vector scores 0."""
    nu = math.sqrt(sum(x * x for x in u.values()))
    nv = math.sqrt(sum(x * x for x in v.values()))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    if len(u) > len(v):
        u, v = v, u
    dot = sum(x * v[w] for w, x in u.items() if w in v)
    return dot / (nu * nv)


def agglomerative_cluster(
    vectors: Mapping[str, WeightedVector],
    target_clusters: int,
    linkage: str = "average",
    scope: str = "",
) -> Clustering:
    """Merge snippets bottom-up under cosine similarity until
    target_clusters remain.

    Cluster similarity is the average pairwise cosine (or the max for
    single linkage, the min for complete). Exact similarity ties are
    broken toward the pair whose canonical keys (sorted member id
    tuples) compare lowest, and final cluster indices are dense, in
    canonical key order. Disjoint clusters' keys order as their smallest
    ids, so with the ids sorted once and each pair merged into its
    earlier slot, the slots stay in key order. The lowest tied pair is
    then the first maximum, in row-major order, over the strict upper
    triangle, and the result does not depend on the input order.

    A scope whose n x n similarity matrix would exceed MAX_CELLS cells
    is refused before it is built (check_cells); below that, time grows as n cubed.
    """
    if linkage not in ("average", "single", "complete"):
        raise BaselineError(f"unknown linkage {linkage!r}")
    ids = sorted(vectors)
    n = len(ids)
    if not (1 <= target_clusters <= n):
        raise BaselineError(
            f"target cluster count {target_clusters} out of range for {n} snippets"
        )
    try:
        check_cells(f"scope {scope!r} has {n} snippets: its similarity matrix", n, n)
    except ModelError as exc:
        raise BaselineError(str(exc)) from None

    terms = sorted({w for vec in vectors.values() for w in vec})
    term_col = {w: k for k, w in enumerate(terms)}
    dense = np.zeros((n, len(terms)))
    for r, sid in enumerate(ids):
        for w, x in vectors[sid].items():
            dense[r, term_col[w]] = x
    norms = np.linalg.norm(dense, axis=1)
    nonzero = norms > 0.0
    unit = np.zeros_like(dense)
    unit[nonzero] = dense[nonzero] / norms[nonzero, None]
    sim = unit @ unit.T

    # sim doubles as the linkage statistic between cluster slots: the
    # pairwise cosine sum for average linkage, max for single, min for
    # complete. A merged-away slot's row and column hold -inf, which
    # every combine and the average's division keep.
    combine = {"average": np.add, "single": np.maximum, "complete": np.minimum}[linkage]
    lower = np.tri(n, dtype=bool)
    sizes = np.ones(n)
    members = {r: [r] for r in range(n)}
    while len(members) > target_clusters:
        scores = sim / np.multiply.outer(sizes, sizes) if linkage == "average" else sim.copy()
        scores[lower] = -np.inf
        a, b = divmod(int(scores.argmax()), n)
        combine(sim[a, :], sim[b, :], out=sim[a, :])
        combine(sim[:, a], sim[:, b], out=sim[:, a])
        sim[b, :] = sim[:, b] = -np.inf
        sizes[a] += sizes[b]
        members[a].extend(members.pop(b))

    assignment = {ids[r]: idx for idx, rows in enumerate(members.values()) for r in rows}
    return Clustering(scope, assignment, len(members))


def cluster_snippets(
    corpus: Corpus,
    target_clusters: int,
    noun_only: bool = False,
    per_entity: bool = True,
    linkage: str = "average",
) -> list[Clustering]:
    """TF-IDF agglomerative clustering over each entity, or the corpus.

    With per_entity, each entity's snippets form their own scope and
    their own target_clusters-way partition (entities with fewer
    snippets than the target get singletons). Otherwise all snippets
    share one corpus-wide scope.
    """
    if per_entity:
        scopes = zip(corpus.entities, corpus.snippets)
    else:
        scopes = [("corpus", list(corpus.iter_snippets()))]
    return [
        agglomerative_cluster(
            tfidf_vectors(group, corpus, noun_only), min(target_clusters, len(group)), linkage,
            scope=name,
        )
        for name, group in scopes
    ]


def seed_sentiment(snippet: Snippet, seeds: SeedLexicon) -> Optional[int]:
    """Vote a snippet's polarity by counting seed token occurrences.

    Returns the value index with the strict majority, or None (a split)
    when the counts tie, including the zero-zero case. Requires a
    two-valued lexicon.
    """
    if seeds.n_values != 2:
        raise BaselineError("seed sentiment needs exactly two value types")
    words = snippet.words.tolist()
    pos = sum(map(seeds.seed_words[0].__contains__, words))
    neg = sum(map(seeds.seed_words[1].__contains__, words))
    if pos > neg:
        return 0
    if neg > pos:
        return 1
    return None


def majority_sentiment(labels: Sequence[int]) -> int:
    """The most frequent training label; ties go to the lowest index."""
    if not labels:
        raise BaselineError("no training labels")
    counts = Counter(labels)
    best = max(counts.values())
    return min(l for l, c in counts.items() if c == best)
