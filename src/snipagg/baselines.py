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
from typing import Optional, Sequence

import numpy as np

from snipagg.corpus import Corpus, SeedLexicon, Snippet
from snipagg.model import check_cells

NOUN_TAG_PREFIX = "NN"


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

    @property
    def n_clusters(self) -> int:
        """How many clusters the partition has: its distinct indices."""
        return len(set(self.assignment.values()))

    def clusters(self) -> dict[int, set[str]]:
        out: dict[int, set[str]] = {}
        for sid, c in self.assignment.items():
            out.setdefault(c, set()).add(sid)
        return out


def tfidf_matrix(corpus: Corpus, start: int, stop: int, noun_only: bool = False) -> np.ndarray:
    """Dense TF-IDF matrix of the corpus's snippets start:stop, from its
    packed words, tags and offsets: row r is snippet start + r, and the
    columns are the scope's distinct words in ascending index order.

    A cell is the raw within-snippet count times ln(scope size /
    document frequency), both after the optional noun filter (tags
    starting with NN). A term in every snippet weighs 0, and a snippet
    whose every token is filtered out gets a zero row.
    """
    n = stop - start
    if n <= 0:
        raise BaselineError("empty snippet scope")
    lo, hi = corpus.offsets[start], corpus.offsets[stop]
    rows = np.repeat(np.arange(n), np.diff(corpus.offsets[start:stop + 1]))
    words = corpus.words[lo:hi]
    if noun_only:
        noun = np.array([t.startswith(NOUN_TAG_PREFIX) for t in corpus.tag_set.items], dtype=bool)
        keep = noun[corpus.tags[lo:hi]]
        rows, words = rows[keep], words[keep]
    terms, cols = np.unique(words, return_inverse=True)
    check_cells(f"a scope of {n} snippets: its TF-IDF matrix", n, len(terms), error=BaselineError)
    counts = np.bincount(rows * len(terms) + cols, weights=np.ones(len(cols)),
                         minlength=n * len(terms)).reshape(n, len(terms)).astype(float, copy=False)
    # math.log, not np.log, which may differ from libm in the last bit.
    counts *= [math.log(n / df) for df in np.count_nonzero(counts, axis=0).tolist()]
    return counts


def agglomerative_cluster(
    ids: Sequence[str],
    vectors: np.ndarray,
    target_clusters: int,
    linkage: str = "average",
    scope: str = "",
) -> Clustering:
    """Merge snippets bottom-up under cosine similarity until
    target_clusters remain; row r of vectors is snippet ids[r].

    Cluster similarity is the average pairwise cosine (or the max for
    single linkage, the min for complete); a zero row's cosine with
    anything is 0. Exact similarity ties are broken toward the pair
    whose canonical keys (sorted member id tuples) compare lowest, and
    final cluster indices are dense, in canonical key order. Disjoint
    clusters' keys order as their smallest ids, so with the rows sorted
    by id once and each pair merged into its earlier slot, the slots
    stay in key order. The lowest tied pair is then the first maximum,
    in row-major order, over the strict upper triangle, and the result
    does not depend on the input order.

    A scope whose n x n similarity matrix would exceed MAX_CELLS cells
    is refused before it is built (check_cells); below that, time grows as n cubed.
    """
    if linkage not in ("average", "single", "complete"):
        raise BaselineError(f"unknown linkage {linkage!r}")
    n = len(ids)
    if len(vectors) != n or len(set(ids)) != n:
        raise BaselineError(f"{len(vectors)} vectors for {len(set(ids))} distinct ids of {n}")
    if not (1 <= target_clusters <= n):
        raise BaselineError(
            f"target cluster count {target_clusters} out of range for {n} snippets"
        )
    check_cells(f"scope {scope!r} has {n} snippets: its similarity matrix", n, n,
                error=BaselineError)

    order = sorted(range(n), key=ids.__getitem__)
    unit = vectors[order]
    norms = np.linalg.norm(unit, axis=1)
    np.divide(unit, norms[:, None], out=unit, where=norms[:, None] > 0.0)
    sim = unit @ unit.T
    del unit  # before the loop, which holds several n x n arrays at once

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

    assignment = {ids[order[r]]: idx for idx, rows in enumerate(members.values()) for r in rows}
    return Clustering(scope, assignment)


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
    share one corpus-wide scope. Each scope is one tfidf_matrix, built
    only once its similarity matrix is known to fit under MAX_CELLS.
    """
    names = corpus.entities if per_entity else ["corpus"]
    bounds = corpus.snippet_bounds.tolist() if per_entity else [0, corpus.n_snippets]
    ids, out = corpus.snippet_ids, []
    for name, start, stop in zip(names, bounds, bounds[1:]):
        n = stop - start
        check_cells(f"scope {name!r} has {n} snippets: its similarity matrix", n, n,
                    error=BaselineError)
        vectors = tfidf_matrix(corpus, start, stop, noun_only)
        out.append(
            agglomerative_cluster(ids[start:stop], vectors, min(target_clusters, n), linkage, name)
        )
    return out


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
