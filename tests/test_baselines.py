"""TF-IDF clustering and sentiment baselines."""

import hashlib
import json
import math
import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tfidf_reference
from snipagg import model
from snipagg.baselines import (
    BaselineError,
    agglomerative_cluster,
    cluster_snippets,
    majority_sentiment,
    seed_sentiment,
    tfidf_matrix,
)
from snipagg.cli import main
from snipagg.corpus import Corpus, Indexer, SeedLexicon, Snippet, Token
from snipagg.model import MAX_CELLS

THE, PIZZA, CRUST, BEER, WINE = range(5)
DT, NN, NNS, JJ = range(4)


def toy_scope():
    vocab = Indexer(["the", "pizza", "crust", "beer", "wine"])
    tags = Indexer(["DT", "NN", "NNS", "JJ"])
    snippets = [
        Snippet(0, "s0", [Token(THE, DT), Token(PIZZA, NN), Token(PIZZA, NN)]),
        Snippet(0, "s1", [Token(THE, DT), Token(CRUST, NNS)]),
        Snippet(0, "s2", [Token(THE, DT), Token(BEER, JJ)]),
        Snippet(0, "s3", [Token(THE, DT), Token(WINE, NN)]),
    ]
    corpus = Corpus(["e0"], [snippets], vocab, tags)
    return snippets, corpus


def matrix(vectors):
    """agglomerative_cluster's ids and rows for {id: {term: weight}}
    vectors, rows in the mapping's order."""
    return list(vectors), tfidf_reference.dense(vectors, list(vectors))


def test_tfidf_weights_by_hand():
    _, corpus = toy_scope()
    vecs = tfidf_matrix(corpus, 0, 4)  # every word occurs: column k is word k
    # "pizza" occurs twice in s0 and nowhere else: tf * ln(4/1)
    assert vecs[0, PIZZA] == pytest.approx(2.772588722239781, abs=1e-15)
    assert vecs[1, CRUST] == pytest.approx(math.log(4.0), abs=1e-15)
    assert vecs[1, PIZZA] == 0.0
    # "the" appears in every snippet, so its idf is ln(1) = 0
    assert vecs[:, THE].tolist() == [0.0] * 4


def test_tfidf_noun_filter():
    _, corpus = toy_scope()
    vecs = tfidf_matrix(corpus, 0, 4, noun_only=True)
    # DT "the" and JJ "beer" are filtered, so the columns are pizza (NN),
    # crust (NNS: NN prefix) and wine (NN)
    assert vecs.shape == (4, 3)
    assert vecs[1, 1] == vecs[3, 2] == pytest.approx(math.log(4.0), abs=1e-15)
    assert vecs[2].tolist() == [0.0] * 3  # nothing survives the filter
    # document frequency is recomputed on the filtered tokens
    assert vecs[0, 0] == pytest.approx(2.0 * math.log(4.0), abs=1e-15)


def test_tfidf_empty_scope_is_an_error():
    _, corpus = toy_scope()
    with pytest.raises(BaselineError, match="empty"):
        tfidf_matrix(corpus, 0, 0)


def hand_built(groups, ids):
    """A corpus over words w0..w5 and tags NN, DT, NNS, JJ whose entity i
    has one snippet per (word, tag) token list of groups[i]."""
    it = iter(ids)
    snippets = [[Snippet(i, next(it), [Token(w, t) for w, t in toks]) for toks in group]
                for i, group in enumerate(groups)]
    return Corpus([f"e{i}" for i in range(len(groups))], snippets,
                  Indexer([f"w{k}" for k in range(6)]), Indexer(["NN", "DT", "NNS", "JJ"]))


@st.composite
def hand_built_corpora(draw):
    token = st.tuples(st.integers(0, 5), st.integers(0, 3))
    groups = draw(st.lists(st.lists(st.lists(token, max_size=6), min_size=1, max_size=5),
                           min_size=1, max_size=4))
    # One token appended to every snippet, so its word is in every one.
    everywhere = draw(st.lists(token, max_size=1))
    groups = [[toks + everywhere for toks in group] for group in groups]
    n = sum(map(len, groups))
    ids = draw(st.lists(st.text("abxy", min_size=1, max_size=3), min_size=n, max_size=n,
                        unique=True))
    return hand_built(groups, ids), draw(st.booleans())


# Entity e0: s0 repeats the noun w0, DT w1 is in every snippet, and s2
# has no noun. Entity e1 is a one-snippet scope, where every weight is 0.
GIVEN = hand_built(
    [[[(0, 0), (0, 0), (5, 0), (1, 1)], [(1, 1), (5, 2)], [(2, 1), (3, 3), (1, 1)]],
     [[(4, 2), (4, 0)]]],
    ["b", "a", "c", "d"],
)


@settings(max_examples=200, deadline=None)
@given(hand_built_corpora())
@example((GIVEN, False))
@example((GIVEN, True))
def test_tfidf_matrix_matches_the_dict_reference_bit_for_bit(case):
    corpus, noun_only = case
    bounds = corpus.snippet_bounds.tolist()
    scopes = list(zip(bounds, bounds[1:])) + [(0, corpus.n_snippets)]
    flat = list(corpus.iter_snippets())
    for start, stop in scopes:
        group = flat[start:stop]
        ids = [sn.snippet_id for sn in group]
        vectors = tfidf_reference.tfidf_vectors(group, corpus, noun_only)
        expected = tfidf_reference.dense(vectors, ids)
        got = tfidf_matrix(corpus, start, stop, noun_only)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


def test_agglomerative_hand_case():
    vectors = {
        "v0": {0: 1.0},
        "v1": {0: 1.0},
        "v2": {1: 1.0},
        "v3": {0: 0.6, 1: 0.8},
    }
    result = agglomerative_cluster(*matrix(vectors), 2, scope="toy")
    groups = result.clusters()
    parts = {frozenset(m) for m in groups.values()}
    # v0 and v1 coincide so they merge first; v3 then joins v2
    # (cos 0.8) rather than the v0 cluster (cos 0.6)
    assert parts == {frozenset({"v0", "v1"}), frozenset({"v2", "v3"})}
    assert result.n_clusters == 2
    assert result.scope == "toy"


def test_agglomerative_tie_break_is_canonical():
    vectors = {sid: {0: 1.0} for sid in ("a", "b", "c", "d")}
    result = agglomerative_cluster(*matrix(vectors), 2)
    parts = {frozenset(m) for m in result.clusters().values()}
    # all similarities tie at 1, so merges follow canonical key order:
    # {a}+{b}, then {a,b}+{c}
    assert parts == {frozenset({"a", "b", "c"}), frozenset({"d"})}
    # dense labels follow canonical order too
    assert result.assignment["a"] == 0
    assert result.assignment["d"] == 1


def test_agglomerative_is_input_order_invariant():
    vectors = {
        "s0": {0: 1.0, 1: 0.2},
        "s1": {0: 0.9, 1: 0.1},
        "s2": {2: 1.0},
        "s3": {2: 0.8, 0: 0.1},
        "s4": {1: 1.0},
    }
    forward = agglomerative_cluster(*matrix(vectors), 2)
    reversed_vecs = dict(reversed(list(vectors.items())))
    backward = agglomerative_cluster(*matrix(reversed_vecs), 2)
    assert forward.assignment == backward.assignment


def test_agglomerative_validation():
    vectors = {"a": {0: 1.0}, "b": {1: 1.0}}
    with pytest.raises(BaselineError, match="out of range"):
        agglomerative_cluster(*matrix(vectors), 3)
    with pytest.raises(BaselineError, match="out of range"):
        agglomerative_cluster(*matrix(vectors), 0)
    with pytest.raises(BaselineError, match="linkage"):
        agglomerative_cluster(*matrix(vectors), 1, linkage="ward")
    ids, rows = matrix(vectors)
    with pytest.raises(BaselineError, match="2 vectors for 1 distinct ids of 2"):
        agglomerative_cluster(["a", "a"], rows, 1)
    with pytest.raises(BaselineError, match="1 vectors for 2 distinct ids of 2"):
        agglomerative_cluster(ids, rows[:1], 1)


def test_agglomerative_single_and_complete_linkage():
    # chain of three: a-b similar, b-c similar, a-c orthogonal
    vectors = {
        "a": {0: 1.0},
        "b": {0: 1.0, 1: 1.0},
        "c": {1: 1.0},
    }
    single = agglomerative_cluster(*matrix(vectors), 1, linkage="single")
    assert single.n_clusters == 1
    complete = agglomerative_cluster(*matrix(vectors), 2, linkage="complete")
    parts = {frozenset(m) for m in complete.clusters().values()}
    # both pairs tie under complete linkage; canonical order merges a+b
    assert parts == {frozenset({"a", "b"}), frozenset({"c"})}


def test_cluster_snippets_per_entity_scopes():
    vocab = Indexer(["x", "y", "z"])
    tags = Indexer(["NN"])
    g0 = [
        Snippet(0, "e0-s0", [Token(0, 0)]),
        Snippet(0, "e0-s1", [Token(0, 0)]),
        Snippet(0, "e0-s2", [Token(1, 0)]),
    ]
    g1 = [Snippet(1, "e1-s0", [Token(2, 0)])]
    corpus = Corpus(["e0", "e1"], [g0, g1], vocab, tags)
    results = cluster_snippets(corpus, 2)
    assert [r.scope for r in results] == ["e0", "e1"]
    assert set(results[0].assignment) == {"e0-s0", "e0-s1", "e0-s2"}
    assert results[0].n_clusters == 2
    # the undersized entity is capped at its snippet count
    assert results[1].n_clusters == 1
    whole = cluster_snippets(corpus, 2, per_entity=False)
    assert len(whole) == 1
    assert whole[0].scope == "corpus"
    assert len(whole[0].assignment) == 4


def seeds_two():
    return SeedLexicon(["positive", "negative"], [{0, 1}, {2}])


def test_seed_sentiment_votes():
    s = Snippet(0, "s", [Token(0, 0), Token(1, 0), Token(2, 0), Token(3, 0)])
    assert seed_sentiment(s, seeds_two()) == 0
    s_neg = Snippet(0, "s", [Token(2, 0), Token(2, 0), Token(0, 0)])
    assert seed_sentiment(s_neg, seeds_two()) == 1


def test_seed_sentiment_split_and_errors():
    tie = Snippet(0, "s", [Token(0, 0), Token(2, 0)])
    assert seed_sentiment(tie, seeds_two()) is None
    no_seeds = Snippet(0, "s", [Token(3, 0)])
    assert seed_sentiment(no_seeds, seeds_two()) is None
    with pytest.raises(BaselineError, match="two value"):
        seed_sentiment(tie, SeedLexicon(["a", "b", "c"], [set(), set(), set()]))


def test_majority_sentiment():
    assert majority_sentiment([0, 0, 1]) == 0
    assert majority_sentiment([1, 1, 0]) == 1
    assert majority_sentiment([0, 1]) == 0          # tie to the lowest index
    assert majority_sentiment([1]) == 1
    with pytest.raises(BaselineError, match="no training labels"):
        majority_sentiment([])


def naive_agglomerative(vectors, target, linkage):
    """Textbook agglomeration over vectors that are empty or one term:
    every pair's linkage recomputed from the pairwise cosines at every
    merge, ties broken by sorted member-id tuples, clusters labelled in
    canonical order."""
    def cos(a, b):
        u, v = vectors[a], vectors[b]
        return 1.0 if u and v and u.keys() == v.keys() else 0.0

    link = {"average": lambda xs: sum(xs) / len(xs), "single": max, "complete": min}[linkage]
    clusters = [(sid,) for sid in vectors]
    while len(clusters) > target:
        best = None
        for i, x in enumerate(clusters):
            for y in clusters[i + 1:]:
                score = link([cos(a, b) for a in x for b in y])
                key = tuple(sorted((x, y)))
                if best is None or score > best[0] or (score == best[0] and key < best[1]):
                    best = (score, key)
        x, y = best[1]
        clusters.remove(x)
        clusters.remove(y)
        clusters.append(tuple(sorted(x + y)))
    return {sid: idx for idx, c in enumerate(sorted(clusters)) for sid in c}


@st.composite
def tied_scopes(draw):
    ids = draw(st.lists(st.text(min_size=1, max_size=3), min_size=1, max_size=9, unique=True))
    weight = st.floats(0.01, 100.0)
    # Empty or one term of three: every cosine is exactly 0 or 1, every
    # linkage an exact ratio of integers, and ties are everywhere.
    term = st.one_of(st.none(), st.integers(0, 2))
    vectors = {}
    for sid in draw(st.permutations(ids)):
        t = draw(term)
        vectors[sid] = {} if t is None else {t: draw(weight)}
    target = draw(st.integers(1, len(ids)))
    linkage = draw(st.sampled_from(["average", "single", "complete"]))
    order = draw(st.permutations(list(vectors)))
    return vectors, target, linkage, order


@settings(max_examples=200, deadline=None)
@given(tied_scopes())
def test_agglomerative_matches_naive_reference_on_ties(scope):
    vectors, target, linkage, order = scope
    result = agglomerative_cluster(*matrix(vectors), target, linkage)
    assert result.assignment == naive_agglomerative(vectors, target, linkage)
    assert result.n_clusters == target
    shuffled = agglomerative_cluster(*matrix({sid: vectors[sid] for sid in order}), target,
                                     linkage)
    assert shuffled.assignment == result.assignment


def test_agglomerative_refuses_a_scope_above_the_cell_ceiling():
    n = math.isqrt(MAX_CELLS) + 1
    vocab, tags = Indexer(["x"]), Indexer(["NN"])
    group = [Snippet(0, f"s{i}", [Token(0, 0)]) for i in range(n)]
    corpus = Corpus(["e0"], [group], vocab, tags)
    message = (f"scope 'corpus' has {n} snippets: its similarity matrix = {n} x {n} = {n * n} "
               "exceeds")
    with pytest.raises(BaselineError, match=message):
        cluster_snippets(corpus, 2, per_entity=False)



def test_tfidf_matrix_refuses_a_scope_above_the_cell_ceiling(monkeypatch):
    _, corpus = toy_scope()
    # 4 x 4 similarity cells fit; 4 snippets x 5 words do not
    monkeypatch.setattr(model, "MAX_CELLS", 19)
    with pytest.raises(BaselineError, match="its TF-IDF matrix = 4 x 5 = 20 exceeds"):
        cluster_snippets(corpus, 2)
    assert cluster_snippets(corpus, 2, noun_only=True)[0].n_clusters == 2  # 4 x 3 fits

# sha256 of clusters.tsv from `snipagg baseline --clusters 5` on the README
# Quick start corpus (50 x 40 snippets, seed 1) at entity scope, and on a
# 5 x 40 corpus of the same settings at corpus scope and, with its snippet
# ids renamed to sort in reverse corpus order, at entity scope. generate
# writes ids in sorted corpus order, so only the renamed corpus shows a
# clustering that lost its sort by id.
PINNED_BASELINES = {
    ("quick-start", "cluster-all", "average", "entity"):
        "d71411f7bc7cc8afc90f6c09a1c894b8e07ae75753268b047be242d19d51dc45",
    ("quick-start", "cluster-all", "single", "entity"):
        "adaca5c76527207a1ea4e401b01b38fa9707fff5b9f6b919e2310a80bbf79978",
    ("quick-start", "cluster-all", "complete", "entity"):
        "307e6991c1eea18a4f3be8ad56fb6b6ea977110663bacd7166068dee8ac434bf",
    ("quick-start", "cluster-noun", "complete", "entity"):
        "7e5a564542af69e50c3464014655abd37a184b909bf6e480b40f7724d885a521",
    ("small", "cluster-all", "average", "corpus"):
        "5c875aa1f519e26503cfa1a49c7ea1658a549d2b1014bf2d1916d8a90e33b80e",
    ("unsorted", "cluster-all", "average", "entity"):
        "3101cab58c3eb19a48db02d68b2e38fbe3597b1e57d597b6622b8228939704ad",
}


@pytest.fixture(scope="module")
def pinned_corpora(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpora")
    paths = {}
    for name, entities in (("quick-start", "50"), ("small", "5")):
        out = str(root / name)
        assert main([
            "-q", "generate", "--out", out, "--entities", entities, "--snippets", "40",
            "--vocab-size", "600", "--seed-words-per-value", "10", "--separation", "1.0",
            "--seed", "1", "--set", "K=5", "--set", "N=2",
        ]) == 0
        paths[name] = os.path.join(out, "corpus.jsonl")
    paths["unsorted"] = str(root / "unsorted.jsonl")
    with open(paths["small"], encoding="utf-8") as src, \
            open(paths["unsorted"], "w", encoding="utf-8") as dst:
        for j, line in enumerate(src):  # snippet j becomes <entity>-r<99999 - j>
            record = json.loads(line)
            record["id"] = f"{record['entity']}-r{99999 - j:05d}"
            dst.write(json.dumps(record) + "\n")
    return paths


@pytest.mark.parametrize("case", list(PINNED_BASELINES), ids="-".join)
def test_baseline_clusters_are_pinned(pinned_corpora, tmp_path, case):
    corpus, variant, linkage, scope = case
    assert main([
        "-q", "baseline", "--corpus", pinned_corpora[corpus], "--variant", variant,
        "--linkage", linkage, "--scope", scope, "--clusters", "5", "--out", str(tmp_path),
    ]) == 0
    digest = hashlib.sha256((tmp_path / "clusters.tsv").read_bytes()).hexdigest()
    assert digest == PINNED_BASELINES[case]
