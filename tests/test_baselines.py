"""TF-IDF clustering and sentiment baselines."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snipagg.baselines import (
    BaselineError,
    agglomerative_cluster,
    cluster_snippets,
    cosine,
    majority_sentiment,
    seed_sentiment,
    tfidf_vectors,
)
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


def test_tfidf_weights_by_hand():
    snippets, corpus = toy_scope()
    vecs = tfidf_vectors(snippets, corpus)
    # "pizza" occurs twice in s0 and nowhere else: tf * ln(4/1)
    assert vecs["s0"][PIZZA] == pytest.approx(2.772588722239781, abs=1e-15)
    assert vecs["s1"][CRUST] == pytest.approx(math.log(4.0), abs=1e-15)
    # "the" appears in every snippet, so its idf is ln(1) = 0
    for sid in ("s0", "s1", "s2", "s3"):
        assert vecs[sid][THE] == 0.0


def test_tfidf_noun_filter():
    snippets, corpus = toy_scope()
    vecs = tfidf_vectors(snippets, corpus, noun_only=True)
    assert THE not in vecs["s0"]          # DT filtered
    assert PIZZA in vecs["s0"]            # NN kept
    assert CRUST in vecs["s1"]            # NNS kept (NN prefix)
    assert vecs["s2"] == {}               # nothing survives the filter
    # document frequency is recomputed on the filtered tokens
    assert vecs["s0"][PIZZA] == pytest.approx(2.0 * math.log(4.0), abs=1e-15)


def test_tfidf_empty_scope_is_an_error():
    _, corpus = toy_scope()
    with pytest.raises(BaselineError, match="empty"):
        tfidf_vectors([], corpus)


def test_cosine_conventions():
    assert cosine({0: 1.0}, {}) == 0.0
    assert cosine({}, {}) == 0.0
    assert cosine({0: 2.0}, {0: 5.0}) == pytest.approx(1.0, abs=1e-15)
    assert cosine({0: 1.0}, {1: 1.0}) == 0.0
    assert cosine({0: 3.0, 1: 4.0}, {0: 4.0, 1: 3.0}) == pytest.approx(
        24.0 / 25.0, abs=1e-15
    )


def test_agglomerative_hand_case():
    vectors = {
        "v0": {0: 1.0},
        "v1": {0: 1.0},
        "v2": {1: 1.0},
        "v3": {0: 0.6, 1: 0.8},
    }
    result = agglomerative_cluster(vectors, 2, scope="toy")
    groups = result.clusters()
    parts = {frozenset(m) for m in groups.values()}
    # v0 and v1 coincide so they merge first; v3 then joins v2
    # (cos 0.8) rather than the v0 cluster (cos 0.6)
    assert parts == {frozenset({"v0", "v1"}), frozenset({"v2", "v3"})}
    assert result.n_clusters == 2
    assert result.scope == "toy"


def test_agglomerative_tie_break_is_canonical():
    vectors = {sid: {0: 1.0} for sid in ("a", "b", "c", "d")}
    result = agglomerative_cluster(vectors, 2)
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
    forward = agglomerative_cluster(vectors, 2)
    reversed_vecs = dict(reversed(list(vectors.items())))
    backward = agglomerative_cluster(reversed_vecs, 2)
    assert forward.assignment == backward.assignment


def test_agglomerative_validation():
    vectors = {"a": {0: 1.0}, "b": {1: 1.0}}
    with pytest.raises(BaselineError, match="out of range"):
        agglomerative_cluster(vectors, 3)
    with pytest.raises(BaselineError, match="out of range"):
        agglomerative_cluster(vectors, 0)
    with pytest.raises(BaselineError, match="linkage"):
        agglomerative_cluster(vectors, 1, linkage="ward")


def test_agglomerative_single_and_complete_linkage():
    # chain of three: a-b similar, b-c similar, a-c orthogonal
    vectors = {
        "a": {0: 1.0},
        "b": {0: 1.0, 1: 1.0},
        "c": {1: 1.0},
    }
    single = agglomerative_cluster(vectors, 1, linkage="single")
    assert single.n_clusters == 1
    complete = agglomerative_cluster(vectors, 2, linkage="complete")
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
    result = agglomerative_cluster(vectors, target, linkage)
    assert result.assignment == naive_agglomerative(vectors, target, linkage)
    assert result.n_clusters == target
    shuffled = agglomerative_cluster({sid: vectors[sid] for sid in order}, target, linkage)
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
