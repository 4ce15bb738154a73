"""Scoring: MUC links, sentiment accuracy, word PRF, parse expansion."""

import pytest
from hypothesis import given, strategies as st

from snipagg.baselines import Clustering
from snipagg.corpus import Corpus, Indexer, Snippet, Token
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


def partition(*groups):
    assignment = {}
    for c, members in enumerate(groups):
        for m in members:
            assignment[m] = c
    return Clustering("test", assignment)


def test_muc_worked_example():
    gold = partition({"a", "b", "c"}, {"d"})
    response = partition({"a", "b"}, {"c", "d"})
    r = muc_score(gold, response)
    assert r.recall == pytest.approx(0.5)
    assert r.precision == pytest.approx(0.5)
    assert r.f1 == pytest.approx(0.5)


def test_muc_identical_partitions():
    gold = partition({"a", "b"}, {"c"})
    r = muc_score(gold, partition({"a", "b"}, {"c"}))
    assert (r.precision, r.recall, r.f1) == (1.0, 1.0, 1.0)


def test_muc_singleton_response():
    gold = partition({"a", "b", "c", "d"})
    response = partition({"a"}, {"b"}, {"c"}, {"d"})
    r = muc_score(gold, response)
    assert r.recall == 0.0
    assert r.precision == 1.0   # empty link denominator on the response side
    assert r.f1 == 0.0


def test_muc_everything_merged():
    gold = partition({"a"}, {"b"}, {"c"}, {"d"})
    response = partition({"a", "b", "c", "d"})
    r = muc_score(gold, response)
    assert r.recall == 1.0
    assert r.precision == 0.0
    assert r.f1 == 0.0


def test_muc_partial_overmerge():
    gold = partition({"a", "b"}, {"c", "d"})
    response = partition({"a", "b", "c", "d"})
    r = muc_score(gold, response)
    assert r.recall == 1.0
    assert r.precision == pytest.approx(2.0 / 3.0)
    assert r.f1 == pytest.approx(0.8)


def test_muc_universe_mismatch_is_an_error():
    gold = partition({"a", "b"})
    response = partition({"a", "c"})
    with pytest.raises(EvalError, match="different snippets"):
        muc_score(gold, response)


def test_combine_clusterings_namespaces_scopes():
    c0 = Clustering("e0", {"e0-s0": 0, "e0-s1": 0, "e0-s2": 1})
    c1 = Clustering("e1", {"e1-s0": 0})
    combined = combine_clusterings([c0, c1])
    assert combined.n_clusters == 3
    # cluster 0 of e0 and cluster 0 of e1 stay distinct
    assert combined.assignment["e0-s0"] != combined.assignment["e1-s0"]
    assert combined.assignment["e0-s0"] == combined.assignment["e0-s1"]


def test_combine_clusterings_rejects_duplicates():
    c0 = Clustering("e0", {"s0": 0})
    c1 = Clustering("e1", {"s0": 0})
    with pytest.raises(EvalError, match="more than one scope"):
        combine_clusterings([c0, c1])


def two_entity_corpus():
    vocab = Indexer(["w"])
    tags = Indexer(["T"])
    groups = [
        [Snippet(0, "e0-s0", [Token(0, 0)]), Snippet(0, "e0-s1", [Token(0, 0)])],
        [Snippet(1, "e1-s0", [Token(0, 0)])],
    ]
    return Corpus(["e0", "e1"], groups, vocab, tags)


def test_gold_clustering_scopes():
    corpus = two_entity_corpus()
    labels = {"e0-s0": "a0", "e0-s1": "a1", "e1-s0": "a0"}
    per_entity = gold_clustering(labels, corpus)
    # the two a0 snippets live in different entities, so they stay apart
    assert per_entity.assignment["e0-s0"] != per_entity.assignment["e1-s0"]
    assert per_entity.n_clusters == 3
    global_scope = gold_clustering(labels, corpus, scope="corpus")
    assert global_scope.assignment["e0-s0"] == global_scope.assignment["e1-s0"]
    assert global_scope.n_clusters == 2


def test_gold_clustering_errors():
    corpus = two_entity_corpus()
    with pytest.raises(EvalError, match="scope"):
        gold_clustering({"e0-s0": "a0"}, corpus, scope="global")
    with pytest.raises(EvalError, match="matched"):
        gold_clustering({"zzz": "a0"}, corpus)


def test_restrict_clustering():
    c = Clustering("x", {"a": 0, "b": 1, "c": 1, "d": 2})
    r = restrict_clustering(c, ["b", "c", "d"])
    assert set(r.assignment) == {"b", "c", "d"}
    assert r.assignment["b"] == r.assignment["c"]
    assert r.assignment["b"] != r.assignment["d"]
    assert r.n_clusters == 2


def test_sentiment_accuracy_with_splits():
    gold = {"s0": 0, "s1": 0, "s2": 1, "s3": 1}
    preds = {"s0": 0, "s1": 0, "s2": 1, "s3": None}
    assert sentiment_accuracy(preds, gold) == pytest.approx(0.875)
    assert sentiment_accuracy({"s0": 1, "s1": 1, "s2": 0, "s3": 0}, gold) == 0.0
    with pytest.raises(EvalError, match="no prediction"):
        sentiment_accuracy({"s0": 0}, gold)
    with pytest.raises(EvalError, match="no gold"):
        sentiment_accuracy({}, {})


def test_word_prf_mixed_case():
    gold = {"s0": ["A", "V", "B", "B"], "s1": ["A", "B"]}
    pred = {"s0": ["A", "B", "V", "B"], "s1": ["B", "B"]}
    r = word_label_prf(pred, gold)
    # aspect: tp=1 (s0 pos0), fp=0, fn=1 (s1 pos0)
    assert r.aspect.precision == 1.0
    assert r.aspect.recall == pytest.approx(0.5)
    assert r.aspect.f1 == pytest.approx(2 / 3)
    # value: tp=0, fp=1 (s0 pos2), fn=1 (s0 pos1)
    assert r.value.precision == 0.0
    assert r.value.recall == 0.0
    assert r.value.f1 == 0.0


def test_word_prf_empty_denominator_convention():
    gold = {"s0": ["B", "B"]}
    pred = {"s0": ["B", "B"]}
    r = word_label_prf(pred, gold)
    assert r.aspect == r.value
    assert r.aspect.precision == 1.0
    assert r.aspect.recall == 1.0
    assert r.aspect.f1 == 1.0


def test_word_prf_errors():
    with pytest.raises(EvalError, match="no word labels"):
        word_label_prf({}, {"s0": ["A"]})
    with pytest.raises(EvalError, match="length mismatch"):
        word_label_prf({"s0": ["A", "B"]}, {"s0": ["A"]})


# --- parse-tree expansion ----------------------------------------------------

def test_tree_expand_grows_aspect_over_noun_phrase():
    out = tree_expand(["B", "A", "B"], [(0, 3, "NP")], ["NN", "NN", "NN"])
    assert out == ["A", "A", "A"]


def test_tree_expand_value_uses_modifier_phrases():
    assert tree_expand(["B", "V"], [(0, 2, "ADJP")], ["RB", "JJ"]) == ["V", "V"]
    assert tree_expand(["V", "B"], [(0, 2, "ADVP")], ["RB", "RB"]) == ["V", "V"]
    # aspects only expand over noun phrases
    assert tree_expand(["B", "A"], [(0, 2, "ADJP")], ["RB", "NN"]) == ["B", "A"]


def test_tree_expand_blocked_by_opposite_label():
    out = tree_expand(["A", "B", "V"], [(0, 3, "NP")], ["NN", "NN", "JJ"])
    assert out == ["A", "B", "V"]


def test_tree_expand_prefers_largest_phrase():
    out = tree_expand(
        ["B", "A", "B", "B"],
        [(1, 2, "NP"), (0, 4, "NP")],
        ["NN", "NN", "NN", "NN"],
    )
    assert out == ["A", "A", "A", "A"]


def test_tree_expand_equal_spans_tie_to_earlier_start():
    out = tree_expand(
        ["B", "A", "B"],
        [(0, 2, "NP"), (1, 3, "NP")],
        ["NN", "NN", "NN"],
    )
    assert out == ["A", "A", "B"]


def test_tree_expand_skips_function_words():
    out = tree_expand(
        ["B", "A", "B", "B"],
        [(0, 4, "NP")],
        ["DT", "NN", "CC", ","],
    )
    assert out == ["B", "A", "B", "B"]


def test_tree_expand_never_rewrites_labeled_words():
    out = tree_expand(["I", "A", "B"], [(0, 3, "NP")], ["NN", "NN", "NN"])
    assert out == ["I", "A", "A"]


def test_tree_expand_cascades_to_fixpoint():
    # sweep 1 only reaches the trailing anchor, which pulls tokens 2 and
    # 3 into the aspect; the new anchor at token 2 sits before the point
    # the sweep already passed, so a second sweep is needed to fill 0, 1
    out = tree_expand(
        ["B", "B", "B", "B", "A"],
        [(0, 3, "NP"), (2, 5, "NP")],
        ["NN"] * 5,
    )
    assert out == ["A"] * 5


def test_tree_expand_errors():
    with pytest.raises(EvalError, match="labels for"):
        tree_expand(["A"], [], ["NN", "NN"])
    with pytest.raises(EvalError, match="out of bounds"):
        tree_expand(["A", "B"], [(0, 3, "NP")], ["NN", "NN"])
    with pytest.raises(EvalError, match="span kind"):
        tree_expand(["A", "B"], [(0, 2, "XP")], ["NN", "NN"])


@given(
    data=st.data(),
    n=st.integers(min_value=1, max_value=8),
)
def test_tree_expand_is_idempotent(data, n):
    labels = data.draw(
        st.lists(st.sampled_from(["A", "V", "B", "I"]), min_size=n, max_size=n)
    )
    tags = data.draw(
        st.lists(st.sampled_from(["NN", "JJ", "DT", "RB", ","]), min_size=n, max_size=n)
    )
    n_spans = data.draw(st.integers(min_value=0, max_value=4))
    spans = []
    for _ in range(n_spans):
        start = data.draw(st.integers(min_value=0, max_value=n - 1))
        end = data.draw(st.integers(min_value=start + 1, max_value=n))
        kind = data.draw(st.sampled_from(["NP", "ADJP", "ADVP"]))
        spans.append((start, end, kind))
    once = tree_expand(labels, spans, tags)
    twice = tree_expand(once, spans, tags)
    assert twice == once
