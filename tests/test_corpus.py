"""Corpus file formats: loading, validation, and round trips."""

import json

import pytest

from snipagg.corpus import (
    Corpus,
    CorpusError,
    GoldAnnotations,
    Indexer,
    Snippet,
    Token,
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


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def small_records():
    return [
        {"entity": "cafe", "id": "s1",
         "tokens": [["Great", "JJ"], ["pizza", "NN"]]},
        {"entity": "cafe", "id": "s2",
         "tokens": [["the", "DT"], ["crust", "NN"], ["was", "VBD"], ["soggy", "JJ"]]},
        {"entity": "bar", "id": "s3",
         "tokens": [["cheap", "JJ"], ["beer", "NN"]]},
    ]


def test_load_corpus_basic(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, small_records())
    corpus = load_corpus(str(path))
    assert corpus.n_entities == 2
    assert corpus.n_snippets == 3
    assert corpus.n_tokens == 8
    assert corpus.entities == ["cafe", "bar"]
    # words are lowercased; vocabulary is first-appearance ordered
    assert corpus.vocabulary[0] == "great"
    assert "pizza" in corpus.vocabulary
    assert "Great" not in corpus.vocabulary
    sn = corpus.snippet_by_id()["s2"]
    assert corpus.words_of(sn) == ["the", "crust", "was", "soggy"]
    assert corpus.tag_set[sn.tokens[0].tag] == "DT"


def test_load_corpus_groups_by_entity_order(tmp_path):
    recs = small_records()
    recs.append({"entity": "cafe", "id": "s4", "tokens": [["ok", "JJ"]]})
    path = tmp_path / "c.jsonl"
    write_jsonl(path, recs)
    corpus = load_corpus(str(path))
    # snippets regroup under their entity even when lines interleave
    assert [sn.snippet_id for sn in corpus.snippets[0]] == ["s1", "s2", "s4"]
    assert [sn.snippet_id for sn in corpus.snippets[1]] == ["s3"]
    assert [sn.snippet_id for sn in corpus.iter_snippets()] == ["s1", "s2", "s4", "s3"]


@pytest.mark.parametrize(
    "record, fragment",
    [
        ({"entity": "x", "tokens": [["a", "T"]]}, "id"),
        ({"id": "s9", "tokens": [["a", "T"]]}, "entity"),
        ({"entity": "x", "id": "s9"}, "tokens"),
        ({"entity": "x", "id": "s9", "tokens": []}, "no tokens"),
        ({"entity": "x", "id": "s9", "tokens": [["a"]]}, "token"),
        ({"entity": "x", "id": "s9", "tokens": [["a", "T", "extra"]]}, "token"),
        ({"entity": 7, "id": "s9", "tokens": [["a", "T"]]}, "entity"),
        ({"entity": "x", "id": 9, "tokens": [["a", "T"]]}, "id"),
    ],
)
def test_load_corpus_rejects_malformed(tmp_path, record, fragment):
    path = tmp_path / "bad.jsonl"
    write_jsonl(path, small_records() + [record])
    with pytest.raises(CorpusError) as err:
        load_corpus(str(path))
    assert ":4" in str(err.value)
    assert fragment in str(err.value).lower()


def test_load_corpus_rejects_duplicate_id(tmp_path):
    recs = small_records()
    recs.append(dict(recs[0]))
    path = tmp_path / "dup.jsonl"
    write_jsonl(path, recs)
    with pytest.raises(CorpusError, match="duplicate"):
        load_corpus(str(path))


def test_load_corpus_rejects_bad_json(tmp_path):
    path = tmp_path / "nojson.jsonl"
    path.write_text('{"entity": "x", "id": "s1", "tokens": [[\n')
    with pytest.raises(CorpusError, match=":1"):
        load_corpus(str(path))


def test_corpus_round_trip(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, small_records())
    first = load_corpus(str(path))
    out = tmp_path / "c2.jsonl"
    save_corpus(first, str(out))
    second = load_corpus(str(out))
    assert second.entities == first.entities
    assert second.vocabulary.items == first.vocabulary.items
    for a, b in zip(first.iter_snippets(), second.iter_snippets()):
        assert a.snippet_id == b.snippet_id
        assert a.tokens == b.tokens
    # and the rewrite is byte-stable
    out2 = tmp_path / "c3.jsonl"
    save_corpus(second, str(out2))
    assert out.read_bytes() == out2.read_bytes()


def test_indexer_first_appearance_order():
    ix = Indexer()
    assert ix.add("b") == 0
    assert ix.add("a") == 1
    assert ix.add("b") == 0
    assert len(ix) == 2
    assert ix[1] == "a"
    assert "a" in ix and "z" not in ix
    assert ix.get("z") is None


@pytest.fixture
def corpus(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, small_records())
    return load_corpus(str(path))


def test_seed_lexicon_load(tmp_path, corpus):
    path = tmp_path / "seeds.txt"
    path.write_text(
        "[value:positive]\ngreat\ncheap\n\n[value:negative]\nsoggy\nmissingword\n"
    )
    lex = load_seed_lexicon(str(path), corpus)
    assert lex.value_names == ["positive", "negative"]
    assert lex.seed_words[0] == {corpus.vocabulary.index("great"),
                                 corpus.vocabulary.index("cheap")}
    assert lex.seed_words[1] == {corpus.vocabulary.index("soggy")}
    assert lex.dropped == 1
    assert lex.total_seeds() == 3


def test_seed_lexicon_value_name_mismatch(tmp_path, corpus):
    path = tmp_path / "seeds.txt"
    path.write_text("[value:spicy]\ngreat\n")
    with pytest.raises(CorpusError, match="spicy"):
        load_seed_lexicon(str(path), corpus, value_names=["positive", "negative"])


def test_seed_lexicon_resolve_value(tmp_path, corpus):
    path = tmp_path / "seeds.txt"
    path.write_text("[value:positive]\ngreat\n[value:negative]\nsoggy\n")
    lex = load_seed_lexicon(str(path), corpus)
    assert lex.resolve_value("positive") == 0
    assert lex.resolve_value("neg") == 1
    assert lex.resolve_value("1") == 1
    with pytest.raises(CorpusError):
        lex.resolve_value("p" * 40)


def test_seed_lexicon_round_trip(tmp_path, corpus):
    path = tmp_path / "seeds.txt"
    path.write_text("[value:positive]\ngreat\ncheap\n[value:negative]\nsoggy\n")
    lex = load_seed_lexicon(str(path), corpus)
    out = tmp_path / "seeds2.txt"
    save_seed_lexicon(lex, corpus, str(out))
    again = load_seed_lexicon(str(out), corpus)
    assert again.value_names == lex.value_names
    assert again.seed_words == lex.seed_words


def test_default_value_names():
    assert default_value_names(2) == ["positive", "negative"]
    assert default_value_names(3) == ["v0", "v1", "v2"]
    assert default_value_names(0) == []


def test_load_gold_clusters_and_polarity(tmp_path, corpus):
    cpath = tmp_path / "clusters.tsv"
    cpath.write_text("cafe\ts1\tfood\ncafe\ts2\tfood\nbar\ts3\tdrinks\n")
    ppath = tmp_path / "polarity.tsv"
    ppath.write_text("cafe\ts1\tpositive\ncafe\ts2\tnegative\nbar\ts3\t0\n")
    gold = load_gold(corpus, clusters_path=str(cpath), polarity_path=str(ppath),
                     value_names=["positive", "negative"])
    assert gold.clusters == {"s1": "food", "s2": "food", "s3": "drinks"}
    assert gold.polarity == {"s1": 0, "s2": 1, "s3": 0}


def test_load_gold_rejects_wrong_entity(tmp_path, corpus):
    cpath = tmp_path / "clusters.tsv"
    cpath.write_text("bar\ts1\tfood\n")
    with pytest.raises(CorpusError, match="s1"):
        load_gold(corpus, clusters_path=str(cpath))


def test_load_gold_rejects_unknown_snippet(tmp_path, corpus):
    cpath = tmp_path / "clusters.tsv"
    cpath.write_text("cafe\tnope\tfood\n")
    with pytest.raises(CorpusError, match="nope"):
        load_gold(corpus, clusters_path=str(cpath))


def test_load_gold_word_labels_and_spans(tmp_path, corpus):
    wpath = tmp_path / "wl.jsonl"
    write_jsonl(wpath, [{"id": "s1", "labels": ["V", "A"]}])
    spath = tmp_path / "spans.tsv"
    spath.write_text("s2\t0\t2\tNP\ns2\t2\t4\tADJP\n")
    gold = load_gold(corpus, word_labels_path=str(wpath), parse_spans_path=str(spath))
    assert gold.word_labels == {"s1": ["V", "A"]}
    assert gold.parse_spans == {"s2": [(0, 2, "NP"), (2, 4, "ADJP")]}


def test_load_gold_rejects_label_length_mismatch(tmp_path, corpus):
    wpath = tmp_path / "wl.jsonl"
    write_jsonl(wpath, [{"id": "s1", "labels": ["V"]}])
    with pytest.raises(CorpusError, match="1 labels for 2 tokens"):
        load_gold(corpus, word_labels_path=str(wpath))


def test_load_gold_rejects_bad_span(tmp_path, corpus):
    spath = tmp_path / "spans.tsv"
    spath.write_text("s1\t0\t3\tNP\n")
    with pytest.raises(CorpusError, match="out of bounds"):
        load_gold(corpus, parse_spans_path=str(spath))
    spath.write_text("s1\t0\t2\tXP\n")
    with pytest.raises(CorpusError, match="XP"):
        load_gold(corpus, parse_spans_path=str(spath))


def test_load_gold_rejects_word_label_record_that_is_not_an_object(tmp_path, corpus):
    wpath = tmp_path / "wl.jsonl"
    wpath.write_text('{"id": "s1", "labels": ["V", "A"]}\n[1, 2]\n')
    with pytest.raises(CorpusError, match=r"wl\.jsonl:2: record is not an object"):
        load_gold(corpus, word_labels_path=str(wpath))


def test_polarity_predictions_skip_comments_and_check_lines(tmp_path, corpus):
    ppath = tmp_path / "p.tsv"
    ppath.write_text("# entity\tid\tlabel\n   \ncafe\ts1\tnegative\n\nbar\ts3\tsplit\n")
    names = ["positive", "negative"]
    assert load_polarity_predictions(corpus, str(ppath), names) == {"s1": 1, "s3": None}
    for text, fragment in (
        ("bar\ts1\tpositive\n", "belongs to 'cafe', not 'bar'"),
        ("cafe\tnope\tpositive\n", "unknown snippet id 'nope'"),
        ("cafe\ts1\tpos\n", "unknown value label 'pos'"),   # no prefix match
        ("cafe\ts1\n", "expected 3 tab-separated columns"),
    ):
        ppath.write_text(text)
        with pytest.raises(CorpusError, match=fragment):
            load_polarity_predictions(corpus, str(ppath), names)


def test_gold_writers_round_trip(tmp_path, corpus):
    gold = GoldAnnotations(
        clusters={"s1": "food", "s2": "food", "s3": "drinks"},
        polarity={"s1": 0, "s3": 1},
        word_labels={"s1": ["V", "A"]},
    )
    cpath, ppath, wpath = (tmp_path / n for n in ("c.tsv", "p.tsv", "w.jsonl"))
    save_cluster_tsv(corpus, gold.clusters, str(cpath))
    save_polarity_tsv(corpus, gold.polarity, ["positive", "negative"], str(ppath))
    save_word_labels_jsonl(corpus, gold.word_labels, str(wpath))
    back = load_gold(corpus, clusters_path=str(cpath), polarity_path=str(ppath),
                     word_labels_path=str(wpath),
                     value_names=["positive", "negative"])
    assert back.clusters == gold.clusters
    assert back.polarity == gold.polarity
    assert back.word_labels == gold.word_labels
    names = ["positive", "negative"]
    assert load_polarity_predictions(corpus, str(ppath), names) == gold.polarity


def test_polarity_writer_spells_split(tmp_path, corpus):
    ppath = tmp_path / "p.tsv"
    preds = {"s1": None, "s2": 1}
    save_polarity_tsv(corpus, preds, ["positive", "negative"], str(ppath))
    lines = ppath.read_text().splitlines()
    assert lines[0].endswith("\tsplit")
    assert lines[1].endswith("\tnegative")
    assert load_polarity_predictions(corpus, str(ppath), ["positive", "negative"]) == preds


def test_corpus_entity_index(corpus):
    assert corpus.entity_index("cafe") == 0
    assert corpus.entity_index("bar") == 1
    with pytest.raises(CorpusError):
        corpus.entity_index("nope")
