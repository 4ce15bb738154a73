"""Corpus file formats: loading, validation, and round trips."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snipagg import baselines, evaluation, generator, inference
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
from snipagg.model import Hyperparameters


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


RECORD = json.dumps(small_records()[0]) + "\n"
LABELS = '{"id": "s1", "labels": ["V", "A"]}\n'


@pytest.mark.parametrize("reader, text, line, fragment", [
    ("corpus", RECORD + "[1, 2]\n", 2, "record is not an object"),
    ("word_labels", LABELS + '{"id": "s1", "labels": [\n', 2, "invalid JSON"),
    ("word_labels", LABELS + '{"labels": ["V", "A"]}\n', 2, "need string id and label list"),
    ("word_labels", LABELS + '{"id": "s1"}\n', 2, "need string id and label list"),
    ("word_labels", LABELS + '{"id": "nope", "labels": ["V"]}\n', 2, "unknown snippet id 'nope'"),
    ("word_labels", LABELS + '{"id": "s1", "labels": ["V", "X"]}\n', 2, "unknown label(s) ['X']"),
    ("word_labels", LABELS + LABELS, 2, "duplicate snippet id 's1'"),
    ("parse_spans", "s2\t0\t2\tNP\nnope\t0\t1\tNP\n", 2, "unknown snippet id 'nope'"),
    ("parse_spans", "s2\t0\t2\tNP\ns1\t0\tend\tNP\n", 2, "start and end must be integers"),
    ("parse_spans", "s2\t0\t2\tNP\ns1\t0.5\t2\tNP\n", 2, "start and end must be integers"),
    ("polarity", "cafe\ts1\tpositive\nbar\ts3\tneutral\n", 2, "unknown value label 'neutral'"),
    ("polarity", "cafe\ts1\tpositive\nbar\ts3\t7\n", 2, "value index 7 out of range"),
    ("polarity", "cafe\ts1\tpositive\ncafe\ts1\tnegative\n", 2, "duplicate snippet id 's1'"),
    ("clusters", "cafe\ts1\tfood\ncafe\tnope\tfood\n", 2, "unknown snippet id 'nope'"),
    ("clusters", "cafe\ts1\tfood\nbar\ts2\tfood\n", 2,
     "snippet 's2' belongs to 'cafe', not 'bar'"),
    ("clusters", "cafe\ts1\tfood\ncafe\ts1\tservice\n", 2, "duplicate snippet id 's1'"),
    ("seeds", "[value:positive]\n[positive]\n", 2, "section header must be [value:<name>]"),
    ("seeds", "[value:positive]\n[value: ]\n", 2, "empty value name"),
    ("seeds", "great\n", 1, "seed word before any [value:...] header"),
    # A warning, not an error: the re-entered section lists a negative seed.
    ("seeds", "[value:positive]\ngreat\n[value:negative]\nsoggy\n[value:positive]\nsoggy\n",
     6, "1 word(s) listed under multiple value types"),
])
def test_reader_messages_name_the_file_and_line(
    tmp_path, corpus, caplog, reader, text, line, fragment
):
    path = tmp_path / "input"
    path.write_text(text)
    read = {
        "corpus": lambda: load_corpus(str(path)),
        "word_labels": lambda: load_gold(corpus, word_labels_path=str(path)),
        "parse_spans": lambda: load_gold(corpus, parse_spans_path=str(path)),
        "polarity": lambda: load_gold(corpus, polarity_path=str(path)),
        "clusters": lambda: load_gold(corpus, clusters_path=str(path)),
        "seeds": lambda: load_seed_lexicon(str(path), corpus),
    }[reader]
    try:
        read()
        message = caplog.text
    except CorpusError as exc:
        message = str(exc)
    assert f"{path}:{line}: " in message
    assert fragment in message


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
        ("cafe\ts1\tpositive\ncafe\ts1\tsplit\n", r"p\.tsv:2: duplicate snippet id 's1'"),
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


# --- the packed loader --------------------------------------------------

GOOD_LINE = '{"entity": "e0", "id": "s1", "tokens": [["Great", "JJ"]]}'


@pytest.mark.parametrize("bad, message", [
    ('{"entity": "x", "id": "s9", "tokens": [[',
     "invalid JSON: Expecting value: line 1 column 41 (char 40)"),
    ("[1, 2]", "record is not an object"),
    ('{"entity": "x", "tokens": [["a", "T"]]}', "missing field(s) ['id']"),
    ('{"tokens": [["a", "T"]]}', "missing field(s) ['entity', 'id']"),
    ("{}", "missing field(s) ['entity', 'id', 'tokens']"),
    ('{"entity": 7, "id": "s9", "tokens": [["a", "T"]]}', "entity and id must be strings"),
    ('{"entity": "x", "id": 9, "tokens": [["a", "T"]]}', "entity and id must be strings"),
    ('{"entity": "x", "id": "s1", "tokens": [["a", "T"]]}', "duplicate snippet id 's1'"),
    ('{"entity": "x", "id": "s9", "tokens": []}', "snippet has no tokens"),
    ('{"entity": "x", "id": "s9", "tokens": "ab"}', "snippet has no tokens"),
    ('{"entity": "x", "id": "s9", "tokens": [["a", "T"], ["a"]]}',
     "token must be a [word, tag] string pair"),
    ('{"entity": "x", "id": "s9", "tokens": [["a", "T", "x"]]}',
     "token must be a [word, tag] string pair"),
    ('{"entity": "x", "id": "s9", "tokens": ["ab"]}', "token must be a [word, tag] string pair"),
    ('{"entity": "x", "id": "s9", "tokens": [["a", 1]]}',
     "token must be a [word, tag] string pair"),
    # Several faults on one line: the checks run in the order above.
    ('{"entity": 1, "id": "s1", "tokens": []}', "entity and id must be strings"),
    ('{"entity": "x", "id": "s1", "tokens": [[1, 2]]}', "duplicate snippet id 's1'"),
])
def test_load_corpus_message_for_each_malformed_record(tmp_path, bad, message):
    # Blank lines count toward the line number, and the first bad line
    # wins over a later one.
    path = tmp_path / "c.jsonl"
    path.write_text(GOOD_LINE + "\n\n   \n" + bad + "\n" + '{"entity": "e0", "id": "s1"}\n')
    with pytest.raises(CorpusError) as err:
        load_corpus(str(path))
    assert str(err.value) == f"{path}:4: {message}"


def reference_corpus(records):
    """The corpus of the records built through Snippet and Token, one
    token at a time, as load_corpus did before it packed."""
    entities, vocabulary, tag_set = Indexer(), Indexer(), Indexer()
    groups = []
    for rec in records:
        tokens = [Token(vocabulary.add(w.lower()), tag_set.add(t)) for w, t in rec["tokens"]]
        i = entities.add(rec["entity"])
        if i == len(groups):
            groups.append([])
        groups[i].append(Snippet(i, rec["id"], tokens))
    return Corpus(list(entities.items), groups, vocabulary, tag_set)


# Quotes, backslashes and control characters take JSON escapes on write.
WORD = st.text(alphabet="aAbBzZéÉßçÇøØΣσΩω日本\"\\\x07\u2028", min_size=1, max_size=4)
TOKEN = st.tuples(WORD, st.sampled_from(["NN", "JJ", "VB", "DT", "nn", "ÄDJ"]))
RECORD = st.tuples(
    st.sampled_from(["e0", "e1", "E1", "ë2", 'e"\\3']),
    st.one_of(st.lists(TOKEN, min_size=1, max_size=3), st.lists(TOKEN, min_size=20, max_size=40)),
    st.sampled_from(["", "\n", "  \n"]),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(RECORD, max_size=12))
def test_load_corpus_matches_the_token_path(tmp_path_factory, rows):
    records = [{"entity": e, "id": f"s{k}", "tokens": [list(t) for t in toks]}
               for k, (e, toks, _) in enumerate(rows)]
    path = tmp_path_factory.mktemp("c") / "c.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for rec, (_, _, blank) in zip(records, rows):
            # Non-ASCII text written both verbatim and as \u escapes.
            fh.write(blank + json.dumps(rec, ensure_ascii=bool(len(rec["id"]) % 2)) + "\n")
    got, want = load_corpus(str(path)), reference_corpus(records)
    assert got.entities == want.entities
    assert got.vocabulary.items == want.vocabulary.items
    assert got.tag_set.items == want.tag_set.items
    assert [[sn.snippet_id for sn in g] for g in got.snippets] == \
        [[sn.snippet_id for sn in g] for g in want.snippets]
    assert [sn.tokens for sn in got.iter_snippets()] == [sn.tokens for sn in want.iter_snippets()]
    assert all(sn.entity == i for i, g in enumerate(got.snippets) for sn in g)
    for name in ("words", "tags", "offsets", "snippet_bounds"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    assert got.token_counts() == want.token_counts()

    # A file already in save_corpus's form, lowercase words and snippets
    # grouped by entity, is written back byte for byte.
    lower = [dict(rec, tokens=[[w.lower(), t] for w, t in rec["tokens"]]) for rec in records]
    order = {e: k for k, e in enumerate(dict.fromkeys(rec["entity"] for rec in lower))}
    lower.sort(key=lambda rec: order[rec["entity"]])
    canon, out = path.with_name("canon.jsonl"), path.with_name("out.jsonl")
    canon.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in lower),
                     encoding="utf-8")
    save_corpus(load_corpus(str(canon)), str(out))
    assert out.read_bytes() == canon.read_bytes()


def test_corpus_is_immutable(corpus):
    sn = corpus.snippets[0][0]
    with pytest.raises(ValueError):
        corpus.words[0] = 1
    with pytest.raises(ValueError):
        sn.tags[0] = 1
    with pytest.raises(TypeError):
        sn.tokens[0] = Token(0, 0)
    built = Corpus(["e"], [[Snippet(0, "s", [Token(0, 0), Token(1, 0)])]],
                   Indexer(["a", "b"]), Indexer(["T"]))
    with pytest.raises(ValueError):
        built.snippets[0][0].words[0] = 1
    assert built.words.tolist() == [0, 1] and built.offsets.tolist() == [0, 2]


@st.composite
def packed_input(draw):
    """0-5 entities and snippets of 1-6 tokens in any entity order, with
    distinct ids: (entity count, [(entity, [(word, tag), ...])], ids)."""
    n = draw(st.integers(0, 5))
    token = st.tuples(st.integers(0, 6), st.integers(0, 3))
    rows = draw(st.lists(st.tuples(st.integers(0, max(n - 1, 0)),
                                   st.lists(token, min_size=1, max_size=6)),
                         max_size=20 if n else 0))
    ids = draw(st.lists(st.text(max_size=3), min_size=len(rows), max_size=len(rows), unique=True))
    return n, rows, ids


@settings(max_examples=80, deadline=None)
@given(packed_input())
def test_from_arrays_gives_the_corpus_the_constructor_packs(case):
    n, rows, ids = case
    entities, vocabulary, tag_set = [f"e{i}" for i in range(n)], Indexer("abcdefg"), Indexer("WXYZ")
    packed = Corpus.from_arrays(
        entities, vocabulary, tag_set, [e for e, _ in rows], ids, [len(t) for _, t in rows],
        [w for _, t in rows for w, _ in t], [g for _, t in rows for _, g in t],
    )
    groups = [[] for _ in range(n)]
    for (e, toks), sid in zip(rows, ids):
        groups[e].append(Snippet(e, sid, [Token(w, g) for w, g in toks]))
    built = Corpus(entities, groups, vocabulary, tag_set)
    for name in ("words", "tags", "offsets", "snippet_bounds"):
        got, want = getattr(packed, name), getattr(built, name)
        assert got.dtype == want.dtype == np.int64 and np.array_equal(got, want), name
        assert not got.flags.writeable
    assert packed.snippet_ids == built.snippet_ids
    assert packed.snippet_entities() == built.snippet_entities()
    # The packed corpus's snippets are built on first use, once.
    assert packed.snippets is packed.snippets
    assert [[(sn.snippet_id, sn.entity, sn.tokens) for sn in g] for g in packed.snippets] == \
        [[(sn.snippet_id, sn.entity, sn.tokens) for sn in g] for g in built.snippets]
    for sn in packed.iter_snippets():
        assert not sn.words.flags.writeable and not sn.tags.flags.writeable


def test_loading_sampling_and_scoring_build_no_snippet(tmp_path, monkeypatch):
    def built(*args):
        raise AssertionError("a Snippet was built")

    monkeypatch.setattr(Snippet, "_set", built)
    hp = Hyperparameters(K=3, N=2, rng_seed=0, max_iters=2)
    shape = generator.CorpusShape(4, 6, vocab_size=60, seed_words_per_value=2)
    syn = generator.make_separable(hp, shape, 1.0, 0)
    assert generator.aspect_vocabularies_disjoint(syn)
    paths = {n: str(tmp_path / n) for n in ("c.jsonl", "g.tsv", "p.tsv", "w.jsonl", "s.tsv")}
    save_corpus(syn.corpus, paths["c.jsonl"])
    save_cluster_tsv(syn.corpus, syn.gold.clusters, paths["g.tsv"])
    save_polarity_tsv(syn.corpus, syn.gold.polarity, ["positive", "negative"], paths["p.tsv"])
    save_word_labels_jsonl(syn.corpus, syn.gold.word_labels, paths["w.jsonl"])
    corpus = load_corpus(paths["c.jsonl"])
    sid = corpus.snippet_ids[-1]
    (tmp_path / "s.tsv").write_text(f"{sid}\t0\t1\tNP\n")
    gold = load_gold(corpus, paths["g.tsv"], paths["p.tsv"], paths["w.jsonl"], paths["s.tsv"])
    assert gold.clusters == syn.gold.clusters and gold.parse_spans == {sid: [(0, 1, "NP")]}
    assert load_polarity_predictions(corpus, paths["p.tsv"], ["positive", "negative"]) == \
        syn.gold.polarity
    state, _ = inference.run_inference(hp, corpus, None, threads=1)
    post = inference.extract_posteriors(state)
    clusterings = inference.aspect_clusterings(corpus, post)
    assert sum(len(c.assignment) for c in clusterings) == corpus.n_snippets
    assert list(inference.polarity_predictions(corpus, post)) == corpus.snippet_ids
    assert list(inference.word_label_predictions(corpus, post)) == corpus.snippet_ids
    gold_clustering = evaluation.gold_clustering(gold.clusters, corpus)
    evaluation.muc_score(gold_clustering, evaluation.combine_clusterings(clusterings))
    assert len(baselines.cluster_snippets(corpus, 2)) == corpus.n_entities
    assert syn.corpus._snippets is None and corpus._snippets is None
