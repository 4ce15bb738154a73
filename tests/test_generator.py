"""Synthetic corpus sampling and the separable benchmark variant."""

import base64
import hashlib
import json
import math
import re
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
import sampler_reference
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from snipagg import generator
from snipagg.cli import main
from snipagg.corpus import save_corpus
from snipagg.generator import (
    CHUNK_CELLS,
    CorpusShape,
    GeneratorError,
    _draw_multinomial,
    _draw_rows,
    _edges,
    _pick,
    _pick_aspect_words,
    _pick_chains,
    _pick_grouped,
    aspect_vocabularies_disjoint,
    load_true_params,
    make_separable,
    sample_corpus,
    save_true_params,
    theta_a_rows,
)
from snipagg.model import Hyperparameters, ModelError


def small_shape(**kw):
    base = dict(n_entities=3, snippets_per_entity=5, vocab_size=60)
    base.update(kw)
    return CorpusShape(**base)


def test_sampling_is_deterministic():
    hp = Hyperparameters(K=3, N=2, rng_seed=0)
    a = sample_corpus(hp, small_shape(), rng_seed=7)
    b = sample_corpus(hp, small_shape(), rng_seed=7)
    assert a.corpus.entities == b.corpus.entities
    for ga, gb in zip(a.corpus.snippets, b.corpus.snippets):
        assert ga == gb
    assert a.gold.clusters == b.gold.clusters
    c = sample_corpus(hp, small_shape(), rng_seed=8)
    assert any(ga != gb for ga, gb in zip(a.corpus.snippets, c.corpus.snippets))


def test_zero_separation_matches_plain_sampler():
    hp = Hyperparameters(K=3, N=2, rng_seed=0)
    plain = sample_corpus(hp, small_shape(), rng_seed=11)
    sep0 = make_separable(hp, small_shape(), separation=0.0, rng_seed=11)
    for ga, gb in zip(plain.corpus.snippets, sep0.corpus.snippets):
        assert ga == gb
    assert plain.gold.polarity == sep0.gold.polarity
    np.testing.assert_array_equal(
        plain.true_parameters["theta_B"], sep0.true_parameters["theta_B"]
    )
    for pa, pb in zip(plain.true_parameters["theta_A"],
                      sep0.true_parameters["theta_A"]):
        np.testing.assert_array_equal(pa, pb)


def test_full_separation_gives_disjoint_aspect_vocabularies():
    hp = Hyperparameters(K=4, N=2, rng_seed=0)
    syn = make_separable(hp, small_shape(n_entities=6, snippets_per_entity=10),
                         separation=1.0, rng_seed=3)
    assert aspect_vocabularies_disjoint(syn)
    blocks = [list(b) for b in syn.true_parameters["aspect_blocks"]]
    assert len(blocks) == 4
    flat = [w for b in blocks for w in b]
    assert len(set(flat)) == len(flat)
    # the support of each true aspect distribution stays inside its block
    for scope in range(6):
        theta = theta_a_rows(syn.true_parameters, scope)
        for a in range(4):
            support = np.nonzero(theta[a])[0]
            assert set(support.tolist()) <= set(blocks[a])


def test_partial_separation_concentrates_but_leaks():
    # at separation s the out-of-block prior is scaled by (1 - s), so the
    # expected in-block mass for a 100-word block in a 300-word vocab at
    # s = 0.9 is 7.5 / (7.5 + 1.5) = 5/6; the average over entities and
    # aspects should sit near that, and some mass must still leak outside
    hp = Hyperparameters(K=3, N=0, rng_seed=0)
    shape = small_shape(vocab_size=300)
    syn = make_separable(hp, shape, separation=0.9, rng_seed=2)
    blocks = syn.true_parameters["aspect_blocks"]
    shares = []
    leaked = False
    for scope in range(3):
        theta = theta_a_rows(syn.true_parameters, scope)
        for a in range(3):
            inside = theta[a][list(blocks[a])].sum()
            shares.append(inside)
            if inside < 1.0:
                leaked = True
    mean_share = float(np.mean(shares))
    assert 0.65 < mean_share < 0.98
    assert leaked


def test_gold_matches_tokens():
    hp = Hyperparameters(K=3, N=2, rng_seed=0)
    syn = sample_corpus(hp, small_shape(), rng_seed=5)
    corpus = syn.corpus
    ids = [s.snippet_id for group in corpus.snippets for s in group]
    assert set(syn.gold.clusters) == set(ids)
    assert set(syn.gold.polarity) == set(ids)
    assert set(syn.gold.word_labels) == set(ids)
    for group in corpus.snippets:
        for snippet in group:
            labels = syn.gold.word_labels[snippet.snippet_id]
            assert len(labels) == len(snippet.tokens)
            assert set(labels) <= {"A", "V", "B", "I"}
    # every snippet's cluster is one of the aspect names
    assert set(syn.gold.clusters.values()) <= {f"a{k}" for k in range(3)}
    assert set(syn.gold.polarity.values()) <= {0, 1}


def test_poisson_lengths_are_truncated():
    hp = Hyperparameters(K=2, N=2, rng_seed=0)
    shape = small_shape(n_entities=10, snippets_per_entity=40, mean_words=2.0)
    syn = sample_corpus(hp, shape, rng_seed=1)
    lengths = [len(s.tokens) for g in syn.corpus.snippets for s in g]
    assert min(lengths) >= 1
    assert max(lengths) <= 30
    assert any(l == 1 for l in lengths)   # mean 2 hits the floor often


def test_chain_length_mode_runs_to_completion():
    hp = Hyperparameters(K=2, N=2, rng_seed=0)
    shape = small_shape(length_mode="chain", mean_words=4.0)
    syn = sample_corpus(hp, shape, rng_seed=6)
    lengths = [len(s.tokens) for g in syn.corpus.snippets for s in g]
    assert min(lengths) >= 1
    assert max(lengths) <= 200


def test_background_emissions_match_true_distribution():
    # draw a large corpus dominated by background words and chi-square the
    # observed background counts against the sampled true theta_B
    hp = Hyperparameters(K=2, N=0, rng_seed=0)
    shape = CorpusShape(n_entities=4, snippets_per_entity=220,
                        mean_words=12.0, vocab_size=25)
    syn = make_separable(hp, shape, separation=0.0, rng_seed=13,
                         topic_mix=[0.1, 0.8])
    theta_b = np.asarray(syn.true_parameters["theta_B"])
    counts = np.zeros(25)
    for group in syn.corpus.snippets:
        for snippet in group:
            labels = syn.gold.word_labels[snippet.snippet_id]
            for tok, lab in zip(snippet.tokens, labels):
                if lab == "B":
                    counts[tok.word] += 1
    total = counts.sum()
    assert total > 5000
    expected = theta_b * total
    keep = expected >= 5
    merged_obs = np.append(counts[keep], counts[~keep].sum())
    merged_exp = np.append(expected[keep], expected[~keep].sum())
    if merged_exp[-1] == 0:
        merged_obs, merged_exp = merged_obs[:-1], merged_exp[:-1]
    result = stats.chisquare(merged_obs, merged_exp * merged_obs.sum() / merged_exp.sum())
    assert result.pvalue > 0.001


def test_aspect_frequencies_follow_true_mixture():
    hp = Hyperparameters(K=3, N=0, rng_seed=0)
    shape = CorpusShape(n_entities=1, snippets_per_entity=2000,
                        mean_words=3.0, vocab_size=40)
    syn = sample_corpus(hp, shape, rng_seed=17)
    psi = syn.true_parameters["psi"][0]
    counts = np.zeros(3)
    for sid, cluster in syn.gold.clusters.items():
        counts[int(cluster[1:])] += 1
    n = counts.sum()
    for a in range(3):
        se = np.sqrt(psi[a] * (1 - psi[a]) * n)
        assert abs(counts[a] - psi[a] * n) <= 3 * se + 1


def test_seed_words_reserved_at_front_of_vocab():
    hp = Hyperparameters(K=2, N=2, rng_seed=0)
    shape = small_shape(seed_words_per_value=3)
    syn = sample_corpus(hp, shape, rng_seed=2)
    vocab = syn.true_parameters["vocab"]
    assert vocab[:6] == [
        "positiveseed0", "positiveseed1", "positiveseed2",
        "negativeseed0", "negativeseed1", "negativeseed2",
    ]
    assert syn.seeds is not None
    assert syn.seeds.seed_words[0] == {0, 1, 2}
    assert syn.seeds.seed_words[1] == {3, 4, 5}
    # seed words are boosted in their own polarity's distribution
    theta_v = np.asarray(syn.true_parameters["theta_V"])
    assert theta_v[0, :3].sum() > theta_v[1, :3].sum()
    assert theta_v[1, 3:6].sum() > theta_v[0, 3:6].sum()


def test_seed_lexicon_empty_when_not_requested():
    hp = Hyperparameters(K=2, N=2, rng_seed=0)
    syn = sample_corpus(hp, small_shape(), rng_seed=2)
    assert syn.seeds.value_names == ["positive", "negative"]
    assert syn.seeds.total_seeds() == 0


def test_topic_mix_override_controls_role_frequencies():
    hp = Hyperparameters(K=2, N=0, rng_seed=0)
    shape = small_shape(n_entities=5, snippets_per_entity=60, mean_words=8.0)
    heavy_a = make_separable(hp, shape, separation=0.0, rng_seed=4,
                             topic_mix=[0.9, 0.1])
    heavy_b = make_separable(hp, shape, separation=0.0, rng_seed=4,
                             topic_mix=[0.1, 0.9])

    def share(syn, letter):
        total = hits = 0
        for labels in syn.gold.word_labels.values():
            total += len(labels)
            hits += sum(1 for l in labels if l == letter)
        return hits / total

    assert share(heavy_a, "A") > 0.6
    assert share(heavy_b, "B") > 0.6


def test_tags_favor_role_specific_tags():
    hp = Hyperparameters(K=2, N=2, rng_seed=0)
    shape = small_shape(n_entities=8, snippets_per_entity=40)
    syn = sample_corpus(hp, shape, rng_seed=9)
    tag_names = syn.true_parameters["tags"]
    nn = tag_names.index("NN")
    jj = tag_names.index("JJ")
    a_tags = np.zeros(len(tag_names))
    v_tags = np.zeros(len(tag_names))
    for group in syn.corpus.snippets:
        for snippet in group:
            labels = syn.gold.word_labels[snippet.snippet_id]
            for tok, lab in zip(snippet.tokens, labels):
                if lab == "A":
                    a_tags[tok.tag] += 1
                elif lab == "V":
                    v_tags[tok.tag] += 1
    assert a_tags.argmax() == nn
    assert v_tags.argmax() == jj


def test_shape_validation_errors():
    hp = Hyperparameters(K=5, N=2, rng_seed=0)
    with pytest.raises(GeneratorError, match="vocab"):
        sample_corpus(hp, CorpusShape(n_entities=2, snippets_per_entity=2,
                                      vocab_size=3, seed_words_per_value=2),
                      rng_seed=0)
    with pytest.raises(GeneratorError):
        CorpusShape(n_entities=0, snippets_per_entity=2).validate(2)
    with pytest.raises(GeneratorError):
        CorpusShape(n_entities=2, snippets_per_entity=0).validate(2)
    with pytest.raises(GeneratorError):
        CorpusShape(n_entities=2, snippets_per_entity=2,
                    length_mode="fixed").validate(2)
    with pytest.raises(GeneratorError):
        CorpusShape(n_entities=2, snippets_per_entity=2,
                    mean_words=0.0).validate(2)
    with pytest.raises(GeneratorError, match="^seed_words_per_value must be non-negative$"):
        CorpusShape(n_entities=2, snippets_per_entity=2,
                    seed_words_per_value=-1).validate(2)


@pytest.mark.parametrize("mean_words", [math.nan, math.inf, -math.inf])
def test_shape_rejects_non_finite_mean_words(mean_words):
    shape = CorpusShape(n_entities=2, snippets_per_entity=2, mean_words=mean_words)
    with pytest.raises(GeneratorError, match="mean_words must be finite and positive"):
        shape.validate(2)


@pytest.mark.parametrize("mean_words, length_mode, ok", [
    (1000.0, "poisson", False),
    (1e-9, "poisson", False),
    (0.09, "poisson", False),
    (38.5, "poisson", False),
    (0.1, "poisson", True),
    (38.0, "poisson", True),
    (1000.0, "chain", True),   # a chain stops at MAX_CHAIN_LENGTH
    (1e-9, "chain", True),
])
def test_shape_bounds_poisson_mean_words(mean_words, length_mode, ok):
    shape = CorpusShape(n_entities=2, snippets_per_entity=2, mean_words=mean_words,
                        length_mode=length_mode)
    if ok:
        shape.validate(2)
    else:
        with pytest.raises(GeneratorError, match=r"mean_words must lie in \[0\.1, 38\]"):
            shape.validate(2)


def test_separation_range_and_block_errors():
    hp = Hyperparameters(K=3, N=0, rng_seed=0)
    with pytest.raises(GeneratorError, match="separation"):
        make_separable(hp, small_shape(), separation=1.5, rng_seed=0)
    with pytest.raises(GeneratorError, match="separation"):
        make_separable(hp, small_shape(), separation=-0.1, rng_seed=0)
    # vocab region too small to give each aspect a block
    tiny = CorpusShape(n_entities=2, snippets_per_entity=2, vocab_size=2)
    with pytest.raises(GeneratorError):
        make_separable(hp, tiny, separation=1.0, rng_seed=0)


def test_topic_mix_validation():
    hp = Hyperparameters(K=2, N=2, rng_seed=0)
    with pytest.raises(GeneratorError):
        make_separable(hp, small_shape(), separation=0.5, rng_seed=0,
                       topic_mix=[0.5, 0.5])   # N=2 model has three roles
    with pytest.raises(GeneratorError):
        make_separable(hp, small_shape(), separation=0.5, rng_seed=0,
                       topic_mix=[0.9, -0.1, 0.2])
    for bad in (math.nan, math.inf):
        with pytest.raises(GeneratorError, match="finite"):
            make_separable(hp, small_shape(), separation=0.5, rng_seed=0,
                           topic_mix=[bad, 1.0, 1.0])


# sha256 prefixes of every `snipagg generate` output (except the manifest)
# for fixed seeds, recorded with the scalar one-draw-per-choice sampler
# that preceded the block-drawn one. Any change to the order or number of
# draws from the PCG64 stream, or to how a uniform selects a category,
# changes these files. true_params.json is pinned as version 2 writes it,
# and seeds.txt as it lists only the seed words the corpus's tokens use.
PINNED_OUTPUTS = {
    "poisson-N2-sep0": (
        ["--entities", "3", "--snippets", "5", "--vocab-size", "60",
         "--seed-words-per-value", "2", "--separation", "0", "--seed", "7",
         "--set", "K=3", "--set", "N=2"],
        {"corpus.jsonl": "434815c7cd5befca", "gold_clusters.tsv": "d77e540ea6eac742",
         "gold_polarity.tsv": "769171260ebc2052",
         "gold_word_labels.jsonl": "133f36a4e1f236c6", "seeds.txt": "249def6b5a82c614",
         "true_params.json": "dce879cb669d72ca"},
    ),
    "chain-N0-ignore-sep0.5": (
        ["--entities", "4", "--snippets", "6", "--vocab-size", "90",
         "--length-mode", "chain", "--mean-words", "4", "--separation", "0.5",
         "--seed", "3", "--set", "K=3", "--set", "N=0", "--set", "use_ignore=true"],
        {"corpus.jsonl": "563c44d88faf081c", "gold_clusters.tsv": "2602179b5b7a76f5",
         "gold_word_labels.jsonl": "ec20396f21b43c62",
         "true_params.json": "a0e3346c7ceede46"},
    ),
    "poisson-N3-shared-sep1": (
        ["--entities", "5", "--snippets", "4", "--vocab-size", "70",
         "--seed-words-per-value", "1", "--separation", "1.0", "--seed", "11",
         "--set", "K=4", "--set", "N=3", "--set", "shared_aspects=true",
         "--set", "shared_aspect_multinomial=true"],
        {"corpus.jsonl": "cd05f66db427f161", "gold_clusters.tsv": "cc94a35b8c734f60",
         "gold_polarity.tsv": "8a49a3731ad8b589",
         "gold_word_labels.jsonl": "100d8b404d480e09", "seeds.txt": "567dc6b51d02b52c",
         "true_params.json": "f30319c9bcdc95cd"},
    ),
    "chain-N1-mix-sep1": (
        ["--entities", "3", "--snippets", "7", "--vocab-size", "50",
         "--length-mode", "chain", "--topic-mix", "0.5,0.3,0.2", "--separation", "1.0",
         "--seed", "5", "--mean-words", "6", "--set", "K=2", "--set", "N=1"],
        {"corpus.jsonl": "626291ae993326cb", "gold_clusters.tsv": "e40943e9d48fd792",
         "gold_polarity.tsv": "455afdc8e2a96f86",
         "gold_word_labels.jsonl": "ec3e28ea9eadb27e",
         "true_params.json": "52873aafe9eec7d1"},
    ),
    "poisson-N2-ignore-mix-sep0.5": (
        ["--entities", "4", "--snippets", "5", "--vocab-size", "80",
         "--topic-mix", "0.4,0.3,0.2,0.1", "--seed-words-per-value", "3",
         "--separation", "0.5", "--seed", "2", "--set", "K=3", "--set", "N=2",
         "--set", "use_ignore=true", "--set", "shared_aspects=true"],
        {"corpus.jsonl": "e2a1c1a4a46cd819", "gold_clusters.tsv": "6175ee9bcf272024",
         "gold_polarity.tsv": "9339b78cd1b003b1",
         "gold_word_labels.jsonl": "92fd2537eeb286ce", "seeds.txt": "3a91b6e411a20ae7",
         "true_params.json": "4bfa85ccd0ed261f"},
    ),
}


# sha256 prefixes of the same true_params.json as the unversioned decimal
# text (version 1) wrote it: json.dumps of every array's .tolist(), sorted
# keys, compact separators, a newline. The decoded version-2 values must
# re-emit to these bytes, so they are pinned bit for bit across the change.
DECIMAL_TRUE_PARAMS = {
    "poisson-N2-sep0": "119c284d4d900033",
    "chain-N0-ignore-sep0.5": "ab466b9d0a47d4f3",
    "poisson-N3-shared-sep1": "d8b3bff7e01d66dc",
    "chain-N1-mix-sep1": "bfd52654e133e8b8",
    "poisson-N2-ignore-mix-sep0.5": "53a6ab35cd7d3c17",
}


def decimal_json(obj) -> str:
    """The version-1 text of true parameters: arrays as nested lists,
    theta_A as its dense (K, V) rows per scope."""
    obj = dict(obj, theta_A=[theta_a_rows(obj, s) for s in range(len(obj["theta_A"][0]))])

    def plain(o):
        if isinstance(o, np.ndarray):
            return o.tolist()
        if isinstance(o, dict):
            return {k: plain(v) for k, v in o.items()}
        return [plain(v) for v in o] if isinstance(o, list) else o

    return json.dumps(plain(obj), sort_keys=True, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("name", sorted(PINNED_OUTPUTS))
def test_generate_outputs_match_pinned_draw_stream(tmp_path, name):
    argv, pinned = PINNED_OUTPUTS[name]
    out = tmp_path / "gen"
    assert main(["-q", "generate", "--out", str(out), *argv]) == 0
    written = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
    assert written == sorted(pinned)
    for fname, prefix in pinned.items():
        digest = hashlib.sha256((out / fname).read_bytes()).hexdigest()
        assert digest[:16] == prefix, fname
    decimal = decimal_json(load_true_params(str(out / "true_params.json")))
    assert hashlib.sha256(decimal.encode()).hexdigest()[:16] == DECIMAL_TRUE_PARAMS[name]


def test_block_draws_equal_scalar_draws():
    # The sampler's contract with numpy: rng.random(n) consumes the
    # stream exactly as n scalar rng.random() calls, and a grouped pick
    # selects what the scalar pick selects from the same uniforms.
    a, b = np.random.default_rng(9), np.random.default_rng(9)
    assert a.random(37).tolist() == [b.random() for _ in range(37)]
    rng = np.random.default_rng(4)
    dists = [rng.dirichlet(np.full(6, 0.3)) for _ in range(4)]
    dists[1][2:4] = 0.0  # zero-mass categories repeat an edge
    dists[2][0] = 0.0  # ... or sit at 0, where u = 0 lands
    keys = rng.integers(0, 4, size=500)
    u = rng.random(500)
    keys[:4] = [2, 1, 2, 1]
    u[:4] = [0.0, 1.0 - 2 ** -53, 0.5, 0.0]
    want = [_pick(_edges(dists[k]), x) for k, x in zip(keys.tolist(), u.tolist())]
    # Rows are numbered across the tables; a chunk of one row at a time
    # gives the same picks.
    tables = [np.stack(dists[:3]), np.stack(dists[3:])]
    for chunk in (1, 2, CHUNK_CELLS):
        with patch.object(generator, "CHUNK_CELLS", chunk):
            assert _pick_grouped(tables, keys, u).tolist() == want
    assert all(dists[k][c] > 0 for k, c in zip(keys.tolist(), want))
    # Positional chain picks (one grouped pick per position) equal the
    # scalar walk, snippet by snippet, zero-length snippets included.
    start, main_rows = rng.dirichlet(np.full(3, 0.5)), rng.dirichlet(np.full(3, 0.5), size=3)
    main_rows[1, 2] = 0.0
    lengths = rng.integers(0, 9, size=60)
    u = rng.random(int(lengths.sum())).tolist()
    walk = []
    for length in lengths.tolist():
        edges = _edges(start)
        for _ in range(length):
            walk.append(_pick(edges, u[len(walk)]))
            edges = _edges(main_rows[walk[-1]])
    assert _pick_chains(start, main_rows, lengths, np.asarray(u)).tolist() == walk


def _drawn(draw):
    """draw()'s result, or the message of the GeneratorError it raises."""
    try:
        return draw()
    except GeneratorError as exc:
        return str(exc)


@settings(max_examples=80, deadline=None)
@given(
    concs=st.lists(st.sampled_from([0.5, 2.0, 1e-3, 1e-300]), min_size=1, max_size=3),
    n_rows=st.integers(1, 9),
    width=st.integers(1, 5),
    zeros=st.booleans(),
    chunk=st.sampled_from([1, 4, 16, CHUNK_CELLS]),
    seed=st.integers(0, 2**16),
)
def test_block_dirichlet_draws_equal_row_by_row_draws(concs, n_rows, width, zeros, chunk, seed):
    # 1e-3 over a few cells underflows a row now and then, so a chunk is
    # rewound and redrawn row by row; 1e-300 underflows every redraw.
    alpha = np.repeat(np.asarray(concs)[:, None], width, axis=1)
    if zeros and width > 1:
        alpha[:, ::2] = 0.0  # zero-concentration cells, as at separation 1
    scalar, block = np.random.default_rng(seed), np.random.default_rng(seed)
    want = _drawn(lambda: np.stack(
        [_draw_multinomial(scalar, alpha[r % len(alpha)], "x (lambda_x)") for r in range(n_rows)]
    ))
    with patch.object(generator, "CHUNK_CELLS", chunk):
        got = _drawn(lambda: _draw_rows(block, alpha, "x (lambda_x)", n_rows))
    if isinstance(want, str):
        assert got == want
    else:
        assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())
    assert block.bit_generator.state == scalar.bit_generator.state


def test_block_dirichlet_rewinds_a_chunk_with_an_underflowing_row():
    alpha = np.array([[0.5, 0.5, 0.5], [1e-3, 1e-3, 0.0]])
    scalar, block = np.random.default_rng(2), np.random.default_rng(2)
    want = np.stack([_draw_multinomial(scalar, alpha[r % 2], "x") for r in range(10)])
    with patch.object(generator, "_draw_multinomial", wraps=_draw_multinomial) as by_row:
        got = _draw_rows(block, alpha, "x", 10)
    assert by_row.call_count == 10  # the chunk was drawn again row by row
    assert got.tobytes() == want.tobytes()
    assert block.bit_generator.state == scalar.bit_generator.state
    message = ("cannot draw theta_A (lambda_A): every gamma variate underflowed to 0 in 100 "
               "draws at concentration 1e-300")
    with pytest.raises(GeneratorError, match=f"^{re.escape(message)}$"):
        _draw_rows(block, np.array([[0.5, 0.5], [1e-300, 1e-300]]), "theta_A (lambda_A)", 4)


# sha256 prefixes of make_separable at the criterion-11 reference shape,
# seed 1, recorded with the sampler that made one Python call per choice.
# The pinned cases above have at most 5 entities, so only this shape
# spans several CHUNK_CELLS chunks of theta_A (300 scopes x 10 x 1200).
REFERENCE_SHAPE_DIGESTS = {
    "words": "0ba1253598d60f32", "tags": "aa81383dff8f8cf7", "offsets": "d262c6cc88aa0e2c",
    "clusters": "73636ecc6c123d29", "polarity": "95dc896b58dc0172",
    "word_labels": "558f465fd0bd5e29",
    "corpus.jsonl": "0ee574d2658f4e71", "true_params.json": "14efedfb8a0bde56",
}


def test_reference_shape_sample_matches_pinned_bytes(tmp_path):
    hp = Hyperparameters(K=10, N=2, lambda_V=4.0, epsilon_V=0.05, rng_seed=0)
    shape = CorpusShape(n_entities=300, snippets_per_entity=42, mean_words=8.0,
                        vocab_size=1200, seed_words_per_value=10)
    syn = make_separable(hp, shape, 1.0, 1, [0.6, 0.25, 0.15])
    save_corpus(syn.corpus, str(tmp_path / "corpus.jsonl"))
    save_true_params(syn.true_parameters, str(tmp_path / "true_params.json"))
    got = {name: getattr(syn.corpus, name).tobytes() for name in ("words", "tags", "offsets")}
    for name in ("clusters", "polarity", "word_labels"):
        got[name] = json.dumps(list(getattr(syn.gold, name).items())).encode()
    for name in ("corpus.jsonl", "true_params.json"):
        got[name] = (tmp_path / name).read_bytes()
    digests = {name: hashlib.sha256(data).hexdigest()[:16] for name, data in got.items()}
    assert digests == REFERENCE_SHAPE_DIGESTS


def assert_identical(got, want, where="true_parameters"):
    """got equals want exactly: the same keys, types, dtypes, shapes and
    bits (so -0.0 and 0.0 differ)."""
    assert type(got) is type(want), where
    if isinstance(want, np.ndarray):
        assert (got.dtype, got.shape) == (want.dtype, want.shape), where
        assert got.tobytes() == want.tobytes(), where
    elif isinstance(want, dict):
        assert got.keys() == want.keys(), where
        for key in want:
            assert_identical(got[key], want[key], f"{where}[{key!r}]")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for n, (a, b) in enumerate(zip(got, want)):
            assert_identical(a, b, f"{where}[{n}]")
    else:
        assert got == want, where


@settings(max_examples=30, deadline=None)
@given(
    length_mode=st.sampled_from(["poisson", "chain"]),
    with_mix=st.booleans(),
    n_values=st.sampled_from([0, 1, 3]),
    use_ignore=st.booleans(),
    sharing=st.sampled_from([(False, False), (True, False), (True, True)]),
    separation=st.sampled_from([0.0, 0.5, 1.0]),
    seed=st.integers(0, 2**16),
)
def test_true_params_round_trip_exactly(
    tmp_path_factory, length_mode, with_mix, n_values, use_ignore, sharing, separation, seed
):
    hp = Hyperparameters(K=3, N=n_values, use_ignore=use_ignore, shared_aspects=sharing[0],
                         shared_aspect_multinomial=sharing[1])
    shape = small_shape(vocab_size=30, mean_words=4.0, length_mode=length_mode,
                        seed_words_per_value=1 if n_values else 0)
    mix = [1.0 + k for k in range(hp.layout().n_topics)] if with_mix else None
    syn = make_separable(hp, shape, separation, seed, mix)
    path = tmp_path_factory.mktemp("p") / "true_params.json"
    save_true_params(syn.true_parameters, str(path))
    loaded = load_true_params(str(path))
    assert_identical(loaded, syn.true_parameters)
    again = path.with_name("again.json")
    save_true_params(loaded, str(again))
    assert again.read_bytes() == path.read_bytes()


def assert_same_sample(hp, shape, seed, separation, mix):
    """make_separable with theta_A in per-aspect tables gives the corpus,
    gold and true parameters of the dense reference sampler, bit for bit,
    theta_A compared as its dense rows; returns its true parameters."""
    want = sampler_reference.sample(hp, shape, seed, separation, mix)
    got = make_separable(hp, shape, separation, seed, mix)
    for name in ("words", "tags", "offsets", "snippet_bounds"):
        assert getattr(got.corpus, name).tobytes() == getattr(want.corpus, name).tobytes(), name
    assert [sn.snippet_id for sn in got.corpus.iter_snippets()] == \
        [sn.snippet_id for sn in want.corpus.iter_snippets()]
    assert got.corpus.entities == want.corpus.entities
    assert got.corpus.vocabulary.items == want.corpus.vocabulary.items
    for name in ("clusters", "polarity", "word_labels"):
        assert getattr(got.gold, name) == getattr(want.gold, name), name
    tables = got.true_parameters["theta_A"]
    dense = [theta_a_rows(got.true_parameters, s) for s in range(len(tables[0]))]
    assert_identical(dict(got.true_parameters, theta_A=dense), want.true_parameters)
    return got.true_parameters


@settings(max_examples=40, deadline=None)
@given(
    length_mode=st.sampled_from(["poisson", "chain"]),
    with_mix=st.booleans(),
    n_values=st.sampled_from([0, 1, 3]),
    use_ignore=st.booleans(),
    sharing=st.sampled_from([(False, False), (True, False), (True, True)]),
    separation=st.sampled_from([0.0, 0.5, 1.0]),
    # At 1e-3 about half of the live gamma variates underflow to 0, and
    # now and then a whole block row, which is drawn again.
    lambda_a=st.sampled_from([0.075, 1e-3]),
    chunk=st.sampled_from([1, CHUNK_CELLS]),
    seed=st.integers(0, 2**16),
)
@example(length_mode="poisson", with_mix=False, n_values=1, use_ignore=False,
         sharing=(False, False), separation=1.0, lambda_a=1e-3, chunk=1, seed=0)
def test_sampler_matches_the_dense_reference_bit_for_bit(
    length_mode, with_mix, n_values, use_ignore, sharing, separation, lambda_a, chunk, seed
):
    hp = Hyperparameters(K=3, N=n_values, lambda_A=lambda_a, use_ignore=use_ignore,
                         shared_aspects=sharing[0], shared_aspect_multinomial=sharing[1])
    shape = small_shape(vocab_size=30, mean_words=4.0, length_mode=length_mode,
                        seed_words_per_value=1 if n_values else 0)
    mix = [1.0 + k for k in range(hp.layout().n_topics)] if with_mix else None
    with patch.object(generator, "CHUNK_CELLS", chunk):
        params = assert_same_sample(hp, shape, seed, separation, mix)
    # Each aspect's table covers its block at separation 1, else every word.
    blocks = params["aspect_blocks"] if separation == 1.0 else [range(30)] * 3
    assert [t.shape[1] for t in params["theta_A"]] == list(map(len, blocks))


def test_a_live_cell_whose_gamma_draw_underflowed_samples_as_in_the_dense_bank():
    hp = Hyperparameters(K=3, N=1, lambda_A=1e-3)
    shape = small_shape(vocab_size=30, mean_words=4.0, seed_words_per_value=1)
    tables = assert_same_sample(hp, shape, 0, 1.0, None)["theta_A"]
    # Every column of a table at separation 1 is a live cell of the prior.
    assert any((t == 0.0).any() for t in tables)


def test_aspect_word_picks_equal_dense_picks():
    # Three aspect blocks of a 12-word vocabulary; the dense bank is zero
    # off each aspect's block, as at separation 1.
    V, K, n_scopes = 12, 3, 2
    columns = [np.arange(1, 5), np.arange(5, 8), np.arange(8, 12)]
    rng = np.random.default_rng(6)
    tables = [rng.dirichlet(np.full(len(c), 0.5), size=n_scopes) for c in columns]
    tables[0][0] = [5e-324, 0.0, 0.0, 0.0]  # (1 - 2**-53) * total rounds to the total
    tables[1][1] = [0.0, 0.5, 0.5]  # a live cell of zero mass, where u = 0 lands
    dense = np.zeros((n_scopes * K, V))
    for k, (t, cols) in enumerate(zip(tables, columns)):
        dense[k::K, cols] = t
    scopes, aspects = rng.integers(0, n_scopes, 400), rng.integers(0, K, 400)
    u = rng.random(400)
    scopes[:4], aspects[:4], u[:4] = [0, 0, 1, 1], [0, 0, 1, 1], [1 - 2**-53, 0.0, 0.0, 1 - 2**-53]
    want = sampler_reference._pick_grouped([dense], scopes * K + aspects, u)
    assert want[0] == V - 1  # the dense pick clips to the last word, off block 0
    for chunk in (1, CHUNK_CELLS):
        with patch.object(generator, "CHUNK_CELLS", chunk):
            got = _pick_aspect_words(tables, columns, scopes, aspects, u, V)
        assert got.tolist() == want.tolist()
    # Below separation 1 every aspect covers every word.
    full = [np.arange(V)] * K
    got = _pick_aspect_words([dense[k::K] for k in range(K)], full, scopes, aspects, u, V)
    assert got.tolist() == want.tolist()


def test_make_separable_never_holds_a_dense_theta_a_bank():
    # At the reference shape the dense bank alone is 300 x 10 x 1200
    # doubles, 28.8 MB; the per-aspect tables are a tenth of that.
    hp = Hyperparameters(K=10, N=2, lambda_V=4.0, epsilon_V=0.05, rng_seed=0)
    shape = CorpusShape(n_entities=300, snippets_per_entity=42, mean_words=8.0,
                        vocab_size=1200, seed_words_per_value=10)
    tracemalloc.start()
    try:
        make_separable(hp, shape, 1.0, 1, [0.6, 0.25, 0.15])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30 * 2**20


def test_make_separable_keeps_the_corpus_packed_only():
    # At the reference shape, seed 3, a sample whose corpus also held a
    # Snippet with two array views per snippet, and a second copy of the
    # token arrays, kept 14.57 MB (tracemalloc); the arrays and ids
    # alone keep 9.25 MB.
    hp = Hyperparameters(K=10, N=2, lambda_V=4.0, epsilon_V=0.05, rng_seed=0)
    shape = CorpusShape(n_entities=300, snippets_per_entity=42, mean_words=8.0,
                        vocab_size=1200, seed_words_per_value=10)
    tracemalloc.start()
    try:
        syn = make_separable(hp, shape, 1.0, 3, [0.6, 0.25, 0.15])
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert syn.corpus.n_snippets == 12600
    assert kept < 14.57e6 - 5e6


def _decode(blob):
    raw = base64.b64decode(blob["data"])
    return np.frombuffer(raw, dtype=blob["dtype"]).reshape(blob["shape"]).copy()


def _encode(a):
    return {"dtype": a.dtype.str, "shape": list(a.shape),
            "data": base64.b64encode(a.tobytes()).decode("ascii")}


def _edit_blob(key, edit, sub=None):
    """A payload edit that decodes payload[key] (or payload[key][sub]),
    applies edit to the array and encodes it again."""
    def apply(p):
        holder, name = (p, key) if sub is None else (p[key], sub)
        a = _decode(holder[name])
        edit(a)
        holder[name] = _encode(a)
    return apply


def _swap_support(a):
    a[[0, 1]] = a[[1, 0]]


def _nan_cell(a):
    a.flat[0] = np.nan


MALFORMED_TRUE_PARAMS = {
    "missing key": (lambda p: p.pop("tags"), r"missing keys \['tags'\], unknown keys \[\]"),
    "extra key": (lambda p: p.update(extra=1), r"missing keys \[\], unknown keys \['extra'\]"),
    "bad version": (lambda p: p.update(version=3), "unsupported true parameters version 3"),
    "other format": (lambda p: p.update(format="snipagg-state"), "not a true parameters file$"),
    "no format": (lambda p: p.pop("format"), "missing key 'format'$"),
    "separation out of range": (lambda p: p.update(separation=1.5),
                                r"separation 1\.5 is not a number in \[0, 1\]$"),
    "psi rows off the theta_A scopes": (
        lambda p: p.update(psi=_encode(np.vstack([_decode(p["psi"])] * 2))),
        "psi has 4 rows for 2 theta_A scopes$",
    ),
    "bool version": (lambda p: p.update(version=True), "unsupported true parameters version"),
    "wrong dtype": (lambda p: p["theta_B"].update(dtype="<i8"), "theta_B has dtype '<i8'"),
    "shape and bytes differ": (lambda p: p["eta"]["shape"].__setitem__(1, 6),
                               r"eta has 160 bytes of data, shape \[4, 6\] needs 192"),
    "bad base64": (lambda p: p["psi"].update(data="!!!!"), "psi data is not base64"),
    "unsorted support": (_edit_blob("theta_A", _swap_support, "support"),
                         "theta_A support is not strictly ascending"),
    "duplicate support": (_edit_blob("theta_A", lambda a: a.__setitem__(1, a[0]), "support"),
                          "theta_A support is not strictly ascending"),
    "support out of range": (_edit_blob("theta_A", lambda a: a.__setitem__(-1, 2 * 2 * 20),
                                        "support"),
                             r"theta_A support is not strictly ascending in \[0, 80\)"),
    "table and support differ": (
        lambda p: p["theta_A"].update(table=_encode(_decode(p["theta_A"]["table"])[:-1])),
        "theta_A table has shape",
    ),
    "row off 1": (_edit_blob("theta_B", lambda a: a.__imul__(1.5)),
                  "theta_B has a row that does not sum to 1"),
    "NaN": (_edit_blob("theta_V", _nan_cell), "theta_V has a value that is not finite"),
    "negative": (_edit_blob("transition_main", lambda a: a.__setitem__((0, 0), -0.5)),
                 "transition_main has a value that is not finite and non-negative"),
    "wrong shape": (lambda p: p.update(transition_start=_encode(np.ones(1))),
                    r"transition_start has shape \(1,\), expected \(4,\)"),
    "disabled part present": (lambda p: p.update(topic_letters=["A", "V", "B"]),
                              "theta_I is present but"),
    "letters and value names": (lambda p: p.update(value_names=[]),
                                r"topic_letters \['A', 'V', 'B', 'I'\] do not fit 0"),
    "theta_A shape off the vocab": (lambda p: p["theta_A"].update(shape=[2, 2, 21]),
                                    "does not fit 20 vocab words"),
    # Scope 0's aspect 0 row (block 0 = words 0-9) moves its last cell to
    # word 19, in block 1; the support stays ascending and in range.
    "support off its aspect's block": (
        _edit_blob("theta_A", lambda a: a.__setitem__(np.searchsorted(a, 10) - 1, 19), "support"),
        "theta_A support has a cell outside aspect 0's words",
    ),
    "aspect blocks out of order": (lambda p: p["aspect_blocks"][1].reverse(),
                                   "aspect_blocks needs 2 strictly ascending blocks"),
    "an aspect block missing": (lambda p: p["aspect_blocks"].pop(),
                                "aspect_blocks needs 2 strictly ascending blocks"),
}


@pytest.fixture
def true_params_file(tmp_path):
    hp = Hyperparameters(K=2, N=2, use_ignore=True)
    syn = make_separable(hp, small_shape(n_entities=2, vocab_size=20), 1.0, 3)
    path = tmp_path / "true_params.json"
    save_true_params(syn.true_parameters, str(path))
    return path, syn


@pytest.mark.parametrize("case", sorted(MALFORMED_TRUE_PARAMS))
def test_load_true_params_refuses_malformed_files(true_params_file, case):
    path, _ = true_params_file
    edit, message = MALFORMED_TRUE_PARAMS[case]
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))
    with pytest.raises(ModelError, match=f"^{re.escape(str(path))}: .*{message}"):
        load_true_params(str(path))


def test_load_true_params_refuses_the_unversioned_decimal_layout(true_params_file):
    path, syn = true_params_file
    path.write_text(decimal_json(syn.true_parameters))
    with pytest.raises(ModelError, match=f"^{re.escape(str(path))}: unversioned .*re-run generate"):
        load_true_params(str(path))


def test_load_true_params_refuses_a_huge_theta_a_before_allocating(true_params_file):
    path, _ = true_params_file
    payload = json.loads(path.read_text())
    payload["theta_A"]["shape"] = [1, 10**5, 10**4]  # 8 GB if made dense
    path.write_text(json.dumps(payload))
    tracemalloc.start()
    try:
        message = "theta_A shape = 1 x 100000 x 10000 = 1000000000 exceeds the size ceiling"
        with pytest.raises(ModelError, match=message):
            load_true_params(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def _json_paths(node, prefix=()):
    """Every (container path, key) in a JSON tree."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix, key
        if isinstance(value, (dict, list)):
            yield from _json_paths(value, prefix + (key,))


@settings(max_examples=150, deadline=None)
@given(
    pick=st.integers(0, 10**9),
    action=st.sampled_from(
        ["delete", "null", "string", "negative", "nan", "empty", "dict", "huge", "true", "chop",
         "flip"]
    ),
)
def test_load_true_params_fuzzed_files_raise_only_model_error(tmp_path_factory, pick, action):
    """One value of a true_params.json replaced or deleted: loading it
    succeeds or raises ModelError naming the file."""
    hp = Hyperparameters(K=2, N=1, use_ignore=True, shared_aspects=True)
    syn = make_separable(hp, small_shape(vocab_size=12), 0.5, pick % 5, [1.0, 2.0, 3.0, 4.0])
    path = tmp_path_factory.mktemp("fuzz") / "true_params.json"
    save_true_params(syn.true_parameters, str(path))
    payload = json.loads(path.read_text())
    paths = list(_json_paths(payload))
    prefix, key = paths[pick % len(paths)]
    parent = payload
    for step in prefix:
        parent = parent[step]
    value = parent[key]
    if action == "delete":
        del parent[key]
    elif action == "chop":
        parent[key] = value[:len(value) // 2] if isinstance(value, (str, list)) else None
    elif action == "flip" and isinstance(value, str) and value:
        i = pick % len(value)
        parent[key] = value[:i] + ("B" if value[i] == "A" else "A") + value[i + 1:]
    else:
        parent[key] = {"null": None, "string": "x", "negative": -1.0, "nan": math.nan,
                       "empty": [], "dict": {}, "huge": 10**15, "true": True, "flip": "x"}[action]
    path.write_text(json.dumps(payload))
    try:
        load_true_params(str(path))
    except ModelError as exc:
        assert str(exc).startswith(f"{path}: ")
