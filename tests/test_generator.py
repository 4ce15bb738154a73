"""Synthetic corpus sampling and the separable benchmark variant."""

import hashlib
import math

import numpy as np
import pytest
from scipy import stats

from snipagg.cli import main
from snipagg.generator import (
    CorpusShape,
    GeneratorError,
    _edges,
    _pick,
    _pick_grouped,
    aspect_vocabularies_disjoint,
    make_separable,
    sample_corpus,
)
from snipagg.model import Hyperparameters


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
    for theta in syn.true_parameters["theta_A"]:
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
    for theta in syn.true_parameters["theta_A"]:
        theta = np.asarray(theta)
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
# changes these files.
PINNED_OUTPUTS = {
    "poisson-N2-sep0": (
        ["--entities", "3", "--snippets", "5", "--vocab-size", "60",
         "--seed-words-per-value", "2", "--separation", "0", "--seed", "7",
         "--set", "K=3", "--set", "N=2"],
        {"corpus.jsonl": "434815c7cd5befca", "gold_clusters.tsv": "d77e540ea6eac742",
         "gold_polarity.tsv": "769171260ebc2052",
         "gold_word_labels.jsonl": "133f36a4e1f236c6", "seeds.txt": "46f186cdd7c41da4",
         "true_params.json": "119c284d4d900033"},
    ),
    "chain-N0-ignore-sep0.5": (
        ["--entities", "4", "--snippets", "6", "--vocab-size", "90",
         "--length-mode", "chain", "--mean-words", "4", "--separation", "0.5",
         "--seed", "3", "--set", "K=3", "--set", "N=0", "--set", "use_ignore=true"],
        {"corpus.jsonl": "563c44d88faf081c", "gold_clusters.tsv": "2602179b5b7a76f5",
         "gold_word_labels.jsonl": "ec20396f21b43c62",
         "true_params.json": "ab466b9d0a47d4f3"},
    ),
    "poisson-N3-shared-sep1": (
        ["--entities", "5", "--snippets", "4", "--vocab-size", "70",
         "--seed-words-per-value", "1", "--separation", "1.0", "--seed", "11",
         "--set", "K=4", "--set", "N=3", "--set", "shared_aspects=true",
         "--set", "shared_aspect_multinomial=true"],
        {"corpus.jsonl": "cd05f66db427f161", "gold_clusters.tsv": "cc94a35b8c734f60",
         "gold_polarity.tsv": "8a49a3731ad8b589",
         "gold_word_labels.jsonl": "100d8b404d480e09", "seeds.txt": "3a1a41806208174f",
         "true_params.json": "d8b3bff7e01d66dc"},
    ),
    "chain-N1-mix-sep1": (
        ["--entities", "3", "--snippets", "7", "--vocab-size", "50",
         "--length-mode", "chain", "--topic-mix", "0.5,0.3,0.2", "--separation", "1.0",
         "--seed", "5", "--mean-words", "6", "--set", "K=2", "--set", "N=1"],
        {"corpus.jsonl": "626291ae993326cb", "gold_clusters.tsv": "e40943e9d48fd792",
         "gold_polarity.tsv": "455afdc8e2a96f86",
         "gold_word_labels.jsonl": "ec3e28ea9eadb27e",
         "true_params.json": "bfd52654e133e8b8"},
    ),
    "poisson-N2-ignore-mix-sep0.5": (
        ["--entities", "4", "--snippets", "5", "--vocab-size", "80",
         "--topic-mix", "0.4,0.3,0.2,0.1", "--seed-words-per-value", "3",
         "--separation", "0.5", "--seed", "2", "--set", "K=3", "--set", "N=2",
         "--set", "use_ignore=true", "--set", "shared_aspects=true"],
        {"corpus.jsonl": "e2a1c1a4a46cd819", "gold_clusters.tsv": "6175ee9bcf272024",
         "gold_polarity.tsv": "9339b78cd1b003b1",
         "gold_word_labels.jsonl": "92fd2537eeb286ce", "seeds.txt": "3f18efbd93481448",
         "true_params.json": "53a6ab35cd7d3c17"},
    ),
}


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
    picked = _pick_grouped(dists, keys, u)
    assert picked.tolist() == [
        _pick(_edges(dists[k]), x) for k, x in zip(keys.tolist(), u.tolist())
    ]
    assert all(dists[k][c] > 0 for k, c in zip(keys.tolist(), picked.tolist()))
