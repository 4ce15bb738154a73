"""Dirichlet factors, priors, configuration, and state serialization."""

import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snipagg.corpus import Corpus, Indexer, SeedLexicon, Snippet, Token
from snipagg.inference import compute_free_energy
from snipagg.model import (
    DirichletFactor,
    Hyperparameters,
    ModelError,
    TopicLayout,
    build_priors,
    expected_log,
    init_state,
    load_config,
    load_state,
    parse_config_value,
    save_config,
    save_state,
    tag_prior,
    transition_means,
    transition_priors,
    value_prior,
)


def toy_corpus(n_entities=2, words=("a", "b", "c", "d"), tags=("NN", "JJ")):
    vocab = Indexer(words)
    tagset = Indexer(tags)
    entities = [f"e{i}" for i in range(n_entities)]
    groups = []
    for i in range(n_entities):
        toks1 = [Token(0, 0), Token(1, 1), Token(2, 0)]
        toks2 = [Token(3, 1), Token(0, 0)]
        groups.append([
            Snippet(i, f"e{i}-s0", toks1),
            Snippet(i, f"e{i}-s1", toks2),
        ])
    return Corpus(entities, groups, vocab, tagset)


# --- expected_log -----------------------------------------------------------

def test_expected_log_symmetric_two():
    # Dir(1, 1): E[log x_e] = digamma(1) - digamma(2) = -1 exactly
    f = DirichletFactor(np.array([1.0, 1.0]))
    assert expected_log(f, 0) == pytest.approx(-1.0, abs=1e-12)
    assert expected_log(f, 1) == pytest.approx(-1.0, abs=1e-12)


def test_expected_log_two_one():
    # Dir(2, 1): digamma(2) - digamma(3) = -1/2; digamma(1) - digamma(3) = -3/2
    f = DirichletFactor(np.array([2.0, 1.0]))
    assert expected_log(f, 0) == pytest.approx(-0.5, abs=1e-12)
    assert expected_log(f, 1) == pytest.approx(-1.5, abs=1e-12)


def test_expected_log_integer_recurrence():
    # digamma differences of integers reduce to harmonic sums
    f = DirichletFactor(np.array([3.0, 2.0, 1.0]))
    assert expected_log(f, 0) == pytest.approx(-0.7833333333333333, abs=1e-12)


@given(st.lists(st.floats(0.05, 50.0), min_size=2, max_size=8))
def test_expected_log_jensen_gap(alpha):
    f = DirichletFactor(np.array(alpha))
    elog = f.expected_log()
    assert np.all(elog < 0.0)
    assert float(np.exp(elog).sum()) < 1.0


@given(
    st.lists(st.floats(0.05, 20.0), min_size=2, max_size=6),
    st.integers(0, 5),
    st.floats(0.1, 5.0),
)
def test_expected_log_monotone_in_own_concentration(alpha, idx, bump):
    idx = idx % len(alpha)
    f = DirichletFactor(np.array(alpha))
    before = expected_log(f, idx)
    alpha2 = list(alpha)
    alpha2[idx] += bump
    f2 = DirichletFactor(np.array(alpha2))
    assert expected_log(f2, idx) > before


def test_factor_counts_and_mean():
    f = DirichletFactor(np.array([1.0, 2.0]))
    f.set_counts(np.array([3.0, 0.0]))
    assert np.allclose(f.concentration, [4.0, 2.0])
    assert np.allclose(f.mean(), [4 / 6, 2 / 6])
    assert f.kl_to_prior() > 0.0
    f.set_counts(np.zeros(2))
    assert f.kl_to_prior() == 0.0


def test_bank_counts_follow_the_support_table():
    # A bank's set_counts takes one count per support cell, (..., P); its
    # rows take dense counts.
    bank = DirichletFactor(np.ones((2, 3)), rows=2, support=[1, 4])
    with pytest.raises(ModelError, match=r"counts have shape \(2, 2, 3\), expected \(2, 2\)"):
        bank.set_counts(np.zeros((2, 2, 3)))
    bank.set_counts(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert np.array_equal(bank.concentration, [[[1, 2, 1], [1, 4, 1]], [[1, 3, 1], [1, 5, 1]]])
    bank.rows()[1].set_counts(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]))
    assert np.array_equal(bank.support, [1, 4, 5])
    assert np.array_equal(bank.concentration[1], [[1, 1, 2], [1, 1, 1]])


def test_factor_rows():
    f = DirichletFactor(np.array([[1.0, 1.0], [2.0, 1.0]]))
    elog = f.expected_log()
    assert elog.shape == (2, 2)
    assert elog[0, 0] == pytest.approx(-1.0, abs=1e-12)
    assert elog[1, 0] == pytest.approx(-0.5, abs=1e-12)


# --- layouts and priors -------------------------------------------------

def test_topic_layout_variants():
    full = TopicLayout.for_config(2, True)
    assert full.letters == ("A", "V", "B", "I")
    assert full.end_col == 4
    assert full.col("B") == 2
    noval = TopicLayout.for_config(0, False)
    assert noval.letters == ("A", "B")
    assert not noval.has_value
    assert TopicLayout.for_config(1, False).letters == ("A", "V", "B")


def test_value_prior_seed_boost():
    hp = Hyperparameters()
    prior = value_prior(hp, 6, [[0, 1], [2]])
    assert prior.shape == (2, 6)
    assert prior[0, 0] == pytest.approx(0.225)
    assert prior[0, 2] == pytest.approx(0.075)
    assert prior[1, 2] == pytest.approx(0.225)
    assert prior[1, 0] == pytest.approx(0.075)


def test_transition_priors_self_loops():
    hp = Hyperparameters(use_ignore=True)
    layout = hp.layout()
    start, main = transition_priors(hp, layout)
    # start row has no end column and no boosts
    assert start.shape == (4,)
    assert np.all(start == 1.0)
    assert main.shape == (4, 5)
    a = layout.col("A")
    i = layout.col("I")
    assert main[a, a] == 2.0        # lambda_T + gamma_self
    assert main[i, i] == 6.0        # lambda_T + gamma_ignore, not gamma_self
    assert main[a, layout.col("V")] == 1.0
    assert main[a, layout.end_col] == 1.0


def test_tag_prior_uniform():
    hp = Hyperparameters(use_pos=True)
    prior = tag_prior(hp, hp.layout(), 5)
    assert prior.shape == (3, 5)
    assert np.all(prior == hp.lambda_tag)


def test_hyperparameters_validation():
    with pytest.raises(ModelError):
        Hyperparameters(K=0).validate()
    with pytest.raises(ModelError):
        Hyperparameters(N=-1).validate()
    with pytest.raises(ModelError):
        Hyperparameters(lambda_B=0.0).validate()
    with pytest.raises(ModelError):
        Hyperparameters(schedule="other").validate()
    with pytest.raises(ModelError):
        Hyperparameters(topic_prior=(0.0, 0.0)).validate()
    with pytest.raises(ModelError):
        Hyperparameters(shared_aspect_multinomial=True).validate()
    Hyperparameters(shared_aspects=True, shared_aspect_multinomial=True).validate()


def test_defaults_match_reference_settings():
    hp = Hyperparameters()
    assert (hp.lambda_B, hp.lambda_A, hp.lambda_V, hp.epsilon_V) == (0.2, 0.075, 0.15, 0.075)
    assert (hp.lambda_AV, hp.lambda_M, hp.lambda_I, hp.lambda_T) == (1.0, 1.0, 0.2, 1.0)
    assert (hp.gamma_self, hp.gamma_ignore, hp.lambda_tag) == (1.0, 5.0, 1.0)
    assert hp.topic_prior == (0.0, 0.0, 0.0, 0.0)
    assert hp.max_iters == 50
    assert hp.schedule == "batch"


# --- configuration files -------------------------------------------------

def test_config_round_trip(tmp_path):
    hp = Hyperparameters(K=7, N=3, use_ignore=True, shared_aspects=True,
                         shared_aspect_multinomial=True, lambda_V=0.3,
                         topic_prior=(0.1, 0.0, 0.2, 0.0), schedule="sequential",
                         rng_seed=11)
    path = tmp_path / "model.cfg"
    save_config(hp, str(path))
    assert load_config(str(path)) == hp


def test_save_config_failure_keeps_earlier_file(tmp_path):
    class Unprintable(float):
        def __repr__(self):
            raise RuntimeError("interrupted")

    path = tmp_path / "model.cfg"
    save_config(Hyperparameters(K=4), str(path))
    before = path.read_bytes()
    # topic_prior comes after most fields, so the failure is mid-file.
    with pytest.raises(RuntimeError):
        save_config(Hyperparameters(K=5, topic_prior=(0.0, 0.0, 0.0, Unprintable())), str(path))
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["model.cfg"]


def test_config_rejects_unknown_and_duplicate(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("K = 5\nwhatever = 3\n")
    with pytest.raises(ModelError, match="whatever"):
        load_config(str(path))
    path.write_text("K = 5\nK = 6\n")
    with pytest.raises(ModelError, match="duplicate"):
        load_config(str(path))
    path.write_text("K 5\n")
    with pytest.raises(ModelError, match="expected key"):
        load_config(str(path))


def test_config_comments_and_types(tmp_path):
    path = tmp_path / "model.cfg"
    path.write_text(
        "# comment\nK = 4\n\nuse_ignore = true\ntopic_prior = 0.5,0,0,0\n"
        "schedule = sequential\n"
    )
    hp = load_config(str(path))
    assert hp.K == 4 and hp.use_ignore and hp.schedule == "sequential"
    assert hp.topic_prior == (0.5, 0.0, 0.0, 0.0)


def test_parse_config_value_errors():
    with pytest.raises(ModelError):
        parse_config_value("nope", "1")
    with pytest.raises(ValueError):
        parse_config_value("use_pos", "maybe")
    with pytest.raises(ValueError):
        parse_config_value("topic_prior", "1,2")
    assert parse_config_value("K", "12") == 12
    assert parse_config_value("lambda_A", "0.5") == 0.5


# --- state construction ---------------------------------------------------

def test_build_priors_uniform_q():
    corpus = toy_corpus()
    hp = Hyperparameters(K=3, N=2)
    state = build_priors(hp, corpus, None)
    for qa in state.qa:
        assert np.all(qa == 1.0 / 3.0)
    for qv in state.qv:
        assert np.all(qv == 0.5)
    for qw in state.qw:
        assert np.all(qw == 1.0 / 3.0)  # A, V, B
    assert state.theta_I is None and state.eta is None
    assert state.theta_B.concentration.shape == (4,)
    assert np.all(state.theta_B.concentration == hp.lambda_B)


def test_build_priors_rejects_seed_mismatch():
    corpus = toy_corpus()
    seeds = SeedLexicon(["positive", "negative"], [{0}, {1}])
    with pytest.raises(ModelError):
        build_priors(Hyperparameters(K=2, N=0), corpus, seeds)
    three = SeedLexicon(["a", "b", "c"], [{0}, {1}, {2}])
    with pytest.raises(ModelError):
        build_priors(Hyperparameters(K=2, N=2), corpus, three)


def test_init_state_noise_bounds_and_determinism():
    corpus = toy_corpus()
    hp = Hyperparameters(K=10, N=2, rng_seed=5)
    state = init_state(hp, corpus, None)
    for qa in state.qa:
        assert np.all(qa >= 0.95 / 10.5 - 1e-15)
        assert np.all(qa <= 1.05 / 9.5 + 1e-15)
        assert np.allclose(qa.sum(axis=1), 1.0)
    for qw in state.qw:
        assert np.all(qw == 1.0 / 3.0)
    again = init_state(hp, corpus, None)
    for a, b in zip(state.qa, again.qa):
        assert np.array_equal(a, b)
    other = init_state(Hyperparameters(K=10, N=2, rng_seed=6), corpus, None)
    assert not all(np.array_equal(a, b) for a, b in zip(state.qa, other.qa))


def test_init_state_single_aspect_exact():
    corpus = toy_corpus()
    hp = Hyperparameters(K=1, N=2)
    state = init_state(hp, corpus, None)
    for qa in state.qa:
        assert np.all(qa == 1.0)


def test_transition_means():
    hp = Hyperparameters(use_ignore=True)
    layout = hp.layout()
    start, main = (DirichletFactor(p) for p in transition_priors(hp, layout))
    rng = np.random.default_rng(3)
    for fitted in (False, True):
        if fitted:
            start.set_counts(rng.gamma(1.0, 2.0, size=start.prior.shape))
            main.set_counts(rng.gamma(1.0, 2.0, size=main.prior.shape))
        mean = transition_means(start, main)
        assert mean.shape == (5, 5)
        assert np.allclose(mean.sum(axis=1), 1.0)
        assert mean[0, -1] == 0.0  # start row never reaches end directly
        assert np.array_equal(mean[0, :-1], start.mean())
        assert np.array_equal(mean[1:], main.mean())


# --- serialization ---------------------------------------------------------

def fit_like_state():
    corpus = toy_corpus()
    hp = Hyperparameters(K=3, N=2, use_ignore=True, use_pos=True, rng_seed=2)
    seeds = SeedLexicon(["positive", "negative"], [{0}, {3}])
    state = init_state(hp, corpus, seeds)
    # dirty the factors so serialization covers non-prior content
    rng = np.random.default_rng(0)
    for factor in state.parameter_factors():
        factor.set_counts(rng.random(factor.concentration.shape))
    return corpus, state


def test_state_round_trip_byte_exact(tmp_path):
    corpus, state = fit_like_state()
    p1 = tmp_path / "s1.json"
    p2 = tmp_path / "s2.json"
    save_state(state, str(p1))
    loaded = load_state(str(p1))
    save_state(loaded, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    assert loaded.hp == state.hp
    assert loaded.matches_corpus(corpus)
    for a, b in zip(state.qa, loaded.qa):
        assert np.array_equal(a, b)
    for a, b in zip(state.qw, loaded.qw):
        assert np.array_equal(a, b)
    for fa, fb in zip(state.parameter_factors(), loaded.parameter_factors()):
        assert np.array_equal(fa.concentration, fb.concentration)
        assert np.array_equal(fa.prior, fb.prior)


def test_state_file_is_versioned(tmp_path):
    _, state = fit_like_state()
    path = tmp_path / "s.json"
    save_state(state, str(path))
    payload = json.loads(path.read_text())
    assert payload["format"] == "snipagg-state"
    assert payload["version"] == 1


def test_load_state_rejects_other_format(tmp_path):
    path = tmp_path / "s.json"
    path.write_text('{"format": "something-else", "version": 1}\n')
    with pytest.raises(ModelError, match="not a state file"):
        load_state(str(path))


def test_load_state_rejects_concentration_below_prior(tmp_path):
    _, state = fit_like_state()
    path = tmp_path / "s.json"
    save_state(state, str(path))
    payload = json.loads(path.read_text())
    payload["factors"]["theta_A"][1][0][2] = 0.5 * state.hp.lambda_A
    path.write_text(json.dumps(payload))
    with pytest.raises(ModelError, match="theta_A has a concentration below its prior"):
        load_state(str(path))


@pytest.mark.parametrize("key, value", [
    ("use_ignore", "false"), ("K", 2.0), ("N", True), ("schedule", 1),
    ("lambda_A", "0.075"), ("topic_prior", [0, 0, 0, "0"]),
])
def test_load_state_rejects_wrong_hyperparameter_type(tmp_path, key, value):
    _, state = fit_like_state()
    path = tmp_path / "s.json"
    save_state(state, str(path))
    payload = json.loads(path.read_text())
    payload["hyperparameters"][key] = value
    path.write_text(json.dumps(payload))
    with pytest.raises(ModelError, match=f"{path}: hyperparameter '{key}' must be"):
        load_state(str(path))


def test_matches_corpus_detects_mismatch():
    corpus, state = fit_like_state()
    other = toy_corpus(n_entities=3)
    assert not state.matches_corpus(other)
    # The same snippets and words with one more tag, which a token uses:
    # the tag emission table of the state has no column for it.
    more_tags = toy_corpus(tags=("NN", "JJ", "VB"))
    more_tags.snippets[0][0].tokens[0] = Token(0, 2)
    assert not state.matches_corpus(more_tags)
    with pytest.raises(ModelError, match="state shape does not match corpus"):
        compute_free_energy(state, more_tags)


def random_corpus_and_state(seed, n_entities, n_values, use_ignore, use_pos, shared):
    """A small random corpus and a state on it with random factor counts
    (every cell or about half of them) and random posteriors."""
    rng = np.random.default_rng(seed)
    vocab, tags = Indexer([f"w{k}" for k in range(6)]), Indexer(["NN", "JJ"])
    groups = [
        [Snippet(i, f"e{i}-s{j}", [Token(int(rng.integers(6)), int(rng.integers(2)))
                                   for _ in range(int(rng.integers(1, 5)))])
         for j in range(int(rng.integers(1, 4)))]
        for i in range(n_entities)
    ]
    corpus = Corpus([f"e{i}" for i in range(n_entities)], groups, vocab, tags)
    hp = Hyperparameters(
        K=int(rng.integers(1, 4)), N=n_values, use_ignore=use_ignore, use_pos=use_pos,
        shared_aspects=shared >= 1, shared_aspect_multinomial=shared == 2,
        rng_seed=seed % 1000,
    )
    seeds = None
    if n_values:
        seeds = SeedLexicon([f"v{v}" for v in range(n_values)],
                            [{int(rng.integers(6))} for _ in range(n_values)])
    state = init_state(hp, corpus, seeds)
    sparse = bool(rng.integers(2))
    for f in state.parameter_factors():
        counts = rng.gamma(1.0, 2.0, size=f.prior.shape)
        if sparse:
            counts *= rng.random(f.prior.shape) < 0.5
        f.set_counts(counts)
    for arrays in (state.qa, state.qv or [], state.qw):
        for q in arrays:
            q[:] = rng.dirichlet(np.ones(q.shape[1]), size=len(q))
    return corpus, state


STATE_SHAPES = dict(
    seed=st.integers(0, 2**32 - 1),
    n_entities=st.integers(0, 3),
    n_values=st.sampled_from([0, 1, 2]),
    use_ignore=st.booleans(),
    use_pos=st.booleans(),
    shared=st.sampled_from([0, 1, 2]),
)


@settings(max_examples=40, deadline=None)
@given(**STATE_SHAPES)
def test_state_round_trip_is_byte_identical(
    tmp_path_factory, seed, n_entities, n_values, use_ignore, use_pos, shared
):
    corpus, state = random_corpus_and_state(
        seed, n_entities, n_values, use_ignore, use_pos, shared
    )
    tmp = tmp_path_factory.mktemp("round_trip")
    save_state(state, str(tmp / "s1.json"))
    loaded = load_state(str(tmp / "s1.json"))
    save_state(loaded, str(tmp / "s2.json"))
    assert (tmp / "s1.json").read_bytes() == (tmp / "s2.json").read_bytes()
    assert loaded.matches_corpus(corpus)
    for fa, fb in zip(state.parameter_factors(), loaded.parameter_factors(), strict=True):
        assert np.array_equal(fa.concentration, fb.concentration)
        assert np.array_equal(fa.prior, fb.prior)
        assert np.array_equal(fa.expected_log(), fb.expected_log())


def _paths(node, prefix=()):
    """Every (container path, key) in a JSON tree."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix, key
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


@settings(max_examples=150, deadline=None)
@given(
    pick=st.integers(0, 10**9),
    action=st.sampled_from(["delete", "null", "string", "negative", "nan", "empty", "dict"]),
)
def test_load_state_fuzzed_files_raise_only_model_error(tmp_path_factory, pick, action):
    _, state = random_corpus_and_state(pick % 97, 2, 2, True, True, 0)
    tmp = tmp_path_factory.mktemp("fuzz")
    save_state(state, str(tmp / "s.json"))
    payload = json.loads((tmp / "s.json").read_text())
    paths = list(_paths(payload))
    prefix, key = paths[pick % len(paths)]
    parent = payload
    for step in prefix:
        parent = parent[step]
    if action == "delete":
        del parent[key]
    else:
        parent[key] = {"null": None, "string": "x", "negative": -1.0, "nan": math.nan,
                       "empty": [], "dict": {}}[action]
    (tmp / "s.json").write_text(json.dumps(payload))
    try:
        load_state(str(tmp / "s.json"))
    except ModelError as exc:
        assert str(tmp / "s.json") in str(exc)
