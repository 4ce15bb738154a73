"""Dirichlet factors, priors, configuration, and state serialization."""

import base64
import json
import math
import os
import re
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from snipagg import model
from snipagg.corpus import Corpus, Indexer, SeedLexicon, Snippet, Token
from snipagg.generator import CorpusShape, load_true_params, make_separable, save_true_params
from snipagg.inference import (
    UpdateContext,
    compute_free_energy,
    run_inference,
    update_parameters,
)
from snipagg.model import (
    DirichletFactor,
    Hyperparameters,
    ModelError,
    TopicLayout,
    build_priors,
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
from snipagg.model import _blob, _decoded
from snipagg.output import write_json
from statefile import _node, _recode, _set, decode, encode, write_one_snippet_state


def toy_corpus(n_entities=2, words=("a", "b", "c", "d"), tags=("NN", "JJ"), first=Token(0, 0)):
    vocab = Indexer(words)
    tagset = Indexer(tags)
    entities = [f"e{i}" for i in range(n_entities)]
    groups = []
    for i in range(n_entities):
        toks1 = [first, Token(1, 1), Token(2, 0)]
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
    assert f.expected_log()[0] == pytest.approx(-1.0, abs=1e-12)
    assert f.expected_log()[1] == pytest.approx(-1.0, abs=1e-12)


def test_expected_log_two_one():
    # Dir(2, 1): digamma(2) - digamma(3) = -1/2; digamma(1) - digamma(3) = -3/2
    f = DirichletFactor(np.array([2.0, 1.0]))
    assert f.expected_log()[0] == pytest.approx(-0.5, abs=1e-12)
    assert f.expected_log()[1] == pytest.approx(-1.5, abs=1e-12)


def test_expected_log_integer_recurrence():
    # digamma differences of integers reduce to harmonic sums
    f = DirichletFactor(np.array([3.0, 2.0, 1.0]))
    assert f.expected_log()[0] == pytest.approx(-0.7833333333333333, abs=1e-12)


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
    before = f.expected_log()[idx]
    alpha2 = list(alpha)
    alpha2[idx] += bump
    f2 = DirichletFactor(np.array(alpha2))
    assert f2.expected_log()[idx] > before


@pytest.mark.parametrize("prior", [[1.0, 0.0], [[0.5, -1.0]]])
def test_factor_prior_must_be_positive(prior):
    with pytest.raises(ModelError, match="^Dirichlet prior concentrations must be positive$"):
        DirichletFactor(np.array(prior))


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


def test_bank_row_counts_must_have_the_row_shape():
    # A (3,) count vector would broadcast over both aspects of a (2, 3) row.
    bank = DirichletFactor(np.ones((2, 3)), rows=2)
    with pytest.raises(ModelError, match=r"counts have shape \(3,\), expected \(2, 3\)"):
        bank.rows()[1].set_counts(np.array([0.0, 1.0, 2.0]))
    assert np.array_equal(bank.concentration, np.ones((2, 2, 3)))


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    lead=st.sampled_from([(), (1,), (3,)]),
    rows=st.sampled_from([None, 1, 4]),
    constant=st.booleans(),
    partial=st.booleans(),
)
def test_refit_term_is_the_kl_of_the_counts(seed, lead, rows, constant, partial):
    # Right after set_counts(counts) the factor's free-energy term is
    # ln B(prior) - ln B(posterior), which reads no expected log.
    rng = np.random.default_rng(seed)
    shape = lead + (int(rng.integers(1, 9)),)
    prior = np.full(shape, rng.uniform(0.05, 5.0)) if constant else rng.uniform(0.05, 5.0, shape)
    n_pairs = (rows or 1) * shape[-1]
    support = np.flatnonzero(rng.random(n_pairs) < 0.5) if partial else None
    f = DirichletFactor(prior, rows=rows, support=support)
    counts = rng.gamma(1.0, 3.0, f.table.shape) * (rng.random(f.table.shape) < 0.7)
    f.set_counts(counts)
    want = f._kl(counts)
    assert abs(f._kl_at_refit() - want) <= 1e-12 * abs(want)


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


@pytest.mark.parametrize("changes, key", [
    ({"lambda_B": math.nan}, "lambda_B"),
    ({"gamma_self": math.inf}, "gamma_self"),
    ({"lambda_tag": -math.inf}, "lambda_tag"),
    ({"topic_prior": (0.0, math.nan, 0.0, 0.0)}, "topic_prior"),
    ({"topic_prior": (-math.inf, 0.0, 0.0, 0.0)}, "topic_prior"),
])
def test_hyperparameters_must_be_finite(changes, key):
    with pytest.raises(ModelError, match=f"^{key} must be finite$"):
        Hyperparameters(**changes).validate()


@pytest.mark.parametrize("changes, message", [
    ({"gamma_self": -1.0}, "transition boosts must be non-negative"),
    ({"gamma_ignore": -0.5}, "transition boosts must be non-negative"),
    ({"max_iters": 0}, "max_iters must be at least 1"),
])
def test_hyperparameters_refuse_with_a_message(changes, message):
    with pytest.raises(ModelError, match=f"^{message}$"):
        Hyperparameters(**changes).validate()


def test_rng_seed_must_be_non_negative():
    Hyperparameters(rng_seed=0).validate()
    with pytest.raises(ModelError, match="^rng_seed must be non-negative$"):
        Hyperparameters(rng_seed=-1).validate()


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
    path.write_text("K = 5\nuse_pos = maybe\n")
    with pytest.raises(ModelError, match=f"^{re.escape(str(path))}:2: bad value for use_pos: "):
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


@pytest.mark.parametrize("line, message", [
    ("lambda_B = -1", "lambda_B must be positive"),
    ("lambda_B = nan", "lambda_B must be finite"),
    ("topic_prior = 0,inf,0,0", "topic_prior must be finite"),
])
def test_config_value_errors_name_the_file(tmp_path, line, message):
    path = tmp_path / "model.cfg"
    path.write_text(f"K = 4\n{line}\n")
    with pytest.raises(ModelError, match=f"^{re.escape(str(path))}: {message}$"):
        load_config(str(path))


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
    assert payload["version"] == 3


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
    _recode(TA, lambda a: _with(a, (0, 6), 0.5 * state.hp.lambda_A))(payload)
    path.write_text(json.dumps(payload))
    with pytest.raises(ModelError, match="theta_A has a concentration below its prior"):
        load_state(str(path))


# fit_like_state() as the version 1 writer saved it (dense factors,
# posteriors per entity) and as the version 2 writer saved it (supports
# and packed posteriors as JSON lists). Neither layout is read any more.
OLD_STATES = {
    version: os.path.join(os.path.dirname(__file__), "data", f"state_v{version}.json")
    for version in (1, 2)
}


@pytest.mark.parametrize("version", [1, 2])
def test_load_state_refuses_versions_1_and_2(version):
    path = OLD_STATES[version]
    with open(path, encoding="utf-8") as fh:
        assert json.load(fh)["version"] == version
    message = f"{path}: state version {version} is no longer read; re-run fit"
    with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
        load_state(path)


@pytest.mark.parametrize("version", [True, 2.0, "3", 4, None])
def test_load_state_rejects_other_versions(tmp_path, version):
    # True == 1 and 2.0 == 2 in Python, but neither is a JSON integer.
    payload, path = _state_payload(tmp_path)
    path.write_text(json.dumps(dict(payload, version=version)))
    message = f"{path}: unsupported state version {version}"
    with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
        load_state(str(path))


def test_state_file_holds_supports_and_packed_posteriors(tmp_path):
    _, state = fit_like_state()
    path = tmp_path / "s.json"
    save_state(state, str(path))
    payload = json.loads(path.read_text())
    theta_a = payload["factors"]["theta_A"]
    assert theta_a["support"]["dtype"] == "<i8" and theta_a["table"]["dtype"] == "<f8"
    assert decode(theta_a["support"]).tolist() == list(range(2 * 4))  # both entities, every word
    assert theta_a["table"]["shape"] == [3, 8]
    assert decode(payload["factors"]["theta_B"]["support"]).tolist() == [0, 1, 2, 3]
    assert payload["q"]["qa"]["shape"] == [4, 3]  # four snippets, K = 3
    assert payload["q"]["qw"]["shape"] == [10, 4]  # ten tokens, roles A V B I
    assert np.array_equal(decode(payload["q"]["qa"]), np.concatenate(state.qa))


def _with(a, index, value):
    a[index] = value
    return a


TA, TAS = ("factors", "theta_A", "table"), ("factors", "theta_A", "support")
PS, PT = ("factors", "psi", "support"), ("factors", "psi", "table")
QA, QV, QW = ("q", "qa"), ("q", "qv"), ("q", "qw")
BLOB = re.escape("is not an encoded array with keys ['data', 'dtype', 'shape']")


@pytest.mark.parametrize("edit, message", [
    (_set(QW, "data", "!" + "A" * 427), "qw data is not base64"),
    (lambda p: _node(p, QW).update(data=_node(p, QW)["data"][:-1]), "qw data is not base64"),
    (lambda p: _node(p, QW).update(data=_node(p, QW)["data"][:-4]),
     r"qw has 318 bytes of data, shape \[10, 4\] needs 320"),
    (_set(QW, "data", 3), "qw data is not base64"),
    (_set(TA, "dtype", "|O"), r"factor theta_A table has dtype '\|O', expected '<f8'"),
    (_recode(TA, lambda a: a, ">f8"), "factor theta_A table has dtype '>f8', expected '<f8'"),
    (_recode(QA, lambda a: a, "<f4"), "qa has dtype '<f4', expected '<f8'"),
    (_recode(PS, lambda a: a, "<f8"), "factor psi support has dtype '<f8', expected '<i8'"),
    (_recode(PT, np.rint, "<i8"), "factor psi table has dtype '<i8', expected '<f8'"),
    (_set(QW, "shape", [-10, -4]), r"qw has shape \[-10, -4\], not a list of non-negative"),
    (_set(QW, "shape", [10, True]), r"qw has shape \[10, True\], not a list of non-negative"),
    (_set(QW, "shape", [10.0, 4]), r"qw has shape \[10.0, 4\], not a list of non-negative"),
    (_set(QW, "shape", "10x4"), "qw has shape '10x4', not a list of non-negative"),
    (_set(QW, "shape", [11, 4]), r"qw has 320 bytes of data, shape \[11, 4\] needs 352"),
    (lambda p: _node(p, TA).update(shape=[10**15], data=base64.b64encode(bytes(8)).decode()),
     r"theta_A table has 8 bytes of data, shape \[1000000000000000\] needs 8000000000000000"),
    (lambda p: _node(p, QA).update(shape=[1] * 65, data=base64.b64encode(bytes(8)).decode()),
     "qa: maximum supported dimension"),
    (lambda p: _node(p, QW).pop("dtype"), "qw " + BLOB),
    (_set(QW, "order", "C"), "qw " + BLOB),
    (lambda p: _node(p, ("factors", "psi")).update(support=list(range(12))),
     "factor psi support " + BLOB),
    # The checks on decoded arrays.
    (_recode(("factors", "theta_A", "support"), lambda a: a[[1, 0, *range(2, len(a))]]),
     "factor theta_A support is not strictly ascending"),
    (_recode(PT, lambda a: _with(a, 4, 0.5)), "psi has a concentration below"),
    (_recode(TA, lambda a: a[:, :-1]), r"theta_A table has shape \(3, 7\), expected \(3, 8\)"),
    (_recode(QW, lambda a: a[:-1]), "qw needs 10 rows"),
    (_recode(QA, lambda a: a[0, 0]), "qa needs 4 rows"),
    (_recode(QV, lambda a: np.hstack([a, np.zeros((4, 1))])), r"qv\[0\] has a row that is not 2"),
    (_recode(QA, lambda a: _with(a, (2, 0), math.inf)), r"qa\[1\] is not finite"),
    (_recode(QW, lambda a: _with(a, (4, 0), 2.0)), r"qw\[0\] rows are not probability"),
    (_recode(TAS, lambda a: a[[0, *range(len(a) - 1)]]),
     "factor theta_A support is not strictly ascending"),
    (_recode(TAS, lambda a: _with(a, 0, -1)), "factor theta_A support is not strictly ascending"),
    (_recode(TAS, lambda a: _with(a, -1, 8)), r"factor theta_A support is not .* in \[0, 8\)"),
    (_recode(TAS, lambda a: a.reshape(2, -1)), "factor theta_A support is not an array of indices"),
    (lambda p: p["factors"].__setitem__("theta_B", [0.2] * 4),
     "factor theta_B needs a support and a table"),
    (lambda p: p["snippet_counts"].__setitem__(0, p["snippet_counts"][0] + 1),
     "snippet_counts do not match token_counts$"),
    (lambda p: p["seed_sets"].append([0]), "seed_sets need 2 lists of word indices below 4$"),
    (lambda p: [p["hyperparameters"].update(use_pos=False), p["factors"].update(eta=[])],
     "factor eta is present but the configuration disables it"),
    # Every object holds exactly its table's keys.
    (lambda p: p.update(extra=1), r"s\.json: missing keys \[\], unknown keys \['extra'\]$"),
    (lambda p: p["factors"].update(extra=None),
     r"s\.json: factors: missing keys \[\], unknown keys \['extra'\]$"),
    (lambda p: p["q"].update(extra=None), r"s\.json: q: missing keys \[\], unknown keys \['extra'\]$"),
    (lambda p: p["factors"]["theta_B"].update(extra=1),
     r"s\.json: factors: theta_B: missing keys \[\], unknown keys \['extra'\]$"),
], ids=[
    "non-base64", "bad-padding", "truncated", "data-not-a-string", "object-dtype",
    "big-endian", "float32", "float-support", "int-table", "negative-shape", "bool-shape",
    "float-shape", "string-shape", "shape-length-mismatch", "huge-shape", "too-many-axes",
    "missing-key", "extra-key", "list-in-version-3", "unsorted-support", "table-below-prior",
    "table-narrower-than-support", "q-row-count", "q-scalar", "q-row-width", "non-finite-q",
    "q-row-not-distribution", "duplicate-support", "negative-support", "support-out-of-range",
    "support-not-flat", "dense-factor", "snippet-counts-off-token-counts", "seed-sets-off-N",
    "disabled-factor-not-null", "unknown-top-level-key",
    "unknown-factors-key", "unknown-q-key", "unknown-factor-key",
])
def test_load_state_rejects_malformed_version_3(tmp_path, edit, message):
    path = tmp_path / "s.json"
    save_state(fit_like_state()[1], str(path))
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))
    with pytest.raises(ModelError, match=message) as exc:
        load_state(str(path))
    assert str(exc.value).startswith(f"{path}: ")


FLOAT_EXTREMES = [
    0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308,
]
INT_EXTREMES = [-2**63, -2**63 + 1, -1, 0, 1, 2**63 - 1]
_SHAPES = hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=6)


@settings(max_examples=200, deadline=None)
@given(a=st.one_of(
    hnp.arrays(np.float64, _SHAPES, elements=st.floats() | st.sampled_from(FLOAT_EXTREMES)),
    hnp.arrays(np.int64, _SHAPES,
               elements=st.integers(-2**63, 2**63 - 1) | st.sampled_from(INT_EXTREMES)),
))
def test_encoded_array_round_trip_is_exact(tmp_path_factory, a):
    # Zero-size axes, -0.0, subnormals, the largest finite floats, the
    # int64 extremes and any NaN payload come back with the same bits,
    # and the decoded array encodes to the same bytes.
    dtype = "<f8" if a.dtype.kind == "f" else "<i8"
    path = tmp_path_factory.mktemp("blob") / "a.json"
    write_json({"a": _blob(a, dtype)}, str(path))
    text = path.read_bytes()
    got = _decoded(json.loads(text)["a"], dtype, "a")
    assert got.shape == a.shape and got.dtype == np.dtype(dtype) and got.flags.writeable
    assert got.tobytes() == a.tobytes()
    write_json({"a": _blob(got, dtype)}, str(path))
    assert path.read_bytes() == text


@settings(max_examples=100, deadline=None)
@given(
    a=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=3, min_side=0, max_side=6)),
)
def test_blob_writes_any_layout_as_its_c_order_bytes(tmp_path_factory, a):
    # A cell-major table is read a row at a time and writes the bytes of
    # the one C-ordered array.
    path = tmp_path_factory.mktemp("blob") / "a.json"

    def text(value):
        write_json({"a": _blob(value, "<f8")}, str(path))
        return path.read_bytes()

    want = text(a.copy(order="C"))
    assert text(np.asfortranarray(a)) == want


_BASE64_TEXT = st.one_of(
    st.text(alphabet="AQgw+/=!\u00e9\n", max_size=20),
    st.builds(lambda raw, cut, tail: base64.b64encode(raw).decode()[cut:] + tail,
              st.binary(max_size=40), st.sampled_from([0, 0, 0, 1, 4]),
              st.sampled_from(["", "", "=", "==", "A", "AAAA", "\n"])),
)


@settings(max_examples=300, deadline=None)
@given(text=_BASE64_TEXT, piece=st.sampled_from([4, 8, model._B64_PIECE]))
# A pad that ends a piece inside the text: each piece decodes, 15 bytes in
# all, where the text's length claims 16.
@example(text="AAA=" + "A" * 18 + "==", piece=4)
def test_decoded_takes_the_base64_that_b64decode_takes(text, piece):
    # The text is checked whole, then decoded in pieces: the same refusals
    # and the same bytes as one base64.b64decode(validate=True), except
    # that padding after a whole quad ("AAAA=") is refused too.
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError:
        raw = None
    if re.fullmatch("(?:[A-Za-z0-9+/]{4})*=+", text):
        raw = None
    # A refused text gets the shape its length claims, so that it is
    # refused while it is decoded, not by the byte count.
    size = len(text) // 4 * 3 - text[-2:].count("=") if raw is None else len(raw)
    blob = {"data": text, "dtype": "<i8", "shape": [max(size, 0) // 8]}
    with patch.object(model, "_B64_PIECE", piece):
        if raw is None:
            with pytest.raises(ModelError, match="^a data is not base64$"):
                _decoded(blob, "<i8", "a")
        elif len(raw) % 8:
            with pytest.raises(ModelError, match=f"^a has {len(raw)} bytes of data, shape"):
                _decoded(blob, "<i8", "a")
        else:
            assert _decoded(blob, "<i8", "a").tobytes() == raw


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


def _state_payload(tmp_path, version=3):
    """The payload of a saved state, or of the version 1 or 2 fixture, and
    a path to write an edit of it to."""
    path = tmp_path / "s.json"
    if version in OLD_STATES:
        with open(OLD_STATES[version], encoding="utf-8") as fh:
            return json.load(fh), path
    save_state(fit_like_state()[1], str(path))
    return json.loads(path.read_text()), path


def _refusal(path, version, message):
    """The error load_state must raise for an edited file of this version:
    message for version 3; for versions 1 and 2 the version refusal, which
    comes before any field is checked or any array is built."""
    if version in OLD_STATES:
        return f"^{re.escape(f'{path}: state version {version} is no longer read; re-run fit')}$"
    return f"^{re.escape(str(path))}: {message}"


@pytest.mark.parametrize("edit, message", [
    (lambda hp: [hp.pop("lambda_A"), hp.pop("schedule")],
     r"missing \['lambda_A', 'schedule'\], unknown \[\]"),
    (lambda hp: hp.update(lambda_Q=0.5), r"missing \[\], unknown \['lambda_Q'\]"),
    (lambda hp: hp.update(lambda_Q=hp.pop("lambda_M")),
     r"missing \['lambda_M'\], unknown \['lambda_Q'\]"),
], ids=["missing", "unknown", "renamed"])
@pytest.mark.parametrize("version", [1, 2, 3])
def test_load_state_needs_exactly_the_hyperparameter_keys(tmp_path, version, edit, message):
    payload, path = _state_payload(tmp_path, version)
    edit(payload["hyperparameters"])
    path.write_text(json.dumps(payload))
    with pytest.raises(ModelError, match=_refusal(path, version, f"hyperparameters: {message}$")):
        load_state(str(path))


@pytest.mark.parametrize("key, value", [
    ("lambda_B", math.nan), ("lambda_AV", math.inf), ("topic_prior", [math.nan, 0, 0, 0]),
])
@pytest.mark.parametrize("version", [1, 2, 3])
def test_load_state_rejects_non_finite_hyperparameters(tmp_path, version, key, value):
    payload, path = _state_payload(tmp_path, version)
    payload["hyperparameters"][key] = value
    path.write_text(json.dumps(payload))  # writes NaN and Infinity, which json.load reads
    with pytest.raises(ModelError, match=_refusal(path, version, f"{key} must be finite$")):
        load_state(str(path))


@pytest.mark.parametrize("key, value", [
    ("vocab_size", 4.9), ("vocab_size", -1), ("tag_count", True), ("tag_count", "2"),
    ("snippet_counts", [2, 2.0]), ("snippet_counts", [2, True]),
    ("token_counts", [["3", 2], [3.7, 2]]), ("token_counts", [[3, 2], [3, 0]]),
    ("seed_sets", [[0.2], ["3"]]), ("seed_sets", [[False], [3]]), ("seed_sets", [[0], [-1]]),
])
@pytest.mark.parametrize("version", [1, 2, 3])
def test_load_state_rejects_integer_fields_that_are_not_json_integers(
    tmp_path, version, key, value
):
    payload, path = _state_payload(tmp_path, version)
    payload[key] = value
    path.write_text(json.dumps(payload))
    message = _refusal(path, version, f"{key}: .* is not an integer of at least")
    with pytest.raises(ModelError, match=message):
        load_state(str(path))


@pytest.mark.parametrize("edit, message", [
    (lambda p: p["token_counts"][0].__setitem__(0, 10**15), r"qw needs \d+ rows \(token_counts\)"),
    (lambda p: p.update(vocab_size=10**15),
     r"vocab_size: 1000000000000000 is larger than the file \(\d+ bytes\)"),
    (lambda p: p["hyperparameters"].update(K=10**12),
     r"qa\[0\] has a row that is not 1000000000000 numbers \(K\)"),
], ids=["token-count", "vocab-size", "K"])
@pytest.mark.parametrize("version", [2, 3])
def test_load_state_checks_sizes_before_it_allocates(tmp_path, version, edit, message):
    # Each edit declares a size whose prior state would take terabytes or
    # more; the file's own arrays refuse it before anything is allocated,
    # and a version 2 file is refused for its version before either.
    payload, path = _state_payload(tmp_path, version)
    edit(payload)
    path.write_text(json.dumps(payload))
    with pytest.raises(ModelError, match=_refusal(path, version, f"{message}$")):
        load_state(str(path))


@pytest.mark.parametrize("sizes, product", [
    (dict(K=10**5, vocab_size=5_334_210), "K x vocab_size = 100000 x 5334210 = 533421000000"),
    (dict(N=10**5, vocab_size=5_334_210), "N x vocab_size = 100000 x 5334210 = 533421000000"),
    (dict(K=10**5, N=10**5), "aspect rows x K x N = 1 x 100000 x 100000 = 10000000000"),
], ids=["K-vocab", "N-vocab", "phi"])
def test_load_state_refuses_prior_tables_above_the_cell_ceiling(tmp_path, sizes, product):
    # A one-snippet file of a few MB whose sizes each fit it, but whose
    # dense priors would take terabytes: refused before they are built.
    payload, path = _state_payload(tmp_path)
    write_one_snippet_state(payload, path, **sizes)
    message = f"{product} exceeds the size ceiling (100000000)"
    # The refusal allocates under 10 MB beyond what parsing the file's JSON
    # takes: the padded text alone peaks near 10 MB, and the 10^5 seed
    # lists of an N = 10^5 file take a few MB more.
    tracemalloc.start()
    try:
        json.loads(path.read_text())
        parse_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        with pytest.raises(ModelError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_state(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < parse_peak + 10 * 2**20


def test_load_state_bounds_the_tag_table(tmp_path, monkeypatch):
    # A tag table above the real ceiling needs a file of tens of MB, so a
    # lower ceiling stands in: K x V = 12, N x V = 8 and 2 x K x N = 12 fit.
    monkeypatch.setattr(model, "MAX_CELLS", 20)
    payload, path = _state_payload(tmp_path)
    path.write_text(json.dumps(dict(payload, tag_count=10)))
    message = "topics x tag_count = 4 x 10 = 40 exceeds the size ceiling (20)"
    with pytest.raises(ModelError, match=f"^{re.escape(f'{path}: {message}')}$"):
        load_state(str(path))
    payload["hyperparameters"]["use_pos"] = False  # no tag table is built
    payload["factors"]["eta"] = None
    path.write_text(json.dumps(dict(payload, tag_count=10)))
    assert load_state(str(path)).eta is None


@pytest.mark.parametrize("build", [build_priors, init_state, run_inference])
def test_a_state_above_the_ceiling_is_refused_before_it_is_built(monkeypatch, build):
    # toy_corpus has 4 snippets: q(Z_A) with K = 3 is 12 cells.
    monkeypatch.setattr(model, "MAX_CELLS", 11)
    message = r"^snippets x K = 4 x 3 = 12 exceeds the size ceiling \(11\)$"
    with pytest.raises(ModelError, match=message):
        build(Hyperparameters(K=3, N=2), toy_corpus())


def _nan_at(index):
    return lambda a: _with(a, index, math.nan)


ETA, TA_TABLE = ("factors", "eta", "table"), ("theta_A", "table")
# One fault of each kind in a field of each file: a wrong shape, a NaN, a
# part the configuration disables that is present, and a declared size
# above a lowered ceiling, with the message each reader gives after
# "<path>: ". The factor tables and the true parameters go through one
# checker (model._field) and every ceiling through check_cells, so both
# files word a fault alike; the posterior qa keeps its per-entity wording.
# qa and theta_A are never disabled, and a dense true parameter declares
# no size of its own (its bytes bound it).
FIELD_FAULTS = {
    "state-eta-shape": ("state", _recode(ETA, lambda a: a[:, :-1]), None,
                        "factor eta table has shape (4, 1), expected (4, 2)"),
    "state-eta-nan": ("state", _recode(ETA, _nan_at((0, 0))), None,
                      "factor eta table has a value that is not finite"),
    "state-eta-disabled": ("state", lambda p: p["hyperparameters"].update(use_pos=False), None,
                           "factor eta is present but the configuration disables it"),
    "state-eta-ceiling": ("state", lambda p: p.update(tag_count=10), 20,
                          "topics x tag_count = 4 x 10 = 40 exceeds the size ceiling (20)"),
    "state-qa-shape": ("state", _recode(QA, lambda a: a[:-1]), None,
                       "qa needs 4 rows (snippet_counts)"),
    "state-qa-nan": ("state", _recode(QA, _nan_at((2, 0))), None, "qa[1] is not finite"),
    "state-qa-ceiling": ("state", lambda p: None, 11,
                         "snippets x K = 4 x 3 = 12 exceeds the size ceiling (11)"),
    "true-theta_I-shape": ("true", _recode(("theta_I",), lambda a: a[:-1]), None,
                           "theta_I has shape (19,), expected (20,)"),
    "true-theta_I-nan": ("true", _recode(("theta_I",), _nan_at(0)), None,
                         "theta_I has a value that is not finite and non-negative"),
    "true-theta_I-disabled": ("true", lambda p: p.update(topic_letters=["A", "V", "B"]), None,
                              "theta_I is present but the configuration disables it"),
    "true-theta_A-shape": ("true", _recode(TA_TABLE, lambda a: a[:-1]), None,
                           "theta_A table has shape (39,), expected (40,)"),
    "true-theta_A-nan": ("true", _recode(TA_TABLE, _nan_at(0)), None,
                         "theta_A table has a value that is not finite"),
    "true-theta_A-ceiling": ("true", lambda p: None, 79,
                             "theta_A shape = 2 x 2 x 20 = 80 exceeds the size ceiling (79)"),
}


@pytest.mark.parametrize("case", sorted(FIELD_FAULTS))
def test_both_files_word_a_field_fault_alike(tmp_path, monkeypatch, case):
    kind, edit, ceiling, message = FIELD_FAULTS[case]
    path = tmp_path / "f.json"
    if kind == "state":
        save_state(fit_like_state()[1], str(path))
        load = load_state
    else:
        hp = Hyperparameters(K=2, N=2, use_ignore=True)
        syn = make_separable(hp, CorpusShape(2, 4, mean_words=5.0, vocab_size=20), 1.0, 3)
        save_true_params(syn.true_parameters, str(path))
        load = load_true_params
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))
    if ceiling is not None:
        monkeypatch.setattr(model, "MAX_CELLS", ceiling)
    with pytest.raises(ModelError) as exc:
        load(str(path))
    assert str(exc.value) == f"{path}: {message}"


def _table_keys(table, prefix=()):
    """The key path of every field of a file format's table, the keys of
    its nested objects and of each pair's object included."""
    for key, entry in table.items():
        yield prefix + (key,)
        if isinstance(entry, dict):
            yield from _table_keys(entry, prefix + (key,))
        elif isinstance(entry, model._Pair):
            yield from (prefix + (key, k) for k in sorted(entry.keys))


TABLE_KEYS = [("state", keys) for keys in _table_keys(model._STATE_FIELDS)] + [
    ("true", keys) for keys in _table_keys(model._TRUE_FIELDS)
]


@pytest.mark.parametrize("change", ["missing", "unknown"])
@pytest.mark.parametrize(
    "kind, keys", TABLE_KEYS, ids=[f"{kind}-{'.'.join(keys)}" for kind, keys in TABLE_KEYS]
)
def test_every_table_key_is_required_and_no_other(tmp_path, kind, keys, change):
    # Driven by the tables themselves, so a field added to one is covered
    # here: without its key, or with one more key beside it, the object
    # holding it is refused, named by the path of objects that enclose it.
    path = tmp_path / "f.json"
    if kind == "state":
        save_state(fit_like_state()[1], str(path))
        load = load_state
    else:
        hp = Hyperparameters(K=2, N=2, use_ignore=True)
        syn = make_separable(hp, CorpusShape(2, 4, mean_words=5.0, vocab_size=20), 1.0, 3)
        save_true_params(syn.true_parameters, str(path))
        load = load_true_params
    payload = json.loads(path.read_text())
    holder, key = _node(payload, keys[:-1]), keys[-1]
    if change == "missing":
        del holder[key]
        fault = f"missing keys ['{key}'], unknown keys []"
    else:
        holder[key + "_extra"] = holder[key]
        fault = f"missing keys [], unknown keys ['{key}_extra']"
    path.write_text(json.dumps(payload))
    with pytest.raises(ModelError) as exc:
        load(str(path))
    where = "".join(f"{k}: " for k in keys[:-1])
    assert str(exc.value) == f"{path}: {where}{fault}"


FACTOR_NAMES = (
    "theta_B", "trans_start", "trans_main", "theta_V", "theta_I", "eta", "psi", "theta_A", "phi"
)


def _refit_file(corpus, path):
    state = load_state(str(path))
    update_parameters(UpdateContext(state, corpus))
    return state


@pytest.mark.parametrize("name", FACTOR_NAMES)
def test_partial_support_in_a_state_file_loads_and_refits(tmp_path, name):
    # A state file may leave cells at their prior out of a factor's
    # support. The factor is restored into its prior support, so the
    # file loads into the full factor and refits like the full file.
    corpus = toy_corpus()
    hp = Hyperparameters(K=3, N=2, use_ignore=True, use_pos=True, max_iters=3)
    seeds = SeedLexicon(["positive", "negative"], [{0}, {3}])
    full = tmp_path / "full.json"
    save_state(run_inference(hp, corpus, seeds)[0], str(full))
    payload = json.loads(full.read_text())
    want = {key: decode(blob) for key, blob in payload["factors"][name].items()}
    assert len(want["support"]) >= 2
    for key in ("support", "table"):  # the second support cell left out
        _recode(("factors", name, key), lambda a: np.delete(a, 1, axis=-1))(payload)
    partial = payload["factors"][name]
    partial_path = tmp_path / "partial.json"
    partial_path.write_text(json.dumps(payload))

    resaved = tmp_path / "resaved.json"
    save_state(load_state(str(partial_path)), str(resaved))
    got = json.loads(resaved.read_text())["factors"][name]
    if name == "theta_A":
        # Its prior support is empty: it holds the file's pairs until a fit.
        assert got == partial
    else:
        # Saved again it has the full support, the left-out cell at its prior.
        prior = getattr(build_priors(hp, corpus, seeds), name)
        table = want["table"]
        table[..., 1] = prior.table[..., 1]
        assert np.array_equal(decode(got["support"]), want["support"])
        assert np.array_equal(decode(got["table"]), table)

    want_state, got_state = _refit_file(corpus, full), _refit_file(corpus, partial_path)
    for key in FACTOR_NAMES:
        want_f, got_f = getattr(want_state, key), getattr(got_state, key)
        assert np.array_equal(got_f.support, want_f.support)
        assert np.array_equal(got_f.concentration, want_f.concentration)


def test_matches_corpus_detects_mismatch():
    corpus, state = fit_like_state()
    other = toy_corpus(n_entities=3)
    assert not state.matches_corpus(other)
    # The same snippets and words with one more tag, which a token uses:
    # the tag emission table of the state has no column for it. A corpus
    # is immutable, so the token carries the new tag from the start.
    more_tags = toy_corpus(tags=("NN", "JJ", "VB"), first=Token(0, 2))
    assert more_tags.tags.max() == 2
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
    action=st.sampled_from([
        "delete", "null", "string", "negative", "nan", "empty", "dict", "huge", "true", "chop",
        "flip",
    ]),
)
def test_load_state_fuzzed_files_raise_only_model_error(tmp_path_factory, pick, action):
    """One value of a state file replaced or deleted: loading it succeeds
    or raises ModelError. The value may be a blob field: its data, dtype,
    shape or a shape entry."""
    tmp = tmp_path_factory.mktemp("fuzz")
    _, state = random_corpus_and_state(pick % 97, 2, 2, True, True, 0)
    save_state(state, str(tmp / "s.json"))
    payload = json.loads((tmp / "s.json").read_text())
    paths = list(_paths(payload))
    if action == "huge":  # a declared shape entry far beyond the data it describes
        paths = [(prefix, key) for prefix, key in paths if prefix[-1:] == ("shape",)]
    prefix, key = paths[pick % len(paths)]
    parent = payload
    for step in prefix:
        parent = parent[step]
    value = parent[key]
    if action == "delete":
        del parent[key]
    elif action == "chop":  # a string or list cut in half
        parent[key] = value[:len(value) // 2] if isinstance(value, (str, list)) else None
    elif action == "flip" and isinstance(value, str) and value:  # a bit flip in a blob's data
        i = pick % len(value)
        parent[key] = value[:i] + ("B" if value[i] == "A" else "A") + value[i + 1:]
    else:
        parent[key] = {"null": None, "string": "x", "negative": -1.0, "nan": math.nan,
                       "empty": [], "dict": {}, "huge": 10**15, "true": True, "flip": "x"}[action]
    (tmp / "s.json").write_text(json.dumps(payload))
    try:
        load_state(str(tmp / "s.json"))
    except ModelError as exc:
        assert str(tmp / "s.json") in str(exc)
