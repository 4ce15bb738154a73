"""Variational updates, free energy behavior, and the fit loop."""

import copy
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import count_reference
import per_op_reference as reference
from snipagg import inference
from snipagg.corpus import Corpus, Indexer, SeedLexicon, Snippet, Token, load_corpus, save_corpus
from snipagg.generator import CorpusShape, make_separable
from snipagg.inference import (
    EARLY_STOP_TOL,
    InferenceError,
    UpdateContext,
    FreeEnergyReport,
    _end_iteration,
    _expected_counts,
    _gather,
    _incidence,
    _pass,
    _refit,
    _softmax_rows,
    aspect_clusterings,
    compute_free_energy,
    extract_posteriors,
    free_energy_rises,
    polarity_predictions,
    run_inference,
    update_parameters,
    update_snippet_aspect,
    update_snippet_value,
    update_word_topic,
    word_label_predictions,
)
from snipagg.model import (
    DirichletFactor,
    Hyperparameters,
    ModelError,
    build_priors,
    init_state,
    load_state,
    save_state,
)


def tiny_corpus(n_entities=1):
    vocab = Indexer(["pizza", "great", "the", "crust"])
    tags = Indexer(["NN", "JJ", "DT"])
    entities = [f"e{i}" for i in range(n_entities)]
    groups = []
    for i in range(n_entities):
        groups.append([
            Snippet(i, f"e{i}-s0", [Token(2, 2), Token(0, 0), Token(1, 1)]),
            Snippet(i, f"e{i}-s1", [Token(3, 0), Token(1, 1)]),
        ])
    return Corpus(entities, groups, vocab, tags)


def random_corpus(rng, n_entities=3, vocab_size=30, snippets=4, max_len=6, long_snippet=0):
    """Random snippets of 1 to max_len tokens; with long_snippet, entity 0
    ends with one more snippet of that many tokens, drawn last."""
    vocab = Indexer([f"w{k}" for k in range(vocab_size)])
    tags = Indexer(["NN", "JJ", "VB"])
    entities = [f"e{i}" for i in range(n_entities)]

    def snippet(i, j, length):
        toks = [Token(int(rng.integers(vocab_size)), int(rng.integers(3))) for _ in range(length)]
        return Snippet(i, f"e{i}-s{j}", toks)

    groups = [
        [snippet(i, j, int(rng.integers(1, max_len + 1))) for j in range(snippets)]
        for i in range(n_entities)
    ]
    if long_snippet:
        groups[0].append(snippet(0, snippets, long_snippet))
    return Corpus(entities, groups, vocab, tags)


# --- softmax ------------------------------------------------------------

def test_softmax_two_scores():
    q = _softmax_rows(np.array([-1.0, -2.0]))
    assert q[0] == pytest.approx(0.7310585786300049, abs=1e-15)
    assert q[1] == pytest.approx(0.2689414213699951, abs=1e-15)


def test_softmax_three_scores():
    q = _softmax_rows(np.array([-3.0, -1.0, -2.0]))
    assert q == pytest.approx(
        [0.09003057317038046, 0.6652409557748218, 0.24472847105479764], abs=1e-15
    )


def test_softmax_shift_invariance_and_extremes():
    a = _softmax_rows(np.array([1.0, 2.0, 3.0]))
    b = _softmax_rows(np.array([-999.0, -998.0, -997.0]))
    assert a == pytest.approx(b, abs=1e-15)
    huge = _softmax_rows(np.array([0.0, -800.0]))
    assert huge.sum() == pytest.approx(1.0)
    assert huge[0] == pytest.approx(1.0)


def test_softmax_rows_matrix():
    q = _softmax_rows(np.array([[-1.0, -2.0], [0.0, 0.0]]))
    assert q[0, 0] == pytest.approx(0.7310585786300049, abs=1e-15)
    assert np.allclose(q[1], 0.5)
    assert np.allclose(q.sum(axis=1), 1.0)


# --- per-snippet update operations ---------------------------------------

def test_update_ops_write_buffers_only_in_batch_mode():
    corpus = tiny_corpus(n_entities=2)
    hp = Hyperparameters(K=2, N=2, rng_seed=0)
    state = init_state(hp, corpus, None)
    ctx = UpdateContext(state, corpus)
    lists = state.qa
    old = [a.copy() for a in state.qa]
    q = update_snippet_aspect(ctx, 1, 1)
    # The read state is untouched until commit().
    assert state.qa is lists
    for got, want in zip(state.qa, old, strict=True):
        assert np.array_equal(got, want)
        assert not np.shares_memory(got, ctx.qa)
    assert np.array_equal(ctx.qa[3], q)            # entity 1, snippet 1
    assert q.sum() == pytest.approx(1.0, abs=1e-12)
    ctx.commit()
    assert np.array_equal(state.qa[1][1], q)
    assert np.array_equal(state.qa[0], old[0])
    assert all(np.shares_memory(a, ctx.qa) for a in state.qa)
    # An index outside the corpus names itself and writes nothing.
    packed = [ctx.qa.copy(), ctx.qv.copy(), ctx.qw.copy()]
    for op, args, message in [
        (update_snippet_aspect, (2, 0), "entity index 2 out of range for 2 entities"),
        (update_snippet_value, (-3, 0), "entity index -3 out of range for 2 entities"),
        (update_word_topic, (2, 0, 0), "entity index 2 out of range for 2 entities"),
        (update_snippet_aspect, (1, 2), "snippet index 2 out of range for entity 1"),
        (update_word_topic, (0, 1, 2), "word index 2 out of range for snippet 1"),
    ]:
        with pytest.raises(InferenceError, match=f"^{message}$"):
            op(ctx, *args)
    for got, want in zip([ctx.qa, ctx.qv, ctx.qw], packed):
        assert np.array_equal(got, want)


def test_update_ops_apply_immediately_in_sequential_mode():
    corpus = tiny_corpus(n_entities=2)
    hp = Hyperparameters(K=2, N=2, rng_seed=0, schedule="sequential")
    state = init_state(hp, corpus, None)
    ctx = UpdateContext(state, corpus)
    ctx.commit()
    q = update_snippet_aspect(ctx, 1, 1)
    # One write shows through the state's list and the packed array.
    assert np.array_equal(state.qa[1][1], q)
    assert np.array_equal(ctx.qa[3], q)            # entity 1, snippet 1
    qw = update_word_topic(ctx, 1, 1, 1)
    assert np.array_equal(state.qw[1][4], qw)
    assert np.array_equal(ctx.qw[9], qw)           # 5 tokens of entity 0 before it
    # The refit reads the packed arrays, so it counts both writes.
    update_parameters(ctx)
    want_psi = hp.lambda_M + state.qa[1][0] + q
    assert np.abs(state.psi_factor(1).concentration - want_psi).max() <= 1e-12
    word = corpus.snippets[1][1].tokens[1].word
    want_b = hp.lambda_B + sum(
        state.qw[i][t, state.layout.col("B")]
        for i, group in enumerate(corpus.snippets)
        for t, tok in enumerate(tok for sn in group for tok in sn.tokens)
        if tok.word == word
    )
    assert abs(state.theta_B.concentration[word] - want_b) <= 1e-12


def test_update_snippet_value_requires_values():
    corpus = tiny_corpus()
    hp = Hyperparameters(K=2, N=0, rng_seed=0)
    state = init_state(hp, corpus, None)
    ctx = UpdateContext(state, corpus)
    with pytest.raises(InferenceError):
        update_snippet_value(ctx, 0, 0)


def test_update_word_topic_single_topic_degenerate():
    corpus = tiny_corpus()
    hp = Hyperparameters(K=2, N=0, rng_seed=0)
    state = init_state(hp, corpus, None)
    # collapse to one enabled role by zeroing background's competitors:
    # with N=0 and no ignore, roles are (A, B); force qw via the op and
    # check it stays a proper distribution over 2 roles
    ctx = UpdateContext(state, corpus)
    q = update_word_topic(ctx, 0, 0, 1)
    assert q.shape == (2,)
    assert q.sum() == pytest.approx(1.0, abs=1e-12)


def test_update_word_topic_matches_brute_force():
    # assemble the score for one word by hand from the factor expectations
    from scipy.special import digamma

    corpus = tiny_corpus()
    hp = Hyperparameters(K=2, N=2, rng_seed=4)
    state = init_state(hp, corpus, None)
    rng = np.random.default_rng(1)
    for f in state.parameter_factors():
        f.set_counts(rng.random(f.concentration.shape) * 3.0)
    state.refresh_caches()
    ctx = UpdateContext(state, corpus)

    def elog(conc):
        return digamma(conc) - digamma(conc.sum(axis=-1, keepdims=True))

    ent, sn, w = 0, 0, 1          # middle word of the 3-token snippet
    word = corpus.snippets[0][sn].tokens[w].word
    layout = state.layout
    qa = state.qa[0][sn]
    qv = state.qv[0][sn]
    qw = state.qw[0]
    off = 0  # first snippet starts at token 0
    scores = np.zeros(3)
    trans_main = elog(state.trans_main.concentration)
    for t, letter in enumerate(layout.letters):
        s = hp.topic_prior_vector(layout)[t]
        s += float(qw[off + w - 1] @ trans_main[:, t])          # from previous word
        s += float(trans_main[t, :3] @ qw[off + w + 1])         # into next word
        if letter == "A":
            ea = elog(state.theta_A_factor(0).concentration)
            s += float(qa @ ea[:, word])
        elif letter == "V":
            ev = elog(state.theta_V.concentration)
            s += float(qv @ ev[:, word])
        else:
            s += float(elog(state.theta_B.concentration)[word])
        scores[t] = s
    expect = np.exp(scores - scores.max())
    expect /= expect.sum()

    got = update_word_topic(ctx, ent, sn, w)
    assert got == pytest.approx(expect, abs=1e-10)


def test_update_snippet_aspect_matches_brute_force():
    from scipy.special import digamma

    corpus = tiny_corpus()
    hp = Hyperparameters(K=3, N=2, rng_seed=4)
    state = init_state(hp, corpus, None)
    rng = np.random.default_rng(2)
    for f in state.parameter_factors():
        f.set_counts(rng.random(f.concentration.shape) * 2.0)
    state.refresh_caches()
    ctx = UpdateContext(state, corpus)

    def elog(conc):
        return digamma(conc) - digamma(conc.sum(axis=-1, keepdims=True))

    sn = 1
    snippet = corpus.snippets[0][sn]
    qv = state.qv[0][sn]
    qw_cols = state.qw[0][3:5, state.layout.col("A")]   # snippet 1 spans tokens 3..4
    scores = np.zeros(3)
    for a in range(3):
        s = float(elog(state.psi_factor(0).concentration)[a])
        ea = elog(state.theta_A_factor(0).concentration)[a]
        for pos, tok in enumerate(snippet.tokens):
            s += float(qw_cols[pos] * ea[tok.word])
        ephi = elog(state.phi_factor(0).concentration)[a]
        s += float(qv @ ephi)
        scores[a] = s
    expect = np.exp(scores - scores.max())
    expect /= expect.sum()
    got = update_snippet_aspect(ctx, 0, sn)
    assert got == pytest.approx(expect, abs=1e-10)


# --- parameter updates ----------------------------------------------------

def test_update_parameters_fractional_counts():
    corpus = tiny_corpus()
    hp = Hyperparameters(K=2, N=2)
    state = build_priors(hp, corpus, None)
    # snippet 0: qa = (0.35, 0.65)
    state.qa[0][0] = np.array([0.35, 0.65])
    ctx = UpdateContext(state, corpus)
    update_parameters(ctx)
    psi = state.psi_factor(0).concentration
    # psi = lambda_M + 0.35 + uniform half from snippet 1
    assert psi[0] == pytest.approx(1.0 + 0.35 + 0.5, abs=1e-12)
    assert psi[1] == pytest.approx(1.0 + 0.65 + 0.5, abs=1e-12)


def test_update_parameters_chain_counts():
    corpus = tiny_corpus()
    hp = Hyperparameters(K=2, N=2)
    state = build_priors(hp, corpus, None)
    qw0 = np.zeros((3, 3))
    qw0[0] = [0.6, 0.0, 0.4]   # word 1 of snippet 0
    qw0[1] = [0.0, 1.0, 0.0]   # word 2
    qw0[2] = [0.0, 0.0, 1.0]   # word 3
    qw1 = np.zeros((2, 3))
    qw1[0] = [1.0, 0.0, 0.0]
    qw1[1] = [0.0, 0.5, 0.5]
    state.qw[0] = np.vstack([qw0, qw1])
    ctx = UpdateContext(state, corpus)
    update_parameters(ctx)
    start = state.trans_start.concentration
    main = state.trans_main.concentration
    lamT = hp.lambda_T
    # start row: first words of both snippets
    assert start[0] == pytest.approx(lamT + 0.6 + 1.0, abs=1e-12)
    assert start[1] == pytest.approx(lamT, abs=1e-12)
    assert start[2] == pytest.approx(lamT + 0.4, abs=1e-12)
    # A -> V: 0.6*1.0 (snippet 0 words 1-2) + 1.0*0.5 (snippet 1)
    assert main[0, 1] == pytest.approx(lamT + 0.6 + 0.5, abs=1e-12)
    # B -> V: 0.4*1.0
    assert main[2, 1] == pytest.approx(lamT + 0.4, abs=1e-12)
    # V -> B: snippet 0 words 2-3
    assert main[1, 2] == pytest.approx(lamT + 1.0, abs=1e-12)
    # end column: last words of both snippets
    end = 3
    assert main[0, end] == pytest.approx(lamT, abs=1e-12)
    assert main[1, end] == pytest.approx(lamT + 0.5, abs=1e-12)
    assert main[2, end] == pytest.approx(lamT + 1.0 + 0.5, abs=1e-12)


def test_update_parameters_emission_counts():
    corpus = tiny_corpus()
    hp = Hyperparameters(K=2, N=2)
    state = build_priors(hp, corpus, None)
    state.qa[0][:] = [[1.0, 0.0], [0.0, 1.0]]
    state.qv[0][:] = [[1.0, 0.0], [0.0, 1.0]]
    qw = np.zeros((5, 3))
    qw[0] = [1.0, 0.0, 0.0]   # "the" as aspect word
    qw[1] = [0.0, 0.0, 1.0]   # "pizza" background
    qw[2] = [0.0, 1.0, 0.0]   # "great" value word
    qw[3] = [0.3, 0.0, 0.7]   # "crust" mixed
    qw[4] = [0.0, 1.0, 0.0]   # "great" value word again
    state.qw[0] = qw
    ctx = UpdateContext(state, corpus)
    update_parameters(ctx)
    theta_a = state.theta_A_factor(0).concentration
    the, pizza, great, crust = 2, 0, 1, 3
    assert theta_a[0, the] == pytest.approx(hp.lambda_A + 1.0, abs=1e-12)
    assert theta_a[1, the] == pytest.approx(hp.lambda_A, abs=1e-12)
    # crust sits in snippet 1 with qa = (0, 1)
    assert theta_a[1, crust] == pytest.approx(hp.lambda_A + 0.3, abs=1e-12)
    theta_v = state.theta_V.concentration
    assert theta_v[0, great] == pytest.approx(0.075 + 1.0, abs=1e-12)
    assert theta_v[1, great] == pytest.approx(0.075 + 1.0, abs=1e-12)
    assert state.theta_B.concentration[pizza] == pytest.approx(hp.lambda_B + 1.0, abs=1e-12)
    assert state.theta_B.concentration[crust] == pytest.approx(hp.lambda_B + 0.7, abs=1e-12)
    phi = state.phi_factor(0).concentration
    assert phi[0, 0] == pytest.approx(hp.lambda_AV + 1.0, abs=1e-12)
    assert phi[1, 1] == pytest.approx(hp.lambda_AV + 1.0, abs=1e-12)
    assert phi[0, 1] == pytest.approx(hp.lambda_AV, abs=1e-12)


# --- free energy -----------------------------------------------------------

def empty_corpus():
    return Corpus([], [], Indexer(["w"]), Indexer(["T"]))


def test_free_energy_empty_corpus_is_zero():
    hp = Hyperparameters(K=2, N=2)
    corpus = empty_corpus()
    state = build_priors(hp, corpus, None)
    assert compute_free_energy(state, corpus) == 0.0


def one_entity_corpus(entity_name):
    vocab = Indexer(["a", "b", "c"])
    tags = Indexer(["T"])
    toks1 = [Token(0, 0), Token(1, 0)]
    toks2 = [Token(2, 0)]
    group = [Snippet(0, f"{entity_name}-s0", toks1),
             Snippet(0, f"{entity_name}-s1", toks2)]
    return Corpus([entity_name], [group], vocab, tags)


def two_entity_corpus():
    vocab = Indexer(["a", "b", "c"])
    tags = Indexer(["T"])
    groups = []
    for i in range(2):
        toks1 = [Token(0, 0), Token(1, 0)]
        toks2 = [Token(2, 0)]
        groups.append([Snippet(i, f"e{i}-s0", toks1),
                       Snippet(i, f"e{i}-s1", toks2)])
    return Corpus(["e0", "e1"], groups, vocab, tags)


def test_free_energy_doubles_for_identical_entities():
    hp = Hyperparameters(K=2, N=2)
    single = one_entity_corpus("e0")
    double = two_entity_corpus()
    fe1 = compute_free_energy(build_priors(hp, single, None), single)
    fe2 = compute_free_energy(build_priors(hp, double, None), double)
    assert fe2 == 2.0 * fe1   # exact: prior KL terms are exactly zero


def test_free_energy_decreases_under_one_batch_pass():
    rng = np.random.default_rng(0)
    corpus = random_corpus(rng)
    hp = Hyperparameters(K=3, N=2, max_iters=3, rng_seed=0)
    state, reports = run_inference(hp, corpus, None)
    values = [r.value for r in reports]
    assert len(values) >= 2
    assert values[1] <= values[0] + 1e-6 * abs(values[0])


def test_sequential_monotone_on_random_corpora():
    for seed in range(3):
        rng = np.random.default_rng(seed)
        corpus = random_corpus(rng, n_entities=2, vocab_size=20)
        hp = Hyperparameters(K=3, N=2, max_iters=15, rng_seed=seed,
                             schedule="sequential")
        state, reports = run_inference(hp, corpus, None)
        values = [r.value for r in reports]
        for prev, nxt in zip(values, values[1:]):
            assert nxt <= prev + 1e-6 * abs(prev)


def test_free_energy_validates_inputs():
    from snipagg.model import ModelError

    hp = Hyperparameters(K=2, N=2)
    corpus = tiny_corpus()
    state = build_priors(hp, corpus, None)
    with pytest.raises(ModelError):
        compute_free_energy(state, tiny_corpus(n_entities=2))


# --- fit loop behavior ------------------------------------------------------

def test_run_inference_thread_invariance():
    rng = np.random.default_rng(3)
    corpus = random_corpus(rng, n_entities=5, vocab_size=25)
    hp = Hyperparameters(K=3, N=2, max_iters=8, rng_seed=1)
    s1, r1 = run_inference(hp, corpus, None, threads=1)
    s3, r3 = run_inference(hp, corpus, None, threads=3)
    assert [r.value for r in r1] == [r.value for r in r3]
    for a, b in zip(s1.qa, s3.qa):
        assert np.array_equal(a, b)
    for a, b in zip(s1.qw, s3.qw):
        assert np.array_equal(a, b)
    for fa, fb in zip(s1.parameter_factors(), s3.parameter_factors()):
        assert np.array_equal(fa.concentration, fb.concentration)


def test_run_inference_deterministic_rerun():
    rng = np.random.default_rng(4)
    corpus = random_corpus(rng)
    hp = Hyperparameters(K=2, N=2, max_iters=5, rng_seed=9)
    s1, _ = run_inference(hp, corpus, None)
    s2, _ = run_inference(hp, corpus, None)
    for a, b in zip(s1.qa, s2.qa):
        assert np.array_equal(a, b)


def test_run_inference_early_stop():
    corpus = tiny_corpus()
    hp = Hyperparameters(K=2, N=2, max_iters=50, rng_seed=0)
    state, reports = run_inference(hp, corpus, None)
    assert len(reports) < 50   # tiny problem converges quickly


def test_run_inference_single_support_collapse():
    corpus = Corpus(
        ["e0"],
        [[Snippet(0, "e0-s0", [Token(0, 0)])]],
        Indexer(["w"]),
        Indexer(["T"]),
    )
    hp = Hyperparameters(K=1, N=1, max_iters=1)
    state, _ = run_inference(hp, corpus, None)
    assert state.qa[0][0, 0] == 1.0
    assert state.qv[0][0, 0] == 1.0


def test_run_inference_rejects_bad_threads():
    from snipagg.model import ModelError

    with pytest.raises(ModelError):
        run_inference(Hyperparameters(), tiny_corpus(), threads=0)


def random_state(
    seed, n_values, use_ignore, use_pos, shared, max_len, sparse=False, long_snippet=0
):
    """A random corpus and a state on it with random counts in its factors
    (in about half the cells when sparse) and random posteriors. shared
    is how many sharing flags are on: none, shared_aspects, or both.
    long_snippet is random_corpus's."""
    rng = np.random.default_rng(seed)
    corpus = random_corpus(
        rng, n_entities=3, vocab_size=12, snippets=4, max_len=max_len, long_snippet=long_snippet
    )
    hp = Hyperparameters(
        K=3, N=n_values, use_ignore=use_ignore, use_pos=use_pos,
        shared_aspects=shared >= 1, shared_aspect_multinomial=shared == 2,
        rng_seed=seed % 1000,
    )
    state = init_state(hp, corpus)
    for f in state.parameter_factors():
        counts = rng.gamma(1.0, 2.0, size=f.prior.shape)
        if sparse:
            counts *= rng.random(f.prior.shape) < 0.5
        f.set_counts(counts)
    for q in state.qw:
        q[:] = rng.dirichlet(np.ones(q.shape[1]), size=len(q))
    return corpus, state


STATE_FLAGS = dict(
    seed=st.integers(0, 2**32 - 1),
    n_values=st.sampled_from([0, 1, 2]),
    use_ignore=st.booleans(),
    use_pos=st.booleans(),
    shared=st.sampled_from([0, 1, 2]),
    max_len=st.sampled_from([1, 2, 7]),
)


def per_op_pass(state, corpus, sequential, ops=reference):
    """A copy of state after one pass of the per-op updates of ops (by
    default the reference in tests/per_op_reference.py, which shares no
    code with the packed kernels) over every snippet (aspect, value,
    then each word), committed at the end, and with sequential also
    before the first update."""
    state = copy.deepcopy(state)
    ctx = UpdateContext(state, corpus)
    if sequential:
        ctx.commit()
    for i, group in enumerate(corpus.snippets):
        for j, sn in enumerate(group):
            ops.update_snippet_aspect(ctx, i, j)
            if state.qv is not None:
                ops.update_snippet_value(ctx, i, j)
            for w in range(len(sn)):
                ops.update_word_topic(ctx, i, j, w)
    ctx.commit()
    return state, ctx


def assert_same_posteriors(got_state, want_state, old_state, delta):
    """Posteriors within 1e-12, and delta the largest change from old."""
    expected_delta = 0.0
    for name in ("qa", "qv", "qw"):
        if getattr(got_state, name) is None:
            assert getattr(want_state, name) is None
            continue
        for got, want, old in zip(
            getattr(got_state, name), getattr(want_state, name), getattr(old_state, name),
            strict=True,
        ):
            assert np.abs(got - want).max(initial=0.0) <= 1e-12
            expected_delta = max(expected_delta, np.abs(want - old).max(initial=0.0))
    assert abs(delta - expected_delta) <= 1e-12


@pytest.mark.parametrize("schedule", ["batch", "sequential"])
@settings(max_examples=60, deadline=None)
@given(**STATE_FLAGS)
def test_pass_and_refit_match_per_op_updates(
    schedule, seed, n_values, use_ignore, use_pos, shared, max_len
):
    corpus, state = random_state(seed, n_values, use_ignore, use_pos, shared, max_len)
    state.hp.schedule = schedule
    before = copy.deepcopy(state)
    oracle, ctx = per_op_pass(state, corpus, sequential=schedule == "sequential")
    update_parameters(ctx)
    ctx = UpdateContext(state, corpus)
    delta = _pass(ctx)
    _refit(ctx)
    ctx.commit()
    assert_same_posteriors(state, oracle, before, delta)
    for got, want in zip(state.parameter_factors(), oracle.parameter_factors(), strict=True):
        assert np.abs(got.concentration - want.concentration).max() <= 1e-12


@pytest.mark.parametrize("schedule", ["batch", "sequential"])
@settings(max_examples=40, deadline=None)
@given(block=st.integers(2, 9), **STATE_FLAGS)
def test_pass_has_the_same_bits_in_blocks_of_any_size(
    schedule, block, seed, n_values, use_ignore, use_pos, shared, max_len
):
    # Blocks of 1 token, of `block` tokens and of the whole corpus. Entity
    # 0 ends with a 10-token snippet, a block of its own in the first two.
    got = []
    for size in (1, block, None):
        corpus, state = random_state(
            seed, n_values, use_ignore, use_pos, shared, max_len, long_snippet=10
        )
        state.hp.schedule = schedule
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(inference, "BLOCK_TOKENS", size or len(corpus.words))
            ctx = UpdateContext(state, corpus)  # packs the corpus
        starts, stops = zip(*ctx.pack.blocks)  # consecutive, covering every snippet
        assert starts[0] == 0 and starts[1:] == stops[:-1] and stops[-1] == ctx.pack.n_snippets
        if size == 1:
            assert len(starts) == ctx.pack.n_snippets
        if size is None:
            assert len(starts) == 1
        else:
            assert (4, 5) in ctx.pack.blocks  # entity 0's fifth snippet, the long one
        delta = _pass(ctx)
        got.append([None if q is None else q.tobytes() for q in (ctx.qa, ctx.qv, ctx.qw)])
        got[-1].append(delta)
    assert got[0] == got[1] == got[2]


def test_fit_gathers_at_most_one_block_at_a_time(monkeypatch):
    # 4 entities x 12 snippets of 1 to 6 tokens and one of 40, in blocks of
    # 16 tokens; the seeds make the fit's priming run its value step too.
    rng = np.random.default_rng(5)
    corpus = random_corpus(rng, n_entities=4, vocab_size=30, snippets=12, long_snippet=40)
    seeds = SeedLexicon(["neg", "pos"], [{0, 1}, {2, 3}])
    monkeypatch.setattr(inference, "BLOCK_TOKENS", 16)
    spans, gather = [], inference._gather

    def recording_gather(ctx, s0=0, s1=None):
        s1 = ctx.pack.n_snippets if s1 is None else s1
        spans.append(int(ctx.pack.offsets[s1] - ctx.pack.offsets[s0]))
        return gather(ctx, s0, s1)

    monkeypatch.setattr(inference, "_gather", recording_gather)
    for schedule in ("batch", "sequential"):
        spans.clear()
        hp = Hyperparameters(K=3, N=2, schedule=schedule, max_iters=3)
        _, reports = run_inference(hp, corpus, seeds)
        n_blocks = len(corpus._pack.blocks)
        assert n_blocks > 4 and len(spans) == n_blocks * (1 + len(reports))
        assert max(spans) == max(16, 40)  # no more, and the long snippet alone


@pytest.mark.parametrize("schedule", ["batch", "sequential"])
@settings(max_examples=30, deadline=None)
@given(**STATE_FLAGS)
def test_public_per_op_updates_match_the_reference(
    schedule, seed, n_values, use_ignore, use_pos, shared, max_len
):
    # The public updates run the packed kernels on one snippet or token.
    corpus, state = random_state(seed, n_values, use_ignore, use_pos, shared, max_len)
    sequential = schedule == "sequential"
    want, _ = per_op_pass(state, corpus, sequential)
    got, _ = per_op_pass(state, corpus, sequential, ops=inference)
    assert_same_posteriors(got, want, want, 0.0)  # no pass delta to compare


def bank_counts(ctx):
    """_expected_counts as a dict keyed by the state attribute of each bank."""
    name = {id(v): k for k, v in vars(ctx.state).items() if isinstance(v, DirichletFactor)}
    return {name[id(f)]: counts for f, counts in _expected_counts(ctx)}


def incidence_sums(ctx):
    """The aspect and value steps' snippet sums, as the pass takes them."""
    g, layout = _gather(ctx), ctx.state.layout
    aspect = _incidence(g.indptr, g.cols, ctx.qw[:, layout.col("A")], len(g.ta)) @ g.ta
    if g.tv is None:
        return aspect, None
    return aspect, _incidence(g.indptr, g.words, ctx.qw[:, layout.col("V")], len(g.tv)) @ g.tv


def assert_close(got, want, rel):
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= rel * np.abs(want))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_values=st.sampled_from([0, 1, 3]),
    use_ignore=st.booleans(),
    use_pos=st.booleans(),
    shared=st.sampled_from([0, 1, 2]),
    max_len=st.sampled_from([1, 2, 7]),
)
def test_incidence_products_match_a_loop_over_tokens(
    seed, n_values, use_ignore, use_pos, shared, max_len
):
    # Entity 0 has one single-token snippet; the others 1 to 4 snippets of
    # 1 to max_len tokens. shared 1 and 2 make one-row aspect banks.
    rng = np.random.default_rng(seed)
    n_entities, vocab = int(rng.integers(1, 4)), Indexer([f"w{k}" for k in range(9)])
    groups = [[Snippet(0, "e0-s0", [Token(int(rng.integers(9)), 0)])]]
    for i in range(1, n_entities):
        groups.append([
            Snippet(i, f"e{i}-s{j}", [Token(int(rng.integers(9)), int(rng.integers(2)))
                                      for _ in range(int(rng.integers(1, max_len + 1)))])
            for j in range(int(rng.integers(1, 5)))
        ])
    corpus = Corpus([f"e{i}" for i in range(n_entities)], groups, vocab, Indexer(["NN", "JJ"]))
    hp = Hyperparameters(
        K=3, N=n_values, use_ignore=use_ignore, use_pos=use_pos,
        shared_aspects=shared >= 1, shared_aspect_multinomial=shared == 2,
    )
    state = init_state(hp, corpus)
    ctx = UpdateContext(state, corpus)
    update_parameters(ctx)  # theta_A's support grows to the corpus's pairs
    for f in state.parameter_factors():
        f.set_counts(rng.gamma(1.0, 2.0, size=f.prior.shape))
    for q in (ctx.qa, ctx.qv, ctx.qw):
        if q is not None:
            q[:] = rng.dirichlet(np.ones(q.shape[1]), size=len(q))
    got, want = bank_counts(ctx), count_reference.loop_counts(ctx)
    assert got.keys() == want.keys()
    for name in got:
        assert_close(got[name], want[name], 1e-12)
    for got, want in zip(incidence_sums(ctx), count_reference.loop_sums(ctx), strict=True):
        if want is None:
            assert got is None
        else:
            assert_close(got, want, 1e-12)


def test_incidence_products_match_the_replaced_formulas_on_the_criterion_01_corpus():
    from snipagg.generator import CorpusShape, make_separable

    syn = make_separable(
        Hyperparameters(K=5, N=2, lambda_V=4.0, epsilon_V=0.05, rng_seed=0),
        CorpusShape(n_entities=50, snippets_per_entity=40, vocab_size=600,
                    seed_words_per_value=10),
        separation=1.0, rng_seed=1, topic_mix=[0.52, 0.35, 0.13],
    )
    state, _ = run_inference(Hyperparameters(K=5, N=2, max_iters=3), syn.corpus, syn.seeds)
    ctx = UpdateContext(state, syn.corpus)
    got, want = bank_counts(ctx), count_reference.bincount_counts(ctx)
    assert {"psi", "theta_A", "phi", "theta_V"} <= want.keys()
    for name in want:
        assert_close(got[name], want[name], 1e-15)
    for got, want in zip(incidence_sums(ctx), count_reference.reduceat_sums(ctx), strict=True):
        assert_close(got, want, 1e-12)


def dense_elog(conc):
    from scipy.special import digamma

    return digamma(conc) - digamma(conc.sum(axis=-1, keepdims=True))


def dense_kl(conc, prior):
    from scipy.special import gammaln

    per_row = (
        gammaln(conc.sum(axis=-1)) - gammaln(conc).sum(axis=-1)
        - gammaln(prior.sum(axis=-1)) + gammaln(prior).sum(axis=-1)
        + ((conc - prior) * dense_elog(conc)).sum(axis=-1)
    )
    return float(np.sum(per_row))


def dense_free_energy(state, corpus):
    """The free energy term by term, from dense expected-log tables."""
    from scipy.special import xlogy

    layout, hp = state.layout, state.hp
    n = layout.n_topics
    kl = sum(dense_kl(f.concentration, np.asarray(f.prior)) for f in state.parameter_factors())
    e_b = dense_elog(state.theta_B.concentration)
    e_v = None if state.theta_V is None else dense_elog(state.theta_V.concentration)
    e_i = None if state.theta_I is None else dense_elog(state.theta_I.concentration)
    e_eta = None if state.eta is None else dense_elog(state.eta.concentration)
    e_start = dense_elog(state.trans_start.concentration)
    e_main = dense_elog(state.trans_main.concentration)
    like = neg_entropy = 0.0
    for i, group in enumerate(corpus.snippets):
        e_psi = dense_elog(state.psi_factor(i).concentration)
        e_a = dense_elog(state.theta_A_factor(i).concentration)
        qw = state.qw[i]
        t = 0
        for j, sn in enumerate(group):
            qa = state.qa[i][j]
            like += qa @ e_psi
            neg_entropy += xlogy(qa, qa).sum()
            if state.qv is not None:
                qv = state.qv[i][j]
                like += qa @ dense_elog(state.phi_factor(i).concentration) @ qv
                neg_entropy += xlogy(qv, qv).sum()
            for w, tok in enumerate(sn.tokens):
                score = hp.topic_prior_vector(layout).copy()
                score[layout.col("A")] += qa @ e_a[:, tok.word]
                if e_v is not None:
                    score[layout.col("V")] += qv @ e_v[:, tok.word]
                score[layout.col("B")] += e_b[tok.word]
                if e_i is not None:
                    score[layout.col("I")] += e_i[tok.word]
                if e_eta is not None:
                    score += e_eta[:, tok.tag]
                like += qw[t] @ score
                like += qw[t] @ e_start if w == 0 else qw[t - 1] @ e_main[:, :n] @ qw[t]
                if w == len(sn) - 1:
                    like += qw[t] @ e_main[:, layout.end_col]
                neg_entropy += xlogy(qw[t], qw[t]).sum()
                t += 1
    return kl - like + neg_entropy


@settings(max_examples=60, deadline=None)
@given(sparse=st.booleans(), **STATE_FLAGS)
def test_free_energy_matches_dense_reference(
    seed, n_values, use_ignore, use_pos, shared, max_len, sparse
):
    corpus, state = random_state(seed, n_values, use_ignore, use_pos, shared, max_len, sparse)
    want = dense_free_energy(state, corpus)
    lists = [state.qa, state.qv, state.qw]
    arrays = [[(a, a.copy()) for a in q or []] for q in lists]
    got = compute_free_energy(state, corpus)
    assert abs(got - want) <= 1e-12 * abs(want)
    # It reads a copy: the caller's lists and arrays are left as they were.
    for name, lst, pairs in zip(("qa", "qv", "qw"), lists, arrays, strict=True):
        assert getattr(state, name) is lst
        for got_q, (arr, val) in zip(lst or [], pairs, strict=True):
            assert got_q is arr and np.array_equal(arr, val)
    kl = sum(f.kl_to_prior() for f in state.parameter_factors())
    dense = sum(dense_kl(f.concentration, np.asarray(f.prior)) for f in state.parameter_factors())
    assert abs(kl - dense) <= 1e-12 * abs(dense)
    for f in state.parameter_factors():
        assert np.abs(f.expected_log() - dense_elog(f.concentration)).max(initial=0.0) <= 1e-13


@pytest.mark.parametrize("schedule", ["batch", "sequential"])
@settings(max_examples=40, deadline=None)
@given(topic_prior=st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4), **STATE_FLAGS)
def test_free_energy_matches_dense_reference_at_refits(
    schedule, seed, n_values, use_ignore, use_pos, shared, max_len, topic_prior
):
    # At a refit the factor terms collapse to ln B(prior) - ln B(posterior);
    # the fit's value and compute_free_energy must still be the full sum,
    # after the refit and after every pass (the fit's state is the caller's).
    corpus, state = random_state(seed, n_values, use_ignore, use_pos, shared, max_len)
    state.hp.schedule, state.hp.max_iters = schedule, 3
    state.hp.topic_prior = tuple(topic_prior)
    ctx = UpdateContext(state, corpus)
    ctx.commit()

    def check(fe):
        want = dense_free_energy(state, corpus)
        assert abs(fe - want) <= 1e-12 * abs(want)
        assert abs(compute_free_energy(state, corpus) - want) <= 1e-12 * abs(want)

    check(inference._free_energy(ctx, _refit(ctx)))
    reports = []
    inference._fit(ctx, reports, lambda it, fe, seconds: check(fe))
    assert reports


def aspect_counts_by_hand(state, corpus, qa, qw):
    """Dense (E, K, V) theta_A counts of packed posteriors, token by token."""
    col = state.layout.col("A")
    counts = np.zeros(state.theta_A.prior.shape)
    s = t = 0
    for i, group in enumerate(corpus.snippets):
        row = 0 if state.hp.shared_aspects else i
        for sn in group:
            for tok in sn.tokens:
                counts[row, :, tok.word] += qa[s] * qw[t, col]
                t += 1
            s += 1
    return counts


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shared=st.booleans(),
    ops=st.lists(st.sampled_from(["refit", "write"]), min_size=1, max_size=4),
)
def test_aspect_bank_support_matches_dense_reference(seed, shared, ops):
    rng = np.random.default_rng(seed)
    corpus = random_corpus(rng, n_entities=3, vocab_size=10, snippets=3, max_len=4)
    state = init_state(Hyperparameters(K=3, N=1, shared_aspects=shared), corpus)
    ctx = UpdateContext(state, corpus)
    ctx.commit()
    qa, qw = ctx.qa, ctx.qw
    qa[:] = rng.dirichlet(np.ones(qa.shape[1]), size=len(qa))
    qw[:] = rng.dirichlet(np.ones(qw.shape[1]), size=len(qw))
    bank = state.theta_A
    prior = np.array(bank.prior)
    dense = prior.copy()
    for op in ops:
        if op == "refit":
            _refit(ctx)
            dense = prior + aspect_counts_by_hand(state, corpus, qa, qw)
        else:
            # A dense row write with nonzero cells off the corpus pairs.
            row = int(rng.integers(len(dense)))
            counts = rng.gamma(1.0, 2.0, size=prior.shape[1:])
            counts *= rng.random(prior.shape[1:]) < 0.3
            bank.rows()[row].set_counts(counts)
            dense[row] = prior[row] + counts
    rows, words = np.divmod(bank.support, state.vocab_size)
    on_support = np.zeros((len(dense), state.vocab_size), dtype=bool)
    on_support[rows, words] = True
    assert np.array_equal(bank.concentration.transpose(0, 2, 1)[~on_support],
                          prior.transpose(0, 2, 1)[~on_support])
    assert bank.table.shape == (3, len(bank.support))
    assert np.abs(bank.concentration - dense).max() <= 1e-13
    assert np.abs(bank.expected_log() - dense_elog(dense)).max() <= 1e-13
    want_kl = dense_kl(dense, prior)
    assert abs(bank.kl_to_prior() - want_kl) <= 1e-13 * max(1.0, abs(want_kl))
    for i, row in enumerate(bank.rows()):
        assert np.abs(row.concentration - dense[i]).max() <= 1e-13
        assert np.abs(row.expected_log() - dense_elog(dense[i])).max() <= 1e-13
        assert np.abs(row.mean() - dense[i] / dense[i].sum(axis=-1, keepdims=True)).max() <= 1e-13
        want_kl = dense_kl(dense[i], prior[i])
        assert abs(row.kl_to_prior() - want_kl) <= 1e-13 * max(1.0, abs(want_kl))


@pytest.mark.parametrize("fitted", [True, False])
def test_loaded_state_refits_like_the_state_in_memory(tmp_path, fitted):
    # A loaded state keeps only the pairs off the prior on its theta_A
    # support (none for a prior state); the refit grows it to the corpus.
    corpus = random_corpus(np.random.default_rng(5), n_entities=4, vocab_size=25)
    hp = Hyperparameters(K=3, N=2, max_iters=3, rng_seed=2)
    state = run_inference(hp, corpus)[0] if fitted else init_state(hp, corpus)
    save_state(state, str(tmp_path / "state.json"))
    loaded = load_state(str(tmp_path / "state.json"))
    for s in (state, loaded):
        update_parameters(UpdateContext(s, corpus))
    for got, want in zip(loaded.parameter_factors(), state.parameter_factors(), strict=True):
        assert np.abs(got.concentration - want.concentration).max() <= 1e-12
    assert len(loaded.theta_A.support) == len(state.theta_A.support)
    fe = compute_free_energy(state, corpus)
    assert abs(compute_free_energy(loaded, corpus) - fe) <= 1e-12 * abs(fe)


def test_batch_fit_builds_emissions_once_per_iteration(monkeypatch):
    corpus = random_corpus(np.random.default_rng(8), n_entities=4, vocab_size=25)
    hp = Hyperparameters(K=3, N=2, max_iters=6, rng_seed=1)
    calls = []
    emissions = inference._emissions
    monkeypatch.setattr(inference, "_emissions", lambda *a: calls.append(1) or emissions(*a))
    state, reports = run_inference(hp, corpus)
    # One per pass: the free energy reads the counts, not the emissions.
    assert len(calls) == len(reports)
    calls.clear()
    assert compute_free_energy(state, corpus) == reports[-1].value
    assert not calls
    monkeypatch.undo()
    # The free energy has no side effect on the posteriors: a fit whose
    # free energy is a constant makes the same moves.
    monkeypatch.setattr(inference, "_free_energy", lambda ctx, terms: 0.0)
    monkeypatch.setattr(DirichletFactor, "_kl", lambda self, counts=0.0: 0.0)
    blind, blind_reports = run_inference(hp, corpus)
    assert len(blind_reports) == len(reports)
    for name in ("qa", "qv", "qw"):
        for got, want in zip(getattr(blind, name), getattr(state, name), strict=True):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("schedule", ["batch", "sequential"])
def test_corpus_is_packed_once(monkeypatch, schedule):
    """A fit, two free energies and a later context share one pack of the
    corpus; a second compute_free_energy does not repack it."""
    corpus = random_corpus(np.random.default_rng(4), n_entities=3, vocab_size=20)
    builds = []
    build = inference._PackedCorpus.__init__
    monkeypatch.setattr(
        inference._PackedCorpus, "__init__", lambda self, c: builds.append(c) or build(self, c)
    )
    hp = Hyperparameters(K=3, N=2, max_iters=3, rng_seed=2, schedule=schedule)
    state, reports = run_inference(hp, corpus)
    first = compute_free_energy(state, corpus)
    assert compute_free_energy(state, corpus) == first == reports[-1].value
    ctx = UpdateContext(state, corpus)
    assert ctx.pack is corpus._pack
    assert builds == [corpus]
    # Another corpus gets its own pack.
    other = random_corpus(np.random.default_rng(4), n_entities=3, vocab_size=20)
    compute_free_energy(state, other)
    assert builds == [corpus, other]


def test_reference_fit_never_holds_theta_a_expected_log_whole(tmp_path, monkeypatch):
    # At the reference shape theta_A's (K, P) table and a whole expected
    # log of it are 4.2 MB each. A 2-iteration fit of the loaded corpus
    # and its save_state peaked at 28.4 MB (tracemalloc) while the fit
    # kept that expected log and copied whole tables and posteriors.
    import scipy.sparse
    import scipy.special  # noqa: F401  (imported by a fit on first use, here before tracing)

    hp = Hyperparameters(K=10, N=2, lambda_V=4.0, epsilon_V=0.05, rng_seed=0)
    shape = CorpusShape(n_entities=300, snippets_per_entity=42, mean_words=8.0,
                        vocab_size=1200, seed_words_per_value=10)
    save_corpus(make_separable(hp, shape, 1.0, 1, [0.6, 0.25, 0.15]).corpus,
                str(tmp_path / "corpus.jsonl"))
    whole, spans = [], []
    table_elog, elog_cells = DirichletFactor.table_elog, DirichletFactor.elog_cells

    def counted_elog_cells(self, lo, hi):
        spans.append((self, hi - lo))
        return elog_cells(self, lo, hi)

    monkeypatch.setattr(DirichletFactor, "table_elog",
                        lambda self: whole.append(self) or table_elog(self))
    monkeypatch.setattr(DirichletFactor, "elog_cells", counted_elog_cells)
    hp = Hyperparameters(K=10, N=2, max_iters=2, rng_seed=0)
    tracemalloc.start()
    try:
        corpus = load_corpus(str(tmp_path / "corpus.jsonl"))
        state, reports = run_inference(hp, corpus)
        save_state(state, str(tmp_path / "state.json"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(reports) == 2
    assert state.theta_A not in whole
    n_cells = len(state.theta_A.support)
    assert max(n for f, n in spans if f is state.theta_A) < n_cells
    assert peak < (28.4 - 5.0) * 2**20


@pytest.mark.parametrize("schedule", ["batch", "sequential"])
def test_fit_rejects_snippet_without_tokens(schedule):
    corpus = Corpus(
        ["r1"],
        [[
            Snippet(0, "r1-a", [Token(0, 0), Token(1, 0)]),
            Snippet(0, "r1-empty", []),
            Snippet(0, "r1-b", [Token(1, 0)]),
        ]],
        Indexer(["w0", "w1"]),
        Indexer(["T"]),
    )
    hp = Hyperparameters(K=2, N=2, max_iters=2, schedule=schedule)
    with pytest.raises(ModelError, match="'r1'.*'r1-empty'"):
        run_inference(hp, corpus, None)


@pytest.mark.parametrize("schedule", ["batch", "sequential"])
@pytest.mark.parametrize("token, message", [
    (Token(2, 0), r"word index 2 outside \[0, 2\)"),
    (Token(-1, 0), r"word index -1 outside \[0, 2\)"),
    (Token(0, 1), r"tag index 1 outside \[0, 1\)"),
    (Token(0, -1), r"tag index -1 outside \[0, 1\)"),
], ids=["word-past-vocabulary", "negative-word", "tag-past-tag-set", "negative-tag"])
def test_fit_rejects_token_index_outside_its_indexer(schedule, token, message):
    corpus = Corpus(
        ["r1", "r2"],
        [
            [Snippet(0, "r1-a", [Token(0, 0), Token(1, 0)])],
            [Snippet(1, "r2-a", [Token(1, 0)]), Snippet(1, "r2-bad", [Token(0, 0), token])],
        ],
        Indexer(["w0", "w1"]),
        Indexer(["T"]),
    )
    hp = Hyperparameters(K=2, N=2, max_iters=2, schedule=schedule)
    with pytest.raises(ModelError, match=f"^entity 'r2': snippet 'r2-bad' has {message}$"):
        run_inference(hp, corpus, None)


def test_free_energy_rises_are_counted_and_logged(caplog):
    reports = [FreeEnergyReport(1, 10.0)]
    with caplog.at_level("WARNING", logger="snipagg.inference"):
        _end_iteration(2, 12.5, 1.0, 0.0, reports, None)
        _end_iteration(3, 11.0, 1.0, 0.0, reports, None)
    rises = [r.getMessage() for r in caplog.records if "rose" in r.getMessage()]
    assert rises == ["iteration 2: free energy rose from 10.0 to 12.5"]
    assert free_energy_rises(reports) == 1


def test_sequential_fit_on_empty_corpus():
    hp = Hyperparameters(K=2, N=2, schedule="sequential")
    state, reports = run_inference(hp, empty_corpus(), None)
    assert [r.value for r in reports] == [0.0]
    assert state.qa == [] and state.qw == []


@pytest.mark.parametrize("schedule", ["batch", "sequential"])
def test_fit_stops_at_first_non_finite_iteration(monkeypatch, schedule):
    states = []

    def capture(*args, **kwargs):
        states.append(init_state(*args, **kwargs))
        return states[-1]

    def poison(it, fe, seconds):
        if it == 2:
            states[0].theta_B.set_counts(np.full(states[0].vocab_size, np.nan))

    monkeypatch.setattr(inference, "init_state", capture)
    corpus = random_corpus(np.random.default_rng(6))
    hp = Hyperparameters(K=2, N=2, max_iters=10, rng_seed=0, schedule=schedule)
    _, reports = run_inference(hp, corpus, None, progress=poison)
    values = [r.value for r in reports]
    assert len(values) == 3
    assert np.isfinite(values[:2]).all() and not np.isfinite(values[2])


def test_sequential_ignores_thread_count():
    rng = np.random.default_rng(5)
    corpus = random_corpus(rng, n_entities=2)
    hp = Hyperparameters(K=2, N=2, max_iters=4, rng_seed=1, schedule="sequential")
    s1, r1 = run_inference(hp, corpus, None, threads=1)
    s4, r4 = run_inference(hp, corpus, None, threads=4)
    assert [r.value for r in r1] == [r.value for r in r4]


# --- reductions -------------------------------------------------------------

def test_no_ignore_role_without_flag():
    corpus = tiny_corpus()
    hp = Hyperparameters(K=2, N=2, max_iters=3, rng_seed=0)
    state, _ = run_inference(hp, corpus, None)
    assert state.layout.letters == ("A", "V", "B")
    assert state.theta_I is None
    assert state.qw[0].shape[1] == 3
    assert state.trans_main.concentration.shape == (3, 4)


def test_no_value_factors_when_disabled():
    corpus = tiny_corpus()
    hp = Hyperparameters(K=2, N=0, max_iters=3, rng_seed=0)
    state, _ = run_inference(hp, corpus, None)
    assert state.layout.letters == ("A", "B")
    assert state.theta_V is None and state.qv is None
    assert all(f is not None for f in state.parameter_factors())
    with pytest.raises(InferenceError):
        polarity_predictions(corpus, extract_posteriors(state))


def test_shared_aspects_single_entity_equivalence():
    corpus = tiny_corpus(n_entities=1)
    base = Hyperparameters(K=2, N=2, max_iters=6, rng_seed=2)
    shared = Hyperparameters(K=2, N=2, max_iters=6, rng_seed=2,
                             shared_aspects=True, shared_aspect_multinomial=True)
    s1, _ = run_inference(base, corpus, None)
    s2, _ = run_inference(shared, corpus, None)
    assert np.allclose(s1.qa[0], s2.qa[0], atol=1e-10)
    assert np.allclose(s1.qw[0], s2.qw[0], atol=1e-10)
    assert np.allclose(s1.theta_A_factor(0).concentration,
                       s2.theta_A_factor(0).concentration, atol=1e-10)
    assert np.allclose(s1.psi_factor(0).concentration,
                       s2.psi_factor(0).concentration, atol=1e-10)


def test_use_ignore_adds_sticky_role():
    corpus = tiny_corpus()
    hp = Hyperparameters(K=2, N=2, use_ignore=True, max_iters=3, rng_seed=0)
    state, _ = run_inference(hp, corpus, None)
    assert state.layout.letters == ("A", "V", "B", "I")
    assert state.theta_I is not None
    assert state.qw[0].shape[1] == 4


# --- posterior extraction ---------------------------------------------------

def test_extract_posteriors_argmax_and_tiebreak():
    corpus = tiny_corpus()
    hp = Hyperparameters(K=2, N=2)
    state = build_priors(hp, corpus, None)
    state.qa[0][0] = [0.2, 0.8]
    state.qa[0][1] = [0.5, 0.5]          # tie goes to the lowest index
    post = extract_posteriors(state)
    assert post.aspect[0][0] == 1
    assert post.aspect[0][1] == 0
    assert post.value[0][0] == 0
    labels = post.word_labels(0)
    assert len(labels) == 2
    assert all(l in ("A", "V", "B") for sn in labels for l in sn)


def test_prediction_helpers_cover_all_snippets():
    corpus = tiny_corpus(n_entities=2)
    hp = Hyperparameters(K=2, N=2, max_iters=2, rng_seed=0)
    state, _ = run_inference(hp, corpus, None)
    post = extract_posteriors(state)
    clusterings = aspect_clusterings(corpus, post)
    assert len(clusterings) == 2
    assert set(clusterings[0].assignment) == {"e0-s0", "e0-s1"}
    preds = polarity_predictions(corpus, post)
    assert set(preds) == {"e0-s0", "e0-s1", "e1-s0", "e1-s1"}
    wl = word_label_predictions(corpus, post)
    assert len(wl["e0-s0"]) == 3


def test_aspect_clusterings_count_the_aspects_in_use():
    # Entity 0 uses aspects {0, 2} of K = 3 and entity 1 uses {2} only: the
    # count is of the partition's clusters, not the largest index + 1.
    corpus = tiny_corpus(n_entities=2)
    state = build_priors(Hyperparameters(K=3, N=2), corpus, None)
    state.qa[0][:] = [[0.8, 0.1, 0.1], [0.1, 0.1, 0.8]]
    state.qa[1][:] = [[0.1, 0.1, 0.8], [0.1, 0.1, 0.8]]
    clusterings = aspect_clusterings(corpus, extract_posteriors(state))
    assert [c.n_clusters for c in clusterings] == [2, 1]
    assert clusterings[0].assignment == {"e0-s0": 0, "e0-s1": 2}
