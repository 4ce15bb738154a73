"""Acceptance checks for the whole pipeline.

Each test prints one "acceptance criterion NN: PASS/FAIL" line; run
pytest with -rA (the configured default) or -s to see every line.
"""

import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import digamma

from snipagg.baselines import Clustering, cluster_snippets
from snipagg.corpus import Corpus, Indexer, Snippet, Token
from snipagg.evaluation import (
    combine_clusterings,
    gold_clustering,
    muc_score,
    sentiment_accuracy,
)
from snipagg.generator import CorpusShape, make_separable
from snipagg.inference import (
    UpdateContext,
    aspect_clusterings,
    extract_posteriors,
    polarity_predictions,
    run_inference,
    update_parameters,
    update_snippet_aspect,
    update_snippet_value,
    update_word_topic,
)
from snipagg.model import (
    DirichletFactor,
    Hyperparameters,
    build_priors,
    init_state,
    save_state,
)

SEPARABLE_SHAPE = CorpusShape(
    n_entities=50, snippets_per_entity=40, vocab_size=600, seed_words_per_value=10
)
NOISY_SHAPE = CorpusShape(
    n_entities=50, snippets_per_entity=40, mean_words=6.0, vocab_size=600,
    seed_words_per_value=10,
)


def report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"acceptance criterion {num:02d}: {status} ({detail})")
    assert ok, f"criterion {num:02d}: {detail}"


def gen_hp(K=5):
    # generation-side distributions: strong seed boost so sampled value
    # words carry the polarity signal the seeds claim they do
    return Hyperparameters(K=K, N=2, lambda_V=4.0, epsilon_V=0.05, rng_seed=0)


def fit_hp(K=5):
    return Hyperparameters(K=K, N=2, max_iters=50, rng_seed=0)


def muc_f1(syn, state):
    post = extract_posteriors(state)
    gold = gold_clustering(syn.gold.clusters, syn.corpus)
    response = combine_clusterings(aspect_clusterings(syn.corpus, post))
    return muc_score(gold, response).f1


@pytest.fixture(scope="module")
def separable_fits():
    """Three separable corpora and their fits, shared by criteria 1 and 2."""
    results = []
    fit_seconds = 0.0
    for seed in (1, 2, 3):
        syn = make_separable(
            gen_hp(), SEPARABLE_SHAPE, separation=1.0, rng_seed=seed,
            topic_mix=[0.52, 0.35, 0.13],
        )
        start = time.perf_counter()
        state, _ = run_inference(fit_hp(), syn.corpus, syn.seeds, threads=4)
        fit_seconds += time.perf_counter() - start
        results.append((syn, state))
    return results, fit_seconds


def test_criterion_01_separable_muc(separable_fits):
    results, fit_seconds = separable_fits
    scores = [muc_f1(syn, state) for syn, state in results]
    ok = all(f1 >= 0.90 for f1 in scores) and fit_seconds <= 60.0
    detail = (
        f"MUC F1 {', '.join(f'{s:.3f}' for s in scores)} over 3 corpora, "
        f"threshold 0.90; fits took {fit_seconds:.1f}s of 60s on 4 threads"
    )
    report(1, ok, detail)


def test_criterion_02_seeded_polarity_accuracy(separable_fits):
    results, _ = separable_fits
    accs = []
    for syn, state in results:
        preds = polarity_predictions(syn.corpus, extract_posteriors(state))
        accs.append(sentiment_accuracy(preds, syn.gold.polarity))
    ok = all(acc >= 0.90 for acc in accs)
    detail = (
        f"polarity accuracy {', '.join(f'{a:.3f}' for a in accs)} with 10 seed "
        f"words per polarity, threshold 0.90"
    )
    report(2, ok, detail)


def test_aspect_bank_holds_only_the_corpus_pairs(separable_fits):
    # theta_A keeps K cells per distinct (entity, word) pair of the corpus;
    # a dense entities x aspects x words bank would hold K * V per entity.
    results, _ = separable_fits
    for syn, state in results:
        pairs = {(i, tok.word) for i, group in enumerate(syn.corpus.snippets)
                 for sn in group for tok in sn.tokens}
        rows, words = np.divmod(state.theta_A.support, state.vocab_size)
        assert set(zip(rows.tolist(), words.tolist())) == pairs
        assert state.theta_A.table.shape == (state.hp.K, len(pairs))


def test_criterion_03_beats_clustering_baseline():
    margins = []
    for seed in (1, 2, 3):
        syn = make_separable(
            gen_hp(), NOISY_SHAPE, separation=0.3, rng_seed=seed,
            topic_mix=[0.70, 0.15, 0.15],
        )
        state, _ = run_inference(fit_hp(), syn.corpus, syn.seeds, threads=4)
        model_f1 = muc_f1(syn, state)
        gold = gold_clustering(syn.gold.clusters, syn.corpus)
        baseline = combine_clusterings(cluster_snippets(syn.corpus, 5))
        baseline_f1 = muc_score(gold, baseline).f1
        margins.append(model_f1 - baseline_f1)
    ok = all(m >= 0.05 for m in margins)
    detail = (
        f"F1 margins over tf-idf clustering {', '.join(f'{m:+.3f}' for m in margins)} "
        f"at 30% value/background mix, threshold +0.05"
    )
    report(3, ok, detail)


def _random_corpus(rng, n_entities=3, vocab_size=30, snippets=4, max_len=6):
    vocab = Indexer([f"w{k}" for k in range(vocab_size)])
    tags = Indexer(["NN", "JJ", "VB"])
    entities = [f"e{i}" for i in range(n_entities)]
    groups = []
    for i in range(n_entities):
        group = []
        for j in range(snippets):
            length = int(rng.integers(1, max_len + 1))
            toks = [Token(int(rng.integers(vocab_size)), int(rng.integers(3)))
                    for _ in range(length)]
            group.append(Snippet(i, f"e{i}-s{j}", toks))
        groups.append(group)
    return Corpus(entities, groups, vocab, tags)


def test_criterion_04_sequential_free_energy_monotone():
    worst = 0.0
    ok = True
    for seed in range(10):
        rng = np.random.default_rng(seed)
        corpus = _random_corpus(rng)
        hp = Hyperparameters(K=3, N=2, max_iters=50, rng_seed=seed,
                             schedule="sequential")
        _, reports = run_inference(hp, corpus, None)
        values = [r.value for r in reports]
        for prev, nxt in zip(values, values[1:]):
            rise = (nxt - prev) / abs(prev)
            worst = max(worst, rise)
            if rise > 1e-6:
                ok = False
    detail = (
        f"free energy non-increasing across 10 random corpora, 50 sequential "
        f"iterations each; worst relative rise {worst:.2e} vs 1e-6"
    )
    report(4, ok, detail)


def test_criterion_05_thread_count_invariance(tmp_path):
    syn = make_separable(
        Hyperparameters(K=4, N=2, rng_seed=0),
        CorpusShape(n_entities=20, snippets_per_entity=12, vocab_size=200),
        separation=0.8, rng_seed=9,
    )
    hp = Hyperparameters(K=4, N=2, max_iters=20, rng_seed=3)
    blobs = []
    for threads in (1, 8):
        state, _ = run_inference(hp, syn.corpus, syn.seeds, threads=threads)
        path = tmp_path / f"state_{threads}.json"
        save_state(state, str(path))
        blobs.append(path.read_bytes())
    ok = blobs[0] == blobs[1]
    detail = (
        f"serialized states identical for 1 vs 8 threads on 20 entities "
        f"({len(blobs[0])} bytes)"
    )
    report(5, ok, detail)


def _partition(*groups):
    assignment = {}
    for c, members in enumerate(groups):
        for m in members:
            assignment[m] = c
    return Clustering("hand", assignment, len(groups))


def test_criterion_06_muc_hand_partitions():
    cases = [
        # (gold, response, recall, precision)
        ((("a", "b", "c"), ("d",)), (("a", "b"), ("c", "d")), 1 / 2, 1 / 2),
        ((("a", "b"), ("c",)), (("a", "b"), ("c",)), 1.0, 1.0),
        ((("a", "b", "c", "d"),), (("a",), ("b",), ("c",), ("d",)), 0.0, 1.0),
        ((("a",), ("b",), ("c",), ("d",)), (("a", "b", "c", "d"),), 1.0, 0.0),
        ((("a", "b"), ("c", "d")), (("a", "b", "c", "d"),), 1.0, 2 / 3),
        ((("a", "b", "c"), ("d", "e")), (("a", "b"), ("c", "d", "e")), 2 / 3, 2 / 3),
        ((("a", "b", "c", "d", "e"),), (("a", "b", "c"), ("d", "e")), 3 / 4, 1.0),
        ((), (), 1.0, 1.0),
        ((("a",), ("b",)), (("a",), ("b",)), 1.0, 1.0),
        ((("a", "b"), ("c",), ("d",)), (("a", "c"), ("b", "d")), 0.0, 0.0),
        ((("a", "b", "c"), ("d", "e", "f")), (("a", "b", "c", "d", "e", "f"),), 1.0, 4 / 5),
        ((("a", "b", "c"), ("d", "e", "f")), (("a", "d"), ("b", "e"), ("c", "f")), 0.0, 0.0),
    ]
    failures = []
    for gold_groups, resp_groups, recall, precision in cases:
        r = muc_score(_partition(*gold_groups), _partition(*resp_groups))
        f1 = 0.0 if precision + recall == 0.0 else (
            2 * precision * recall / (precision + recall)
        )
        if (r.recall, r.precision, r.f1) != (recall, precision, f1):
            failures.append((gold_groups, resp_groups, r))
    ok = not failures
    detail = f"{len(cases) - len(failures)}/{len(cases)} hand partitions match exactly"
    report(6, ok, detail)


def _harmonic(n: int) -> Fraction:
    return sum((Fraction(1, k) for k in range(1, n + 1)), Fraction(0))


def test_criterion_07_expected_log_oracles():
    # digamma(n) - digamma(m) telescopes to a harmonic number difference
    # for integer arguments, which Fraction evaluates exactly
    max_err = 0.0
    for a in range(1, 21):
        for b in range(1, 21):
            f = DirichletFactor(np.array([a, b], dtype=float))
            got = f.expected_log()
            total = a + b
            want = [
                float(_harmonic(a - 1) - _harmonic(total - 1)),
                float(_harmonic(b - 1) - _harmonic(total - 1)),
            ]
            max_err = max(max_err, abs(got[0] - want[0]), abs(got[1] - want[1]))
    for alpha in ([1, 1, 1], [2, 3, 4], [20, 1, 7], [5, 5, 5, 5], [1, 2, 3, 14]):
        f = DirichletFactor(np.array(alpha, dtype=float))
        got = f.expected_log()
        total = sum(alpha)
        for e, a in enumerate(alpha):
            want = float(_harmonic(a - 1) - _harmonic(total - 1))
            max_err = max(max_err, abs(got[e] - want))
    exact_ok = max_err <= 1e-12

    alpha = np.array([2.5, 1.5, 3.7])
    rng = np.random.default_rng(123)
    draws = rng.dirichlet(alpha, size=1_000_000)
    logs = np.log(draws)
    sample_mean = logs.mean(axis=0)
    sample_se = logs.std(axis=0, ddof=1) / np.sqrt(logs.shape[0])
    elog = DirichletFactor(alpha).expected_log()
    gaps = np.abs(sample_mean - elog) / sample_se
    mc_ok = bool(np.all(gaps <= 3.0))
    ok = exact_ok and mc_ok
    detail = (
        f"harmonic-sum oracle max error {max_err:.2e} vs 1e-12 on integer "
        f"concentrations; Monte Carlo gaps {', '.join(f'{g:.2f}' for g in gaps)} SE "
        f"vs 3 SE on 1e6 samples"
    )
    report(7, ok, detail)


def _toy_corpus():
    vocab = Indexer(["pizza", "great", "the", "crust"])
    tags = Indexer(["NN", "JJ"])
    group = [
        Snippet(0, "e0-s0", [Token(2, 1), Token(0, 0), Token(1, 1)]),
        Snippet(0, "e0-s1", [Token(3, 0), Token(1, 1)]),
    ]
    return Corpus(["e0"], [group], vocab, tags)


def _elog(conc: np.ndarray) -> np.ndarray:
    return digamma(conc) - digamma(conc.sum(axis=-1, keepdims=True))


def _dirty_state(hp, corpus):
    state = init_state(hp, corpus, None)
    rng = np.random.default_rng(42)
    for f in state.parameter_factors():
        f.set_counts(rng.random(f.concentration.shape) * 2.0)
    state.refresh_caches()
    return state


def test_criterion_08_latent_updates_match_brute_force():
    corpus = _toy_corpus()
    hp = Hyperparameters(K=2, N=2, use_ignore=True, use_pos=True, rng_seed=7)
    state = _dirty_state(hp, corpus)
    ctx = UpdateContext(state, corpus)
    layout = state.layout
    n = layout.n_topics
    offsets = [0, 3, 5]
    tokens = [t for sn in corpus.snippets[0] for t in sn.tokens]

    e_psi = _elog(state.psi_factor(0).concentration)
    e_a = _elog(state.theta_A_factor(0).concentration)
    e_v = _elog(state.theta_V.concentration)
    e_b = _elog(state.theta_B.concentration)
    e_i = _elog(state.theta_I.concentration)
    e_phi = _elog(state.phi_factor(0).concentration)
    e_eta = _elog(state.eta.concentration)
    e_start = _elog(state.trans_start.concentration)
    e_main = _elog(state.trans_main.concentration)

    def softmax(scores):
        z = np.exp(scores - scores.max())
        return z / z.sum()

    max_err = 0.0
    for sn in range(2):
        lo, hi = offsets[sn], offsets[sn + 1]
        qa = state.qa[0][sn]
        qv = state.qv[0][sn]
        qw = state.qw[0]

        scores = np.zeros(hp.K)
        for a in range(hp.K):
            s = e_psi[a]
            for t in range(lo, hi):
                s += qw[t, layout.col("A")] * e_a[a, tokens[t].word]
            for v in range(hp.N):
                s += qv[v] * e_phi[a, v]
            scores[a] = s
        got = update_snippet_aspect(ctx, 0, sn)
        max_err = max(max_err, np.abs(got - softmax(scores)).max())

        scores = np.zeros(hp.N)
        for v in range(hp.N):
            s = 0.0
            for a in range(hp.K):
                s += qa[a] * e_phi[a, v]
            for t in range(lo, hi):
                s += qw[t, layout.col("V")] * e_v[v, tokens[t].word]
            scores[v] = s
        got = update_snippet_value(ctx, 0, sn)
        max_err = max(max_err, np.abs(got - softmax(scores)).max())

        for t in range(lo, hi):
            w = tokens[t].word
            tag = tokens[t].tag
            scores = hp.topic_prior_vector(layout).astype(float).copy()
            if t == lo:
                scores += e_start
            else:
                for r in range(n):
                    scores += qw[t - 1, r] * e_main[r, :n]
            if t == hi - 1:
                scores += e_main[:, layout.end_col]
            else:
                for r in range(n):
                    scores += e_main[:, r] * qw[t + 1, r]
            for a in range(hp.K):
                scores[layout.col("A")] += qa[a] * e_a[a, w]
            for v in range(hp.N):
                scores[layout.col("V")] += qv[v] * e_v[v, w]
            scores[layout.col("B")] += e_b[w]
            scores[layout.col("I")] += e_i[w]
            scores += e_eta[:, tag]
            got = update_word_topic(ctx, 0, sn, t - lo)
            max_err = max(max_err, np.abs(got - softmax(scores)).max())

    ok = max_err <= 1e-10
    detail = (
        f"aspect, value, and word-role updates on the 2-snippet toy match "
        f"term-by-term scores to {max_err:.2e} vs 1e-10"
    )
    report(8, ok, detail)


def test_criterion_09_parameter_updates_match_brute_force():
    corpus = _toy_corpus()
    hp = Hyperparameters(K=2, N=2, use_ignore=True, use_pos=True)
    state = build_priors(hp, corpus, None)
    priors = {id(f): f.concentration.copy() for f in state.parameter_factors()}

    qa = [[0.35, 0.65], [0.9, 0.1]]
    qv = [[0.2, 0.8], [0.55, 0.45]]
    qw = [
        [0.35, 0.15, 0.5, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.25, 0.25, 0.25, 0.25],
        [0.0, 0.6, 0.4, 0.0],
    ]
    state.qa[0] = np.array(qa)
    state.qv[0] = np.array(qv)
    state.qw[0] = np.array(qw)
    ctx = UpdateContext(state, corpus)
    update_parameters(ctx)

    layout = state.layout
    n = layout.n_topics
    V, T = 4, 2
    offsets = [0, 3, 5]
    tokens = [t for sn in corpus.snippets[0] for t in sn.tokens]
    cols = {letter: layout.col(letter) for letter in ("A", "V", "B", "I")}

    psi_c = [sum(qa[sn][a] for sn in range(2)) for a in range(2)]
    phi_c = [[sum(qa[sn][a] * qv[sn][v] for sn in range(2)) for v in range(2)]
             for a in range(2)]
    theta_a_c = [[0.0] * V for _ in range(2)]
    theta_v_c = [[0.0] * V for _ in range(2)]
    theta_b_c = [0.0] * V
    theta_i_c = [0.0] * V
    eta_c = [[0.0] * T for _ in range(n)]
    start_c = [0.0] * n
    main_c = [[0.0] * (n + 1) for _ in range(n)]
    for sn in range(2):
        lo, hi = offsets[sn], offsets[sn + 1]
        for t in range(lo, hi):
            w, tag = tokens[t].word, tokens[t].tag
            for a in range(2):
                theta_a_c[a][w] += qa[sn][a] * qw[t][cols["A"]]
            for v in range(2):
                theta_v_c[v][w] += qv[sn][v] * qw[t][cols["V"]]
            theta_b_c[w] += qw[t][cols["B"]]
            theta_i_c[w] += qw[t][cols["I"]]
            for r in range(n):
                eta_c[r][tag] += qw[t][r]
        for r in range(n):
            start_c[r] += qw[lo][r]
            main_c[r][layout.end_col] += qw[hi - 1][r]
        for t in range(lo, hi - 1):
            for r1 in range(n):
                for r2 in range(n):
                    main_c[r1][r2] += qw[t][r1] * qw[t + 1][r2]

    def err(factor, counts):
        want = priors[id(factor)] + np.array(counts)
        return np.abs(factor.concentration - want).max()

    max_err = max(
        err(state.psi_factor(0), psi_c),
        err(state.phi_factor(0), phi_c),
        err(state.theta_A_factor(0), theta_a_c),
        err(state.theta_V, theta_v_c),
        err(state.theta_B, theta_b_c),
        err(state.theta_I, theta_i_c),
        err(state.eta, eta_c),
        err(state.trans_start, start_c),
        err(state.trans_main, main_c),
    )
    ok = max_err <= 1e-12
    detail = (
        f"all nine parameter factors equal prior plus hand-accumulated "
        f"fractional counts to {max_err:.2e} vs 1e-12"
    )
    report(9, ok, detail)


def test_criterion_10_model_reductions():
    corpus = _toy_corpus()
    problems = []

    state, _ = run_inference(Hyperparameters(K=2, N=2, max_iters=3, rng_seed=0),
                             corpus, None)
    if state.layout.letters != ("A", "V", "B") or state.theta_I is not None:
        problems.append("ignore role present without use_ignore")
    if state.qw[0].shape[1] != 3:
        problems.append("word posterior has a column for a disabled role")

    state, _ = run_inference(Hyperparameters(K=2, N=0, max_iters=3, rng_seed=0),
                             corpus, None)
    if state.layout.letters != ("A", "B"):
        problems.append("value role survives N=0")
    if state.theta_V is not None or state.qv is not None or state.phi:
        problems.append("value factors survive N=0")

    base = Hyperparameters(K=2, N=2, max_iters=6, rng_seed=2)
    shared = Hyperparameters(K=2, N=2, max_iters=6, rng_seed=2,
                             shared_aspects=True, shared_aspect_multinomial=True)
    s1, _ = run_inference(base, corpus, None)
    s2, _ = run_inference(shared, corpus, None)
    gap = max(
        np.abs(s1.qa[0] - s2.qa[0]).max(),
        np.abs(s1.qw[0] - s2.qw[0]).max(),
        np.abs(s1.theta_A_factor(0).concentration
               - s2.theta_A_factor(0).concentration).max(),
        np.abs(s1.psi_factor(0).concentration
               - s2.psi_factor(0).concentration).max(),
    )
    if gap > 1e-10:
        problems.append(f"shared pooling differs on one entity by {gap:.2e}")

    ok = not problems
    detail = (
        "ignore-role, N=0, and shared-parameter reductions all collapse "
        f"correctly (single-entity pooling gap {gap:.2e} vs 1e-10)"
        if ok else "; ".join(problems)
    )
    report(10, ok, detail)


def test_criterion_11_large_corpus_runtime():
    syn = make_separable(
        gen_hp(K=10),
        CorpusShape(n_entities=300, snippets_per_entity=42, mean_words=8.0,
                    vocab_size=1200, seed_words_per_value=10),
        separation=1.0, rng_seed=5, topic_mix=[0.6, 0.25, 0.15],
    )
    n_tokens = sum(len(sn) for g in syn.corpus.snippets for sn in g)
    hp = Hyperparameters(K=10, N=2, max_iters=50, rng_seed=0)
    start = time.perf_counter()
    _, reports = run_inference(hp, syn.corpus, syn.seeds, threads=4)
    elapsed = time.perf_counter() - start
    ok = n_tokens >= 100_000 and len(reports) == 50 and elapsed <= 120.0
    detail = (
        f"{n_tokens} tokens, {len(reports)} iterations in {elapsed:.1f}s "
        f"of 120s on 4 threads"
    )
    report(11, ok, detail)
