"""Coordinate-descent mean-field fitting.

Each latent posterior update is the exact coordinate optimum given the
rest of the state: take expected log scores, subtract the row maximum,
exponentiate, and normalize. Parameter factors then become prior plus
expected counts, where every snippet and token contributes fractionally
under its current posterior (a snippet with q(Z_A = a) = 0.35 adds 0.35
to aspect a's mixture count, and so on for emissions and transitions).

Two schedules are provided. The batch schedule recomputes every latent
posterior from the previous iteration's state and then applies one
simultaneous parameter update; entities are independent given the old
state, so the work may be split across threads, and partial counts are
always merged in entity order, making results bit-identical for any
thread count. The sequential schedule is the left-to-right sweep of
exact coordinate moves (per snippet: aspect, value, then each word in
order), so its free energy never increases. It runs as a positional
wavefront over the corpus packed into one token stream: parameters are
refit only at the end of a pass, so within a pass a snippet's updates
read nothing of any other snippet, and position p of every snippet is
updated in one vector step. Each word step reads the new posterior of
position p-1 and the old one of p+1, exactly what the one-token-at-a-time
sweep reads, so both make the same moves in the same order.
"""

from __future__ import annotations

import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.special import xlogy

from snipagg.baselines import Clustering
from snipagg.corpus import Corpus, SeedLexicon
from snipagg.model import (
    DirichletFactor,
    Hyperparameters,
    ModelError,
    TopicLayout,
    VariationalState,
    init_state,
)

log = logging.getLogger(__name__)

# Fitting stops early once no posterior component moved by more than this.
EARLY_STOP_TOL = 1e-5


class InferenceError(RuntimeError):
    """Raised when an update is requested that the configuration disables."""


@dataclass(frozen=True)
class FreeEnergyReport:
    """Variational free energy after one full pass (lower is better)."""

    iteration: int
    value: float


class _EntityData:
    """Flat token arrays for one entity, tokens concatenated in snippet order."""

    __slots__ = (
        "words",
        "tags",
        "snip_of_token",
        "offsets",
        "first_idx",
        "last_idx",
        "inner_idx",
        "nonlast_idx",
        "n_snippets",
        "n_tokens",
    )

    def __init__(self, snippets):
        words, tags, snip_of_token = [], [], []
        offsets = [0]
        for j, sn in enumerate(snippets):
            for tok in sn.tokens:
                words.append(tok.word)
                tags.append(tok.tag)
                snip_of_token.append(j)
            offsets.append(len(words))
        self.words = np.asarray(words, dtype=np.int64)
        self.tags = np.asarray(tags, dtype=np.int64)
        self.snip_of_token = np.asarray(snip_of_token, dtype=np.int64)
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.first_idx = self.offsets[:-1]
        self.last_idx = self.offsets[1:] - 1
        all_idx = np.arange(len(words), dtype=np.int64)
        first = np.zeros(len(words), dtype=bool)
        first[self.first_idx] = True
        last = np.zeros(len(words), dtype=bool)
        last[self.last_idx] = True
        self.inner_idx = all_idx[~first]
        self.nonlast_idx = all_idx[~last]
        self.n_snippets = len(snippets)
        self.n_tokens = len(words)


def _build_entity_data(corpus: Corpus) -> list[_EntityData]:
    return [_EntityData(group) for group in corpus.snippets]


class _PackedCorpus:
    """Every entity's tokens as one stream, entities in corpus order.

    Snippets and tokens get global indices; entity i owns snippets
    snippet_bounds[i]:snippet_bounds[i+1] and tokens
    token_bounds[i]:token_bounds[i+1]. by_length pairs the snippets of
    each length with their token indices, one row per snippet.
    positions[p] holds the token at position p of every snippet longer
    than p, longest snippets first, and how many of them (the leading
    ones) have a next token.
    """

    def __init__(self, data: list[_EntityData]):
        self.snippet_bounds = np.cumsum([0] + [ent.n_snippets for ent in data])
        self.token_bounds = np.cumsum([0] + [ent.n_tokens for ent in data])
        self.n_snippets = int(self.snippet_bounds[-1])
        self.n_tokens = int(self.token_bounds[-1])
        self.words = np.empty(self.n_tokens, dtype=np.int64)
        self.tags = np.empty(self.n_tokens, dtype=np.int64)
        self.snip_of_token = np.empty(self.n_tokens, dtype=np.int64)
        offsets = np.zeros(self.n_snippets + 1, dtype=np.int64)
        for ent, s0, t0 in zip(data, self.snippet_bounds, self.token_bounds):
            t1 = t0 + ent.n_tokens
            self.words[t0:t1] = ent.words
            self.tags[t0:t1] = ent.tags
            self.snip_of_token[t0:t1] = ent.snip_of_token + s0
            offsets[s0 + 1:s0 + ent.n_snippets + 1] = ent.offsets[1:] + t0
        first, lengths = offsets[:-1], np.diff(offsets)
        self.by_length = []
        for length in np.unique(lengths):
            snips = np.flatnonzero(lengths == length)
            self.by_length.append((snips, first[snips, None] + np.arange(length)))
        order = np.argsort(-lengths, kind="stable")
        first, lengths = first[order], lengths[order]
        self.positions = [
            (first[lengths > p] + p, int(np.count_nonzero(lengths > p + 1)))
            for p in range(int(lengths.max(initial=0)))
        ]

    def entity_slices(self):
        """(entity, snippet slice, token slice) for every entity."""
        for i in range(len(self.snippet_bounds) - 1):
            yield (
                i,
                slice(self.snippet_bounds[i], self.snippet_bounds[i + 1]),
                slice(self.token_bounds[i], self.token_bounds[i + 1]),
            )

    def bind(self, state: VariationalState):
        """Copy the state's posteriors into packed arrays and make the
        state's per-entity arrays views of them; returns (qa, qv, qw)."""

        def pack(arrays, width):
            return np.concatenate([np.empty((0, width))] + arrays)

        qa = pack(state.qa, state.hp.K)
        qv = None if state.qv is None else pack(state.qv, state.hp.N)
        qw = pack(state.qw, state.layout.n_topics)
        for i, snips, toks in self.entity_slices():
            state.qa[i] = qa[snips]
            if qv is not None:
                state.qv[i] = qv[snips]
            state.qw[i] = qw[toks]
        return qa, qv, qw

    def snippet_sums(self, qw: np.ndarray, col: int, x: np.ndarray) -> np.ndarray:
        """x @ qw[:, col] over the tokens of each snippet: x (C, T) -> (S, C).

        The weights stay a strided column of qw, as in the per-op updates,
        so that BLAS sums them in the same order.
        """
        out = np.empty((self.n_snippets, x.shape[0]))
        for snips, idx in self.by_length:
            out[snips] = np.matmul(qw[idx][:, None, :, col], x[:, idx].transpose(1, 2, 0))[:, 0]
        return out

    def per_snippet(
        self, factor_of: Callable[[int], DirichletFactor], shape: tuple[int, ...]
    ) -> np.ndarray:
        """factor_of(i)'s expected log table, once per snippet of entity i."""
        out = np.empty((self.n_snippets,) + shape)
        for i, snips, _ in self.entity_slices():
            out[snips] = factor_of(i).expected_log()
        return out


def _softmax_rows(scores: np.ndarray) -> np.ndarray:
    """Normalize log scores along the last axis, guarding overflow."""
    scores = scores - scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores


class UpdateContext:
    """A read state plus write buffers for one update pass.

    In batch mode every read sees the state as it was when the context
    was created, and writes land in separate buffers (commit() copies
    them back into the state). In sequential mode reads and writes share
    the state's own arrays, so each update sees the freshest values.
    """

    def __init__(self, state: VariationalState, corpus: Corpus, sequential: bool = False):
        if not state.matches_corpus(corpus):
            raise ModelError("state shape does not match corpus")
        self.state = state
        self.data = _build_entity_data(corpus)
        self.sequential = sequential
        if sequential:
            self.new_qa = state.qa
            self.new_qv = state.qv
            self.new_qw = state.qw
        else:
            self.new_qa = [a.copy() for a in state.qa]
            self.new_qv = None if state.qv is None else [a.copy() for a in state.qv]
            self.new_qw = [a.copy() for a in state.qw]

    def commit(self) -> None:
        """Adopt the write buffers as the state's posteriors (batch mode)."""
        if not self.sequential:
            self.state.qa = self.new_qa
            self.state.qv = self.new_qv
            self.state.qw = self.new_qw


def update_snippet_aspect(ctx: UpdateContext, entity: int, snippet: int) -> np.ndarray:
    """Recompute q(Z_A) for one snippet and store it in the write buffer.

    score(a) = E[log psi(a)] + sum_w q(Z_W(w) = A) E[log theta_A(a, word_w)]
             + sum_v q(Z_V = v) E[log phi(a, v)]
    """
    state, ent = ctx.state, ctx.data[entity]
    layout = state.layout
    lo, hi = ent.offsets[snippet], ent.offsets[snippet + 1]
    words = ent.words[lo:hi]
    q_word_a = state.qw[entity][lo:hi, layout.col("A")]
    elog_a = state.theta_A_factor(entity).expected_log()
    score = state.psi_factor(entity).expected_log().copy()
    score += q_word_a @ elog_a[:, words].T
    if state.qv is not None:
        score += state.phi_factor(entity).expected_log() @ state.qv[entity][snippet]
    q = _softmax_rows(score)
    ctx.new_qa[entity][snippet] = q
    return q


def update_snippet_value(ctx: UpdateContext, entity: int, snippet: int) -> np.ndarray:
    """Recompute q(Z_V) for one snippet and store it in the write buffer.

    score(v) = sum_a q(Z_A = a) E[log phi(a, v)]
             + sum_w q(Z_W(w) = V) E[log theta_V(v, word_w)]
    """
    state, ent = ctx.state, ctx.data[entity]
    if state.qv is None:
        raise InferenceError("value update requested but N = 0")
    layout = state.layout
    lo, hi = ent.offsets[snippet], ent.offsets[snippet + 1]
    words = ent.words[lo:hi]
    qa = state.qa[entity][snippet]
    q_word_v = state.qw[entity][lo:hi, layout.col("V")]
    score = qa @ state.phi_factor(entity).expected_log()
    score += q_word_v @ state.theta_V.expected_log()[:, words].T
    q = _softmax_rows(score)
    ctx.new_qv[entity][snippet] = q
    return q


def update_word_topic(ctx: UpdateContext, entity: int, snippet: int, word: int) -> np.ndarray:
    """Recompute q(Z_W) for one token and store it in the write buffer.

    The score of role T combines the fixed topic prior, expected log
    transitions from the previous token's posterior (or the start row)
    and into the next token's posterior (or the end column), the
    emission term marginalized under the snippet's aspect or value
    posterior, and the tag emission when tags are modeled. A single-word
    snippet uses only start-to-T and T-to-end transitions.
    """
    state, ent = ctx.state, ctx.data[entity]
    layout = state.layout
    n = layout.n_topics
    lo, hi = ent.offsets[snippet], ent.offsets[snippet + 1]
    t = lo + word
    if not (lo <= t < hi):
        raise InferenceError(f"word index {word} out of range for snippet {snippet}")
    w = ent.words[t]
    qw_read = state.qw[entity]
    qa = state.qa[entity][snippet]
    elog_main = state.trans.elog_main()

    score = state.hp.topic_prior_vector(layout).copy()
    if t == lo:
        score += state.trans.elog_start()
    else:
        score += qw_read[t - 1] @ elog_main[:, :n]
    if t == hi - 1:
        score += elog_main[:, layout.end_col]
    else:
        score += elog_main[:, :n] @ qw_read[t + 1]

    score[layout.col("A")] += qa @ state.theta_A_factor(entity).expected_log()[:, w]
    if state.qv is not None:
        qv = state.qv[entity][snippet]
        score[layout.col("V")] += qv @ state.theta_V.expected_log()[:, w]
    score[layout.col("B")] += state.theta_B.expected_log()[w]
    if layout.has_ignore:
        score[layout.col("I")] += state.theta_I.expected_log()[w]
    if state.eta is not None:
        score += state.eta.expected_log()[:, ent.tags[t]]
    q = _softmax_rows(score)
    ctx.new_qw[entity][t] = q
    return q


def _entity_counts(
    ent: _EntityData,
    qa: np.ndarray,
    qv: Optional[np.ndarray],
    qw: np.ndarray,
    layout: TopicLayout,
    vocab_size: int,
    tag_count: int,
    use_pos: bool,
) -> dict:
    """Expected sufficient statistics contributed by one entity."""
    n = layout.n_topics
    col_a, col_b = layout.col("A"), layout.col("B")
    counts: dict = {}
    counts["psi"] = qa.sum(axis=0)
    if qv is not None:
        counts["phi"] = qa.T @ qv
    weights_a = qa[ent.snip_of_token] * qw[:, col_a:col_a + 1]
    counts["theta_A"] = np.stack(
        [
            np.bincount(ent.words, weights=weights_a[:, a], minlength=vocab_size)
            for a in range(qa.shape[1])
        ]
    )
    if qv is not None:
        col_v = layout.col("V")
        weights_v = qv[ent.snip_of_token] * qw[:, col_v:col_v + 1]
        counts["theta_V"] = np.stack(
            [
                np.bincount(ent.words, weights=weights_v[:, v], minlength=vocab_size)
                for v in range(qv.shape[1])
            ]
        )
    counts["theta_B"] = np.bincount(
        ent.words, weights=qw[:, col_b], minlength=vocab_size
    )
    if layout.has_ignore:
        counts["theta_I"] = np.bincount(
            ent.words, weights=qw[:, layout.col("I")], minlength=vocab_size
        )
    counts["trans_start"] = qw[ent.first_idx].sum(axis=0)
    main = np.zeros((n, n + 1))
    left = qw[ent.nonlast_idx]
    right = qw[ent.nonlast_idx + 1]
    main[:, :n] = left.T @ right
    main[:, layout.end_col] = qw[ent.last_idx].sum(axis=0)
    counts["trans_main"] = main
    if use_pos:
        counts["eta"] = np.stack(
            [
                np.bincount(ent.tags, weights=qw[:, t], minlength=tag_count)
                for t in range(n)
            ]
        )
    return counts


def _apply_counts(state: VariationalState, counts_list: list[dict]) -> None:
    """Set every parameter factor to prior plus merged expected counts.

    Partial counts are merged strictly in entity order, so the result
    does not depend on how the per-entity work was scheduled.
    """
    hp, layout = state.hp, state.layout
    n = layout.n_topics
    theta_b = np.zeros(state.vocab_size)
    trans_start = np.zeros(n)
    trans_main = np.zeros((n, n + 1))
    theta_v = np.zeros((hp.N, state.vocab_size)) if state.theta_V is not None else None
    theta_i = np.zeros(state.vocab_size) if state.theta_I is not None else None
    eta = np.zeros((n, state.tag_count)) if state.eta is not None else None
    pool_a = np.zeros((hp.K, state.vocab_size)) if hp.shared_aspects else None
    pool_phi = (
        np.zeros((hp.K, hp.N)) if hp.shared_aspects and state.qv is not None else None
    )
    pool_psi = np.zeros(hp.K) if hp.shared_aspect_multinomial else None

    for i, c in enumerate(counts_list):
        theta_b += c["theta_B"]
        trans_start += c["trans_start"]
        trans_main += c["trans_main"]
        if theta_v is not None:
            theta_v += c["theta_V"]
        if theta_i is not None:
            theta_i += c["theta_I"]
        if eta is not None:
            eta += c["eta"]
        if pool_a is not None:
            pool_a += c["theta_A"]
            if pool_phi is not None:
                pool_phi += c["phi"]
        else:
            state.theta_A[i].set_counts(c["theta_A"])
            if state.qv is not None:
                state.phi[i].set_counts(c["phi"])
        if pool_psi is not None:
            pool_psi += c["psi"]
        else:
            state.psi[i].set_counts(c["psi"])

    state.theta_B.set_counts(theta_b)
    state.trans.set_counts(trans_start, trans_main)
    if theta_v is not None:
        state.theta_V.set_counts(theta_v)
    if theta_i is not None:
        state.theta_I.set_counts(theta_i)
    if eta is not None:
        state.eta.set_counts(eta)
    if pool_a is not None:
        state.theta_A[0].set_counts(pool_a)
        if pool_phi is not None:
            state.phi[0].set_counts(pool_phi)
    if pool_psi is not None:
        state.psi[0].set_counts(pool_psi)


def _refit(
    state: VariationalState,
    data: list[_EntityData],
    qa: list[np.ndarray],
    qv: Optional[list[np.ndarray]],
    qw: list[np.ndarray],
) -> None:
    """Set every parameter factor to prior plus the expected counts of
    the per-entity posteriors qa, qv and qw."""
    counts = [
        _entity_counts(
            ent,
            qa[i],
            None if qv is None else qv[i],
            qw[i],
            state.layout,
            state.vocab_size,
            state.tag_count,
            state.eta is not None,
        )
        for i, ent in enumerate(data)
    ]
    _apply_counts(state, counts)


def update_parameters(ctx: UpdateContext) -> None:
    """Refit every parameter factor from the context's latest posteriors."""
    _refit(ctx.state, ctx.data, ctx.new_qa, ctx.new_qv, ctx.new_qw)


def _value_step(
    pack: _PackedCorpus,
    qa: np.ndarray,
    qw: np.ndarray,
    col_v: int,
    phi: np.ndarray,
    ev: np.ndarray,
) -> np.ndarray:
    """update_snippet_value for every snippet at once.

    qa is (S, K) and phi holds each snippet's E[log phi], (S, K, N);
    col_v is the V column of qw, and ev holds the value emissions E[log
    theta_V] of each token's word, (N, T).
    """
    score = np.matmul(qa[:, None, :], phi)[:, 0]
    score += pack.snippet_sums(qw, col_v, ev)
    return _softmax_rows(score)


def _token_dots(q: np.ndarray, e: np.ndarray) -> np.ndarray:
    """q[t] @ e[:, t] for every token t: q (T, C), e (C, T) -> (T,)."""
    return np.matmul(q[:, None, :], e.T[:, :, None])[:, 0, 0]


def _max_change(new: np.ndarray, old: np.ndarray) -> float:
    return float(np.abs(new - old).max()) if new.size else 0.0


def _wavefront_pass(
    state: VariationalState,
    pack: _PackedCorpus,
    qa: np.ndarray,
    qv: Optional[np.ndarray],
    qw: np.ndarray,
) -> float:
    """One sequential pass over the packed posteriors, updated in place.

    Makes the moves of the per-op sweep (update_snippet_aspect, then
    update_snippet_value, then update_word_topic left to right, snippet
    by snippet) with the same reads: the aspect step reads the old
    q(Z_W) and q(Z_V), the value step the new q(Z_A), and the word step
    at position p the new q(Z_W) at p-1 and the old one at p+1. Each
    product has the operand shapes and memory layout of its per-op
    counterpart, so that BLAS sums it in the same order. Returns the
    largest absolute posterior change (NaN if any posterior is NaN).
    """
    hp, layout = state.hp, state.layout
    n = layout.n_topics
    col_a = layout.col("A")
    words = pack.words
    ea = np.empty((hp.K, pack.n_tokens))
    for i, _, toks in pack.entity_slices():
        ea[:, toks] = state.theta_A_factor(i).expected_log()[:, words[toks]]

    score = pack.per_snippet(state.psi_factor, (hp.K,))
    score += pack.snippet_sums(qw, col_a, ea)
    if qv is not None:
        phi = pack.per_snippet(state.phi_factor, (hp.K, hp.N))
        score += np.matmul(phi, qv[:, :, None])[:, :, 0]
    new_qa = _softmax_rows(score)
    changes = [_max_change(new_qa, qa)]
    qa[:] = new_qa

    emis = np.empty((pack.n_tokens, n))
    emis[:, col_a] = _token_dots(qa[pack.snip_of_token], ea)
    if qv is not None:
        col_v = layout.col("V")
        ev = state.theta_V.expected_log()[:, words]
        new_qv = _value_step(pack, qa, qw, col_v, phi, ev)
        changes.append(_max_change(new_qv, qv))
        qv[:] = new_qv
        emis[:, col_v] = _token_dots(qv[pack.snip_of_token], ev)
    emis[:, layout.col("B")] = state.theta_B.expected_log()[words]
    if layout.has_ignore:
        emis[:, layout.col("I")] = state.theta_I.expected_log()[words]
    eta = None if state.eta is None else state.eta.expected_log()[:, pack.tags].T

    # The terms are added in update_word_topic's order (prior, into the
    # token, out of it, emission, tag), so the sums round the same way.
    prior = hp.topic_prior_vector(layout)
    elog_main = state.trans.elog_main()
    main, end = elog_main[:, :n], elog_main[:, layout.end_col]
    old_qw = qw.copy()
    for p, (tok, n_lead) in enumerate(pack.positions):
        score = np.tile(prior, (len(tok), 1))
        if p == 0:
            score += state.trans.elog_start()
        else:
            score += np.matmul(qw[tok - 1][:, None, :], main)[:, 0]
        score[:n_lead] += np.matmul(main, qw[tok[:n_lead] + 1][:, :, None])[:, :, 0]
        score[n_lead:] += end
        score += emis[tok]
        if eta is not None:
            score += eta[tok]
        qw[tok] = _softmax_rows(score)
    changes.append(_max_change(qw, old_qw))
    return float(np.max(changes))


def _entity_batch_update(state: VariationalState, ent: _EntityData, i: int):
    """One batch update of every latent posterior owned by entity i.

    Reads only the previous iteration's state; returns the new
    posteriors, the entity's expected counts under them, and the largest
    absolute posterior change.
    """
    hp, layout = state.hp, state.layout
    n = layout.n_topics
    col_a, col_b = layout.col("A"), layout.col("B")
    qa_old = state.qa[i]
    qv_old = None if state.qv is None else state.qv[i]
    qw_old = state.qw[i]

    elog_a = state.theta_A_factor(i).expected_log()
    elog_psi = state.psi_factor(i).expected_log()
    elog_b = state.theta_B.expected_log()
    elog_start = state.trans.elog_start()
    elog_main = state.trans.elog_main()
    ea = elog_a[:, ent.words].T

    a_scores = elog_psi[None, :] + np.add.reduceat(
        qw_old[:, col_a:col_a + 1] * ea, ent.first_idx, axis=0
    )
    if qv_old is not None:
        elog_phi = state.phi_factor(i).expected_log()
        a_scores = a_scores + qv_old @ elog_phi.T
    new_qa = _softmax_rows(a_scores)

    new_qv = None
    ev = None
    if qv_old is not None:
        col_v = layout.col("V")
        ev = state.theta_V.expected_log()[:, ent.words].T
        v_scores = qa_old @ elog_phi + np.add.reduceat(
            qw_old[:, col_v:col_v + 1] * ev, ent.first_idx, axis=0
        )
        new_qv = _softmax_rows(v_scores)

    trans_in = np.empty((ent.n_tokens, n))
    trans_in[ent.first_idx] = elog_start
    trans_in[ent.inner_idx] = qw_old[ent.inner_idx - 1] @ elog_main[:, :n]
    trans_out = np.empty((ent.n_tokens, n))
    trans_out[ent.last_idx] = elog_main[:, layout.end_col]
    trans_out[ent.nonlast_idx] = qw_old[ent.nonlast_idx + 1] @ elog_main[:, :n].T

    emis = np.empty((ent.n_tokens, n))
    emis[:, col_a] = (qa_old[ent.snip_of_token] * ea).sum(axis=1)
    if qv_old is not None:
        emis[:, layout.col("V")] = (qv_old[ent.snip_of_token] * ev).sum(axis=1)
    emis[:, col_b] = elog_b[ent.words]
    if layout.has_ignore:
        emis[:, layout.col("I")] = state.theta_I.expected_log()[ent.words]

    w_scores = trans_in + trans_out + emis
    w_scores += hp.topic_prior_vector(layout)[None, :]
    if state.eta is not None:
        w_scores += state.eta.expected_log()[:, ent.tags].T
    new_qw = _softmax_rows(w_scores)

    delta = max(
        float(np.abs(new_qa - qa_old).max()),
        float(np.abs(new_qw - qw_old).max()),
    )
    if qv_old is not None:
        delta = max(delta, float(np.abs(new_qv - qv_old).max()))

    counts = _entity_counts(
        ent, new_qa, new_qv, new_qw, layout, state.vocab_size,
        state.tag_count, state.eta is not None,
    )
    return new_qa, new_qv, new_qw, counts, delta


def _entity_free_energy(state: VariationalState, ent: _EntityData, i: int) -> float:
    """Negative expected complete log likelihood plus negative entropy
    for the snippets of entity i."""
    layout = state.layout
    n = layout.n_topics
    qa = state.qa[i]
    qv = None if state.qv is None else state.qv[i]
    qw = state.qw[i]

    elog_a = state.theta_A_factor(i).expected_log()
    elog_psi = state.psi_factor(i).expected_log()
    elog_b = state.theta_B.expected_log()
    elog_start = state.trans.elog_start()
    elog_main = state.trans.elog_main()

    like = float((qa * elog_psi[None, :]).sum())
    if qv is not None:
        elog_phi = state.phi_factor(i).expected_log()
        like += float(np.einsum("sa,sv,av->", qa, qv, elog_phi))

    ea = elog_a[:, ent.words].T
    emis = np.empty((ent.n_tokens, n))
    emis[:, layout.col("A")] = (qa[ent.snip_of_token] * ea).sum(axis=1)
    if qv is not None:
        ev = state.theta_V.expected_log()[:, ent.words].T
        emis[:, layout.col("V")] = (qv[ent.snip_of_token] * ev).sum(axis=1)
    emis[:, layout.col("B")] = elog_b[ent.words]
    if layout.has_ignore:
        emis[:, layout.col("I")] = state.theta_I.expected_log()[ent.words]
    like += float((qw * emis).sum())
    like += float(qw.sum(axis=0) @ state.hp.topic_prior_vector(layout))
    if state.eta is not None:
        like += float((qw * state.eta.expected_log()[:, ent.tags].T).sum())

    like += float((qw[ent.first_idx] @ elog_start).sum())
    left = qw[ent.nonlast_idx]
    right = qw[ent.nonlast_idx + 1]
    like += float(np.einsum("wt,wu,tu->", left, right, elog_main[:, :n]))
    like += float((qw[ent.last_idx] @ elog_main[:, layout.end_col]).sum())

    neg_entropy = float(xlogy(qa, qa).sum()) + float(xlogy(qw, qw).sum())
    if qv is not None:
        neg_entropy += float(xlogy(qv, qv).sum())
    return -like + neg_entropy


def _free_energy(state: VariationalState, data: list[_EntityData]) -> float:
    total = 0.0
    for f in state.parameter_factors():
        total += f.kl_to_prior()
    for i, ent in enumerate(data):
        total += _entity_free_energy(state, ent, i)
    return total


def compute_free_energy(
    state: VariationalState, corpus: Corpus, hp: Optional[Hyperparameters] = None
) -> float:
    """Mean-field free energy of a state on its corpus.

    This is the sum over factors of KL(posterior || prior) minus the
    expected complete-data log likelihood minus the posterior entropy.
    An empty corpus at the prior state scores exactly 0, and the value
    is additive over entities that share no factors.
    """
    if hp is not None and hp != state.hp:
        raise ModelError("hyperparameters do not match the state")
    if not state.matches_corpus(corpus):
        raise ModelError("state shape does not match corpus")
    return _free_energy(state, _build_entity_data(corpus))


def _end_iteration(
    it: int,
    fe: float,
    delta: float,
    t0: float,
    reports: list[FreeEnergyReport],
    progress: Optional[Callable[[int, float, float], None]],
) -> bool:
    """Report one finished pass; True when the fit should stop there.

    The fit stops once no posterior component moved by EARLY_STOP_TOL,
    and at the first pass whose free energy or posterior change is not
    finite: no later pass can recover from it.
    """
    seconds = time.perf_counter() - t0
    reports.append(FreeEnergyReport(it, fe))
    log.info(
        "iteration %d: free energy %.6f, max q change %.2e, %.2fs",
        it, fe, delta, seconds,
    )
    if progress is not None:
        progress(it, fe, seconds)
    if not (np.isfinite(fe) and np.isfinite(delta)):
        log.warning("iteration %d: free energy or posterior change is not finite", it)
        return True
    return delta < EARLY_STOP_TOL


def _fit_batch(
    state: VariationalState,
    data: list[_EntityData],
    threads: int,
    reports: list[FreeEnergyReport],
    progress: Optional[Callable[[int, float, float], None]],
) -> None:
    n_entities = len(data)
    chunks = [c for c in np.array_split(np.arange(n_entities), max(1, threads)) if len(c)]

    def run_chunk(idxs):
        return [(_entity_batch_update(state, data[i], i)) for i in idxs]

    pool = ThreadPoolExecutor(max_workers=threads) if threads > 1 else None
    try:
        state.refresh_caches()
        for it in range(1, state.hp.max_iters + 1):
            t0 = time.perf_counter()
            if pool is not None:
                futures = [pool.submit(run_chunk, c) for c in chunks]
                chunk_results = [f.result() for f in futures]
            else:
                chunk_results = [run_chunk(c) for c in chunks]
            results = [r for chunk in chunk_results for r in chunk]

            delta = 0.0
            counts_list = []
            for i, (new_qa, new_qv, new_qw, counts, d) in enumerate(results):
                state.qa[i] = new_qa
                if state.qv is not None:
                    state.qv[i] = new_qv
                state.qw[i] = new_qw
                counts_list.append(counts)
                delta = max(delta, d)
            _apply_counts(state, counts_list)
            state.refresh_caches()

            fe = _free_energy(state, data)
            if _end_iteration(it, fe, delta, t0, reports, progress):
                break
    finally:
        if pool is not None:
            pool.shutdown()


def _fit_sequential(
    state: VariationalState,
    data: list[_EntityData],
    pack: _PackedCorpus,
    q: tuple[np.ndarray, Optional[np.ndarray], np.ndarray],
    reports: list[FreeEnergyReport],
    progress: Optional[Callable[[int, float, float], None]],
) -> None:
    for it in range(1, state.hp.max_iters + 1):
        t0 = time.perf_counter()
        delta = _wavefront_pass(state, pack, *q)
        _refit(state, data, state.qa, state.qv, state.qw)
        state.refresh_caches()
        fe = _free_energy(state, data)
        if _end_iteration(it, fe, delta, t0, reports, progress):
            break


def _prime(
    state: VariationalState,
    data: list[_EntityData],
    pack: _PackedCorpus,
    qa: np.ndarray,
    qv: Optional[np.ndarray],
    qw: np.ndarray,
) -> None:
    """Set the parameter factors to the expected counts of the initial
    responsibilities.

    Starting the first pass from bare priors instead would hand every
    word to the background topic (its prior concentration dwarfs the
    sparse aspect prior when no counts back it) and the role posterior
    never recovers. When seed words are present the value
    responsibilities are recomputed from the seed prior before the
    parameters absorb anything: priming the value emissions from uniform
    responsibilities instead would bury the seed tilt under symmetric
    counts and leave polarity identification to the initialization
    noise, which picks the wrong orientation about half the time.
    """
    if qv is not None and any(state.seed_sets):
        hp = state.hp
        phi = pack.per_snippet(state.phi_factor, (hp.K, hp.N))
        ev = state.theta_V.expected_log()[:, pack.words]
        qv[:] = _value_step(pack, qa, qw, state.layout.col("V"), phi, ev)
    _refit(state, data, state.qa, state.qv, state.qw)
    state.refresh_caches()


def run_inference(
    hp: Hyperparameters,
    corpus: Corpus,
    seeds: Optional[SeedLexicon] = None,
    threads: int = 1,
    progress: Optional[Callable[[int, float, float], None]] = None,
) -> tuple[VariationalState, list[FreeEnergyReport]]:
    """Fit the model and return the final state with per-iteration free energy.

    Runs hp.max_iters passes of the configured schedule, stopping early
    once the largest absolute posterior change in a pass falls below
    1e-5, or after the first pass whose free energy or posterior change
    is not finite (that pass is the last report). threads only affects
    the batch schedule's wall time, never its result; the sequential
    schedule is single threaded by contract.
    """
    hp.validate()
    if threads < 1:
        raise ModelError("threads must be at least 1")
    state = init_state(hp, corpus, seeds)
    data = _build_entity_data(corpus)
    pack = _PackedCorpus(data)
    q = pack.bind(state)
    _prime(state, data, pack, *q)

    reports: list[FreeEnergyReport] = []
    if hp.schedule == "sequential":
        _fit_sequential(state, data, pack, q, reports, progress)
    else:
        # Only priming reads the packed corpus and posteriors here; the
        # batch pass replaces the state's views of them.
        del pack, q
        _fit_batch(state, data, threads, reports, progress)
    return state, reports


@dataclass
class Posteriors:
    """Hard assignments read off a fitted state (ties go to the lowest index).

    aspect[i] holds one aspect index per snippet of entity i, value[i]
    one value index (None when the value component is disabled), and
    word_role[i] one role column per token; letters maps columns back to
    role letters.
    """

    letters: tuple[str, ...]
    aspect: list[np.ndarray]
    value: Optional[list[np.ndarray]]
    word_role: list[np.ndarray]
    token_counts: list[list[int]]

    def word_labels(self, entity: int) -> list[list[str]]:
        """Per-snippet role letters for one entity's tokens."""
        out = []
        pos = 0
        roles = self.word_role[entity]
        for n_tok in self.token_counts[entity]:
            out.append([self.letters[c] for c in roles[pos:pos + n_tok]])
            pos += n_tok
        return out


def extract_posteriors(state: VariationalState) -> Posteriors:
    """Hard argmax summaries of every snippet and token posterior."""
    aspect = [np.argmax(a, axis=1) for a in state.qa]
    value = None if state.qv is None else [np.argmax(a, axis=1) for a in state.qv]
    word_role = [np.argmax(a, axis=1) for a in state.qw]
    return Posteriors(
        letters=state.layout.letters,
        aspect=aspect,
        value=value,
        word_role=word_role,
        token_counts=state.token_counts,
    )


def aspect_clusterings(corpus: Corpus, post: Posteriors) -> list[Clustering]:
    """Per-entity clusterings labeled by hard aspect assignment."""
    out = []
    for i, group in enumerate(corpus.snippets):
        assignment = {
            sn.snippet_id: int(post.aspect[i][j]) for j, sn in enumerate(group)
        }
        n_clusters = max(assignment.values()) + 1 if assignment else 0
        out.append(Clustering(corpus.entities[i], assignment, n_clusters))
    return out


def polarity_predictions(corpus: Corpus, post: Posteriors) -> dict[str, int]:
    """Hard value assignment per snippet id (requires the value component)."""
    if post.value is None:
        raise InferenceError("no value posteriors: model was fit with N = 0")
    out: dict[str, int] = {}
    for i, group in enumerate(corpus.snippets):
        for j, sn in enumerate(group):
            out[sn.snippet_id] = int(post.value[i][j])
    return out


def word_label_predictions(corpus: Corpus, post: Posteriors) -> dict[str, list[str]]:
    """Per-token role letters keyed by snippet id."""
    out: dict[str, list[str]] = {}
    for i, group in enumerate(corpus.snippets):
        labels = post.word_labels(i)
        for j, sn in enumerate(group):
            out[sn.snippet_id] = labels[j]
    return out
