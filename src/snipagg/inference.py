"""Coordinate-descent mean-field fitting.

Each latent posterior update is the exact coordinate optimum given the
rest of the state: take expected log scores, subtract the row maximum,
exponentiate, and normalize. Parameter factors then become prior plus
expected counts, where every snippet and token contributes fractionally
under its current posterior (a snippet with q(Z_A = a) = 0.35 adds 0.35
to aspect a's mixture count, and so on for emissions and transitions).

Both schedules run one kernel over the corpus packed into one token
stream. After each parameter update the kernel gathers the expected
logs once: E[log theta_A] at the (entity, word) of every token, E[log
psi] and E[log phi] at every snippet's entity, and the shared tables at
every word and tag. The free energy at the end of a pass and the next
pass read that same gather, and in the batch schedule the same
emission scores. The M-step puts the expected counts of all tokens into
each factor bank with one bincount.

UpdateContext is where a state meets its corpus: it packs the corpus
and stacks the state's per-entity posteriors into packed arrays, which
the kernels read and write in place. A fit binds its state once, so the
state's per-entity posteriors are views of those arrays;
compute_free_energy reads a copy and leaves the caller's posteriors as
they are.

Both schedules run one pass kernel with the same coordinate moves (per
snippet: aspect, value, then each word) and differ only in when a new
posterior becomes visible to the next move. The batch schedule
recomputes every latent posterior from the previous pass's state, in
one vector step for all aspects, one for all values and one for all
words. Its free energy is not promised to fall at every pass, so each
rise is logged and counted. The sequential schedule is the
left-to-right sweep of exact coordinate moves, so its free energy never
increases. It runs as a positional wavefront: parameters are refit only
at the end of a pass, so within a pass a snippet's updates read nothing
of any other snippet, and position p of every snippet is updated in one
vector step that reads the new posterior of position p-1 and the old
one of p+1, what the one-token-at-a-time sweep reads. The word step and
the free energy read one role score (prior, emissions and the
transition into the role).

The digamma refresh and the KL to the prior run only on each factor's
support (see DirichletFactor). A cell off it sits at its prior, has
expected log digamma(prior) - digamma(row total) and adds exactly 0 to
the KL, so the restriction is exact for any state. theta_A's support
is the (entity, word) pairs of the corpus, 15% of a dense bank on the
reference corpus: the M-step counts into its (K, P) table, and the
gather takes each token's column from it.
"""

from __future__ import annotations

import functools
import logging
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import xlogy

from snipagg.baselines import Clustering
from snipagg.corpus import Corpus, SeedLexicon
from snipagg.model import (
    Hyperparameters,
    ModelError,
    VariationalState,
    init_state,
    kl_sum,
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


class _PackedCorpus:
    """Every entity's tokens as one stream, entities in corpus order.

    Snippets and tokens get global indices; entity i owns snippets
    snippet_bounds[i]:snippet_bounds[i+1] and tokens
    token_bounds[i]:token_bounds[i+1], and snippet s owns tokens
    offsets[s]:offsets[s+1]. first and last hold each snippet's first
    and last token, inner every token but a first one (so inner - 1 is
    every token but a last one). positions[p] holds the token at
    position p of every snippet longer than p, longest snippets first,
    and how many of them (the leading ones) have a next token.

    A snippet without tokens is rejected: the model gives every snippet
    a first and a last word, and the per-snippet sums (np.add.reduceat
    at first) would give an empty snippet its successor's first token.
    """

    def __init__(self, corpus: Corpus):
        words, tags, lengths, group_sizes = [], [], [], []
        for i, group in enumerate(corpus.snippets):
            for sn in group:
                if not sn.tokens:
                    raise ModelError(
                        f"entity {corpus.entities[i]!r}: snippet {sn.snippet_id!r} has no tokens"
                    )
                words.extend(tok.word for tok in sn.tokens)
                tags.extend(tok.tag for tok in sn.tokens)
                lengths.append(len(sn.tokens))
            group_sizes.append(len(group))
        self.words = np.asarray(words, dtype=np.int64)
        self.tags = np.asarray(tags, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        self.n_snippets, self.n_tokens = len(lengths), len(words)
        self.offsets = np.concatenate(([0], np.cumsum(lengths)))
        self.snippet_bounds = np.concatenate(([0], np.cumsum(group_sizes, dtype=np.int64)))
        self.token_bounds = self.offsets[self.snippet_bounds]
        self.ent_of_snip = np.repeat(np.arange(len(group_sizes)), group_sizes)
        self.snip_of_token = np.repeat(np.arange(self.n_snippets), lengths)
        self.ent_of_token = self.ent_of_snip[self.snip_of_token]
        first = self.offsets[:-1]
        self.first, self.last = first, self.offsets[1:] - 1
        is_first = np.zeros(self.n_tokens, dtype=bool)
        is_first[first] = True
        self.inner = np.flatnonzero(~is_first)
        order = np.argsort(-lengths, kind="stable")
        first, lengths = first[order], lengths[order]
        self.positions = [
            (first[lengths > p] + p, int(np.count_nonzero(lengths > p + 1)))
            for p in range(int(lengths.max(initial=0)))
        ]
        self._aspect: Optional[tuple] = None

    def aspect_columns(self, state: VariationalState) -> tuple[np.ndarray, np.ndarray]:
        """Each token's column in the theta_A table, (T,), and the flat
        index of (aspect, token) into that table, (K, T). theta_A's support
        first grows to every (bank row, word) pair of the corpus; the
        result is kept until the support changes."""
        bank = state.theta_A
        if self._aspect is None or self._aspect[0] is not bank.support:
            rows = _bank_rows(state.hp.shared_aspects, self.ent_of_token)
            flat_pairs = rows * state.vocab_size + self.words
            pairs, pair_of_token = np.unique(flat_pairs, return_inverse=True)
            bank.grow(pairs)
            cols = np.searchsorted(bank.support, pairs)[pair_of_token]
            flat = np.arange(state.hp.K)[:, None] * len(bank.support) + cols
            self._aspect = (bank.support, cols, flat)
        return self._aspect[1:]


def _bank_rows(shared: bool, entities: np.ndarray) -> np.ndarray:
    """The factor-bank row of each entity index: row 0 of a shared bank."""
    return np.zeros_like(entities) if shared else entities


@dataclass
class _Gathered:
    """The expected logs of one parameter state, read where the corpus
    uses them: psi (S, K) and phi (S, K, N) at each snippet's entity, ea
    (K, T) at each token's entity and word (a take from the theta_A
    support table), ev (N, T), eb (T,) and ei (T,) at each word, eta
    (T, n) at each tag, and the transition rows. sources holds the
    factor tables they were read from. emis holds the _emissions of the
    posteriors the free energy last read, for the next batch pass."""

    sources: list
    psi: np.ndarray
    phi: Optional[np.ndarray]
    ea: np.ndarray
    ev: Optional[np.ndarray]
    eb: np.ndarray
    ei: Optional[np.ndarray]
    eta: Optional[np.ndarray]
    start: np.ndarray
    main: np.ndarray
    emis: Optional[np.ndarray] = None


def _gather(ctx: UpdateContext, prev: Optional[_Gathered] = None) -> _Gathered:
    """Gather the factors' expected logs, or return prev when no factor
    has changed since prev was gathered."""
    state, pack = ctx.state, ctx.pack
    cols = pack.aspect_columns(state)[0]
    sources = [f.table_elog() for f in state.parameter_banks()]
    if prev is not None and all(a is b for a, b in zip(prev.sources, sources, strict=True)):
        return prev
    hp, words = state.hp, pack.words
    phi = None
    if state.phi is not None:
        phi = state.phi.expected_log()[_bank_rows(hp.shared_aspects, pack.ent_of_snip)]
    psi_rows = _bank_rows(hp.shared_aspect_multinomial, pack.ent_of_snip)
    return _Gathered(
        sources=sources,
        psi=state.psi.expected_log()[psi_rows],
        phi=phi,
        ea=np.take(state.theta_A.table_elog(), cols, axis=1),
        ev=None if state.theta_V is None else state.theta_V.expected_log()[:, words],
        eb=state.theta_B.expected_log()[words],
        ei=None if state.theta_I is None else state.theta_I.expected_log()[words],
        eta=None if state.eta is None else state.eta.expected_log()[:, pack.tags].T,
        start=state.trans_start.expected_log(),
        main=state.trans_main.expected_log(),
    )


def _softmax_rows(scores: np.ndarray) -> np.ndarray:
    """Normalize log scores, one row (n,) or a stack of rows (m, n),
    along the last axis, guarding overflow.

    The row maximum is taken one column at a time: exact, and on many
    short rows much faster than a reduction along the last axis.
    """
    top = functools.reduce(np.maximum, scores.T)
    scores = scores - top[..., None]
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores


class UpdateContext:
    """A state bound to its packed corpus, with packed write buffers.

    The constructor packs the corpus and stacks the state's per-entity
    posteriors into qa (S, K), qv (S, N; None when N = 0) and qw (T, n),
    in corpus order. new_qa, new_qv and new_qw hold one view of them per
    entity; the updates read the state's lists and write these views.

    In batch mode the packed arrays are copies, so every read sees the
    state as it was when the context was created; commit() makes the
    views the state's posteriors. In sequential mode the state's lists
    are these views from the start, so each update sees the freshest
    values and commit() changes nothing.
    """

    def __init__(self, state: VariationalState, corpus: Corpus, sequential: bool = False):
        if not state.matches_corpus(corpus):
            raise ModelError("state shape does not match corpus")
        self.state = state
        self.pack = pack = _PackedCorpus(corpus)

        def stack(lists, width, bounds):
            if lists is None:
                return None, None
            packed = np.concatenate([np.empty((0, width))] + list(lists))
            return packed, [packed[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]

        hp, sb = state.hp, pack.snippet_bounds
        self.qa, self.new_qa = stack(state.qa, hp.K, sb)
        self.qv, self.new_qv = stack(state.qv, hp.N, sb)
        self.qw, self.new_qw = stack(state.qw, state.layout.n_topics, pack.token_bounds)
        if sequential:
            self.commit()

    def commit(self) -> None:
        """Make the per-entity views the state's posteriors."""
        self.state.qa, self.state.qv, self.state.qw = self.new_qa, self.new_qv, self.new_qw

    def _snippet_tokens(self, entity: int, snippet: int):
        """(lo, hi, words, tags): the snippet owns tokens lo:hi of the
        entity's arrays, with these words and tags."""
        pack = self.pack
        s0, s1 = pack.snippet_bounds[entity], pack.snippet_bounds[entity + 1]
        if not 0 <= snippet < s1 - s0:
            raise InferenceError(f"snippet index {snippet} out of range for entity {entity}")
        first, end = pack.offsets[s0 + snippet], pack.offsets[s0 + snippet + 1]
        t0 = pack.token_bounds[entity]
        return first - t0, end - t0, pack.words[first:end], pack.tags[first:end]


def update_snippet_aspect(ctx: UpdateContext, entity: int, snippet: int) -> np.ndarray:
    """Recompute q(Z_A) for one snippet and store it in the write buffer.

    score(a) = E[log psi(a)] + sum_w q(Z_W(w) = A) E[log theta_A(a, word_w)]
             + sum_v q(Z_V = v) E[log phi(a, v)]
    """
    state = ctx.state
    lo, hi, words, _ = ctx._snippet_tokens(entity, snippet)
    q_word_a = state.qw[entity][lo:hi, state.layout.col("A")]
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
    state = ctx.state
    if state.qv is None:
        raise InferenceError("value update requested but N = 0")
    lo, hi, words, _ = ctx._snippet_tokens(entity, snippet)
    qa = state.qa[entity][snippet]
    q_word_v = state.qw[entity][lo:hi, state.layout.col("V")]
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
    state = ctx.state
    layout = state.layout
    n = layout.n_topics
    lo, hi, words, tags = ctx._snippet_tokens(entity, snippet)
    t = lo + word
    if not (lo <= t < hi):
        raise InferenceError(f"word index {word} out of range for snippet {snippet}")
    w = words[word]
    qw_read = state.qw[entity]
    qa = state.qa[entity][snippet]
    elog_main = state.trans_main.expected_log()

    score = state.hp.topic_prior_vector(layout).copy()
    if t == lo:
        score += state.trans_start.expected_log()
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
        score += state.eta.expected_log()[:, tags[word]]
    q = _softmax_rows(score)
    ctx.new_qw[entity][t] = q
    return q


def _weights(q: np.ndarray, rows: np.ndarray, qw: np.ndarray, col: int) -> np.ndarray:
    """q[rows[t], c] * qw[t, col] for every token t, laid out as (C, T)."""
    weights = np.take(q.T, rows, axis=1)
    weights *= qw[:, col]
    return weights


def _refit(ctx: UpdateContext) -> None:
    """Set every parameter factor to prior plus the expected counts of
    the context's packed posteriors, with one bincount per factor bank."""
    state, pack, qa, qv, qw = ctx.state, ctx.pack, ctx.qa, ctx.qv, ctx.qw
    hp, layout = state.hp, state.layout
    K, N, V, n = hp.K, hp.N, state.vocab_size, layout.n_topics
    words, snip = pack.words, pack.snip_of_token

    def counts(f, index, weights):
        size = f.table.size
        return np.bincount(index.ravel(), weights.ravel(), minlength=size).reshape(f.table.shape)

    # Bank tables are laid out (..., bank row * V + element) over their
    # support: every pair for psi and phi, the corpus pairs for theta_A.
    ent_rows = _bank_rows(hp.shared_aspect_multinomial, pack.ent_of_snip)
    state.psi.set_counts(counts(state.psi, ent_rows[:, None] * K + np.arange(K), qa))
    aspect_cells = pack.aspect_columns(state)[1]
    state.theta_A.set_counts(
        counts(state.theta_A, aspect_cells, _weights(qa, snip, qw, layout.col("A")))
    )
    if qv is not None:
        ent_rows = _bank_rows(hp.shared_aspects, pack.ent_of_snip)
        row_cells = ent_rows[:, None, None] * N + np.arange(N)
        phi_cells = np.arange(K)[:, None] * state.phi.table.shape[-1] + row_cells
        state.phi.set_counts(counts(state.phi, phi_cells, qa[:, :, None] * qv[:, None, :]))
        value_cells = np.arange(N)[:, None] * V + words
        state.theta_V.set_counts(
            counts(state.theta_V, value_cells, _weights(qv, snip, qw, layout.col("V")))
        )
    state.theta_B.set_counts(np.bincount(words, qw[:, layout.col("B")], minlength=V))
    if state.theta_I is not None:
        state.theta_I.set_counts(np.bincount(words, qw[:, layout.col("I")], minlength=V))
    if state.eta is not None:
        tag_cells = np.arange(n)[:, None] * state.tag_count + pack.tags
        state.eta.set_counts(counts(state.eta, tag_cells, qw.T))
    main = np.empty((n, n + 1))
    main[:, :n] = qw[pack.inner - 1].T @ qw[pack.inner]
    main[:, layout.end_col] = qw[pack.last].sum(axis=0)
    state.trans_start.set_counts(qw[pack.first].sum(axis=0))
    state.trans_main.set_counts(main)


def update_parameters(ctx: UpdateContext) -> None:
    """Refit every parameter factor from the context's latest posteriors."""
    _refit(ctx)


def _aspect_step(
    pack: _PackedCorpus, g: _Gathered, qv: Optional[np.ndarray], qw: np.ndarray, col_a: int
) -> np.ndarray:
    """update_snippet_aspect for every snippet at once (col_a is the A
    column of qw)."""
    score = g.psi + np.add.reduceat(g.ea * qw[:, col_a], pack.first, axis=1).T
    if qv is not None:
        score += np.einsum("skn,sn->sk", g.phi, qv)
    return _softmax_rows(score)


def _value_step(
    pack: _PackedCorpus, g: _Gathered, qa: np.ndarray, qw: np.ndarray, col_v: int
) -> np.ndarray:
    """update_snippet_value for every snippet at once (col_v is the V
    column of qw)."""
    score = np.einsum("sk,skn->sn", qa, g.phi)
    score += np.add.reduceat(g.ev * qw[:, col_v], pack.first, axis=1).T
    return _softmax_rows(score)


def _emissions(
    ctx: UpdateContext, g: _Gathered, qa: np.ndarray, qv: Optional[np.ndarray]
) -> np.ndarray:
    """The score of each role at each token that does not depend on its
    neighbours, (T, n): the topic prior, the tag emission and the word
    emission, whose A and V columns marginalize over the snippet's
    aspect and value."""
    layout, pack = ctx.state.layout, ctx.pack
    emis = np.empty((pack.n_tokens, layout.n_topics))
    emis[:, layout.col("A")] = np.einsum("tk,kt->t", qa[pack.snip_of_token], g.ea)
    if qv is not None:
        emis[:, layout.col("V")] = np.einsum("tn,nt->t", qv[pack.snip_of_token], g.ev)
    emis[:, layout.col("B")] = g.eb
    if g.ei is not None:
        emis[:, layout.col("I")] = g.ei
    emis += ctx.state.hp.topic_prior_vector(layout)
    if g.eta is not None:
        emis += g.eta
    return emis


def _role_scores(
    g: _Gathered, emis: np.ndarray, prev: np.ndarray, first: np.ndarray | slice
) -> np.ndarray:
    """Expected log score of each role at a group of m tokens, (m, n):
    emis, their rows of _emissions, plus the transition into the role.
    prev holds the current q(Z_W) of the predecessors of the last
    len(prev) tokens; the rows first (snippet starts) take the start row
    instead."""
    n = emis.shape[1]
    score = np.empty_like(emis)
    score[len(emis) - len(prev):] = prev @ g.main[:, :n]
    score[first] = g.start
    score += emis
    return score


def _word_step(
    g: _Gathered,
    emis: np.ndarray,
    prev: np.ndarray,
    first: np.ndarray | slice,
    nxt: np.ndarray,
    last: np.ndarray | slice,
) -> np.ndarray:
    """update_word_topic for a group of m tokens: their new q(Z_W), (m, n).

    The transition into each role is read as in _role_scores. nxt holds
    the current q(Z_W) of the successors of the first len(nxt) tokens;
    the rows last (snippet ends) take the end column instead.
    """
    n = emis.shape[1]
    out = np.empty_like(emis)
    out[: len(nxt)] = nxt @ g.main[:, :n].T
    out[last] = g.main[:, n]
    score = _role_scores(g, emis, prev, first)
    score += out
    return _softmax_rows(score)


def _max_change(new: np.ndarray, old: np.ndarray) -> float:
    return float(np.abs(new - old).max()) if new.size else 0.0


def _pass(ctx: UpdateContext, g: _Gathered) -> float:
    """One pass of hp.schedule over the context's packed posteriors,
    updated in place.

    Both schedules make the coordinate moves of the per-op updates: each
    snippet's aspect, then its value, then each of its words. They differ
    only in when a new posterior is read. The batch schedule reads only
    the old posteriors and runs each step once over the whole corpus,
    the word step on the old q(Z_W) of both neighbours. The sequential
    schedule is the left-to-right sweep: the value step and the
    emissions read the new q(Z_A), and the word step runs once per token
    position p, reading the new q(Z_W) at p-1 and the old one at p+1.
    Returns the largest absolute posterior change (NaN if any posterior
    is NaN).
    """
    state, pack, qa, qv, qw = ctx.state, ctx.pack, ctx.qa, ctx.qv, ctx.qw
    sequential = state.hp.schedule == "sequential"
    layout = state.layout
    new_qa = _aspect_step(pack, g, qv, qw, layout.col("A"))
    seen_qa = new_qa if sequential else qa
    new_qv = None if qv is None else _value_step(pack, g, seen_qa, qw, layout.col("V"))
    if sequential or g.emis is None:
        emis = _emissions(ctx, g, seen_qa, new_qv if sequential else qv)
    else:
        emis = g.emis
    g.emis = None  # the posteriors it was made from change below
    if sequential:
        new_qw = qw.copy()
        for p, (tok, n_lead) in enumerate(pack.positions):
            prev, first = (new_qw[:0], slice(None)) if p == 0 else (new_qw[tok - 1], slice(0))
            nxt = new_qw[tok[:n_lead] + 1]
            new_qw[tok] = _word_step(g, emis[tok], prev, first, nxt, slice(n_lead, None))
    else:
        new_qw = _word_step(g, emis, qw[:-1], pack.first, qw[1:], pack.last)

    changes = [_max_change(new_qa, qa), _max_change(new_qw, qw)]
    qa[:], qw[:] = new_qa, new_qw
    if qv is not None:
        changes.append(_max_change(new_qv, qv))
        qv[:] = new_qv
    return float(np.max(changes))


def _free_energy(ctx: UpdateContext, g: _Gathered) -> float:
    """KL of every factor to its prior, minus the expected complete log
    likelihood, minus the posterior entropy, of the context's packed
    posteriors.

    The snippet and token terms are summed per entity first, in corpus
    order, so entities with the same data and factors contribute the
    same value.
    """
    state, pack, qa, qv, qw = ctx.state, ctx.pack, ctx.qa, ctx.qv, ctx.qw
    snip = xlogy(qa, qa).sum(axis=1) - np.einsum("sk,sk->s", qa, g.psi)
    if qv is not None:
        snip += xlogy(qv, qv).sum(axis=1) - np.einsum("sk,skn,sn->s", qa, g.phi, qv)

    g.emis = _emissions(ctx, g, qa, qv)
    score = _role_scores(g, g.emis, qw[:-1], pack.first)
    tok = xlogy(qw, qw).sum(axis=1) - np.einsum("tn,tn->t", qw, score)
    tok[pack.last] -= qw[pack.last] @ g.main[:, state.layout.end_col]

    n_entities = len(pack.snippet_bounds) - 1
    per_entity = np.bincount(pack.ent_of_snip, snip, minlength=n_entities)
    per_entity += np.bincount(pack.ent_of_token, tok, minlength=n_entities)
    return kl_sum(state.parameter_banks()) + float(per_entity.sum())


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
    ctx = UpdateContext(state, corpus)
    return _free_energy(ctx, _gather(ctx))


def free_energy_rises(reports: Sequence[FreeEnergyReport]) -> int:
    """How many passes ended with a higher free energy than the one before."""
    return sum(b.value > a.value for a, b in zip(reports, reports[1:]))


def _end_iteration(
    it: int,
    fe: float,
    delta: float,
    t0: float,
    reports: list[FreeEnergyReport],
    progress: Optional[Callable[[int, float, float], None]],
) -> bool:
    """Report one finished pass; True when the fit should stop there.

    A free energy above the previous pass's is logged as a warning. The
    fit stops once no posterior component moved by EARLY_STOP_TOL, and
    at the first pass whose free energy or posterior change is not
    finite: no later pass can recover from it.
    """
    seconds = time.perf_counter() - t0
    if reports and fe > reports[-1].value:
        log.warning(
            "iteration %d: free energy rose from %r to %r", it, reports[-1].value, fe
        )
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


def _fit(
    ctx: UpdateContext,
    reports: list[FreeEnergyReport],
    progress: Optional[Callable[[int, float, float], None]],
) -> None:
    """hp.max_iters passes of the configured schedule, each followed by
    a refit and the free energy, which share one gather (and, in the
    batch schedule, its emissions) with the next pass unless a factor
    changed in between."""
    g = None
    for it in range(1, ctx.state.hp.max_iters + 1):
        t0 = time.perf_counter()
        delta = _pass(ctx, _gather(ctx, g))
        # Drop the old gather (and the factor tables it holds) before the
        # refit allocates the new ones.
        g = None
        _refit(ctx)
        g = _gather(ctx)
        fe = _free_energy(ctx, g)
        if _end_iteration(it, fe, delta, t0, reports, progress):
            break


def _prime(ctx: UpdateContext) -> None:
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
    if ctx.qv is not None and any(ctx.state.seed_sets):
        g = _gather(ctx)
        ctx.qv[:] = _value_step(ctx.pack, g, ctx.qa, ctx.qw, ctx.state.layout.col("V"))
        del g  # frees the prior tables before the refit allocates new ones
    _refit(ctx)


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
    is not finite (that pass is the last report). threads is accepted
    for compatibility and must be at least 1; both schedules run in one
    thread, so it changes neither the result nor the speed. Raises
    ModelError for a snippet without tokens.
    """
    hp.validate()
    if threads < 1:
        raise ModelError("threads must be at least 1")
    ctx = UpdateContext(init_state(hp, corpus, seeds), corpus, sequential=True)
    _prime(ctx)
    reports: list[FreeEnergyReport] = []
    _fit(ctx, reports, progress)
    return ctx.state, reports


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
