"""Coordinate-descent mean-field fitting.

Each latent posterior update is the exact coordinate optimum given the
rest of the state: take expected log scores, subtract the row maximum,
exponentiate, and normalize. Parameter factors then become prior plus
expected counts, where every snippet and token contributes fractionally
under its current posterior (a snippet with q(Z_A = a) = 0.35 adds 0.35
to aspect a's mixture count, and so on for emissions and transitions).

Both schedules run one kernel over the corpus packed into one token
stream. A pass runs it one block of whole snippets at a time, each of
at most BLOCK_TOKENS tokens, and gathers the expected logs once per
block, at each of its tokens' (entity, word) and tag and at each of its
snippets' entity. Every array with a row per token and a column per
aspect is thus one block's, not the corpus's; each row depends on its
snippet alone, so the blocks change no bit. The block's new posteriors
are written into the packed arrays in place, each once the steps that
read its old value are done. Each E-step snippet sum is
op @ E and each M-step count op.T @ q for a token-incidence matrix op
per bank (_incidence): a row per snippet, a column per cell and an
entry per token, with the weights of the call. Its index arrays are
built once per corpus and the matrix is assembled per call.

Every factor is a Dirichlet conjugate to the draws it governs, so the
expected complete log likelihood is linear in the M-step's expected
counts c_f of the current posteriors (Beal 2003, ch. 2), and the free
energy of any state is

    F = sum_f [KL(q_f || prior_f) - <c_f, E[log theta_f]>]
        + sum q log q - sum_t sum_r q(Z_W(t) = r) topic_prior_r.

The fit takes each factor's term as it refits it: the fresh counts
array becomes the factor's table, the prior added in place, and the
term is then ln B(prior_f) - ln B(q_f), which reads no expected log
(DirichletFactor._kl_at_refit). compute_free_energy sums the same terms
with their cross term <q_f - prior_f - c_f, E[log theta_f]> and sets no
factor. No token or snippet is scored again.

UpdateContext is where a state meets its corpus: it binds the corpus's
pack and the state's own packed posteriors, one array each, which the
kernels and the per-op updates read and write in place, with no copy.
The state reads the same arrays per entity (VariationalState). The
corpus arrives packed (Corpus.words, tags and offsets) and is
immutable, so the index arrays derived from it are built on first use
and kept with the corpus: a fit, every later UpdateContext and every
compute_free_energy share them.

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
one of p+1, what the one-token-at-a-time sweep reads.

The public per-op updates (update_snippet_aspect, update_snippet_value,
update_word_topic) run the same steps on one snippet's gather, the word
step on one token as one wavefront row, each reading the rows the
updates before it wrote, as the sequential sweep does. No fit calls
them: they are for tests and inspection, and a call costs more than a
whole pass spends on one snippet.

The expected logs and the KL to the prior are computed only on each
factor's support (see DirichletFactor). A cell off it sits at its
prior, has expected log digamma(prior) - digamma(row total) and adds
exactly 0 to the KL, so the restriction is exact for any state.
theta_A's support is the (entity, word) pairs of the corpus, 15% of a
dense bank on the reference corpus, and the columns of its incidence
matrix: the M-step counts into its (K, P) table, whose cells the E-step
sums per snippet. Its expected log is never held whole: each gather
computes it from the table at the run of support cells its tokens use,
and for a per-entity bank a block's run holds its entities' cells only.
Every other factor keeps its dense expected log between refits.
"""

from __future__ import annotations

import functools
import logging
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from snipagg.baselines import Clustering
from snipagg.corpus import Corpus, SeedLexicon
from snipagg.model import (
    DirichletFactor,
    EntityRows,
    Hyperparameters,
    ModelError,
    VariationalState,
    init_state,
)

log = logging.getLogger(__name__)

# Fitting stops early once no posterior component moved by more than this.
EARLY_STOP_TOL = 1e-5

# A pass builds its per-token arrays one block of snippets at a time, each
# block at most this many tokens (a longer snippet is a block on its own),
# so an array of K doubles a token takes at most 128 K KiB on a corpus of
# any size. Read when a corpus is packed.
BLOCK_TOKENS = 2**14


class InferenceError(RuntimeError):
    """Raised when an update is requested that the configuration disables."""


@dataclass(frozen=True)
class FreeEnergyReport:
    """Variational free energy after one full pass (lower is better)."""

    iteration: int
    value: float


class _PackedCorpus:
    """The index arrays the kernels read, derived from a corpus's token
    stream (Corpus.words, tags, offsets and snippet_bounds) once per
    corpus: UpdateContext keeps them on the corpus, which is immutable.

    Snippets and tokens get global indices; entity i owns snippets
    snippet_bounds[i]:snippet_bounds[i+1] and tokens
    token_bounds[i]:token_bounds[i+1], and snippet s owns tokens
    offsets[s]:offsets[s+1]. first and last hold each snippet's first
    and last token, inner every token but a first one (so inner - 1 is
    every token but a last one). positions[p] holds the token at
    position p of every snippet longer than p, longest snippets first,
    and how many of them (the leading ones) have a next token. blocks
    holds the pass's snippet ranges (s0, s1) in corpus order: each as
    many whole snippets as fit in BLOCK_TOKENS tokens, or one longer
    snippet.

    The arrays are int32, which a sparse matrix takes as they are:
    offsets is the indptr of every token-incidence matrix (_incidence),
    and one_per_row (0..T) that of a matrix with one entry per snippet
    or token. A snippet without tokens is rejected: the model gives
    every snippet a first and a last word. So is a word or tag index
    outside the vocabulary or tag set, which a Corpus built in code can
    hold and no factor has a cell for.
    """

    def __init__(self, corpus: Corpus):
        self.words, self.tags = corpus.words, corpus.tags
        self.offsets, self.snippet_bounds = corpus.offsets.astype(np.int32), corpus.snippet_bounds
        lengths, group_sizes = np.diff(self.offsets), np.diff(self.snippet_bounds)
        self.n_snippets, self.n_tokens = len(lengths), len(self.words)
        self.token_bounds = self.offsets[self.snippet_bounds]
        self.ent_of_snip = np.repeat(np.arange(len(group_sizes), dtype=np.int32), group_sizes)
        self.snip_of_token = np.repeat(np.arange(self.n_snippets, dtype=np.int32), lengths)
        self.ent_of_token = self.ent_of_snip[self.snip_of_token]
        self.one_per_row = np.arange(self.n_tokens + 1, dtype=np.int32)

        def reject(s, what):
            entity, sid = corpus.entities[self.ent_of_snip[s]], corpus.snippet_ids[s]
            raise ModelError(f"entity {entity!r}: snippet {sid!r} {what}")

        if self.n_snippets and lengths.min() == 0:
            reject(np.flatnonzero(lengths == 0)[0], "has no tokens")
        for what, index, size in (
            ("word", self.words, len(corpus.vocabulary)), ("tag", self.tags, len(corpus.tag_set))
        ):
            if index.size and not 0 <= index.min() <= index.max() < size:
                t = np.flatnonzero((index < 0) | (index >= size))[0]
                reject(self.snip_of_token[t], f"has {what} index {index[t]} outside [0, {size})")
        self.words, self.tags = self.words.astype(np.int32), self.tags.astype(np.int32)
        first = self.offsets[:-1]
        self.first, self.last = first, self.offsets[1:] - 1
        is_first = np.zeros(self.n_tokens, dtype=bool)
        is_first[first] = True
        self.inner = np.flatnonzero(~is_first).astype(np.int32)
        order = np.argsort(-lengths, kind="stable")
        first, lengths = first[order], lengths[order]
        self.positions = [
            (first[lengths > p] + p, int(np.count_nonzero(lengths > p + 1)))
            for p in range(int(lengths.max(initial=0)))
        ]
        self.blocks, s0 = [], 0
        while s0 < self.n_snippets:
            end = int(self.offsets[s0]) + BLOCK_TOKENS
            s1 = max(int(np.searchsorted(self.offsets, end, side="right")) - 1, s0 + 1)
            self.blocks.append((s0, s1))
            s0 = s1
        self._aspect: Optional[tuple] = None

    def aspect_columns(self, state: VariationalState) -> np.ndarray:
        """Each token's column in the theta_A table, (T,). theta_A's support
        first grows to every (bank row, word) pair of the corpus; the
        result is kept until the support changes."""
        bank = state.theta_A
        if self._aspect is None or self._aspect[0] is not bank.support:
            flat_pairs = bank.entity_rows(self.ent_of_token) * np.int64(state.vocab_size)
            pairs, pair_of_token = np.unique(flat_pairs + self.words, return_inverse=True)
            self._aspect = (bank.support, bank.grow(pairs)[pair_of_token].astype(np.int32))
        return self._aspect[1]


def _incidence(indptr: np.ndarray, cols: np.ndarray, weights: np.ndarray, n_cols: int):
    """The sparse matrix op whose row r holds entries indptr[r]:indptr[r+1],
    entry i at column cols[i] with value weights[i]. For a token-incidence
    matrix (a row per snippet, an entry per token, a column per cell),
    op @ E sums weights[t] E[cols[t]] over each snippet's tokens, E one
    row per cell, and op.T @ q sums weights[t] q[s(t)] over each cell's."""
    from scipy.sparse import csr_array  # on first use, as scipy.special in snipagg.model

    return csr_array((weights, cols, indptr), shape=(len(indptr) - 1, n_cols))


@dataclass
class _Gathered:
    """The expected logs of one parameter state where a run of S snippets
    and their T tokens (one block of a pass, or one snippet) reads them:
    theta_A's and theta_V's one row per cell, ta (P', K) for the run of
    P' support cells from the first to the last that the tokens use
    (cols counts from its first) and tv (V, N), which the
    token-incidence matrices of indptr, cols and words sum, and ea
    (T, K), ev (T, N) their rows at each token; psi (S, K), phi (S, K, N)
    per snippet, eb, ei (T,) per word, eta (T, n) per tag."""

    indptr: np.ndarray
    cols: np.ndarray
    words: np.ndarray
    psi: np.ndarray
    phi: Optional[np.ndarray]
    ta: np.ndarray
    ea: np.ndarray
    tv: Optional[np.ndarray]
    ev: Optional[np.ndarray]
    eb: np.ndarray
    ei: Optional[np.ndarray]
    eta: Optional[np.ndarray]


def _gather(ctx: UpdateContext, s0: int = 0, s1: Optional[int] = None) -> _Gathered:
    """The factors' expected logs gathered at snippets s0:s1 of the
    context's corpus (every snippet by default) and at their tokens.
    theta_A's is computed from its table at the tokens' run of support
    cells, which for a per-entity bank holds the cells of the run's
    entities only."""
    state, pack = ctx.state, ctx.pack
    s1 = pack.n_snippets if s1 is None else s1
    tok = slice(pack.offsets[s0], pack.offsets[s1])
    cols, words, ents = pack.aspect_columns(state)[tok], pack.words[tok], pack.ent_of_snip[s0:s1]
    lo = int(cols.min())
    ta = state.theta_A.elog_cells(lo, int(cols.max()) + 1).T
    cols = cols - lo

    def rows(f, index):  # f's expected log at each bank row of index
        return None if f is None else np.take(f.expected_log(), f.entity_rows(index), axis=0)

    def cells(f, index):  # f's expected log at index along its last axis, one row each
        return None if f is None else np.take(f.expected_log().T, index, axis=0)

    tv = None if state.theta_V is None else np.ascontiguousarray(state.theta_V.expected_log().T)
    return _Gathered(
        indptr=pack.offsets[s0 : s1 + 1] - tok.start, cols=cols, words=words,
        psi=rows(state.psi, ents), phi=rows(state.phi, ents),
        ta=ta, ea=np.take(ta, cols, axis=0), tv=tv, ev=cells(state.theta_V, words),
        eb=cells(state.theta_B, words), ei=cells(state.theta_I, words),
        eta=cells(state.eta, pack.tags[tok]),
    )


def _softmax_rows(scores: np.ndarray) -> np.ndarray:
    """Normalize log scores, one row (n,) or a stack of rows (m, n),
    along the last axis, guarding overflow. The row maximum and sum are
    taken one column at a time: on many short rows much faster than
    along the last axis, and the sum has the same bits below 8 columns."""
    top = functools.reduce(np.maximum, scores.T)
    scores = scores - top[..., None]
    np.exp(scores, out=scores)
    scores /= functools.reduce(np.add, scores.T)[..., None]
    return scores


class UpdateContext:
    """A state bound to its packed corpus.

    The constructor takes the corpus's pack (built by the corpus's first
    context and kept in corpus._pack) and binds the state's own packed
    posteriors, with no copy: qa (S, K), qv (S, N; None when N = 0) and
    qw (T, n), in corpus order. The kernels and the per-op updates read
    and write these arrays, a snippet or token at its corpus-wide index,
    so every write shows in the state at once and each update reads the
    freshest rows.
    """

    def __init__(self, state: VariationalState, corpus: Corpus):
        if not state.matches_corpus(corpus):
            raise ModelError("state shape does not match corpus")
        self.state = state
        if corpus._pack is None:
            corpus._pack = _PackedCorpus(corpus)
        self.pack = corpus._pack
        self.qa, self.qw = state.qa.packed, state.qw.packed
        self.qv = None if state.qv is None else state.qv.packed


def _expected_counts(ctx: UpdateContext) -> Iterator[tuple[DirichletFactor, np.ndarray]]:
    """Yield every parameter bank with the expected counts of the
    context's packed posteriors, a fresh array in the shape and layout
    (cell-major) of its table, one bank at a time. A bank the latents
    write is counted as (op.T @ q).T, op the
    incidence matrix of the writes (_incidence): the E-step's for theta_A
    and theta_V; each snippet's N cells by q(Z_V) for phi; each snippet
    at its bank row for psi, and each token at its tag for eta, by 1.
    Every cell adds its terms in corpus order, as a bincount would."""
    state, pack, qa, qv, qw = ctx.state, ctx.pack, ctx.qa, ctx.qv, ctx.qw
    layout, S, N, V = state.layout, pack.n_snippets, state.hp.N, state.vocab_size
    cols, snippets, role = pack.aspect_columns(state), pack.one_per_row[: S + 1], layout.col

    def count(indptr, at, weights, n_cols, q):
        return (_incidence(indptr, at, weights, n_cols).T @ q).T

    psi_rows = state.psi.entity_rows(pack.ent_of_snip)
    yield state.psi, count(snippets, psi_rows, np.ones(S), len(state.psi.prior), qa).T.ravel()
    yield state.theta_A, count(pack.offsets, cols, qw[:, role("A")], len(state.theta_A.support), qa)
    if qv is not None:
        cells = (N * state.phi.entity_rows(pack.ent_of_snip)[:, None] + np.arange(N)).ravel()
        yield state.phi, count(N * snippets, cells, qv.ravel(), len(state.phi.support), qa)
        yield state.theta_V, count(pack.offsets, pack.words, qw[:, role("V")], V, qv)
    yield state.theta_B, np.bincount(pack.words, qw[:, role("B")], minlength=V)
    if state.theta_I is not None:
        yield state.theta_I, np.bincount(pack.words, qw[:, role("I")], minlength=V)
    if state.eta is not None:
        yield state.eta, count(pack.one_per_row, pack.tags, np.ones(len(qw)), state.tag_count, qw)
    n = layout.n_topics
    yield state.trans_start, np.take(qw, pack.first, axis=0).sum(axis=0)
    main = np.empty((n, n + 1), order="F")
    main[:, :n] = np.take(qw, pack.inner - 1, axis=0).T @ np.take(qw, pack.inner, axis=0)
    main[:, layout.end_col] = np.take(qw, pack.last, axis=0).sum(axis=0)
    yield state.trans_main, main


def update_parameters(ctx: UpdateContext) -> None:
    """Set every parameter factor to prior plus the expected counts of
    the context's packed posteriors."""
    for f, counts in _expected_counts(ctx):
        f._adopt(counts)


def _refit(ctx: UpdateContext) -> float:
    """update_parameters, returning the sum of the new factors'
    free-energy terms, each ln B(prior) - ln B(posterior)
    (DirichletFactor._kl_at_refit)."""
    terms = 0.0
    for f, counts in _expected_counts(ctx):
        f._adopt(counts)
        terms += f._kl_at_refit()
    return terms


def _aspect_step(g: _Gathered, qv: Optional[np.ndarray], qw_a: np.ndarray) -> np.ndarray:
    """The new q(Z_A) of every gathered snippet, (S, K), given q(Z_W = A)
    at their tokens (qw_a)."""
    score = g.psi + _incidence(g.indptr, g.cols, qw_a, len(g.ta)) @ g.ta
    if qv is not None:
        score += np.einsum("skn,sn->sk", g.phi, qv)
    return _softmax_rows(score)


def _value_step(g: _Gathered, qa: np.ndarray, qw_v: np.ndarray) -> np.ndarray:
    """The new q(Z_V) of every gathered snippet, (S, N), given q(Z_W = V)
    at their tokens (qw_v)."""
    score = np.einsum("sk,skn->sn", qa, g.phi)
    score += _incidence(g.indptr, g.words, qw_v, len(g.tv)) @ g.tv
    return _softmax_rows(score)


def _emissions(
    state: VariationalState,
    g: _Gathered,
    qa: np.ndarray,
    qv: Optional[np.ndarray],
    rows: np.ndarray,
    emis: np.ndarray,
) -> None:
    """Write into emis (T, n) the score of each role at each gathered
    token that does not depend on its neighbours: the topic prior, the
    tag emission and the word emission, whose A and V columns
    marginalize over the snippet's aspect and value (the token's row,
    rows[t], of qa and qv)."""
    layout = state.layout
    emis[:, layout.col("A")] = np.einsum("tk,tk->t", np.take(qa, rows, axis=0), g.ea)
    if qv is not None:
        emis[:, layout.col("V")] = np.einsum("tn,tn->t", np.take(qv, rows, axis=0), g.ev)
    emis[:, layout.col("B")] = g.eb
    if g.ei is not None:
        emis[:, layout.col("I")] = g.ei
    emis += state.hp.topic_prior_vector(layout)
    if g.eta is not None:
        emis += g.eta


def _word_step(
    state: VariationalState,
    emis: np.ndarray,
    from_prev: np.ndarray,
    first: np.ndarray | slice,
    into_next: np.ndarray,
    last: np.ndarray | slice,
) -> np.ndarray:
    """update_word_topic for a group of m tokens: their new q(Z_W), (m, n).

    emis holds their rows of _emissions. With main the expected log of
    trans_main, from_prev holds q @ main[:, :n] for q the current q(Z_W)
    of the predecessors of the last len(from_prev) tokens; the rows
    first (snippet starts) take the start row instead. into_next holds
    q @ main[:, :n].T for q that of the successors of the first
    len(into_next) tokens; the rows last (snippet ends) take the end
    column instead. The callers multiply: numpy hands a one-row product
    to BLAS's matrix-vector routine, whose bits differ from those of a
    row of a many-row product.
    """
    score = np.empty_like(emis)
    score[len(emis) - len(from_prev):] = from_prev
    score[first] = state.trans_start.expected_log()
    score += emis
    out = np.empty_like(emis)
    out[: len(into_next)] = into_next
    out[last] = state.trans_main.expected_log()[:, emis.shape[1]]
    score += out
    return _softmax_rows(score)


def _one_snippet(ctx: UpdateContext, entity: int, snippet: int) -> tuple[_Gathered, int, int, int]:
    """The gather at one snippet of an entity, its corpus-wide index s,
    and t0, t1: the snippet owns the corpus's tokens t0:t1."""
    pack = ctx.pack
    n_entities = len(pack.snippet_bounds) - 1
    if not 0 <= entity < n_entities:
        raise InferenceError(f"entity index {entity} out of range for {n_entities} entities")
    s0, s1 = pack.snippet_bounds[entity], pack.snippet_bounds[entity + 1]
    if not 0 <= snippet < s1 - s0:
        raise InferenceError(f"snippet index {snippet} out of range for entity {entity}")
    s = s0 + snippet
    return _gather(ctx, s, s + 1), s, pack.offsets[s], pack.offsets[s + 1]


def update_snippet_aspect(ctx: UpdateContext, entity: int, snippet: int) -> np.ndarray:
    """Recompute q(Z_A) for one snippet into its row of ctx.qa.

    score(a) = E[log psi(a)] + sum_w q(Z_W(w) = A) E[log theta_A(a, word_w)]
             + sum_v q(Z_V = v) E[log phi(a, v)]
    """
    g, s, t0, t1 = _one_snippet(ctx, entity, snippet)
    qv = None if ctx.qv is None else ctx.qv[s : s + 1]
    q = _aspect_step(g, qv, ctx.qw[t0:t1, ctx.state.layout.col("A")])[0]
    ctx.qa[s] = q
    return q


def update_snippet_value(ctx: UpdateContext, entity: int, snippet: int) -> np.ndarray:
    """Recompute q(Z_V) for one snippet into its row of ctx.qv.

    score(v) = sum_a q(Z_A = a) E[log phi(a, v)]
             + sum_w q(Z_W(w) = V) E[log theta_V(v, word_w)]
    """
    if ctx.qv is None:
        raise InferenceError("value update requested but N = 0")
    g, s, t0, t1 = _one_snippet(ctx, entity, snippet)
    q = _value_step(g, ctx.qa[s : s + 1], ctx.qw[t0:t1, ctx.state.layout.col("V")])[0]
    ctx.qv[s] = q
    return q


def update_word_topic(ctx: UpdateContext, entity: int, snippet: int, word: int) -> np.ndarray:
    """Recompute q(Z_W) for one token into its row of ctx.qw.

    The score of role T combines the fixed topic prior, expected log
    transitions from the previous token's posterior (or the start row)
    and into the next token's posterior (or the end column), the
    emission term marginalized under the snippet's aspect or value
    posterior, and the tag emission when tags are modeled. A single-word
    snippet uses only start-to-T and T-to-end transitions.
    """
    state = ctx.state
    g, s, t0, t1 = _one_snippet(ctx, entity, snippet)
    if not 0 <= word < t1 - t0:
        raise InferenceError(f"word index {word} out of range for snippet {snippet}")
    qv = None if ctx.qv is None else ctx.qv[s : s + 1]
    n = state.layout.n_topics
    emis = np.empty((t1 - t0, n))
    _emissions(state, g, ctx.qa[s : s + 1], qv, np.zeros(t1 - t0, dtype=np.intp), emis)
    # One wavefront row: no prev (nxt) token means the start row (end column).
    qw, main = ctx.qw[t0:t1], state.trans_main.expected_log()[:, :n]
    prev, nxt = qw[max(word - 1, 0) : word], qw[word + 1 : word + 2]
    from_prev, into_next = prev @ main, nxt @ main.T
    first, last = slice(len(prev), 1), slice(len(nxt), None)
    q = _word_step(state, emis[word : word + 1], from_prev, first, into_next, last)[0]
    qw[word] = q
    return q


def _put(q: np.ndarray, rows: np.ndarray | slice, new: np.ndarray) -> float:
    """Write new into q[rows]; returns the largest absolute change."""
    change = float(np.abs(new - q[rows]).max()) if new.size else 0.0
    q[rows] = new
    return change


def _blocks(ctx: UpdateContext) -> Iterator[tuple[slice, slice, _Gathered]]:
    """The snippets, the tokens and the gather of each block of the
    context's corpus, in corpus order."""
    pack = ctx.pack
    for s0, s1 in pack.blocks:
        yield slice(s0, s1), slice(pack.offsets[s0], pack.offsets[s1]), _gather(ctx, s0, s1)


def _pass(ctx: UpdateContext) -> float:
    """One pass of hp.schedule over the context's packed posteriors,
    updated in place.

    Both schedules make the coordinate moves of the per-op updates: each
    snippet's aspect, then its value, then each of its words. They differ
    only in when a new posterior is read. The batch schedule reads only
    the old posteriors and runs each step once per block of snippets,
    the word step on the old q(Z_W) of both neighbours. The sequential
    schedule is the left-to-right sweep: the value step and the
    emissions read the new q(Z_A), and once every block's emissions are
    in, the word step runs once per token position p, reading the new
    q(Z_W) at p-1 and the old one at p+1. Returns the largest absolute
    posterior change (NaN if any posterior is NaN).
    """
    state, pack, qa, qv, qw = ctx.state, ctx.pack, ctx.qa, ctx.qv, ctx.qw
    sequential = state.hp.schedule == "sequential"
    layout = state.layout
    main = state.trans_main.expected_log()[:, : layout.n_topics]
    qw_a, qw_v = qw[:, layout.col("A")], None if qv is None else qw[:, layout.col("V")]
    emis = np.empty_like(qw) if sequential else None
    changes = []
    for snips, toks, g in _blocks(ctx):
        # Each row is written in place once every read of its old value is
        # done: the sequential schedule's q(Z_A) and q(Z_V) before the value
        # step and the emissions read them, the batch schedule's after its
        # word step. A snippet's rows are read by its own steps only.
        new_qa = _aspect_step(g, None if qv is None else qv[snips], qw_a[toks])
        if sequential:
            changes.append(_put(qa, snips, new_qa))
        if qv is not None:
            new_qv = _value_step(g, qa[snips], qw_v[toks])
            if sequential:
                changes.append(_put(qv, snips, new_qv))
        block_emis = emis[toks] if sequential else np.empty((toks.stop - toks.start, qw.shape[1]))
        _emissions(state, g, qa, qv, pack.snip_of_token[toks], block_emis)
        del g  # before the next block's gather
        if not sequential:
            # Every row of the block multiplied, so that a 2-token block is
            # no one-row product; the rows that cross a snippet end are unread.
            t0, old = toks.start, qw[toks]
            first, last = pack.first[snips] - t0, pack.last[snips] - t0
            from_prev, into_next = (old @ main)[:-1], (old @ main.T)[1:]
            new_qw = _word_step(state, block_emis, from_prev, first, into_next, last)
            changes.append(_put(qw, toks, new_qw))
            changes.append(_put(qa, snips, new_qa))
            if qv is not None:
                changes.append(_put(qv, snips, new_qv))
    if sequential:
        for p, (tok, n_lead) in enumerate(pack.positions):
            prev, first = (qw[:0], slice(None)) if p == 0 else (qw[tok - 1], slice(0))
            from_prev, into_next = prev @ main, qw[tok[:n_lead] + 1] @ main.T
            last = slice(n_lead, None)
            new_qw = _word_step(state, emis[tok], from_prev, first, into_next, last)
            changes.append(_put(qw, tok, new_qw))
    return float(np.max(changes, initial=0.0))


def _free_energy(ctx: UpdateContext, factor_terms: float) -> float:
    """factor_terms (every factor's DirichletFactor._kl of the expected
    counts) plus sum q log q over the context's packed posteriors (numpy's
    log at the positive cells, 0 elsewhere, so a NaN stays NaN), minus
    each token's topic_prior weight under q(Z_W). The snippet and token
    terms are summed per entity first, in corpus order, so entities with
    the same posteriors contribute the same value."""
    state, pack, qa, qv, qw = ctx.state, ctx.pack, ctx.qa, ctx.qv, ctx.qw

    def neg_entropy(q):  # sum q log q of each row, one column at a time
        return functools.reduce(np.add, (q * np.log(q, out=np.zeros_like(q), where=q > 0)).T)

    snip = neg_entropy(qa)
    if qv is not None:
        snip += neg_entropy(qv)
    tok = neg_entropy(qw) - qw @ state.hp.topic_prior_vector(state.layout)
    n_entities = len(pack.snippet_bounds) - 1
    per_entity = np.bincount(pack.ent_of_snip, snip, minlength=n_entities)
    per_entity += np.bincount(pack.ent_of_token, tok, minlength=n_entities)
    return factor_terms + float(per_entity.sum())


def compute_free_energy(state: VariationalState, corpus: Corpus) -> float:
    """Mean-field free energy of a state on its corpus.

    This is the sum over factors of KL(posterior || prior) minus the
    expected complete-data log likelihood minus the posterior entropy,
    with the likelihood read from the expected counts of the state's
    posteriors. The state's factors and posteriors are left as they are.
    An empty corpus at the prior state scores exactly 0, and the value
    is additive over entities that share no factors.
    """
    ctx = UpdateContext(state, corpus)
    return _free_energy(ctx, sum(f._kl(counts) for f, counts in _expected_counts(ctx)))


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
    a refit, whose factor terms give the free energy."""
    for it in range(1, ctx.state.hp.max_iters + 1):
        t0 = time.perf_counter()
        delta = _pass(ctx)
        fe = _free_energy(ctx, _refit(ctx))
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
        qw_v = ctx.qw[:, ctx.state.layout.col("V")]
        for snips, toks, g in _blocks(ctx):
            ctx.qv[snips] = _value_step(g, ctx.qa[snips], qw_v[toks])
            del g  # before the next block's gather, and before the refit
    update_parameters(ctx)


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
    ctx = UpdateContext(init_state(hp, corpus, seeds), corpus)
    _prime(ctx)
    reports: list[FreeEnergyReport] = []
    _fit(ctx, reports, progress)
    return ctx.state, reports


@dataclass
class Posteriors:
    """Hard assignments read off a fitted state (ties go to the lowest index).

    aspect[i] holds one aspect index per snippet of entity i, value[i]
    one value index (None when the value component is disabled), and
    word_role[i] one role column per token; each is read per entity from
    one packed array (EntityRows), as the state's posteriors are.
    letters maps columns back to role letters.
    """

    letters: tuple[str, ...]
    aspect: EntityRows
    value: Optional[EntityRows]
    word_role: EntityRows


def extract_posteriors(state: VariationalState) -> Posteriors:
    """Hard argmax summaries of every snippet and token posterior."""

    def argmax(q):
        return None if q is None else EntityRows(np.argmax(q.packed, axis=1), q.bounds)

    return Posteriors(state.layout.letters, argmax(state.qa), argmax(state.qv), argmax(state.qw))


def aspect_clusterings(corpus: Corpus, post: Posteriors) -> list[Clustering]:
    """Per-entity clusterings labeled by hard aspect assignment."""
    out, bounds = [], corpus.snippet_bounds.tolist()
    for i, (a, b) in enumerate(zip(bounds, bounds[1:])):
        assignment = dict(zip(corpus.snippet_ids[a:b], post.aspect[i].tolist()))
        out.append(Clustering(corpus.entities[i], assignment))
    return out


def polarity_predictions(corpus: Corpus, post: Posteriors) -> dict[str, int]:
    """Hard value assignment per snippet id (requires the value component)."""
    if post.value is None:
        raise InferenceError("no value posteriors: model was fit with N = 0")
    return dict(zip(corpus.snippet_ids, post.value.packed.tolist()))


def word_label_predictions(corpus: Corpus, post: Posteriors) -> dict[str, list[str]]:
    """Per-token role letters keyed by snippet id."""
    letters = [post.letters[c] for c in post.word_role.packed.tolist()]
    bounds = corpus.offsets.tolist()
    return {sid: letters[a:b] for sid, a, b in zip(corpus.snippet_ids, bounds, bounds[1:])}
