"""The per-op latent updates scored term by term, one snippet or token
at a time, as an independent reference for the packed pass kernels.

Each function reads the state's per-entity posteriors and one entity's
dense factor rows, scores the update's terms by hand and writes the new
posterior into the context's packed row, as the public updates in
snipagg.inference do. None of it calls the packed kernels.
"""

import numpy as np

from snipagg.inference import InferenceError, _softmax_rows


def _snippet_tokens(ctx, entity: int, snippet: int):
    """(lo, hi, words, tags): the snippet owns tokens lo:hi of the
    entity's arrays, with these words and tags."""
    pack = ctx.pack
    s0, s1 = pack.snippet_bounds[entity], pack.snippet_bounds[entity + 1]
    if not 0 <= snippet < s1 - s0:
        raise InferenceError(f"snippet index {snippet} out of range for entity {entity}")
    first, end = pack.offsets[s0 + snippet], pack.offsets[s0 + snippet + 1]
    t0 = pack.token_bounds[entity]
    return first - t0, end - t0, pack.words[first:end], pack.tags[first:end]


def update_snippet_aspect(ctx, entity: int, snippet: int) -> np.ndarray:
    """Recompute q(Z_A) for one snippet and write it to its packed row.

    score(a) = E[log psi(a)] + sum_w q(Z_W(w) = A) E[log theta_A(a, word_w)]
             + sum_v q(Z_V = v) E[log phi(a, v)]
    """
    state = ctx.state
    lo, hi, words, _ = _snippet_tokens(ctx, entity, snippet)
    q_word_a = state.qw[entity][lo:hi, state.layout.col("A")]
    elog_a = state.theta_A_factor(entity).expected_log()
    score = state.psi_factor(entity).expected_log().copy()
    score += q_word_a @ elog_a[:, words].T
    if state.qv is not None:
        score += state.phi_factor(entity).expected_log() @ state.qv[entity][snippet]
    q = _softmax_rows(score)
    ctx.qa[ctx.pack.snippet_bounds[entity] + snippet] = q
    return q


def update_snippet_value(ctx, entity: int, snippet: int) -> np.ndarray:
    """Recompute q(Z_V) for one snippet and write it to its packed row.

    score(v) = sum_a q(Z_A = a) E[log phi(a, v)]
             + sum_w q(Z_W(w) = V) E[log theta_V(v, word_w)]
    """
    state = ctx.state
    if state.qv is None:
        raise InferenceError("value update requested but N = 0")
    lo, hi, words, _ = _snippet_tokens(ctx, entity, snippet)
    qa = state.qa[entity][snippet]
    q_word_v = state.qw[entity][lo:hi, state.layout.col("V")]
    score = qa @ state.phi_factor(entity).expected_log()
    score += q_word_v @ state.theta_V.expected_log()[:, words].T
    q = _softmax_rows(score)
    ctx.qv[ctx.pack.snippet_bounds[entity] + snippet] = q
    return q


def update_word_topic(ctx, entity: int, snippet: int, word: int) -> np.ndarray:
    """Recompute q(Z_W) for one token and write it to its packed row.

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
    lo, hi, words, tags = _snippet_tokens(ctx, entity, snippet)
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
    ctx.qw[ctx.pack.token_bounds[entity] + t] = q
    return q
