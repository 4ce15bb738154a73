"""The M-step's expected counts and the E-step's snippet sums by two
other routes, as references for the incidence products in
snipagg.inference.

bincount_counts and reduceat_sums are the formulas the products
replaced: every bank counted with one np.bincount over a flat (cell,
token) index, and each snippet's sum an np.add.reduceat over its tokens
of a (K, T) or (N, T) table of products. loop_counts and loop_sums add
the same terms one token at a time in plain Python, reading only the
posteriors, the corpus and each entity's dense factor rows.

Counts are keyed by the state attribute of their bank and laid out like
its table.
"""

import numpy as np


def bincount_counts(ctx) -> dict:
    state, pack, qa, qv, qw = ctx.state, ctx.pack, ctx.qa, ctx.qv, ctx.qw
    hp, layout = state.hp, state.layout
    K, N, V, n = hp.K, hp.N, state.vocab_size, layout.n_topics
    words, snip = pack.words, pack.snip_of_token

    def counts(f, index, weights):
        size = f.table.size
        return np.bincount(index.ravel(), weights.ravel(), minlength=size).reshape(f.table.shape)

    def weights(q, col):  # q[snip[t], c] * qw[t, col], laid out (C, T)
        return np.take(q.T, snip, axis=1) * qw[:, col]

    out = {}
    ent_rows = state.psi.entity_rows(pack.ent_of_snip)
    out["psi"] = counts(state.psi, ent_rows[:, None] * K + np.arange(K), qa)
    flat = np.arange(K)[:, None] * state.theta_A.table.shape[-1] + pack.aspect_columns(state)
    out["theta_A"] = counts(state.theta_A, flat, weights(qa, layout.col("A")))
    if qv is not None:
        ent_rows = state.phi.entity_rows(pack.ent_of_snip)
        row_cells = ent_rows[:, None, None] * N + np.arange(N)
        phi_cells = np.arange(K)[:, None] * state.phi.table.shape[-1] + row_cells
        out["phi"] = counts(state.phi, phi_cells, qa[:, :, None] * qv[:, None, :])
        value_cells = np.arange(N)[:, None] * V + words
        out["theta_V"] = counts(state.theta_V, value_cells, weights(qv, layout.col("V")))
    out["theta_B"] = np.bincount(words, qw[:, layout.col("B")], minlength=V)
    if state.theta_I is not None:
        out["theta_I"] = np.bincount(words, qw[:, layout.col("I")], minlength=V)
    if state.eta is not None:
        out["eta"] = counts(state.eta, np.arange(n)[:, None] * state.tag_count + pack.tags, qw.T)
    return out


def reduceat_sums(ctx):
    """(S, K) and (S, N) (None when N = 0): each snippet's sum over its
    tokens of q(Z_W = A) E[log theta_A] and of q(Z_W = V) E[log theta_V]."""
    state, pack, qw = ctx.state, ctx.pack, ctx.qw
    layout = state.layout
    ea = np.take(state.theta_A.table_elog(), pack.aspect_columns(state), axis=1)
    aspect = np.add.reduceat(ea * qw[:, layout.col("A")], pack.first, axis=1).T
    if state.theta_V is None:
        return aspect, None
    ev = state.theta_V.expected_log()[:, pack.words]
    return aspect, np.add.reduceat(ev * qw[:, layout.col("V")], pack.first, axis=1).T


def _tokens(ctx):
    """(s, e, t, first, last) for every token t, in corpus order: its
    snippet s, the snippet's entity e, and whether t opens or closes s."""
    pack = ctx.pack
    for s in range(pack.n_snippets):
        lo, hi = int(pack.offsets[s]), int(pack.offsets[s + 1])
        for t in range(lo, hi):
            yield s, int(pack.ent_of_snip[s]), t, t == lo, t == hi - 1


def loop_counts(ctx) -> dict:
    """Every bank's expected counts, snippet by snippet and token by
    token; theta_A's support must already hold the corpus's pairs."""
    state, pack, qa, qv, qw = ctx.state, ctx.pack, ctx.qa, ctx.qv, ctx.qw
    layout = state.layout
    K, N, V, n = state.hp.K, state.hp.N, state.vocab_size, layout.n_topics
    out = {name: np.zeros(getattr(state, name).table.shape) for name in (
        "psi", "theta_A", "phi", "theta_V", "theta_B", "theta_I", "eta", "trans_start",
        "trans_main",
    ) if getattr(state, name) is not None}
    for s in range(pack.n_snippets):
        e = int(pack.ent_of_snip[s])
        row = int(state.psi.entity_rows(e))
        out["psi"][row * K : (row + 1) * K] += qa[s]
        if qv is not None:
            row = int(state.phi.entity_rows(e))
            for v in range(N):
                out["phi"][:, row * N + v] += qa[s] * qv[s, v]
    for s, e, t, first, last in _tokens(ctx):
        w = int(pack.words[t])
        cell = int(state.theta_A.entity_rows(e)) * V + w
        col = int(np.searchsorted(state.theta_A.support, cell))
        assert state.theta_A.support[col] == cell
        out["theta_A"][:, col] += qa[s] * qw[t, layout.col("A")]
        if qv is not None:
            out["theta_V"][:, w] += qv[s] * qw[t, layout.col("V")]
        out["theta_B"][w] += qw[t, layout.col("B")]
        if state.theta_I is not None:
            out["theta_I"][w] += qw[t, layout.col("I")]
        if state.eta is not None:
            out["eta"][:, int(pack.tags[t])] += qw[t]
        if first:
            out["trans_start"] += qw[t]
        else:
            out["trans_main"][:, :n] += np.outer(qw[t - 1], qw[t])
        if last:
            out["trans_main"][:, layout.end_col] += qw[t]
    return out


def loop_sums(ctx):
    """reduceat_sums, one token at a time from each entity's dense
    expected-log rows."""
    state, pack, qw = ctx.state, ctx.pack, ctx.qw
    layout = state.layout
    aspect = np.zeros((pack.n_snippets, state.hp.K))
    value = None if state.theta_V is None else np.zeros((pack.n_snippets, state.hp.N))
    for s, e, t, _, _ in _tokens(ctx):
        w = int(pack.words[t])
        aspect[s] += qw[t, layout.col("A")] * state.theta_A_factor(e).expected_log()[:, w]
        if value is not None:
            value[s] += qw[t, layout.col("V")] * state.theta_V.expected_log()[:, w]
    return aspect, value
