"""The sampler as first written in array steps: theta_A drawn and kept
as one dense (scopes * K, V) bank, and every word, A-role words too,
picked by one grouped pick over the dense rows.

Independent of snipagg.generator's per-aspect tables, which keep theta_A
on the words each aspect's prior reaches; tests compare the two bit for
bit, theta_A through generator.theta_a_rows. sample returns
true_parameters["theta_A"] as a list of dense (K, V) arrays, one per
scope. CHUNK_CELLS here is this module's own, so patching the
generator's leaves this sampler as it is.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from snipagg.corpus import Corpus, GoldAnnotations, Indexer, SeedLexicon, default_value_names
from snipagg.generator import (
    MAX_CHAIN_LENGTH,
    SYNTHETIC_TAGS,
    TAG_BIAS,
    CorpusShape,
    GeneratorError,
    SyntheticCorpus,
    _draw_multinomial,
    _edges,
    _pick,
)
from snipagg.model import Hyperparameters, transition_priors, value_prior

CHUNK_CELLS = 2**19


def _draw_rows(
    rng: np.random.Generator, alpha: np.ndarray, what: str, n_rows: Optional[int] = None
) -> np.ndarray:
    """n_rows Dirichlet draws (default len(alpha)), row r at concentration
    alpha[r % len(alpha)], as one (n_rows, width) array that is bit for
    bit what n_rows _draw_multinomial calls return, leaving rng in the
    same state.

    Rows are drawn in chunks of at most CHUNK_CELLS cells, each by one
    rng.gamma call over the chunk's cells with a positive concentration
    in C order: gamma draws element by element and a zero concentration
    draws nothing. Each row is then divided by its sum over the full row,
    as _draw_multinomial divides. _draw_multinomial redraws a row whose
    variates all underflow before it draws the next row, so a chunk with
    such a row is rewound to its start and drawn again row by row.
    """
    n_rows = len(alpha) if n_rows is None else n_rows
    out = np.zeros((n_rows, alpha.shape[1]))
    step = max(1, CHUNK_CELLS // alpha.shape[1])
    for r0 in range(0, n_rows, step):
        rows = np.arange(r0, min(r0 + step, n_rows)) % len(alpha)
        conc, block = alpha[rows], out[r0:r0 + len(rows)]
        live = conc > 0
        saved = rng.bit_generator.state
        block[live] = rng.gamma(conc[live])
        totals = block.sum(axis=1)
        if (totals > 0.0).all():
            block /= totals[:, None]
            continue
        rng.bit_generator.state = saved
        for r, row in enumerate(rows.tolist()):
            block[r] = _draw_multinomial(rng, alpha[row], what)
    return out


def _pick_grouped(
    tables: Sequence[np.ndarray], keys: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """For every draw k, the category that distribution keys[k] selects
    with u[k], the distributions being the rows of the 2-D tables (all of
    one width) numbered in order across them.

    The cumulative edges come from one cumsum(axis=-1) per chunk of at
    most CHUNK_CELLS cells, the same bits as a 1-D cumsum of each row,
    and each row in use takes one searchsorted over all of its draws;
    element by element this is _pick on the same edges and uniforms.
    """
    order = np.argsort(keys, kind="stable")
    rows, firsts = np.unique(keys[order], return_index=True)
    lasts = np.append(firsts[1:], len(order)).tolist()
    targets, hits = u[order], np.empty(len(order), dtype=np.int64)
    base, g = 0, 0
    for table in tables:
        step = max(1, CHUNK_CELLS // table.shape[1])
        for r0 in range(base, base + len(table), step):
            g1 = int(np.searchsorted(rows, min(r0 + step, base + len(table))))
            if g1 > g:
                edges = np.cumsum(table[r0 - base:r0 - base + step], axis=-1)
                for row, a, b in zip(rows[g:g1].tolist(), firsts[g:g1].tolist(), lasts[g:g1]):
                    e = edges[row - r0]
                    hits[a:b] = e.searchsorted(targets[a:b] * e[-1], side="right")
                g = g1
        base += len(table)
    out = np.empty(len(order), dtype=np.int64)
    out[order] = np.minimum(hits, tables[0].shape[1] - 1)
    return out


def _pick_chains(
    start: np.ndarray, main: np.ndarray, lengths: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """The role chains of snippets of the given lengths, flat in token
    order: token t at position p of its snippet picks from main[role of
    token t - 1] (from start when p = 0) with u[t]. One grouped pick per
    position over every snippet that long, as the fit's wavefront runs
    over positions; element by element this is the scalar _pick walk.
    """
    starts = np.cumsum(lengths) - lengths
    roles = np.empty(len(u), dtype=np.int64)
    tables = [main, start[None]]
    for p in range(int(lengths.max(initial=0))):
        at = starts[lengths > p] + p
        keys = np.full(len(at), len(main)) if p == 0 else roles[at - 1]
        roles[at] = _pick_grouped(tables, keys, u[at])
    return roles


def sample(
    hp: Hyperparameters,
    shape: CorpusShape,
    rng_seed: int,
    separation: float,
    topic_mix: Optional[Sequence[float]],
) -> SyntheticCorpus:
    hp.validate()
    shape.validate(hp.N)
    layout = hp.layout()
    n = layout.n_topics
    rng = np.random.default_rng(rng_seed)

    value_names = default_value_names(hp.N)
    words: list[str] = []
    seed_sets: list[set[int]] = []
    for v in range(hp.N):
        s = set()
        for k in range(shape.seed_words_per_value):
            s.add(len(words))
            words.append(f"{value_names[v]}seed{k}")
        seed_sets.append(s)
    reserved = len(words)
    words.extend(f"w{k:04d}" for k in range(shape.vocab_size - reserved))
    V = len(words)
    seeds = SeedLexicon(list(value_names), seed_sets)

    blocks: list[np.ndarray] = []
    if separation > 0.0:
        region = np.arange(reserved, V)
        if len(region) < hp.K:
            raise GeneratorError(
                f"vocabulary too small for {hp.K} disjoint aspect blocks"
            )
        blocks = list(np.array_split(region, hp.K))

    theta_b = _draw_multinomial(rng, np.full(V, hp.lambda_B), "theta_B (lambda_B)")
    theta_i = None
    if hp.use_ignore:
        theta_i = _draw_multinomial(rng, np.full(V, hp.lambda_I), "theta_I (lambda_I)")
    theta_v = None
    if hp.N >= 1:
        vp = value_prior(hp, V, [sorted(s) for s in seed_sets])
        theta_v = _draw_rows(rng, vp, "theta_V (epsilon_V, lambda_V)")

    tag_alpha = np.full((n, len(SYNTHETIC_TAGS)), hp.lambda_tag)
    tag_alpha[layout.col("A"), SYNTHETIC_TAGS.index("NN")] += TAG_BIAS
    if layout.has_value:
        tag_alpha[layout.col("V"), SYNTHETIC_TAGS.index("JJ")] += TAG_BIAS
    eta = _draw_rows(rng, tag_alpha, "eta (lambda_tag)")

    if topic_mix is not None:
        mix = np.asarray(topic_mix, dtype=float)
        if mix.shape != (n,) or not np.isfinite(mix).all() or mix.min() < 0 or mix.sum() <= 0:
            raise GeneratorError(
                f"topic_mix needs {n} finite non-negative weights with positive sum"
            )
        mix = mix / mix.sum()
        p_end = min(1.0 / shape.mean_words, 0.5)
        trans_start = mix.copy()
        trans_main = np.tile(
            np.concatenate([mix * (1.0 - p_end), [p_end]]), (n, 1)
        )
    else:
        start_prior, main_prior = transition_priors(hp, layout)
        trans_start = _draw_multinomial(rng, start_prior, "transition_start (lambda_T)")
        trans_main = _draw_rows(rng, main_prior, "transition_main (lambda_T)")

    # The aspect banks, one row per (scope, aspect), scope-major.
    n_psi, n_scopes = hp.bank_rows(shape.n_entities)
    aspect_alpha = np.full((hp.K, V), hp.lambda_A * (1.0 - separation))
    for a, block in enumerate(blocks):
        aspect_alpha[a, block] = hp.lambda_A
    theta_a = _draw_rows(rng, aspect_alpha, "theta_A (lambda_A)", n_scopes * hp.K)
    phi = None
    if hp.N >= 1:
        phi = _draw_rows(rng, np.full((1, hp.N), hp.lambda_AV), "phi (lambda_AV)",
                         n_scopes * hp.K)
    psi = _draw_rows(rng, np.full((1, hp.K), hp.lambda_M), "psi (lambda_M)", n_psi)

    # The snippet loop makes only the stream's calls: the aspect and value
    # uniforms, the length, then the role, word and tag uniforms. Every
    # choice is picked from them after the loop.
    poisson = shape.length_mode == "poisson"
    n_snippets = shape.n_entities * shape.snippets_per_entity
    heads, tails, lengths, walked = [], [], [], []
    n_heads = 2 if hp.N >= 1 else 1
    random = rng.random
    if not poisson:
        start_edges = _edges(trans_start)
        main_edges = [_edges(row) for row in trans_main]
    for _ in range(n_snippets):
        heads.append(random(n_heads))
        if poisson:
            length = int(rng.poisson(shape.mean_words))
            while not (1 <= length <= 30):
                length = int(rng.poisson(shape.mean_words))
            # Per token one role uniform, then per token one word and one
            # tag uniform.
            tails.append(random(3 * length))
        else:
            # One draw per step: the walk must not draw past the end.
            edges, length = start_edges, 0
            for _ in range(MAX_CHAIN_LENGTH):
                role = _pick(edges, random())
                if role == layout.end_col:
                    break
                walked.append(role)
                edges, length = main_edges[role], length + 1
            tails.append(random(2 * length))
        lengths.append(length)

    lengths = np.asarray(lengths, dtype=np.int64)
    starts = np.cumsum(lengths) - lengths
    token_snippets = np.repeat(np.arange(n_snippets), lengths)
    draws = np.concatenate(tails)
    if poisson:
        # Snippet s's block starts at 3 * starts[s]: the role uniform of its
        # token t sits at 2 * starts[s] + t, the word uniform at
        # starts[s] + lengths[s] + 2t and the tag uniform next to it. A
        # Poisson-length walk never ends early, so it picks over the role
        # columns only.
        t, first = np.arange(len(token_snippets)), starts[token_snippets]
        roles = _pick_chains(trans_start, trans_main[:, :n], lengths, draws[2 * first + t])
        word_at = first + lengths[token_snippets] + 2 * t
        word_u, tag_u = draws[word_at], draws[word_at + 1]
    else:
        roles = np.asarray(walked, dtype=np.int64)
        word_u, tag_u = draws[0::2], draws[1::2]

    entity_of = np.repeat(np.arange(shape.n_entities), shape.snippets_per_entity)
    heads = np.concatenate(heads).reshape(n_snippets, n_heads)
    z_a = _pick_grouped([psi], np.minimum(entity_of, n_psi - 1), heads[:, 0])
    aspect_rows = np.minimum(entity_of, n_scopes - 1) * hp.K + z_a
    z_v = _pick_grouped([phi], aspect_rows, heads[:, 1]) if hp.N >= 1 else None

    # Every word distribution by row: aspect rows, then value rows, then
    # background and ignore; each snippet's row for each role.
    word_tables, role_rows = [theta_a], {"A": aspect_rows}
    if z_v is not None:
        role_rows["V"] = len(theta_a) + z_v
        word_tables.append(theta_v)
    for letter, dist in (("B", theta_b), ("I", theta_i)):
        if dist is not None:
            role_rows[letter] = np.full(n_snippets, sum(map(len, word_tables)))
            word_tables.append(dist[None])
    snippet_rows = np.stack([role_rows[letter] for letter in layout.letters], axis=1)

    entities = [f"e{i:03d}" for i in range(shape.n_entities)]
    sids = [f"{e}-s{j:05d}" for e in entities for j in range(shape.snippets_per_entity)]
    corpus = Corpus.from_arrays(
        entities, Indexer(words), Indexer(SYNTHETIC_TAGS), entity_of, sids, lengths,
        _pick_grouped(word_tables, snippet_rows[token_snippets, roles], word_u),
        _pick_grouped([eta], roles, tag_u),
    )
    aspect_names = [f"a{k}" for k in range(hp.K)]
    gold = GoldAnnotations(clusters=dict(zip(sids, map(aspect_names.__getitem__, z_a.tolist()))))
    if z_v is not None:
        gold.polarity = dict(zip(sids, z_v.tolist()))
    letters = np.array(layout.letters, dtype=object)[roles].tolist()
    bounds = corpus.offsets.tolist()
    gold.word_labels = {sid: letters[a:b] for sid, a, b in zip(sids, bounds, bounds[1:])}

    true_parameters = {
        "topic_letters": list(layout.letters),
        "value_names": list(value_names),
        "vocab": words,
        "separation": separation,
        "topic_mix": None if topic_mix is None else list(map(float, topic_mix)),
        "theta_B": theta_b,
        "theta_I": theta_i,
        "theta_V": theta_v,
        "eta": eta,
        "tags": list(SYNTHETIC_TAGS),
        "transition_start": trans_start,
        "transition_main": trans_main,
        "psi": list(psi),
        "theta_A": list(theta_a.reshape(n_scopes, hp.K, V)),
        "phi": None if phi is None else list(phi.reshape(n_scopes, hp.K, hp.N)),
        "aspect_blocks": [b.tolist() for b in blocks],
    }
    return SyntheticCorpus(corpus, gold, true_parameters, seeds)
