"""Forward sampling of synthetic corpora with known latent structure.

The sampler walks the model's own generative story: global emission
distributions and the word-role transition table come from their
priors, each entity draws its aspect mixture and aspect word
distributions, and every snippet draws an aspect, a value type, and a
role chain that starts at the virtual start state and emits one word
(and one tag) per step. All latent draws are recorded as gold
annotations, and every sampled distribution is returned for parameter
recovery checks: each as an array, except theta_A, which is kept per
aspect on the words its prior reaches (aspect_columns), one (scopes,
words) table per aspect; theta_a_rows builds one scope's dense (K, V)
rows on demand.

The draws come from one PCG64 stream, one uniform per categorical
choice, in a fixed order. First the distributions: theta_B, theta_I,
theta_V, eta, the transition table, then theta_A, phi and psi, every
stack of rows drawn in chunks by one gamma call each (_row_chunks);
theta_A keeps each dense chunk's live columns only.
Then per snippet: one block rng.random(2) for the aspect and the value
type (rng.random(1) when N = 0), the Poisson length, and one block
rng.random(3 * length) that holds the role uniform of each token, then
a word and a tag uniform per token. A chain-length snippet instead
walks its roles one draw per step, so it never draws past the end
marker, and then draws rng.random(2 * length). A block consumes the
stream exactly as the same number of scalar draws, so the snippet loop
makes only these calls. Every choice is picked after the loop from the
uniforms it drew: the aspects over psi, the value types over phi, the
Poisson role chains one position at a time over all snippets, and the
words and tags, each with one searchsorted per distribution in use
(_pick_grouped; A-role words over their aspect's table,
_pick_aspect_words). A fixed seed therefore gives the same corpus as a
one-draw-per-choice sampler.

make_separable additionally interpolates the aspect word priors toward
disjoint vocabulary blocks: at separation 1 the blocks are fully
disjoint (a word generated under aspect a never appears under another
aspect), and sample_corpus is make_separable at separation 0.

save_true_params writes the true parameters as true_params.json,
version 2: every array exactly, through the state file's codec, and
theta_A on its non-zero cells of the dense bank, without building that
bank. load_true_params reads it back, checked, into the per-aspect
tables.
"""

from __future__ import annotations

import logging
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from snipagg.corpus import (
    Corpus,
    GoldAnnotations,
    Indexer,
    SeedLexicon,
    default_value_names,
)
from snipagg.model import (
    _TRUE_FIELDS,
    Hyperparameters,
    ModelError,
    _encoded,
    _field,
    _read_arrays,
    _read_checked,
    _read_json,
    transition_priors,
    value_prior,
)
from snipagg.output import write_json

log = logging.getLogger(__name__)

SYNTHETIC_TAGS = ("NN", "JJ", "VB", "DT", "RB")
# Tag emission priors lean aspect words onto nouns and value words onto
# adjectives so tag-aware fits have signal to find.
TAG_BIAS = 6.0
MAX_CHAIN_LENGTH = 200
# A Poisson length is redrawn until it lands in [1, 30]. Inside this
# range of means a draw lands there with probability above 9% (9.5% at
# 0.1, 10.9% at 38), so a snippet takes about 11 draws at worst.
POISSON_MEAN_RANGE = (0.1, 38.0)
# Dirichlet draws whose gamma variates all underflow to 0 before the
# prior counts as too small to sample.
MAX_REDRAWS = 100
# Block draws and picks work on at most this many cells at a time (4 MB
# of float64), so no temporary grows with the corpus: theta_A's dense rows
# would be 28.8 MB at the criterion-11 reference shape, and its per-aspect
# tables, a tenth of that at separation 1, are filled chunk by chunk.
CHUNK_CELLS = 2**19


class GeneratorError(ValueError):
    """Invalid sampling request."""


@dataclass
class CorpusShape:
    """Size and length profile of a sampled corpus.

    mean_words feeds either a Poisson length truncated to [1, 30]
    (length_mode "poisson", mean in POISSON_MEAN_RANGE) or, with
    length_mode "chain", the walk runs until the transition table emits
    the end marker (at most MAX_CHAIN_LENGTH steps). vocab_size counts
    the whole vocabulary including any reserved seed words.
    """

    n_entities: int
    snippets_per_entity: int
    mean_words: float = 8.0
    length_mode: str = "poisson"
    vocab_size: int = 600
    seed_words_per_value: int = 0

    def validate(self, n_values: int) -> None:
        if self.n_entities < 1 or self.snippets_per_entity < 1:
            raise GeneratorError("need at least one entity and one snippet")
        if self.length_mode not in ("poisson", "chain"):
            raise GeneratorError(f"unknown length mode {self.length_mode!r}")
        if not 0 < self.mean_words < np.inf:
            raise GeneratorError("mean_words must be finite and positive")
        lo, hi = POISSON_MEAN_RANGE
        if self.length_mode == "poisson" and not lo <= self.mean_words <= hi:
            raise GeneratorError(f"mean_words must lie in [{lo:g}, {hi:g}] for Poisson lengths")
        if self.seed_words_per_value < 0:
            raise GeneratorError("seed_words_per_value must be non-negative")
        reserved = n_values * self.seed_words_per_value
        if self.vocab_size <= reserved:
            raise GeneratorError(
                f"vocab_size {self.vocab_size} leaves no room for "
                f"{reserved} reserved seed words"
            )


@dataclass
class SyntheticCorpus:
    """A sampled corpus with its gold latents and true distributions."""

    corpus: Corpus
    gold: GoldAnnotations
    true_parameters: dict
    seeds: SeedLexicon


def _draw_multinomial(rng: np.random.Generator, alpha: np.ndarray, what: str) -> np.ndarray:
    """Dirichlet draw by gamma normalization; zero concentrations give
    exact zero mass, which rng.dirichlet would reject. A draw whose
    variates all underflow to 0 is redrawn, at most MAX_REDRAWS times;
    then the prior is too small to sample and the GeneratorError names
    the distribution (what) and its largest concentration."""
    for _ in range(MAX_REDRAWS):
        draw = rng.gamma(alpha)
        total = draw.sum()
        if total > 0.0:
            return draw / total
    raise GeneratorError(
        f"cannot draw {what}: every gamma variate underflowed to 0 in {MAX_REDRAWS} "
        f"draws at concentration {alpha.max():g}"
    )


def _row_chunks(
    rng: np.random.Generator, alpha: np.ndarray, what: str, n_rows: int
) -> Iterator[tuple[int, np.ndarray]]:
    """n_rows Dirichlet draws, row r at concentration alpha[r % len(alpha)],
    yielded as (r0, block) for chunks of rows r0 onward of at most
    CHUNK_CELLS cells, each block a new array. Row by row they are bit for
    bit what n_rows _draw_multinomial calls return, and rng ends in the
    same state.

    Each chunk is drawn by one rng.gamma call over its cells with a
    positive concentration in C order: gamma draws element by element and
    a zero concentration draws nothing. Each row is then divided by its
    sum over the full row, as _draw_multinomial divides. _draw_multinomial
    redraws a row whose variates all underflow before it draws the next
    row, so a chunk with such a row is rewound to its start and drawn
    again row by row.
    """
    step = max(1, CHUNK_CELLS // alpha.shape[1])
    for r0 in range(0, n_rows, step):
        rows = np.arange(r0, min(r0 + step, n_rows)) % len(alpha)
        conc = alpha[rows]
        block, live = np.zeros(conc.shape), conc > 0
        saved = rng.bit_generator.state
        block[live] = rng.gamma(conc[live])
        totals = block.sum(axis=1)
        if (totals > 0.0).all():
            block /= totals[:, None]
        else:
            rng.bit_generator.state = saved
            for r, row in enumerate(rows.tolist()):
                block[r] = _draw_multinomial(rng, alpha[row], what)
        yield r0, block


def _draw_rows(
    rng: np.random.Generator, alpha: np.ndarray, what: str, n_rows: Optional[int] = None
) -> np.ndarray:
    """n_rows Dirichlet draws (default len(alpha)) of _row_chunks as one
    (n_rows, width) array."""
    n_rows = len(alpha) if n_rows is None else n_rows
    return np.concatenate([block for _, block in _row_chunks(rng, alpha, what, n_rows)])


def _edges(probs: np.ndarray) -> list[float]:
    """Cumulative edges of a distribution, as _pick reads them."""
    return np.cumsum(probs).tolist()


def _pick(edges: list[float], u: float) -> int:
    """The category a uniform u in [0, 1) selects: the first edge above
    u times the total mass (searchsorted side="right"), clipped to the
    last category against rounding."""
    return min(bisect_right(edges, u * edges[-1]), len(edges) - 1)


def _pick_grouped(
    tables: Sequence[np.ndarray],
    keys: np.ndarray,
    u: np.ndarray,
    labels: Optional[np.ndarray] = None,
) -> np.ndarray:
    """For every draw k, the category that distribution keys[k] selects
    with u[k], the distributions being the rows of the 2-D tables (all of
    one width) numbered in order across them.

    The cumulative edges come from one cumsum(axis=-1) per chunk of at
    most CHUNK_CELLS cells, the same bits as a 1-D cumsum of each row,
    and each row in use takes one searchsorted over all of its draws;
    element by element this is _pick on the same edges and uniforms. With
    labels, one longer than the tables are wide, category c is labels[c],
    and a draw past the last edge is labels[-1] rather than the last
    category.
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
    out[order] = np.minimum(hits, tables[0].shape[1] - 1) if labels is None else labels[hits]
    return out


def _pick_aspect_words(
    tables: Sequence[np.ndarray],
    columns: Sequence[np.ndarray],
    scopes: np.ndarray,
    aspects: np.ndarray,
    u: np.ndarray,
    vocab_size: int,
) -> np.ndarray:
    """For every draw d, the word that row scopes[d] of aspect aspects[d]
    selects with u[d], over the aspect's table (see aspect_columns). A
    draw past the last edge is word vocab_size - 1, where a pick over the
    dense row clips it; otherwise the hit is a column of positive mass,
    whose dense edges are the same bits, so this is the dense pick."""
    out = np.empty(len(u), dtype=np.int64)
    for k, (table, cols) in enumerate(zip(tables, columns)):
        at = np.flatnonzero(aspects == k)
        out[at] = _pick_grouped([table], scopes[at], u[at], np.append(cols, vocab_size - 1))
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


def sample_corpus(
    hp: Hyperparameters, shape: CorpusShape, rng_seed: int
) -> SyntheticCorpus:
    """Sample a corpus from the generative story under hp's priors."""
    return make_separable(hp, shape, 0.0, rng_seed)


def make_separable(
    hp: Hyperparameters,
    shape: CorpusShape,
    separation: float,
    rng_seed: int,
    topic_mix: Optional[Sequence[float]] = None,
) -> SyntheticCorpus:
    """Sample a corpus whose aspect vocabularies are pushed apart.

    separation in [0, 1] scales the aspect emission prior outside each
    aspect's designated vocabulary block: 0 reproduces sample_corpus
    draw for draw, 1 makes the aspect vocabularies fully disjoint.
    topic_mix, when given, replaces the sampled transition table with
    fixed rows proportional to the mix (one weight per enabled role)
    with end probability 1 / mean_words, which pins the expected role
    proportions for noise-level experiments.
    """
    if not (0.0 <= separation <= 1.0):
        raise GeneratorError("separation must lie in [0, 1]")
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

    # The aspect banks, drawn one row per (scope, aspect), scope-major;
    # theta_A keeps each aspect's rows on the words its prior reaches.
    n_psi, n_scopes = hp.bank_rows(shape.n_entities)
    aspect_alpha = np.full((hp.K, V), hp.lambda_A * (1.0 - separation))
    for a, block in enumerate(blocks):
        aspect_alpha[a, block] = hp.lambda_A
    columns = aspect_columns(separation, blocks, hp.K, V)
    theta_a = [np.empty((n_scopes, len(cols))) for cols in columns]
    for r0, block in _row_chunks(rng, aspect_alpha, "theta_A (lambda_A)", n_scopes * hp.K):
        for k, (table, cols) in enumerate(zip(theta_a, columns)):
            first = (k - r0) % hp.K  # the chunk's first row of aspect k
            rows = block[first::hp.K]
            s0 = (r0 + first) // hp.K
            table[s0:s0 + len(rows)] = rows[:, cols]
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
    # The per-token temporaries go once they are read, so that they are not
    # held through Corpus.from_arrays and the gold, where the sample peaks.
    draws = np.concatenate(tails)
    del tails
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
        del draws, t, first, word_at
    else:
        roles = np.asarray(walked, dtype=np.int64)
        word_u, tag_u = draws[0::2], draws[1::2]

    entity_of = np.repeat(np.arange(shape.n_entities), shape.snippets_per_entity)
    heads = np.concatenate(heads).reshape(n_snippets, n_heads)
    z_a = _pick_grouped([psi], np.minimum(entity_of, n_psi - 1), heads[:, 0])
    scope_of = np.minimum(entity_of, n_scopes - 1)
    z_v = _pick_grouped([phi], scope_of * hp.K + z_a, heads[:, 1]) if hp.N >= 1 else None

    # A-role words pick over their snippet's aspect table. Every other
    # word distribution is a row: value rows, then background and ignore;
    # each snippet's row for each role (A's is never read).
    word_tables, role_rows = [], {"A": z_a}
    if z_v is not None:
        role_rows["V"] = z_v
        word_tables.append(theta_v)
    for letter, dist in (("B", theta_b), ("I", theta_i)):
        if dist is not None:
            role_rows[letter] = np.full(n_snippets, sum(map(len, word_tables)))
            word_tables.append(dist[None])
    snippet_rows = np.stack([role_rows[letter] for letter in layout.letters], axis=1)
    word_ids = np.empty(len(roles), dtype=np.int64)
    is_a = roles == layout.col("A")
    a_snippets, other = token_snippets[is_a], ~is_a
    word_ids[is_a] = _pick_aspect_words(
        theta_a, columns, scope_of[a_snippets], z_a[a_snippets], word_u[is_a], V
    )
    word_ids[other] = _pick_grouped(
        word_tables, snippet_rows[token_snippets[other], roles[other]], word_u[other]
    )

    entities = [f"e{i:03d}" for i in range(shape.n_entities)]
    sids = [f"{e}-s{j:05d}" for e in entities for j in range(shape.snippets_per_entity)]
    corpus = Corpus.from_arrays(
        entities, Indexer(words), Indexer(SYNTHETIC_TAGS), entity_of, sids, lengths,
        word_ids, _pick_grouped([eta], roles, tag_u),
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
        "theta_A": theta_a,
        "phi": None if phi is None else list(phi.reshape(n_scopes, hp.K, hp.N)),
        "aspect_blocks": [b.tolist() for b in blocks],
    }
    log.info(
        "sampled corpus: %d entities, %d snippets, %d tokens",
        corpus.n_entities, corpus.n_snippets, corpus.n_tokens,
    )
    return SyntheticCorpus(corpus, gold, true_parameters, seeds)


def aspect_vocabularies_disjoint(syn: SyntheticCorpus) -> bool:
    """Whether words observed under different gold aspects never overlap.

    Computed on the token arrays, the gold word labels being one role
    letter per token: every A token marks its word under its snippet's
    gold aspect, and no word may be marked under two."""
    corpus, gold = syn.corpus, syn.gold
    sids = corpus.snippet_ids
    letters = "".join(map("".join, map(gold.word_labels.__getitem__, sids)))
    is_a = np.frombuffer(letters.encode(), dtype=np.uint8) == ord("A")
    names = {name: k for k, name in enumerate(set(gold.clusters.values()))}
    aspect = np.fromiter(map(names.__getitem__, map(gold.clusters.__getitem__, sids)), np.int64)
    seen = np.zeros((len(corpus.vocabulary), len(names)), dtype=bool)
    seen[corpus.words[is_a], np.repeat(aspect, np.diff(corpus.offsets))[is_a]] = True
    return bool((seen.sum(axis=1) <= 1).all())


def aspect_columns(separation: float, aspect_blocks: Sequence, K: int, V: int) -> list[np.ndarray]:
    """The words, ascending, that each aspect's prior reaches and so its
    table in true_parameters["theta_A"] covers: at separation 1 aspect k's
    block, below it every word (the same array for every aspect)."""
    if separation == 1.0:
        return [np.asarray(block, dtype=np.int64) for block in aspect_blocks]
    return [np.arange(V)] * K


def _columns_of(true_parameters: dict) -> list[np.ndarray]:
    tp = true_parameters
    return aspect_columns(tp["separation"], tp["aspect_blocks"], len(tp["theta_A"]),
                          len(tp["vocab"]))


def _dense_rows(tables, columns, V: int, scope: int) -> np.ndarray:
    """theta_a_rows from the tables and their columns."""
    out = np.zeros((len(tables), V))
    for k, (table, cols) in enumerate(zip(tables, columns)):
        out[k, cols] = table[scope]
    return out


def theta_a_rows(true_parameters: dict, scope: int) -> np.ndarray:
    """Scope scope's theta_A as a dense (K, V) array, zero off each
    aspect's columns."""
    tp = true_parameters
    return _dense_rows(tp["theta_A"], _columns_of(tp), len(tp["vocab"]), scope)


TRUE_PARAMS_FORMAT = "snipagg-true-params"
TRUE_PARAMS_VERSION = 2


def save_true_params(true_parameters: dict, path: str) -> None:
    """Write SyntheticCorpus.true_parameters as true_params.json, version 2:
    the fields of model._TRUE_FIELDS, written by model._encoded, plus
    format and version.

    Every array goes through the state file's codec (model._blob), so the
    file holds the values exactly; psi and phi are stacked over scopes.
    theta_A is written on its non-zero cells as flat indices into its
    dense (scopes, K, V) shape, as the model's factors keep theirs, filled
    from the per-aspect tables one scope's dense rows at a time, so the
    dense bank is never made. At
    separation 1 about 90% of the dense cells are zero; at separation 0
    none is, and the support doubles the binary bytes, still no more than
    the decimal text of version 1. load_true_params reads the file back.
    """
    tables, phi = true_parameters["theta_A"], true_parameters["phi"]
    n_scopes, K, V = len(tables[0]), len(tables), len(true_parameters["vocab"])
    columns = _columns_of(true_parameters)
    # Filled in place, one scope's dense (K, V) rows at a time.
    ends = np.cumsum([0] + sum(np.count_nonzero(t, axis=1) for t in tables).tolist())
    support, table = np.empty(ends[-1], dtype=np.int64), np.empty(ends[-1])
    for s in range(n_scopes):
        rows = _dense_rows(tables, columns, V, s).ravel()
        idx = np.flatnonzero(rows)
        support[ends[s]:ends[s + 1]] = s * K * V + idx
        table[ends[s]:ends[s + 1]] = rows[idx]
    values = dict(true_parameters, psi=np.stack(true_parameters["psi"]),
                  phi=None if phi is None else np.stack(phi),
                  theta_A={"shape": [n_scopes, K, V], "support": support, "table": table})
    payload = _encoded(_TRUE_FIELDS, values)
    write_json(dict(payload, format=TRUE_PARAMS_FORMAT, version=TRUE_PARAMS_VERSION), path)


def load_true_params(path: str) -> dict:
    """Read a true_params.json that save_true_params wrote, as
    SyntheticCorpus.true_parameters holds it: the same keys, phi and psi
    as per-scope lists of arrays, theta_A as one (scopes, len(columns))
    table per aspect over its aspect_columns, None for a disabled part.

    Reads the fields of model._TRUE_FIELDS as load_state reads its own:
    the key sets exactly, each plain-JSON field through its checker (the
    letters must fit the value names, theta_A's dense shape the vocab and
    MAX_CELLS), then every array through model._field, distributions
    within 1e-9. theta_A's columns come from the file's separation and
    aspect_blocks (at separation 1, one strictly ascending block per
    aspect), and each support cell must lie in its aspect's columns; the
    dense bank is never made. Any fault raises ModelError naming the
    file. The unversioned decimal layout (version 1) is refused: re-run
    generate.
    """
    return _read_checked(path, _true_params_from_payload, "true parameters")


def _true_params_from_payload(payload, n_bytes: int) -> dict:
    if isinstance(payload, dict) and "version" not in payload:
        raise ModelError("unversioned (decimal) true parameters are not read; re-run generate")
    if payload["format"] != TRUE_PARAMS_FORMAT:
        raise ModelError("not a true parameters file")
    if type(payload["version"]) is not int or payload["version"] != TRUE_PARAMS_VERSION:
        raise ModelError(f"unsupported true parameters version {payload['version']!r}")
    got = _read_json(_TRUE_FIELDS, payload)
    letters, shape = got["topic_letters"], got["theta_A"]
    n = len(letters)
    sizes = {
        "vocab": len(got["vocab"]), "tags": len(got["tags"]), "roles": n, "ends": n + 1,
        "N": len(got["value_names"]), "scopes": shape[0], "K": shape[1], "ignore": "I" in letters,
    }
    out = dict(got, **_read_arrays(_TRUE_FIELDS, payload, sizes))
    psi, phi = out["psi"], out["phi"]
    if shape[0] not in (1, len(psi)):
        raise ModelError(f"psi has {len(psi)} rows for {shape[0]} theta_A scopes")
    out.update(theta_A=_aspect_tables(out["theta_A"], shape, out), psi=list(psi),
               phi=None if phi is None else list(phi))
    return out


def _aspect_tables(pair: dict, shape: list, got: dict) -> list[np.ndarray]:
    """theta_A's per-aspect tables from its pair over the dense shape,
    filled one scope's dense (K, V) rows at a time."""
    n_scopes, K, V = shape
    blocks = got["aspect_blocks"]
    if got["separation"] == 1.0 and (
        len(blocks) != K or any((np.diff(block) <= 0).any() for block in blocks)
    ):
        raise ModelError(f"aspect_blocks needs {K} strictly ascending blocks at separation 1")
    columns = aspect_columns(got["separation"], blocks, K, V)
    live = np.zeros((K, V), dtype=bool)
    for k, cols in enumerate(columns):
        live[k, cols] = True
    support, values = pair["support"], pair["table"]
    ends = np.searchsorted(support, np.arange(n_scopes + 1) * K * V).tolist()
    tables = [np.empty((n_scopes, len(cols))) for cols in columns]
    for s in range(n_scopes):
        idx = support[ends[s]:ends[s + 1]] - s * K * V
        off = idx[~live.flat[idx]]
        if off.size:
            raise ModelError(f"theta_A support has a cell outside aspect {off[0] // V}'s words")
        rows = np.zeros((K, V))
        rows.flat[idx] = values[ends[s]:ends[s + 1]]
        for k, (table, cols) in enumerate(zip(tables, columns)):
            table[s] = rows[k, cols]
    return [_field(table, table.shape, "theta_A", 1e-9) for table in tables]
