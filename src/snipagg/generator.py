"""Forward sampling of synthetic corpora with known latent structure.

The sampler walks the model's own generative story: global emission
distributions and the word-role transition table come from their
priors, each entity draws its aspect mixture and aspect word
distributions, and every snippet draws an aspect, a value type, and a
role chain that starts at the virtual start state and emits one word
(and one tag) per step. All latent draws are recorded as gold
annotations, and every sampled distribution is returned (as an array)
for parameter recovery checks.

The draws come from one PCG64 stream, one uniform per categorical
choice, in a fixed order: per snippet the aspect, the value type and
the length, then the role chain, then two uniforms per token (word,
tag). The role chain of a Poisson-length snippet and all of its word
and tag uniforms are drawn as blocks, which consume the stream exactly
as the same number of scalar draws, and the words and tags are picked
after the loop with one searchsorted per distribution. A fixed seed
therefore gives the same corpus as a one-draw-per-choice sampler.

make_separable additionally interpolates the aspect word priors toward
disjoint vocabulary blocks: at separation 1 the blocks are fully
disjoint (a word generated under aspect a never appears under another
aspect), and at separation 0 the draw stream is identical to
sample_corpus.

save_true_params writes the true parameters as true_params.json,
version 2: every array exactly, through the state file's codec, and
theta_A on its non-zero cells. load_true_params reads it back, checked.
"""

from __future__ import annotations

import logging
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional, Sequence

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


def _edges(probs: np.ndarray) -> list[float]:
    """Cumulative edges of a distribution, as _pick reads them."""
    return np.cumsum(probs).tolist()


def _pick(edges: list[float], u: float) -> int:
    """The category a uniform u in [0, 1) selects: the first edge above
    u times the total mass (searchsorted side="right"), clipped to the
    last category against rounding."""
    return min(bisect_right(edges, u * edges[-1]), len(edges) - 1)


def _pick_grouped(
    dists: Sequence[np.ndarray], keys: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """For every draw k, the category dists[keys[k]] selects with u[k].

    One searchsorted per distribution in use over all of its draws;
    element by element this is _pick on the same edges and uniforms.
    """
    out = np.empty(len(keys), dtype=np.int64)
    order = np.argsort(keys, kind="stable")
    for idx in np.split(order, np.flatnonzero(np.diff(keys[order])) + 1):
        if len(idx):
            edges = np.cumsum(dists[keys[idx[0]]])
            hit = np.searchsorted(edges, u[idx] * edges[-1], side="right")
            out[idx] = np.minimum(hit, len(edges) - 1)
    return out


def sample_corpus(
    hp: Hyperparameters, shape: CorpusShape, rng_seed: int
) -> SyntheticCorpus:
    """Sample a corpus from the generative story under hp's priors."""
    return _sample(hp, shape, rng_seed, separation=0.0, topic_mix=None)


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
    return _sample(hp, shape, rng_seed, separation, topic_mix)


def _sample(
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
        theta_v = np.stack(
            [_draw_multinomial(rng, vp[v], "theta_V (epsilon_V, lambda_V)") for v in range(hp.N)]
        )

    tag_alpha = np.full((n, len(SYNTHETIC_TAGS)), hp.lambda_tag)
    tag_alpha[layout.col("A"), SYNTHETIC_TAGS.index("NN")] += TAG_BIAS
    if layout.has_value:
        tag_alpha[layout.col("V"), SYNTHETIC_TAGS.index("JJ")] += TAG_BIAS
    eta = np.stack([_draw_multinomial(rng, tag_alpha[t], "eta (lambda_tag)") for t in range(n)])

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
        trans_main = np.stack(
            [_draw_multinomial(rng, main_prior[t], "transition_main (lambda_T)") for t in range(n)]
        )

    def draw_aspect_rows() -> np.ndarray:
        rows = []
        for a in range(hp.K):
            alpha = np.full(V, hp.lambda_A * (1.0 - separation))
            if blocks:
                alpha[blocks[a]] = hp.lambda_A
            rows.append(_draw_multinomial(rng, alpha, "theta_A (lambda_A)"))
        return np.stack(rows)

    n_psi, n_scopes = hp.bank_rows(shape.n_entities)
    theta_a = [draw_aspect_rows() for _ in range(n_scopes)]
    phi = None
    if hp.N >= 1:
        phi = [
            np.stack(
                [_draw_multinomial(rng, np.full(hp.N, hp.lambda_AV), "phi (lambda_AV)")
                 for _ in range(hp.K)]
            )
            for _ in range(n_scopes)
        ]
    psi = [
        _draw_multinomial(rng, np.full(hp.K, hp.lambda_M), "psi (lambda_M)") for _ in range(n_psi)
    ]

    # Every word distribution by row: aspect rows scope-major, then value
    # rows, then background and ignore.
    word_dists = [row for t in theta_a for row in t]
    v_base = len(word_dists)
    if theta_v is not None:
        word_dists.extend(theta_v)
    fixed_rows: dict[str, int] = {}
    for letter, dist in (("B", theta_b), ("I", theta_i)):
        if dist is not None:
            fixed_rows[letter] = len(word_dists)
            word_dists.append(dist)

    poisson = shape.length_mode == "poisson"
    psi_edges = [_edges(p) for p in psi]
    phi_edges = None if phi is None else [[_edges(row) for row in p] for p in phi]
    start_edges = _edges(trans_start)
    # A Poisson-length walk never ends early, so it draws over the role
    # columns only; a chain walk also draws the end marker.
    main_edges = [_edges(row[:n] if poisson else row) for row in trans_main]

    entities = [f"e{i:03d}" for i in range(shape.n_entities)]
    # Per snippet: the row each role's words come from, the length, and
    # the gold labels.
    snippet_rows: list[list[int]] = []
    lengths: list[int] = []
    labels: list[tuple[str, int, Optional[int]]] = []
    roles: list[int] = []
    word_tag_draws: list[np.ndarray] = []

    for i in range(shape.n_entities):
        scope, pscope = min(i, n_scopes - 1), min(i, n_psi - 1)
        for j in range(shape.snippets_per_entity):
            z_a = _pick(psi_edges[pscope], rng.random())
            z_v = _pick(phi_edges[scope][z_a], rng.random()) if hp.N >= 1 else None

            chain: list[int] = []
            edges = start_edges
            if poisson:
                length = int(rng.poisson(shape.mean_words))
                while not (1 <= length <= 30):
                    length = int(rng.poisson(shape.mean_words))
                for u in rng.random(length).tolist():
                    chain.append(_pick(edges, u))
                    edges = main_edges[chain[-1]]
            else:
                # One draw per step: the walk must not draw past the end.
                for _ in range(MAX_CHAIN_LENGTH):
                    role = _pick(edges, rng.random())
                    if role == layout.end_col:
                        break
                    chain.append(role)
                    edges = main_edges[role]
            # One word and one tag per token, drawn in token order.
            word_tag_draws.append(rng.random(2 * len(chain)))

            rows = dict(fixed_rows, A=scope * hp.K + z_a)
            if z_v is not None:
                rows["V"] = v_base + z_v
            snippet_rows.append([rows[letter] for letter in layout.letters])
            lengths.append(len(chain))
            roles.extend(chain)
            labels.append((f"{entities[i]}-s{j:05d}", z_a, z_v))

    draws = np.concatenate(word_tag_draws)
    token_roles = np.asarray(roles, dtype=np.int64)
    token_snippets = np.repeat(np.arange(len(lengths)), lengths)
    token_rows = np.asarray(snippet_rows, dtype=np.int64)[token_snippets, token_roles]
    corpus = Corpus.from_arrays(
        entities, Indexer(words), Indexer(SYNTHETIC_TAGS),
        np.repeat(np.arange(shape.n_entities), shape.snippets_per_entity),
        [sid for sid, _, _ in labels], lengths,
        _pick_grouped(word_dists, token_rows, draws[0::2]),
        _pick_grouped(eta, token_roles, draws[1::2]),
    )
    gold = GoldAnnotations()
    bounds = corpus.offsets.tolist()
    for (sid, z_a, z_v), start, stop in zip(labels, bounds, bounds[1:]):
        gold.clusters[sid] = f"a{z_a}"
        if z_v is not None:
            gold.polarity[sid] = z_v
        gold.word_labels[sid] = [layout.letters[r] for r in roles[start:stop]]

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
        "psi": psi,
        "theta_A": theta_a,
        "phi": phi,
        "aspect_blocks": [b.tolist() for b in blocks],
    }
    log.info(
        "sampled corpus: %d entities, %d snippets, %d tokens",
        corpus.n_entities, corpus.n_snippets, corpus.n_tokens,
    )
    return SyntheticCorpus(corpus, gold, true_parameters, seeds)


def aspect_vocabularies_disjoint(syn: SyntheticCorpus) -> bool:
    """Whether words observed under different gold aspects never overlap."""
    seen: dict[str, set[int]] = {}
    for sn in syn.corpus.iter_snippets():
        labels = syn.gold.word_labels[sn.snippet_id]
        words = seen.setdefault(syn.gold.clusters[sn.snippet_id], set())
        words.update(w for w, letter in zip(sn.words.tolist(), labels) if letter == "A")
    sets = list(seen.values())
    return not any(a & b for x, a in enumerate(sets) for b in sets[x + 1:])


TRUE_PARAMS_FORMAT = "snipagg-true-params"
TRUE_PARAMS_VERSION = 2


def save_true_params(true_parameters: dict, path: str) -> None:
    """Write SyntheticCorpus.true_parameters as true_params.json, version 2:
    the fields of model._TRUE_FIELDS, written by model._encoded, plus
    format and version.

    Every array goes through the state file's codec (model._blob), so the
    file holds the values exactly; psi and phi are stacked over scopes.
    theta_A is kept on its non-zero cells, as the model's factors keep
    theirs, built scope by scope, so no dense copy of the whole bank is
    made. At separation 1 about 90% of theta_A's cells are zero; at
    separation 0 none is, and the support doubles the binary bytes, still
    no more than the decimal text of version 1. load_true_params reads the
    file back.
    """
    theta_a, phi = true_parameters["theta_A"], true_parameters["phi"]
    cells = theta_a[0].size
    # Filled in place, so the support and table exist once, not also as
    # per-scope pieces.
    ends = np.cumsum([0] + [np.count_nonzero(t) for t in theta_a])
    support, table = np.empty(ends[-1], dtype=np.int64), np.empty(ends[-1])
    for s, t in enumerate(theta_a):
        idx = np.flatnonzero(t)
        support[ends[s]:ends[s + 1]] = s * cells + idx
        table[ends[s]:ends[s + 1]] = t.ravel()[idx]
    shape = [len(theta_a), *theta_a[0].shape]
    values = dict(true_parameters, psi=np.stack(true_parameters["psi"]),
                  phi=None if phi is None else np.stack(phi),
                  theta_A={"shape": shape, "support": support, "table": table})
    payload = _encoded(_TRUE_FIELDS, values)
    write_json(dict(payload, format=TRUE_PARAMS_FORMAT, version=TRUE_PARAMS_VERSION), path)


def load_true_params(path: str) -> dict:
    """Read a true_params.json that save_true_params wrote, as
    SyntheticCorpus.true_parameters holds it: the same keys, theta_A,
    phi and psi as per-scope lists of arrays, None for a disabled part.

    Reads the fields of model._TRUE_FIELDS as load_state reads its own:
    the key sets exactly, each plain-JSON field through its checker (the
    letters must fit the value names, theta_A's shape the vocab and
    MAX_CELLS before it is made dense), then every array through
    model._field, distributions within 1e-9. Any fault raises ModelError
    naming the file. The unversioned decimal layout (version 1) is
    refused: re-run generate.
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
    dense = np.zeros(shape)
    dense.flat[out["theta_A"]["support"]] = out["theta_A"]["table"]
    psi, phi = out["psi"], out["phi"]
    if shape[0] not in (1, len(psi)):
        raise ModelError(f"psi has {len(psi)} rows for {shape[0]} theta_A scopes")
    out.update(theta_A=list(_field(dense, tuple(shape), "theta_A", 1e-9)), psi=list(psi),
               phi=None if phi is None else list(phi))
    return out
