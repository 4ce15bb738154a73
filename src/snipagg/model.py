"""Model configuration, Dirichlet posterior factors, and state I/O.

Every distribution in the model (background, value, and aspect word
emissions, the word-role transition chain, entity aspect mixtures, and
aspect-to-value mixtures) carries a Dirichlet variational posterior.
Because Dirichlets are conjugate to all the multinomial draws involved,
every factor update is prior-plus-expected-counts, and the expected log
probabilities consumed by the latent updates have the digamma closed
form

    E[log p(e)] = psi(alpha_e) - psi(sum_k alpha_k).

A factor keeps its posterior on its support, the cells that may be off
the prior (see DirichletFactor): all of them for the small factors, the
(entity, word) pairs of the corpus for the aspect emissions, whose
dense entities x aspects x words bank is built only to be saved.

Word roles are A (aspect word), V (value word), B (background), and,
when enabled, I (ignore). Roles are laid out in that canonical order,
skipping disabled ones; the transition chain adds a virtual start row
and an end column.
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass, field, fields
from typing import Optional, Sequence

import numpy as np
from scipy.special import digamma, gammaln

from snipagg.corpus import Corpus, SeedLexicon
from snipagg.output import atomic_open, write_json

log = logging.getLogger(__name__)

STATE_FORMAT = "snipagg-state"
STATE_VERSION = 1

CANONICAL_TOPICS = ("A", "V", "B", "I")


class ModelError(ValueError):
    """Invalid configuration or state."""


@dataclass(frozen=True)
class TopicLayout:
    """Column layout of the enabled word roles.

    letters is a subset of (A, V, B, I) in canonical order. Transition
    sources are the same letters (plus a virtual start handled
    separately); transition destinations append an end column.
    """

    letters: tuple[str, ...]

    @classmethod
    def for_config(cls, n_values: int, use_ignore: bool) -> "TopicLayout":
        letters = ["A"]
        if n_values >= 1:
            letters.append("V")
        letters.append("B")
        if use_ignore:
            letters.append("I")
        return cls(tuple(letters))

    @property
    def n_topics(self) -> int:
        return len(self.letters)

    @property
    def end_col(self) -> int:
        """Destination column of the end marker in the transition table."""
        return len(self.letters)

    def col(self, letter: str) -> int:
        return self.letters.index(letter)

    @property
    def has_value(self) -> bool:
        return "V" in self.letters

    @property
    def has_ignore(self) -> bool:
        return "I" in self.letters


@dataclass
class Hyperparameters:
    """Model and fitting configuration.

    Dirichlet concentration names follow the distribution they smooth:
    lambda_B background emissions, lambda_A aspect emissions, epsilon_V
    baseline value emissions with lambda_V added on seed words,
    lambda_AV aspect-to-value mixtures, lambda_M entity aspect mixtures,
    lambda_I ignore emissions, lambda_T transitions (gamma_self boosts
    A/V/B self loops, gamma_ignore boosts the I self loop), lambda_tag
    tag emissions. topic_prior is a fixed additive log weight per word
    role in (A, V, B, I) order. N = 0 disables the value component
    entirely.
    """

    K: int = 10
    N: int = 2
    lambda_B: float = 0.2
    lambda_A: float = 0.075
    lambda_V: float = 0.15
    epsilon_V: float = 0.075
    lambda_AV: float = 1.0
    lambda_M: float = 1.0
    lambda_I: float = 0.2
    lambda_T: float = 1.0
    gamma_self: float = 1.0
    gamma_ignore: float = 5.0
    topic_prior: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    lambda_tag: float = 1.0
    use_ignore: bool = False
    use_pos: bool = False
    shared_aspects: bool = False
    shared_aspect_multinomial: bool = False
    max_iters: int = 50
    schedule: str = "batch"
    rng_seed: int = 0

    def validate(self) -> None:
        if self.K < 1:
            raise ModelError("K must be at least 1")
        if self.N < 0:
            raise ModelError("N must be non-negative")
        for name in (
            "lambda_B",
            "lambda_A",
            "lambda_V",
            "epsilon_V",
            "lambda_AV",
            "lambda_M",
            "lambda_I",
            "lambda_T",
            "lambda_tag",
        ):
            if getattr(self, name) <= 0.0:
                raise ModelError(f"{name} must be positive")
        if self.gamma_self < 0.0 or self.gamma_ignore < 0.0:
            raise ModelError("transition boosts must be non-negative")
        if len(self.topic_prior) != 4:
            raise ModelError("topic_prior needs one weight per role (A, V, B, I)")
        if self.max_iters < 1:
            raise ModelError("max_iters must be at least 1")
        if self.schedule not in ("batch", "sequential"):
            raise ModelError(f"unknown schedule {self.schedule!r}")
        if self.shared_aspect_multinomial and not self.shared_aspects:
            raise ModelError("shared_aspect_multinomial requires shared_aspects")

    def layout(self) -> TopicLayout:
        return TopicLayout.for_config(self.N, self.use_ignore)

    def topic_prior_vector(self, layout: Optional[TopicLayout] = None) -> np.ndarray:
        """topic_prior restricted to the enabled roles, in layout order."""
        layout = layout or self.layout()
        full = dict(zip(CANONICAL_TOPICS, self.topic_prior))
        return np.array([full[l] for l in layout.letters], dtype=float)


_BOOL_KEYS = {"use_ignore", "use_pos", "shared_aspects", "shared_aspect_multinomial"}
_INT_KEYS = {"K", "N", "max_iters", "rng_seed"}
_STR_KEYS = {"schedule"}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_json_types(hp_dict: dict) -> None:
    """Raise ModelError naming the first hyperparameter whose JSON value
    has the wrong type for its field (a bool is not an int here)."""
    for key, value in hp_dict.items():
        if key in _BOOL_KEYS:
            ok, want = isinstance(value, bool), "a bool"
        elif key in _INT_KEYS:
            ok, want = isinstance(value, int) and not isinstance(value, bool), "an int"
        elif key in _STR_KEYS:
            ok, want = isinstance(value, str), "a string"
        elif key == "topic_prior":
            ok = isinstance(value, list) and all(_is_number(v) for v in value)
            want = "a list of numbers"
        else:
            ok, want = _is_number(value), "a number"
        if not ok:
            raise ModelError(f"hyperparameter {key!r} must be {want}, got {value!r}")


def parse_config_value(key: str, raw: str):
    """Coerce a configuration value string to its typed form.

    Raises ModelError on an unknown key, ValueError on a bad value.
    """
    if key not in {f.name for f in fields(Hyperparameters)}:
        raise ModelError(f"unknown key {key!r}")
    if key in _BOOL_KEYS:
        if raw.lower() not in ("true", "false"):
            raise ValueError("expected true or false")
        return raw.lower() == "true"
    if key in _INT_KEYS:
        return int(raw)
    if key in _STR_KEYS:
        return raw
    if key == "topic_prior":
        parts = [float(p) for p in raw.split(",")]
        if len(parts) != 4:
            raise ValueError("expected four comma-separated floats")
        return tuple(parts)
    return float(raw)


def load_config(path: str) -> Hyperparameters:
    """Parse a flat ``key = value`` configuration file.

    Keys are exactly the Hyperparameters field names; anything else is a
    hard error. Blank lines and ``#`` comments are allowed. topic_prior
    takes four comma-separated floats.
    """
    known = {f.name for f in fields(Hyperparameters)}
    values: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ModelError(f"{path}:{lineno}: expected key = value")
            key, _, raw = line.partition("=")
            key, raw = key.strip(), raw.strip()
            if key not in known:
                raise ModelError(f"{path}:{lineno}: unknown key {key!r}")
            if key in values:
                raise ModelError(f"{path}:{lineno}: duplicate key {key!r}")
            try:
                values[key] = parse_config_value(key, raw)
            except ValueError as exc:
                raise ModelError(f"{path}:{lineno}: bad value for {key}: {exc}") from None
    hp = Hyperparameters(**values)
    hp.validate()
    return hp


def save_config(hp: Hyperparameters, path: str) -> None:
    """Write hp in the load_config format, atomically."""
    with atomic_open(path) as fh:
        for f in fields(Hyperparameters):
            v = getattr(hp, f.name)
            if f.name == "topic_prior":
                v = ",".join(repr(x) for x in v)
            elif isinstance(v, bool):
                v = "true" if v else "false"
            fh.write(f"{f.name} = {v}\n")


class DirichletFactor:
    """One Dirichlet posterior, or a bank of independent ones over one support.

    prior has shape (..., V): each slice along its last axis is one
    Dirichlet over V elements. A stacked bank (rows=R) holds R copies of
    that table as a read-only broadcast view, not as R copies, and its
    dense shape gains a leading axis of R.

    The posterior is kept on the factor's support: the (bank row,
    element) pairs that may be off the prior, as flat indices row * V +
    element in ascending order, every pair unless a support is given.
    table holds the concentration of every support cell, shape
    prior.shape[:-1] + (P,). A cell off the support sits at its prior, so
    its expected log is digamma(prior) - digamma(row total) and it adds
    exactly 0 to the KL: digamma and gammaln run on the support cells and
    the row totals only, with no approximation. A row total is its prior
    total plus its counts. The support only grows: a dense write with
    cells off the prior adds their pairs. The dense concentration and
    expected log are built on demand.
    """

    __slots__ = (
        "prior", "support", "table", "_base", "_n_rows", "_base_digamma", "_base_gammaln",
        "_base_total", "_row_of", "_col_of", "_prior_table", "_rows", "_starts", "_totals",
        "_elog", "_dense_elog", "_last_row", "_row_views",
    )

    def __init__(
        self, prior: np.ndarray, rows: Optional[int] = None, support: Optional[np.ndarray] = None
    ):
        base = np.asarray(prior, dtype=float)
        if base.size and base.min() <= 0.0:
            raise ModelError("Dirichlet prior concentrations must be positive")
        self._base = base
        self._n_rows = 1 if rows is None else rows
        self._base_digamma = digamma(base)
        self._base_gammaln = gammaln(base)
        self._base_total = base.sum(axis=-1)
        self.prior = base if rows is None else np.broadcast_to(base, (rows,) + base.shape)
        self._row_views: Optional[list[FactorRow]] = None
        if support is None:
            support = np.arange(self._n_rows * base.shape[-1])
        self._set_support(np.asarray(support, dtype=np.int64), None)

    def _set_support(self, support: np.ndarray, table: Optional[np.ndarray]) -> None:
        """Adopt a support and its cells' concentration (the prior if None):
        the bank row, element and prior of every support cell, and the bank
        rows that have support cells with the first cell of each."""
        self.support = support
        self._row_of, self._col_of = np.divmod(support, max(self._base.shape[-1], 1))
        self._prior_table = np.take(self._base, self._col_of, axis=-1)
        self._rows, self._starts = np.unique(self._row_of, return_index=True)
        self.table = self._prior_table.copy() if table is None else table
        self._changed()

    def _changed(self) -> None:
        """Recompute the row totals after a write to table, each the prior
        total plus the row's counts summed over its support cells, and drop
        the cached expected logs."""
        counts = np.zeros(self.table.shape[:-1] + (self._n_rows,))
        counts[..., self._rows] = np.add.reduceat(
            self.table - self._prior_table, self._starts, axis=-1
        )
        self._totals = self._base_total[..., None] + counts
        self._elog = self._dense_elog = self._last_row = None

    def grow(self, pairs: np.ndarray) -> None:
        """Add distinct (bank row, element) pairs, as flat indices, to the
        support."""
        new = pairs[~np.isin(pairs, self.support)]
        if new.size:
            support = np.sort(np.concatenate((self.support, new)))
            table = np.take(self._base, support % max(self._base.shape[-1], 1), axis=-1)
            table[..., np.searchsorted(support, self.support)] = self.table
            self._set_support(support, table)

    def rows(self) -> list[FactorRow]:
        """One FactorRow per leading index of a stacked bank, made once."""
        if self._row_views is None:
            self._row_views = [FactorRow(self, i) for i in range(self._n_rows)]
        return self._row_views

    def set_counts(self, counts: np.ndarray) -> None:
        """Replace the posterior with prior + counts (counts >= 0), counts
        given per support cell in the shape of table: for a factor over
        every pair of one table, the prior's shape."""
        if np.shape(counts) != self.table.shape:
            raise ModelError(f"counts have shape {np.shape(counts)}, expected {self.table.shape}")
        self.table = self._prior_table + counts
        self._changed()

    def _set_row(self, row: int, counts: np.ndarray) -> None:
        """Replace bank row `row` with prior + counts, counts dense (..., V)."""
        counts = np.asarray(counts, dtype=float)
        used = counts.any(axis=tuple(range(counts.ndim - 1)))
        self.grow(row * self._base.shape[-1] + np.flatnonzero(used))
        lo, hi = np.searchsorted(self._row_of, [row, row + 1])
        self.table[..., lo:hi] = self._prior_table[..., lo:hi] + counts[..., self._col_of[lo:hi]]
        self._changed()

    def table_elog(self) -> np.ndarray:
        """digamma(alpha) - digamma(row total) at every support cell, cached
        with the digamma of the row totals."""
        if self._elog is None:
            digamma_total = digamma(self._totals)
            elog = digamma(self.table) - np.take(digamma_total, self._row_of, axis=-1)
            self._elog = (digamma_total, elog)
        return self._elog[1]

    def _dense(
        self, fill: np.ndarray, values: np.ndarray, rows: slice = slice(None)
    ) -> np.ndarray:
        """The dense table of bank rows `rows`, (n, ..., V): fill (per bank
        row) with values, one per support cell, put at the support cells."""
        start, stop, _ = rows.indices(self._n_rows)
        lo, hi = np.searchsorted(self._row_of, [start, stop])
        out = np.empty((stop - start,) + self._base.shape)
        out[...] = fill
        cells = (self._row_of[lo:hi] - start, Ellipsis, self._col_of[lo:hi])
        out[cells] = np.moveaxis(values[..., lo:hi], -1, 0)
        return out

    def _elog_of(self, rows: slice = slice(None)) -> np.ndarray:
        """The dense expected log of bank rows `rows`, (n, ..., V)."""
        elog = self.table_elog()
        digamma_total = np.moveaxis(self._elog[0], -1, 0)[rows, ..., None]
        return self._dense(self._base_digamma - digamma_total, elog, rows)

    def _row_elog(self, row: int) -> np.ndarray:
        """The dense expected log of bank row `row`. The last row built is
        kept: the per-op updates read one entity's row many times."""
        if self._last_row is None or self._last_row[0] != row:
            self._last_row = (row, self._elog_of(slice(row, row + 1))[0])
        return self._last_row[1]

    @property
    def concentration(self) -> np.ndarray:
        """The dense concentration, built from the support."""
        return self._dense(self._base, self.table).reshape(self.prior.shape)

    @concentration.setter
    def concentration(self, conc: np.ndarray) -> None:
        """Set the dense concentration (>= prior); the pairs it takes off
        the prior join the support."""
        dense = np.reshape(conc, (self._n_rows,) + self._base.shape)
        off_prior = (dense != self._base).any(axis=tuple(range(1, dense.ndim - 1)))
        self.grow(np.flatnonzero(off_prior))
        cells = dense[self._row_of, ..., self._col_of]
        self.table = np.ascontiguousarray(np.moveaxis(cells, 0, -1))
        self._changed()

    def expected_log(self) -> np.ndarray:
        """digamma(alpha) - digamma(alpha total), dense, per row, cached."""
        if self._dense_elog is None:
            self._dense_elog = self._elog_of().reshape(self.prior.shape)
        return self._dense_elog

    def mean(self) -> np.ndarray:
        alpha = self.concentration
        return alpha / alpha.sum(axis=-1, keepdims=True)

    def kl_to_prior(self) -> float:
        """Sum over rows of KL(posterior row || prior row)."""
        return kl_sum([self])

    def _kl(self) -> float:
        # Per row: gammaln(A) - gammaln(B) - sum (gammaln(a) - gammaln(b))
        # + sum (a - b) E[log p], for posterior a, prior b and totals A, B;
        # cells off the support and rows without support cells add 0.
        a = self.table
        row_part = gammaln(self._totals[..., self._rows]) - gammaln(self._base_total)[..., None]
        cell_part = gammaln(a) - np.take(self._base_gammaln, self._col_of, axis=-1)
        cross = np.vdot(a - self._prior_table, self.table_elog())
        return float(row_part.sum() - cell_part.sum() + cross)


def kl_sum(factors: Sequence[DirichletFactor]) -> float:
    """Sum over factors and rows of KL(posterior row || prior row)."""
    return sum(f._kl() for f in factors)


class FactorRow:
    """Row `index` of a stacked factor bank, read and written through to
    the bank: one entity's Dirichlet factor.

    Its dense concentration and expected log are built on demand from the
    bank's support, so no dense table of the whole bank is made.
    """

    __slots__ = ("bank", "index")

    def __init__(self, bank: DirichletFactor, index: int):
        self.bank = bank
        self.index = index

    @property
    def prior(self) -> np.ndarray:
        return self.bank.prior[self.index]

    @property
    def concentration(self) -> np.ndarray:
        rows = slice(self.index, self.index + 1)
        return self.bank._dense(self.bank._base, self.bank.table, rows)[0]

    def set_counts(self, counts: np.ndarray) -> None:
        """Replace this row of the bank with prior + counts (counts >= 0)."""
        self.bank._set_row(self.index, counts)

    def expected_log(self) -> np.ndarray:
        return self.bank._row_elog(self.index)

    def mean(self) -> np.ndarray:
        alpha = self.concentration
        return alpha / alpha.sum(axis=-1, keepdims=True)

    def kl_to_prior(self) -> float:
        row = DirichletFactor(self.prior)
        row.concentration = self.concentration
        return row.kl_to_prior()


def expected_log(factor: DirichletFactor, element) -> float:
    """Expected log probability of one support element under a factor."""
    return float(factor.expected_log()[element])


def transition_means(start: DirichletFactor, main: DirichletFactor) -> np.ndarray:
    """Posterior mean transition table, start row first and end column
    last. The start-to-end cell is exactly 0 (the transition is outside
    the start row's support). Rows sum to 1."""
    n = len(start.prior)
    table = np.zeros((n + 1, n + 1))
    table[0, :n] = start.mean()
    table[1:] = main.mean()
    return table


@dataclass
class VariationalState:
    """All factors and per-snippet posteriors for one corpus.

    The entity-specific factors are stacked banks: psi (E, K), theta_A
    (E, K, V) and phi (E, K, N), with E = 1 when the corresponding
    sharing flag is on (phi is None when N = 0). The *_factor accessors
    give one entity's row. theta_A is held on its support, the (bank
    row, word) pairs that may be off the prior: its table is (K, P), and
    a fit grows the support to the pairs of its corpus, so every other
    cell stays at the prior. theta_A_factor(i) builds entity i's dense
    (K, V) row on demand. trans_start (n_topics,) and trans_main
    (n_topics, n_topics + 1, the last column the end marker) are the
    role chain's transition rows. q arrays are stored per entity: qa[i]
    has shape (snippets_i, K), qv[i] (snippets_i, N), and qw[i]
    (tokens_i, n_topics) with tokens concatenated in snippet order; a
    fitted state's arrays are views of the packed arrays of the
    UpdateContext that fit it.
    """

    hp: Hyperparameters
    layout: TopicLayout
    vocab_size: int
    tag_count: int
    snippet_counts: list[int]
    token_counts: list[list[int]]
    theta_B: DirichletFactor
    trans_start: DirichletFactor
    trans_main: DirichletFactor
    psi: DirichletFactor
    theta_A: DirichletFactor
    phi: Optional[DirichletFactor]
    theta_V: Optional[DirichletFactor]
    theta_I: Optional[DirichletFactor]
    eta: Optional[DirichletFactor]
    qa: list[np.ndarray]
    qv: Optional[list[np.ndarray]]
    qw: list[np.ndarray]
    seed_sets: list[list[int]] = field(default_factory=list)

    @property
    def n_entities(self) -> int:
        return len(self.snippet_counts)

    def psi_factor(self, entity: int) -> FactorRow:
        return self.psi.rows()[0 if self.hp.shared_aspect_multinomial else entity]

    def theta_A_factor(self, entity: int) -> FactorRow:
        return self.theta_A.rows()[0 if self.hp.shared_aspects else entity]

    def phi_factor(self, entity: int) -> FactorRow:
        return self.phi.rows()[0 if self.hp.shared_aspects else entity]

    def _shared_factors(self) -> list[DirichletFactor]:
        out = [self.theta_B, self.trans_start, self.trans_main]
        return out + [f for f in (self.theta_V, self.theta_I, self.eta) if f is not None]

    def _banks(self) -> list[DirichletFactor]:
        return [f for f in (self.psi, self.theta_A, self.phi) if f is not None]

    def parameter_factors(self) -> list:
        """Every Dirichlet factor in the state, in a fixed order; a stacked
        bank gives one factor per row (FactorRow)."""
        return self._shared_factors() + [row for bank in self._banks() for row in bank.rows()]

    def parameter_banks(self) -> list[DirichletFactor]:
        """The factors of parameter_factors() with each bank whole."""
        return self._shared_factors() + self._banks()

    def refresh_caches(self) -> None:
        for f in self.parameter_banks():
            f.table_elog()

    def matches_corpus(self, corpus: Corpus) -> bool:
        if corpus.n_entities != self.n_entities:
            return False
        for i, group in enumerate(corpus.snippets):
            if len(group) != self.snippet_counts[i]:
                return False
            if [len(sn) for sn in group] != self.token_counts[i]:
                return False
        return len(corpus.vocabulary) == self.vocab_size and len(corpus.tag_set) == self.tag_count


def value_prior(hp: Hyperparameters, vocab_size: int, seed_sets: Sequence[Sequence[int]]) -> np.ndarray:
    """Per-value-type emission prior: epsilon_V plus lambda_V on seeds."""
    prior = np.full((hp.N, vocab_size), hp.epsilon_V)
    for v, seeds in enumerate(seed_sets):
        for w in seeds:
            prior[v, w] += hp.lambda_V
    return prior


def transition_priors(hp: Hyperparameters, layout: TopicLayout) -> tuple[np.ndarray, np.ndarray]:
    """Start-row and main-table transition priors.

    lambda_T everywhere, gamma_self added to the A, V, and B self loops,
    and gamma_ignore added to the I self loop when the ignore role is
    enabled. The start row has no end column: a snippet always emits at
    least one word.
    """
    n = layout.n_topics
    start = np.full(n, hp.lambda_T)
    main = np.full((n, n + 1), hp.lambda_T)
    for letter in layout.letters:
        c = layout.col(letter)
        main[c, c] += hp.gamma_ignore if letter == "I" else hp.gamma_self
    return start, main


def tag_prior(hp: Hyperparameters, layout: TopicLayout, tag_count: int) -> np.ndarray:
    return np.full((layout.n_topics, tag_count), hp.lambda_tag)


def _prior_state(
    hp: Hyperparameters,
    vocab_size: int,
    tag_count: int,
    token_counts: list[list[int]],
    seed_sets: list[list[int]],
) -> VariationalState:
    """Every factor at its prior, stacked banks with one row per entity
    (one row when shared) and theta_A on an empty support, and uniform
    posteriors."""
    layout = hp.layout()
    V, n_entities = vocab_size, len(token_counts)
    n_asp = 1 if hp.shared_aspects else n_entities
    start, main = transition_priors(hp, layout)

    def uniform(rows, width):
        return np.full((rows, width), 1.0 / width)

    return VariationalState(
        hp=hp,
        layout=layout,
        vocab_size=V,
        tag_count=tag_count,
        snippet_counts=[len(row) for row in token_counts],
        token_counts=token_counts,
        theta_B=DirichletFactor(np.full(V, hp.lambda_B)),
        trans_start=DirichletFactor(start),
        trans_main=DirichletFactor(main),
        psi=DirichletFactor(
            np.full(hp.K, hp.lambda_M), rows=1 if hp.shared_aspect_multinomial else n_entities
        ),
        theta_A=DirichletFactor(np.full((hp.K, V), hp.lambda_A), rows=n_asp, support=[]),
        phi=DirichletFactor(np.full((hp.K, hp.N), hp.lambda_AV), rows=n_asp) if hp.N else None,
        theta_V=DirichletFactor(value_prior(hp, V, seed_sets)) if hp.N else None,
        theta_I=DirichletFactor(np.full(V, hp.lambda_I)) if hp.use_ignore else None,
        eta=DirichletFactor(tag_prior(hp, layout, tag_count)) if hp.use_pos else None,
        qa=[uniform(len(row), hp.K) for row in token_counts],
        qv=[uniform(len(row), hp.N) for row in token_counts] if hp.N else None,
        qw=[uniform(sum(row), layout.n_topics) for row in token_counts],
        seed_sets=seed_sets,
    )


def build_priors(
    hp: Hyperparameters,
    corpus: Corpus,
    seeds: Optional[SeedLexicon] = None,
) -> VariationalState:
    """Assemble a prior-only state: factors at their priors, posteriors uniform.

    Extracting parameter means from the result reproduces the prior
    means exactly. Raises ModelError when seeds are supplied with N = 0
    or name more value types than N.
    """
    hp.validate()
    seed_sets: list[list[int]] = [[] for _ in range(hp.N)]
    if seeds is not None and seeds.total_seeds() > 0:
        if hp.N == 0:
            raise ModelError("seed lexicon provided but N = 0 disables values")
        if seeds.n_values > hp.N:
            raise ModelError(
                f"seed lexicon names {seeds.n_values} value types but N = {hp.N}"
            )
        for v, s in enumerate(seeds.seed_words):
            seed_sets[v] = sorted(s)
    token_counts = [[len(sn) for sn in g] for g in corpus.snippets]
    return _prior_state(
        hp, len(corpus.vocabulary), len(corpus.tag_set), token_counts, seed_sets
    )


def init_state(
    hp: Hyperparameters,
    corpus: Corpus,
    seeds: Optional[SeedLexicon] = None,
) -> VariationalState:
    """Prior state with symmetry-breaking noise on the snippet posteriors.

    q(Z_A) and q(Z_V) rows are uniform values multiplied by independent
    noise in [0.95, 1.05] and renormalized; q(Z_W) stays exactly
    uniform. The draw order is fixed (entities in corpus order, aspects
    before values), so a given rng_seed always produces the same state.
    """
    state = build_priors(hp, corpus, seeds)
    rng = np.random.default_rng(hp.rng_seed)
    for i in range(state.n_entities):
        noise = rng.uniform(0.95, 1.05, size=state.qa[i].shape)
        qa = state.qa[i] * noise
        state.qa[i] = qa / qa.sum(axis=1, keepdims=True)
        if state.qv is not None:
            noise = rng.uniform(0.95, 1.05, size=state.qv[i].shape)
            qv = state.qv[i] * noise
            state.qv[i] = qv / qv.sum(axis=1, keepdims=True)
    return state


# The state attributes of the factors, which name them in the state file.
_FACTOR_KEYS = (
    "theta_B", "trans_start", "trans_main", "theta_V", "theta_I", "eta", "psi", "theta_A", "phi"
)


def _factor_payload(f: Optional[DirichletFactor]):
    return None if f is None else f.concentration


def save_state(state: VariationalState, path: str) -> None:
    """Serialize a state to versioned JSON, atomically.

    Floats are written with Python's shortest round-trip repr, so a
    load followed by a save reproduces the file byte for byte. The
    arrays go to the streaming writer as they are, so the payload is
    never held as nested Python lists. Factors are written dense,
    theta_A as its (entities, K, V) bank.
    """
    hp_dict = asdict(state.hp)
    hp_dict["topic_prior"] = list(hp_dict["topic_prior"])
    payload = {
        "format": STATE_FORMAT,
        "version": STATE_VERSION,
        "hyperparameters": hp_dict,
        "topics": list(state.layout.letters),
        "vocab_size": state.vocab_size,
        "tag_count": state.tag_count,
        "snippet_counts": state.snippet_counts,
        "token_counts": state.token_counts,
        "seed_sets": [list(s) for s in state.seed_sets],
        "factors": {name: _factor_payload(getattr(state, name)) for name in _FACTOR_KEYS},
        "q": {
            "qa": state.qa,
            "qv": state.qv,
            "qw": state.qw,
        },
    }
    if state.phi is None:
        payload["factors"]["phi"] = []
    write_json(payload, path)


def _array(value, shape: tuple[int, ...], what: str) -> np.ndarray:
    """A finite float array of the given shape read from a state file."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ModelError(f"{what} is not a numeric array") from None
    if arr.size == 0 and np.prod(shape) == 0:
        arr = arr.reshape(shape)  # JSON writes any empty array as []
    if arr.shape != shape:
        raise ModelError(f"{what} has shape {arr.shape}, expected {shape}")
    if not np.isfinite(arr).all():
        raise ModelError(f"{what} is not finite")
    return arr


def _restore_factor(f: Optional[DirichletFactor], payload, name: str) -> None:
    if f is None:
        if payload not in (None, []):
            raise ModelError(f"factor {name} is present but the configuration disables it")
        return
    conc = _array(payload, f.prior.shape, f"factor {name}")
    if not (conc >= f.prior).all():
        raise ModelError(f"factor {name} has a concentration below its prior")
    f.concentration = conc


def _restore_posteriors(payload, name: str, rows: list[int], width: int) -> list[np.ndarray]:
    if not isinstance(payload, list) or len(payload) != len(rows):
        raise ModelError(f"{name} needs one array per entity ({len(rows)})")
    out = []
    for i, (value, n) in enumerate(zip(payload, rows)):
        q = _array(value, (n, width), f"{name}[{i}]")
        if q.size and (q.min() < 0.0 or np.abs(q.sum(axis=1) - 1.0).max() > 1e-6):
            raise ModelError(f"{name}[{i}] rows are not probability distributions")
        out.append(q)
    return out


def _state_from_payload(payload: dict) -> VariationalState:
    if payload.get("format") != STATE_FORMAT:
        raise ModelError("not a state file")
    if payload.get("version") != STATE_VERSION:
        raise ModelError(f"unsupported state version {payload.get('version')}")
    hp_dict = dict(payload["hyperparameters"])
    _check_json_types(hp_dict)
    hp_dict["topic_prior"] = tuple(hp_dict["topic_prior"])
    hp = Hyperparameters(**hp_dict)
    hp.validate()
    layout = hp.layout()
    if list(layout.letters) != payload["topics"]:
        raise ModelError("topic layout does not match configuration")

    V = int(payload["vocab_size"])
    T = int(payload["tag_count"])
    token_counts = [[int(x) for x in row] for row in payload["token_counts"]]
    if [len(row) for row in token_counts] != [int(x) for x in payload["snippet_counts"]]:
        raise ModelError("snippet_counts do not match token_counts")
    seed_sets = [[int(w) for w in s] for s in payload["seed_sets"]]
    if len(seed_sets) != hp.N or any(not 0 <= w < V for s in seed_sets for w in s):
        raise ModelError(f"seed_sets need {hp.N} lists of word indices below {V}")
    state = _prior_state(hp, V, T, token_counts, seed_sets)

    fpay = payload["factors"]
    for name in _FACTOR_KEYS:
        _restore_factor(getattr(state, name), fpay[name], name)

    qpay = payload["q"]
    snippets = state.snippet_counts
    state.qa = _restore_posteriors(qpay["qa"], "qa", snippets, hp.K)
    if hp.N >= 1:
        state.qv = _restore_posteriors(qpay["qv"], "qv", snippets, hp.N)
    elif qpay["qv"] is not None:
        raise ModelError("qv is present but N = 0")
    tokens = [sum(row) for row in token_counts]
    state.qw = _restore_posteriors(qpay["qw"], "qw", tokens, layout.n_topics)
    return state


def load_state(path: str) -> VariationalState:
    """Rebuild a VariationalState from its JSON serialization.

    Checks the keys, every shape, that all numbers are finite, that the
    posterior rows are distributions and that no concentration is below
    its prior; any fault raises ModelError naming the file. theta_A's
    support is the (entity, word) pairs the file has off the prior.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelError(f"{path}: not valid JSON: {exc}") from None
    try:
        return _state_from_payload(payload)
    except ModelError as exc:
        raise ModelError(f"{path}: {exc}") from None
    except KeyError as exc:
        raise ModelError(f"{path}: missing key {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise ModelError(f"{path}: malformed state: {exc}") from None
