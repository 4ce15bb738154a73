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
dense entities x aspects x words bank is built only on demand. A state
file holds each factor the same way, as its support and table.

scipy.special is imported on the first special-function call, not with
this module: loading, reading and saving a state evaluate none, and the
import costs about 0.3 s of every process start.

Word roles are A (aspect word), V (value word), B (background), and,
when enabled, I (ignore). Roles are laid out in that canonical order,
skipping disabled ones; the transition chain adds a virtual start row
and an end column.
"""

from __future__ import annotations

import binascii
import collections.abc
import itertools
import json
import logging
import math
import os
import re
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from snipagg.corpus import Corpus, SeedLexicon, read_lines
from snipagg.output import atomic_open, write_json

log = logging.getLogger(__name__)

STATE_FORMAT = "snipagg-state"
STATE_VERSION = 3

CANONICAL_TOPICS = ("A", "V", "B", "I")

# Ceiling on every size built from declared counts, enforced by
# check_cells before anything is built. Its callers: `snipagg generate`,
# agglomerative_cluster (a scope's similarity matrix), load_true_params
# (theta_A's declared dense shape) and check_state_sizes (every table of
# a state, run by `snipagg fit`, build_priors, run_inference and
# load_state). The
# reference corpus (300 x 42 snippets, vocab_size 1200, K = 10) has a
# 3.6M-cell aspect table.
MAX_CELLS = 10**8

# Support cells whose expected log DirichletFactor._kl holds at once: a
# table of any size is scored in pieces of at most this many cells.
ELOG_CELLS = 2**14


class ModelError(ValueError):
    """Invalid configuration or state."""


def check_cells(what: str, *sizes: int, error: type[ValueError] = ModelError) -> None:
    """Raise error if what, a table of the product of sizes cells, would
    exceed MAX_CELLS; call it before the table is built."""
    cells = math.prod(sizes)
    if cells > MAX_CELLS:
        product = " x ".join(map(str, sizes)) + f" = {cells}" if len(sizes) > 1 else cells
        raise error(f"{what} = {product} exceeds the size ceiling ({MAX_CELLS})")


def digamma(x):
    """scipy.special.digamma, imported on first use."""
    from scipy.special import digamma

    return digamma(x)


def gammaln(x):
    """scipy.special.gammaln, imported on first use."""
    from scipy.special import gammaln

    return gammaln(x)


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

    Every field's type is that of its default; _HP_TYPES lists them, and
    --set, config files and state files are read and written by that
    table alone. validate requires every float, and every topic_prior
    weight, to be finite. The two sharing flags are read only here:
    bank_rows turns them into the row counts the entity banks are built
    with, and the rest of the package reads a bank's own row count.
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
        for name, kind in _HP_TYPES.items():
            if kind in (float, tuple) and not np.isfinite(getattr(self, name)).all():
                raise ModelError(f"{name} must be finite")
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
        if self.rng_seed < 0:
            raise ModelError("rng_seed must be non-negative")
        if self.schedule not in ("batch", "sequential"):
            raise ModelError(f"unknown schedule {self.schedule!r}")
        if self.shared_aspect_multinomial and not self.shared_aspects:
            raise ModelError("shared_aspect_multinomial requires shared_aspects")

    def bank_rows(self, n_entities: int) -> tuple[int, int]:
        """Row counts of psi and of the aspect banks (theta_A, phi): one
        row when shared, else one per entity. psi follows
        shared_aspect_multinomial only."""
        return (
            1 if self.shared_aspect_multinomial else n_entities,
            1 if self.shared_aspects else n_entities,
        )

    def layout(self) -> TopicLayout:
        return TopicLayout.for_config(self.N, self.use_ignore)

    def topic_prior_vector(self, layout: Optional[TopicLayout] = None) -> np.ndarray:
        """topic_prior restricted to the enabled roles, in layout order."""
        layout = layout or self.layout()
        full = dict(zip(CANONICAL_TOPICS, self.topic_prior))
        return np.array([full[l] for l in layout.letters], dtype=float)


# Every field's type, that of its default: bool, int, float, str or tuple.
_HP_TYPES = {f.name: type(f.default) for f in fields(Hyperparameters)}
# What a state file must hold for a field of each type.
_JSON_WANT = {
    bool: "a bool", int: "an int", str: "a string", float: "a number", tuple: "a list of numbers"
}


def hp_to_json(hp: Hyperparameters) -> dict:
    """hp as the JSON object of a state file or manifest: every field, a
    tuple as a list."""
    return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(hp).items()}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _hp_from_json(hp_dict: dict) -> Hyperparameters:
    """The inverse of hp_to_json, validated. Raises ModelError naming the
    missing and unknown keys, or the first hyperparameter whose JSON value
    has the wrong type for its field (a bool is not an int here)."""
    missing, unknown = sorted(_HP_TYPES.keys() - hp_dict), sorted(hp_dict.keys() - _HP_TYPES)
    if missing or unknown:
        raise ModelError(f"hyperparameters: missing {missing}, unknown {unknown}")
    for key, value in hp_dict.items():
        kind = _HP_TYPES[key]
        if kind is tuple:
            ok = isinstance(value, list) and all(_is_number(v) for v in value)
        else:
            ok = _is_number(value) if kind is float else type(value) is kind
        if not ok:
            raise ModelError(f"hyperparameter {key!r} must be {_JSON_WANT[kind]}, got {value!r}")
    hp = Hyperparameters(**{k: tuple(v) if isinstance(v, list) else v for k, v in hp_dict.items()})
    hp.validate()
    return hp


def parse_config_value(key: str, raw: str):
    """Coerce a configuration value string to its typed form.

    Raises ModelError on an unknown key, ValueError on a bad value.
    """
    kind = _HP_TYPES.get(key)
    if kind is None:
        raise ModelError(f"unknown key {key!r}")
    if kind is bool:
        if raw.lower() not in ("true", "false"):
            raise ValueError("expected true or false")
        return raw.lower() == "true"
    if kind is tuple:
        parts = tuple(float(p) for p in raw.split(","))
        if len(parts) != 4:
            raise ValueError("expected four comma-separated floats")
        return parts
    return kind(raw)


def load_config(path: str) -> Hyperparameters:
    """Parse a flat ``key = value`` configuration file.

    Keys are exactly the Hyperparameters field names; anything else is a
    hard error. Blank lines and ``#`` comments are allowed. topic_prior
    takes four comma-separated floats. Every ModelError names the file:
    a line's fault as path:line, a fault validate finds as path.
    """
    values: dict = {}
    for lineno, line in read_lines(path, ModelError):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ModelError(f"{path}:{lineno}: expected key = value")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _HP_TYPES:
            raise ModelError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ModelError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            values[key] = parse_config_value(key, raw)
        except ValueError as exc:
            raise ModelError(f"{path}:{lineno}: bad value for {key}: {exc}") from None
    hp = Hyperparameters(**values)
    try:
        hp.validate()
    except ModelError as exc:
        raise ModelError(f"{path}: {exc}") from None
    return hp


def save_config(hp: Hyperparameters, path: str) -> None:
    """Write hp in the load_config format, atomically."""
    with atomic_open(path) as fh:
        for key, v in hp_to_json(hp).items():
            if isinstance(v, list):
                v = ",".join(repr(x) for x in v)
            elif isinstance(v, bool):
                v = "true" if v else "false"
            fh.write(f"{key} = {v}\n")


def _minus(x: np.ndarray, y) -> np.ndarray:
    """x - y for a fresh array x, written into x when y is a scalar or laid
    out as x, so the difference keeps the layout x - y would give it. (An
    F-ordered x less a C-ordered y is laid out otherwise, and a .sum() of
    it then adds its cells in another order.)"""
    in_place = np.ndim(y) == 0 or (np.shape(y) == x.shape and y.strides == x.strides)
    return np.subtract(x, y, out=x if in_place else None)


class DirichletFactor:
    """One Dirichlet posterior, or a bank of independent ones over one support.

    prior has shape (..., V): each slice along its last axis is one
    Dirichlet over V elements. A stacked bank (rows=R) holds R copies of
    that table as a read-only broadcast view, not as R copies, and its
    dense shape gains a leading axis of R. entity_rows maps entity
    indices to bank rows from R alone: a one-row bank is shared by every
    entity.

    The posterior is kept on the factor's support: the (bank row,
    element) pairs that may be off the prior, as flat indices row * V +
    element in ascending order, every pair unless a support is given.
    table holds the concentration of every support cell, shape
    prior.shape[:-1] + (P,). A cell off the support sits at its prior, so
    its expected log is digamma(prior) - digamma(row total) and it adds
    exactly 0 to the KL: digamma and gammaln run on the support cells and
    the row totals only, with no approximation. A row total is its prior
    total plus its counts. The support only grows, through grow: a
    dense write or a restored file adds its pairs off the prior. table is
    cell-major: .T is one row per cell.

    Until the next write the factor keeps the digamma of its row totals
    and, once asked for, its dense expected log. The expected log of the
    support cells is not kept: elog_cells computes it for a run of cells
    from the table, and the dense concentration is built on demand. A
    fit reads the dense expected log of every factor but theta_A, whose
    dense bank is entities x aspects x words; it reads theta_A's expected
    log one block of support cells at a time (see snipagg.inference).
    The digamma and gammaln of the prior (scalars if it is constant) are
    computed on first use and kept.
    """

    __slots__ = (
        "prior", "support", "table", "_base", "_compact", "_n_rows", "_base_special", "_base_total",
        "_row_of", "_col_of", "_prior_table", "_rows", "_starts", "_totals", "_digamma_total",
        "_dense_elog", "_row_views",
    )

    def __init__(
        self, prior: np.ndarray, rows: Optional[int] = None, support: Optional[np.ndarray] = None
    ):
        base = np.asarray(prior, dtype=float)
        if base.size and base.min() <= 0.0:
            raise ModelError("Dirichlet prior concentrations must be positive")
        self._base = base
        self._compact = base.max() if base.size and base.min() == base.max() else base
        self._n_rows = 1 if rows is None else rows
        self._base_special: Optional[tuple[np.ndarray, np.ndarray]] = None
        self._base_total = base.sum(axis=-1)
        self.prior = base if rows is None else np.broadcast_to(base, (rows,) + base.shape)
        self._row_views: Optional[list[FactorRow]] = None
        if support is None:
            support = np.arange(self._n_rows * base.shape[-1])
        self._set_support(np.asarray(support, dtype=np.int64))
        self._changed()

    def _set_support(self, support: np.ndarray) -> None:
        """Adopt a support with every cell at its prior: the bank row,
        element and prior of every support cell, and the bank rows that
        have support cells with the first cell of each. The caller runs
        _changed once it has written the table."""
        self.support = support
        self._row_of, self._col_of = np.divmod(support, max(self._base.shape[-1], 1))
        self._prior_table = self._at_support(self._compact)
        self._rows, self._starts = np.unique(self._row_of, return_index=True)
        self.table = np.empty(self._base.shape[:-1] + support.shape, order="F")
        self.table[...] = self._prior_table

    def _at_support(self, a):
        """a (per prior cell, or one scalar that stays one) at every support cell."""
        return a if np.ndim(a) == 0 else np.take(a, self._col_of, axis=-1)

    def _base_log(self) -> tuple[np.ndarray, np.ndarray]:
        """digamma and gammaln of the (compact) prior, computed on first use."""
        if self._base_special is None:
            self._base_special = (digamma(self._compact), gammaln(self._compact))
        return self._base_special

    def _changed(self) -> None:
        """Recompute the row totals after a write to table, each the prior
        total plus the row's counts summed over its support cells, and drop
        the cached digamma of the totals and dense expected log."""
        counts = np.zeros(self.table.shape[:-1] + (self._n_rows,))
        counts[..., self._rows] = np.add.reduceat(
            self.table - self._prior_table, self._starts, axis=-1
        )
        self._totals = self._base_total[..., None] + counts
        self._digamma_total = self._dense_elog = None

    def grow(self, pairs: np.ndarray, table: Optional[np.ndarray] = None) -> np.ndarray:
        """Add distinct (bank row, element) pairs, as flat indices, to the
        support; returns their columns in table. Given table (the
        concentration of each pair, in the shape of self.table with one
        cell per pair), those cells take it. Either way the row totals
        are recomputed once."""
        new = pairs[~np.isin(pairs, self.support)]
        if new.size:
            old, old_table = self.support, self.table
            self._set_support(np.sort(np.concatenate((old, new))))
            self.table[..., np.searchsorted(self.support, old)] = old_table
        cols = np.searchsorted(self.support, pairs)
        if table is not None:
            self.table[..., cols] = table
        if new.size or table is not None:
            self._changed()
        return cols

    def entity_rows(self, entities):
        """The bank row of each entity index, an int or an int array: row
        0 of a one-row bank."""
        return entities if self._n_rows > 1 else 0 * entities

    def rows(self) -> list[FactorRow]:
        """One FactorRow per leading index of a stacked bank, made once."""
        if self._row_views is None:
            self._row_views = [FactorRow(self, i) for i in range(self._n_rows)]
        return self._row_views

    def set_counts(self, counts: np.ndarray) -> None:
        """Replace the posterior with prior + counts (counts >= 0), counts
        given per support cell in the shape of table: for a factor over
        every pair of one table, the prior's shape. counts is left as it is."""
        if np.shape(counts) != self.table.shape:
            raise ModelError(f"counts have shape {np.shape(counts)}, expected {self.table.shape}")
        self._adopt(np.array(counts, dtype=float, order="F"))

    def _adopt(self, counts: np.ndarray) -> None:
        """set_counts for a fresh counts array laid out as table
        (cell-major), which becomes the table: the prior is added to it in
        place. An int array (a bincount of no tokens) is made float first."""
        counts = np.asarray(counts, dtype=float)
        self.table = np.add(counts, self._prior_table, out=counts)
        self._changed()

    def _write(self, start: int, dense: np.ndarray) -> None:
        """Set bank rows start:start + len(dense) to dense, (n, ..., V); the
        pairs it takes off the prior first join the support."""
        off_prior = (dense != self._base).any(axis=tuple(range(1, dense.ndim - 1)))
        self.grow(start * self._base.shape[-1] + np.flatnonzero(off_prior))
        lo, hi = np.searchsorted(self._row_of, [start, start + len(dense)])
        cells = dense[self._row_of[lo:hi] - start, ..., self._col_of[lo:hi]]
        self.table[..., lo:hi] = np.moveaxis(cells, 0, -1)
        self._changed()

    def _digamma_totals(self) -> np.ndarray:
        """digamma of the row totals, (..., R), kept until the next write."""
        if self._digamma_total is None:
            self._digamma_total = digamma(self._totals)
        return self._digamma_total

    def elog_cells(self, lo: int, hi: int) -> np.ndarray:
        """digamma(alpha) - digamma(row total) at support cells lo:hi, in
        the shape of table[..., lo:hi] and cell-major like it, computed
        from the table on each call."""
        at_rows = np.take(self._digamma_totals().T, self._row_of[lo:hi], axis=0)
        return _minus(digamma(self.table.T[lo:hi]), at_rows).T

    def table_elog(self) -> np.ndarray:
        """elog_cells of every support cell, in the shape of table. Not kept:
        a fit never asks for theta_A's (see the class docstring)."""
        return self.elog_cells(0, len(self.support))

    def _dense(
        self, fill: np.ndarray, values: Callable[[int, int], np.ndarray], rows: slice = slice(None)
    ) -> np.ndarray:
        """The dense table of bank rows `rows`, (n, ..., V): fill (per bank
        row) with values(lo, hi), the values of the rows' support cells
        lo:hi in the shape of table[..., lo:hi], put at those cells."""
        start, stop, _ = rows.indices(self._n_rows)
        lo, hi = np.searchsorted(self._row_of, [start, stop])
        out = np.empty((stop - start,) + self._base.shape)
        out[...] = fill
        cells = (self._row_of[lo:hi] - start, Ellipsis, self._col_of[lo:hi])
        out[cells] = np.moveaxis(values(lo, hi), -1, 0)
        return out

    def _cells(self, lo: int, hi: int) -> np.ndarray:
        """The concentration of support cells lo:hi, a view of table."""
        return self.table[..., lo:hi]

    def _elog_of(self, rows: slice = slice(None)) -> np.ndarray:
        """The dense expected log of bank rows `rows`, (n, ..., V)."""
        digamma_total = np.moveaxis(self._digamma_totals(), -1, 0)[rows, ..., None]
        return self._dense(self._base_log()[0] - digamma_total, self.elog_cells, rows)

    @property
    def concentration(self) -> np.ndarray:
        """The dense concentration, built from the support."""
        return self._dense(self._base, self._cells).reshape(self.prior.shape)

    def expected_log(self) -> np.ndarray:
        """digamma(alpha) - digamma(alpha total), dense, per row, kept until
        the next write."""
        if self._dense_elog is None:
            self._dense_elog = self._elog_of().reshape(self.prior.shape)
        return self._dense_elog

    def mean(self) -> np.ndarray:
        alpha = self.concentration
        return alpha / alpha.sum(axis=-1, keepdims=True)

    def kl_to_prior(self) -> float:
        """Sum over rows of KL(posterior row || prior row)."""
        return self._kl()

    def _kl_at_refit(self) -> float:
        """_kl(counts) right after set_counts(counts), where a = b + counts:
        ln B(b) - ln B(a) over the rows, each gammaln(A) - gammaln(B) - sum
        (gammaln(a) - gammaln(b)) for posterior a, prior b and totals A,
        B. It reads no expected log. Cells off the support and rows
        without support cells add 0."""
        row_part = gammaln(self._totals[..., self._rows]) - gammaln(self._base_total)[..., None]
        cell_part = _minus(gammaln(self.table), self._at_support(self._base_log()[1])).sum()
        return float(row_part.sum() - cell_part)

    def _kl(self, counts=0.0) -> float:
        """KL(posterior || prior) - <counts, E[log p]>, counts per support
        cell: the factor's free-energy term when counts are the
        posteriors' expected counts. That is _kl_at_refit plus the cross
        term sum (a - b - counts) E[log p], whose expected log is computed
        ELOG_CELLS support cells at a time."""
        def at(x, lo, hi):  # a per-cell array's cells lo:hi; a scalar as it is
            return x if np.ndim(x) == 0 else x[..., lo:hi]

        n_cells, cross = len(self.support), 0.0
        for lo in range(0, n_cells, ELOG_CELLS):
            hi = min(lo + ELOG_CELLS, n_cells)
            off = _minus(self._cells(lo, hi) - at(self._prior_table, lo, hi), at(counts, lo, hi))
            cross += np.vdot(off.T, self.elog_cells(lo, hi).T)
        return self._kl_at_refit() + float(cross)


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
        return self.bank._dense(self.bank._base, self.bank._cells, rows)[0]

    def set_counts(self, counts: np.ndarray) -> None:
        """Replace this row of the bank with prior + counts (counts >= 0, dense)."""
        if np.shape(counts) != self.prior.shape:
            raise ModelError(f"counts have shape {np.shape(counts)}, expected {self.prior.shape}")
        self.bank._write(self.index, (self.bank._base + counts)[None])

    def expected_log(self) -> np.ndarray:
        return self.bank._elog_of(slice(self.index, self.index + 1))[0]

    def mean(self) -> np.ndarray:
        alpha = self.concentration
        return alpha / alpha.sum(axis=-1, keepdims=True)

    def kl_to_prior(self) -> float:
        row = DirichletFactor(self.prior)
        row.grow(row.support, self.concentration)
        return row.kl_to_prior()


def transition_means(start: DirichletFactor, main: DirichletFactor) -> np.ndarray:
    """Posterior mean transition table, start row first and end column
    last. The start-to-end cell is exactly 0 (the transition is outside
    the start row's support). Rows sum to 1."""
    n = len(start.prior)
    table = np.zeros((n + 1, n + 1))
    table[0, :n] = start.mean()
    table[1:] = main.mean()
    return table


class EntityRows(collections.abc.Sequence):
    """A read-only per-entity sequence over one packed array: item i is
    the view of rows bounds[i]:bounds[i+1] of packed, entity i's. Rows
    are written through the views (rows[i][:] = ...) or packed itself."""

    def __init__(self, packed: np.ndarray, bounds: list[int]):
        self.packed, self.bounds = packed, bounds

    def __len__(self) -> int:
        return len(self.bounds) - 1

    def __getitem__(self, i: int) -> np.ndarray:
        i = range(len(self))[i]
        return self.packed[self.bounds[i] : self.bounds[i + 1]]


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
    role chain's transition rows. Each posterior is one C-contiguous
    array packed over the corpus, snippets and tokens in corpus order:
    qa.packed (S, K), qv.packed (S, N; qv is None when N = 0) and
    qw.packed (T, n_topics). qa, qv and qw read them per entity
    (EntityRows): qa[i] is the view of entity i's (snippets_i, K) rows,
    qv[i] its (snippets_i, N) and qw[i] its (tokens_i, n_topics), tokens
    in snippet order. A fit, the per-op updates and load_state write and
    read the packed arrays themselves (UpdateContext binds them).
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
    qa: EntityRows
    qv: Optional[EntityRows]
    qw: EntityRows
    seed_sets: list[list[int]] = field(default_factory=list)

    @property
    def n_entities(self) -> int:
        return len(self.snippet_counts)

    def psi_factor(self, entity: int) -> FactorRow:
        return self.psi.rows()[self.psi.entity_rows(entity)]

    def theta_A_factor(self, entity: int) -> FactorRow:
        return self.theta_A.rows()[self.theta_A.entity_rows(entity)]

    def phi_factor(self, entity: int) -> FactorRow:
        return self.phi.rows()[self.phi.entity_rows(entity)]

    def _shared_factors(self) -> list[DirichletFactor]:
        out = [self.theta_B, self.trans_start, self.trans_main]
        return out + [f for f in (self.theta_V, self.theta_I, self.eta) if f is not None]

    def _banks(self) -> list[DirichletFactor]:
        return [f for f in (self.psi, self.theta_A, self.phi) if f is not None]

    def parameter_factors(self) -> list:
        """Every Dirichlet factor in the state, in a fixed order; a stacked
        bank gives one factor per row (FactorRow)."""
        return self._shared_factors() + [row for bank in self._banks() for row in bank.rows()]

    def refresh_caches(self) -> None:
        """Build what each factor keeps until its next write (see
        DirichletFactor): the digamma of every factor's row totals, and
        the dense expected log of every factor but theta_A, whose expected
        log a fit computes one block of support cells at a time."""
        for f in self._shared_factors() + self._banks():
            if f is self.theta_A:
                f._digamma_totals()
            else:
                f.expected_log()

    def matches_corpus(self, corpus: Corpus) -> bool:
        counts = corpus.token_counts()
        shape = (counts, [len(row) for row in counts], len(corpus.vocabulary), len(corpus.tag_set))
        return shape == (self.token_counts, self.snippet_counts, self.vocab_size, self.tag_count)


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


def check_state_sizes(
    hp: Hyperparameters, vocab_size: int, tag_count: int, n_entities: int, n_snippets: int
) -> None:
    """check_cells on every table of a state of these sizes: qa, qv, the
    dense priors of a theta_A row, theta_V and eta, and phi's bank."""
    check_cells("snippets x K", n_snippets, hp.K)
    check_cells("snippets x N", n_snippets, hp.N)
    check_cells("K x vocab_size", hp.K, vocab_size)
    check_cells("N x vocab_size", hp.N, vocab_size)
    check_cells("topics x tag_count", hp.layout().n_topics if hp.use_pos else 0, tag_count)
    check_cells("aspect rows x K x N", hp.bank_rows(n_entities)[1], hp.K, hp.N)


def _prior_state(
    hp: Hyperparameters,
    vocab_size: int,
    tag_count: int,
    token_counts: list[list[int]],
    seed_sets: list[list[int]],
    q: dict,
) -> VariationalState:
    """Every factor at its prior, stacked banks with the row counts of
    hp.bank_rows (one row per entity, one when shared) and theta_A on an
    empty support, holding the packed posteriors q ({"qa", "qv", "qw"},
    read per entity through EntityRows). The caller has refused sizes
    above MAX_CELLS (check_state_sizes)."""
    layout = hp.layout()
    V = vocab_size
    n_psi, n_asp = hp.bank_rows(len(token_counts))
    start, main = transition_priors(hp, layout)
    snips = [0, *itertools.accumulate(map(len, token_counts))]
    toks = [0, *itertools.accumulate(map(sum, token_counts))]
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
        psi=DirichletFactor(np.full(hp.K, hp.lambda_M), rows=n_psi),
        theta_A=DirichletFactor(np.broadcast_to(hp.lambda_A, (hp.K, V)), n_asp, support=[]),
        phi=DirichletFactor(np.full((hp.K, hp.N), hp.lambda_AV), rows=n_asp) if hp.N else None,
        theta_V=DirichletFactor(value_prior(hp, V, seed_sets)) if hp.N else None,
        theta_I=DirichletFactor(np.full(V, hp.lambda_I)) if hp.use_ignore else None,
        eta=DirichletFactor(tag_prior(hp, layout, tag_count)) if hp.use_pos else None,
        seed_sets=seed_sets,
        qa=EntityRows(q["qa"], snips),
        qv=None if q["qv"] is None else EntityRows(q["qv"], snips),
        qw=EntityRows(q["qw"], toks),
    )


def build_priors(
    hp: Hyperparameters,
    corpus: Corpus,
    seeds: Optional[SeedLexicon] = None,
) -> VariationalState:
    """Assemble a prior-only state: factors at their priors, posteriors uniform.

    Extracting parameter means from the result reproduces the prior
    means exactly. Raises ModelError when seeds are supplied with N = 0
    or name more value types than N, and for sizes above MAX_CELLS
    (check_state_sizes) before anything is built.
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
    V, T, counts = len(corpus.vocabulary), len(corpus.tag_set), corpus.token_counts()
    S, n = corpus.n_snippets, hp.layout().n_topics
    check_state_sizes(hp, V, T, len(counts), S)
    q = {
        "qa": np.full((S, hp.K), 1.0 / hp.K),
        "qv": np.full((S, hp.N), 1.0 / hp.N) if hp.N else None,
        "qw": np.full((corpus.n_tokens, n), 1.0 / n),
    }
    return _prior_state(hp, V, T, counts, seed_sets, q)


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
    The noise is written through each entity's view of the packed arrays.
    """
    state = build_priors(hp, corpus, seeds)
    rng = np.random.default_rng(hp.rng_seed)
    posteriors = [q for q in (state.qa, state.qv) if q is not None]
    for i in range(state.n_entities):
        for rows in (q[i] for q in posteriors):
            rows *= rng.uniform(0.95, 1.05, size=rows.shape)
            rows /= rows.sum(axis=1, keepdims=True)
    return state


# The dtype of each kind of encoded array: supports hold indices, tables
# and posteriors concentrations and probabilities.
_INDEX, _FLOAT = "<i8", "<f8"
_BLOB_KEYS = {"data", "dtype", "shape"}
# Standard base64 text, given a length that is a multiple of 4: the
# alphabet, then at most two pad characters.
_BASE64 = re.compile("[A-Za-z0-9+/]*={0,2}")
# Characters of base64 text decoded at a time: a multiple of 4, 768 KB.
_B64_PIECE = 2**20


def _blob(a: np.ndarray, dtype: str) -> dict:
    """An array as a state or true parameters file holds it: its dtype,
    its shape and its little-endian C-order bytes, which write_json
    writes as their base64 in bounded pieces. The bytes are read piece
    by piece (_pieces), so no C-ordered copy of the whole is made."""
    return {"dtype": dtype, "shape": list(a.shape), "data": _pieces(a, dtype)}


def _pieces(a: np.ndarray, dtype: str) -> Iterator[memoryview]:
    """The little-endian C-order bytes of a: as it is where it is of
    dtype and C-contiguous (or has at most one axis), else one leading
    row at a time, each row copied to C order."""
    if a.ndim > 1 and not (a.flags.c_contiguous and a.dtype == dtype):
        for row in a:
            yield from _pieces(row, dtype)
    else:
        yield memoryview(np.ascontiguousarray(a, dtype=dtype).reshape(-1).view(np.uint8))


def _decoded(value, dtype: str, what: str) -> np.ndarray:
    """An encoded array field of a state file as a writable array of
    dtype. The blob must have exactly the keys data, dtype and shape, the
    given dtype, a shape of non-negative JSON integers and standard base64
    data (a string that base64.b64decode(validate=True) takes, without
    the padding it also takes after a whole quad) of exactly the bytes
    that shape needs, checked before any array is made, so a large
    declared shape allocates nothing: the text's length fixes its bytes.
    The text is then decoded straight into the array, _B64_PIECE
    characters at a time, so the bytes are never held whole twice."""
    if not isinstance(value, dict) or value.keys() != _BLOB_KEYS:
        raise ModelError(f"{what} is not an encoded array with keys {sorted(_BLOB_KEYS)}")
    if value["dtype"] != dtype:
        raise ModelError(f"{what} has dtype {value['dtype']!r}, expected {dtype!r}")
    shape = value["shape"]
    if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
        raise ModelError(f"{what} has shape {shape!r}, not a list of non-negative integers")
    data, need = value["data"], 8 * math.prod(shape)
    n_bytes = len(data) // 4 * 3 - data[-2:].count("=") if isinstance(data, str) else -1
    if n_bytes != need:
        # Only a fault gets here, so only a fault pays for the whole check.
        if n_bytes < 0 or len(data) % 4 or not _BASE64.fullmatch(data):
            raise ModelError(f"{what} data is not base64")
        raise ModelError(f"{what} has {n_bytes} bytes of data, shape {shape} needs {need}")
    try:
        out = np.empty(shape, dtype=dtype)
    except ValueError as exc:  # more axes than numpy allows
        raise ModelError(f"{what}: {exc}") from None
    into, at = out.reshape(-1).view(np.uint8), 0
    try:
        for i in range(0, len(data), _B64_PIECE):
            piece = binascii.a2b_base64(data[i:i + _B64_PIECE], strict_mode=True)
            into[at:at + len(piece)] = np.frombuffer(piece, dtype=np.uint8)
            at += len(piece)
    except ValueError:  # binascii.Error, a non-ASCII character, a piece past the end
        at = -1
    # A pad inside the text ends its piece short, so the total comes short.
    if at != need:
        raise ModelError(f"{what} data is not base64")
    return out


def _field(value, shape: Optional[tuple], what: str, tol: Optional[float] = None):
    """An "<f8" array field of a state or true parameters file: None where
    shape is None (a part the configuration disables must be null), else
    decoded (see _decoded; an array built from checked fields is taken as
    it is) once it has that shape, an axis given as None any length of at
    least 1, and only finite values; with tol, also only non-negative
    values and rows (along the last axis) that sum to 1 within tol."""
    if shape is None:
        if value is not None:
            raise ModelError(f"{what} is present but the configuration disables it")
        return None
    arr = value if isinstance(value, np.ndarray) else _decoded(value, _FLOAT, what)
    axes = zip(arr.shape, shape)
    if arr.ndim != len(shape) or any(n < 1 if w is None else n != w for n, w in axes):
        raise ModelError(f"{what} has shape {arr.shape}, expected {shape}")
    if tol is None and not np.isfinite(arr).all():
        raise ModelError(f"{what} has a value that is not finite")
    if tol is not None and not (np.isfinite(arr) & (arr >= 0.0)).all():
        raise ModelError(f"{what} has a value that is not finite and non-negative")
    if tol is not None and (np.abs(arr.sum(axis=-1) - 1.0) > tol).any():
        raise ModelError(f"{what} has a row that does not sum to 1")
    return arr


def _support(value, n_cells: int, what: str) -> np.ndarray:
    """The encoded index array value, decoded (see _decoded), once it is
    flat and strictly ascending in [0, n_cells)."""
    arr = _decoded(value, _INDEX, what)
    if arr.ndim != 1:
        raise ModelError(f"{what} is not an array of indices")
    if arr.size and (arr[0] < 0 or arr[-1] >= n_cells or (np.diff(arr) <= 0).any()):
        raise ModelError(f"{what} is not strictly ascending in [0, {n_cells})")
    return arr


def _posteriors(value, what: str, entry, sizes: dict) -> np.ndarray:
    """The decoded packed (sum of rows, width) posteriors, rows[i] rows of
    entity i, once each row is a distribution within entry.tol, for the
    sizes rows and width that entry.shape names. A fault names the
    entity, as what[i]; a wrong row count or row width also names the
    size that set it."""
    names = entry.shape
    rows, width = (sizes[n] for n in names)
    n = sum(rows)  # exact, where an int64 sum of huge declared counts would wrap
    q = _decoded(value, _FLOAT, what)
    if q.ndim == 0 or len(q) != n:
        raise ModelError(f"{what} needs {n} rows ({names[0]})")
    bounds = np.concatenate(([0], np.cumsum(rows, dtype=np.int64)))

    def entity(row) -> int:
        return int(np.searchsorted(bounds, row, side="right")) - 1

    if q.shape != (n, width):  # every row is the wrong width, the first included
        raise ModelError(f"{what}[{entity(0)}] has a row that is not {width} numbers ({names[1]})")
    finite = np.isfinite(q).all(axis=1)
    if not finite.all():
        raise ModelError(f"{what}[{entity(finite.argmin())}] is not finite")
    bad = (q < 0.0).any(axis=1) | (np.abs(q.sum(axis=1) - 1.0) > entry.tol)
    if bad.any():
        raise ModelError(f"{what}[{entity(bad.argmax())}] rows are not probability distributions")
    return q


# A file format is one table: each key maps to an _Array, a _Pair, a
# plain-JSON value's checker, check(value, key, got) -> value with got
# the values checked before it, or a dict, a nested object. Shapes are in
# named sizes, which the format's reader works out from its plain-JSON
# fields; None is an axis of any length of at least 1. _encoded writes a
# file from its table, _read_json and _read_arrays read it back.


class _Array(NamedTuple):
    """An encoded "<f8" array (_field), null where the size or flag `when`
    is 0 or false, with tol rows that are distributions. With a list of
    rows per entity as its first size it holds every entity's posteriors
    (_posteriors)."""

    shape: tuple
    when: Optional[str] = None
    tol: Optional[float] = None


class _Pair(NamedTuple):
    """{"support": "<i8" flat indices into the product of the sizes cells,
    strictly ascending, "table": "<f8" of shape lead + (P,) for P support
    cells}, null where `when` is 0 or false. With shape, the object also
    holds "shape", plain JSON that shape checks."""

    cells: tuple
    lead: tuple = ()
    when: Optional[str] = None
    shape: Optional[Callable] = None

    @property
    def keys(self) -> set:
        return {"support", "table"} | ({"shape"} if self.shape else set())


def _check_keys(table: dict, payload: dict, where: str = "") -> None:
    """Refuse payload, or an object or pair in it, whose keys are not
    exactly its table's; a nested one's fault names it."""
    missing, unknown = sorted(table.keys() - payload.keys()), sorted(payload.keys() - table.keys())
    if missing or unknown:
        raise ModelError(f"{where}missing keys {missing}, unknown keys {unknown}")
    for key, entry in table.items():
        if isinstance(entry, dict):
            _check_keys(entry, payload[key], f"{where}{key}: ")
        elif isinstance(entry, _Pair) and isinstance(payload[key], dict):
            _check_keys(dict.fromkeys(entry.keys), payload[key], f"{where}{key}: ")


def _read_json(table: dict, payload: dict) -> dict:
    """The plain-JSON fields of table, and a pair's shape, checked in
    table order once every key set of payload is (format and version
    besides the table's keys at the top)."""
    _check_keys(dict(table, format=None, version=None), payload)
    got: dict = {}
    for key, entry in table.items():
        if callable(entry):
            got[key] = entry(payload[key], key, got)
        elif isinstance(entry, _Pair) and entry.shape:
            shape = payload[key]["shape"] if isinstance(payload[key], dict) else None
            got[key] = entry.shape(shape, f"{key} shape", got)
    return got


def _read_arrays(table: dict, payload: dict, sizes: dict, names: str = "") -> dict:
    """Each array and pair of table (not of a nested object) decoded from
    payload and checked against the named sizes, by key, a fault naming
    it as names + key: None for a part the configuration disables, a pair
    as {"support", "table"}."""
    out = {}
    for key, entry in table.items():
        what, value = names + key, payload[key]
        if not isinstance(entry, (_Array, _Pair)):
            continue
        if entry.when is not None and not sizes[entry.when]:
            out[key] = _field(value, None, what)  # None, or refused
        elif isinstance(entry, _Pair):
            if not isinstance(value, dict):
                raise ModelError(f"{what} needs a support and a table")
            n_cells = math.prod(sizes[n] for n in entry.cells)
            support = _support(value["support"], n_cells, f"{what} support")
            shape = tuple(sizes[n] for n in entry.lead) + support.shape
            out[key] = {"support": support, "table": _field(value["table"], shape, f"{what} table")}
        elif isinstance(sizes.get(entry.shape[0]), list):
            out[key] = _posteriors(value, what, entry, sizes)
        else:
            shape = tuple(None if n is None else sizes[n] for n in entry.shape)
            out[key] = _field(value, shape, what, entry.tol)
    return out


def _encoded(table: dict, values: dict) -> dict:
    """values, table's fields by key as held in memory, as the file holds
    them: an array, and a pair's support and table, encoded (_blob); null
    and plain JSON as they are."""
    out = {}
    for key, entry in table.items():
        value = values[key]
        if isinstance(entry, dict):
            value = _encoded(entry, value)
        elif isinstance(entry, _Pair) and value is not None:
            value = {k: value[k] for k in entry.keys}
            value.update(support=_blob(value["support"], _INDEX), table=_blob(value["table"], _FLOAT))
        elif isinstance(entry, _Array) and value is not None:
            value = _blob(value, _FLOAT)
        out[key] = value
    return out


def _count(value, key: str, least: int = 0) -> int:
    """A JSON integer of at least `least` (a bool is not one) read from
    the file's `key`."""
    if type(value) is not int or value < least:
        raise ModelError(f"{key}: {value!r} is not an integer of at least {least}")
    return value


def _topics(value, key, got):
    if value != list(got["hyperparameters"].layout().letters):
        raise ModelError("topic layout does not match configuration")
    return value


def _snippet_counts(value, key, got):
    counts = [_count(x, key) for x in value]
    if counts != [len(row) for row in got["token_counts"]]:
        raise ModelError("snippet_counts do not match token_counts")
    return counts


def _seed_sets(value, key, got):
    """The file's lists, checked and not copied: a file that declares a
    huge N is refused holding one copy of its seed lists."""
    N, V = got["hyperparameters"].N, got["vocab_size"]
    if len(value) != N or any(_count(w, key) >= V for s in value for w in s):
        raise ModelError(f"seed_sets need {N} lists of word indices below {V}")
    return value


def _size(value, key, got):
    return _count(value, key)


_STATE_FIELDS = {
    "hyperparameters": lambda value, key, got: _hp_from_json(dict(value)),
    "topics": _topics,
    "vocab_size": _size,
    "tag_count": _size,
    "token_counts": lambda value, key, got: [[_count(x, key, 1) for x in r] for r in value],
    "snippet_counts": _snippet_counts,
    "seed_sets": _seed_sets,
    "q": {
        "qa": _Array(("snippet_counts", "K"), tol=1e-6),
        "qv": _Array(("snippet_counts", "N"), "N", 1e-6),
        "qw": _Array(("token_counts", "topics"), tol=1e-6),
    },
    "factors": {
        "theta_B": _Pair(("vocab_size",)),
        "trans_start": _Pair(("topics",)),
        "trans_main": _Pair(("ends",), ("topics",)),
        "theta_V": _Pair(("vocab_size",), ("N",), "N"),
        "theta_I": _Pair(("vocab_size",), when="use_ignore"),
        "eta": _Pair(("tag_count",), ("topics",), "use_pos"),
        "psi": _Pair(("psi rows", "K")),
        "theta_A": _Pair(("aspect rows", "vocab_size"), ("K",)),
        "phi": _Pair(("aspect rows", "N"), ("K",), "N"),
    },
}


def _names(value, key, got):
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise ModelError(f"{key} is not a list of strings")
    return value


def _topic_letters(value, key, got):
    N = len(got["value_names"])
    if tuple(_names(value, key, got)) != TopicLayout.for_config(N, "I" in value).letters:
        raise ModelError(f"topic_letters {value} do not fit {N} value names")
    return value


def _separation(value, key, got):
    if not (_is_number(value) and 0.0 <= value <= 1.0):
        raise ModelError(f"separation {value!r} is not a number in [0, 1]")
    return value


def _topic_mix(value, key, got):
    n = len(got["topic_letters"])
    if value is not None and not (
        isinstance(value, list) and len(value) == n
        and all(_is_number(x) and 0.0 <= x < math.inf for x in value)
    ):
        raise ModelError(f"topic_mix is neither null nor {n} finite non-negative numbers")
    return value


def _aspect_blocks(value, key, got):
    V = len(got["vocab"])
    if not isinstance(value, list) or not all(
        isinstance(b, list) and all(type(w) is int and 0 <= w < V for w in b) for b in value
    ):
        raise ModelError(f"aspect_blocks is not a list of lists of word indices below {V}")
    return value


def _aspect_shape(value, key, got):
    """theta_A's dense shape, refused above MAX_CELLS before anything is
    built from it."""
    if not (isinstance(value, list) and len(value) == 3
            and all(type(x) is int and x >= 1 for x in value)):
        raise ModelError(f"{key} {value!r} is not three positive integers")
    check_cells(key, *value)
    if value[2] != len(got["vocab"]):
        raise ModelError(f"{key} {value} does not fit {len(got['vocab'])} vocab words")
    return value


_TRUE_FIELDS = {
    "value_names": _names,
    "topic_letters": _topic_letters,
    "vocab": _names,
    "tags": _names,
    "separation": _separation,
    "topic_mix": _topic_mix,
    "aspect_blocks": _aspect_blocks,
    "theta_A": _Pair(("scopes", "K", "vocab"), shape=_aspect_shape),
    "psi": _Array((None, "K"), tol=1e-9),
    "phi": _Array(("scopes", "K", "N"), "N", 1e-9),
    "theta_B": _Array(("vocab",), tol=1e-9),
    "theta_I": _Array(("vocab",), "ignore", 1e-9),
    "theta_V": _Array(("N", "vocab"), "N", 1e-9),
    "eta": _Array(("roles", "tags"), tol=1e-9),
    "transition_start": _Array(("roles",), tol=1e-9),
    "transition_main": _Array(("roles", "ends"), tol=1e-9),
}


def save_state(state: VariationalState, path: str) -> None:
    """Serialize a state to versioned JSON (version 3), atomically: format,
    version and the fields of _STATE_FIELDS, written by _encoded (README
    "State file"). Every factor is written as it is held, its support
    and table, and each posterior as its packed array over the corpus,
    each piece by piece (_blob) without a reordered copy.
    The arrays hold the values' IEEE-754 bytes, so a load is exact and a
    load followed by a save reproduces the file byte for byte.
    """
    factors = {key: getattr(state, key) for key in _STATE_FIELDS["factors"]}
    values = {
        "hyperparameters": hp_to_json(state.hp),
        "topics": list(state.layout.letters),
        "vocab_size": state.vocab_size,
        "tag_count": state.tag_count,
        "snippet_counts": state.snippet_counts,
        "token_counts": state.token_counts,
        "seed_sets": [list(s) for s in state.seed_sets],
        "factors": {
            key: None if f is None else {"support": f.support, "table": f.table}
            for key, f in factors.items()
        },
        "q": {
            "qa": state.qa.packed,
            "qv": None if state.qv is None else state.qv.packed,
            "qw": state.qw.packed,
        },
    }
    encoded = _encoded(_STATE_FIELDS, values)
    write_json(dict(encoded, format=STATE_FORMAT, version=STATE_VERSION), path)


def _state_from_payload(payload: dict, n_bytes: int) -> VariationalState:
    if payload.get("format") != STATE_FORMAT:
        raise ModelError("not a state file")
    version = payload.get("version")
    if type(version) is int and version in (1, 2):
        raise ModelError(f"state version {version} is no longer read; re-run fit")
    if type(version) is not int or version != STATE_VERSION:
        raise ModelError(f"unsupported state version {version}")
    got = _read_json(_STATE_FIELDS, payload)
    hp, V, T = got["hyperparameters"], got["vocab_size"], got["tag_count"]
    counts, n = got["snippet_counts"], hp.layout().n_topics
    n_psi, n_asp = hp.bank_rows(len(counts))
    sizes = {
        "vocab_size": V, "tag_count": T, "K": hp.K, "N": hp.N, "topics": n, "ends": n + 1,
        "snippet_counts": counts, "token_counts": [sum(row) for row in got["token_counts"]],
        "psi rows": n_psi, "aspect rows": n_asp, "use_ignore": hp.use_ignore,
        "use_pos": hp.use_pos,
    }
    # Every size the prior state allocates is checked before it is built.
    # The posteriors' rows and widths fix the snippet and token counts, K
    # and N. The vocabulary and tag counts may exceed theta_B's and eta's
    # tables (a support may leave cells at their prior), but not the
    # file's length, as a saved state holds theta_B over every word. Then
    # check_state_sizes checks the tables, products of those sizes. Each
    # encoded object leaves the payload as it is decoded, so its text is
    # freed before the state is built.
    q = _read_arrays(_STATE_FIELDS["q"], payload.pop("q"), sizes)
    for key in ("vocab_size", "tag_count", "K", "N"):
        if sizes[key] > n_bytes:
            raise ModelError(f"{key}: {sizes[key]} is larger than the file ({n_bytes} bytes)")
    check_state_sizes(hp, V, T, len(counts), sum(counts))
    factors = _read_arrays(_STATE_FIELDS["factors"], payload.pop("factors"), sizes, "factor ")
    seed_sets = [list(s) for s in got["seed_sets"]]
    state = _prior_state(hp, V, T, got["token_counts"], seed_sets, q)
    # Each factor's prior support grows by the file's, whose cells take
    # the file's table.
    for key, pair in factors.items():
        f = getattr(state, key)
        if pair is not None:
            f.grow(pair["support"], pair["table"])
            if not (f.table >= f._prior_table).all():
                raise ModelError(f"factor {key} has a concentration below its prior")
    return state


def load_state(path: str) -> VariationalState:
    """Rebuild a VariationalState from the version 3 JSON that save_state
    writes. Versions 1 and 2 are refused: re-run fit.

    Reads the fields of _STATE_FIELDS: the key set of every object
    exactly, each plain-JSON field through its checker, then each encoded
    field against the sizes they declare, named after the field (_field,
    shared with load_true_params; _support for a factor's support;
    _posteriors, which names the entity, for qa, qv and qw), and that no
    concentration is below its prior. Every size is checked before
    anything is allocated: against the posteriors' rows and widths, the
    file's length and MAX_CELLS (check_state_sizes). Any fault raises
    ModelError naming the file. Each factor grows its prior support
    (every pair, none for theta_A) by the file's support.
    """
    return _read_checked(path, _state_from_payload, "state")


def _read_checked(path: str, build, what: str):
    """build(payload, n_bytes) of the JSON file at path, where every
    fault, of the file's text or of build's checks, is a ModelError
    naming the file."""
    with open(path, encoding="utf-8") as fh:
        n_bytes = os.fstat(fh.fileno()).st_size
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelError(f"{path}: not valid JSON: {exc}") from None
        except UnicodeDecodeError as exc:  # one decode of the whole file: a file offset
            raise ModelError(f"{path}: not valid UTF-8 at byte {exc.start}") from None
    try:
        return build(payload, n_bytes)
    except ModelError as exc:
        raise ModelError(f"{path}: {exc}") from None
    except KeyError as exc:
        raise ModelError(f"{path}: missing key {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise ModelError(f"{path}: malformed {what}: {exc}") from None
