"""Model configuration, Dirichlet posterior factors, and state I/O.

Every distribution in the model (background, value, and aspect word
emissions, the word-role transition chain, entity aspect mixtures, and
aspect-to-value mixtures) carries a Dirichlet variational posterior.
Because Dirichlets are conjugate to all the multinomial draws involved,
every factor update is prior-plus-expected-counts, and the expected log
probabilities consumed by the latent updates have the digamma closed
form

    E[log p(e)] = psi(alpha_e) - psi(sum_k alpha_k).

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

    concentration has shape (support,) for a single distribution or
    (..., support) for a bank of rows over the same support. prior has
    the concentration's shape; a stacked bank (rows=E) holds E copies of
    one prior table as a read-only broadcast view, not as E copies.
    Expected log probabilities are cached until the factor's counts
    change.

    digamma and gammaln run only on the cells whose concentration
    differs from the prior, and on the prior table once. That is exact:
    a cell at its prior has expected log digamma(prior) - digamma(row
    total) and adds exactly 0 to the KL, whatever the rest of its row.
    """

    __slots__ = (
        "prior", "concentration", "_base", "_base_digamma", "_base_gammaln",
        "_base_row_gammaln", "_elog", "_changed", "_row_views",
    )

    def __init__(self, prior: np.ndarray, rows: Optional[int] = None):
        base = np.asarray(prior, dtype=float)
        if base.size and base.min() <= 0.0:
            raise ModelError("Dirichlet prior concentrations must be positive")
        self._base = base
        self._base_digamma = digamma(base)
        self._base_gammaln = gammaln(base).reshape(-1)
        self._base_row_gammaln = gammaln(base.sum(axis=-1)).reshape(-1)
        self.prior = base if rows is None else np.broadcast_to(base, (rows,) + base.shape)
        self.concentration = np.array(self.prior)
        self._elog: Optional[np.ndarray] = None
        self._row_views: Optional[list[FactorRow]] = None

    def rows(self) -> list[FactorRow]:
        """One FactorRow per leading index of a stacked bank, made once."""
        if self._row_views is None:
            self._row_views = [FactorRow(self, i) for i in range(len(self.concentration))]
        return self._row_views

    def set_counts(self, counts: np.ndarray) -> None:
        """Replace the posterior with prior + counts (counts >= 0)."""
        self._elog = None
        self.concentration = self.prior + counts

    def expected_log(self) -> np.ndarray:
        """digamma(alpha) - digamma(alpha total), per row, cached."""
        if self._elog is None:
            alpha = self.concentration
            total = alpha.sum(axis=-1, keepdims=True)
            digamma_total = digamma(total)
            elog = np.empty(alpha.shape)
            np.subtract(self._base_digamma, digamma_total, out=elog)
            changed = alpha != self.prior
            cells = np.flatnonzero(changed)
            a = alpha.reshape(-1)[cells]
            e = digamma(a) - digamma_total.reshape(-1)[cells // alpha.shape[-1]]
            elog.reshape(-1)[cells] = e
            rows = np.flatnonzero(changed.any(axis=-1))
            self._elog = elog
            # The changed cells with their concentration and expected log,
            # and the changed rows with their totals, for the KL.
            self._changed = (cells, a, e, rows, total.reshape(-1)[rows])
        return self._elog

    def mean(self) -> np.ndarray:
        alpha = self.concentration
        return alpha / alpha.sum(axis=-1, keepdims=True)

    def kl_to_prior(self) -> float:
        """Sum over rows of KL(posterior row || prior row)."""
        return kl_sum([self])

    def _kl(self) -> float:
        # Per row: gammaln(A) - gammaln(B) - sum (gammaln(a) - gammaln(b))
        # + sum (a - b) E[log p], for posterior a, prior b and totals A, B;
        # rows and cells at their prior add 0 and are left out.
        if not self.concentration.size:
            return 0.0
        self.expected_log()
        cells, a, e, rows, totals = self._changed
        base_cells = cells % self._base.size
        row_part = gammaln(totals) - self._base_row_gammaln[rows % self._base_row_gammaln.size]
        cell_part = gammaln(a) - self._base_gammaln[base_cells]
        cross = np.dot(a - self._base.reshape(-1)[base_cells], e)
        return float(row_part.sum() - cell_part.sum() + cross)


def kl_sum(factors: Sequence[DirichletFactor]) -> float:
    """Sum over factors and rows of KL(posterior row || prior row)."""
    return sum(f._kl() for f in factors)


class FactorRow:
    """Row `index` of a stacked factor bank, read and written through to
    the bank: one entity's Dirichlet factor.

    Its expected_log() is a view of the bank's cached table, so every
    entity of a bank shares one digamma refresh.
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
        return self.bank.concentration[self.index]

    def set_counts(self, counts: np.ndarray) -> None:
        """Replace this row of the bank with prior + counts (counts >= 0)."""
        self.bank._elog = None
        self.bank.concentration[self.index] = self.prior + counts

    def expected_log(self) -> np.ndarray:
        return self.bank.expected_log()[self.index]

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


class TransitionFactor:
    """Dirichlet rows of the word-role chain.

    Row sources are the virtual start plus every enabled role; row
    destinations are every role plus the end marker. The start row's
    support excludes end (a snippet always emits at least one word), so
    start-to-end carries no prior mass by construction.
    """

    __slots__ = ("start", "main")

    def __init__(self, start_prior: np.ndarray, main_prior: np.ndarray):
        self.start = DirichletFactor(start_prior)
        self.main = DirichletFactor(main_prior)

    @property
    def n_topics(self) -> int:
        return self.start.concentration.shape[0]

    def set_counts(self, start_counts: np.ndarray, main_counts: np.ndarray) -> None:
        self.start.set_counts(start_counts)
        self.main.set_counts(main_counts)

    def elog_start(self) -> np.ndarray:
        """Expected log transition from start to each role, shape (n_topics,)."""
        return self.start.expected_log()

    def elog_main(self) -> np.ndarray:
        """Expected log transitions, shape (n_topics, n_topics + 1); the
        last column is the end marker."""
        return self.main.expected_log()

    def mean_matrix(self) -> np.ndarray:
        """Posterior mean table with the start row first, end column last.

        The start-to-end cell is exactly 0 (the transition is outside
        the start row's support). Rows sum to 1.
        """
        n = self.n_topics
        table = np.zeros((n + 1, n + 1))
        table[0, :n] = self.start.mean()
        table[1:, :] = self.main.mean()
        return table


@dataclass
class VariationalState:
    """All factors and per-snippet posteriors for one corpus.

    The entity-specific factors are stacked banks: psi (E, K), theta_A
    (E, K, V) and phi (E, K, N), with E = 1 when the corresponding
    sharing flag is on (phi is None when N = 0). The *_factor accessors
    give one entity's row. q arrays are stored per entity: qa[i] has
    shape (snippets_i, K), qv[i] (snippets_i, N), and qw[i] (tokens_i,
    n_topics) with tokens concatenated in snippet order.
    """

    hp: Hyperparameters
    layout: TopicLayout
    vocab_size: int
    tag_count: int
    snippet_counts: list[int]
    token_counts: list[list[int]]
    theta_B: DirichletFactor
    trans: TransitionFactor
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
        out = [self.theta_B, self.trans.start, self.trans.main]
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
            f.expected_log()

    def matches_corpus(self, corpus: Corpus) -> bool:
        if corpus.n_entities != self.n_entities:
            return False
        for i, group in enumerate(corpus.snippets):
            if len(group) != self.snippet_counts[i]:
                return False
            if [len(sn) for sn in group] != self.token_counts[i]:
                return False
        return len(corpus.vocabulary) == self.vocab_size


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
    enabled.
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
    (one row when shared), and uniform posteriors."""
    layout = hp.layout()
    V, n_entities = vocab_size, len(token_counts)
    n_asp = 1 if hp.shared_aspects else n_entities

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
        trans=TransitionFactor(*transition_priors(hp, layout)),
        psi=DirichletFactor(
            np.full(hp.K, hp.lambda_M), rows=1 if hp.shared_aspect_multinomial else n_entities
        ),
        theta_A=DirichletFactor(np.full((hp.K, V), hp.lambda_A), rows=n_asp),
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


def _factor_payload(f: Optional[DirichletFactor]):
    return None if f is None else f.concentration


def save_state(state: VariationalState, path: str) -> None:
    """Serialize a state to versioned JSON, atomically.

    Floats are written with Python's shortest round-trip repr, so a
    load followed by a save reproduces the file byte for byte. The
    arrays go to the streaming writer as they are, so the payload is
    never held as nested Python lists.
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
        "factors": {
            "theta_B": _factor_payload(state.theta_B),
            "trans_start": _factor_payload(state.trans.start),
            "trans_main": _factor_payload(state.trans.main),
            "theta_V": _factor_payload(state.theta_V),
            "theta_I": _factor_payload(state.theta_I),
            "eta": _factor_payload(state.eta),
            "psi": _factor_payload(state.psi),
            "theta_A": _factor_payload(state.theta_A),
            "phi": [] if state.phi is None else _factor_payload(state.phi),
        },
        "q": {
            "qa": state.qa,
            "qv": state.qv,
            "qw": state.qw,
        },
    }
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
    conc = _array(payload, f.concentration.shape, f"factor {name}")
    if not (conc >= f.prior).all():
        raise ModelError(f"factor {name} has a concentration below its prior")
    f.concentration = conc
    f._elog = None


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
    for name, f in (
        ("theta_B", state.theta_B), ("trans_start", state.trans.start),
        ("trans_main", state.trans.main), ("theta_V", state.theta_V),
        ("theta_I", state.theta_I), ("eta", state.eta), ("psi", state.psi),
        ("theta_A", state.theta_A), ("phi", state.phi),
    ):
        _restore_factor(f, fpay[name], name)

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
    its prior; any fault raises ModelError naming the file.
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
