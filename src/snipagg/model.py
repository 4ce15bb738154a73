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
    with open(path, "w", encoding="utf-8") as fh:
        for f in fields(Hyperparameters):
            v = getattr(hp, f.name)
            if f.name == "topic_prior":
                v = ",".join(repr(x) for x in v)
            elif isinstance(v, bool):
                v = "true" if v else "false"
            fh.write(f"{f.name} = {v}\n")


class DirichletFactor:
    """One or more Dirichlet posteriors sharing a support.

    concentration has shape (support,) for a single distribution or
    (rows, support) for a bank of independent distributions over the
    same support. Expected log probabilities are cached until the
    factor's counts change.
    """

    __slots__ = ("prior", "concentration", "_elog", "_prior_norm")

    def __init__(self, prior: np.ndarray):
        prior = np.asarray(prior, dtype=float)
        if prior.size and prior.min() <= 0.0:
            raise ModelError("Dirichlet prior concentrations must be positive")
        self.prior = prior
        self.concentration = prior.copy()
        self._elog: Optional[np.ndarray] = None
        self._prior_norm: Optional[np.ndarray] = None

    def set_counts(self, counts: np.ndarray) -> None:
        """Replace the posterior with prior + counts (counts >= 0)."""
        self.concentration = self.prior + counts
        self._elog = None

    def expected_log(self) -> np.ndarray:
        """digamma(alpha) - digamma(alpha total), per row, cached."""
        if self._elog is None:
            alpha = self.concentration
            total = alpha.sum(axis=-1, keepdims=True)
            self._elog = digamma(alpha) - digamma(total)
        return self._elog

    def mean(self) -> np.ndarray:
        alpha = self.concentration
        return alpha / alpha.sum(axis=-1, keepdims=True)

    def kl_to_prior(self) -> float:
        """Sum over rows of KL(posterior row || prior row)."""
        a = self.concentration
        b = self.prior
        if a.size == 0:
            return 0.0
        if self._prior_norm is None:
            self._prior_norm = gammaln(b.sum(axis=-1)) - gammaln(b).sum(axis=-1)
        post_norm = gammaln(a.sum(axis=-1)) - gammaln(a).sum(axis=-1)
        cross = ((a - b) * self.expected_log()).sum(axis=-1)
        return float(np.sum(post_norm - self._prior_norm + cross))


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

    Entity-specific factor lists hold a single shared factor when the
    corresponding sharing flag is on; use the *_factor accessors rather
    than indexing the lists directly. q arrays are stored per entity:
    qa[i] has shape (snippets_i, K), qv[i] (snippets_i, N), and qw[i]
    (tokens_i, n_topics) with tokens concatenated in snippet order.
    """

    hp: Hyperparameters
    layout: TopicLayout
    vocab_size: int
    tag_count: int
    snippet_counts: list[int]
    token_counts: list[list[int]]
    theta_B: DirichletFactor
    trans: TransitionFactor
    psi: list[DirichletFactor]
    theta_A: list[DirichletFactor]
    phi: list[DirichletFactor]
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

    def psi_factor(self, entity: int) -> DirichletFactor:
        return self.psi[0 if self.hp.shared_aspect_multinomial else entity]

    def theta_A_factor(self, entity: int) -> DirichletFactor:
        return self.theta_A[0 if self.hp.shared_aspects else entity]

    def phi_factor(self, entity: int) -> DirichletFactor:
        return self.phi[0 if self.hp.shared_aspects else entity]

    def parameter_factors(self) -> list[DirichletFactor]:
        """Every Dirichlet factor in the state, in a fixed order."""
        out = [self.theta_B, self.trans.start, self.trans.main]
        if self.theta_V is not None:
            out.append(self.theta_V)
        if self.theta_I is not None:
            out.append(self.theta_I)
        if self.eta is not None:
            out.append(self.eta)
        out.extend(self.psi)
        out.extend(self.theta_A)
        out.extend(self.phi)
        return out

    def refresh_caches(self) -> None:
        for f in self.parameter_factors():
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
    layout = hp.layout()
    V = len(corpus.vocabulary)
    T = len(corpus.tag_set)
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

    theta_B = DirichletFactor(np.full(V, hp.lambda_B))
    trans = TransitionFactor(*transition_priors(hp, layout))
    theta_V = DirichletFactor(value_prior(hp, V, seed_sets)) if hp.N >= 1 else None
    theta_I = DirichletFactor(np.full(V, hp.lambda_I)) if hp.use_ignore else None
    eta = DirichletFactor(tag_prior(hp, layout, T)) if hp.use_pos else None

    n_psi = 1 if hp.shared_aspect_multinomial else corpus.n_entities
    n_asp = 1 if hp.shared_aspects else corpus.n_entities
    psi = [DirichletFactor(np.full(hp.K, hp.lambda_M)) for _ in range(n_psi)]
    theta_A = [DirichletFactor(np.full((hp.K, V), hp.lambda_A)) for _ in range(n_asp)]
    phi = [
        DirichletFactor(np.full((hp.K, hp.N), hp.lambda_AV)) for _ in range(n_asp)
    ] if hp.N >= 1 else []

    qa, qv, qw = [], [], []
    for group in corpus.snippets:
        S = len(group)
        qa.append(np.full((S, hp.K), 1.0 / hp.K))
        if hp.N >= 1:
            qv.append(np.full((S, hp.N), 1.0 / hp.N))
        n_tok = sum(len(sn) for sn in group)
        qw.append(np.full((n_tok, layout.n_topics), 1.0 / layout.n_topics))

    return VariationalState(
        hp=hp,
        layout=layout,
        vocab_size=V,
        tag_count=T,
        snippet_counts=[len(g) for g in corpus.snippets],
        token_counts=[[len(sn) for sn in g] for g in corpus.snippets],
        theta_B=theta_B,
        trans=trans,
        psi=psi,
        theta_A=theta_A,
        phi=phi,
        theta_V=theta_V,
        theta_I=theta_I,
        eta=eta,
        qa=qa,
        qv=qv if hp.N >= 1 else None,
        qw=qw,
        seed_sets=seed_sets,
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
    if f is None:
        return None
    return f.concentration.tolist()


def save_state(state: VariationalState, path: str) -> None:
    """Serialize a state to versioned JSON.

    Floats are written with Python's shortest round-trip repr, so a
    load followed by a save reproduces the file byte for byte.
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
            "psi": [_factor_payload(f) for f in state.psi],
            "theta_A": [_factor_payload(f) for f in state.theta_A],
            "phi": [_factor_payload(f) for f in state.phi],
        },
        "q": {
            "qa": [a.tolist() for a in state.qa],
            "qv": None if state.qv is None else [a.tolist() for a in state.qv],
            "qw": [a.tolist() for a in state.qw],
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def _restore_factor(f: Optional[DirichletFactor], payload) -> None:
    if f is None:
        if payload is not None:
            raise ModelError("state file carries a factor the config disables")
        return
    arr = np.asarray(payload, dtype=float)
    if arr.shape != f.concentration.shape:
        raise ModelError(
            f"factor shape mismatch: state file {arr.shape}, "
            f"expected {f.concentration.shape}"
        )
    f.concentration = arr
    f._elog = None


def load_state(path: str) -> VariationalState:
    """Rebuild a VariationalState from its JSON serialization."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("format") != STATE_FORMAT:
        raise ModelError(f"{path}: not a state file")
    if payload.get("version") != STATE_VERSION:
        raise ModelError(f"{path}: unsupported state version {payload.get('version')}")
    hp_dict = dict(payload["hyperparameters"])
    hp_dict["topic_prior"] = tuple(hp_dict["topic_prior"])
    hp = Hyperparameters(**hp_dict)
    hp.validate()
    layout = hp.layout()
    if list(layout.letters) != payload["topics"]:
        raise ModelError(f"{path}: topic layout does not match configuration")

    V = int(payload["vocab_size"])
    T = int(payload["tag_count"])
    seed_sets = [list(map(int, s)) for s in payload["seed_sets"]]
    snippet_counts = [int(x) for x in payload["snippet_counts"]]
    token_counts = [[int(x) for x in row] for row in payload["token_counts"]]

    theta_B = DirichletFactor(np.full(V, hp.lambda_B))
    trans = TransitionFactor(*transition_priors(hp, layout))
    theta_V = DirichletFactor(value_prior(hp, V, seed_sets)) if hp.N >= 1 else None
    theta_I = DirichletFactor(np.full(V, hp.lambda_I)) if hp.use_ignore else None
    eta = DirichletFactor(tag_prior(hp, layout, T)) if hp.use_pos else None
    n_entities = len(snippet_counts)
    n_psi = 1 if hp.shared_aspect_multinomial else n_entities
    n_asp = 1 if hp.shared_aspects else n_entities
    psi = [DirichletFactor(np.full(hp.K, hp.lambda_M)) for _ in range(n_psi)]
    theta_A = [DirichletFactor(np.full((hp.K, V), hp.lambda_A)) for _ in range(n_asp)]
    phi = [
        DirichletFactor(np.full((hp.K, hp.N), hp.lambda_AV)) for _ in range(n_asp)
    ] if hp.N >= 1 else []

    fpay = payload["factors"]
    _restore_factor(theta_B, fpay["theta_B"])
    _restore_factor(trans.start, fpay["trans_start"])
    _restore_factor(trans.main, fpay["trans_main"])
    _restore_factor(theta_V, fpay["theta_V"])
    _restore_factor(theta_I, fpay["theta_I"])
    _restore_factor(eta, fpay["eta"])
    for f, p in zip(psi, fpay["psi"], strict=True):
        _restore_factor(f, p)
    for f, p in zip(theta_A, fpay["theta_A"], strict=True):
        _restore_factor(f, p)
    for f, p in zip(phi, fpay["phi"], strict=True):
        _restore_factor(f, p)

    qpay = payload["q"]
    qa = [np.asarray(a, dtype=float).reshape(s, hp.K)
          for a, s in zip(qpay["qa"], snippet_counts, strict=True)]
    if hp.N >= 1:
        qv = [np.asarray(a, dtype=float).reshape(s, hp.N)
              for a, s in zip(qpay["qv"], snippet_counts, strict=True)]
    else:
        qv = None
    qw = [np.asarray(a, dtype=float).reshape(sum(tc), layout.n_topics)
          for a, tc in zip(qpay["qw"], token_counts, strict=True)]

    return VariationalState(
        hp=hp,
        layout=layout,
        vocab_size=V,
        tag_count=T,
        snippet_counts=snippet_counts,
        token_counts=token_counts,
        theta_B=theta_B,
        trans=trans,
        psi=psi,
        theta_A=theta_A,
        phi=phi,
        theta_V=theta_V,
        theta_I=theta_I,
        eta=eta,
        qa=qa,
        qv=qv,
        qw=qw,
        seed_sets=seed_sets,
    )
