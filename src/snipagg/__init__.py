"""Aggregation of short opinion snippets by latent aspect and value type.

Snippets (short self-contained phrases about one property of an entity,
"the pizza was great") are clustered by the property they describe and,
optionally, by the value they assign to it (positive or negative, cheap
or expensive). The model is a generative one: each entity owns a
multinomial over aspects, each aspect owns a multinomial over value
types, and individual words arise from a Markov chain over word roles
(aspect word, value word, background, or ignorable noise). Posteriors
are fit with coordinate-descent mean-field updates.

The package also ships a forward sampler for synthetic corpora with
known latent structure, clustering and sentiment baselines, cluster and
word-level scoring, and a command line front end.

Every public name below resolves on first access (PEP 562): ``import
snipagg`` loads none of the submodules, and so not numpy, until one of
their names is used.
"""

from importlib import import_module

# The public names, by the submodule that defines them.
_EXPORTS = {
    "corpus": (
        "Corpus", "CorpusError", "GoldAnnotations", "SeedLexicon", "Snippet", "Token",
        "load_corpus", "load_gold", "load_seed_lexicon", "save_corpus",
    ),
    "model": (
        "DirichletFactor", "Hyperparameters", "TopicLayout", "VariationalState",
        "build_priors", "init_state", "load_config", "load_state", "save_state",
        "transition_means",
    ),
    "inference": (
        "FreeEnergyReport", "Posteriors", "UpdateContext", "aspect_clusterings",
        "compute_free_energy", "extract_posteriors", "polarity_predictions",
        "run_inference", "update_parameters", "update_snippet_aspect",
        "update_snippet_value", "update_word_topic", "word_label_predictions",
    ),
    "generator": (
        "CorpusShape", "SyntheticCorpus", "aspect_columns", "load_true_params",
        "make_separable", "sample_corpus", "save_true_params", "theta_a_rows",
    ),
    "baselines": (
        "Clustering", "cluster_snippets", "majority_sentiment", "seed_sentiment",
        "tfidf_matrix",
    ),
    "evaluation": (
        "MucResult", "combine_clusterings", "gold_clustering", "muc_score",
        "sentiment_accuracy", "tree_expand", "word_label_prf",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
