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
"""

from snipagg.corpus import (
    Corpus,
    CorpusError,
    GoldAnnotations,
    SeedLexicon,
    Snippet,
    Token,
    load_corpus,
    load_gold,
    load_seed_lexicon,
    save_corpus,
)
from snipagg.model import (
    DirichletFactor,
    Hyperparameters,
    TopicLayout,
    VariationalState,
    build_priors,
    init_state,
    load_config,
    load_state,
    save_state,
    transition_means,
)
from snipagg.inference import (
    FreeEnergyReport,
    Posteriors,
    UpdateContext,
    aspect_clusterings,
    compute_free_energy,
    extract_posteriors,
    polarity_predictions,
    run_inference,
    update_parameters,
    update_snippet_aspect,
    update_snippet_value,
    update_word_topic,
    word_label_predictions,
)
from snipagg.generator import (
    CorpusShape,
    SyntheticCorpus,
    aspect_columns,
    load_true_params,
    make_separable,
    sample_corpus,
    save_true_params,
    theta_a_rows,
)
from snipagg.baselines import (
    Clustering,
    cluster_snippets,
    majority_sentiment,
    seed_sentiment,
    tfidf_matrix,
)
from snipagg.evaluation import (
    MucResult,
    combine_clusterings,
    gold_clustering,
    muc_score,
    sentiment_accuracy,
    tree_expand,
    word_label_prf,
)

__version__ = "0.1.0"
