"""The package's public names: resolved on first use, listed, and complete."""

import os
import subprocess
import sys
from importlib import import_module

import pytest

import snipagg

# Every name `snipagg` exports, by the submodule it comes from: the same
# names the package exported when it imported every submodule at once.
PUBLIC = {
    "corpus": [
        "Corpus", "CorpusError", "GoldAnnotations", "SeedLexicon", "Snippet", "Token",
        "load_corpus", "load_gold", "load_seed_lexicon", "save_corpus",
    ],
    "model": [
        "DirichletFactor", "Hyperparameters", "TopicLayout", "VariationalState",
        "build_priors", "init_state", "load_config", "load_state", "save_state",
        "transition_means",
    ],
    "inference": [
        "FreeEnergyReport", "Posteriors", "UpdateContext", "aspect_clusterings",
        "compute_free_energy", "extract_posteriors", "polarity_predictions",
        "run_inference", "update_parameters", "update_snippet_aspect",
        "update_snippet_value", "update_word_topic", "word_label_predictions",
    ],
    "generator": [
        "CorpusShape", "SyntheticCorpus", "aspect_columns", "load_true_params",
        "make_separable", "sample_corpus", "save_true_params", "theta_a_rows",
    ],
    "baselines": [
        "Clustering", "cluster_snippets", "majority_sentiment", "seed_sentiment",
        "tfidf_matrix",
    ],
    "evaluation": [
        "MucResult", "combine_clusterings", "gold_clustering", "muc_score",
        "sentiment_accuracy", "tree_expand", "word_label_prf",
    ],
}


def test_all_lists_exactly_the_public_names():
    names = [n for group in PUBLIC.values() for n in group]
    assert sorted(snipagg.__all__) == sorted(names)
    assert len(set(snipagg.__all__)) == len(snipagg.__all__)


def test_each_public_name_resolves_to_its_module_and_shows_in_dir():
    listed = dir(snipagg)
    for module, names in PUBLIC.items():
        home = import_module(f"snipagg.{module}")
        for name in names:
            assert getattr(snipagg, name) is getattr(home, name), name
            assert name in listed, name


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'snipagg' has no attribute 'no_such_name'"):
        snipagg.no_such_name
    assert not hasattr(snipagg, "no_such_name")


# In a fresh interpreter: importing the package loads no submodule and no
# numpy; the submodules still import by name from the package (as
# benchmarks/child.py imports them), and a public name is its module's.
_FRESH = """
import sys
import snipagg
assert not [m for m in sys.modules if m.startswith(("snipagg.", "numpy"))], sorted(sys.modules)
from snipagg import baselines, corpus, evaluation, generator, inference, model
assert snipagg.load_corpus is corpus.load_corpus
assert snipagg.corpus is corpus
"""


def test_import_snipagg_loads_nothing_until_a_name_is_used():
    src = os.path.dirname(os.path.dirname(snipagg.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
