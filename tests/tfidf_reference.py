"""The clustering baseline's TF-IDF as first written: a Counter and a
dict per snippet, copied cell by cell into a dense matrix.

Independent of snipagg.baselines.tfidf_matrix, which builds the same
matrix from the packed corpus arrays; tests compare the two bit for bit.
"""

import math
from collections import Counter

import numpy as np

from snipagg.baselines import NOUN_TAG_PREFIX


def tfidf_vectors(snippets, corpus, noun_only=False):
    """Snippet id -> {word: weight}: tf is the raw within-snippet count
    and idf is ln(scope size / document frequency), both after the
    optional noun filter; a filtered-out snippet gets the empty vector."""
    noun = np.array([t.startswith(NOUN_TAG_PREFIX) for t in corpus.tag_set.items], dtype=bool)
    per_snippet = [
        Counter((sn.words[noun[sn.tags]] if noun_only else sn.words).tolist()) for sn in snippets
    ]
    df = Counter()
    for counts in per_snippet:
        df.update(counts.keys())
    scope_size = len(snippets)
    return {
        sn.snippet_id: {w: tf * math.log(scope_size / df[w]) for w, tf in counts.items()}
        for sn, counts in zip(snippets, per_snippet)
    }


def dense(vectors, ids):
    """The vectors of ids as matrix rows, in that order, with one column
    per term of any vector, in ascending term order."""
    terms = sorted({w for vec in vectors.values() for w in vec})
    term_col = {w: k for k, w in enumerate(terms)}
    out = np.zeros((len(ids), len(terms)))
    for r, sid in enumerate(ids):
        for w, x in vectors[sid].items():
            out[r, term_col[w]] = x
    return out
