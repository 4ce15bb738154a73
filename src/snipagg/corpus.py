"""Corpus, seed lexicon, and gold annotation I/O.

File formats, all UTF-8:

* corpus: JSON lines, one snippet per line,
  ``{"entity": "r1", "id": "s1", "tokens": [["great", "JJ"], ...]}``
* seed lexicon: plain text with ``[value:<name>]`` section headers and
  one word per line
* gold clusters / gold polarity: TSV with columns entity, snippet_id,
  label; polarity predictions may also use the label ``split``
* gold word labels: JSON lines ``{"id": "s1", "labels": ["B", "A", ...]}``
* parse spans: TSV with columns snippet_id, start, end, kind
  (half-open token intervals, kind one of NP, ADJP, ADVP)

A clusters, polarity or word-label file names each snippet at most
once; a parse-span file may list several spans for one snippet.

Words are lowercased on load; tags are kept verbatim. There is no
stemming and no stop-word removal, the background topic is expected to
absorb function words. Vocabulary and tag indices are dense and follow
first appearance order, so loading the same file twice gives identical
indexing. A Corpus holds its tokens packed, as flat word and tag index
arrays with snippet offsets, and its snippet ids in one list; load_corpus
fills them as it reads and makes no Token or Snippet objects, and the
readers and writers here name snippets through the ids. The writers
replace their target file atomically.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from snipagg.output import atomic_open

log = logging.getLogger(__name__)

SPAN_KINDS = ("NP", "ADJP", "ADVP")
WORD_LABELS = ("A", "V", "B", "I")


class CorpusError(ValueError):
    """Malformed corpus, lexicon, or annotation input."""


class Indexer:
    """Dense string-to-index mapping in first appearance order."""

    def __init__(self, items: Iterable[str] = ()):
        self.items: list[str] = []
        self._index: dict[str, int] = {}
        for it in items:
            self.add(it)

    def add(self, item: str) -> int:
        if item not in self._index:
            self._index[item] = len(self.items)
            self.items.append(item)
        return self._index[item]

    def index(self, item: str) -> int:
        return self._index[item]

    def get(self, item: str) -> Optional[int]:
        return self._index.get(item)

    def __contains__(self, item: str) -> bool:
        return item in self._index

    def __len__(self) -> int:
        return len(self.items)

    def __getitem__(self, idx: int) -> str:
        return self.items[idx]


@dataclass(frozen=True)
class Token:
    """One word occurrence: vocabulary index plus tag index."""

    word: int
    tag: int


def _frozen(values) -> np.ndarray:
    out = np.asarray(values, dtype=np.int64)
    out.flags.writeable = False
    return out


class Snippet:
    """A short opinion phrase owned by one entity.

    words and tags hold its word and tag indices, read-only int64 arrays.
    Snippet(entity, snippet_id, tokens) builds one from Token objects,
    for corpora built in code; tokens gives them back. A loaded or
    sampled corpus makes its snippets only when Corpus.snippets is first
    read, as views of its flat arrays.
    """

    __slots__ = ("entity", "snippet_id", "words", "tags")

    def __init__(self, entity: int, snippet_id: str, tokens: Sequence[Token]):
        words, tags = _frozen([t.word for t in tokens]), _frozen([t.tag for t in tokens])
        self._set(entity, snippet_id, words, tags)

    def _set(self, entity: int, snippet_id: str, words: np.ndarray, tags: np.ndarray) -> Snippet:
        self.entity, self.snippet_id, self.words, self.tags = entity, snippet_id, words, tags
        return self

    @property
    def tokens(self) -> tuple[Token, ...]:
        return tuple(map(Token, self.words.tolist(), self.tags.tolist()))

    def __len__(self) -> int:
        return len(self.words)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Snippet) and (self.entity, self.snippet_id, self.tokens) == (
            other.entity, other.snippet_id, other.tokens)


class Corpus:
    """Snippets grouped by entity and the shared vocabularies, with every
    token in one stream, packed when the corpus is built.

    Attributes:
        entities: entity ids in first appearance order.
        vocabulary: dense word index (lowercased surface forms).
        tag_set: dense tag index (verbatim tag strings).
        words, tags: (T,) word and tag index of every token, snippets in
            corpus order; snippet s (counted over the corpus) owns tokens
            offsets[s]:offsets[s+1], and entity i owns snippets
            snippet_bounds[i]:snippet_bounds[i+1].
        snippet_ids: the id of every snippet, in corpus order.

    These are all a corpus stores. snippets, one list of Snippet objects
    per entity in input order, is built from them the first time it (or
    iter_snippets or snippet_by_id) is read, and kept; a corpus built
    from Snippet objects keeps those. Loading, sampling, fitting, scoring
    and the writers read the arrays and ids only.

    A corpus is immutable, not invalidated: its arrays and its snippets'
    words and tags are read-only and tokens is a tuple. So nothing that
    is derived from the arrays can go stale; inference builds its pack
    once per corpus and keeps it in _pack, and snippets is built at most
    once. To change a corpus, build a new one.
    """

    def __init__(self, entities: list[str], snippets: list[list[Snippet]], vocabulary: Indexer,
                 tag_set: Indexer):
        flat = [sn for group in snippets for sn in group]
        self._set(
            entities, vocabulary, tag_set,
            np.concatenate([sn.words for sn in flat] or [[]]),
            np.concatenate([sn.tags for sn in flat] or [[]]),
            np.cumsum([0] + [len(sn) for sn in flat]),
            np.cumsum([0] + [len(g) for g in snippets]),
            [sn.snippet_id for sn in flat],
        )
        self._snippets = snippets

    def _set(self, entities: list[str], vocabulary: Indexer, tag_set: Indexer, words, tags,
             offsets, snippet_bounds, snippet_ids: list[str]) -> Corpus:
        self.entities, self.vocabulary, self.tag_set = entities, vocabulary, tag_set
        self.words, self.tags = _frozen(words), _frozen(tags)
        self.offsets, self.snippet_bounds = _frozen(offsets), _frozen(snippet_bounds)
        self.snippet_ids = snippet_ids
        self._snippets: Optional[list[list[Snippet]]] = None
        self._pack = None
        return self

    @classmethod
    def from_arrays(
        cls, entities: list[str], vocabulary: Indexer, tag_set: Indexer, snippet_entity,
        snippet_ids: Sequence[str], lengths, words, tags,
    ) -> Corpus:
        """The corpus whose snippet s belongs to entity snippet_entity[s],
        has id snippet_ids[s] and owns the next lengths[s] tokens of
        words and tags. A stable sort groups the snippets by entity, so
        each entity keeps its snippets in input order. Only the packed
        arrays and the ids are built: no Snippet."""
        ent = np.asarray(snippet_entity, dtype=np.int64)
        order = np.argsort(ent, kind="stable")
        lengths = np.asarray(lengths, dtype=np.int64)
        starts, lengths = (np.cumsum(lengths) - lengths)[order], lengths[order]
        ends = np.cumsum(lengths)
        take = np.repeat(starts - ends + lengths, lengths) + np.arange(lengths.sum())
        words, tags = (np.asarray(x, dtype=np.int64)[take] for x in (words, tags))
        bounds = np.cumsum([0] + np.bincount(ent, minlength=len(entities)).tolist())
        return cls.__new__(cls)._set(
            entities, vocabulary, tag_set, words, tags, np.concatenate(([0], ends)), bounds,
            list(map(snippet_ids.__getitem__, order.tolist())),
        )

    @property
    def snippets(self) -> list[list[Snippet]]:
        """One list of snippets per entity, in corpus order. A loaded or
        sampled corpus builds them here, once, as views of its arrays."""
        if self._snippets is None:
            at = self.offsets.tolist()
            views = [Snippet.__new__(Snippet)._set(i, sid, self.words[a:b], self.tags[a:b])
                     for i, sid, a, b in zip(self.snippet_entities(), self.snippet_ids, at, at[1:])]
            bounds = self.snippet_bounds.tolist()
            self._snippets = [views[a:b] for a, b in zip(bounds, bounds[1:])]
        return self._snippets

    @property
    def n_entities(self) -> int:
        return len(self.entities)

    @property
    def n_snippets(self) -> int:
        return len(self.offsets) - 1

    @property
    def n_tokens(self) -> int:
        return len(self.words)

    def snippet_entities(self) -> list[int]:
        """The entity index of every snippet, in corpus order."""
        groups = np.diff(self.snippet_bounds)
        return np.repeat(np.arange(len(groups)), groups).tolist()

    def token_counts(self) -> list[list[int]]:
        """Each entity's snippet lengths, in corpus order."""
        lengths, bounds = np.diff(self.offsets).tolist(), self.snippet_bounds.tolist()
        return [lengths[a:b] for a, b in zip(bounds, bounds[1:])]

    def iter_snippets(self) -> Iterator[Snippet]:
        for group in self.snippets:
            yield from group

    def snippet_by_id(self) -> dict[str, Snippet]:
        return {sn.snippet_id: sn for sn in self.iter_snippets()}

    def entity_index(self, entity: str) -> int:
        try:
            return self.entities.index(entity)
        except ValueError:
            raise CorpusError(f"unknown entity {entity!r}") from None

    def words_of(self, snippet: Snippet) -> list[str]:
        return [self.vocabulary[w] for w in snippet.words.tolist()]


def _normalize_word(word: str) -> str:
    return word.lower()


def read_lines(path: str, error: type[ValueError] = CorpusError) -> Iterator[tuple[int, str]]:
    """Yield (line number, line) for each line of a UTF-8 text file, split
    as text mode splits it. A line that is not valid UTF-8 raises error
    naming path:line. Undecodable bytes are read as lone surrogates, which
    valid UTF-8 never yields, so a line holds one exactly when it fails to
    encode back; an ASCII line (str.isascii takes constant time) cannot."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise error(f"{path}:{lineno}: not valid UTF-8") from None
            yield lineno, line


def _read_jsonl(path: str) -> Iterator[tuple[int, dict]]:
    """Yield (line number, record) for each non-blank line of a JSON-lines
    file; every record must be a JSON object."""
    for lineno, line in read_lines(path):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"{path}:{lineno}: invalid JSON: {exc}") from None
        if not isinstance(rec, dict):
            raise CorpusError(f"{path}:{lineno}: record is not an object")
        yield lineno, rec


def load_corpus(path: str) -> Corpus:
    """Read a JSON-lines corpus file into a packed Corpus.

    Raises CorpusError (with the offending line number) on malformed
    records, empty token lists, or duplicate snippet ids.
    """
    entities = Indexer()
    snippet_ids: dict[str, None] = {}  # in input order
    # Each token as the index of its surface form and of its tag, both in
    # first appearance order (a lowercased word first appears with its
    # first surface form), and each snippet's entity and length.
    form_of: dict[str, int] = {}
    tag_of: dict[str, int] = {}
    words, tags, snippet_entity, lengths = [], [], [], []
    for lineno, rec in _read_jsonl(path):
        try:
            entity, snippet_id, raw_tokens = rec["entity"], rec["id"], rec["tokens"]
        except KeyError:
            missing = sorted({"entity", "id", "tokens"} - rec.keys())
            raise CorpusError(f"{path}:{lineno}: missing field(s) {missing}") from None
        if not isinstance(entity, str) or not isinstance(snippet_id, str):
            raise CorpusError(f"{path}:{lineno}: entity and id must be strings")
        if snippet_id in snippet_ids:
            raise CorpusError(f"{path}:{lineno}: duplicate snippet id {snippet_id!r}")
        snippet_ids[snippet_id] = None
        if not isinstance(raw_tokens, list) or not raw_tokens:
            raise CorpusError(f"{path}:{lineno}: snippet has no tokens")
        for tok in raw_tokens:
            if not (isinstance(tok, list) and len(tok) == 2 and isinstance(tok[0], str)
                    and isinstance(tok[1], str)):
                raise CorpusError(f"{path}:{lineno}: token must be a [word, tag] string pair")
            words.append(form_of.setdefault(tok[0], len(form_of)))
            tags.append(tag_of.setdefault(tok[1], len(tag_of)))
        snippet_entity.append(entities.add(entity))
        lengths.append(len(raw_tokens))
    vocabulary, tag_set = Indexer(), Indexer(tag_of)
    word_of_form = np.array([vocabulary.add(_normalize_word(f)) for f in form_of], dtype=np.int64)
    corpus = Corpus.from_arrays(
        list(entities.items), vocabulary, tag_set, snippet_entity, list(snippet_ids), lengths,
        word_of_form[np.asarray(words, dtype=np.int64)], tags,
    )
    log.info(
        "loaded corpus %s: %d entities, %d snippets, %d word types, %d tags",
        path, corpus.n_entities, corpus.n_snippets, len(vocabulary), len(tag_set),
    )
    return corpus


def save_corpus(corpus: Corpus, path: str) -> None:
    """Write a corpus back out in the JSON-lines format.

    Each line is the bytes of json.dumps(record, ensure_ascii=False) for
    the snippet's {"entity", "id", "tokens"} record, made by one format
    call from strings encoded once: each vocabulary word, tag and entity
    by the same encoder, and each token as its [word, tag] pair.
    """
    encode = json.JSONEncoder(ensure_ascii=False).encode
    words = [encode(w) for w in corpus.vocabulary.items]
    tags = [encode(t) for t in corpus.tag_set.items]
    entities = [encode(e) for e in corpus.entities]
    tokens = [
        f"[{words[w]}, {tags[t]}]" for w, t in zip(corpus.words.tolist(), corpus.tags.tolist())
    ]
    bounds = corpus.offsets.tolist()
    rows = zip(corpus.snippet_entities(), corpus.snippet_ids, bounds, bounds[1:])
    with atomic_open(path) as fh:
        fh.writelines(
            f'{{"entity": {entities[i]}, "id": {encode(sid)}, '
            f'"tokens": [{", ".join(tokens[a:b])}]}}\n'
            for i, sid, a, b in rows
        )


@dataclass
class SeedLexicon:
    """Seed words per value type, resolved against one corpus vocabulary.

    Attributes:
        value_names: value type names, index position is the value index.
        seed_words: one set of vocabulary indices per value type.
        dropped: count of seed words absent from the corpus vocabulary.
    """

    value_names: list[str]
    seed_words: list[set[int]]
    dropped: int = 0

    @property
    def n_values(self) -> int:
        return len(self.value_names)

    def total_seeds(self) -> int:
        return sum(len(s) for s in self.seed_words)

    def resolve_value(self, label: str) -> int:
        """Map a value label (name, unique prefix, or integer) to its index."""
        if label in self.value_names:
            return self.value_names.index(label)
        hits = [i for i, n in enumerate(self.value_names) if n.startswith(label)]
        if len(hits) == 1:
            return hits[0]
        try:
            idx = int(label)
        except ValueError:
            raise CorpusError(f"unknown value label {label!r}") from None
        if 0 <= idx < len(self.value_names):
            return idx
        raise CorpusError(f"value index {idx} out of range")


def default_value_names(n_values: int) -> list[str]:
    if n_values == 2:
        return ["positive", "negative"]
    return [f"v{i}" for i in range(n_values)]


def load_seed_lexicon(
    path: str, corpus: Corpus, value_names: Optional[Sequence[str]] = None
) -> SeedLexicon:
    """Read a sectioned seed word file.

    When value_names is given, every section header must name one of
    them (hard error otherwise) and the returned lexicon covers exactly
    that list. Without it, sections define the value types in file
    order. Seed words missing from the corpus vocabulary are dropped
    with a logged count; words listed under more than one value type are
    kept in both sets but reported.
    """
    names: list[str] = list(value_names) if value_names is not None else []
    sets: list[set[int]] = [set() for _ in names]
    current: Optional[int] = None
    dropped = 0
    overlap: list[int] = []  # the line of each word already under another value type
    for lineno, line in read_lines(path):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            header = line[1:-1]
            if not header.startswith("value:"):
                raise CorpusError(f"{path}:{lineno}: section header must be [value:<name>]")
            name = header[len("value:"):].strip()
            if not name:
                raise CorpusError(f"{path}:{lineno}: empty value name")
            if name not in names:
                if value_names is not None:
                    raise CorpusError(f"{path}:{lineno}: unknown value type {name!r}")
                names.append(name)
                sets.append(set())
            current = names.index(name)
            continue
        if current is None:
            raise CorpusError(f"{path}:{lineno}: seed word before any [value:...] header")
        widx = corpus.vocabulary.get(_normalize_word(line))
        if widx is None:
            dropped += 1
            continue
        for other, s in enumerate(sets):
            if other != current and widx in s:
                overlap.append(lineno)
        sets[current].add(widx)
    if dropped:
        log.warning("seed lexicon %s: %d word(s) not in corpus vocabulary", path, dropped)
    if overlap:
        log.warning(
            "seed lexicon %s:%d: %d word(s) listed under multiple value types, the first here",
            path, overlap[0], len(overlap),
        )
    return SeedLexicon(names, sets, dropped)


def save_seed_lexicon(lexicon: SeedLexicon, corpus: Corpus, path: str) -> None:
    """Write the lexicon's words that the corpus's tokens use. The corpus
    read back from its file knows no other word, so load_seed_lexicon
    would drop the rest with a warning."""
    used = np.zeros(len(corpus.vocabulary), dtype=bool)
    used[corpus.words] = True
    with atomic_open(path) as fh:
        for name, words in zip(lexicon.value_names, lexicon.seed_words):
            fh.write(f"[value:{name}]\n")
            for widx in sorted(words):
                if used[widx]:
                    fh.write(corpus.vocabulary[widx] + "\n")


@dataclass
class GoldAnnotations:
    """Reference annotations keyed by snippet id.

    clusters maps to opaque per-entity cluster labels, polarity to value
    indices, word_labels to per-token role letters, and parse_spans to
    half-open (start, end, kind) phrase intervals.
    """

    clusters: dict[str, str] = field(default_factory=dict)
    polarity: dict[str, int] = field(default_factory=dict)
    word_labels: dict[str, list[str]] = field(default_factory=dict)
    parse_spans: dict[str, list[tuple[int, int, str]]] = field(default_factory=dict)


def _read_tsv(path: str, n_cols: int) -> Iterator[tuple[int, list[str]]]:
    for lineno, line in read_lines(path):
        line = line.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != n_cols:
            raise CorpusError(
                f"{path}:{lineno}: expected {n_cols} tab-separated columns, got {len(parts)}"
            )
        yield lineno, parts


def _snippets_by_id(corpus: Corpus) -> dict[str, tuple[int, int]]:
    """Each snippet id's entity index and token count."""
    lengths = np.diff(corpus.offsets).tolist()
    return dict(zip(corpus.snippet_ids, zip(corpus.snippet_entities(), lengths)))


def _check_snippet(
    corpus: Corpus,
    by_id: Mapping[str, tuple[int, int]],
    path: str,
    lineno: int,
    sid: str,
    entity: Optional[str] = None,
) -> int:
    """The token count of the snippet a line names (by_id from
    _snippets_by_id). It must exist and, where the format names an
    entity, belong to the line's entity."""
    found = by_id.get(sid)
    if found is None:
        raise CorpusError(f"{path}:{lineno}: unknown snippet id {sid!r}")
    owner, n_tokens = found
    if entity is not None and corpus.entities[owner] != entity:
        raise CorpusError(
            f"{path}:{lineno}: snippet {sid!r} belongs to "
            f"{corpus.entities[owner]!r}, not {entity!r}"
        )
    return n_tokens


def _add_once(table: dict, path: str, lineno: int, sid: str, value: object) -> None:
    """Store a line's value for its snippet; a second line for it is an error."""
    if sid in table:
        raise CorpusError(f"{path}:{lineno}: duplicate snippet id {sid!r}")
    table[sid] = value


def load_gold(
    corpus: Corpus,
    clusters_path: Optional[str] = None,
    polarity_path: Optional[str] = None,
    word_labels_path: Optional[str] = None,
    parse_spans_path: Optional[str] = None,
    value_names: Optional[Sequence[str]] = None,
) -> GoldAnnotations:
    """Load whichever gold annotation files are provided.

    Every referenced snippet id must exist in the corpus and belong to
    the entity named on its line; a clusters, polarity or word-label
    file names each snippet at most once. Polarity labels are resolved
    against value_names (defaults to positive/negative).
    """
    gold = GoldAnnotations()
    by_id = _snippets_by_id(corpus)
    names = list(value_names) if value_names is not None else default_value_names(2)
    lexicon = SeedLexicon(names, [set() for _ in names])
    if clusters_path is not None:
        for lineno, (entity, sid, label) in _read_tsv(clusters_path, 3):
            _check_snippet(corpus, by_id, clusters_path, lineno, sid, entity)
            _add_once(gold.clusters, clusters_path, lineno, sid, label)
    if polarity_path is not None:
        for lineno, (entity, sid, label) in _read_tsv(polarity_path, 3):
            _check_snippet(corpus, by_id, polarity_path, lineno, sid, entity)
            try:
                value = lexicon.resolve_value(label)
            except CorpusError as exc:
                raise CorpusError(f"{polarity_path}:{lineno}: {exc}") from None
            _add_once(gold.polarity, polarity_path, lineno, sid, value)
    if word_labels_path is not None:
        for lineno, rec in _read_jsonl(word_labels_path):
            sid, labels = rec.get("id"), rec.get("labels")
            if not isinstance(sid, str) or not isinstance(labels, list):
                raise CorpusError(
                    f"{word_labels_path}:{lineno}: need string id and label list"
                )
            n_tokens = _check_snippet(corpus, by_id, word_labels_path, lineno, sid)
            if len(labels) != n_tokens:
                raise CorpusError(
                    f"{word_labels_path}:{lineno}: {len(labels)} labels for {n_tokens} tokens")
            bad = [l for l in labels if l not in WORD_LABELS]
            if bad:
                raise CorpusError(f"{word_labels_path}:{lineno}: unknown label(s) {bad}")
            _add_once(gold.word_labels, word_labels_path, lineno, sid, list(labels))
    if parse_spans_path is not None:
        for lineno, (sid, start_s, end_s, kind) in _read_tsv(parse_spans_path, 4):
            n_tokens = _check_snippet(corpus, by_id, parse_spans_path, lineno, sid)
            try:
                start, end = int(start_s), int(end_s)
            except ValueError:
                raise CorpusError(
                    f"{parse_spans_path}:{lineno}: start and end must be integers"
                ) from None
            if not (0 <= start < end <= n_tokens):
                raise CorpusError(f"{parse_spans_path}:{lineno}: span [{start}, {end}) "
                                  f"out of bounds for {n_tokens} tokens")
            if kind not in SPAN_KINDS:
                raise CorpusError(
                    f"{parse_spans_path}:{lineno}: unknown span kind {kind!r}"
                )
            gold.parse_spans.setdefault(sid, []).append((start, end, kind))
    return gold


def load_polarity_predictions(
    corpus: Corpus, path: str, value_names: Sequence[str]
) -> dict[str, Optional[int]]:
    """Read polarity predictions from a TSV in the gold polarity format,
    with the checks of load_gold. A label is an exact value name, or
    'split' for a snippet without a prediction (read as None)."""
    by_id = _snippets_by_id(corpus)
    names = list(value_names)
    out: dict[str, Optional[int]] = {}
    for lineno, (entity, sid, label) in _read_tsv(path, 3):
        _check_snippet(corpus, by_id, path, lineno, sid, entity)
        if label == "split":
            value = None
        elif label in names:
            value = names.index(label)
        else:
            raise CorpusError(f"{path}:{lineno}: unknown value label {label!r}")
        _add_once(out, path, lineno, sid, value)
    return out


def save_cluster_tsv(corpus: Corpus, labels: Mapping[str, str], path: str) -> None:
    """Write snippet -> label assignments as gold-format TSV, in corpus
    order; the one writer of the entity/id/label format."""
    with atomic_open(path) as fh:
        for i, sid in zip(corpus.snippet_entities(), corpus.snippet_ids):
            if sid in labels:
                fh.write(f"{corpus.entities[i]}\t{sid}\t{labels[sid]}\n")


def save_polarity_tsv(
    corpus: Corpus,
    polarity: Mapping[str, object],
    value_names: Sequence[str],
    path: str,
) -> None:
    """Write snippet polarity as TSV; None values are written as 'split'."""
    labels = {sid: "split" if v is None else value_names[int(v)] for sid, v in polarity.items()}
    save_cluster_tsv(corpus, labels, path)


def save_word_labels_jsonl(
    corpus: Corpus, labels: Mapping[str, Sequence[str]], path: str
) -> None:
    with atomic_open(path) as fh:
        for sid in corpus.snippet_ids:
            if sid in labels:
                rec = {"id": sid, "labels": list(labels[sid])}
                fh.write(json.dumps(rec, ensure_ascii=False) + "\n")
