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

Words are lowercased on load; tags are kept verbatim. There is no
stemming and no stop-word removal, the background topic is expected to
absorb function words. Vocabulary and tag indices are dense and follow
first appearance order, so loading the same file twice gives identical
indexing. The writers replace their target file atomically.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Optional, Sequence

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
        idx = self._index.get(item)
        if idx is None:
            idx = len(self.items)
            self._index[item] = idx
            self.items.append(item)
        return idx

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


@dataclass
class Snippet:
    """A short opinion phrase owned by one entity."""

    entity: int
    snippet_id: str
    tokens: list[Token]

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass
class Corpus:
    """Snippets grouped by entity, plus the shared vocabularies.

    Attributes:
        entities: entity ids in first appearance order.
        snippets: one list per entity, input order preserved.
        vocabulary: dense word index (lowercased surface forms).
        tag_set: dense tag index (verbatim tag strings).
    """

    entities: list[str]
    snippets: list[list[Snippet]]
    vocabulary: Indexer
    tag_set: Indexer

    @property
    def n_entities(self) -> int:
        return len(self.entities)

    @property
    def n_snippets(self) -> int:
        return sum(len(s) for s in self.snippets)

    @property
    def n_tokens(self) -> int:
        return sum(len(sn) for group in self.snippets for sn in group)

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
        return [self.vocabulary[t.word] for t in snippet.tokens]


def _normalize_word(word: str) -> str:
    return word.lower()


def load_corpus(path: str) -> Corpus:
    """Read a JSON-lines corpus file.

    Raises CorpusError (with the offending line number) on malformed
    records, empty token lists, or duplicate snippet ids.
    """
    entities = Indexer()
    groups: list[list[Snippet]] = []
    vocabulary = Indexer()
    tag_set = Indexer()
    seen_ids: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"{path}:{lineno}: invalid JSON: {exc}") from None
            if not isinstance(rec, dict):
                raise CorpusError(f"{path}:{lineno}: record is not an object")
            missing = {"entity", "id", "tokens"} - rec.keys()
            if missing:
                raise CorpusError(
                    f"{path}:{lineno}: missing field(s) {sorted(missing)}"
                )
            entity, snippet_id, raw_tokens = rec["entity"], rec["id"], rec["tokens"]
            if not isinstance(entity, str) or not isinstance(snippet_id, str):
                raise CorpusError(f"{path}:{lineno}: entity and id must be strings")
            if snippet_id in seen_ids:
                raise CorpusError(
                    f"{path}:{lineno}: duplicate snippet id {snippet_id!r}"
                )
            seen_ids.add(snippet_id)
            if not isinstance(raw_tokens, list) or not raw_tokens:
                raise CorpusError(f"{path}:{lineno}: snippet has no tokens")
            tokens = []
            for tok in raw_tokens:
                if (
                    not isinstance(tok, list)
                    or len(tok) != 2
                    or not all(isinstance(x, str) for x in tok)
                ):
                    raise CorpusError(
                        f"{path}:{lineno}: token must be a [word, tag] string pair"
                    )
                word, tag = tok
                tokens.append(
                    Token(vocabulary.add(_normalize_word(word)), tag_set.add(tag))
                )
            eidx = entities.add(entity)
            if eidx == len(groups):
                groups.append([])
            groups[eidx].append(Snippet(eidx, snippet_id, tokens))
    corpus = Corpus(list(entities.items), groups, vocabulary, tag_set)
    log.info(
        "loaded corpus %s: %d entities, %d snippets, %d word types, %d tags",
        path,
        corpus.n_entities,
        corpus.n_snippets,
        len(vocabulary),
        len(tag_set),
    )
    return corpus


def save_corpus(corpus: Corpus, path: str) -> None:
    """Write a corpus back out in the JSON-lines format."""
    with atomic_open(path) as fh:
        for group in corpus.snippets:
            for sn in group:
                rec = {
                    "entity": corpus.entities[sn.entity],
                    "id": sn.snippet_id,
                    "tokens": [
                        [corpus.vocabulary[t.word], corpus.tag_set[t.tag]]
                        for t in sn.tokens
                    ],
                }
                fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


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


def empty_lexicon(value_names: Sequence[str]) -> SeedLexicon:
    return SeedLexicon(list(value_names), [set() for _ in value_names])


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
    overlap = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("[") and line.endswith("]"):
                header = line[1:-1]
                if not header.startswith("value:"):
                    raise CorpusError(
                        f"{path}:{lineno}: section header must be [value:<name>]"
                    )
                name = header[len("value:"):].strip()
                if not name:
                    raise CorpusError(f"{path}:{lineno}: empty value name")
                if value_names is not None:
                    if name not in names:
                        raise CorpusError(
                            f"{path}:{lineno}: unknown value type {name!r}"
                        )
                    current = names.index(name)
                else:
                    if name in names:
                        current = names.index(name)
                    else:
                        names.append(name)
                        sets.append(set())
                        current = len(names) - 1
                continue
            if current is None:
                raise CorpusError(
                    f"{path}:{lineno}: seed word before any [value:...] header"
                )
            widx = corpus.vocabulary.get(_normalize_word(line))
            if widx is None:
                dropped += 1
                continue
            for other, s in enumerate(sets):
                if other != current and widx in s:
                    overlap += 1
            sets[current].add(widx)
    if dropped:
        log.warning("seed lexicon %s: %d word(s) not in corpus vocabulary", path, dropped)
    if overlap:
        log.warning("seed lexicon %s: %d word(s) listed under multiple value types", path, overlap)
    return SeedLexicon(names, sets, dropped)


def save_seed_lexicon(lexicon: SeedLexicon, corpus: Corpus, path: str) -> None:
    with atomic_open(path) as fh:
        for name, words in zip(lexicon.value_names, lexicon.seed_words):
            fh.write(f"[value:{name}]\n")
            for widx in sorted(words):
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
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != n_cols:
                raise CorpusError(
                    f"{path}:{lineno}: expected {n_cols} tab-separated columns, "
                    f"got {len(parts)}"
                )
            yield lineno, parts


def _check_snippet(
    corpus: Corpus, by_id: Mapping[str, Snippet], path: str, lineno: int, entity: str, sid: str
) -> None:
    """Check that the snippet a line names exists and belongs to entity."""
    sn = by_id.get(sid)
    if sn is None:
        raise CorpusError(f"{path}:{lineno}: unknown snippet id {sid!r}")
    if corpus.entities[sn.entity] != entity:
        raise CorpusError(
            f"{path}:{lineno}: snippet {sid!r} belongs to "
            f"{corpus.entities[sn.entity]!r}, not {entity!r}"
        )


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
    the entity named on its line. Polarity labels are resolved against
    value_names (defaults to positive/negative).
    """
    gold = GoldAnnotations()
    by_id = corpus.snippet_by_id()
    names = list(value_names) if value_names is not None else default_value_names(2)
    lexicon = empty_lexicon(names)
    if clusters_path is not None:
        for lineno, (entity, sid, label) in _read_tsv(clusters_path, 3):
            _check_snippet(corpus, by_id, clusters_path, lineno, entity, sid)
            gold.clusters[sid] = label
    if polarity_path is not None:
        for lineno, (entity, sid, label) in _read_tsv(polarity_path, 3):
            _check_snippet(corpus, by_id, polarity_path, lineno, entity, sid)
            try:
                gold.polarity[sid] = lexicon.resolve_value(label)
            except CorpusError as exc:
                raise CorpusError(f"{polarity_path}:{lineno}: {exc}") from None
    if word_labels_path is not None:
        with open(word_labels_path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise CorpusError(
                        f"{word_labels_path}:{lineno}: invalid JSON: {exc}"
                    ) from None
                if not isinstance(rec, dict):
                    raise CorpusError(f"{word_labels_path}:{lineno}: record is not an object")
                sid = rec.get("id")
                labels = rec.get("labels")
                if not isinstance(sid, str) or not isinstance(labels, list):
                    raise CorpusError(
                        f"{word_labels_path}:{lineno}: need string id and label list"
                    )
                sn = by_id.get(sid)
                if sn is None:
                    raise CorpusError(
                        f"{word_labels_path}:{lineno}: unknown snippet id {sid!r}"
                    )
                if len(labels) != len(sn.tokens):
                    raise CorpusError(
                        f"{word_labels_path}:{lineno}: {len(labels)} labels for "
                        f"{len(sn.tokens)} tokens"
                    )
                bad = [l for l in labels if l not in WORD_LABELS]
                if bad:
                    raise CorpusError(
                        f"{word_labels_path}:{lineno}: unknown label(s) {bad}"
                    )
                gold.word_labels[sid] = list(labels)
    if parse_spans_path is not None:
        for lineno, (sid, start_s, end_s, kind) in _read_tsv(parse_spans_path, 4):
            sn = by_id.get(sid)
            if sn is None:
                raise CorpusError(f"{parse_spans_path}:{lineno}: unknown snippet id {sid!r}")
            try:
                start, end = int(start_s), int(end_s)
            except ValueError:
                raise CorpusError(
                    f"{parse_spans_path}:{lineno}: start and end must be integers"
                ) from None
            if not (0 <= start < end <= len(sn.tokens)):
                raise CorpusError(
                    f"{parse_spans_path}:{lineno}: span [{start}, {end}) out of "
                    f"bounds for {len(sn.tokens)} tokens"
                )
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
    by_id = corpus.snippet_by_id()
    names = list(value_names)
    out: dict[str, Optional[int]] = {}
    for lineno, (entity, sid, label) in _read_tsv(path, 3):
        _check_snippet(corpus, by_id, path, lineno, entity, sid)
        if label == "split":
            out[sid] = None
        elif label in names:
            out[sid] = names.index(label)
        else:
            raise CorpusError(f"{path}:{lineno}: unknown value label {label!r}")
    return out


def save_cluster_tsv(corpus: Corpus, labels: Mapping[str, str], path: str) -> None:
    """Write snippet -> cluster label assignments as gold-format TSV."""
    with atomic_open(path) as fh:
        for sn in corpus.iter_snippets():
            if sn.snippet_id in labels:
                fh.write(
                    f"{corpus.entities[sn.entity]}\t{sn.snippet_id}"
                    f"\t{labels[sn.snippet_id]}\n"
                )


def save_polarity_tsv(
    corpus: Corpus,
    polarity: Mapping[str, object],
    value_names: Sequence[str],
    path: str,
) -> None:
    """Write snippet polarity as TSV; None values are written as 'split'."""
    with atomic_open(path) as fh:
        for sn in corpus.iter_snippets():
            if sn.snippet_id in polarity:
                v = polarity[sn.snippet_id]
                label = "split" if v is None else value_names[int(v)]
                fh.write(
                    f"{corpus.entities[sn.entity]}\t{sn.snippet_id}\t{label}\n"
                )


def save_word_labels_jsonl(
    corpus: Corpus, labels: Mapping[str, Sequence[str]], path: str
) -> None:
    with atomic_open(path) as fh:
        for sn in corpus.iter_snippets():
            if sn.snippet_id in labels:
                rec = {"id": sn.snippet_id, "labels": list(labels[sn.snippet_id])}
                fh.write(json.dumps(rec, ensure_ascii=False) + "\n")
