"""Dataset ingestion, vocabularies, frequency tiers and the stopword list.

The on-disk corpus format is UTF-8 JSON-lines, one object per example:

    {"id": "...",
     "passage_tokens": [{"text": ..., "pos": ..., "ner": ..., "dep": ...,
                         "head": ..., "is_lower": ..., "is_digit": ...,
                         "like_num": ...}, ...],
     "answer_span": [start, end],
     "question_tokens": ["...", ...]}

`head` indexes the syntactic head within the passage; the root token points
to itself.  Answer spans are inclusive token indices into the passage.  No
passage token's text may be one of `SPECIAL_TOKENS`, whose columns the
decoder keeps for itself.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .config import ConfigError

PAD, UNK, EOS, SOS, LOWFREQ = "<PAD>", "<UNK>", "<EOS>", "<SOS>", "<l>"
SPECIAL_TOKENS = (PAD, UNK, EOS, SOS, LOWFREQ)


class IngestError(ValueError):
    """Raised when the dataset file violates the documented schema."""


@dataclass
class AnnotatedToken:
    text: str
    pos: str
    ner: str
    dep: str
    head: int
    is_lower: bool
    is_digit: bool
    like_num: bool


@dataclass
class AnnotatedExample:
    """One pre-parsed passage with its answer span and reference question."""

    id: str
    passage: list[AnnotatedToken]
    answer_span: tuple[int, int]
    question: list[str]


def normalize(token: str) -> str:
    """Normalization used for counting, matching and alignment."""
    return token.lower()


_TOKEN_FIELDS = {
    "text": str, "pos": str, "ner": str, "dep": str,
    "head": int, "is_lower": bool, "is_digit": bool, "like_num": bool,
}


def _parse_token(obj: dict, pos: int) -> AnnotatedToken:
    if not isinstance(obj, dict):
        raise ValueError(f"passage token {pos} is not an object")
    kwargs = {}
    for name, typ in _TOKEN_FIELDS.items():
        if name not in obj:
            raise ValueError(f"passage token {pos} missing field {name!r}")
        value = obj[name]
        if typ is int:
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"passage token {pos} field {name!r} must be an integer")
        elif not isinstance(value, typ):
            raise ValueError(f"passage token {pos} field {name!r} must be {typ.__name__}")
        kwargs[name] = value
    if kwargs["text"] in SPECIAL_TOKENS:
        raise ValueError(f"passage token {pos} text {kwargs['text']!r} is a special token")
    return AnnotatedToken(**kwargs)


def validate_tree(heads: list[int]) -> None:
    """Check head links form a single-rooted tree over the passage."""
    n = len(heads)
    roots = [i for i, h in enumerate(heads) if h == i]
    for i, h in enumerate(heads):
        if not 0 <= h < n:
            raise ValueError(f"token {i} head {h} out of range")
    if len(roots) != 1:
        raise ValueError(f"expected exactly one root token, found {len(roots)}")
    root = roots[0]
    for i in range(n):
        seen = set()
        j = i
        while j != root:
            if j in seen:
                raise ValueError(f"head chain starting at token {i} cycles without reaching the root")
            seen.add(j)
            j = heads[j]


def _parse_example(obj: dict, require_question: bool = True) -> AnnotatedExample:
    if not isinstance(obj, dict):
        raise ValueError("record is not a JSON object")
    required = ["id", "passage_tokens", "answer_span"]
    if require_question:
        required.append("question_tokens")
    for name in required:
        if name not in obj:
            raise ValueError(f"missing field {name!r}")
    ex_id = obj["id"]
    if not isinstance(ex_id, str):
        raise ValueError("id must be a string")
    raw_passage = obj["passage_tokens"]
    if not isinstance(raw_passage, list) or not raw_passage:
        raise ValueError("passage_tokens must be a non-empty array")
    passage = [_parse_token(t, i) for i, t in enumerate(raw_passage)]
    validate_tree([t.head for t in passage])
    span = obj["answer_span"]
    if not (isinstance(span, list) and len(span) == 2) or any(
            isinstance(v, bool) or not isinstance(v, int) for v in span):
        raise ValueError("answer_span must be [start, end]")
    start, end = span
    if not 0 <= start <= end < len(passage):
        raise ValueError(f"answer_span [{start}, {end}] out of range for passage of length {len(passage)}")
    question = obj.get("question_tokens", [])
    if require_question:
        if not (isinstance(question, list) and question and all(isinstance(q, str) for q in question)):
            raise ValueError("question_tokens must be a non-empty array of strings")
    elif not (isinstance(question, list) and all(isinstance(q, str) for q in question)):
        raise ValueError("question_tokens, when present, must be an array of strings")
    return AnnotatedExample(id=ex_id, passage=passage, answer_span=(start, end), question=list(question))


def utf8_lines(path, error: type[Exception]) -> Iterator[tuple[int, str]]:
    """(line number, line) of a text file, each line decoded as UTF-8 on its
    own, so that a line that is not UTF-8 raises `error` naming the file
    and the line."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                yield lineno, raw.decode("utf-8")
            except UnicodeDecodeError as e:
                raise error(f"{path} line {lineno} is not UTF-8 text: {e.reason} "
                            f"at byte {e.start}") from None


def load_corpus(path, require_question: bool = True) -> list[AnnotatedExample]:
    """Parse and validate a JSON-lines corpus, preserving file order.

    All malformed records are collected and reported together, with their
    line numbers and ids.  `require_question=False` admits records without a
    reference question (the generation-time input format).
    """
    examples = []
    errors = []
    first_line = {}   # id -> the line it was first read from
    for lineno, line in utf8_lines(path, IngestError):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            errors.append(f"line {lineno}: invalid JSON ({e.msg})")
            continue
        try:
            example = _parse_example(obj, require_question)
        except ValueError as e:
            ex_id = obj.get("id", "?") if isinstance(obj, dict) else "?"
            errors.append(f"line {lineno} (id={ex_id}): {e}")
            continue
        if example.id in first_line:
            errors.append(f"line {lineno} (id={example.id}): repeats the id of line "
                          f"{first_line[example.id]}")
            continue
        first_line[example.id] = lineno
        examples.append(example)
    if errors:
        raise IngestError(f"{len(errors)} malformed record(s) in {path}:\n" + "\n".join(errors))
    return examples


def write_corpus(examples: list[AnnotatedExample], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            obj = {
                "id": ex.id,
                "passage_tokens": [vars(t) for t in ex.passage],
                "answer_span": list(ex.answer_span),
                "question_tokens": list(ex.question),
            }
            fh.write(json.dumps(obj, sort_keys=True) + "\n")


@dataclass
class Vocabulary:
    """Words ranked 1..V by descending training-corpus frequency.

    Counting pools passage and question tokens, lowercased; frequency ties
    break by first occurrence in corpus order.  Special tokens live outside
    the ranking and take embedding ids 0..4; word ids follow as rank + 4.
    """

    words: list[str]
    _rank: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self._rank = {w: r for r, w in enumerate(self.words, start=1)}

    def __len__(self):
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return normalize(word) in self._rank

    def rank_of(self, word: str) -> int | None:
        return self._rank.get(normalize(word))

    def id_of(self, word: str) -> int:
        """Embedding row for a surface token; OOV maps to <UNK>."""
        r = self._rank.get(normalize(word))
        return SPECIAL_TOKENS.index(UNK) if r is None else len(SPECIAL_TOKENS) - 1 + r

    @property
    def table_size(self) -> int:
        return len(SPECIAL_TOKENS) + len(self.words)


def build_vocabulary(corpus: list[AnnotatedExample], max_size: int = 20000) -> Vocabulary:
    if not corpus:
        raise IngestError("cannot build a vocabulary from an empty corpus")
    counts: Counter[str] = Counter()
    for ex in corpus:
        counts.update(normalize(tok.text) for tok in ex.passage)
        counts.update(normalize(q) for q in ex.question)
    # most_common breaks count ties by first insertion: the word seen first
    return Vocabulary(words=[w for w, _ in counts.most_common(max_size)])


TIER_HIGH, TIER_MEDIUM, TIER_LOW = "H", "M", "L"


def tier_of(word: str, vocab: Vocabulary, r_h: int = 100, r_l: int = 2000) -> str:
    """Frequency tier from vocabulary rank; out-of-vocabulary words are L."""
    if not 0 < r_h < r_l:
        raise ConfigError(f"tier thresholds must satisfy 0 < r_h < r_l, got {r_h}, {r_l}")
    rank = vocab.rank_of(word)
    if rank is None or rank > r_l:
        return TIER_LOW
    if rank <= r_h:
        return TIER_HIGH
    return TIER_MEDIUM


@dataclass
class ReducedTargetVocab:
    """Decoder-side vocabulary: the most frequent generated question words.

    Entries are <UNK>, <EOS>, <SOS> followed by up to N words, so the decoder
    softmax never has to cover the full source vocabulary.
    """

    words: list[str]
    _ids: dict[str, int] = field(init=False, repr=False)

    UNK_ID, EOS_ID, SOS_ID = 0, 1, 2
    _N_SPECIALS = 3

    def __post_init__(self):
        self._ids = {w: i + self._N_SPECIALS for i, w in enumerate(self.words)}

    def __len__(self):
        return self._N_SPECIALS + len(self.words)

    def __contains__(self, word: str) -> bool:
        return normalize(word) in self._ids

    def id_of(self, word: str) -> int:
        return self._ids.get(normalize(word), self.UNK_ID)

    def token_of(self, idx: int) -> str:
        if idx == self.UNK_ID:
            return UNK
        if idx == self.EOS_ID:
            return EOS
        if idx == self.SOS_ID:
            return SOS
        return self.words[idx - self._N_SPECIALS]


def build_reduced_target_vocab(questions, n: int = 2000) -> ReducedTargetVocab:
    """Top-n question words, counted only over tokens labeled as generated.

    `questions` yields (question tokens, copy labels) pairs.
    """
    counts: Counter[str] = Counter()
    for question, copy_labels in questions:
        counts.update(normalize(token) for token, copied in zip(question, copy_labels)
                      if not copied)
    # ties: the word counted first
    return ReducedTargetVocab(words=[w for w, _ in counts.most_common(n)])


_STOPWORD_LIST = """
i me my myself we our ours ourselves you your yours yourself yourselves
he him his himself she her hers herself it its itself they them their theirs themselves
what which who whom whose when where why how
this that these those
am is are was were be been being have has had having do does did doing
can could may might must shall should will would
a an the and but if or nor because as until while
of at by for with about against between into through during before after
above below to from up down in out on off over under
again further then once here there
all any both each few more most other some such
no not only own same so than too very just
n't 's 're 've 'll 'd 'm
. , ? ! ; : ' " ` `` '' ( ) [ ] { } - -- ...
""".split()

_STOPWORDS = frozenset(_STOPWORD_LIST)


def stopword_set() -> frozenset[str]:
    """The pinned English stopword list shipped with this package.

    Membership tests should be done on `normalize`d tokens.  The list is
    hash-pinned in the test suite so that labeling stays reproducible across
    releases.
    """
    return _STOPWORDS


def load_word_vectors(path, dim: int, dtype=np.float64) -> dict[str, np.ndarray]:
    """Read whitespace-separated pre-trained vectors: token then `dim` floats,
    each of which must be finite once cast to `dtype`, the word table's."""
    dtype = np.dtype(dtype)
    table: dict[str, np.ndarray] = {}
    for lineno, line in utf8_lines(path, ConfigError):
        parts = line.rstrip("\n").split(" ")
        if len(parts) < 2:
            continue
        word, values = parts[0], parts[1:]
        if len(values) != dim:
            raise ConfigError(
                f"word-vector file {path} line {lineno}: expected {dim} values, found {len(values)}"
            )
        try:
            row = np.asarray([float(v) for v in values], dtype=np.float64)
        except ValueError:
            raise ConfigError(
                f"word-vector file {path} line {lineno}: a value is not a number"
            ) from None
        with np.errstate(over="ignore"):   # a float64 beyond dtype's range becomes inf
            table[word] = row.astype(dtype)
        if not np.isfinite(table[word]).all():
            raise ConfigError(f"word-vector file {path} line {lineno}: a value is not finite "
                              f"in {dtype.name}")
    return table
