"""Per-token input vectors: word embeddings plus feature-tag embeddings.

Slot order is fixed: [word | NER | POS | DEP | is_lower | is_digit |
like_num | answer-BIO | frequency-tier | clue-indicator].  The clue
predictor reads the first nine slots; the encoder reads the same matrix with
the clue slot appended from the predictor's output.  Low-frequency (tier L)
words use a shared <l> row in place of their word embedding; every other
slot stays token-specific.  `FeatureEmbedder.collate` maps a batch's tokens
to the int arrays of a `Batch` once, and every layer reads those.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore, Tensor
from .config import ModelConfig
from .corpus import (
    LOWFREQ,
    SOS,
    SPECIAL_TOKENS,
    TIER_HIGH,
    TIER_LOW,
    TIER_MEDIUM,
    UNK,
    AnnotatedExample,
    Vocabulary,
    load_word_vectors,
    normalize,
    tier_of,
)
from .labeling import BIO_BEGIN, BIO_INSIDE, BIO_OUTSIDE, LabeledExample, tag_answer_bio

_BOOL_FEATURES = ("is_lower", "is_digit", "like_num")
# the tables `embed_passage` reads, in slot order: the columns of `Batch.ids`
_SLOTS = ("word", "ner", "pos", "dep", *_BOOL_FEATURES, "bio", "tier")
_BIO_INDEX = {BIO_OUTSIDE: 0, BIO_BEGIN: 1, BIO_INSIDE: 2}
_TIER_INDEX = {TIER_HIGH: 0, TIER_MEDIUM: 1, TIER_LOW: 2}


@dataclass
class FeatureVocab:
    """Closed tag inventories for the categorical feature slots.

    Tags unseen at build time map to a reserved <unk-tag> row at lookup,
    never to an error.
    """

    pos: list[str]
    ner: list[str]
    dep: list[str]
    _index: dict = field(init=False, repr=False)

    def __post_init__(self):
        self._index = {
            "pos": {t: i for i, t in enumerate(self.pos)},
            "ner": {t: i for i, t in enumerate(self.ner)},
            "dep": {t: i for i, t in enumerate(self.dep)},
        }

    @classmethod
    def from_corpus(cls, corpus: list[AnnotatedExample]) -> "FeatureVocab":
        pos, ner, dep = set(), set(), set()
        for ex in corpus:
            for tok in ex.passage:
                pos.add(tok.pos)
                ner.add(tok.ner)
                dep.add(tok.dep)
        return cls(pos=sorted(pos), ner=sorted(ner), dep=sorted(dep))

    def rows(self, kind: str) -> int:
        return len(self._index[kind]) + 1  # final row is <unk-tag>

    def index(self, kind: str, tag: str) -> int:
        table = self._index[kind]
        return table.get(tag, len(table))

    def to_dict(self) -> dict:
        return {"pos": self.pos, "ner": self.ner, "dep": self.dep}

    @classmethod
    def from_dict(cls, d: dict) -> "FeatureVocab":
        return cls(pos=list(d["pos"]), ner=list(d["ner"]), dep=list(d["dep"]))


def encoder_input_width(config: ModelConfig) -> int:
    return config.word_dim + 7 * config.feat_dim + config.tier_dim + config.feat_dim


def clue_input_width(config: ModelConfig) -> int:
    return config.word_dim + 7 * config.feat_dim + config.tier_dim


def build_feature_tables(
    params: ParamStore,
    config: ModelConfig,
    vocab: Vocabulary,
    feature_vocab: FeatureVocab,
    vectors_file=None,
) -> None:
    """Register every embedding table in the parameter store, drawn from
    uniform(-0.1, 0.1).  Rows 0..4 of the word table are the special tokens,
    then words by rank; a word in `vectors_file` takes its pre-trained row."""
    word = params.draw("embed.word", (vocab.table_size, config.word_dim), 0.1)
    if vectors_file is not None:
        vectors = load_word_vectors(vectors_file, config.word_dim, word.data.dtype)
        for w in vocab.words:
            if w in vectors:
                word.data[vocab.id_of(w)] = vectors[w]
    params.draw("embed.ner", (feature_vocab.rows("ner"), config.feat_dim), 0.1)
    params.draw("embed.pos", (feature_vocab.rows("pos"), config.feat_dim), 0.1)
    params.draw("embed.dep", (feature_vocab.rows("dep"), config.feat_dim), 0.1)
    for name in _BOOL_FEATURES:
        params.draw(f"embed.{name}", (2, config.feat_dim), 0.1)
    params.draw("embed.bio", (3, config.feat_dim), 0.1)
    params.draw("embed.tier", (3, config.tier_dim), 0.1)
    params.draw("embed.clue", (2, config.feat_dim), 0.1)


@dataclass
class Batch:
    """B examples as int arrays, passage after passage and question after
    question: N passage tokens, S decoder steps (each question and <EOS>)."""

    ids: np.ndarray         # (N, 9) each token's row in each table of `_SLOTS`
    lengths: np.ndarray     # (B,) passage lengths
    heads: np.ndarray       # (N,) each token's tree head, a row of the batch
    word_rows: np.ndarray   # (S,) decoder input word rows: <SOS>, then the question
    steps: np.ndarray       # (B,) decoder steps, len(question) + 1
    # labeled examples only
    targets: np.ndarray | None = None   # (S,) reduced-vocabulary ids, <EOS> last
    copied: np.ndarray | None = None    # (S,) bool copy labels, False at <EOS>
    aligned: tuple[np.ndarray, np.ndarray] | None = None   # (step rows, passage positions)
    clue: np.ndarray | None = None      # (N,) gold clue labels, 0 or 1


class FeatureEmbedder:
    """Assembles concatenated per-token representations from the tables."""

    def __init__(self, params: ParamStore, config: ModelConfig, vocab: Vocabulary,
                 feature_vocab: FeatureVocab):
        self.params = params
        self.config = config
        self.vocab = vocab
        self.features = feature_vocab

    def word_and_tier_rows(self, token: str) -> tuple[int, int]:
        """Encoder-side word row with low-frequency masking, and the
        frequency tier's row.  Tier-L words (OOV included) share the <l> row."""
        tier = tier_of(token, self.vocab, self.config.r_h, self.config.r_l)
        row = SPECIAL_TOKENS.index(LOWFREQ) if tier == TIER_LOW else self.vocab.id_of(token)
        return row, _TIER_INDEX[tier]

    def decoder_word_row_id(self, token: str) -> int:
        """Decoder-input word row: <l> for in-vocabulary tier-L words, the
        token's own row otherwise, <UNK> when out of vocabulary."""
        if normalize(token) not in self.vocab:
            return SPECIAL_TOKENS.index(UNK)
        return self.word_and_tier_rows(token)[0]

    def collate(self, examples: list[AnnotatedExample] | list[LabeledExample]) -> Batch:
        """The `Batch` of `examples`, with the labeled fields when every
        example is a `LabeledExample`."""
        labeled = bool(examples) and all(isinstance(ex, LabeledExample) for ex in examples)
        bases = [ex.base for ex in examples] if labeled else examples
        index, rows = self.features.index, []
        for ex in bases:
            for tok, bio in zip(ex.passage, tag_answer_bio(ex)):
                word, tier = self.word_and_tier_rows(tok.text)
                rows.append((word, index("ner", tok.ner), index("pos", tok.pos),
                             index("dep", tok.dep), tok.is_lower, tok.is_digit, tok.like_num,
                             _BIO_INDEX[bio], tier, tok.head))
        rows = np.array(rows, dtype=np.int64).reshape(-1, len(_SLOTS) + 1)
        lengths = np.array([len(ex.passage) for ex in bases], dtype=np.int64)
        steps = np.array([len(ex.question) + 1 for ex in bases], dtype=np.int64)
        word_rows = [row for ex in bases for row in
                     [SPECIAL_TOKENS.index(SOS), *map(self.decoder_word_row_id, ex.question)]]
        batch = Batch(ids=rows[:, :-1], lengths=lengths, word_rows=np.array(word_rows), steps=steps,
                      heads=rows[:, -1] + np.repeat(np.cumsum(lengths) - lengths, lengths))
        if labeled:
            pairs = [(row + t, i) for ex, row in zip(examples, np.cumsum(steps) - steps)
                     for t, aligned in enumerate(ex.copy_alignment) for i in aligned]
            batch.aligned = tuple(np.array(pairs, dtype=np.int64).reshape(-1, 2).T)
            batch.targets = np.concatenate([ex.question_target_id for ex in examples])
            batch.copied = np.concatenate([[*ex.question_copy_label, False] for ex in examples])
            batch.clue = np.concatenate([ex.passage_clue_label for ex in examples]).astype(int)
        return batch

    def embed_passage(self, batch: Batch) -> Tensor:
        """(N, clue_input_width) matrix of the shared slots for every token
        of `batch`, one `ad.embed` node over the tables: the clue
        predictor's input, and the encoder's once `append_clue_slot` adds
        the clue indicator."""
        return ad.embed([self.params[f"embed.{name}"] for name in _SLOTS], batch.ids)

    def append_clue_slot(self, features: Tensor, clue_weights: Tensor) -> Tensor:
        """The encoder input: `features` from `embed_passage` with the clue-
        indicator embedding rows, mixed by (possibly relaxed) weights, last.

        `clue_weights` is an (N, 2) tensor of [not-clue, clue] weights.
        Keeping the mix a matmul lets straight-through gradients reach the
        clue predictor.
        """
        return ad.concat([features, ad.matmul(clue_weights, self.params["embed.clue"])], axis=1)
