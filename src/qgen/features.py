"""Per-token input vectors: word embeddings plus feature-tag embeddings.

Slot order is fixed: [word | NER | POS | DEP | is_lower | is_digit |
like_num | answer-BIO | frequency-tier | clue-indicator].  The clue
predictor reads the first nine slots; the encoder reads the same matrix with
the clue slot appended from the predictor's output.  Low-frequency (tier L)
words use a shared <l> row in place of their word embedding; every other
slot stays token-specific.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import autodiff as ad
from .autodiff import ParamStore, Tensor
from .config import ModelConfig
from .corpus import (
    LOWFREQ,
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
from .labeling import BIO_BEGIN, BIO_INSIDE, BIO_OUTSIDE, tag_answer_bio

_BOOL_FEATURES = ("is_lower", "is_digit", "like_num")
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


class FeatureEmbedder:
    """Assembles concatenated per-token representations from the tables."""

    def __init__(self, params: ParamStore, config: ModelConfig, vocab: Vocabulary,
                 feature_vocab: FeatureVocab):
        self.params = params
        self.config = config
        self.vocab = vocab
        self.features = feature_vocab

    def word_row_id(self, token: str) -> int:
        """Encoder-side word row with low-frequency masking.

        Tier-L words (including OOV) collapse onto the shared <l> row.
        """
        tier = tier_of(token, self.vocab, self.config.r_h, self.config.r_l)
        if tier == TIER_LOW:
            return SPECIAL_TOKENS.index(LOWFREQ)
        return self.vocab.id_of(token)

    def decoder_word_row_id(self, token: str) -> int:
        """Decoder-input word row: <l> for in-vocabulary tier-L words, the
        token's own row otherwise, <UNK> when out of vocabulary."""
        if normalize(token) not in self.vocab:
            return SPECIAL_TOKENS.index(UNK)
        return self.word_row_id(token)

    def embed_passage(self, examples: list[AnnotatedExample]) -> Tensor:
        """(N, clue_input_width) matrix of the shared slots for every token
        of `examples`, passage after passage, one gather per table: the clue
        predictor's input, and the encoder's once `append_clue_slot` adds
        the clue indicator."""
        tokens = [t for ex in examples for t in ex.passage]
        tiers = [
            _TIER_INDEX[tier_of(t.text, self.vocab, self.config.r_h, self.config.r_l)]
            for t in tokens
        ]
        bio = [_BIO_INDEX[b] for ex in examples for b in tag_answer_bio(ex)]
        slots = [
            ad.gather_rows(self.params["embed.word"], [self.word_row_id(t.text) for t in tokens]),
            ad.gather_rows(self.params["embed.ner"], [self.features.index("ner", t.ner) for t in tokens]),
            ad.gather_rows(self.params["embed.pos"], [self.features.index("pos", t.pos) for t in tokens]),
            ad.gather_rows(self.params["embed.dep"], [self.features.index("dep", t.dep) for t in tokens]),
            ad.gather_rows(self.params["embed.is_lower"], [int(t.is_lower) for t in tokens]),
            ad.gather_rows(self.params["embed.is_digit"], [int(t.is_digit) for t in tokens]),
            ad.gather_rows(self.params["embed.like_num"], [int(t.like_num) for t in tokens]),
            ad.gather_rows(self.params["embed.bio"], bio),
            ad.gather_rows(self.params["embed.tier"], tiers),
        ]
        return ad.concat(slots, axis=1)

    def append_clue_slot(self, features: Tensor, clue_weights: Tensor) -> Tensor:
        """The encoder input: `features` from `embed_passage` with the clue-
        indicator embedding rows, mixed by (possibly relaxed) weights, last.

        `clue_weights` is an (N, 2) tensor of [not-clue, clue] weights.
        Keeping the mix a matmul lets straight-through gradients reach the
        clue predictor.
        """
        return ad.concat([features, ad.matmul(clue_weights, self.params["embed.clue"])], axis=1)
