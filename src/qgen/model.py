"""Wires the clue predictor, passage encoder and question decoder together
around one parameter store, and handles checkpoint round-trips."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import autodiff as ad
from .autodiff import CheckpointError, ParamStore, Tensor
from .clue_predictor import ClueForward, build_adjacency, run_clue_predictor
from .config import ConfigError, ModelConfig
from .corpus import SOS, ReducedTargetVocab, Vocabulary
from .decoder import DecoderParams, ExtendedDistribution, teacher_forced_unroll
from .encoder import GruCellParams, encode
from .features import (
    Batch,
    FeatureEmbedder,
    FeatureVocab,
    build_feature_tables,
    clue_input_width,
    encoder_input_width,
)

# what `QgModel.save` writes to meta.json besides `ParamStore.save`'s keys
_META_KEYS = ("config", "vocab_words", "reduced_words", "feature_vocab")


def _check_meta(path, meta: dict) -> None:
    """Raise a CheckpointError that names `path` and the key unless `meta`
    holds what `QgModel.save` writes."""
    missing = [k for k in _META_KEYS if k not in meta]
    if missing:
        raise CheckpointError(f"{path} has a meta.json without {missing}")
    for key in ("config", "feature_vocab"):
        if not isinstance(meta[key], dict):
            raise CheckpointError(f"{path} has a meta.json whose {key!r} is not a JSON object")
    tags = meta["feature_vocab"]
    for key, words in [("vocab_words", meta["vocab_words"]), ("reduced_words", meta["reduced_words"]),
                       *((f"feature_vocab.{k}", tags.get(k)) for k in ("pos", "ner", "dep"))]:
        if not isinstance(words, list) or not all(isinstance(w, str) for w in words):
            raise CheckpointError(f"{path} has a meta.json whose {key!r} is not a JSON array "
                                  "of strings")


@dataclass
class ModelForward:
    clue: ClueForward               # every passage's tokens as rows, example after example
    decoder: ExtendedDistribution   # every example's steps as rows, example after example


class VocabSurfaces:
    """The strings the generation head can emit, the reduced vocabulary
    without <SOS>: sorted and unique, with their decoder word rows.  This is
    the half of every beam's surface table that no passage changes."""

    def __init__(self, reduced: ReducedTargetVocab, embedder: FeatureEmbedder):
        vocab = [reduced.token_of(i) for i in range(len(reduced))]
        self.gen_ids = np.array([i for i, token in enumerate(vocab) if token != SOS])
        self.tokens = sorted({vocab[i] for i in self.gen_ids})
        self.sorted = np.array(self.tokens, dtype=object)   # searched with Python's str order
        self.column = {token: j for j, token in enumerate(self.tokens)}
        self.gen_columns = np.array([self.column[vocab[i]] for i in self.gen_ids])
        self.word_rows = np.array([embedder.decoder_word_row_id(t) for t in self.tokens])


class QgModel:
    """The full question generation model over one parameter store."""

    def __init__(self, config: ModelConfig, vocab: Vocabulary, reduced: ReducedTargetVocab,
                 feature_vocab: FeatureVocab, params: ParamStore,
                 gcn: list[tuple[Tensor, Tensor]], enc_fwd: GruCellParams,
                 enc_bwd: GruCellParams, dec: DecoderParams):
        self.config = config
        self.vocab = vocab
        self.reduced = reduced
        self.features = feature_vocab
        self.params = params
        self.embedder = FeatureEmbedder(params, config, vocab, feature_vocab)
        self.gcn = gcn            # (w, b) of each GCN layer
        self.enc_fwd = enc_fwd
        self.enc_bwd = enc_bwd
        self.dec = dec

    @classmethod
    def build(cls, config: ModelConfig, vocab: Vocabulary, reduced: ReducedTargetVocab,
              feature_vocab: FeatureVocab, rng: np.random.Generator | None,
              vectors_file=None) -> "QgModel":
        """Every initial weight is drawn from `rng`; with None, it is zero."""
        params = ParamStore(config.precision, rng)
        build_feature_tables(params, config, vocab, feature_vocab, vectors_file)

        gcn_in = clue_input_width(config)
        gcn = []
        for layer in range(config.gcn_layers):
            d_in = gcn_in if layer == 0 else config.gcn_hidden
            w = params.draw(f"clue.gcn{layer}.w", (config.gcn_hidden, d_in), 0.08)
            gcn.append((w, params.add(f"clue.gcn{layer}.b", np.zeros(config.gcn_hidden))))
        params.draw("clue.out.w", (2, config.gcn_hidden), 0.08)
        params.add("clue.out.b", np.zeros(2))

        enc_in = encoder_input_width(config)
        enc_fwd = GruCellParams.create(params, "enc.fwd", enc_in, config.enc_hidden)
        enc_bwd = GruCellParams.create(params, "enc.bwd", enc_in, config.enc_hidden)

        dec = DecoderParams.create(
            params,
            word_dim=config.word_dim,
            enc_width=2 * config.enc_hidden,
            dec_hidden=config.dec_hidden,
            attn_dim=config.attn_dim,
            vocab_out=len(reduced),
        )
        return cls(config, vocab, reduced, feature_vocab, params, gcn, enc_fwd, enc_bwd, dec)

    @cached_property
    def vocab_surfaces(self) -> VocabSurfaces:
        """Built on first use, once per model: its vocabularies never change."""
        return VocabSurfaces(self.reduced, self.embedder)

    def predict_clues(self, batch: Batch, rng: np.random.Generator | None,
                      mode: str = "eval") -> ClueForward:
        """Clue probabilities plus indicators for the N tokens of `batch`,
        passage after passage, from one embedding and one GCN pass; stochastic
        only in train/soft mode.  The (N, 2) Gumbel draw reads the generator
        as per-passage draws in batch order would.  The encoder reuses the
        returned features with the clue slot appended."""
        return run_clue_predictor(self.embedder.embed_passage(batch), build_adjacency(batch),
                                  self.gcn, self.params["clue.out.w"], self.params["clue.out.b"],
                                  self.config.tau, rng, mode)

    def forward(
        self,
        batch: Batch,
        mode: str = "eval",
        gumbel_rng: np.random.Generator | None = None,
        dropout_rng: np.random.Generator | None = None,
    ) -> ModelForward:
        """Clue prediction, the encoder and the teacher-forced decoder unroll,
        each once over the whole batch.  Mode 'train' samples the clues and
        applies dropout, 'soft' does so with the relaxed clue sample, and
        'eval' neither (`run_clue_predictor`).  The Gumbel and dropout
        streams are read as a one-example-at-a-time pass reads them."""
        dropout = mode in ("train", "soft") and self.config.dropout > 0
        if dropout and dropout_rng is None:
            raise ConfigError(f"a forward in mode {mode!r} with dropout draws multipliers: "
                              f"pass dropout_rng")
        clue = self.predict_clues(batch, gumbel_rng, mode=mode)
        enc_input = self.embedder.append_clue_slot(clue.features, clue.weights)
        keep = self.dropout_keeps(batch, enc_input.shape[1], dropout_rng) if dropout else [None] * 3
        enc_out = encode(enc_input, batch.lengths, self.enc_fwd, self.enc_bwd, keep[0], keep[1])
        decoder = teacher_forced_unroll(batch, self.params["embed.word"], enc_out, self.dec,
                                        keep[2])
        return ModelForward(clue=clue, decoder=decoder)

    def dropout_keeps(self, batch: Batch, input_width: int,
                      rng: np.random.Generator) -> list[np.ndarray]:
        """Dropout multipliers for the encoder input, the encoder states and
        the decoder's maxout, each stacked example after example.  Each
        example draws its three in that order before the next example
        draws."""
        cfg = self.config
        draws = [[ad.dropout_keep(rng, shape, cfg.dropout, self.params.dtype) for shape in (
                    (n, input_width), (n, 2 * cfg.enc_hidden), (steps, cfg.dec_hidden))]
                 for n, steps in zip(batch.lengths.tolist(), batch.steps.tolist())]
        return [np.concatenate(part) for part in zip(*draws)]

    # persistence
    def save(self, path, data: np.ndarray | None = None) -> None:
        """Write the parameters, or `data` laid out like `params.data` in
        their place, with the vocabularies and config that `load` needs."""
        self.params.save(path, {"config": self.config.to_dict(), "vocab_words": self.vocab.words,
                                "reduced_words": self.reduced.words,
                                "feature_vocab": self.features.to_dict()}, data)

    @classmethod
    def load(cls, path) -> "QgModel":
        """Built without drawing, around the checkpoint's data."""
        with ParamStore.read(path) as (meta, fill):
            _check_meta(path, meta)
            config = ModelConfig.from_dict(meta["config"])
            vocab = Vocabulary(words=list(meta["vocab_words"]))
            reduced = ReducedTargetVocab(words=list(meta["reduced_words"]))
            feature_vocab = FeatureVocab.from_dict(meta["feature_vocab"])
            model = cls.build(config, vocab, reduced, feature_vocab, None)
            fill(model.params)
        return model
