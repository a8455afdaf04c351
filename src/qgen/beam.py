"""Beam-search question generation over the extended output distribution.

At every step the generation and copy paths are merged per surface token
(probabilities of identical strings summed) before pruning; hypotheses are
ranked by length-normalized log-probability and finish on <EOS>.  One decoder
step advances every live hypothesis; their states and attention weights are
stacked as rows.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .clue_predictor import ClueForward
from .config import check_positive_int
from .corpus import EOS, SOS, SPECIAL_TOKENS, AnnotatedExample
from .decoder import (
    DecoderParams,
    ExtendedDistribution,
    decode_step,
    init_decoder,
    passage_memory,
    word_terms,
)
from .encoder import encode
from .model import QgModel
from .training import PROB_FLOOR


@dataclass
class BeamHypothesis:
    tokens: list[str]      # emitted surface tokens; <EOS> terminates
    log_prob: float
    finished: bool

    @property
    def score(self) -> float:
        """Length-normalized ranking score."""
        return self.log_prob / max(len(self.tokens), 1)

    def surface(self) -> list[str]:
        return [t for t in self.tokens if t != EOS]


class SurfaceTable:
    """The strings one decoder step can emit for a passage: the reduced
    vocabulary without <SOS>, and the passage words.  Columns are in string
    order, so a stable sort by descending probability breaks ties by string.
    Only the passage words outside the vocabulary's strings are merged into
    the model's `vocab_surfaces` per passage.

    Each column sums its sources, the generation terms first and then the
    copy terms in passage order.  Round r of the sources holds each
    column's r-th source, so no round names a column twice: round 0 names
    every column once, and `merge` gathers it, then adds each later round.
    The passage's copy terms and then the generation head's terms are the
    columns of one buffer; `first` is the buffer column of each table
    column's round-0 source, and `later` the (buffer columns, table
    columns) of each later round."""

    def __init__(self, model: QgModel, passage_texts: list[str]):
        vocab = model.vocab_surfaces
        new = sorted(set(passage_texts).difference(vocab.column))
        self.tokens = list(heapq.merge(vocab.tokens, new))
        fresh = set(new)
        is_new = np.array([t in fresh for t in self.tokens], dtype=bool)
        moved, new_columns = np.flatnonzero(~is_new), np.flatnonzero(is_new)
        column = dict(zip(new, new_columns.tolist()))
        self.gen_ids = vocab.gen_ids
        self.columns = np.concatenate([moved[vocab.gen_columns], np.array(
            [column[t] if t in column else moved[vocab.column[t]] for t in passage_texts],
            dtype=np.int64)])
        self.eos = int(moved[vocab.column[EOS]])
        self.word_rows = np.empty(len(self.tokens), dtype=np.int64)
        self.word_rows[moved] = vocab.word_rows
        self.word_rows[new_columns] = [model.embedder.decoder_word_row_id(t) for t in new]

        n = len(passage_texts)
        sources = np.concatenate([n + self.gen_ids, np.arange(n)])   # in source order
        # each source's rank among the sources of its column, in source order
        order = np.argsort(self.columns, kind="stable")
        ranked = self.columns[order]
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order)) - np.searchsorted(ranked, ranked)
        self.first = np.empty(len(self.tokens), dtype=np.int64)
        self.first[self.columns[rank == 0]] = sources[rank == 0]
        self.later = [(sources[rank == r], self.columns[rank == r])
                      for r in range(1, rank.max() + 1)]

    def merge(self, dist: ExtendedDistribution) -> np.ndarray:
        """(K, surfaces) float64 emission probabilities, one row per
        hypothesis: the additions of `np.bincount` over every source, in its
        order.  Round 0 takes each column's first term where bincount adds
        it to 0.0, which gives the same bytes, as no term is -0.0."""
        gate = dist.gate.data.astype(np.float64)[:, None]
        n = dist.copy.shape[1]
        terms = np.empty((len(gate), n + dist.gen.shape[1]))
        np.multiply(gate, dist.copy.data, out=terms[:, :n])
        np.multiply(1.0 - gate, dist.gen.data, out=terms[:, n:])
        out = terms.take(self.first, axis=1)
        for sources, columns in self.later:
            out[:, columns] += terms[:, sources]
        return out


def top_k(probs: np.ndarray, k: int) -> np.ndarray:
    """Column indices of each row's k largest entries, largest first and
    equal values in column order: `np.argsort(-probs, axis=1,
    kind="stable")[:, :k]` without sorting whole rows.

    A partition finds each row's k-th largest value; only the entries at
    least that large, ties at the boundary included, are sorted.  With k at
    least the row width that value is the row's minimum, and the whole row
    is sorted.
    """
    width = probs.shape[1]
    k = min(k, width)
    kth = np.partition(probs, width - k, axis=1)[:, width - k:width - k + 1]
    flat = np.flatnonzero(probs >= kth)      # by row, then column
    rows, cols = np.divmod(flat, width)
    order = np.lexsort((-probs.ravel()[flat], rows))   # stable: equal values keep column order
    counts = np.bincount(rows, minlength=len(probs))
    return cols[order][(np.cumsum(counts) - counts)[:, None] + np.arange(k)]


class WordTermCache:
    """`decoder.word_terms` of the words one `generate` call feeds its
    decoder, kept by decoder word row: a step multiplies only the rows it
    has not seen.  The weights may change between calls, so a cache lives
    for one call.

    A row's bytes must be those of the K-row product it replaces.  numpy
    issues a one-row product as a matrix-vector product, which rounds
    differently, so new rows are multiplied two or more at a time, a lone
    one next to a copy of itself, and a step of one hypothesis takes its
    one-row product as it is, uncached."""

    def __init__(self, table: SurfaceTable, words: ad.Tensor, p: DecoderParams):
        self.words, self.p = words, p
        # the distinct word rows of the table's surfaces, and each column's index among them
        self.rows, self.row_of = np.unique(table.word_rows, return_inverse=True)
        self.slot = np.full(len(self.rows), -1)   # each row's place in `gates` and `readout`
        self.gates = np.empty((0, p.gru.w.shape[0]), words.data.dtype)
        self.readout = np.empty((0, p.w_rw.shape[0]), words.data.dtype)

    def __call__(self, columns: np.ndarray) -> tuple[ad.Tensor, ad.Tensor]:
        """The word terms of the surfaces `columns`, one row each."""
        rows = self.row_of[columns]
        if len(rows) == 1:
            return word_terms(ad.gather_rows(self.words, self.rows[rows]), self.p)
        new = np.unique(rows[self.slot[rows] < 0])
        if len(new):
            twice = np.repeat(new, 2) if len(new) == 1 else new
            gates, readout = word_terms(ad.gather_rows(self.words, self.rows[twice]), self.p)
            self.slot[new] = len(self.gates) + np.arange(len(new))
            self.gates = np.concatenate([self.gates, gates.data[:len(new)]])
            self.readout = np.concatenate([self.readout, readout.data[:len(new)]])
        slots = self.slot[rows]
        return ad.Tensor(self.gates[slots]), ad.Tensor(self.readout[slots])


def generate(
    model: QgModel,
    example: AnnotatedExample,
    beam_width: int | None = None,
    max_len: int | None = None,
    *,
    clue: ClueForward | None = None,
) -> list[BeamHypothesis]:
    """Ranked question hypotheses for a passage + answer span.

    Clue indicators come from the deterministic eval-mode predictor; decoding
    stops per hypothesis on <EOS> and globally at max_len.  Every live
    hypothesis proposes its `beam_width` likeliest surfaces, ties in string
    order; the `beam_width` best proposals by score survive, ties in
    hypothesis-then-proposal order.  `clue` is the example's eval-mode clue
    pass when the caller already has it.
    """
    beam_width = beam_width if beam_width is not None else model.config.beam
    max_len = max_len if max_len is not None else model.config.max_len
    check_positive_int("beam_width", beam_width)
    check_positive_int("max_len", max_len)
    table = SurfaceTable(model, [t.text for t in example.passage])
    p = model.dec
    words = model.params["embed.word"]

    with ad.no_grad():
        if clue is None:
            clue = model.predict_clues([example], rng=None, mode="eval")
        enc_features = model.embedder.append_clue_slot(clue.features, clue.weights)
        enc_out = encode(enc_features, [len(example.passage)], model.enc_fwd, model.enc_bwd)
        memory = passage_memory(enc_out.states, p)
        s = init_decoder(enc_out.last_backward, p.w_init, p.b_init)
        alpha = ad.Tensor(np.zeros((1, len(example.passage)), enc_out.states.data.dtype))
        cached = WordTermCache(table, words, p)
        # the live hypotheses' surface columns, one row each, and log-probabilities
        live, live_log_probs = np.zeros((1, 0), dtype=np.int64), np.zeros(1)
        done: list[tuple[np.ndarray, float]] = []

        while len(live) and live.shape[1] < max_len:   # live hypotheses share one length
            terms = (cached(live[:, -1]) if live.shape[1] else
                     word_terms(ad.gather_rows(words, [SPECIAL_TOKENS.index(SOS)]), p))
            s_t, dist = decode_step(*terms, alpha, s, memory, p)
            probs = table.merge(dist)
            proposals = top_k(probs, beam_width)
            log_probs = (live_log_probs[:, None] + np.log(
                np.maximum(np.take_along_axis(probs, proposals, axis=1), PROB_FLOOR))).ravel()
            scores = log_probs / (live.shape[1] + 1)
            best = np.argsort(-scores, kind="stable")[:beam_width]
            rows, cols = best // proposals.shape[1], proposals.ravel()[best]
            hyps, log_probs = np.concatenate([live[rows], cols[:, None]], axis=1), log_probs[best]
            going = cols != table.eos
            done += zip(hyps[~going], log_probs[~going])
            live, live_log_probs = hyps[going], log_probs[going]
            s, alpha = ad.gather_rows(s_t, rows[going]), ad.gather_rows(dist.copy, rows[going])

        ranked = [BeamHypothesis([table.tokens[j] for j in columns], float(lp), finished)
                  for group, finished in ((done, True), (zip(live, live_log_probs), False))
                  for columns, lp in group]
        return sorted(ranked, key=lambda h: -h.score)
