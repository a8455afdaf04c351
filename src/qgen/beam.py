"""Beam-search question generation over the extended output distribution.

At every step the generation and copy paths are merged per surface token
(probabilities of identical strings summed) before pruning; hypotheses are
ranked by length-normalized log-probability and finish on <EOS>.  One decoder
step advances every live hypothesis; their states and attention weights are
stacked as rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .clue_predictor import ClueForward
from .config import check_positive_int
from .corpus import EOS, SOS, SPECIAL_TOKENS, AnnotatedExample
from .decoder import (
    PROB_FLOOR,
    DecoderParams,
    ExtendedDistribution,
    decode_step,
    init_decoder,
    passage_memory,
    word_terms,
)
from .encoder import encode
from .model import QgModel


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
    Only the passage words outside the vocabulary's strings are inserted into
    the model's `vocab_surfaces` per passage.

    Each column sums its sources, the generation terms first and then the
    copy terms in passage order, as `np.bincount` over every source adds
    them.  Most columns have one source, a generation term; their
    probability is that term, the bytes bincount's 0.0 plus it gives, as no
    term is -0.0.  The few others, each passage word's column and any column
    that two generation terms share, are the `merged` columns; `slot` is
    each of their sources' index among them, in source order, so one
    `np.bincount` over (row, slot) bins sums them."""

    def __init__(self, model: QgModel, passage_texts: list[str]):
        vocab = model.vocab_surfaces
        new = sorted(set(passage_texts).difference(vocab.column))
        at = np.searchsorted(vocab.sorted, np.array(new, dtype=object))
        width = len(vocab.tokens)
        moved = np.arange(width) + np.searchsorted(at, np.arange(width), side="right")
        new_columns = at + np.arange(len(new))
        tokens = np.empty(width + len(new), dtype=object)
        tokens[moved], tokens[new_columns] = vocab.sorted, new
        self.tokens = tokens.tolist()
        column = dict(zip(new, new_columns.tolist()))
        self.gen_ids = vocab.gen_ids
        self.columns = np.concatenate([moved[vocab.gen_columns], np.array(
            [column[t] if t in column else moved[vocab.column[t]] for t in passage_texts],
            dtype=np.int64)])
        self.eos = int(moved[vocab.column[EOS]])
        self.word_rows = np.empty(len(self.tokens), dtype=np.int64)
        self.word_rows[moved] = vocab.word_rows
        self.word_rows[new_columns] = [model.embedder.decoder_word_row_id(t) for t in new]

        gen_columns = self.columns[:len(self.gen_ids)]
        single = np.bincount(self.columns, minlength=len(self.tokens))[gen_columns] == 1
        # each generation id's column where it is the column's one source, else -1
        self.single_column = np.full(len(model.reduced), -1)
        self.single_column[self.gen_ids[single]] = gen_columns[single]
        self.merged_ids = self.gen_ids[~single]
        self.merged, self.slot = np.unique(np.concatenate(
            [gen_columns[~single], self.columns[len(self.gen_ids):]]), return_inverse=True)

    def select(self, dist: ExtendedDistribution, log_probs: np.ndarray, length: int,
               k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The k best one-surface extensions of the hypotheses whose
        log-probabilities are `log_probs`, as (rows, columns, float64
        log-probabilities), best first.  They rank by score, the
        log-probability over `length`, descending, then by row, then by
        probability descending, then by column.

        That is each row's k likeliest columns, equal ones in column order,
        then the k best of those proposals by a stable sort of their scores:
        the score rises with the probability, so a column outside its row's
        k likeliest has k row-mates ranked ahead of it.

        Every merged column is scored, and so is each row's likeliest
        generation term where that is a single column.  These are real
        extensions, so the k-th best of their scores, theta, bounds the k-th
        best score of all from below, and gives each row the generation term
        that a single column needs to score theta.  Only the terms at that
        bound or above are scored, so the (rows, surfaces) table is never
        formed.  The bound is lowered by a relative margin of 1e-6 in log
        space, far wider than the rounding of the float64 arithmetic and of
        its cast to the distribution's dtype.  With fewer than k extensions
        scored first, theta is -inf and every column is scored."""
        gate = dist.gate.data.astype(np.float64)
        keep, gen = 1.0 - gate, dist.gen.data
        k_rows, m, width = len(gate), len(self.merged_ids), len(self.merged)
        terms = np.empty((k_rows, m + dist.copy.shape[1]))
        np.multiply(keep[:, None], gen.take(self.merged_ids, axis=1), out=terms[:, :m])
        np.multiply(gate[:, None], dist.copy.data, out=terms[:, m:])
        # the merged columns, then each row's likeliest generation term
        bins = np.arange(k_rows)[:, None] * (width + 1) + self.slot
        probs = np.bincount(bins.ravel(), terms.ravel(),
                            minlength=k_rows * (width + 1)).reshape(k_rows, width + 1)
        likeliest = gen.argmax(axis=1)
        np.multiply(keep, gen.max(axis=1), out=probs[:, width])
        lp = log_probs[:, None] + np.log(np.maximum(probs, PROB_FLOOR))
        scores = lp / length
        # a likeliest term that a column shares is no extension of its own
        scores[self.single_column[likeliest] < 0, width] = -np.inf
        known = scores.ravel()
        theta = np.partition(known, known.size - k)[known.size - k] if known.size >= k else -np.inf

        # the log-probability that scores theta in each row, less the margin,
        # and the generation term that reaches it; every term passes where
        # the floor alone reaches it
        need = theta * length - log_probs
        need -= 1e-6 * (1.0 + abs(theta) * length + np.abs(log_probs))
        tau = np.where(need > np.log(PROB_FLOOR),
                       np.exp(np.minimum(need, 0.0)) / np.maximum(keep, 1e-300), -np.inf)
        # no term exceeds 1, so a bound past 2 passes none either way, and casts finite
        flat = np.flatnonzero(gen >= np.minimum(tau, 2.0).astype(gen.dtype)[:, None])
        single_rows, ids = np.divmod(flat, gen.shape[1])
        fit = self.single_column[ids] >= 0
        single_rows, ids = single_rows[fit], ids[fit]
        single_p = keep[single_rows] * gen[single_rows, ids]
        single_lp = log_probs[single_rows] + np.log(np.maximum(single_p, PROB_FLOOR))

        merged_rows, slots = np.divmod(np.flatnonzero(scores[:, :width] >= theta), width)
        fit = single_lp / length >= theta
        rows = np.concatenate([merged_rows, single_rows[fit]])
        cols = np.concatenate([self.merged[slots], self.single_column[ids[fit]]])
        probs = np.concatenate([probs[merged_rows, slots], single_p[fit]])
        lp = np.concatenate([lp[merged_rows, slots], single_lp[fit]])
        best = np.lexsort((cols, -probs, rows, -(lp / length)))[:k]
        return rows[best], cols[best], lp[best]


class WordTermCache:
    """`decoder.word_terms` of the words one `generate` call feeds its
    decoder, in tables indexed by the table's distinct word rows: a step
    multiplies only the rows it has not seen.  The weights may change
    between calls, so a cache lives for one call.

    A row's bytes must be those of the K-row product it replaces.  numpy
    issues a one-row product as a matrix-vector product, which rounds
    differently, so new rows are multiplied two or more at a time, a lone
    one next to a copy of itself, and a step of one hypothesis takes its
    one-row product as it is, uncached."""

    def __init__(self, table: SurfaceTable, words: ad.Tensor, p: DecoderParams):
        self.words, self.p = words, p
        # the distinct word rows of the table's surfaces, and each column's index among them
        self.rows, self.row_of = np.unique(table.word_rows, return_inverse=True)
        self.seen = np.zeros(len(self.rows), dtype=bool)
        self.gates = np.empty((len(self.rows), p.gru.w_x.shape[0]), words.data.dtype)
        self.readout = np.empty((len(self.rows), p.w_rw.shape[0]), words.data.dtype)

    def __call__(self, columns: np.ndarray) -> tuple[ad.Tensor, ad.Tensor]:
        """The word terms of the surfaces `columns`, one row each."""
        rows = self.row_of[columns]
        if len(rows) == 1:
            return word_terms(ad.gather_rows(self.words, self.rows[rows]), self.p)
        new = np.unique(rows[~self.seen[rows]])
        if len(new):
            twice = np.repeat(new, 2) if len(new) == 1 else new
            gates, readout = word_terms(ad.gather_rows(self.words, self.rows[twice]), self.p)
            self.gates[new], self.readout[new] = gates.data[:len(new)], readout.data[:len(new)]
            self.seen[new] = True
        return ad.Tensor(self.gates[rows]), ad.Tensor(self.readout[rows])


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
            clue = model.predict_clues(model.embedder.collate([example]), rng=None, mode="eval")
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
            rows, cols, log_probs = table.select(dist, live_log_probs, live.shape[1] + 1,
                                                 beam_width)
            hyps = np.concatenate([live[rows], cols[:, None]], axis=1)
            going = cols != table.eos
            done += zip(hyps[~going], log_probs[~going])
            live, live_log_probs = hyps[going], log_probs[going]
            s, alpha = ad.gather_rows(s_t, rows[going]), ad.gather_rows(dist.copy, rows[going])

        ranked = [BeamHypothesis([table.tokens[j] for j in columns], float(lp), finished)
                  for group, finished in ((done, True), (zip(live, live_log_probs), False))
                  for columns, lp in group]
        return sorted(ranked, key=lambda h: -h.score)
