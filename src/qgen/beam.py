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
from .decoder import ExtendedDistribution, decode_step, init_decoder, passage_memory
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
    the model's `vocab_surfaces` per passage."""

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

    def merge(self, dist: ExtendedDistribution) -> np.ndarray:
        """(K, surfaces) emission probabilities, one row per hypothesis.  Each
        sum takes the generation term first, then copy terms in passage order."""
        gate = dist.gate.data.astype(np.float64)[:, None]
        terms = np.concatenate([(1.0 - gate) * dist.gen.data[:, self.gen_ids],
                                gate * dist.copy.data], axis=1)
        k, width = len(terms), len(self.tokens)
        bins = (np.arange(k)[:, None] * width + self.columns).ravel()
        return np.bincount(bins, terms.ravel(), minlength=k * width).reshape(k, width)


def top_k(probs: np.ndarray, k: int) -> np.ndarray:
    """Column indices of each row's k largest entries, largest first and
    equal values in column order: `np.argsort(-probs, axis=1,
    kind="stable")[:, :k]` without sorting whole rows.

    A partition finds each row's k-th largest value; only the entries at
    least that large, ties at the boundary included, are sorted.  With k at
    least the row width that value is the row's minimum, and the whole row
    is sorted.
    """
    k = min(k, probs.shape[1])
    kth = -np.partition(-probs, k - 1, axis=1)[:, k - 1:k]
    rows, cols = np.nonzero(probs >= kth)
    order = np.lexsort((cols, -probs[rows, cols], rows))   # by row, then as argsort
    counts = np.bincount(rows, minlength=len(probs))
    return cols[order][(np.cumsum(counts) - counts)[:, None] + np.arange(k)]


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
        w_prev = ad.gather_rows(words, [SPECIAL_TOKENS.index(SOS)])
        live = [BeamHypothesis(tokens=[], log_prob=0.0, finished=False)]
        done: list[BeamHypothesis] = []

        while live and len(live[0].tokens) < max_len:   # live hypotheses share one length
            s_t, dist = decode_step(w_prev, alpha, s, memory, p)
            probs = table.merge(dist)
            proposals = top_k(probs, beam_width)
            log_probs = (np.array([h.log_prob for h in live])[:, None] + np.log(
                np.maximum(np.take_along_axis(probs, proposals, axis=1), PROB_FLOOR))).ravel()
            scores = log_probs / (len(live[0].tokens) + 1)
            best = np.argsort(-scores, kind="stable")[:beam_width]
            rows, cols = best // proposals.shape[1], proposals.ravel()[best]
            hyps = [BeamHypothesis(live[r].tokens + [table.tokens[j]], float(lp), bool(j == table.eos))
                    for r, j, lp in zip(rows, cols, log_probs[best])]
            done += [h for h in hyps if h.finished]
            live = [h for h in hyps if not h.finished]
            going = cols != table.eos
            s, alpha = ad.gather_rows(s_t, rows[going]), ad.gather_rows(dist.copy, rows[going])
            w_prev = ad.gather_rows(words, table.word_rows[cols[going]])

        return sorted(done + live, key=lambda h: -h.score)
