"""GRU decoder with concatenated attention, maxout readout and a copy gate.

Each step yields an extended distribution: a generation distribution over
the reduced target vocabulary and a copy distribution over source positions
(the attention weights), mixed by the copy-gate probability
P(w) = (1 - g_c) * P_gen(w) + g_c * P_copy(w).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore, Tensor
from .encoder import EncoderOutput, GruCellParams, gru_inputs
from .features import Batch


@dataclass
class DecoderParams:
    gru: GruCellParams
    w_init: Tensor   # decoder-state init from the last backward encoder state
    b_init: Tensor
    w_s: Tensor      # attention: score = v . tanh(W_s s_t + W_h h_i)
    w_h: Tensor
    v: Tensor
    w_rw: Tensor     # readout: r = W_rw w_prev + W_rc c + W_rs s
    w_rc: Tensor
    w_rs: Tensor
    w_out: Tensor    # generation softmax over the reduced vocabulary
    w_cs: Tensor     # copy gate: g_c = sigmoid(w_cs . s + w_cc . c + b)
    w_cc: Tensor
    b_gate: Tensor

    @classmethod
    def create(cls, params: ParamStore, word_dim: int, enc_width: int, dec_hidden: int,
               attn_dim: int, vocab_out: int, scale: float = 0.08) -> "DecoderParams":
        def w(name, shape):
            return params.draw(f"dec.{name}", shape, scale)

        def b(name, size):
            return params.add(f"dec.{name}", np.zeros(size))

        readout = 2 * dec_hidden
        return cls(
            gru=GruCellParams.create(params, "dec.gru", word_dim, dec_hidden, scale, enc_width),
            w_init=w("w_init", (dec_hidden, enc_width // 2)),
            b_init=b("b_init", dec_hidden),
            w_s=w("attn.w_s", (attn_dim, dec_hidden)),
            w_h=w("attn.w_h", (attn_dim, enc_width)),
            v=w("attn.v", (attn_dim,)),
            w_rw=w("w_rw", (readout, word_dim)),
            w_rc=w("w_rc", (readout, enc_width)),
            w_rs=w("w_rs", (readout, dec_hidden)),
            w_out=w("w_out", (vocab_out, dec_hidden)),
            w_cs=w("gate.w_cs", (dec_hidden,)),
            w_cc=w("gate.w_cc", (enc_width,)),
            b_gate=b("gate.b", ()),
        )


@dataclass
class ExtendedDistribution:
    """Per-step output distribution over reduced vocab and source positions.

    (1 - gate) * gen and gate * copy together form one normalized
    distribution over emission events.  Rows are steps: of K hypotheses in a
    beam step, or of every step of every example in a teacher-forced batch.
    """

    gen: Tensor    # (rows, |reduced vocab|)
    copy: Tensor   # (rows, |passage|), the attention weights
    gate: Tensor   # (rows,)


def init_decoder(last_backward: Tensor, w_init: Tensor, b_init: Tensor) -> Tensor:
    """s_0 = tanh(W lastback + b)."""
    return ad.tanh(ad.add(ad.linear(last_backward, w_init), b_init))


@dataclass
class PassageMemory:
    """What every decoder step reads of the (B * n, enc_width) encoder
    states H of B passages.  The context c = alpha H feeds only linear maps,
    so c W' = alpha (H W'): each weight on the context is applied to H
    once, and a step multiplies its attention rows by these tables
    (`ad.attention_context`); c itself is never formed."""

    keys: Tensor        # H W_h^T, (B * n, attn)
    gates: Tensor       # H W_c^T, the GRU's context share, (B * n, 3 * dec_hidden)
    readout: Tensor     # H W_rc^T, (B * n, 2 * dec_hidden)
    copy_gate: Tensor   # H w_cc, (B * n,)


def passage_memory(enc_states: Tensor, p: DecoderParams) -> PassageMemory:
    """The context tables of the passages in `enc_states`, once for every step."""
    return PassageMemory(
        keys=ad.linear(enc_states, p.w_h),
        gates=ad.linear(enc_states, p.gru.w_c),
        readout=ad.linear(enc_states, p.w_rc),
        copy_gate=ad.matmul(enc_states, p.w_cc),
    )


def output_head(word_readout: Tensor, s: Tensor, alpha: Tensor, readout_context: Tensor,
                gate_context: Tensor, p: DecoderParams,
                maxout_keep: np.ndarray | None = None) -> ExtendedDistribution:
    """The step outputs from its state and attention, row by row: maxout
    readout, dropout, generation softmax and copy gate.  The input word
    enters as W_rw w_prev (`word_readout`), the context as W_rc c
    (`readout_context`) and w_cc . c (`gate_context`).  No step reads it,
    so a teacher-forced unroll runs it once over all its steps."""
    r_t = ad.add(ad.add(word_readout, readout_context), ad.linear(s, p.w_rs))
    m_t = ad.dropout(ad.maxout(r_t), maxout_keep)
    gen = ad.softmax(ad.linear(m_t, p.w_out))
    gate = ad.sigmoid(ad.add(ad.add(ad.matmul(s, p.w_cs), gate_context), p.b_gate))
    return ExtendedDistribution(gen=gen, copy=alpha, gate=gate)


def word_terms(w_prev: Tensor, p: DecoderParams) -> tuple[Tensor, Tensor]:
    """The two terms of a step that depend on its input word alone, row by
    row: the word's share of the GRU's pre-activations (`gru_inputs`) and
    its readout term W_rw w_prev."""
    return gru_inputs(w_prev, p.gru), ad.linear(w_prev, p.w_rw)


def decode_step(
    word_gates: Tensor,
    word_readout: Tensor,
    alpha0: Tensor,
    s0: Tensor,
    memory: PassageMemory,
    p: DecoderParams,
    rows: np.ndarray | None = None,
    mask: np.ndarray | None = None,
    real: np.ndarray | None = None,
    maxout_keep: np.ndarray | None = None,
) -> tuple[Tensor, ExtendedDistribution]:
    """The decoder's steps over m state rows in lockstep, from `s0` and
    `alpha0` (all zeros at a first step): every step of the (steps, m)
    schedule `rows`, or one step over all of `word_gates` by default, a
    beam step's case.  Rows are member-major, row b * steps + t being
    member b's step t, and the states and distributions returned are those
    of the rows `real`, all of them by default; `maxout_keep` is in their
    order.  A beam step's members are K hypotheses of one passage, a
    training batch's its B examples, one per passage.

    The recurrence is one `ad.attention_gru` node: each step is a GRU over
    [w_prev; c_prev], then attention under `mask` over the passage blocks
    of `memory`.  Step t reads rows `rows[t]` of the words' GRU shares
    `word_gates` (`word_terms`), and the context enters as the previous
    step's attention rows times `memory.gates`; the output head reads it
    as the attention rows times `memory.readout` and `memory.copy_gate`."""
    states, alphas = ad.attention_gru(word_gates, p.gru.w_zr, p.gru.w_cand, s0, alpha0,
                                      memory.gates, memory.keys, p.w_s, p.v, rows, mask)
    # the contexts before the copy rows: backward walks the nodes in creation
    # order, which fixes the order in which the weights' gradients are summed
    readout_context, gate_context = (ad.attention_context(alphas, table)
                                     for table in (memory.readout, memory.copy_gate))
    if real is not None:
        states, readout_context, gate_context, alphas = (
            ad.gather_rows(t, real) for t in (states, readout_context, gate_context, alphas))
    return states, output_head(word_readout, states, alphas, readout_context, gate_context, p,
                               maxout_keep)


def teacher_forced_unroll(
    batch: Batch,
    words: Tensor,
    enc: EncoderOutput,
    p: DecoderParams,
    maxout_keep: np.ndarray | None = None,
) -> ExtendedDistribution:
    """Decode a batch with gold previous tokens: example b reads its
    `batch.steps[b]` rows of `batch.word_rows` in the word table, <SOS> and
    then its question, one a step, the last step predicting <EOS>.

    The B examples advance together as the members of one `decode_step`
    over every step, each over its own passage's `passage_memory` block.
    The output head runs over each example's own steps, stacked example
    after example, which is also the row order of `maxout_keep`.
    """
    steps = batch.steps
    longest = steps.max()
    first = np.cumsum(steps) - steps
    # step t of example b reads row first[b] + t of the words; finished rows
    # repeat their last step, and nothing reads what they compute
    rows = first + np.minimum(np.arange(longest)[:, None], steps - 1)
    real = np.flatnonzero(np.arange(longest) < steps[:, None])   # b * longest + t, t < steps[b]
    word_gates, word_readout = word_terms(ad.gather_rows(words, batch.word_rows), p)
    memory = passage_memory(enc.states, p)
    mask = np.arange(batch.lengths.max()) < batch.lengths[:, None]   # each passage's positions
    s0 = init_decoder(enc.last_backward, p.w_init, p.b_init)
    alpha0 = Tensor(np.zeros(mask.shape, enc.states.data.dtype))
    return decode_step(word_gates, word_readout, alpha0, s0, memory, p, rows, mask, real,
                       maxout_keep)[1]
