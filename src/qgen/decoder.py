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


def recur(word_gates: Tensor, alpha0: Tensor, s0: Tensor, memory: PassageMemory,
          p: DecoderParams, rows: np.ndarray | None = None,
          mask: np.ndarray | None = None) -> tuple[Tensor, Tensor]:
    """The recurrent part of the decoder steps of the (steps, m) schedule
    `rows`, as one `ad.attention_gru` node: every step's states and
    attention weights, step-major.  Each step is a GRU over [w_prev;
    c_prev], then attention under `mask` over the passage blocks of
    `memory`.  The word enters as its GRU share, rows `rows[t]` of
    `word_gates` at step t or all of it in one step by default, and the
    context as the previous step's attention rows (`alpha0`, all zeros at
    the first step) times `memory.gates`."""
    return ad.attention_gru(word_gates, p.gru.w_zr, p.gru.w_cand, s0, alpha0, memory.gates,
                            memory.keys, p.w_s, p.v, rows, mask)


def decode_step(
    word_gates: Tensor,
    word_readout: Tensor,
    alpha_prev: Tensor,
    s_prev: Tensor,
    memory: PassageMemory,
    p: DecoderParams,
) -> tuple[Tensor, ExtendedDistribution]:
    """One beam step over one passage for K hypotheses, their input words'
    `word_terms`, `alpha_prev` and `s_prev` stacked as rows: the new states
    and the step's distribution, one row per hypothesis."""
    s_t, alpha = recur(word_gates, alpha_prev, s_prev, memory, p)
    return s_t, output_head(word_readout, s_t, alpha, ad.matmul(alpha, memory.readout),
                            ad.matmul(alpha, memory.copy_gate), p)


def teacher_forced_unroll(
    prev_ids: list[list[int]],
    words: Tensor,
    enc: EncoderOutput,
    p: DecoderParams,
    maxout_keep: np.ndarray | None = None,
) -> ExtendedDistribution:
    """Decode a batch with gold previous tokens: example b reads the rows
    `prev_ids[b]` of the word table, <SOS> and then its question, so it
    takes len(prev_ids[b]) steps, the last one predicting <EOS>.

    The B examples advance together as the rows of one `recur` over every
    step, each over its own passage's `passage_memory` block.  The output
    head then runs once over every example's steps, stacked example after
    example, which is also the row order of `maxout_keep`.
    """
    steps = np.array([len(ids) for ids in prev_ids])
    batch, longest = len(steps), steps.max()
    w_prev = ad.gather_rows(words, np.concatenate(prev_ids))       # example-major rows
    first = np.cumsum(steps) - steps
    t = np.arange(longest)[:, None]
    # step t of example b reads row first[b] + t; finished rows repeat their last
    # step, and nothing reads what they compute
    positions = first + np.minimum(t, steps - 1)
    inputs = gru_inputs(w_prev, p.gru)
    memory = passage_memory(enc.states, p)
    mask = enc.mask()
    s = init_decoder(enc.last_backward, p.w_init, p.b_init)
    alpha = Tensor(np.zeros(mask.shape, enc.states.data.dtype))
    states, alphas = recur(inputs, alpha, s, memory, p, positions, mask)
    # row b * longest + t of `padded` is step t * B + b: one block of steps per
    # passage, and `real` picks each example's own steps from the blocks
    padded = (t.T * batch + np.arange(batch)[:, None]).ravel()
    real = np.concatenate([b * longest + np.arange(n) for b, n in enumerate(steps)])
    s = ad.gather_rows(states, padded[real])
    blocks = ad.gather_rows(alphas, padded)
    # the word's readout term after the context's: backward walks the nodes in
    # creation order, which fixes the order in which gradients are summed
    readout_context, gate_context = (ad.gather_rows(ad.attention_context(blocks, table), real)
                                     for table in (memory.readout, memory.copy_gate))
    return output_head(ad.linear(w_prev, p.w_rw), s, ad.gather_rows(blocks, real),
                       readout_context, gate_context, p, maxout_keep)
