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
from .encoder import EncoderOutput, GruCellParams, gru_inputs, gru_step


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
               attn_dim: int, vocab_out: int, rng: np.random.Generator,
               scale: float = 0.08) -> "DecoderParams":
        def w(name, shape):
            return params.add(f"dec.{name}", rng.uniform(-scale, scale, size=shape))

        def b(name, size):
            return params.add(f"dec.{name}", np.zeros(size))

        readout = 2 * dec_hidden
        return cls(
            gru=GruCellParams.create(params, "dec.gru", word_dim + enc_width, dec_hidden, rng, scale),
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

    @classmethod
    def from_store(cls, params: ParamStore) -> "DecoderParams":
        names = ["w_init", "b_init", "attn.w_s", "attn.w_h", "attn.v", "w_rw", "w_rc",
                 "w_rs", "w_out", "gate.w_cs", "gate.w_cc", "gate.b"]
        return cls(GruCellParams.from_store(params, "dec.gru"),
                   *(params[f"dec.{n}"] for n in names))


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


def attention_keys(enc_states: Tensor, p: DecoderParams) -> Tensor:
    """W_h h_i for every source position: (n, attn), computed once per sequence."""
    return ad.linear(enc_states, p.w_h)


@dataclass
class PassageMemory:
    """What every beam step reads of one passage's (n, enc_width) encoder
    states H.  The context c = alpha H feeds only linear maps, so c W' =
    alpha (H W'): the decoder's context columns are applied to H once per
    passage, and a step multiplies its attention rows by these (n, ·)
    tables instead of its context rows by the weights."""

    keys: Tensor          # attention_keys(H)
    gates: list[Tensor]   # H times the context columns of the GRU's W_z, W_r, W_h
    readout: Tensor       # H W_rc^T, (n, 2 * dec_hidden)
    copy_gate: Tensor     # H w_cc, (n,)


def passage_memory(enc_states: Tensor, p: DecoderParams) -> PassageMemory:
    """The context projections of one passage, computed once for every step."""
    word = p.w_rw.shape[1]
    cols = (word, word + enc_states.shape[1])
    return PassageMemory(
        keys=attention_keys(enc_states, p),
        gates=[ad.linear(enc_states, w, cols) for w in (p.gru.w_z, p.gru.w_r, p.gru.w_h)],
        readout=ad.linear(enc_states, p.w_rc),
        copy_gate=ad.matmul(enc_states, p.w_cc),
    )


def attention(s_t: Tensor, keys: Tensor, p: DecoderParams,
              mask: np.ndarray | None = None) -> tuple[Tensor, Tensor]:
    """Concatenated attention: softmax weights and scores over the source
    positions, one row of each per row of the (m, dec_hidden) states s_t.

    Without `mask`, keys are one passage's that every state row attends
    to.  A (B, n) `mask` makes keys B passages padded to n rows each
    (`EncoderOutput`): state row b attends to the real positions of
    passage b only.
    """
    blocks = 1 if mask is None else len(mask)
    scores = ad.attention_scores(keys, ad.linear(s_t, p.w_s), p.v, blocks)
    return ad.softmax(scores, mask=mask), scores


def pairwise_max(r: Tensor) -> Tensor:
    """Maxout over consecutive pairs of the last axis, halving its width."""
    if r.shape[-1] % 2 != 0:
        raise ad.TensorError(f"pairwise_max requires even width, got {r.shape[-1]}")
    return ad.maximum(r[..., 0::2], r[..., 1::2])


def output_head(w_prev: Tensor, s: Tensor, alpha: Tensor, readout_context: Tensor,
                gate_context: Tensor, p: DecoderParams,
                maxout_keep: np.ndarray | None = None) -> ExtendedDistribution:
    """The step outputs from its input word, state and attention, row by
    row: maxout readout, dropout, generation softmax and copy gate.  The
    context enters as its two terms, W_rc c (`readout_context`) and w_cc . c
    (`gate_context`).  The next step reads none of it, so a teacher-forced
    unroll runs it once over all its steps."""
    r_t = ad.add(ad.add(ad.linear(w_prev, p.w_rw), readout_context), ad.linear(s, p.w_rs))
    m_t = ad.dropout(pairwise_max(r_t), maxout_keep)
    gen = ad.softmax(ad.linear(m_t, p.w_out))
    gate = ad.sigmoid(ad.add(ad.add(ad.matmul(s, p.w_cs), gate_context), p.b_gate))
    return ExtendedDistribution(gen=gen, copy=alpha, gate=gate)


def decode_step(
    w_prev: Tensor,
    alpha_prev: Tensor,
    s_prev: Tensor,
    memory: PassageMemory,
    p: DecoderParams,
) -> tuple[Tensor, ExtendedDistribution]:
    """One decoder step over one passage for K hypotheses, their `w_prev`,
    `alpha_prev` (the previous step's attention, all zeros at the start,
    where the context is zero) and `s_prev` stacked as rows: the new states
    and the step's distribution, one row per hypothesis.  The context is
    never formed: each of its terms is an attention row times a
    `passage_memory` table."""
    inputs = [ad.add(x, ad.matmul(alpha_prev, m))
              for x, m in zip(gru_inputs(w_prev, p.gru), memory.gates)]
    s_t = gru_step(inputs, s_prev, p.gru)
    alpha, _ = attention(s_t, memory.keys, p)
    return s_t, output_head(w_prev, s_t, alpha, ad.matmul(alpha, memory.readout),
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

    The B examples advance together as rows of one recurrent step, a GRU
    over [w_prev; c_prev] and then attention; each attends to its own
    passage in `enc`.  The output head then runs once over every example's
    steps, stacked example after example, which is also the row order of
    `maxout_keep`.
    """
    steps = np.array([len(ids) for ids in prev_ids])
    batch = len(steps)
    w_prev = ad.gather_rows(words, np.concatenate(prev_ids))       # example-major rows
    first = np.cumsum(steps) - steps
    t = np.arange(steps.max())[:, None]
    # step t of example b reads row first[b] + t; finished rows repeat their last
    # step, and nothing reads what they compute
    positions = first + np.minimum(t, steps - 1)
    inputs = gru_inputs(w_prev, p.gru)
    keys = attention_keys(enc.states, p)
    mask = enc.mask()
    s = init_decoder(enc.last_backward, p.w_init, p.b_init)
    c = Tensor(np.zeros((batch, enc.states.shape[1]), enc.states.data.dtype))
    rows: list[tuple[Tensor, Tensor, Tensor]] = []   # (s, c, alpha) of each step
    for step_rows in positions:
        s = gru_step(inputs, s, p.gru, context=c, rows=step_rows)
        alpha, _ = attention(s, keys, p, mask)
        c = ad.attention_context(alpha, enc.states)
        rows.append((s, c, alpha))
    # step-major row t * B + b of every step, in example-major order
    order = np.concatenate([np.arange(n) * batch + b for b, n in enumerate(steps)])
    s, c, alpha = (ad.gather_rows(ad.concat(list(field)), order) for field in zip(*rows))
    return output_head(w_prev, s, alpha, ad.linear(c, p.w_rc), ad.matmul(c, p.w_cc), p,
                       maxout_keep)
