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
from .encoder import GruCellParams, gru_cell


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
class DecoderState:
    s: Tensor        # hidden state
    c: Tensor        # attention context
    alpha: Tensor    # attention weights over source positions
    readout: Tensor
    maxout: Tensor
    gate: Tensor     # copy probability in (0, 1): scalar, or (K,) for K stacked states


@dataclass
class ExtendedDistribution:
    """Per-step output distribution over reduced vocab and source positions.

    (1 - gate) * gen and gate * copy together form one normalized
    distribution over emission events.
    """

    gen: Tensor    # (|reduced vocab|,), or (K, |reduced vocab|)
    copy: Tensor   # (|passage|,) or (K, |passage|), the attention weights
    gate: Tensor   # scalar, or (K,)


def init_decoder(last_backward: Tensor, w_init: Tensor, b_init: Tensor) -> Tensor:
    """s_0 = tanh(W lastback + b)."""
    return ad.tanh(ad.add(ad.linear(last_backward, w_init), b_init))


def attention_keys(enc_states: Tensor, p: DecoderParams) -> Tensor:
    """W_h h_i for every source position: (n, attn), computed once per sequence."""
    return ad.linear(enc_states, p.w_h)


def attention(s_t: Tensor, enc_states: Tensor, keys: Tensor,
              p: DecoderParams) -> tuple[Tensor, Tensor, Tensor]:
    """Concatenated attention: scores, softmax weights, weighted context.

    A (dec_hidden,) state gives (n,) weights and an (enc_width,) context; a
    (K, dec_hidden) stack of states gives one row of each per state.
    """
    scores = ad.attention_scores(keys, ad.linear(s_t, p.w_s), p.v)
    alpha = ad.softmax(scores)
    context = ad.matmul(alpha, enc_states)
    return alpha, context, scores


def pairwise_max(r: Tensor) -> Tensor:
    """Maxout over consecutive pairs of the last axis, halving its width."""
    if r.shape[-1] % 2 != 0:
        raise ad.TensorError(f"pairwise_max requires even width, got {r.shape[-1]}")
    return ad.maximum(r[..., 0::2], r[..., 1::2])


def decode_step(
    w_prev: Tensor,
    c_prev: Tensor,
    s_prev: Tensor,
    enc_states: Tensor,
    keys: Tensor,
    p: DecoderParams,
    mode: str = "eval",
    dropout_p: float = 0.0,
    rng: np.random.Generator | None = None,
) -> tuple[DecoderState, ExtendedDistribution]:
    """One decoder step for a single hypothesis (1-d `w_prev`, `c_prev`,
    `s_prev`) or for K of them stacked as rows; every output gains the same
    leading K axis.  `keys` is `attention_keys(enc_states, p)`."""
    s_t = gru_cell(ad.concat([w_prev, c_prev], axis=-1), s_prev, p.gru)
    alpha, context, _ = attention(s_t, enc_states, keys, p)
    r_t = ad.add(ad.add(ad.linear(w_prev, p.w_rw), ad.linear(context, p.w_rc)),
                 ad.linear(s_t, p.w_rs))
    m_t = pairwise_max(r_t)
    if dropout_p > 0 and mode == "train":
        m_t = ad.dropout(m_t, dropout_p, mode, rng)
    gen = ad.softmax(ad.linear(m_t, p.w_out))
    gate = ad.sigmoid(ad.add(ad.add(ad.matmul(s_t, p.w_cs), ad.matmul(context, p.w_cc)), p.b_gate))
    state = DecoderState(s=s_t, c=context, alpha=alpha, readout=r_t, maxout=m_t, gate=gate)
    return state, ExtendedDistribution(gen=gen, copy=alpha, gate=gate)


def zero_context(enc_states: Tensor) -> Tensor:
    return Tensor(np.zeros(enc_states.shape[1], enc_states.data.dtype))


def teacher_forced_unroll(
    question: list[str],
    embed_prev_word,
    sos_embedding: Tensor,
    enc_states: Tensor,
    last_backward: Tensor,
    p: DecoderParams,
    mode: str = "eval",
    dropout_p: float = 0.0,
    rng: np.random.Generator | None = None,
) -> list[tuple[DecoderState, ExtendedDistribution]]:
    """Unroll with gold previous tokens; returns len(question)+1 steps, the
    final one predicting <EOS>.

    `embed_prev_word(token) -> Tensor` supplies gold-token input embeddings.
    """
    s = init_decoder(last_backward, p.w_init, p.b_init)
    c = zero_context(enc_states)
    keys = attention_keys(enc_states, p)
    steps = []
    w_prev = sos_embedding
    for t in range(len(question) + 1):
        state, dist = decode_step(w_prev, c, s, enc_states, keys, p, mode, dropout_p, rng)
        steps.append((state, dist))
        if t < len(question):
            w_prev = embed_prev_word(question[t])
            s, c = state.s, state.c
    return steps
