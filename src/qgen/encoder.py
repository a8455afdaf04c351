"""Bidirectional GRU over token feature vectors."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore, Tensor


@dataclass
class GruCellParams:
    """Update/reset/candidate gates for one direction; weights act on [x; h]."""

    w_z: Tensor
    b_z: Tensor
    w_r: Tensor
    b_r: Tensor
    w_h: Tensor
    b_h: Tensor

    @classmethod
    def create(cls, params: ParamStore, prefix: str, input_dim: int, hidden: int,
               rng: np.random.Generator, scale: float = 0.08) -> "GruCellParams":
        def w(name):
            return params.add(f"{prefix}.{name}", rng.uniform(-scale, scale, size=(hidden, input_dim + hidden)))

        def b(name):
            return params.add(f"{prefix}.{name}", np.zeros(hidden))

        return cls(w_z=w("w_z"), b_z=b("b_z"), w_r=w("w_r"), b_r=b("b_r"), w_h=w("w_h"), b_h=b("b_h"))

    @classmethod
    def from_store(cls, params: ParamStore, prefix: str) -> "GruCellParams":
        return cls(*(params[f"{prefix}.{n}"] for n in ("w_z", "b_z", "w_r", "b_r", "w_h", "b_h")))


def gru_cell(x: Tensor, h_prev: Tensor, p: GruCellParams) -> Tensor:
    """Standard GRU update: reset gate applied to h before the candidate.

    Takes one (input,) / (hidden,) pair, or K of them stacked as rows.
    """
    xh = ad.concat([x, h_prev], axis=-1)
    z = ad.sigmoid(ad.add(ad.linear(xh, p.w_z), p.b_z))
    r = ad.sigmoid(ad.add(ad.linear(xh, p.w_r), p.b_r))
    xrh = ad.concat([x, ad.mul(r, h_prev)], axis=-1)
    h_cand = ad.tanh(ad.add(ad.linear(xrh, p.w_h), p.b_h))
    return ad.add(ad.mul(ad.sub(1.0, z), h_prev), ad.mul(z, h_cand))


@dataclass
class EncoderOutput:
    states: Tensor         # (n, 2*hidden): [forward; backward] per token
    last_backward: Tensor  # backward state at the first token


def encode(
    features: Tensor,
    forward_params: GruCellParams,
    backward_params: GruCellParams,
    hidden: int,
    dropout_p: float = 0.0,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
) -> EncoderOutput:
    """Run both directions from zero initial states and concatenate.

    Dropout (train mode) applies to the input features and to the
    concatenated output states.
    """
    n = features.shape[0]
    if n == 0:
        raise ad.TensorError("encode requires a non-empty sequence")
    if dropout_p > 0 and mode == "train":
        features = ad.dropout(features, dropout_p, mode, rng)
    zero = Tensor(np.zeros(hidden, features.data.dtype))

    h = zero
    fwd = []
    for i in range(n):
        h = gru_cell(features[i], h, forward_params)
        fwd.append(ad.reshape(h, (1, hidden)))

    h = zero
    bwd = [None] * n
    for i in reversed(range(n)):
        h = gru_cell(features[i], h, backward_params)
        bwd[i] = ad.reshape(h, (1, hidden))
    last_backward = ad.reshape(bwd[0], (hidden,))

    states = ad.concat([ad.concat(fwd, axis=0), ad.concat(bwd, axis=0)], axis=1)
    if dropout_p > 0 and mode == "train":
        states = ad.dropout(states, dropout_p, mode, rng)
    return EncoderOutput(states=states, last_backward=last_backward)
