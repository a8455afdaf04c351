"""Bidirectional GRU over token feature vectors, a batch of passages at a time."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore, Tensor


@dataclass
class GruCellParams:
    """One GRU: the update, reset and candidate gates' weights stacked as
    rows [W_z; W_r; W_h], each product's columns their own parameter, and
    their biases stacked alike."""

    w_x: Tensor      # (3 * hidden, input), on the input
    w_zr: Tensor     # (2 * hidden, hidden), [W_z; W_r] on the state
    w_cand: Tensor   # (hidden, hidden), W_h on the reset state
    b: Tensor        # (3 * hidden,)
    w_c: Tensor | None = None   # (3 * hidden, context), on the decoder's context

    @classmethod
    def create(cls, params: ParamStore, prefix: str, input_dim: int, hidden: int,
               scale: float = 0.08, context_dim: int = 0) -> "GruCellParams":
        # one draw of the three (hidden, input + context + hidden) gate blocks,
        # in row order, cut into each product's columns
        w = params.uniform((3 * hidden, input_dim + context_dim + hidden), scale)
        state = input_dim + context_dim
        return cls(w_x=params.add(f"{prefix}.w_x", w[:, :input_dim]),
                   w_c=params.add(f"{prefix}.w_c", w[:, input_dim:state]) if context_dim else None,
                   w_zr=params.add(f"{prefix}.w_zr", w[:2 * hidden, state:]),
                   w_cand=params.add(f"{prefix}.w_cand", w[2 * hidden:, state:]),
                   b=params.add(f"{prefix}.b", np.zeros(3 * hidden)))


def gru_inputs(x: Tensor, p: GruCellParams) -> Tensor:
    """The input's share of the z, r and candidate pre-activations, bias
    included, (rows, 3 * hidden).  A recurrence takes it for all its inputs
    at once, and `ad.gru` reads each step's rows of it."""
    return ad.add(ad.linear(x, p.w_x), p.b)


@dataclass
class EncoderOutput:
    """A batch of B passages, each right-padded to the longest, n rows."""

    states: Tensor         # (B * n, 2 * hidden): [forward; backward] per token, passage-major
    last_backward: Tensor  # (B, hidden): backward state at each passage's first token


def encode(
    x: Tensor,
    lengths: list[int],
    forward_params: GruCellParams,
    backward_params: GruCellParams,
    input_keep: np.ndarray | None = None,
    output_keep: np.ndarray | None = None,
) -> EncoderOutput:
    """Run both directions over every passage from zero initial states and
    concatenate.

    `x` stacks B passages' token rows, `lengths` rows each.  The B passages
    advance together, one time step per GRU step; the backward direction
    starts at each passage's own last token.  A passage's steps past its end
    fill only its padded positions, which attention masks out.  The input
    shares of the gates are one product over all tokens.  `input_keep` and
    `output_keep` are dropout multipliers for the stacked input rows and the
    stacked output states, passage after passage.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    if not len(lengths) or lengths.min() <= 0 or lengths.sum() != x.shape[0]:
        raise ad.TensorError(f"encode requires positive passage lengths that sum to the input's "
                             f"{x.shape[0]} rows, got {lengths.tolist()}")
    batch, n = len(lengths), int(lengths.max())
    starts = np.cumsum(lengths) - lengths
    x = ad.dropout(x, input_keep)

    # each direction's states, member-major (B * n, hidden): row b * n + i is
    # passage b's state after step i, which reads its token min(i, length - 1)
    # forward and max(length - 1 - i, 0) backward
    position, column = np.arange(n), np.arange(batch)[:, None]
    h0 = Tensor(np.zeros((batch, forward_params.w_cand.shape[0]), x.data.dtype))
    fwd, bwd = (ad.gru(gru_inputs(x, p), p.w_zr, p.w_cand, h0, rows=starts + token)
                for p, token in ((forward_params, np.minimum(position[:, None], lengths - 1)),
                                 (backward_params, np.maximum(lengths - 1 - position[:, None], 0))))

    # forward rows are in passage order already; the backward direction
    # reached position i at step length - 1 - i
    backward = column * n + np.maximum(lengths[:, None] - 1 - position, 0)
    states = ad.concat([fwd, ad.gather_rows(bwd, backward.ravel())], axis=1)
    if output_keep is not None:
        padded = np.ones(states.shape, output_keep.dtype)
        padded[(column * n + position)[position < lengths[:, None]]] = output_keep
        states = ad.dropout(states, padded)
    # each passage's last backward step, at its first token
    last_backward = ad.gather_rows(bwd, np.arange(batch) * n + lengths - 1)
    return EncoderOutput(states=states, last_backward=last_backward)
