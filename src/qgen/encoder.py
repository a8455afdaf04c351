"""Bidirectional GRU over token feature vectors, a batch of passages at a time."""

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


def gru_inputs(x: Tensor, p: GruCellParams) -> list[Tensor]:
    """The input's share of the z, r and candidate pre-activations, bias
    included: x times the first x-width columns of each weight.  A recurrence
    takes it for all its inputs at once, before the time loop."""
    cols = (0, x.shape[-1])
    return [ad.add(ad.linear(x, w, cols), b) for w, b in ((p.w_z, p.b_z), (p.w_r, p.b_r), (p.w_h, p.b_h))]


def gru_step(inputs: list[Tensor], h_prev: Tensor, p: GruCellParams,
             context: Tensor | None = None, rows: slice | None = None) -> Tensor:
    """Standard GRU update, reset gate applied to h before the candidate:
    one `ad.gru_cell` node.

    `inputs` are the z, r and candidate pre-activation shares of the
    weights' first columns, bias included (`gru_inputs`), or their rows
    `rows` when they hold every step's; the remaining columns act on
    [context; h], context optional.  h_prev is (m, hidden): m states
    stacked as rows.
    """
    return ad.gru_cell(inputs, (p.w_z, p.w_r, p.w_h), h_prev, context, rows)


@dataclass
class EncoderOutput:
    """A batch of B passages, each right-padded to the longest, n rows."""

    states: Tensor         # (B * n, 2 * hidden): [forward; backward] per token, passage-major
    last_backward: Tensor  # (B, hidden): backward state at each passage's first token
    lengths: np.ndarray    # (B,) passage lengths

    def mask(self) -> np.ndarray:
        """(B, n), True at each passage's real positions."""
        return np.arange(self.lengths.max()) < self.lengths[:, None]


def _direction(gates: list[Tensor], positions: np.ndarray, p: GruCellParams) -> Tensor:
    """One direction over B sequences in lockstep: step i reads row
    positions[i, b] of the input shares for sequence b.  Returns the states,
    step-major (n * B, hidden)."""
    n, batch = positions.shape
    gates = [ad.gather_rows(g, positions.ravel()) for g in gates]
    hidden = p.w_z.shape[0]
    h = Tensor(np.zeros((batch, hidden), gates[0].data.dtype))
    states = []
    for i in range(n):
        h = gru_step(gates, h, p, rows=slice(i * batch, (i + 1) * batch))
        states.append(h)
    return ad.concat(states)


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

    step = np.arange(n)[:, None]
    fwd = _direction(gru_inputs(x, forward_params), starts + np.minimum(step, lengths - 1),
                     forward_params)
    bwd = _direction(gru_inputs(x, backward_params), starts + np.maximum(lengths - 1 - step, 0),
                     backward_params)

    # passage-major rows b * n + i, from step-major rows i * B + b; the
    # backward direction reached position i at step length - 1 - i
    position = np.arange(n)
    column = np.arange(batch)[:, None]
    states = ad.concat([
        ad.gather_rows(fwd, (position * batch + column).ravel()),
        ad.gather_rows(bwd, (np.maximum(lengths[:, None] - 1 - position, 0) * batch + column).ravel()),
    ], axis=1)
    if output_keep is not None:
        padded = np.ones(states.shape, output_keep.dtype)
        padded[(column * n + position)[position < lengths[:, None]]] = output_keep
        states = ad.dropout(states, padded)
    # each passage's last backward step, at its first token
    last_backward = ad.gather_rows(bwd, (lengths - 1) * batch + np.arange(batch))
    return EncoderOutput(states=states, last_backward=last_backward, lengths=lengths)
