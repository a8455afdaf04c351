"""Minimal dense-tensor library with reverse-mode automatic differentiation.

Tensors wrap numpy arrays (0-, 1- or 2-dimensional) and record the ops that
produced them so that `backward` on a scalar loss fills the `grad` buffer of
every tensor created with `requires_grad=True`.

How long a gradient lives: a leaf's gradient is only ever added into, and a
packed `ParamStore` parameter's is a view of the store's flat `grad` buffer,
which `zero_grad` zero-fills in place between optimization steps.  An op
output's gradient lasts one pass: `backward` clears it at the next.

Broadcasting in the arithmetic ops is restricted to: equal shapes, scalar vs
tensor, and row-vector (n,) against matrix (m, n).
"""

from __future__ import annotations

import itertools
import json
import os
import zipfile
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

_GRAD_ENABLED = True
_SEQ = itertools.count()

# Entries of the float64 scratch that `ParamStore.uniform` fills a weight through:
# 64 KB, below glibc malloc's 128 KB mmap threshold, so it reuses heap pages.
DRAW_SLICE = 1 << 13

# Rows at or below which `_times_t` issues a float32 x @ w.T as (w @ x.T).T:
# OpenBLAS's sgemm runs that form 1.3-2.4x faster at 4-32 rows (a beam step's,
# a recurrence step's), about as fast at 64, and up to 1.7x slower at 256-960.
ROW_CUT = 64


class TensorError(ValueError):
    """Raised on shape/domain violations in tensor operations."""


class CheckpointError(ValueError):
    """Raised when a checkpoint file is unreadable or does not fit the model."""


@contextmanager
def no_grad():
    """Disable graph recording inside the block (inference mode)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    """A dense array plus the bookkeeping needed for reverse-mode autodiff.

    float32 and float64 data keep their dtype; anything else becomes float64.

    `_seq` is a global creation counter: parents always carry a smaller
    sequence number than their outputs, so walking reachable nodes in
    decreasing `_seq` order is a reverse topological traversal of the
    computation graph and visits each node exactly once.
    """

    __slots__ = ("data", "grad", "requires_grad", "_op", "_parents", "_backward", "_seq",
                 "_outer", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype.char in "fd" else data.astype(np.float64)
        if self.data.ndim > 2:
            raise TensorError(f"only 0/1/2-d tensors supported, got shape {self.data.shape}")
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._op = "leaf"
        self._parents: tuple = ()
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._seq = next(_SEQ)
        # the (g, x) rows of every product use of this weight not yet
        # summed into grad; see `_flush_outer`
        self._outer: Optional[list] = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self._op}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        if self.data.size != 1:
            raise TensorError(f"item() on tensor of size {self.data.size}")
        return float(self.data.reshape(()))

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(g, dtype=self.data.dtype)
        else:
            self.grad += g

    def _grad_buffer(self) -> np.ndarray:
        """The grad array, zero-filled on first use, for ops that scatter
        into part of it."""
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        return self.grad

    def _defer_outer(self, g: np.ndarray, x: np.ndarray) -> None:
        """Hold a product's (g, x) rows until `_flush_outer`."""
        if self._outer is None:
            self._outer = []
        self._outer.append((g, x))

    def _flush_outer(self) -> None:
        """Add every deferred contribution sum_i g_i.T @ x_i to grad as one
        product of the stacked rows."""
        gs, xs = zip(*self._outer)
        self._outer = None
        grad = self._grad_buffer()
        grad += (np.concatenate(gs).T @ np.concatenate(xs)).astype(self.data.dtype, copy=False)

    def backward(self) -> None:
        """Backpropagate from this scalar through the recorded graph.

        Repeated calls without zeroing accumulate into a leaf's `grad`: each
        pass computes a fresh d(loss)/d(leaf) and adds it to what was there.

        Every consumer of a tensor has a larger `_seq` than the tensor, so
        when the walk reaches it all of its consumers have run and the
        weight-gradient rows deferred to it are complete.
        """
        if self.data.size != 1:
            raise TensorError(f"backward requires a scalar loss, got shape {self.shape}")
        nodes = []
        seen = {id(self)}
        stack = [self]
        while stack:
            t = stack.pop()
            nodes.append(t)
            for p in t._parents:
                if id(p) not in seen:
                    seen.add(id(p))
                    stack.append(p)
        nodes.sort(key=lambda t: t._seq, reverse=True)
        for t in nodes:   # an op output propagates only this pass's gradient
            if t._backward is not None:
                t.grad = None
        self._accumulate(np.ones_like(self.data))
        for t in nodes:
            if t._outer is not None:
                t._flush_outer()
            if t._backward is not None and t.grad is not None:
                t._backward(t.grad)


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def _operands(xs: tuple) -> Sequence[Tensor]:
    """An op's inputs as tensors of one dtype: numbers and arrays take the
    dtype of the tensor operands, and tensors of two dtypes raise instead of
    upcasting."""
    dtype, constants = None, False
    for x in xs:
        if not isinstance(x, Tensor):
            constants = True
        elif dtype is None:
            dtype = x.data.dtype
        elif x.data.dtype != dtype:
            raise TensorError(f"operands of dtypes {dtype} and {x.data.dtype} do not mix")
    if constants:
        return [x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype)) for x in xs]
    return xs


def _node(data: np.ndarray, parents: Sequence[Tensor], op: str,
          backward: Callable[[np.ndarray], None]) -> Tensor:
    """Wrap an op's output; the graph edge and `backward(grad)` are kept only
    when gradients are recorded and some parent requires them, so no-grad
    results hold no reference to their inputs."""
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._op = op
        out._backward = backward
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to `shape` by summing expanded axes."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def _check_broadcast(a: np.ndarray, b: np.ndarray, op: str) -> None:
    if a.shape == b.shape:
        return
    if a.size == 1 or b.size == 1:
        return
    if a.ndim == 2 and b.ndim == 1 and a.shape[1] == b.shape[0]:
        return
    if b.ndim == 2 and a.ndim == 1 and b.shape[1] == a.shape[0]:
        return
    raise TensorError(f"{op}: shapes {a.shape} and {b.shape} are not broadcastable here")


def add(a, b) -> Tensor:
    a, b = _operands((a, b))
    _check_broadcast(a.data, b.data, "add")

    def bw(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))

    return _node(a.data + b.data, (a, b), "add", bw)


def mul(a, b) -> Tensor:
    a, b = _operands((a, b))
    _check_broadcast(a.data, b.data, "mul")

    def bw(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.shape))

    return _node(a.data * b.data, (a, b), "mul", bw)


def neg(a) -> Tensor:
    a = _as_tensor(a)

    def bw(g):
        if a.requires_grad:
            a._accumulate(-g)

    return _node(-a.data, (a,), "neg", bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product (m,k)x(k,n), or matrix-vector product (m,k)x(k,)."""
    a, b = _operands((a, b))
    if a.ndim != 2 or b.ndim not in (1, 2) or a.shape[1] != b.shape[0]:
        raise TensorError(f"matmul: shapes {a.shape} and {b.shape} are not (m,k)x(k,n) or (m,k)x(k,)")

    def bw(g):
        if a.requires_grad:
            a._accumulate(g @ b.data.T if b.ndim == 2 else np.outer(g, b.data))
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    return _node(a.data @ b.data, (a, b), "matmul", bw)


def _times_t(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x @ w.T, row-major.  A float32 product of at most ROW_CUT rows runs
    as (w @ x.T).T, which gives the same bytes, and is copied back to rows,
    so that reductions over its rows sum in the same order."""
    if x.shape[0] <= ROW_CUT and x.dtype == w.dtype == np.float32:
        return np.ascontiguousarray((w @ x.T).T)
    return x @ w.T


def linear(x: Tensor, w: Tensor) -> Tensor:
    """x @ w.T for an (m, k) input and an (n, k) weight; w is read in place,
    never transposed into a copy.  A float32 product of at most ROW_CUT rows,
    a beam step's or a recurrence step's, is issued as (w @ x.T).T, the form
    OpenBLAS runs faster at so few rows, and copied back to rows (`_times_t`).

    Backward defers w's gradient g.T @ x: the (g, x) rows wait on w until
    `Tensor.backward` reaches w and sums every use in one GEMM, so an
    unrolled recurrence costs one product per weight, not one per step.
    """
    x, w = _operands((x, w))
    if w.ndim != 2 or x.ndim != 2 or x.shape[1] != w.shape[1]:
        raise TensorError(f"linear: input {x.shape} does not match weight {w.shape}")

    def bw(g):
        if x.requires_grad:
            x._accumulate(g @ w.data)
        if w.requires_grad:
            w._defer_outer(g, x.data)

    return _node(_times_t(x.data, w.data), (x, w), "linear", bw)


def _gru_schedule(op: str, gates: Tensor, w_zr: Tensor, w_cand: Tensor, h_prev: Tensor,
                  rows: Optional[np.ndarray]) -> np.ndarray:
    """The (steps, m) schedule of a GRU recurrence over the (m, hidden)
    state `h_prev`, after checking the shares and state weights fit it."""
    if h_prev.ndim != 2 or gates.ndim != 2:
        raise TensorError(f"{op}: state {h_prev.shape} and shares {gates.shape} are not both 2-d")
    m, hidden = h_prev.shape
    if w_zr.shape != (2 * hidden, hidden) or w_cand.shape != (hidden, hidden):
        raise TensorError(f"{op}: weights {w_zr.shape} and {w_cand.shape} do not match "
                          f"state {h_prev.shape}: expected {(2 * hidden, hidden)} and "
                          f"{(hidden, hidden)}")
    schedule = np.arange(len(gates.data))[None] if rows is None else np.asarray(rows)
    if schedule.shape[1:] != (m,) or not schedule.size or gates.shape[1] != 3 * hidden:
        raise TensorError(f"{op}: shares {gates.shape} by schedule {schedule.shape} do not match "
                          f"state {h_prev.shape}: expected (rows, {3 * hidden}) and (steps, {m})")
    return schedule


def _gru_step(x: np.ndarray, h: np.ndarray, w_zr: np.ndarray,
              w_cand: np.ndarray) -> tuple[np.ndarray, tuple]:
    """One GRU step from the (m, 3 hidden) shares x and the state h: the
    new state, and what `_gru_step_backward` reads of the step."""
    hidden = h.shape[1]
    zr = _sigmoid(x[:, :2 * hidden] + _times_t(h, w_zr))
    z, r = zr[:, :hidden], zr[:, hidden:]
    rh = r * h
    h_cand = np.tanh(x[:, 2 * hidden:] + _times_t(rh, w_cand))
    omz = 1.0 - z
    return omz * h + z * h_cand, (h, z, r, zr, rh, h_cand, omz)


def _gru_step_backward(d_h: np.ndarray, saved: tuple, prev: Tensor, w_zr: Tensor,
                       w_cand: Tensor) -> np.ndarray:
    """Backward of one `_gru_step` from its state's gradient d_h, in the
    reverse-walk order of the unfused step's nodes (last created first):
    adds the previous state's three terms to `prev`, defers each weight's
    (g, x) rows to it as `linear` does, and returns the shares' gradient."""
    h, z, r, zr, rh, h_cand, omz = saved
    dz = d_h * h_cand                      # z h~
    d_cand = d_h * z
    if prev.requires_grad:                 # (1 - z) h
        prev._accumulate(d_h * omz)
    dz -= d_h * h                          # 1 - z
    d_cand *= 1.0 - h_cand * h_cand        # tanh
    if w_cand.requires_grad:
        w_cand._defer_outer(d_cand, rh)
    d_rh = d_cand @ w_cand.data            # (r h) W_cand'
    if prev.requires_grad:                 # r h
        prev._accumulate(d_rh * r)
    d_zr = np.concatenate([dz, d_rh * h], axis=1)
    d_zr *= zr                             # sigmoid
    d_zr *= 1.0 - zr
    if w_zr.requires_grad:
        w_zr._defer_outer(d_zr, h)
    if prev.requires_grad:                 # h W_zr'
        prev._accumulate(d_zr @ w_zr.data)
    return np.concatenate([d_zr, d_cand], axis=1)


def _state_grad(g: Optional[np.ndarray], h: np.ndarray, t: int) -> Tensor:
    """The states after step t of a recurrence node as a tensor whose
    gradient starts as their rows of the node's output gradient g, if any,
    (m, steps, d) as `_by_member` gives it."""
    state = Tensor(h, requires_grad=True)
    if g is not None:
        state.grad = g[:, t].copy()
    return state


def _by_member(g: Optional[np.ndarray], m: int) -> Optional[np.ndarray]:
    """A recurrence node's member-major (m * steps, d) output gradient as
    (m, steps, d): [:, t] is every member's row after step t."""
    return None if g is None else g.reshape(m, -1, g.shape[1])


def gru(gates: Tensor, w_zr: Tensor, w_cand: Tensor, h_prev: Tensor,
        rows: np.ndarray) -> Tensor:
    """GRU steps over (m, hidden) state rows in lockstep, as one graph node:
    from `h_prev`, every step's states, member-major, (m * steps, hidden),
    row b * steps + t being row b's state after step t.

        [z; r] = sigmoid(x_zr + h W_zr'),   W_zr = [W_z; W_r], (2 hidden, hidden)
        h~ = tanh(x_h + (r h) W_cand'),     h' = (1 - z) h + z h~

    x = [x_z, x_r, x_h] is a step's (m, 3 hidden) share of the
    pre-activations from the gates' other weights: at step t of the
    (steps, m) schedule `rows`, rows rows[t] of `gates`, distinct, read in
    place.  Each product is issued as `linear` issues its own
    (`_times_t`).  Forward and gradients are bit-identical to a graph of
    small nodes per step and a member-major stack of the states
    (`tests/reference.py`): backward walks the steps in reverse, in that
    graph's reverse-walk order, and defers each weight's (g, x) rows to it
    as `linear` does.
    """
    parents = _operands((gates, w_zr, w_cand, h_prev))
    gates, w_zr, w_cand, h_prev = parents
    schedule = _gru_schedule("gru", gates, w_zr, w_cand, h_prev, rows)
    m, hidden = h_prev.shape
    states, saved = [h_prev.data], []
    for key in schedule:
        h, step = _gru_step(gates.data[key], states[-1], w_zr.data, w_cand.data)
        states.append(h)
        saved.append(step)

    def bw(g):
        g = _by_member(g, m)
        d_h = g[:, -1]
        for t in reversed(range(len(saved))):
            # the last step's output: its rows of g, then this step's terms
            prev = _state_grad(g, states[t], t - 1) if t else h_prev
            d_x = _gru_step_backward(d_h, saved[t], prev, w_zr, w_cand)
            if gates.requires_grad:
                gates._grad_buffer()[schedule[t]] += d_x
            d_h = prev.grad

    return _node(np.stack(states[1:], axis=1).reshape(-1, hidden), parents, "gru", bw)


def _attention_scores(keys: np.ndarray, query: np.ndarray, v: np.ndarray,
                      blocks: int) -> tuple[np.ndarray, np.ndarray]:
    """Additive attention scores v . tanh(key + query), (m, n), and their
    (m, n, a) activation, which backward reads instead of recomputing it.

    keys is (blocks * n, a), `blocks` groups of n rows, and v is (a,).  The
    (m, a) query rows split into `blocks` equal groups in order, and group b
    scores key group b only: a beam is one block of K rows, a training batch
    B blocks of one row each.
    """
    (m, a), n = query.shape, keys.shape[0] // blocks
    act = np.add(keys.reshape(blocks, 1, n, a), query.reshape(blocks, -1, 1, a))
    np.tanh(act, out=act)
    return (act @ v).reshape(m, n), act.reshape(m, n, a)


def attention_gru(gates: Tensor, w_zr: Tensor, w_cand: Tensor, h0: Tensor, alpha0: Tensor,
                  values: Tensor, keys: Tensor, w_s: Tensor, v: Tensor,
                  rows: Optional[np.ndarray] = None,
                  mask: Optional[np.ndarray] = None) -> tuple[Tensor, Tensor]:
    """The decoder's recurrence over (m, hidden) state rows in lockstep, as
    one graph node: from the state `h0` and the attention weights `alpha0`,
    every step's states and attention weights, member-major as in `gru`,
    (m * steps, hidden) and (m * steps, n).  Step t of the (steps, m)
    schedule `rows`:

        x = rows rows[t] of `gates` + alpha_{t-1} V    (the GRU's shares)
        h_t = the `gru` step from h_{t-1} over x
        alpha_t = masked softmax(v . tanh(K + h_t W_s'))

    V (`values`) and K (`keys`) are (blocks * n, .) tables of `blocks`
    passages of n rows, and the m rows split into `blocks` equal groups in
    order, group b reading passage b (`attention_context`): a beam step is
    one block of K rows, a training batch B blocks of one row each.  A
    (blocks, n) `mask` keeps block b's rows to passage b's True positions;
    its masked weights are exactly 0.  Without `rows` it is one step over
    all of `gates`, the beam's case.

    The weights are a second node whose backward hands its gradient to the
    op.  Forward and gradients are bit-identical to a graph per step of
    `attention_context`, the `gru` step, a `linear` by `w_s`, additive
    attention scores and a masked softmax, and a member-major stack of the
    states and of the weights (`tests/reference.py`): backward walks the
    steps in reverse, in that graph's reverse-walk order, and defers each
    weight's (g, x) rows to it as `linear` does.
    """
    parents = _operands((gates, w_zr, w_cand, h0, alpha0, values, keys, w_s, v))
    gates, w_zr, w_cand, h0, alpha0, values, keys, w_s, v = parents
    schedule = _gru_schedule("attention_gru", gates, w_zr, w_cand, h0, rows)
    (m, hidden), n = h0.shape, (alpha0.shape[1] if alpha0.ndim == 2 else 0)
    blocks, attn = (keys.shape[0] // n, keys.shape[1]) if n and keys.ndim == 2 else (0, 0)
    if (not blocks or keys.shape[0] != blocks * n or m % blocks or alpha0.shape != (m, n)
            or values.shape != (blocks * n, 3 * hidden) or w_s.shape != (attn, hidden)
            or v.shape != (attn,)):
        raise TensorError(f"attention_gru: weights {alpha0.shape}, values {values.shape}, keys "
                          f"{keys.shape}, w_s {w_s.shape} and v {v.shape} do not match state "
                          f"{h0.shape} in equal blocks")
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (blocks, n):
            raise TensorError(f"attention_gru: mask {mask.shape} is not one row per block, "
                              f"{(blocks, n)}")
        if not mask.any(axis=1).all():
            raise TensorError("attention_gru: all entries of a mask row masked")
        mask = np.repeat(mask, m // blocks, axis=0)
    record = _GRAD_ENABLED and any(p.requires_grad for p in parents)
    v3 = values.data.reshape(blocks, n, -1)
    states, weights, saved = [h0.data], [alpha0.data], []
    for key in schedule:
        context = (weights[-1].reshape(blocks, -1, n) @ v3).reshape(m, -1)
        h, step = _gru_step(gates.data[key] + context, states[-1], w_zr.data, w_cand.data)
        scores, act = _attention_scores(keys.data, _times_t(h, w_s.data), v.data, blocks)
        if mask is not None:
            scores = np.where(mask, scores, -np.inf)
        e = np.exp(scores - np.max(scores, axis=-1, keepdims=True))
        states.append(h)
        weights.append(e / e.sum(axis=-1, keepdims=True))
        if record:
            saved.append((step, act))
    handed = [None]   # the weights' gradient, from their node

    def bw(g):
        g, g_alpha, handed[0] = _by_member(g, m), _by_member(handed[0], m), None
        d_h = None if g is None else g[:, -1].copy()
        d_alpha = None if g_alpha is None else g_alpha[:, -1]
        for t in reversed(range(len(saved))):
            step, act = saved[t]
            if d_alpha is not None:
                y = weights[t + 1]                 # masked softmax
                d_scores = y * (d_alpha - (d_alpha * y).sum(axis=-1, keepdims=True))
                if v.requires_grad:                # v . tanh(K + q), as np.tensordot's product
                    v._accumulate(np.dot(d_scores.reshape(1, -1), act.reshape(-1, attn))[0])
                d = np.multiply(act, act)
                np.subtract(1.0, d, out=d)
                d *= d_scores[:, :, None] * v.data
                if keys.requires_grad:             # each block's rows summed, or its one row
                    d4 = d.reshape(blocks, -1, n, attn)
                    g_keys = keys._grad_buffer().reshape(blocks, n, attn)
                    g_keys += d4[:, 0] if d4.shape[1] == 1 else d4.sum(axis=1)
                d_q = d.sum(axis=1)
                d_s = d_q @ w_s.data               # h W_s'
                d_h = d_s if d_h is None else np.add(d_h, d_s, out=d_h)
                if w_s.requires_grad:
                    w_s._defer_outer(d_q, states[t + 1])
            prev = _state_grad(g, states[t], t - 1) if t else h0
            d_x = _gru_step_backward(d_h, step, prev, w_zr, w_cand)
            if gates.requires_grad:
                gates._grad_buffer()[schedule[t]] += d_x
            d_x3 = d_x.reshape(blocks, -1, d_x.shape[1])   # alpha_{t-1} V
            if t or alpha0.requires_grad:
                d_alpha = (d_x3 @ v3.transpose(0, 2, 1)).reshape(m, n)
                if not t:
                    alpha0._accumulate(d_alpha)
                elif g_alpha is not None:
                    d_alpha += g_alpha[:, t - 1]
            if values.requires_grad:
                a3 = weights[t].reshape(blocks, -1, n)
                values._accumulate((a3.transpose(0, 2, 1) @ d_x3).reshape(values.shape))
            d_h = prev.grad

    out = _node(np.stack(states[1:], axis=1).reshape(-1, hidden), parents, "attention_gru", bw)

    def bw_weights(g):
        handed[0] = g
        if out.grad is None:   # nothing read the states: their node is not walked
            bw(None)

    return out, _node(np.stack(weights[1:], axis=1).reshape(-1, n), (out,),
                      "attention_gru.weights", bw_weights)


def attention_context(alpha: Tensor, values: Tensor) -> Tensor:
    """Attention-weighted sums of value rows, (m, d), or of values, (m,).

    values is (blocks * n, d) or (blocks * n,) for (m, n) weights alpha.
    The rows of alpha split into `blocks` equal groups in order, and group b
    weights value block b only, as in `attention_gru`.  The
    (blocks, m / blocks, d) products stay inside the node.
    """
    alpha, values = _operands((alpha, values))
    n = alpha.shape[1] if alpha.ndim == 2 else 0
    blocks = values.shape[0] // n if values.ndim and n else 0
    if blocks == 0 or values.shape[0] != blocks * n or alpha.shape[0] % blocks:
        raise TensorError(f"attention_context: weights {alpha.shape} do not match "
                          f"values {values.shape} in equal blocks")
    m = alpha.shape[0]
    a3 = alpha.data.reshape(blocks, -1, n)
    v3 = values.data.reshape(blocks, n, -1)

    def bw(g):
        g3 = g.reshape(blocks, -1, v3.shape[2])
        if alpha.requires_grad:
            alpha._accumulate((g3 @ v3.transpose(0, 2, 1)).reshape(m, n))
        if values.requires_grad:
            values._accumulate((a3.transpose(0, 2, 1) @ g3).reshape(values.shape))

    return _node((a3 @ v3).reshape((m, -1)[:values.ndim]), (alpha, values),
                 "attention_context", bw)


def tanh(a) -> Tensor:
    a = _as_tensor(a)
    y = np.tanh(a.data)

    def bw(g):
        if a.requires_grad:
            a._accumulate(g * (1.0 - y * y))

    return _node(y, (a,), "tanh", bw)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # 1/(1+e) for x >= 0 and e/(1+e) below, with e = exp(-|x|) <= 1: no overflow; the
    # numerator max(e, x >= 0) picks without a branch that random signs mispredict
    e = np.exp(-np.abs(x))
    return np.maximum(e, x >= 0) / (1.0 + e)


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    y = _sigmoid(a.data)

    def bw(g):
        if a.requires_grad:
            a._accumulate(g * y * (1.0 - y))

    return _node(y, (a,), "sigmoid", bw)


def log(a) -> Tensor:
    a = _as_tensor(a)
    if np.any(a.data <= 0):
        raise TensorError("log of non-positive value")

    def bw(g):
        if a.requires_grad:
            a._accumulate(g / a.data)

    return _node(np.log(a.data), (a,), "log", bw)


def maxout(a) -> Tensor:
    """The larger of each pair of adjacent columns of a 2-d tensor, halving
    its width; a tie routes the gradient to the pair's first column."""
    a = _as_tensor(a)
    if a.ndim != 2 or a.shape[1] % 2:
        raise TensorError(f"maxout requires a 2-d tensor of even width, got shape {a.shape}")
    first, second = a.data[:, 0::2], a.data[:, 1::2]
    take = first >= second

    def bw(g):
        if a.requires_grad:
            buf = a._grad_buffer()
            buf[:, 1::2] += g * ~take
            buf[:, 0::2] += g * take

    # on x86 np.maximum returns its second operand when -0.0 meets 0.0, so the
    # first column goes second and keeps its zero, as np.where(take, first, second)
    return _node(np.maximum(second, first), (a,), "maxout", bw)


def clamp_min(a, floor: float) -> Tensor:
    """max(a, floor); gradient flows only where a > floor."""
    a = _as_tensor(a)
    keep = a.data > floor

    def bw(g):
        if a.requires_grad:
            a._accumulate(g * keep)

    return _node(np.maximum(a.data, floor), (a,), "clamp_min", bw)


def softmax(a) -> Tensor:
    """Stable softmax over the last axis."""
    a = _as_tensor(a)
    x = a.data
    m = np.max(x, axis=-1, keepdims=True)
    e = np.exp(x - m)
    y = e / e.sum(axis=-1, keepdims=True)

    def bw(g):
        if a.requires_grad:
            inner = (g * y).sum(axis=-1, keepdims=True)
            a._accumulate(y * (g - inner))

    return _node(y, (a,), "softmax", bw)


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    tensors = _operands(tuple(tensors))
    if not tensors:
        raise TensorError("concat of empty list")
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t._accumulate(g[tuple(idx)])

    return _node(np.concatenate([t.data for t in tensors], axis=axis), tensors, "concat", bw)


def gather_rows(table: Tensor, ids) -> Tensor:
    """Select rows `ids` from a 2-d table, or entries from a 1-d one;
    backward scatters additively."""
    table = _as_tensor(table)
    ids = np.asarray(ids, dtype=np.int64)
    if table.ndim not in (1, 2):
        raise TensorError("gather_rows expects a 1-d or 2-d table")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise TensorError(f"gather_rows: id out of range for table with {table.shape[0]} rows")

    def bw(g):
        if table.requires_grad:
            np.add.at(table._grad_buffer(), ids, g)

    return _node(table.data[ids], (table,), "gather", bw)


def embed(tables: Sequence[Tensor], ids) -> Tensor:
    """Row ids[i, k] of 2-d table k for every column k, the tables' rows
    side by side: (N, their total width) from (N, len(tables)) ids.
    Backward scatters additively into each table, the last table first, as
    one `gather_rows` per table and a `concat` would."""
    tables = _operands(tuple(tables))
    ids = np.asarray(ids, dtype=np.int64)
    if {t.ndim for t in tables} != {2} or ids.shape[1:] != (len(tables),):
        raise TensorError(f"embed: {ids.shape} ids for {len(tables)} tables, each 2-d")
    for k, t in enumerate(tables):
        if ids.size and (ids[:, k].min() < 0 or ids[:, k].max() >= t.shape[0]):
            raise TensorError(f"embed: id out of range in column {k}, a table of {t.shape[0]} rows")
    offsets = np.cumsum([0] + [t.shape[1] for t in tables])

    def bw(g):
        for k in reversed(range(len(tables))):
            if tables[k].requires_grad:
                np.add.at(tables[k]._grad_buffer(), ids[:, k], g[:, offsets[k]:offsets[k + 1]])

    return _node(np.concatenate([t.data[ids[:, k]] for k, t in enumerate(tables)], axis=1),
                 tables, "embed", bw)


def take_along(a: Tensor, ids) -> Tensor:
    """Entry ids[i] of row i of a 2-d tensor, as an (m,) vector."""
    a = _as_tensor(a)
    ids = np.asarray(ids, dtype=np.int64)
    if a.ndim != 2 or ids.shape != a.shape[:1]:
        raise TensorError(f"take_along: {ids.shape} ids for a tensor of shape {a.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= a.shape[1]):
        raise TensorError(f"take_along: id out of range for rows of width {a.shape[1]}")
    rows = np.arange(len(ids))

    def bw(g):
        if a.requires_grad:
            a._grad_buffer()[rows, ids] += g

    return _node(a.data[rows, ids], (a,), "take_along", bw)


def sum_(a: Tensor, axis: Optional[int] = None) -> Tensor:
    a = _as_tensor(a)

    def bw(g):
        if a.requires_grad:
            if axis is not None:
                g = np.expand_dims(g, axis)
            a._accumulate(np.broadcast_to(g, a.shape).copy())

    return _node(a.data.sum(axis=axis), (a,), "sum", bw)


def mean_(a: Tensor) -> Tensor:
    n = _as_tensor(a).size
    return mul(sum_(a), 1.0 / n)


def dropout_keep(rng: np.random.Generator, shape, p: float, dtype=np.float64) -> np.ndarray:
    """Inverted-dropout multipliers from one `rng.random(shape)` draw: 0
    where dropped, 1/(1-p) where kept."""
    if not 0.0 <= p < 1.0:
        raise TensorError(f"dropout rate must be in [0, 1), got {p}")
    return ((rng.random(shape) >= p) / (1.0 - p)).astype(dtype, copy=False)


def dropout(a: Tensor, keep: Optional[np.ndarray]) -> Tensor:
    """Inverted dropout with multipliers drawn by `dropout_keep`; None (eval
    mode, or no dropout) leaves `a` as it is."""
    a = _as_tensor(a)
    if keep is None:
        return a
    if keep.shape != a.shape:
        raise TensorError(f"dropout multipliers {keep.shape} do not match input {a.shape}")
    keep = keep.astype(a.data.dtype, copy=False)

    def bw(g):
        if a.requires_grad:
            a._accumulate(g * keep)

    return _node(a.data * keep, (a,), "dropout", bw)


CHECKPOINT_FORMAT_VERSION = 3


@contextmanager
def replaced_on_success(path):
    """A temporary path next to `path` that replaces it only when the block
    completes; on failure it is deleted and `path` is left as it was."""
    target = Path(path)
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        yield tmp
        os.replace(tmp, target)
    finally:
        tmp.unlink(missing_ok=True)


class ParamStore:
    """Named trainable tensors of one dtype, with lossless checkpoint round-trips.

    `pack`, run by a load or the first `zero_grad`, `adam_step` or `EmaState`,
    makes each parameter's data and grad views of two flat buffers, `data`
    and `grad`, at the same offsets, so the optimizer walks each once.
    """

    def __init__(self, dtype=np.float64, rng: Optional[np.random.Generator] = None):
        self.dtype = np.dtype(dtype)
        self.rng = rng
        self._params: dict[str, Tensor] = {}
        self.data = self.grad = None   # the flat buffers, once packed

    def add(self, name: str, data) -> Tensor:
        """Add a parameter holding `data` in the store's dtype, cast if it
        has another and otherwise the array itself, such as a view of a
        `uniform` draw, until `pack` copies it into the flat buffer."""
        if name in self._params:
            raise TensorError(f"duplicate parameter name {name!r}")
        if self.data is not None:
            raise TensorError(f"cannot add parameter {name!r} to a packed store")
        t = Tensor(np.asarray(data, dtype=self.dtype), requires_grad=True)
        self._params[name] = t
        return t

    def draw(self, name: str, shape, scale: float) -> Tensor:
        """Add a parameter of `uniform(shape, scale)` weights."""
        return self.add(name, self.uniform(shape, scale))

    def uniform(self, shape, scale: float) -> np.ndarray:
        """uniform(-scale, scale) weights in the store's dtype, drawn in
        float64 from the store's generator and cast: every initial weight is
        drawn here.  The draw goes in slices of DRAW_SLICE entries through
        one float64 scratch, -scale + 2 scale u as `rng.uniform` computes
        it, so it gives `rng.uniform(-scale, scale, shape)`'s bytes without
        a full-size float64 temporary.  Without a generator it is zeros,
        which only `QgModel.load` uses, before the checkpoint's data
        replaces them."""
        if self.rng is None:
            return np.zeros(shape, self.dtype)
        out = np.empty(shape, self.dtype)
        flat, scratch = out.reshape(-1), np.empty(DRAW_SLICE)
        for lo in range(0, flat.size, DRAW_SLICE):
            u = scratch[:flat.size - lo]
            self.rng.random(out=u)
            u *= 2 * scale
            u += -scale
            flat[lo:lo + len(u)] = u
        return out

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def items(self):
        return self._params.items()

    def tensors(self):
        return list(self._params.values())

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Each parameter's view of a flat array laid out like `data`: 1-d, of
        the store's dtype, with one entry per parameter entry."""
        ends = np.cumsum([t.data.size for t in self._params.values()], dtype=np.int64)
        size = int(ends[-1]) if len(ends) else 0
        if flat.ndim != 1 or flat.size != size or flat.dtype != self.dtype:
            raise TensorError(f"a flat {flat.dtype} array of shape {flat.shape} ({flat.size} entries) "
                              f"does not lay out the store's {size} entries of {self.dtype}")
        return {name: flat[end - t.data.size:end].reshape(t.data.shape)
                for (name, t), end in zip(self._params.items(), ends)}

    def layout(self) -> list[list]:
        """One [name, shape] per parameter, in store order."""
        return [[name, list(t.data.shape)] for name, t in self._params.items()]

    def pack(self, data: Optional[np.ndarray] = None) -> None:
        """Move every parameter's data and grad into its views of `data` and
        `grad`, or of a flat `data` given to an unpacked store; idempotent.  A
        view rebound since raises, as the walks over the buffers miss it."""
        if self.data is None:
            size = sum(t.data.size for t in self._params.values())
            self.data = np.empty(size, self.dtype) if data is None else data
            self.grad = np.zeros(size, self.dtype)
            for t, w, g in zip(self.tensors(), self.views(self.data).values(),
                               self.views(self.grad).values()):
                if data is None:
                    w[...] = t.data
                if t.grad is not None:   # `grad` starts zeroed: writing zeros would touch its pages
                    g[...] = t.grad
                t.data, t.grad = w, g
        for name, t in self._params.items():
            if t.data.base is not self.data or getattr(t.grad, "base", None) is not self.grad:
                raise TensorError(f"parameter {name!r} was rebound after packing; write in place")

    def zero_grad(self) -> None:
        self.pack()
        self.grad.fill(0)

    def save(self, path, meta: Optional[dict] = None, data: Optional[np.ndarray] = None) -> None:
        """Write a zip of two stored members, each with ZipInfo's fixed default
        timestamp: `meta.json`, `meta` plus the format version, dtype and
        layout, and `data`, the bytes of `data`, a flat array laid out like
        `self.data`, or else of the parameters.  A failed save keeps the old file."""
        arrays = self.views(data).values() if data is not None else [t.data for t in self.tensors()]
        header = dict(meta or {}, format_version=CHECKPOINT_FORMAT_VERSION, dtype=self.dtype.str,
                      layout=self.layout())
        with replaced_on_success(path) as tmp, zipfile.ZipFile(tmp, "w") as zf:
            zf.writestr(zipfile.ZipInfo("meta.json"), json.dumps(header, sort_keys=True))
            with zf.open(zipfile.ZipInfo("data"), "w") as member:
                for array in arrays:
                    member.write(np.ascontiguousarray(array))

    @staticmethod
    @contextmanager
    def read(path):
        """Yield the checkpoint's meta and `fill(store)`, which packs a store
        built from it around the file's data once its layout and dtype match."""
        try:
            zf = zipfile.ZipFile(path, "r")
        except zipfile.BadZipFile:
            raise CheckpointError(f"{path} is not a checkpoint (not a zip file)") from None
        with zf:
            if "meta.json" not in zf.namelist():
                raise CheckpointError(f"{path} has no meta.json member")
            try:
                meta = json.loads(zf.read("meta.json").decode("utf-8"))
            except (zipfile.BadZipFile, zlib.error, ValueError, EOFError) as exc:
                raise CheckpointError(f"{path} has a meta.json that is damaged or not JSON: {exc}") from None
            if not isinstance(meta, dict):
                raise CheckpointError(f"{path} has a meta.json that is not a JSON object")
            if meta.get("format_version") != CHECKPOINT_FORMAT_VERSION:
                raise CheckpointError(f"{path} has unsupported checkpoint format version "
                                      f"{meta.get('format_version')}, expected {CHECKPOINT_FORMAT_VERSION}")
            yield meta, lambda store: store._fill(zf, path, meta)

    def _fill(self, zf: zipfile.ZipFile, path, meta: dict) -> None:
        layout, ours = meta.get("layout"), self.layout()
        if not (isinstance(layout, list) and all(
                isinstance(e, list) and len(e) == 2 and isinstance(e[0], str) for e in layout)):
            raise CheckpointError(f"{path} has a meta.json whose 'layout' is not a list of [name, shape] pairs")
        if layout != ours:
            theirs = dict(layout)
            raise CheckpointError(
                f"{path} is not laid out as the model: missing parameters "
                f"{[n for n, _ in ours if n not in theirs]}, unknown parameters "
                f"{[n for n in theirs if n not in self._params]}, shape mismatch for "
                f"{[(n, theirs[n], s) for n, s in ours if theirs.get(n, s) != s]}")
        if meta.get("dtype") != self.dtype.str:
            raise CheckpointError(f"{path} has data of dtype {meta.get('dtype')!r}, the model {self.dtype.str!r}")
        flat = np.empty(sum(t.data.size for t in self.tensors()), self.dtype)
        raw = flat.view(np.uint8)
        if "data" not in zf.namelist() or zf.getinfo("data").file_size != raw.size:
            raise CheckpointError(f"{path} has no data member of the {raw.size} bytes its layout needs")
        try:
            with zf.open("data") as member:   # in 4 MB reads: one 53 MB read took twice as long
                for lo in range(0, raw.size, 1 << 22):
                    member.readinto(raw[lo:lo + (1 << 22)])
        except (zipfile.BadZipFile, zlib.error, EOFError) as exc:
            raise CheckpointError(f"{path} has a data member that is damaged: {exc}") from None
        self.pack(flat)
