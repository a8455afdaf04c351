"""Minimal dense-tensor library with reverse-mode automatic differentiation.

Tensors wrap numpy arrays (0-, 1- or 2-dimensional) and record the ops that
produced them so that `backward` on a scalar loss fills the `grad` buffer of
every tensor created with `requires_grad=True`.  Gradients accumulate
additively; callers zero them between optimization steps.

Broadcasting in the arithmetic ops is restricted to: equal shapes, scalar vs
tensor, and row-vector (n,) against matrix (m, n).
"""

from __future__ import annotations

import io
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

# Entries of one scratch slice for passes that stream a large elementwise
# computation through L2 instead of DRAM: 256 KB in float64, so the few
# slices one pass touches fit a 2 MB L2 cache together.
SLICE = 1 << 15


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
        # (g, x) rows of `linear` and `gru_cell` uses not yet summed into
        # grad, by column range; see `_flush_outer`
        self._outer: Optional[dict] = None

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
        """This pass's grad array, zero-filled on first use, for ops that
        scatter into part of it."""
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        return self.grad

    def _defer_outer(self, cols: tuple[int, int], g: np.ndarray, x: np.ndarray) -> None:
        """Hold a product's (g, x) rows for its weight columns `cols` until
        `_flush_outer`."""
        if self._outer is None:
            self._outer = {}
        self._outer.setdefault(cols, []).append((g, x))

    def _flush_outer(self) -> None:
        """Add every deferred contribution sum_i g_i.T @ x_i to its
        columns, one product of the stacked rows per column range."""
        outer, self._outer = self._outer, None
        for (lo, hi), rows in outer.items():
            gs, xs = zip(*rows)
            total = (np.concatenate(gs).T @ np.concatenate(xs)).astype(self.data.dtype, copy=False)
            if self.grad is None and hi - lo == self.data.shape[1]:
                self.grad = total
            else:
                self._grad_buffer()[:, lo:hi] += total

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Backpropagate from this scalar through the recorded graph.

        Repeated calls without zeroing accumulate into `grad`: each pass
        computes a fresh d(loss)/d(tensor) and adds it to what was there.

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
        # stash pre-existing grads so this pass propagates only its own seed
        stashed = {}
        for t in nodes:
            if t.grad is not None:
                stashed[id(t)] = t.grad
                t.grad = None
        self._accumulate(np.ones_like(self.data))
        for t in nodes:
            if t._outer is not None:
                t._flush_outer()
            if t._backward is not None and t.grad is not None:
                t._backward(t.grad)
        for t in nodes:
            prior = stashed.get(id(t))
            if prior is not None:
                t.grad = prior if t.grad is None else t.grad + prior

    def __getitem__(self, key):
        return slice_(self, key)


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


def sub(a, b) -> Tensor:
    a, b = _operands((a, b))
    _check_broadcast(a.data, b.data, "sub")

    def bw(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g, b.shape))

    return _node(a.data - b.data, (a, b), "sub", bw)


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


def linear(x: Tensor, w: Tensor, cols: Optional[tuple[int, int]] = None) -> Tensor:
    """x @ w.T for an (m, k) input and an (n, k) weight; w is read in place,
    never transposed into a copy.

    `cols=(lo, hi)` multiplies x by the weight's columns lo:hi only, a view,
    so one parameter can hold the blocks of a product over [x; h] that are
    computed at different times.

    Backward defers w's gradient g.T @ x: the (g, x) rows wait on w, grouped
    by column range, until `Tensor.backward` reaches w and sums every use of
    each range in one GEMM, so an unrolled recurrence costs one product per
    weight and range, not one per step.
    """
    x, w = _operands((x, w))
    if w.ndim != 2 or x.ndim != 2:
        raise TensorError(f"linear: input {x.shape} does not match weight {w.shape}")
    lo, hi = cols if cols is not None else (0, w.shape[1])
    if not 0 <= lo <= hi <= w.shape[1] or x.shape[1] != hi - lo:
        raise TensorError(f"linear: input {x.shape} does not match columns {lo}:{hi} "
                          f"of weight {w.shape}")
    full = hi - lo == w.shape[1]

    def bw(g):
        if x.requires_grad:
            x._accumulate(g @ (w.data if full else w.data[:, lo:hi]))
        if w.requires_grad:
            w._defer_outer((lo, hi), g, x.data)

    return _node(x.data @ (w.data if full else w.data[:, lo:hi]).T, (x, w), "linear", bw)


def gru_cell(gates: Sequence[Tensor], weights: Sequence[Tensor], h_prev: Tensor,
             context: Optional[Tensor] = None, rows: Optional[np.ndarray] = None) -> Tensor:
    """One GRU step over (m, hidden) state rows, as one graph node.

        z  = sigmoid(x_z + [c; h] W_z'),   r = sigmoid(x_r + [c; h] W_r')
        h~ = tanh(x_h + [c; r h] W_h'),    h' = (1 - z) h + z h~

    `weights` are (W_z, W_r, W_h), (hidden, k) each; W' is a weight's last
    columns, as many as [c; h] is wide, and the context c is optional.
    `gates` are x_z, x_r and x_h, the pre-activation shares of the weights'
    first columns: rows `rows` of each (an index array with one distinct
    row per state, or a slice), read without a gather node, or whole
    tensors that broadcast against the state, such as a beam step's
    (m, hidden) shares.

    The forward values are those of the graph of `linear(..., cols)`, `add`,
    `sigmoid`, `tanh`, `mul` and `sub` nodes, and backward adds gradients
    in that graph's reverse-walk order, with the weights' (g, x) rows
    deferred under the same column ranges, so both are bit-identical to it.
    """
    parents = _operands((*gates, *weights, h_prev) + (() if context is None else (context,)))
    gates, (w_z, w_r, w_h), h_prev = parents[:3], parents[3:6], parents[6]
    context = parents[7] if context is not None else None
    hidden, width = h_prev.shape[-1], w_z.shape[-1]
    c = 0 if context is None else context.shape[-1]
    lo = width - c - hidden
    if (h_prev.ndim != 2 or lo < 0 or any(w.shape != (hidden, width) for w in (w_z, w_r, w_h))
            or (context is not None and context.shape != (len(h_prev.data), c))):
        raise TensorError(f"gru_cell: state {h_prev.shape}, context "
                          f"{getattr(context, 'shape', None)} and weights {w_z.shape} do not match")
    cols = (lo, width)
    xz, xr, xh = (x.data if rows is None else x.data[rows] for x in gates)
    h = h_prev.data

    def stacked(s):   # [c; s], the input of the weights' last columns
        return s if context is None else np.concatenate([context.data, s], axis=-1)

    def block(w):
        return w.data if lo == 0 else w.data[:, lo:]

    zr_in = stacked(h)
    z = _sigmoid(xz + zr_in @ block(w_z).T)
    r = _sigmoid(xr + zr_in @ block(w_r).T)
    cand_in = stacked(r * h)
    h_cand = np.tanh(xh + cand_in @ block(w_h).T)
    omz = 1.0 - z

    def to_input(x: Tensor, g: np.ndarray) -> None:
        if x.requires_grad:
            if rows is None:
                x._accumulate(_unbroadcast(g, x.shape))
            else:
                x._grad_buffer()[rows] += g

    c_grad = context is not None and context.requires_grad

    def unstack(g):   # the gradient of [c; s]: c's share to the context, s's returned
        if c_grad:
            context._accumulate(g[:, :c])
        return g[:, c:]

    def bw(g):
        # the nodes of the unfused graph, last created first
        dz = g * h_cand                        # z h~
        d_cand = g * z
        if h_prev.requires_grad:               # (1 - z) h
            h_prev._accumulate(g * omz)
        dz -= g * h                            # 1 - z
        d_cand *= 1.0 - h_cand * h_cand        # tanh
        to_input(gates[2], d_cand)
        if w_h.requires_grad:
            w_h._defer_outer(cols, d_cand, cand_in)
        d_rh = unstack(d_cand @ block(w_h))    # [c; r h] W_h'
        if h_prev.requires_grad:               # r h
            h_prev._accumulate(d_rh * r)
        dr = d_rh * h * r * (1.0 - r)          # sigmoid
        dz = dz * z * (1.0 - z)
        for x, d, w in ((gates[1], dr, w_r), (gates[0], dz, w_z)):
            to_input(x, d)
            if w.requires_grad:
                w._defer_outer(cols, d, zr_in)
        if h_prev.requires_grad or c_grad:     # [c; h] W_r', then [c; h] W_z'
            d_r, d_z = dr @ block(w_r), dz @ block(w_z)
            if context is None:                # each product's own share of h
                h_prev._accumulate(d_r)
                h_prev._accumulate(d_z)
            else:                              # summed in [c; h] before it splits
                d_h = unstack(d_r + d_z)
                if h_prev.requires_grad:
                    h_prev._accumulate(d_h)

    return _node(omz * h + z * h_cand, parents, "gru_cell", bw)


def attention_scores(keys: Tensor, query: Tensor, v: Tensor, blocks: int = 1) -> Tensor:
    """Additive attention scores v . tanh(key + query), (m, n).

    keys is (blocks * n, a), `blocks` groups of n rows, and v is (a,).  The
    (m, a) query rows split into `blocks` equal groups in order, and group b
    scores key group b only: a beam is one block of K rows, a training batch
    B blocks of one row each.  The (m, n, a) activation never exists whole:
    the forward pass streams it through one scratch buffer of at most SLICE
    entries (whole blocks when a block fits, else rows of one block), and
    backward recomputes it, so no 3-d tensor enters the graph.
    """
    keys, query, v = _operands((keys, query, v))
    if (keys.ndim != 2 or query.ndim != 2 or v.shape != keys.shape[1:]
            or query.shape[1] != keys.shape[1] or blocks < 1
            or keys.shape[0] % blocks or query.shape[0] % blocks):
        raise TensorError(f"attention_scores: keys {keys.shape}, query {query.shape}, "
                          f"v {v.shape} and {blocks} blocks do not match")
    (m, a), n = query.shape, keys.shape[0] // blocks
    per = m // blocks                       # query rows per block
    rows = max(1, SLICE // max(1, n * a))   # query rows per chunk
    if per <= rows:   # whole blocks per chunk
        step_r = max(1, per)
        step_b = min(blocks, rows // step_r)
    else:             # rows of one block per chunk
        step_b, step_r = 1, rows
    k4, q4 = keys.data.reshape(blocks, 1, n, a), query.data.reshape(blocks, per, 1, a)
    scratch = np.empty(step_b * step_r * n * a, query.data.dtype)
    out = np.empty((blocks, per, n), query.data.dtype)
    for b in range(0, blocks, step_b):
        for r in range(0, per, step_r):
            kc, qc = k4[b:b + step_b], q4[b:b + step_b, r:r + step_r]
            t = scratch[:len(kc) * qc.shape[1] * n * a].reshape(len(kc), qc.shape[1], n, a)
            np.tanh(np.add(kc, qc, out=t), out=t)
            np.matmul(t, v.data, out=out[b:b + step_b, r:r + step_r])

    def bw(g):
        t = np.add(k4, q4).reshape(m, n, a)   # the forward activation again
        np.tanh(t, out=t)
        if v.requires_grad:
            v._accumulate(np.tensordot(g, t, axes=2))
        d = t   # g v (1 - t t), overwriting t a chunk of rows at a time
        for r in range(0, m, rows):
            dc = d[r:r + rows]
            np.subtract(1.0, np.multiply(dc, dc, out=dc), out=dc)
            dc *= g[r:r + rows, :, None] * v.data
        if keys.requires_grad:
            keys._accumulate(d.reshape(blocks, -1, n, a).sum(axis=1).reshape(keys.shape))
        if query.requires_grad:
            query._accumulate(d.sum(axis=1))

    return _node(out.reshape(m, n), (keys, query, v), "attention_scores", bw)


def attention_context(alpha: Tensor, values: Tensor) -> Tensor:
    """Attention-weighted sums of value rows, (m, d).

    values is (blocks * n, d) for (m, n) weights alpha.  The rows of alpha
    split into `blocks` equal groups in order, and group b weights value
    block b only, as in `attention_scores`.  The (blocks, m / blocks, d)
    products stay inside the node.
    """
    alpha, values = _operands((alpha, values))
    n = alpha.shape[1] if alpha.ndim == 2 else 0
    blocks = values.shape[0] // n if values.ndim == 2 and n else 0
    if blocks == 0 or values.shape[0] != blocks * n or alpha.shape[0] % blocks:
        raise TensorError(f"attention_context: weights {alpha.shape} do not match "
                          f"values {values.shape} in equal blocks")
    m = alpha.shape[0]
    a3 = alpha.data.reshape(blocks, -1, n)
    v3 = values.data.reshape(blocks, n, -1)

    def bw(g):
        g3 = g.reshape(blocks, -1, g.shape[1])
        if alpha.requires_grad:
            alpha._accumulate((g3 @ v3.transpose(0, 2, 1)).reshape(m, n))
        if values.requires_grad:
            values._accumulate((a3.transpose(0, 2, 1) @ g3).reshape(values.shape))

    return _node((a3 @ v3).reshape(m, -1), (alpha, values), "attention_context", bw)


def tanh(a) -> Tensor:
    a = _as_tensor(a)
    y = np.tanh(a.data)

    def bw(g):
        if a.requires_grad:
            a._accumulate(g * (1.0 - y * y))

    return _node(y, (a,), "tanh", bw)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # 1/(1+e) for x >= 0 and e/(1+e) below, with e = exp(-|x|) <= 1: no overflow
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


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


def maximum(a, b) -> Tensor:
    """Elementwise max; ties route the gradient to the first argument."""
    a, b = _operands((a, b))
    _check_broadcast(a.data, b.data, "maximum")
    take_a = a.data >= b.data

    def bw(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * take_a, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * ~take_a, b.shape))

    return _node(np.where(take_a, a.data, b.data), (a, b), "maximum", bw)


def clamp_min(a, floor: float) -> Tensor:
    """max(a, floor); gradient flows only where a > floor."""
    a = _as_tensor(a)
    keep = a.data > floor

    def bw(g):
        if a.requires_grad:
            a._accumulate(g * keep)

    return _node(np.maximum(a.data, floor), (a,), "clamp_min", bw)


def softmax(a, mask: Optional[np.ndarray] = None) -> Tensor:
    """Stable softmax over the last axis; masked entries are exactly 0.

    `mask` is a boolean array (True = keep) matching `a`.  Raises if every
    entry of a row is masked.
    """
    a = _as_tensor(a)
    x = a.data
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != x.shape:
            raise TensorError(f"softmax mask shape {mask.shape} != input shape {x.shape}")
        if not mask.any(axis=-1).all():
            raise TensorError("softmax: all entries masked")
        x = np.where(mask, x, -np.inf)
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


def slice_(a: Tensor, key) -> Tensor:
    """Basic (integer/slice) indexing with gradient scatter on backward."""
    a = _as_tensor(a)

    def bw(g):
        if a.requires_grad:
            a._grad_buffer()[key] += g

    return _node(a.data[key].copy(), (a,), "slice", bw)


def gather_rows(table: Tensor, ids) -> Tensor:
    """Select rows `ids` from a 2-d table; backward scatters additively."""
    table = _as_tensor(table)
    ids = np.asarray(ids, dtype=np.int64)
    if table.ndim != 2:
        raise TensorError("gather_rows expects a 2-d table")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise TensorError(f"gather_rows: id out of range for table with {table.shape[0]} rows")

    def bw(g):
        if table.requires_grad:
            np.add.at(table._grad_buffer(), ids, g)

    return _node(table.data[ids], (table,), "gather", bw)


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


CHECKPOINT_FORMAT_VERSION = 1


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
    """Named trainable tensors of one dtype, with lossless checkpoint round-trips."""

    def __init__(self, dtype=np.float64):
        self.dtype = np.dtype(dtype)
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, data) -> Tensor:
        if name in self._params:
            raise TensorError(f"duplicate parameter name {name!r}")
        # C order: the optimizer updates parameters in place through 1-d views
        t = Tensor(np.asarray(data, dtype=self.dtype, order="C"), requires_grad=True)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self):
        return list(self._params)

    def items(self):
        return self._params.items()

    def tensors(self):
        return list(self._params.values())

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.zero_grad()

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self._params.items()}

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        extra = sorted(set(arrays) - set(self._params))
        if extra:
            raise CheckpointError(f"checkpoint has unknown parameters {extra}")
        for name, t in self._params.items():
            if name not in arrays:
                raise CheckpointError(f"checkpoint missing parameter {name!r}")
            if arrays[name].shape != t.data.shape:
                raise CheckpointError(f"checkpoint shape mismatch for {name!r}: "
                                      f"{arrays[name].shape} vs model {t.data.shape}")
            if not np.issubdtype(arrays[name].dtype, np.floating):
                raise CheckpointError(f"checkpoint parameter {name!r} has dtype "
                                      f"{arrays[name].dtype}, not a floating-point type")
            t.data = arrays[name].astype(t.data.dtype, order="C")

    def save(self, path, meta: Optional[dict] = None,
             arrays: Optional[dict[str, np.ndarray]] = None) -> None:
        """Write an .npz-style zip: one .npy per parameter, its data or
        `arrays[name]` in its place, plus a JSON meta entry.  An interrupted
        save leaves an earlier file at `path` as it was."""
        header = dict(meta or {})
        header["format_version"] = CHECKPOINT_FORMAT_VERSION
        with replaced_on_success(path) as tmp, zipfile.ZipFile(tmp, "w", zipfile.ZIP_STORED) as zf:
            zf.writestr("meta.json", json.dumps(header, sort_keys=True))
            for name, t in self._params.items():
                buf = io.BytesIO()
                np.save(buf, t.data if arrays is None else arrays[name], allow_pickle=False)
                zf.writestr(f"params/{name}.npy", buf.getvalue())

    @staticmethod
    def read(path) -> tuple[dict[str, np.ndarray], dict]:
        """Return (arrays, meta) from a checkpoint written by `save`."""
        arrays: dict[str, np.ndarray] = {}
        try:
            zf = zipfile.ZipFile(path, "r")
        except zipfile.BadZipFile:
            raise CheckpointError(f"{path} is not a checkpoint (not a zip file)") from None

        def parse(entry: str, kind: str, load: Callable[[bytes], object]):
            """`load` of an entry's bytes; an entry that is damaged, or is not
            `kind`, raises a CheckpointError that names it."""
            try:
                return load(zf.read(entry))
            except (zipfile.BadZipFile, zlib.error, ValueError, EOFError) as exc:
                raise CheckpointError(f"{path} has a {entry} that is damaged or not {kind}: "
                                      f"{exc}") from None

        with zf:
            if "meta.json" not in zf.namelist():
                raise CheckpointError(f"{path} has no meta.json")
            meta = parse("meta.json", "JSON", lambda raw: json.loads(raw.decode("utf-8")))
            if not isinstance(meta, dict):
                raise CheckpointError(f"{path} has a meta.json that is not a JSON object")
            if meta.get("format_version") != CHECKPOINT_FORMAT_VERSION:
                raise CheckpointError(f"unsupported checkpoint format version {meta.get('format_version')}, "
                                      f"expected {CHECKPOINT_FORMAT_VERSION}")
            for entry in zf.namelist():
                if entry.startswith("params/") and entry.endswith(".npy"):
                    arrays[entry[len("params/"):-len(".npy")]] = parse(
                        entry, "a .npy array",
                        lambda raw: np.load(io.BytesIO(raw), allow_pickle=False))
        return arrays, meta
