"""`ad.gru_cell` against the node-by-node GRU step it replaces: the same
bytes in the forward output and in every gradient, for the encoder's,
the teacher-forced decoder's and the beam's use of it."""

import numpy as np
import pytest

import qgen.autodiff as ad
from qgen.autodiff import ParamStore, Tensor, TensorError
from qgen.encoder import GruCellParams, gru_inputs, gru_step

from conftest import assert_grads_match
from reference import gru_step_unfused

HIDDEN, X_DIM, C_DIM, BATCH, STEPS = 5, 3, 4, 2, 3
# each step's rows of the input shares, read in place: out of order, distinct
# within a step, row 3 read at two steps and row 2 never
INDEX_ROWS = np.array([[3, 0], [5, 3], [1, 4]])


def fused(gates, h, p, context, rows):
    return gru_step(gates, h, p, context=context, rows=rows)


def unfused(gates, h, p, context, rows):
    return gru_step_unfused(gates if rows is None else [g[rows] for g in gates], h, p, context)


class _Case:
    """Fresh leaves of one dtype from fixed arrays, so the fused and the
    unfused step build their graphs over equal, separate tensors."""

    def __init__(self, dtype, context_dim, seed=0):
        rng = np.random.default_rng(seed)
        self.store = ParamStore(dtype)
        self.p = GruCellParams.create(self.store, "g", X_DIM + context_dim, HIDDEN, rng, scale=0.5)
        for name in ("b_z", "b_r", "b_h"):   # nonzero biases
            self.store[f"g.{name}"].data[:] = rng.normal(size=HIDDEN)

        def leaf(*shape):
            return Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)

        self.x = leaf(STEPS * BATCH, X_DIM)
        self.h0 = leaf(BATCH, HIDDEN)
        self.c0 = leaf(BATCH, context_dim)
        self.w_c = leaf(context_dim, HIDDEN)
        self.head = rng.normal(size=(STEPS * BATCH, HIDDEN)).astype(dtype)

    def leaves(self):
        return [self.x, self.h0, self.c0, self.w_c, *self.store.tensors()]


def _recurrence(step, case, with_context, index_rows):
    """STEPS steps over the rows of every step's input shares, as
    `encoder._direction` (no context) and `decoder.teacher_forced_unroll`
    (a context that each state feeds into the next step) run them: the rows
    `INDEX_ROWS[i]` of the shares themselves, or a slice of their step-major
    copy.  Each state also feeds the stacked states made after the loop, so
    a state's gradient has a part before its step runs and parts after."""
    gates = gru_inputs(case.x, case.p)
    if not index_rows:
        gates = [ad.gather_rows(g, np.arange(STEPS * BATCH)) for g in gates]
    h, c = case.h0, case.c0 if with_context else None
    states = []
    for i in range(STEPS):
        rows = INDEX_ROWS[i] if index_rows else slice(i * BATCH, (i + 1) * BATCH)
        h = step(gates, h, case.p, c, rows)
        states.append(h)
        if with_context:
            c = ad.tanh(ad.linear(h, case.w_c))
    out = ad.concat(states)
    loss = ad.add(ad.sum_(ad.mul(ad.tanh(out), case.head)), ad.sum_(ad.mul(case.h0, case.h0)))
    if with_context:
        loss = ad.add(loss, ad.sum_(ad.mul(c, c)))
    return out, loss, gates


def _beam_step(step, case):
    """`decoder.decode_step`: whole (K, hidden) input shares, one row per
    hypothesis, and no context."""
    gates = gru_inputs(case.x[:BATCH], case.p)
    out = step(gates, case.h0, case.p, None, None)
    return out, ad.sum_(ad.mul(ad.tanh(out), case.head[:BATCH])), gates


def _run(step, dtype, shape, passes, index_rows):
    case = _Case(dtype, C_DIM if shape == "decoder" else 0)
    if shape == "beam":
        out, loss, gates = _beam_step(step, case)
    else:
        out, loss, gates = _recurrence(step, case, shape == "decoder", index_rows)
    for _ in range(passes):
        loss.backward()
    return out.data, [t.grad for t in case.leaves() + gates]


def _assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _assert_fused_matches_unfused(dtype, shape, passes, index_rows):
    out, grads = _run(fused, dtype, shape, passes, index_rows)
    want_out, want_grads = _run(unfused, dtype, shape, passes, index_rows)
    _assert_same_bytes(out, want_out)
    assert len(grads) == len(want_grads)
    for k, (got, want) in enumerate(zip(grads, want_grads)):
        assert (got is None) == (want is None), k
        if got is not None:
            _assert_same_bytes(got, want)
    if shape == "decoder":   # the context leaf is reached
        assert grads[2] is not None


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("shape", ["encoder", "decoder", "beam"])
@pytest.mark.parametrize("passes", [1, 2])
def test_fused_step_is_byte_identical_to_the_node_graph(dtype, shape, passes):
    _assert_fused_matches_unfused(dtype, shape, passes, index_rows=False)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("shape", ["encoder", "decoder"])
@pytest.mark.parametrize("passes", [1, 2])
def test_fused_step_reading_index_rows_is_byte_identical(dtype, shape, passes):
    _assert_fused_matches_unfused(dtype, shape, passes, index_rows=True)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_beam_step_under_no_grad(dtype):
    case = _Case(dtype, 0)
    with ad.no_grad():
        out, _, _ = _beam_step(fused, case)
        want, _, _ = _beam_step(unfused, _Case(dtype, 0))
    _assert_same_bytes(out.data, want.data)
    assert not out.requires_grad and out._parents == () and out._backward is None
    assert all(t.grad is None for t in case.leaves())


def test_one_node_per_step():
    case = _Case(np.float64, 0)
    gates = gru_inputs(case.x, case.p)
    out = fused(gates, case.h0, case.p, None, slice(0, BATCH))
    assert out._op == "gru_cell"
    assert {id(t) for t in out._parents} == {id(t) for t in [*gates, case.h0, case.p.w_z,
                                                             case.p.w_r, case.p.w_h]}


def _assert_grads_match_finite_differences(rows):
    """With a context, and rows `rows` of input shares twice as tall as the
    state."""
    rng = np.random.default_rng(3)
    k = C_DIM + HIDDEN + X_DIM
    arrays = [*(rng.normal(size=(2 * BATCH, HIDDEN)) for _ in range(3)),
              *(rng.normal(size=(HIDDEN, k)) * 0.5 for _ in range(3)),
              rng.normal(size=(BATCH, HIDDEN)), rng.normal(size=(BATCH, C_DIM))]
    head = rng.normal(size=(BATCH, HIDDEN))

    def loss(xz, xr, xh, wz, wr, wh, h, c):
        out = ad.gru_cell([xz, xr, xh], [wz, wr, wh], h, c, rows=rows)
        return ad.sum_(ad.mul(out, head))

    assert_grads_match(loss, arrays)


def test_gradients_match_finite_differences():
    _assert_grads_match_finite_differences(slice(BATCH, 2 * BATCH))


def test_index_row_gradients_match_finite_differences():
    _assert_grads_match_finite_differences(np.array([3, 0]))


def test_mismatched_shapes_rejected():
    rng = np.random.default_rng(4)
    w = [Tensor(rng.normal(size=(HIDDEN, HIDDEN + 1))) for _ in range(3)]
    gates = [Tensor(np.zeros(HIDDEN)) for _ in range(3)]
    with pytest.raises(TensorError, match="gru_cell"):
        ad.gru_cell(gates, w, Tensor(np.zeros((2, HIDDEN))), Tensor(np.zeros((2, 2))))
    with pytest.raises(TensorError, match="gru_cell"):
        ad.gru_cell(gates, w[:2] + [Tensor(np.zeros((HIDDEN, 2)))], Tensor(np.zeros((2, HIDDEN))))
