"""`ad.gru_cell` against the node-by-node GRU step it replaces: the same
bytes in the forward output and in every gradient, for the encoder's use
of it and the decoder's, which adds an extra share to the step's input
shares, in a teacher-forced unroll and in a beam step."""

import numpy as np
import pytest

import qgen.autodiff as ad
from qgen.autodiff import ParamStore, Tensor, TensorError
from qgen.encoder import GruCellParams, gru_inputs

from conftest import assert_grads_match
from reference import gru_step_unfused, slice_

# C_DIM: the width of the decoder GRU's context weight, which the cell does not read
HIDDEN, X_DIM, C_DIM, BATCH, STEPS = 5, 3, 4, 2, 3
# each step's rows of the input shares, read in place: out of order, distinct
# within a step, row 3 read at two steps and row 2 never
INDEX_ROWS = np.array([[3, 0], [5, 3], [1, 4]])


def fused(p):
    """A step of the one-node cell over the GRU `p`'s state weights."""
    return lambda gates, h, extra, rows: ad.gru_cell(gates, p.w_zr, p.w_cand, h, rows, extra)


def unfused(p):
    """The same step as a graph of small nodes over the same weights."""
    return lambda gates, h, extra, rows: gru_step_unfused(
        gates if rows is None else slice_(gates, rows), h, p.w_zr, p.w_cand, extra)


class _Case:
    """Fresh leaves of one dtype from fixed arrays, so the fused and the
    unfused step build their graphs over equal, separate tensors."""

    def __init__(self, dtype, decoder, seed=0):
        rng = np.random.default_rng(seed)
        self.store = ParamStore(dtype, rng)
        self.p = GruCellParams.create(self.store, "g", X_DIM, HIDDEN, scale=0.5,
                                      context_dim=C_DIM * decoder)
        self.store["g.b"].data[:] = rng.normal(size=3 * HIDDEN)   # nonzero biases

        def leaf(*shape):
            return Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)

        self.x = leaf(STEPS * BATCH, X_DIM)
        self.h0 = leaf(BATCH, HIDDEN)
        self.e0 = leaf(BATCH, 3 * HIDDEN)
        self.w_e = leaf(3 * HIDDEN, HIDDEN)
        self.head = rng.normal(size=(STEPS * BATCH, HIDDEN)).astype(dtype)

    def leaves(self):
        return [self.x, self.h0, self.e0, self.w_e, *self.store.tensors()]


def _recurrence(make_step, case, with_extra, index_rows):
    """STEPS steps over the rows of every step's input shares, as
    `encoder._direction` (no extra share) and `decoder.teacher_forced_unroll`
    (an extra share that each state feeds into the next step, as its
    attention rows do) run them: the rows
    `INDEX_ROWS[i]` of the shares themselves, or a slice of their step-major
    copy.  Each state also feeds the stacked states made after the loop, so
    a state's gradient has a part before its step runs and parts after."""
    gates = gru_inputs(case.x, case.p)
    if not index_rows:
        gates = ad.gather_rows(gates, np.arange(STEPS * BATCH))
    step = make_step(case.p)
    h, e = case.h0, case.e0 if with_extra else None
    states = []
    for i in range(STEPS):
        rows = INDEX_ROWS[i] if index_rows else slice(i * BATCH, (i + 1) * BATCH)
        h = step(gates, h, e, rows)
        states.append(h)
        if with_extra:
            e = ad.tanh(ad.linear(h, case.w_e))
    out = ad.concat(states)
    loss = ad.add(ad.sum_(ad.mul(ad.tanh(out), case.head)), ad.sum_(ad.mul(case.h0, case.h0)))
    if with_extra:
        loss = ad.add(loss, ad.sum_(ad.mul(e, e)))
    return out, loss, gates


def _beam_step(make_step, case):
    """`decoder.decode_step`: whole (K, 3 hidden) input shares, one row per
    hypothesis, and an extra share."""
    gates = gru_inputs(slice_(case.x, slice(None, BATCH)), case.p)
    out = make_step(case.p)(gates, case.h0, case.e0, None)
    return out, ad.sum_(ad.mul(ad.tanh(out), case.head[:BATCH])), gates


def _run(step, dtype, shape, passes, index_rows):
    case = _Case(dtype, shape != "encoder")
    if shape == "beam":
        out, loss, gates = _beam_step(step, case)
    else:
        out, loss, gates = _recurrence(step, case, shape == "decoder", index_rows)
    for _ in range(passes):
        loss.backward()
    return out.data, [t.grad for t in case.leaves() + [gates]]


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
    if shape != "encoder":   # the extra share's leaf is reached
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
    case = _Case(dtype, True)
    with ad.no_grad():
        out, _, _ = _beam_step(fused, case)
        want, _, _ = _beam_step(unfused, _Case(dtype, True))
    _assert_same_bytes(out.data, want.data)
    assert not out.requires_grad and out._parents == () and out._backward is None
    assert all(t.grad is None for t in case.leaves())


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("rows", [ad.ROW_CUT, ad.ROW_CUT + 1])
def test_step_either_side_of_the_row_cut(dtype, rows):
    """A float32 cell's two products are issued in another form up to
    ROW_CUT state rows, as `linear`'s are: forward and gradients stay the
    node graph's bytes on both sides of the cut."""

    def run(step):
        rng = np.random.default_rng(6)
        store = ParamStore(dtype, rng)
        p = GruCellParams.create(store, "g", X_DIM, HIDDEN, scale=0.5, context_dim=C_DIM)
        x, h, e = (Tensor(rng.normal(size=(rows, k)).astype(dtype), requires_grad=True)
                   for k in (X_DIM, HIDDEN, 3 * HIDDEN))
        gates = gru_inputs(x, p)
        out = step(p)(gates, h, e, None)
        ad.sum_(ad.mul(ad.tanh(out), rng.normal(size=(rows, HIDDEN)).astype(dtype))).backward()
        return [out.data] + [t.grad for t in (x, h, e, p.w_x, p.w_zr, p.w_cand, p.b)]

    for got, want in zip(run(fused), run(unfused), strict=True):
        _assert_same_bytes(got, want)


def test_one_node_per_step():
    case = _Case(np.float64, True)
    gates = gru_inputs(case.x, case.p)
    for extra in (None, case.e0):
        out = fused(case.p)(gates, case.h0, extra, slice(0, BATCH))
        assert out._op == "gru_cell"
        assert [id(t) for t in out._parents] == [
            id(gates), id(case.p.w_zr), id(case.p.w_cand), id(case.h0)
        ] + ([] if extra is None else [id(extra)])


def _assert_grads_match_finite_differences(rows):
    """With an extra share, and rows `rows` of input shares twice as tall as
    the state."""
    rng = np.random.default_rng(3)
    arrays = [rng.normal(size=(2 * BATCH, 3 * HIDDEN)), rng.normal(size=(2 * HIDDEN, HIDDEN)) * 0.5,
              rng.normal(size=(HIDDEN, HIDDEN)) * 0.5, rng.normal(size=(BATCH, HIDDEN)),
              rng.normal(size=(BATCH, 3 * HIDDEN))]
    head = rng.normal(size=(BATCH, HIDDEN))

    def loss(x, w_zr, w_cand, h, e):
        out = ad.gru_cell(x, w_zr, w_cand, h, rows=rows, extra=e)
        return ad.sum_(ad.mul(out, head))

    assert_grads_match(loss, arrays)


def test_gradients_match_finite_differences():
    _assert_grads_match_finite_differences(slice(BATCH, 2 * BATCH))


def test_index_row_gradients_match_finite_differences():
    _assert_grads_match_finite_differences(np.array([3, 0]))


def test_mismatched_shapes_rejected():
    """Shares that do not fit the state; mismatched weights are in
    `test_autodiff.py::TestDeferredWeightGradients`."""
    w_zr, w_cand = Tensor(np.zeros((2 * HIDDEN, HIDDEN))), Tensor(np.zeros((HIDDEN, HIDDEN)))
    gates = Tensor(np.zeros((2, 3 * HIDDEN)))
    state = Tensor(np.zeros((2, HIDDEN)))
    with pytest.raises(TensorError, match="gru_cell"):   # an extra share of two gates
        ad.gru_cell(gates, w_zr, w_cand, state, extra=Tensor(np.zeros((2, 2 * HIDDEN))))
    with pytest.raises(TensorError, match="gru_cell"):   # an extra share for one state
        ad.gru_cell(gates, w_zr, w_cand, state, extra=Tensor(np.zeros((1, 3 * HIDDEN))))
    with pytest.raises(TensorError, match="gru_cell"):   # one share row for two states
        ad.gru_cell(Tensor(np.zeros((1, 3 * HIDDEN))), w_zr, w_cand, state)
    with pytest.raises(TensorError, match="gru_cell"):   # two gates' shares
        ad.gru_cell(Tensor(np.zeros((2, 2 * HIDDEN))), w_zr, w_cand, state)
    with pytest.raises(TensorError, match="gru_cell"):   # rows leave one share for two states
        ad.gru_cell(Tensor(np.zeros((4, 3 * HIDDEN))), w_zr, w_cand, state, rows=slice(3, 5))
    with pytest.raises(TensorError, match="gru_cell"):   # shares of one state, not a matrix
        ad.gru_cell(Tensor(np.zeros(3 * HIDDEN)), w_zr, w_cand, state)
