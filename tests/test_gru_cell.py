"""`ad.gru` against the node-by-node GRU steps it replaces: the same bytes
in the forward output and in every gradient.  The encoder's use of it runs
a whole schedule of steps as one node, against a graph per step and a
member-major stack of the states.  The "decoder" and "beam" cases chain
one-step `ad.gru` nodes over shares that a graph adds an extra share to,
each state feeding the next step's extra share, as a recurrence whose input
depends on its state does: separate nodes over the same state weights, whose
deferred weight gradients must sum as the per-step graphs' do.  The decoder
itself runs `ad.attention_gru`, which shares the GRU step with `ad.gru`
(`tests/test_decoder.py`)."""

import numpy as np
import pytest

import qgen.autodiff as ad
from qgen.autodiff import ParamStore, Tensor, TensorError
from qgen.encoder import GruCellParams, gru_inputs

from conftest import assert_grads_match
from reference import gru_step_unfused, member_major, slice_

# C_DIM: the width of the decoder GRU's context weight, which the op does not read
HIDDEN, X_DIM, C_DIM, BATCH, STEPS = 5, 3, 4, 2, 3
# each step's rows of the input shares, read in place: out of order, distinct
# within a step, row 3 read at two steps and row 2 never
INDEX_ROWS = np.array([[3, 0], [5, 3], [1, 4]])
# each step's rows of a step-major copy of the shares
STEP_ROWS = np.arange(STEPS * BATCH).reshape(STEPS, BATCH)


def fused(p):
    """The steps of schedule `rows` as one node over the GRU `p`'s state
    weights: every step's states, member-major.  An extra share is added by
    an `add` node to the rows of a one-step schedule (all rows of the shares
    without one), which the node then reads as a one-step schedule of its
    own."""
    def run(gates, h, extra, rows):
        if extra is not None:
            gates = ad.add(gates if rows is None else ad.gather_rows(gates, rows[0]), extra)
            rows = np.arange(extra.shape[0])[None]
        return ad.gru(gates, p.w_zr, p.w_cand, h, rows)

    return run


def unfused(p):
    """The same steps as a graph of small nodes per step over the same
    weights, and a member-major stack of the states after the last step."""
    def run(gates, h, extra, rows):
        states = []
        for step in [None] if rows is None else rows:
            h = gru_step_unfused(gates if step is None else slice_(gates, step), h, p.w_zr,
                                 p.w_cand, extra)
            states.append(h)
        return member_major(states)

    return run


class _Case:
    """Fresh leaves of one dtype from fixed arrays, so the fused and the
    unfused steps build their graphs over equal, separate tensors."""

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
    """STEPS steps over the rows of every step's input shares: the rows
    `INDEX_ROWS[i]` of the shares themselves, or `STEP_ROWS[i]` of their
    step-major copy.  Without an extra share, as `encoder.encode` runs
    them: the whole schedule at once.  With one: one step at a time, each
    state feeding the next step's extra share.
    The states also feed a loss, and h0 a term of its own, so a state's
    gradient has a part before its step runs and parts after."""
    gates = gru_inputs(case.x, case.p)
    if not index_rows:
        gates = ad.gather_rows(gates, np.arange(STEPS * BATCH))
    schedule = INDEX_ROWS if index_rows else STEP_ROWS
    step = make_step(case.p)
    if with_extra:
        h, e, states = case.h0, case.e0, []
        for rows in schedule:
            h = step(gates, h, e, rows[None])
            states.append(h)
            e = ad.tanh(ad.linear(h, case.w_e))
        out = ad.concat(states)
    else:
        out = step(gates, case.h0, None, schedule)
    loss = ad.add(ad.sum_(ad.mul(ad.tanh(out), case.head)), ad.sum_(ad.mul(case.h0, case.h0)))
    if with_extra:
        loss = ad.add(loss, ad.sum_(ad.mul(e, e)))
    return out, loss, gates


def _beam_step(make_step, case):
    """A beam step's shape: whole (K, 3 hidden) input shares, one row per
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
    assert grads[1] is not None   # h0's, through the steps after the first in a recurrence
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
@pytest.mark.parametrize("steps", [1, 2, STEPS])
def test_k_steps_are_byte_identical_to_k_step_graphs(dtype, steps):
    """The first k steps of the schedule as one node, against k per-step
    graphs and a member-major stack: the states and the gradient of every leaf, h0's
    included, with h0 read by nothing but the first step."""

    def run(make_step):
        case = _Case(dtype, False, seed=steps)
        gates = gru_inputs(case.x, case.p)
        out = make_step(case.p)(gates, case.h0, None, INDEX_ROWS[:steps])
        ad.sum_(ad.mul(ad.tanh(out), case.head[:steps * BATCH])).backward()
        return [out.data] + [t.grad for t in case.leaves() + [gates]]

    got, want = run(fused), run(unfused)
    assert got[0].shape == (steps * BATCH, HIDDEN)
    for k, (a, b) in enumerate(zip(got, want, strict=True)):
        assert (a is None) == (b is None), k
        if a is not None:
            _assert_same_bytes(a, b)
    assert got[2] is not None   # h0


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
    """A float32 step's two products are issued in another form up to
    ROW_CUT state rows, as `linear`'s are: forward and gradients stay the
    node graph's bytes on both sides of the cut, over two steps."""

    def run(step):
        rng = np.random.default_rng(6)
        store = ParamStore(dtype, rng)
        p = GruCellParams.create(store, "g", X_DIM, HIDDEN, scale=0.5)
        x, h = (Tensor(rng.normal(size=(n, k)).astype(dtype), requires_grad=True)
                for n, k in ((2 * rows, X_DIM), (rows, HIDDEN)))
        gates = gru_inputs(x, p)
        out = step(p)(gates, h, None, np.arange(2 * rows).reshape(2, rows))
        ad.sum_(ad.mul(ad.tanh(out), rng.normal(size=(2 * rows, HIDDEN)).astype(dtype))).backward()
        return [out.data] + [t.grad for t in (x, h, p.w_x, p.w_zr, p.w_cand, p.b)]

    for got, want in zip(run(fused), run(unfused), strict=True):
        _assert_same_bytes(got, want)


def test_one_node_per_recurrence():
    case = _Case(np.float64, True)
    gates = gru_inputs(case.x, case.p)
    out = fused(case.p)(gates, case.h0, None, INDEX_ROWS)
    assert out._op == "gru" and out.shape == (len(INDEX_ROWS) * BATCH, HIDDEN)
    assert [id(t) for t in out._parents] == [
        id(gates), id(case.p.w_zr), id(case.p.w_cand), id(case.h0)]


def _assert_grads_match_finite_differences(rows):
    """Over input shares three times as tall as the state."""
    rng = np.random.default_rng(3)
    arrays = [rng.normal(size=(3 * BATCH, 3 * HIDDEN)), rng.normal(size=(2 * HIDDEN, HIDDEN)) * 0.5,
              rng.normal(size=(HIDDEN, HIDDEN)) * 0.5, rng.normal(size=(BATCH, HIDDEN))]
    head = rng.normal(size=(len(rows) * BATCH, HIDDEN))

    def loss(x, w_zr, w_cand, h):
        return ad.sum_(ad.mul(ad.gru(x, w_zr, w_cand, h, rows=rows), head))

    assert_grads_match(loss, arrays)


def test_gradients_match_finite_differences():
    _assert_grads_match_finite_differences(np.arange(BATCH, 2 * BATCH)[None])


def test_index_row_gradients_match_finite_differences():
    _assert_grads_match_finite_differences(np.array([[3, 0]]))


def test_schedule_gradients_match_finite_differences():
    _assert_grads_match_finite_differences(np.array([[3, 0], [5, 3], [1, 4]]))


def test_mismatched_shapes_rejected():
    """Shares and schedules that do not fit the state; mismatched weights
    are in `test_autodiff.py::TestDeferredWeightGradients`."""
    w_zr, w_cand = Tensor(np.zeros((2 * HIDDEN, HIDDEN))), Tensor(np.zeros((HIDDEN, HIDDEN)))
    gates = Tensor(np.zeros((2, 3 * HIDDEN)))
    state = Tensor(np.zeros((2, HIDDEN)))
    step = np.array([[0, 1]])
    with pytest.raises(TensorError, match="gru"):   # two gates' shares
        ad.gru(Tensor(np.zeros((2, 2 * HIDDEN))), w_zr, w_cand, state, step)
    with pytest.raises(TensorError, match="gru"):   # shares of one state, not a matrix
        ad.gru(Tensor(np.zeros(3 * HIDDEN)), w_zr, w_cand, state, step)
    shares = Tensor(np.zeros((4, 3 * HIDDEN)))
    # a step of one row for two states, one step's rows without its step axis,
    # a slice, and no steps
    for rows in (np.array([[3]]), np.array([3, 0]), slice(0, 2), np.zeros((0, 2), int)):
        with pytest.raises(TensorError, match="gru: shares"):
            ad.gru(shares, w_zr, w_cand, state, rows=rows)
