import gc
import re
import weakref
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qgen.autodiff as ad
from qgen.autodiff import CHECKPOINT_FORMAT_VERSION, CheckpointError, ParamStore, Tensor, TensorError
from qgen.decoder import DecoderParams, decode_step, passage_memory, word_terms

import reference
from conftest import assert_grads_match


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = ad.matmul(Tensor(np.eye(2)), a)
        np.testing.assert_array_equal(out.data, a.data)

    def test_hand_product(self):
        out = ad.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.data, [[11.0]])

    def test_shape_mismatch_reports_both_shapes(self):
        with pytest.raises(TensorError, match=r"\(2, 3\).*\(2, 2\)"):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
        assert_grads_match(lambda x, y: ad.sum_(ad.matmul(x, y)), [a, b], tol=1e-6)

    @pytest.mark.parametrize("sa,sb", [((1, 4), (4, 3)), ((3, 4), (4,)), ((1, 5), (5,))])
    def test_vector_variants(self, sa, sb):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=sa), rng.normal(size=sb)
        np.testing.assert_allclose(ad.matmul(Tensor(a), Tensor(b)).data, a @ b)
        assert_grads_match(lambda x, y: ad.sum_(ad.matmul(x, y)), [a, b], tol=1e-6)


class TestElementwise:
    def test_sigmoid_at_zero(self):
        assert ad.sigmoid(Tensor(0.0)).item() == 0.5

    def test_tanh_at_zero(self):
        assert ad.tanh(Tensor(0.0)).item() == 0.0

    def test_sigmoid_derivative_at_zero(self):
        x = Tensor(0.0, requires_grad=True)
        ad.sigmoid(x).backward()
        assert x.grad == pytest.approx(0.25)

    def test_log_domain_error(self):
        with pytest.raises(TensorError, match="non-positive"):
            ad.log(Tensor([1.0, 0.0]))

    def test_sigmoid_extreme_inputs_finite(self):
        out = ad.sigmoid(Tensor([-1e4, 1e4]))
        assert np.isfinite(out.data).all()
        np.testing.assert_allclose(out.data, [0.0, 1.0], atol=1e-12)

    def test_sigmoid_bit_identical_to_three_exp_form(self):
        x = np.concatenate([[-1e4, -745.0, -40.0, -0.0, 0.0, 1e-300, 40.0, 745.0, 1e4],
                            np.linspace(-50.0, 50.0, 2001)])
        reference = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                             np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
        out = ad.sigmoid(Tensor(x)).data
        assert out.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_and_maximum_equal_their_where_forms(self, dtype):
        """Byte for byte against `reference.sigmoid`, and `ad.maxout` against
        `reference.maximum` of its column pairs: signed zeros, infinities,
        |x| >= 89, where exp(-|x|) leaves float32's normal range, exact ties
        and ties of -0.0 with 0.0, with either column of a pair first."""
        rng = np.random.default_rng(5)
        special = np.array([-0.0, 0.0, np.inf, -np.inf, 89.0, -89.0, 88.7, -88.7, 104.0,
                            -104.0, 745.0, -745.0, 1e4, -1e4, 1.0, -1.0], dtype)
        x = np.concatenate([special, rng.normal(0, 30, 1000).astype(dtype)])
        for operand in (x, x[::3], x.reshape(-1, 8)):
            want = reference.sigmoid(operand)
            got = ad.sigmoid(Tensor(operand)).data
            assert got.dtype == want.dtype == dtype and got.tobytes() == want.tobytes()
        pool = np.concatenate([special[:4], [1.0, -1.0, 2.5]]).astype(dtype)
        r = rng.choice(pool, size=(37, 64))
        a, b = r[:, 0::2], r[:, 1::2]
        assert (a == b).any() and ((a == 0) & (b == 0) & (np.signbit(a) != np.signbit(b))).any()
        swapped = np.empty_like(r)
        swapped[:, 0::2], swapped[:, 1::2] = b, a
        for pairs in (r, swapped):
            want = reference.maximum(Tensor(pairs[:, 0::2]), Tensor(pairs[:, 1::2])).data
            got = ad.maxout(Tensor(pairs)).data
            assert got.dtype == want.dtype == dtype and got.tobytes() == want.tobytes()

    def test_maximum_propagates_nan_and_routes_the_gradient_as_before(self):
        """A NaN in a pair gives NaN, where the `np.where` form of
        `reference.maximum` gives the other column; the gradient goes where
        that form sends it: to the first column where it is >= the second,
        so a tie's to the first, else to the second."""
        pairs = np.array([[np.nan, 0.0], [1.0, np.nan], [np.nan, np.nan], [2.0, 2.0]])
        r = Tensor(pairs, requires_grad=True)
        out = ad.maxout(r)
        assert np.isnan(out.data[:3]).all() and out.data[3] == 2.0
        ad.sum_(out).backward()
        np.testing.assert_array_equal(r.grad, [[0.0, 1.0], [0.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        a, b = Tensor(pairs[:, 0], requires_grad=True), Tensor(pairs[:, 1], requires_grad=True)
        want = reference.maximum(a, b)
        np.testing.assert_array_equal(want.data, [0.0, np.nan, np.nan, 2.0])
        ad.sum_(want).backward()
        np.testing.assert_array_equal(r.grad, np.stack([a.grad, b.grad], axis=1))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_maxout_is_the_bytes_of_the_slice_and_maximum_graph(self, dtype):
        """Forward values and input gradients against `reference.pairwise_max`,
        two `slice` nodes and a `maximum`: random pairs with ties, +-0 and
        gradients of either signed zero."""
        rng = np.random.default_rng(11)
        pool = np.array([-0.0, 0.0, 1.0, -1.0, 2.5], dtype)
        for trial in range(200):
            shape = (int(rng.integers(1, 6)), 2 * int(rng.integers(1, 6)))
            x = np.where(rng.random(shape) < 0.5, rng.choice(pool, shape),
                         rng.normal(size=shape)).astype(dtype)
            g = np.where(rng.random((shape[0], shape[1] // 2)) < 0.3,
                         rng.choice(pool[:2], (shape[0], shape[1] // 2)),
                         rng.normal(size=(shape[0], shape[1] // 2))).astype(dtype)
            outs, grads = [], []
            for op in (ad.maxout, reference.pairwise_max):
                t = Tensor(x, requires_grad=True)
                out = op(t)
                ad.sum_(ad.mul(out, g)).backward()
                outs.append(out.data)
                grads.append(t.grad)
            assert outs[0].dtype == outs[1].dtype == dtype
            assert outs[0].tobytes() == outs[1].tobytes()
            assert grads[0].dtype == grads[1].dtype == dtype
            assert grads[0].tobytes() == grads[1].tobytes()

    def test_row_broadcast_add(self):
        m = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        out = ad.add(m, b)
        np.testing.assert_array_equal(out.data, [[2, 3, 4], [2, 3, 4]])
        ad.sum_(out).backward()
        np.testing.assert_array_equal(b.grad, [2.0, 2.0, 2.0])

    def test_disallowed_broadcast(self):
        with pytest.raises(TensorError):
            ad.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))


class TestSoftmax:
    def test_uniform(self):
        np.testing.assert_allclose(ad.softmax(Tensor([0.0, 0.0])).data, [0.5, 0.5])

    def test_stability_no_overflow(self):
        out = ad.softmax(Tensor([1000.0, 0.0]))
        assert np.isfinite(out.data).all()
        np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-300)

    def test_direct_evaluation(self):
        # independent oracle: direct formula at small magnitudes
        x = np.array([1.0, 2.0, 3.0])
        expected = np.exp(x) / np.exp(x).sum()
        np.testing.assert_allclose(ad.softmax(Tensor(x)).data, expected, atol=1e-12)
        np.testing.assert_allclose(expected, [0.09003057, 0.24472847, 0.66524096], atol=1e-8)

    def test_mask_zeroes_entries(self):
        out = reference.softmax(Tensor([5.0, 1.0, 3.0]), mask=np.array([True, False, True]))
        assert out.data[1] == 0.0
        assert out.data.sum() == pytest.approx(1.0, abs=1e-9)

    def test_all_masked_error(self):
        with pytest.raises(TensorError, match="masked"):
            reference.softmax(Tensor([1.0, 2.0]), mask=np.array([False, False]))

    @given(st.lists(st.floats(min_value=-30, max_value=30), min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_probability_vector(self, values):
        out = ad.softmax(Tensor(values)).data
        assert (out >= 0).all()
        assert abs(out.sum() - 1.0) <= 1e-9


class TestGatherConcatSlice:
    def test_concat_axis0(self):
        out = ad.concat([Tensor([1.0]), Tensor([2.0])])
        np.testing.assert_array_equal(out.data, [1.0, 2.0])

    def test_gather_accumulates(self):
        table = Tensor(np.ones((3, 4)), requires_grad=True)
        ad.sum_(ad.gather_rows(table, [0, 0])).backward()
        np.testing.assert_array_equal(table.grad[0], 2 * np.ones(4))
        np.testing.assert_array_equal(table.grad[1:], np.zeros((2, 4)))

    def test_gather_and_slice_scatter_across_passes(self):
        table = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        loss = ad.add(ad.add(ad.sum_(ad.gather_rows(table, [2, 0, 2])),
                             ad.sum_(ad.mul(reference.slice_(table, slice(1, 3)), 2.0))),
                      ad.sum_(ad.mul(table, table)))
        expected = 2 * table.data + np.array([[1.0], [2.0], [4.0]])
        loss.backward()
        np.testing.assert_array_equal(table.grad, expected)
        loss.backward()
        np.testing.assert_array_equal(table.grad, 2 * expected)

    def test_gather_entries_of_a_vector(self):
        table = Tensor(np.arange(4.0), requires_grad=True)
        out = ad.gather_rows(table, [3, 0, 3])
        np.testing.assert_array_equal(out.data, [3.0, 0.0, 3.0])
        ad.sum_(ad.mul(out, np.array([1.0, 2.0, 4.0]))).backward()
        np.testing.assert_array_equal(table.grad, [2.0, 0.0, 0.0, 5.0])

    def test_gather_out_of_range(self):
        with pytest.raises(TensorError, match="out of range"):
            ad.gather_rows(Tensor(np.ones((3, 4))), [3])

    def test_slice_of_concat_roundtrip(self):
        a, b = np.arange(3.0), np.arange(4.0)
        both = ad.concat([Tensor(a), Tensor(b)])
        np.testing.assert_array_equal(reference.slice_(both, slice(0, 3)).data, a)

    def test_strided_slice_backward(self):
        x = Tensor(np.arange(6.0), requires_grad=True)
        ad.sum_(reference.slice_(x, slice(0, None, 2))).backward()
        np.testing.assert_array_equal(x.grad, [1, 0, 1, 0, 1, 0])


class TestDropout:
    def test_eval_identity(self):
        # eval mode draws no multipliers
        x = Tensor(np.arange(5.0))
        assert ad.dropout(x, None) is x

    def test_p_zero_identity(self):
        x = Tensor(np.arange(5.0))
        out = ad.dropout(x, ad.dropout_keep(np.random.default_rng(0), x.shape, 0.0))
        np.testing.assert_array_equal(out.data, x.data)

    def test_inverted_scaling_preserves_mean(self):
        rng = np.random.default_rng(7)
        out = ad.dropout(Tensor(np.ones(100_000)), ad.dropout_keep(rng, (100_000,), 0.5))
        assert abs(out.data.mean() - 1.0) < 0.02

    def test_invalid_rate(self):
        with pytest.raises(TensorError, match="rate"):
            ad.dropout_keep(np.random.default_rng(0), (1,), 1.0)

    def test_backward_uses_mask(self):
        rng = np.random.default_rng(3)
        x = Tensor(np.ones(100), requires_grad=True)
        out = ad.dropout(x, ad.dropout_keep(rng, (100,), 0.3))
        ad.sum_(out).backward()
        kept = out.data != 0
        np.testing.assert_allclose(x.grad[kept], 1 / 0.7)
        np.testing.assert_allclose(x.grad[~kept], 0.0)

    def test_multipliers_are_one_draw_of_the_stream(self):
        # (3, 4) multipliers read the stream as three (4,) draws would
        a, b = np.random.default_rng(5), np.random.default_rng(5)
        whole = ad.dropout_keep(a, (3, 4), 0.4)
        rows = np.stack([ad.dropout_keep(b, (4,), 0.4) for _ in range(3)])
        np.testing.assert_array_equal(whole, rows)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(TensorError, match="multipliers"):
            ad.dropout(Tensor(np.ones(3)), np.ones(4))


class TestBackward:
    def test_square(self):
        x = Tensor(3.0, requires_grad=True)
        ad.mul(x, x).backward()
        assert x.grad == pytest.approx(6.0)

    def test_sigmoid_linear_chain_matches_fd(self):
        rng = np.random.default_rng(5)
        w, x = rng.normal(size=(4, 3)), rng.normal(size=3)
        assert_grads_match(lambda a, b: ad.sum_(ad.sigmoid(ad.matmul(a, b))), [w, x], tol=1e-4)

    def test_repeated_backward_accumulates(self):
        x = Tensor(3.0, requires_grad=True)
        loss = ad.mul(x, x)
        loss.backward()
        first = x.grad.copy()
        loss.backward()
        np.testing.assert_array_equal(x.grad, 2 * first)

    def test_first_contribution_is_not_shared(self):
        # add hands the same g to both inputs; b's later += must not reach a
        a, b = Tensor(np.ones(2), requires_grad=True), Tensor(np.ones(2), requires_grad=True)
        t = ad.mul(b, 3.0)
        s = ad.add(a, b)
        ad.add(ad.sum_(s), ad.sum_(t)).backward()
        np.testing.assert_array_equal(a.grad, [1.0, 1.0])
        np.testing.assert_array_equal(b.grad, [4.0, 4.0])

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(TensorError, match="scalar"):
            Tensor([1.0, 2.0], requires_grad=True).backward()

    def test_grad_flows_through_shared_subexpression(self):
        x = Tensor(2.0, requires_grad=True)
        y = ad.mul(x, x)
        ad.add(y, y).backward()
        assert x.grad == pytest.approx(8.0)


def _away_from_zero(rng, shape):
    x = rng.normal(size=shape)
    return np.where(np.abs(x) < 0.05, x + np.sign(x + 1e-12) * 0.1, x)


def op_arrays(rng, arity, domain):
    """`arity` random inputs of one small shape for an `OP_CASES` op: a
    matrix, or a 1-d or 2-d shape; "apart" is a matrix of column pairs at
    least 0.05 apart, where the max could switch."""
    if domain == "matrix":
        shape = (int(rng.integers(1, 5)), int(rng.integers(1, 5)))
    elif domain == "apart":
        shape = (int(rng.integers(1, 5)), 2 * int(rng.integers(1, 3)))
    else:
        shape = tuple(rng.integers(1, 5, size=int(rng.integers(1, 3))))
    if domain == "positive":
        return [rng.uniform(0.5, 3.0, size=shape) for _ in range(arity)]
    if domain in ("nonzero", "apart"):
        arrays = [_away_from_zero(rng, shape) for _ in range(arity)]
        if domain == "apart":
            pairs = arrays[0]
            pairs[:, 1::2] += 0.2 * (np.abs(pairs[:, 0::2] - pairs[:, 1::2]) < 0.05)
        return arrays
    return [rng.normal(size=shape) for _ in range(arity)]


OP_CASES = [
    ("add", lambda a, b: ad.sum_(ad.add(a, b)), 2, None),
    ("sub", lambda a, b: ad.sum_(reference.sub(a, b)), 2, None),
    ("mul", lambda a, b: ad.sum_(ad.mul(a, b)), 2, None),
    ("neg", lambda a: ad.sum_(ad.neg(a)), 1, None),
    ("tanh", lambda a: ad.sum_(ad.tanh(a)), 1, None),
    ("sigmoid", lambda a: ad.sum_(ad.sigmoid(a)), 1, None),
    ("log", lambda a: ad.sum_(ad.log(a)), 1, "positive"),
    ("softmax", lambda a: ad.sum_(ad.mul(ad.softmax(a), a)), 1, None),
    ("maxout", lambda a: ad.sum_(ad.maxout(a)), 1, "apart"),
    ("clamp", lambda a: ad.sum_(ad.clamp_min(a, 0.0)), 1, "nonzero"),
    ("linear2d", lambda x, w: ad.sum_(ad.tanh(ad.linear(x, w))), 2, "matrix"),
    ("attention2d",
     lambda k, q, v: ad.sum_(ad.tanh(reference.attention_scores(k, q, reference.slice_(v, 0)))),
     3, "matrix"),
    ("mean", lambda a: ad.mean_(a), 1, None),
]


@pytest.mark.parametrize("name,fn,arity,domain", OP_CASES, ids=[c[0] for c in OP_CASES])
def test_op_gradients_on_random_shapes(name, fn, arity, domain):
    """Every differentiable op against central differences on 20 random shapes."""
    rng = np.random.default_rng(42)
    for trial in range(20):
        assert_grads_match(fn, op_arrays(rng, arity, domain), tol=1e-4)


class TestEmbed:
    """`ad.embed` against the graph it replaces (`reference.embed_unfused`):
    tables shaped like the passage embedding's nine, word table first."""

    SHAPES = [(40, 6), (5, 2), (6, 2), (7, 2), (2, 2), (2, 2), (2, 2), (3, 2), (3, 4)]

    def _inputs(self, rng, n, dtype=np.float64):
        tables = [rng.uniform(-1, 1, size=shape).astype(dtype) for shape in self.SHAPES]
        # drawn with replacement from small tables: every column repeats ids
        ids = np.stack([rng.integers(0, rows, size=n) for rows, _ in self.SHAPES], axis=1)
        return tables, ids

    @staticmethod
    def _run(embed, arrays, ids, rng):
        """The embedding and every table's gradient under a loss that also
        gathers from the word table after the embedding, as the decoder does."""
        tables = [Tensor(a, requires_grad=True) for a in arrays]
        out = embed(tables, ids)
        weights = rng.normal(size=out.shape)
        loss = ad.add(ad.sum_(ad.mul(ad.tanh(out), weights)),
                      ad.sum_(ad.gather_rows(tables[0], ids[::-1, 0])))
        loss.backward()
        return out.data, [t.grad for t in tables]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("n", [1, 4, 37])
    def test_bytes_and_gradients_equal_the_gather_graph(self, dtype, n):
        tables, ids = self._inputs(np.random.default_rng(n), n, dtype)
        if n > 1:
            ids[1] = ids[0]   # a repeated token
        out, grads = self._run(ad.embed, tables, ids, np.random.default_rng(0))
        want, want_grads = self._run(reference.embed_unfused, tables, ids, np.random.default_rng(0))
        assert out.dtype == dtype and out.tobytes() == want.tobytes()
        assert out.shape == (n, sum(width for _, width in self.SHAPES))
        for got, expected in zip(grads, want_grads):
            assert got.dtype == dtype and got.tobytes() == expected.tobytes()

    def test_one_node(self):
        tables, ids = self._inputs(np.random.default_rng(1), 5)
        out = ad.embed([Tensor(t, requires_grad=True) for t in tables], ids)
        assert out._op == "embed" and len(out._parents) == len(tables)

    def test_gradients_match_finite_differences(self):
        tables, ids = self._inputs(np.random.default_rng(2), 6)
        assert_grads_match(lambda *ts: ad.sum_(ad.tanh(ad.embed(ts, ids))), tables, tol=1e-4)

    @pytest.mark.parametrize("column", range(9))
    def test_an_id_out_of_range_names_its_column(self, column):
        tables, ids = self._inputs(np.random.default_rng(3), 4)
        for bad in (self.SHAPES[column][0], -1):
            ids[2, column] = bad
            with pytest.raises(TensorError, match=f"column {column},"):
                ad.embed([Tensor(t) for t in tables], ids)

    def test_ids_need_one_column_per_table(self):
        tables, ids = self._inputs(np.random.default_rng(4), 3)
        with pytest.raises(TensorError, match="each 2-d"):
            ad.embed([Tensor(t) for t in tables], ids[:, :-1])


def test_concat_and_slice_gradients():
    rng = np.random.default_rng(9)
    a, b = rng.normal(size=(2, 3)), rng.normal(size=(4, 3))

    def loss(x, y):
        both = ad.concat([x, y], axis=0)
        return ad.sum_(ad.mul(reference.slice_(both, slice(1, 5)), 3.0))

    assert_grads_match(loss, [a, b], tol=1e-6)


def test_gather_gradients():
    rng = np.random.default_rng(10)
    table = rng.normal(size=(6, 3))
    assert_grads_match(
        lambda t: ad.sum_(ad.tanh(ad.gather_rows(t, [0, 2, 2, 5]))), [table], tol=1e-4)


class TestLinear:
    def test_matches_transposed_product(self):
        rng = np.random.default_rng(11)
        x, w = rng.normal(size=(4, 3)), rng.normal(size=(5, 3))
        np.testing.assert_allclose(ad.linear(Tensor(x), Tensor(w)).data, x @ w.T)
        np.testing.assert_allclose(ad.linear(Tensor(x[1:2]), Tensor(w)).data, [w @ x[1]])

    def test_width_mismatch_reports_both_shapes(self):
        with pytest.raises(TensorError, match=r"\(1, 4\).*\(5, 3\)"):
            ad.linear(Tensor(np.zeros((1, 4))), Tensor(np.zeros((5, 3))))

    @pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-6), (np.float64, 1e-13)])
    @pytest.mark.parametrize("rows", [1, 4, 20, ad.ROW_CUT, ad.ROW_CUT + 1, 120])
    def test_either_side_of_the_row_cut(self, dtype, tol, rows):
        """A float32 product of at most ROW_CUT rows is issued in another
        form; it is x @ w.T, up to the summation order a CPU's kernels may
        pick, and row-major, so reductions over its rows add in the same
        order."""
        rng = np.random.default_rng(rows)
        w = rng.normal(size=(48, 40)).astype(dtype)
        x = rng.normal(size=(rows, 40)).astype(dtype)
        got = ad.linear(Tensor(x), Tensor(w)).data
        assert got.dtype == dtype and got.shape == (rows, 48) and got.flags.c_contiguous
        want = x @ w.T
        assert np.all(np.abs(got - want) <= tol * (np.abs(x) @ np.abs(w).T))


class TestBlockAttention:
    """With B blocks, row b of the query and of the weights sees block b of
    the keys and values only."""

    def _arrays(self, blocks=3, n=4):
        rng = np.random.default_rng(22)
        return (rng.normal(size=(blocks * n, 5)), rng.normal(size=(blocks, 5)),
                rng.normal(size=5), rng.normal(size=(blocks * n, 6)))

    def test_scores_and_context_match_each_block_alone(self):
        keys, query, v, values = self._arrays()
        scores = reference.attention_scores(Tensor(keys), Tensor(query), Tensor(v), 3)
        alpha = ad.softmax(scores)
        context = ad.attention_context(alpha, Tensor(values))
        assert scores.shape == (3, 4) and context.shape == (3, 6)
        for b in range(3):
            block = slice(4 * b, 4 * b + 4)
            one = reference.attention_scores(Tensor(keys[block]), Tensor(query[b:b + 1]), Tensor(v))
            np.testing.assert_allclose(scores.data[b], one.data[0], rtol=0, atol=1e-14)
            np.testing.assert_allclose(context.data[b], alpha.data[b] @ values[block],
                                       rtol=0, atol=1e-14)

    def test_gradients(self):
        keys, query, v, values = self._arrays()

        def loss(k, q, v, x):
            alpha = ad.softmax(reference.attention_scores(k, q, v, 3))
            return ad.sum_(ad.tanh(ad.attention_context(alpha, x)))

        assert_grads_match(loss, [keys, query, v, values], tol=1e-4)

    def test_vector_values_match_each_block_alone(self):
        """(blocks * n,) values: one weighted sum per row of alpha."""
        rng = np.random.default_rng(24)
        alpha, values = rng.dirichlet(np.ones(4), 6), rng.normal(size=12)   # 3 blocks of 2 rows
        out = ad.attention_context(Tensor(alpha), Tensor(values))
        assert out.shape == (6,)
        for row in range(6):
            block = values[4 * (row // 2):4 * (row // 2) + 4]
            np.testing.assert_allclose(out.data[row], alpha[row] @ block, rtol=0, atol=1e-14)
        assert_grads_match(lambda a, x: ad.sum_(ad.tanh(ad.attention_context(a, x))),
                           [alpha, values], tol=1e-4)

    def test_one_block_is_shared_by_every_row(self):
        keys, query, v, values = self._arrays(blocks=1)
        alpha = ad.softmax(reference.attention_scores(Tensor(keys), Tensor(np.tile(query, (3, 1))),
                                                      Tensor(v)))
        np.testing.assert_array_equal(ad.attention_context(alpha, Tensor(values)).data,
                                      alpha.data @ values)

    def test_mismatched_blocks_rejected(self):
        keys, query, v, values = self._arrays()
        with pytest.raises(TensorError, match="blocks"):
            reference.attention_scores(Tensor(keys), Tensor(query[:2]), Tensor(v), 3)
        with pytest.raises(TensorError, match="blocks"):
            reference.attention_scores(Tensor(keys), Tensor(query), Tensor(v), 5)
        with pytest.raises(TensorError, match="blocks"):
            ad.attention_context(Tensor(np.ones((2, 4))), Tensor(values))


def test_take_along_values_and_gradients():
    rng = np.random.default_rng(23)
    a = rng.normal(size=(4, 3))
    ids = [2, 0, 0, 1]
    np.testing.assert_array_equal(ad.take_along(Tensor(a), ids).data, a[np.arange(4), ids])
    assert_grads_match(lambda t: ad.sum_(ad.tanh(ad.take_along(t, ids))), [a], tol=1e-4)
    with pytest.raises(TensorError, match="out of range"):
        ad.take_along(Tensor(a), [0, 1, 2, 3])


class TestDeferredWeightGradients:
    """`linear` and `gru` defer w's g.T @ x to one GEMM when `backward`
    reaches w; the result must equal the explicit sum of one outer product
    per row."""

    @staticmethod
    def _dtanh(y):
        return 1.0 - np.tanh(y) ** 2

    def _arrays(self):
        rng = np.random.default_rng(13)
        return rng.normal(size=(4, 3)), rng.normal(size=(1, 3)), rng.normal(size=(5, 3))

    def test_linear_1d_2d_and_add_share_a_weight(self):
        w, x1, x2 = self._arrays()

        def loss(w, x1, x2):
            return ad.add(ad.add(ad.sum_(ad.mul(ad.tanh(ad.linear(x1, w)), 2.0)),
                                 ad.sum_(ad.tanh(ad.linear(x2, w)))),
                          ad.sum_(ad.tanh(ad.add(w, 0.5))))

        assert_grads_match(loss, [w, x1, x2], tol=1e-4)
        wt = Tensor(w, requires_grad=True)
        loss(wt, Tensor(x1), Tensor(x2)).backward()
        expected = np.outer(2.0 * self._dtanh(w @ x1[0]), x1) + self._dtanh(w + 0.5)
        for row, y in zip(x2, x2 @ w.T):
            expected += np.outer(self._dtanh(y), row)
        np.testing.assert_allclose(wt.grad, expected, rtol=0, atol=1e-12)

    def test_non_leaf_weight(self):
        w, x1, x2 = self._arrays()

        def loss(w, x1, x2):
            v = ad.tanh(w)
            return ad.add(ad.sum_(ad.tanh(ad.linear(x1, v))), ad.sum_(ad.linear(x2, v)))

        assert_grads_match(loss, [w, x1, x2], tol=1e-4)
        wt = Tensor(w, requires_grad=True)
        loss(wt, Tensor(x1), Tensor(x2)).backward()
        v = np.tanh(w)
        grad_v = np.outer(self._dtanh(v @ x1[0]), x1)
        for row in x2:
            grad_v += np.outer(np.ones(len(w)), row)
        np.testing.assert_allclose(wt.grad, grad_v * (1.0 - v * v), rtol=0, atol=1e-12)

    def test_two_backward_calls_accumulate(self):
        w, x1, x2 = self._arrays()
        wt = Tensor(w, requires_grad=True)
        loss = ad.add(ad.sum_(ad.tanh(ad.linear(Tensor(x1), wt))),
                      ad.sum_(ad.tanh(ad.linear(Tensor(x2), wt))))
        loss.backward()
        first = wt.grad.copy()
        loss.backward()
        np.testing.assert_array_equal(wt.grad, 2 * first)

    def test_pass_without_linear_contribution(self):
        w, x1, _ = self._arrays()
        wt = Tensor(w, requires_grad=True)
        ad.sum_(ad.linear(Tensor(x1), wt)).backward()
        np.testing.assert_allclose(wt.grad, np.outer(np.ones(len(w)), x1), rtol=0, atol=1e-12)
        # a loss that does not reach w leaves its grad alone
        other = Tensor(x1, requires_grad=True)
        ad.sum_(ad.tanh(other)).backward()
        np.testing.assert_allclose(wt.grad, np.outer(np.ones(len(w)), x1), rtol=0, atol=1e-12)
        # a pass that reaches w only through a non-linear op flushes nothing stale
        wt.grad.fill(0)
        ad.sum_(ad.mul(wt, wt)).backward()
        np.testing.assert_array_equal(wt.grad, 2 * w)


    def test_linear_uses_sum_their_outer_products(self):
        rng = np.random.default_rng(21)
        w, x1, x2 = rng.normal(size=(4, 5)), rng.normal(size=(3, 5)), rng.normal(size=(2, 5))
        wt = Tensor(w, requires_grad=True)
        heads = [rng.normal(size=(n, 4)) for n in (3, 2, 1)]
        uses = [ad.linear(Tensor(x1), wt), ad.linear(Tensor(x2), wt), ad.linear(Tensor(x2[1:]), wt)]
        ad.sum_(ad.concat([ad.mul(u, h) for u, h in zip(uses, heads)])).backward()
        expected = heads[0].T @ x1 + heads[1].T @ x2 + heads[2].T @ x2[1:]
        np.testing.assert_allclose(wt.grad, expected, rtol=0, atol=1e-12)
        assert wt._outer is None

    def test_gru_state_weights_sum_every_step(self):
        """Over a 3-step recurrence in one node, `w_zr` and `w_cand` get the
        sum of the gradients that a fresh copy of them at each one-step
        node gets."""
        rng = np.random.default_rng(23)
        hidden, m, steps = 3, 2, 3
        w_zr, w_cand = rng.normal(size=(2 * hidden, hidden)), rng.normal(size=(hidden, hidden))
        gates, h0 = rng.normal(size=(steps * m, 3 * hidden)), rng.normal(size=(m, hidden))
        head = rng.normal(size=(steps * m, hidden))
        schedule = np.arange(steps * m).reshape(steps, m)

        shared = (Tensor(w_zr, requires_grad=True), Tensor(w_cand, requires_grad=True))
        out = ad.gru(Tensor(gates), *shared, Tensor(h0), rows=schedule)
        ad.sum_(ad.mul(out, head)).backward()
        copies = [(Tensor(w_zr, requires_grad=True), Tensor(w_cand, requires_grad=True))
                  for _ in range(steps)]
        h, states = Tensor(h0), []
        for rows, (zr, cand) in zip(schedule, copies):
            h = ad.gru(Tensor(gates), zr, cand, h, rows=rows[None])
            states.append(h)
        ad.sum_(ad.mul(reference.member_major(states), head)).backward()
        for k, t in enumerate(shared):
            np.testing.assert_allclose(t.grad, sum(c[k].grad for c in copies), rtol=0, atol=1e-12)
            assert t._outer is None

    @pytest.mark.parametrize("zr_shape, cand_shape", [
        ((6, 2), (3, 3)), ((9, 3), (3, 3)), ((6, 3), (3, 4)), ((3, 3), (6, 3)), ((18,), (3, 3))])
    def test_mismatched_state_weights_rejected(self, zr_shape, cand_shape):
        with pytest.raises(TensorError, match=re.escape(f"{zr_shape} and {cand_shape}")):
            ad.gru(Tensor(np.zeros((2, 9))), Tensor(np.zeros(zr_shape)),
                   Tensor(np.zeros(cand_shape)), Tensor(np.zeros((2, 3))), np.array([[0, 1]]))


class TestAttentionScores:
    """The one attention loop of `ad.attention_gru`, `ad._attention_scores`:
    scores v . tanh(key + query) and the activation backward reads, from one
    broadcast sum of the keys and the queries."""

    def test_query_rows_match_single_queries(self):
        rng = np.random.default_rng(12)
        keys, queries, v = rng.normal(size=(6, 4)), rng.normal(size=(3, 4)), rng.normal(size=4)
        rows, act = ad._attention_scores(keys, queries, v, 1)
        assert rows.shape == (3, 6) and act.shape == (3, 6, 4)
        for q, row, t in zip(queries, rows, act):
            np.testing.assert_allclose(t, np.tanh(keys + q), rtol=0, atol=1e-12)
            np.testing.assert_allclose(row, np.tanh(keys + q) @ v, rtol=0, atol=1e-12)

    def test_mismatched_query_rejected(self):
        """An attention query whose width is not the keys': `w_s` of 3 rows
        against keys of width 4."""
        rng = np.random.default_rng(13)
        leaves = [Tensor(rng.normal(size=shape)) for shape in (
            (1, 6), (4, 2), (2, 2), (1, 2), (1, 6), (6, 6), (6, 4), (3, 2), (4,))]
        with pytest.raises(TensorError, match=r"attention_gru: .* w_s \(3, 2\)"):
            ad.attention_gru(*leaves)

    # (blocks, query rows per block, n, a): a beam of 20 rows at paper widths,
    # single blocks of a few rows over long or wide keys, training batches of
    # one row per block, and several rows in each of several blocks
    CHUNK_SHAPES = [(1, 20, 30, 512), (1, 7, 100, 400), (1, 3, 20, 2000),
                    (5, 1, 30, 512), (3, 4, 30, 273), (4, 3, 70, 600), (8, 1, 9, 8)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("blocks, per, n, a", CHUNK_SHAPES)
    def test_chunked_scores_equal_the_one_shot_formula(self, dtype, blocks, per, n, a):
        rng = np.random.default_rng(blocks * per + n + a)
        keys = rng.normal(size=(blocks * n, a)).astype(dtype)
        query = rng.normal(size=(blocks * per, a)).astype(dtype)
        v = rng.normal(size=a).astype(dtype)
        t = np.tanh(keys.reshape(blocks, 1, n, a) + query.reshape(blocks, -1, 1, a))
        want = t.reshape(blocks * per, n, a) @ v
        got, act = ad._attention_scores(keys, query, v, blocks)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert act.tobytes() == t.tobytes()

    def test_beam_step_holds_one_activation(self):
        """A float64 paper-width beam step of `ad.attention_gru` under
        no_grad, 20 hypotheses over 30 positions and 512 attention units,
        holds its (20, 30, 512) activation once: a second full-size
        temporary would take its peak past 1.5 activations."""
        import tracemalloc

        rng = np.random.default_rng(3)
        k, n, a, hidden = 20, 30, 512, 8
        leaves = [Tensor(rng.normal(size=shape)) for shape in (
            (k, 3 * hidden), (2 * hidden, hidden), (hidden, hidden), (k, hidden), (k, n),
            (n, 3 * hidden), (n, a), (a, hidden), (a,))]
        full = k * n * a * 8
        with ad.no_grad():
            tracemalloc.start()
            try:
                ad.attention_gru(*leaves)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 1.5 * full


class TestNoGrad:
    def test_ops_detached(self):
        x = Tensor(2.0, requires_grad=True)
        with ad.no_grad():
            y = ad.mul(x, x)
        assert not y.requires_grad
        assert y._parents == ()
        assert y._backward is None

    def test_decode_step_keeps_no_history_alive(self, monkeypatch):
        """Under no_grad an op's output refers neither to its inputs nor to
        itself: with the cycle collector off, a step's intermediates are
        freed while its outputs live, and the outputs once dropped."""
        rng = np.random.default_rng(13)
        p = DecoderParams.create(ParamStore(rng=rng), 3, 8, 4, 5, 6)
        enc = Tensor(rng.normal(size=(5, 8)))
        created, ops = [], []
        node = ad._node

        def recording_node(data, parents, op, backward):
            out = node(data, parents, op, backward)
            created.append(weakref.ref(out))
            ops.append(op)
            return out

        monkeypatch.setattr(ad, "_node", recording_node)
        gc.disable()
        try:
            with ad.no_grad():
                memory = passage_memory(enc, p)
                created.clear()
                ops.clear()
                s_t, dist = decode_step(*word_terms(Tensor(rng.normal(size=(2, 3))), p),
                                        Tensor(np.zeros((2, 5))),
                                        Tensor(rng.normal(size=(2, 4))), memory, p)
            # the step ran: the recurrence's states and attention weights, the
            # readout and the copy gate
            assert {"attention_gru", "attention_gru.weights", "linear", "maxout",
                    "sigmoid"} <= set(ops)
            returned = {id(t) for t in (s_t, *vars(dist).values())}
            assert {id(ref()) for ref in created if ref() is not None} <= returned
            del s_t, dist
            assert all(ref() is None for ref in created)
        finally:
            gc.enable()


def _reload(path, store):
    """A store laid out like `store`, filled from the checkpoint at `path`,
    and the checkpoint's meta."""
    other = ParamStore(store.dtype)
    for name, t in store.items():
        other.add(name, np.zeros(t.shape))
    with ParamStore.read(path) as (meta, fill):
        fill(other)
    return other, meta


class TestParamStore:
    def test_duplicate_name_rejected(self):
        store = ParamStore()
        store.add("w", np.zeros(3))
        with pytest.raises(TensorError, match="duplicate"):
            store.add("w", np.zeros(3))

    def test_checkpoint_roundtrip_bit_exact(self, tmp_path):
        """The loaded store is packed around the file's data: its parameters
        are views of one flat buffer that holds the saved bytes."""
        rng = np.random.default_rng(0)
        store = ParamStore()
        store.add("layer.w", rng.normal(size=(7, 5)))
        store.add("layer.b", rng.normal(size=7))
        path = tmp_path / "ckpt.npz"
        store.save(path, {"config": {"seed": 1}})
        loaded, meta = _reload(path, store)
        assert meta == {"config": {"seed": 1}, "format_version": CHECKPOINT_FORMAT_VERSION,
                        "dtype": "<f8", "layout": [["layer.w", [7, 5]], ["layer.b", [7]]]}
        for name, t in store.items():
            assert loaded[name].data.base is loaded.data
            assert loaded[name].data.dtype == t.data.dtype
            assert loaded[name].data.tobytes() == t.data.tobytes()

    def test_checkpoint_members_are_stored(self, tmp_path):
        """Two stored members with a fixed timestamp, so two saves of the
        same weights give the same bytes."""
        store = ParamStore()
        store.add("layer.w", np.ones((3, 2)))
        first, second = tmp_path / "a.npz", tmp_path / "b.npz"
        store.save(first)
        store.save(second)
        with zipfile.ZipFile(first) as zf:
            assert [(i.filename, i.compress_type, i.date_time) for i in zf.infolist()] == [
                ("meta.json", zipfile.ZIP_STORED, (1980, 1, 1, 0, 0, 0)),
                ("data", zipfile.ZIP_STORED, (1980, 1, 1, 0, 0, 0))]
            assert zf.read("data") == np.ones((3, 2)).tobytes()
        assert first.read_bytes() == second.read_bytes()

    def test_deflated_checkpoint_reads_back(self, tmp_path):
        """A checkpoint whose members are re-zipped with deflate reads back
        to the same meta and bytes."""
        rng = np.random.default_rng(1)
        store = ParamStore(np.float32)
        store.add("layer.w", rng.normal(size=(7, 5)))
        store.add("layer.b", rng.normal(size=7))
        stored, deflated = tmp_path / "stored.npz", tmp_path / "deflated.npz"
        store.save(stored, {"step": 4})
        with zipfile.ZipFile(stored) as src, \
                zipfile.ZipFile(deflated, "w", zipfile.ZIP_DEFLATED) as dst:
            for name in src.namelist():
                dst.writestr(name, src.read(name))
        with zipfile.ZipFile(deflated) as zf:
            assert {i.compress_type for i in zf.infolist()} == {zipfile.ZIP_DEFLATED}
        (a, meta_a), (b, meta_b) = _reload(stored, store), _reload(deflated, store)
        assert meta_a == meta_b
        assert meta_a["step"] == 4 and meta_a["dtype"] == "<f4"
        for name, t in store.items():
            assert a[name].data.dtype == b[name].data.dtype == t.data.dtype
            assert a[name].data.tobytes() == b[name].data.tobytes() == t.data.tobytes()

    def test_load_missing_param_rejected(self, tmp_path):
        store = ParamStore()
        store.add("w", np.zeros(3))
        path = tmp_path / "ckpt.npz"
        store.save(path)
        other = ParamStore()
        other.add("w", np.zeros(3))
        other.add("extra", np.zeros(2))
        with pytest.raises(CheckpointError, match=r"missing parameters \['extra'\]"):
            _reload(path, other)
        assert other.data is None and not other["w"].data.any()

    def test_interrupted_save_keeps_the_earlier_checkpoint(self, tmp_path, monkeypatch):
        store = ParamStore()
        store.add("a", np.arange(3.0))
        store.add("b", np.ones((2, 2)))
        path = tmp_path / "model.npz"
        store.save(path, {"step": 1})
        before = path.read_bytes()
        # the save fails after "a" is written
        contiguous = np.ascontiguousarray

        def fail_on_b(array, *args, **kwargs):
            if array.shape == (2, 2):
                raise OSError("disk full")
            return contiguous(array, *args, **kwargs)
        monkeypatch.setattr(np, "ascontiguousarray", fail_on_b)
        with pytest.raises(OSError, match="disk full"):
            store.save(path, {"step": 2}, data=np.zeros(7))
        monkeypatch.undo()
        assert [p.name for p in tmp_path.iterdir()] == ["model.npz"]
        assert path.read_bytes() == before
        store.save(path, {"step": 3})
        assert [p.name for p in tmp_path.iterdir()] == ["model.npz"]
        assert _reload(path, store)[1]["step"] == 3

    @pytest.mark.parametrize("flat", [np.arange(10.0), np.arange(5.0), np.arange(7.0)[None],
                                      np.arange(7.0, dtype=np.float32)],
                             ids=["too_long", "too_short", "not_1d", "wrong_dtype"])
    def test_flat_array_of_the_wrong_size_rejected(self, tmp_path, flat):
        """`views` and `save(data=...)` name both sizes and dtypes, and the
        earlier file stays in place."""
        store = ParamStore()
        store.add("a", np.arange(3.0))
        store.add("b", np.ones((2, 2)))
        path = tmp_path / "model.npz"
        store.save(path, {"step": 1})
        before = path.read_bytes()
        for call in (lambda: store.views(flat), lambda: store.save(path, {"step": 2}, data=flat)):
            with pytest.raises(TensorError, match=rf"a flat {flat.dtype} array .*\({flat.size} "
                                                  r"entries\).*store's 7 entries of float64"):
                call()
        assert [p.name for p in tmp_path.iterdir()] == ["model.npz"]
        assert path.read_bytes() == before

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_draw_gives_the_bytes_of_one_uniform_draw(self, dtype):
        """Drawn in slices, a weight is `rng.uniform(-scale, scale)` cast,
        and the generator is left where that draw leaves it."""
        shapes = [(), (3,), (ad.DRAW_SLICE,), (ad.DRAW_SLICE + 1, 1), (3 * ad.DRAW_SLICE - 5, 2),
                  (0, 4)]
        store, rng = ParamStore(dtype, np.random.default_rng(9)), np.random.default_rng(9)
        for i, shape in enumerate(shapes):
            scale = 0.05 * (i + 1)
            got = store.draw(f"w{i}", shape, scale).data
            want = np.array(rng.uniform(-scale, scale, size=shape), dtype=dtype)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert store.rng.random() == rng.random()

    def test_zero_grad(self):
        store = ParamStore()
        w = store.add("w", np.ones(2))
        ad.sum_(ad.mul(w, w)).backward()
        np.testing.assert_array_equal(w.grad, [2.0, 2.0])
        store.zero_grad()
        grad = w.grad
        np.testing.assert_array_equal(grad, [0.0, 0.0])
        assert grad.base is store.grad   # zeroed in place, in the packed buffer
        ad.sum_(ad.mul(w, w)).backward()
        store.zero_grad()
        assert w.grad is grad and not grad.any()

    def test_pack_keeps_values_and_a_gradient_already_held(self):
        store = ParamStore()
        w = store.add("w", np.array([1.0, -2.0]))
        b = store.add("b", np.array(3.0))
        ad.sum_(ad.mul(w, w)).backward()   # b gets no gradient
        store.pack()
        np.testing.assert_array_equal(store.data, [1.0, -2.0, 3.0])
        np.testing.assert_array_equal(store.grad, [2.0, -4.0, 0.0])
        assert w.data.base is store.data and b.grad.base is store.grad
        store.pack()   # idempotent
        assert w.data.base is store.data


class TestDtypes:
    def test_float32_kept_and_other_data_becomes_float64(self):
        assert Tensor(np.zeros(2, np.float32)).data.dtype == np.float32
        assert Tensor(np.zeros(2)).data.dtype == np.float64
        for data in ([1, 2], np.array([True, False]), 3, 2.5, np.zeros(2, np.float16)):
            assert Tensor(data).data.dtype == np.float64

    def test_constants_take_the_tensor_dtype(self):
        x = Tensor(np.ones(3, np.float32), requires_grad=True)
        outs = [ad.add(x, np.arange(3.0)), ad.add(1.0, x), ad.mul(x, 0.5),
                ad.mul(np.zeros(3), x), ad.matmul(np.eye(3), x),
                ad.concat([x, np.zeros(2)])]
        for out in outs:
            assert out.data.dtype == np.float32, out._op
            assert all(p.data.dtype == np.float32 for p in out._parents), out._op
        assert ad.add(1.0, 2.0).data.dtype == np.float64

    @pytest.mark.parametrize("op", [
        lambda a, b: ad.add(a, b),
        lambda a, b: ad.linear(reference.slice_(a, None), reference.slice_(b, None)),
        lambda a, b: ad.concat([a, b]),
    ])
    def test_mixed_tensor_dtypes_raise(self, op):
        a32 = Tensor(np.ones(3, np.float32))
        a64 = Tensor(np.ones(3))
        with pytest.raises(TensorError, match="float32 and float64|float64 and float32"):
            op(a32, a64)
        with pytest.raises(TensorError, match="float32 and float64|float64 and float32"):
            op(a64, a32)

    def test_param_store_casts_to_its_dtype(self):
        store = ParamStore(np.float32)
        w = store.add("w", np.arange(3.0))
        assert w.data.dtype == np.float32 and w.requires_grad
        assert ParamStore().add("b", [1, 2]).data.dtype == np.float64

    def test_dropout_mask_keeps_float32(self):
        x = Tensor(np.ones((4, 5), np.float32), requires_grad=True)
        out = ad.dropout(x, ad.dropout_keep(np.random.default_rng(0), x.shape, 0.5, np.float32))
        assert out.data.dtype == np.float32
        ad.sum_(out).backward()
        assert x.grad.dtype == np.float32
