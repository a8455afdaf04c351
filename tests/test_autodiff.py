import gc
import weakref
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qgen.autodiff as ad
from qgen.autodiff import CheckpointError, ParamStore, Tensor, TensorError
from qgen.decoder import DecoderParams, decode_step, passage_memory

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
        out = ad.softmax(Tensor([5.0, 1.0, 3.0]), mask=np.array([True, False, True]))
        assert out.data[1] == 0.0
        assert out.data.sum() == pytest.approx(1.0, abs=1e-9)

    def test_all_masked_error(self):
        with pytest.raises(TensorError, match="masked"):
            ad.softmax(Tensor([1.0, 2.0]), mask=np.array([False, False]))

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
                             ad.sum_(ad.mul(table[1:3], 2.0))),
                      ad.sum_(ad.mul(table, table)))
        expected = 2 * table.data + np.array([[1.0], [2.0], [4.0]])
        loss.backward()
        np.testing.assert_array_equal(table.grad, expected)
        loss.backward()
        np.testing.assert_array_equal(table.grad, 2 * expected)

    def test_gather_out_of_range(self):
        with pytest.raises(TensorError, match="out of range"):
            ad.gather_rows(Tensor(np.ones((3, 4))), [3])

    def test_slice_of_concat_roundtrip(self):
        a, b = np.arange(3.0), np.arange(4.0)
        both = ad.concat([Tensor(a), Tensor(b)])
        np.testing.assert_array_equal(both[0:3].data, a)

    def test_strided_slice_backward(self):
        x = Tensor(np.arange(6.0), requires_grad=True)
        ad.sum_(x[0::2]).backward()
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


OP_CASES = [
    ("add", lambda a, b: ad.sum_(ad.add(a, b)), 2, None),
    ("sub", lambda a, b: ad.sum_(ad.sub(a, b)), 2, None),
    ("mul", lambda a, b: ad.sum_(ad.mul(a, b)), 2, None),
    ("neg", lambda a: ad.sum_(ad.neg(a)), 1, None),
    ("tanh", lambda a: ad.sum_(ad.tanh(a)), 1, None),
    ("sigmoid", lambda a: ad.sum_(ad.sigmoid(a)), 1, None),
    ("log", lambda a: ad.sum_(ad.log(a)), 1, "positive"),
    ("softmax", lambda a: ad.sum_(ad.mul(ad.softmax(a), a)), 1, None),
    ("maximum", lambda a, b: ad.sum_(ad.maximum(a, b)), 2, "apart"),
    ("clamp", lambda a: ad.sum_(ad.clamp_min(a, 0.0)), 1, "nonzero"),
    ("linear2d", lambda x, w: ad.sum_(ad.tanh(ad.linear(x, w))), 2, "matrix"),
    ("attention2d", lambda k, q, v: ad.sum_(ad.tanh(ad.attention_scores(k, q, v[0]))),
     3, "matrix"),
    ("mean", lambda a: ad.mean_(a), 1, None),
]


@pytest.mark.parametrize("name,fn,arity,domain", OP_CASES, ids=[c[0] for c in OP_CASES])
def test_op_gradients_on_random_shapes(name, fn, arity, domain):
    """Every differentiable op against central differences on 20 random shapes."""
    rng = np.random.default_rng(42)
    for trial in range(20):
        if domain == "matrix":
            shape = (int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        else:
            shape = tuple(rng.integers(1, 5, size=int(rng.integers(1, 3))))
        if domain == "positive":
            arrays = [rng.uniform(0.5, 3.0, size=shape) for _ in range(arity)]
        elif domain in ("nonzero", "apart"):
            arrays = [_away_from_zero(rng, shape) for _ in range(arity)]
            if domain == "apart" and np.any(np.abs(arrays[0] - arrays[1]) < 0.05):
                arrays[1] = arrays[1] + 0.2
        else:
            arrays = [rng.normal(size=shape) for _ in range(arity)]
        assert_grads_match(fn, arrays, tol=1e-4)


def test_concat_and_slice_gradients():
    rng = np.random.default_rng(9)
    a, b = rng.normal(size=(2, 3)), rng.normal(size=(4, 3))

    def loss(x, y):
        both = ad.concat([x, y], axis=0)
        return ad.sum_(ad.mul(both[1:5], 3.0))

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


class TestColumnRanges:
    """`linear(x, w, cols)` multiplies by a column block of w in place; the
    weight gradient is summed per block."""

    def _arrays(self):
        rng = np.random.default_rng(21)
        return rng.normal(size=(4, 5)), rng.normal(size=(3, 5)), rng.normal(size=(2, 5))

    def test_blocks_add_up_to_the_full_product(self):
        w, x, _ = self._arrays()
        parts = ad.add(ad.linear(Tensor(x[:, :2]), Tensor(w), (0, 2)),
                       ad.linear(Tensor(x[:, 2:]), Tensor(w), (2, 5)))
        np.testing.assert_allclose(parts.data, x @ w.T, rtol=0, atol=1e-12)
        np.testing.assert_allclose(ad.linear(Tensor(x[0:1, 1:4]), Tensor(w), (1, 4)).data,
                                   [w[:, 1:4] @ x[0, 1:4]], rtol=0, atol=1e-12)

    def test_gradients_of_every_range(self):
        w, x1, x2 = self._arrays()

        def loss(w, x1, x2):
            return ad.add(ad.sum_(ad.tanh(ad.add(ad.linear(x1[:, :2], w, (0, 2)),
                                                 ad.linear(x1[:, 2:], w, (2, 5))))),
                          ad.add(ad.sum_(ad.tanh(ad.linear(x2[:, 1:3], w, (1, 3)))),
                                 ad.sum_(ad.tanh(ad.linear(x2[0:1, :2], w, (0, 2))))))

        assert_grads_match(loss, [w, x1, x2], tol=1e-4)

    def test_weight_gradient_equals_sum_of_outer_products(self):
        w, x1, x2 = self._arrays()
        wt = Tensor(w, requires_grad=True)
        ad.add(ad.sum_(ad.linear(Tensor(x1[:, :2]), wt, (0, 2))),
               ad.add(ad.sum_(ad.linear(Tensor(x2[:, 2:]), wt, (2, 5))),
                      ad.sum_(ad.linear(Tensor(x2), wt)))).backward()
        expected = np.outer(np.ones(4), x2.sum(axis=0))
        expected[:, :2] += np.outer(np.ones(4), x1[:, :2].sum(axis=0))
        expected[:, 2:] += np.outer(np.ones(4), x2[:, 2:].sum(axis=0))
        np.testing.assert_allclose(wt.grad, expected, rtol=0, atol=1e-12)
        assert wt._outer is None

    @pytest.mark.parametrize("width, cols", [(3, (3, 7)), (2, (1, 4)), (3, (-1, 2)), (3, None)])
    def test_bad_range_rejected(self, width, cols):
        with pytest.raises(TensorError, match="columns"):
            ad.linear(Tensor(np.zeros((1, width))), Tensor(np.zeros((4, 5))), cols)


class TestBlockAttention:
    """With B blocks, row b of the query and of the weights sees block b of
    the keys and values only."""

    def _arrays(self, blocks=3, n=4):
        rng = np.random.default_rng(22)
        return (rng.normal(size=(blocks * n, 5)), rng.normal(size=(blocks, 5)),
                rng.normal(size=5), rng.normal(size=(blocks * n, 6)))

    def test_scores_and_context_match_each_block_alone(self):
        keys, query, v, values = self._arrays()
        scores = ad.attention_scores(Tensor(keys), Tensor(query), Tensor(v), 3)
        alpha = ad.softmax(scores)
        context = ad.attention_context(alpha, Tensor(values))
        assert scores.shape == (3, 4) and context.shape == (3, 6)
        for b in range(3):
            block = slice(4 * b, 4 * b + 4)
            one = ad.attention_scores(Tensor(keys[block]), Tensor(query[b:b + 1]), Tensor(v))
            np.testing.assert_allclose(scores.data[b], one.data[0], rtol=0, atol=1e-14)
            np.testing.assert_allclose(context.data[b], alpha.data[b] @ values[block],
                                       rtol=0, atol=1e-14)

    def test_gradients(self):
        keys, query, v, values = self._arrays()

        def loss(k, q, v, x):
            alpha = ad.softmax(ad.attention_scores(k, q, v, 3))
            return ad.sum_(ad.tanh(ad.attention_context(alpha, x)))

        assert_grads_match(loss, [keys, query, v, values], tol=1e-4)

    def test_one_block_is_shared_by_every_row(self):
        keys, query, v, values = self._arrays(blocks=1)
        alpha = ad.softmax(ad.attention_scores(Tensor(keys), Tensor(np.tile(query, (3, 1))),
                                               Tensor(v)))
        np.testing.assert_array_equal(ad.attention_context(alpha, Tensor(values)).data,
                                      alpha.data @ values)

    def test_mismatched_blocks_rejected(self):
        keys, query, v, values = self._arrays()
        with pytest.raises(TensorError, match="blocks"):
            ad.attention_scores(Tensor(keys), Tensor(query[:2]), Tensor(v), 3)
        with pytest.raises(TensorError, match="blocks"):
            ad.attention_scores(Tensor(keys), Tensor(query), Tensor(v), 5)
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
    """`linear` defers w's g.T @ x to one GEMM when `backward` reaches w; the
    result must equal the explicit sum of one outer product per row."""

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
        wt.zero_grad()
        ad.sum_(ad.mul(wt, wt)).backward()
        np.testing.assert_array_equal(wt.grad, 2 * w)


class TestAttentionScores:
    def test_query_rows_match_single_queries(self):
        rng = np.random.default_rng(12)
        keys, queries, v = rng.normal(size=(6, 4)), rng.normal(size=(3, 4)), rng.normal(size=4)
        rows = ad.attention_scores(Tensor(keys), Tensor(queries), Tensor(v)).data
        assert rows.shape == (3, 6)
        for q, row in zip(queries, rows):
            np.testing.assert_allclose(row, np.tanh(keys + q) @ v, rtol=0, atol=1e-12)

    def test_mismatched_query_rejected(self):
        with pytest.raises(TensorError, match="attention_scores"):
            ad.attention_scores(Tensor(np.zeros((6, 4))), Tensor(np.zeros(3)), Tensor(np.zeros(4)))

    # (blocks, query rows per block, n, a): one (n, a) row over SLICE, rows
    # of one block in chunks that do not divide them, several blocks per
    # chunk with one left over, and everything in one chunk
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
        got = ad.attention_scores(Tensor(keys), Tensor(query), Tensor(v), blocks).data
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_beam_step_never_holds_the_whole_activation(self):
        import tracemalloc

        rng = np.random.default_rng(3)
        keys, query, v = rng.normal(size=(30, 512)), rng.normal(size=(20, 512)), rng.normal(size=512)
        keys, query, v = Tensor(keys), Tensor(query), Tensor(v)
        full = 20 * 30 * 512 * 8
        with ad.no_grad():
            tracemalloc.start()
            try:
                ad.attention_scores(keys, query, v)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < full / 4


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
        p = DecoderParams.create(ParamStore(), 3, 8, 4, 5, 6, rng)
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
                s_t, dist = decode_step(Tensor(rng.normal(size=(2, 3))), Tensor(np.zeros((2, 5))),
                                        Tensor(rng.normal(size=(2, 4))), memory, p)
            # the step ran: GRU, attention, readout and copy gate
            assert {"gru_cell", "attention_scores", "softmax", "linear", "sigmoid"} <= set(ops)
            returned = {id(t) for t in (s_t, *vars(dist).values())}
            assert {id(ref()) for ref in created if ref() is not None} <= returned
            del s_t, dist
            assert all(ref() is None for ref in created)
        finally:
            gc.enable()


class TestParamStore:
    def test_duplicate_name_rejected(self):
        store = ParamStore()
        store.add("w", np.zeros(3))
        with pytest.raises(TensorError, match="duplicate"):
            store.add("w", np.zeros(3))

    def test_checkpoint_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        store = ParamStore()
        store.add("layer.w", rng.normal(size=(7, 5)))
        store.add("layer.b", rng.normal(size=7))
        path = tmp_path / "ckpt.npz"
        store.save(path, {"config": {"seed": 1}})
        arrays, meta = ParamStore.read(path)
        assert meta["format_version"] == 1
        assert meta["config"] == {"seed": 1}
        for name, t in store.items():
            assert arrays[name].dtype == t.data.dtype
            assert (arrays[name] == t.data).all()

    def test_checkpoint_members_are_stored(self, tmp_path):
        store = ParamStore()
        store.add("layer.w", np.ones((3, 2)))
        path = tmp_path / "ckpt.npz"
        store.save(path)
        with zipfile.ZipFile(path) as zf:
            assert {i.filename: i.compress_type for i in zf.infolist()} == {
                "meta.json": zipfile.ZIP_STORED, "params/layer.w.npy": zipfile.ZIP_STORED}

    def test_deflated_checkpoint_reads_back(self, tmp_path):
        """Checkpoints whose members are deflated, as earlier versions wrote
        them, read back to the same array bytes."""
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
        (a, meta_a), (b, meta_b) = ParamStore.read(stored), ParamStore.read(deflated)
        assert meta_a == meta_b == {"format_version": 1, "step": 4}
        assert a.keys() == b.keys() == {"layer.w", "layer.b"}
        for name, t in store.items():
            assert a[name].dtype == b[name].dtype == t.data.dtype
            assert a[name].tobytes() == b[name].tobytes() == t.data.tobytes()

    def test_load_missing_param_rejected(self, tmp_path):
        store = ParamStore()
        store.add("w", np.zeros(3))
        path = tmp_path / "ckpt.npz"
        store.save(path)
        arrays, _ = ParamStore.read(path)
        other = ParamStore()
        other.add("w", np.zeros(3))
        other.add("extra", np.zeros(2))
        with pytest.raises(CheckpointError, match="missing"):
            other.load_arrays(arrays)

    def test_interrupted_save_keeps_the_earlier_checkpoint(self, tmp_path):
        store = ParamStore()
        store.add("a", np.arange(3.0))
        store.add("b", np.ones((2, 2)))
        path = tmp_path / "model.npz"
        store.save(path, {"step": 1})
        before = path.read_bytes()
        # "b" is missing: the save fails after "a" is written
        with pytest.raises(KeyError, match="'b'"):
            store.save(path, {"step": 2}, arrays={"a": np.zeros(3)})
        assert [p.name for p in tmp_path.iterdir()] == ["model.npz"]
        assert path.read_bytes() == before
        store.save(path, {"step": 3})
        assert [p.name for p in tmp_path.iterdir()] == ["model.npz"]
        assert ParamStore.read(path)[1]["step"] == 3

    def test_zero_grad(self):
        store = ParamStore()
        w = store.add("w", np.ones(2))
        ad.sum_(ad.mul(w, w)).backward()
        assert w.grad is not None
        store.zero_grad()
        assert w.grad is None


class TestDtypes:
    def test_float32_kept_and_other_data_becomes_float64(self):
        assert Tensor(np.zeros(2, np.float32)).data.dtype == np.float32
        assert Tensor(np.zeros(2)).data.dtype == np.float64
        for data in ([1, 2], np.array([True, False]), 3, 2.5, np.zeros(2, np.float16)):
            assert Tensor(data).data.dtype == np.float64

    def test_constants_take_the_tensor_dtype(self):
        x = Tensor(np.ones(3, np.float32), requires_grad=True)
        outs = [ad.add(x, np.arange(3.0)), ad.sub(1.0, x), ad.mul(x, 0.5),
                ad.maximum(x, np.zeros(3)), ad.matmul(np.eye(3), x),
                ad.concat([x, np.zeros(2)])]
        for out in outs:
            assert out.data.dtype == np.float32, out._op
            assert all(p.data.dtype == np.float32 for p in out._parents), out._op
        assert ad.add(1.0, 2.0).data.dtype == np.float64

    @pytest.mark.parametrize("op", [
        lambda a, b: ad.add(a, b),
        lambda a, b: ad.linear(a[None], b[None]),
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
