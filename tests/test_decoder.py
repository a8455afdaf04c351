import numpy as np
import pytest

import qgen.autodiff as ad
from qgen.autodiff import ParamStore, Tensor, TensorError
from qgen.decoder import (
    DecoderParams,
    decode_step,
    init_decoder,
    passage_memory,
    teacher_forced_unroll,
    word_terms,
)
from qgen.encoder import EncoderOutput
from qgen.features import Batch

import reference
from conftest import assert_grads_match


def _attend(enc, p, rng, rows=1):
    """(s, alpha, context) of one `decode_step` of `rows` random hypotheses
    over the passage `enc`: the new states, their attention weights and the
    context alpha H."""
    s, dist = decode_step(*word_terms(Tensor(rng.normal(size=(rows, 3))), p),
                          Tensor(np.zeros((rows, enc.shape[0]))),
                          Tensor(rng.normal(size=(rows, 4))), passage_memory(enc, p), p)
    return s, dist.copy, ad.attention_context(dist.copy, enc)


def _step(w_prev, alpha_prev, s_prev, enc, p):
    return decode_step(*word_terms(w_prev, p), alpha_prev, s_prev, passage_memory(enc, p), p)


def _params(rng, word_dim=3, enc_width=8, dec_hidden=4, attn_dim=5, vocab_out=6):
    store = ParamStore(rng=rng)
    return DecoderParams.create(store, word_dim, enc_width, dec_hidden, attn_dim,
                                vocab_out, scale=0.5), store


class TestInitDecoder:
    def test_zero_weight_gives_tanh_bias(self):
        b = np.array([0.3, -0.7])
        s0 = init_decoder(Tensor(np.ones((1, 4))), Tensor(np.zeros((2, 4))), Tensor(b))
        np.testing.assert_allclose(s0.data, [np.tanh(b)])

    def test_identity_weight(self):
        h = np.array([0.2, -0.5, 1.5])
        s0 = init_decoder(Tensor(h[None]), Tensor(np.eye(3)), Tensor(np.zeros(3)))
        np.testing.assert_allclose(s0.data, [np.tanh(h)])

    def test_range_is_open_unit_interval(self):
        rng = np.random.default_rng(0)
        s0 = init_decoder(Tensor(rng.normal(size=(1, 6)) * 10),
                          Tensor(rng.normal(size=(4, 6))), Tensor(rng.normal(size=4)))
        assert (np.abs(s0.data) < 1).all()


class TestAttention:
    def test_equal_scores_give_uniform_and_mean(self):
        rng = np.random.default_rng(1)
        p, _ = _params(rng)
        # zero attention weights make every score equal
        p.w_s, p.w_h, p.v = Tensor(np.zeros((5, 4))), Tensor(np.zeros((5, 8))), Tensor(np.zeros(5))
        enc = Tensor(rng.normal(size=(6, 8)))
        _, alpha, context = _attend(enc, p, rng)
        np.testing.assert_allclose(alpha.data, np.full((1, 6), 1 / 6))
        np.testing.assert_allclose(context.data, [enc.data.mean(axis=0)])

    def test_single_source_token(self):
        rng = np.random.default_rng(2)
        p, _ = _params(rng)
        enc = Tensor(rng.normal(size=(1, 8)))
        _, alpha, context = _attend(enc, p, rng)
        np.testing.assert_allclose(alpha.data, [[1.0]])
        np.testing.assert_allclose(context.data, enc.data)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(3)
        p, _ = _params(rng)
        enc = rng.normal(size=(4, 8))
        s, alpha, context = _attend(Tensor(enc), p, rng, rows=2)
        for k, s_k in enumerate(s.data):
            # direct per-position evaluation from the step's new state
            e = np.array([p.v.data @ np.tanh(p.w_s.data @ s_k + p.w_h.data @ h) for h in enc])
            a = np.exp(e - e.max())
            a = a / a.sum()
            np.testing.assert_allclose(alpha.data[k], a, atol=1e-12)
            np.testing.assert_allclose(context.data[k], (a[:, None] * enc).sum(axis=0), atol=1e-12)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(4)
        p, _ = _params(rng)
        for n in (1, 3, 9):
            _, alpha, _ = _attend(Tensor(rng.normal(size=(n, 8))), p, rng, rows=3)
            np.testing.assert_allclose(alpha.data.sum(axis=1), 1.0, rtol=0, atol=1e-9)


HIDDEN, ATTN, N = 4, 5, 4
# the ragged passages of the batch case: three blocks of one row each
LENGTHS = np.array([4, 2, 3])


class _RecurrenceCase:
    """Fresh leaves of one dtype from fixed arrays for `ad.attention_gru`,
    so that the op and its per-step graph build over equal, separate
    tensors: "batch" is B = 3 blocks of one row under a ragged mask, as a
    teacher-forced unroll runs it; "beam" one block of K = 3 rows without a
    mask, as a beam step does.  The schedule reads distinct rows of the
    shares out of order, and two rows are never read."""

    def __init__(self, dtype, shape, steps, seed=0):
        rng = np.random.default_rng(seed)
        blocks, m = (3, 3) if shape == "batch" else (1, 3)
        self.mask = np.arange(N) < LENGTHS[:, None] if shape == "batch" else None

        def leaf(*size, scale=1.0):
            return Tensor((rng.normal(size=size) * scale).astype(dtype), requires_grad=True)

        self.gates = leaf(steps * m + 2, 3 * HIDDEN)
        self.w_zr, self.w_cand = leaf(2 * HIDDEN, HIDDEN, scale=0.5), leaf(HIDDEN, HIDDEN, scale=0.5)
        self.h0 = leaf(m, HIDDEN)
        self.alpha0 = Tensor(rng.dirichlet(np.ones(N), m).astype(dtype), requires_grad=True)
        self.values, self.keys = leaf(blocks * N, 3 * HIDDEN), leaf(blocks * N, ATTN)
        self.w_s, self.v = leaf(ATTN, HIDDEN, scale=0.5), leaf(ATTN)
        self.rows = rng.permutation(steps * m + 2)[:steps * m].reshape(steps, m)
        self.head_s = rng.normal(size=(steps * m, HIDDEN)).astype(dtype)
        self.head_a = rng.normal(size=(steps * m, N)).astype(dtype)

    def leaves(self):
        return [self.gates, self.h0, self.alpha0, self.values, self.keys, self.v, self.w_s,
                self.w_zr, self.w_cand]

    def run(self, op, reads, passes=1):
        """The op's outputs and every leaf's gradient after `passes`
        backward passes of a loss that reads the states, the weights or
        both."""
        states, weights = op(self.gates, self.w_zr, self.w_cand, self.h0, self.alpha0, self.values,
                             self.keys, self.w_s, self.v, self.rows, self.mask)
        terms = []
        if reads in ("states", "both"):
            terms.append(ad.sum_(ad.mul(ad.tanh(states), self.head_s)))
        if reads in ("weights", "both"):
            terms.append(ad.sum_(ad.mul(ad.tanh(weights), self.head_a)))
        loss = terms[0] if len(terms) == 1 else ad.add(*terms)
        for _ in range(passes):
            loss.backward()
        return [states.data, weights.data] + [t.grad for t in self.leaves()]


def _assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestAttentionGru:
    """`ad.attention_gru` against the graph per step that it replaces:
    `attention_context`, the GRU step, the query `linear`, the attention
    scores and the masked softmax per step, and a `concat` of the states
    and of the weights (`reference.attention_gru_unfused`)."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("shape", ["batch", "beam"])
    @pytest.mark.parametrize("steps", [1, 2, 3])
    @pytest.mark.parametrize("reads", ["both", "states", "weights"])
    def test_k_steps_are_byte_identical_to_k_step_graphs(self, dtype, shape, steps, reads):
        got = _RecurrenceCase(dtype, shape, steps).run(ad.attention_gru, reads)
        want = _RecurrenceCase(dtype, shape, steps).run(reference.attention_gru_unfused, reads)
        for k, (a, b) in enumerate(zip(got, want, strict=True)):
            assert (a is None) == (b is None), k
            if a is not None:
                _assert_same_bytes(a, b)
        # every leaf is reached, but the scores of a last step that no loss reads
        unread = {6, 7, 8} if reads == "states" and steps == 1 else set()   # keys, v and w_s
        assert {k for k, a in enumerate(got) if a is None} == unread
        if shape == "batch":   # masked weights are exactly 0
            assert not got[1][np.repeat(np.arange(N) >= LENGTHS[:, None], steps, axis=0)].any()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_two_passes_accumulate_as_the_graph_does(self, dtype):
        got = _RecurrenceCase(dtype, "batch", 3).run(ad.attention_gru, "both", passes=2)
        want = _RecurrenceCase(dtype, "batch", 3).run(reference.attention_gru_unfused, "both",
                                                      passes=2)
        for a, b in zip(got, want, strict=True):
            _assert_same_bytes(a, b)

    @pytest.mark.parametrize("shape", ["batch", "beam"])
    def test_gradients_match_finite_differences(self, shape):
        case = _RecurrenceCase(np.float64, shape, 3, seed=5)
        rows, mask, head_s, head_a = case.rows, case.mask, case.head_s, case.head_a

        def loss(gates, h0, alpha0, values, keys, v, w_s, w_zr, w_cand):
            states, weights = ad.attention_gru(gates, w_zr, w_cand, h0, alpha0, values, keys,
                                               w_s, v, rows, mask)
            return ad.add(ad.sum_(ad.mul(ad.tanh(states), head_s)),
                          ad.sum_(ad.mul(ad.tanh(weights), head_a)))

        assert_grads_match(loss, [t.data for t in case.leaves()])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_beam_step_under_no_grad(self, dtype):
        """One step over all the shares, as `decode_step` runs it: the
        graph's bytes, and no history kept."""
        outs = []
        for op in (ad.attention_gru, reference.attention_gru_unfused):
            case = _RecurrenceCase(dtype, "beam", 1)
            with ad.no_grad():
                outs.append(op(reference.slice_(case.gates, slice(0, 3)), case.w_zr, case.w_cand,
                               case.h0, case.alpha0, case.values, case.keys, case.w_s, case.v))
        for got, want in zip(*outs, strict=True):
            _assert_same_bytes(got.data, want.data)
            assert not got.requires_grad and got._parents == () and got._backward is None

    def test_one_node_and_its_weights(self):
        case = _RecurrenceCase(np.float64, "batch", 3)
        states, weights = ad.attention_gru(case.gates, case.w_zr, case.w_cand, case.h0,
                                           case.alpha0, case.values, case.keys, case.w_s, case.v,
                                           case.rows, case.mask)
        assert states._op == "attention_gru" and states.shape == (9, HIDDEN)
        assert [id(t) for t in states._parents] == [id(t) for t in (
            case.gates, case.w_zr, case.w_cand, case.h0, case.alpha0, case.values, case.keys,
            case.w_s, case.v)]
        assert weights._parents == (states,) and weights.shape == (9, N)

    def test_mismatched_inputs_rejected(self):
        case = _RecurrenceCase(np.float64, "batch", 2)
        args = [case.gates, case.w_zr, case.w_cand, case.h0, case.alpha0, case.values, case.keys,
                case.w_s, case.v]

        def call(k, value, rows=case.rows, mask=case.mask):
            ad.attention_gru(*args[:k], value, *args[k + 1:], rows=rows, mask=mask)

        with pytest.raises(TensorError, match="attention_gru: weights"):   # passages of 3 rows
            call(4, Tensor(np.zeros((3, 3))))
        with pytest.raises(TensorError, match="attention_gru: weights"):   # a value table of two gates
            call(5, Tensor(np.zeros((3 * N, 2 * HIDDEN))))
        with pytest.raises(TensorError, match="attention_gru: weights"):   # two blocks of keys
            call(6, Tensor(np.zeros((2 * N, ATTN))))
        with pytest.raises(TensorError, match="attention_gru: weights"):   # v of the wrong width
            call(8, Tensor(np.zeros(ATTN + 1)))
        with pytest.raises(TensorError, match="attention_gru: shares"):    # a step of two rows
            call(0, case.gates, rows=case.rows[:, :2])
        with pytest.raises(TensorError, match="attention_gru: weights"):   # weights (2h, 2h)
            call(1, Tensor(np.zeros((2 * HIDDEN, 2 * HIDDEN))))
        with pytest.raises(TensorError, match="attention_gru: mask"):
            call(0, case.gates, mask=case.mask[:2])
        with pytest.raises(TensorError, match="masked"):
            call(0, case.gates, mask=case.mask & (np.arange(3) != 1)[:, None])


class TestMaxout:
    def test_pairwise_max(self):
        out = ad.maxout(Tensor(np.array([[3.0, 1.0, 0.0, 2.0]])))
        np.testing.assert_array_equal(out.data, [[3.0, 2.0]])

    def test_odd_width_rejected(self):
        with pytest.raises(TensorError, match="even"):
            ad.maxout(Tensor(np.zeros((1, 5))))

    def test_halves_width(self):
        assert ad.maxout(Tensor(np.zeros((1, 10)))).shape == (1, 5)

    def test_rows_pair_independently(self):
        out = ad.maxout(Tensor(np.array([[3.0, 1.0, 0.0, 2.0], [-1.0, 4.0, 5.0, 5.5]])))
        np.testing.assert_array_equal(out.data, [[3.0, 2.0], [4.0, 5.5]])


class TestDecodeStep:
    def test_zero_output_weights_give_uniform_generation(self):
        rng = np.random.default_rng(5)
        p, _ = _params(rng, vocab_out=6)
        p.w_out = Tensor(np.zeros((6, 4)))
        _, dist = _step(Tensor(rng.normal(size=(1, 3))), Tensor(np.zeros((1, 5))),
                        Tensor(rng.normal(size=(1, 4))), Tensor(rng.normal(size=(5, 8))), p)
        np.testing.assert_allclose(dist.gen.data, np.full((1, 6), 1 / 6))

    def test_mixture_normalizes(self):
        rng = np.random.default_rng(6)
        p, _ = _params(rng)
        _, dist = _step(Tensor(rng.normal(size=(1, 3))), Tensor(np.zeros((1, 5))),
                        Tensor(rng.normal(size=(1, 4))),
                        Tensor(rng.normal(size=(5, 8))), p)
        g = dist.gate.item()
        total = (1 - g) * dist.gen.data.sum() + g * dist.copy.data.sum()
        assert total == pytest.approx(1.0, abs=1e-9)
        assert 0.0 < g < 1.0

    def test_copy_gate_saturation_concentrates_on_source(self):
        rng = np.random.default_rng(7)
        p, _ = _params(rng)
        p.b_gate = Tensor(np.asarray(50.0))
        _, dist = _step(Tensor(rng.normal(size=(1, 3))), Tensor(np.zeros((1, 5))),
                        Tensor(rng.normal(size=(1, 4))), Tensor(rng.normal(size=(5, 8))), p)
        g = dist.gate.item()
        assert g > 1 - 1e-9
        assert g * dist.copy.data.sum() == pytest.approx(1.0, abs=1e-9)

    def test_stacked_rows_match_single_steps(self):
        rng = np.random.default_rng(12)
        p, _ = _params(rng)
        w, a, s = rng.normal(size=(3, 3)), rng.dirichlet(np.ones(5), 3), rng.normal(size=(3, 4))
        enc = Tensor(rng.normal(size=(5, 8)))
        s_t, dist = _step(Tensor(w), Tensor(a), Tensor(s), enc, p)
        assert dist.gen.shape == (3, 6) and dist.copy.shape == (3, 5) and dist.gate.shape == (3,)
        for k in range(3):
            one_s, one = _step(Tensor(w[k:k + 1]), Tensor(a[k:k + 1]), Tensor(s[k:k + 1]), enc, p)
            np.testing.assert_allclose(s_t.data[k], one_s.data[0], rtol=0, atol=1e-12)
            np.testing.assert_allclose(dist.gen.data[k], one.gen.data[0], rtol=0, atol=1e-12)
            np.testing.assert_allclose(dist.copy.data[k], one.copy.data[0], rtol=0, atol=1e-12)
            assert dist.gate.data[k] == pytest.approx(one.gate.item(), abs=1e-12)

    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    def test_equals_the_context_step(self, dtype, tol):
        """Attention rows times the per-passage projections give the step of
        the context c = alpha H: K rows, the first all zeros as at the start
        of a beam, where the context is zero."""
        rng = np.random.default_rng(14)
        store = ParamStore(dtype, rng)
        p = DecoderParams.create(store, 3, 8, 4, 5, 6, scale=0.5)
        store["dec.gate.b"].data[...] = 0.3
        enc = Tensor(rng.normal(size=(7, 8)).astype(dtype))
        alpha = np.concatenate([np.zeros((1, 7)), rng.dirichlet(np.ones(7), 3)]).astype(dtype)
        w, s = rng.normal(size=(4, 3)).astype(dtype), rng.normal(size=(4, 4)).astype(dtype)
        with ad.no_grad():
            s_t, dist = _step(Tensor(w), Tensor(alpha), Tensor(s), enc, p)
            keys = passage_memory(enc, p).keys
            for k in range(4):
                c = Tensor(alpha[k:k + 1] @ enc.data)
                want = reference.decode_step(Tensor(w[k:k + 1]), c, Tensor(s[k:k + 1]), enc,
                                             keys, p, "eval", 0.0, None)
                for got, ref in ((s_t, want.s), (dist.gen, want.gen), (dist.copy, want.copy)):
                    assert got.data.dtype == dtype
                    np.testing.assert_allclose(got.data[k], ref.data[0], rtol=tol, atol=tol)
                np.testing.assert_allclose(dist.gate.data[k], want.gate.data[0], rtol=tol, atol=tol)
        assert not alpha[0].any()

    def test_gradients_through_full_step(self):
        rng = np.random.default_rng(8)
        p, store = _params(rng)
        w_prev = rng.normal(size=(1, 3))
        enc = rng.normal(size=(4, 8))

        def loss(w):
            _, dist = _step(w, Tensor(np.full((1, 4), 0.25)), Tensor(np.ones((1, 4)) * 0.1),
                            Tensor(enc), p)
            return ad.add(ad.sum_(ad.mul(dist.gen, dist.gen)), ad.mul(dist.gate, 2.0))

        assert_grads_match(loss, [w_prev], tol=1e-4)


def _questions(prev_ids, lengths=(4,)):
    """A `Batch` of what an unroll reads: each example's decoder input word
    rows, <SOS> first, and its step count, and the passage lengths."""
    return Batch(ids=None, lengths=np.array(lengths), heads=None,
                 word_rows=np.concatenate(prev_ids), steps=np.array([len(ids) for ids in prev_ids]))


class TestTeacherForcedUnroll:
    SOS, A, B = 0, 1, 2   # rows of the word table

    def _memory(self, rng, lengths=(4,)):
        n = max(lengths)
        return EncoderOutput(states=Tensor(rng.normal(size=(len(lengths) * n, 8))),
                             last_backward=Tensor(rng.normal(size=(len(lengths), 4))))

    def test_step_count_is_question_length_plus_one(self):
        rng = np.random.default_rng(9)
        p, _ = _params(rng)
        words = Tensor(rng.normal(size=(3, 3)))
        dist = teacher_forced_unroll(_questions([[self.SOS, self.A, self.B, self.A]]), words,
                                     self._memory(rng), p)
        assert dist.gen.shape[0] == dist.copy.shape[0] == dist.gate.shape[0] == 4

    def test_deterministic_in_eval_mode(self):
        rng = np.random.default_rng(10)
        p, _ = _params(rng)
        words = Tensor(rng.normal(size=(3, 3)))
        enc = self._memory(rng)
        d1 = teacher_forced_unroll(_questions([[self.SOS, self.A, self.B]]), words, enc, p)
        d2 = teacher_forced_unroll(_questions([[self.SOS, self.A, self.B]]), words, enc, p)
        for a, b in [(d1.gen, d2.gen), (d1.copy, d2.copy), (d1.gate, d2.gate)]:
            np.testing.assert_array_equal(a.data, b.data)

    def test_state_shapes(self):
        rng = np.random.default_rng(11)
        p, _ = _params(rng, dec_hidden=4, enc_width=8, vocab_out=6)
        words = Tensor(rng.normal(size=(3, 3)))
        dist = teacher_forced_unroll(_questions([[self.SOS, self.A]], (5,)), words,
                                     self._memory(rng, (5,)), p)
        assert dist.gen.shape == (2, 6)
        assert dist.copy.shape == (2, 5)
        assert dist.gate.shape == (2,)

    def test_rows_match_beam_steps_along_the_gold_prefix(self):
        """Training and the beam run one recurrence: each row of an unroll is
        `decode_step` run on one hypothesis that reads the same gold words."""
        rng = np.random.default_rng(13)
        p, _ = _params(rng)
        words = Tensor(rng.normal(size=(3, 3)))
        enc = self._memory(rng, (5,))
        ids = [self.SOS, self.A, self.B, self.B, self.A]
        dist = teacher_forced_unroll(_questions([ids], (5,)), words, enc, p)
        memory = passage_memory(enc.states, p)
        s = init_decoder(enc.last_backward, p.w_init, p.b_init)
        alpha = Tensor(np.zeros((1, 5)))
        for t, row in enumerate(ids):
            s, step = decode_step(*word_terms(ad.gather_rows(words, [row]), p), alpha, s,
                                  memory, p)
            for got, want in ((dist.gen, step.gen), (dist.copy, step.copy),
                              (dist.gate, step.gate)):
                np.testing.assert_allclose(got.data[t], want.data[0], rtol=0, atol=1e-12)
            alpha = step.copy

    def test_batch_rows_match_one_example_unrolls(self):
        """Uneven passages and questions in one batch: every example's rows
        equal its own unroll, and it attends to no padded position."""
        rng = np.random.default_rng(12)
        p, _ = _params(rng)
        words = Tensor(rng.normal(size=(3, 3)))
        lengths, n = [3, 1, 5], 5
        enc = self._memory(rng, lengths)
        questions = [[self.SOS, self.A, self.B, self.B], [self.SOS], [self.SOS, self.B]]
        keep = ad.dropout_keep(rng, (7, 4), 0.3)
        dist = teacher_forced_unroll(_questions(questions, lengths), words, enc, p, keep)
        row = 0
        for b, (ids, length) in enumerate(zip(questions, lengths)):
            one = EncoderOutput(states=reference.slice_(enc.states, slice(b * n, b * n + length)),
                                last_backward=reference.slice_(enc.last_backward, slice(b, b + 1)))
            alone = teacher_forced_unroll(_questions([ids], [length]), words, one, p,
                                          keep[row:row + len(ids)])
            rows = slice(row, row + len(ids))
            np.testing.assert_allclose(dist.gen.data[rows], alone.gen.data, rtol=0, atol=1e-14)
            np.testing.assert_allclose(dist.gate.data[rows], alone.gate.data, rtol=0, atol=1e-14)
            np.testing.assert_allclose(dist.copy.data[rows, :length], alone.copy.data,
                                       rtol=0, atol=1e-14)
            assert (dist.copy.data[rows, length:] == 0).all()
            row += len(ids)
