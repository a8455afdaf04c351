import numpy as np
import pytest

import qgen.autodiff as ad
from qgen.autodiff import ParamStore, Tensor, TensorError
from qgen.decoder import DecoderParams
from qgen.encoder import GruCellParams, encode, gru_inputs

import reference
from conftest import assert_grads_match


def _zero_params(input_dim, hidden):
    return GruCellParams(w_x=Tensor(np.zeros((3 * hidden, input_dim))),
                         w_zr=Tensor(np.zeros((2 * hidden, hidden))),
                         w_cand=Tensor(np.zeros((hidden, hidden))),
                         b=Tensor(np.zeros(3 * hidden)))


def gru_step(x, h_prev, p):
    """One step of x's rows, one per state row."""
    return ad.gru(gru_inputs(x, p), p.w_zr, p.w_cand, h_prev, np.arange(x.shape[0])[None])


def _random_params(input_dim, hidden, rng):
    store = ParamStore(rng=rng)
    return GruCellParams.create(store, "g", input_dim, hidden, scale=0.5), store


class TestGruCell:
    def test_all_zero_weights_halve_state(self):
        p = _zero_params(3, 4)
        h_prev = Tensor(np.array([[1.0, -2.0, 0.5, 4.0]]))
        h = gru_step(Tensor(np.ones((1, 3))), h_prev, p)
        np.testing.assert_allclose(h.data, 0.5 * h_prev.data)

    def test_candidate_path_from_zero_state(self):
        rng = np.random.default_rng(0)
        p = _zero_params(3, 4)
        w_h, b_h = rng.normal(size=(4, 7)), rng.normal(size=4)
        # the candidate's rows: on x, and on the reset state
        p.w_x.data[8:], p.w_cand.data[:], p.b.data[8:] = w_h[:, :3], w_h[:, 3:], b_h
        x = np.array([0.3, -1.0, 2.0])
        h = gru_step(Tensor(x[None]), Tensor(np.zeros((1, 4))), p)
        expected = 0.5 * np.tanh(w_h @ np.concatenate([x, np.zeros(4)]) + b_h)[None]
        np.testing.assert_allclose(h.data, expected, atol=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(2)
        x, h0 = rng.normal(size=(1, 3)), rng.normal(size=(1, 4))
        w_x, w_zr, w_cand = (rng.normal(size=shape) * 0.5 for shape in [(12, 3), (8, 4), (4, 4)])
        b = rng.normal(size=12) * 0.5

        def loss(xv, hv, w_xv, w_zrv, w_candv, bv):
            return ad.sum_(gru_step(xv, hv, GruCellParams(w_x=w_xv, w_zr=w_zrv, w_cand=w_candv,
                                                          b=bv)))

        assert_grads_match(loss, [x, h0, w_x, w_zr, w_cand, b], tol=1e-4)


class TestInitialWeights:
    """A GRU's weights are one (3 hidden, input + hidden) uniform draw, cut
    into each product's parameter: the draw's bytes, block by block, and
    the generator left where the stacked draw leaves it."""

    SEED, SCALE = 17, 0.08

    def _assert_one_draw(self, store, input_blocks, p, following):
        """[input blocks | [w_zr; w_cand]] is the draw, before and after
        `pack` copies the blocks into the flat buffer, and `following`, the
        next weight drawn, comes next in the stream."""
        def stacked():
            state = np.concatenate([p.w_zr.data, p.w_cand.data])
            return np.concatenate([t.data for t in input_blocks] + [state], axis=1)

        rng = np.random.default_rng(self.SEED)
        want = rng.uniform(-self.SCALE, self.SCALE, stacked().shape).tobytes()
        then = rng.uniform(-self.SCALE, self.SCALE, following.shape).tobytes()
        for _ in range(2):
            assert stacked().dtype == np.float64 and stacked().tobytes() == want
            assert following.data.tobytes() == then
            store.pack()

    def test_encoder_gru(self):
        store = ParamStore(np.float64, np.random.default_rng(self.SEED))
        p = GruCellParams.create(store, "enc.fwd", 7, 4, self.SCALE)
        following = store.draw("next", (3, 5), self.SCALE)
        assert [name for name, _ in store.items()] == [
            "enc.fwd.w_x", "enc.fwd.w_zr", "enc.fwd.w_cand", "enc.fwd.b", "next"]
        assert p.w_c is None
        self._assert_one_draw(store, [p.w_x], p, following)

    def test_decoder_gru_with_its_context_weight(self):
        store = ParamStore(np.float64, np.random.default_rng(self.SEED))
        p = DecoderParams.create(store, word_dim=5, enc_width=6, dec_hidden=4, attn_dim=3,
                                 vocab_out=9, scale=self.SCALE)
        assert p.gru.w_x.shape == (12, 5) and p.gru.w_c.shape == (12, 6)
        assert store["dec.gru.w_c"] is p.gru.w_c
        # dec.w_init is the first weight drawn after the GRU's
        self._assert_one_draw(store, [p.gru.w_x, p.gru.w_c], p.gru, p.w_init)


class TestEncode:
    def test_single_token(self):
        rng = np.random.default_rng(1)
        fwd, _ = _random_params(3, 4, rng)
        bwd, _ = _random_params(3, 4, rng)
        features = Tensor(rng.normal(size=(1, 3)))
        out = encode(features, [1], fwd, bwd)
        assert out.states.shape == (1, 8)
        expected_f = gru_step(features, Tensor(np.zeros((1, 4))), fwd).data
        expected_b = gru_step(features, Tensor(np.zeros((1, 4))), bwd).data
        np.testing.assert_allclose(out.states.data[:, :4], expected_f)
        np.testing.assert_allclose(out.states.data[:, 4:], expected_b)
        np.testing.assert_allclose(out.last_backward.data, expected_b)

    def test_empty_sequence_rejected(self):
        rng = np.random.default_rng(1)
        fwd, _ = _random_params(3, 4, rng)
        bwd, _ = _random_params(3, 4, rng)
        with pytest.raises(TensorError, match="positive"):
            encode(Tensor(np.zeros((0, 3))), [0], fwd, bwd)

    @pytest.mark.parametrize("rows,lengths,match", [
        (0, [], r"\[\]"), (3, [4, -1], r"\[4, -1\]"),
        (5, [2, 2], "input's 5 rows"), (3, [2, 2], "input's 3 rows")])
    def test_bad_lengths_rejected(self, rows, lengths, match):
        rng = np.random.default_rng(1)
        fwd, _ = _random_params(3, 4, rng)
        bwd, _ = _random_params(3, 4, rng)
        with pytest.raises(TensorError, match=match):
            encode(Tensor(np.zeros((rows, 3))), lengths, fwd, bwd)

    def test_shapes(self):
        rng = np.random.default_rng(4)
        fwd, _ = _random_params(5, 6, rng)
        bwd, _ = _random_params(5, 6, rng)
        out = encode(Tensor(rng.normal(size=(7, 5))), [7], fwd, bwd)
        assert out.states.shape == (7, 12)
        assert out.last_backward.shape == (1, 6)

    def test_reversal_swaps_directions(self):
        rng = np.random.default_rng(5)
        fwd, _ = _random_params(3, 4, rng)
        bwd, _ = _random_params(3, 4, rng)
        x = rng.normal(size=(6, 3))
        out = encode(Tensor(x), [6], fwd, bwd)
        rev = encode(Tensor(x[::-1].copy()), [6], bwd, fwd)
        # forward states on x equal reversed backward states on reverse(x)
        np.testing.assert_allclose(out.states.data[:, :4], rev.states.data[::-1, 4:], atol=1e-12)
        np.testing.assert_allclose(out.states.data[:, 4:], rev.states.data[::-1, :4], atol=1e-12)

    def test_causality(self):
        rng = np.random.default_rng(6)
        fwd, _ = _random_params(3, 4, rng)
        bwd, _ = _random_params(3, 4, rng)
        x = rng.normal(size=(5, 3))
        base = encode(Tensor(x), [5], fwd, bwd).states.data
        bumped = x.copy()
        bumped[3] += 1.0
        out = encode(Tensor(bumped), [5], fwd, bwd).states.data
        # forward half of positions < 3 untouched; backward half of positions > 3 untouched
        np.testing.assert_array_equal(out[:3, :4], base[:3, :4])
        np.testing.assert_array_equal(out[4:, 4:], base[4:, 4:])
        assert not np.array_equal(out[3:, :4], base[3:, :4])
        assert not np.array_equal(out[:4, 4:], base[:4, 4:])

    def test_eval_mode_deterministic_with_dropout_configured(self):
        rng = np.random.default_rng(7)
        fwd, _ = _random_params(3, 4, rng)
        bwd, _ = _random_params(3, 4, rng)
        x = Tensor(rng.normal(size=(4, 3)))
        # eval mode draws no multipliers: the same as keeping everything
        a = encode(x, [4], fwd, bwd)
        ones = ad.dropout_keep(np.random.default_rng(0), x.shape, 0.0)
        b = encode(x, [4], fwd, bwd, input_keep=ones, output_keep=np.ones((4, 8)))
        np.testing.assert_array_equal(a.states.data, b.states.data)

    def test_train_dropout_uses_rng(self):
        rng = np.random.default_rng(8)
        fwd, _ = _random_params(3, 4, rng)
        bwd, _ = _random_params(3, 4, rng)
        x = Tensor(rng.normal(size=(4, 3)))
        def run(seed):
            rng = np.random.default_rng(seed)
            return encode(x, [4], fwd, bwd, ad.dropout_keep(rng, (4, 3), 0.5),
                          ad.dropout_keep(rng, (4, 8), 0.5))

        a, b, c = run(0), run(0), run(1)
        np.testing.assert_array_equal(a.states.data, b.states.data)
        assert not np.array_equal(a.states.data, c.states.data)

    def test_encode_gradients(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(3, 2))
        store = ParamStore(rng=rng)
        fwd = GruCellParams.create(store, "f", 2, 3, scale=0.5)
        bwd = GruCellParams.create(store, "b", 2, 3, scale=0.5)

        def loss(xv):
            return ad.sum_(encode(xv, [3], fwd, bwd).states)

        assert_grads_match(loss, [x], tol=1e-4)


class TestBatchedEncode:
    """Passages of uneven length, one of them a single token, advance as
    the rows of one recurrence; each matches its own one-passage run."""

    LENGTHS = [4, 1, 6, 3]

    def _setup(self, seed=10):
        rng = np.random.default_rng(seed)
        fwd, _ = _random_params(3, 4, rng)
        bwd, _ = _random_params(3, 4, rng)
        xs = [rng.normal(size=(n, 3)) for n in self.LENGTHS]
        return fwd, bwd, xs

    def test_each_passage_matches_its_own_run(self):
        fwd, bwd, xs = self._setup()
        out = encode(Tensor(np.concatenate(xs)), self.LENGTHS, fwd, bwd)
        n = max(self.LENGTHS)
        assert out.states.shape == (len(xs) * n, 8) and out.last_backward.shape == (4, 4)
        for b, x in enumerate(xs):
            alone = encode(Tensor(x), [len(x)], fwd, bwd)
            rows = out.states.data[b * n:b * n + len(x)]
            np.testing.assert_allclose(rows, alone.states.data, rtol=0, atol=1e-14)
            np.testing.assert_allclose(out.last_backward.data[b], alone.last_backward.data[0],
                                       rtol=0, atol=1e-14)

    def test_gradients_match_one_passage_runs(self):
        fwd, bwd, xs = self._setup(11)
        w = np.random.default_rng(12).normal(size=(max(self.LENGTHS), 8))

        def loss(states, length):
            return ad.sum_(ad.mul(ad.tanh(states), w[:length]))

        params = [t for p in (fwd, bwd) for t in vars(p).values() if t is not None]
        xt = [Tensor(x, requires_grad=True) for x in xs]
        out = encode(ad.concat(xt), self.LENGTHS, fwd, bwd)
        n = max(self.LENGTHS)
        total = ad.sum_(ad.tanh(out.last_backward))
        for b, x in enumerate(xs):
            total = ad.add(total, loss(reference.slice_(out.states, slice(b * n, b * n + len(x))),
                                       len(x)))
        total.backward()
        batched = [t.grad for t in xt + params]
        for t in params:
            t.grad = None
        singles = [Tensor(x, requires_grad=True) for x in xs]
        for x in singles:
            alone = encode(x, [x.shape[0]], fwd, bwd)
            ad.add(loss(alone.states, x.shape[0]), ad.sum_(ad.tanh(alone.last_backward))).backward()
        for got, want in zip(batched, [t.grad for t in singles + params]):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_output_multipliers_follow_passage_order(self):
        fwd, bwd, xs = self._setup(13)
        rng = np.random.default_rng(14)
        keep = [ad.dropout_keep(rng, (len(x), 8), 0.5) for x in xs]
        out = encode(Tensor(np.concatenate(xs)), self.LENGTHS, fwd, bwd,
                     output_keep=np.concatenate(keep))
        n = max(self.LENGTHS)
        for b, x in enumerate(xs):
            alone = encode(Tensor(x), [len(x)], fwd, bwd, output_keep=keep[b])
            np.testing.assert_allclose(out.states.data[b * n:b * n + len(x)], alone.states.data,
                                       rtol=0, atol=1e-14)
