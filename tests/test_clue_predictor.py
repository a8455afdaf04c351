import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qgen.autodiff as ad
from qgen.autodiff import Tensor
from qgen.clue_predictor import (
    build_adjacency,
    clue_logits,
    encode_clue_features,
    gcn_layer,
    gumbel_noise,
    gumbel_softmax_sample,
    st_discretize,
)
from qgen.config import ConfigError, rng_stream
from qgen.corpus import ReducedTargetVocab, build_vocabulary, stopword_set
from qgen.features import FeatureVocab
from qgen.labeling import label_corpus
from qgen.model import QgModel
from qgen.toydata import make_toy_data

from conftest import assert_grads_match, chain_example, dependency_trees, tiny_config


def dense_gcn_oracle(x, a_tilde, w, b, nonlinearity=np.maximum):
    """Direct per-node evaluation of the propagation rule."""
    n = x.shape[0]
    out = np.zeros((n, w.shape[0]))
    d = a_tilde.sum(axis=1)
    for i in range(n):
        acc = np.zeros(w.shape[0])
        for j in range(n):
            acc += a_tilde[i, j] * (w @ x[j])
        out[i] = nonlinearity(acc / d[i] + b, 0.0)
    return out


def tree_structure(adj):
    """(A + I, degrees) read back from a row-normalized adjacency: its
    nonzero pattern, and that pattern's row sums."""
    a_tilde = (adj > 0).astype(float)
    return a_tilde, a_tilde.sum(axis=1)


class TestAdjacency:
    def test_single_token(self):
        adj = build_adjacency([chain_example(["solo"])])
        np.testing.assert_array_equal(adj, [[1.0]])

    def test_chain_degrees(self):
        ex = chain_example(["a", "b", "c"])
        _, degrees = tree_structure(build_adjacency([ex]))
        np.testing.assert_array_equal(degrees, [2.0, 3.0, 2.0])

    def test_symmetric_with_unit_diagonal(self, fig1_example):
        a_tilde, _ = tree_structure(build_adjacency([fig1_example]))
        n = len(fig1_example.passage)
        np.testing.assert_array_equal(a_tilde, a_tilde.T)
        assert a_tilde.trace() == n
        # a tree contributes n-1 undirected edges
        assert a_tilde.sum() == n + 2 * (n - 1)

    def test_row_normalization(self, fig1_example):
        adj = build_adjacency([fig1_example])
        a_tilde, degrees = tree_structure(adj)
        np.testing.assert_allclose(adj.sum(axis=1), np.ones(len(fig1_example.passage)))
        np.testing.assert_array_equal(adj, a_tilde / degrees[:, None])


class TestBatchAdjacency:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(dependency_trees(), min_size=1, max_size=5))
    def test_block_diagonal_of_each_passage(self, batch):
        adj = build_adjacency(batch)
        lengths = [len(ex.passage) for ex in batch]
        assert adj.shape == (sum(lengths), sum(lengths))
        expected = np.zeros_like(adj)
        start = 0
        for ex, n in zip(batch, lengths):
            expected[start:start + n, start:start + n] = build_adjacency([ex])
            start += n
        np.testing.assert_array_equal(adj, expected)


class TestGcnLayer:
    def test_isolated_node_is_plain_relu(self):
        ex = chain_example(["solo"])
        adj = build_adjacency([ex])
        x = np.array([[-1.0, 2.0, -3.0, 4.0]])
        out = gcn_layer(Tensor(x), adj, Tensor(np.eye(4)), Tensor(np.zeros(4)))
        np.testing.assert_array_equal(out.data, [[0.0, 2.0, 0.0, 4.0]])

    def test_matches_dense_oracle_on_chain(self):
        rng = np.random.default_rng(3)
        ex = chain_example(["a", "b", "c"])
        adj = build_adjacency([ex])
        x, w, b = rng.normal(size=(3, 5)), rng.normal(size=(4, 5)), rng.normal(size=4)
        out = gcn_layer(Tensor(x), adj, Tensor(w), Tensor(b))
        np.testing.assert_allclose(out.data, dense_gcn_oracle(x, tree_structure(adj)[0], w, b), atol=1e-12)

    def test_matches_dense_oracle_on_random_trees(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            heads = [0] + [int(rng.integers(0, i)) for i in range(1, 8)]
            ex = chain_example([f"t{i}" for i in range(8)])
            for i, t in enumerate(ex.passage):
                t.head = heads[i]
            adj = build_adjacency([ex])
            x, w, b = rng.normal(size=(8, 6)), rng.normal(size=(6, 6)), rng.normal(size=6)
            out = gcn_layer(Tensor(x), adj, Tensor(w), Tensor(b))
            np.testing.assert_allclose(out.data, dense_gcn_oracle(x, tree_structure(adj)[0], w, b),
                                       atol=1e-10)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        ex = chain_example(["a", "b", "c", "d"])
        adj = build_adjacency([ex])
        x = rng.normal(size=(4, 3)) + 0.3
        w, b = rng.normal(size=(3, 3)), rng.normal(size=3)
        assert_grads_match(
            lambda xs, ws, bs: ad.sum_(ad.tanh(gcn_layer(xs, adj, ws, bs))),
            [x, w, b], tol=1e-4)


class TestLocality:
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_receptive_field_bounded_by_layers(self, layers):
        rng = np.random.default_rng(7)
        n = 8
        ex = chain_example([f"t{i}" for i in range(n)])  # tree distance = index gap
        adj = build_adjacency([ex])
        params = [(Tensor(rng.normal(size=(6, 6))), Tensor(rng.normal(size=6)))
                  for _ in range(layers)]
        x = rng.normal(size=(n, 6))
        base = encode_clue_features(Tensor(x), adj, params).data
        for j in range(n):
            bumped = x.copy()
            bumped[j] += 1.0
            out = encode_clue_features(Tensor(bumped), adj, params).data
            for i in range(n):
                if abs(i - j) > layers:
                    np.testing.assert_array_equal(out[i], base[i])
        # and the far end does move the near end when within range
        bumped = x.copy()
        bumped[layers] += 1.0
        out = encode_clue_features(Tensor(bumped), adj, params).data
        assert not np.array_equal(out[0], base[0])

    def test_default_depth_runs_on_long_parse(self):
        ex = chain_example([f"w{i}" for i in range(30)])
        adj = build_adjacency([ex])
        rng = np.random.default_rng(0)
        params = [(Tensor(rng.normal(size=(8, 8))), Tensor(np.zeros(8))) for _ in range(3)]
        out = encode_clue_features(Tensor(rng.normal(size=(30, 8))), adj, params)
        assert out.shape == (30, 8)

    def test_zero_layers_rejected(self):
        ex = chain_example(["a"])
        with pytest.raises(ConfigError):
            encode_clue_features(Tensor(np.zeros((1, 4))), build_adjacency([ex]), [])


class TestClueLogits:
    def test_zero_weights_give_uniform(self):
        h = Tensor(np.random.default_rng(0).normal(size=(4, 6)))
        logits = clue_logits(h, Tensor(np.zeros((2, 6))), Tensor(np.zeros(2)))
        probs = ad.softmax(logits).data
        np.testing.assert_allclose(probs, 0.5 * np.ones((4, 2)))

    def test_softmax_oracle(self):
        logits = Tensor(np.array([[0.0, np.log(3.0)]]))
        probs = ad.softmax(logits).data
        assert probs[0, 1] == pytest.approx(0.75)

    def test_shapes(self):
        h = Tensor(np.zeros((7, 5)))
        out = clue_logits(h, Tensor(np.zeros((2, 5))), Tensor(np.zeros(2)))
        assert out.shape == (7, 2)


class TestGumbelSoftmax:
    def test_zero_noise_uniform_logits(self):
        for tau in (0.1, 1.0, 7.0):
            sample = gumbel_softmax_sample(Tensor(np.zeros((1, 2))), tau,
                                           rng=None, noise=np.zeros((1, 2)))
            np.testing.assert_allclose(sample.y.data, [[0.5, 0.5]])

    def test_low_temperature_sharpens(self):
        sample = gumbel_softmax_sample(Tensor(np.array([[5.0, 0.0]])), 0.01,
                                       rng=None, noise=np.zeros((1, 2)))
        assert sample.y.data.max() > 0.99

    def test_invalid_temperature(self):
        with pytest.raises(ConfigError):
            gumbel_softmax_sample(Tensor(np.zeros((1, 2))), 0.0, rng=None,
                                  noise=np.zeros((1, 2)))

    def test_sample_is_probability_vector_with_matching_argmax(self):
        rng = rng_stream(3, "gumbel")
        sample = gumbel_softmax_sample(Tensor(np.array([[0.3, -0.2], [2.0, 1.0]])), 0.7, rng)
        y = sample.y.data
        assert (y > 0).all()
        np.testing.assert_allclose(y.sum(axis=1), [1.0, 1.0])
        hard = sample.y_st.data
        assert ((hard == 0) | (hard == 1)).all()
        np.testing.assert_array_equal(hard.sum(axis=1), [1.0, 1.0])
        np.testing.assert_array_equal(np.argmax(y, axis=1), np.argmax(hard, axis=1))

    def test_gumbel_max_matches_categorical(self):
        # argmax(logits + gumbel noise) should sample with softmax frequencies
        rng = rng_stream(123, "gumbel")
        logits = np.array([np.log(2.0), 0.0])
        g = gumbel_noise(rng, (100_000, 2))
        freq0 = np.mean(np.argmax(logits + g, axis=1) == 0)
        assert freq0 == pytest.approx(2.0 / 3.0, abs=0.01)


class TestStraightThrough:
    def test_discretizes_to_one_hot(self):
        out = st_discretize(Tensor(np.array([[0.7, 0.3]])))
        np.testing.assert_array_equal(out.data, [[1.0, 0.0]])

    def test_tie_goes_to_lower_index(self):
        out = st_discretize(Tensor(np.array([[0.5, 0.5]])))
        np.testing.assert_array_equal(out.data, [[1.0, 0.0]])

    def test_pass_through_gradient_equals_soft_gradient(self):
        rng = np.random.default_rng(11)
        logits_value = rng.normal(size=(3, 2))
        c = rng.normal(size=(3, 2))
        noise = np.zeros((3, 2))

        def loss_with(hard: bool):
            logits = Tensor(logits_value, requires_grad=True)
            sample = gumbel_softmax_sample(logits, 1.0, rng=None, noise=noise)
            y = sample.y_st if hard else sample.y
            ad.sum_(ad.mul(y, Tensor(c))).backward()
            return logits.grad

        np.testing.assert_allclose(loss_with(True), loss_with(False), atol=1e-12)
        assert np.abs(loss_with(True)).sum() > 0


class TestPredictClues:
    @pytest.fixture
    def model(self):
        corpus = make_toy_data(6, seed=4)
        cfg = tiny_config(r_h=3, r_l=30, vocab_max=100)
        vocab = build_vocabulary(corpus, cfg.vocab_max)
        fv = FeatureVocab.from_corpus(corpus)
        labeled, reduced = label_corpus(corpus, vocab, stopword_set(), cfg.r_h, 2000)
        model = QgModel.build(cfg, vocab, reduced, fv, rng_stream(0, "init"))
        return model, corpus[0]

    def test_eval_mode_deterministic(self, model):
        m, ex = model
        a = m.predict_clues([ex], rng=None, mode="eval")
        b = m.predict_clues([ex], rng=None, mode="eval")
        np.testing.assert_array_equal(a.indicators, b.indicators)
        np.testing.assert_array_equal(a.probs.data, b.probs.data)

    def test_train_mode_reproducible_under_seed(self, model):
        m, ex = model
        a = m.predict_clues([ex], rng=rng_stream(9, "gumbel"), mode="train")
        b = m.predict_clues([ex], rng=rng_stream(9, "gumbel"), mode="train")
        np.testing.assert_array_equal(a.indicators, b.indicators)

    @pytest.mark.parametrize("precision", ["float64", "float32"])
    def test_batch_reads_the_gumbel_stream_as_one_passage_at_a_time(self, precision):
        """Passages of 9, 7 and 11 tokens: the batch's one (27, 2) draw is
        the three passages' draws in order, and each passage's sample is the
        one its own pass makes."""
        batch = [chain_example([f"w{i % 5}" for i in range(n)], answer_span=(1, 2))
                 for n in (9, 7, 11)]
        cfg = tiny_config(r_h=3, r_l=30, vocab_max=100, precision=precision)
        model = QgModel.build(cfg, build_vocabulary(batch, cfg.vocab_max), ReducedTargetVocab(words=[]),
                              FeatureVocab.from_corpus(batch), rng_stream(0, "init"))
        noise = gumbel_noise(rng_stream(3, "gumbel"), (27, 2))
        one_at_a_time = rng_stream(3, "gumbel")
        np.testing.assert_array_equal(
            noise, np.concatenate([gumbel_noise(one_at_a_time, (n, 2)) for n in (9, 7, 11)]))

        rng, alone_rng = rng_stream(3, "gumbel"), rng_stream(3, "gumbel")
        out = model.predict_clues(batch, rng, mode="train")
        alone = [model.predict_clues([ex], alone_rng, mode="train") for ex in batch]
        assert rng.bit_generator.state == alone_rng.bit_generator.state
        np.testing.assert_array_equal(out.indicators, np.concatenate([a.indicators for a in alone]))
        np.testing.assert_array_equal(out.weights.data,
                                      np.concatenate([a.weights.data for a in alone]))
        tol = 1e-12 if precision == "float64" else 1e-5
        np.testing.assert_allclose(out.probs.data, np.concatenate([a.probs.data for a in alone]),
                                   rtol=tol, atol=tol)

    def test_output_length_matches_passage(self, model):
        m, ex = model
        out = m.predict_clues([ex], rng=rng_stream(1, "gumbel"), mode="train")
        assert out.indicators.shape == (len(ex.passage),)
        assert out.probs.shape == (len(ex.passage), 2)
        assert set(np.unique(out.indicators)) <= {0, 1}
