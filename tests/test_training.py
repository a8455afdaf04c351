import math
import time
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import qgen.autodiff as ad
import qgen.beam
import qgen.model
from qgen.autodiff import ParamStore, Tensor, TensorError
from qgen.config import ConfigError, ModelConfig, rng_stream
from qgen.corpus import EOS, build_vocabulary, stopword_set
from qgen.decoder import ExtendedDistribution
from qgen.features import FeatureEmbedder, FeatureVocab
from qgen.labeling import label_corpus
from qgen.model import QgModel
from qgen.toydata import make_toy_data
from qgen.training import (
    SLICE_BYTES,
    EmaState,
    OptimizerState,
    adam_step,
    batch_losses,
    compute_losses,
    losses_from_forward,
    train,
)

from conftest import (ScriptedUniforms, chain_example, gold_clue_uniforms, micro_corpus,
                      tiny_config, toy_config)


def build_tiny_model(seed=11, **overrides):
    corpus = micro_corpus()
    cfg = tiny_config(seed=seed, **overrides)
    vocab = build_vocabulary(corpus, cfg.vocab_max)
    fv = FeatureVocab.from_corpus(corpus)
    labeled, reduced = label_corpus(corpus, vocab, stopword_set(), cfg.r_h,
                                    cfg.reduced_vocab_size)
    model = QgModel.build(cfg, vocab, reduced, fv, rng_stream(seed, "init"))
    return model, labeled


class TestLossOracles:
    def test_uniform_clue_probabilities_cost_ln2_per_token(self):
        model, labeled = build_tiny_model()
        model.params["clue.out.w"].data[:] = 0.0
        model.params["clue.out.b"].data[:] = 0.0
        bd = compute_losses(model, labeled[0], gumbel_rng=rng_stream(0, "gumbel"))
        assert bd.loss_clue.item() == pytest.approx(math.log(2.0), abs=1e-12)

    def test_perfect_distributions_give_zero_losses(self):
        # rig a forward result with probability 1 on every gold outcome
        model, labeled = build_tiny_model()
        ex = labeled[0]
        n = len(ex.base.passage)
        gold = np.asarray(ex.passage_clue_label, dtype=int)
        clue_probs = np.zeros((n, 2))
        clue_probs[np.arange(n), gold] = 1.0
        copy_labels = list(ex.question_copy_label) + [False]
        steps = len(copy_labels)
        gate, gen, copy = np.zeros(steps), np.zeros((steps, len(model.reduced))), np.zeros((steps, n))
        for t, copied in enumerate(copy_labels):
            if copied:
                gate[t] = 1.0
                copy[t, ex.copy_alignment[t]] = 1.0 / len(ex.copy_alignment[t])
                gen[t] = 1.0 / len(model.reduced)
            else:
                gen[t, ex.question_target_id[t]] = 1.0
                copy[t] = 1.0 / n
        fwd = SimpleNamespace(
            clue=SimpleNamespace(probs=Tensor(clue_probs)),
            decoder=ExtendedDistribution(gen=Tensor(gen), copy=Tensor(copy), gate=Tensor(gate)))
        bd = losses_from_forward(model.config, fwd, model.embedder.collate([ex]))
        assert bd.loss_clue.item() == 0.0
        assert bd.loss_gen.item() == 0.0
        assert bd.loss_gate.item() == 0.0
        assert bd.total.item() == 0.0

    def test_total_matches_independent_recomputation(self):
        # re-derive the scalar losses from the dumped numeric distributions
        model, labeled = build_tiny_model()
        ex = labeled[0]
        batch = model.embedder.collate([ex])
        fwd = model.forward(batch, mode="train", gumbel_rng=rng_stream(5, "gumbel"))
        bd = losses_from_forward(model.config, fwd, batch)
        probs, dist = fwd.clue.probs, fwd.decoder

        n = len(ex.base.passage)
        clue = 0.0
        for i, lab in enumerate(ex.passage_clue_label):
            clue -= math.log(probs.data[i, int(lab)])
        clue /= n
        gen = gate = 0.0
        copy_labels = list(ex.question_copy_label) + [False]
        for t, copied in enumerate(copy_labels):
            g = dist.gate.data[t]
            if copied:
                gate -= math.log(g)
                gen -= math.log(g * dist.copy.data[t, ex.copy_alignment[t]].sum())
            else:
                gate -= math.log(1 - g)
                gen -= math.log((1 - g) * dist.gen.data[t, ex.question_target_id[t]])
        gen /= len(copy_labels)
        gate /= len(copy_labels)
        assert bd.loss_clue.item() == pytest.approx(clue, rel=1e-9)
        assert bd.loss_gen.item() == pytest.approx(gen, rel=1e-9)
        assert bd.loss_gate.item() == pytest.approx(gate, rel=1e-9)
        assert bd.total.item() == pytest.approx(clue + gen + gate, rel=1e-9)


class TestMissingGenerators:
    """A stochastic forward without the generator it draws from is a
    ConfigError naming it, from the exported defaults on."""

    def test_defaults_name_the_gumbel_generator(self):
        model, labeled = build_tiny_model()
        for losses in (lambda: compute_losses(model, labeled[0]),
                       lambda: batch_losses(model, labeled[:2])):
            with pytest.raises(ConfigError, match="gumbel_rng"):
                losses()

    @pytest.mark.parametrize("mode", ["train", "soft"])
    def test_a_clue_pass_names_the_gumbel_generator(self, mode):
        model, labeled = build_tiny_model()
        with pytest.raises(ConfigError, match="gumbel_rng"):
            model.predict_clues(model.embedder.collate([labeled[0].base]), rng=None, mode=mode)

    @pytest.mark.parametrize("mode", ["train", "soft"])
    def test_dropout_names_the_dropout_generator(self, mode):
        model, labeled = build_tiny_model(dropout=0.3)
        with pytest.raises(ConfigError, match="dropout_rng"):
            compute_losses(model, labeled[0], rng_stream(0, "gumbel"), mode=mode)

    def test_an_unknown_mode_is_named(self):
        model, labeled = build_tiny_model()
        with pytest.raises(ConfigError, match="'bogus'"):
            compute_losses(model, labeled[0], mode="bogus")

    def test_what_a_forward_does_not_draw_it_does_not_need(self):
        model, labeled = build_tiny_model(dropout=0.3)
        compute_losses(model, labeled[0], mode="eval")
        model, labeled = build_tiny_model()   # no dropout
        compute_losses(model, labeled[0], rng_stream(5, "gumbel"))


class TestOnePassagePass:
    """A batch's passages are embedded, their trees built and the clue GCN
    run once, over the stacked tokens; the encoder reads the clue
    predictor's input with the clue slot appended."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen: dict[str, list] = {}
        for owner, attr in [(FeatureEmbedder, "embed_passage"), (qgen.model, "build_adjacency"),
                            (qgen.model, "run_clue_predictor"), (qgen.model, "encode"),
                            (qgen.beam, "encode")]:
            def spy(*args, _fn=getattr(owner, attr), _attr=attr, **kwargs):
                seen.setdefault(_attr, []).append(args)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(owner, attr, spy)
        return seen

    @pytest.mark.parametrize("clue_source", ["predicted", "gold"])
    def test_forward_embeds_once(self, calls, clue_source):
        """A batch of one and a batch of three.  `clue_source="gold"`: Gumbel
        draws scripted to sample the gold clue labels."""
        model, labeled = build_tiny_model()
        for picks in ([0], [1, 0, 1]):
            calls.clear()
            batch = [labeled[i] for i in picks]
            gumbel = (ScriptedUniforms(gold_clue_uniforms(batch)) if clue_source == "gold"
                      else rng_stream(0, "gumbel"))
            model.forward(model.embedder.collate(batch), mode="train", gumbel_rng=gumbel)
            assert len(calls["embed_passage"]) == 1
            assert len(calls["build_adjacency"]) == 1
            assert len(calls["run_clue_predictor"]) == 1
            lengths = [len(ex.base.passage) for ex in batch]
            assert calls["embed_passage"][0][1].lengths.tolist() == lengths
            clue_input, (encoder_input, encoded_lengths) = (calls["run_clue_predictor"][0][0],
                                                            calls["encode"][0][:2])
            assert list(encoded_lengths) == lengths
            assert clue_input.shape[0] == sum(lengths)
            assert encoder_input._op == "concat" and encoder_input._parents[0] is clue_input
            assert encoder_input.shape[1] == clue_input.shape[1] + model.config.feat_dim

    def test_generate_embeds_once(self, calls):
        model, labeled = build_tiny_model()
        qgen.beam.generate(model, labeled[0].base, beam_width=3, max_len=4)
        assert len(calls["embed_passage"]) == 1
        assert len(calls["build_adjacency"]) == 1
        clue_input, encoder_input = calls["run_clue_predictor"][0][0], calls["encode"][0][0]
        width = clue_input.shape[1]
        assert encoder_input.shape[1] == width + model.config.feat_dim
        np.testing.assert_array_equal(encoder_input.data[:, :width], clue_input.data)

    def test_a_toy_batch_graph_has_at_most_88_nodes(self):
        """The train-mode graph of a toy batch of eight, by op: the passage
        embedding is one `embed` node.  A change that adds nodes shows here."""
        corpus = make_toy_data(16, 1)
        cfg = toy_config()
        vocab = build_vocabulary(corpus, cfg.vocab_max)
        labeled, reduced = label_corpus(corpus, vocab, stopword_set(), cfg.r_h,
                                        cfg.reduced_vocab_size)
        model = QgModel.build(cfg, vocab, reduced, FeatureVocab.from_corpus(corpus),
                              rng_stream(cfg.seed, "init"))
        loss = ad.mean_(batch_losses(model, labeled[:8], rng_stream(0, "gumbel")).total)
        ops, seen, stack = Counter(), set(), [loss]
        while stack:
            t = stack.pop()
            if id(t) not in seen:
                seen.add(id(t))
                ops[t._op] += t._backward is not None
                stack.extend(t._parents)
        assert sum(ops.values()) <= 88, ops
        assert ops["embed"] == 1, ops


class TestAdam:
    def _config(self, **kw):
        return tiny_config(**kw)

    def test_zero_gradient_keeps_params(self):
        cfg = self._config()
        store = ParamStore()
        w = store.add("w", np.array([1.0, 2.0]))
        state = OptimizerState()
        adam_step(store, state, cfg)
        np.testing.assert_array_equal(w.data, [1.0, 2.0])
        assert state.step == 1

    def test_first_step_magnitude_is_learning_rate(self):
        # closed form: m_hat = g, v_hat = g^2 -> step = lr * g/|g|
        cfg = self._config(lr=0.001)
        store = ParamStore()
        w = store.add("w", np.asarray(5.0))
        store.zero_grad()
        w.grad[...] = 1.0
        adam_step(store, OptimizerState(), cfg)
        assert w.data == pytest.approx(5.0 - 0.001, abs=1e-9)

    def test_gradient_clipping(self):
        cfg = self._config(clip=5.0)
        steps = {}
        for g in (100.0, 5.0, 4.0):
            store = ParamStore()
            w = store.add("w", np.asarray(0.0))
            store.zero_grad()
            w.grad[...] = g
            adam_step(store, OptimizerState(), cfg)
            steps[g] = float(w.data)
        assert steps[100.0] == steps[5.0]
        assert steps[5.0] != steps[4.0]   # the step sees the gradient at all

    def test_bias_correction_against_reference(self):
        # independent scalar Adam oracle over a few steps
        cfg = self._config(lr=0.01)
        store = ParamStore()
        w = store.add("w", np.asarray(1.0))
        state = OptimizerState()
        m = v = 0.0
        x = 1.0
        for t in range(1, 6):
            g = 2.0 * x  # pretend loss x^2 evaluated at the oracle's x
            store.zero_grad()
            w.grad[...] = 2.0 * float(w.data)
            adam_step(store, state, cfg)
            m = cfg.beta1 * m + (1 - cfg.beta1) * g
            v = cfg.beta2 * v + (1 - cfg.beta2) * g * g
            x -= cfg.lr * (m / (1 - cfg.beta1 ** t)) / (math.sqrt(v / (1 - cfg.beta2 ** t)) + cfg.eps)
            assert float(w.data) == pytest.approx(x, rel=1e-12)


def _reference_adam(data, grad, m, v, t, cfg):
    """The allocating form of one clipped Adam step: (data, m, v)."""
    g = np.clip(grad, -cfg.clip, cfg.clip)
    m = cfg.beta1 * m + (1 - cfg.beta1) * g
    v = cfg.beta2 * v + (1 - cfg.beta2) * g * g
    m_hat = m / (1 - cfg.beta1 ** t)
    v_hat = v / (1 - cfg.beta2 ** t)
    return data - cfg.lr * m_hat / (np.sqrt(v_hat) + cfg.eps), m, v


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_in_place_adam_and_ema_match_reference_bit_for_bit(dtype):
    cfg = tiny_config(lr=0.01, clip=0.5)
    rng = np.random.default_rng(4)
    store = ParamStore(dtype)
    # "big" spans two slices or more and ends inside one; "frozen" gets no gradient
    shapes = [("w", (3, 4)), ("b", (4,)), ("s", ()), ("big", (3, SLICE_BYTES // 8 + 7)),
              ("frozen", (2, 3))]
    for name, shape in shapes:
        store.add(name, 1e-3 * rng.normal(size=shape))  # small, so the step sets the low bits
    state, ema = OptimizerState(), EmaState(store, decay=0.9)
    ref = {name: (t.data.copy(), np.zeros_like(t.data), np.zeros_like(t.data), t.data.copy())
           for name, t in store.items()}
    for step in range(1, 4):
        store.zero_grad()
        for name, t in store.items():
            # about a third of the entries beyond the clip
            if name != "frozen":
                t.grad[...] = rng.normal(size=t.shape)
            data, m, v, shadow = ref[name]
            data, m, v = _reference_adam(data, t.grad, m, v, step, cfg)
            ref[name] = (data, m, v, 0.9 * shadow + (1 - 0.9) * data)
        adam_step(store, state, cfg)
        ema.update(store)
        moments = store.views(state.m), store.views(state.v), store.views(ema.flat)
        for name, t in store.items():
            data, m, v, shadow = ref[name]
            for got, want in [(t.data, data), (moments[0][name], m), (moments[1][name], v),
                              (moments[2][name], shadow)]:
                assert got.dtype == dtype, name
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (name, step)


def test_fortran_order_checkpoint_loads_c_contiguous(tmp_path):
    """Parameters held in Fortran order save the bytes of C order.  The
    loaded store is packed: every parameter is a C-contiguous view of
    `params.data`, and `zero_grad`, `adam_step` and `EmaState.update` each
    run once on it as on the built model."""
    model, _ = build_tiny_model()
    model.save(tmp_path / "c.npz")
    fortran, _ = build_tiny_model()
    for t in fortran.params.tensors():
        if t.data.ndim == 2:
            t.data = np.asfortranarray(t.data)
    assert not all(t.data.flags.c_contiguous for t in fortran.params.tensors())
    fortran.save(tmp_path / "f.npz")
    assert (tmp_path / "f.npz").read_bytes() == (tmp_path / "c.npz").read_bytes()
    loaded = QgModel.load(tmp_path / "f.npz")
    for name, t in loaded.params.items():
        assert t.data.base is loaded.params.data and t.grad.base is loaded.params.grad, name
        assert t.data.flags.c_contiguous, name
    cfg = tiny_config(lr=0.01, clip=0.5)
    rng = np.random.default_rng(5)
    grads = {name: rng.normal(size=t.shape) for name, t in model.params.items()}
    results = []
    for m in (model, loaded):
        state, ema = OptimizerState(), EmaState(m.params, decay=0.9)
        m.params.zero_grad()
        for name, t in m.params.items():
            t.grad[...] = grads[name]
        adam_step(m.params, state, cfg)
        ema.update(m.params)
        results.append([a.tobytes() for a in (m.params.data, state.m, state.v, ema.flat)])
    assert results[0] == results[1]


@pytest.mark.parametrize("precision", ["float32", "float64"])
def test_save_load_save_gives_the_same_bytes(tmp_path, precision):
    """Two saves of the same weights are the same file, and a loaded model
    saves back the file it was loaded from."""
    model, _ = build_tiny_model(precision=precision)
    model.save(tmp_path / "a.npz")
    model.save(tmp_path / "b.npz")
    QgModel.load(tmp_path / "a.npz").save(tmp_path / "c.npz")
    first = (tmp_path / "a.npz").read_bytes()
    assert (tmp_path / "b.npz").read_bytes() == first
    assert (tmp_path / "c.npz").read_bytes() == first


def test_loaded_model_views_hold_the_checkpoint(tmp_path):
    """The GCN, encoder and decoder views that `build` makes are the
    store's own tensors, so after `load` they read the checkpoint's arrays,
    not the rebuilt model's initial ones."""
    model, _ = build_tiny_model()
    for _, t in model.params.items():
        t.data += 1.0
    model.save(tmp_path / "m.npz")
    loaded = QgModel.load(tmp_path / "m.npz")
    last = len(loaded.gcn) - 1
    views = {"clue.gcn0.w": loaded.gcn[0][0], f"clue.gcn{last}.b": loaded.gcn[last][1],
             "enc.fwd.w_x": loaded.enc_fwd.w_x, "enc.fwd.w_zr": loaded.enc_fwd.w_zr,
             "enc.bwd.w_cand": loaded.enc_bwd.w_cand, "enc.bwd.b": loaded.enc_bwd.b,
             "dec.gru.w_c": loaded.dec.gru.w_c, "dec.gru.b": loaded.dec.gru.b,
             "dec.w_out": loaded.dec.w_out}
    for name, t in views.items():
        assert t is loaded.params[name], name
        assert t.data.tobytes() == model.params[name].data.tobytes(), name


@pytest.mark.parametrize("precision", ["float32", "float64"])
def test_load_draws_nothing(tmp_path, monkeypatch, precision):
    """`load` builds the model without a generator, and the checkpoint,
    written from a flat array, fills every parameter byte for byte."""
    model, _ = build_tiny_model(precision=precision)
    model.params.pack()
    saved = model.params.data + 1   # not the build's draws
    model.save(tmp_path / "m.npz", saved)

    def no_generator(*args, **kwargs):
        raise AssertionError("load made a generator")
    monkeypatch.setattr(np.random, "default_rng", no_generator)
    loaded = QgModel.load(tmp_path / "m.npz")
    assert loaded.params.rng is None
    loaded.params.pack()
    assert loaded.params.data.dtype == precision
    assert loaded.params.data.tobytes() == saved.tobytes()


@pytest.mark.parametrize("field", ["data", "grad"])
def test_rebinding_a_packed_parameter_raises(field):
    """The flat walk would not see a rebound array: its update would be lost."""
    store = ParamStore()
    w = store.add("w", np.ones((3, 4)))
    store.add("b", np.zeros(4))
    store.zero_grad()
    setattr(w, field, np.ones((3, 4)))
    with pytest.raises(TensorError, match="'w'"):
        adam_step(store, OptimizerState(), tiny_config())


def test_adding_to_a_packed_store_raises():
    store = ParamStore()
    store.add("w", np.ones(3))
    EmaState(store, decay=0.9)
    with pytest.raises(TensorError, match="packed"):
        store.add("b", np.zeros(3))
    assert [name for name, _ in store.items()] == ["w"]


class TestEma:
    def test_update_formula(self):
        store = ParamStore()
        w = store.add("w", np.asarray(0.0))
        ema = EmaState(store, decay=0.9)
        w.data[...] = 10.0
        ema.update(store)
        assert ema.flat == pytest.approx([1.0])  # 0.9*0 + 0.1*10

    def test_converges_to_frozen_params(self):
        store = ParamStore()
        store.add("w", np.asarray(4.0))
        ema = EmaState(store, decay=0.5)
        ema.flat[...] = 0.0
        for _ in range(60):
            ema.update(store)
        assert ema.flat == pytest.approx([4.0], abs=1e-12)


class TestEndToEndGradients:
    def test_every_parameter_matches_central_differences(self):
        started = time.time()
        model, labeled = build_tiny_model()
        ex = labeled[0]

        def loss_value():
            return compute_losses(model, ex, rng_stream(11, "gumbel"), mode="soft").total.item()

        model.params.zero_grad()
        bd = compute_losses(model, ex, rng_stream(11, "gumbel"), mode="soft")
        bd.total.backward()

        eps = 1e-5
        worst = 0.0
        for name, t in model.params.items():
            analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
            flat = t.data.reshape(-1)
            aflat = analytic.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                hi = loss_value()
                flat[i] = orig - eps
                lo = loss_value()
                flat[i] = orig
                fd = (hi - lo) / (2 * eps)
                rel = abs(fd - aflat[i]) / max(abs(fd), abs(aflat[i]), 1e-6)
                worst = max(worst, rel)
                assert rel < 1e-3, f"{name}[{i}]: analytic {aflat[i]:.3e} vs fd {fd:.3e}"
        assert time.time() - started < 60.0


class TestTrainLoop:
    def test_loss_decreases_on_small_corpus(self):
        corpus = make_toy_data(8, seed=1)
        cfg = toy_config(epochs=25, batch=4, seed=5,
                         word_dim=24, enc_hidden=24, dec_hidden=24, attn_dim=16,
                         gcn_hidden=12)
        result = train(corpus, cfg)
        assert result.log[-1].total < result.log[0].total

    def test_fixed_seed_reproduces_loss_trajectory(self):
        corpus = make_toy_data(4, seed=2)
        cfg = toy_config(epochs=3, batch=2, seed=9, word_dim=16, enc_hidden=12,
                         dec_hidden=12, attn_dim=8, gcn_hidden=8)
        a = train(corpus, cfg)
        b = train(corpus, cfg)
        assert [r.to_json() for r in a.log] == [r.to_json() for r in b.log]

    def test_zero_epochs_keeps_initialization(self):
        corpus = make_toy_data(4, seed=2)
        cfg = toy_config(epochs=0, seed=9, word_dim=16, enc_hidden=12, dec_hidden=12,
                         attn_dim=8, gcn_hidden=8)
        result = train(corpus, cfg)
        fresh = QgModel.build(result.model.config, result.model.vocab, result.model.reduced,
                              result.model.features, rng_stream(cfg.seed, "init"))
        for name, t in result.model.params.items():
            np.testing.assert_array_equal(t.data, fresh.params[name].data)
        fresh.params.pack()
        np.testing.assert_array_equal(result.ema.flat, fresh.params.data)

    def test_dev_corpus_tracks_best_checkpoint(self, tmp_path):
        corpus = make_toy_data(6, seed=3)
        cfg = toy_config(epochs=4, batch=3, seed=1, word_dim=16, enc_hidden=12,
                         dec_hidden=12, attn_dim=8, gcn_hidden=8)
        result = train(corpus, cfg, dev_corpus=make_toy_data(3, seed=8))
        assert result.best_dev_data is not None
        assert all(r.dev_total is not None for r in result.log)
        # the best-dev and EMA checkpoints, written from flat copies, load back to their bytes
        for flat in (result.best_dev_data, result.ema.flat):
            result.model.save(tmp_path / "m.npz", flat)
            assert QgModel.load(tmp_path / "m.npz").params.data.tobytes() == flat.tobytes()


class TestOneTokenPassage:
    """A passage of one token runs the encoder's GRU one step per direction:
    it trains, and the trained model generates for it with and without a
    question."""

    @pytest.fixture(scope="class")
    def trained(self):
        cfg = tiny_config(epochs=1, batch=1)
        example = chain_example(["Paris"], question=("where", "?"))
        return train([example], cfg), example

    def test_trains_one_step(self, trained):
        result, _ = trained
        model = result.model
        assert len(result.log) == 1 and math.isfinite(result.log[0].total)
        fresh = QgModel.build(model.config, model.vocab, model.reduced, model.features,
                              rng_stream(model.config.seed, "init"))
        for prefix, hidden in (("enc.fwd", model.config.enc_hidden),
                               ("enc.bwd", model.config.enc_hidden),
                               ("dec.gru", model.config.dec_hidden)):
            for name, gates in (("w_x", "zrh"), ("w_c", "zrh"), ("w_zr", "zr"), ("w_cand", "h"),
                                ("b", "zrh")):
                key = f"{prefix}.{name}"
                if key not in dict(model.params.items()):   # only the decoder reads a context
                    continue
                for gate, block in zip(gates, range(0, len(gates) * hidden, hidden)):
                    rows = slice(block, block + hidden)
                    moved = not np.array_equal(model.params[key].data[rows],
                                               fresh.params[key].data[rows])
                    # the encoder's one step starts from a zero state: its weights on
                    # the state and its reset gate's rows have no gradient, and Adam
                    # leaves them as they were
                    assert moved == (prefix == "dec.gru" or (
                        gate != "r" and name not in ("w_zr", "w_cand"))), (key, gate)

    @pytest.mark.parametrize("question", [["where", "?"], []])
    def test_generates(self, trained, question):
        result, example = trained
        max_len = 5
        hyps = qgen.beam.generate(result.model, replace(example, question=question), 3, max_len)
        assert hyps
        for hyp in hyps:
            assert hyp.tokens[-1] == EOS or len(hyp.tokens) == max_len
            assert math.isfinite(hyp.log_prob)


class TestFloat32:
    def test_tracks_float64_losses_and_round_trips(self, tmp_path):
        corpus = make_toy_data(8, seed=1)
        kw = dict(epochs=4, batch=4, seed=5, word_dim=24, enc_hidden=24, dec_hidden=24,
                  attn_dim=16, gcn_hidden=12)
        ref = train(corpus, toy_config(precision="float64", **kw))
        f32 = train(corpus, toy_config(precision="float32", **kw))
        # float32 rounding (eps 1.2e-7) accumulated over 8 Adam steps, with margin
        for a, b in zip(ref.log, f32.log):
            assert b.total == pytest.approx(a.total, rel=1e-5)
        for name, t in f32.model.params.items():
            assert t.data.dtype == np.float32, name
            assert t.grad is not None and t.grad.dtype == np.float32, name
        path = tmp_path / "model.npz"
        f32.model.save(path)
        loaded = QgModel.load(path)
        for name, t in loaded.params.items():
            assert t.data.dtype == np.float32, name
            np.testing.assert_array_equal(t.data, f32.model.params[name].data)

    def test_loading_float32_leaves_a_float64_model_alone(self, tmp_path):
        m64, labeled = build_tiny_model()
        before = qgen.beam.generate(m64, labeled[0].base, 3, 6)
        build_tiny_model(precision="float32")[0].save(tmp_path / "m32.npz")
        loaded = QgModel.load(tmp_path / "m32.npz")
        after = qgen.beam.generate(m64, labeled[0].base, 3, 6)
        assert [(h.tokens, h.log_prob) for h in after] == [(h.tokens, h.log_prob) for h in before]
        assert Tensor(np.zeros(2)).data.dtype == np.float64
        assert all(t.data.dtype == np.float32 for t in loaded.params.tensors())

    def test_float64_checkpoint_loads_as_float64_under_the_float32_default(self, tmp_path):
        """The checkpoint's config names its precision, so a float64 model
        comes back in float64, bit for bit."""
        assert ModelConfig().precision == "float32"
        m64, labeled = build_tiny_model(precision="float64")
        m64.save(tmp_path / "m64.npz")
        loaded = QgModel.load(tmp_path / "m64.npz")
        assert loaded.config.precision == "float64"
        for name, t in loaded.params.items():
            assert t.data.dtype == np.float64, name
            assert t.data.tobytes() == m64.params[name].data.tobytes(), name
        want = qgen.beam.generate(m64, labeled[0].base, 3, 6)
        got = qgen.beam.generate(loaded, labeled[0].base, 3, 6)
        assert [(h.tokens, h.log_prob) for h in got] == [(h.tokens, h.log_prob) for h in want]

    def test_training_graph_is_float32_throughout(self):
        model, labeled = build_tiny_model(precision="float32", dropout=0.3)
        loss = compute_losses(model, labeled[0], rng_stream(1, "gumbel"),
                              rng_stream(1, "dropout"), mode="train").total
        ops, seen, stack = set(), {id(loss)}, [loss]
        while stack:
            t = stack.pop()
            ops.add(t._op)
            assert t.data.dtype == np.float32, t._op
            for p in t._parents:
                if id(p) not in seen:
                    seen.add(id(p))
                    stack.append(p)
        assert {"dropout", "st_discretize", "attention_gru", "attention_gru.weights", "linear",
                "gru"} <= ops
        loss.backward()
        for name, t in model.params.items():
            assert t.grad is None or t.grad.dtype == np.float32, name
