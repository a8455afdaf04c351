"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Criterion 6 needs real pre-parsed SQuAD training data (JSONL in this
package's schema) via the QGEN_SQUAD_TRAIN environment variable and is
skipped, not failed, when absent.
"""

import os
import time

import numpy as np
import pytest

from qgen.autodiff import ParamStore, Tensor
from qgen.beam import generate
from qgen.cli import main
from qgen.clue_predictor import (
    build_adjacency,
    encode_clue_features,
    gumbel_noise,
    gumbel_softmax_sample,
    st_discretize,
)
from qgen.config import ModelConfig, rng_stream
from qgen.corpus import build_vocabulary, load_corpus, stopword_set
from qgen.decoder import DecoderParams, decode_step, passage_memory, word_terms
from qgen.labeling import label_clue_words, label_copy_words, label_corpus
from qgen.metrics import corpus_bleu, evaluate_pairs, meteor, rouge_l
from qgen.stats import dep_path_stats, rank_distributions
from qgen.toydata import make_toy_data
from qgen.training import train

from conftest import assert_grads_match, chain_example, collate, toy_config
from test_autodiff import OP_CASES, op_arrays
from test_labeling import rule_oracle_clue, rule_oracle_copy


def _passed(k, message):
    print(f"\nACCEPTANCE {k}: PASS - {message}")


@pytest.fixture(scope="module")
def toy_corpus():
    return make_toy_data(32, seed=7)


@pytest.fixture(scope="module")
def overfit_run(toy_corpus):
    config = toy_config()
    started = time.time()
    result = train(toy_corpus, config, stop_total=0.1)
    elapsed = time.time() - started
    return config, result, elapsed


class TestCriterion1Gradients:
    def test_gradient_suite(self):
        """Every differentiable op against central differences.  The end-to-end
        check, every parameter of the tiny model through the relaxed clue
        sample, is `tests/test_training.py::TestEndToEndGradients`."""
        started = time.time()
        # every differentiable op on 20 random small shapes
        rng = np.random.default_rng(42)
        for name, fn, arity, domain in OP_CASES:
            for _ in range(20):
                assert_grads_match(fn, op_arrays(rng, arity, domain), tol=1e-4)

        elapsed = time.time() - started
        assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"
        _passed(1, f"op finite-difference checks in {elapsed:.1f}s; every parameter end to end "
                   "in tests/test_training.py::TestEndToEndGradients")


class TestCriterion2Overfit:
    def test_loss_reaches_threshold_in_time(self, overfit_run):
        config, result, elapsed = overfit_run
        assert result.log[-1].total < 0.1
        assert result.log[-1].epoch <= 300
        assert elapsed < 600.0
        if len(result.log) >= 50:
            assert result.log[49].total < result.log[0].total
        _passed(2, f"toy-corpus loss {result.log[-1].total:.4f} at epoch "
                   f"{result.log[-1].epoch} in {elapsed:.0f}s")

    def test_greedy_decoding_reproduces_training_questions(self, overfit_run, toy_corpus):
        config, result, _ = overfit_run
        model = result.model
        raw = model.params.data.copy()
        model.params.data[...] = result.ema.flat
        try:
            pairs = []
            exact = 0
            for ex in toy_corpus:
                hyp = generate(model, ex, beam_width=1)[0]
                pred = hyp.surface()
                pairs.append((pred, ex.question))
                exact += pred == ex.question
            bleu4 = corpus_bleu(pairs, 4)
            assert exact >= 0.9 * len(toy_corpus)
            assert bleu4 > 90.0
        finally:
            model.params.data[...] = raw
        _passed(2, f"greedy reproduction {exact}/{len(toy_corpus)} exact, "
                   f"train BLEU-4 {bleu4:.2f}")


class TestCriterion3StructuralInvariants:
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_gcn_locality(self, layers):
        rng = np.random.default_rng(layers)
        n = 9
        ex = chain_example([f"t{i}" for i in range(n)])
        adj = build_adjacency(collate([ex]))
        params = [(Tensor(rng.normal(size=(6, 6))), Tensor(rng.normal(size=6)))
                  for _ in range(layers)]
        x = rng.normal(size=(n, 6))
        base = encode_clue_features(Tensor(x), adj, params).data
        for j in range(n):
            bumped = x.copy()
            bumped[j] += 0.7
            out = encode_clue_features(Tensor(bumped), adj, params).data
            for i in range(n):
                if abs(i - j) > layers:
                    np.testing.assert_array_equal(out[i], base[i])
        if layers == 3:
            _passed(3, "GCN locality holds for L in {1, 2, 3}")

    def test_distribution_normalization_on_random_configurations(self):
        rng = np.random.default_rng(100)
        for trial in range(100):
            word_dim = int(rng.integers(2, 6))
            enc_width = 2 * int(rng.integers(2, 6))
            dec_hidden = int(rng.integers(2, 6))
            attn = int(rng.integers(2, 6))
            vocab_out = int(rng.integers(4, 9))
            n = int(rng.integers(1, 9))
            p = DecoderParams.create(ParamStore(rng=rng), word_dim, enc_width, dec_hidden,
                                     attn, vocab_out, scale=1.5)
            w, alpha, s, enc = (
                Tensor(rng.normal(size=(1, word_dim))), Tensor(rng.dirichlet(np.ones(n), 1)),
                Tensor(rng.normal(size=(1, dec_hidden))), Tensor(rng.normal(size=(n, enc_width))))
            _, dist = decode_step(*word_terms(w, p), alpha, s, passage_memory(enc, p), p)
            assert abs(dist.copy.data.sum() - 1.0) <= 1e-9
            g = dist.gate.item()
            mixture = (1 - g) * dist.gen.data.sum() + g * dist.copy.data.sum()
            assert abs(mixture - 1.0) <= 1e-9
        _passed(3, "attention and mixture normalize to 1 +/- 1e-9 on 100 random configs")

    def test_straight_through_forward_and_argmax(self):
        rng = rng_stream(77, "gumbel")
        for _ in range(200):
            logits = Tensor(rng.normal(size=(4, 3)) * 2)
            y = gumbel_softmax_sample(logits, tau=0.7, rng=rng)
            hard = st_discretize(y).data
            assert ((hard == 0) | (hard == 1)).all()
            np.testing.assert_array_equal(hard.sum(axis=1), np.ones(4))
            np.testing.assert_array_equal(np.argmax(hard, axis=1), np.argmax(y.data, axis=1))
        _passed(3, "ST forward is one-hot with argmax preserved")

    def test_gumbel_max_monte_carlo(self):
        rng = rng_stream(2024, "gumbel")
        logits = np.array([1.0, 0.0, -0.5])
        target = np.exp(logits) / np.exp(logits).sum()
        g = gumbel_noise(rng, (100_000, 3))
        choices = np.argmax(logits + g, axis=1)
        freq = np.bincount(choices, minlength=3) / 100_000
        np.testing.assert_allclose(freq, target, atol=0.01)
        _passed(3, f"Gumbel-Max frequencies {np.round(freq, 3)} match softmax "
                   f"{np.round(target, 3)} within 0.01 at 1e5 samples")


class TestCriterion4Labeling:
    def test_worked_example_labels(self, fig1_example):
        vocab = build_vocabulary([fig1_example])
        stopwords = stopword_set()
        copy_labels, _ = label_copy_words(fig1_example, vocab, stopwords, r_h=1)
        copied = {q for q, lab in zip(fig1_example.question, copy_labels) if lab}
        assert copied == {"speech", "White", "House"}
        clue_labels = label_clue_words(fig1_example, stopwords)
        clues = {t.text for t, lab in zip(fig1_example.passage, clue_labels) if lab}
        assert clues == {"speech", "White", "House"}
        _passed(4, "worked-example copy/clue labels are exactly {speech, White, House}")

    def test_rule_oracle_on_20_examples(self):
        corpus = make_toy_data(20, seed=77)
        vocab = build_vocabulary(corpus)
        stopwords = stopword_set()
        agreements = 0
        for ex in corpus:
            labels, _ = label_copy_words(ex, vocab, stopwords, r_h=6)
            assert labels == rule_oracle_copy(ex, vocab, stopwords, r_h=6)
            assert label_clue_words(ex, stopwords) == rule_oracle_clue(ex, stopwords)
            agreements += 1
        assert agreements == 20
        _passed(4, "rule-application oracle matches on 20/20 hand-built examples")


class TestCriterion5Metrics:
    def test_bleu_clipping_fixture(self):
        score = corpus_bleu([("the the the the".split(), "the cat".split())], 1)
        assert score == pytest.approx(25.0, abs=1e-9)
        _passed(5, "BLEU-1 clipping fixture = 25.0")

    def test_rouge_fixture(self):
        # the stated oracle (hand LCS + the F formula at beta=1.2) gives
        # 87.9808 on this fixture; asserted at the oracle's value
        score = rouge_l([("a b c d".split(), "a c d".split())])
        assert score == pytest.approx(87.98076923076923, abs=0.01)
        _passed(5, f"ROUGE-L LCS fixture = {score:.2f} (hand-formula oracle)")

    def test_meteor_fixture(self):
        score = meteor([("the cat sat".split(), "the cat sat down".split())])
        assert score == pytest.approx(75.50, abs=0.05)
        _passed(5, f"METEOR chunk fixture = {score:.2f}")

    def test_identical_corpus_fixed_points(self):
        k = 5
        pairs = [([f"w{i}" for i in range(k)],) * 2, ("the cat sat".split(),) * 2]
        for n in range(1, 5):
            assert corpus_bleu(pairs, n) == pytest.approx(100.0)
        assert rouge_l(pairs) == pytest.approx(100.0)
        expected_meteor = 100.0 * (1 - 0.5 / k ** 3 + 1 - 0.5 / 27) / 2
        assert meteor(pairs) == pytest.approx(expected_meteor, abs=1e-9)
        _passed(5, "identical corpora hit the documented fixed points")


SQUAD_PATH = os.environ.get("QGEN_SQUAD_TRAIN", "")


@pytest.mark.skipif(not SQUAD_PATH, reason="set QGEN_SQUAD_TRAIN to pre-parsed "
                    "SQuAD training data (JSONL) to run corpus reproduction")
class TestCriterion6CorpusReproduction:
    def test_squad_statistics(self):
        config = ModelConfig().validate()
        corpus = load_corpus(SQUAD_PATH)
        vocab = build_vocabulary(corpus, config.vocab_max)
        labeled, _ = label_corpus(corpus, vocab, stopword_set(), config.r_h,
                                  config.reduced_vocab_size)
        hist = rank_distributions(labeled, vocab)
        assert hist.generated.mean_rank == pytest.approx(2389, rel=0.15)
        assert hist.generated.median_rank == pytest.approx(1032, rel=0.15)
        assert hist.copied.mean_rank == pytest.approx(3119, rel=0.15)
        assert hist.copied.median_rank == pytest.approx(1442, rel=0.15)
        paths = dep_path_stats(labeled)
        assert paths.tree_mean == pytest.approx(4.41, rel=0.15)
        assert abs(paths.tree_median - 4) <= 1
        assert paths.seq_mean == pytest.approx(10.23, rel=0.15)
        assert {"prep", "pobj", "nsubj"} <= set(paths.top_labels(5))
        _passed(6, "rank and dependency-path statistics within the reference bands")


class TestCriterion7Determinism:
    def test_toy_data_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["make-toy-data", "--n", "32", "--seed", "7", "--out", str(a)]) == 0
        assert main(["make-toy-data", "--n", "32", "--seed", "7", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        _passed(7, "make-toy-data is byte-identical across runs")

    def test_training_loss_log_identical(self):
        corpus = make_toy_data(4, seed=1)
        cfg = toy_config(epochs=3, batch=2, word_dim=16, enc_hidden=12, dec_hidden=12,
                         attn_dim=8, gcn_hidden=8, seed=21)
        a = train(corpus, cfg)
        b = train(corpus, cfg)
        assert [r.to_json() for r in a.log] == [r.to_json() for r in b.log]
        _passed(7, "training loss trajectories identical across two seeded runs")

    def test_generation_identical(self, overfit_run, toy_corpus, tmp_path):
        config, result, _ = overfit_run
        ckpt = tmp_path / "m.npz"
        result.model.save(ckpt)
        data = tmp_path / "in.jsonl"
        out1, out2 = tmp_path / "p1.jsonl", tmp_path / "p2.jsonl"
        main(["make-toy-data", "--n", "8", "--seed", "7", "--out", str(data)])
        assert main(["generate", "--checkpoint", str(ckpt), "--data", str(data),
                     "--out", str(out1), "--beam-width", "4"]) == 0
        assert main(["generate", "--checkpoint", str(ckpt), "--data", str(data),
                     "--out", str(out2), "--beam-width", "4"]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        _passed(7, "beam generation is byte-identical for a fixed checkpoint")


class TestHeldOutQuality:
    """What the toy model learns, measured on passages it never saw: a gate
    that holds when a change moves the output bytes on purpose.  The floors
    were set once from this test's run at seeds 1-5, which read BLEU-4
    92.77-94.49, ROUGE-L 94.57-95.86, METEOR 94.41-95.70 and a generated
    share of 0.381 on every seed.  Each metric's floor is its lowest seed
    less its spread, rounded down; the share, which did not vary, has a
    floor of 0.35.  Do not lower a floor to let a change pass."""

    FLOORS = {"bleu4": 91.0, "rougeL": 93.0, "meteor": 93.0}
    GENERATED_SHARE_FLOOR = 0.35

    def test_held_out_metrics_stay_above_their_floors(self):
        train_set = make_toy_data(200, seed=7)
        seen = {tuple(t.text for t in ex.passage) for ex in train_set}
        held_out = [ex for ex in make_toy_data(100, seed=8)
                    if tuple(t.text for t in ex.passage) not in seen]
        assert len(held_out) == 100
        model = train(train_set, toy_config(precision="float32", epochs=4, seed=1)).model
        pairs, steps, generated = [], 0, 0
        for ex in held_out:
            words = generate(model, ex, beam_width=5, max_len=20)[0].surface()
            passage = {t.text for t in ex.passage}
            # a word outside the passage can only come from the generation head
            steps += len(words)
            generated += sum(w not in passage for w in words)
            pairs.append((words, ex.question))
        report = evaluate_pairs(pairs).to_dict()
        for name, floor in self.FLOORS.items():
            assert report[name] >= floor, (name, report)
        assert generated / steps >= self.GENERATED_SHARE_FLOOR, (generated, steps)
        _passed("held-out", f"BLEU-4 {report['bleu4']:.2f}, ROUGE-L {report['rougeL']:.2f}, "
                            f"METEOR {report['meteor']:.2f}, generated share "
                            f"{generated / steps:.3f} on {len(held_out)} unseen passages")
