"""The batched training step against the one-example-at-a-time reference in
`reference.py`: equal losses and parameter gradients, and the same use of
the Gumbel and dropout streams."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import qgen.autodiff as ad
import qgen.decoder
import qgen.encoder
from qgen.beam import generate
from qgen.config import rng_stream
from qgen.corpus import EOS, build_vocabulary, stopword_set
from qgen.features import FeatureVocab
from qgen.labeling import label_corpus
from qgen.model import QgModel
from qgen.toydata import make_toy_data
from qgen.training import batch_losses

import reference
from conftest import (chain_example, dependency_trees, gold_clue_noise, micro_corpus,
                      tiny_config, toy_config)

LOSS_RTOL = 1e-12
GRAD_TOL = 1e-10


def _uneven_corpus():
    """Passages of 9, 5, 1 and 3 tokens with questions of 7, 5, 2 and 1 tokens."""
    one_token = chain_example(["Paris"], question=("where", "?"))
    three = chain_example(["Leo", "sold", "boats"], answer_span=(2, 2), question=("boats",))
    return make_toy_data(6, seed=3) + micro_corpus() + [one_token, three]


def _build(config, corpus):
    vocab = build_vocabulary(corpus, config.vocab_max)
    labeled, reduced = label_corpus(corpus, vocab, stopword_set(), config.r_h,
                                    config.reduced_vocab_size)
    model = QgModel.build(config, vocab, reduced, FeatureVocab.from_corpus(corpus),
                          rng_stream(config.seed, "init"))
    return model, labeled


_MODELS = {}


def _model(name, dropout):
    """A model built once per module for each config and dropout rate."""
    if (name, dropout) not in _MODELS:
        config = {"tiny": tiny_config(r_h=3, r_l=40, vocab_max=200, dropout=dropout),
                  "toy": toy_config(dropout=dropout)}[name]
        _MODELS[name, dropout] = _build(config, _uneven_corpus())
    return _MODELS[name, dropout]


@pytest.fixture(scope="module")
def tiny():
    return _model("tiny", 0.3)


def _grads(model, loss):
    model.params.zero_grad()
    loss.backward()
    return {name: t.grad for name, t in model.params.items()}


def _streams(seed):
    return rng_stream(seed, "gumbel"), rng_stream(seed, "dropout")


def assert_batch_matches_reference(model, batch, seed=0, clue_source="predicted",
                                   gumbel_noise=None, **kwargs):
    """`gumbel_noise` is the batch's (N, 2) noise, which the reference takes
    split per example.  `clue_source="gold"` gives both passes Gumbel noise
    that samples each passage's gold clue labels, so the encoder reads the
    gold labels."""
    if clue_source == "gold":
        gumbel_noise = gold_clue_noise(batch)
    ref_noise = None if gumbel_noise is None else np.split(
        gumbel_noise, np.cumsum([len(ex.base.passage) for ex in batch])[:-1])
    gumbel, dropout = _streams(seed)
    losses = batch_losses(model, batch, gumbel, dropout, gumbel_noise=gumbel_noise, **kwargs)
    loss = ad.mean_(losses.total)
    ref_gumbel, ref_dropout = _streams(seed)
    ref_loss, ref_examples = reference.batch_loss(model, batch, ref_gumbel, ref_dropout,
                                                  gumbel_noise=ref_noise, **kwargs)
    if clue_source == "gold" and kwargs.get("mode") == "train":
        for ex, want in zip(batch, ref_examples):
            np.testing.assert_array_equal(want.clue.indicators, ex.passage_clue_label)

    assert loss.item() == pytest.approx(ref_loss.item(), rel=LOSS_RTOL, abs=0)
    for got, want in zip(losses.per_example(), ref_examples):
        for name in got:
            assert got[name] == pytest.approx(getattr(want, name).item(), rel=LOSS_RTOL, abs=0)
    # both passes drew the same numbers from both streams
    assert gumbel.bit_generator.state == ref_gumbel.bit_generator.state
    assert dropout.bit_generator.state == ref_dropout.bit_generator.state

    got, want = _grads(model, loss), _grads(model, ref_loss)
    for name in got:
        if want[name] is None:
            assert got[name] is None or not got[name].any(), name
        else:
            np.testing.assert_allclose(got[name], want[name], rtol=GRAD_TOL, atol=GRAD_TOL,
                                       err_msg=name)


@pytest.mark.parametrize("dropout", [0.0, 0.3])
@pytest.mark.parametrize("clue_source", ["predicted", "gold"])
class TestBatchEqualsReference:
    """Train mode (Gumbel clue samples, dropout when on) with uneven passage
    and question lengths in one batch, a one-token passage among them."""

    def test_tiny(self, dropout, clue_source):
        model, labeled = _model("tiny", dropout)
        assert_batch_matches_reference(model, labeled[4:], mode="train", clue_source=clue_source)

    def test_toy(self, dropout, clue_source):
        model, labeled = _model("toy", dropout)
        batch = [labeled[i] for i in (8, 0, 6, 9, 1)]
        assert_batch_matches_reference(model, batch, seed=1, mode="train",
                                       clue_source=clue_source)


def test_eval_mode_batch(tiny):
    model, labeled = tiny
    assert_batch_matches_reference(model, labeled[3:], mode="eval")


@pytest.mark.parametrize("index", [0, 8])
def test_single_example_batch(tiny, index):
    model, labeled = tiny
    assert_batch_matches_reference(model, [labeled[index]], seed=2, mode="train")


def test_relaxed_clue_sample_with_given_noise(tiny):
    model, labeled = tiny
    batch = [labeled[8], labeled[2]]
    noise = np.concatenate([np.random.default_rng(i).gumbel(size=(len(ex.base.passage), 2))
                            for i, ex in enumerate(batch)])
    assert_batch_matches_reference(model, batch, mode="train", clue_mode="soft",
                                   gumbel_noise=noise)


def test_dropout_stream_is_read_as_one_example_at_a_time_reads_it(tiny):
    """Each example draws its encoder-input, encoder-output and maxout
    multipliers in that order before the next example draws: the masks the
    batch applies are the per-example draws, stacked."""
    model, labeled = tiny
    batch = [labeled[9], labeled[8], labeled[0]]
    cfg = model.config
    width = model.params["enc.fwd.w_z"].shape[1] - cfg.enc_hidden
    keeps = model.dropout_keeps(batch, width, rng_stream(4, "dropout"))
    rng = rng_stream(4, "dropout")
    inputs, states, maxouts = [], [], []
    for ex in batch:
        n = len(ex.base.passage)
        inputs.append(ad.dropout_keep(rng, (n, width), cfg.dropout))
        states.append(ad.dropout_keep(rng, (n, 2 * cfg.enc_hidden), cfg.dropout))
        # one (dec_hidden,) draw per decoder step
        maxouts += [ad.dropout_keep(rng, (cfg.dec_hidden,), cfg.dropout)
                    for _ in range(len(ex.base.question) + 1)]
    for got, want in zip(keeps, [np.concatenate(inputs), np.concatenate(states), np.stack(maxouts)]):
        np.testing.assert_array_equal(got, want)
    follow = rng_stream(4, "dropout")
    model.dropout_keeps(batch, width, follow)
    assert follow.bit_generator.state == rng.bit_generator.state


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_batched_loss_equals_reference_on_random_batches(tiny, data):
    model, labeled = tiny
    picks = data.draw(st.lists(st.integers(0, len(labeled) - 1), min_size=1, max_size=5),
                      label="batch")
    mode = data.draw(st.sampled_from(["train", "eval"]), label="mode")
    clue_source = data.draw(st.sampled_from(["predicted", "gold"]), label="clue_source")
    seed = data.draw(st.integers(0, 2 ** 16), label="seed")
    assert_batch_matches_reference(model, [labeled[i] for i in picks], seed=seed, mode=mode,
                                   clue_source=clue_source)


def test_gru_cells_read_the_input_shares_in_place(tiny, monkeypatch):
    """No gather sits between `gru_inputs` and `gru_cell`: on a ragged batch
    the first three parents of every GRU step, encoder and decoder, are the
    tensors `gru_inputs` returned."""
    model, labeled = tiny
    batch = labeled[4:]
    shares, gru_inputs = set(), qgen.encoder.gru_inputs

    def recording(x, p):
        out = gru_inputs(x, p)
        shares.update(id(t) for t in out)
        return out

    monkeypatch.setattr(qgen.encoder, "gru_inputs", recording)
    monkeypatch.setattr(qgen.decoder, "gru_inputs", recording)
    dist = model.forward(batch, mode="train", gumbel_rng=rng_stream(0, "gumbel"),
                         dropout_rng=rng_stream(0, "dropout")).decoder
    cells, seen, stack = [], set(), [dist.gen, dist.copy, dist.gate]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            if t._op == "gru_cell":
                cells.append(t)
            stack.extend(t._parents)
    assert len(shares) == 9   # both encoder directions and the decoder
    steps = 2 * max(len(ex.base.passage) for ex in batch) + max(len(ex.base.question)
                                                                for ex in batch) + 1
    assert len(cells) == steps
    for cell in cells:
        assert all(id(t) in shares for t in cell._parents[:3])


WORDS = ["what", "who", "is", "the", "of", "?"]


@st.composite
def ragged_corpora(draw):
    """1-4 passages of 1-10 tokens with random trees and answer spans, each
    with a 1-6-token question of passage words and words of `WORDS`."""
    corpus = draw(st.lists(dependency_trees(max_tokens=10), min_size=1, max_size=4))
    for ex in corpus:
        n = len(ex.passage)
        start = draw(st.integers(0, n - 1))
        ex.answer_span = (start, draw(st.integers(start, n - 1)))
        words = [t.text for t in ex.passage] + WORDS
        ex.question = draw(st.lists(st.sampled_from(words), min_size=1, max_size=6))
    return corpus


@settings(max_examples=20, deadline=None)
@given(corpus=ragged_corpora(), seed=st.integers(0, 2 ** 16))
def test_random_ragged_batches(corpus, seed):
    """Every padding shape: the batched step equals the one-example
    reference, and beam search over each passage without its question
    terminates with finite scores."""
    model, labeled = _build(tiny_config(dropout=0.3, seed=seed), corpus)
    assert_batch_matches_reference(model, labeled, seed=seed, mode="train")
    for ex in corpus:
        ex.question = []
        for hyp in generate(model, ex, beam_width=3, max_len=5):
            assert hyp.tokens[-1] == EOS or len(hyp.tokens) == 5
            assert np.isfinite(hyp.score)
