import math
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qgen.autodiff as ad
import qgen.beam
from qgen.autodiff import ParamStore, Tensor, no_grad
from qgen.beam import SurfaceTable, WordTermCache, generate
from qgen.config import ConfigError
from qgen.corpus import EOS, SOS, SPECIAL_TOKENS, build_vocabulary, stopword_set
from qgen.decoder import DecoderParams, ExtendedDistribution, init_decoder, word_terms
from qgen.encoder import encode
from qgen.features import FeatureVocab
from qgen.labeling import label_corpus
from qgen.model import QgModel
from qgen.toydata import make_toy_data
from qgen.training import PROB_FLOOR

import reference
from conftest import chain_example, tiny_config


@pytest.fixture(scope="module")
def setup():
    corpus = make_toy_data(8, seed=6)
    cfg = tiny_config(r_h=3, r_l=40, vocab_max=200, attn_dim=9, max_len=12)
    vocab = build_vocabulary(corpus, cfg.vocab_max)
    fv = FeatureVocab.from_corpus(corpus)
    labeled, reduced = label_corpus(corpus, vocab, stopword_set(), cfg.r_h, 2000)
    model = QgModel.build(cfg, vocab, reduced, fv, np.random.default_rng(21))
    return model, corpus


def _encode(model, example):
    clue = model.predict_clues(model.embedder.collate([example]), rng=None, mode="eval")
    feats = model.embedder.append_clue_slot(clue.features, clue.weights)
    return encode(feats, [len(example.passage)], model.enc_fwd, model.enc_bwd)


def _start(model, enc, p):
    """One-row (s_0, zero context, <SOS> embedding) of one hypothesis, in
    the model's dtype."""
    s = init_decoder(enc.last_backward, p.w_init, p.b_init)
    return s, Tensor(np.zeros((1, enc.states.shape[1]), enc.states.data.dtype)), _word(model, SOS)


def _step(w_prev, c, s, enc, p):
    """The one-row decoder step of the context c, as the one-example
    reference pass takes it: (s, c, gen, copy, gate)."""
    return reference.decode_step(w_prev, c, s, enc.states, ad.linear(enc.states, p.w_h), p,
                                 "eval", 0.0, None)


def _word(model, token):
    """The decoder's one-row input embedding of an emitted token."""
    row = SPECIAL_TOKENS.index(SOS) if token == SOS else model.embedder.decoder_word_row_id(token)
    return ad.gather_rows(model.params["embed.word"], [row])


def _surface_probs(dist, passage_texts: list[str], reduced) -> dict[str, float]:
    """Merge a one-row step's generation and copy probabilities by emitted
    string."""
    gate = dist.gate.item()
    probs: dict[str, float] = {}
    gen = dist.gen.data[0]
    for idx in range(len(gen)):
        token = reduced.token_of(idx)
        if token == SOS:
            continue
        probs[token] = probs.get(token, 0.0) + (1.0 - gate) * float(gen[idx])
    copy = dist.copy.data[0]
    for i, text in enumerate(passage_texts):
        probs[text] = probs.get(text, 0.0) + gate * float(copy[i])
    return probs


@dataclass
class RefHypothesis:
    tokens: list[str]
    log_prob: float
    s: Tensor
    c: Tensor
    w_prev: Tensor
    finished: bool

    @property
    def score(self) -> float:
        return self.log_prob / max(len(self.tokens), 1)


def reference_generate(model, example, beam_width, max_len):
    """The per-hypothesis beam: one one-row decoder step of the context and
    one dict merge for every live hypothesis, ties broken by (-prob, token)
    then list order."""
    passage_texts = [t.text for t in example.passage]
    p = model.dec
    with no_grad():
        enc = _encode(model, example)
        s, c, w_prev = _start(model, enc, p)
        beam = [RefHypothesis(tokens=[], log_prob=0.0, s=s, c=c, w_prev=w_prev, finished=False)]
        done = []
        for _ in range(max_len):
            live = [h for h in beam if not h.finished]
            if not live:
                break
            candidates = []
            for hyp in live:
                step = _step(hyp.w_prev, hyp.c, hyp.s, enc, p)
                merged = _surface_probs(step, passage_texts, model.reduced)
                top = sorted(merged.items(), key=lambda kv: (-kv[1], kv[0]))[:beam_width]
                for token, prob in top:
                    lp = hyp.log_prob + math.log(max(prob, PROB_FLOOR))
                    if token == EOS:
                        candidates.append(replace(
                            hyp, tokens=hyp.tokens + [token], log_prob=lp, finished=True))
                    else:
                        candidates.append(RefHypothesis(
                            tokens=hyp.tokens + [token], log_prob=lp, s=step.s, c=step.c,
                            w_prev=_word(model, token),
                            finished=False))
            candidates.sort(key=lambda h: -h.score)
            beam = candidates[:beam_width]
            done.extend(h for h in beam if h.finished)
            beam = [h for h in beam if not h.finished]
        pool = done + beam
        pool.sort(key=lambda h: -h.score)
        return pool


def greedy_oracle(model, example, max_len):
    """Independent argmax chain over the merged surface distribution."""
    p = model.dec
    with no_grad():
        enc = _encode(model, example)
        s, c, w_prev = _start(model, enc, p)
        tokens = []
        for _ in range(max_len):
            step = _step(w_prev, c, s, enc, p)
            merged = _surface_probs(step, [t.text for t in example.passage], model.reduced)
            token = sorted(merged.items(), key=lambda kv: (-kv[1], kv[0]))[0][0]
            tokens.append(token)
            if token == EOS:
                break
            s, c = step.s, step.c
            w_prev = _word(model, token)
    return tokens


def _repeating_passage():
    """Passage words that repeat and that are also reduced-vocabulary words."""
    return chain_example(["Erin", "repaired", "the", "bridge", "in", "the", "bridge", "."])


def _assert_matches_reference(model, example, beam_width, max_len):
    got = generate(model, example, beam_width=beam_width, max_len=max_len)
    want = reference_generate(model, example, beam_width, max_len)
    assert [h.tokens for h in got] == [h.tokens for h in want]
    assert [h.finished for h in got] == [h.finished for h in want]
    if model.config.precision == "float64":
        np.testing.assert_allclose([h.log_prob for h in got], [h.log_prob for h in want],
                                   rtol=0, atol=1e-9)
    else:
        # the two passes round float32 products summed in different orders
        np.testing.assert_allclose([h.score for h in got], [h.score for h in want],
                                   rtol=1e-5, atol=0)
    return got


@pytest.fixture(scope="module")
def setup32(setup):
    """`setup`'s model built in float32 from the same draws."""
    model, corpus = setup
    return QgModel.build(replace(model.config, precision="float32"), model.vocab,
                         model.reduced, model.features, np.random.default_rng(21)), corpus


def _assert_matches_reference_on_toy_passages(model, corpus, beam_width, max_len):
    repeating = _repeating_passage()
    texts = [t.text for t in repeating.passage]
    assert len(set(texts)) < len(texts)
    assert set(texts) & set(model.reduced.words)
    for ex in corpus[:3] + [repeating]:
        _assert_matches_reference(model, ex, beam_width, max_len)


class TestAgainstReference:
    @pytest.mark.parametrize("max_len", [1, 4, 12])
    @pytest.mark.parametrize("beam_width", [1, 3, 5, 20])
    def test_batched_beam_equals_per_hypothesis_beam(self, setup, beam_width, max_len):
        _assert_matches_reference_on_toy_passages(*setup, beam_width, max_len)

    @pytest.mark.parametrize("max_len", [1, 4, 12])
    @pytest.mark.parametrize("beam_width", [1, 3, 5, 20])
    def test_float32_batched_beam_equals_per_hypothesis_beam(self, setup32, beam_width,
                                                             max_len):
        model, corpus = setup32
        assert all(t.data.dtype == np.float32 for t in model.params.tensors())
        _assert_matches_reference_on_toy_passages(model, corpus, beam_width, max_len)


def _surface_table_from_scratch(model, passage_texts):
    """(tokens, columns, eos, word_rows) with every string of the reduced
    vocabulary and the passage sorted and looked up anew."""
    vocab = [model.reduced.token_of(i) for i in range(len(model.reduced))]
    sources = [t for t in vocab if t != SOS] + passage_texts
    tokens = sorted(set(sources))
    column = {token: j for j, token in enumerate(tokens)}
    return (tokens, np.array([column[t] for t in sources]), column[EOS],
            np.array([model.embedder.decoder_word_row_id(t) for t in tokens]))


class TestSurfaceTable:
    def test_equals_the_table_built_from_scratch(self, setup, tied_setup):
        """Passage words inside and outside the reduced vocabulary, repeated,
        sorting before, between and after its strings; two models with
        different reduced vocabularies keep their own halves."""
        model, corpus = setup
        tied, _ = tied_setup
        for m in (model, tied(0.0), model):
            inside = sorted(set(m.reduced.words) - {SOS})
            for passage in (corpus[0], corpus[5], _repeating_passage()):
                texts = [t.text for t in passage.passage] + ["!", inside[1], "zzz", "!", EOS]
                assert set(texts) - set(inside) and set(texts) & set(inside)
                table = SurfaceTable(m, texts)
                tokens, columns, eos, word_rows = _surface_table_from_scratch(m, texts)
                assert table.tokens == tokens and table.eos == eos
                for got, want in ((table.columns, columns), (table.word_rows, word_rows)):
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestSelect:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_equals_merge_top_k_and_stable_sort(self, setup, data):
        """Rows, columns and log-probabilities, byte for byte, against the
        whole bincount table, each row's `top_k` and a stable sort: passage
        words repeated, inside and outside the reduced vocabulary; tied
        probabilities; gates of exactly 0 and 1; probabilities below
        `PROB_FLOOR`; 1 to 20 rows, and widths from 1 to past every
        surface; log-probabilities spread down to -1e4."""
        model, _ = setup
        inside = sorted(set(model.reduced.words) - {SOS})
        pool = inside[:4] + [EOS, "zzz", "Erin", "!", "aardvark"]
        texts = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=14))
        rows = data.draw(st.integers(1, 20))
        dtype = data.draw(st.sampled_from([np.float32, np.float64]))
        gates = data.draw(st.lists(st.sampled_from([0.0, 1.0, 0.5, 1e-3, 0.999]),
                                   min_size=rows, max_size=rows))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        gen = rng.dirichlet(np.full(len(model.reduced), data.draw(st.sampled_from([0.02, 1.0]))),
                            rows)
        if data.draw(st.booleans()):   # few distinct values: ties within and across rows
            gen = rng.choice([0.0, 1e-13, 1e-3, 0.01], size=gen.shape)
        copy = rng.dirichlet(np.ones(len(texts)), rows)
        if data.draw(st.booleans()):
            copy = rng.choice([0.0, 1e-13, 0.25, 0.5], size=copy.shape)
        dist = ExtendedDistribution(gen=Tensor(gen.astype(dtype)), copy=Tensor(copy.astype(dtype)),
                                    gate=Tensor(np.array(gates, dtype)))
        spread = data.draw(st.sampled_from([0.0, 1.0, 30.0, 1e4]))
        log_probs = -spread * rng.random(rows)
        length = data.draw(st.integers(1, 30))
        table = SurfaceTable(model, texts)
        k = data.draw(st.integers(1, len(table.tokens) + 3))
        got = table.select(dist, log_probs, length, k)   # a RuntimeWarning fails the suite
        want = reference.beam_select(table, dist, log_probs, length, k)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()


class TestWordTermCache:
    def test_rows_equal_the_k_row_products(self, monkeypatch):
        """At the paper's float32 GRU input width, a (1536, 300) word weight: steps with one
        hypothesis, and with zero, one and several new words, give the bytes
        of the step's whole K-row products; a step with no new word
        multiplies nothing."""
        rng = np.random.default_rng(3)
        store = ParamStore(np.float32, rng)
        p = DecoderParams.create(store, 300, 1024, 512, 8, 5)
        assert p.gru.w_x.shape == (1536, 300)
        words = store.draw("embed.word", (50, 300), 0.1)
        table = SimpleNamespace(word_rows=np.arange(80) % 50)   # columns c and c + 50 share a row
        calls = []
        monkeypatch.setattr(qgen.beam, "word_terms",
                            lambda w, p: calls.append(len(w.data)) or word_terms(w, p))
        cache = WordTermCache(table, words, p)
        steps = [[3], [3, 3, 5, 7, 7, 9, 11, 3, 5, 5, 12, 13, 7, 9, 9, 3, 3, 5, 7, 11],
                 [11, 9, 7, 5, 3, 53, 12, 13, 7, 7, 5, 5, 9, 9, 11, 3, 3, 12, 13, 7],
                 [3, 5, 7, 40, 40, 9, 11, 3, 5, 5, 12, 13, 7, 9, 9, 3, 53, 5, 7, 11],
                 [40, 3], [60, 61], [62], [70, 71, 72, 20]]
        seen, new_counts = set(), []
        for columns in steps:
            calls.clear()
            with no_grad():
                gates, readout = cache(np.array(columns))
                want = word_terms(ad.gather_rows(words, table.word_rows[columns]), p)
            for got, ref in ((gates, want[0]), (readout, want[1])):
                assert got.data.dtype == np.float32 and got.shape == ref.shape
                assert got.data.tobytes() == ref.data.tobytes()
            if len(columns) == 1:   # one hypothesis: its one-row product, uncached
                assert calls == [1]
                continue
            new = set(table.word_rows[columns].tolist()) - seen
            new_counts.append(len(new))
            assert calls == ([max(2, len(new))] if new else [])
            seen |= new
        assert new_counts == [7, 0, 1, 0, 1, 3]


class TestTopK:
    """`reference.top_k`, the proposals of the oracle that `TestSelect`
    compares the beam's selection against."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_equals_stable_argsort_with_ties(self, data):
        rows, width = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 12))
        values = data.draw(st.lists(st.sampled_from([0.0, 0.25, 0.5]),
                                    min_size=rows * width, max_size=rows * width))
        probs = np.array(values).reshape(rows, width)
        k = data.draw(st.integers(1, width + 2))
        want = np.argsort(-probs, axis=1, kind="stable")[:, :k]
        got = reference.top_k(probs, k)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_reference_selection(self, data):
        """Up to 20 rows of up to 80 columns, few distinct values."""
        rows, width = data.draw(st.integers(1, 20)), data.draw(st.integers(1, 80))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        probs = rng.choice(rng.random(data.draw(st.integers(1, 6))), size=(rows, width))
        k = data.draw(st.integers(1, width + 2))
        got = reference.top_k(probs, k)
        want = np.argsort(-probs, axis=1, kind="stable")[:, :k]
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("probs", [np.full((3, 1), 0.5), np.full((4, 9), 0.25),
                                       np.zeros((2, 30))], ids=["one_column", "equal", "zero"])
    @pytest.mark.parametrize("k", [1, 2, 5, 9, 31])
    def test_single_column_and_all_equal_rows(self, probs, k):
        want = np.argsort(-probs, axis=1, kind="stable")[:, :k]
        assert np.array_equal(reference.top_k(probs, k), want)


@pytest.fixture(scope="module")
def tied_setup():
    """A model like `setup`'s with a 21-word reduced vocabulary and a zero
    generation head, and a setter for its copy-gate bias: every
    generated-only surface is equally likely, and with the gate shut every
    reduced-vocabulary surface is."""
    corpus = make_toy_data(8, seed=6)
    cfg = tiny_config(r_h=20, r_l=40, vocab_max=200, attn_dim=9, max_len=12)
    vocab = build_vocabulary(corpus, cfg.vocab_max)
    _, reduced = label_corpus(corpus, vocab, stopword_set(), cfg.r_h, 2000)
    model = QgModel.build(cfg, vocab, reduced, FeatureVocab.from_corpus(corpus),
                          np.random.default_rng(21))
    model.params["dec.w_out"].data[:] = 0.0

    def with_gate_bias(bias):
        model.params["dec.gate.b"].data = np.asarray(bias)
        return model
    return with_gate_bias, corpus


class TestTiedSurfaces:
    @pytest.mark.parametrize("beam_width, gate_bias", [(1, -50.0), (3, -50.0), (20, 0.0)])
    def test_tie_heavy_beam_equals_per_hypothesis_beam(self, tied_setup, beam_width, gate_bias):
        with_gate_bias, corpus = tied_setup
        model = with_gate_bias(gate_bias)
        ex = corpus[0]
        p = model.dec
        with no_grad():
            enc = _encode(model, ex)
            s, c, w_prev = _start(model, enc, p)
            first = _step(w_prev, c, s, enc, p)
        values = sorted(_surface_probs(first, [t.text for t in ex.passage],
                                       model.reduced).values(), reverse=True)
        assert values[beam_width - 1] == values[beam_width]   # the first step's K-th place ties
        for ex in corpus[:4] + [_repeating_passage()]:
            _assert_matches_reference(model, ex, beam_width, 8)


class TestDegenerateInputs:
    @pytest.mark.parametrize("case", ["one_token_passage", "max_len_1", "wide_beam",
                                      "empty_question"])
    def test_ranked_and_terminated(self, setup, case):
        model, corpus = setup
        ex, beam_width, max_len = {
            "one_token_passage": (chain_example(["Erin"]), 4, 6),
            "max_len_1": (corpus[0], 4, 1),
            "wide_beam": (corpus[1], 60, 3),
            "empty_question": (replace(corpus[2], question=[]), 4, 6),
        }[case]
        if case == "wide_beam":
            surfaces = {t.text for t in ex.passage}
            surfaces |= {model.reduced.token_of(i) for i in range(len(model.reduced))} - {SOS}
            assert beam_width > len(surfaces)
        hyps = _assert_matches_reference(model, ex, beam_width, max_len)
        scores = [h.score for h in hyps]
        assert scores == sorted(scores, reverse=True)
        for hyp in hyps:
            assert hyp.tokens[-1] == EOS or len(hyp.tokens) == max_len


class TestGenerate:
    def test_greedy_equals_argmax_chain(self, setup):
        model, corpus = setup
        for ex in corpus[:3]:
            hyp = generate(model, ex, beam_width=1, max_len=12)[0]
            assert hyp.tokens == greedy_oracle(model, ex, 12)

    def test_termination_contract(self, setup):
        model, corpus = setup
        for ex in corpus:
            for hyp in generate(model, ex, beam_width=3, max_len=6):
                assert hyp.tokens[-1] == EOS or len(hyp.tokens) == 6
                assert hyp.log_prob <= 0.0  # emission probabilities never exceed 1

    def test_deterministic(self, setup):
        model, corpus = setup
        a = generate(model, corpus[0], beam_width=4, max_len=8)
        b = generate(model, corpus[0], beam_width=4, max_len=8)
        assert [h.tokens for h in a] == [h.tokens for h in b]
        assert [h.log_prob for h in a] == [h.log_prob for h in b]

    def test_beam_inclusion(self, setup):
        model, corpus = setup
        for ex in corpus[:4]:
            greedy = generate(model, ex, beam_width=1, max_len=8)[0]
            wide = generate(model, ex, beam_width=20, max_len=8)
            assert greedy.log_prob <= max(h.log_prob for h in wide) + 1e-9

    def test_emitted_surfaces_are_closed(self, setup):
        model, corpus = setup
        for ex in corpus[:4]:
            allowed = {t.text for t in ex.passage}
            allowed |= {model.reduced.token_of(i) for i in range(len(model.reduced))}
            for hyp in generate(model, ex, beam_width=5, max_len=8):
                assert set(hyp.tokens) <= allowed

    def test_ranking_is_by_normalized_score(self, setup):
        model, corpus = setup
        hyps = generate(model, corpus[0], beam_width=6, max_len=8)
        scores = [h.score for h in hyps]
        assert scores == sorted(scores, reverse=True)

    @pytest.mark.parametrize("beam_width, max_len, field", [
        (0, 8, "beam_width"), (-3, 2, "beam_width"), (2, 0, "max_len")])
    def test_bad_width_or_length_rejected(self, setup, beam_width, max_len, field):
        model, corpus = setup
        with pytest.raises(ConfigError, match=f"{field} must be a positive integer"):
            generate(model, corpus[0], beam_width=beam_width, max_len=max_len)

    def test_float32_model(self, setup32):
        m32, corpus = setup32
        for ex in corpus[:3]:
            hyps = generate(m32, ex, beam_width=4, max_len=8)
            scores = [h.score for h in hyps]
            assert len(hyps) == 4 and np.isfinite(scores).all()
            assert scores == sorted(scores, reverse=True)

    def test_surface_strips_eos(self, setup):
        model, corpus = setup
        hyp = generate(model, corpus[0], beam_width=2, max_len=8)[0]
        assert EOS not in hyp.surface()


class TestRiggedCopy:
    def test_saturated_gate_with_peaked_attention_copies_position_two(self, setup):
        model, corpus = setup
        ex = corpus[0]
        cfg = model.config
        with no_grad():
            enc = _encode(model, ex)
        h = enc.states.data  # (9, 2*hidden)
        n = h.shape[0]
        assert cfg.attn_dim == n
        # rig: scores_i = v . tanh(W_h h_i) with W_h h_i = 3 * e_i, v = 100 * e_2
        w_h = 3.0 * np.linalg.pinv(h.T)
        saved = {name: model.params[name].data.copy()
                 for name in ("dec.attn.w_s", "dec.attn.w_h", "dec.attn.v", "dec.gate.b")}
        try:
            model.params["dec.attn.w_s"].data = np.zeros_like(model.params["dec.attn.w_s"].data)
            model.params["dec.attn.w_h"].data = w_h
            v = np.zeros(n)
            v[2] = 100.0
            model.params["dec.attn.v"].data = v
            model.params["dec.gate.b"].data = np.asarray(50.0)
            hyp = generate(model, ex, beam_width=1, max_len=3)[0]
            assert hyp.tokens[0] == ex.passage[2].text
        finally:
            for name, data in saved.items():
                model.params[name].data = data
