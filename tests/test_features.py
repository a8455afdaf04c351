import numpy as np
import pytest

from qgen.autodiff import ParamStore, Tensor, sum_
from qgen.config import ConfigError, rng_stream
from qgen.corpus import LOWFREQ, SOS, SPECIAL_TOKENS, UNK, build_vocabulary, stopword_set
from qgen.features import (
    FeatureEmbedder,
    FeatureVocab,
    build_feature_tables,
    clue_input_width,
    encoder_input_width,
)

from qgen.labeling import label_corpus
from qgen.toydata import make_toy_data

from conftest import chain_example, tiny_config, toy_config


@pytest.fixture
def setup():
    # 'common' is frequent (tier H/M); singletons drift to tier L
    words = ["common"] * 12 + [f"rare{i}" for i in range(8)]
    corpus = [chain_example(words, question=("common", "?"))]
    cfg = tiny_config(r_h=1, r_l=4, vocab_max=50)
    vocab = build_vocabulary(corpus, cfg.vocab_max)
    fv = FeatureVocab.from_corpus(corpus)
    params = ParamStore(rng=rng_stream(0, "init"))
    build_feature_tables(params, cfg, vocab, fv)
    embedder = FeatureEmbedder(params, cfg, vocab, fv)
    return corpus[0], cfg, vocab, embedder, params


class TestWidths:
    def test_encoder_width_is_configured_sum(self, setup):
        ex, cfg, _, embedder, _ = setup
        out = embedder.append_clue_slot(embedder.embed_passage(embedder.collate([ex])),
                                        Tensor(np.eye(2)[np.zeros(len(ex.passage), dtype=int)]))
        assert out.shape == (len(ex.passage), encoder_input_width(cfg))
        assert encoder_input_width(cfg) == cfg.word_dim + 8 * cfg.feat_dim + cfg.tier_dim

    def test_clue_variant_omits_clue_slot(self, setup):
        ex, cfg, _, embedder, _ = setup
        out = embedder.embed_passage(embedder.collate([ex]))
        assert out.shape == (len(ex.passage), clue_input_width(cfg))
        assert encoder_input_width(cfg) - clue_input_width(cfg) == cfg.feat_dim


class TestMasking:
    def test_low_freq_tokens_share_word_slot(self, setup):
        ex, cfg, vocab, embedder, params = setup
        out = embedder.embed_passage(embedder.collate([ex])).data
        # rare3/rare4 rank beyond r_l=4 -> tier L -> shared <l> word row
        i, j = 15, 16
        assert vocab.rank_of(ex.passage[i].text) > cfg.r_l
        assert ex.passage[i].text != ex.passage[j].text
        low_row = params["embed.word"].data[SPECIAL_TOKENS.index(LOWFREQ)]
        np.testing.assert_array_equal(out[i, :cfg.word_dim], low_row)
        np.testing.assert_array_equal(out[i, :cfg.word_dim], out[j, :cfg.word_dim])

    def test_high_freq_token_uses_own_row(self, setup):
        ex, cfg, vocab, embedder, params = setup
        out = embedder.embed_passage(embedder.collate([ex])).data
        row = params["embed.word"].data[vocab.id_of("common")]
        np.testing.assert_array_equal(out[0, :cfg.word_dim], row)

    def test_mask_reduces_distinct_gradient_rows(self, setup):
        ex, cfg, vocab, embedder, params = setup
        sum_(embedder.embed_passage(embedder.collate([ex]))).backward()
        touched = {int(i) for i in np.nonzero(np.abs(params["embed.word"].grad).sum(axis=1))[0]}
        non_low = {vocab.id_of(t.text) for t in ex.passage
                   if vocab.rank_of(t.text) is not None and vocab.rank_of(t.text) <= cfg.r_l}
        assert touched == non_low | {SPECIAL_TOKENS.index(LOWFREQ)}

    def test_clue_toggle_changes_only_last_slot(self, setup):
        ex, cfg, _, embedder, _ = setup
        n = len(ex.passage)
        shared = embedder.embed_passage(embedder.collate([ex]))
        off = embedder.append_clue_slot(shared, Tensor(np.eye(2)[np.zeros(n, dtype=int)])).data
        flags = np.zeros(n, dtype=int)
        flags[3] = 1
        on = embedder.append_clue_slot(shared, Tensor(np.eye(2)[flags])).data
        width = encoder_input_width(cfg)
        np.testing.assert_array_equal(on[:, :width - cfg.feat_dim], off[:, :width - cfg.feat_dim])
        assert not np.array_equal(on[3, width - cfg.feat_dim:], off[3, width - cfg.feat_dim:])
        np.testing.assert_array_equal(on[2, width - cfg.feat_dim:], off[2, width - cfg.feat_dim:])


def _word_table(setup, vectors_file=None) -> np.ndarray:
    """The word table of a fresh store drawn from one seed's init stream."""
    _, cfg, vocab, embedder, _ = setup
    params = ParamStore(rng=rng_stream(4, "init"))
    build_feature_tables(params, cfg, vocab, embedder.features, vectors_file)
    return params["embed.word"].data


class TestWordTable:
    def test_reproducible_random_init(self, setup):
        a, b = _word_table(setup), _word_table(setup)
        np.testing.assert_array_equal(a, b)
        assert np.abs(a).max() <= 0.1

    def test_pretrained_rows_copied(self, setup, tmp_path):
        _, cfg, vocab, _, _ = setup
        vec = " ".join(["common"] + [str(0.5)] * cfg.word_dim)
        path = tmp_path / "vecs.txt"
        path.write_text(vec + "\n")
        table, drawn = _word_table(setup, path), _word_table(setup)
        common = vocab.id_of("common")
        np.testing.assert_array_equal(table[common], [0.5] * cfg.word_dim)
        # every other row keeps its draw
        np.testing.assert_array_equal(np.delete(table, common, 0), np.delete(drawn, common, 0))

    def test_dimension_mismatch_rejected(self, setup, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("common 1.0 2.0\n")
        with pytest.raises(ConfigError):
            _word_table(setup, path)


class TestBatch:
    def test_batch_rows_are_each_passage_stacked(self, setup):
        ex, _, _, embedder, _ = setup
        short = chain_example(["common", "rare1", "17"], answer_span=(1, 2))
        one = chain_example(["rare7"])
        batch = [short, ex, one, short]
        stacked = np.concatenate([embedder.embed_passage(embedder.collate([e])).data
                                  for e in batch])
        np.testing.assert_array_equal(embedder.embed_passage(embedder.collate(batch)).data, stacked)


    def test_a_batch_joins_its_examples_collated_alone(self):
        """Collating a batch equals collating each example alone and joining
        the arrays: tree heads shift by the passage starts and alignment
        rows by the step starts.  The toy corpus plus a one-token passage,
        labeled and not."""
        corpus = make_toy_data(16, 1) + [chain_example(["Paris"], question=("where", "?"))]
        cfg = toy_config()
        vocab = build_vocabulary(corpus, cfg.vocab_max)
        labeled, _ = label_corpus(corpus, vocab, stopword_set(), cfg.r_h, cfg.reduced_vocab_size)
        embedder = FeatureEmbedder(None, cfg, vocab, FeatureVocab.from_corpus(corpus))
        for examples in (labeled, corpus):
            batch = embedder.collate(examples)
            alone = [embedder.collate([ex]) for ex in examples]
            starts = np.cumsum([a.lengths[0] for a in alone]) - [a.lengths[0] for a in alone]
            firsts = np.cumsum([a.steps[0] for a in alone]) - [a.steps[0] for a in alone]
            for name in ("ids", "lengths", "word_rows", "steps"):
                np.testing.assert_array_equal(getattr(batch, name),
                                              np.concatenate([getattr(a, name) for a in alone]))
            np.testing.assert_array_equal(
                batch.heads, np.concatenate([a.heads + s for a, s in zip(alone, starts)]))
            np.testing.assert_array_equal(batch.word_rows[firsts], SPECIAL_TOKENS.index(SOS))
            if examples is corpus:
                assert batch.targets is batch.copied is batch.aligned is batch.clue is None
                continue
            for name in ("targets", "copied", "clue"):
                np.testing.assert_array_equal(getattr(batch, name),
                                              np.concatenate([getattr(a, name) for a in alone]))
            np.testing.assert_array_equal(
                batch.aligned[0], np.concatenate([a.aligned[0] + f for a, f in zip(alone, firsts)]))
            np.testing.assert_array_equal(batch.aligned[1],
                                          np.concatenate([a.aligned[1] for a in alone]))
            assert batch.aligned[0].size > 0

    def test_one_passage(self, setup):
        """A chain's heads, its lengths and steps, and its token ids by slot."""
        ex, cfg, vocab, embedder, _ = setup
        batch = embedder.collate([ex])
        n = len(ex.passage)
        np.testing.assert_array_equal(batch.heads, [0] + list(range(n - 1)))
        assert batch.lengths.tolist() == [n] and batch.steps.tolist() == [len(ex.question) + 1]
        assert batch.ids.shape == (n, 9)
        assert batch.ids[0, 0] == vocab.id_of("common")
        assert batch.ids[15, 0] == SPECIAL_TOKENS.index(LOWFREQ)   # tier L
        np.testing.assert_array_equal(batch.ids[:, 7], [1] + [0] * (n - 1))   # answer B, then O
        np.testing.assert_array_equal(batch.ids[:, 8], [0] * 12 + [1] * 3 + [2] * 5)   # H, M, L


class TestTags:
    def test_unseen_tag_maps_to_unk_row(self, setup):
        ex, cfg, _, embedder, params = setup
        stranger = chain_example(["common"], question=("q", "?"))
        stranger.passage[0].pos = "XKCD"
        out = embedder.embed_passage(embedder.collate([stranger])).data
        unk_row = params["embed.pos"].data[-1]
        pos_slot = slice(cfg.word_dim + cfg.feat_dim, cfg.word_dim + 2 * cfg.feat_dim)
        np.testing.assert_array_equal(out[0, pos_slot], unk_row)

    def test_decoder_word_rows(self, setup):
        _, cfg, vocab, embedder, _ = setup
        assert embedder.decoder_word_row_id("common") == vocab.id_of("common")
        assert embedder.decoder_word_row_id("rare5") == SPECIAL_TOKENS.index(LOWFREQ)
        assert embedder.decoder_word_row_id("neverseen") == SPECIAL_TOKENS.index(UNK)
