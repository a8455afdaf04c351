import numpy as np
import pytest

from qgen.autodiff import ParamStore, Tensor, sum_
from qgen.config import ConfigError, rng_stream
from qgen.corpus import LOWFREQ, SPECIAL_TOKENS, UNK, build_vocabulary
from qgen.features import (
    FeatureEmbedder,
    FeatureVocab,
    build_feature_tables,
    clue_input_width,
    encoder_input_width,
)

from conftest import chain_example, tiny_config


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
        out = embedder.append_clue_slot(embedder.embed_passage([ex]),
                                        Tensor(np.eye(2)[np.zeros(len(ex.passage), dtype=int)]))
        assert out.shape == (len(ex.passage), encoder_input_width(cfg))
        assert encoder_input_width(cfg) == cfg.word_dim + 8 * cfg.feat_dim + cfg.tier_dim

    def test_clue_variant_omits_clue_slot(self, setup):
        ex, cfg, _, embedder, _ = setup
        out = embedder.embed_passage([ex])
        assert out.shape == (len(ex.passage), clue_input_width(cfg))
        assert encoder_input_width(cfg) - clue_input_width(cfg) == cfg.feat_dim


class TestMasking:
    def test_low_freq_tokens_share_word_slot(self, setup):
        ex, cfg, vocab, embedder, params = setup
        out = embedder.embed_passage([ex]).data
        # rare3/rare4 rank beyond r_l=4 -> tier L -> shared <l> word row
        i, j = 15, 16
        assert vocab.rank_of(ex.passage[i].text) > cfg.r_l
        assert ex.passage[i].text != ex.passage[j].text
        low_row = params["embed.word"].data[SPECIAL_TOKENS.index(LOWFREQ)]
        np.testing.assert_array_equal(out[i, :cfg.word_dim], low_row)
        np.testing.assert_array_equal(out[i, :cfg.word_dim], out[j, :cfg.word_dim])

    def test_high_freq_token_uses_own_row(self, setup):
        ex, cfg, vocab, embedder, params = setup
        out = embedder.embed_passage([ex]).data
        row = params["embed.word"].data[vocab.id_of("common")]
        np.testing.assert_array_equal(out[0, :cfg.word_dim], row)

    def test_mask_reduces_distinct_gradient_rows(self, setup):
        ex, cfg, vocab, embedder, params = setup
        sum_(embedder.embed_passage([ex])).backward()
        touched = {int(i) for i in np.nonzero(np.abs(params["embed.word"].grad).sum(axis=1))[0]}
        non_low = {vocab.id_of(t.text) for t in ex.passage
                   if vocab.rank_of(t.text) is not None and vocab.rank_of(t.text) <= cfg.r_l}
        assert touched == non_low | {SPECIAL_TOKENS.index(LOWFREQ)}

    def test_clue_toggle_changes_only_last_slot(self, setup):
        ex, cfg, _, embedder, _ = setup
        n = len(ex.passage)
        shared = embedder.embed_passage([ex])
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
        stacked = np.concatenate([embedder.embed_passage([e]).data for e in batch])
        np.testing.assert_array_equal(embedder.embed_passage(batch).data, stacked)


class TestTags:
    def test_unseen_tag_maps_to_unk_row(self, setup):
        ex, cfg, _, embedder, params = setup
        stranger = chain_example(["common"], question=("q", "?"))
        stranger.passage[0].pos = "XKCD"
        out = embedder.embed_passage([stranger]).data
        unk_row = params["embed.pos"].data[-1]
        pos_slot = slice(cfg.word_dim + cfg.feat_dim, cfg.word_dim + 2 * cfg.feat_dim)
        np.testing.assert_array_equal(out[0, pos_slot], unk_row)

    def test_decoder_word_rows(self, setup):
        _, cfg, vocab, embedder, _ = setup
        assert embedder.decoder_word_row_id("common") == vocab.id_of("common")
        assert embedder.decoder_word_row_id("rare5") == SPECIAL_TOKENS.index(LOWFREQ)
        assert embedder.decoder_word_row_id("neverseen") == SPECIAL_TOKENS.index(UNK)
