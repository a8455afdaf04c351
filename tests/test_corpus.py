import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgen.config import ConfigError
from qgen.corpus import (
    EOS,
    SOS,
    SPECIAL_TOKENS,
    UNK,
    IngestError,
    ReducedTargetVocab,
    build_reduced_target_vocab,
    build_vocabulary,
    load_corpus,
    load_word_vectors,
    stopword_set,
    tier_of,
    write_corpus,
)

from conftest import chain_example

STOPWORD_COUNT = 157
STOPWORD_SHA256 = "44bfe1daee8cc4d50aea4d87962141b870a322a50ff018ff026c7f7b4d7e815e"


def _record(ex_id="e1", n=3, answer=(0, 1), question=("what", "?"), heads=None):
    heads = heads if heads is not None else [0] + list(range(n - 1))
    tokens = [
        {"text": f"w{i}", "pos": "NOUN", "ner": "", "dep": "dep" if h != i else "ROOT",
         "head": h, "is_lower": True, "is_digit": False, "like_num": False}
        for i, h in enumerate(heads)
    ]
    return {"id": ex_id, "passage_tokens": tokens, "answer_span": list(answer),
            "question_tokens": list(question)}


def _write(tmp_path, records, name="data.jsonl"):
    path = tmp_path / name
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps(r) + "\n")
    return path


class TestLoadCorpus:
    def test_valid_file_preserves_order(self, tmp_path):
        path = _write(tmp_path, [_record(f"e{i}") for i in range(3)])
        corpus = load_corpus(path)
        assert [ex.id for ex in corpus] == ["e0", "e1", "e2"]

    def test_span_out_of_range_names_id(self, tmp_path):
        path = _write(tmp_path, [_record("bad", n=3, answer=(1, 3))])
        with pytest.raises(IngestError, match=r"bad.*out of range"):
            load_corpus(path)

    def test_head_cycle_rejected(self, tmp_path):
        path = _write(tmp_path, [_record("cyc", n=2, heads=[1, 0], answer=(0, 0))])
        with pytest.raises(IngestError, match="root"):
            load_corpus(path)

    def test_cycle_away_from_root(self, tmp_path):
        path = _write(tmp_path, [_record("cyc2", n=3, heads=[0, 2, 1], answer=(0, 0))])
        with pytest.raises(IngestError, match="cycle"):
            load_corpus(path)

    def test_missing_field_with_line_number(self, tmp_path):
        rec = _record("m1")
        del rec["answer_span"]
        path = _write(tmp_path, [_record("ok"), rec])
        with pytest.raises(IngestError, match=r"line 2.*answer_span"):
            load_corpus(path)

    @pytest.mark.parametrize("span", [[False, True], [0, True], [0.0, 1], "0 1", [0]])
    def test_answer_span_of_non_integers_rejected(self, tmp_path, span):
        rec = _record("b1")
        rec["answer_span"] = span
        path = _write(tmp_path, [rec])
        with pytest.raises(IngestError, match=r"b1.*answer_span must be \[start, end\]"):
            load_corpus(path)

    @pytest.mark.parametrize("line", [
        "5", "null", "[]", json.dumps("id passage_tokens answer_span question_tokens")])
    def test_record_that_is_not_an_object_names_its_line(self, tmp_path, line):
        path = _write(tmp_path, [_record("e1")])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        with pytest.raises(IngestError, match=r"line 2 \(id=\?\): record is not a JSON object"):
            load_corpus(path)

    def test_repeated_id_names_both_lines(self, tmp_path):
        path = _write(tmp_path, [_record("e1"), _record("e2"), _record("e1", n=4)])
        with pytest.raises(IngestError, match=r"1 malformed.*\nline 3 \(id=e1\): repeats "
                                              r"the id of line 1$"):
            load_corpus(path)

    @pytest.mark.parametrize("special", SPECIAL_TOKENS)
    def test_special_token_as_passage_text_names_line_id_and_position(self, tmp_path,
                                                                      special):
        """A passage word spelled like a special token would share its
        column in the beam: a copied "<EOS>" would end the question."""
        odd = _record("odd")
        odd["passage_tokens"][1]["text"] = special
        path = _write(tmp_path, [_record("e0"), odd])
        for require_question in (True, False):
            with pytest.raises(IngestError, match=rf"1 malformed.*\nline 2 \(id=odd\): passage "
                                                  rf"token 1 text '{special}' is a special token$"):
                load_corpus(path, require_question)

    def test_all_errors_collected(self, tmp_path):
        path = _write(tmp_path, [_record("a", answer=(5, 6)), _record("ok"),
                                 _record("b", heads=[0, 2, 1], answer=(0, 0))])
        with pytest.raises(IngestError, match=r"2 malformed"):
            load_corpus(path)

    def test_question_optional_mode(self, tmp_path):
        rec = _record("noq")
        del rec["question_tokens"]
        path = _write(tmp_path, [rec])
        with pytest.raises(IngestError):
            load_corpus(path)
        corpus = load_corpus(path, require_question=False)
        assert corpus[0].question == []

    def test_ingestion_is_pure(self, tmp_path):
        path = _write(tmp_path, [_record(f"e{i}") for i in range(4)])
        assert load_corpus(path) == load_corpus(path)

    def test_write_read_roundtrip(self, tmp_path):
        corpus = [chain_example(["Ada", "wrote", "code"], question=("who", "wrote", "code", "?"))]
        path = tmp_path / "out.jsonl"
        write_corpus(corpus, path)
        assert load_corpus(path) == corpus


class TestVocabulary:
    def test_frequency_ranking(self):
        corpus = [chain_example(["the"] * 10 + ["cat"] * 3, question=("x", "?"))]
        vocab = build_vocabulary(corpus)
        assert vocab.rank_of("the") == 1
        assert vocab.rank_of("cat") == 2

    def test_tie_broken_by_first_occurrence(self):
        corpus = [chain_example(["z", "a", "b", "a", "b"], question=("q", "?"))]
        vocab = build_vocabulary(corpus)
        assert vocab.rank_of("a") < vocab.rank_of("b")

    def test_tie_order_is_first_occurrence_not_string_order(self):
        # the passage before its question, and a cut inside a tie
        corpus = [chain_example(["zeta", "mu", "alpha", "zeta", "alpha", "mu"],
                                question=("beta", "?")),
                  chain_example(["beta", "omega"], question=("omega", "?"))]
        assert build_vocabulary(corpus).words[:3] == ["zeta", "mu", "alpha"]
        assert build_vocabulary(corpus, max_size=5).words == ["zeta", "mu", "alpha", "beta", "?"]

    def test_truncation_to_max_size(self):
        corpus = [chain_example(["the", "the", "cat"], question=("dog", "?"))]
        vocab = build_vocabulary(corpus, max_size=1)
        assert vocab.words == ["the"]
        assert vocab.id_of("cat") == SPECIAL_TOKENS.index(UNK)

    def test_counts_pool_passage_and_question(self):
        corpus = [chain_example(["cat"], question=("cat", "cat", "?"))]
        vocab = build_vocabulary(corpus)
        assert vocab.rank_of("cat") == 1  # 3 occurrences beats '?'

    def test_counting_lowercases(self):
        corpus = [chain_example(["The", "the", "Cat"], question=("x", "?"))]
        vocab = build_vocabulary(corpus)
        assert vocab.rank_of("the") == 1
        assert "The" in vocab

    def test_empty_corpus(self):
        with pytest.raises(IngestError, match="empty"):
            build_vocabulary([])

    def test_ranks_are_bijection(self):
        corpus = [chain_example([f"w{i}" for i in range(30)], question=("q", "?"))]
        vocab = build_vocabulary(corpus)
        ranks = sorted(vocab.rank_of(w) for w in vocab.words)
        assert ranks == list(range(1, len(vocab) + 1))


class TestTiers:
    @pytest.fixture
    def big_vocab(self):
        # equal counts, so rank follows first occurrence: words[i] has rank i+1
        words = [f"w{i}" for i in range(3500)]
        return build_vocabulary([chain_example(words, question=("q", "?"))], max_size=4000)

    def test_defaults_from_settings(self, big_vocab):
        assert tier_of(big_vocab.words[49], big_vocab) == "H"     # rank 50
        assert tier_of(big_vocab.words[499], big_vocab) == "M"    # rank 500
        assert tier_of(big_vocab.words[2999], big_vocab) == "L"   # rank 3000

    def test_oov_is_low(self, big_vocab):
        assert tier_of("zzz-never-seen", big_vocab) == "L"

    def test_invalid_thresholds(self, big_vocab):
        with pytest.raises(ConfigError):
            tier_of("w0", big_vocab, r_h=10, r_l=10)

    @given(st.text(min_size=0, max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_total_over_all_strings(self, word):
        corpus = [chain_example(["a", "b", "c"], question=("d", "?"))]
        vocab = build_vocabulary(corpus)
        assert tier_of(word, vocab, r_h=1, r_l=2) in ("H", "M", "L")


class TestReducedTargetVocab:
    def test_all_copied_gives_specials_only(self):
        reduced = build_reduced_target_vocab([(["a", "b"], [True, True])], n=5)
        assert reduced.words == []
        assert len(reduced) == 3

    def test_n_larger_than_distinct(self):
        reduced = build_reduced_target_vocab([(["a", "b", "a"], [False, False, False])], n=100)
        assert set(reduced.words) == {"a", "b"}

    def test_top_n_by_generated_count(self):
        questions = [(["what"] * 5 + ["is"] * 3 + ["rare"], [False] * 9)]
        reduced = build_reduced_target_vocab(questions, n=2)
        assert reduced.words == ["what", "is"]
        assert reduced.id_of("rare") == ReducedTargetVocab.UNK_ID

    def test_tie_order_is_first_generated_occurrence(self):
        # "a" occurs first but copied, so "b" is counted first
        questions = [(["zz", "a", "b"], [False, True, False]), (["a", "yy"], [False, False])]
        reduced = build_reduced_target_vocab(questions, n=3)
        assert reduced.words == ["zz", "b", "a"]

    def test_copied_tokens_not_counted(self):
        questions = [(["bridge"] * 9 + ["who"], [True] * 9 + [False])]
        reduced = build_reduced_target_vocab(questions, n=5)
        assert reduced.words == ["who"]

    def test_special_ids_and_token_of(self):
        reduced = ReducedTargetVocab(words=["who"])
        assert reduced.token_of(reduced.UNK_ID) == UNK
        assert reduced.token_of(reduced.EOS_ID) == EOS
        assert reduced.token_of(reduced.SOS_ID) == SOS
        assert reduced.token_of(reduced.id_of("who")) == "who"

    def test_order_invariance_up_to_tiebreak(self):
        questions = [(["b"] * 2 + ["a"] * 3, [False] * 5), (["c"], [False])]
        r1 = build_reduced_target_vocab(questions, n=10)
        r2 = build_reduced_target_vocab(list(questions), n=10)
        assert r1.words == r2.words


class TestStopwords:
    def test_membership(self):
        s = stopword_set()
        assert "the" in s
        assert "democracy" not in s

    def test_pinned_size_and_digest(self):
        assert len(stopword_set()) == STOPWORD_COUNT
        payload = "\n".join(sorted(stopword_set())).encode("utf-8")
        assert hashlib.sha256(payload).hexdigest() == STOPWORD_SHA256


class TestWordVectors:
    def test_exact_row(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("the 0.25 -1.5 3.0\ncat 1.0 2.0 3.0\n")
        table = load_word_vectors(path, 3)
        assert list(table["the"]) == [0.25, -1.5, 3.0]

    def test_dimension_mismatch(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("the 1.0 2.0\n")
        with pytest.raises(ConfigError, match="expected 3"):
            load_word_vectors(path, 3)
