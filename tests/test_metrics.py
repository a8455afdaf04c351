import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgen.metrics import (
    MetricError,
    bleu_stats,
    corpus_bleu,
    evaluate_pairs,
    meteor,
    rouge_l,
)


def _lcs_oracle(a, b):
    """Plain recursive-definition LCS for cross-checking."""
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[-1][-1]


class TestBleu:
    def test_identical_corpora_score_100(self):
        pairs = [("the cat sat on the mat".split(),) * 2,
                 ("a long sentence with many words here".split(),) * 2]
        for n in range(1, 5):
            assert corpus_bleu(pairs, n) == pytest.approx(100.0)

    def test_clipping_fixture(self):
        # clipped unigram count 1 of 4; c=4 > r=2 so no brevity penalty
        pairs = [("the the the the".split(), "the cat".split())]
        assert corpus_bleu(pairs, 1) == pytest.approx(25.0)

    def test_brevity_penalty_strictly_below_one(self):
        pairs = [("the cat".split(), "the cat sat on a mat".split())]
        matched, total, c, r = bleu_stats(pairs, 1)
        assert c < r
        # precision is 1, so the score is exactly the brevity penalty
        assert corpus_bleu(pairs, 1) == pytest.approx(100.0 * math.exp(1 - r / c))
        assert corpus_bleu(pairs, 1) < 100.0

    def test_zero_overlap_scores_zero_without_smoothing(self):
        pairs = [("aa bb cc dd".split(), "ee ff gg hh".split())]
        for n in range(1, 5):
            assert corpus_bleu(pairs, n) == 0.0

    def test_missing_higher_order_scores_zero(self):
        pairs = [("the cat".split(), "the dog".split())]
        assert corpus_bleu(pairs, 1) > 0
        assert corpus_bleu(pairs, 2) == 0.0

    def test_adding_correct_fourgram_never_lowers_counts(self):
        base = [("the cat sat down".split(), "the cat sat down early today".split())]
        extended = [(base[0][0] + "sat down early today".split(), base[0][1])]
        m0, _, _, _ = bleu_stats(base, 4)
        m1, _, _, _ = bleu_stats(extended, 4)
        assert m1[3] >= m0[3]

    def test_empty_corpus(self):
        with pytest.raises(MetricError):
            corpus_bleu([], 4)

    def test_lowercasing(self):
        pairs = [("The Cat".split(), "the cat".split())]
        assert corpus_bleu(pairs, 1) == pytest.approx(100.0)


class TestRougeL:
    def test_identical_pair_scores_100(self):
        pairs = [("what is the capital ?".split(),) * 2]
        assert rouge_l(pairs) == pytest.approx(100.0)

    def test_lcs_fixture_matches_formula_oracle(self):
        pred, ref = "a b c d".split(), "a c d".split()
        lcs = _lcs_oracle(pred, ref)
        assert lcs == 3
        r, p, b2 = lcs / len(ref), lcs / len(pred), 1.2 ** 2
        expected = 100.0 * (1 + b2) * r * p / (r + b2 * p)
        assert expected == pytest.approx(87.98076923076923)
        assert rouge_l([(pred, ref)]) == pytest.approx(expected, abs=1e-9)

    def test_disjoint_pair_scores_zero(self):
        assert rouge_l([("a b".split(), "c d".split())]) == 0.0

    def test_mean_over_pairs(self):
        full = [("x y".split(),) * 2]
        none = [("a b".split(), "c d".split())]
        assert rouge_l(full + none) == pytest.approx(50.0)

    def test_empty_corpus(self):
        with pytest.raises(MetricError, match="rouge_l on empty corpus"):
            rouge_l([])


class TestMeteor:
    def test_identical_pair_closed_form(self):
        for k in (1, 2, 3, 6):
            pair = [([f"w{i}" for i in range(k)],) * 2]
            assert meteor(pair) == pytest.approx(100.0 * (1 - 0.5 / k ** 3))

    def test_disjoint_pair_scores_zero(self):
        assert meteor([("a b".split(), "c d".split())]) == 0.0

    def test_chunk_fixture(self):
        pred, ref = "the cat sat".split(), "the cat sat down".split()
        # m=3, P=1, R=0.75, F=10PR/(R+9P), one chunk
        f = 10 * 1.0 * 0.75 / (0.75 + 9 * 1.0)
        expected = 100.0 * f * (1 - 0.5 * (1 / 3) ** 3)
        assert expected == pytest.approx(75.4985754985755)
        assert meteor([(pred, ref)]) == pytest.approx(expected, abs=1e-9)

    def test_crossing_matches_counted_with_two_chunks(self):
        pred, ref = "b a".split(), "a b".split()
        # both tokens match one-to-one but in two chunks
        f = 10 * 1.0 * 1.0 / (1.0 + 9 * 1.0)
        expected = 100.0 * f * (1 - 0.5 * (2 / 2) ** 3)
        assert meteor([(pred, ref)]) == pytest.approx(expected, abs=1e-9)

    def test_duplicates_match_by_multiset(self):
        pred, ref = "a a b".split(), "a b a".split()
        score = meteor([(pred, ref)])
        assert score > 0

    def test_empty_corpus(self):
        with pytest.raises(MetricError, match="meteor on empty corpus"):
            meteor([])


class TestReportAndProperties:
    def test_report_fields(self):
        pairs = [("what is it ?".split(),) * 2]
        report = evaluate_pairs(pairs)
        assert report.pairs == 1
        assert report.bleu1 == pytest.approx(100.0)
        assert report.rougeL == pytest.approx(100.0)
        d = report.to_dict()
        assert set(d) == {"bleu1", "bleu2", "bleu3", "bleu4", "rougeL", "meteor", "pairs"}
        assert "BLEU-4" in report.table()

    @given(st.permutations(list(range(4))))
    @settings(max_examples=20, deadline=None)
    def test_permutation_invariance(self, order):
        pairs = [
            ("the cat sat".split(), "the cat sat down".split()),
            ("a b c".split(), "a c".split()),
            ("hello world".split(), "hello world".split()),
            ("x y z w".split(), "y z".split()),
        ]
        shuffled = [pairs[i] for i in order]
        assert corpus_bleu(shuffled, 4) == pytest.approx(corpus_bleu(pairs, 4))
        assert rouge_l(shuffled) == pytest.approx(rouge_l(pairs))
        assert meteor(shuffled) == pytest.approx(meteor(pairs))

    def test_scores_bounded(self):
        pairs = [("a b c d e".split(), "a b x y z".split()),
                 ("q r".split(), "q r s t".split())]
        report = evaluate_pairs(pairs)
        for value in (report.bleu1, report.bleu2, report.bleu3, report.bleu4,
                      report.rougeL, report.meteor):
            assert 0.0 <= value <= 100.0
