"""Seeded paper-shape corpus: Zipf word draws over a fixed synthetic word
list, random single-rooted dependency trees, answer spans, and questions
that copy a span of passage words.

Everything is a pure function of (n, seed), so two runs with the same
arguments build the same corpus.
"""

from __future__ import annotations

import numpy as np

from qgen.corpus import AnnotatedExample, AnnotatedToken, stopword_set

PASSAGE_LEN = 30
QUESTION_LEN = 12
WORD_LIST_SIZE = 20000
ZIPF_EXPONENT = 1.05

_SYLLABLES = ["ka", "lo", "mi", "ne", "ru", "sa", "ti", "vo", "ze", "pa",
              "do", "fi", "gu", "ha", "je", "ba", "co", "ly", "ow", "qu"]
_POS = ["NOUN", "VERB", "ADJ", "ADV", "PROPN", "DET", "ADP", "NUM", "PRON", "AUX"]
_NER = ["", "", "", "", "", "PERSON", "GPE", "ORG", "DATE", "CARDINAL"]
_DEP = ["nsubj", "dobj", "amod", "advmod", "prep", "pobj", "det", "compound",
        "conj", "aux", "nmod", "acl"]
_WH = ["what", "who", "where", "when", "which", "how", "why"]


def _word_list() -> list[str]:
    """Fixed vocabulary: function words first (most frequent under Zipf),
    then synthetic words; every 9th is capitalized and every 97th numeric,
    so the boolean token features vary."""
    words = sorted(w for w in stopword_set() if w.isalpha())
    for i in range(WORD_LIST_SIZE - len(words)):
        # four base-20 syllable digits: distinct for every i < 20**4
        w = "".join(_SYLLABLES[(i // 20 ** k) % 20] for k in range(4))
        if i % 97 == 0:
            w = str(1000 + i)
        elif i % 9 == 0:
            w = w.capitalize()
        words.append(w)
    return words


WORDS = _word_list()
_ZIPF_P = 1.0 / np.arange(1, len(WORDS) + 1) ** ZIPF_EXPONENT
_ZIPF_P /= _ZIPF_P.sum()


def _token(text: str, rng: np.random.Generator, head: int, dep: str) -> AnnotatedToken:
    return AnnotatedToken(
        text=text,
        pos=_POS[int(rng.integers(len(_POS)))],
        ner=_NER[int(rng.integers(len(_NER)))],
        dep=dep,
        head=head,
        is_lower=text.islower(), is_digit=text.isdigit(), like_num=text.isdigit(),
    )


def random_tree(n: int, rng: np.random.Generator) -> list[int]:
    """Heads of a uniformly rooted random tree: each token in a random order
    attaches to one placed before it, so there is one root and no cycle."""
    order = rng.permutation(n)
    heads = [0] * n
    heads[order[0]] = int(order[0])
    for k in range(1, n):
        heads[order[k]] = int(order[int(rng.integers(k))])
    return heads


_SPLITS = {"train": 0, "heldout": 1}


def make_paper_corpus(n: int, seed: int, split: str = "train") -> list[AnnotatedExample]:
    """n examples of 30-token passages and 12-token questions.

    Each question is a wh-word, Zipf-drawn words, a copied span of 2-4
    consecutive passage words, and a final '?'.  The 'heldout' split draws
    from its own stream and leaves questions empty, as generation inputs do.
    """
    rng = np.random.default_rng([int(seed), 0x9a9e5, _SPLITS[split]])
    with_questions = split == "train"
    examples = []
    # one draw for all words: per-call choice() rebuilds the Zipf table
    draws = iter(rng.choice(len(WORDS), size=(n, PASSAGE_LEN + QUESTION_LEN), p=_ZIPF_P))
    for i in range(n):
        row = next(draws)
        word_ids = row[:PASSAGE_LEN]
        heads = random_tree(PASSAGE_LEN, rng)
        passage = [
            _token(WORDS[w], rng, h, "ROOT" if h == j else _DEP[int(rng.integers(len(_DEP)))])
            for j, (w, h) in enumerate(zip(word_ids, heads))
        ]
        start = int(rng.integers(PASSAGE_LEN - 3))
        span = (start, start + int(rng.integers(3)))
        question: list[str] = []
        if with_questions:
            copy_len = int(rng.integers(2, 5))
            copy_at = int(rng.integers(PASSAGE_LEN - copy_len + 1))
            copied = [t.text for t in passage[copy_at:copy_at + copy_len]]
            n_gen = QUESTION_LEN - 2 - copy_len
            generated = [WORDS[w] for w in row[PASSAGE_LEN:PASSAGE_LEN + n_gen]]
            cut = int(rng.integers(n_gen + 1))
            question = ([_WH[int(rng.integers(len(_WH)))]] + generated[:cut] + copied
                        + generated[cut:] + ["?"])
        examples.append(AnnotatedExample(
            id=f"{split}-{i:05d}", passage=passage, answer_span=span, question=question,
        ))
    return examples
