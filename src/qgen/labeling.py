"""Multi-task supervision labels derived from each passage/question pair.

Two distinct label sets share the overlap test but differ on the frequency
criterion:

* copy labels (question side) require the token to appear in the passage,
  not be a stopword, AND sit outside the top-r_h frequency ranks; rare
  overlaps are what the copy gate is trained to copy;
* clue labels (passage side) use non-stopword overlap only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .corpus import (
    AnnotatedExample,
    ReducedTargetVocab,
    Vocabulary,
    build_reduced_target_vocab,
    normalize,
)

BIO_BEGIN, BIO_INSIDE, BIO_OUTSIDE = "B", "I", "O"


@dataclass
class LabeledExample:
    base: AnnotatedExample
    question_copy_label: list[bool]
    question_target_id: list[int]          # reduced-vocab ids, <EOS> appended
    copy_alignment: list[list[int]]        # matching passage positions per question token
    passage_clue_label: list[bool]


def label_copy_words(
    example: AnnotatedExample,
    vocab: Vocabulary,
    stopwords: frozenset[str],
    r_h: int,
) -> tuple[list[bool], list[list[int]]]:
    """Copy label and passage alignment for every question token.

    A token is a copy target iff it occurs in the passage, is not a stopword,
    and its vocabulary rank is beyond r_h (rarer than the top-r_h words; OOV
    counts as beyond).  The alignment lists every passage position with the
    same normalized surface form, and is empty iff the label is false.
    """
    positions: dict[str, list[int]] = {}
    for i, tok in enumerate(example.passage):
        positions.setdefault(normalize(tok.text), []).append(i)
    labels, alignments = [], []
    for token in example.question:
        w = normalize(token)
        matched = positions.get(w, [])
        rank = vocab.rank_of(w)
        rare = rank is None or rank > r_h
        copied = bool(matched) and w not in stopwords and rare
        labels.append(copied)
        alignments.append(list(matched) if copied else [])
    return labels, alignments


def label_clue_words(example: AnnotatedExample, stopwords: frozenset[str]) -> list[bool]:
    """True for passage tokens that are non-stopwords occurring in the question."""
    question_words = {normalize(q) for q in example.question}
    return [
        normalize(tok.text) not in stopwords and normalize(tok.text) in question_words
        for tok in example.passage
    ]


def tag_answer_bio(example: AnnotatedExample) -> list[str]:
    start, end = example.answer_span
    tags = [BIO_OUTSIDE] * len(example.passage)
    tags[start] = BIO_BEGIN
    for i in range(start + 1, end + 1):
        tags[i] = BIO_INSIDE
    return tags


def map_question_targets(example: AnnotatedExample, reduced_vocab: ReducedTargetVocab) -> list[int]:
    """Reduced-vocabulary target id per question token, with <EOS> appended.

    Copied tokens also get an id (<UNK> when absent from the reduced vocab)
    so mixture-likelihood training has a generation-side target available.
    """
    ids = [reduced_vocab.id_of(token) for token in example.question]
    ids.append(ReducedTargetVocab.EOS_ID)
    return ids


def label_example(
    example: AnnotatedExample,
    vocab: Vocabulary,
    reduced_vocab: ReducedTargetVocab,
    stopwords: frozenset[str],
    r_h: int,
) -> LabeledExample:
    copy_labels, alignments = label_copy_words(example, vocab, stopwords, r_h)
    return _labeled(example, copy_labels, alignments, reduced_vocab, stopwords)


def _labeled(example: AnnotatedExample, copy_labels: list[bool], alignments: list[list[int]],
             reduced_vocab: ReducedTargetVocab, stopwords: frozenset[str]) -> LabeledExample:
    return LabeledExample(
        base=example,
        question_copy_label=copy_labels,
        question_target_id=map_question_targets(example, reduced_vocab),
        copy_alignment=alignments,
        passage_clue_label=label_clue_words(example, stopwords),
    )


def label_corpus(
    corpus: list[AnnotatedExample],
    vocab: Vocabulary,
    stopwords: frozenset[str],
    r_h: int,
    reduced_size: int,
) -> tuple[list[LabeledExample], ReducedTargetVocab]:
    """Label a whole corpus; the reduced vocabulary comes from a first pass
    over the copy labels (generated-word counts), then targets are mapped."""
    copies = [label_copy_words(ex, vocab, stopwords, r_h) for ex in corpus]
    reduced = build_reduced_target_vocab(
        ((ex.question, labels) for ex, (labels, _) in zip(corpus, copies)), n=reduced_size
    )
    labeled = [_labeled(ex, labels, alignments, reduced, stopwords)
               for ex, (labels, alignments) in zip(corpus, copies)]
    return labeled, reduced


def dump_labeled_corpus(labeled: list[LabeledExample], path) -> None:
    """JSON-lines dump of the labels for inspection and corpus statistics."""
    with open(path, "w", encoding="utf-8") as fh:
        for ex in labeled:
            obj = {
                "id": ex.base.id,
                "question_copy_label": ex.question_copy_label,
                "question_target_id": ex.question_target_id,
                "copy_alignment": ex.copy_alignment,
                "passage_clue_label": ex.passage_clue_label,
                "answer_bio": tag_answer_bio(ex.base),
            }
            fh.write(json.dumps(obj, sort_keys=True) + "\n")
