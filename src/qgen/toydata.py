"""Deterministic synthetic corpus: templated subject-verb-object passages
with valid dependency trees, answer spans, and questions that mix copied
content words with generated function words."""

from __future__ import annotations

from .config import ConfigError, rng_stream
from .corpus import AnnotatedExample, AnnotatedToken

_NAMES = ["Alice", "Bob", "Carol", "David", "Erin", "Frank", "Grace", "Henry",
          "Irene", "Jack", "Karen", "Liam", "Maria", "Noah", "Olivia", "Peter",
          "Quinn", "Rosa", "Sam", "Tina"]
_VERBS = ["visited", "painted", "built", "repaired", "opened", "closed",
          "bought", "sold", "studied", "explored"]
_OBJECTS = ["museum", "bridge", "garden", "library", "castle", "factory",
            "harbor", "temple", "station", "market"]
_CITIES = ["Paris", "London", "Tokyo", "Berlin", "Madrid", "Rome", "Vienna",
           "Oslo", "Cairo", "Dublin"]
_DAYS = ["Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday", "Sunday"]
_YEARS = [str(1990 + i) for i in range(20)]


def _tok(text: str, pos: str, ner: str, dep: str, head: int) -> AnnotatedToken:
    return AnnotatedToken(
        text=text, pos=pos, ner=ner, dep=dep, head=head,
        is_lower=text.islower(), is_digit=text.isdigit(), like_num=text.isdigit(),
    )


def _passage(name: str, verb: str, obj: str, city: str, when: str, when_is_year: bool):
    ner_when = "DATE"
    pos_when = "NUM" if when_is_year else "PROPN"
    return [
        _tok(name, "PROPN", "PERSON", "nsubj", 1),
        _tok(verb, "VERB", "", "ROOT", 1),
        _tok("the", "DET", "", "det", 3),
        _tok(obj, "NOUN", "", "dobj", 1),
        _tok("in", "ADP", "", "prep", 1),
        _tok(city, "PROPN", "GPE", "pobj", 4),
        _tok("on", "ADP", "", "prep", 1),
        _tok(when, pos_when, ner_when, "pobj", 6),
        _tok(".", "PUNCT", "", "punct", 1),
    ]


def make_toy_data(n: int, seed: int) -> list[AnnotatedExample]:
    """n schema-valid examples; identical (n, seed) yields identical output.

    Content-word combinations are drawn uniformly and deduplicated, so
    passages are pairwise distinct (n is capped by the number of possible
    combinations).
    """
    if n < 1:
        raise ConfigError(f"need n >= 1 toy examples, got {n}")
    capacity = len(_NAMES) * len(_VERBS) * len(_OBJECTS) * len(_CITIES)
    if n > capacity:
        raise ConfigError(f"at most {capacity} distinct toy examples, requested {n}")
    rng = rng_stream(seed, "toy")

    examples = []
    seen = set()
    for i in range(n):
        while True:
            combo = (int(rng.integers(0, len(_NAMES))), int(rng.integers(0, len(_VERBS))),
                     int(rng.integers(0, len(_OBJECTS))), int(rng.integers(0, len(_CITIES))))
            if combo not in seen:
                seen.add(combo)
                break
        name, verb = _NAMES[combo[0]], _VERBS[combo[1]]
        obj, city = _OBJECTS[combo[2]], _CITIES[combo[3]]
        when_is_year = bool(rng.integers(0, 4) == 0)
        when = _YEARS[int(rng.integers(0, len(_YEARS)))] if when_is_year \
            else _DAYS[int(rng.integers(0, len(_DAYS)))]
        family = int(rng.integers(0, 3))

        passage = _passage(name, verb, obj, city, when, when_is_year)
        if family == 0:
            question = ["who", verb, "the", obj, "in", city, "?"]
            span = (0, 0)
        elif family == 1:
            question = ["where", "did", name, verb, "the", obj, "?"]
            span = (5, 5)
        else:
            question = ["when", "did", name, verb, "the", obj, "?"]
            span = (7, 7)
        examples.append(AnnotatedExample(
            id=f"toy-{i:04d}", passage=passage, answer_span=span, question=question,
        ))
    return examples
