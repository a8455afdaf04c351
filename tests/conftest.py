import numpy as np
import pytest
from hypothesis import strategies as st

from qgen.autodiff import Tensor
from qgen.config import ModelConfig
from qgen.corpus import AnnotatedExample, AnnotatedToken


def tok(text, pos="NOUN", ner="", dep="dep", head=0):
    return AnnotatedToken(
        text=text, pos=pos, ner=ner, dep=dep, head=head,
        is_lower=text.islower(), is_digit=text.isdigit(), like_num=text.isdigit(),
    )


def chain_example(texts, answer_span=(0, 0), question=("what", "?")):
    """Passage whose parse is a left-rooted chain: head(i) = i - 1."""
    passage = [tok(t, head=max(i - 1, 0)) for i, t in enumerate(texts)]
    passage[0].dep = "ROOT"
    return AnnotatedExample(id="chain", passage=passage, answer_span=answer_span,
                            question=list(question))


@st.composite
def dependency_trees(draw, max_tokens=8):
    """A passage of 1 to `max_tokens` tokens whose heads form a random rooted
    tree: the tokens in a random order, each after the first headed by an
    earlier one."""
    n = draw(st.integers(1, max_tokens))
    order = draw(st.permutations(range(n)))
    ex = chain_example([f"t{i}" for i in range(n)])
    for k, i in enumerate(order):
        ex.passage[i].head = order[draw(st.integers(0, k - 1))] if k else i
    return ex


@pytest.fixture
def fig1_example():
    """The running worked example: a passage about a speech, and a question
    that copies 'speech', 'White', 'House' from it."""
    words = ["Today", ",", "Barack", "Obama", "gives", "a", "speech", "on",
             "democracy", "in", "the", "White", "House"]
    pos = ["NOUN", "PUNCT", "PROPN", "PROPN", "VERB", "DET", "NOUN", "ADP",
           "NOUN", "ADP", "DET", "PROPN", "PROPN"]
    ner = ["DATE", "", "PERSON", "PERSON", "", "", "", "", "", "", "", "FAC", "FAC"]
    dep = ["npadvmod", "punct", "compound", "nsubj", "ROOT", "det", "dobj", "prep",
           "pobj", "prep", "det", "compound", "pobj"]
    head = [4, 4, 3, 4, 4, 6, 4, 6, 7, 4, 12, 12, 9]
    passage = [
        AnnotatedToken(text=w, pos=p, ner=e, dep=d, head=h,
                       is_lower=w.islower(), is_digit=False, like_num=False)
        for w, p, e, d, h in zip(words, pos, ner, dep, head)
    ]
    question = ["The", "speech", "in", "the", "White", "House", "is", "given",
                "by", "whom", "?"]
    return AnnotatedExample(id="fig1", passage=passage, answer_span=(2, 3),
                            question=question)


def micro_corpus():
    """Two 5-token examples; about a dozen distinct words."""
    ex1 = AnnotatedExample(id="g1", passage=[
        tok("Ana", "PROPN", "PERSON", "nsubj", 1), tok("opened", "VERB", "", "ROOT", 1),
        tok("a", "DET", "", "det", 3), tok("shop", "NOUN", "", "dobj", 1),
        tok(".", "PUNCT", "", "punct", 1)],
        answer_span=(0, 0), question=["who", "opened", "the", "shop", "?"])
    ex2 = AnnotatedExample(id="g2", passage=[
        tok("Leo", "PROPN", "PERSON", "nsubj", 1), tok("sold", "VERB", "", "ROOT", 1),
        tok("a", "DET", "", "det", 3), tok("boat", "NOUN", "", "dobj", 1),
        tok(".", "PUNCT", "", "punct", 1)],
        answer_span=(3, 3), question=["what", "did", "Leo", "sold", "?"])
    return [ex1, ex2]


def gold_clue_noise(batch, margin=10.0):
    """(N, 2) Gumbel noise over the N passage tokens of a labeled batch that
    puts each sampled clue indicator on its gold label: +margin on the gold
    column and -margin on the other, far beyond the spread of a small model's
    clue logits."""
    gold = np.concatenate([np.asarray(ex.passage_clue_label, dtype=int) for ex in batch])
    return np.where(np.eye(2, dtype=bool)[gold], margin, -margin)


def tiny_config(**overrides):
    base = dict(r_h=2, r_l=5, vocab_max=12, word_dim=6, tier_dim=2, feat_dim=2,
                enc_hidden=8, dec_hidden=8, attn_dim=8, gcn_layers=2, gcn_hidden=8,
                dropout=0.0, seed=11)
    base.update(overrides)
    return ModelConfig(**base).validate()


def toy_config(**overrides):
    """Desk-scale config used by the overfit and CLI tests."""
    base = dict(r_h=8, r_l=60, word_dim=48, tier_dim=8, feat_dim=8,
                enc_hidden=64, dec_hidden=64, attn_dim=48, gcn_layers=2,
                gcn_hidden=32, dropout=0.0, lr=0.003, batch=8, epochs=300,
                ema=0.9, seed=3)
    base.update(overrides)
    return ModelConfig(**base).validate()


def finite_difference(f, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of an array."""
    x = x.astype(np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(x)
        flat[i] = orig - eps
        lo = f(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * eps)
    return g


def assert_grads_match(make_loss, arrays, eps=1e-5, tol=1e-4, floor=1e-6):
    """Analytic gradients vs central finite differences for every input.

    `make_loss(*tensors) -> scalar Tensor` must be a pure function of its
    inputs.  Relative error uses max(|analytic|, |numeric|, floor) as the
    denominator so near-zero gradients compare at finite-difference accuracy.
    """
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    loss = make_loss(*tensors)
    loss.backward()
    for k, (t, a) in enumerate(zip(tensors, arrays)):
        def f(x):
            fresh = [Tensor(arr) for arr in arrays]
            fresh[k] = Tensor(x)
            return make_loss(*fresh).item()

        numeric = finite_difference(f, np.asarray(a, dtype=np.float64), eps)
        analytic = t.grad if t.grad is not None else np.zeros_like(numeric)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
        rel = np.abs(analytic - numeric) / denom
        assert rel.max() < tol, f"input {k}: worst rel err {rel.max():.3e}"
