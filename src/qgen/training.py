"""Joint training: clue CE + generation CE + copy-gate CE, optimized with
Adam under elementwise gradient clipping, plus an exponential moving average
of all trainable parameters.

Per-step generation likelihood is branch-supervised: a copy-labeled step
scores g_c * sum of attention over every aligned source position, a
generated step scores (1 - g_c) * P_gen(target id).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore, Tensor
from .config import ModelConfig, rng_stream
from .corpus import AnnotatedExample, build_vocabulary, stopword_set
from .features import Batch, FeatureVocab
from .labeling import LabeledExample, label_corpus, label_example
from .model import QgModel

PROB_FLOOR = 1e-12
# Bytes of one slice of the optimizer's walks, whatever the precision: the six
# slices an Adam update touches take 1.5 MB and stay in a 2 MB L2 together.
SLICE_BYTES = 1 << 18


class TrainingError(RuntimeError):
    """Raised when training hits a non-finite loss."""


@dataclass
class LossBreakdown:
    """Each example's losses in a batch, as (B,) tensors."""

    loss_clue: Tensor
    loss_gen: Tensor
    loss_gate: Tensor
    total: Tensor

    def per_example(self) -> list[dict[str, float]]:
        names = ("loss_clue", "loss_gen", "loss_gate", "total")
        columns = [getattr(self, name).data.tolist() for name in names]
        return [dict(zip(names, row)) for row in zip(*columns)]


def _neg_log(p: Tensor) -> Tensor:
    return ad.neg(ad.log(ad.clamp_min(p, PROB_FLOOR)))


def _segment_means(terms: Tensor, lengths: np.ndarray) -> Tensor:
    """(B,) means of consecutive runs of `lengths` entries of a vector."""
    segments = np.repeat(np.eye(len(lengths)), lengths, axis=1)
    return ad.mul(ad.matmul(segments, terms), 1.0 / lengths)


def clue_loss(clue_probs: Tensor, batch: Batch) -> Tensor:
    """(B,) mean cross-entropies of each passage's per-token clue
    probabilities; `clue_probs` holds every passage's (n, 2) rows stacked."""
    return _segment_means(_neg_log(ad.take_along(clue_probs, batch.clue)), batch.lengths)


def sequence_losses(dist, batch: Batch) -> tuple[Tensor, Tensor]:
    """(B,) generation CEs and copy-gate CEs, each averaged over an example's
    decode steps.  `dist` holds every example's steps as rows, example after
    example; each example's last step predicts <EOS>."""
    copied = batch.copied
    aligned = np.zeros(dist.copy.shape)
    aligned[batch.aligned] = 1.0
    # the gate's probability of the labeled branch: g_c to copy, 1 - g_c to generate
    p_branch = ad.add(ad.mul(dist.gate, 2.0 * copied - 1.0), 1.0 - copied)
    p_copy = ad.sum_(ad.mul(dist.copy, aligned), axis=1)
    p_gen = ad.take_along(dist.gen, batch.targets)
    p_word = ad.mul(p_branch, ad.add(ad.mul(p_copy, copied), ad.mul(p_gen, 1.0 - copied)))
    return (_segment_means(_neg_log(p_word), batch.steps),
            _segment_means(_neg_log(p_branch), batch.steps))


def losses_from_forward(config: ModelConfig, fwd, batch: Batch) -> LossBreakdown:
    loss_clue = clue_loss(fwd.clue.probs, batch)
    loss_gen, loss_gate = sequence_losses(fwd.decoder, batch)
    total = ad.add(
        ad.add(ad.mul(loss_clue, config.lambda_clue), ad.mul(loss_gen, config.lambda_gen)),
        ad.mul(loss_gate, config.lambda_gate),
    )
    return LossBreakdown(loss_clue=loss_clue, loss_gen=loss_gen, loss_gate=loss_gate, total=total)


def batch_losses(
    model: QgModel,
    batch: list[LabeledExample],
    gumbel_rng: np.random.Generator | None = None,
    dropout_rng: np.random.Generator | None = None,
    mode: str = "train",
) -> LossBreakdown:
    """Each example's average cross-entropies (over tokens / decode steps),
    from one forward pass over the batch in `mode` (`QgModel.forward`)."""
    collated = model.embedder.collate(batch)
    fwd = model.forward(collated, mode, gumbel_rng, dropout_rng)
    return losses_from_forward(model.config, fwd, collated)


def compute_losses(
    model: QgModel,
    example: LabeledExample,
    gumbel_rng: np.random.Generator | None = None,
    dropout_rng: np.random.Generator | None = None,
    mode: str = "train",
) -> LossBreakdown:
    """`batch_losses` of one example: every field has one entry."""
    return batch_losses(model, [example], gumbel_rng, dropout_rng, mode)


@dataclass
class OptimizerState:
    """Adam's moments, laid out like `ParamStore.data`, and the step counter."""

    m: np.ndarray | None = None
    v: np.ndarray | None = None
    step: int = 0


def adam_step(params: ParamStore, state: OptimizerState, config: ModelConfig) -> None:
    """Clip every gradient entry to [-clip, clip], then bias-corrected Adam,
    in place, in one walk over the packed store's flat buffers a slice at a
    time, so each operand makes one DRAM round trip per step instead of one
    per elementwise operation."""
    params.pack()
    if state.m is None:
        state.m, state.v = np.zeros_like(params.data), np.zeros_like(params.data)
    state.step += 1
    t = state.step
    b1, b2 = config.beta1, config.beta2
    c1, c2 = 1 - b1 ** t, 1 - b2 ** t
    w, grad, m, v = params.data, params.grad, state.m, state.v
    n = SLICE_BYTES // w.itemsize
    clipped, work = np.empty((2, n), params.dtype)
    # per slice, the operation order of
    # data - lr * (m / c1) / (sqrt(v / c2) + eps) with m, v updated first
    for start in range(0, w.size, n):
        s = slice(start, start + n)
        ms, vs = m[s], v[s]
        g, tmp = clipped[:ms.size], work[:ms.size]
        np.clip(grad[s], -config.clip, config.clip, out=g)
        ms *= b1
        ms += np.multiply(g, 1 - b1, out=tmp)
        vs *= b2
        np.multiply(g, 1 - b2, out=tmp)
        tmp *= g
        vs += tmp
        np.divide(vs, c2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += config.eps
        np.divide(ms, c1, out=g)
        g *= config.lr
        g /= tmp
        w[s] -= g


class EmaState:
    """Shadow copy of the parameters, decayed toward them: `flat`, laid out
    like `ParamStore.data`."""

    def __init__(self, params: ParamStore, decay: float):
        params.pack()
        self.decay = decay
        self.flat = params.data.copy()

    def update(self, params: ParamStore) -> None:
        """shadow = d * shadow + (1 - d) * param, in place, one slice at a time."""
        params.pack()
        d, w = self.decay, params.data
        n = SLICE_BYTES // w.itemsize
        work = np.empty(n, params.dtype)
        for start in range(0, self.flat.size, n):
            part = self.flat[start:start + n]
            part *= d
            part += np.multiply(w[start:start + n], 1 - d, out=work[:part.size])


@dataclass
class EpochLog:
    epoch: int
    loss_clue: float
    loss_gen: float
    loss_gate: float
    total: float
    dev_total: float | None = None

    def to_json(self) -> str:
        d = {k: v for k, v in vars(self).items() if v is not None}
        return json.dumps(d, sort_keys=True)


@dataclass
class TrainResult:
    model: QgModel
    ema: EmaState
    log: list[EpochLog]
    best_dev_data: np.ndarray | None   # laid out like `ParamStore.data`


def dev_loss(model: QgModel, labeled_dev: list[LabeledExample]) -> float:
    total = 0.0
    with ad.no_grad():
        for start in range(0, len(labeled_dev), model.config.batch):
            losses = batch_losses(model, labeled_dev[start:start + model.config.batch], mode="eval")
            for value in losses.total.data.tolist():
                total += value
    return total / max(len(labeled_dev), 1)


def train(
    corpus: list[AnnotatedExample],
    config: ModelConfig,
    dev_corpus: list[AnnotatedExample] | None = None,
    vectors_file=None,
    progress=None,
    stop_total: float | None = None,
) -> TrainResult:
    """Full training run from a raw corpus; all randomness flows from
    config.seed through named substreams.  `stop_total` ends training early
    once an epoch's mean total loss drops below it."""
    config.validate()
    init_rng = rng_stream(config.seed, "init")
    gumbel_rng = rng_stream(config.seed, "gumbel")
    dropout_rng = rng_stream(config.seed, "dropout")
    shuffle_rng = rng_stream(config.seed, "shuffle")

    stopwords = stopword_set()
    vocab = build_vocabulary(corpus, config.vocab_max)
    feature_vocab = FeatureVocab.from_corpus(corpus)
    labeled, reduced = label_corpus(corpus, vocab, stopwords, config.r_h, config.reduced_vocab_size)
    labeled_dev = None
    if dev_corpus:
        labeled_dev = [label_example(ex, vocab, reduced, stopwords, config.r_h) for ex in dev_corpus]

    model = QgModel.build(config, vocab, reduced, feature_vocab, init_rng, vectors_file)
    opt = OptimizerState()
    ema = EmaState(model.params, config.ema)

    log: list[EpochLog] = []
    best_dev = float("inf")
    best_data = None
    for epoch in range(1, config.epochs + 1):
        order = shuffle_rng.permutation(len(labeled))
        sums = {"loss_clue": 0.0, "loss_gen": 0.0, "loss_gate": 0.0, "total": 0.0}
        seen = 0
        for batch_id, start in enumerate(range(0, len(order), config.batch)):
            batch = [labeled[i] for i in order[start:start + config.batch]]
            model.params.zero_grad()
            breakdown = batch_losses(model, batch, gumbel_rng, dropout_rng, mode="train")
            for ex, vals in zip(batch, breakdown.per_example()):
                if not all(np.isfinite(v) for v in vals.values()):
                    raise TrainingError(
                        f"non-finite loss at epoch {epoch} batch {batch_id} "
                        f"(example {ex.base.id}): {vals}"
                    )
                for k in sums:
                    sums[k] += vals[k]
                seen += 1
            ad.mean_(breakdown.total).backward()
            adam_step(model.params, opt, config)
            ema.update(model.params)
        record = EpochLog(epoch=epoch, **{k: v / seen for k, v in sums.items()})
        if labeled_dev is not None:
            record.dev_total = dev_loss(model, labeled_dev)
            if record.dev_total < best_dev:
                best_dev = record.dev_total
                best_data = model.params.data.copy()
        log.append(record)
        if progress is not None:
            progress(record)
        if stop_total is not None and record.total < stop_total:
            break
    return TrainResult(model=model, ema=ema, log=log, best_dev_data=best_data)
