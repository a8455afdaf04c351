"""Joint training: clue CE + generation CE + copy-gate CE, optimized with
Adam under elementwise gradient clipping, plus an exponential moving average
of all trainable parameters.

Per-step generation likelihood is branch-supervised: a copy-labeled step
scores g_c * sum of attention over every aligned source position, a
generated step scores (1 - g_c) * P_gen(target id).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import SLICE, ParamStore, Tensor, TensorError
from .config import ModelConfig, rng_stream
from .corpus import AnnotatedExample, build_vocabulary, stopword_set
from .features import FeatureVocab
from .labeling import LabeledExample, label_corpus, label_example
from .model import QgModel

PROB_FLOOR = 1e-12


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


def _segment_means(terms: Tensor, lengths: list[int]) -> Tensor:
    """(B,) means of consecutive runs of `lengths` entries of a vector."""
    lengths = np.asarray(lengths)
    segments = np.repeat(np.eye(len(lengths)), lengths, axis=1)
    return ad.mul(ad.matmul(segments, terms), 1.0 / lengths)


def clue_loss(clue_probs: Tensor, gold_labels: list[list[bool]]) -> Tensor:
    """(B,) mean cross-entropies of each passage's per-token clue
    probabilities; `clue_probs` holds every passage's (n, 2) rows stacked."""
    gold = np.concatenate([np.asarray(g, dtype=int) for g in gold_labels])
    p_gold = ad.take_along(clue_probs, gold)
    return _segment_means(_neg_log(p_gold), [len(g) for g in gold_labels])


def sequence_losses(dist, batch: list[LabeledExample]) -> tuple[Tensor, Tensor]:
    """(B,) generation CEs and copy-gate CEs, each averaged over an example's
    decode steps.  `dist` holds every example's steps as rows, example after
    example; each example's last step predicts <EOS>."""
    copied = np.concatenate([list(ex.question_copy_label) + [False] for ex in batch])
    aligned = np.zeros(dist.copy.shape)
    row = 0
    for ex in batch:
        for t, positions in enumerate(ex.copy_alignment):
            aligned[row + t, positions] = 1.0
        row += len(ex.question_target_id)
    # the gate's probability of the labeled branch: g_c to copy, 1 - g_c to generate
    p_branch = ad.add(ad.mul(dist.gate, 2.0 * copied - 1.0), 1.0 - copied)
    p_copy = ad.sum_(ad.mul(dist.copy, aligned), axis=1)
    p_gen = ad.take_along(dist.gen, np.concatenate([ex.question_target_id for ex in batch]))
    p_word = ad.mul(p_branch, ad.add(ad.mul(p_copy, copied), ad.mul(p_gen, 1.0 - copied)))
    steps = [len(ex.question_target_id) for ex in batch]
    return _segment_means(_neg_log(p_word), steps), _segment_means(_neg_log(p_branch), steps)


def losses_from_forward(config: ModelConfig, fwd, batch: list[LabeledExample]) -> LossBreakdown:
    loss_clue = clue_loss(fwd.clue.probs, [ex.passage_clue_label for ex in batch])
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
    clue_mode: str | None = None,
    gumbel_noise: np.ndarray | None = None,
) -> LossBreakdown:
    """Each example's average cross-entropies (over tokens / decode steps),
    from one forward pass over the batch."""
    fwd = model.forward(
        batch, mode=mode, clue_mode=clue_mode,
        gumbel_rng=gumbel_rng, dropout_rng=dropout_rng, gumbel_noise=gumbel_noise,
    )
    return losses_from_forward(model.config, fwd, batch)


def compute_losses(
    model: QgModel,
    example: LabeledExample,
    gumbel_rng: np.random.Generator | None = None,
    dropout_rng: np.random.Generator | None = None,
    mode: str = "train",
    clue_mode: str | None = None,
    gumbel_noise: np.ndarray | None = None,
) -> LossBreakdown:
    """`batch_losses` of one example: every field has one entry."""
    return batch_losses(model, [example], gumbel_rng, dropout_rng, mode, clue_mode, gumbel_noise)


@dataclass
class OptimizerState:
    """Per-parameter Adam moments and the shared step counter."""

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0


def _flat(a: np.ndarray) -> np.ndarray:
    """`a` as a 1-d view; an update through it updates `a`."""
    if not a.flags.c_contiguous:
        raise TensorError(f"{a.shape} array is not C-contiguous; "
                          "an in-place update of its copy would be lost")
    return a.reshape(-1)


def adam_step(params: ParamStore, state: OptimizerState, config: ModelConfig) -> None:
    """Clip every gradient entry to [-clip, clip], then bias-corrected Adam,
    in place, one slice of each parameter at a time.  In float64 the six
    slices an update touches (gradient, two scratch slices, m, v, weight)
    take 1.5 MB and stay in L2, so each operand makes one DRAM round trip per
    step instead of one per elementwise operation."""
    state.step += 1
    t = state.step
    b1, b2 = config.beta1, config.beta2
    c1, c2 = 1 - b1 ** t, 1 - b2 ** t
    clipped, work = np.empty((2, SLICE), params.dtype)
    for name, tensor in params.items():
        if name not in state.m:
            state.m[name] = np.zeros(tensor.shape, tensor.data.dtype)
            state.v[name] = np.zeros(tensor.shape, tensor.data.dtype)
        w, m, v = _flat(tensor.data), _flat(state.m[name]), _flat(state.v[name])
        grad = None if tensor.grad is None else tensor.grad.reshape(-1)
        # per slice, the operation order of
        # data - lr * (m / c1) / (sqrt(v / c2) + eps) with m, v updated first
        for start in range(0, w.size, SLICE):
            s = slice(start, start + SLICE)
            ms, vs = m[s], v[s]
            g, tmp = clipped[:ms.size], work[:ms.size]
            if grad is None:
                g.fill(0)
            else:
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
    """Shadow copy of every trainable parameter, decayed toward the params."""

    def __init__(self, params: ParamStore, decay: float):
        self.decay = decay
        self.shadow = {name: t.data.copy() for name, t in params.items()}

    def update(self, params: ParamStore) -> None:
        """shadow = d * shadow + (1 - d) * param, in place, one slice at a time."""
        d = self.decay
        work = np.empty(SLICE, params.dtype)
        for name, t in params.items():
            shadow, w = _flat(self.shadow[name]), t.data.reshape(-1)
            for start in range(0, shadow.size, SLICE):
                part = shadow[start:start + SLICE]
                part *= d
                part += np.multiply(w[start:start + SLICE], 1 - d, out=work[:part.size])


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
    best_dev_arrays: dict[str, np.ndarray] | None


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
    best_arrays = None
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
        record = EpochLog(
            epoch=epoch,
            loss_clue=sums["loss_clue"] / seen,
            loss_gen=sums["loss_gen"] / seen,
            loss_gate=sums["loss_gate"] / seen,
            total=sums["total"] / seen,
        )
        if labeled_dev is not None:
            record.dev_total = dev_loss(model, labeled_dev)
            if record.dev_total < best_dev:
                best_dev = record.dev_total
                best_arrays = model.params.state_arrays()
        log.append(record)
        if progress is not None:
            progress(record)
        if stop_total is not None and record.total < stop_total:
            break
    return TrainResult(model=model, ema=ema, log=log, best_dev_arrays=best_arrays)
