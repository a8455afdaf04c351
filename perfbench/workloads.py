"""The benchmark workloads: seeded inputs, set-up, the timed loop, output
checks and metrics.

train-toy and train-paper call `training.train`; generate-paper builds a
model, round-trips it through `QgModel.save`/`QgModel.load` and calls
`beam.generate`.  The first epoch, or the first example, of every run is a
warm-up and is not timed.  A traced run times the first half of its ops
untraced and the second half traced, so the two halves give the tracing
overhead.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

from qgen import beam, training
from qgen.autodiff import ParamStore
from qgen.config import ModelConfig, rng_stream
from qgen.corpus import EOS, build_vocabulary, stopword_set
from qgen.features import FeatureVocab
from qgen.labeling import label_corpus
from qgen.model import QgModel
from qgen.toydata import make_toy_data

from spans import GC_LAYER, HOOKS, Tracer
from synth import make_paper_corpus

WORK_DIR = Path(__file__).resolve().parent / ".work"

# toy_config() of tests/conftest.py, copied so that test edits cannot move
# the benchmark.
TOY = dict(r_h=8, r_l=60, word_dim=48, tier_dim=8, feat_dim=8, enc_hidden=64,
           dec_hidden=64, attn_dim=48, gcn_layers=2, gcn_hidden=32, dropout=0.0,
           lr=0.003, batch=8, ema=0.9)
# Smoke mode only: every width small enough that a run takes seconds.
SMOKE = dict(r_h=10, r_l=100, reduced_vocab_size=60, word_dim=12, tier_dim=4,
             feat_dim=4, enc_hidden=12, dec_hidden=12, attn_dim=12, gcn_layers=2,
             gcn_hidden=8)


@dataclass(frozen=True)
class TrainSpec:
    corpus: Callable[[int], list]   # seed -> corpus
    config: dict
    # Fixed work at the start of every run: the mean loss of the last of
    # these epochs, and the peak memory up to its end, are reported, so
    # neither depends on how many steps the run's seconds allow.  Early,
    # because later losses depend more on the seed.
    fixed_epochs: int


@dataclass(frozen=True)
class GenerateSpec:
    corpus_size: int                # builds the vocabularies and the model
    heldout: int                    # question-less passages, cycled
    config: dict
    # Fixed work: the mean best score of these first examples, and the peak
    # memory up to their end, are reported.
    fixed_examples: int


SPECS = {
    "train-toy": TrainSpec(lambda seed: make_toy_data(32, seed), TOY, fixed_epochs=2),
    "train-paper": TrainSpec(lambda seed: make_paper_corpus(8, seed), dict(batch=4),
                             fixed_epochs=1),
    "generate-paper": GenerateSpec(2400, 16, {}, fixed_examples=3),
}
SMOKE_SPECS = {
    "train-toy": TrainSpec(lambda seed: make_toy_data(8, seed), {**TOY, "batch": 4},
                           fixed_epochs=1),
    "train-paper": TrainSpec(lambda seed: make_paper_corpus(4, seed), {**SMOKE, "batch": 2},
                             fixed_epochs=1),
    "generate-paper": GenerateSpec(60, 3, {**SMOKE, "beam": 3, "max_len": 5},
                                   fixed_examples=1),
}
# Set-up is timed in (rounds, set-ups per round); the median over rounds of
# the mean set-up time in a round is reported.  Toy set-up takes about 3 ms,
# so its rounds are long enough to even out the collections that land in
# some set-ups and not in others.
SETUP_ROUNDS = {"train-toy": (11, 10), "train-paper": (7, 1), "generate-paper": (3, 1)}

# Per-layer metrics of a traced run: a count or time per example, measured
# where each layer does its work, plus every layer's share of the traced wall
# time spent in its own code (0 where the workload never calls it).
LAYERS = sorted({name for name, _, _ in HOOKS} | {GC_LAYER})
PER_EXAMPLE_MS = ["autodiff.gc", "features.embed_passage", "clue_predictor.run",
                  "encoder.encode"]
SETUP_STEPS = ["corpus.build_vocabulary_s", "labeling.label_corpus_s", "model.build_s"]


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    per_layer: dict[str, tuple[float, str]] = field(default_factory=dict)
    report: dict = field(default_factory=dict)
    tracer: Tracer | None = None

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


class OpClock:
    """Op start times and the phase schedule of one run; ops before index
    `warmup` are not timed."""

    def __init__(self, seconds: float, trace: bool, warmup: int):
        self.seconds = seconds
        self.trace = trace
        self.warmup = warmup
        self.starts: list[float] = []
        self.end: float | None = None
        self.tracer: Tracer | None = None
        self.traced_from: int | None = None   # index of the first traced op

    def start_op(self) -> None:
        now = perf_counter()
        self.starts.append(now)
        if (self.trace and self.tracer is None and len(self.starts) > self.warmup
                and now - self.starts[self.warmup] >= self.seconds / 2):
            self.tracer = Tracer()
            self.tracer.install()
            self.traced_from = len(self.starts) - 1
        if self.tracer is not None:
            self.tracer.op = len(self.starts) - 1

    def stop_after_op(self) -> bool:
        """At an op end: True, recording the end time, once the run has
        timed enough ops."""
        now = perf_counter()
        if len(self.starts) <= self.warmup:
            return False
        if self.trace:
            done = self.tracer is not None and now - self.tracer.installed_at >= self.seconds / 2
        else:
            done = now - self.starts[self.warmup] >= self.seconds
        if done:
            self.end = now
        return done

    def close(self) -> None:
        if self.tracer is not None:
            self.tracer.uninstall()

    def durations(self) -> list[float]:
        """Every op's duration in seconds, warm-up included."""
        times = self.starts + [self.end]
        return [b - a for a, b in zip(times, times[1:])]

    def phases(self) -> tuple[list[float], list[float]]:
        """(untraced, traced) op durations, warm-up excluded."""
        d = self.durations()
        cut = self.traced_from if self.traced_from is not None else len(d)
        return d[self.warmup:cut], d[cut:]

    def warmup_s(self) -> float | None:
        return sum(self.durations()[:self.warmup]) if len(self.starts) > self.warmup else None


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:16]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _tail(durations: list[float]) -> dict | None:
    """Highest percentile with at least ten samples beyond it."""
    n = len(durations)
    if n < 20:
        return None
    ordered = sorted(durations)
    return {"ms": ordered[n - 11] * 1000, "pct": 100.0 * (n - 10) / n, "samples": n}


def _setup_common(corpus, config):
    """The set-up `training.train` does before its first step."""
    times = {}
    t = perf_counter()
    vocab = build_vocabulary(corpus, config.vocab_max)
    features = FeatureVocab.from_corpus(corpus)
    times["corpus.build_vocabulary_s"] = perf_counter() - t
    t = perf_counter()
    _, reduced = label_corpus(corpus, vocab, stopword_set(), config.r_h, config.reduced_vocab_size)
    times["labeling.label_corpus_s"] = perf_counter() - t
    t = perf_counter()
    model = QgModel.build(config, vocab, reduced, features, rng_stream(config.seed, "init"))
    times["model.build_s"] = perf_counter() - t
    return model, times


def _timed_setups(setup: Callable, rounds: int, per_round: int):
    """(the last model set up, the median over rounds of each step's mean
    time in a round, with the whole set-up as `total_s`)."""
    means = []
    model = None
    for _ in range(rounds):
        sums: dict[str, float] = {}
        t = perf_counter()
        for _ in range(per_round):
            model = None   # free the previous model first
            model, times = setup()
            for k, v in times.items():
                sums[k] = sums.get(k, 0.0) + v
        sums["total_s"] = perf_counter() - t
        means.append({k: v / per_round for k, v in sums.items()})
    return model, {k: statistics.median(m[k] for m in means) for k in means[0]}


class _Stop(Exception):
    """Raised from the epoch callback to end `train` after a whole epoch."""


def run_train(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> Result:
    spec = (SMOKE_SPECS if smoke else SPECS)[name]
    corpus = spec.corpus(seed)
    config = ModelConfig(**spec.config, epochs=10 ** 6, seed=seed).validate()
    if len(corpus) % config.batch:
        raise ValueError(f"{name}: corpus of {len(corpus)} is not whole batches of {config.batch}")

    model, setup = _timed_setups(lambda: _setup_common(corpus, config), *SETUP_ROUNDS[name])
    n_params = sum(p.data.size for p in model.params.tensors())
    n_vocab, n_reduced = len(model.vocab), len(model.reduced)
    del model
    gc.collect()

    per_epoch = len(corpus) // config.batch
    clock = OpClock(seconds, trace, warmup=per_epoch)
    log = []
    peak_rss = math.nan

    def progress(record):
        nonlocal peak_rss
        log.append(record)
        if record.epoch == spec.fixed_epochs:
            peak_rss = _peak_rss_mb()
        if record.epoch >= spec.fixed_epochs and clock.stop_after_op():
            raise _Stop

    zero_grad = ParamStore.zero_grad

    def step_start(params):   # train() zeroes the gradients first in every step
        clock.start_op()
        zero_grad(params)

    result = Result()
    ParamStore.zero_grad = step_start
    try:
        training.train(corpus, config, progress=progress)
    except _Stop:
        pass
    except training.TrainingError as e:
        result.problems.append(str(e))
        result.failed = 1
        clock.end = perf_counter()
    finally:
        ParamStore.zero_grad = zero_grad
        clock.close()
    result.attempted = len(clock.starts)

    for record in log:
        values = [record.loss_clue, record.loss_gen, record.loss_gate, record.total]
        if not all(math.isfinite(v) for v in values):
            result.problems.append(f"non-finite loss in epoch {record.epoch}: {values}")
    untraced, traced = clock.phases()
    if not untraced:
        raise RuntimeError(f"{name}: no timed step completed; problems: {result.problems}")
    # Steps alternate between fast ones and ones that run a full garbage
    # collection, so a per-step median jumps between the two modes; the
    # median over epochs of the mean step time does not.
    epoch_means = [statistics.mean(untraced[e:e + per_epoch])
                   for e in range(0, len(untraced), per_epoch)]
    quality = log[spec.fixed_epochs - 1].total if len(log) >= spec.fixed_epochs else math.nan
    result.metrics = {
        "setup_s": (setup["total_s"], "s"),
        "examples_per_s": (len(untraced) * config.batch / sum(untraced), "1/s"),
        "op_ms_p50": (statistics.median(epoch_means) * 1000, "ms"),
        "output_nll": (quality, "nat"),
    }
    result.report = {
        "shape": {
            "examples": len(corpus), "batch": config.batch, "parameters": n_params,
            "passage_len_mean": statistics.mean(len(ex.passage) for ex in corpus),
            "question_len_mean": statistics.mean(len(ex.question) for ex in corpus),
            "vocab": n_vocab, "reduced_vocab": n_reduced,
            "enc_hidden": config.enc_hidden, "gcn_layers": config.gcn_layers,
            "dropout": config.dropout,
        },
        "op": "optimizer step",
        "epochs": len(log),
        "warmup_s": clock.warmup_s(),
        "op_ms_tail": _tail(untraced),
        "loss_digest": _digest(r.to_json() for r in log[:spec.fixed_epochs]),
        "peak_rss_mb": peak_rss,
        "peak_rss_mb_whole_run": _peak_rss_mb(),
        "setup": setup,
    }
    if trace:
        result.per_layer, result.report["layers"] = _layer_metrics(
            clock, untraced, traced, config.batch, setup)
        result.tracer = clock.tracer
    return result


def check_hypotheses(hyps, max_len: int) -> list[str]:
    """Problems with one example's beam output; empty when it is valid."""
    if not hyps:
        return ["no hypothesis returned"]
    problems = []
    scores = [h.score for h in hyps]
    if not all(math.isfinite(s) for s in scores):
        problems.append("non-finite hypothesis score")
    if any(a < b for a, b in zip(scores, scores[1:])):
        problems.append("hypotheses not sorted by score")
    for h in hyps:
        if not (h.tokens[-1:] == [EOS] or len(h.tokens) == max_len):
            problems.append(f"hypothesis of length {len(h.tokens)} does not end on {EOS}")
            break
    return problems


def run_generate(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> Result:
    spec = (SMOKE_SPECS if smoke else SPECS)[name]
    corpus = make_paper_corpus(spec.corpus_size, seed)
    heldout = make_paper_corpus(spec.heldout, seed, split="heldout")
    config = ModelConfig(**spec.config, seed=seed).validate()

    WORK_DIR.mkdir(exist_ok=True)
    checkpoint = WORK_DIR / f"generate-{os.getpid()}.npz"

    def build_save_load():   # what `qgen train` writes and `qgen generate` reads
        built, times = _setup_common(corpus, config)
        t = perf_counter()
        built.save(checkpoint)
        times["model.save_s"] = perf_counter() - t
        del built
        t = perf_counter()
        loaded = QgModel.load(checkpoint)
        times["model.load_s"] = perf_counter() - t
        return loaded, times

    try:
        model, setup = _timed_setups(build_save_load, *SETUP_ROUNDS[name])
    finally:
        checkpoint.unlink(missing_ok=True)
    gc.collect()

    clock = OpClock(seconds, trace, warmup=1)
    result = Result()
    best_lines, best_scores, finished = [], [], []
    peak_rss = math.nan
    try:
        i = 0
        while True:
            ex = heldout[i % len(heldout)]
            clock.start_op()
            try:
                hyps = beam.generate(model, ex, config.beam, config.max_len)
                problems = check_hypotheses(hyps, config.max_len)
            except Exception as e:  # a failed example is counted, and the run goes on
                hyps, problems = [], [f"{type(e).__name__}: {e}"]
            i += 1
            if i == spec.fixed_examples:
                peak_rss = _peak_rss_mb()
            if problems:
                result.failed += 1
                result.problems.extend(f"{ex.id}: {p}" for p in problems)
            else:
                best = hyps[0]
                best_lines.append(f"{ex.id}\t{' '.join(best.surface())}\t{best.score!r}")
                best_scores.append(best.score)
                finished.append(sum(h.finished for h in hyps) / len(hyps))
            if i >= spec.fixed_examples and clock.stop_after_op():
                break
    finally:
        clock.close()
    result.attempted = i

    untraced, traced = clock.phases()
    if not untraced:
        raise RuntimeError(f"{name}: no timed example completed; problems: {result.problems[:5]}")
    quality = (-statistics.mean(best_scores[:spec.fixed_examples])
               if len(best_scores) >= spec.fixed_examples else math.nan)
    result.metrics = {
        "setup_s": (setup["total_s"], "s"),
        "examples_per_s": (len(untraced) / sum(untraced), "1/s"),
        "op_ms_p50": (statistics.median(untraced) * 1000, "ms"),
        "output_nll": (quality, "nat"),
    }
    result.report = {
        "shape": {
            "examples": len(corpus), "heldout": len(heldout),
            "parameters": sum(p.data.size for p in model.params.tensors()),
            "passage_len_mean": statistics.mean(len(ex.passage) for ex in corpus),
            "question_len_mean": statistics.mean(len(ex.question) for ex in corpus),
            "vocab": len(model.vocab), "reduced_vocab": len(model.reduced),
            "beam": config.beam, "max_len": config.max_len,
        },
        "op": "generated example",
        "warmup_s": clock.warmup_s(),
        "op_ms_tail": _tail(untraced),
        "prediction_digest": _digest(best_lines[:spec.fixed_examples]),
        "peak_rss_mb": peak_rss,
        "peak_rss_mb_whole_run": _peak_rss_mb(),
        "beam.finished_frac": statistics.mean(finished) if finished else math.nan,
        "setup": setup,
    }
    if trace:
        result.per_layer, result.report["layers"] = _layer_metrics(clock, untraced, traced, 1, setup)
        result.tracer = clock.tracer
    return result


def _layer_metrics(clock: OpClock, untraced, traced, examples_per_op: int, setup: dict):
    """(per-layer metrics for the result line, the fuller layer report)."""
    tracer = clock.tracer
    if tracer is None or not traced:
        raise RuntimeError("the traced phase timed no op; raise --seconds")
    layers = tracer.layer_times()
    ops = len(traced)
    examples = ops * examples_per_op
    wall = sum(traced)

    def total(layer):
        return layers.get(layer, {}).get("total_s", 0.0)

    def calls(layer):
        return layers.get(layer, {}).get("calls", 0)

    per_layer = {
        "autodiff.tensors_per_example": (tracer.tensors / examples, "count"),
        "autodiff.gc_collections_per_example": (sum(tracer.gc_collections) / examples, "count"),
        "features.embed_passage_calls_per_example": (calls("features.embed_passage") / examples, "count"),
        "clue_predictor.build_adjacency_calls_per_example": (
            calls("clue_predictor.build_adjacency") / examples, "count"),
        "decoder.decode_step_calls_per_example": (calls("decoder.decode_step") / examples, "count"),
        "trace.overhead_pct": (
            100.0 * (statistics.mean(traced) / statistics.mean(untraced) - 1.0), "%"),
    }
    for layer in PER_EXAMPLE_MS:
        per_layer[f"{layer}_ms_per_example"] = (1000 * total(layer) / examples, "ms")
    for step in SETUP_STEPS:
        per_layer[step] = (setup[step], "s")
    self_total = 0.0
    for layer in LAYERS:
        own = layers.get(layer, {}).get("self_s", 0.0)
        self_total += own
        per_layer[f"self_pct.{layer}"] = (100.0 * own / wall, "%")
    per_layer["self_pct.other"] = (100.0 * (wall - self_total) / wall, "%")

    report = {
        "traced_ops": ops, "untraced_ops": len(untraced),
        "traced_ms_mean": statistics.mean(traced) * 1000,
        "untraced_ms_mean": statistics.mean(untraced) * 1000,
        "gc_collections_by_generation": tracer.gc_collections,
        "autodiff.backward_ms_per_step": 1000 * total("autodiff.backward") / ops,
        "training.adam_ms_per_step": 1000 * total("training.adam") / ops,
        "training.ema_ms_per_step": 1000 * total("training.ema") / ops,
        "training.losses_ms_per_example": 1000 * total("training.losses") / examples,
        "decoder.unroll_ms_per_example": 1000 * total("decoder.unroll") / examples,
        "decoder.decode_step_ms_per_example": 1000 * total("decoder.decode_step") / examples,
        "beam.self_ms_per_example": 1000 * layers.get("beam.generate", {}).get("self_s", 0.0) / examples,
        "beam.expansions_per_example": calls("decoder.decode_step") / examples,
        "self_ms_per_op": {k: 1000 * v["self_s"] / ops for k, v in sorted(layers.items())},
    }
    return per_layer, report


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> Result:
    if name not in SPECS:
        raise ValueError(f"unknown workload {name!r}; expected one of {sorted(SPECS)}")
    runner = run_generate if isinstance(SPECS[name], GenerateSpec) else run_train
    result = runner(name, seed, seconds, trace, smoke)
    if result.tracer is not None:
        WORK_DIR.mkdir(exist_ok=True)
        path = WORK_DIR / f"spans-{name}-seed{seed}.jsonl"
        result.tracer.write(path)
        result.report["spans_file"] = str(path.relative_to(WORK_DIR.parent.parent))
    return result
