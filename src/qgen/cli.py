"""Command-line entry points: ingest, stats, train, generate, evaluate,
make-toy-data.  Config values come from an optional JSON file; --set
KEY=VALUE flags override individual fields."""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from contextlib import nullcontext
from pathlib import Path

from .autodiff import CheckpointError, no_grad, replaced_on_success
from .beam import generate as beam_generate
from .config import ConfigError, ModelConfig, check_positive_int
from .corpus import (IngestError, build_vocabulary, load_corpus, stopword_set, utf8_lines,
                     write_corpus)
from .labeling import dump_labeled_corpus, label_corpus
from .metrics import MetricError, evaluate_pairs
from .model import QgModel
from .stats import dep_path_stats, rank_distributions
from .toydata import make_toy_data
from .training import TrainingError, train


class CliError(RuntimeError):
    pass


def _verbose() -> bool:
    return os.environ.get("QGEN_VERBOSE", "") not in ("", "0")


def _load_config(args) -> ModelConfig:
    if getattr(args, "config", None):
        config = ModelConfig.load(args.config)
    else:
        config = ModelConfig()
    overrides = {}
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise CliError(f"--set expects KEY=VALUE, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            overrides[key] = json.loads(raw)
        except json.JSONDecodeError:
            overrides[key] = raw
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if overrides:
        d = config.to_dict()
        unknown = set(overrides) - set(d)
        if unknown:
            raise CliError(f"unknown config keys in --set: {sorted(unknown)}")
        d.update(overrides)
        config = ModelConfig.from_dict(d)
    return config.validate()


def _cmd_ingest(args) -> int:
    config = _load_config(args)
    corpus = load_corpus(args.data)
    summary = {"examples": len(corpus)}
    if args.labeled_out:
        vocab = build_vocabulary(corpus, config.vocab_max)
        labeled, reduced = label_corpus(corpus, vocab, stopword_set(),
                                        config.r_h, config.reduced_vocab_size)
        dump_labeled_corpus(labeled, args.labeled_out)
        summary["vocabulary"] = len(vocab)
        summary["reduced_vocabulary"] = len(reduced)
        summary["labeled_out"] = str(args.labeled_out)
    print(json.dumps(summary, sort_keys=True))
    return 0


def _cmd_stats(args) -> int:
    config = _load_config(args)
    corpus = load_corpus(args.data)
    out = Path(args.out_dir) if args.out_dir else None
    if out is not None:   # before the summary, so that a path in the way prints nothing
        out.mkdir(parents=True, exist_ok=True)
    vocab = build_vocabulary(corpus, config.vocab_max)
    labeled, _ = label_corpus(corpus, vocab, stopword_set(),
                              config.r_h, config.reduced_vocab_size)
    hist = rank_distributions(labeled, vocab)
    paths = dep_path_stats(labeled)
    summary = {
        "examples": len(corpus),
        "ranks": {
            name: {
                "count": pop.count,
                "mean_rank": pop.mean_rank,
                "median_rank": pop.median_rank,
            }
            for name, pop in [("all", hist.all_words), ("generated", hist.generated),
                              ("copied", hist.copied)]
        },
        "paths": {
            "clue_count": paths.clue_count,
            "tree_mean": paths.tree_mean,
            "tree_median": paths.tree_median,
            "seq_mean": paths.seq_mean,
            "seq_median": paths.seq_median,
            "top_labels": paths.top_labels(5),
        },
    }
    print(json.dumps(summary, sort_keys=True))
    if out is not None:
        with open(out / "rank_histogram.csv", "w", encoding="utf-8") as fh:
            fh.write("population,bucket,count\n")
            for name, pop in [("all", hist.all_words), ("generated", hist.generated),
                              ("copied", hist.copied)]:
                for bucket, count in pop.buckets.items():
                    fh.write(f"{name},{bucket},{count}\n")
        with open(out / "distance_histogram.csv", "w", encoding="utf-8") as fh:
            fh.write("population,bucket,count\n")
            for name, h in [("tree", paths.tree_hist), ("sequence", paths.seq_hist)]:
                for bucket, count in h.items():
                    fh.write(f"{name},{bucket},{count}\n")
        with open(out / "path_labels.csv", "w", encoding="utf-8") as fh:
            fh.write("label,count\n")
            for label, count in sorted(paths.label_counts.items(), key=lambda kv: (-kv[1], kv[0])):
                fh.write(f"{label},{count}\n")
    return 0


def _cmd_train(args) -> int:
    config = _load_config(args)
    corpus = load_corpus(args.data)
    dev = load_corpus(args.dev) if args.dev else None
    out = Path(args.out)
    for path in (out, *out.parents):   # a file in the way fails before training
        if path.exists() and not path.is_dir():
            raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), str(path))

    def progress(record):
        line = record.to_json()
        if _verbose():
            print(line, file=sys.stderr)

    result = train(corpus, config, dev_corpus=dev, vectors_file=args.vectors, progress=progress)
    out.mkdir(parents=True, exist_ok=True)   # only now: a failed run leaves no --out
    with open(out / "train_log.jsonl", "w", encoding="utf-8") as fh:
        for record in result.log:
            fh.write(record.to_json() + "\n")
    result.model.save(out / "model.npz", result.best_dev_data)   # None: the last weights
    result.model.save(out / "model_ema.npz", result.ema.flat)
    print(json.dumps({
        "checkpoint": str(out / "model.npz"),
        "checkpoint_ema": str(out / "model_ema.npz"),
        "epochs": len(result.log),
        "final_total_loss": result.log[-1].total if result.log else None,
    }, sort_keys=True))
    return 0


def _cmd_generate(args) -> int:
    if args.clues_out is not None and Path(args.clues_out).resolve() == Path(args.out).resolve():
        raise CliError(f"--out and --clues-out name the same file: {args.out}")
    if not Path(args.checkpoint).exists():
        raise CliError(f"checkpoint not found: {args.checkpoint}")
    for name, value in (("beam_width", args.beam_width), ("max_len", args.max_len)):
        if value is not None:
            check_positive_int(name, value)
    model = QgModel.load(args.checkpoint)
    corpus = load_corpus(args.data, require_question=False)
    clues = args.clues_out
    # each output is written to a temporary file that replaces it only on success
    with (replaced_on_success(args.out) as tmp, open(tmp, "w", encoding="utf-8") as fh,
          (replaced_on_success(clues) if clues is not None else nullcontext()) as clues_tmp,
          (open(clues_tmp, "w", encoding="utf-8") if clues is not None else nullcontext())
          as clues_fh):
        for ex in corpus:
            with no_grad():
                clue = model.predict_clues(model.embedder.collate([ex]), rng=None, mode="eval")
            hyps = beam_generate(model, ex, beam_width=args.beam_width, max_len=args.max_len,
                                 clue=clue)
            best = hyps[0]
            fh.write(json.dumps({
                "id": ex.id,
                "prediction": " ".join(best.surface()),
                "score": best.score,
            }, sort_keys=True) + "\n")
            if clues_fh is not None:
                clues_fh.write(json.dumps({
                    "id": ex.id,
                    "clues": [
                        {"token": t.text,
                         "probability": float(clue.probs.data[i, 1]),
                         "indicator": int(clue.indicators[i])}
                        for i, t in enumerate(ex.passage)
                    ],
                }, sort_keys=True) + "\n")
    print(json.dumps({"generated": len(corpus), "out": str(args.out)}, sort_keys=True))
    return 0


def _cmd_evaluate(args) -> int:
    refs = {ex.id: ex.question for ex in load_corpus(args.ref)}
    pairs = []
    missing = []
    first_line = {}   # prediction id -> the line it was first read from
    for lineno, line in utf8_lines(args.pred, CliError):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except ValueError:
            obj = None
        if not (isinstance(obj, dict) and isinstance(obj.get("id"), str)
                and isinstance(obj.get("prediction"), str)):
            raise CliError(f"{args.pred} line {lineno}: expected a JSON object with "
                           f"string \"id\" and \"prediction\" fields")
        if obj["id"] in first_line:
            raise CliError(f"{args.pred} line {lineno}: id {obj['id']!r} repeats the id of "
                           f"line {first_line[obj['id']]}")
        first_line[obj["id"]] = lineno
        if obj["id"] not in refs:
            missing.append(obj["id"])
            continue
        pairs.append((obj["prediction"].split(), refs[obj["id"]]))
    if missing:
        raise CliError(f"{len(missing)} prediction id(s) absent from the reference file: {missing[:5]}")
    report = evaluate_pairs(pairs)
    print(json.dumps(report.to_dict(), sort_keys=True))
    print(report.table(), file=sys.stderr)
    return 0


def _cmd_make_toy_data(args) -> int:
    examples = make_toy_data(args.n, args.seed)
    write_corpus(examples, args.out)
    print(json.dumps({"examples": len(examples), "out": str(args.out)}, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qgen", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("--config", help="JSON config file")
            p.add_argument("--set", action="append", metavar="KEY=VALUE",
                           help="override a config field (repeatable)")
            p.add_argument("--seed", type=int, help="override the run seed")

    p = sub.add_parser("ingest", help="validate a corpus, optionally dump labels")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--labeled-out", help="write labeled-corpus JSONL here")
    p.set_defaults(fn=_cmd_ingest)

    p = sub.add_parser("stats", help="rank and dependency-path statistics")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out-dir", help="directory for CSV histograms")
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser("train", help="train a model")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--dev", help="dev corpus for best-checkpoint selection")
    p.add_argument("--vectors", help="pre-trained word vectors file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("generate", help="beam-search questions from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--beam-width", type=int, default=None)
    p.add_argument("--max-len", type=int, default=None)
    p.add_argument("--clues-out", help="also dump per-token clue predictions (JSONL)")
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("evaluate", help="score predictions against references")
    p.add_argument("--pred", required=True)
    p.add_argument("--ref", required=True)
    p.set_defaults(fn=_cmd_evaluate)

    p = sub.add_parser("make-toy-data", help="write a deterministic synthetic corpus")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_make_toy_data)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, CheckpointError, ConfigError, IngestError, MetricError,
            TrainingError, OSError) as e:   # OSError: a path that cannot be read or made
        print(json.dumps({"error": type(e).__name__, "message": str(e)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
