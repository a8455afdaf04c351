"""Model configuration and seeded RNG stream management."""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np


class ConfigError(ValueError):
    """Raised when a configuration value violates its constraints."""


# Named substreams hang off the single run seed, so e.g. a change in how many
# dropout draws happen cannot perturb shuffling or Gumbel noise.
_STREAMS = {"init": 0, "dropout": 1, "gumbel": 2, "shuffle": 3, "toy": 4}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def check_positive_int(name: str, value) -> None:
    if not _is_int(value) or value <= 0:
        raise ConfigError(f"{name} must be a positive integer, got {value!r}")


def rng_stream(seed: int, name: str) -> np.random.Generator:
    if name not in _STREAMS:
        raise ConfigError(f"unknown rng stream {name!r}; expected one of {sorted(_STREAMS)}")
    return np.random.default_rng([int(seed), _STREAMS[name]])


@dataclass
class ModelConfig:
    """Every knob of the system in one validated record."""

    # vocabulary and labeling thresholds
    r_h: int = 100
    r_l: int = 2000
    reduced_vocab_size: int = 2000
    vocab_max: int = 20000
    # embedding widths
    word_dim: int = 300
    tier_dim: int = 32
    feat_dim: int = 16
    # network sizes
    enc_hidden: int = 512
    dec_hidden: int = 512
    attn_dim: int = 512
    gcn_layers: int = 3
    gcn_hidden: int = 256
    # sampling / regularization
    tau: float = 1.0
    dropout: float = 0.1
    # optimizer
    lr: float = 0.001
    beta1: float = 0.8
    beta2: float = 0.999
    eps: float = 1e-8
    batch: int = 32
    epochs: int = 10
    clip: float = 5.0
    ema: float = 0.9999
    # loss weights
    lambda_clue: float = 1.0
    lambda_gen: float = 1.0
    lambda_gate: float = 1.0
    # inference
    beam: int = 20
    max_len: int = 30
    # misc
    seed: int = 0
    precision: str = "float32"

    def validate(self) -> "ModelConfig":
        positive_ints = [
            "r_h", "r_l", "reduced_vocab_size", "vocab_max", "word_dim", "tier_dim",
            "feat_dim", "enc_hidden", "dec_hidden", "attn_dim", "gcn_layers",
            "gcn_hidden", "batch", "beam", "max_len",
        ]
        for name in positive_ints:
            check_positive_int(name, getattr(self, name))
        for name in ["tau", "dropout", "lr", "beta1", "beta2", "eps", "clip", "ema",
                     "lambda_clue", "lambda_gen", "lambda_gate"]:
            v = getattr(self, name)
            if not (_is_int(v) or isinstance(v, float)) or not math.isfinite(v):
                raise ConfigError(f"{name} must be a finite number, got {v!r}")
        if not _is_int(self.epochs) or self.epochs < 0:
            raise ConfigError(f"epochs must be a non-negative integer, got {self.epochs!r}")
        if self.r_h >= self.r_l:
            raise ConfigError(f"r_h must be < r_l, got r_h={self.r_h}, r_l={self.r_l}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.tau <= 0:
            raise ConfigError(f"tau must be positive, got {self.tau}")
        for name in ["lr", "eps", "clip"]:
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ["beta1", "beta2", "ema"]:
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ConfigError(f"{name} must be in (0, 1), got {v}")
        for name in ["lambda_clue", "lambda_gen", "lambda_gate"]:
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        if self.precision not in ("float32", "float64"):
            raise ConfigError(f"precision must be 'float32' or 'float64', got {self.precision!r}")
        if not _is_int(self.seed):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        return self

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d).validate()

    @classmethod
    def load(cls, path) -> "ModelConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                d = json.load(fh)
            except ValueError as e:   # not JSON, or not UTF-8
                raise ConfigError(f"config file {path} is not valid UTF-8 JSON: {e}") from e
        if not isinstance(d, dict):
            raise ConfigError(f"config file {path} must hold a flat JSON object")
        return cls.from_dict(d)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
