"""Clue-word prediction: GCN over the undirected dependency tree, then a
Straight-Through Gumbel-Softmax sample of a binary indicator per token.

The adjacency matrix is the undirected tree plus self-loops; each layer
averages transformed neighbor features by node degree, so after L layers a
token's representation sees exactly its <= L-hop neighborhood.  A batch's
passages are one graph, their trees in diagonal blocks, so no token reaches
another passage.  Dependency edge types are not encoded here; they already
enter through the DEP feature embeddings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, _node
from .config import ConfigError
from .corpus import AnnotatedExample


def build_adjacency(examples: list[AnnotatedExample]) -> np.ndarray:
    """(N, N) (A + I) / degree over the N tokens of `examples`, passage after
    passage: each passage's undirected tree is a block on the diagonal."""
    lengths = [len(ex.passage) for ex in examples]
    heads = np.concatenate([start + np.array([t.head for t in ex.passage])
                            for start, ex in zip(np.cumsum(lengths) - lengths, examples)])
    rows = np.arange(len(heads))
    a = np.eye(len(heads))
    a[rows, heads] = a[heads, rows] = 1.0
    return a / a.sum(axis=1)[:, None]


def gcn_layer(h_prev: Tensor, adj: np.ndarray, w: Tensor, b: Tensor) -> Tensor:
    """One propagation step: h_i = relu(sum_j adj_ij (W h_j) + b), `adj` from
    `build_adjacency`."""
    if w.shape[1] != h_prev.shape[1]:
        raise ad.TensorError(
            f"gcn_layer: weight expects input width {w.shape[1]}, features have {h_prev.shape[1]}"
        )
    mixed = ad.matmul(adj, ad.linear(h_prev, w))
    return ad.clamp_min(ad.add(mixed, b), 0.0)


def encode_clue_features(features: Tensor, adj: np.ndarray,
                         layer_params: list[tuple[Tensor, Tensor]]) -> Tensor:
    """Stack GCN layers; the receptive field grows one hop per layer."""
    if not layer_params:
        raise ConfigError("encode_clue_features requires at least one GCN layer")
    h = features
    for w, b in layer_params:
        h = gcn_layer(h, adj, w, b)
    return h


def clue_logits(h: Tensor, w_out: Tensor, b_out: Tensor) -> Tensor:
    """Per-token unnormalized [not-clue, clue] scores."""
    return ad.add(ad.linear(h, w_out), b_out)


@dataclass
class GumbelSample:
    y: Tensor            # continuous relaxed sample, rows sum to 1
    y_st: Tensor         # one-hot discretization with pass-through gradient


def gumbel_noise(rng: np.random.Generator, shape) -> np.ndarray:
    """Gumbel noise -log(-log(u)) of uniform draws u, clipped off 0 and 1."""
    u = np.clip(rng.random(shape), 1e-12, 1.0 - 1e-12)
    return -np.log(-np.log(u))


def gumbel_softmax_sample(logits: Tensor, tau: float, rng: np.random.Generator,
                          noise: np.ndarray | None = None) -> GumbelSample:
    """Relaxed categorical sample y = softmax((log-probs + gumbel noise) / tau).

    Row-constant log-normalization cancels inside the softmax, so the raw
    logits are used directly; `noise` overrides the Gumbel draw (test hook).
    """
    if tau <= 0:
        raise ConfigError(f"gumbel temperature must be positive, got {tau}")
    g = gumbel_noise(rng, logits.shape) if noise is None else np.asarray(noise, dtype=float)
    y = ad.softmax(ad.mul(ad.add(logits, g), 1.0 / tau))
    return GumbelSample(y=y, y_st=st_discretize(y))


def st_discretize(y: Tensor) -> Tensor:
    """Row-wise one-hot argmax of an (n, k) tensor forward, identity
    gradient backward (ties -> lower index)."""
    hard = np.zeros_like(y.data)
    hard[np.arange(y.data.shape[0]), np.argmax(y.data, axis=1)] = 1.0

    def bw(g):
        if y.requires_grad:
            y._accumulate(g)

    return _node(hard, (y,), "st_discretize", bw)


@dataclass
class ClueForward:
    features: Tensor       # (N, width) the passage features the predictor read
    probs: Tensor          # (N, 2) softmax of the logits
    weights: Tensor        # (N, 2) what the encoder's clue slot consumes
    indicators: np.ndarray  # (N,) binary decisions


def run_clue_predictor(features: Tensor, adj: np.ndarray,
                       layer_params: list[tuple[Tensor, Tensor]],
                       w_out: Tensor, b_out: Tensor,
                       tau: float, rng: np.random.Generator, mode: str,
                       noise: np.ndarray | None = None) -> ClueForward:
    """Full predictor pass over pre-embedded features.

    mode 'train': stochastic straight-through one-hot (differentiable);
    mode 'eval': deterministic argmax of the clue probability, no noise;
    mode 'soft': continuous relaxed sample (differentiable test hook).
    """
    h = encode_clue_features(features, adj, layer_params)
    logits = clue_logits(h, w_out, b_out)
    probs = ad.softmax(logits)
    if mode == "eval":
        weights = Tensor(np.eye(2, dtype=probs.data.dtype)[np.argmax(probs.data, axis=-1)])
    elif mode in ("train", "soft"):
        sample = gumbel_softmax_sample(logits, tau, rng, noise=noise)
        weights = sample.y_st if mode == "train" else sample.y
    else:
        raise ConfigError(f"clue predictor mode must be train/eval/soft, got {mode!r}")
    return ClueForward(features=features, probs=probs, weights=weights,
                       indicators=np.argmax(weights.data, axis=-1))
