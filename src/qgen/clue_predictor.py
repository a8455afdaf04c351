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
from .features import Batch


def build_adjacency(batch: Batch) -> np.ndarray:
    """(N, N) (A + I) / degree over the N tokens of `batch`, passage after
    passage: each passage's undirected tree is a block on the diagonal."""
    heads = batch.heads
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


def gumbel_noise(rng: np.random.Generator | None, shape) -> np.ndarray:
    """Gumbel noise -log(-log(u)) of uniform draws u = `rng.random(shape)`,
    clipped off 0 and 1: the one source of clue noise."""
    if rng is None:
        raise ConfigError("a clue pass in train or soft mode draws Gumbel noise: pass gumbel_rng")
    u = np.clip(rng.random(shape), 1e-12, 1.0 - 1e-12)
    return -np.log(-np.log(u))


def gumbel_softmax_sample(logits: Tensor, tau: float, rng: np.random.Generator) -> Tensor:
    """Relaxed categorical sample y = softmax((log-probs + gumbel noise) / tau),
    rows summing to 1.

    Row-constant log-normalization cancels inside the softmax, so the raw
    logits are used directly.
    """
    if tau <= 0:
        raise ConfigError(f"gumbel temperature must be positive, got {tau}")
    return ad.softmax(ad.mul(ad.add(logits, gumbel_noise(rng, logits.shape)), 1.0 / tau))


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
                       tau: float, rng: np.random.Generator, mode: str) -> ClueForward:
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
        weights = gumbel_softmax_sample(logits, tau, rng)
        if mode == "train":
            weights = st_discretize(weights)
    else:
        raise ConfigError(f"clue predictor mode must be train/eval/soft, got {mode!r}")
    return ClueForward(features=features, probs=probs, weights=weights,
                       indicators=np.argmax(weights.data, axis=-1))
