"""The one-example-at-a-time forward pass and losses, kept as the reference
for the batched path.

Every GRU and decoder step here is its own graph over one (1, width) row:
the encoder runs each direction over one passage, the decoder runs its
whole step (GRU, attention, readout, maxout, dropout, softmax, copy gate)
once per question token, and the losses add a few nodes per step.
Dropout multipliers and Gumbel noise are drawn where the computation
reaches them.

`sub`, `slice_`, `maximum`, `attention_scores`, the masked `softmax` and
`member_major` are graph nodes, built on `ad._node`, that only these
oracles use, so the core does not keep them; tensor indexing is an
explicit `slice_` call.  `gru_step_unfused` is the GRU step as the graph of
small nodes that the one-node `ad.gru` must reproduce byte for byte, step
after step, and `attention_gru_unfused` the decoder's recurrence as the
graph per step that the one-node `ad.attention_gru` must reproduce.
`pairwise_max` (two `slice_` nodes and a `maximum`) is the graph whose
bytes the one-node `ad.maxout` must reproduce, NaN aside.
`beam_select` is a beam step's choice of survivors in its first, plainer
form: the whole (K, surfaces) table from `surface_merge`, each row's
proposals from `top_k` and a stable sort of their scores, which
`beam.SurfaceTable.select` must reproduce byte for byte.  `sigmoid` and
`maximum` are the `np.where` forms of `ad`'s branch-free sigmoid and of
the maximum in `ad.maxout`.  `embed_unfused` is the passage embedding as one
`gather_rows` node per table and a `concat`, the graph whose bytes and
table gradients the one-node `ad.embed` must reproduce.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

import qgen.autodiff as ad
from qgen.autodiff import Tensor
from qgen.corpus import SOS, SPECIAL_TOKENS
from qgen.training import PROB_FLOOR


def _dropout(x, p, mode, rng):
    if mode == "eval" or p == 0:
        return x
    return ad.dropout(x, ad.dropout_keep(rng, x.shape, p, x.data.dtype))


def embed_unfused(tables, ids):
    """Column k of `ids` gathered from table k, the tables side by side."""
    return ad.concat([ad.gather_rows(t, ids[:, k]) for k, t in enumerate(tables)], axis=1)


def sub(a, b):
    """a - b, with `ad.add`'s broadcasting."""
    a, b = ad._operands((a, b))
    ad._check_broadcast(a.data, b.data, "sub")

    def bw(g):
        if a.requires_grad:
            a._accumulate(ad._unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(ad._unbroadcast(-g, b.shape))

    return ad._node(a.data - b.data, (a, b), "sub", bw)


def slice_(a, key):
    """a.data[key], for an index that names each entry at most once;
    backward scatters into a's gradient buffer."""
    a = ad._as_tensor(a)

    def bw(g):
        if a.requires_grad:
            a._grad_buffer()[key] += g

    return ad._node(a.data[key].copy(), (a,), "slice", bw)


def maximum(a, b):
    """The larger of two same-shape tensors, a where they are equal, in the
    `np.where` form; the gradient goes to a where a >= b, else to b."""
    a, b = ad._operands((a, b))
    if a.shape != b.shape:
        raise ad.TensorError(f"maximum: shapes {a.shape} and {b.shape} differ")
    take_a = a.data >= b.data

    def bw(g):
        if a.requires_grad:
            a._accumulate(g * take_a)
        if b.requires_grad:
            b._accumulate(g * ~take_a)

    return ad._node(np.where(take_a, a.data, b.data), (a, b), "maximum", bw)


def softmax(a, mask=None):
    """Stable softmax over the last axis; entries where the boolean `mask`
    (True = keep), of `a`'s shape, is False are exactly 0.  Raises if every
    entry of a row is masked."""
    a = ad._as_tensor(a)
    x = a.data
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != x.shape:
            raise ad.TensorError(f"softmax mask shape {mask.shape} != input shape {x.shape}")
        if not mask.any(axis=-1).all():
            raise ad.TensorError("softmax: all entries masked")
        x = np.where(mask, x, -np.inf)
    y = np.exp(x - np.max(x, axis=-1, keepdims=True))
    y = y / y.sum(axis=-1, keepdims=True)

    def bw(g):
        if a.requires_grad:
            inner = (g * y).sum(axis=-1, keepdims=True)
            a._accumulate(y * (g - inner))

    return ad._node(y, (a,), "softmax", bw)


def member_major(steps):
    """The (m, d) tensors of a recurrence's steps stacked member after
    member, (m * steps, d), row b * steps + t being row b of step t: a
    `concat` along the columns, read as rows by a node of its own."""
    wide = ad.concat(steps, axis=1)

    def bw(g):
        wide._accumulate(g.reshape(wide.shape))

    return ad._node(wide.data.reshape(-1, steps[0].shape[1]), (wide,), "member_major", bw)


def attention_scores(keys, query, v, blocks=1):
    """Additive attention scores v . tanh(key + query), (m, n), as their own
    node: keys is (blocks * n, a), and the (m, a) query rows split into
    `blocks` equal groups in order, group b scoring key group b only.  The
    (m, n, a) activation is one broadcast sum of keys and queries, and
    backward reads it."""
    keys, query, v = ad._operands((keys, query, v))
    if (keys.ndim != 2 or query.ndim != 2 or v.shape != keys.shape[1:]
            or query.shape[1] != keys.shape[1] or blocks < 1
            or keys.shape[0] % blocks or query.shape[0] % blocks):
        raise ad.TensorError(f"attention_scores: keys {keys.shape}, query {query.shape}, "
                             f"v {v.shape} and {blocks} blocks do not match")
    (m, a), n = query.shape, keys.shape[0] // blocks
    t = np.tanh(keys.data.reshape(blocks, 1, n, a) + query.data.reshape(blocks, -1, 1, a))
    t = t.reshape(m, n, a)

    def bw(g):
        if v.requires_grad:
            v._accumulate(np.tensordot(g, t, axes=2))
        d = np.subtract(1.0, t * t)
        d *= g[:, :, None] * v.data
        if keys.requires_grad:
            keys._accumulate(d.reshape(blocks, -1, n, a).sum(axis=1).reshape(keys.shape))
        if query.requires_grad:
            query._accumulate(d.sum(axis=1))

    return ad._node(t @ v.data, (keys, query, v), "attention_scores", bw)


def attention_gru_unfused(gates, w_zr, w_cand, h0, alpha0, values, keys, w_s, v, rows=None,
                          mask=None):
    """`ad.attention_gru` as a graph per step: the context share
    `attention_context(alpha_{t-1}, values)`, the GRU step node by node
    (`gru_step_unfused`) over a `slice_` of rows `rows[t]` of `gates` (all
    of them in one step without `rows`), a `linear` by `w_s`, the
    `attention_scores` of `keys` and the masked `softmax`; then a
    `member_major` stack of the states and one of the weights.  `mask` is
    (blocks, n)."""
    n = alpha0.shape[1]
    blocks = keys.shape[0] // n
    per = h0.shape[0] // blocks
    mask = None if mask is None else np.repeat(mask, per, axis=0)
    h, alpha, states, weights = h0, alpha0, [], []
    for key in [None] if rows is None else rows:
        shares = gates if key is None else slice_(gates, key)
        h = gru_step_unfused(shares, h, w_zr, w_cand, ad.attention_context(alpha, values))
        alpha = softmax(attention_scores(keys, ad.linear(h, w_s), v, blocks), mask)
        states.append(h)
        weights.append(alpha)
    return member_major(states), member_major(weights)


def pairwise_max(r):
    """`ad.maxout` unfused: a `slice` node for each column of the pairs of
    the last axis, then a `maximum` node."""
    return maximum(slice_(r, np.s_[..., 0::2]), slice_(r, np.s_[..., 1::2]))


def gru_cell(x, h_prev, p):
    """GRU update over [x; h], each gate one product over the whole row by
    its row block of the stacked weight [W_x; W_s], put together from the
    GRU's parameters: W_x is `w_x`, or [w_x | w_c] on the decoder's
    [word; context] input, and W_s is [w_zr; w_cand]."""
    hidden = h_prev.shape[1]
    w_in = p.w_x if p.w_c is None else ad.concat([p.w_x, p.w_c], axis=1)
    w = ad.concat([w_in, ad.concat([p.w_zr, p.w_cand])], axis=1)
    w_z, w_r, w_h = (slice_(w, slice(i * hidden, (i + 1) * hidden)) for i in range(3))
    b_z, b_r, b_h = (slice_(p.b, slice(i * hidden, (i + 1) * hidden)) for i in range(3))
    xh = ad.concat([x, h_prev], axis=-1)
    z = ad.sigmoid(ad.add(ad.linear(xh, w_z), b_z))
    r = ad.sigmoid(ad.add(ad.linear(xh, w_r), b_r))
    xrh = ad.concat([x, ad.mul(r, h_prev)], axis=-1)
    h_cand = ad.tanh(ad.add(ad.linear(xrh, w_h), b_h))
    return ad.add(ad.mul(sub(1.0, z), h_prev), ad.mul(z, h_cand))


def gru_step_unfused(gates, h_prev, w_zr, w_cand, extra=None):
    """A step of `ad.gru` node by node: `extra` added to the step's shares, the
    two products, [z; r] over h by `w_zr` and the candidate over r h by
    `w_cand`, and the gate arithmetic are each their own `add`, `slice`,
    `linear`, `sigmoid`, `tanh`, `mul` or `sub` node; `gates` are this
    step's (m, 3 hidden) shares."""
    hidden = h_prev.shape[1]
    if extra is not None:
        gates = ad.add(gates, extra)
    x_zr, x_h = slice_(gates, np.s_[:, :2 * hidden]), slice_(gates, np.s_[:, 2 * hidden:])
    zr = ad.sigmoid(ad.add(x_zr, ad.linear(h_prev, w_zr)))
    z, r = slice_(zr, np.s_[:, :hidden]), slice_(zr, np.s_[:, hidden:])
    h_cand = ad.tanh(ad.add(x_h, ad.linear(ad.mul(r, h_prev), w_cand)))
    return ad.add(ad.mul(sub(1.0, z), h_prev), ad.mul(z, h_cand))


def encode(features, forward_params, backward_params, dropout_p=0.0, mode="eval", rng=None):
    """(states (n, 2H), last_backward (1, H)) of one passage."""
    n, hidden = features.shape[0], forward_params.w_cand.shape[0]
    features = _dropout(features, dropout_p, mode, rng)
    zero = Tensor(np.zeros((1, hidden), features.data.dtype))
    h, fwd = zero, []
    for i in range(n):
        h = gru_cell(slice_(features, slice(i, i + 1)), h, forward_params)
        fwd.append(h)
    h, bwd = zero, [None] * n
    for i in reversed(range(n)):
        h = gru_cell(slice_(features, slice(i, i + 1)), h, backward_params)
        bwd[i] = h
    states = ad.concat([ad.concat(fwd, axis=0), ad.concat(bwd, axis=0)], axis=1)
    return _dropout(states, dropout_p, mode, rng), bwd[0]


def decode_step(w_prev, c_prev, s_prev, enc_states, keys, p, mode, dropout_p, rng):
    """One decoder step of one-row inputs: (s, c, gen, copy, gate), gate (1,)."""
    s_t = gru_cell(ad.concat([w_prev, c_prev], axis=-1), s_prev, p.gru)
    alpha = softmax(attention_scores(keys, ad.linear(s_t, p.w_s), p.v))
    context = ad.matmul(alpha, enc_states)
    r_t = ad.add(ad.add(ad.linear(w_prev, p.w_rw), ad.linear(context, p.w_rc)),
                 ad.linear(s_t, p.w_rs))
    m_t = _dropout(pairwise_max(r_t), dropout_p, mode, rng)
    gen = ad.softmax(ad.linear(m_t, p.w_out))
    gate = ad.sigmoid(ad.add(ad.add(ad.matmul(s_t, p.w_cs), ad.matmul(context, p.w_cc)), p.b_gate))
    return SimpleNamespace(s=s_t, c=context, gen=gen, copy=alpha, gate=gate)


def teacher_forced_unroll(question, word_row, words, enc_states, last_backward, p,
                          mode="eval", dropout_p=0.0, rng=None):
    """len(question) + 1 steps, the last one predicting <EOS>."""
    s = ad.tanh(ad.add(ad.linear(last_backward, p.w_init), p.b_init))
    c = Tensor(np.zeros((1, enc_states.shape[1]), enc_states.data.dtype))
    keys = ad.linear(enc_states, p.w_h)
    w_prev = ad.gather_rows(words, [SPECIAL_TOKENS.index(SOS)])
    steps = []
    for t in range(len(question) + 1):
        step = decode_step(w_prev, c, s, enc_states, keys, p, mode, dropout_p, rng)
        steps.append(step)
        if t < len(question):
            w_prev = ad.gather_rows(words, [word_row(question[t])])
            s, c = step.s, step.c
    return steps


def _neg_log(p):
    return ad.neg(ad.log(ad.clamp_min(p, PROB_FLOOR)))


def _mean(terms):
    """Mean of (1,) terms."""
    return ad.mean_(ad.concat(terms))


def sequence_losses(steps, example):
    """(generation CE, copy-gate CE), each averaged over decode steps."""
    n = len(example.base.passage)
    gate_terms, gen_terms = [], []
    copy_labels = list(example.question_copy_label) + [False]
    for t, step in enumerate(steps):
        if copy_labels[t]:
            gate_terms.append(_neg_log(step.gate))
            mask = np.zeros(n)
            mask[example.copy_alignment[t]] = 1.0
            gen_terms.append(_neg_log(ad.mul(step.gate, ad.matmul(step.copy, mask))))
        else:
            gate_terms.append(_neg_log(sub(1.0, step.gate)))
            p_gen = slice_(step.gen, np.s_[:, example.question_target_id[t]])
            gen_terms.append(_neg_log(ad.mul(sub(1.0, step.gate), p_gen)))
    return _mean(gen_terms), _mean(gate_terms)


def example_losses(model, example, gumbel_rng=None, dropout_rng=None, mode="train"):
    """One example's scalar losses, its steps and its clue pass; `mode` as
    in `QgModel.forward`."""
    cfg = model.config
    clue = model.predict_clues(model.embedder.collate([example.base]), gumbel_rng, mode=mode)
    features = model.embedder.append_clue_slot(clue.features, clue.weights)
    states, last_backward = encode(features, model.enc_fwd, model.enc_bwd, cfg.dropout, mode,
                                   dropout_rng)
    steps = teacher_forced_unroll(example.base.question, model.embedder.decoder_word_row_id,
                                  model.params["embed.word"], states, last_backward,
                                  model.dec, mode, cfg.dropout, dropout_rng)
    gold = np.eye(2)[np.asarray(example.passage_clue_label, dtype=int)]
    loss_clue = ad.mean_(_neg_log(ad.sum_(ad.mul(clue.probs, gold), axis=1)))
    loss_gen, loss_gate = sequence_losses(steps, example)
    total = ad.add(ad.add(ad.mul(loss_clue, cfg.lambda_clue), ad.mul(loss_gen, cfg.lambda_gen)),
                   ad.mul(loss_gate, cfg.lambda_gate))
    return SimpleNamespace(loss_clue=loss_clue, loss_gen=loss_gen, loss_gate=loss_gate,
                           total=total, steps=steps, clue=clue)


def batch_loss(model, batch, gumbel_rng=None, dropout_rng=None, **kwargs):
    """(the batch's mean total, each example's losses), one example at a time."""
    per_example = [example_losses(model, ex, gumbel_rng, dropout_rng, **kwargs) for ex in batch]
    # a 0-d total times ones(1) is the same value as a (1,) term
    return _mean([ad.mul(r.total, np.ones(1)) for r in per_example]), per_example


def surface_merge(table, dist):
    """(K, surfaces) float64 emission probabilities as one `np.bincount`
    over every source of `table` (a `beam.SurfaceTable`): each column adds
    its generation term first, then its copy terms in passage order."""
    gate = dist.gate.data.astype(np.float64)[:, None]
    terms = np.concatenate([(1.0 - gate) * dist.gen.data[:, table.gen_ids],
                            gate * dist.copy.data], axis=1)
    k, width = len(terms), len(table.tokens)
    bins = (np.arange(k)[:, None] * width + table.columns).ravel()
    return np.bincount(bins, terms.ravel(), minlength=k * width).reshape(k, width)


def top_k(probs, k):
    """Column indices of each row's k largest entries, largest first and
    equal values in column order: a partition at the k-th largest value,
    then a sort of the entries at least that large."""
    k = min(k, probs.shape[1])
    kth = -np.partition(-probs, k - 1, axis=1)[:, k - 1:k]
    rows, cols = np.nonzero(probs >= kth)
    order = np.lexsort((cols, -probs[rows, cols], rows))   # by row, then as argsort
    counts = np.bincount(rows, minlength=len(probs))
    return cols[order][(np.cumsum(counts) - counts)[:, None] + np.arange(k)]


def beam_select(table, dist, log_probs, length, k):
    """(rows, columns, log-probabilities) of the k best extensions, best
    first: each row proposes its k likeliest surfaces, and the k best
    proposals by score survive, ties in row-then-proposal order."""
    probs = surface_merge(table, dist)
    proposals = top_k(probs, k)
    lp = (log_probs[:, None] + np.log(
        np.maximum(np.take_along_axis(probs, proposals, axis=1), PROB_FLOOR))).ravel()
    best = np.argsort(-(lp / length), kind="stable")[:k]
    return best // proposals.shape[1], proposals.ravel()[best], lp[best]


def sigmoid(x):
    """1/(1+e) for x >= 0 and e/(1+e) below, with e = exp(-|x|)."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)

