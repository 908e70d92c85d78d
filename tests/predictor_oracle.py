"""Per-array reference implementation of the predictor's training step.

Every weight is its own array in a name -> array dict: ``forward`` gathers
each embedding table on its own and concatenates, ``backward`` sums each
table's gradient with ``np.unique`` and ``np.add.at``, and the accumulator
steps one array at a time. ``train`` is the alternating dual-stream loop
on these pieces. ``ltvrank.predictor`` must match it bit for bit.
"""

import numpy as np

from ltvrank.predictor import (
    FEATURE_FIELDS,
    HEAD_SPECS,
    VOCAB,
    TrainingDiverged,
    _batches,
    _init_rng,
    _layout,
    _loss_grad,
    _transform,
    _transform_grad,
    loss_value,
)


def init_arrays(config, heads):
    """The initial weights, drawn one array at a time in draw order."""
    rng = _init_rng(config.seed)
    d = config.embedding_dim
    arrays = {f"emb/{f}": rng.normal(0.0, 0.1, size=(VOCAB[f] + 1, d)) for f in FEATURE_FIELDS}
    for name, shape, std in _layout(d, *config.hidden_sizes, config.tower_size, heads):
        arrays[name] = np.zeros(shape) if std is None else rng.normal(0.0, std, size=shape)
    return arrays


def forward(a, features, heads):
    embs = [a[f"emb/{f}"][features[:, i]] for i, f in enumerate(FEATURE_FIELDS)]
    x = np.concatenate(embs, axis=1)
    z1 = x @ a["backbone/W1"] + a["backbone/b1"]
    h1 = np.maximum(z1, 0.0)
    z2 = h1 @ a["backbone/W2"] + a["backbone/b2"]
    h2 = np.maximum(z2, 0.0)
    preds, head_cache = {}, {}
    for head in heads:
        zt = h2 @ a[f"tower/{head}/W"] + a[f"tower/{head}/b"]
        ht = np.maximum(zt, 0.0)
        z = ht @ a[f"tower/{head}/wo"] + a[f"tower/{head}/bo"][0]
        out = _transform(z, HEAD_SPECS[head][0])
        preds[head] = out
        head_cache[head] = (zt, ht, z, out)
    return preds, (features, x, z1, h1, z2, h2, head_cache)


def backward(a, cache, head_grads, shared=True):
    features, x, z1, h1, z2, h2, head_cache = cache
    grads = {}
    dh2 = np.zeros_like(h2)
    for head, dpred in head_grads.items():
        zt, ht, z, out = head_cache[head]
        dz = dpred * _transform_grad(z, out, HEAD_SPECS[head][0])
        grads[f"tower/{head}/wo"] = ht.T @ dz
        grads[f"tower/{head}/bo"] = np.array([dz.sum()])
        dzt = np.outer(dz, a[f"tower/{head}/wo"]) * (zt > 0)
        grads[f"tower/{head}/W"] = h2.T @ dzt
        grads[f"tower/{head}/b"] = dzt.sum(axis=0)
        if shared:
            dh2 += dzt @ a[f"tower/{head}/W"].T
    if not shared:
        return grads
    dz2 = dh2 * (z2 > 0)
    grads["backbone/W2"] = h1.T @ dz2
    grads["backbone/b2"] = dz2.sum(axis=0)
    dz1 = (dz2 @ a["backbone/W2"].T) * (z1 > 0)
    grads["backbone/W1"] = x.T @ dz1
    grads["backbone/b1"] = dz1.sum(axis=0)
    dx = dz1 @ a["backbone/W1"].T
    d = a["emb/user"].shape[1]
    for i, f in enumerate(FEATURE_FIELDS):
        rows, inverse = np.unique(features[:, i], return_inverse=True)
        values = np.zeros((len(rows), d))
        np.add.at(values, inverse, dx[:, i * d:(i + 1) * d])
        grads[f"emb/{f}"] = (rows, values)
    return grads


class Accumulator:
    """Decayed squared-gradient accumulation, one array per name."""

    def __init__(self, arrays, lr, decay, eps=1e-8):
        self.lr, self.decay, self.eps = lr, decay, eps
        self.acc = {k: np.zeros_like(v) for k, v in arrays.items()}
        self.steps = 0

    def step(self, arrays, grads):
        for name, g in grads.items():
            rows, g = g if isinstance(g, tuple) else (..., g)
            acc = self.acc[name]
            acc *= self.decay
            acc[rows] += g * g
            arrays[name][rows] -= self.lr * g / (np.sqrt(acc[rows]) + self.eps)
        self.steps += 1


def train(days, config, heads):
    """The dual-stream loop of ``predictor.train`` on the per-array pieces.
    Returns (arrays, accumulator, trace)."""
    arrays = init_arrays(config, heads)
    opt = Accumulator(arrays, config.learning_rate, config.accumulator_decay)
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, 0x7261)))
    standard = tuple(h for h in heads if h != "author")
    trace = []

    def step(data, idx, step_heads, shared, sums, counts, epoch):
        active = tuple(h for h in step_heads if h in data.labels)
        if not active:
            return
        preds, cache = forward(arrays, data.features[idx], active)
        head_grads = {}
        for h in active:
            y = data.labels[h][idx]
            name = HEAD_SPECS[h][1]
            value = loss_value(name, preds[h], y, config.lam, config.rho)
            if not np.isfinite(value):
                raise TrainingDiverged(h, epoch, opt.steps, {})
            sums[h] += value
            counts[h] += 1
            head_grads[h] = _loss_grad(name, preds[h], y, config.lam, config.rho)
        opt.step(arrays, backward(arrays, cache, head_grads, shared=shared))

    for epoch in range(config.epochs):
        sums = {h: 0.0 for h in heads}
        counts = {h: 0 for h in heads}
        for std, delayed in days:
            std_batches = _batches(rng, len(std), config.batch_size)
            del_batches = _batches(rng, len(delayed), config.batch_size) if delayed else []
            di = 0
            for bi, idx in enumerate(std_batches):
                step(std, idx, standard, True, sums, counts, epoch)
                if del_batches and bi % max(1, len(std_batches) // len(del_batches)) == 0 \
                        and di < len(del_batches):
                    step(delayed, del_batches[di], ("author",), False, sums, counts, epoch)
                    di += 1
            for rest in del_batches[di:]:
                step(delayed, rest, ("author",), False, sums, counts, epoch)
        trace.append({h: sums[h] / counts[h] for h in heads if counts[h]})
    return arrays, opt, trace
