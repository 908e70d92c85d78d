"""Compact multi-head predictor trained by manual gradient descent.

Shared hashed embedding tables and a two-layer backbone feed per-task
towers: quantile label (bounded), raw slide time, attributed slide time,
author value, watch time, completion, interaction. Positive-target heads
use an exponential output transform so the Tweedie loss is well defined.
Author-head steps never touch shared parameters (stop gradient): an
author-only update leaves embeddings and backbone bitwise unchanged.

The weights live in two packed buffers. ``PredictorParams.emb`` is one
``(EMB_ROWS, d)`` block holding the five embedding tables, field ``i``'s
table from row ``EMB_OFFSETS[i]``; ``PredictorParams.dense`` is one flat
buffer holding the backbone, then each head's tower, the ``author`` tower
last. ``params.arrays`` maps each array's name to a view of its slice, so
a standard step's dense gradient covers one contiguous slice and an
author-only step's another. The optimizer's accumulators share the
layout.

The embedding tables are row-sparse wherever a batch or the artifact
touches them: ``forward`` gathers a batch's rows of all five tables in one
``np.take``; ``backward`` sums their gradients in one ``np.bincount`` over
the sorted distinct rows the batch's ids hash to; the optimizer decays the
whole block and updates only those rows; and ``params.txt`` stores only the
rows that differ from the seeded initial draw, which the loader redraws
from the recorded seed.

``train`` allocates one ``Workspace`` per call: every batch-sized
intermediate of ``forward`` and ``backward`` of 128 KiB or more at the
default sizes, plus the dense gradient, is written into it with ``out=``
(the last short batch uses leading rows), so a step allocates only small
temporaries. ``predict`` and direct calls allocate a workspace per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import artifacts
from .pdq import page_groups

FEATURE_FIELDS = ("user", "video", "author", "category", "page_group")

#: the dataset columns of the raw ids, one per ``FEATURE_FIELDS`` entry
ID_COLUMNS = ("user_id", "video_id", "author_id", "category_id", "page_index")

#: head name -> (output transform, training loss)
HEAD_SPECS: dict[str, tuple[str, str]] = {
    "pdq": ("sigmoid", "mse"),
    "slide": ("identity", "mse"),
    "attr": ("exp", "hybrid"),
    "author": ("exp", "hybrid"),
    "watch": ("exp", "hybrid"),
    "completion": ("sigmoid", "mse"),
    "interaction": ("sigmoid", "mse"),
}

_HASH_MULT = 2654435761  # Knuth multiplicative hashing

#: field -> hashed vocabulary size; each embedding table has one more row,
#: reserved and never hashed to
VOCAB = {"user": 4096, "video": 8192, "author": 1024, "category": 256, "page_group": 16}

#: the ``V`` record of ``params.txt``
_VOCAB_FIELD = ",".join(f"{f}:{VOCAB[f]}" for f in FEATURE_FIELDS)

_TABLE_ROWS = np.array([VOCAB[f] + 1 for f in FEATURE_FIELDS], dtype=np.int64)

#: the first row of each field's table in the packed embedding block
EMB_OFFSETS = np.concatenate([[0], np.cumsum(_TABLE_ROWS)[:-1]])

#: rows of the packed embedding block
EMB_ROWS = int(_TABLE_ROWS.sum())

_BACKBONE = ("backbone/W1", "backbone/b1", "backbone/W2", "backbone/b2")
_TOWER = ("W", "b", "wo", "bo")


class TrainingDiverged(RuntimeError):
    """A head's batch loss went non-finite; ``step`` is the index of the
    optimizer step that computed it, and ``grad_norms`` the L2 norm of that
    step's gradient for each active head's tower and, on a shared step,
    for the backbone."""

    def __init__(self, head: str, epoch: int, step: int, grad_norms: dict[str, float]):
        norms = ", ".join(f"{name}={value!r}" for name, value in grad_norms.items())
        super().__init__(f"non-finite loss on head {head!r} at epoch {epoch}, "
                         f"optimizer step {step}; gradient L2 norms: {norms}")
        self.head = head
        self.epoch = epoch
        self.step = step
        self.grad_norms = grad_norms


@dataclass
class TrainConfig:
    batch_size: int = 512
    learning_rate: float = 0.05
    epochs: int = 3
    lam: float = 0.1          # hybrid-loss Tweedie weight
    rho: float = 1.5          # Tweedie power
    accumulator_decay: float = 0.9999
    embedding_dim: int = 16
    hidden_sizes: tuple[int, int] = (64, 32)
    tower_size: int = 16
    seed: int = 0

    def validate(self) -> None:
        if not 1.0 < self.rho < 2.0:
            raise ValueError(f"rho must be in (1,2), got {self.rho}")
        if self.lam < 0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.embedding_dim < 1:
            raise ValueError(f"embedding_dim must be >= 1, got {self.embedding_dim}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError(f"learning_rate must be finite and >= 0, "
                             f"got {self.learning_rate}")
        if not 0.0 < self.accumulator_decay <= 1.0:
            raise ValueError(f"accumulator_decay must be in (0, 1], "
                             f"got {self.accumulator_decay}")


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

class PredictorParams:
    """All weights, packed into ``emb`` and ``dense`` (see the module
    docstring) and addressable by name through the views of ``arrays``.
    ``blocks`` maps ``"backbone"`` and each head to its ``(lo, hi)`` slice of
    ``dense``. ``seed`` is the seed of the initial draw, from which
    ``load_params`` redraws the embedding rows that ``params.txt`` leaves
    out."""

    def __init__(self, arrays: dict[str, np.ndarray], heads: tuple[str, ...], seed: int):
        """Pack copies of ``arrays``, which holds the names ``init`` gives."""
        emb = np.empty((EMB_ROWS, arrays["emb/user"].shape[1]))
        for name, table in _table_views(emb).items():
            table[...] = arrays[name]
        self._pack(emb, arrays, tuple(heads), seed)

    @classmethod
    def _packed(cls, emb: np.ndarray, dense: dict[str, np.ndarray], heads, seed: int):
        """Params over the embedding block ``emb``, which they take without a
        copy, and copies of the ``dense`` arrays."""
        params = cls.__new__(cls)
        params._pack(emb, dense, tuple(heads), seed)
        return params

    def _pack(self, emb, dense, heads, seed) -> None:
        self.emb = emb
        self.heads = heads
        self.seed = seed
        names = _dense_names(heads)
        ends = np.cumsum([dense[name].size for name in names]).tolist()
        self.spans = {name: (end - dense[name].size, end) for name, end in zip(names, ends)}
        self.shapes = {name: dense[name].shape for name in names}
        self.blocks = {"backbone": (0, self.spans[_BACKBONE[-1]][1])}
        self.blocks.update((h, (self.spans[f"tower/{h}/W"][0], self.spans[f"tower/{h}/bo"][1]))
                           for h in heads)
        self.dense = np.empty(ends[-1])
        self.arrays = {**_table_views(emb), **self.dense_views(self.dense)}
        for name in names:
            self.arrays[name][...] = dense[name]

    def dense_views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Name -> view of each dense array's slice of ``flat``, a buffer
        laid out like ``dense``."""
        return {name: flat[lo:hi].reshape(self.shapes[name])
                for name, (lo, hi) in self.spans.items()}

    @classmethod
    def init(cls, config: TrainConfig, heads=None) -> "PredictorParams":
        heads = tuple(heads) if heads is not None else tuple(HEAD_SPECS)
        rng = _init_rng(config.seed)
        emb = _init_embeddings(rng, config.embedding_dim)
        dense = {name: np.zeros(shape) if std is None else rng.normal(0.0, std, size=shape)
                 for name, shape, std in _layout(config.embedding_dim, *config.hidden_sizes,
                                                 config.tower_size, heads)}
        return cls._packed(emb, dense, heads, config.seed)


def _dense_names(heads) -> tuple[str, ...]:
    """The dense arrays in ``PredictorParams.dense`` order: the backbone, then
    each head's tower, the ``author`` tower last."""
    ordered = [h for h in heads if h != "author"] + [h for h in heads if h == "author"]
    return _BACKBONE + tuple(f"tower/{h}/{p}" for h in ordered for p in _TOWER)


def _table_views(emb: np.ndarray) -> dict[str, np.ndarray]:
    """``emb/<field>`` -> the view of that field's table in the block ``emb``."""
    return {f"emb/{f}": emb[lo:lo + rows]
            for f, lo, rows in zip(FEATURE_FIELDS, EMB_OFFSETS.tolist(), _TABLE_ROWS.tolist())}


def _init_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed))


def _init_embeddings(rng: np.random.Generator, d: int) -> np.ndarray:
    """The initial embedding block: the first draws of ``PredictorParams.init``,
    one table after the other."""
    emb = np.empty((EMB_ROWS, d))
    for table in _table_views(emb).values():
        table[...] = rng.normal(0.0, 0.1, size=table.shape)
    return emb


def _layout(d: int, h1: int, h2: int, ht: int, heads):
    """(name, shape, init std) of every array but the embeddings, in draw
    order; a std of None means zeros, which draw nothing."""
    din = d * len(FEATURE_FIELDS)
    yield "backbone/W1", (din, h1), np.sqrt(2.0 / din)
    yield "backbone/b1", (h1,), None
    yield "backbone/W2", (h1, h2), np.sqrt(2.0 / h1)
    yield "backbone/b2", (h2,), None
    for head in heads:
        yield f"tower/{head}/W", (h2, ht), np.sqrt(2.0 / h2)
        yield f"tower/{head}/b", (ht,), None
        yield f"tower/{head}/wo", (ht,), np.sqrt(1.0 / ht)
        yield f"tower/{head}/bo", (1,), None


def encode_features(raw_ids) -> np.ndarray:
    """Hash an (n, 5) array of raw ``ID_COLUMNS`` ids to index rows of the
    ``FEATURE_FIELDS``; the page index becomes its ``pdq.PAGE_GROUPS`` group."""
    ids = np.array(raw_ids, dtype=np.int64).reshape(-1, len(FEATURE_FIELDS))
    ids[:, 4] = page_groups(ids[:, 4])
    v = np.array([VOCAB[f] for f in FEATURE_FIELDS], dtype=np.int64)
    # reducing both factors first keeps the product far below 2**63
    return (ids % v) * (_HASH_MULT % v) % v


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------

class Workspace:
    """Buffers that ``forward`` and ``backward`` write into: each is made on
    first use with ``rows`` rows, and a batch of ``n <= rows`` rows uses its
    first ``n``. ``grads`` is the dense gradient buffer and its views. A
    second step overwrites what the first wrote, its ``backward`` result
    included."""

    def __init__(self, rows: int):
        self.rows = rows
        self.buffers: dict[str, np.ndarray] = {}
        self.grads: tuple[np.ndarray, dict[str, np.ndarray]] | None = None

    def take(self, name: str, n: int, *shape: int, dtype=np.float64) -> np.ndarray:
        buf = self.buffers.get(name)
        if buf is None:
            buf = self.buffers[name] = np.empty((self.rows, *shape), dtype)
        return buf[:n]


def _transform(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "sigmoid":
        return 1.0 / (1.0 + np.exp(-z))
    if kind == "exp":
        return np.exp(np.minimum(z, 30.0))
    if kind == "identity":
        return z
    raise ValueError(f"unknown transform {kind!r}")


def _transform_grad(z: np.ndarray, out: np.ndarray, kind: str) -> np.ndarray:
    if kind == "sigmoid":
        return out * (1.0 - out)
    if kind == "exp":
        return np.where(z < 30.0, out, 0.0)
    if kind == "identity":
        return np.ones_like(z)
    raise ValueError(f"unknown transform {kind!r}")


def forward(params: PredictorParams, features: np.ndarray, heads=None,
            work: Workspace | None = None):
    """Batch forward pass. Returns (predictions dict, cache for backward).
    The backbone's intermediates go to ``work`` (a fresh one by default)."""
    heads = tuple(heads) if heads is not None else params.heads
    work = work if work is not None else Workspace(len(features))
    a = params.arrays
    n, d = len(features), params.emb.shape[1]
    if n and (features.min() < 0 or (features > _TABLE_ROWS - 1).any()):
        raise IndexError("feature ids must lie in [0, VOCAB[field]]")
    # in range, so "clip" never clips; unlike "raise" it writes out= unbuffered
    x = np.take(params.emb, features + EMB_OFFSETS, axis=0, mode="clip",
                out=work.take("x", n, len(FEATURE_FIELDS), d)).reshape(n, -1)
    z1 = np.matmul(x, a["backbone/W1"], out=work.take("z1", n, a["backbone/b1"].size))
    z1 += a["backbone/b1"]
    h1 = np.maximum(z1, 0.0, out=work.take("h1", n, z1.shape[1]))
    z2 = np.matmul(h1, a["backbone/W2"], out=work.take("z2", n, a["backbone/b2"].size))
    z2 += a["backbone/b2"]
    h2 = np.maximum(z2, 0.0, out=work.take("h2", n, z2.shape[1]))
    preds: dict[str, np.ndarray] = {}
    head_cache: dict[str, tuple] = {}
    for head in heads:
        zt = h2 @ a[f"tower/{head}/W"] + a[f"tower/{head}/b"]
        ht = np.maximum(zt, 0.0)
        z = ht @ a[f"tower/{head}/wo"] + a[f"tower/{head}/bo"][0]
        out = _transform(z, HEAD_SPECS[head][0])
        preds[head] = out
        head_cache[head] = (zt, ht, z, out)
    cache = (features, x, z1, h1, z2, h2, head_cache)
    return preds, cache


def predict(params: PredictorParams, features: np.ndarray, heads=None,
            batch_size: int = 8192) -> dict[str, np.ndarray]:
    """Chunked inference over a feature matrix."""
    heads = tuple(heads) if heads is not None else params.heads
    outs = {h: [] for h in heads}
    for lo in range(0, len(features), batch_size):
        preds, _ = forward(params, features[lo:lo + batch_size], heads)
        for h in heads:
            outs[h].append(preds[h])
    return {h: np.concatenate(v) if v else np.empty(0) for h, v in outs.items()}


# ---------------------------------------------------------------------------
# Losses (batch means) and their gradients w.r.t. predictions
# ---------------------------------------------------------------------------

def mse_loss(pred: np.ndarray, label: np.ndarray) -> float:
    pred = np.asarray(pred, dtype=np.float64)
    label = np.asarray(label, dtype=np.float64)
    return float(np.mean((pred - label) ** 2))


def tweedie_loss(mu: np.ndarray, y: np.ndarray, rho: float = 1.5) -> float:
    """Compound Poisson-Gamma deviance surrogate for zero-inflated targets."""
    mu = np.asarray(mu, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if not 1.0 < rho < 2.0:
        raise ValueError(f"rho must be in (1,2), got {rho}")
    if np.any(mu <= 0):
        raise ValueError("tweedie loss requires mu > 0")
    if np.any(y < 0):
        raise ValueError("tweedie loss requires y >= 0")
    term = -y * mu ** (1.0 - rho) / (1.0 - rho) + mu ** (2.0 - rho) / (2.0 - rho)
    return float(np.mean(term))


def hybrid_loss(pred: np.ndarray, label: np.ndarray, lam: float = 0.1,
                rho: float = 1.5) -> float:
    """MSE plus lam-weighted Tweedie, both on the same predictions."""
    if lam < 0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    loss = mse_loss(pred, label)
    if lam > 0:
        loss += lam * tweedie_loss(pred, label, rho)
    return loss


def loss_value(name: str, pred, label, lam: float, rho: float) -> float:
    if name == "mse":
        return mse_loss(pred, label)
    if name == "tweedie":
        return tweedie_loss(pred, label, rho)
    if name == "hybrid":
        return hybrid_loss(pred, label, lam, rho)
    raise ValueError(f"unknown loss {name!r}")


def _loss_grad(name: str, pred: np.ndarray, label: np.ndarray, lam: float,
               rho: float) -> np.ndarray:
    n = len(pred)
    if name == "mse":
        return 2.0 * (pred - label) / n
    if name == "tweedie":
        return (pred ** (1.0 - rho) - label * pred ** (-rho)) / n
    if name == "hybrid":
        g = 2.0 * (pred - label) / n
        if lam > 0:
            g = g + lam * (pred ** (1.0 - rho) - label * pred ** (-rho)) / n
        return g
    raise ValueError(f"unknown loss {name!r}")


class Gradients(dict):
    """``backward``'s result: name -> gradient (see ``backward``), plus the
    packed form the optimizer applies. ``dense`` is laid out like
    ``PredictorParams.dense`` and holds gradients on its ``spans`` only;
    ``rows`` are the sorted distinct rows of the embedding block that the
    batch touched and ``values`` their gradients, both None on a
    stop-gradient step."""

    def __init__(self, dense: np.ndarray, spans: list[tuple[int, int]],
                 rows: np.ndarray | None = None, values: np.ndarray | None = None):
        super().__init__()
        self.dense = dense
        self.spans = spans
        self.rows = rows
        self.values = values


def backward(params: PredictorParams, cache, head_grads: dict[str, np.ndarray],
             shared: bool = True, work: Workspace | None = None) -> Gradients:
    """Gradients of the summed per-head losses w.r.t. parameters.

    ``head_grads`` maps head -> dLoss/dPrediction. With ``shared=False``
    only tower gradients are produced (stop-gradient step). Backbone and
    tower gradients are views of one dense buffer; an embedding table's
    gradient is ``(rows, values)``: the sorted distinct rows the batch's ids
    hash to, and each row's gradient, summed in batch order. Every other
    row's gradient is zero. Intermediates and the dense buffer come from
    ``work`` (a fresh one by default).
    """
    work = work if work is not None else Workspace(len(cache[0]))
    a = params.arrays
    features, x, z1, h1, z2, h2, head_cache = cache
    n = len(features)
    if work.grads is None:
        flat = np.empty_like(params.dense)
        work.grads = (flat, params.dense_views(flat))
    flat, views = work.grads
    grads = Gradients(flat, _merge_spans(
        [params.blocks[h] for h in head_grads] + ([params.blocks["backbone"]] if shared else [])))
    if shared:
        dh2 = work.take("dh2", n, h2.shape[1])
        dh2.fill(0.0)
        # each tower's share of dh2 passes through dz2's buffer, free until
        # the towers are done
        tower_dh2 = work.take("dz2", n, h2.shape[1])
    for head, dpred in head_grads.items():
        zt, ht, z, out = head_cache[head]
        dz = dpred * _transform_grad(z, out, HEAD_SPECS[head][0])
        np.matmul(ht.T, dz, out=views[f"tower/{head}/wo"])
        views[f"tower/{head}/bo"][0] = dz.sum()
        dht = np.outer(dz, a[f"tower/{head}/wo"])
        dzt = dht * (zt > 0)
        np.matmul(h2.T, dzt, out=views[f"tower/{head}/W"])
        np.sum(dzt, axis=0, out=views[f"tower/{head}/b"])
        grads.update((f"tower/{head}/{p}", views[f"tower/{head}/{p}"]) for p in _TOWER)
        if shared:
            dh2 += np.matmul(dzt, a[f"tower/{head}/W"].T, out=tower_dh2)
    if not shared:
        return grads
    dz2 = np.multiply(dh2, z2 > 0, out=work.take("dz2", n, h2.shape[1]))
    np.matmul(h1.T, dz2, out=views["backbone/W2"])
    np.sum(dz2, axis=0, out=views["backbone/b2"])
    dh1 = np.matmul(dz2, a["backbone/W2"].T, out=work.take("dh1", n, h1.shape[1]))
    dz1 = np.multiply(dh1, z1 > 0, out=work.take("dz1", n, h1.shape[1]))
    np.matmul(x.T, dz1, out=views["backbone/W1"])
    np.sum(dz1, axis=0, out=views["backbone/b1"])
    dx = np.matmul(dz1, a["backbone/W1"].T, out=work.take("dx", n, x.shape[1]))
    grads.update((name, views[name]) for name in _BACKBONE)
    # one segment sum over all five tables: segment ids number (row, column)
    # pairs of the touched rows, and bincount adds in batch order into zeros,
    # as np.add.at would
    d = params.emb.shape[1]
    rows, inverse = np.unique(features + EMB_OFFSETS, return_inverse=True)
    seg = work.take("seg", n, len(FEATURE_FIELDS), d, dtype=np.int64)
    np.add(inverse.reshape(n, -1, 1) * d, np.arange(d), out=seg)
    grads.rows = rows
    grads.values = np.bincount(seg.ravel(), weights=dx.ravel(),
                               minlength=len(rows) * d).reshape(len(rows), d)
    bounds = np.searchsorted(rows, np.append(EMB_OFFSETS, EMB_ROWS)).tolist()
    for i, f in enumerate(FEATURE_FIELDS):
        lo, hi = bounds[i], bounds[i + 1]
        grads[f"emb/{f}"] = (rows[lo:hi] - EMB_OFFSETS[i], grads.values[lo:hi])
    return grads


def _merge_spans(spans: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """``spans`` sorted, with adjacent ones joined."""
    merged: list[tuple[int, int]] = []
    for lo, hi in sorted(spans):
        if merged and merged[-1][1] == lo:
            lo = merged.pop()[0]
        merged.append((lo, hi))
    return merged


# ---------------------------------------------------------------------------
# Optimizer and training loop
# ---------------------------------------------------------------------------

class AdaptiveAccumulator:
    """Per-parameter squared-gradient accumulation with decay, packed like
    the parameters: ``emb`` and ``dense`` buffers, and ``acc`` mapping each
    name to its view. ``steps`` counts the steps taken."""

    def __init__(self, params: PredictorParams, lr: float, decay: float,
                 eps: float = 1e-8):
        self.lr = lr
        self.decay = decay
        self.eps = eps
        self.emb = np.zeros_like(params.emb)
        self.dense = np.zeros_like(params.dense)
        self.acc = {**_table_views(self.emb), **params.dense_views(self.dense)}
        self.steps = 0

    def step(self, params: PredictorParams, grads: Gradients) -> None:
        """Apply ``backward``'s gradients. The accumulators of every array
        with a gradient decay; of the embedding block only the touched rows
        are updated, which is bitwise the dense update, since a zero
        gradient leaves both accumulator and parameter unchanged."""
        if grads.rows is not None:
            rows, g = grads.rows, grads.values
            self.emb *= self.decay
            self.emb[rows] += g * g
            params.emb[rows] -= self.lr * g / (np.sqrt(self.emb[rows]) + self.eps)
        for lo, hi in grads.spans:
            acc, g = self.dense[lo:hi], grads.dense[lo:hi]
            acc *= self.decay
            acc += g * g
            params.dense[lo:hi] -= self.lr * g / (np.sqrt(acc) + self.eps)
        self.steps += 1


@dataclass
class StreamData:
    """Hashed feature rows plus per-head label vectors."""

    features: np.ndarray                  # (n, 5) int64
    labels: dict[str, np.ndarray]

    def __len__(self) -> int:
        return len(self.features)


def train(days, config: TrainConfig, heads=None,
          params: PredictorParams | None = None):
    """Alternating dual-stream training.

    ``days`` is an ordered list of (standard: StreamData, delayed:
    StreamData | None). Standard steps update every enabled head except
    ``author``; delayed steps update only the author tower, leaving all
    shared parameters bitwise untouched. Every step writes into one
    ``Workspace`` of ``batch_size`` rows (fewer if no stream is that long).

    Returns (params, trace) where trace is a per-epoch list of mean losses
    per head.
    """
    config.validate()
    if heads is None:
        heads = tuple(h for h in HEAD_SPECS
                      if any(h in std.labels for std, _ in days)
                      or (h == "author" and any(d is not None for _, d in days)))
    if params is None:
        params = PredictorParams.init(config, heads=heads)
    opt = AdaptiveAccumulator(params, config.learning_rate, config.accumulator_decay)
    work = Workspace(min(config.batch_size, max(
        (len(s) for day in days for s in day if s is not None), default=0)))
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, 0x7261)))
    standard_heads = tuple(h for h in heads if h != "author")
    trace: list[dict[str, float]] = []
    for epoch in range(config.epochs):
        sums: dict[str, float] = {h: 0.0 for h in heads}
        counts: dict[str, int] = {h: 0 for h in heads}
        for std, delayed in days:
            std_batches = _batches(rng, len(std), config.batch_size)
            del_batches = _batches(rng, len(delayed), config.batch_size) if delayed else []
            # interleave: standard step(s), then a delayed step
            di = 0
            for bi, idx in enumerate(std_batches):
                _train_step(params, opt, work, std, idx, standard_heads, config,
                            shared=True, sums=sums, counts=counts, epoch=epoch)
                if del_batches and bi % max(1, len(std_batches) // len(del_batches)) == 0 \
                        and di < len(del_batches):
                    _train_step(params, opt, work, delayed, del_batches[di], ("author",),
                                config, shared=False, sums=sums, counts=counts,
                                epoch=epoch)
                    di += 1
            for rest in del_batches[di:]:
                _train_step(params, opt, work, delayed, rest, ("author",), config,
                            shared=False, sums=sums, counts=counts, epoch=epoch)
        trace.append({h: (sums[h] / counts[h]) for h in heads if counts[h]})
    return params, trace


def _batches(rng, n: int, batch_size: int) -> list[np.ndarray]:
    if n == 0:
        return []
    order = rng.permutation(n)
    return [order[lo:lo + batch_size] for lo in range(0, n, batch_size)]


def _train_step(params, opt, work: Workspace, data: StreamData, idx, heads,
                config: TrainConfig, shared: bool, sums, counts, epoch: int) -> None:
    active = tuple(h for h in heads if h in data.labels)
    if not active:
        return
    preds, cache = forward(params, data.features[idx], active, work)
    head_grads = {}
    for h in active:
        y = data.labels[h][idx]
        name = HEAD_SPECS[h][1]
        value = loss_value(name, preds[h], y, config.lam, config.rho)
        if not np.isfinite(value):
            raise TrainingDiverged(h, epoch, opt.steps, _grad_norms(
                params, cache, data, idx, active, config, shared, work))
        sums[h] += value
        counts[h] += 1
        head_grads[h] = _loss_grad(name, preds[h], y, config.lam, config.rho)
    grads = backward(params, cache, head_grads, shared=shared, work=work)
    del preds, cache  # the towers' intermediates; the update does not need them
    opt.step(params, grads)


def _grad_norms(params, cache, data: StreamData, idx, active, config: TrainConfig,
                shared: bool, work: Workspace) -> dict[str, float]:
    """The L2 norm of a failing step's gradient for each active head's tower
    and, on a shared step, for the backbone."""
    with np.errstate(all="ignore"):
        head_grads = {h: _loss_grad(HEAD_SPECS[h][1], cache[-1][h][3], data.labels[h][idx],
                                    config.lam, config.rho) for h in active}
        grads = backward(params, cache, head_grads, shared=shared, work=work)
    blocks = (("backbone",) if shared else ()) + active
    return {b: float(np.linalg.norm(grads.dense[slice(*params.blocks[b])])) for b in blocks}


# ---------------------------------------------------------------------------
# Finite-difference verification
# ---------------------------------------------------------------------------

def gradient_check(params: PredictorParams, head: str, loss_name: str,
                   features: np.ndarray, labels: np.ndarray,
                   lam: float = 0.1, rho: float = 1.5, n_probes: int = 20,
                   step: float = 1e-5, seed: int = 0) -> float:
    """Max relative error between analytic and central-difference gradients
    on randomly probed coordinates."""
    rng = np.random.default_rng(seed)
    preds, cache = forward(params, features, (head,))
    dpred = _loss_grad(loss_name, preds[head], labels, lam, rho)
    grads = backward(params, cache, {head: dpred}, shared=True)
    names = sorted(grads)
    max_err = 0.0
    for _ in range(n_probes):
        name = names[rng.integers(0, len(names))]
        flat_idx = int(rng.integers(0, params.arrays[name].size))
        orig = params.arrays[name].flat[flat_idx]
        params.arrays[name].flat[flat_idx] = orig + step
        up, _ = forward(params, features, (head,))
        lplus = loss_value(loss_name, up[head], labels, lam, rho)
        params.arrays[name].flat[flat_idx] = orig - step
        dn, _ = forward(params, features, (head,))
        lminus = loss_value(loss_name, dn[head], labels, lam, rho)
        params.arrays[name].flat[flat_idx] = orig
        numeric = (lplus - lminus) / (2 * step)
        analytic = _grad_at(grads[name], params.arrays[name].shape, flat_idx)
        denom = max(abs(numeric), abs(analytic), 1e-8)
        max_err = max(max_err, abs(numeric - analytic) / denom)
    return max_err


def _grad_at(grad, shape, flat_idx: int) -> float:
    """Coordinate ``flat_idx`` of a dense or ``(rows, values)`` gradient of
    an array of ``shape``."""
    if not isinstance(grad, tuple):
        return grad.flat[flat_idx]
    rows, values = grad
    row, col = np.unravel_index(flat_idx, shape)
    k = np.searchsorted(rows, row)
    return values[k, col] if k < len(rows) and rows[k] == row else 0.0


# ---------------------------------------------------------------------------
# Parameter persistence (text, versioned, deterministic)
# ---------------------------------------------------------------------------

def save_params(path, params: PredictorParams, meta: str | None = None) -> None:
    """Write ``H`` (heads), ``V`` (vocabulary) and ``I`` (init seed and
    embedding dim) records, then one record per array in name order: ``E``
    for an embedding table, holding only the rows whose bits differ from
    the seeded initial draw, and ``P`` for every other array."""
    d = params.emb.shape[1]
    changed = (params.emb.view(np.int64)
               != _init_embeddings(_init_rng(params.seed), d).view(np.int64)).any(axis=1)
    tables = dict(zip(_table_views(params.emb), EMB_OFFSETS.tolist()))

    def lines():
        yield "H\t" + ",".join(params.heads)
        yield "V\t" + _VOCAB_FIELD
        yield f"I\t{params.seed}\t{d}"
        for name in sorted(params.arrays):
            arr = params.arrays[name]
            if name in tables:
                lo = tables[name]
                rows = np.flatnonzero(changed[lo:lo + len(arr)])
                ids = ",".join(map(str, rows.tolist()))
                values = ",".join(map(repr, arr[rows].ravel().tolist()))
                yield f"E\t{name}\t{ids}\t{values}"
            else:
                shape = ",".join(str(s) for s in arr.shape)
                values = ",".join(map(repr, arr.ravel().tolist()))
                yield f"P\t{name}\t{shape}\t{values}"

    artifacts.write(path, "params", lines(), meta)


def load_params(path) -> PredictorParams:
    """Read ``save_params``'s records: redraw the initial embedding block
    from the ``I`` record and overlay each ``E`` record's rows. Raises
    DatasetFormatError naming ``path:line`` on a malformed record, a missing
    ``H``/``V``/``I`` record, or an array missing, unexpected or of another
    shape than ``PredictorParams.init`` gives it."""
    arrays: dict[str, np.ndarray] = {}
    records: dict[str, list[str]] = {}
    init: dict[str, np.ndarray] = {}  # the tables of the redrawn block, as views
    emb = None

    def parse(parts: list[str]) -> None:
        nonlocal emb
        tag = parts[0]
        if tag in ("H", "V", "I"):
            if tag in records:
                raise ValueError(f"repeated {tag} record")
            records[tag] = parts
        elif tag not in ("E", "P"):
            raise ValueError(f"unknown record tag {tag!r}")
        elif parts[1] in arrays:
            raise ValueError(f"repeated array {parts[1]!r}")
        if tag == "H":
            unknown = [h for h in parts[1].split(",") if h not in HEAD_SPECS]
            if unknown:
                raise ValueError(f"unknown heads {unknown}")
        elif tag == "V":
            if parts[1] != _VOCAB_FIELD:
                raise ValueError(f"vocabulary {parts[1]!r} is not {_VOCAB_FIELD!r}")
        elif tag == "I":
            seed, d = int(parts[1]), int(parts[2])
            if d < 1:
                raise ValueError(f"embedding dim must be >= 1, got {d}")
            emb = _init_embeddings(_init_rng(seed), d)
            init.update(_table_views(emb))
        elif tag == "E":
            if not init:
                raise ValueError("embedding rows before the I record")
            table = init.get(parts[1])
            if table is None:
                raise ValueError(f"unknown embedding table {parts[1]!r}")
            rows = np.array(parts[2].split(",") if parts[2] else [], dtype=np.int64)
            values = np.array(parts[3].split(",") if parts[3] else [], dtype=np.float64)
            if len(rows) and (rows[0] < 0 or rows[-1] >= len(table)):
                raise ValueError(f"row ids must lie in [0, {len(table)})")
            if np.any(np.diff(rows) <= 0):
                raise ValueError("row ids must be strictly increasing")
            if len(values) != len(rows) * table.shape[1]:
                raise ValueError(f"{len(values)} values for {len(rows)} rows of "
                                 f"dim {table.shape[1]}")
            table[rows] = values.reshape(len(rows), table.shape[1])
            arrays[parts[1]] = table
        else:
            shape = tuple(int(s) for s in parts[2].split(","))
            values = np.array(parts[3].split(","), dtype=np.float64)
            arrays[parts[1]] = values.reshape(shape)

    artifacts.read(path, "params", parse)
    for tag in ("H", "V", "I"):
        if tag not in records:
            raise artifacts.DatasetFormatError(path, artifacts.line_no(path),
                                               f"missing {tag} record")
    heads = tuple(records["H"][1].split(","))
    seed, d = int(records["I"][1]), int(records["I"][2])

    def size(name: str) -> int:
        # the sizes init was given, read off the biases; a missing or empty
        # bias still gives _layout a nonzero size, and the checks below report it
        return max(arrays[name].shape[-1], 1) if name in arrays else 1

    expected = {name: table.shape for name, table in init.items()}
    expected.update((name, shape) for name, shape, _ in _layout(
        d, size("backbone/b1"), size("backbone/b2"),
        size(f"tower/{heads[0]}/b"), heads))
    for name in expected:
        if name not in arrays:
            raise artifacts.DatasetFormatError(path, artifacts.line_no(path),
                                               f"missing array {name!r}")
    for name, arr in arrays.items():
        if expected.get(name) != arr.shape:
            found = "unexpected array" if name not in expected else (
                f"shape {arr.shape} is not {expected[name]}")
            raise artifacts.DatasetFormatError(path, artifacts.line_no(path, f"P\t{name}\t"),
                                               f"{name!r}: {found}")
    return PredictorParams._packed(
        emb, {name: arr for name, arr in arrays.items() if name not in init}, heads, seed)
