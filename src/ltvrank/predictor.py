"""Compact multi-head predictor trained by manual gradient descent.

Shared hashed embedding tables and a two-layer backbone feed per-task
towers: quantile label (bounded), raw slide time, attributed slide time,
author value, watch time, completion, interaction. Positive-target heads
use an exponential output transform so the Tweedie loss is well defined.
Author-head steps never touch shared parameters (stop gradient): an
author-only update leaves embeddings and backbone bitwise unchanged.

The embedding tables are row-sparse wherever a batch or the artifact
touches them: ``backward`` returns each table's gradient as the rows that
the batch's ids hash to and their summed gradients, the optimizer updates
only those rows (after decaying the whole accumulator), and ``params.txt``
stores only the rows that differ from the seeded initial draw, which the
loader redraws from the recorded seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import artifacts

FEATURE_FIELDS = ("user", "video", "author", "category", "page_group")

#: the dataset columns of the raw ids, one per ``FEATURE_FIELDS`` entry
ID_COLUMNS = ("user_id", "video_id", "author_id", "category_id", "page_index")

#: head name -> (output transform, default loss)
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


class TrainingDiverged(RuntimeError):
    """A head's batch loss went non-finite; ``step`` is the index of the
    optimizer step that computed it."""

    def __init__(self, head: str, epoch: int, step: int):
        super().__init__(f"non-finite loss on head {head!r} at epoch {epoch}, "
                         f"optimizer step {step}")
        self.head = head
        self.epoch = epoch
        self.step = step


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
    head_losses: dict[str, str] = field(default_factory=dict)

    def validate(self) -> None:
        if not 1.0 < self.rho < 2.0:
            raise ValueError(f"rho must be in (1,2), got {self.rho}")
        if self.lam < 0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")

    def loss_for(self, head: str) -> str:
        return self.head_losses.get(head, HEAD_SPECS[head][1])


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

class PredictorParams:
    """All weights, addressable by name for serialization and grad checks.
    ``seed`` is the seed of the initial draw, from which ``load_params``
    redraws the embedding rows that ``params.txt`` leaves out."""

    def __init__(self, arrays: dict[str, np.ndarray], heads: tuple[str, ...], seed: int):
        self.arrays = arrays
        self.heads = heads
        self.seed = seed

    @classmethod
    def init(cls, config: TrainConfig, heads=None) -> "PredictorParams":
        heads = tuple(heads) if heads is not None else tuple(HEAD_SPECS)
        rng = _init_rng(config.seed)
        arrays = _init_embeddings(rng, config.embedding_dim)
        for name, shape, std in _layout(config.embedding_dim, *config.hidden_sizes,
                                        config.tower_size, heads):
            arrays[name] = (np.zeros(shape) if std is None
                            else rng.normal(0.0, std, size=shape))
        return cls(arrays, heads, config.seed)


def _init_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed))


def _init_embeddings(rng: np.random.Generator, d: int) -> dict[str, np.ndarray]:
    """The initial embedding tables: the first draws of ``PredictorParams.init``."""
    return {f"emb/{f}": rng.normal(0.0, 0.1, size=(VOCAB[f] + 1, d)) for f in FEATURE_FIELDS}


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


def encode_features(raw_ids, page_group_spec) -> np.ndarray:
    """Hash an (n, 5) array of raw ``ID_COLUMNS`` ids to index rows of the
    ``FEATURE_FIELDS``; a ``None`` spec puts every row in page group 0."""
    ids = np.array(raw_ids, dtype=np.int64).reshape(-1, len(FEATURE_FIELDS))
    ids[:, 4] = page_group_spec.group_array(ids[:, 4]) if page_group_spec is not None else 0
    v = np.array([VOCAB[f] for f in FEATURE_FIELDS], dtype=np.int64)
    # reducing both factors first keeps the product far below 2**63
    return (ids % v) * (_HASH_MULT % v) % v


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------

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


def forward(params: PredictorParams, features: np.ndarray, heads=None):
    """Batch forward pass. Returns (predictions dict, cache for backward)."""
    heads = tuple(heads) if heads is not None else params.heads
    a = params.arrays
    embs = [a[f"emb/{f}"][features[:, i]] for i, f in enumerate(FEATURE_FIELDS)]
    x = np.concatenate(embs, axis=1)
    z1 = x @ a["backbone/W1"] + a["backbone/b1"]
    h1 = np.maximum(z1, 0.0)
    z2 = h1 @ a["backbone/W2"] + a["backbone/b2"]
    h2 = np.maximum(z2, 0.0)
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


def backward(params: PredictorParams, cache, head_grads: dict[str, np.ndarray],
             shared: bool = True) -> dict:
    """Gradients of the summed per-head losses w.r.t. parameters.

    ``head_grads`` maps head -> dLoss/dPrediction. With ``shared=False``
    only tower gradients are produced (stop-gradient step). Backbone and
    tower gradients are dense arrays; an embedding table's gradient is
    ``(rows, values)``: the sorted distinct rows the batch's ids hash to,
    and each row's gradient, summed in batch order. Every other row's
    gradient is zero.
    """
    a = params.arrays
    features, x, z1, h1, z2, h2, head_cache = cache
    grads: dict[str, np.ndarray] = {}
    dh2 = np.zeros_like(h2)
    for head, dpred in head_grads.items():
        zt, ht, z, out = head_cache[head]
        dz = dpred * _transform_grad(z, out, HEAD_SPECS[head][0])
        grads[f"tower/{head}/wo"] = ht.T @ dz
        grads[f"tower/{head}/bo"] = np.array([dz.sum()])
        dht = np.outer(dz, a[f"tower/{head}/wo"])
        dzt = dht * (zt > 0)
        grads[f"tower/{head}/W"] = h2.T @ dzt
        grads[f"tower/{head}/b"] = dzt.sum(axis=0)
        if shared:
            dh2 += dzt @ a[f"tower/{head}/W"].T
    if not shared:
        return grads
    dz2 = dh2 * (z2 > 0)
    grads["backbone/W2"] = h1.T @ dz2
    grads["backbone/b2"] = dz2.sum(axis=0)
    dh1 = dz2 @ a["backbone/W2"].T
    dz1 = dh1 * (z1 > 0)
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


# ---------------------------------------------------------------------------
# Optimizer and training loop
# ---------------------------------------------------------------------------

class AdaptiveAccumulator:
    """Per-parameter squared-gradient accumulation with decay. ``steps``
    counts the steps taken."""

    def __init__(self, params: PredictorParams, lr: float, decay: float,
                 eps: float = 1e-8):
        self.lr = lr
        self.decay = decay
        self.eps = eps
        self.acc = {k: np.zeros_like(v) for k, v in params.arrays.items()}
        self.steps = 0

    def step(self, params: PredictorParams, grads: dict) -> None:
        """Apply ``backward``'s gradients. Every accumulator decays; only the
        rows of a row-sparse gradient are updated, which is bitwise the dense
        update, since a zero gradient leaves both accumulator and parameter
        unchanged."""
        for name, g in grads.items():
            rows, g = g if isinstance(g, tuple) else (..., g)
            acc = self.acc[name]
            acc *= self.decay
            acc[rows] += g * g
            params.arrays[name][rows] -= self.lr * g / (np.sqrt(acc[rows]) + self.eps)
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
    shared parameters bitwise untouched.

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
                _train_step(params, opt, std, idx, standard_heads, config,
                            shared=True, sums=sums, counts=counts, epoch=epoch)
                if del_batches and bi % max(1, len(std_batches) // len(del_batches)) == 0 \
                        and di < len(del_batches):
                    _train_step(params, opt, delayed, del_batches[di], ("author",),
                                config, shared=False, sums=sums, counts=counts,
                                epoch=epoch)
                    di += 1
            for rest in del_batches[di:]:
                _train_step(params, opt, delayed, rest, ("author",), config,
                            shared=False, sums=sums, counts=counts, epoch=epoch)
        trace.append({h: (sums[h] / counts[h]) for h in heads if counts[h]})
    return params, trace


def _batches(rng, n: int, batch_size: int) -> list[np.ndarray]:
    if n == 0:
        return []
    order = rng.permutation(n)
    return [order[lo:lo + batch_size] for lo in range(0, n, batch_size)]


def _train_step(params, opt, data: StreamData, idx, heads, config: TrainConfig,
                shared: bool, sums, counts, epoch: int) -> None:
    active = tuple(h for h in heads if h in data.labels)
    if not active:
        return
    feats = data.features[idx]
    preds, cache = forward(params, feats, active)
    head_grads = {}
    for h in active:
        y = data.labels[h][idx]
        name = config.loss_for(h)
        value = loss_value(name, preds[h], y, config.lam, config.rho)
        if not np.isfinite(value):
            raise TrainingDiverged(h, epoch, opt.steps)
        sums[h] += value
        counts[h] += 1
        head_grads[h] = _loss_grad(name, preds[h], y, config.lam, config.rho)
    grads = backward(params, cache, head_grads, shared=shared)
    opt.step(params, grads)


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
    d = params.arrays["emb/user"].shape[1]
    init = _init_embeddings(_init_rng(params.seed), d)

    def lines():
        yield "H\t" + ",".join(params.heads)
        yield "V\t" + _VOCAB_FIELD
        yield f"I\t{params.seed}\t{d}"
        for name in sorted(params.arrays):
            arr = params.arrays[name]
            if name in init:
                rows = np.flatnonzero(
                    (arr.view(np.int64) != init[name].view(np.int64)).any(axis=1))
                ids = ",".join(map(str, rows.tolist()))
                values = ",".join(map(repr, arr[rows].ravel().tolist()))
                yield f"E\t{name}\t{ids}\t{values}"
            else:
                shape = ",".join(str(s) for s in arr.shape)
                values = ",".join(map(repr, arr.ravel().tolist()))
                yield f"P\t{name}\t{shape}\t{values}"

    artifacts.write(path, "params", lines(), meta)


def load_params(path) -> PredictorParams:
    """Read ``save_params``'s records: redraw the initial embedding tables
    from the ``I`` record and overlay each ``E`` record's rows. Raises
    DatasetFormatError naming ``path:line`` on a malformed record, a missing
    ``H``/``V``/``I`` record, or an array missing, unexpected or of another
    shape than ``PredictorParams.init`` gives it."""
    arrays: dict[str, np.ndarray] = {}
    records: dict[str, list[str]] = {}
    init: dict[str, np.ndarray] = {}

    def parse(parts: list[str]) -> None:
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
            init.update(_init_embeddings(_init_rng(seed), d))
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
            raise artifacts.DatasetFormatError(path, _line_no(path), f"missing {tag} record")
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
            raise artifacts.DatasetFormatError(path, _line_no(path), f"missing array {name!r}")
    for name, arr in arrays.items():
        if expected.get(name) != arr.shape:
            found = "unexpected array" if name not in expected else (
                f"shape {arr.shape} is not {expected[name]}")
            raise artifacts.DatasetFormatError(path, _line_no(path, f"P\t{name}\t"),
                                               f"{name!r}: {found}")
    return PredictorParams(arrays, heads, seed)


def _line_no(path, prefix: str | None = None) -> int:
    """Number of the first line of ``path`` that starts with ``prefix``, or
    of its last line if none does (or ``prefix`` is None)."""
    n = 0
    with open(path, "r", encoding="utf-8") as fh:
        for n, line in enumerate(fh, start=1):
            if prefix is not None and line.startswith(prefix):
                break
    return n
