"""Block availability prediction from partial meter payments.

One ``Network`` type holds a list of affine layers with ReLU between them
and a 2-way softmax output. The availability model is NETWORK_DIMS (4
inputs, two hidden layers of 30 units); the baseline is BASELINE_DIMS,
logistic regression on the same features, which is the same network with
no hidden layer. Both share one forward pass, one gradient and one
initialization; only the network is ever saved, as the model file.
Training runs repeated random train/validation splits of survey-derived
availability labels and reports validation cross-entropy and accuracy; the
baseline is trained under the identical protocol. The splits advance
together as one stacked network: every weight and bias gains a leading
split axis, and each SGD step runs ``gradient``'s kernel once over every
split's batch. Each split draws from its own generator, so its result does
not depend on the other splits.

Payments enter as one ``SessionIndex``: the int64 microsecond instants
(naive, from 1970-01-01) at which paid sessions start and at which they
end, ``start + timedelta(seconds=duration_s)``, in CSR form: one array of
starts sorted by (block, start), one of ends sorted by (block, end), and
the bounds of each block's rows in both. A session is active over the
half-open [start, end), so the count active at ``t`` is the starts <= t
less the ends <= t; popularity counts starts in the half-open [t - 3 h, t).
``feature_matrix`` computes both by binary search for any batch of (block,
time) queries, times in int64 microseconds too; the epoch is a midnight, so
a time ``t`` is at hour ``t // HOUR_US % 24``.

Feature order is fixed: active paid sessions at the query time, paid
sessions started in the preceding 3 hours, block length in meters, and
drive time across the block divided by its length (congestion). Inputs are
standardized with statistics taken from each split's training portion only.
Predictions come as one (hour, block) array of availability probabilities,
from one forward pass over every metered cell. That pass runs the cells as
a stack of one-row batches, (cells, 1, 4), not as one (cells, 4) batch:
each one-row matmul is the same inner loop that ``forward`` runs on its
single row, so every probability keeps ``forward``'s bits, which a 2-D
batch does not (BLAS may sum a larger product in another order).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from datetime import date, datetime, time, timedelta
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DataError, NumericError, check_fields
from .road_graph import RoadGraph, _atomic_write, _check_hour

FEATURE_NAMES = ("active_sessions", "popularity_3h", "block_length_m",
                 "congestion_s_per_m")
N_FEATURES = 4
HIDDEN = 30
N_CLASSES = 2  # output unit 0: no free spot, unit 1: spot available
NETWORK_DIMS = (N_FEATURES, HIDDEN, HIDDEN, N_CLASSES)  # 1,142 parameters
BASELINE_DIMS = (N_FEATURES, N_CLASSES)
# naive datetime arithmetic never consults the machine's time zone
_EPOCH = datetime(1970, 1, 1)
_MICROSECOND = timedelta(microseconds=1)
HOUR_US = timedelta(hours=1) // _MICROSECOND
_WINDOW_US = 3 * HOUR_US  # popularity window
MODEL_FORMAT_VERSION = 1
# the model file's one "kind": a network of NETWORK_DIMS
MODEL_KIND = "mlp"


class Samples(NamedTuple):
    """Availability labels: ``labels[i]`` is 1 if block ``block_ids[i]`` had
    a free spot at ``times[i]`` (int64 microseconds), else 0."""

    block_ids: np.ndarray
    times: np.ndarray
    labels: np.ndarray


class SessionIndex(NamedTuple):
    """Every block's paid sessions in CSR form: block ``block_ids[i]``'s
    sessions are rows ``bounds[i]:bounds[i + 1]`` of ``starts``, sorted by
    (block, start), and of ``ends``, sorted by (block, end); ``bounds`` is
    int64 and starts at 0."""

    block_ids: tuple[str, ...]
    bounds: np.ndarray
    starts: np.ndarray
    ends: np.ndarray


@dataclass
class Network:
    """Affine layers (W, b) with ReLU between them and a softmax output,
    plus the feature standardization used at training time."""

    layers: list[tuple[np.ndarray, np.ndarray]]
    feature_mean: np.ndarray
    feature_std: np.ndarray

    @property
    def dims(self) -> tuple[int, ...]:
        """Layer widths from input to output, as in NETWORK_DIMS."""
        return (self.layers[0][0].shape[0],) + tuple(w.shape[1] for w, _ in self.layers)

    @property
    def parameter_count(self) -> int:
        return sum(w.size + b.size for w, b in self.layers)


@dataclass(frozen=True)
class TrainConfig:
    splits: int = 10
    validation_fraction: float = 0.20
    epochs: int = 150
    learning_rate: float = 0.01
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        check_fields(self, positive=("learning_rate",),
                     at_least={"splits": 1, "batch_size": 1, "epochs": 0, "seed": 0})
        if not 0.0 < self.validation_fraction < 1.0:
            raise DataError("validation_fraction must be in (0, 1)")


@dataclass(frozen=True)
class SplitScore:
    cross_entropy: float
    accuracy: float


@dataclass(frozen=True)
class EvalReport:
    mean_val_cross_entropy: float
    mean_val_accuracy: float
    per_split: tuple[SplitScore, ...]


# -- features ----------------------------------------------------------------

def micros(t: datetime) -> int:
    """Microseconds from the naive 1970-01-01 midnight to ``t``, exactly."""
    return (t - _EPOCH) // _MICROSECOND


def session_arrays(block_ids: Sequence[str], block: np.ndarray, starts: np.ndarray,
                   ends: np.ndarray) -> SessionIndex:
    """Index sessions by block: session ``i`` is on block
    ``block_ids[block[i]]`` and active over [``starts[i]``, ``ends[i]``).

    One sort by (block, start) and one by (block, end) order every session;
    each block's starts and ends are slices of the two sorted arrays.
    """
    bounds = np.zeros(len(block_ids) + 1, np.int64)
    np.cumsum(np.bincount(block, minlength=len(block_ids)), out=bounds[1:])
    return SessionIndex(tuple(block_ids), bounds, starts[np.lexsort((starts, block))],
                        ends[np.lexsort((ends, block))])


def feature_matrix(sessions: SessionIndex, g: RoadGraph, blocks: Sequence[str],
                   times: np.ndarray) -> np.ndarray:
    """Row ``i`` holds the features of block ``blocks[i]`` at ``times[i]``,
    in int64 microseconds."""
    try:
        pos = np.array([g.position[b] for b in blocks], dtype=np.intp)
    except KeyError as exc:
        raise DataError(f"unknown block id: {exc.args[0]!r}") from None
    t = np.asarray(times, dtype=np.int64)
    hours = t // HOUR_US % 24
    X = np.zeros((len(pos), N_FEATURES))
    row_of = {block_id: i for i, block_id in enumerate(sessions.block_ids)}
    for p in np.unique(pos):
        if (i := row_of.get(g.block_ids[p])) is None:
            continue
        lo, hi = sessions.bounds[i], sessions.bounds[i + 1]
        starts, ends = sessions.starts[lo:hi], sessions.ends[lo:hi]
        rows = np.flatnonzero(pos == p)
        q = t[rows]
        X[rows, 0] = np.searchsorted(starts, q, "right") - np.searchsorted(ends, q, "right")
        X[rows, 1] = np.searchsorted(starts, q) - np.searchsorted(starts, q - _WINDOW_US)
    X[:, 2] = g.length_m[pos]
    X[:, 3] = g.drive_s[hours, pos] / g.length_m[pos]
    return X


def build_dataset(samples: Samples, sessions: SessionIndex,
                  g: RoadGraph) -> tuple[np.ndarray, np.ndarray]:
    """Feature matrix and label vector of the samples."""
    return (feature_matrix(sessions, g, samples.block_ids, samples.times),
            np.asarray(samples.labels, dtype=np.int64))


# -- forward / loss / gradient -------------------------------------------------
# Each also takes a stack of S networks (weights (S, fan_in, fan_out), biases
# and feature statistics (S, width)) with features (S, batch, 4) and labels
# (S, batch). Each split's slice goes through the operations of one network,
# so it gets the same bits.

def _standardize(model, X: np.ndarray) -> np.ndarray:
    return (X - model.feature_mean[..., None, :]) / model.feature_std[..., None, :]


def _softmax(logits: np.ndarray) -> np.ndarray:
    # the two-class max and sum by slices: the bits of reductions, fewer calls
    e = np.exp(logits - np.maximum(logits[..., :1], logits[..., 1:]))
    return e / (e[..., :1] + e[..., 1:])


def _logits(model: Network, a: np.ndarray):
    """Output logits and the input of every layer, given standardized ``a``."""
    inputs = [a]
    for w, b in model.layers[:-1]:
        a = np.maximum(a @ w + b[..., None, :], 0.0)
        inputs.append(a)
    w, b = model.layers[-1]
    return a @ w + b[..., None, :], inputs


def forward(model, x) -> tuple[float, float]:
    """Probability pair (p_available, p_full) for a single feature vector."""
    arr = np.asarray(x, dtype=float)
    if arr.shape != (N_FEATURES,):
        raise DataError(f"expected {N_FEATURES} features, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NumericError("non-finite feature input")
    logits, _ = _logits(model, _standardize(model, arr[None, :]))
    p = _softmax(logits)[0]
    return float(p[1]), float(p[0])


def loss(model, features, labels):
    """Mean cross-entropy (nats) of the true labels under the model; one
    per split for a stack."""
    X, y = _as_batch(features, labels)
    logits, _ = _logits(model, _standardize(model, X))
    return _cross_entropy(logits, y)


def _as_batch(features, labels) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=np.int64)
    if X.ndim not in (2, 3) or X.shape[-2] == 0:
        raise DataError("batch must be a nonempty 2-D feature array, or a stack of them")
    if y.shape != X.shape[:-1]:
        raise DataError("labels must match the batch length")
    if not np.isin(y, (0, 1)).all():
        raise DataError("labels must be 0 or 1")
    return X, y


def _cross_entropy(logits: np.ndarray, y: np.ndarray):
    # stable log-softmax; no clipping, so gradients stay exact
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=-1))
    true_logit = np.take_along_axis(shifted, y[..., None], axis=-1)[..., 0]
    return np.mean(log_norm - true_logit, axis=-1)


def gradient(model, features, labels) -> list[tuple[np.ndarray, np.ndarray]]:
    """Exact gradient of the mean cross-entropy: one (dW, db) per layer.

    ReLU takes derivative 0 at 0, so a unit passes gradient back exactly
    where its ReLU output, the next layer's input, is positive.
    """
    X, y = _as_batch(features, labels)
    grads = [tuple(map(np.empty_like, layer)) for layer in model.layers]
    _backprop(model, _standardize(model, X), y[..., None] == np.arange(N_CLASSES), grads)
    return grads


def _backprop(model, Z: np.ndarray, T: np.ndarray, grads) -> None:
    """``gradient`` of standardized ``Z`` and one-hot targets ``T``, into ``grads``."""
    logits, inputs = _logits(model, Z)
    delta = (_softmax(logits) - T) / T.shape[-2]
    for i in reversed(range(len(model.layers))):
        np.matmul(inputs[i].swapaxes(-1, -2), delta, out=grads[i][0])
        np.add.reduce(delta, axis=-2, out=grads[i][1])
        if i:
            delta = (delta @ model.layers[i][0].swapaxes(-1, -2)) * (inputs[i] > 0.0)


# -- training ------------------------------------------------------------------

def _glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def _init_model(dims: tuple[int, ...], rngs: Sequence[np.random.Generator],
                mean: np.ndarray, std: np.ndarray) -> Network:
    """A stack of fresh networks, one per generator."""
    if len(dims) == 2:
        # the logistic loss is convex, so there is no symmetry to break;
        # zero init also makes an untrained baseline output exactly (0.5, 0.5)
        layers = [(np.zeros((len(rngs), *dims)), np.zeros((len(rngs), dims[1])))]
    else:
        layers = [(np.stack([_glorot_uniform(rng, fan_in, fan_out) for rng in rngs]),
                   np.zeros((len(rngs), fan_out)))
                  for fan_in, fan_out in zip(dims[:-1], dims[1:])]
    return Network(layers, feature_mean=mean, feature_std=std)


def _layer_views(flat: np.ndarray, layers) -> list[tuple[np.ndarray, np.ndarray]]:
    """Views into ``flat`` shaped like the (W, b) pairs of ``layers``, in order."""
    parts = iter(np.split(flat, np.cumsum([p.size for layer in layers for p in layer])))
    return [(next(parts).reshape(w.shape), next(parts).reshape(b.shape)) for w, b in layers]


def _accuracy(model, X: np.ndarray, y: np.ndarray):
    logits, _ = _logits(model, _standardize(model, X))
    predicted = (_softmax(logits)[..., 1] > 0.5).astype(np.int64)
    return np.mean(predicted == y, axis=-1)


def _train_protocol(X: np.ndarray, y: np.ndarray, cfg: TrainConfig,
                    dims: tuple[int, ...]):
    """Train ``cfg.splits`` fresh models on seeded 80/20 splits in lockstep,
    as one stacked network whose splits take each SGD step together.

    Split ``i`` has its own generator, ``default_rng(cfg.seed + i)``, which
    draws in order: the split permutation, weight initialization, and each
    epoch's shuffle. So runs with one seed are bit-reproducible, and the
    network and the baseline see identical splits. Every split trains on
    ``n - n_val`` rows, so their batches, a short last one included, line up.
    Rows are standardized once and gathered once an epoch; a step updates
    one flat array, of which every weight and bias is a view.
    """
    if len(y) < 50:
        raise DataError(f"need at least 50 samples, got {len(y)}")
    if len(np.unique(y)) < 2:
        raise DataError("training data contains a single class")
    n = len(y)
    n_val = max(1, int(round(n * cfg.validation_fraction)))
    if n_val >= n:
        raise DataError("validation fraction leaves no training data")
    rngs = [np.random.default_rng(cfg.seed + i) for i in range(cfg.splits)]
    perms = np.stack([rng.permutation(n) for rng in rngs])
    val_idx, train_idx = perms[:, :n_val], perms[:, n_val:]

    X_train, y_train = X[train_idx], y[train_idx]
    split = np.arange(cfg.splits)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        mean, std = X_train.mean(axis=1), X_train.std(axis=1)
        if not (np.isfinite(mean).all() and np.isfinite(std).all()):
            raise NumericError("a sample feature overflows its mean or standard deviation")
        std = np.where(std < 1e-12, 1.0, std)  # constant features pass through
        model = _init_model(dims, rngs, mean, std)
        params = np.concatenate([p.ravel() for layer in model.layers for p in layer])
        grads = np.empty_like(params)
        model.layers, grad_views = [_layer_views(a, model.layers) for a in (params, grads)]
        Z, T = _standardize(model, X_train), y_train[..., None] == np.arange(N_CLASSES)
        for _ in range(cfg.epochs):
            order = np.stack([rng.permutation(n - n_val) for rng in rngs])
            Z_epoch, T_epoch = Z[split, order], T[split, order]
            for start in range(0, n - n_val, cfg.batch_size):
                batch = slice(start, start + cfg.batch_size)
                _backprop(model, Z_epoch[:, batch], T_epoch[:, batch], grad_views)
                grads *= cfg.learning_rate
                params -= grads
        X_val, y_val = X[val_idx], y[val_idx]
        ce, accuracy = loss(model, X_val, y_val), _accuracy(model, X_val, y_val)
    diverged = np.flatnonzero(~np.isfinite(ce))
    if diverged.size:
        raise NumericError(f"training diverged: split {diverged[0]} has validation "
                           f"cross-entropy {ce[diverged[0]]} (lower the learning rate)")
    best = int(np.argmin(ce))  # the first of equal minima
    report = EvalReport(
        mean_val_cross_entropy=float(np.mean(ce)),
        mean_val_accuracy=float(np.mean(accuracy)),
        per_split=tuple(map(SplitScore, ce.tolist(), accuracy.tolist())),
    )
    return Network([(w[best], b[best]) for w, b in model.layers],
                   model.feature_mean[best], model.feature_std[best]), report


def train(X: np.ndarray, y: np.ndarray, cfg: TrainConfig) -> tuple[Network, EvalReport]:
    """Train the network over repeated splits; return the best model (by
    validation cross-entropy) and the aggregate report."""
    return _train_protocol(X, y, cfg, NETWORK_DIMS)


def train_baseline(X: np.ndarray, y: np.ndarray,
                   cfg: TrainConfig) -> tuple[Network, EvalReport]:
    """Logistic-regression baseline under the identical split protocol."""
    return _train_protocol(X, y, cfg, BASELINE_DIMS)


# -- prediction ------------------------------------------------------------------

def predict_block_probabilities(model, sessions: SessionIndex, g: RoadGraph,
                                hours: Sequence[int], on_date: date) -> np.ndarray:
    """Availability of every block at (date, hour:30) for each of ``hours``,
    as a (len(hours), blocks) array: one ``feature_matrix`` call, then one
    forward pass over the stack of every metered cell's one-row batch, which
    gives each cell ``forward``'s bits (see the module docstring). Blocks
    without meters get 0: there is nowhere to park, and the search simulator
    still needs an entry for them. A non-finite probability is a NumericError.
    """
    day = micros(datetime.combine(on_date, time()))
    times = [day + _check_hour(hour) * HOUR_US + HOUR_US // 2 for hour in hours]
    metered = np.flatnonzero(g.meter_count)
    X = feature_matrix(sessions, g, [g.block_ids[j] for j in metered] * len(hours),
                       np.repeat(np.array(times, dtype=np.int64), metered.size))
    if not np.isfinite(X).all():
        raise NumericError("non-finite feature input")
    with np.errstate(all="ignore"):  # an extreme model is a NumericError, not a warning
        probs = _softmax(_logits(model, _standardize(model, X[:, None, :]))[0])[:, 0, 1]
    if not np.isfinite(probs).all():
        raise NumericError("the model gives a non-finite probability")
    p = np.zeros((len(hours), len(g.block_ids)))
    p[:, metered] = probs.reshape(len(hours), metered.size)
    return p


# -- model persistence ------------------------------------------------------------

def save_model(model: Network, path: str | os.PathLike) -> None:
    """Write the availability network as JSON: row-major weights w1, b1, ...
    w3, b3 and the feature norm. Another network is a DataError."""
    if model.dims != NETWORK_DIMS:
        raise DataError(f"only a network of widths {NETWORK_DIMS} is saved, not {model.dims}")
    params = {}
    for i, layer in enumerate(model.layers, start=1):
        params.update(zip((f"w{i}", f"b{i}"), layer))
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "kind": MODEL_KIND,
        "shapes": {name: list(a.shape) for name, a in params.items()},
        "weights": {name: a.reshape(-1).tolist() for name, a in params.items()},
        "feature_norm": {"mean": model.feature_mean.tolist(),
                         "std": model.feature_std.tolist()},
    }
    _atomic_write(path, json.dumps(payload, sort_keys=True))


def load_model(path: str | os.PathLike) -> Network:
    """Read a model file written by save_model.

    A file that is not a well-formed model of MODEL_KIND raises
    DataError; non-finite values raise NumericError.
    """
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read model file {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise DataError(f"model file {path} is not a JSON object")
    if raw.get("format_version") != MODEL_FORMAT_VERSION:
        raise DataError(f"unsupported model format version {raw.get('format_version')!r}")
    if raw.get("kind") != MODEL_KIND:
        raise DataError(f"unknown model kind {raw.get('kind')!r}")

    def arr(values, shape: tuple[int, ...], what: str) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if values.size != math.prod(shape):
            raise DataError(f"model {what} does not have shape {shape}")
        if not np.all(np.isfinite(values)):
            raise NumericError(f"model {what} contains non-finite values")
        return values.reshape(shape)

    def param(name: str, shape: tuple[int, ...]) -> np.ndarray:
        if tuple(raw["shapes"][name]) != shape:
            raise DataError(f"model weight {name!r} has unexpected shape")
        return arr(raw["weights"][name], shape, f"weight {name!r}")

    try:
        norm = raw["feature_norm"]
        mean = arr(norm["mean"], (N_FEATURES,), "feature mean")
        std = arr(norm["std"], (N_FEATURES,), "feature std")
        layers = [(param(f"w{i}", shape), param(f"b{i}", shape[1:]))
                  for i, shape in enumerate(zip(NETWORK_DIMS, NETWORK_DIMS[1:]), start=1)]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"malformed model file {path}: {exc!r}") from exc
    if not np.all(std > 0):
        raise DataError("model feature std must be positive")
    return Network(layers, feature_mean=mean, feature_std=std)
