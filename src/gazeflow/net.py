"""A tiny 1-D convolutional classifier with exact backprop, written in numpy.

Architecture (defaults): a (30, 2) feature matrix passes through a valid
cross-correlation with 10 filters of length 10 spanning both channels
(-> 21 x 10), non-overlapping max pooling by 5 with floor semantics
(-> 4 x 10), flattening (-> 40), a dense layer (-> 3 logits) and a softmax.
There is no activation between convolution and pooling; the pooling itself
is the nonlinearity.

All arithmetic is float64. The weights live in one contiguous vector,
ordered conv_w, conv_b, dense_w, dense_b (the model file's payload order);
the four named arrays are read-only views into it. Gradients and the Adam
moments share that layout, so an optimizer step is a few whole-vector
operations. The convolution unfolds each batch into im2col columns with one
gather, so memory grows with the batch and not with the training set.
Forward/backward are pure functions of immutable parameters, training is
bit-deterministic for a fixed seed, and gradients are the exact analytic
derivatives of the cross-entropy loss.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable

import numpy as np

from .gaze import DatasetSplit, N_CLASSES, Prediction, WindowSet

PROB_FLOOR = 1e-12
N_FILTERS = 10
N_CHANNELS = 2
FORWARD_CHUNK = 65536  # windows per forward pass when scoring many windows

_PARAM_FIELDS = ("conv_w", "conv_b", "dense_w", "dense_b")


class NetError(ValueError):
    """Shape or argument error in the network layer."""


class TrainingError(ValueError):
    """Bad training inputs (empty splits, invalid configuration) or a diverged run."""


def flattened_dim(input_len: int, kernel_len: int, pool_factor: int, n_filters: int = N_FILTERS) -> int:
    """Width of the dense layer input implied by the layer geometry."""
    return n_filters * ((input_len - kernel_len + 1) // pool_factor)


def _bind(obj, vector: np.ndarray, shapes) -> None:
    """Freeze `vector` and set it, and its four named views, on `obj`."""
    vector.setflags(write=False)
    object.__setattr__(obj, "vector", vector)
    pos = 0
    for name, shape in zip(_PARAM_FIELDS, shapes):
        size = math.prod(shape)
        object.__setattr__(obj, name, vector[pos : pos + size].reshape(shape))
        pos += size


class _WeightVector:
    """Shared behaviour of the objects that hold one weight-shaped vector."""

    vector: np.ndarray

    @property
    def shapes(self) -> tuple[tuple[int, ...], ...]:
        return tuple(getattr(self, name).shape for name in _PARAM_FIELDS)

    def arrays(self) -> Iterable[tuple[str, np.ndarray]]:
        for name in _PARAM_FIELDS:
            yield name, getattr(self, name)


@dataclass(frozen=True)
class NetworkParams(_WeightVector):
    """All learnable weights plus the fixed layer geometry.

    conv_w is indexed [filter][tap][channel]; dense_w is [class][flat] with
    the flat axis ordered (pool region, filter) row-major. The constructor
    copies the four arrays into `vector` and validates shapes and values.
    """

    conv_w: np.ndarray
    conv_b: np.ndarray
    dense_w: np.ndarray
    dense_b: np.ndarray
    pool_factor: int = 5
    input_len: int = 30
    vector: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cw = np.asarray(self.conv_w, dtype=np.float64)
        cb = np.asarray(self.conv_b, dtype=np.float64)
        dw = np.asarray(self.dense_w, dtype=np.float64)
        db = np.asarray(self.dense_b, dtype=np.float64)
        if cw.ndim != 3 or cw.shape[2] != N_CHANNELS:
            raise NetError("conv_w must have shape (filters, kernel_len, 2)")
        n_filters, kernel_len, _ = cw.shape
        if not 1 <= kernel_len <= self.input_len:
            raise NetError("kernel_len must lie in [1, input_len]")
        if self.pool_factor < 1:
            raise NetError("pool_factor must be >= 1")
        flat = flattened_dim(self.input_len, kernel_len, self.pool_factor, n_filters)
        if flat == 0:
            raise NetError("layer geometry leaves no pooled outputs")
        if cb.shape != (n_filters,):
            raise NetError("conv_b shape mismatch")
        if dw.shape != (N_CLASSES, flat):
            raise NetError(f"dense_w must have shape ({N_CLASSES}, {flat}), got {dw.shape}")
        if db.shape != (N_CLASSES,):
            raise NetError("dense_b shape mismatch")
        vector = np.concatenate([cw.ravel(), cb, dw.ravel(), db])
        if not np.isfinite(vector).all():
            raise NetError("weights must be finite")
        _bind(self, vector, (cw.shape, cb.shape, dw.shape, db.shape))

    @classmethod
    def from_vector(
        cls, vector: np.ndarray, kernel_len: int, pool_factor: int, input_len: int, n_filters: int = N_FILTERS
    ) -> "NetworkParams":
        """Validated parameters from a flat vector in payload order (copied)."""
        flat = flattened_dim(input_len, kernel_len, pool_factor, n_filters)
        sizes = np.cumsum([n_filters * kernel_len * N_CHANNELS, n_filters, N_CLASSES * flat])
        if flat <= 0 or vector.shape != (sizes[-1] + N_CLASSES,):
            raise NetError("weight vector does not match the layer geometry")
        cw, cb, dw, db = np.split(vector, sizes)
        return cls(
            conv_w=cw.reshape(n_filters, kernel_len, N_CHANNELS),
            conv_b=cb,
            dense_w=dw.reshape(N_CLASSES, flat),
            dense_b=db,
            pool_factor=pool_factor,
            input_len=input_len,
        )

    def _with_vector(self, vector: np.ndarray) -> "NetworkParams":
        """The same geometry with new weights; `vector` is taken over, not copied.

        The one check is finiteness: everything else holds by construction.
        """
        if not np.isfinite(vector).all():
            raise NetError("weights must be finite")
        new = object.__new__(NetworkParams)
        object.__setattr__(new, "pool_factor", self.pool_factor)
        object.__setattr__(new, "input_len", self.input_len)
        _bind(new, vector, self.shapes)
        return new

    @property
    def kernel_len(self) -> int:
        return self.conv_w.shape[1]

    @property
    def n_filters(self) -> int:
        return self.conv_w.shape[0]

    @property
    def n_regions(self) -> int:
        return (self.input_len - self.kernel_len + 1) // self.pool_factor

    @property
    def flat_dim(self) -> int:
        return self.n_filters * self.n_regions


@dataclass(frozen=True)
class Gradients(_WeightVector):
    """Loss gradients, mirroring the NetworkParams array shapes and layout."""

    conv_w: np.ndarray
    conv_b: np.ndarray
    dense_w: np.ndarray
    dense_b: np.ndarray
    vector: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arrays = [np.asarray(getattr(self, name), dtype=np.float64) for name in _PARAM_FIELDS]
        _bind(self, np.concatenate([a.ravel() for a in arrays]), [a.shape for a in arrays])

    @classmethod
    def _wrap(cls, vector: np.ndarray, shapes) -> "Gradients":
        """Gradients over `vector` (taken over, not copied) with the given array shapes."""
        new = object.__new__(cls)
        _bind(new, vector, shapes)
        return new


@dataclass(frozen=True)
class AdamConfig:
    """Adam hyperparameters."""

    alpha: float
    beta1: float
    beta2: float
    epsilon: float

    def __post_init__(self):
        if self.alpha <= 0:
            raise NetError("alpha must be positive")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise NetError("beta1/beta2 must lie in [0, 1)")
        if self.epsilon <= 0:
            raise NetError("epsilon must be positive")


@dataclass(frozen=True)
class AdamState:
    """First/second moment estimates and the step counter."""

    m: Gradients
    v: Gradients
    t: int = 0

    @classmethod
    def zeros(cls, params: NetworkParams) -> "AdamState":
        zero = Gradients._wrap(np.zeros_like(params.vector), params.shapes)
        return cls(m=zero, v=zero, t=0)


PHASE1_ADAM = AdamConfig(alpha=0.001, beta1=0.9, beta2=0.99, epsilon=1e-8)
PHASE2_ADAM = AdamConfig(alpha=0.002, beta1=0.85, beta2=0.1, epsilon=1e-8)


@dataclass(frozen=True)
class PhaseConfig:
    epochs: int
    adam: AdamConfig

    def __post_init__(self):
        if self.epochs < 0:
            raise NetError("epochs must be >= 0")


@dataclass(frozen=True)
class TrainConfig:
    """Two-phase training schedule.

    Phase 1 runs with conservative moment decay; the weights that score best
    on the validation set then seed phase 2, which restarts the optimizer
    with its own (deliberately aggressive, beta2 = 0.1) parameters.
    """

    phase1: PhaseConfig = PhaseConfig(epochs=100, adam=PHASE1_ADAM)
    phase2: PhaseConfig = PhaseConfig(epochs=200, adam=PHASE2_ADAM)
    batch_size: int = 64
    seed: int = 0
    shuffle: bool = True
    kernel_len: int = 10
    pool_factor: int = 5
    keep: str = "best"  # "best": best-validation weights anywhere in the run;
    # "final": the raw phase-2 endpoint

    def __post_init__(self):
        if self.batch_size < 1:
            raise NetError("batch_size must be >= 1")
        if self.keep not in ("best", "final"):
            raise NetError("keep must be 'best' or 'final'")
        if self.kernel_len < 1 or self.pool_factor < 1:
            raise NetError("kernel_len and pool_factor must be >= 1")


@dataclass(frozen=True)
class EpochRecord:
    phase: int
    epoch: int
    train_loss: float
    val_accuracy: float


@dataclass(frozen=True)
class TrainHistory:
    """Per-epoch loss/validation records across both phases.

    best_epoch indexes the record with the highest validation accuracy seen
    during the run (-1 when no epoch ran); with keep="best" those are the
    weights that train() returns.
    """

    records: tuple[EpochRecord, ...]
    best_epoch: int


# ---------------------------------------------------------------------------
# forward / backward


@dataclass
class ForwardCache:
    """Intermediate activations retained for the backward pass."""

    cols: np.ndarray      # (B, positions, kernel_len * channels) im2col input
    pool_arg: np.ndarray  # (B, regions, filters) argmax offset inside each region
    flat: np.ndarray      # (B, flat_dim)
    logits: np.ndarray    # (B, 3)
    probs: np.ndarray     # (B, 3)
    params_ref: NetworkParams


@dataclass(frozen=True)
class ForwardResult:
    logits: np.ndarray
    probs: Prediction
    cache: ForwardCache


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax along the last axis."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


@lru_cache(maxsize=16)
def _tap_index(input_len: int, kernel_len: int) -> np.ndarray:
    """(positions, kernel_len * channels) offsets into one flattened window.

    Entry [p, k * channels + c] addresses sample p + k, channel c, which is
    the im2col column layout the conv weights are reshaped to.
    """
    taps = np.arange(input_len - kernel_len + 1)[:, None] + np.arange(kernel_len)
    index = (taps[:, :, None] * N_CHANNELS + np.arange(N_CHANNELS)).reshape(taps.shape[0], -1)
    index.setflags(write=False)
    return index


@lru_cache(maxsize=16)
def _scatter_base(batch: int, positions: int, regions: int, pool_factor: int, filters: int) -> np.ndarray:
    """Flat index into a (batch, positions, filters) array of offset 0 in each pool region."""
    b = np.arange(batch)[:, None, None] * (positions * filters)
    r = np.arange(regions)[None, :, None] * (pool_factor * filters)
    base = b + r + np.arange(filters)
    base.setflags(write=False)
    return base


def forward_batch(params: NetworkParams, feats: np.ndarray) -> ForwardCache:
    """Run the network over a (B, input_len, 2) feature stack."""
    if feats.ndim != 3 or feats.shape[1:] != (params.input_len, N_CHANNELS):
        raise NetError(
            f"features must have shape (B, {params.input_len}, {N_CHANNELS}), got {feats.shape}"
        )
    B = feats.shape[0]
    F, K = params.n_filters, params.kernel_len
    R, P = params.n_regions, params.pool_factor
    cols = np.take(feats.reshape(B, -1), _tap_index(params.input_len, K), axis=1)
    w2d = params.conv_w.reshape(F, K * N_CHANNELS)
    conv = cols @ w2d.T + params.conv_b  # (B, positions, F)
    regions = conv[:, : R * P].reshape(B, R, P, F)
    # max over each region: a later offset takes the index only if strictly
    # greater, so the first maximum wins ties (tied values are bit-equal, as
    # a matmul plus bias never yields -0.0)
    pool = regions[:, :, 0, :].copy()
    pool_arg = np.zeros((B, R, F), dtype=np.intp)
    for j in range(1, P):
        cand = regions[:, :, j, :]
        np.putmask(pool_arg, cand > pool, j)
        np.maximum(pool, cand, out=pool)
    flat = pool.reshape(B, R * F)
    logits = flat @ params.dense_w.T + params.dense_b
    probs = softmax(logits)
    return ForwardCache(cols, pool_arg, flat, logits, probs, params)


def backward_batch(
    params: NetworkParams, cache: ForwardCache, truths: np.ndarray, mean: bool = True
) -> Gradients:
    """Exact analytic gradient of the cross-entropy over a batch.

    Softmax probabilities are strictly positive, so the loss floor never
    binds mathematically; the gradient of the combined softmax/cross-entropy
    is probs - onehot(truth) for all finite logits. With mean=True the
    gradient corresponds to the batch-mean loss, otherwise to the sum.
    """
    assert cache.params_ref is params, "stale forward cache for these parameters"
    B = cache.probs.shape[0]
    F, K = params.n_filters, params.kernel_len
    R, P = params.n_regions, params.pool_factor

    dlogits = cache.probs.copy()
    dlogits[np.arange(B), truths] -= 1.0
    if mean:
        dlogits /= B

    d_dense_w = dlogits.T @ cache.flat
    d_dense_b = dlogits.sum(axis=0)
    dflat = dlogits @ params.dense_w

    positions = params.input_len - K + 1
    dconv = np.zeros((B, positions, F))
    # each pooled gradient goes to the position its region's maximum came from
    np.put(dconv, _scatter_base(B, positions, R, P, F) + cache.pool_arg * F, dflat)

    d_w2d = dconv.reshape(-1, F).T @ cache.cols.reshape(-1, K * N_CHANNELS)
    d_conv_b = dconv.sum(axis=(0, 1))
    vector = np.concatenate([d_w2d.ravel(), d_conv_b, d_dense_w.ravel(), d_dense_b])
    return Gradients._wrap(vector, params.shapes)


def forward(params: NetworkParams, feature: np.ndarray) -> ForwardResult:
    """Classify a single (input_len, 2) feature matrix."""
    f = np.asarray(feature, dtype=np.float64)
    if f.ndim != 2:
        raise NetError("feature must be a 2-D matrix")
    if not np.isfinite(f).all():
        raise NetError("feature must be finite")
    cache = forward_batch(params, f[None])
    return ForwardResult(cache.logits[0], Prediction(cache.probs[0]), cache)


def backward(
    params: NetworkParams, feature: np.ndarray, truth: int, cache: ForwardCache
) -> Gradients:
    """Gradient of loss_cross_entropy(forward(params, feature), truth)."""
    return backward_batch(params, cache, np.asarray([int(truth)]), mean=False)


def loss_cross_entropy(probs, truth: int) -> float:
    """Negative log-likelihood with the probability floored at 1e-12."""
    p = probs.probs if isinstance(probs, Prediction) else np.asarray(probs, dtype=np.float64)
    return float(-np.log(max(float(p[int(truth)]), PROB_FLOOR)))


# ---------------------------------------------------------------------------
# optimizer


def adam_step(
    params: NetworkParams, grads: Gradients, state: AdamState, config: AdamConfig
) -> tuple[NetworkParams, AdamState]:
    """One bias-corrected Adam update; returns fresh params and state.

    Raises NetError if the update leaves a non-finite weight.
    """
    t = state.t + 1
    b1, b2 = config.beta1, config.beta2
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    g = grads.vector
    m = b1 * state.m.vector + (1.0 - b1) * g
    v = b2 * state.v.vector + (1.0 - b2) * g * g
    m_hat = m / bc1
    v_hat = v / bc2
    theta = params.vector - config.alpha * m_hat / (np.sqrt(v_hat) + config.epsilon)
    shapes = params.shapes
    return (
        params._with_vector(theta),
        AdamState(m=Gradients._wrap(m, shapes), v=Gradients._wrap(v, shapes), t=t),
    )


# ---------------------------------------------------------------------------
# initialization and training


def init_params(
    seed: int, kernel_len: int = 10, input_len: int = 30, pool_factor: int = 5
) -> NetworkParams:
    """Uniform fan-based initialization, biases zero, deterministic per seed.

    Each weight layer draws from U(-b, b) with b = sqrt(6 / (fan_in + fan_out));
    the conv layer counts fan_in = kernel_len * channels and fan_out = filters.
    """
    rng = np.random.default_rng(seed)
    conv_bound = np.sqrt(6.0 / (kernel_len * N_CHANNELS + N_FILTERS))
    conv_w = rng.uniform(-conv_bound, conv_bound, size=(N_FILTERS, kernel_len, N_CHANNELS))
    flat = flattened_dim(input_len, kernel_len, pool_factor)
    dense_bound = np.sqrt(6.0 / (flat + N_CLASSES))
    dense_w = rng.uniform(-dense_bound, dense_bound, size=(N_CLASSES, flat))
    return NetworkParams(
        conv_w=conv_w,
        conv_b=np.zeros(N_FILTERS),
        dense_w=dense_w,
        dense_b=np.zeros(N_CLASSES),
        pool_factor=pool_factor,
        input_len=input_len,
    )


def frame_accuracy(params: NetworkParams, windows: WindowSet) -> float:
    """Mean fraction of windows whose argmax prediction matches the label."""
    if len(windows) == 0:
        raise TrainingError("cannot score an empty window set")
    correct = 0
    for lo in range(0, len(windows), FORWARD_CHUNK):
        batch = slice(lo, lo + FORWARD_CHUNK)
        cache = forward_batch(params, windows.features[batch])
        correct += int((cache.probs.argmax(axis=1) == windows.labels[batch]).sum())
    return correct / len(windows)


def train(
    split: DatasetSplit, config: TrainConfig = TrainConfig()
) -> tuple[NetworkParams, TrainHistory]:
    """Two-phase training over a dataset split.

    Phase 1 trains from a seeded initialization, recording mean frame
    accuracy on the validation part after every epoch. The best-validation
    weights (earliest epoch on ties) seed phase 2, which runs with its own
    Adam parameters and a fresh optimizer state. The second phase's low
    second-moment decay makes its updates sign-like and noisy, so by default
    the weights returned are the best-validation ones seen anywhere in the
    run (config.keep="final" returns the raw phase-2 endpoint instead).
    Deterministic per seed; the full history always covers both phases.
    """
    if len(split.train) == 0 or len(split.validation) == 0:
        raise TrainingError("train and validation parts must be non-empty")

    input_len = split.train.features.shape[1]
    params = init_params(
        config.seed,
        kernel_len=config.kernel_len,
        input_len=input_len,
        pool_factor=config.pool_factor,
    )
    shuffle_rng = np.random.default_rng([config.seed, 1])
    n = len(split.train)
    features = split.train.features
    labels = split.train.labels.astype(np.int64)

    records: list[EpochRecord] = []

    def run_phase(phase_no: int, phase: PhaseConfig, params: NetworkParams):
        state = AdamState.zeros(params)
        for epoch in range(phase.epochs):
            order = shuffle_rng.permutation(n) if config.shuffle else np.arange(n)
            losses = []
            for batch, lo in enumerate(range(0, n, config.batch_size)):
                idx = order[lo : lo + config.batch_size]
                # looked up as module globals on every call, so they can be wrapped
                cache = forward_batch(params, features[idx])
                p_true = cache.probs[np.arange(idx.shape[0]), labels[idx]]
                loss = float(-np.log(np.maximum(p_true, PROB_FLOOR)).mean())
                if not math.isfinite(loss):
                    raise TrainingError(
                        f"training diverged: non-finite loss in phase {phase_no}, epoch {epoch}, batch {batch}"
                    )
                losses.append(loss)
                grads = backward_batch(params, cache, labels[idx], mean=True)
                try:
                    params, state = adam_step(params, grads, state, phase.adam)
                except NetError:
                    raise TrainingError(
                        f"training diverged: non-finite weights after phase {phase_no}, epoch {epoch}, batch {batch}"
                    ) from None
            val_acc = frame_accuracy(params, split.validation)
            records.append(EpochRecord(phase_no, epoch, float(np.mean(losses)), val_acc))
            yield params

    best_idx = -1
    best_acc = -np.inf
    best_params = params  # initialization wins if no epoch runs
    # a diverging run overflows before it is caught as non-finite: no warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for params_after in run_phase(1, config.phase1, params):
            if records[-1].val_accuracy > best_acc:
                best_acc = records[-1].val_accuracy
                best_idx = len(records) - 1
                best_params = params_after

        final_params = best_params
        for params_after in run_phase(2, config.phase2, final_params):
            final_params = params_after
            if records[-1].val_accuracy > best_acc:
                best_acc = records[-1].val_accuracy
                best_idx = len(records) - 1
                best_params = params_after

    history = TrainHistory(records=tuple(records), best_epoch=best_idx)
    returned = final_params if config.keep == "final" else best_params
    return returned, history
