"""A tiny 1-D convolutional classifier with exact backprop, written in numpy.

Architecture (defaults): a (30, 2) feature matrix passes through a valid
cross-correlation with 10 filters of length 10 spanning both channels
(-> 21 x 10), non-overlapping max pooling by 5 with floor semantics
(-> 4 x 10), flattening (-> 40), a dense layer (-> 3 logits) and a softmax.
There is no activation between convolution and pooling; the pooling itself
is the nonlinearity.

All arithmetic is float64. The weights live in one contiguous vector,
ordered conv_w, conv_b, dense_w, dense_b (the model file's payload order);
the four named arrays are read-only views into it. param_shapes is the one
rule that turns a layer geometry into those four shapes: the constructors,
the model loader and the config check all go through it. A gradient and
the Adam moments are plain read-only vectors in that layout, so an optimizer
step is a few whole-vector operations, and NetworkParams._like is the one
way a step's result vector becomes new weights of the same geometry without
a copy. The convolution unfolds each batch into im2col columns with one
strided copy, so memory grows with the batch and not with the training set.
There is one path per computation: forward_batch and backward_batch over a
window stack (a single window is a stack of one), and loss_cross_entropy,
the batch-mean loss that train minimizes and backward_batch differentiates
exactly. They are pure functions of immutable parameters, and training is
bit-deterministic for a fixed seed.

Training and scoring pool through one routine, _pool: the max of each
region over the bias-free conv outputs, then the bias. It keeps no argmax:
backward_batch routes each pooled gradient to the first offset whose biased
output equals the pooled value (ForwardCache.pool_arg).

Scoring many windows (frame_accuracy after every epoch, cnn_detect on a
recording) goes through score_windows. It runs im2col, convolution and
pooling SCORE_CHUNK (256) windows at a time and stacks the pooled
features of up to FORWARD_CHUNK (65,536) windows for the dense layer and
softmax, so the im2col columns and conv outputs held at once are those of
one chunk. BLAS picks its kernel, and so its rounding, by a product's
shape, so every score, model and hash is exact per platform. The dense
layer's logits differ by up to ~5e-15 between row counts on any kernel, so
the dense layer keeps FORWARD_CHUNK row blocks, and the scores are those of
a pass that runs its conv GEMM on the same SCORE_CHUNK row blocks. On
OpenBLAS's SkylakeX kernel a conv row also comes out the same for any row
count, so there they equal one forward_batch per FORWARD_CHUNK windows; no
test relies on that. The same trap holds for the weights: the conv GEMM
must read w2d.T as a transposed view, because a contiguous copy of it takes
another BLAS path and changes the bits of every trained model.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .gaze import DatasetSplit, N_CLASSES, WindowSet

PROB_FLOOR = 1e-12
N_FILTERS = 10
N_CHANNELS = 2
FORWARD_CHUNK = 65536  # windows per dense-layer product when scoring many windows
SCORE_CHUNK = 256  # windows per im2col, conv and pool pass when scoring

_PARAM_FIELDS = ("conv_w", "conv_b", "dense_w", "dense_b")


class NetError(ValueError):
    """Shape or argument error in the network layer."""


class TrainingError(ValueError):
    """Bad training inputs or a diverged run; recording is the group of a window that overflows
    the initial weights, or the validation pass."""

    def __init__(self, message: str, recording: int | None = None):
        super().__init__(message)
        self.recording = recording


def param_shapes(
    input_len: int, kernel_len: int, pool_factor: int, n_filters: int = N_FILTERS
) -> tuple[tuple[int, ...], ...]:
    """Shapes of conv_w, conv_b, dense_w and dense_b for a layer geometry.

    The one geometry rule: a valid convolution leaves input_len - kernel_len
    + 1 positions, and pooling by pool_factor (floor) leaves the regions the
    dense layer reads, each with n_filters values. Raises NetError when a
    size is below 1 or no pooled output is left.
    """
    if min(kernel_len, pool_factor, n_filters) < 1:
        raise NetError("kernel_len, pool_factor and n_filters must be >= 1")
    regions = (input_len - kernel_len + 1) // pool_factor
    if regions < 1:
        raise NetError("layer geometry leaves no pooled outputs")
    return (n_filters, kernel_len, N_CHANNELS), (n_filters,), (N_CLASSES, n_filters * regions), (N_CLASSES,)


@lru_cache(maxsize=16)
def _layout(shapes) -> tuple[tuple[str, int, int, tuple[int, ...]], ...]:
    """(name, start, stop, shape) of each named array in a weight vector."""
    layout, pos = [], 0
    for name, shape in zip(_PARAM_FIELDS, shapes):
        size = math.prod(shape)
        layout.append((name, pos, pos + size, shape))
        pos += size
    return tuple(layout)


def _views(vector: np.ndarray, shapes) -> list[np.ndarray]:
    """The four named arrays of a weight vector, as views into it."""
    return [vector[lo:hi].reshape(shape) for _, lo, hi, shape in _layout(shapes)]


def _bind(obj, vector: np.ndarray, shapes):
    """Freeze `vector` and set it, and its four named views, on `obj`; returns `obj`."""
    vector.setflags(write=False)
    attrs = obj.__dict__  # past the frozen dataclass's __setattr__, as object.__setattr__ would go
    attrs["vector"] = vector
    attrs.update(zip(_PARAM_FIELDS, _views(vector, shapes)))
    return obj


@dataclass(frozen=True)
class NetworkParams:
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
        arrays = [np.asarray(getattr(self, name), dtype=np.float64) for name in _PARAM_FIELDS]
        if arrays[0].ndim != 3:
            raise NetError("conv_w must have shape (filters, kernel_len, 2)")
        n_filters, kernel_len, _ = arrays[0].shape
        shapes = param_shapes(self.input_len, kernel_len, self.pool_factor, n_filters)
        for name, a, shape in zip(_PARAM_FIELDS, arrays, shapes):
            if a.shape != shape:
                raise NetError(f"{name} must have shape {shape}, got {a.shape}")
        vector = np.concatenate([a.ravel() for a in arrays])
        if not np.isfinite(vector).all():
            raise NetError("weights must be finite")
        _bind(self, vector, shapes)

    @classmethod
    def from_vector(
        cls, vector: np.ndarray, kernel_len: int, pool_factor: int, input_len: int, n_filters: int = N_FILTERS
    ) -> "NetworkParams":
        """Validated parameters from a flat vector in payload order (copied)."""
        shapes = param_shapes(input_len, kernel_len, pool_factor, n_filters)
        if vector.shape != (sum(math.prod(shape) for shape in shapes),):
            raise NetError("weight vector does not match the layer geometry")
        return cls(*_views(vector, shapes), pool_factor=pool_factor, input_len=input_len)

    @property
    def kernel_len(self) -> int:
        return self.conv_w.shape[1]

    @property
    def n_filters(self) -> int:
        return self.conv_w.shape[0]

    @property
    def n_regions(self) -> int:
        return self.dense_w.shape[1] // self.n_filters

    @property
    def flat_dim(self) -> int:
        return self.dense_w.shape[1]

    @property
    def shapes(self) -> tuple[tuple[int, ...], ...]:
        return (self.conv_w.shape, self.conv_b.shape, self.dense_w.shape, self.dense_b.shape)

    def arrays(self) -> Iterable[tuple[str, np.ndarray]]:
        for name in _PARAM_FIELDS:
            yield name, getattr(self, name)

    def _like(self, vector: np.ndarray) -> "NetworkParams":
        """The same geometry over `vector`, which is taken over, not copied."""
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__)
        return _bind(new, vector, self.shapes)


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
    """First/second moment estimates, read-only vectors in the weight vector's
    layout, and the step counter."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, params: NetworkParams) -> "AdamState":
        zero = np.zeros(params.vector.size)
        zero.setflags(write=False)
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
    # "final": the last weights, where phase 2 ends

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

    cols: np.ndarray    # (B, positions, kernel_len * channels) im2col input
    slabs: np.ndarray   # (pool_factor, B, regions, filters) bias-free conv outputs, one slab per offset
    flat: np.ndarray    # (B, flat_dim)
    logits: np.ndarray  # (B, 3)
    probs: np.ndarray   # (B, 3)
    params_ref: NetworkParams

    @property
    def pool_arg(self) -> np.ndarray:
        """(B, regions, filters) offset of each region's maximum: the first
        offset whose biased conv output equals the pooled value."""
        pooled = self.flat.reshape(self.slabs.shape[1:])
        arg = np.full(pooled.shape, self.slabs.shape[0] - 1, dtype=np.intp)
        for j in range(self.slabs.shape[0] - 2, -1, -1):
            np.putmask(arg, self.slabs[j] + self.params_ref.conv_b == pooled, j)
        return arg


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax along the last axis."""
    e = logits - logits.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


@lru_cache(maxsize=16)
def _scatter_base(batch: int, positions: int, regions: int, pool_factor: int, filters: int) -> np.ndarray:
    """Flat index into a (batch, positions, filters) array of offset 0 in each pool region."""
    b = np.arange(batch)[:, None, None] * (positions * filters)
    r = np.arange(regions)[None, :, None] * (pool_factor * filters)
    base = b + r + np.arange(filters)
    base.setflags(write=False)
    return base


def _check_features(params: NetworkParams, feats: np.ndarray) -> None:
    if feats.ndim != 3 or feats.shape[1:] != (params.input_len, N_CHANNELS):
        raise NetError(
            f"features must have shape (B, {params.input_len}, {N_CHANNELS}), got {feats.shape}"
        )


def _conv(params: NetworkParams, feats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """im2col columns and bias-free conv outputs (B, positions, filters) of a
    window stack. A window's columns do not depend on the rest of the stack;
    whether its conv outputs do depends on the BLAS kernel."""
    B = feats.shape[0]
    F, K = params.n_filters, params.kernel_len
    positions = params.input_len - K + 1
    # im2col: row p of a window's columns is its flattened samples p .. p + K - 1,
    # starting N_CHANNELS values after row p - 1; the last row ends on the
    # window's last value, so the strided view stays inside every window
    flat_in = feats.reshape(B, params.input_len * N_CHANNELS)
    step = flat_in.strides[1]
    cols = as_strided(flat_in, (B, positions, K * N_CHANNELS), (flat_in.strides[0], N_CHANNELS * step, step)).copy()
    # one 2-D GEMM (a batched (B, positions) product rounds differently on
    # some kernels); w2d.T must stay a transposed view: a contiguous copy
    # takes another BLAS kernel and rounds differently
    w2d = params.conv_w.reshape(F, K * N_CHANNELS)
    return cols, (cols.reshape(-1, K * N_CHANNELS) @ w2d.T).reshape(B, positions, F)


def _pool(params: NetworkParams, feats: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """im2col columns, offset slabs and pooled features (B, flat_dim) of a
    window stack: the one pooling routine of forward_batch and score_windows.

    The slabs are P contiguous (B, regions, filters) copies of the bias-free
    conv outputs, one per offset in a region. The bias goes on after the max:
    rounding is monotone, so fl(max_j c_j + b) == max_j fl(c_j + b).
    """
    cols, conv = _conv(params, feats)
    B, F = feats.shape[0], params.n_filters
    R, P = params.n_regions, params.pool_factor
    slabs = np.ascontiguousarray(conv[:, : R * P].reshape(B, R, P, F).transpose(2, 0, 1, 3))
    pool = slabs[0].copy()
    for j in range(1, P):
        np.maximum(pool, slabs[j], out=pool)
    pool += params.conv_b
    return cols, slabs, pool.reshape(B, R * F)


def _dense(params: NetworkParams, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Logits and softmax probabilities of pooled features."""
    logits = flat @ params.dense_w.T + params.dense_b
    return logits, softmax(logits)


def forward_batch(params: NetworkParams, feats: np.ndarray) -> ForwardCache:
    """Run the network over a (B, input_len, 2) feature stack."""
    _check_features(params, feats)
    cols, slabs, flat = _pool(params, feats)
    logits, probs = _dense(params, flat)
    return ForwardCache(cols, slabs, flat, logits, probs, params)


def score_windows(params: NetworkParams, feats: np.ndarray) -> np.ndarray:
    """Class probabilities (n, 3) of an (n, input_len, 2) window stack.

    The scoring path of frame_accuracy and cnn_detect: convolution and
    pooling SCORE_CHUNK windows at a time, the dense layer and softmax over
    the stacked pooled features of up to FORWARD_CHUNK windows (see the
    module docstring).
    """
    _check_features(params, feats)
    n = feats.shape[0]
    probs = np.empty((n, N_CLASSES))
    pooled = np.empty((min(n, FORWARD_CHUNK), params.flat_dim))
    for lo in range(0, n, FORWARD_CHUNK):
        block = feats[lo : lo + FORWARD_CHUNK]
        flat = pooled[: block.shape[0]]
        for c in range(0, block.shape[0], SCORE_CHUNK):
            flat[c : c + SCORE_CHUNK] = _pool(params, block[c : c + SCORE_CHUNK])[2]
        probs[lo : lo + block.shape[0]] = _dense(params, flat)[1]
    return probs


def backward_batch(params: NetworkParams, cache: ForwardCache, truths: np.ndarray) -> np.ndarray:
    """Exact analytic gradient of loss_cross_entropy(cache.probs, truths): a
    read-only vector in the layout of params.vector.

    Softmax probabilities are strictly positive, so the loss floor never
    binds mathematically; the gradient of the combined softmax/cross-entropy
    is (probs - onehot(truth)) / B for all finite logits.
    """
    assert cache.params_ref is params, "stale forward cache for these parameters"
    B = cache.probs.shape[0]
    F, K = params.n_filters, params.kernel_len
    R, P = params.n_regions, params.pool_factor

    dlogits = cache.probs.copy()
    dlogits[np.arange(B), truths] -= 1.0
    dlogits /= B

    vector = np.empty(params.vector.size)
    d_conv_w, d_conv_b, d_dense_w, d_dense_b = _views(vector, params.shapes)
    np.matmul(dlogits.T, cache.flat, out=d_dense_w)
    np.sum(dlogits, axis=0, out=d_dense_b)
    dflat = dlogits @ params.dense_w

    positions = params.input_len - K + 1
    dconv = np.zeros((B, positions, F))
    # each pooled gradient goes to the position its region's maximum came from
    np.put(dconv, _scatter_base(B, positions, R, P, F) + cache.pool_arg * F, dflat)

    np.matmul(dconv.reshape(-1, F).T, cache.cols.reshape(-1, K * N_CHANNELS), out=d_conv_w.reshape(F, -1))
    # dconv holds dflat's values in the same order, with zeros between them:
    # summing dflat adds the same numbers, so the bias gradient is bit-equal
    np.sum(dflat.reshape(-1, F), axis=0, out=d_conv_b)
    vector.setflags(write=False)
    return vector


def loss_cross_entropy(probs: np.ndarray, truths: np.ndarray) -> float:
    """Batch-mean negative log-likelihood of (B, 3) probabilities, each floored at PROB_FLOOR."""
    p_true = probs[np.arange(probs.shape[0]), truths]
    return float(-np.log(np.maximum(p_true, PROB_FLOOR)).mean())


# ---------------------------------------------------------------------------
# optimizer


def adam_step(
    params: NetworkParams, grad: np.ndarray, state: AdamState, config: AdamConfig
) -> tuple[NetworkParams, AdamState]:
    """One bias-corrected Adam update; returns fresh params and state.

    Raises NetError if the update leaves a non-finite weight.
    """
    t = state.t + 1
    b1, b2 = config.beta1, config.beta2
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    m = b1 * state.m + (1.0 - b1) * grad
    v = b2 * state.v + (1.0 - b2) * grad * grad
    m_hat = m / bc1
    v_hat = v / bc2
    theta = params.vector - config.alpha * m_hat / (np.sqrt(v_hat) + config.epsilon)
    if not np.isfinite(theta).all():
        raise NetError("weights must be finite")
    m.setflags(write=False)
    v.setflags(write=False)
    return params._like(theta), AdamState(m=m, v=v, t=t)


# ---------------------------------------------------------------------------
# initialization and training


def init_params(
    seed: int,
    kernel_len: int = TrainConfig.kernel_len,
    input_len: int = 30,
    pool_factor: int = TrainConfig.pool_factor,
) -> NetworkParams:
    """Uniform fan-based initialization, biases zero, deterministic per seed.

    Each weight layer draws from U(-b, b) with b = sqrt(6 / (fan_in + fan_out));
    the conv layer counts fan_in = kernel_len * channels and fan_out = filters.
    """
    conv_shape, conv_b_shape, dense_shape, dense_b_shape = param_shapes(input_len, kernel_len, pool_factor)
    rng = np.random.default_rng(seed)
    conv_bound = np.sqrt(6.0 / (kernel_len * N_CHANNELS + N_FILTERS))
    conv_w = rng.uniform(-conv_bound, conv_bound, size=conv_shape)
    dense_bound = np.sqrt(6.0 / (dense_shape[1] + N_CLASSES))
    dense_w = rng.uniform(-dense_bound, dense_bound, size=dense_shape)
    return NetworkParams(conv_w, np.zeros(conv_b_shape), dense_w, np.zeros(dense_b_shape), pool_factor, input_len)


def frame_accuracy(params: NetworkParams, windows: WindowSet) -> float:
    """Mean fraction of windows whose argmax prediction matches the label.

    A window whose scores are not finite raises TrainingError naming the
    group of the first such window.
    """
    if len(windows) == 0:
        raise TrainingError("cannot score an empty window set")
    probs = score_windows(params, windows.features)
    bad = np.flatnonzero(~np.isfinite(probs).all(axis=1))
    if bad.size:
        raise TrainingError("non-finite window scores", int(windows.groups[bad[0]]))
    correct = int((probs.argmax(axis=1) == windows.labels).sum())
    return correct / len(windows)


def train(
    split: DatasetSplit, config: TrainConfig = TrainConfig()
) -> tuple[NetworkParams, TrainHistory]:
    """Two-phase training over a dataset split.

    Each phase starts from the best-validation weights so far (the seeded
    initialization for phase 1; the earliest epoch wins ties) with its own
    Adam parameters and a fresh optimizer state, and records the mean frame
    accuracy on the validation part after every epoch. The second phase's
    low second-moment decay makes its updates sign-like and noisy, so by
    default the weights returned are the best-validation ones seen anywhere
    in the run (config.keep="final" returns the last weights instead: the
    phase-2 endpoint, or its start when phase 2 runs no epoch).
    Deterministic per seed; the full history always covers both phases.
    """
    if len(split.train) == 0 or len(split.validation) == 0:
        raise TrainingError("train and validation parts must be non-empty")

    input_len = split.train.features.shape[1]
    params = initial = init_params(
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
    best_idx, best_acc, best_params = -1, -np.inf, params  # initialization wins if no epoch runs
    # a diverging run overflows before it is caught as non-finite: no warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for phase_no, phase in ((1, config.phase1), (2, config.phase2)):
            params, state = best_params, AdamState.zeros(best_params)
            for epoch in range(phase.epochs):
                order = shuffle_rng.permutation(n) if config.shuffle else np.arange(n)
                losses = []
                for batch, lo in enumerate(range(0, n, config.batch_size)):
                    idx = order[lo : lo + config.batch_size]
                    truths = labels[idx]
                    # looked up as module globals on every call, so they can be wrapped
                    cache = forward_batch(params, features[idx])
                    loss = loss_cross_entropy(cache.probs, truths)
                    if not math.isfinite(loss):
                        bad = idx[~np.isfinite(score_windows(initial, features[idx])).all(axis=1)]
                        raise TrainingError(
                            f"training diverged: non-finite loss in phase {phase_no}, epoch {epoch}, batch {batch}",
                            int(split.train.groups[bad[0]]) if bad.size else None,
                        )
                    losses.append(loss)
                    grad = backward_batch(params, cache, truths)
                    try:
                        params, state = adam_step(params, grad, state, phase.adam)
                    except NetError:
                        raise TrainingError(
                            f"training diverged: non-finite weights after phase {phase_no}, epoch {epoch}, batch {batch}"
                        ) from None
                val_acc = frame_accuracy(params, split.validation)
                records.append(EpochRecord(phase_no, epoch, float(np.mean(losses)), val_acc))
                if val_acc > best_acc:
                    best_acc, best_idx, best_params = val_acc, len(records) - 1, params

    history = TrainHistory(records=tuple(records), best_epoch=best_idx)
    return (params if config.keep == "final" else best_params), history
