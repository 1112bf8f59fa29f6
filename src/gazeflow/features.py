"""Sliding-window frequency features.

A gaze sequence is scanned with a fixed-length window (default 30 samples,
one window per stride step); each window is optionally demeaned per channel
and transformed with an unnormalized forward DFT. The magnitude spectrum of
the horizontal and vertical channel forms the (window_len, 2) feature matrix
whose prediction is attributed to the window's center sample.

DFT convention: X[k] = sum_n x[n] * exp(-2j*pi*k*n/N), no 1/N factor, so
magnitudes are reproducible bit-for-bit across implementations.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .gaze import DEFAULT_SPLIT_RATIOS, DatasetSplit, GazeSequence, WindowSet, naming_errors, split_units

FEATURIZE_CHUNK = 1024  # windows per copy, demean, FFT and magnitude pass


class FeatureError(ValueError):
    """Raised for malformed frontend inputs (shape, finiteness, length)."""


@dataclass(frozen=True)
class FrontendConfig:
    """Windowing and encoding parameters.

    center_offset is the zero-based index, within the window, of the sample
    that receives the window's prediction. Runs of up to interp_max_gap
    consecutive invalid samples are repaired by linear interpolation; windows
    still containing invalid samples after repair are skipped.
    """

    window_len: int = 30
    stride: int = 1
    center_offset: int = 15
    interp_max_gap: int = 3
    demean: bool = True

    def __post_init__(self):
        if self.window_len < 1:
            raise FeatureError("window_len must be positive")
        if not 0 <= self.center_offset < self.window_len:
            raise FeatureError("center_offset must lie inside the window")
        if self.stride < 1:
            raise FeatureError("stride must be >= 1")
        if self.interp_max_gap < 0:
            raise FeatureError("interp_max_gap must be >= 0")


def repair_sequence(seq: GazeSequence, max_gap: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fill short invalid runs by linear interpolation over time.

    Returns (x, y, still_bad): runs longer than max_gap, or runs touching a
    sequence boundary, are left in place and flagged in still_bad. One
    np.interp per channel fills every run, with the bits of interpolating
    each run between its two valid neighbours alone.
    """
    x = np.array(seq.x_deg, dtype=np.float64)
    y = np.array(seq.y_deg, dtype=np.float64)
    bad = ~np.asarray(seq.valid, dtype=bool)
    n = x.shape[0]
    if bad.all() or not bad.any():  # nothing to interpolate from, or nothing to repair
        return x, y, bad

    edges = np.flatnonzero(np.diff(bad.astype(np.int8)))
    starts = np.concatenate([[0], edges + 1])
    ends = np.concatenate([edges, [n - 1]])  # inclusive: runs alternate valid and invalid
    repair = bad[starts] & (ends - starts + 1 <= max_gap) & (starts > 0) & (ends < n - 1)
    fill = np.repeat(repair, ends - starts + 1)
    t, ok = seq.t_ms, ~bad
    x[fill] = np.interp(t[fill], t[ok], x[ok])
    y[fill] = np.interp(t[fill], t[ok], y[ok])
    return x, y, bad & ~fill


def window_starts(still_bad: np.ndarray, window_len: int, stride: int = 1) -> np.ndarray:
    """Start indices of the windows kept: the one window rule of the package.

    One window starts every stride samples; a window is kept when it holds
    no sample that is still invalid after repair (still_bad, as returned by
    repair_sequence). A sequence shorter than one window keeps none. The
    frontend and every baseline detector cover samples by this rule.
    """
    n = still_bad.shape[0]
    if n < window_len:
        return np.empty(0, dtype=np.int64)
    starts = np.arange(0, n - window_len + 1, stride)
    if still_bad.any():
        bad_in_window = sliding_window_view(still_bad, window_len).any(axis=1)
        starts = starts[~bad_in_window[starts]]
    return starts


def count_windows(seq: GazeSequence, config: FrontendConfig = FrontendConfig()) -> int:
    """Number of windows the frontend keeps of seq (see window_starts)."""
    _, _, still_bad = repair_sequence(seq, config.interp_max_gap)
    return int(window_starts(still_bad, config.window_len, config.stride).size)


def featurize_sequence(
    seq: GazeSequence, config: FrontendConfig = FrontendConfig()
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized window extraction over a whole sequence.

    Returns (centers, features): centers is the strictly increasing array of
    center sample indices that received a window, features the matching
    (m, window_len, 2) stack. Windows containing unrepaired invalid samples
    are skipped (see window_starts); a window whose features overflow raises
    FeatureError. The windows are copied, demeaned and transformed
    FEATURIZE_CHUNK at a time straight into the result, so the transients
    stay those of one chunk; each row is the same whatever the chunk.
    """
    n = len(seq)
    L = config.window_len
    if n < L:
        raise FeatureError(f"sequence of {n} samples is shorter than one window ({L})")
    x, y, bad = repair_sequence(seq, config.interp_max_gap)
    starts = window_starts(bad, L, config.stride)
    centers = starts + config.center_offset
    feats = np.empty((starts.size, L, 2), dtype=np.float64)
    views = (sliding_window_view(x, L), sliding_window_view(y, L))
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, starts.size, FEATURIZE_CHUNK):
            chunk = starts[lo : lo + FEATURIZE_CHUNK]
            block = feats[lo : lo + chunk.size]
            for channel, view in enumerate(views):
                w = view[chunk]  # a fancy-indexed copy
                if config.demean:
                    w -= w.mean(axis=1, keepdims=True)
                np.abs(np.fft.fft(w, axis=1), out=block[:, :, channel])
            finite = np.isfinite(block).all(axis=(1, 2))
            if not finite.all():
                first = centers[lo + np.argmin(finite)]
                raise FeatureError(
                    f"features must be finite: the window centred on sample {first} overflows (coordinates out of range)"
                )
    return centers, feats


def split_recordings(
    sequences: list[GazeSequence], config: FrontendConfig = FrontendConfig(), seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """The one split rule of the package: whole recordings, dealt once.

    The recordings that keep a window (count_windows) are dealt into train,
    validation and test in the DEFAULT_SPLIT_RATIOS proportions,
    deterministically for a fixed seed, so that the overlapping windows of
    one recording never land in two parts. Returns (part, counts), one
    entry per recording: its part (0 train, 1 validation, 2 test, -1 for a
    recording without a window) and the number of windows it keeps. Raises
    FeatureError when validation or test would be empty.
    """
    counts = np.array([count_windows(seq, config) for seq in sequences], dtype=np.int64)
    units = np.flatnonzero(counts)
    train, validation, test = split_units(units, DEFAULT_SPLIT_RATIOS, seed)
    if not (validation.size and test.size):
        need = math.ceil(1 / min(DEFAULT_SPLIT_RATIOS[1:]))
        raise FeatureError(
            f"a split by recording needs at least {need} recordings that keep a window, got {units.size}"
        )
    part = np.full(counts.size, -1, dtype=np.int8)
    for k, ids in enumerate((train, validation, test)):
        part[ids] = k
    return part, counts


def split_dataset(
    sequences: list[GazeSequence], config: FrontendConfig = FrontendConfig(), seed: int = 0
) -> DatasetSplit:
    """Featurize labeled sequences into the train and validation parts of a split.

    split_recordings decides the part of each recording before any feature
    is computed. Each train and validation recording is then featurized
    once and copied whole into its part, in recording order; the test
    recordings are never featurized. Window labels are taken from the
    center sample and groups carry the index of the source sequence, and
    the split's part holds split_recordings' decision per recording.
    Unlabeled sequences raise FeatureError, as does a set with too few
    recordings that keep a window.
    """
    for gi, seq in enumerate(sequences):
        if seq.labels is None:
            raise FeatureError(f"sequence {seq.source_id or gi} has no labels")
    part, counts = split_recordings(sequences, config, seed)
    L = config.window_len
    parts = [
        WindowSet(np.empty((size, L, 2)), np.empty(size, np.int8), np.empty(size, np.int64))
        for size in (int(counts[part == k].sum()) for k in (0, 1))
    ]
    filled = [0, 0]
    for gi, seq in enumerate(sequences):
        k = part[gi]
        if k not in (0, 1):
            continue
        with naming_errors(seq):
            centers, feats = featurize_sequence(seq, config)  # looked up as a module global, so it can be wrapped
        ws, lo, hi = parts[k], filled[k], filled[k] + centers.size
        ws.features[lo:hi] = feats
        ws.labels[lo:hi] = seq.labels[centers]
        ws.groups[lo:hi] = gi
        filled[k] = hi
    return DatasetSplit(train=parts[0], validation=parts[1], part=part)
