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

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .gaze import GazeSequence, WindowSet


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


def fft_magnitude(signal: np.ndarray) -> np.ndarray:
    """Magnitude of the unnormalized forward DFT of a real signal.

    output[k] = |sum_n signal[n] * exp(-2j*pi*k*n/N)|; conjugate symmetry
    makes output[k] == output[N-k] for real inputs.
    """
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1:
        raise FeatureError("signal must be a one-dimensional vector")
    if not np.isfinite(x).all():
        raise FeatureError("signal must be finite")
    return np.abs(np.fft.fft(x))


def repair_sequence(seq: GazeSequence, max_gap: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fill short invalid runs by linear interpolation over time.

    Returns (x, y, still_bad): runs longer than max_gap, or runs touching a
    sequence boundary, are left in place and flagged in still_bad.
    """
    x = np.array(seq.x_deg, dtype=np.float64)
    y = np.array(seq.y_deg, dtype=np.float64)
    bad = ~np.asarray(seq.valid, dtype=bool)
    n = x.shape[0]
    if not bad.any():
        return x, y, bad

    still_bad = bad.copy()
    edges = np.flatnonzero(np.diff(bad.astype(np.int8)))
    starts = np.concatenate([[0], edges + 1])
    for s in starts:
        if not bad[s]:
            continue
        e = s
        while e + 1 < n and bad[e + 1]:
            e += 1
        run_len = e - s + 1
        if run_len <= max_gap and s > 0 and e < n - 1:
            t = seq.t_ms
            span = [t[s - 1], t[e + 1]]
            x[s : e + 1] = np.interp(t[s : e + 1], span, [x[s - 1], x[e + 1]])
            y[s : e + 1] = np.interp(t[s : e + 1], span, [y[s - 1], y[e + 1]])
            still_bad[s : e + 1] = False
    return x, y, still_bad


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


def yields_windows(seq: GazeSequence, config: FrontendConfig = FrontendConfig()) -> bool:
    """True when the frontend keeps at least one window of seq.

    These are exactly the sequences that build_window_set turns into
    training windows, so a split of them matches a by-sequence training split.
    """
    _, _, still_bad = repair_sequence(seq, config.interp_max_gap)
    return window_starts(still_bad, config.window_len, config.stride).size > 0


def featurize_sequence(
    seq: GazeSequence, config: FrontendConfig = FrontendConfig()
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized window extraction over a whole sequence.

    Returns (centers, features): centers is the strictly increasing array of
    center sample indices that received a window, features the matching
    (m, window_len, 2) stack. Windows containing unrepaired invalid samples
    are skipped (see window_starts).
    """
    n = len(seq)
    L = config.window_len
    if n < L:
        raise FeatureError(f"sequence of {n} samples is shorter than one window ({L})")
    x, y, bad = repair_sequence(seq, config.interp_max_gap)
    starts = window_starts(bad, L, config.stride)
    if starts.size == 0:
        return starts, np.empty((0, L, 2), dtype=np.float64)

    wx = sliding_window_view(x, L)[starts].copy()
    wy = sliding_window_view(y, L)[starts].copy()
    if config.demean:
        wx -= wx.mean(axis=1, keepdims=True)
        wy -= wy.mean(axis=1, keepdims=True)
    feats = np.stack([np.abs(np.fft.fft(wx, axis=1)), np.abs(np.fft.fft(wy, axis=1))], axis=2)
    centers = starts + config.center_offset
    return centers, feats


def build_window_set(
    sequences: list[GazeSequence], config: FrontendConfig = FrontendConfig()
) -> WindowSet:
    """Featurize labeled sequences into one WindowSet for training.

    Window labels are taken from the center sample. Sequences that yield no
    window (see yields_windows) are skipped; unlabeled sequences raise
    FeatureError.
    """
    feats: list[np.ndarray] = []
    labels: list[np.ndarray] = []
    groups: list[np.ndarray] = []
    for gi, seq in enumerate(sequences):
        if seq.labels is None:
            raise FeatureError(f"sequence {seq.source_id or gi} has no labels")
        if len(seq) < config.window_len:
            continue
        centers, f = featurize_sequence(seq, config)
        if centers.size == 0:
            continue
        feats.append(f)
        labels.append(seq.labels[centers])
        groups.append(np.full(centers.shape[0], gi, dtype=np.int64))
    if not feats:
        raise FeatureError("no usable windows in the given sequences")
    return WindowSet(
        np.concatenate(feats), np.concatenate(labels), np.concatenate(groups)
    )
