"""Core gaze-domain types: sequences, labels, events, dataset splits.

Everything here is an immutable value type plus a few pure functions; the
heavier numerics live in the other modules.
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, Iterator

import numpy as np


class LabelClass(IntEnum):
    """Eye-movement classes. The integer codes fix the axis order of every
    confusion matrix, report and score triple in the package."""

    FIXATION = 0
    SACCADE = 1
    PURSUIT = 2


N_CLASSES = 3
CLASS_NAMES = ("fixation", "saccade", "pursuit")


class GazeDataError(ValueError):
    """A gaze container or operation argument violates its invariants."""


@dataclass(frozen=True)
class GazeSequence:
    """A continuous gaze recording stored as parallel arrays.

    Invalid samples are kept in place (coordinates may be NaN) so indices
    stay aligned with annotations; consumers decide how to handle them.
    """

    t_ms: np.ndarray
    x_deg: np.ndarray
    y_deg: np.ndarray
    valid: np.ndarray
    labels: np.ndarray | None = None
    source_id: str = ""

    def __post_init__(self):
        t = np.asarray(self.t_ms, dtype=np.float64)
        x = np.asarray(self.x_deg, dtype=np.float64)
        y = np.asarray(self.y_deg, dtype=np.float64)
        v = np.asarray(self.valid, dtype=bool)
        if not (t.ndim == x.ndim == y.ndim == v.ndim == 1):
            raise GazeDataError("sequence arrays must be one-dimensional")
        n = t.shape[0]
        if not (x.shape[0] == y.shape[0] == v.shape[0] == n):
            raise GazeDataError("sequence arrays must have equal length")
        if n > 1 and not np.all(np.diff(t) > 0):
            raise GazeDataError("timestamps must be strictly increasing")
        if not (np.isfinite(x[v]).all() and np.isfinite(y[v]).all()):
            raise GazeDataError("valid samples must have finite coordinates")
        labels = self.labels
        if labels is not None:
            labels = np.asarray(labels)
            if labels.shape != (n,):
                raise GazeDataError("labels must match the number of samples")
            # checked before the int8 cast, which would wrap 256 to 0
            if n and not (labels.min() >= 0 and labels.max() < N_CLASSES):
                raise GazeDataError("labels must be class codes 0, 1 or 2")
            labels = labels.astype(np.int8, copy=False)
            labels.setflags(write=False)
        for name, arr in (("t_ms", t), ("x_deg", x), ("y_deg", y), ("valid", v)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.t_ms.shape[0]


@contextmanager
def naming_errors(seq: GazeSequence) -> Iterator[None]:
    """Prefix "recording <seq.source_id>: " to a ValueError raised in the block."""
    try:
        yield
    except ValueError as exc:
        raise type(exc)(f"recording {seq.source_id}: {exc}") from None


@dataclass(frozen=True)
class Event:
    """A contiguous run of samples sharing one class; indices are inclusive."""

    label: LabelClass
    start_idx: int
    end_idx: int

    def __post_init__(self):
        if self.start_idx < 0 or self.end_idx < self.start_idx:
            raise GazeDataError(
                f"bad event span [{self.start_idx}, {self.end_idx}]"
            )

    @property
    def n_samples(self) -> int:
        return self.end_idx - self.start_idx + 1


def events_from_labels(labels: Iterable[LabelClass] | np.ndarray) -> list[Event]:
    """Run-length encode a label sequence into events.

    Concatenating the returned spans reproduces the input exactly, and
    adjacent events always differ in class.
    """
    arr = np.asarray([int(c) for c in labels] if not isinstance(labels, np.ndarray) else labels)
    n = arr.shape[0]
    if n == 0:
        return []
    bounds = np.flatnonzero(np.diff(arr)) + 1
    starts = np.concatenate([[0], bounds])
    ends = np.concatenate([bounds - 1, [n - 1]])
    return [
        Event(LabelClass(int(arr[s])), int(s), int(e)) for s, e in zip(starts, ends)
    ]


@dataclass(frozen=True)
class WindowSet:
    """Labeled feature windows ready for training.

    groups carries the index of the source sequence of each window.
    """

    features: np.ndarray  # (n, window_len, 2)
    labels: np.ndarray  # (n,)
    groups: np.ndarray  # (n,)

    def __post_init__(self):
        f = np.asarray(self.features, dtype=np.float64)
        l = np.asarray(self.labels, dtype=np.int8)
        g = np.asarray(self.groups, dtype=np.int64)
        if f.ndim != 3 or f.shape[2] != 2:
            raise GazeDataError("features must have shape (n, window_len, 2)")
        if l.shape != (f.shape[0],) or g.shape != (f.shape[0],):
            raise GazeDataError("labels/groups must match the number of windows")
        object.__setattr__(self, "features", f)
        object.__setattr__(self, "labels", l)
        object.__setattr__(self, "groups", g)

    def __len__(self) -> int:
        return self.features.shape[0]


@dataclass(frozen=True)
class DatasetSplit:
    """The train and validation windows of a split by recording
    (features.split_dataset): every window of a recording lies in one part.

    The test recordings are never featurized: features.split_recordings
    holds them out, and compare scores them. part holds the part of each
    recording as split_recordings decided it (0 train, 1 validation,
    2 test, -1 without a window), or None for a split built by hand.
    """

    train: WindowSet
    validation: WindowSet
    part: np.ndarray | None = None


DEFAULT_SPLIT_RATIOS = (0.75, 0.125, 0.125)


def split_units(
    units: np.ndarray, ratios: tuple[float, float, float], seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Partition a unit array into (train, validation, test) id sets.

    Validation and test receive floor(n * ratio) units each, the remainder
    goes to train; deterministic per seed.
    """
    if len(ratios) != 3 or any(r <= 0 for r in ratios):
        raise GazeDataError("ratios must be three positive numbers")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise GazeDataError("ratios must sum to 1")
    perm = np.random.default_rng(seed).permutation(np.asarray(units))
    n = perm.shape[0]
    n_val = int(np.floor(n * ratios[1]))
    n_test = int(np.floor(n * ratios[2]))
    return perm[n_val + n_test :], perm[:n_val], perm[n_val : n_val + n_test]
