"""Grid-search threshold tuning for the baseline detectors.

Thresholds are chosen to maximize macro F1 over the covered frames of a set
of labeled sequences (typically the validation split). The velocity grid is
shared by all two-stage baselines; stage-2 statistics are computed once per
velocity candidate, over all sequences pooled, and every point of the three
stage-2 grids is scored from them with one confusion count per grid.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .detectors import (
    BaselineConfig,
    DetectorError,
    _prepare,
    stage2_statistics,
)
from .gaze import GazeSequence
from .metrics import confusion_counts


def _default_velocity_grid() -> np.ndarray:
    return np.geomspace(10.0, 300.0, 20)


def _default_dispersion_grid() -> np.ndarray:
    return np.geomspace(0.2, 3.0, 16)


def _default_angle_grid() -> np.ndarray:
    return np.linspace(0.1 * np.pi, 0.9 * np.pi, 17)


def _default_ratio_grid() -> np.ndarray:
    return np.geomspace(1.5, 50.0, 16)


@dataclass(frozen=True)
class TuningGrids:
    velocity: np.ndarray = field(default_factory=_default_velocity_grid)
    dispersion: np.ndarray = field(default_factory=_default_dispersion_grid)
    angle: np.ndarray = field(default_factory=_default_angle_grid)
    pca_ratio: np.ndarray = field(default_factory=_default_ratio_grid)


def _macro_f1(counts: np.ndarray) -> np.ndarray:
    """Mean over classes of 2tp / (2tp + fp + fn), for (..., 3, 3) counts."""
    tp = np.diagonal(counts, axis1=-2, axis2=-1).astype(np.float64)
    fp = counts.sum(axis=-2) - tp
    fn = counts.sum(axis=-1) - tp
    denom = 2 * tp + fp + fn
    f1 = np.divide(2 * tp, denom, out=np.zeros_like(tp), where=denom > 0)
    return f1.mean(axis=-1)


def tune_baselines(
    sequences: list[GazeSequence],
    grids: TuningGrids = TuningGrids(),
    window_len: int = 30,
) -> dict[str, BaselineConfig]:
    """Pick per-baseline thresholds maximizing macro F1 on labeled sequences.

    Returns one BaselineConfig per detector name ("ivt", "ivt-idt", "ivmp",
    "pca"). Two-stage baselines search the velocity grid jointly with their
    stage-2 grid; ties go to the first grid point in (velocity, stage-2)
    order.
    """
    if not sequences:
        raise DetectorError("cannot tune on an empty sequence list")
    for seq in sequences:
        if seq.labels is None:
            raise DetectorError(f"sequence {seq.source_id!r} has no labels for tuning")

    # Pool the sequences into one, with a bad separator sample after each so
    # that no stage-2 span crosses from one sequence into the next.
    probe = BaselineConfig(window_len=window_len)
    x, y, bad, v, covered, truth = [], [], [], [], [], []
    offset = 0
    for seq in sequences:
        st = _prepare(seq, probe)
        x += [st.x, [np.nan]]
        y += [st.y, [np.nan]]
        bad += [st.bad, [True]]
        v += [st.v, [np.nan]]
        covered.append(st.covered_idx + offset)
        truth.append(seq.labels[st.covered_idx])
        offset += len(seq) + 1
    x, y, bad, v = (np.concatenate(parts) for parts in (x, y, bad, v))
    covered = np.concatenate(covered)
    truth = np.concatenate(truth).astype(np.int64)
    v_cov = v[covered]
    velocity = np.asarray(grids.velocity, dtype=np.float64)

    # binary velocity detector: one prediction row per velocity candidate
    with np.errstate(invalid="ignore"):
        pred = (v_cov > velocity[:, None]).astype(np.int64)  # 0 fix, 1 sac
    best_v = int(np.argmax(_macro_f1(confusion_counts(truth, pred))))
    tuned = {
        "ivt": BaselineConfig(velocity_threshold_deg_s=float(velocity[best_v]), window_len=window_len)
    }

    # joint velocity x stage-2 sweeps, sharing stage-2 statistics per tau_v
    stage2_grids = {
        "ivt-idt": ("dispersion", np.asarray(grids.dispersion, dtype=np.float64), "dispersion_threshold_deg"),
        "ivmp": ("turn_angle", np.asarray(grids.angle, dtype=np.float64), "angle_threshold_rad"),
        "pca": ("eigen_ratio", np.asarray(grids.pca_ratio, dtype=np.float64), "pca_ratio_threshold"),
    }
    kinds = tuple(kind for kind, _, _ in stage2_grids.values())
    f1 = {name: np.empty((velocity.size, grid.size)) for name, (_, grid, _) in stage2_grids.items()}
    for i, tau_v in enumerate(velocity):
        with np.errstate(invalid="ignore"):
            sac = v > tau_v
        stats = stage2_statistics(x, y, ~sac & ~bad, window_len, kinds)
        sac_cov = sac[covered]
        for name, (kind, grid, _) in stage2_grids.items():
            stat_cov = stats[kind][covered]
            if kind == "turn_angle":
                pursuit = stat_cov < grid[:, None]  # coherent motion: small angle
            else:
                pursuit = stat_cov > grid[:, None]
            pred = np.where(sac_cov, 1, np.where(pursuit, 2, 0))
            f1[name][i] = _macro_f1(confusion_counts(truth, pred))

    for name, (_, grid, field_name) in stage2_grids.items():
        i, j = np.unravel_index(np.argmax(f1[name]), f1[name].shape)  # first best, row-major
        tuned[name] = BaselineConfig(
            velocity_threshold_deg_s=float(velocity[i]),
            window_len=window_len,
            **{field_name: float(grid[j])},
        )
    return tuned
