"""Grid-search threshold tuning for the baseline detectors.

Thresholds are chosen to maximize macro F1 over the covered frames of a set
of labeled sequences (typically the validation split). The velocity grid is
shared by all two-stage baselines; stage-2 statistics are computed once per
velocity candidate and sequence, as the detectors compute them, and every
point of the three stage-2 grids is scored from them with one confusion
count per grid.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .detectors import STAGE2, BaselineConfig, DetectorError, _prepare, stage2_statistics
from .features import FrontendConfig
from .gaze import GazeSequence
from .metrics import confusion_counts, prf_from_counts


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


def tune_baselines(
    sequences: list[GazeSequence],
    grids: TuningGrids = TuningGrids(),
    window_len: int = BaselineConfig.window_len,
    max_gap: int = FrontendConfig.interp_max_gap,
) -> dict[str, BaselineConfig]:
    """Pick per-baseline thresholds maximizing macro F1 on labeled sequences.

    Returns one BaselineConfig per detector name ("ivt", "ivt-idt", "ivmp",
    "pca"). Every detector is scored on the samples the cascades cover, with
    gaps of up to max_gap samples repaired. Two-stage baselines search the
    velocity grid jointly with their stage-2 grid, labeling as the detectors
    do from the STAGE2 table; ties go to the first grid point in
    (velocity, stage-2) order.
    """
    if not sequences:
        raise DetectorError("cannot tune on an empty sequence list")
    for seq in sequences:
        if seq.labels is None:
            raise DetectorError(f"sequence {seq.source_id!r} has no labels for tuning")

    # stage 1 once per sequence, and stage 2 per sequence as the detectors run it
    prepared = [_prepare(seq, window_len, max_gap) for seq in sequences]
    covered = [cov for *_, cov in prepared]
    truth = np.concatenate([seq.labels[cov] for seq, cov in zip(sequences, covered)]).astype(np.int64)
    v_cov = np.concatenate([v[cov] for *_, v, cov in prepared])
    velocity = np.asarray(grids.velocity, dtype=np.float64)

    def macro_f1(pred: np.ndarray) -> np.ndarray:
        return prf_from_counts(confusion_counts(truth, pred)).f1.mean(axis=-1)

    # binary velocity detector: one prediction row per velocity candidate
    pred = (v_cov > velocity[:, None]).astype(np.int64)  # 0 fix, 1 sac
    best_v = int(np.argmax(macro_f1(pred)))
    tuned = {
        "ivt": BaselineConfig(velocity_threshold_deg_s=float(velocity[best_v]), window_len=window_len)
    }

    # joint velocity x stage-2 sweeps, sharing stage-2 statistics per tau_v
    stage2_grid = {"ivt-idt": grids.dispersion, "ivmp": grids.angle, "pca": grids.pca_ratio}
    stage2_grid = {name: np.asarray(stage2_grid[name], dtype=np.float64) for name in STAGE2}
    kinds = tuple(kind for kind, _, _ in STAGE2.values())
    f1 = {name: np.empty((velocity.size, grid.size)) for name, grid in stage2_grid.items()}
    for i, tau_v in enumerate(velocity):
        stats = [stage2_statistics(x, y, ~(v > tau_v) & ~bad, window_len, kinds) for x, y, bad, v, _ in prepared]
        for name, (kind, _, side) in STAGE2.items():
            stat = np.concatenate([st[kind][cov] for st, cov in zip(stats, covered)])
            pursuit = side * stat > side * stage2_grid[name][:, None]
            f1[name][i] = macro_f1(np.where(v_cov > tau_v, 1, np.where(pursuit, 2, 0)))

    for name, (_, field_name, _) in STAGE2.items():
        i, j = np.unravel_index(np.argmax(f1[name]), f1[name].shape)  # first best, row-major
        tuned[name] = BaselineConfig(
            velocity_threshold_deg_s=float(velocity[i]),
            window_len=window_len,
            **{field_name: float(stage2_grid[name][j])},
        )
    return tuned
