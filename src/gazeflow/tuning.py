"""Grid-search threshold tuning for the baseline detectors.

Thresholds are chosen to maximize macro F1 over the covered frames of a set
of labeled sequences (typically the validation split). The velocity grid is
shared by all two-stage baselines; stage-2 statistics are computed at most
once per velocity candidate and sequence, as the detectors compute them.

No grid point labels the samples one by one. Each label is a threshold test,
so the confusion counts of a whole grid come from counting, per true class,
the samples beyond each grid point: one sort per class and one binary search
per point. The counts are exact integers, equal to those of the labels the
detectors give at that point, so every macro F1 and every tuned threshold is
the one a label-by-label search finds.

Stage 2 only splits the samples that stage 1 left unlabeled, so at velocity
candidate i no cascade can beat

    bound[i] = (F1_sac[i] + 2 L_fix / (1 + L_fix) + 2 L_pur / (1 + L_pur)) / 3,

with F1_sac[i] the exact saccade F1 of stage 1 and L_c the share of true
class c it left unlabeled (1 for an absent class): class c's F1 is largest,
2 L_c / (1 + L_c), when stage 2 labels c all of those samples and no other
one. The candidates run in falling bound order, and a cascade skips a candidate whose
bound is more than BOUND_MARGIN below its best macro F1 so far; stage 2 is
computed only for the cascades still live, and the sweep ends when none is.
A skipped candidate scores strictly below that best, so it can neither be
the first best nor tie it, and the tuned thresholds are those of the full
sweep.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .detectors import STAGE2, BaselineConfig, DetectorError, _prepare, stage2_statistics
from .features import FrontendConfig
from .gaze import N_CLASSES, GazeSequence, LabelClass, naming_errors
from .metrics import prf_from_counts

# slack on the pruning bound, far above its rounding error (a few ulps); more
# slack only prunes less
BOUND_MARGIN = 1e-9


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
    """Candidate thresholds, searched in the order given (ties go to the
    earlier one). Each grid is stored as a read-only 1-D float64 array of
    finite positive values; angles are at most pi."""

    velocity: np.ndarray = field(default_factory=_default_velocity_grid)
    dispersion: np.ndarray = field(default_factory=_default_dispersion_grid)
    angle: np.ndarray = field(default_factory=_default_angle_grid)
    pca_ratio: np.ndarray = field(default_factory=_default_ratio_grid)

    def __post_init__(self):
        for f in fields(self):
            grid = np.array(getattr(self, f.name), dtype=np.float64)
            if grid.ndim != 1 or grid.size == 0:
                raise DetectorError(f"the {f.name} grid must be a non-empty 1-D array, got shape {grid.shape}")
            if not (np.isfinite(grid).all() and (grid > 0).all()):
                raise DetectorError(f"the {f.name} grid must hold finite positive thresholds")
            grid.setflags(write=False)
            object.__setattr__(self, f.name, grid)
        if self.angle.max() > np.pi:
            raise DetectorError("the angle grid must stay at most pi, the largest mean turning angle")

    # grids compare by value; the frozen read-only grids make their bytes a safe hash
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))

    def __hash__(self):
        return hash(tuple(getattr(self, f.name).tobytes() for f in fields(self)))


def _beyond_counts(truth: np.ndarray, values: np.ndarray, grid: np.ndarray, side: int) -> np.ndarray:
    """(grid.size, 3) counts: per grid point t and true class c, the samples
    of class c with side * value > side * t. NaN values never count."""
    counts = np.empty((grid.size, N_CLASSES), dtype=np.int64)
    finite = ~np.isnan(values)
    for c in range(N_CLASSES):
        v = np.sort(values[finite & (truth == c)])
        counts[:, c] = v.size - np.searchsorted(v, grid, "right") if side > 0 else np.searchsorted(v, grid, "left")
    return counts


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
    (velocity, stage-2) order. Velocity candidates whose bound rules them
    out are never run through stage 2 (module docstring).
    """
    if not sequences:
        raise DetectorError("cannot tune on an empty sequence list")
    for seq in sequences:
        if seq.labels is None:
            raise DetectorError(f"sequence {seq.source_id!r} has no labels for tuning")

    # stage 1 once per sequence, and stage 2 per sequence as the detectors run it
    prepared = []
    for seq in sequences:
        with naming_errors(seq):
            prepared.append(_prepare(seq, window_len, max_gap))
    covered = [cov for *_, cov in prepared]
    truth = np.concatenate([seq.labels[cov] for seq, cov in zip(sequences, covered)]).astype(np.int64)
    v_cov = np.concatenate([v[cov] for *_, v, cov in prepared])
    n_true = np.bincount(truth, minlength=N_CLASSES)
    velocity = grids.velocity

    def report(sac: np.ndarray, pur: np.ndarray | int = 0):
        """One-vs-rest report of labels with sac saccades and pur pursuits per true
        class, (..., 3) each, and fixations for the rest: (..., 3, 3) counts, row = ground truth."""
        return prf_from_counts(np.stack(np.broadcast_arrays(n_true - sac - pur, sac, pur), axis=-1))

    # saccades (v > tau_v) per velocity candidate and true class; the binary
    # velocity detector labels every other sample a fixation
    sac = _beyond_counts(truth, v_cov, velocity, 1)
    stage1_f1 = report(sac).f1
    best_v = int(np.argmax(stage1_f1.mean(axis=-1)))
    tuned = {
        "ivt": BaselineConfig(velocity_threshold_deg_s=float(velocity[best_v]), window_len=window_len)
    }

    # the best macro F1 a cascade can reach at each velocity candidate (module docstring)
    left = np.divide(n_true - sac, n_true, out=np.ones(sac.shape), where=n_true > 0)
    reach = 2 * left / (1 + left)
    bound = (reach[:, LabelClass.FIXATION] + stage1_f1[:, LabelClass.SACCADE] + reach[:, LabelClass.PURSUIT]) / 3

    # joint velocity x stage-2 sweeps, sharing stage-2 statistics per tau_v;
    # a skipped grid row keeps -inf, below every macro F1
    stage2_grid = {"ivt-idt": grids.dispersion, "ivmp": grids.angle, "pca": grids.pca_ratio}
    f1 = {name: np.full((velocity.size, grid.size), -np.inf) for name, grid in stage2_grid.items()}
    best = dict.fromkeys(STAGE2, -np.inf)
    for i in np.argsort(-bound, kind="stable"):
        live = [name for name in STAGE2 if bound[i] + BOUND_MARGIN >= best[name]]
        if not live:
            break  # the bounds only fall from here
        kinds = tuple(STAGE2[name][0] for name in live)
        tau_v = velocity[i]
        stats = [stage2_statistics(x, y, ~(v > tau_v) & ~bad, window_len, kinds) for x, y, bad, v, _ in prepared]
        saccade = v_cov > tau_v
        for name in live:
            kind, _, side = STAGE2[name]
            stat = np.concatenate([st[kind][cov] for st, cov in zip(stats, covered)])
            stat[saccade] = np.nan  # labeled by the velocity stage
            f1[name][i] = report(sac[i], _beyond_counts(truth, stat, stage2_grid[name], side)).f1.mean(axis=-1)
            best[name] = max(best[name], f1[name][i].max())

    for name, (_, field_name, _) in STAGE2.items():
        i, j = np.unravel_index(np.argmax(f1[name]), f1[name].shape)  # first best, row-major
        tuned[name] = BaselineConfig(
            velocity_threshold_deg_s=float(velocity[i]),
            window_len=window_len,
            **{field_name: float(stage2_grid[name][j])},
        )
    return tuned
