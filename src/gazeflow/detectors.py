"""Per-sample eye-movement detectors behind one output contract.

Every detector returns a DetectorOutput: a strictly increasing list of
covered sample indices, a (fixation, saccade, pursuit) score triple per
covered sample, and the argmax label. Scores are normalized to sum to one
and are built so that each channel is monotone in the detector's underlying
statistic, which lets the same output feed thresholded labeling, ROC sweeps
and the prediction CSV without translation.

The threshold baselines share a two-stage shape: stage 1 marks samples whose
central-difference velocity exceeds a threshold as saccades; stage 2 runs a
sliding window over the remaining spans and separates fixation from pursuit
by dispersion, mean turning angle, or the eigenvalue ratio of the window's
point covariance. Stage 2 is computed for a whole sequence at once: every
sample's window is clipped to its own span, so windows never cross a
detected saccade or a tracking gap.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .features import FrontendConfig, featurize_sequence, repair_sequence
from .gaze import GazeSequence, N_CLASSES, LabelClass
from .net import NetworkParams, forward_batch

REPAIR_MAX_GAP = 3  # samples; matches the frontend default
EPS_VAR = 1e-12  # variance floor for the eigenvalue ratio


class DetectorError(ValueError):
    """Bad detector arguments (too-short sequence, out-of-range index)."""


@dataclass(frozen=True)
class BaselineConfig:
    """Thresholds for the four baseline detectors.

    The defaults are plausible starting points only; grid tuning on a
    validation split (see gazeflow.tuning) is the intended way to set them.
    """

    velocity_threshold_deg_s: float = 40.0
    dispersion_threshold_deg: float = 0.5
    angle_threshold_rad: float = 1.6
    pca_ratio_threshold: float = 5.0
    window_len: int = 30

    def __post_init__(self):
        thresholds = (
            self.velocity_threshold_deg_s,
            self.dispersion_threshold_deg,
            self.angle_threshold_rad,
            self.pca_ratio_threshold,
        )
        if any(t <= 0 for t in thresholds):
            raise DetectorError("all thresholds must be positive")
        if self.window_len < 2:
            raise DetectorError("window_len must be >= 2")


@dataclass(frozen=True)
class DetectorOutput:
    """Per-sample scores and labels over the covered part of a sequence."""

    n_samples: int
    sample_idx: np.ndarray  # (m,) strictly increasing
    scores: np.ndarray  # (m, 3)
    labels: np.ndarray  # (m,)

    def __post_init__(self):
        idx = np.asarray(self.sample_idx, dtype=np.int64)
        scores = np.asarray(self.scores, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int8)
        m = idx.shape[0]
        if scores.shape != (m, N_CLASSES) or labels.shape != (m,):
            raise DetectorError("scores/labels must match the covered sample count")
        if m and (idx[0] < 0 or idx[-1] >= self.n_samples):
            raise DetectorError("sample indices out of range")
        if m > 1 and not np.all(np.diff(idx) > 0):
            raise DetectorError("sample indices must be strictly increasing")
        if not np.isfinite(scores).all():
            raise DetectorError("scores must be finite")
        if m and not np.array_equal(labels, scores.argmax(axis=1)):
            raise DetectorError("labels must equal argmax(scores) with lowest-code ties")
        for name, arr in (("sample_idx", idx), ("scores", scores), ("labels", labels)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def covered(self) -> np.ndarray:
        """Boolean mask over the full sequence: True where a prediction exists."""
        mask = np.zeros(self.n_samples, dtype=bool)
        mask[self.sample_idx] = True
        return mask

    def full_labels(self, fill: int = -1) -> np.ndarray:
        """Labels aligned to the full sequence, `fill` where uncovered."""
        out = np.full(self.n_samples, fill, dtype=np.int64)
        out[self.sample_idx] = self.labels
        return out


# ---------------------------------------------------------------------------
# CNN detector


def cnn_detect(
    model: NetworkParams,
    seq: GazeSequence,
    frontend: FrontendConfig = FrontendConfig(),
    chunk: int = 65536,
) -> DetectorOutput:
    """Score every window center with the trained network."""
    centers, feats = featurize_sequence(seq, frontend)
    probs = np.empty((feats.shape[0], N_CLASSES))
    for lo in range(0, feats.shape[0], chunk):
        probs[lo : lo + chunk] = forward_batch(model, feats[lo : lo + chunk]).probs
    return DetectorOutput(
        n_samples=len(seq),
        sample_idx=centers,
        scores=probs,
        labels=probs.argmax(axis=1),
    )


# ---------------------------------------------------------------------------
# velocity


def velocity(seq: GazeSequence, i: int) -> float:
    """Central-difference gaze speed at sample i, in degrees per second."""
    n = len(seq)
    if not 1 <= i <= n - 2:
        raise DetectorError(f"velocity undefined at boundary index {i}")
    dt_s = (seq.t_ms[i + 1] - seq.t_ms[i - 1]) / 1000.0
    dx = seq.x_deg[i + 1] - seq.x_deg[i - 1]
    dy = seq.y_deg[i + 1] - seq.y_deg[i - 1]
    return float(np.hypot(dx, dy) / dt_s)


def _velocity_array(t_ms: np.ndarray, x: np.ndarray, y: np.ndarray, bad: np.ndarray) -> np.ndarray:
    """Central-difference speeds; NaN at boundaries and next to bad samples."""
    n = x.shape[0]
    v = np.full(n, np.nan)
    if n < 3:
        return v
    dt_s = (t_ms[2:] - t_ms[:-2]) / 1000.0
    v[1:-1] = np.hypot(x[2:] - x[:-2], y[2:] - y[:-2]) / dt_s
    unusable = bad[2:] | bad[:-2]
    v[1:-1] = np.where(unusable, np.nan, v[1:-1])
    return v


# ---------------------------------------------------------------------------
# span-clipped sliding statistics
#
# All spans of a sequence are processed at once. The span samples are gathered
# into one compact array in which consecutive runs sit back to back; each
# sample carries its run id and its window [a, b] clipped to its own run, in
# compact coordinates.


def _dispersion(xs: np.ndarray, ys: np.ndarray, run_id: np.ndarray, off_l: int, off_r: int) -> np.ndarray:
    """Per-sample (x-range + y-range) over the run-clipped window.

    Window slots past either end or in another run are left out of the max
    and min, which are exact, so the result does not depend on the neighbours.
    """
    L = off_l + off_r + 1
    pad_id = np.concatenate([np.full(off_l, -1), run_id, np.full(off_r, -1)])
    same_run = sliding_window_view(pad_id, L) == run_id[:, None]

    def window_range(v: np.ndarray) -> np.ndarray:
        w = sliding_window_view(np.concatenate([np.zeros(off_l), v, np.zeros(off_r)]), L)
        return w.max(axis=1, where=same_run, initial=-np.inf) - w.min(
            axis=1, where=same_run, initial=np.inf
        )

    return window_range(xs) + window_range(ys)


def _turn_angle(xs: np.ndarray, ys: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-sample mean absolute turning angle between successive displacements.

    Pair j is the displacements j -> j+1 -> j+2, so the pairs of window
    [a, b] are a..b-2 and lie inside the window's run. Zero-length
    displacements are excluded from the mean; a window with no usable
    displacement pair gets the maximal angle pi (fixation-like).
    """
    dx = np.diff(xs)
    dy = np.diff(ys)
    moving = (dx != 0) | (dy != 0)
    # no pair starts at the last two samples; the padding keeps every a, hi + 1 in range
    valid = np.concatenate([moving[:-1] & moving[1:], [False, False]])
    dot = dx[:-1] * dx[1:] + dy[:-1] * dy[1:]
    cross = dx[:-1] * dy[1:] - dy[:-1] * dx[1:]
    ang = np.zeros(valid.shape[0])
    ang[:-2] = np.where(valid[:-2], np.abs(np.arctan2(cross, dot)), 0.0)
    csum_ang = np.concatenate([[0.0], np.cumsum(ang)])
    csum_cnt = np.concatenate([[0], np.cumsum(valid, dtype=np.int64)])

    hi = np.maximum(b - 2, a - 1)  # last pair index in window, or a-1 when none
    total = csum_ang[hi + 1] - csum_ang[a]
    count = csum_cnt[hi + 1] - csum_cnt[a]
    with np.errstate(invalid="ignore"):
        return np.where(count > 0, total / np.maximum(count, 1), np.pi)


def _eig2x2(vxx: np.ndarray, vxy: np.ndarray, vyy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of symmetric [[vxx, vxy], [vxy, vyy]], largest first."""
    half_tr = 0.5 * (vxx + vyy)
    disc = np.sqrt((0.5 * (vxx - vyy)) ** 2 + vxy**2)
    lam1 = half_tr + disc
    lam2 = np.maximum(half_tr - disc, 0.0)
    return lam1, lam2


def _eigen_ratio(
    xs: np.ndarray,
    ys: np.ndarray,
    run_id: np.ndarray,
    run_starts: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
) -> np.ndarray:
    """Per-sample ratio of covariance eigenvalues over the run-clipped window.

    Coordinates are centered on their run's mean before accumulating moments
    so that a perfectly stationary run yields an exactly degenerate covariance.
    """
    run_len = np.diff(np.append(run_starts, xs.shape[0]))
    xc = xs - (np.add.reduceat(xs, run_starts) / run_len)[run_id]
    yc = ys - (np.add.reduceat(ys, run_starts) / run_len)[run_id]
    cx, cy, cxx, cyy, cxy = (
        np.concatenate([[0.0], np.cumsum(v)]) for v in (xc, yc, xc * xc, yc * yc, xc * yc)
    )

    nw = (b - a + 1).astype(np.float64)
    mx = (cx[b + 1] - cx[a]) / nw
    my = (cy[b + 1] - cy[a]) / nw
    vxx = np.maximum((cxx[b + 1] - cxx[a]) / nw - mx * mx, 0.0)
    vyy = np.maximum((cyy[b + 1] - cyy[a]) / nw - my * my, 0.0)
    vxy = (cxy[b + 1] - cxy[a]) / nw - mx * my
    lam1, lam2 = _eig2x2(vxx, vxy, vyy)
    return np.maximum(lam1, EPS_VAR) / np.maximum(lam2, EPS_VAR)


def stage2_statistics(
    x: np.ndarray,
    y: np.ndarray,
    span_mask: np.ndarray,
    window_len: int,
    kinds: tuple[str, ...],
) -> dict[str, np.ndarray]:
    """Compute the requested sliding statistics over every True run of span_mask.

    Windows are centered (window_len // 2 samples to the left) and clipped to
    the run. Samples outside any span hold NaN.
    """
    off_l = window_len // 2
    off_r = window_len - off_l - 1
    out = {k: np.full(x.shape[0], np.nan) for k in kinds}
    idx = np.flatnonzero(span_mask)
    m = idx.shape[0]
    if m == 0:
        return out

    new_run = np.ones(m, dtype=bool)
    new_run[1:] = np.diff(idx) != 1
    run_starts = np.flatnonzero(new_run)
    run_ends = np.append(run_starts[1:], m) - 1
    run_id = np.cumsum(new_run) - 1
    k = np.arange(m)
    a = np.maximum(run_starts[run_id], k - off_l)
    b = np.minimum(run_ends[run_id], k + off_r)

    xs = x[idx]
    ys = y[idx]
    for kind in kinds:
        if kind == "dispersion":
            out[kind][idx] = _dispersion(xs, ys, run_id, off_l, off_r)
        elif kind == "turn_angle":
            out[kind][idx] = _turn_angle(xs, ys, a, b)
        elif kind == "eigen_ratio":
            out[kind][idx] = _eigen_ratio(xs, ys, run_id, run_starts, a, b)
        else:
            raise DetectorError(f"unknown stage-2 statistic {kind!r}")
    return out


# ---------------------------------------------------------------------------
# baseline detectors


@dataclass(frozen=True)
class _Stage1:
    x: np.ndarray
    y: np.ndarray
    bad: np.ndarray
    v: np.ndarray
    sac: np.ndarray  # velocity above threshold
    covered_idx: np.ndarray  # window-coverage sample indices


def _prepare(seq: GazeSequence, config: BaselineConfig) -> _Stage1:
    n = len(seq)
    if n < config.window_len:
        raise DetectorError(
            f"sequence of {n} samples is shorter than the analysis window ({config.window_len})"
        )
    x, y, bad = repair_sequence(seq, REPAIR_MAX_GAP)
    v = _velocity_array(seq.t_ms, x, y, bad)
    with np.errstate(invalid="ignore"):
        sac = v > config.velocity_threshold_deg_s
    off_l = config.window_len // 2
    ok = ~bad
    full = sliding_window_view(ok, config.window_len).all(axis=1)
    covered_idx = np.flatnonzero(full) + off_l
    return _Stage1(x, y, bad, v, sac, covered_idx)


def _assemble(
    n_samples: int,
    covered_idx: np.ndarray,
    v: np.ndarray,
    sac: np.ndarray,
    rho_pur: np.ndarray,
    tau_v: float,
) -> DetectorOutput:
    """Build normalized score triples from stage-1/stage-2 statistics.

    The saccade channel is v / (tau_v + v), kept above 1/2 for thresholded
    samples and scaled below 1/3 otherwise so the argmax reproduces the
    two-stage decision rule; the remainder is split between fixation and
    pursuit by the stage-2 pursuit ratio rho_pur.
    """
    vc = v[covered_idx]
    m = vc / (tau_v + vc)
    is_sac = sac[covered_idx]
    p_sac = np.where(is_sac, m, (2.0 / 3.0) * m)
    rem = 1.0 - p_sac
    rho = rho_pur[covered_idx]
    rho = np.where(np.isfinite(rho), rho, 0.5)
    p_pur = rem * rho
    p_fix = rem - p_pur
    scores = np.stack([p_fix, p_sac, p_pur], axis=1)
    return DetectorOutput(
        n_samples=n_samples,
        sample_idx=covered_idx,
        scores=scores,
        labels=scores.argmax(axis=1),
    )


def ivt_detect(seq: GazeSequence, config: BaselineConfig = BaselineConfig()) -> DetectorOutput:
    """Binary velocity thresholding: saccade where speed exceeds the threshold.

    Non-saccade samples are labeled fixation; the pursuit channel is
    constant because this detector cannot see pursuits.
    """
    n = len(seq)
    if n < 3:
        raise DetectorError("velocity thresholding needs at least 3 samples")
    x, y, bad = repair_sequence(seq, REPAIR_MAX_GAP)
    v = _velocity_array(seq.t_ms, x, y, bad)
    usable = np.isfinite(v) & ~bad
    covered_idx = np.flatnonzero(usable)
    vc = v[covered_idx]
    tau = config.velocity_threshold_deg_s
    p_sac = vc / (tau + vc)
    scores = np.stack([1.0 - p_sac, p_sac, np.zeros_like(p_sac)], axis=1)
    return DetectorOutput(
        n_samples=n,
        sample_idx=covered_idx,
        scores=scores,
        labels=scores.argmax(axis=1),
    )


def _two_stage_detect(
    seq: GazeSequence, config: BaselineConfig, kind: str, rho_fn: Callable[[np.ndarray], np.ndarray]
) -> DetectorOutput:
    st = _prepare(seq, config)
    span_mask = ~st.sac & ~st.bad
    stats = stage2_statistics(st.x, st.y, span_mask, config.window_len, (kind,))
    rho = rho_fn(stats[kind])
    return _assemble(len(seq), st.covered_idx, st.v, st.sac, rho, config.velocity_threshold_deg_s)


def ivt_idt_detect(seq: GazeSequence, config: BaselineConfig = BaselineConfig()) -> DetectorOutput:
    """Velocity stage for saccades, dispersion stage for fixation vs pursuit.

    Dispersion is (x-range + y-range) over the span-clipped window; windows
    at or below the threshold are fixations.
    """
    tau_d = config.dispersion_threshold_deg

    def rho(d: np.ndarray) -> np.ndarray:
        return d / (d + tau_d)

    return _two_stage_detect(seq, config, "dispersion", rho)


def ivmp_detect(seq: GazeSequence, config: BaselineConfig = BaselineConfig()) -> DetectorOutput:
    """Velocity stage, then mean turning angle between successive displacements.

    Direction-incoherent windows (mean angle at or above the threshold) are
    fixations; coherent drift is pursuit. The pursuit score grows with
    (pi - mean angle).
    """
    sigma_tau = np.pi - config.angle_threshold_rad

    def rho(mean_angle: np.ndarray) -> np.ndarray:
        s = np.pi - mean_angle
        denom = s + sigma_tau
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(denom > 0, s / denom, 0.5)

    return _two_stage_detect(seq, config, "turn_angle", rho)


def pca_ratio_detect(seq: GazeSequence, config: BaselineConfig = BaselineConfig()) -> DetectorOutput:
    """Velocity stage, then the eigenvalue ratio of the window covariance.

    Isotropic scatter gives a ratio near one (fixation); directed drift
    stretches the covariance and pushes the ratio above the threshold
    (pursuit). Degenerate windows fall back to ratio 1 via a variance floor.
    """
    tau_r = config.pca_ratio_threshold

    def rho(r: np.ndarray) -> np.ndarray:
        return r / (r + tau_r)

    return _two_stage_detect(seq, config, "eigen_ratio", rho)


def concat_outputs(outputs: list[DetectorOutput]) -> DetectorOutput:
    """Stack per-sequence outputs into one, offsetting sample indices.

    Useful for pooled evaluation over several sequences; pair it with the
    concatenation of the per-sequence truth arrays.
    """
    if not outputs:
        raise DetectorError("nothing to concatenate")
    idx_parts = []
    offset = 0
    for out in outputs:
        idx_parts.append(out.sample_idx + offset)
        offset += out.n_samples
    return DetectorOutput(
        n_samples=offset,
        sample_idx=np.concatenate(idx_parts),
        scores=np.concatenate([o.scores for o in outputs]),
        labels=np.concatenate([o.labels for o in outputs]),
    )


BASELINE_DETECTORS: dict[str, Callable[[GazeSequence, BaselineConfig], DetectorOutput]] = {
    "ivt": ivt_detect,
    "ivt-idt": ivt_idt_detect,
    "ivmp": ivmp_detect,
    "pca": pca_ratio_detect,
}

# Classes each baseline can meaningfully rank. The binary velocity detector
# has no pursuit signal, so its mean ROC area is taken over the other two.
BASELINE_EVAL_CLASSES: dict[str, tuple[LabelClass, ...]] = {
    "ivt": (LabelClass.FIXATION, LabelClass.SACCADE),
    "ivt-idt": tuple(LabelClass),
    "ivmp": tuple(LabelClass),
    "pca": tuple(LabelClass),
}
