"""Per-sample eye-movement detectors behind one output contract.

Every detector returns a DetectorOutput: a strictly increasing list of
covered sample indices, a (fixation, saccade, pursuit) score triple per
covered sample, and the argmax label. Scores are normalized to sum to one
and are built so that each channel is monotone in the detector's underlying
statistic, which lets the same output feed thresholded labeling, ROC sweeps
and the prediction CSV without translation.

The threshold baselines share one stage 1: gaps of up to the frontend's
interp_max_gap samples are repaired, the central-difference velocity is
taken, and a sample is covered when the window centred on it is one the
frontend keeps (features.window_starts): a window_len window for the
cascades, a 3-sample window for velocity thresholding. Stage 1 marks samples
whose velocity exceeds a threshold as saccades. Stage 2 of each cascade,
given by the STAGE2 table that tuning reads too, runs a sliding window over
the remaining spans and separates fixation from pursuit by dispersion, mean
turning angle, or the eigenvalue ratio of the window's point covariance.
Stage 2 is computed for a whole sequence at once: every sample's window is
clipped to its own span, so windows never cross a detected saccade or a
tracking gap.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .features import FrontendConfig, featurize_sequence, repair_sequence, window_starts
from .gaze import GazeSequence, N_CLASSES, LabelClass
from .net import NetworkParams, score_windows
from .net import forward_batch  # noqa: F401  perfbench/tracing.py wraps detectors.forward_batch

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
        if self.angle_threshold_rad > np.pi:
            raise DetectorError("angle_threshold_rad must be at most pi, the largest mean turning angle")
        if self.window_len < 3:
            raise DetectorError(
                "window_len must be >= 3: the velocity needs a neighbour on each side of every covered centre"
            )


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
        labels = np.asarray(self.labels)
        m = idx.shape[0]
        if scores.shape != (m, N_CLASSES) or labels.shape != (m,):
            raise DetectorError("scores/labels must match the covered sample count")
        if m and (idx[0] < 0 or idx[-1] >= self.n_samples):
            raise DetectorError("sample indices out of range")
        if m > 1 and not np.all(np.diff(idx) > 0):
            raise DetectorError("sample indices must be strictly increasing")
        if not np.isfinite(scores).all():
            raise DetectorError("scores must be finite")
        # on the given values: a cast first would wrap 256 to the class code 0
        if m and not np.array_equal(labels, scores.argmax(axis=1)):
            raise DetectorError("labels must equal argmax(scores) with lowest-code ties")
        labels = labels.astype(np.int8, copy=False)
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
) -> DetectorOutput:
    """Score every window center with the trained network."""
    centers, feats = featurize_sequence(seq, frontend)
    probs = score_windows(model, feats)
    return DetectorOutput(
        n_samples=len(seq),
        sample_idx=centers,
        scores=probs,
        labels=probs.argmax(axis=1),
    )


# ---------------------------------------------------------------------------
# velocity


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


def _dispersion(xs: np.ndarray, ys: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-sample (x-range + y-range) over the run-clipped window [a, b].

    A window of w samples is the union of two blocks of 2**k samples,
    k = floor(log2(w)), one starting at a and one ending at b. The block
    maxima and minima form a sparse table, built in place one level at a
    time from the level below, so only one level is held. Max and min are
    exact, so each range equals the max minus the min over the window itself.
    """
    # floor(log2(width)) of each window, read off a table over the widths 1..widest
    widest = int((b - a).max()) + 1
    level = (np.frexp(np.arange(1, widest + 1))[1] - 1).astype(np.int8)[b - a]
    by_level = [np.flatnonzero(level == k) for k in range(int(level.max()) + 1)]

    def window_range(v: np.ndarray) -> np.ndarray:
        out = np.empty(v.shape[0])
        hi, lo = v.copy(), v.copy()
        for k, sel in enumerate(by_level):
            if k:
                h = 1 << (k - 1)  # a level-k block is two level-(k-1) blocks
                hi = np.maximum(hi[:-h], hi[h:], out=hi[:-h])
                lo = np.minimum(lo[:-h], lo[h:], out=lo[:-h])
            top, bottom = hi[a[sel]], lo[a[sel]]
            right = b[sel]
            right -= (1 << k) - 1
            np.maximum(top, hi[right], out=top)
            np.minimum(bottom, lo[right], out=bottom)
            out[sel] = top - bottom
        return out

    ranges = window_range(xs)
    ranges += window_range(ys)
    return ranges


def _window_sums(v: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-sample sum of v over the window [a, b] (empty when b < a), as a
    difference of prefix sums; the prefix array is freed on return."""
    csum = np.concatenate([[0], np.cumsum(v)])
    return csum[b + 1] - csum[a]


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

    hi = np.maximum(b - 2, a - 1)  # last pair index in window, or a-1 when none
    total = _window_sums(ang, a, hi)
    count = _window_sums(valid, a, hi)
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
    nw = (b - a + 1).astype(np.float64)
    mx = _window_sums(xc, a, b) / nw
    my = _window_sums(yc, a, b) / nw
    vxx = np.maximum(_window_sums(xc * xc, a, b) / nw - mx * mx, 0.0)
    vyy = np.maximum(_window_sums(yc * yc, a, b) / nw - my * my, 0.0)
    vxy = _window_sums(xc * yc, a, b) / nw - mx * my
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
    the run. Samples outside any span hold NaN. A span sample whose statistic
    is not finite (its moments overflow) raises DetectorError.
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
    a = np.maximum(run_starts[run_id], np.arange(-off_l, m - off_l))
    b = np.minimum(run_ends[run_id], np.arange(off_r, m + off_r))

    xs = x[idx]
    ys = y[idx]
    for kind in kinds:
        with np.errstate(over="ignore", invalid="ignore"):
            if kind == "dispersion":
                stat = _dispersion(xs, ys, a, b)
            elif kind == "turn_angle":
                stat = _turn_angle(xs, ys, a, b)
            elif kind == "eigen_ratio":
                stat = _eigen_ratio(xs, ys, run_id, run_starts, a, b)
            else:
                raise DetectorError(f"unknown stage-2 statistic {kind!r}")
        if not np.isfinite(stat).all():
            first = idx[np.argmin(np.isfinite(stat))]
            raise DetectorError(
                f"scores must be finite: the {kind} at sample {first} overflows (coordinates out of range)"
            )
        out[kind][idx] = stat
    return out


# ---------------------------------------------------------------------------
# baseline detectors

# Stage 2 of each cascade: name -> (statistic, BaselineConfig threshold field,
# pursuit side). Side +1 labels a window pursuit when its statistic is above
# the threshold, side -1 when it is below. Detection and tuning both read it.
STAGE2: dict[str, tuple[str, str, int]] = {
    "ivt-idt": ("dispersion", "dispersion_threshold_deg", 1),
    "ivmp": ("turn_angle", "angle_threshold_rad", -1),
    "pca": ("eigen_ratio", "pca_ratio_threshold", 1),
}


def _prepare(
    seq: GazeSequence, window_len: int, max_gap: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Stage 1 inputs (x, y, still_bad, velocity, covered sample indices): gaps
    of up to max_gap samples repaired, windows centred window_len // 2 in."""
    n = len(seq)
    if n < window_len:
        raise DetectorError(f"sequence of {n} samples is shorter than the analysis window ({window_len})")
    x, y, bad = repair_sequence(seq, max_gap)
    with np.errstate(over="ignore", invalid="ignore"):
        v = _velocity_array(seq.t_ms, x, y, bad)
    covered = window_starts(bad, window_len) + window_len // 2
    overflow = covered[np.isinf(v[covered])]
    if overflow.size:
        raise DetectorError(
            f"scores must be finite: the speed at sample {overflow[0]} overflows "
            "(coordinates or timestamps out of range)"
        )
    return x, y, bad, v, covered


def _output(n_samples: int, covered: np.ndarray, p_sac: np.ndarray, rho) -> DetectorOutput:
    """Score triples from the saccade score and the pursuit share rho of the rest."""
    rem = 1.0 - p_sac
    p_pur = rem * rho
    scores = np.stack([rem - p_pur, p_sac, p_pur], axis=1)
    return DetectorOutput(n_samples, covered, scores, scores.argmax(axis=1))


def ivt_detect(
    seq: GazeSequence, config: BaselineConfig = BaselineConfig(), max_gap: int = FrontendConfig.interp_max_gap
) -> DetectorOutput:
    """Binary velocity thresholding: saccade where speed exceeds the threshold.

    The saccade score is v / (tau_v + v) over the samples whose 3-sample
    window is usable; non-saccades are fixations, and the pursuit channel is
    zero because this detector cannot see pursuits.
    """
    _, _, _, v, covered = _prepare(seq, 3, max_gap)
    vc = v[covered]
    return _output(len(seq), covered, vc / (config.velocity_threshold_deg_s + vc), 0.0)


def _two_stage_detect(seq: GazeSequence, config: BaselineConfig, name: str, max_gap: int) -> DetectorOutput:
    """Velocity stage, then the STAGE2 statistic of `name` over the non-saccade spans.

    The saccade score v / (tau_v + v) stays above 1/2 for thresholded samples
    and is scaled below 1/3 otherwise, so the argmax reproduces the cascade.
    The rest is split by the pursuit share s / (s + t) of the statistic s and
    the threshold t, both on the pursuit side: above 1/2 when the window is
    a pursuit, and 1/2 where it is undefined.
    """
    kind, field_name, side = STAGE2[name]
    x, y, bad, v, covered = _prepare(seq, config.window_len, max_gap)
    tau_v = config.velocity_threshold_deg_s
    sac = v > tau_v
    stat = stage2_statistics(x, y, ~sac & ~bad, config.window_len, (kind,))[kind][covered]
    vc = v[covered]
    m = vc / (tau_v + vc)
    p_sac = np.where(sac[covered], m, (2.0 / 3.0) * m)
    tau = getattr(config, field_name)
    # on the pursuit side; the one side -1 statistic, the turning angle, is at most pi
    s, t = (stat, tau) if side > 0 else (np.pi - stat, np.pi - tau)
    with np.errstate(invalid="ignore", divide="ignore"):
        rho = s / (s + t)
    rho = np.where((s + t > 0) & np.isfinite(rho), rho, 0.5)
    return _output(len(seq), covered, p_sac, rho)


def ivt_idt_detect(
    seq: GazeSequence, config: BaselineConfig = BaselineConfig(), max_gap: int = FrontendConfig.interp_max_gap
) -> DetectorOutput:
    """Velocity stage for saccades, dispersion stage for fixation vs pursuit.

    Dispersion is (x-range + y-range) over the span-clipped window; windows
    at or below the threshold are fixations.
    """
    return _two_stage_detect(seq, config, "ivt-idt", max_gap)


def ivmp_detect(
    seq: GazeSequence, config: BaselineConfig = BaselineConfig(), max_gap: int = FrontendConfig.interp_max_gap
) -> DetectorOutput:
    """Velocity stage, then mean turning angle between successive displacements.

    Direction-incoherent windows (mean angle at or above the threshold) are
    fixations; coherent drift is pursuit. The pursuit score grows with
    (pi - mean angle).
    """
    return _two_stage_detect(seq, config, "ivmp", max_gap)


def pca_ratio_detect(
    seq: GazeSequence, config: BaselineConfig = BaselineConfig(), max_gap: int = FrontendConfig.interp_max_gap
) -> DetectorOutput:
    """Velocity stage, then the eigenvalue ratio of the window covariance.

    Isotropic scatter gives a ratio near one (fixation); directed drift
    stretches the covariance and pushes the ratio above the threshold
    (pursuit). Degenerate windows fall back to ratio 1 via a variance floor.
    """
    return _two_stage_detect(seq, config, "pca", max_gap)


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


BASELINE_DETECTORS: dict[str, Callable[..., DetectorOutput]] = {
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
