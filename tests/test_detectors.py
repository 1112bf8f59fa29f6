from dataclasses import replace

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from gazeflow.detectors import (
    BASELINE_DETECTORS,
    BaselineConfig,
    DetectorError,
    DetectorOutput,
    _eig2x2,
    _velocity_array,
    cnn_detect,
    concat_outputs,
    ivmp_detect,
    ivt_detect,
    ivt_idt_detect,
    pca_ratio_detect,
    stage2_statistics,
)
from gazeflow.features import featurize_sequence, repair_sequence, window_starts
from gazeflow.gaze import GazeSequence, LabelClass
from gazeflow.net import forward, init_params
from gazeflow.simulate import StimulusConfig, generate_sequence

F, S, P = LabelClass.FIXATION, LabelClass.SACCADE, LabelClass.PURSUIT
DT_MS = 1000.0 / 300.0


def make_seq(x, y=None, valid=None):
    x = np.asarray(x, dtype=float)
    y = np.zeros_like(x) if y is None else np.asarray(y, dtype=float)
    v = np.ones(len(x), bool) if valid is None else np.asarray(valid, bool)
    return GazeSequence(np.arange(len(x)) * DT_MS, x, y, v)


def velocity(seq: GazeSequence, i: int) -> float:
    """Scalar central-difference gaze speed at sample i, in degrees per second:
    the oracle for the detectors' vectorized velocity."""
    n = len(seq)
    if not 1 <= i <= n - 2:
        raise DetectorError(f"velocity undefined at boundary index {i}")
    dt_s = (seq.t_ms[i + 1] - seq.t_ms[i - 1]) / 1000.0
    dx = seq.x_deg[i + 1] - seq.x_deg[i - 1]
    dy = seq.y_deg[i + 1] - seq.y_deg[i - 1]
    return float(np.hypot(dx, dy) / dt_s)


class TestVelocity:
    def test_stationary(self):
        assert velocity(make_seq(np.zeros(10)), 4) == 0.0

    def test_constant_drift_30_deg_s(self):
        x = 0.1 * np.arange(10)
        assert velocity(make_seq(x), 5) == pytest.approx(30.0, abs=1e-9)

    def test_matches_independent_formula_on_random_walk(self):
        rng = np.random.default_rng(0)
        x = np.cumsum(rng.normal(0, 0.05, 50))
        y = np.cumsum(rng.normal(0, 0.05, 50))
        seq = make_seq(x, y)
        for i in range(1, 49):
            dt = (seq.t_ms[i + 1] - seq.t_ms[i - 1]) / 1000.0
            expected = np.sqrt((x[i + 1] - x[i - 1]) ** 2 + (y[i + 1] - y[i - 1]) ** 2) / dt
            assert velocity(seq, i) == pytest.approx(expected, rel=1e-12)

    def test_scalar_oracle_matches_vectorized(self):
        rng = np.random.default_rng(4)
        seq = make_seq(np.cumsum(rng.normal(0, 0.05, 60)), np.cumsum(rng.normal(0, 0.05, 60)))
        bad = np.zeros(60, bool)
        bad[[10, 30, 31]] = True
        v = _velocity_array(seq.t_ms, seq.x_deg, seq.y_deg, bad)
        for i in range(60):
            if i in (0, 59) or bad[i - 1] or bad[i + 1]:
                assert np.isnan(v[i])
            else:
                assert v[i] == velocity(seq, i)

    def test_boundary_errors(self):
        seq = make_seq(np.zeros(5))
        with pytest.raises(DetectorError):
            velocity(seq, 0)
        with pytest.raises(DetectorError):
            velocity(seq, 4)


class TestIvt:
    def test_slow_drift_no_saccades(self):
        x = (50.0 / 300.0) * np.arange(60)  # 50 deg/s
        out = ivt_detect(make_seq(x), BaselineConfig(velocity_threshold_deg_s=100.0))
        assert np.all(out.labels == int(F))

    def test_jump_marks_adjacent_samples(self):
        x = np.zeros(40)
        x[20:] = 5.0  # instantaneous 5-deg step: ~750 deg/s central difference
        out = ivt_detect(make_seq(x), BaselineConfig(velocity_threshold_deg_s=100.0))
        full = out.full_labels()
        assert full[19] == int(S) and full[20] == int(S)
        assert full[5] == int(F) and full[35] == int(F)

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(1)
        x = np.cumsum(rng.normal(0, 0.3, 300))
        seq = make_seq(x)
        prev = None
        for tau in (10.0, 30.0, 90.0, 270.0):
            out = ivt_detect(seq, BaselineConfig(velocity_threshold_deg_s=tau))
            sacc = set(out.sample_idx[out.labels == int(S)].tolist())
            if prev is not None:
                assert sacc <= prev
            prev = sacc

    def test_coverage_excludes_endpoints(self):
        out = ivt_detect(make_seq(np.zeros(50)), BaselineConfig())
        assert out.sample_idx.tolist() == list(range(1, 49))

    def test_pursuit_channel_flat(self):
        out = ivt_detect(make_seq(np.zeros(30)), BaselineConfig())
        assert np.all(out.scores[:, 2] == 0.0)


def two_stage_oracle(seq, config, stat_fn):
    """Slow span-aware reimplementation of the two-stage decision rule."""
    n = len(seq)
    off_l = config.window_len // 2
    off_r = config.window_len - off_l - 1
    v = np.full(n, np.nan)
    for i in range(1, n - 1):
        v[i] = velocity(seq, i)
    sac = np.zeros(n, bool)
    sac[1 : n - 1] = v[1 : n - 1] > config.velocity_threshold_deg_s
    labels = {}
    for i in range(off_l, n - off_r):
        if sac[i]:
            labels[i] = int(S)
            continue
        lo = i
        while lo > 0 and not sac[lo - 1]:
            lo -= 1
        hi = i
        while hi < n - 1 and not sac[hi + 1]:
            hi += 1
        a = max(lo, i - off_l)
        b = min(hi, i + off_r)
        labels[i] = stat_fn(seq.x_deg[a : b + 1], seq.y_deg[a : b + 1])
    return labels


class TestIvtIdt:
    def test_static_cluster_all_fixation(self):
        rng = np.random.default_rng(2)
        x = 0.05 * rng.normal(size=120)  # ~0.1-deg jitter cluster
        y = 0.05 * rng.normal(size=120)
        out = ivt_idt_detect(make_seq(x, y), BaselineConfig(dispersion_threshold_deg=1.0))
        assert np.all(out.labels == int(F))

    def test_straight_pursuit(self):
        x = (20.0 / 300.0) * np.arange(120)  # 2 deg of travel per 30-sample window
        out = ivt_idt_detect(make_seq(x), BaselineConfig(dispersion_threshold_deg=1.0))
        assert np.all(out.labels == int(P))

    def test_composite_trace_matches_oracle(self):
        rng = np.random.default_rng(3)
        # fixation, pursuit, saccade, fixation
        x = np.concatenate(
            [
                np.zeros(60) + 0.02 * rng.normal(size=60),
                (15.0 / 300.0) * np.arange(60),
                np.linspace(3.0, 9.0, 6),
                np.full(60, 9.0) + 0.02 * rng.normal(size=60),
            ]
        )
        seq = make_seq(x)
        cfg = BaselineConfig(velocity_threshold_deg_s=60.0, dispersion_threshold_deg=0.5)

        def stat(xs, ys):
            disp = (xs.max() - xs.min()) + (ys.max() - ys.min())
            return int(P) if disp > cfg.dispersion_threshold_deg else int(F)

        expected = two_stage_oracle(seq, cfg, stat)
        out = ivt_idt_detect(seq, cfg)
        got = dict(zip(out.sample_idx.tolist(), out.labels.tolist()))
        assert got == expected


class TestIvmp:
    def test_angle_threshold_at_most_pi(self):
        # the mean turning angle is at most pi: a larger threshold leaves no fixation side
        assert BaselineConfig(angle_threshold_rad=np.pi).angle_threshold_rad == np.pi
        for angle in (np.nextafter(np.pi, 4.0), 3.2):
            with pytest.raises(DetectorError, match="angle_threshold_rad must be at most pi"):
                BaselineConfig(angle_threshold_rad=angle)

    def test_straight_drift_is_pursuit(self):
        x = (10.0 / 300.0) * np.arange(90)
        out = ivmp_detect(make_seq(x), BaselineConfig(angle_threshold_rad=1.5))
        assert np.all(out.labels == int(P))

    def test_alternating_jitter_is_fixation(self):
        x = 0.1 * (-1.0) ** np.arange(90)  # every turn is a full reversal: angle pi
        out = ivmp_detect(make_seq(x), BaselineConfig(angle_threshold_rad=1.5))
        assert np.all(out.labels == int(F))

    def test_mean_angle_matches_trig_oracle(self):
        rng = np.random.default_rng(4)
        x = np.cumsum(rng.normal(0, 0.1, 80))
        y = np.cumsum(rng.normal(0, 0.1, 80))
        stats = stage2_statistics(x, y, np.ones(80, bool), 30, ("turn_angle",))
        ang = stats["turn_angle"]
        for i in (0, 10, 40, 64, 79):
            a = max(0, i - 15)
            b = min(79, i + 14)
            angles = []
            for j in range(a, b - 1):
                d1 = np.array([x[j + 1] - x[j], y[j + 1] - y[j]])
                d2 = np.array([x[j + 2] - x[j + 1], y[j + 2] - y[j + 1]])
                if (d1 == 0).all() or (d2 == 0).all():
                    continue
                cross = d1[0] * d2[1] - d1[1] * d2[0]
                dot = d1 @ d2
                angles.append(abs(np.arctan2(cross, dot)))
            assert ang[i] == pytest.approx(np.mean(angles), abs=1e-9)

    def test_zero_motion_window_is_fixation(self):
        out = ivmp_detect(make_seq(np.zeros(60)), BaselineConfig())
        assert np.all(out.labels == int(F))


class TestPcaRatio:
    def test_eig_closed_form_diagonal(self):
        lam1, lam2 = _eig2x2(np.array(2.0), np.array(0.0), np.array(0.5))
        assert lam1 == 2.0 and lam2 == 0.5
        assert lam1 / lam2 == 4.0

    def test_collinear_points_are_pursuit(self):
        x = (8.0 / 300.0) * np.arange(90)
        y = 0.5 * x  # exactly on a line
        out = pca_ratio_detect(make_seq(x, y), BaselineConfig(pca_ratio_threshold=10.0))
        assert np.all(out.labels == int(P))

    def test_isotropic_jitter_is_fixation_and_matches_cov_oracle(self):
        rng = np.random.default_rng(5)
        x = 0.05 * rng.normal(size=90)
        y = 0.05 * rng.normal(size=90)
        stats = stage2_statistics(x, y, np.ones(90, bool), 30, ("eigen_ratio",))
        for i in (15, 45, 70):
            a, b = max(0, i - 15), min(89, i + 14)
            xc = x[a : b + 1] - x[a : b + 1].mean()
            yc = y[a : b + 1] - y[a : b + 1].mean()
            cov = np.cov(np.stack([xc, yc]), bias=True)
            lam = np.linalg.eigvalsh(cov)
            expected = max(lam[1], 1e-12) / max(lam[0], 1e-12)
            assert stats["eigen_ratio"][i] == pytest.approx(expected, rel=1e-9)
        out = pca_ratio_detect(make_seq(x, y), BaselineConfig(pca_ratio_threshold=10.0))
        assert np.all(out.labels == int(F))

    def test_degenerate_window_ratio_one(self):
        stats = stage2_statistics(np.full(40, 2.0), np.full(40, -1.0), np.ones(40, bool), 30, ("eigen_ratio",))
        assert np.allclose(stats["eigen_ratio"], 1.0)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(6)
        x = np.cumsum(rng.normal(0, 0.05, 150))
        y = np.cumsum(rng.normal(0, 0.02, 150))
        theta = np.deg2rad(37.0)
        xr = np.cos(theta) * x - np.sin(theta) * y
        yr = np.sin(theta) * x + np.cos(theta) * y
        s1 = stage2_statistics(x, y, np.ones(150, bool), 30, ("eigen_ratio",))["eigen_ratio"]
        s2 = stage2_statistics(xr, yr, np.ones(150, bool), 30, ("eigen_ratio",))["eigen_ratio"]
        assert np.max(np.abs(s1 - s2) / s1) < 1e-9
        cfg = BaselineConfig(pca_ratio_threshold=4.0)
        out1 = pca_ratio_detect(make_seq(x, y), cfg)
        out2 = pca_ratio_detect(make_seq(xr, yr), cfg)
        assert np.array_equal(out1.labels, out2.labels)


def _oracle_runs(mask):
    """Maximal [lo, hi] runs of True."""
    if mask.size == 0 or not mask.any():
        return []
    d = np.diff(mask.astype(np.int8))
    starts = np.flatnonzero(d == 1) + 1
    ends = np.flatnonzero(d == -1)
    if mask[0]:
        starts = np.concatenate([[0], starts])
    if mask[-1]:
        ends = np.concatenate([ends, [mask.size - 1]])
    return list(zip(starts.tolist(), ends.tolist()))


def _oracle_dispersion(xs, ys, off_l, off_r):
    s = xs.shape[0]
    L = off_l + off_r + 1
    idx = np.arange(s)
    out = np.empty(s)
    left = idx < off_l
    if left.any():
        pxmax = np.maximum.accumulate(xs)
        pxmin = np.minimum.accumulate(xs)
        pymax = np.maximum.accumulate(ys)
        pymin = np.minimum.accumulate(ys)
        b = np.minimum(s - 1, idx[left] + off_r)
        out[left] = (pxmax[b] - pxmin[b]) + (pymax[b] - pymin[b])
    right = ~left & (idx > s - 1 - off_r)
    if right.any():
        sxmax = np.maximum.accumulate(xs[::-1])[::-1]
        sxmin = np.minimum.accumulate(xs[::-1])[::-1]
        symax = np.maximum.accumulate(ys[::-1])[::-1]
        symin = np.minimum.accumulate(ys[::-1])[::-1]
        a = idx[right] - off_l
        out[right] = (sxmax[a] - sxmin[a]) + (symax[a] - symin[a])
    if s >= L:
        wx = sliding_window_view(xs, L)
        wy = sliding_window_view(ys, L)
        out[off_l : s - off_r] = (wx.max(axis=1) - wx.min(axis=1)) + (wy.max(axis=1) - wy.min(axis=1))
    return out


def _oracle_turn_angle(xs, ys, off_l, off_r):
    s = xs.shape[0]
    if s < 3:
        return np.full(s, np.pi)
    dx = np.diff(xs)
    dy = np.diff(ys)
    moving = (dx != 0) | (dy != 0)
    dot = dx[:-1] * dx[1:] + dy[:-1] * dy[1:]
    cross = dx[:-1] * dy[1:] - dy[:-1] * dx[1:]
    ang = np.abs(np.arctan2(cross, dot))
    valid = moving[:-1] & moving[1:]
    csum_ang = np.concatenate([[0.0], np.cumsum(np.where(valid, ang, 0.0))])
    csum_cnt = np.concatenate([[0], np.cumsum(valid.astype(np.int64))])
    idx = np.arange(s)
    a = np.maximum(0, idx - off_l)
    b = np.minimum(s - 1, idx + off_r)
    hi = np.maximum(b - 2, a - 1)
    total = csum_ang[hi + 1] - csum_ang[a]
    count = csum_cnt[hi + 1] - csum_cnt[a]
    with np.errstate(invalid="ignore"):
        return np.where(count > 0, total / np.maximum(count, 1), np.pi)


def _oracle_eigen_ratio(xs, ys, off_l, off_r):
    s = xs.shape[0]
    xc = xs - xs.mean()
    yc = ys - ys.mean()
    cx, cy, cxx, cyy, cxy = (
        np.concatenate([[0.0], np.cumsum(v)]) for v in (xc, yc, xc * xc, yc * yc, xc * yc)
    )
    idx = np.arange(s)
    a = np.maximum(0, idx - off_l)
    b = np.minimum(s - 1, idx + off_r)
    nw = (b - a + 1).astype(np.float64)
    mx = (cx[b + 1] - cx[a]) / nw
    my = (cy[b + 1] - cy[a]) / nw
    vxx = np.maximum((cxx[b + 1] - cxx[a]) / nw - mx * mx, 0.0)
    vyy = np.maximum((cyy[b + 1] - cyy[a]) / nw - my * my, 0.0)
    vxy = (cxy[b + 1] - cxy[a]) / nw - mx * my
    lam1, lam2 = _eig2x2(vxx, vxy, vyy)
    return np.maximum(lam1, 1e-12) / np.maximum(lam2, 1e-12)


_ORACLE_STATS = {
    "dispersion": _oracle_dispersion,
    "turn_angle": _oracle_turn_angle,
    "eigen_ratio": _oracle_eigen_ratio,
}


def stage2_oracle(x, y, span_mask, window_len, kinds):
    """Per-span stage 2: each run of span_mask is sliced out and processed alone."""
    off_l = window_len // 2
    off_r = window_len - off_l - 1
    out = {k: np.full(x.shape[0], np.nan) for k in kinds}
    for lo, hi in _oracle_runs(span_mask):
        for k in kinds:
            out[k][lo : hi + 1] = _ORACLE_STATS[k](x[lo : hi + 1], y[lo : hi + 1], off_l, off_r)
    return out


def random_span_mask(n, rng, touch_ends):
    """Alternating runs and gaps; run lengths 1..80 cover both sides of the window."""
    mask = np.zeros(n, bool)
    i = 0 if touch_ends else int(rng.integers(1, 4))
    while i < n:
        run = int(rng.choice([1, 2, 3, 5, 14, 15, 16, 29, 30, 31, 45, 80]))
        mask[i : i + run] = True
        i += run + int(rng.integers(1, 4))
    if touch_ends:
        mask[-3:] = True
    else:
        mask[-1] = False
    return mask


class TestStage2MatchesPerSpanOracle:
    KINDS = ("dispersion", "turn_angle", "eigen_ratio")

    @pytest.fixture(scope="class")
    def cases(self):
        rng = np.random.default_rng(11)
        n = 600
        out = []
        for k in range(8):
            x = np.cumsum(rng.normal(0, 0.1, n))
            y = np.cumsum(rng.normal(0, 0.05, n))
            # stationary stretches and exact repeats: zero displacements, degenerate windows
            x[100:160] = x[100]
            y[100:160] = y[100]
            x[300:340:2] = x[301:341:2]
            masks = [random_span_mask(n, rng, touch_ends=bool(k % 2)) for _ in range(3)]
            masks += [np.zeros(n, bool), np.ones(n, bool)] if k == 0 else []
            out += [(x, y, mask, wl) for mask in masks for wl in (2, 5, 30)]
        return out

    def test_masks_cover_the_edge_cases(self, cases):
        lengths = set()
        touch_first = touch_last = empty = full = False
        for _, _, mask, _ in cases:
            runs = _oracle_runs(mask)
            lengths |= {hi - lo + 1 for lo, hi in runs}
            touch_first |= bool(mask[0])
            touch_last |= bool(mask[-1])
            empty |= not mask.any()
            full |= bool(mask.all())
        assert {1, 2} <= lengths and min(lengths) < 30 < max(lengths)
        assert touch_first and touch_last and empty and full

    def test_dispersion_bit_identical(self, cases):
        for x, y, mask, wl in cases:
            got = stage2_statistics(x, y, mask, wl, ("dispersion",))["dispersion"]
            want = stage2_oracle(x, y, mask, wl, ("dispersion",))["dispersion"]
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_turn_angle_and_eigen_ratio_close(self, cases):
        for x, y, mask, wl in cases:
            got = stage2_statistics(x, y, mask, wl, self.KINDS)
            want = stage2_oracle(x, y, mask, wl, self.KINDS)
            for k in self.KINDS:
                assert np.array_equal(np.isnan(got[k]), np.isnan(want[k]))
            span = ~np.isnan(want["turn_angle"])
            assert np.max(np.abs(got["turn_angle"] - want["turn_angle"])[span], initial=0.0) <= 1e-12
            ratio_g, ratio_w = got["eigen_ratio"], want["eigen_ratio"]
            sel = span & (ratio_w < 1e3)  # above, lam2 sits near the floor: ill-conditioned
            assert np.max(np.abs(ratio_g - ratio_w)[sel] / ratio_w[sel], initial=0.0) <= 1e-9

    def test_unknown_statistic_rejected(self):
        with pytest.raises(DetectorError):
            stage2_statistics(np.zeros(5), np.zeros(5), np.ones(5, bool), 3, ("median",))


class TestCnnDetect:
    def test_zero_weight_model_uniform_scores(self):
        from gazeflow.net import NetworkParams

        params = NetworkParams(
            conv_w=np.zeros((10, 10, 2)),
            conv_b=np.zeros(10),
            dense_w=np.zeros((3, 40)),
            dense_b=np.zeros(3),
        )
        seq = make_seq(np.random.default_rng(7).normal(size=100))
        out = cnn_detect(params, seq)
        assert np.allclose(out.scores, 1.0 / 3.0)
        assert np.all(out.labels == int(F))  # tie breaks to the lowest code

    def test_covered_count_on_valid_sequence(self):
        params = init_params(0)
        out = cnn_detect(params, make_seq(np.zeros(100)))
        assert out.sample_idx.shape[0] == 71
        assert out.sample_idx.tolist() == list(range(15, 86))

    def test_matches_per_window_forward_replay(self):
        rng = np.random.default_rng(8)
        params = init_params(5)
        seq = make_seq(np.cumsum(rng.normal(0, 0.1, 80)), np.cumsum(rng.normal(0, 0.1, 80)))
        out = cnn_detect(params, seq)
        for k, (center, feat) in enumerate(zip(*featurize_sequence(seq))):
            assert out.sample_idx[k] == center
            res = forward(params, feat)
            assert np.max(np.abs(res.probs.probs - out.scores[k])) < 1e-12
            assert out.labels[k] == int(res.probs.label)


class TestDetectorOutputInvariants:
    def test_label_must_equal_argmax(self):
        with pytest.raises(DetectorError):
            DetectorOutput(
                n_samples=2,
                sample_idx=np.array([0, 1]),
                scores=np.array([[0.2, 0.5, 0.3], [0.6, 0.2, 0.2]]),
                labels=np.array([0, 0]),
            )

    def test_indices_strictly_increasing(self):
        with pytest.raises(DetectorError):
            DetectorOutput(
                n_samples=3,
                sample_idx=np.array([1, 1]),
                scores=np.full((2, 3), 1 / 3),
                labels=np.array([0, 0]),
            )

    def test_all_detectors_satisfy_argmax_and_coverage(self):
        rng = np.random.default_rng(9)
        x = np.concatenate([np.zeros(50), np.linspace(0, 6, 8), 6 + (12 / 300) * np.arange(60)])
        x = x + 0.03 * rng.normal(size=x.size)
        y = 0.03 * rng.normal(size=x.size)
        seq = make_seq(x, y)
        cfg = BaselineConfig()
        outs = [
            ivt_detect(seq, cfg),
            ivt_idt_detect(seq, cfg),
            ivmp_detect(seq, cfg),
            pca_ratio_detect(seq, cfg),
            cnn_detect(init_params(0), seq),
        ]
        for out in outs:
            assert np.array_equal(out.labels, out.scores.argmax(axis=1))
            covered = out.covered
            assert covered.sum() == out.sample_idx.shape[0]
            assert np.all(np.diff(out.sample_idx) > 0)

    def test_concat_outputs_offsets_indices(self):
        seq = make_seq(np.zeros(40))
        a = ivt_detect(seq, BaselineConfig())
        b = ivt_detect(seq, BaselineConfig())
        both = concat_outputs([a, b])
        assert both.n_samples == 80
        assert both.sample_idx.tolist() == list(range(1, 39)) + list(range(41, 79))


class TestInvalidSampleHandling:
    def test_windows_with_bad_samples_uncovered(self):
        x = np.zeros(100)
        valid = np.ones(100, bool)
        valid[50:60] = False
        x[50:60] = np.nan
        out = ivt_idt_detect(make_seq(x, valid=valid), BaselineConfig())
        covered = set(out.sample_idx.tolist())
        for i in range(36, 75):  # any window [i-15, i+14] touching 50..59
            assert i not in covered
        assert 35 in covered and 75 in covered

    def test_short_gap_repaired(self):
        x = np.zeros(100)
        valid = np.ones(100, bool)
        valid[50:52] = False
        x[50:52] = np.nan
        out = ivt_idt_detect(make_seq(x, valid=valid), BaselineConfig())
        assert out.sample_idx.shape[0] == 71

    def test_too_short_sequence_rejected(self):
        with pytest.raises(DetectorError):
            ivt_idt_detect(make_seq(np.zeros(29)), BaselineConfig())


# ---------------------------------------------------------------------------
# the four baselines as they were written before they shared one stage 1 and
# the STAGE2 table: oracles for the scores, bit for bit

ORACLE_MAX_GAP = 3


def _old_prepare(seq, config):
    x, y, bad = repair_sequence(seq, ORACLE_MAX_GAP)
    v = _velocity_array(seq.t_ms, x, y, bad)
    with np.errstate(invalid="ignore"):
        sac = v > config.velocity_threshold_deg_s
    full = sliding_window_view(~bad, config.window_len).all(axis=1)
    return x, y, bad, v, sac, np.flatnonzero(full) + config.window_len // 2


def _old_assemble(n, covered_idx, v, sac, rho_pur, tau_v):
    vc = v[covered_idx]
    m = vc / (tau_v + vc)
    p_sac = np.where(sac[covered_idx], m, (2.0 / 3.0) * m)
    rem = 1.0 - p_sac
    rho = rho_pur[covered_idx]
    rho = np.where(np.isfinite(rho), rho, 0.5)
    p_pur = rem * rho
    scores = np.stack([rem - p_pur, p_sac, p_pur], axis=1)
    return DetectorOutput(n, covered_idx, scores, scores.argmax(axis=1))


def old_ivt(seq, config):
    x, y, bad = repair_sequence(seq, ORACLE_MAX_GAP)
    v = _velocity_array(seq.t_ms, x, y, bad)
    covered_idx = np.flatnonzero(np.isfinite(v) & ~bad)
    vc = v[covered_idx]
    p_sac = vc / (config.velocity_threshold_deg_s + vc)
    scores = np.stack([1.0 - p_sac, p_sac, np.zeros_like(p_sac)], axis=1)
    return DetectorOutput(len(seq), covered_idx, scores, scores.argmax(axis=1))


def _old_two_stage(seq, config, kind, rho_fn):
    x, y, bad, v, sac, covered_idx = _old_prepare(seq, config)
    stats = stage2_statistics(x, y, ~sac & ~bad, config.window_len, (kind,))
    return _old_assemble(len(seq), covered_idx, v, sac, rho_fn(stats[kind]), config.velocity_threshold_deg_s)


def old_ivt_idt(seq, config):
    return _old_two_stage(seq, config, "dispersion", lambda d: d / (d + config.dispersion_threshold_deg))


def old_ivmp(seq, config):
    sigma_tau = np.pi - config.angle_threshold_rad

    def rho(mean_angle):
        s = np.pi - mean_angle
        denom = s + sigma_tau
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(denom > 0, s / denom, 0.5)

    return _old_two_stage(seq, config, "turn_angle", rho)


def old_pca(seq, config):
    return _old_two_stage(seq, config, "eigen_ratio", lambda r: r / (r + config.pca_ratio_threshold))


OLD_BASELINES = {"ivt": old_ivt, "ivt-idt": old_ivt_idt, "ivmp": old_ivmp, "pca": old_pca}


def gappy_recording(seed, n=600):
    """A simulated recording with dropouts of 1-6 samples and lost ends."""
    rng = np.random.default_rng(seed)
    seq = generate_sequence(StimulusConfig(seed=seed, sequence_duration_s=n / 300.0), 0).sequence
    valid = np.ones(len(seq), bool)
    valid[: rng.integers(0, 3)] = False
    valid[len(seq) - rng.integers(0, 3) :] = False
    for _ in range(8):
        s = int(rng.integers(5, len(seq) - 10))
        valid[s : s + int(rng.integers(1, 7))] = False
    x = np.where(valid, seq.x_deg, np.nan)
    y = np.where(valid, seq.y_deg, np.nan)
    return replace(seq, x_deg=x, y_deg=y, valid=valid)


def random_config(rng):
    return BaselineConfig(
        velocity_threshold_deg_s=float(rng.uniform(5.0, 300.0)),
        dispersion_threshold_deg=float(rng.uniform(0.05, 4.0)),
        angle_threshold_rad=min(float(rng.uniform(0.05, 4.0)), np.pi),  # pi, the largest, a fifth of the time
        pca_ratio_threshold=float(rng.uniform(1.01, 60.0)),
        window_len=int(rng.integers(3, 45)),
    )


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


class TestBaselinesMatchParentOracles:
    @pytest.fixture(scope="class")
    def recordings(self):
        noisy = [generate_sequence(StimulusConfig(seed=s, sequence_duration_s=2.0), 0).sequence for s in (1, 2)]
        return noisy + [gappy_recording(s) for s in (3, 4, 5, 6)]

    @pytest.mark.parametrize("name", sorted(BASELINE_DETECTORS))
    def test_bit_identical_at_default_and_random_thresholds(self, recordings, name):
        rng = np.random.default_rng([11, len(name)])
        configs = [BaselineConfig()] + [random_config(rng) for _ in range(6)]
        for seq in recordings:
            for cfg in configs:
                got = BASELINE_DETECTORS[name](seq, cfg)
                want = OLD_BASELINES[name](seq, cfg)
                assert np.array_equal(got.sample_idx, want.sample_idx)
                assert np.array_equal(bits(got.scores), bits(want.scores))
                assert np.array_equal(got.labels, want.labels)

    @pytest.mark.parametrize("name", sorted(BASELINE_DETECTORS))
    @pytest.mark.parametrize("max_gap", [0, 1, 3, 6])
    def test_coverage_is_the_frontend_window_rule(self, recordings, name, max_gap):
        cfg = BaselineConfig(window_len=24)
        window = 3 if name == "ivt" else cfg.window_len
        for seq in recordings:
            _, _, still_bad = repair_sequence(seq, max_gap)
            out = BASELINE_DETECTORS[name](seq, cfg, max_gap)
            assert np.array_equal(out.sample_idx, window_starts(still_bad, window) + window // 2)

    def test_ivt_velocity_overflow_is_a_detector_error(self):
        # a jump of 2 * 1.6e308 degrees overflows to an infinite speed
        x = np.tile([-1.6e308, 0.0, 1.6e308, 0.0], 10)
        seq = make_seq(x)
        for detect in BASELINE_DETECTORS.values():
            with pytest.raises(DetectorError, match=r"scores must be finite: the speed at sample \d+ overflows"):
                detect(seq, BaselineConfig())

    def test_ivt_needs_three_samples(self):
        with pytest.raises(DetectorError):
            ivt_detect(make_seq(np.zeros(2)))
        assert ivt_detect(make_seq(np.zeros(3))).sample_idx.tolist() == [1]


class TestDetectorOutputLabels:
    @pytest.mark.parametrize("labels", [[256, 257, 258], [-256, 1, 2], [0, 1, 258]])
    def test_out_of_range_label_not_wrapped(self, labels):
        with pytest.raises(DetectorError):
            DetectorOutput(
                n_samples=3,
                sample_idx=np.arange(3),
                scores=np.eye(3),
                labels=np.array(labels),
            )

    def test_class_codes_kept_as_int8(self):
        out = DetectorOutput(3, np.arange(3), np.eye(3), np.array([0, 1, 2], dtype=np.int64))
        assert out.labels.dtype == np.int8 and out.labels.tolist() == [0, 1, 2]
