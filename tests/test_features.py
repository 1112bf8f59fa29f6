import numpy as np
import pytest

from gazeflow.features import (
    FeatureError,
    FrontendConfig,
    build_window_set,
    featurize_sequence,
    fft_magnitude,
    repair_sequence,
    yields_windows,
)
from gazeflow.gaze import GazeSequence


def naive_dft_magnitude(signal):
    """O(n^2) reference: |sum_n x[n] exp(-2i pi k n / N)|."""
    n = len(signal)
    out = np.empty(n)
    for k in range(n):
        acc = 0.0 + 0.0j
        for i, x in enumerate(signal):
            acc += x * np.exp(-2j * np.pi * k * i / n)
        out[k] = abs(acc)
    return out


def make_seq(x, y=None, valid=None, labels=None):
    x = np.asarray(x, dtype=float)
    y = np.zeros_like(x) if y is None else np.asarray(y, dtype=float)
    v = np.ones(len(x), bool) if valid is None else np.asarray(valid, bool)
    t = np.arange(len(x)) * (1000.0 / 300.0)
    return GazeSequence(t, x, y, v, labels)


class TestFftMagnitude:
    def test_constant_signal_is_dc_only(self):
        out = fft_magnitude(np.full(30, -1.7))
        assert out[0] == pytest.approx(30 * 1.7, abs=1e-9)
        assert np.all(out[1:] < 1e-9)

    def test_single_tone(self):
        n = np.arange(30)
        out = fft_magnitude(np.cos(2 * np.pi * n * 3 / 30))
        expected = np.zeros(30)
        expected[3] = expected[27] = 15.0
        assert np.max(np.abs(out - expected)) < 1e-9

    def test_matches_naive_dft(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            sig = rng.normal(size=30)
            assert np.max(np.abs(fft_magnitude(sig) - naive_dft_magnitude(sig))) < 1e-9

    def test_parseval(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            sig = rng.normal(size=30)
            lhs = np.sum(fft_magnitude(sig) ** 2)
            rhs = 30 * np.sum(sig**2)
            assert abs(lhs - rhs) <= 1e-9 * max(abs(rhs), 1.0)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            out = fft_magnitude(rng.normal(size=30))
            for k in range(1, 15):
                assert abs(out[k] - out[30 - k]) < 1e-12 * max(1.0, out[k])

    def test_rejects_non_finite(self):
        sig = np.zeros(30)
        sig[4] = np.nan
        with pytest.raises(FeatureError):
            fft_magnitude(sig)


def window_feature(xs, ys, config=FrontendConfig()):
    """The (window_len, 2) feature of one whole-sequence window."""
    centers, feats = featurize_sequence(make_seq(xs, ys), config)
    assert centers.tolist() == [config.center_offset]
    return feats[0]


class TestMakeFeature:
    """Encoding a single window, through featurize_sequence."""

    def test_stationary_window_demeaned_is_zero(self):
        feat = window_feature(np.full(30, 4.2), np.full(30, -1.1))
        assert np.max(feat) < 1e-12

    def test_stationary_window_exact_zero_for_exact_mean(self):
        assert np.all(window_feature(np.full(30, 4.0), np.full(30, -1.5)) == 0)

    def test_ramp_concentrates_low_frequency(self):
        n = np.arange(30)
        feat = window_feature(0.1 * n, np.zeros(30))
        ramp = 0.1 * n - np.mean(0.1 * n)
        oracle = naive_dft_magnitude(ramp)
        assert np.max(np.abs(feat[:, 0] - oracle)) < 1e-9
        assert feat[1, 0] > feat[14, 0]

    def test_alternating_jitter_hits_nyquist(self):
        xs = 0.1 * (-1.0) ** np.arange(30)
        feat = window_feature(xs, np.zeros(30))
        assert np.argmax(feat[:, 0]) == 15

    def test_translation_invariance_with_demean(self):
        rng = np.random.default_rng(3)
        xs = rng.normal(size=30)
        ys = rng.normal(size=30)
        a = window_feature(xs, ys)
        b = window_feature(xs + 123.4, ys - 55.5)
        assert np.max(np.abs(a - b)) < 1e-9

    def test_demean_off(self):
        cfg = FrontendConfig(demean=False)
        feat = window_feature(np.full(30, 2.0), np.zeros(30), cfg)
        assert feat[0, 0] == pytest.approx(60.0)


class TestExtractWindows:
    def test_single_window(self):
        seq = make_seq(np.zeros(30))
        centers, feats = featurize_sequence(seq)
        assert len(centers) == len(feats) == 1
        assert centers[0] == 15

    def test_window_count_and_centers(self):
        seq = make_seq(np.zeros(100))
        centers = featurize_sequence(seq)[0].tolist()
        assert len(centers) == 71
        assert centers == list(range(15, 86))

    def test_too_short_errors(self):
        with pytest.raises(FeatureError):
            featurize_sequence(make_seq(np.zeros(29)))

    def test_stride(self):
        seq = make_seq(np.zeros(100))
        centers, _ = featurize_sequence(seq, FrontendConfig(stride=7))
        assert centers.tolist() == list(range(15, 86, 7))

    def test_centers_strictly_increasing(self):
        rng = np.random.default_rng(4)
        seq = make_seq(rng.normal(size=200))
        centers, _ = featurize_sequence(seq)
        assert np.all(np.diff(centers) > 0)

    def test_long_gap_skips_windows_against_enumeration(self):
        valid = np.ones(100, bool)
        valid[40:51] = False  # 11-sample gap, beyond repair
        x = np.zeros(100)
        x[40:51] = np.nan
        seq = make_seq(x, valid=valid)
        centers, _ = featurize_sequence(seq)
        expected = [
            s + 15
            for s in range(0, 71)
            if not any(40 <= i <= 50 for i in range(s, s + 30))
        ]
        assert centers.tolist() == expected

    def test_short_gap_repaired_by_interpolation(self):
        x = np.linspace(0.0, 9.9, 100)
        valid = np.ones(100, bool)
        valid[50:53] = False  # 3-sample gap, repairable
        x_broken = x.copy()
        x_broken[50:53] = np.nan
        seq = make_seq(x_broken, valid=valid)
        centers, feats = featurize_sequence(seq)
        assert centers.shape[0] == 71  # nothing skipped
        clean_centers, clean_feats = featurize_sequence(make_seq(x))
        # linear signal: interpolation reconstructs it exactly
        assert np.max(np.abs(feats - clean_feats)) < 1e-9

    def test_boundary_gap_not_repairable(self):
        valid = np.ones(60, bool)
        valid[0] = False
        x = np.zeros(60)
        x[0] = np.nan
        centers, _ = featurize_sequence(make_seq(x, valid=valid))
        assert centers.tolist() == list(range(16, 46))


class TestYieldsWindows:
    def test_matches_the_sequences_build_window_set_keeps(self):
        labels = np.zeros(60, np.int8)
        gappy = np.ones(60, bool)
        gappy[10:50:8] = False  # 1-sample losses: repaired
        gappy[0] = False  # a loss at the boundary stays, but later windows avoid it
        blocked = np.ones(60, bool)
        blocked[20:40] = False  # every window holds the 20-sample loss
        seqs = [
            make_seq(np.zeros(60), labels=labels),
            make_seq(np.zeros(29), labels=labels[:29]),  # shorter than one window
            make_seq(np.where(blocked, 0.0, np.nan), valid=blocked, labels=labels),
            make_seq(np.where(gappy, 0.0, np.nan), valid=gappy, labels=labels),
            make_seq(np.full(60, np.nan), valid=np.zeros(60, bool), labels=labels),
        ]
        kept = np.unique(build_window_set(seqs).groups)
        assert kept.tolist() == [0, 3]
        assert [i for i, s in enumerate(seqs) if yields_windows(s)] == kept.tolist()


class TestRepairSequence:
    def test_interpolates_in_time(self):
        x = np.array([0.0, np.nan, np.nan, 3.0, 4.0])
        valid = np.array([True, False, False, True, True])
        seq = make_seq(x, valid=valid)
        rx, _, bad = repair_sequence(seq, max_gap=3)
        assert not bad.any()
        assert rx[1] == pytest.approx(1.0)
        assert rx[2] == pytest.approx(2.0)

    def test_gap_longer_than_max_stays_bad(self):
        x = np.array([0.0, np.nan, np.nan, np.nan, 4.0])
        valid = np.array([True, False, False, False, True])
        seq = make_seq(x, valid=valid)
        _, _, bad = repair_sequence(seq, max_gap=2)
        assert bad.tolist() == [False, True, True, True, False]
