import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from gazeflow import features
from gazeflow.features import (
    FEATURIZE_CHUNK,
    FeatureError,
    FrontendConfig,
    count_windows,
    featurize_sequence,
    repair_sequence,
    split_dataset,
    split_recordings,
    window_starts,
)
from gazeflow.gaze import DEFAULT_SPLIT_RATIOS, GazeSequence, WindowSet, split_units
from gazeflow.simulate import StimulusConfig, generate_corpus, generate_sequence


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


def spectra(signals):
    """DFT magnitudes of 30-sample signals, one row each, from featurize_sequence.

    The signals are laid end to end on both channels of one recording, in
    reverse order on y, and featurized one window per signal without
    demeaning. Returns the x- and y-channel magnitudes in signal order.
    """
    signals = np.asarray(signals, dtype=float)
    m, n = signals.shape
    seq = make_seq(signals.ravel(), signals[::-1].ravel())
    centers, feats = featurize_sequence(seq, FrontendConfig(window_len=n, stride=n, center_offset=0, demean=False))
    assert centers.tolist() == list(range(0, m * n, n))
    return feats[:, :, 0], feats[::-1, :, 1]


class TestFftMagnitude:
    """The frontend's DFT, through featurize_sequence."""

    def test_constant_signal_is_dc_only(self):
        for out in spectra([np.full(30, -1.7)]):
            assert out[0, 0] == pytest.approx(30 * 1.7, abs=1e-9)
            assert np.all(out[0, 1:] < 1e-9)

    def test_single_tone(self):
        n = np.arange(30)
        expected = np.zeros(30)
        expected[3] = expected[27] = 15.0
        for out in spectra([np.cos(2 * np.pi * n * 3 / 30)]):
            assert np.max(np.abs(out[0] - expected)) < 1e-9

    def test_matches_naive_dft(self):
        rng = np.random.default_rng(0)
        sigs = rng.normal(size=(100, 30))
        for out in spectra(sigs):
            for sig, row in zip(sigs, out):
                assert np.max(np.abs(row - naive_dft_magnitude(sig))) < 1e-9

    def test_parseval(self):
        rng = np.random.default_rng(1)
        sigs = rng.normal(size=(50, 30))
        for out in spectra(sigs):
            for sig, row in zip(sigs, out):
                lhs = np.sum(row**2)
                rhs = 30 * np.sum(sig**2)
                assert abs(lhs - rhs) <= 1e-9 * max(abs(rhs), 1.0)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(2)
        for out in spectra(rng.normal(size=(20, 30))):
            for row in out:
                for k in range(1, 15):
                    assert abs(row[k] - row[30 - k]) < 1e-12 * max(1.0, row[k])


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
        groups = oracle_build_window_set(seqs).groups
        kept = np.unique(groups)
        assert kept.tolist() == [0, 3]
        assert [i for i, s in enumerate(seqs) if count_windows(s) > 0] == kept.tolist()
        assert [count_windows(s) for s in seqs] == np.bincount(groups, minlength=5).tolist()


class TestWindowStarts:
    @pytest.mark.parametrize("window_len, stride", [(1, 1), (3, 1), (30, 1), (7, 3), (30, 4)])
    def test_matches_brute_force(self, window_len, stride):
        rng = np.random.default_rng(window_len + stride)
        still_bad = rng.random(200) < 0.02
        want = [s for s in range(0, 200 - window_len + 1, stride) if not still_bad[s : s + window_len].any()]
        assert window_starts(still_bad, window_len, stride).tolist() == want
        assert window_starts(np.zeros(200, bool), window_len, stride).tolist() == list(
            range(0, 200 - window_len + 1, stride)
        )

    def test_shorter_than_one_window_keeps_none(self):
        assert window_starts(np.zeros(29, bool), 30).size == 0


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


def oracle_repair_sequence(seq, max_gap):
    """The per-sample run walk that repair_sequence replaced, kept as an oracle."""
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


def loop_repair_sequence(seq, max_gap):
    """The per-run loop of two np.interp calls that repair_sequence replaced, kept as an oracle."""
    x = np.array(seq.x_deg, dtype=np.float64)
    y = np.array(seq.y_deg, dtype=np.float64)
    bad = ~np.asarray(seq.valid, dtype=bool)
    n = x.shape[0]
    if not bad.any():
        return x, y, bad

    still_bad = bad.copy()
    edges = np.flatnonzero(np.diff(bad.astype(np.int8)))
    starts = np.concatenate([[0], edges + 1])
    ends = np.concatenate([edges, [n - 1]])  # inclusive: runs alternate valid and invalid
    repair = bad[starts] & (ends - starts + 1 <= max_gap) & (starts > 0) & (ends < n - 1)
    t = seq.t_ms
    for s, e in zip(starts[repair], ends[repair]):
        span = [t[s - 1], t[e + 1]]
        x[s : e + 1] = np.interp(t[s : e + 1], span, [x[s - 1], x[e + 1]])
        y[s : e + 1] = np.interp(t[s : e + 1], span, [y[s - 1], y[e + 1]])
        still_bad[s : e + 1] = False
    return x, y, still_bad


def with_losses(seq, lost):
    return replace(
        seq,
        x_deg=np.where(lost, np.nan, seq.x_deg),
        y_deg=np.where(lost, np.nan, seq.y_deg),
        valid=seq.valid & ~lost,
    )


def repair_cases():
    """Gappy recordings: runs at index 0 and at n - 1, 1-sample runs, runs of
    1 to 8 samples, a blink-length run, an all-invalid and a lossless one."""
    seq = generate_sequence(StimulusConfig(seed=5, sequence_duration_s=3.0), 0).sequence
    n = len(seq)
    rng = np.random.default_rng(5)
    edges = np.zeros(n, bool)
    edges[:3] = edges[-1] = True
    singles = np.zeros(n, bool)
    singles[rng.choice(np.arange(2, n - 2, 3), size=60, replace=False)] = True
    mixed = np.zeros(n, bool)
    for k, s in enumerate(range(20, n - 160, 40)):
        mixed[s : s + 1 + k % 8] = True
    mixed[n - 150 : n - 45] = True  # a 105-sample blink
    mixed[0] = mixed[n - 2 :] = True
    cases = {name: with_losses(seq, lost) for name, lost in
             (("edges", edges), ("singles", singles), ("mixed", mixed), ("dead", np.ones(n, bool)))}
    cases["clean"] = seq
    cases["gappy"] = with_tracking_loss(seq, 3)
    return cases


class TestRepairAgainstRunWalk:
    @pytest.mark.parametrize("case", ["edges", "singles", "mixed", "dead", "clean", "gappy"])
    @pytest.mark.parametrize("max_gap", [0, 1, 3, 6])
    def test_bit_identical(self, case, max_gap):
        seq = repair_cases()[case]
        got, want = repair_sequence(seq, max_gap), oracle_repair_sequence(seq, max_gap)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(bits(a), bits(b))
        repaired = got[2] < ~np.asarray(seq.valid)
        assert repaired.any() == (case in ("singles", "mixed", "gappy") and max_gap > 0)


class TestRepairAgainstRunLoop:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_bit_identical(self, data):
        # irregular timestamps over many scales, coordinates of any magnitude
        # and NaN on every invalid sample
        n = data.draw(st.integers(1, 60))
        scale = 10.0 ** data.draw(st.integers(-3, 6))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        t = np.cumsum(rng.uniform(0.01, 2.0, n)) * scale
        x, y = rng.normal(size=(2, n)) * 10.0 ** rng.integers(-3, 300, size=(2, 1))
        valid = rng.uniform(size=n) < data.draw(st.floats(0.0, 1.0))
        seq = GazeSequence(t, np.where(valid, x, np.nan), np.where(valid, y, np.nan), valid)
        max_gap = data.draw(st.integers(0, 5))
        got, want = repair_sequence(seq, max_gap), loop_repair_sequence(seq, max_gap)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(bits(a), bits(b))


# ---------------------------------------------------------------------------
# The whole-recording frontend and the two-step split that featurize_sequence
# and split_dataset replaced, kept as oracles.


def oracle_featurize_sequence(seq, config=FrontendConfig()):
    """Every window at once: copies, demean, FFT and magnitude over the whole stack."""
    L = config.window_len
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
    return starts + config.center_offset, feats


def oracle_build_window_set(sequences, config=FrontendConfig()):
    """Every window of every labeled sequence, concatenated in sequence order."""
    feats, labels, groups = [], [], []
    for gi, seq in enumerate(sequences):
        if len(seq) < config.window_len:
            continue
        centers, f = oracle_featurize_sequence(seq, config)
        if centers.size == 0:
            continue
        feats.append(f)
        labels.append(seq.labels[centers])
        groups.append(np.full(centers.shape[0], gi, dtype=np.int64))
    return WindowSet(np.concatenate(feats), np.concatenate(labels), np.concatenate(groups))


def oracle_split_dataset(windows, ratios=DEFAULT_SPLIT_RATIOS, seed=0):
    """(train, validation, test) fancy-indexed out of the whole window set, by recording."""
    units = np.unique(windows.groups)

    def pick(unit_ids):
        idx = np.flatnonzero(np.isin(windows.groups, unit_ids))
        return WindowSet(windows.features[idx], windows.labels[idx], windows.groups[idx])

    return tuple(pick(ids) for ids in split_units(units, ratios, seed))


def bits(a):
    return np.ascontiguousarray(a).view(np.uint8)


def assert_same_windows(got, want):
    for name in ("features", "labels", "groups"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.array_equal(bits(a), bits(b)), name


def with_tracking_loss(seq, seed):
    """seq with 1-3 sample dropouts (repaired) and one blink-length loss (not)."""
    rng = np.random.default_rng(seed)
    lost = np.zeros(len(seq), bool)
    for s in rng.choice(np.arange(40, len(seq) - 40, 8), size=8, replace=False):
        lost[s : s + rng.integers(1, 4)] = True
    blink = int(rng.integers(40, len(seq) - 120))
    lost[blink : blink + int(rng.integers(45, 105))] = True
    return with_losses(seq, lost)


def small_corpus(n=12, duration_s=2.0, seed=11):
    return [t.sequence for t in generate_corpus(StimulusConfig(seed=seed, sequence_duration_s=duration_s), n)]


def corpus_without_windows_in(seqs, k):
    dead = replace(seqs[k], valid=np.zeros(len(seqs[k]), bool))
    return [*seqs[:k], dead, *seqs[k + 1 :]]


SPLIT_CORPORA = {
    "clean": lambda: small_corpus(),
    "gappy": lambda: [with_tracking_loss(s, k) for k, s in enumerate(small_corpus())],
    "no-window": lambda: corpus_without_windows_in(small_corpus(), 4),
}
SPLIT_CONFIGS = {"default": FrontendConfig(), "stride-3": FrontendConfig(stride=3, center_offset=4)}


class TestSplitDatasetAgainstOracle:
    @pytest.mark.parametrize("config", sorted(SPLIT_CONFIGS))
    @pytest.mark.parametrize("corpus", sorted(SPLIT_CORPORA))
    def test_parts_equal_the_two_step_split_bit_for_bit(self, corpus, config):
        seqs, cfg = SPLIT_CORPORA[corpus](), SPLIT_CONFIGS[config]
        for seed in (7, 3):
            split = split_dataset(seqs, cfg, seed)
            train, validation, test = oracle_split_dataset(
                oracle_build_window_set(seqs, cfg), DEFAULT_SPLIT_RATIOS, seed
            )
            assert_same_windows(split.train, train)
            assert_same_windows(split.validation, validation)
            assert len(test) > 0

    def test_test_recordings_are_never_featurized(self, monkeypatch):
        seqs = corpus_without_windows_in(small_corpus(), 4)
        featurized = []

        def spy(seq, config):
            featurized.append(seq.source_id)
            return featurize_sequence(seq, config)

        monkeypatch.setattr(features, "featurize_sequence", spy)
        split = split_dataset(seqs, seed=7)
        kept = [seqs[g].source_id for g in np.unique(np.concatenate([split.train.groups, split.validation.groups]))]
        assert featurized == kept
        assert 0 < len(kept) < len(seqs) - 1  # the dead recording and the test part are left out

    @pytest.mark.parametrize("corpus", sorted(SPLIT_CORPORA))
    def test_recording_parts_match_the_split(self, corpus):
        seqs = SPLIT_CORPORA[corpus]()
        part, counts = split_recordings(seqs, seed=7)
        split = split_dataset(seqs, seed=7)
        assert counts.tolist() == [count_windows(s) for s in seqs]
        assert np.array_equal(part == -1, counts == 0)
        assert np.flatnonzero(part == 0).tolist() == np.unique(split.train.groups).tolist()
        assert np.flatnonzero(part == 1).tolist() == np.unique(split.validation.groups).tolist()
        assert (part == 2).sum() == 1  # floor(0.125 * 11) = floor(0.125 * 12) = 1

    def test_unlabeled_sequence_rejected(self):
        seqs = small_corpus(n=3)
        with pytest.raises(FeatureError, match="has no labels"):
            split_dataset([*seqs, replace(seqs[0], labels=None)])


class TestChunkedFeaturize:
    @pytest.mark.parametrize("stride", [1, 3])
    def test_rows_equal_the_whole_recording_transform(self, stride):
        seq = with_tracking_loss(generate_sequence(StimulusConfig(seed=3, sequence_duration_s=12.0), 0).sequence, 1)
        cfg = FrontendConfig(stride=stride)
        centers, feats = featurize_sequence(seq, cfg)
        want_centers, want = oracle_featurize_sequence(seq, cfg)
        assert feats.shape[0] > 2 * FEATURIZE_CHUNK // stride
        assert np.array_equal(centers, want_centers)
        assert np.array_equal(bits(feats), bits(want))

    def test_overflow_names_the_first_window_past_the_first_chunk(self):
        x = np.zeros(FEATURIZE_CHUNK + 200)
        x[FEATURIZE_CHUNK + 100 :] = 1e308
        # the first window that holds two samples of 1e308 (their sum overflows)
        # ends at sample CHUNK + 101, so it starts at CHUNK + 72 and is centred on CHUNK + 87
        with pytest.raises(FeatureError, match=f"centred on sample {FEATURIZE_CHUNK + 87} overflows"):
            featurize_sequence(make_seq(x))


class TestMemory:
    def test_featurize_peaks_under_one_and_a_half_outputs(self):
        seq = generate_sequence(StimulusConfig(seed=3, sequence_duration_s=42.0), 0).sequence
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            _, feats = featurize_sequence(seq)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * feats.nbytes

    def test_split_holds_its_two_parts_and_little_else(self):
        seqs = small_corpus(n=48, duration_s=7.0, seed=7)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            split = split_dataset(seqs, seed=7)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        parts = sum(a.nbytes for ws in (split.train, split.validation) for a in (ws.features, ws.labels, ws.groups))
        assert peak <= parts + 8 * 2**20
