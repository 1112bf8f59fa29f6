import numpy as np
import pytest

from gazeflow.features import FeatureError, featurize_sequence, split_dataset
from gazeflow.gaze import (
    Event,
    GazeDataError,
    GazeSequence,
    LabelClass,
    events_from_labels,
    split_units,
)

F, S, P = LabelClass.FIXATION, LabelClass.SACCADE, LabelClass.PURSUIT


def rle_oracle(labels):
    """Independent linear re-scan run-length encoder."""
    events = []
    start = 0
    for i in range(1, len(labels) + 1):
        if i == len(labels) or labels[i] != labels[start]:
            events.append((int(labels[start]), start, i - 1))
            start = i
    return events


class TestEventsFromLabels:
    def test_empty(self):
        assert events_from_labels([]) == []

    def test_hand_example(self):
        events = events_from_labels([F, F, S, S, F])
        assert events == [Event(F, 0, 1), Event(S, 2, 3), Event(F, 4, 4)]

    def test_random_round_trip_against_oracle(self):
        rng = np.random.default_rng(7)
        labels = rng.integers(0, 3, size=1000)
        events = events_from_labels(labels)
        assert [(int(e.label), e.start_idx, e.end_idx) for e in events] == rle_oracle(labels)
        restored = [int(e.label) for e in events for _ in range(e.n_samples)]
        assert restored == labels.tolist()
        # adjacent events always differ in class
        for a, b in zip(events, events[1:]):
            assert a.label != b.label
            assert b.start_idx == a.end_idx + 1

    def test_round_trip_property(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            n = int(rng.integers(1, 80))
            labels = [LabelClass(int(c)) for c in rng.integers(0, 3, n)]
            events = events_from_labels(labels)
            assert [e.label for e in events for _ in range(e.n_samples)] == labels


class TestGazeSequence:
    def test_rejects_non_monotone_time(self):
        with pytest.raises(GazeDataError):
            GazeSequence(np.array([0.0, 0.0]), np.zeros(2), np.zeros(2), np.ones(2, bool))

    def test_rejects_nan_on_valid_sample(self):
        with pytest.raises(GazeDataError):
            GazeSequence(
                np.array([0.0, 1.0]),
                np.array([0.0, np.nan]),
                np.zeros(2),
                np.ones(2, bool),
            )

    def test_nan_allowed_when_invalid(self):
        seq = GazeSequence(
            np.array([0.0, 1.0]),
            np.array([0.0, np.nan]),
            np.zeros(2),
            np.array([True, False]),
        )
        assert len(seq) == 2
        assert (seq.t_ms[0], seq.x_deg[0], seq.y_deg[0], seq.valid[0]) == (0.0, 0.0, 0.0, True)

    def test_label_length_mismatch(self):
        with pytest.raises(GazeDataError):
            GazeSequence(
                np.array([0.0, 1.0]),
                np.zeros(2),
                np.zeros(2),
                np.ones(2, bool),
                labels=np.array([0], dtype=np.int8),
            )

    @pytest.mark.parametrize(
        "labels", [[256, 257, 258], [-256, 0, 1], [0, 1, 300], [0.0, np.nan, 1.0]]
    )
    def test_labels_outside_the_class_codes_rejected(self, labels):
        # an int8 cast before the check would wrap 256 to the class code 0
        with pytest.raises(GazeDataError):
            GazeSequence(np.arange(3.0), np.zeros(3), np.zeros(3), np.ones(3, bool), labels=np.array(labels))

    def test_class_codes_kept_as_int8(self):
        seq = GazeSequence(np.arange(3.0), np.zeros(3), np.zeros(3), np.ones(3, bool), labels=[2, 1, 0])
        assert seq.labels.dtype == np.int8 and seq.labels.tolist() == [2, 1, 0]


def _sequences(window_counts, seed=0):
    """Labeled random-walk recordings that keep the given numbers of windows."""
    rng = np.random.default_rng(seed)
    seqs = []
    for m in window_counts:
        n = m + 29  # m starts of a default 30-sample window
        seqs.append(
            GazeSequence(
                np.arange(n) * (1000.0 / 300.0),
                np.cumsum(rng.normal(size=n)),
                np.cumsum(rng.normal(size=n)),
                np.ones(n, bool),
                rng.integers(0, 3, n),
            )
        )
    return seqs


class TestSplitDataset:
    def test_exact_sizes_small(self):
        split = split_dataset(_sequences([8] * 8), seed=1)
        assert (len(split.train), len(split.validation)) == (48, 8)  # 6 and 1 recordings; 1 held out

    def test_sizes_and_partition_1000(self):
        seqs = _sequences([125] * 8, seed=3)
        split = split_dataset(seqs, seed=3)
        assert (len(split.train), len(split.validation)) == (750, 125)
        # disjoint union oracle: membership via feature fingerprints (first harmonic)
        key = np.concatenate([featurize_sequence(s)[1][:, 1, 0] for s in seqs])
        seen = np.concatenate([split.train.features[:, 1, 0], split.validation.features[:, 1, 0]])
        assert np.unique(key).size == 1000
        assert np.unique(seen).size == 875 and np.isin(seen, key).all()
        assert np.setdiff1d(key, seen).size == 125  # the held-out test recording

    def test_deterministic(self):
        seqs = _sequences([40, 30, 30, 20, 20, 10, 10, 10])
        a = split_dataset(seqs, seed=42)
        b = split_dataset(seqs, seed=42)
        assert np.array_equal(a.train.features, b.train.features)
        assert np.array_equal(a.validation.labels, b.validation.labels)
        assert np.array_equal(a.validation.groups, b.validation.groups)

    def test_keeps_recordings_whole(self):
        counts = [10, 20, 30, 40, 50, 60, 70, 120]
        split = split_dataset(_sequences(counts, seed=5), seed=9)
        parts = [set(np.unique(p.groups).tolist()) for p in (split.train, split.validation)]
        held_out = set(range(len(counts))) - parts[0] - parts[1]
        assert held_out and not (parts[0] & parts[1])
        for part, ws in zip(parts, (split.train, split.validation)):
            assert len(ws) == sum(counts[g] for g in part)  # whole recordings only
        assert len(split.train) + len(split.validation) + sum(counts[g] for g in held_out) == 400

    def test_empty_rejected(self):
        with pytest.raises(FeatureError, match="at least 8 recordings that keep a window, got 0"):
            split_dataset([])
        with pytest.raises(FeatureError, match="got 0"):
            split_dataset(_sequences([0, 0]))  # 29 samples: shorter than one window
        with pytest.raises(FeatureError, match="at least 8 recordings that keep a window, got 7"):
            split_dataset(_sequences([0, 5, 5, 5, 5, 5, 5, 5]))  # the first keeps no window

    def test_bad_ratios(self):
        with pytest.raises(GazeDataError):
            split_units(np.arange(10), (0.5, 0.2, 0.2), 0)
