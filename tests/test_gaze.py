import numpy as np
import pytest

from gazeflow.gaze import (
    Event,
    GazeDataError,
    GazeSequence,
    LabelClass,
    Prediction,
    WindowSet,
    events_from_labels,
    split_dataset,
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


class TestPrediction:
    def test_valid(self):
        p = Prediction(np.array([0.2, 0.3, 0.5]))
        assert p.label == P

    def test_sum_tolerance(self):
        Prediction(np.array([0.2, 0.3, 0.5 + 5e-10]))  # inside 1e-9
        with pytest.raises(GazeDataError):
            Prediction(np.array([0.2, 0.3, 0.51]))

    def test_rejects_negative(self):
        with pytest.raises(GazeDataError):
            Prediction(np.array([-0.1, 0.6, 0.5]))

    def test_argmax_tie_breaks_low(self):
        p = Prediction(np.array([0.4, 0.4, 0.2]))
        assert p.label == F


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


def _window_set(n, seed=0):
    rng = np.random.default_rng(seed)
    return WindowSet(
        features=np.abs(rng.normal(size=(n, 30, 2))),
        labels=rng.integers(0, 3, n).astype(np.int8),
        groups=rng.integers(0, 8, n),
    )


class TestSplitDataset:
    def test_exact_sizes_small(self):
        split = split_dataset(_window_set(8), seed=1)
        assert (len(split.train), len(split.validation), len(split.test)) == (6, 1, 1)

    def test_sizes_and_partition_1000(self):
        ws = _window_set(1000)
        split = split_dataset(ws, seed=3)
        assert (len(split.train), len(split.validation), len(split.test)) == (750, 125, 125)
        # disjoint union oracle: membership via feature fingerprints
        key = ws.features[:, 0, 0]
        seen = np.concatenate(
            [split.train.features[:, 0, 0], split.validation.features[:, 0, 0], split.test.features[:, 0, 0]]
        )
        assert np.array_equal(np.sort(seen), np.sort(key))

    def test_deterministic(self):
        ws = _window_set(100)
        a = split_dataset(ws, seed=42)
        b = split_dataset(ws, seed=42)
        assert np.array_equal(a.train.features, b.train.features)
        assert np.array_equal(a.test.labels, b.test.labels)

    def test_by_sequence_keeps_groups_whole(self):
        ws = _window_set(400, seed=5)
        split = split_dataset(ws, seed=9, by_sequence=True)
        parts = [set(np.unique(p.groups)) for p in (split.train, split.validation, split.test)]
        assert parts[0] | parts[1] | parts[2] == set(np.unique(ws.groups))
        assert not (parts[0] & parts[1]) and not (parts[0] & parts[2]) and not (parts[1] & parts[2])
        assert len(split.train) + len(split.validation) + len(split.test) == 400

    def test_empty_rejected(self):
        with pytest.raises(GazeDataError):
            split_dataset(_window_set(0))

    def test_bad_ratios(self):
        with pytest.raises(GazeDataError):
            split_dataset(_window_set(10), ratios=(0.5, 0.2, 0.2))
