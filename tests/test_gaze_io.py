import csv

import numpy as np
import pytest

from gazeflow.detectors import DetectorOutput
from gazeflow.gaze import GazeSequence
from gazeflow.gaze_io import (
    DataFormatError,
    read_gaze_csv,
    read_predictions_csv,
    write_gaze_csv,
    write_history_csv,
    write_predictions_csv,
    write_trace_csv,
)
from gazeflow.net import EpochRecord


def random_sequence(n=40, labeled=True, seed=0):
    rng = np.random.default_rng(seed)
    valid = rng.uniform(size=n) > 0.05
    x = rng.normal(size=n) * 3
    y = rng.normal(size=n) * 3
    x[~valid] = np.nan
    y[~valid] = np.nan
    return GazeSequence(
        t_ms=np.cumsum(rng.uniform(3.0, 3.6, n)),
        x_deg=x,
        y_deg=y,
        valid=valid,
        labels=rng.integers(0, 3, n).astype(np.int8) if labeled else None,
        source_id="test",
    )


class TestGazeCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        seq = random_sequence()
        path = tmp_path / "seq.csv"
        write_gaze_csv(seq, path)
        back = read_gaze_csv(path)
        assert np.array_equal(back.t_ms, seq.t_ms)
        assert np.array_equal(back.x_deg, seq.x_deg, equal_nan=True)
        assert np.array_equal(back.y_deg, seq.y_deg, equal_nan=True)
        assert np.array_equal(back.valid, seq.valid)
        assert np.array_equal(back.labels, seq.labels)

    def test_unlabeled_round_trip(self, tmp_path):
        seq = random_sequence(labeled=False)
        path = tmp_path / "seq.csv"
        write_gaze_csv(seq, path)
        assert read_gaze_csv(path).labels is None

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,x,y,v,l\n0,0,0,1,\n")
        with pytest.raises(DataFormatError):
            read_gaze_csv(path)

    def test_bad_label_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t_ms,x_deg,y_deg,valid,label\n0.0,0.0,0.0,1,7\n")
        with pytest.raises(DataFormatError):
            read_gaze_csv(path)

    def test_bad_valid_flag_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t_ms,x_deg,y_deg,valid,label\n0.0,0.0,0.0,yes,\n")
        with pytest.raises(DataFormatError):
            read_gaze_csv(path)

    def test_non_monotone_time_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "t_ms,x_deg,y_deg,valid,label\n1.0,0.0,0.0,1,\n1.0,0.0,0.0,1,\n"
        )
        with pytest.raises(DataFormatError):
            read_gaze_csv(path)


class TestPredictionsCsv:
    def make_output(self, n=30, seed=1):
        rng = np.random.default_rng(seed)
        covered = rng.uniform(size=n) > 0.3
        idx = np.flatnonzero(covered)
        scores = rng.dirichlet(np.ones(3), size=idx.size)
        return DetectorOutput(n, idx, scores, scores.argmax(axis=1))

    def test_round_trip(self, tmp_path):
        out = self.make_output()
        path = tmp_path / "preds.csv"
        write_predictions_csv(out, path)
        back = read_predictions_csv(path)
        assert back.n_samples == out.n_samples
        assert np.array_equal(back.sample_idx, out.sample_idx)
        assert np.array_equal(back.scores, out.scores)
        assert np.array_equal(back.labels, out.labels)

    def test_row_count_covers_whole_sequence(self, tmp_path):
        out = self.make_output(n=25)
        path = tmp_path / "preds.csv"
        write_predictions_csv(out, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 26  # header + one row per sample

    def test_partial_uncovered_row_rejected(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text(
            "sample_idx,p_fix,p_sac,p_pur,label,covered\n0,0.5,,,0,0\n"
        )
        with pytest.raises(DataFormatError):
            read_predictions_csv(path)

    def test_non_consecutive_indices_rejected(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text(
            "sample_idx,p_fix,p_sac,p_pur,label,covered\n1,,,,,0\n"
        )
        with pytest.raises(DataFormatError):
            read_predictions_csv(path)


class TestTraceCsv:
    def test_columns_and_prob_sums(self, tmp_path):
        seq = random_sequence(n=35, seed=2)
        rng = np.random.default_rng(3)
        idx = np.arange(5, 30)
        scores = rng.dirichlet(np.ones(3), size=idx.size)
        preds = DetectorOutput(35, idx, scores, scores.argmax(axis=1))
        path = tmp_path / "trace.csv"
        write_trace_csv(seq, preds, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t_ms,x_deg,y_deg,p_fix,p_sac,p_pur,truth,pred"
        assert len(lines) == 36
        for line in lines[1:]:
            parts = line.split(",")
            if parts[3]:  # covered row
                total = float(parts[3]) + float(parts[4]) + float(parts[5])
                assert abs(total - 1.0) <= 1e-9
                assert parts[7] != ""
            else:
                assert parts[7] == ""


class TestNonUtf8:
    @pytest.mark.parametrize("reader", [read_gaze_csv, read_predictions_csv])
    def test_rejected_as_format_error(self, tmp_path, reader):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"t_ms,x_deg,y_deg,valid,label\r\n0.0,\xff,0.0,1,\r\n")
        with pytest.raises(DataFormatError, match="utf-8"):
            reader(path)


# The row-by-row csv.writer writers that write_csv replaced, kept as oracles.


def _fmt(x):
    return repr(float(x))


def oracle_gaze_csv(seq, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t_ms", "x_deg", "y_deg", "valid", "label"])
        labels = seq.labels
        for i in range(len(seq)):
            writer.writerow(
                [
                    _fmt(seq.t_ms[i]),
                    _fmt(seq.x_deg[i]),
                    _fmt(seq.y_deg[i]),
                    int(seq.valid[i]),
                    "" if labels is None else int(labels[i]),
                ]
            )


def oracle_predictions_csv(preds, path):
    covered = preds.covered
    by_idx = {int(i): k for k, i in enumerate(preds.sample_idx)}
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_idx", "p_fix", "p_sac", "p_pur", "label", "covered"])
        for i in range(preds.n_samples):
            if covered[i]:
                k = by_idx[i]
                s = preds.scores[k]
                writer.writerow([i, _fmt(s[0]), _fmt(s[1]), _fmt(s[2]), int(preds.labels[k]), 1])
            else:
                writer.writerow([i, "", "", "", "", 0])


def oracle_trace_csv(seq, preds, path):
    covered = preds.covered
    by_idx = {int(i): k for k, i in enumerate(preds.sample_idx)}
    labels = seq.labels
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t_ms", "x_deg", "y_deg", "p_fix", "p_sac", "p_pur", "truth", "pred"])
        for i in range(len(seq)):
            truth = "" if labels is None else int(labels[i])
            coords = [_fmt(seq.t_ms[i]), _fmt(seq.x_deg[i]), _fmt(seq.y_deg[i])]
            if covered[i]:
                k = by_idx[i]
                s = preds.scores[k]
                writer.writerow(coords + [_fmt(s[0]), _fmt(s[1]), _fmt(s[2]), truth, int(preds.labels[k])])
            else:
                writer.writerow(coords + ["", "", "", truth, ""])


def oracle_history_csv(records, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["phase", "epoch", "train_loss", "val_accuracy"])
        for rec in records:
            writer.writerow([rec.phase, rec.epoch, _fmt(rec.train_loss), _fmt(rec.val_accuracy)])


def outputs(n, covered, seed=0):
    """A DetectorOutput over n samples: none, some or all of them covered."""
    rng = np.random.default_rng(seed)
    idx = {"none": np.empty(0, np.int64), "some": np.flatnonzero(rng.uniform(size=n) > 0.4),
           "all": np.arange(n)}[covered]
    scores = rng.dirichlet(np.ones(3), size=idx.size)
    return DetectorOutput(n, idx, scores, scores.argmax(axis=1))


def assert_same_bytes(tmp_path, write, oracle, *args):
    write(*args, tmp_path / "new.csv")
    oracle(*args, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


class TestWritersMatchCsvWriter:
    @pytest.mark.parametrize("labeled", [True, False])
    def test_gaze(self, tmp_path, labeled):
        seq = random_sequence(n=300, labeled=labeled, seed=4)
        assert not seq.valid.all()  # invalid rows carry nan coordinates
        assert_same_bytes(tmp_path, write_gaze_csv, oracle_gaze_csv, seq)
        assert (tmp_path / "new.csv").read_bytes().count(b"\r\n") == 301

    @pytest.mark.parametrize("covered", ["none", "some", "all"])
    def test_predictions(self, tmp_path, covered):
        assert_same_bytes(tmp_path, write_predictions_csv, oracle_predictions_csv, outputs(200, covered))

    @pytest.mark.parametrize("covered", ["none", "some", "all"])
    @pytest.mark.parametrize("labeled", [True, False])
    def test_trace(self, tmp_path, covered, labeled):
        seq = random_sequence(n=200, labeled=labeled, seed=5)
        assert_same_bytes(tmp_path, write_trace_csv, oracle_trace_csv, seq, outputs(200, covered, seed=6))

    @pytest.mark.parametrize("n_records", [0, 1, 7])
    def test_history(self, tmp_path, n_records):
        rng = np.random.default_rng(n_records)
        records = [
            EpochRecord(1 + (e >= 4), e % 4, float(rng.exponential()), float(rng.uniform()))
            for e in range(n_records)
        ]
        assert_same_bytes(tmp_path, write_history_csv, oracle_history_csv, records)
