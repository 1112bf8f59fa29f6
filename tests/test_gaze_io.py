import csv

import numpy as np
import pytest

from gazeflow.detectors import DetectorOutput
from gazeflow.gaze import GazeSequence
from gazeflow.gaze_io import (
    GAZE_HEADER,
    PRED_HEADER,
    DataFormatError,
    read_gaze_csv,
    read_predictions_csv,
    write_csv,
    write_gaze_csv,
    write_history_csv,
    write_json,
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
        return DetectorOutput(n, idx, scores)

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

    def test_label_must_equal_argmax(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text(PRED_HEAD + "0,0.2,0.5,0.3,0,1\r\n1,0.6,0.2,0.2,0,1\r\n", newline="")
        with pytest.raises(DataFormatError, match=r"preds\.csv: labels must equal argmax\(scores\) with lowest-code ties$"):
            read_predictions_csv(path)

    @pytest.mark.parametrize("label", [256, 7, -5, -256, 10**29])
    def test_out_of_range_label_not_wrapped(self, tmp_path, label):
        # each label's argmax is class 0, which int8 takes 256 and -256 to
        path = tmp_path / "preds.csv"
        path.write_text(PRED_HEAD + f"0,0.6,0.2,0.2,0,1\r\n1,0.7,0.2,0.1,{label},1\r\n", newline="")
        with pytest.raises(DataFormatError, match=r"labels must equal argmax\(scores\) with lowest-code ties$"):
            read_predictions_csv(path)
        path.write_text(PRED_HEAD + "0,0.6,0.2,0.2,0,1\r\n1,0.7,0.2,0.1,0,1\r\n", newline="")
        assert read_predictions_csv(path).labels.tolist() == [0, 0]

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
        preds = DetectorOutput(35, idx, scores)
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
    return DetectorOutput(n, idx, scores)


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


# The row-by-row csv.reader readers that the column parse replaced, kept as
# oracles: the new readers must return the same arrays and raise the same
# errors (message, file and row) on every input but a quoted field.


def _oracle_csv_rows(fh, path):
    try:
        yield from csv.reader(fh)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def oracle_read_gaze_csv(path, source_id=None):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = _oracle_csv_rows(fh, path)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file") from None
        if header != GAZE_HEADER:
            raise DataFormatError(f"{path}: expected header {','.join(GAZE_HEADER)}")
        t, x, y, v, lab = [], [], [], [], []
        have_labels = None
        for row_no, row in enumerate(reader, start=2):
            if len(row) != 5:
                raise DataFormatError(f"{path}:{row_no}: expected 5 fields, got {len(row)}")
            try:
                t.append(float(row[0]))
                x.append(float(row[1]))
                y.append(float(row[2]))
            except ValueError:
                raise DataFormatError(f"{path}:{row_no}: non-numeric coordinate") from None
            if row[3] not in ("0", "1"):
                raise DataFormatError(f"{path}:{row_no}: valid flag must be 0 or 1")
            v.append(row[3] == "1")
            row_has_label = row[4] != ""
            if have_labels is None:
                have_labels = row_has_label
            elif have_labels != row_has_label:
                raise DataFormatError(f"{path}:{row_no}: mixed labeled/unlabeled rows")
            if row_has_label:
                if row[4] not in ("0", "1", "2"):
                    raise DataFormatError(f"{path}:{row_no}: label must be 0, 1 or 2")
                lab.append(int(row[4]))
    labels = np.array(lab, dtype=np.int8) if have_labels else None
    try:
        return GazeSequence(
            t_ms=np.array(t),
            x_deg=np.array(x),
            y_deg=np.array(y),
            valid=np.array(v, dtype=bool),
            labels=labels,
            source_id=source_id if source_id is not None else path.stem,
        )
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def oracle_read_predictions_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = _oracle_csv_rows(fh, path)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file") from None
        if header != PRED_HEADER:
            raise DataFormatError(f"{path}: expected header {','.join(PRED_HEADER)}")
        idx, scores, labels = [], [], []
        n = 0
        for row_no, row in enumerate(reader, start=2):
            if len(row) != 6:
                raise DataFormatError(f"{path}:{row_no}: expected 6 fields")
            try:
                sample_idx = int(row[0])
            except ValueError:
                raise DataFormatError(f"{path}:{row_no}: bad sample index") from None
            if sample_idx != n:
                raise DataFormatError(f"{path}:{row_no}: sample indices must be consecutive")
            n += 1
            if row[5] == "1":
                try:
                    triple = [float(row[1]), float(row[2]), float(row[3])]
                    label = int(row[4])
                except ValueError:
                    raise DataFormatError(f"{path}:{row_no}: bad covered row") from None
                idx.append(sample_idx)
                scores.append(triple)
                labels.append(label)
            elif row[5] == "0":
                if any(row[k] != "" for k in (1, 2, 3, 4)):
                    raise DataFormatError(f"{path}:{row_no}: uncovered rows must be empty")
            else:
                raise DataFormatError(f"{path}:{row_no}: covered flag must be 0 or 1")
    try:
        preds = DetectorOutput(
            n_samples=n,
            sample_idx=np.array(idx, dtype=np.int64),
            scores=np.array(scores, dtype=np.float64).reshape(len(idx), 3),
        )
        if not np.array_equal(np.array(labels, dtype=np.int8), preds.labels):
            raise ValueError("labels must equal argmax(scores) with lowest-code ties")
        return preds
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def _arrays(obj, names):
    """Each named array as (dtype, shape, C-contiguous, raw bytes); None stays None."""
    out = []
    for name in names:
        a = getattr(obj, name)
        out.append(None if a is None else (a.dtype, a.shape, a.flags.c_contiguous, a.tobytes()))
    return out


GAZE_ARRAYS = ("t_ms", "x_deg", "y_deg", "valid", "labels")
PRED_ARRAYS = ("sample_idx", "scores", "labels")


def outcome(reader, path):
    """What reading path gives: the arrays bit for bit, or the error and its message."""
    try:
        got = reader(path)
    except DataFormatError as exc:
        return "error", str(exc)
    if isinstance(got, GazeSequence):
        return "gaze", got.source_id, _arrays(got, GAZE_ARRAYS)
    return "preds", got.n_samples, _arrays(got, PRED_ARRAYS)


READERS = {"gaze": (read_gaze_csv, oracle_read_gaze_csv), "preds": (read_predictions_csv, oracle_read_predictions_csv)}


def read_as_oracle(path, kind):
    """The outcome of the new reader, checked equal to the oracle's."""
    new, old = READERS[kind]
    result = outcome(new, path)
    assert result == outcome(old, path)
    return result


GAZE_HEAD = "t_ms,x_deg,y_deg,valid,label\r\n"
PRED_HEAD = "sample_idx,p_fix,p_sac,p_pur,label,covered\r\n"


class TestReadersMatchCsvReader:
    @pytest.mark.parametrize("labeled", [True, False])
    @pytest.mark.parametrize("line_end", ["\r\n", "\n", "\r"])
    def test_gaze(self, tmp_path, labeled, line_end):
        seq = random_sequence(n=300, labeled=labeled, seed=8)
        assert not seq.valid.all()  # invalid rows carry nan coordinates
        path = tmp_path / "seq.csv"
        write_gaze_csv(seq, path)
        path.write_bytes(path.read_bytes().replace(b"\r\n", line_end.encode()))
        result = read_as_oracle(path, "gaze")
        assert result[0] == "gaze" and (result[2][-1] is None) is not labeled

    @pytest.mark.parametrize("covered", ["none", "some", "all"])
    def test_predictions(self, tmp_path, covered):
        path = tmp_path / "preds.csv"
        write_predictions_csv(outputs(200, covered, seed=9), path)
        assert read_as_oracle(path, "preds")[0] == "preds"

    @pytest.mark.parametrize("kind, text", [("gaze", GAZE_HEAD), ("preds", PRED_HEAD), ("gaze", GAZE_HEAD[:-2])])
    def test_header_only(self, tmp_path, kind, text):
        path = tmp_path / "empty.csv"
        path.write_text(text, newline="")
        assert read_as_oracle(path, kind)[0] == kind

    @pytest.mark.parametrize(
        "kind, text",
        [
            # fields that float() and int() accept though write_csv never writes them
            ("gaze", GAZE_HEAD + " 1.5 ,1_0,-inf,0,\r\n2e0,Infinity,NaN,0,\r\n3.,٣,+0.5,1,"),
            ("preds", PRED_HEAD + "0,,,,,0\r\n 1,0.25,0.5,0.25,01,1\r\n+2,1_0e-2,.7,2e-1,1,1\r\n"),
        ],
    )
    def test_lenient_numbers(self, tmp_path, kind, text):
        path = tmp_path / "odd.csv"
        path.write_text(text, newline="", encoding="utf-8")
        assert read_as_oracle(path, kind)[0] == kind


ROW = "1.0,0.5,-0.5,1,0\r\n"
ROW2 = "2.0,0.5,-0.5,1,0\r\n"
ROW3 = "3.0,0.5,-0.5,1,0\r\n"

ERROR_CASES = {
    "gaze": {
        "empty file": b"",
        "blank file": b"\r\n",
        "wrong header": b"time,x,y,v,l\r\n0,0,0,1,\r\n",
        "header with an extra field": (GAZE_HEAD[:-2] + ",extra\r\n" + ROW).encode(),
        "too few fields": (GAZE_HEAD + ROW + "2.0,0.0,0.0,1\r\n").encode(),
        "too many fields": (GAZE_HEAD + "1.0,0.0,0.0,1,0,9\r\n").encode(),
        "blank line": (GAZE_HEAD + ROW + "\r\n" + ROW3).encode(),
        "non-numeric coordinate": (GAZE_HEAD + ROW + "2.0,abc,0.0,1,0\r\n").encode(),
        "empty coordinate": (GAZE_HEAD + ",0.0,0.0,0,\r\n").encode(),
        "bad valid flag": (GAZE_HEAD + "0.0,0.0,0.0,yes,\r\n").encode(),
        "valid flag with a space": (GAZE_HEAD + ROW + "2.0,0.0,0.0, 1,0\r\n").encode(),
        "bad label": (GAZE_HEAD + ROW + "2.0,0.0,0.0,1,7\r\n").encode(),
        "bad label in the first row": (GAZE_HEAD + "1.0,0.0,0.0,1,x\r\n" + ROW2).encode(),
        "labeled, then unlabeled": (GAZE_HEAD + ROW + "2.0,0.0,0.0,1,\r\n").encode(),
        "unlabeled, then labeled": (GAZE_HEAD + "1.0,0.0,0.0,1,\r\n" + ROW2).encode(),
        "unlabeled, then a bad label": (GAZE_HEAD + "1.0,0.0,0.0,1,\r\n2.0,0.0,0.0,1,9\r\n").encode(),
        "non-monotone time": (GAZE_HEAD + ROW + ROW).encode(),
        "nan on a valid sample": (GAZE_HEAD + "1.0,nan,0.0,1,0\r\n").encode(),
        "non-UTF-8 bytes": (GAZE_HEAD + "1.0,\xff,0.0,1,0\r\n").encode("latin-1"),
        "non-UTF-8 bytes after a bad row": (GAZE_HEAD + "1.0,x,0.0,1,0\r\n2.0,\xff,0.0,1,0\r\n").encode("latin-1"),
        # two errors: the lower row wins, whatever its column
        "bad label, then bad coordinate": (GAZE_HEAD + ROW + "2.0,0.0,0.0,1,5\r\n3.0,y,0.0,1,0\r\n").encode(),
        "bad coordinate, then bad valid flag": (GAZE_HEAD + "1.0,0.0,z,1,0\r\n2.0,0.0,0.0,2,0\r\n").encode(),
        "bad valid flag, then too few fields": (GAZE_HEAD + ROW + "2.0,0.0,0.0,2,0\r\n3.0,0.0\r\n").encode(),
        "too few fields, then bad coordinate": (GAZE_HEAD + "1.0,0.0\r\n2.0,q,0.0,1,0\r\n").encode(),
        "mixed, then bad label": (GAZE_HEAD + ROW + "2.0,0.0,0.0,1,\r\n3.0,0.0,0.0,1,4\r\n").encode(),
        # two errors in one row: the first check of the per-row order wins
        "bad coordinate and bad flag in one row": (GAZE_HEAD + ROW + "2.0,0.0,w,x,7\r\n").encode(),
        "bad flag and bad label in one row": (GAZE_HEAD + ROW + "2.0,0.0,0.0,x,7\r\n").encode(),
    },
    "preds": {
        "empty file": b"",
        "wrong header": (GAZE_HEAD + ROW).encode(),
        "too few fields": (PRED_HEAD + "0,,,,,0\r\n1,,,,0\r\n").encode(),
        "blank line": (PRED_HEAD + "0,,,,,0\r\n\r\n2,,,,,0\r\n").encode(),
        "bad sample index": (PRED_HEAD + "x,,,,,0\r\n").encode(),
        "empty sample index": (PRED_HEAD + "0,,,,,0\r\n,,,,,0\r\n").encode(),
        "non-consecutive indices": (PRED_HEAD + "1,,,,,0\r\n").encode(),
        "repeated index": (PRED_HEAD + "0,,,,,0\r\n0,,,,,0\r\n").encode(),
        "bad covered flag": (PRED_HEAD + "0,,,,,0\r\n1,,,,,2\r\n").encode(),
        "non-empty uncovered row": (PRED_HEAD + "0,0.5,,,0,0\r\n").encode(),
        "uncovered row with a label": (PRED_HEAD + "0,,,,1,0\r\n").encode(),
        "bad covered row score": (PRED_HEAD + "0,0.5,0.3,abc,2,1\r\n").encode(),
        "empty covered row": (PRED_HEAD + "0,0.2,0.3,0.5,2,1\r\n1,,,,,1\r\n").encode(),
        "bad covered row label": (PRED_HEAD + "0,0.2,0.3,0.5,x,1\r\n").encode(),
        "label that is no argmax": (PRED_HEAD + "0,0.2,0.3,0.5,0,1\r\n").encode(),
        "label that is no class code": (PRED_HEAD + "0,0.2,0.3,0.5,3,1\r\n").encode(),
        "negative label": (PRED_HEAD + "0,0.2,0.3,0.5,-1,1\r\n").encode(),
        "non-finite score": (PRED_HEAD + "0,nan,0.3,0.5,2,1\r\n").encode(),
        "non-UTF-8 bytes": b"t_ms,x_deg,y_deg,valid,label\r\n0.0,\xff,0.0,1,\r\n",
        # two errors: the lower row wins, whatever its column
        "bad covered row, then bad index": (PRED_HEAD + "0,0.5,0.3,abc,2,1\r\nx,,,,,0\r\n").encode(),
        "bad flag, then non-consecutive": (PRED_HEAD + "0,,,,,0\r\n1,,,,,7\r\n5,,,,,0\r\n").encode(),
        "non-empty uncovered, then bad covered": (PRED_HEAD + "0,,,,1,0\r\n1,a,b,c,1,1\r\n").encode(),
        "bad label, then bad scores": (PRED_HEAD + "0,0.2,0.3,0.5,x,1\r\n1,a,0.3,0.5,2,1\r\n").encode(),
        "bad scores, then bad label": (PRED_HEAD + "0,0.2,y,0.5,2,1\r\n1,0.2,0.3,0.5,x,1\r\n").encode(),
        "non-consecutive, then too few fields": (PRED_HEAD + "0,,,,,0\r\n2,,,,,0\r\n2,,,\r\n").encode(),
        # two errors in one row: the first check of the per-row order wins
        "bad index and bad flag in one row": (PRED_HEAD + "0,,,,,0\r\nz,,,,,5\r\n").encode(),
        "non-consecutive and non-empty uncovered in one row": (PRED_HEAD + "3,1,,,,0\r\n").encode(),
    },
}


class TestReaderErrorsMatchCsvReader:
    @pytest.mark.parametrize(
        "kind, case", [(kind, case) for kind, cases in ERROR_CASES.items() for case in cases]
    )
    def test_same_error(self, tmp_path, kind, case):
        path = tmp_path / "bad.csv"
        path.write_bytes(ERROR_CASES[kind][case])
        assert read_as_oracle(path, kind)[0] == "error"

    @pytest.mark.parametrize("kind", ["gaze", "preds"])
    def test_random_edits(self, tmp_path, kind):
        """Single-byte replacements, insertions and deletions of a small valid
        file read the same as with the oracle, error or not."""
        path = tmp_path / "edit.csv"
        if kind == "gaze":
            write_gaze_csv(random_sequence(n=6, seed=10), path)
        else:
            write_predictions_csv(outputs(6, "some", seed=11), path)
        base = path.read_bytes()
        alphabet = b"0123456789.,-+_ex\r\n\xff"  # no quote: a quoted field is the one difference
        rng = np.random.default_rng(12)
        errors = 0
        for _ in range(400):
            data = bytearray(base)
            at = int(rng.integers(0, len(data)))
            edit = int(rng.integers(0, 3))
            byte = alphabet[int(rng.integers(0, len(alphabet)))]
            if edit == 0:
                data[at] = byte
            elif edit == 1:
                data.insert(at, byte)
            else:
                del data[at]
            path.write_bytes(bytes(data))
            errors += read_as_oracle(path, kind)[0] == "error"
        assert 100 < errors < 400  # both outcomes occur

    def test_quoted_field_is_a_format_error(self, tmp_path):
        path = tmp_path / "quoted.csv"
        path.write_text(GAZE_HEAD + ROW + '2.0,"0.0",0.0,1,0\r\n', newline="")
        with pytest.raises(DataFormatError, match=r"quoted\.csv:3: non-numeric coordinate$"):
            read_gaze_csv(path)
        assert oracle_read_gaze_csv(path).x_deg[1] == 0.0  # csv.reader took the quotes off


class TestAtomicWrites:
    def test_a_failed_write_keeps_the_earlier_file(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, ["a", "b"], [["1", "2"], ["3", "4"]])
        before = path.read_bytes()

        def failing_column():
            yield from map(str, range(5000))  # past the write buffer: rows reach the disk
            raise RuntimeError("column failed")

        with pytest.raises(RuntimeError, match="column failed"):
            write_csv(path, ["a", "b"], [failing_column(), map(str, range(10_000))])
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_an_unwritable_target_is_named_in_the_error(self, tmp_path):
        path = tmp_path / "missing" / "out.csv"
        with pytest.raises(FileNotFoundError) as info:
            write_csv(path, ["a"], [["1"]])
        assert info.value.filename == str(path)

    def test_writes_replace_the_file_and_leave_no_temporary(self, tmp_path):
        plain = tmp_path / "plain"
        plain.write_text("")
        path = tmp_path / "report.json"
        write_json(path, {"a": 1})
        write_json(path, {"b": [1, 2]})
        assert path.read_text(encoding="utf-8") == '{\n  "b": [\n    1,\n    2\n  ]\n}\n'
        assert sorted(p.name for p in tmp_path.iterdir()) == ["plain", "report.json"]
        assert path.stat().st_mode == plain.stat().st_mode  # the umask's mode, as open() gives
