"""CSV and JSON file formats for gaze data, predictions and reports.

Every CSV is UTF-8 with a header line; rows end in CRLF and no field is
quoted. Floats are written with repr() so a write/read round trip is
lossless, integers with str(), and an empty field stands for no value.

Gaze CSV: header `t_ms,x_deg,y_deg,valid,label`, one record per line,
decimal point, valid as 0/1, label empty or a class code 0/1/2.

Prediction CSV: header `sample_idx,p_fix,p_sac,p_pur,label,covered`, one
row per sample of the source sequence; uncovered rows leave the score and
label fields empty and set covered to 0.
"""
from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .detectors import DetectorOutput
from .gaze import GazeSequence, N_CLASSES

GAZE_HEADER = ["t_ms", "x_deg", "y_deg", "valid", "label"]
PRED_HEADER = ["sample_idx", "p_fix", "p_sac", "p_pur", "label", "covered"]
TRACE_HEADER = ["t_ms", "x_deg", "y_deg", "p_fix", "p_sac", "p_pur", "truth", "pred"]
HISTORY_HEADER = ["phase", "epoch", "train_loss", "val_accuracy"]


class DataFormatError(ValueError):
    """A file does not conform to its declared schema."""


def float_fields(values: Iterable[float]) -> Iterator[str]:
    """CSV fields of floats: repr() of each value, lossless on reading back."""
    return map(repr, np.asarray(values, dtype=np.float64).tolist())


def int_fields(values: Iterable[int]) -> Iterator[str]:
    """CSV fields of integers (or booleans, as 0/1)."""
    return map(str, np.asarray(values, dtype=np.int64).tolist())


def write_csv(path: str | Path, header: Sequence[str], columns: Sequence[Iterable[str]]) -> None:
    """Write equal-length columns of already-formatted fields as CSV rows.

    The columns are read one row at a time, so they may be iterators that
    format each field on demand. Rows end in CRLF, as csv.writer ends them.
    Fields are written as given, so none may hold a comma, a quote or a
    line break.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(",".join(row) + "\r\n" for row in zip(*columns, strict=True))


def _covered_columns(preds: DetectorOutput) -> list[Iterator[str]]:
    """p_fix, p_sac, p_pur and label fields of every sample; empty where uncovered."""
    covered = preds.covered.tolist()

    def column(fields: Iterator[str]) -> Iterator[str]:
        return (next(fields) if c else "" for c in covered)  # sample_idx is increasing

    return [column(f) for f in (*map(float_fields, preds.scores.T), int_fields(preds.labels))]


def _label_column(seq: GazeSequence) -> Iterable[str]:
    return [""] * len(seq) if seq.labels is None else int_fields(seq.labels)


def write_gaze_csv(seq: GazeSequence, path: str | Path) -> None:
    coords = map(float_fields, (seq.t_ms, seq.x_deg, seq.y_deg))
    write_csv(path, GAZE_HEADER, [*coords, int_fields(seq.valid), _label_column(seq)])


def _csv_rows(fh, path: Path) -> Iterator[list[str]]:
    """csv.reader over fh; bytes that are not UTF-8 or CSV raise DataFormatError."""
    try:
        yield from csv.reader(fh)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def read_gaze_csv(path: str | Path, source_id: str | None = None) -> GazeSequence:
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = _csv_rows(fh, path)
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


def write_predictions_csv(preds: DetectorOutput, path: str | Path) -> None:
    columns = [int_fields(range(preds.n_samples)), *_covered_columns(preds), int_fields(preds.covered)]
    write_csv(path, PRED_HEADER, columns)


def read_predictions_csv(path: str | Path) -> DetectorOutput:
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = _csv_rows(fh, path)
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
        return DetectorOutput(
            n_samples=n,
            sample_idx=np.array(idx, dtype=np.int64),
            scores=np.array(scores, dtype=np.float64).reshape(len(idx), N_CLASSES),
            labels=np.array(labels, dtype=np.int8),
        )
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def write_trace_csv(seq: GazeSequence, preds: DetectorOutput, path: str | Path) -> None:
    """Long-format per-sample activation trace for external plotting."""
    coords = map(float_fields, (seq.t_ms, seq.x_deg, seq.y_deg))
    *scores, pred = _covered_columns(preds)
    write_csv(path, TRACE_HEADER, [*coords, *scores, _label_column(seq), pred])


def write_manifest(stats: dict, seed: int, path: str | Path) -> None:
    payload = {"seed": seed, **stats}
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def read_manifest(path: str | Path) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: invalid JSON manifest: {exc}") from None


def write_history_csv(records, path: str | Path) -> None:
    phase, epoch, loss, accuracy = ([getattr(r, k) for r in records] for k in HISTORY_HEADER)
    columns = [int_fields(phase), int_fields(epoch), float_fields(loss), float_fields(accuracy)]
    write_csv(path, HISTORY_HEADER, columns)
