"""CSV and JSON file formats for gaze data, predictions and reports.

Every CSV is UTF-8 with a header line; rows end in CRLF and no field is
quoted. Floats are written with repr() so a write/read round trip is
lossless, integers with str(), and an empty field stands for no value.
The readers take exactly that, with rows ending in CRLF, LF or CR, check
whole columns at once and report the error on the lowest row.

Gaze CSV: header `t_ms,x_deg,y_deg,valid,label`, one record per line,
decimal point, valid as 0/1, label empty or a class code 0/1/2.

Prediction CSV: header `sample_idx,p_fix,p_sac,p_pur,label,covered`, one
row per sample of the source sequence; uncovered rows leave the score and
label fields empty and set covered to 0.
"""
from __future__ import annotations

import json
from itertools import compress, repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

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


_FLAGS = {"0": False, "1": True}


def _read_csv(path: Path, header: Sequence[str]) -> tuple[list[list[str]], tuple[int | None, int]]:
    """One field list per column of a CSV file as write_csv writes it (rows may
    also end in LF or CR), up to the first row without len(header) fields, and
    that row's (index, field count), index 0 after the header; or (None, len(header))."""
    try:
        text = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: {exc}") from None
    if not text:
        raise DataFormatError(f"{path}: empty file")
    rows = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if not rows[-1]:  # the line end of the last row
        rows.pop()
    if rows.pop(0).split(",") != list(header):
        raise DataFormatError(f"{path}: expected header {','.join(header)}")
    k = len(header)
    commas = list(map(str.count, rows, repeat(",")))
    short = (None, k)
    if commas.count(k - 1) != len(rows):  # a blank line has no field
        short = next((i, c + 1 if rows[i] else 0) for i, c in enumerate(commas) if c != k - 1)
        rows = rows[: short[0]]
    fields = ",".join(rows).split(",") if rows else []
    return [fields[j::k] for j in range(k)], short


def _parse(fields: Sequence[str], parse: Callable[[str], object]) -> tuple[list, int | None]:
    """The fields read by parse, up to the first one it rejects (ValueError or
    KeyError), and that one's index; None if parse reads them all."""
    try:
        return list(map(parse, fields)), None
    except (ValueError, KeyError):
        values = []
        for field in fields:
            try:
                values.append(parse(field))
            except (ValueError, KeyError):
                return values, len(values)
        raise


def _raise_first(path: Path, failures: Sequence[tuple[int | None, str]]) -> None:
    """Raise the failure on the lowest row. A failure is (index of the first row
    that fails a check, or None; message), listed in the per-row order of the
    checks, so that of two failures on one row the earlier one wins."""
    first = min(((row, k, message) for k, (row, message) in enumerate(failures) if row is not None), default=None)
    if first is not None:
        raise DataFormatError(f"{path}:{first[0] + 2}: {first[2]}")


def read_gaze_csv(path: str | Path, source_id: str | None = None) -> GazeSequence:
    path = Path(path)
    (*coords, v, lab), (short, n_fields) = _read_csv(path, GAZE_HEADER)
    (t, bad_t), (x, bad_x), (y, bad_y) = (_parse(c, float) for c in coords)
    valid, bad_valid = _parse(v, _FLAGS.__getitem__)
    labeled = bool(lab) and lab[0] != ""  # the first row decides
    labels, bad_label = _parse(lab, ({"0": 0, "1": 1, "2": 2} if labeled else {"": None}).__getitem__)
    mixed = bad_label is not None and (lab[bad_label] != "") != labeled
    _raise_first(path, [
        (short, f"expected 5 fields, got {n_fields}"),
        *((bad, "non-numeric coordinate") for bad in (bad_t, bad_x, bad_y)),
        (bad_valid, "valid flag must be 0 or 1"),
        (bad_label if mixed else None, "mixed labeled/unlabeled rows"),
        (bad_label, "label must be 0, 1 or 2"),
    ])
    try:
        return GazeSequence(t, x, y, valid, labels if labeled else None, path.stem if source_id is None else source_id)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def write_predictions_csv(preds: DetectorOutput, path: str | Path) -> None:
    columns = [int_fields(range(preds.n_samples)), *_covered_columns(preds), int_fields(preds.covered)]
    write_csv(path, PRED_HEADER, columns)


def read_predictions_csv(path: str | Path) -> DetectorOutput:
    path = Path(path)
    (idx, *p, lab, cov), (short, _) = _read_csv(path, PRED_HEADER)
    idx, bad_idx = _parse(idx, int)
    jump = None if idx == list(range(len(idx))) else next(i for i, n in enumerate(idx) if n != i)
    flags, bad_flag = _parse(cov, _FLAGS.__getitem__)
    covered = list(compress(range(len(flags)), flags))
    scores = [_parse([c[i] for i in covered], float) for c in p]
    labels = _parse([lab[i] for i in covered], int)
    _raise_first(path, [
        (short, "expected 6 fields"),
        (bad_idx, "bad sample index"),
        (jump, "sample indices must be consecutive"),
        *((None if bad is None else covered[bad], "bad covered row") for _, bad in (*scores, labels)),
        (next((i for i, f in enumerate(cov) if f == "0" and any(c[i] for c in (*p, lab))), None),
         "uncovered rows must be empty"),
        (bad_flag, "covered flag must be 0 or 1"),
    ])
    # clipped to -1..3, a label that is no class code fails the argmax check, never int8 overflow
    labels = np.clip(labels[0], -1, N_CLASSES)
    try:
        return DetectorOutput(len(cov), covered, np.column_stack([s for s, _ in scores]), labels)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def write_trace_csv(seq: GazeSequence, preds: DetectorOutput, path: str | Path) -> None:
    """Long-format per-sample activation trace for external plotting."""
    coords = map(float_fields, (seq.t_ms, seq.x_deg, seq.y_deg))
    *scores, pred = _covered_columns(preds)
    write_csv(path, TRACE_HEADER, [*coords, *scores, _label_column(seq), pred])


def write_json(path: str | Path, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")


def read_manifest(path: str | Path) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: invalid JSON manifest: {exc}") from None


def write_history_csv(records, path: str | Path) -> None:
    phase, epoch, loss, accuracy = ([getattr(r, k) for r in records] for k in HISTORY_HEADER)
    columns = [int_fields(phase), int_fields(epoch), float_fields(loss), float_fields(accuracy)]
    write_csv(path, HISTORY_HEADER, columns)
