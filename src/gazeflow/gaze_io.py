"""CSV and JSON file formats for gaze data, predictions and reports.

Every CSV is UTF-8 with a header line; rows end in CRLF and no field is
quoted. Floats are written with repr() so a write/read round trip is
lossless, integers with str(), and an empty field stands for no value.
The readers take exactly that, with rows ending in CRLF, LF or CR, check
whole columns at once and report the error on the lowest row.

Gaze CSV: header `t_ms,x_deg,y_deg,valid,label`, one record per line,
decimal point, valid as 0/1, label empty or a class code 0/1/2.

Predictions CSV: header `sample_idx,p_fix,p_sac,p_pur,label,covered`, one
row per sample of the source sequence; uncovered rows leave the score and
label fields empty and set covered to 0.
"""
from __future__ import annotations

import json
import os
import secrets
from contextlib import contextmanager
from itertools import compress, islice, repeat
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Sequence

import numpy as np

from .detectors import DetectorOutput
from .gaze import GazeSequence

GAZE_HEADER = ["t_ms", "x_deg", "y_deg", "valid", "label"]
PRED_HEADER = ["sample_idx", "p_fix", "p_sac", "p_pur", "label", "covered"]
TRACE_HEADER = ["t_ms", "x_deg", "y_deg", "p_fix", "p_sac", "p_pur", "truth", "pred"]
HISTORY_HEADER = ["phase", "epoch", "train_loss", "val_accuracy"]
CSV_BLOCK_ROWS = 4096  # rows joined into one string per write


class DataFormatError(ValueError):
    """A file does not conform to its declared schema."""


def float_fields(values: Iterable[float]) -> Iterator[str]:
    """CSV fields of floats: repr() of each value, lossless on reading back."""
    return map(repr, np.asarray(values, dtype=np.float64).tolist())


def int_fields(values: Iterable[int]) -> Iterator[str]:
    """CSV fields of integers (or booleans, as 0/1)."""
    return map(str, np.asarray(values, dtype=np.int64).tolist())


@contextmanager
def atomic_open(path: str | Path, mode: str = "w", **kwargs) -> Iterator[IO]:
    """Open `path` for writing ("w" or "wb") so that it changes only as a whole.

    The block writes a new, hidden temporary file in the same directory,
    which replaces `path` (os.replace) when the block ends, or is removed
    when it raises: an earlier `path` survives a failed write unchanged.
    There is no fsync, so a crash of the machine may still lose the write.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    try:
        fh = open(tmp, mode.replace("w", "x"), **kwargs)
        try:
            with fh:
                yield fh
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:  # such as a missing directory or a directory at path: name the target
        if exc.filename != str(tmp):
            raise
        raise type(exc)(exc.errno, exc.strerror, str(path)) from None


def write_csv(path: str | Path, header: Sequence[str], columns: Sequence[Iterable[str]]) -> None:
    """Write equal-length columns of already-formatted fields as CSV rows.

    The columns are read CSV_BLOCK_ROWS rows at a time, so they may be
    iterators that format each field on demand. Rows end in CRLF, as
    csv.writer ends them. Fields are written as given, so none may hold a
    comma, a quote or a line break; a field may join several columns' fields
    with commas. The file is replaced atomically (atomic_open).
    """
    rows = map(",".join, zip(*columns, strict=True))
    with atomic_open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        while block := list(islice(rows, CSV_BLOCK_ROWS)):
            block.append("")  # the line end of the block's last row
            fh.write("\r\n".join(block))


def _covered_columns(preds: DetectorOutput) -> tuple[list[str], list[str]]:
    """The "p_fix,p_sac,p_pur" and the label field of every sample; empty where uncovered."""

    def scatter(fields: Iterable[str], empty: str) -> list[str]:
        column = [empty] * preds.n_samples
        for i, field in zip(preds.sample_idx.tolist(), fields):
            column[i] = field
        return column

    scores = map(",".join, zip(*map(float_fields, preds.scores.T)))
    return scatter(scores, ",,"), scatter(int_fields(preds.labels), "")


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
    try:
        preds = DetectorOutput(len(cov), covered, np.column_stack([s for s, _ in scores]))
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from None
    if labels[0] != preds.labels.tolist():  # Python ints: a label of 256 is not wrapped to 0
        raise DataFormatError(f"{path}: labels must equal argmax(scores) with lowest-code ties")
    return preds


def write_trace_csv(seq: GazeSequence, preds: DetectorOutput, path: str | Path) -> None:
    """Long-format per-sample activation trace for external plotting."""
    coords = map(float_fields, (seq.t_ms, seq.x_deg, seq.y_deg))
    scores, pred = _covered_columns(preds)
    write_csv(path, TRACE_HEADER, [*coords, scores, _label_column(seq), pred])


def write_json(path: str | Path, obj) -> None:
    with atomic_open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, indent=2) + "\n")


def read_manifest(path: str | Path) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: invalid JSON manifest: {exc}") from None


def write_history_csv(records, path: str | Path) -> None:
    phase, epoch, loss, accuracy = ([getattr(r, k) for r in records] for k in HISTORY_HEADER)
    columns = [int_fields(phase), int_fields(epoch), float_fields(loss), float_fields(accuracy)]
    write_csv(path, HISTORY_HEADER, columns)
