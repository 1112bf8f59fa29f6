"""Binary model checkpoint format.

Layout (all integers little-endian u32, all floats little-endian f64):

    magic   4 bytes  b"GZNN"
    version u32      2 (version 1 files, which end after crc, still load)
    header  u32 x 6  kernel_len, pool_factor, n_filters, n_channels,
                     input_len, n_classes
    payload f64[]    NetworkParams.vector: conv_w row-major
                     [filter][tap][channel], conv_b, dense_w row-major
                     [class][flat], dense_b
    crc     u32      CRC-32 of the payload bytes
    size    u32      length of the split record in bytes (version 2)
    split   bytes    the split record: compact UTF-8 JSON, `null` for a
                     model saved without a split (see ModelSplit)
    crc     u32      CRC-32 of the split record bytes

The split record holds the split `train` decided: its seed, the corpus
fingerprint (corpus_fingerprint) and the sorted file names of the
validation and test recordings. It holds no time and no path, so a
repeated `train` writes the same bytes.

Loading validates magic, version, header consistency, lengths, both
checksums, that every weight is finite and the fields of the split record;
each failure raises a distinct error type. The header geometry is checked
by the network's one geometry rule, net.param_shapes, which also gives the
payload length.
"""
from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .gaze import N_CLASSES
from .gaze_io import atomic_open
from .net import N_CHANNELS, NetError, NetworkParams, param_shapes

MAGIC = b"GZNN"
FORMAT_VERSION = 2
_HEADER = struct.Struct("<4sIIIIIII")
_U32 = struct.Struct("<I")


class ModelFileError(ValueError):
    """Base error for unreadable model files."""


class ModelVersionError(ModelFileError):
    """The file declares an unsupported format version."""


class ModelCorruptError(ModelFileError):
    """Magic, length or a checksum do not match the declared content, or the
    split record is not JSON."""


class ModelShapeError(ModelFileError):
    """Header dimensions are invalid or inconsistent with the file length, or
    the split record's fields are not those save_model writes."""


@dataclass(frozen=True)
class ModelSplit:
    """The split a model was trained with, as `compare` needs it.

    seed is the split seed; n_files and corpus_crc are the corpus
    fingerprint (corpus_fingerprint); validation and test are the sorted
    file names of the recordings in those parts.
    """

    seed: int
    n_files: int
    corpus_crc: int
    validation: tuple[str, ...]
    test: tuple[str, ...]


def corpus_fingerprint(files: list[Path]) -> tuple[int, int]:
    """(file count, CRC-32) of a corpus: one CRC-32 over the sorted base
    names, each followed by a NUL byte and the u32 CRC-32 of the file's bytes."""
    crc = 0
    for p in sorted(files, key=lambda p: p.name):
        crc = zlib.crc32(p.name.encode("utf-8") + b"\0" + _U32.pack(zlib.crc32(p.read_bytes())), crc)
    return len(files), crc


def save_model(params: NetworkParams, path: str | Path, split: ModelSplit | None = None) -> None:
    """Write parameters, and the split they were trained with, to a checkpoint
    file, atomically; load_model and load_split invert it bit-exactly."""
    payload = params.vector.astype("<f8", copy=False).tobytes()
    header = _HEADER.pack(
        MAGIC,
        FORMAT_VERSION,
        params.kernel_len,
        params.pool_factor,
        params.n_filters,
        params.conv_w.shape[2],
        params.input_len,
        N_CLASSES,
    )
    record = None if split is None else {
        "corpus": {"crc": split.corpus_crc, "files": split.n_files},
        "seed": split.seed,
        "test": list(split.test),
        "validation": list(split.validation),
    }
    section = json.dumps(record, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(header + payload + _U32.pack(zlib.crc32(payload)))
        fh.write(_U32.pack(len(section)) + section + _U32.pack(zlib.crc32(section)))


def _names(value) -> tuple[str, ...]:
    if not (isinstance(value, list) and value and all(isinstance(v, str) for v in value)):
        raise ModelShapeError("split record: each part must be a non-empty list of file names")
    if value != sorted(set(value)):
        raise ModelShapeError("split record: file names must be sorted and unique")
    return tuple(value)


def _count(value, limit: float = math.inf) -> int:
    if type(value) is not int or not 0 <= value < limit:
        raise ModelShapeError(f"split record: expected an integer in [0, {limit}), got {value!r}")
    return value


def _parse_split(section: bytes) -> ModelSplit | None:
    try:
        record = json.loads(section.decode("utf-8"))
    except (ValueError, RecursionError):
        raise ModelCorruptError("split record is not valid JSON") from None
    if record is None:
        return None
    if not (isinstance(record, dict) and record.keys() == {"corpus", "seed", "test", "validation"}
            and isinstance(record["corpus"], dict) and record["corpus"].keys() == {"crc", "files"}):
        raise ModelShapeError("split record: unexpected fields")
    split = ModelSplit(
        seed=_count(record["seed"]),
        n_files=_count(record["corpus"]["files"]),
        corpus_crc=_count(record["corpus"]["crc"], 2**32),
        validation=_names(record["validation"]),
        test=_names(record["test"]),
    )
    if set(split.validation) & set(split.test):
        raise ModelShapeError("split record: a recording is in both the validation and the test part")
    return split


def _read(path: str | Path) -> tuple[NetworkParams, ModelSplit | None, int]:
    """(params, split, payload CRC) of a checkpoint, every part validated."""
    blob = Path(path).read_bytes()
    if len(blob) < _HEADER.size + 4:
        raise ModelCorruptError("file too short to be a model checkpoint")
    magic, version, kernel_len, pool_factor, n_filters, n_channels, input_len, n_classes = (
        _HEADER.unpack_from(blob, 0)
    )
    if magic != MAGIC:
        raise ModelCorruptError("bad magic bytes")
    if version not in (1, FORMAT_VERSION):
        raise ModelVersionError(f"unsupported format version {version}")
    if n_classes != N_CLASSES or n_channels != N_CHANNELS:
        raise ModelShapeError("unsupported class/channel count")
    try:
        shapes = param_shapes(input_len, kernel_len, pool_factor, n_filters)
    except NetError as exc:
        raise ModelShapeError(f"invalid layer geometry in header: {exc}") from None

    end = _HEADER.size + 8 * sum(math.prod(shape) for shape in shapes)  # end of the payload
    if version == 1:
        expected = end + 4
    else:
        size = _U32.unpack_from(blob, end + 4)[0] if len(blob) >= end + 8 else 0
        expected = end + 4 + 4 + size + 4
    if len(blob) != expected:
        raise ModelShapeError(
            f"file length {len(blob)} does not match the declared dimensions and split record ({expected})"
        )
    payload = blob[_HEADER.size : end]
    (stored_crc,) = _U32.unpack_from(blob, end)
    if zlib.crc32(payload) != stored_crc:
        raise ModelCorruptError("payload checksum mismatch")

    weights = np.frombuffer(payload, dtype="<f8")
    if not np.isfinite(weights).all():
        raise ModelCorruptError("payload holds non-finite weights")
    split = None
    if version != 1:
        section = blob[end + 8 : -4]
        if zlib.crc32(section) != _U32.unpack_from(blob, len(blob) - 4)[0]:
            raise ModelCorruptError("split record checksum mismatch")
        split = _parse_split(section)
    params = NetworkParams.from_vector(
        weights,
        kernel_len=kernel_len,
        pool_factor=pool_factor,
        input_len=input_len,
        n_filters=n_filters,
    )
    return params, split, stored_crc


def load_model(path: str | Path) -> NetworkParams:
    """The network of a checkpoint written by save_model (format 1 or 2)."""
    return _read(path)[0]


def load_split(path: str | Path) -> ModelSplit | None:
    """The split stored with a checkpoint; None for a format 1 file or a
    model saved without a split."""
    return _read(path)[1]


def model_crc(path: str | Path) -> int:
    """CRC-32 of the payload section, for cheap identity comparisons."""
    return _read(path)[2]
