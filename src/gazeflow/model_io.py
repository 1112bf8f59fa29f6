"""Binary model checkpoint format.

Layout (all integers little-endian u32, all floats little-endian f64):

    magic   4 bytes  b"GZNN"
    version u32      currently 1
    header  u32 x 6  kernel_len, pool_factor, n_filters, n_channels,
                     input_len, n_classes
    payload f64[]    NetworkParams.vector: conv_w row-major
                     [filter][tap][channel], conv_b, dense_w row-major
                     [class][flat], dense_b
    crc     u32      CRC-32 of the payload bytes

Loading validates magic, version, header consistency, payload length,
checksum and that every weight is finite; each failure raises a distinct
error type. The header geometry is checked by the network's one geometry
rule, net.param_shapes, which also gives the payload length.
"""
from __future__ import annotations

import math
import struct
import zlib
from pathlib import Path

import numpy as np

from .gaze import N_CLASSES
from .gaze_io import atomic_open
from .net import N_CHANNELS, NetError, NetworkParams, param_shapes

MAGIC = b"GZNN"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIIIIIII")


class ModelFileError(ValueError):
    """Base error for unreadable model files."""


class ModelVersionError(ModelFileError):
    """The file declares an unsupported format version."""


class ModelCorruptError(ModelFileError):
    """Magic, length or checksum do not match the declared content."""


class ModelShapeError(ModelFileError):
    """Header dimensions are invalid or inconsistent with the payload."""


def save_model(params: NetworkParams, path: str | Path) -> None:
    """Write parameters to a checkpoint file, atomically; load_model inverts it bit-exactly."""
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
    crc = zlib.crc32(payload)
    with atomic_open(path, "wb") as fh:
        fh.write(header + payload + struct.pack("<I", crc))


def load_model(path: str | Path) -> NetworkParams:
    """Read a checkpoint written by save_model."""
    blob = Path(path).read_bytes()
    if len(blob) < _HEADER.size + 4:
        raise ModelCorruptError("file too short to be a model checkpoint")
    magic, version, kernel_len, pool_factor, n_filters, n_channels, input_len, n_classes = (
        _HEADER.unpack_from(blob, 0)
    )
    if magic != MAGIC:
        raise ModelCorruptError("bad magic bytes")
    if version != FORMAT_VERSION:
        raise ModelVersionError(f"unsupported format version {version}")
    if n_classes != N_CLASSES or n_channels != N_CHANNELS:
        raise ModelShapeError("unsupported class/channel count")
    try:
        shapes = param_shapes(input_len, kernel_len, pool_factor, n_filters)
    except NetError as exc:
        raise ModelShapeError(f"invalid layer geometry in header: {exc}") from None

    n_weights = sum(math.prod(shape) for shape in shapes)
    expected = _HEADER.size + 8 * n_weights + 4
    if len(blob) != expected:
        raise ModelShapeError(
            f"payload length {len(blob)} does not match declared dimensions ({expected})"
        )
    payload = blob[_HEADER.size : -4]
    (stored_crc,) = struct.unpack_from("<I", blob, len(blob) - 4)
    if zlib.crc32(payload) != stored_crc:
        raise ModelCorruptError("payload checksum mismatch")

    weights = np.frombuffer(payload, dtype="<f8")
    if not np.isfinite(weights).all():
        raise ModelCorruptError("payload holds non-finite weights")
    return NetworkParams.from_vector(
        weights,
        kernel_len=kernel_len,
        pool_factor=pool_factor,
        input_len=input_len,
        n_filters=n_filters,
    )


def model_crc(path: str | Path) -> int:
    """CRC-32 of the payload section, for cheap identity comparisons."""
    blob = Path(path).read_bytes()
    if len(blob) < _HEADER.size + 4:
        raise ModelCorruptError("file too short to be a model checkpoint")
    (stored_crc,) = struct.unpack_from("<I", blob, len(blob) - 4)
    return stored_crc
