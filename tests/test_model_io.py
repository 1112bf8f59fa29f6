import struct
import zlib

import numpy as np
import pytest

from gazeflow.model_io import (
    ModelCorruptError,
    ModelShapeError,
    ModelVersionError,
    load_model,
    model_crc,
    save_model,
)
from gazeflow.net import init_params


@pytest.fixture
def model_path(tmp_path):
    return tmp_path / "model.gznn"


class TestRoundTrip:
    def test_bit_exact(self, model_path):
        params = init_params(77)
        save_model(params, model_path)
        loaded = load_model(model_path)
        for name, arr in params.arrays():
            assert np.array_equal(arr, getattr(loaded, name))
        assert loaded.pool_factor == params.pool_factor
        assert loaded.input_len == params.input_len

    def test_kernel5_shape_arithmetic(self, model_path):
        params = init_params(3, kernel_len=5)
        save_model(params, model_path)
        loaded = load_model(model_path)
        assert loaded.kernel_len == 5
        assert loaded.dense_w.shape == (3, 10 * ((30 - 5 + 1) // 5))  # (3, 50)

    def test_crc_stable_across_saves(self, model_path, tmp_path):
        params = init_params(9)
        save_model(params, model_path)
        other = tmp_path / "again.gznn"
        save_model(params, other)
        assert model_crc(model_path) == model_crc(other)


class TestErrors:
    def test_truncated_file(self, model_path):
        params = init_params(1)
        save_model(params, model_path)
        blob = model_path.read_bytes()
        model_path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises((ModelCorruptError, ModelShapeError)):
            load_model(model_path)

    def test_bad_magic(self, model_path):
        params = init_params(1)
        save_model(params, model_path)
        blob = bytearray(model_path.read_bytes())
        blob[:4] = b"NOPE"
        model_path.write_bytes(bytes(blob))
        with pytest.raises(ModelCorruptError):
            load_model(model_path)

    def test_version_mismatch(self, model_path):
        params = init_params(1)
        save_model(params, model_path)
        blob = bytearray(model_path.read_bytes())
        blob[4:8] = struct.pack("<I", 999)
        model_path.write_bytes(bytes(blob))
        with pytest.raises(ModelVersionError):
            load_model(model_path)

    def test_flipped_payload_byte_fails_checksum(self, model_path):
        params = init_params(1)
        save_model(params, model_path)
        blob = bytearray(model_path.read_bytes())
        blob[60] ^= 0xFF  # somewhere inside the payload
        model_path.write_bytes(bytes(blob))
        with pytest.raises(ModelCorruptError):
            load_model(model_path)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_weight_with_matching_checksum(self, model_path, bad):
        save_model(init_params(1), model_path)
        blob = bytearray(model_path.read_bytes())
        struct.pack_into("<d", blob, 32 + 8 * 5, bad)  # a weight, after the 32-byte header
        struct.pack_into("<I", blob, len(blob) - 4, zlib.crc32(blob[32:-4]))
        model_path.write_bytes(bytes(blob))
        with pytest.raises(ModelCorruptError, match="non-finite"):
            load_model(model_path)

    # header fields after magic and version: kernel_len, pool_factor, n_filters,
    # n_channels, input_len, n_classes, at byte offsets 8, 12, ..., 28
    @pytest.mark.parametrize(
        "offset,value",
        [(8, 7), (8, 0), (12, 0), (16, 0), (8, 31), (24, 9), (8, 2**32 - 1)],
        ids=["kernel-7", "kernel-0", "pool-0", "filters-0", "kernel-over-input", "input-9", "kernel-max"],
    )
    def test_inconsistent_dims(self, model_path, offset, value):
        params = init_params(1)
        save_model(params, model_path)
        blob = bytearray(model_path.read_bytes())
        blob[offset : offset + 4] = struct.pack("<I", value)
        model_path.write_bytes(bytes(blob))
        with pytest.raises(ModelShapeError):
            load_model(model_path)

    def test_not_a_file(self, tmp_path):
        p = tmp_path / "tiny"
        p.write_bytes(b"xx")
        with pytest.raises(ModelCorruptError):
            load_model(p)


def test_save_model_replaces_the_file_atomically(tmp_path, monkeypatch):
    import gazeflow.gaze_io as gaze_io

    path = tmp_path / "m.gzn"
    save_model(init_params(1), path)
    save_model(init_params(2), path)
    assert np.array_equal(load_model(path).vector, init_params(2).vector)
    assert [p.name for p in tmp_path.iterdir()] == ["m.gzn"]

    def failed_replace(src, dst):
        raise OSError("replace failed")

    # the new model is written in full, but never takes the old one's place
    monkeypatch.setattr(gaze_io.os, "replace", failed_replace)
    with pytest.raises(OSError, match="replace failed"):
        save_model(init_params(3), path)
    assert np.array_equal(load_model(path).vector, init_params(2).vector)
    assert [p.name for p in tmp_path.iterdir()] == ["m.gzn"]
