import struct
import zlib

import numpy as np
import pytest

import hashlib
import json
from pathlib import Path

from gazeflow.model_io import (
    ModelCorruptError,
    ModelShapeError,
    ModelSplit,
    ModelVersionError,
    corpus_fingerprint,
    load_model,
    load_split,
    model_crc,
    save_model,
)
from gazeflow.net import init_params

# a format 1 model of init_params(1234), written by the format 1 save_model
MODEL_V1 = Path(__file__).resolve().parent / "data" / "model_v1.gznn"
MODEL_V1_SHA256 = "7fe72a146d7453e8b40a58316964e5c6a988f031ab01b963b18c590cc567f1c6"
SPLIT = ModelSplit(seed=7, n_files=8, corpus_crc=0x1234ABCD, validation=("seq-0001.csv",), test=("seq-0006.csv",))


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
        end = 32 + 8 * init_params(1).vector.size  # the payload CRC follows the weights
        struct.pack_into("<d", blob, 32 + 8 * 5, bad)  # a weight, after the 32-byte header
        struct.pack_into("<I", blob, end, zlib.crc32(blob[32:end]))
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


class TestFormat1:
    def test_fixture_is_the_committed_v1_file(self):
        blob = MODEL_V1.read_bytes()
        assert hashlib.sha256(blob).hexdigest() == MODEL_V1_SHA256
        assert struct.unpack_from("<I", blob, 4) == (1,) and len(blob) == 32 + 8 * 333 + 4

    def test_loads_to_bit_identical_weights_and_crc(self, model_path):
        loaded = load_model(MODEL_V1)
        params = init_params(1234)
        assert loaded.vector.tobytes() == params.vector.tobytes()
        assert (loaded.kernel_len, loaded.pool_factor, loaded.input_len) == (params.kernel_len, params.pool_factor, params.input_len)
        save_model(params, model_path)
        assert model_crc(MODEL_V1) == model_crc(model_path) == 0x903A1ABB
        assert load_split(MODEL_V1) is None

    def test_format2_keeps_the_format1_body_after_the_version(self, model_path):
        v1 = MODEL_V1.read_bytes()
        save_model(init_params(1234), model_path, SPLIT)
        v2 = model_path.read_bytes()
        assert v2[:4] == v1[:4] and struct.unpack_from("<I", v2, 4) == (2,)
        assert v2[8 : len(v1)] == v1[8:]


class TestSplitSection:
    def test_split_round_trip(self, model_path):
        save_model(init_params(5), model_path, SPLIT)
        assert load_split(model_path) == SPLIT
        assert load_model(model_path).vector.tobytes() == init_params(5).vector.tobytes()

    def test_no_split_reads_none(self, model_path):
        save_model(init_params(5), model_path)
        assert load_split(model_path) is None
        assert model_path.read_bytes()[32 + 8 * 333 + 4 :] == struct.pack("<I", 4) + b"null" + struct.pack("<I", zlib.crc32(b"null"))

    def test_big_seed_round_trip(self, model_path):
        split = ModelSplit(2**70, 3, 0, ("b.csv",), ("a.csv",))
        save_model(init_params(5), model_path, split)
        assert load_split(model_path) == split

    def test_repeated_saves_are_byte_identical(self, model_path, tmp_path):
        save_model(init_params(5), model_path, SPLIT)
        save_model(init_params(5), tmp_path / "again.gznn", SPLIT)
        assert model_path.read_bytes() == (tmp_path / "again.gznn").read_bytes()

    def test_corpus_fingerprint(self, tmp_path):
        d = tmp_path / "corpus"
        d.mkdir()
        for name, body in (("b.csv", b"two"), ("a.csv", b"one")):
            (d / name).write_bytes(body)
        files = sorted(d.glob("*.csv"))
        crc = zlib.crc32(b"a.csv\0" + struct.pack("<I", zlib.crc32(b"one")))
        crc = zlib.crc32(b"b.csv\0" + struct.pack("<I", zlib.crc32(b"two")), crc)
        assert corpus_fingerprint(files) == corpus_fingerprint(files[::-1]) == (2, crc)
        (d / "b.csv").write_bytes(b"twO")
        assert corpus_fingerprint(files) != (2, crc)


def with_record(model_path, record: bytes, crc: int | None = None) -> None:
    """Replace the split record of a format 2 file, with a matching CRC unless crc is given."""
    body = model_path.read_bytes()[: 32 + 8 * 333 + 4]
    crc = zlib.crc32(record) if crc is None else crc
    model_path.write_bytes(body + struct.pack("<I", len(record)) + record + struct.pack("<I", crc))


def record(**changes) -> bytes:
    base = {"corpus": {"crc": 1, "files": 8}, "seed": 7, "test": ["b.csv"], "validation": ["a.csv"]}
    return json.dumps({**base, **changes}).encode()


class TestDamagedSplitSection:
    @pytest.fixture
    def saved(self, model_path):
        save_model(init_params(1), model_path, SPLIT)
        return model_path

    @pytest.mark.parametrize("reader", [load_model, load_split, model_crc])
    def test_flipped_record_byte_fails_its_checksum(self, saved, reader):
        blob = bytearray(saved.read_bytes())
        blob[-10] ^= 0x01  # inside the record
        saved.write_bytes(bytes(blob))
        with pytest.raises(ModelCorruptError, match="split record checksum"):
            reader(saved)

    @pytest.mark.parametrize("cut", [1, 4, 8, 9])
    def test_truncated_section(self, saved, cut):
        saved.write_bytes(saved.read_bytes()[:-cut])
        with pytest.raises(ModelShapeError, match="does not match"):
            load_split(saved)

    def test_missing_section(self, saved):
        saved.write_bytes(saved.read_bytes()[: 32 + 8 * 333 + 4])
        with pytest.raises(ModelShapeError):
            load_model(saved)

    @pytest.mark.parametrize("size", [0, 2**32 - 1])
    def test_wrong_section_length(self, saved, size):
        blob = bytearray(saved.read_bytes())
        struct.pack_into("<I", blob, 32 + 8 * 333 + 4, size)
        saved.write_bytes(bytes(blob))
        with pytest.raises(ModelShapeError):
            load_split(saved)

    @pytest.mark.parametrize("text", [b"", b"{", b"\xff\xfe", b"[" * 100_000, b"1" * 5000])
    def test_record_that_is_not_json(self, saved, text):
        with_record(saved, text)
        with pytest.raises(ModelCorruptError, match="not valid JSON"):
            load_split(saved)

    @pytest.mark.parametrize(
        "text",
        [
            b"[]",
            b"7",
            record(extra=1),
            record(corpus={"crc": 1}),
            record(seed=-1),
            record(seed=True),
            record(seed=7.0),
            record(corpus={"crc": 2**32, "files": 8}),
            record(corpus={"crc": 1, "files": "8"}),
            record(test=[]),
            record(test="b.csv"),
            record(test=[3]),
            record(validation=["b.csv", "a.csv"]),
            record(validation=["a.csv", "a.csv"]),
            record(test=["a.csv"]),
        ],
        ids=["list", "number", "extra-key", "no-file-count", "negative-seed", "bool-seed", "float-seed",
             "crc-too-big", "string-count", "empty-part", "string-part", "number-name", "unsorted",
             "repeated", "in-both-parts"],
    )
    def test_record_with_wrong_fields(self, saved, text):
        with_record(saved, text)
        with pytest.raises(ModelShapeError, match="split record"):
            load_split(saved)

    def test_record_with_matching_fields_loads(self, saved):
        with_record(saved, record())
        assert load_split(saved) == ModelSplit(7, 8, 1, ("a.csv",), ("b.csv",))
