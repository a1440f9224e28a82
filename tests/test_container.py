import os
import struct

import numpy as np
import pytest

from dmage.container import (
    MAGIC_CHECKPOINT,
    MAGIC_DISTANCE,
    MAGIC_SIMILARITY,
    ContainerFormatError,
    atomic_write_bytes,
    atomic_write_text,
    content_hash,
    load_checkpoint,
    load_matrix,
    save_checkpoint,
    save_matrix,
)
from dmage.network import default_stack, init_network


class TestAtomicWrite:
    def test_writes_bytes(self, tmp_path):
        path = str(tmp_path / "out.bin")
        atomic_write_bytes(path, b"abc")
        with open(path, "rb") as f:
            assert f.read() == b"abc"

    def test_replaces_existing(self, tmp_path):
        path = str(tmp_path / "out.txt")
        atomic_write_text(path, "first")
        atomic_write_text(path, "second")
        with open(path) as f:
            assert f.read() == "second"

    def test_no_temp_files_left_behind(self, tmp_path):
        atomic_write_text(str(tmp_path / "a.txt"), "x")
        assert os.listdir(tmp_path) == ["a.txt"]


class TestMatrixContainer:
    def test_round_trip_bit_identical(self, tmp_path):
        m = np.random.default_rng(0).standard_normal((7, 7))
        path = str(tmp_path / "m.dmgd")
        save_matrix(path, m, MAGIC_DISTANCE)
        back, magic = load_matrix(path)
        assert magic == MAGIC_DISTANCE
        assert back.tobytes() == m.tobytes()
        assert back.dtype == np.float64

    def test_round_trip_of_non_contiguous_input(self, tmp_path):
        base = np.random.default_rng(1).standard_normal((6, 12))
        m = base[:, ::2]  # a strided view
        assert not m.flags.c_contiguous
        path = str(tmp_path / "m.dmgs")
        save_matrix(path, m, MAGIC_SIMILARITY)
        with open(path, "rb") as f:
            assert f.read() == MAGIC_SIMILARITY + struct.pack("<Q", 6) + m.tobytes(order="C")
        back, _ = load_matrix(path, expect_magic=MAGIC_SIMILARITY)
        assert back.tobytes() == m.tobytes(order="C")
        assert back.flags.c_contiguous and back.flags.writeable

    def test_similarity_magic(self, tmp_path):
        path = str(tmp_path / "m.dmgs")
        save_matrix(path, np.eye(3), MAGIC_SIMILARITY)
        _, magic = load_matrix(path, expect_magic=MAGIC_SIMILARITY)
        assert magic == MAGIC_SIMILARITY

    def test_expected_magic_mismatch(self, tmp_path):
        path = str(tmp_path / "m.dmgd")
        save_matrix(path, np.eye(2), MAGIC_DISTANCE)
        with pytest.raises(ContainerFormatError, match="expected magic"):
            load_matrix(path, expect_magic=MAGIC_SIMILARITY)

    def test_header_layout(self, tmp_path):
        path = str(tmp_path / "m.dmgd")
        save_matrix(path, np.arange(4.0).reshape(2, 2), MAGIC_DISTANCE)
        with open(path, "rb") as f:
            data = f.read()
        assert data[:4] == b"DMGD"
        assert struct.unpack("<Q", data[4:12]) == (2,)
        assert np.frombuffer(data[12:], dtype="<f8").tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_rejects_non_square(self, tmp_path):
        with pytest.raises(ValueError, match="square"):
            save_matrix(str(tmp_path / "m.dmgd"), np.zeros((2, 3)))

    def test_rejects_unknown_magic_on_save(self, tmp_path):
        with pytest.raises(ValueError, match="magic"):
            save_matrix(str(tmp_path / "m.bin"), np.eye(2), b"XXXX")

    def test_unknown_magic_on_load(self, tmp_path):
        path = str(tmp_path / "bad.bin")
        atomic_write_bytes(path, b"XXXX" + struct.pack("<Q", 1) + b"\0" * 8)
        with pytest.raises(ContainerFormatError, match="unknown magic"):
            load_matrix(path)

    def test_truncated_header(self, tmp_path):
        path = str(tmp_path / "bad.dmgd")
        atomic_write_bytes(path, b"DMGD\0\0")
        with pytest.raises(ContainerFormatError, match="truncated"):
            load_matrix(path)

    def test_truncated_payload(self, tmp_path):
        path = str(tmp_path / "bad.dmgd")
        atomic_write_bytes(path, MAGIC_DISTANCE + struct.pack("<Q", 3) + b"\0" * 16)
        with pytest.raises(ContainerFormatError, match="payload"):
            load_matrix(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = str(tmp_path / "bad.dmgd")
        save_matrix(path, np.eye(2), MAGIC_DISTANCE)
        with open(path, "rb") as f:
            data = f.read()
        atomic_write_bytes(path, data + b"extra")
        with pytest.raises(ContainerFormatError):
            load_matrix(path)

    def test_float32_input_upcast(self, tmp_path):
        m = np.eye(3, dtype=np.float32)
        path = str(tmp_path / "m.dmgd")
        save_matrix(path, m)
        back, _ = load_matrix(path)
        assert back.dtype == np.float64
        assert np.array_equal(back, np.eye(3))


class TestCheckpointContainer:
    def make_params(self, seed=11):
        specs = default_stack(5, (8, 4), 3, "leaky_relu")
        return init_network(specs, seed)

    def test_round_trip_bit_identical(self, tmp_path):
        params = self.make_params()
        path = str(tmp_path / "model.dmgw")
        save_checkpoint(path, params)
        loaded = load_checkpoint(path)
        assert loaded.specs == params.specs
        assert loaded.seed == params.seed
        for a, b in zip(loaded.weights, params.weights):
            assert a.tobytes() == b.tobytes()
        for a, b in zip(loaded.biases, params.biases):
            assert a.tobytes() == b.tobytes()

    def test_negative_seed_round_trips(self, tmp_path):
        params = self.make_params()
        params.seed = -5  # seed field is a signed slot in the layout
        path = str(tmp_path / "model.dmgw")
        save_checkpoint(path, params)
        assert load_checkpoint(path).seed == -5

    def test_magic_and_version_bytes(self, tmp_path):
        path = str(tmp_path / "model.dmgw")
        save_checkpoint(path, self.make_params())
        with open(path, "rb") as f:
            head = f.read(5)
        assert head[:4] == MAGIC_CHECKPOINT
        assert head[4] == 1

    def test_wrong_magic(self, tmp_path):
        path = str(tmp_path / "bad.dmgw")
        atomic_write_bytes(path, b"NOPE" + b"\0" * 16)
        with pytest.raises(ContainerFormatError, match="not a checkpoint"):
            load_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        path = str(tmp_path / "model.dmgw")
        save_checkpoint(path, self.make_params())
        with open(path, "rb") as f:
            data = bytearray(f.read())
        data[4] = 99
        atomic_write_bytes(path, bytes(data))
        with pytest.raises(ContainerFormatError, match="version"):
            load_checkpoint(path)

    def test_truncated_layer_block(self, tmp_path):
        path = str(tmp_path / "model.dmgw")
        save_checkpoint(path, self.make_params())
        with open(path, "rb") as f:
            data = f.read()
        atomic_write_bytes(path, data[: len(data) // 2])
        with pytest.raises(ContainerFormatError):
            load_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        path = str(tmp_path / "model.dmgw")
        save_checkpoint(path, self.make_params())
        with open(path, "rb") as f:
            data = f.read()
        atomic_write_bytes(path, data + b"\0\0")
        with pytest.raises(ContainerFormatError, match="trailing"):
            load_checkpoint(path)

    def test_loaded_params_start_unversioned(self, tmp_path):
        params = self.make_params()
        for _ in range(3):
            params.bump()
        path = str(tmp_path / "model.dmgw")
        save_checkpoint(path, params)
        assert load_checkpoint(path).version == 0


class TestContentHash:
    def test_stable_across_calls(self):
        a = np.arange(6.0).reshape(2, 3)
        assert content_hash(a, "x", 3) == content_hash(a, "x", 3)

    def test_sensitive_to_array_values(self):
        a = np.zeros(4)
        b = a.copy()
        b[0] = 1e-300
        assert content_hash(a) != content_hash(b)

    def test_sensitive_to_chunk_boundaries(self):
        # "ab" + "c" must differ from "a" + "bc"
        assert content_hash("ab", "c") != content_hash("a", "bc")

    def test_mixed_types(self):
        h = content_hash(b"raw", "text", 1.5, np.eye(2))
        assert len(h) == 64
        assert all(c in "0123456789abcdef" for c in h)

    def test_non_contiguous_array_matches_contiguous(self):
        a = np.arange(16.0).reshape(4, 4)
        assert content_hash(a[:, :2]) == content_hash(np.ascontiguousarray(a[:, :2]))
