import hashlib
import os
import struct

import numpy as np
import pytest

from dmage.container import (
    MAGIC_CHECKPOINT,
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
from dmage.synthetic import two_block_sbm


def v1_checkpoint(layers, seed=3):
    """A version-1 checkpoint built by hand: ``layers`` holds one
    ``(kind, in_dim, out_dim, activation, variant, self_loops)`` code tuple per
    layer, weights count up from 0 and biases are zero."""
    parts = [b"DMGW", struct.pack("<BqQ", 1, seed, len(layers))]
    for kind, in_dim, out_dim, activation, variant, loops in layers:
        parts.append(struct.pack("<BQQBBB", kind, in_dim, out_dim, activation, variant, loops))
        parts.append(np.arange(in_dim * out_dim, dtype="<f8").tobytes())
        parts.append(np.zeros(out_dim, dtype="<f8").tobytes())
    return b"".join(parts)


# fc(leaky_relu) -> fca -> fc(linear), with the codes every writer since the
# layer codes were fixed emits: variant 0 (gcn) and self-loop flag 1
CURRENT_LAYERS = [(0, 4, 3, 2, 0, 1), (1, 3, 3, 0, 0, 1), (0, 3, 2, 0, 0, 1)]


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

    def test_failed_write_leaves_nothing(self, tmp_path):
        path = str(tmp_path / "out.bin")
        with pytest.raises(TypeError):
            atomic_write_bytes(path, b"abc", object())
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_mode_follows_umask(self, tmp_path, umask, mode):
        # a plain open gives 0o666 less the umask; so must every artifact
        old = os.umask(umask)
        try:
            atomic_write_text(str(tmp_path / "a.txt"), "x")
            save_matrix(str(tmp_path / "m.dmgd"), np.zeros((2, 2)))
        finally:
            os.umask(old)
        for name in ("a.txt", "m.dmgd"):
            assert os.stat(tmp_path / name).st_mode & 0o777 == mode


class TestMatrixContainer:
    def test_round_trip_bit_identical(self, tmp_path):
        m = np.random.default_rng(0).standard_normal((7, 7), dtype=np.float32)
        path = str(tmp_path / "m.dmgs")
        save_matrix(path, m)
        back, magic = load_matrix(path)
        assert magic == MAGIC_SIMILARITY
        assert back.tobytes() == m.tobytes()
        assert back.dtype == np.float32

    def test_round_trip_of_non_contiguous_input(self, tmp_path):
        base = np.random.default_rng(1).standard_normal((6, 12), dtype=np.float32)
        m = base[:, ::2]  # a strided view
        assert not m.flags.c_contiguous
        path = str(tmp_path / "m.dmgs")
        save_matrix(path, m)
        with open(path, "rb") as f:
            assert f.read() == MAGIC_SIMILARITY + struct.pack("<Q", 6) + m.tobytes(order="C")
        back, _ = load_matrix(path)
        assert back.tobytes() == m.tobytes(order="C")
        assert back.flags.c_contiguous and back.flags.writeable

    def test_distance_magic_of_older_versions_is_unknown(self, tmp_path):
        # older versions also wrote distance matrices, tagged "DMGD"
        path = str(tmp_path / "m.dmgd")
        atomic_write_bytes(path, b"DMGD" + struct.pack("<Q", 2) + np.eye(2).tobytes())
        with pytest.raises(ContainerFormatError, match="unknown magic b'DMGD'"):
            load_matrix(path)

    def test_header_layout(self, tmp_path):
        path = str(tmp_path / "m.dmgs")
        save_matrix(path, np.arange(4.0).reshape(2, 2))
        with open(path, "rb") as f:
            data = f.read()
        assert data[:4] == b"DMGS"
        assert struct.unpack("<Q", data[4:12]) == (2,)
        assert np.frombuffer(data[12:], dtype="<f4").tolist() == [0.0, 1.0, 2.0, 3.0]
        assert len(data) == 12 + 4 * 2 * 2

    def test_rejects_non_square(self, tmp_path):
        with pytest.raises(ValueError, match="square"):
            save_matrix(str(tmp_path / "m.dmgd"), np.zeros((2, 3)))

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
        atomic_write_bytes(path, MAGIC_SIMILARITY + struct.pack("<Q", 3) + b"\0" * 16)
        with pytest.raises(ContainerFormatError, match="payload"):
            load_matrix(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = str(tmp_path / "bad.dmgd")
        save_matrix(path, np.eye(2))
        with open(path, "rb") as f:
            data = f.read()
        atomic_write_bytes(path, data + b"extra")
        with pytest.raises(ContainerFormatError):
            load_matrix(path)

    def test_float64_input_is_narrowed(self, tmp_path):
        # stored as precompute stores a similarity: float32, whose subnormals are 0
        m = np.array([[0.0, 0.3], [1e-40, 1.0]])
        path = str(tmp_path / "m.dmgs")
        save_matrix(path, m)
        back, _ = load_matrix(path)
        assert back.dtype == np.float32
        assert back.tobytes() == np.float32([[0.0, 0.3], [0.0, 1.0]]).tobytes()

    def test_float64_payload_of_earlier_versions_does_not_load(self, tmp_path):
        path = str(tmp_path / "m.dmgs")
        atomic_write_bytes(path, MAGIC_SIMILARITY + struct.pack("<Q", 3) + np.eye(3).tobytes())
        with pytest.raises(ContainerFormatError, match="expected 36 payload bytes for n=3, found 72"):
            load_matrix(path)


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

    def test_hand_built_checkpoint_loads_and_saves_to_its_bytes(self, tmp_path):
        path = str(tmp_path / "model.dmgw")
        data = v1_checkpoint(CURRENT_LAYERS)
        atomic_write_bytes(path, data)
        params = load_checkpoint(path)
        assert [(s.kind, s.activation) for s in params.specs] == [
            ("fc", "leaky_relu"), ("fca", "linear"), ("fc", "linear")
        ]
        save_checkpoint(path, params)
        with open(path, "rb") as f:
            assert f.read() == data

    @pytest.mark.parametrize(
        "layer, field, code, name",
        [
            (0, 3, 1, "activation 'relu'"),
            (1, 4, 1, "aggregation variant 'verbatim'"),
            (1, 5, 0, "aggregation without self-loops"),
            (2, 5, 0, "aggregation without self-loops"),
        ],
        ids=["relu", "verbatim", "no self-loops", "no self-loops on an fc layer"],
    )
    def test_retired_code_named(self, tmp_path, layer, field, code, name):
        layers = [list(codes) for codes in CURRENT_LAYERS]
        layers[layer][field] = code
        path = str(tmp_path / "model.dmgw")
        atomic_write_bytes(path, v1_checkpoint(layers))
        with pytest.raises(ContainerFormatError, match=f"layer {layer} uses the retired {name}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("field, code", [(0, 2), (3, 3), (4, 2), (5, 2)])
    def test_unknown_code_rejected(self, tmp_path, field, code):
        layers = [list(codes) for codes in CURRENT_LAYERS]
        layers[1][field] = code
        path = str(tmp_path / "model.dmgw")
        atomic_write_bytes(path, v1_checkpoint(layers))
        with pytest.raises(ContainerFormatError, match="corrupt layer block"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "no_fca, digest",
        [
            (False, "b6abdec00afae2d038b2e629240ed5fbde98ca807e03610960e688ba34dc9919"),
            (True, "ee508fa4b49ab4bfa8830a061d96fd2770509caadf7be5b3d6a0c7ccd16f7fe4"),
        ],
    )
    def test_toy_network_checkpoint_bytes_pinned(self, tmp_path, no_fca, digest):
        # the initial network of a toy run; its weights come from numpy's
        # generator alone, not from BLAS, so the bytes hold on any machine
        width = two_block_sbm(seed=0).features.shape[1]
        path = str(tmp_path / "model.dmgw")
        save_checkpoint(path, init_network(default_stack(width, (16, 8), 3, no_fca=no_fca), 0))
        with open(path, "rb") as f:
            assert hashlib.sha256(f.read()).hexdigest() == digest

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

    @pytest.mark.parametrize(
        "layout", ["c", "fortran", "strided", "reversed", "empty-2d", "0-d", "bool", "int32"]
    )
    def test_digest_is_sha256_of_c_order_bytes(self, layout):
        # arrays are hashed in place, but the digest is that of the copy
        # ``tobytes()`` makes, so cache names written before stay valid
        x = np.arange(24.0).reshape(4, 6)
        a = {
            "c": x,
            "fortran": np.asfortranarray(x),
            "strided": x[::2, 1::2],
            "reversed": x[::-1],
            "empty-2d": np.zeros((0, 2), dtype=np.int64),
            "0-d": np.array(2.5),
            "bool": x > 7,
            "int32": x.astype(np.int32).T,
        }[layout]
        want = hashlib.sha256(a.tobytes(order="C") + b"\x1f" + b"7\x1f").hexdigest()
        assert content_hash(a, 7) == want
        assert content_hash(a, 7) == content_hash(np.ascontiguousarray(a), 7)
