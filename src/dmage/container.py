"""Binary containers for matrices and network checkpoints.

Matrix files carry the 4-byte magic "DMGS" (a similarity matrix, the one
kind of matrix the cache holds), a little-endian u64 node count, then n*n
row-major float32 values: 12 + 4 n^2 bytes.  float32 is the precision the
loss reads a similarity in, and the one a similarity is stored and held
in.  A file of earlier versions, with a float64 payload under the same
magic, has twice the payload bytes and fails to load.  Checkpoints ("DMGW"
plus a version byte) store the layer specs and their weight/bias tensors.  All writes go through a
temp file and an atomic rename, so readers never observe a partial file.

Each layer block of a checkpoint starts with its kind, its dims and three
code bytes: the activation (0 linear, 2 leaky_relu), the aggregation
variant and the self-loop flag.  The last two are fixed at 0 (GCN
normalization) and 1 (self-loops) on every layer.  Codes that older
versions also wrote, activation 1 ("relu"), variant 1 ("verbatim") and
self-loop flag 0, are retired: a checkpoint holding one fails to load with
an error that names it.
"""

from __future__ import annotations

import hashlib
import os
import secrets
import struct

import numpy as np

from .network import LayerSpec, NetworkParams

__all__ = [
    "MAGIC_SIMILARITY",
    "MAGIC_CHECKPOINT",
    "ContainerFormatError",
    "atomic_write_bytes",
    "atomic_write_text",
    "save_matrix",
    "load_matrix",
    "save_checkpoint",
    "load_checkpoint",
    "content_hash",
]

MAGIC_SIMILARITY = b"DMGS"
MAGIC_CHECKPOINT = b"DMGW"
CHECKPOINT_VERSION = 1

_KINDS = ("fc", "fca")
_ACTIVATIONS = ("linear", "relu", "leaky_relu")
# a layer block's head: kind, in and out dims, activation, aggregation
# variant and self-loop flag; the last two are 0 (GCN) and 1 on every layer
_LAYER_HEAD = struct.Struct("<BQQBBB")
_GCN_WITH_SELF_LOOPS = (0, 1)
# (head field, code) of the codes older versions also wrote
_RETIRED_CODES = {
    (3, 1): "activation 'relu'",
    (4, 1): "aggregation variant 'verbatim'",
    (5, 0): "aggregation without self-loops",
}


class ContainerFormatError(ValueError):
    """File does not conform to the expected binary layout."""


def atomic_write_bytes(path, *chunks):
    """Write byte chunks (any C-contiguous buffers) so the destination is either absent or complete.

    The chunks go to a uniquely named temp file beside the destination,
    which is then renamed over it.  The temp file is created with mode 0o666
    less the umask, the mode a plain ``open`` gives a new file.
    """
    path = os.fspath(path)
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".tmp-{secrets.token_hex(8)}-{name}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str):
    atomic_write_bytes(path, text.encode("utf-8"))


def save_matrix(path, matrix: np.ndarray):
    """Persist a square matrix under ``MAGIC_SIMILARITY`` as float32.

    A float32 matrix is written as it is; any other is narrowed first, its
    entries below float32's smallest normal number flushed to 0, as
    ``precompute`` narrows a similarity (``similarity._narrow``).
    """
    matrix = np.asarray(matrix)
    if matrix.dtype != np.float32:
        # imported here: similarity imports graph, which imports this module
        from .similarity import _narrow

        matrix = _narrow(matrix, np.float32)
    matrix = np.ascontiguousarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    atomic_write_bytes(path, MAGIC_SIMILARITY + struct.pack("<Q", matrix.shape[0]), matrix)


def load_matrix(path):
    """Load a matrix container; returns ``(matrix, magic)``, the matrix float32.

    The header is checked before the payload is read, straight into the
    returned array.  Any magic but ``MAGIC_SIMILARITY`` is unknown, and a
    payload of another size than 4 n^2 bytes, such as the float64 payload
    of earlier versions, does not load.
    """
    with open(path, "rb") as f:
        head = f.read(12)
        if len(head) < 12:
            raise ContainerFormatError(f"{path}: truncated header")
        magic = head[:4]
        if magic != MAGIC_SIMILARITY:
            raise ContainerFormatError(f"{path}: unknown magic {magic!r}")
        (n,) = struct.unpack("<Q", head[4:])
        size = os.fstat(f.fileno()).st_size - 12
        if size != n * n * 4:
            raise ContainerFormatError(
                f"{path}: expected {n * n * 4} payload bytes for n={n}, found {size}"
            )
        matrix = np.empty((n, n), dtype="<f4")
        read = f.readinto(memoryview(matrix.reshape(-1)).cast("B")) if n else 0
    if read != size:
        raise ContainerFormatError(f"{path}: expected {size} payload bytes, read {read}")
    return matrix, magic


def save_checkpoint(path, params: NetworkParams):
    """Persist layer specs plus weight/bias tensors."""
    parts = [MAGIC_CHECKPOINT, struct.pack("<BqQ", CHECKPOINT_VERSION, params.seed, len(params.specs))]
    for spec, W, B in zip(params.specs, params.weights, params.biases):
        parts.append(
            _LAYER_HEAD.pack(
                _KINDS.index(spec.kind),
                spec.in_dim,
                spec.out_dim,
                _ACTIVATIONS.index(spec.activation),
                *_GCN_WITH_SELF_LOOPS,
            )
        )
        parts.append(np.ascontiguousarray(W, dtype=np.float64).tobytes(order="C"))
        parts.append(np.ascontiguousarray(B, dtype=np.float64).tobytes(order="C"))
    atomic_write_bytes(path, *parts)


def load_checkpoint(path) -> NetworkParams:
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != MAGIC_CHECKPOINT:
        raise ContainerFormatError(f"{path}: not a checkpoint file")
    offset = 4
    version, seed, n_layers = struct.unpack_from("<BqQ", data, offset)
    offset += struct.calcsize("<BqQ")
    if version != CHECKPOINT_VERSION:
        raise ContainerFormatError(f"{path}: unsupported checkpoint version {version}")
    specs, weights, biases = [], [], []
    for layer in range(n_layers):
        try:
            head = _LAYER_HEAD.unpack_from(data, offset)
        except struct.error as e:
            raise ContainerFormatError(f"{path}: truncated or corrupt layer block: {e}") from e
        retired = [name for (i, code), name in _RETIRED_CODES.items() if head[i] == code]
        if retired:
            raise ContainerFormatError(
                f"{path}: layer {layer} uses the retired {' and '.join(retired)}"
            )
        kind_i, in_dim, out_dim, act_i = head[:4]
        offset += _LAYER_HEAD.size
        try:
            if head[4:] != _GCN_WITH_SELF_LOOPS:
                raise ValueError(f"unknown aggregation codes {head[4:]}")
            specs.append(LayerSpec(_KINDS[kind_i], int(in_dim), int(out_dim), _ACTIVATIONS[act_i]))
            weights.append(
                np.frombuffer(data, dtype="<f8", count=in_dim * out_dim, offset=offset)
                .reshape(in_dim, out_dim)
                .copy()
            )
            offset += in_dim * out_dim * 8
            biases.append(np.frombuffer(data, dtype="<f8", count=out_dim, offset=offset).copy())
            offset += out_dim * 8
        except (ValueError, IndexError) as e:
            raise ContainerFormatError(f"{path}: truncated or corrupt layer block: {e}") from e
    if offset != len(data):
        raise ContainerFormatError(f"{path}: {len(data) - offset} trailing bytes")
    return NetworkParams(tuple(specs), weights, biases, int(seed))


def content_hash(*chunks) -> str:
    """SHA-256 over a sequence of byte chunks, arrays, and strings.

    An array is hashed as its C-order bytes, read in place when it is
    C-contiguous rather than copied out.
    """
    h = hashlib.sha256()
    for c in chunks:
        if isinstance(c, np.ndarray):
            h.update(memoryview(np.ravel(c)).cast("B"))
        elif isinstance(c, bytes):
            h.update(c)
        else:
            h.update(str(c).encode("utf-8"))
        h.update(b"\x1f")
    return h.hexdigest()
