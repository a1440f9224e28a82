"""Embedding network: fully connected layers plus one aggregation layer.

The default stack maps node features to a latent space through two hidden FC
layers with LeakyReLU, one FCA layer (a linear layer followed by
symmetric-normalized neighbor aggregation, i.e. a GCN layer without an
activation), and a final linear FC layer.  Forward passes can record a
gradient tape; ``backward`` replays it in reverse to produce exact
reverse-mode gradients for every weight and bias.

The FCA layer consumes only the normalized aggregation operator that
:func:`aggregation_matrix` builds from an adjacency; ``forward`` never sees
a raw adjacency, so each epoch's operator is built exactly once by the
caller.

Layer 0 reads the node features.  On citation graphs these are bag-of-words
rows that are almost all zero (Cora: 1.3% nonzero), so when at most
``_SPARSE_DENSITY`` of the entries are nonzero ``forward`` multiplies a CSR
copy of them (``X_csr @ W0``) and ``backward`` takes ``dW0 = X_csr.T @ g``
from the same copy.  The sparse products cost in proportion to the nonzeros
and the dense ones do not: at Cora's shape (2708 x 1433 times 1433 x 500)
on 2 cores the dense product takes 45-55 ms at any density, the CSR one
18 ms at 1.25%, 40 ms at 1/32 and 52 ms at 4%, so features above the
threshold (Gaussian attributes, TF-IDF at about 10%) stay dense.  The sparse sums run in another order than BLAS, so layer 0 of
the sparse path agrees with the dense one to rounding; dense inputs give
the same bytes as before.  The copy is kept on the :class:`GradientTape`
together with the feature array it came from, and a later ``forward`` with
the same array object and tape reuses it, so a training run builds it once;
callers must not write into the features between such calls.

The loss of a training batch reads only the batch's rows of the output, so
``forward`` takes the sorted output rows it should compute and runs each
layer on the rows they depend on, as Cluster-GCN (Chiang et al., 2019) and
GraphSAGE (Hamilton et al., 2017) restrict a minibatch to its receptive
field.  The layers after the FCA layer need only the output rows; the FCA
layer needs the 1-hop receptive field ``R``, the column support of
``N[rows]``, and multiplies by that block with its columns renumbered; the
layers before it, layer 0 included, run on ``R``.  On the Cora-shaped bench
graph (2708 nodes, batches of 1024, 1024 and 660) ``R`` holds 81-83% of the
nodes for a full batch and 67-69% for the last.  ``backward`` takes the gradient of the output rows only and
multiplies by the transpose of the same compact operator.  A pass over
fewer rows sums the weight gradients over fewer terms, so it agrees with
the full pass to rounding.  A pass whose rows are every node (a batch of a
graph no larger than the batch size, ``embed``, the final embedding of a
run) runs the full pass: every product is the one on the whole arrays, and
its bytes do not change.

Every layer computes in the dtype of ``params.weights``: float64 parameters
give a float64 pass, and float32 parameters, which the training batch steps
use, a float32 one.  Layer 0's input rows are built once per tape in float64
and cast after the receptive-field gather; the operator is cast to the same
dtype, and ``backward`` casts the upstream gradient to the dtype of the
output.  For float64 parameters each cast returns its argument, so the
float64 pass and its gradients keep their bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

__all__ = [
    "LayerSpec",
    "NetworkParams",
    "GradientTape",
    "StaleTapeError",
    "default_stack",
    "init_network",
    "aggregation_matrix",
    "forward",
    "backward",
]

LEAKY_SLOPE = 0.01
# largest share of nonzero feature entries for which layer 0 runs on a CSR copy
_SPARSE_DENSITY = 1 / 32


class StaleTapeError(RuntimeError):
    """The parameters changed since this tape was recorded."""


@dataclass(frozen=True)
class LayerSpec:
    """One layer of the stack.

    ``kind`` is "fc" or "fca"; ``activation``, "linear" or "leaky_relu",
    applies only to fc layers (fca is always linear and aggregates with the
    operator of :func:`aggregation_matrix`).
    """

    kind: str
    in_dim: int
    out_dim: int
    activation: str = "linear"

    def __post_init__(self):
        if self.kind not in ("fc", "fca"):
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.activation not in ("linear", "leaky_relu"):
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.in_dim < 1 or self.out_dim < 1:
            raise ValueError("layer dims must be positive")
        if self.kind == "fca" and self.activation != "linear":
            raise ValueError("fca layers take no activation")


@dataclass
class NetworkParams:
    """Weights and biases for a layer chain.

    ``version`` counts in-place updates; tapes recorded under an older
    version refuse to replay.
    """

    specs: tuple
    weights: list
    biases: list
    seed: int
    version: int = 0

    def bump(self):
        self.version += 1

    def copy(self) -> "NetworkParams":
        return NetworkParams(
            self.specs,
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
            self.seed,
            self.version,
        )


@dataclass
class GradientTape:
    """Forward intermediates needed for the reverse pass.

    Per layer: its input rows, its pre-activation where the activation is
    nonlinear (None otherwise), and for an fca layer the operator backward
    multiplies by (None for fc layers).  ``output`` is the forward result.
    ``features`` holds the layer-0 input rows built from ``source``, the
    feature array last passed to :func:`forward`; a forward with the same
    array object reuses them.
    """

    params: NetworkParams | None = None
    version: int = -1
    inputs: list = field(default_factory=list)
    preacts: list = field(default_factory=list)
    aggregations: list = field(default_factory=list)
    output: np.ndarray | None = None
    source: object = None
    features: object = None


def default_stack(
    input_dim: int,
    hidden_dims=(500, 250),
    latent_dim: int = 200,
    activation: str = "leaky_relu",
    no_fca: bool = False,
):
    """The four-layer architecture: FC(h1) -> FC(h2) -> FCA(h2) -> FC(latent).

    ``no_fca`` swaps the aggregation layer for a plain linear FC of the same
    dims (ablation switch).
    """
    dims = [input_dim, *hidden_dims]
    specs = [
        LayerSpec("fc", dims[i], dims[i + 1], activation) for i in range(len(dims) - 1)
    ]
    width = dims[-1]
    specs.append(LayerSpec("fc" if no_fca else "fca", width, width))
    specs.append(LayerSpec("fc", width, latent_dim, "linear"))
    return tuple(specs)


def _check_chain(specs):
    if not specs:
        raise ValueError("empty layer spec")
    for a, b in zip(specs, specs[1:]):
        if a.out_dim != b.in_dim:
            raise ValueError(f"layer dims do not chain: {a.out_dim} -> {b.in_dim}")


def init_network(specs, seed: int) -> NetworkParams:
    """Glorot-uniform weights, zero biases; deterministic given the seed."""
    specs = tuple(specs)
    _check_chain(specs)
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for s in specs:
        limit = np.sqrt(6.0 / (s.in_dim + s.out_dim))
        weights.append(rng.uniform(-limit, limit, size=(s.in_dim, s.out_dim)))
        biases.append(np.zeros(s.out_dim))
    return NetworkParams(specs, weights, biases, seed)


def _activate(pre, activation):
    if activation == "linear":
        return pre
    # the same values and signs as where(pre > 0, pre, LEAKY_SLOPE * pre)
    out = pre * LEAKY_SLOPE
    return np.maximum(pre, out, out=out)


def _activation_backward(g, pre, activation):
    """Upstream gradient ``g`` times the activation's derivative at ``pre``."""
    if activation == "linear":
        return g
    # the derivative, 1 where pre > 0 and LEAKY_SLOPE elsewhere, built
    # without a branch per element: (1 - LEAKY_SLOPE) + LEAKY_SLOPE rounds
    # to exactly 1.0 in float32 and in float64
    out = np.multiply(pre > 0, 1.0 - LEAKY_SLOPE, dtype=g.dtype)
    out += LEAKY_SLOPE
    out *= g
    return out


def _affine(Z, W, B):
    pre = Z @ W
    pre += B
    return pre


def _sparse_copy(Z):
    """``scipy.sparse.csr_array(Z)`` field for field, or None when more than
    ``_SPARSE_DENSITY`` of the entries of the 2-D ``Z`` are nonzero.

    One scan finds the nonzeros, in row blocks of about 64k entries, so no
    mask of the whole matrix is made (a freed buffer of a few MB moves the C
    allocator's threshold for taking memory from its heap, which then keeps
    more resident); scipy's own conversion scans ``Z`` several times.  Each
    row's entries are a run of the C-order flat indices, so ``indptr`` is a
    binary search.  The index dtype follows scipy's rule: int32 unless a
    dimension or the nonzero count needs int64.
    """
    n, d = Z.shape
    step = max(1, (1 << 16) // max(d, 1))
    limit, parts = _SPARSE_DENSITY * Z.size, []
    for a in range(0, n, step):
        parts.append(np.flatnonzero(Z[a : a + step] != 0) + a * d)
        limit -= parts[-1].size
        if limit < 0:
            return None
    flat = np.concatenate(parts) if parts else np.zeros(0, np.int64)
    index = np.int32 if max(n, d, flat.size) <= np.iinfo(np.int32).max else np.int64
    indptr = np.searchsorted(flat, np.arange(n + 1) * d).astype(index)
    indices = (flat % d).astype(index)
    return sp.csr_array((np.ravel(Z)[flat], indices, indptr), shape=Z.shape)


def _input_rows(X, tape):
    """Layer 0's input: the features as float64, or a CSR copy when sparse enough.

    Rows already built on ``tape`` from the same array object are reused.
    ``forward`` casts the rows it takes from them to the parameters' dtype,
    so one float64 copy serves a float32 run and its float64 final pass.
    """
    if tape is not None and tape.source is X:
        return tape.features
    Z = np.asarray(X, dtype=np.float64)
    if (sparse := _sparse_copy(Z)) is not None:
        Z = sparse
    if tape is not None:
        tape.source, tape.features = X, Z
    return Z


def aggregation_matrix(A, variant: str = "gcn", self_loops: bool = True) -> sp.csr_matrix:
    """Sparse symmetric aggregation operator for an FCA layer: D^(-1/2) (A+I) D^(-1/2).

    ``A`` is a sparse or dense symmetric adjacency and D the degree matrix
    of A + I, so every degree is at least 1.  GCN normalization with
    self-loops is the only operator; ``variant`` and ``self_loops`` accept
    only "gcn" and True.  Each stored entry of A + I is scaled in place, by
    d^(-1/2) of its row and then of its column, and an entry that rounds to
    0 is dropped: the bytes of the two diagonal products, without them.
    """
    if variant != "gcn" or not self_loops:
        raise ValueError(
            "the aggregation is GCN-normalized with self-loops, "
            f"got {variant!r}, self_loops={self_loops!r}"
        )
    A = sp.csr_matrix(A, dtype=np.float64)
    base = (A + sp.identity(A.shape[0], format="csr")).tocsr()
    d_half = 1.0 / np.sqrt(np.asarray(base.sum(axis=1)).ravel())
    base.data *= np.repeat(d_half, np.diff(base.indptr))
    base.data *= d_half[base.indices]
    base.eliminate_zeros()
    return base


def _sorted_rows(rows, n):
    """``rows`` checked to be strictly increasing node indices below ``n``; None when it is every node."""
    if rows is None:
        return None
    rows = np.asarray(rows)
    if (
        rows.ndim != 1
        or not np.issubdtype(rows.dtype, np.integer)
        or (rows.size and (rows[0] < 0 or rows[-1] >= n))
        or np.any(rows[1:] <= rows[:-1])
    ):
        raise ValueError(f"rows must be strictly increasing node indices below {n}")
    return None if rows.size == n else rows


def _aggregate_rows(N, rows):
    """The operator that gives rows ``rows`` of ``N @ H``, and the rows of ``H`` it reads.

    Returns ``(C, support)`` with ``C @ H[support]`` equal to ``(N @ H)[rows]``:
    ``support`` is the sorted column support of ``N[rows]`` and ``C`` is
    ``N[rows]`` with its columns renumbered to index it.  ``support`` is
    None when it holds every node (``C`` is then ``N[rows]``), and ``C`` is
    ``N`` itself when ``rows`` is None.
    """
    if rows is None:
        return N, None
    block = N[rows]
    used = np.zeros(N.shape[1], dtype=bool)
    used[block.indices] = True
    if used.all():
        return block, None
    # the renumbering is increasing, so each row keeps its column order
    column = np.cumsum(used) - 1
    compact = sp.csr_matrix(
        (block.data, column[block.indices], block.indptr), shape=(len(rows), column[-1] + 1)
    )
    return compact, np.flatnonzero(used)


def _receptive_fields(specs, N, rows):
    """For output rows ``rows``: the rows layer 0 reads, and each fca layer's operator.

    Returns ``(inputs, operators)``: ``inputs`` is the sorted node array
    whose rows of ``X`` layer 0 takes (None: every node), and
    ``operators[l]`` is fca layer ``l``'s operator (None for an fc layer).
    Walking back from the output, an fc layer reads the rows it writes and
    an fca layer reads the support of its operator's rows.
    """
    operators = [None] * len(specs)
    for l in range(len(specs) - 1, -1, -1):
        if specs[l].kind == "fca":
            operators[l], rows = _aggregate_rows(N, rows)
    return rows, operators


def forward(X, N, params: NetworkParams, tape: GradientTape | None = None, rows=None):
    """Run the layer chain; record intermediates into ``tape`` if given.

    ``N`` is the normalized aggregation operator from
    :func:`aggregation_matrix`, not a raw adjacency; only fca layers use it,
    and it may be None for stacks without one.

    ``rows``, strictly increasing node indices, selects the output rows to
    compute (all nodes by default); the result holds them in that order.
    Only their receptive field is computed: layers after the fca layer run
    on ``rows``, the fca layer multiplies by ``N[rows]`` restricted to its
    column support ``R``, and the layers before it, layer 0's input rows
    included, run on ``R``.  Without an fca layer every layer runs on
    ``rows``.  The rows computed equal the full pass's rows to rounding:
    the products run over fewer rows.  When ``rows`` holds every node, or
    is None, every product is the full pass's, bit for bit.

    The pass computes in the dtype of ``params.weights``, and so does the
    output.
    """
    Z = _input_rows(X, tape)
    if N is None and any(spec.kind == "fca" for spec in params.specs):
        raise ValueError("fca layer requires an aggregation operator")
    dtype = params.weights[0].dtype
    if N is not None:
        N = N.astype(dtype, copy=False)
    inputs, operators = _receptive_fields(params.specs, N, _sorted_rows(rows, Z.shape[0]))
    if inputs is not None:
        Z = Z[inputs]
    Z = Z.astype(dtype, copy=False)
    if tape is not None:
        tape.params = params
        tape.version = params.version
        tape.inputs = []
        tape.preacts = []
        tape.aggregations = []
    for spec, W, B, C in zip(params.specs, params.weights, params.biases, operators):
        pre = _affine(Z, W, B)
        if tape is not None:
            # backward reads the pre-activations of nonlinear layers only, and
            # for an fca layer the transpose of its operator; N is symmetric
            tape.inputs.append(Z)
            tape.preacts.append(None if spec.activation == "linear" else pre)
            tape.aggregations.append(None if C is None else (C if C is N else C.T))
        Z = C @ pre if spec.kind == "fca" else _activate(pre, spec.activation)
    if tape is not None:
        tape.output = Z
    return Z


def backward(tape: GradientTape, dLoss_dZ):
    """Exact reverse-mode gradients of the recorded forward pass.

    ``dLoss_dZ`` is the upstream gradient of the rows the forward pass
    computed, in the same order (every node, unless it was given ``rows``).
    It is cast to the dtype of the recorded output, and ``(dW_list,
    dB_list)``, matching the parameter shapes, are in that dtype.  Raises
    :class:`StaleTapeError` if the parameters were updated since recording.
    """
    params = tape.params
    if params is None or tape.output is None:
        raise StaleTapeError("tape holds no recorded forward pass")
    if tape.version != params.version:
        raise StaleTapeError(
            f"tape recorded at params version {tape.version}, now {params.version}"
        )
    g = np.asarray(dLoss_dZ, dtype=tape.output.dtype)
    if g.shape != tape.output.shape:
        raise ValueError(f"upstream gradient {g.shape} does not match output {tape.output.shape}")
    dW = [None] * len(params.specs)
    dB = [None] * len(params.specs)
    for l in range(len(params.specs) - 1, -1, -1):
        spec = params.specs[l]
        Z_in = tape.inputs[l]
        if spec.kind == "fca":
            g_pre = tape.aggregations[l] @ g
        else:
            g_pre = _activation_backward(g, tape.preacts[l], spec.activation)
        dW[l] = Z_in.T @ g_pre
        dB[l] = g_pre.sum(axis=0)
        if l > 0:  # nothing uses the gradient of the input features
            g = g_pre @ params.weights[l].T
    return dW, dB
