"""Training loop: precompute input similarities, fit the network, emit embeddings.

The pipeline has two phases.  ``precompute`` turns the graph into two joint
similarity matrices — one over the priori edge set, one over the complete
(or k-NN substituted) graph — and caches both on disk under the names that
``_cache_names`` alone derives from a content hash of what each reads.  The
geodesics of a connected graph, such as the kNN graph, are computed only as
far as the input kernel reaches above ``similarity._FLOOR``, and clamped
there.  Each similarity is computed in float64 and stored, cached and held
in float32, the precision the loss reads it in, narrowed once as it is
symmetrized.
``train`` then runs the epoch/batch loop: augment edges, forward each sorted
batch's nodes through the network (computing only their receptive field),
evaluate the fused loss on those rows, and update parameters with Adam.
The network, its gradients, the loss and Adam run in float32, with the
loss terms summed in float64.  The final embedding always comes from a
float64 forward pass over every node with the unaugmented priori adjacency.
"""

from __future__ import annotations

import dataclasses
import logging
import math
import numbers
import os
import time
from dataclasses import dataclass

import numpy as np

from . import distances
from .augmentation import AugmentationConfig, augment
from .container import (
    ContainerFormatError,
    atomic_write_text,
    content_hash,
    load_matrix,
    save_matrix,
)
from .distances import complete_graph_distances
from .graph import (
    AttributedGraph,
    DistanceMetric,
    adjacency,
    adjacency_from_edges,
    hop_neighborhoods,
    knn_graph,
)
from .losses import BregmanKind, LossTerms, fused_loss
from .network import (
    GradientTape,
    NetworkParams,
    aggregation_matrix,
    backward,
    default_stack,
    forward,
    init_network,
)
from .similarity import (
    SimilarityMatrix,
    _calibrated,
    _calibrated_geodesics,
    conditional_similarity,
    symmetrize,
)

__all__ = [
    "TrainConfig",
    "TrainResult",
    "TrainingDivergedError",
    "precompute",
    "train",
    "embed",
    "write_embeddings",
    "read_embeddings",
    "write_loss_history",
]

log = logging.getLogger("dmage")

# rng stream offsets; stride 4 keeps streams of different base seeds disjoint
_INIT_STREAM = 0
_SHUFFLE_STREAM = 1
_AUGMENT_STREAM = 2
# retired options and the one value each still takes: a config setting one of
# them to it, such as the manifest of an older run, still loads; every run took
# the first eight at that value, f1_variant and edge_scorer were evaluation
# keys of the CLI config, and no_augment=True did what p_minus=0 does
_RETIRED_KEYS = {
    "optimizer": "adam",
    "adam_beta1": 0.9,
    "adam_beta2": 0.999,
    "adam_eps": 1e-8,
    "activation": "leaky_relu",
    "fca_variant": "gcn",
    "self_loops": True,
    "symmetrize_variant": "paper",
    "f1_variant": "macro",
    "edge_scorer": "t_kernel",
    "no_augment": False,
}
_INT_FIELDS = ("epochs", "batch_size", "knn_k", "seed", "latent_dim")
_FLOAT_FIELDS = ("learning_rate", "alpha", "nu_input", "nu_latent", "q_p", "p_minus", "lambda_")


class TrainingDivergedError(RuntimeError):
    """The loss, the embedding or a gradient became non-finite during training."""

    def __init__(self, epoch: int, last_finite_epoch: int, what: str = "loss"):
        self.epoch = epoch
        self.last_finite_epoch = last_finite_epoch
        super().__init__(
            f"{what} became non-finite in epoch {epoch}; "
            f"last epoch with finite loss: {last_finite_epoch}"
        )


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters and switches for one training run.

    ``batch_size=0`` means min(n, 1024).  ``knn_k=0`` uses the true complete
    graph for the feature-side similarity; a positive value substitutes the
    k-nearest-neighbor graph.  ``lambda_`` scales the unconnected-pair
    distance and serializes under the key "lambda".  The network is the
    paper's: LeakyReLU FC layers and one GCN-normalized FCA layer with
    self-loops, trained with Adam (0.9, 0.999, 1e-8).
    """

    learning_rate: float = 1e-3
    epochs: int = 500
    batch_size: int = 0
    alpha: float = 1.0
    nu_input: float = 100.0
    nu_latent: float = 1.0
    q_p: float = 16.0
    p_minus: float = 0.01
    lambda_: float = 10.0
    metric: str = "euclidean"
    knn_k: int = 0
    seed: int = 0
    bregman: str = "logi"
    no_fca: bool = False
    hard_similarity: bool = False
    hidden_dims: tuple = (500, 250)
    latent_dim: int = 200

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(self.hidden_dims))
        ints = [(name, getattr(self, name)) for name in _INT_FIELDS]
        ints += [("every hidden_dims entry", h) for h in self.hidden_dims]
        for name, value in ints:
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            real = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if not (real and math.isfinite(value)):
                raise ValueError(f"{name.rstrip('_')} must be a finite number, got {value!r}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size != 0 and self.batch_size < 2:
            raise ValueError(f"batch_size must be 0 (auto) or >= 2, got {self.batch_size}")
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if not 0.0 <= self.p_minus <= 1.0:
            raise ValueError(f"p_minus must be in [0, 1], got {self.p_minus}")
        if not self.lambda_ > 1:
            raise ValueError(f"lambda must be > 1, got {self.lambda_}")
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if not (self.nu_input > 0 and self.nu_latent > 0):
            raise ValueError("nu_input and nu_latent must be positive")
        if not self.q_p > 1:
            raise ValueError(f"q_p must be > 1, got {self.q_p}")
        if self.knn_k < 0:
            raise ValueError(f"knn_k must be >= 0, got {self.knn_k}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.bregman not in {k.value for k in BregmanKind}:
            raise ValueError(
                f"bregman must be one of {[k.value for k in BregmanKind]}, got {self.bregman!r}"
            )
        DistanceMetric(self.metric)
        if self.latent_dim < 1 or any(h < 1 for h in self.hidden_dims):
            raise ValueError(
                f"hidden_dims and latent_dim must be positive, got "
                f"{list(self.hidden_dims)} and {self.latent_dim}"
            )

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["lambda"] = d.pop("lambda_")
        d["hidden_dims"] = list(self.hidden_dims)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        d = dict(d)
        if "lambda" in d:
            if "lambda_" in d:
                raise ValueError("config sets both 'lambda' and 'lambda_'")
            d["lambda_"] = d.pop("lambda")
        for key, value in _RETIRED_KEYS.items():
            if key in d and (got := d.pop(key)) != value:
                raise ValueError(
                    f"config key {key!r} is retired and accepts only {value!r}, got {got!r}"
                )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)


@dataclass(frozen=True)
class TrainResult:
    embeddings: np.ndarray
    params: NetworkParams
    loss_history: tuple
    config_echo: TrainConfig


class _AdamOptimizer:
    """Adam, updating each whole parameter tensor and its moments in place.

    Every element goes through ``x -= lr * (m / c1) / (sqrt(v / c2) + eps)``
    in that operation order, with two temporaries per tensor.  The moments
    and temporaries take each tensor's dtype: float32 under :func:`train`.
    """

    b1, b2, eps = 0.9, 0.999, 1e-8

    def __init__(self, lr):
        self.lr = lr
        self.t = 0
        self.m = None
        self.v = None

    def step(self, params: NetworkParams, dW, dB):
        grads = list(dW) + list(dB)
        tensors = list(params.weights) + list(params.biases)
        if self.m is None:
            self.m = [np.zeros_like(t) for t in tensors]
            self.v = [np.zeros_like(t) for t in tensors]
        self.t += 1
        correct1 = 1.0 - self.b1**self.t
        correct2 = 1.0 - self.b2**self.t
        for x, g, m, v in zip(tensors, grads, self.m, self.v):
            g = np.asarray(g)
            a, b = np.empty_like(x), np.empty_like(x)
            m *= self.b1
            m += np.multiply(g, 1.0 - self.b1, out=a)
            v *= self.b2
            np.multiply(g, 1.0 - self.b2, out=a)
            v += np.multiply(a, g, out=a)
            np.divide(m, correct1, out=a)
            a *= self.lr
            np.divide(v, correct2, out=b)
            np.sqrt(b, out=b)
            b += self.eps
            x -= np.divide(a, b, out=a)
        params.bump()


def _cast(params: NetworkParams, dtype) -> NetworkParams:
    """A copy of ``params`` with every weight and bias in ``dtype``, at the same version."""
    return NetworkParams(
        params.specs,
        [w.astype(dtype) for w in params.weights],
        [b.astype(dtype) for b in params.biases],
        params.seed,
        params.version,
    )


def _require_nodes(g: AttributedGraph):
    """Refuse, before any work, a graph too small to calibrate: a row needs two distances."""
    if g.n < 3:
        raise ValueError(f"the graph has {g.n} nodes; embedding needs at least 3")


def _cache_dir(explicit=None):
    if explicit is not None:
        return explicit
    return os.environ.get("DMAGE_CACHE_DIR") or None


def _cache_names(g: AttributedGraph, cfg: TrainConfig):
    """The file names of the two similarities under ``cfg``: ``(complete, prior)``.

    Each is ``<matrix>-<key>.dmgs``, the key the first 32 hex digits of a
    content hash of what the matrix reads: the complete one the features and
    its config fields, so graphs that differ only in their edges share it,
    the priori one the whole graph and its config fields.  The features are
    hashed once, and both keys hash that digest.  The priori name is None
    under ``hard_similarity``, which caches no priori matrix.
    """
    reads = (content_hash(g.features.shape, g.features), cfg.metric, cfg.nu_input, cfg.q_p)
    if cfg.knn_k > 0:
        key = content_hash(*reads, "knn", cfg.knn_k, cfg.lambda_)
    else:
        key = content_hash(*reads, "complete")
    complete = f"complete-{key[:32]}.dmgs"
    if cfg.hard_similarity:
        return complete, None
    key = content_hash(*reads, "prior", g.n, g.edge_array(), cfg.lambda_)
    return complete, f"prior-{key[:32]}.dmgs"


def _similarity_problem(what, matrix):
    """None when every entry of ``matrix`` is in [0, 1], else what is wrong with it.

    One minimum and one maximum; a NaN fails both comparisons.
    """
    low, high = matrix.min(), matrix.max()
    if low >= 0.0 and high <= 1.0:
        return None
    return f"{what} holds values outside [0, 1] (min {low!r}, max {high!r})"


def _similarity(path, calibrated, cfg: TrainConfig, tag):
    """The float32 joint similarity saved at ``path``, or computed from ``calibrated()`` and saved there.

    ``calibrated()`` gives the distances, their calibration and how they
    were computed (``similarity._Computed``).  A file that does not load
    (wrong magic, truncated, a float64 payload of earlier versions) or
    whose matrix is not in [0, 1] is a cache miss, logged, and is computed
    again; a computed matrix that is not raises ``ValueError``.  ``path``
    None caches nothing.  A computed matrix gets one info line: the seconds
    of each stage (the kNN graph's too, when one was built), the share of
    pairs whose distances were computed, and the rows searched again out to
    their reach and searched in full.
    """
    what = f"{tag} similarity"
    if path is not None and os.path.exists(path):
        try:
            matrix, _ = load_matrix(path)
        except ContainerFormatError as e:
            problem = e  # its message names the path
        else:
            if not (problem := _similarity_problem(what, matrix)):
                log.info("cache hit: %s", path)
                return SimilarityMatrix(matrix, "joint")
            del matrix
            problem = f"{path}: {problem}"
        log.warning("cache miss: %s; computing it again", problem)
    d, calib, computed = calibrated()
    t0 = time.perf_counter()
    # the distances are not kept: their buffer takes the kernel, and the
    # joint form is narrowed into a float32 matrix as it is written, in its
    # own mapping: an n x n float32 matrix at Cora's size (29 MB) is below
    # the C allocator's largest heap block (32 MB), and a computed one freed
    # there leaves the heap larger for every later run in the process
    cond = conditional_similarity(d, cfg.nu_input, calib, out=d)
    joint = symmetrize(cond, out=distances._shared_array(d.shape, np.float32)).matrix
    del d, cond
    t1 = time.perf_counter()
    if problem := _similarity_problem(what, joint):
        raise ValueError(problem)
    write = 0.0
    if path is not None:
        t2 = time.perf_counter()
        save_matrix(path, joint)
        write = time.perf_counter() - t2
        log.info("cache write: %s", path)
    knn = "" if computed.knn_s is None else f"kNN graph {computed.knn_s:.3f} s, "
    log.info(
        "%s, up to %d workers: %sdistances %.3f s, calibration %.3f s, "
        "kernel+symmetrize %.3f s, cache write %.3f s; "
        "pairs computed %.1f%%, rows extended %d, rows in full %d",
        what, distances._usable_cores(), knn, computed.distances_s, computed.calibration_s,
        t1 - t0, write, 100.0 * computed.pairs, computed.extended, computed.full,
    )
    return SimilarityMatrix(joint, "joint")


def precompute(g: AttributedGraph, cfg: TrainConfig, cache_dir=None):
    """Input similarity matrices: complete-graph ("feature") and priori-graph.

    Returns ``(P_complete, P_prior)`` as joint :class:`SimilarityMatrix`
    holding float32 matrices, exactly symmetric: the loss reads a
    similarity in float32, so each is computed in float64 and narrowed once,
    its float32 subnormals flushed to 0 (``container._narrow``).  The two
    similarities are cached under ``cache_dir`` (or the DMAGE_CACHE_DIR
    environment variable) under the names :func:`_cache_names` gives, and
    cache hits reload bit-identically.  Distances are not cached: a
    similarity miss computes its distances into the buffer that, once they
    are calibrated, takes the kernel, whose joint form is written into the
    float32 matrix.  The geodesics of a connected graph (the kNN graph, say)
    are computed only within each row's reach, where the kernel is above
    ``similarity._FLOOR``, and each distance beyond it is replaced by the
    reach (``similarity._calibrated_geodesics``), whose conditional
    similarity, ``t_kernel(x*)``, float32 storage flushes to 0; rho and
    sigma are the full computation's.  A loaded similarity is checked to
    lie in [0, 1] (one minimum and one maximum, which a NaN fails); one
    that does not is a logged cache miss and is computed again, and a
    computed one that does not raises ``ValueError`` naming the matrix.  With ``hard_similarity``
    the priori matrix is the 0/1 adjacency instead of the geodesic
    similarity.  A graph of fewer than 3 nodes raises ``ValueError``.
    """
    _require_nodes(g)
    cache = _cache_dir(cache_dir)
    if cache is not None:
        os.makedirs(cache, exist_ok=True)
    complete, prior = (
        None if cache is None or name is None else os.path.join(cache, name)
        for name in _cache_names(g, cfg)
    )

    def geodesics(graph):
        return _calibrated_geodesics(graph, cfg.metric, cfg.lambda_, cfg.nu_input, cfg.q_p)

    if cfg.knn_k > 0:
        # the name does not depend on the kNN graph, so it is built on a miss only
        def complete_calibrated():
            t0 = time.perf_counter()
            graph = knn_graph(g.features, cfg.knn_k, cfg.metric)
            knn_s = time.perf_counter() - t0
            d, calib, computed = geodesics(graph)
            return d, calib, dataclasses.replace(computed, knn_s=knn_s)
    else:
        def complete_calibrated():
            return _calibrated(
                lambda: complete_graph_distances(g.features, cfg.metric), cfg.nu_input, cfg.q_p
            )

    p_complete = _similarity(complete, complete_calibrated, cfg, "complete")
    if cfg.hard_similarity:
        return p_complete, SimilarityMatrix(adjacency(g).astype(np.float32).toarray(), "joint")
    p_prior = _similarity(prior, lambda: geodesics(g), cfg, "prior")
    return p_complete, p_prior


def _batches(perm, batch_size):
    """Chunk a permutation into sorted batches; a trailing singleton joins the batch before it."""
    bounds = list(range(batch_size, perm.size, batch_size))
    if bounds and perm.size - bounds[-1] < 2:
        bounds.pop()
    return [np.sort(chunk) for chunk in np.split(perm, bounds)]


def _aggregation_operator(n: int, edges, specs):
    """The FCA layer's operator over an ``(m, 2)`` edge array; None without one."""
    if not any(s.kind == "fca" for s in specs):
        return None
    return aggregation_matrix(adjacency_from_edges(n, edges))


def train(g: AttributedGraph, cfg: TrainConfig, cache_dir=None) -> TrainResult:
    """Fit the embedding network on one graph; deterministic given cfg.seed.

    Raises :class:`TrainingDivergedError` (with the last finite epoch in the
    message) if the loss, the embedding or a gradient leaves the finite
    range, in the batch where it does, before the parameters are updated.

    The batch steps run in single precision: the float64 initial parameters
    are cast to float32 once, so the network, its gradients and Adam's
    moments are float32.  :func:`fused_loss` computes on the float32 batch
    rows, reading the blocks it gathers from the float32 similarity
    matrices as they are, and returns a float32 gradient; only its terms
    are summed in float64.  After the last epoch the
    parameters are widened to float64, which is exact, and the final
    embedding is the float64 forward pass over every node; the returned
    params are those float64 ones, so :func:`embed` with them, or with their
    checkpoint, gives the embedding's bytes.
    """
    _require_nodes(g)
    n = g.n
    batch_size = cfg.batch_size or min(n, 1024)
    if batch_size > n:
        raise ValueError(f"batch_size {batch_size} exceeds node count {n}")

    p_complete, p_prior = precompute(g, cfg, cache_dir)
    Pc, Pp = p_complete.matrix, p_prior.matrix

    specs = default_stack(g.features.shape[1], cfg.hidden_dims, cfg.latent_dim, no_fca=cfg.no_fca)
    params = _cast(init_network(specs, 4 * cfg.seed + _INIT_STREAM), np.float32)
    optimizer = _AdamOptimizer(cfg.learning_rate)
    kind = BregmanKind(cfg.bregman)

    # augmentation only perturbs the operator of the FCA layer
    augmenting = not cfg.no_fca and cfg.p_minus > 0 and g.num_edges > 0
    hop2 = hop_neighborhoods(g) if augmenting else None
    aug_cfg = AugmentationConfig(cfg.p_minus, 4 * cfg.seed + _AUGMENT_STREAM) if augmenting else None

    X = g.features
    N_prior = _aggregation_operator(n, g.edge_array(), specs)
    history = []
    last_finite = -1
    # one tape for the run and the final forward: layer 0's input rows are built once
    tape = GradientTape()
    for epoch in range(cfg.epochs):
        N_epoch = N_prior
        if augmenting:
            N_epoch = _aggregation_operator(n, augment(g, hop2, aug_cfg, epoch).result, specs)
        perm = np.random.default_rng([4 * cfg.seed + _SHUFFLE_STREAM, epoch]).permutation(n)
        chunks = _batches(perm, batch_size)
        sums = np.zeros(3)
        for batch in chunks:
            # forward, the loss and backward hold the batch rows in batch order
            Zb = forward(X, N_epoch, params, tape, batch)
            if not np.isfinite(Zb).all():
                raise TrainingDivergedError(epoch, last_finite, "embedding")
            terms, dZb = fused_loss(Pc, Pp, Zb, cfg.nu_latent, cfg.alpha, kind, batch)
            if not np.isfinite(terms.total):
                raise TrainingDivergedError(epoch, last_finite)
            dW, dB = backward(tape, dZb)
            if not all(np.isfinite(t).all() for t in (*dW, *dB)):
                raise TrainingDivergedError(epoch, last_finite, "gradient")
            optimizer.step(params, dW, dB)
            sums += (terms.feature_term, terms.structure_term, terms.total)
        mean = sums / len(chunks)
        history.append(LossTerms(mean[0], mean[1], cfg.alpha, mean[2]))
        last_finite = epoch
        if (epoch + 1) % 50 == 0 or epoch == cfg.epochs - 1:
            log.info("epoch %d/%d: loss %.6g", epoch + 1, cfg.epochs, mean[2])

    # widening to float64 is exact; the final pass and the returned params are float64
    params = _cast(params, np.float64)
    Z_final = forward(X, N_prior, params, tape)
    return TrainResult(Z_final, params, tuple(history), cfg)


def embed(g: AttributedGraph, params: NetworkParams) -> np.ndarray:
    """Forward pass with the priori adjacency; no augmentation, no tape."""
    in_dim = params.specs[0].in_dim
    if g.features.shape[1] != in_dim:
        raise ValueError(
            f"features have {g.features.shape[1]} dims but network expects {in_dim}"
        )
    return forward(g.features, _aggregation_operator(g.n, g.edge_array(), params.specs), params)


def write_embeddings(path, Z: np.ndarray):
    """Tab-separated embedding export, one line per row of ``Z``.

    Each line holds the node id (the row index) and then the row's values
    to 9 significant digits.
    """
    lines = [
        "\t".join([str(i)] + [format(v, ".9g") for v in row]) for i, row in enumerate(np.asarray(Z))
    ]
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_embeddings(path):
    """Inverse of :func:`write_embeddings`; returns ``(ids, Z)``.

    A value that is not a number, or a line with another number of values
    than the first, raises ``ValueError`` naming ``path:lineno``.
    """
    ids, rows = [], []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            try:
                row = [float(v) for v in parts[1:]]
            except ValueError as e:
                raise ValueError(f"{path}:{lineno}: non-numeric embedding value: {e}") from e
            if rows and len(row) != len(rows[0]):
                raise ValueError(f"{path}:{lineno}: expected {len(rows[0])} values, got {len(row)}")
            ids.append(parts[0])
            rows.append(row)
    return ids, np.asarray(rows, dtype=np.float64)


def write_loss_history(path, history):
    """One line per epoch: epoch, feature term, structure term, total."""
    lines = [
        "\t".join(
            [str(e)]
            + [format(v, ".9g") for v in (t.feature_term, t.structure_term, t.total)]
        )
        for e, t in enumerate(history)
    ]
    atomic_write_text(path, "\n".join(lines) + "\n")
