"""Per-pair feature distances and graph geodesic distance matrices.

The geodesic distance between two nodes is the length of the shortest path
over the graph's edge set, with every edge weighted by the chosen feature
metric between its endpoints.  Pairs with no connecting path are assigned
``lambda_ * max(connected distances)`` so that they end up strictly farther
than any connected pair.

The passes over a whole n x n matrix work in the buffer they fill: the
Euclidean and cosine distances are taken from their Gram matrix tile pair
by tile pair, each pair's distance computed once, above the diagonal, and
mirrored; the unconnected rule is applied in place, only to a
disconnected graph.

Every Dijkstra search runs through ``_search_rows``, which can stop each
source's search at a distance of its own (scipy's ``limit=``) with the
bits of an unlimited search inside it.  :func:`geodesic_distances` searches
every row in full; ``similarity._calibrated_geodesics`` stops the rows of a
connected graph where the similarity kernel falls below a floor.
"""

from __future__ import annotations

import logging
import math
import mmap
import os
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import csgraph_from_dense, dijkstra, floyd_warshall

if TYPE_CHECKING:
    from .graph import AttributedGraph

log = logging.getLogger("dmage")

__all__ = [
    "GeodesicDistanceMatrix",
    "DegenerateGraphWarning",
    "pairwise_distance",
    "geodesic_distances",
    "complete_graph_distances",
]


# matrix elements per row block of the Euclidean distance pass: a block's
# buffers stay in cache
_BLOCK = 1 << 16
# side of the square tiles that :func:`_mirror` pairs with their mirrors
_TILE = 64
# output elements per Dijkstra call: a worker's temporary stays small
_DIJKSTRA_BLOCK = 1 << 19
# Floyd–Warshall seconds per 1000^3 node triples (2 cores), and the node
# count from which :func:`complete_graph_distances` warns before running it
_FLOYD_WARSHALL_S = 1.7
_FLOYD_WARSHALL_WARN_N = 2048
# least work per worker of :func:`_fill_rows`, in elements: about 30 ms of
# kernel passes, a few times what a fork and wait cost
_MIN_WORK = 1 << 21
# chunks of rows per worker of :func:`_fill_rows`, claimed as workers finish
_CHUNKS_PER_WORKER = 8


class DistanceMetric(str, Enum):
    """Supported per-pair feature distances."""

    EUCLIDEAN = "euclidean"
    MANHATTAN = "manhattan"
    COSINE = "cosine"


class DegenerateGraphWarning(UserWarning):
    """A distance computation hit a degenerate input (e.g. edgeless graph)."""


@dataclass(frozen=True)
class GeodesicDistanceMatrix:
    """Geodesic distances over a graph's edges.

    ``matrix[i, j]`` is the shortest-path distance for connected pairs and
    exactly ``lambda_`` times the largest connected distance for unconnected
    ones (:func:`geodesic_distances`).  Dijkstra sums each path from its own
    source, so ``d_ij`` and ``d_ji`` can differ in the last bits (by up to
    3.6e-15 on a Cora-sized cosine graph); the joint similarity built from
    them is still exactly symmetric.
    """

    matrix: np.ndarray

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def pairwise_distance(features, metric) -> np.ndarray:
    """Dense symmetric distance matrix between feature rows.

    Cosine distance is ``1 - cos(x, y)``; rows with zero norm are defined to
    be at distance 1 from everything and 0 from themselves.  Euclidean
    distance is exactly 0 between equal rows.  The output is exactly
    symmetric with a zero diagonal and no negative entries.

    Euclidean and cosine distances are built in the one n x n buffer that
    first holds the Gram matrix ``G`` (Euclidean turns it into squared
    distances ``|x_i|^2 + |x_j|^2 - 2G``, row block by row block).  Each
    pair's distance is taken from its entry above the diagonal and mirrored
    below it, tile pair by tile pair (:func:`_mirror`): the matrix is never
    copied or transposed whole.  The features are used as C-contiguous
    rows (copied only when they are not), so ``G`` is the one symmetric
    product and the result does not depend on the input's memory layout.
    Manhattan entries sum ``|x_ik - x_jk|`` in the same order for both
    orders of a pair, so they are exactly symmetric as computed.
    """
    metric = DistanceMetric(metric)
    x = _feature_rows(features)
    if metric is DistanceMetric.EUCLIDEAN:
        group = _equal_rows(x)
        sq = np.sum(x * x, axis=1)
        dist = x @ x.T
        for rows in _row_blocks(len(sq), len(sq), _BLOCK):
            block = dist[rows]
            block *= 2.0
            np.subtract(sq[rows, None] + sq[None, :], block, out=block)
            if group is not None:
                # the Gram formula leaves up to ~1e-7 between equal rows;
                # both orders of such a pair become 0
                block[group[rows, None] == group] = 0.0
        _mirror(dist, dist, lambda d2, _: np.sqrt(np.clip(d2, 0.0, None)))
    elif metric is DistanceMetric.MANHATTAN:
        from scipy.spatial.distance import cdist

        dist = cdist(x, x, metric="cityblock")
    else:  # cosine
        unit, zero = _unit_rows(x)
        dist = unit @ unit.T
        _mirror(dist, dist, lambda g, _: np.clip(1.0 - g, 0.0, 2.0))
        if np.any(zero):
            dist[zero, :] = 1.0
            dist[:, zero] = 1.0
    np.fill_diagonal(dist, 0.0)
    return dist


def _mirror(src, out, combine):
    """``out[i, j] = out[j, i] = combine(src[i, j], src[j, i])`` for ``i <= j``, by tile pairs.

    ``src`` is square.  ``combine(a, b)`` gets a tile of ``src`` on or above
    the diagonal and the transpose of its mirror tile, writes into neither,
    and returns a new tile; it is called once per pair of tiles, a diagonal
    tile paired with itself.  Its tile goes to ``out[I, J]`` and its
    transpose to ``out[J, I]``; a diagonal tile keeps its upper triangle and
    mirrors it, so ``out`` is exactly symmetric whatever ``combine`` does,
    and a ``combine`` may read its first tile alone.  ``out`` may be
    ``src``: both tiles of a pair are read before either is written.  A pair
    of ``_TILE``-wide tiles stays in cache, so the strided reads and writes
    of the transposes cost little, and no n x n temporary or transposed copy
    is made.
    """
    n = src.shape[0]
    cuts = [slice(a, min(a + _TILE, n)) for a in range(0, n, _TILE)]
    for i, rows in enumerate(cuts):
        for cols in cuts[i:]:
            tile = combine(src[rows, cols], src[cols, rows].T)
            if cols is rows:  # a diagonal tile: its upper triangle, mirrored
                lower = np.tril_indices(len(tile), -1)
                tile[lower] = tile.T[lower]
            out[rows, cols] = tile
            out[cols, rows] = tile.T


def _row_blocks(count, width, elements, start=0):
    """Slices over rows ``start`` to ``count`` of ``width`` elements, about ``elements`` elements each."""
    step = max(1, elements // max(width, 1))
    return [slice(a, min(a + step, count)) for a in range(start, count, step)]


def _usable_cores() -> int:
    """Cores this process may run on, or 1 where it cannot fork workers."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_count(n, width) -> int:
    """How many workers :func:`_fill_rows` fills ``n`` rows of ``width`` elements of work with."""
    return max(1, min(_usable_cores(), n * width // _MIN_WORK))


def _fill_rows(n, width, fill, *layouts):
    """Arrays of ``n`` rows, filled by ``fill(rows, *arrays)`` over contiguous row chunks.

    Each layout is ``(row_shape, dtype)``.  ``fill`` writes rows ``rows`` (a
    slice) of every array and reads nothing another chunk writes, so the
    result does not depend on the split.  A row costs about ``width``
    elements of work; the rows go to one worker per usable core, each with
    at least ``_MIN_WORK`` elements of work.  With more than one worker, the
    arrays live in shared anonymous memory and the rows are cut into about
    ``_CHUNKS_PER_WORKER`` chunks per worker, whose indices are written into
    a pipe before the workers fork.  Every worker, this process included,
    reads 4-byte chunk indices until the pipe is empty (a read of 4 bytes
    from a pipe takes them whole), so a worker whose rows cost less claims
    more of them; Dijkstra rows of one graph can differ in cost by 2x.
    Each worker records the bounds of its current chunk in a slot of shared
    memory before filling it, so a failure is reported with its rows.
    Children run only array code (no BLAS, logging or warnings) and leave
    through ``os._exit``; when one fails, this process raises once all are
    reaped.  With one worker, the fill runs here over all rows, into
    ordinary arrays.
    """
    workers = _worker_count(n, width)
    if workers == 1:
        arrays = [np.empty((n, *row_shape), dtype) for row_shape, dtype in layouts]
        fill(slice(0, n), *arrays)
        return arrays
    arrays = [_shared_array((n, *row_shape), dtype) for row_shape, dtype in layouts]
    # 4 bytes an index: at most 4096 bytes, PIPE_BUF and the least a pipe buffers
    chunks = min(n, _CHUNKS_PER_WORKER * workers, 1024)
    bounds = [n * c // chunks for c in range(chunks + 1)]
    # the chunk each worker is filling, -1 before its first
    current = _shared_array((workers, 2), np.int64)
    current.fill(-1)

    def claim(worker):
        while index := os.read(read_end, 4):
            c = int.from_bytes(index, "little")
            a, b = bounds[c], bounds[c + 1]
            current[worker] = a, b
            fill(slice(a, b), *arrays)

    read_end, write_end = os.pipe()
    children = []
    try:
        # written whole, and before any worker reads
        with open(write_end, "wb", buffering=0) as pipe:
            pipe.write(np.arange(chunks, dtype="<u4").tobytes())
        for worker in range(1, workers):
            with warnings.catch_warnings():
                # From Python 3.12, forking a process that has threads (here
                # OpenBLAS's idle pool) warns that the child may deadlock on a
                # lock another thread held.  The child takes no such lock: it
                # runs numpy/scipy array code and raw reads of the pipe only,
                # no BLAS, logging or buffered I/O.
                warnings.filterwarnings("ignore", ".*fork", DeprecationWarning)
                pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    claim(worker)
                    code = 0
                finally:
                    os._exit(code)
            children.append((pid, worker))
        claim(0)
    finally:
        os.close(read_end)
        failed = []
        for pid, worker in children:
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if code:
                a, b = current[worker]
                rows = f"rows {a}:{b}" if a >= 0 else "no rows"
                failed.append(f"{rows} (exit status {code})")
    if failed:
        raise RuntimeError(f"row workers failed: {', '.join(failed)}")
    return arrays


def _shared_array(shape, dtype):
    """An array in anonymous memory that forked children share with this process."""
    dtype = np.dtype(dtype)
    size = math.prod(shape)
    # a mapping is at least a byte long
    buffer = mmap.mmap(-1, max(1, size * dtype.itemsize))
    return np.frombuffer(buffer, dtype, size).reshape(shape)


def _search_rows(graph, dist, sources, limit):
    """Dijkstra from each of ``sources`` into its row of ``dist``, as far as its ``limit``.

    ``graph`` is a weight graph of :func:`_edge_weight_graph`, and ``dist`` an
    n x n array that forked workers write (:func:`_shared_array`).  Row ``s``
    gets the distance from ``s`` to each node at most ``limit`` away, with
    the bits of a search without a limit: Dijkstra settles nodes in order of
    distance, and no path through a node beyond the limit can shorten a path
    to one within it.  Nodes beyond the limit, or unreachable, are inf; a
    limit of inf searches the whole component.  The sources are taken in
    order of limit and split over the usable cores (:func:`_fill_rows`);
    those of one chunk that share a limit run in one call, scipy's
    ``limit=``.  Returns, per source, how many nodes its search reached
    (itself included) and its largest finite distance.
    """
    n = graph.shape[0]
    order = np.argsort(limit, kind="stable")
    sources, limit = sources[order], limit[order]

    def fill(rows, reached, top):
        # the sources of the chunk that share a limit are contiguous
        part = limit[rows]
        cuts = [rows.start, *(rows.start + 1 + np.flatnonzero(part[1:] != part[:-1])), rows.stop]
        for a, b in zip(cuts, cuts[1:]):
            for block in _row_blocks(b, n, _DIJKSTRA_BLOCK, a):
                # the weight graph stores both directions of every edge
                d = dijkstra(graph, directed=True, indices=sources[block], limit=limit[a])
                dist[sources[block]] = d
                finite = np.isfinite(d)
                reached[block] = finite.sum(axis=1)
                # no distance is negative, so 0 stands in for the infinite ones
                top[block] = np.where(finite, d, 0.0).max(axis=1)

    # each source's search passes at most every node and every stored edge
    reached, top = _fill_rows(sources.size, n + graph.nnz, fill, ((), np.int64), ((), np.float64))
    unsorted = np.empty_like(order)
    unsorted[order] = np.arange(order.size)
    return reached[unsorted], top[unsorted]


def _feature_rows(features, dtype=np.float64):
    """``features`` as C-contiguous ``dtype`` rows, checked to be 2-D and finite."""
    x = np.asarray(features, dtype=dtype)
    if x.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("features must be finite")
    return np.ascontiguousarray(x)


def _unit_rows(x):
    """Rows ``x`` scaled to unit norm, and a mask of the zero rows, which stay zero."""
    norms = np.linalg.norm(x, axis=1)
    zero = norms == 0.0
    return x / np.where(zero, 1.0, norms)[:, None], zero


def _equal_rows(x):
    """A group id per row, shared by rows equal as vectors; None when no two rows are equal."""
    # adding 0.0 turns -0.0 into 0.0, so equal rows have equal bytes
    ids = {}
    group = [ids.setdefault(row.tobytes(), len(ids)) for row in np.ascontiguousarray(x + 0.0)]
    return np.array(group) if len(ids) < len(group) else None


def _diagonal(rows, start=0):
    """Index of the diagonal in a block of rows ``rows`` (a slice) and columns ``start`` on."""
    i = np.arange(rows.stop - rows.start)
    return i, i + (rows.start - start)


def _edge_weights(features, edges, metric) -> np.ndarray:
    """The metric distance between the endpoint rows of each edge.

    Computed from the two rows alone, in blocks of edges, with the
    conventions of :func:`pairwise_distance`; the values agree with its
    entries up to rounding.  A zero-norm row stays a zero row when the rows
    are normalized for cosine, so its edges weigh ``1 - 0 = 1``.
    """
    metric = DistanceMetric(metric)
    x = _feature_rows(features)
    if metric is DistanceMetric.COSINE:
        x, _ = _unit_rows(x)
    w = np.empty(len(edges))
    for block in _row_blocks(len(edges), x.shape[1], _BLOCK):
        a, b = x[edges[block, 0]], x[edges[block, 1]]
        if metric is DistanceMetric.EUCLIDEAN:
            a -= b
            w[block] = np.sqrt(np.einsum("ij,ij->i", a, a))
        elif metric is DistanceMetric.MANHATTAN:
            a -= b
            w[block] = np.abs(a, out=a).sum(axis=1)
        else:
            w[block] = 1.0 - np.einsum("ij,ij->i", a, b)
    if metric is DistanceMetric.COSINE:
        np.clip(w, 0.0, 2.0, out=w)
    return w


def _edge_matrix(n, edges, values) -> csr_matrix:
    """Symmetric CSR over ``n`` nodes holding ``values[e]`` at ``(i, j)`` and ``(j, i)`` of edge row e.

    ``edges`` is an ``(m, 2)`` array of distinct undirected edges in any
    order.  Built from coordinate lists, so the result is canonical (sorted
    indices, no duplicates) and a zero value stays a stored entry.
    """
    row = np.concatenate([edges[:, 0], edges[:, 1]])
    col = np.concatenate([edges[:, 1], edges[:, 0]])
    return csr_matrix((np.concatenate([values, values]), (row, col)), shape=(n, n))


def _edge_weight_graph(g: AttributedGraph, metric) -> csr_matrix:
    """CSR graph whose stored entries are the metric weights of g's edges.

    Zero-weight edges (identical endpoint features) stay stored entries, so
    Dijkstra still crosses them; an edgeless graph stores nothing.
    """
    edges = g.edge_array()
    return _edge_matrix(g.n, edges, _edge_weights(g.features, edges, metric))


def geodesic_distances(
    g: AttributedGraph,
    metric=DistanceMetric.EUCLIDEAN,
    lambda_: float = 10.0,
) -> GeodesicDistanceMatrix:
    """All-pairs shortest-path distances over the graph's edge set.

    Each edge is weighted by the metric distance between its endpoint
    features.  Unconnected pairs get ``lambda_ * max(connected distances)``.
    Runs Dijkstra from every source, with the sources split over the usable
    cores (:func:`_search_rows`), which take each row's connected maximum
    (its largest finite entry) as they go.  The rule's value, known once
    every row is in, is then written in place, and only when the graph is
    disconnected.  An edgeless graph of two or more nodes has no connected
    pairs; it warns, and every distance is 0.
    """
    if not lambda_ > 1.0:
        raise ValueError(f"lambda_ must be > 1, got {lambda_}")
    graph = _edge_weight_graph(g, metric)
    dist = _shared_array((g.n, g.n), np.float64)
    _, row_max = _search_rows(graph, dist, np.arange(g.n), np.full(g.n, np.inf))
    connected_max = float(row_max.max(initial=0.0))
    if g.n > 1 and g.num_edges == 0:
        warnings.warn(
            "graph has no connected pairs; all geodesic distances are 0",
            DegenerateGraphWarning,
        )
    # a disconnected graph leaves every row an unreachable node, row 0's
    # included; every connected distance is at most connected_max, below
    # the rule's value, so the minimum replaces exactly the infinite entries
    if np.isinf(dist[:1]).any():
        np.minimum(dist, lambda_ * connected_max, out=dist)
    np.fill_diagonal(dist, 0.0)
    return GeodesicDistanceMatrix(dist)


def complete_graph_distances(features, metric=DistanceMetric.EUCLIDEAN) -> np.ndarray:
    """Geodesic distances on the complete graph over the feature rows.

    For metrics satisfying the triangle inequality (euclidean, manhattan)
    no multi-hop path can undercut the direct edge, so this is just the
    pairwise distance matrix.  Cosine distance can violate the triangle
    inequality, so shortest paths are computed explicitly, by Floyd–Warshall
    in one process: O(n³), about 1.7 s at n = 1000 and eight times that for
    every doubling of n.  A kNN graph (``knn_k > 0`` in training) avoids it.
    From n = 2048 on, a warning on the ``dmage`` logger says so first.
    """
    metric = DistanceMetric(metric)
    direct = pairwise_distance(features, metric)
    n = direct.shape[0]
    if metric is not DistanceMetric.COSINE or n <= 2:
        return direct
    if n >= _FLOYD_WARSHALL_WARN_N:
        log.warning(
            "cosine distances on the complete graph of %d nodes run Floyd-Warshall, "
            "O(n^3): about %.0f s at %.1f s per 1000^3; knn_k > 0 avoids it",
            n,
            _FLOYD_WARSHALL_S * (n / 1000.0) ** 3,
            _FLOYD_WARSHALL_S,
        )
    # null_value=inf keeps zero-distance pairs as genuine weight-0 edges
    graph = csgraph_from_dense(direct, null_value=np.inf)
    # symmetric as it comes: from a symmetric start, step k relaxes d_ij and
    # d_ji by the same two terms, and leaves row and column k as d_kk = 0
    dist = floyd_warshall(graph, directed=False)
    np.fill_diagonal(dist, 0.0)
    return dist
