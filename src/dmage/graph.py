"""Attributed-graph data model, file ingestion and the array graph core.

An attributed graph is a set of ``n`` nodes carrying feature vectors, an
undirected edge set stored as ``(i, j)`` pairs with ``i < j``, and optional
integer class labels.  The frozenset ``edges`` is the graph's identity; all
computation uses its canonical form, the sorted read-only ``(m, 2)`` int64
array from :meth:`AttributedGraph.edge_array`, built once on first use.  Every
adjacency is a canonical ``scipy.sparse`` CSR (0/1 float64, symmetric, sorted
indices, no duplicates) built from such an array, and the hop-2 pairs that
augmentation samples are a sorted ``(h, 2)`` array read off ``A @ A``.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .container import atomic_write_text
from .distances import DistanceMetric, _row_blocks, pairwise_distance

__all__ = [
    "DistanceMetric",
    "AttributedGraph",
    "GraphFormatError",
    "load_graph",
    "adjacency",
    "adjacency_from_edges",
    "hop_neighborhoods",
    "knn_graph",
    "normalize_edges",
]


class GraphFormatError(ValueError):
    """Raised when a graph input file is malformed or inconsistent."""


def normalize_edges(pairs) -> frozenset:
    """Canonicalize an iterable of node pairs into an undirected edge set.

    Pairs are sorted so each edge is stored once as ``(min, max)``; duplicates
    (including reversed duplicates) collapse.  Self-loops are rejected.
    """
    edges = set()
    for i, j in pairs:
        i, j = int(i), int(j)
        if i == j:
            raise GraphFormatError(f"self-loop ({i}, {j}) is not allowed")
        edges.add((i, j) if i < j else (j, i))
    return frozenset(edges)


@dataclass(frozen=True)
class AttributedGraph:
    """Undirected graph with node features and optional class labels.

    Parameters
    ----------
    n: number of nodes; node ids are dense integers ``0 .. n-1``.
    edges: frozenset of ``(i, j)`` pairs with ``i < j``.
    features: float array of shape ``(n, d)``.
    labels: optional int array of length ``n`` with contiguous class ids
        starting at 0.
    """

    n: int
    edges: frozenset
    features: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "features", np.asarray(self.features, dtype=np.float64))
        if self.features.ndim != 2 or self.features.shape[0] != self.n:
            raise GraphFormatError(
                f"features must be (n, d) with n={self.n}, got {self.features.shape}"
            )
        for i, j in self.edges:
            if not (0 <= i < j < self.n):
                raise GraphFormatError(f"edge ({i}, {j}) out of range for n={self.n}")
        if self.labels is not None:
            labels = np.asarray(self.labels, dtype=np.int64)
            object.__setattr__(self, "labels", labels)
            if labels.shape != (self.n,):
                raise GraphFormatError(
                    f"labels must have length n={self.n}, got {labels.shape}"
                )
            classes = np.unique(labels)
            if classes[0] != 0 or classes[-1] != len(classes) - 1:
                raise GraphFormatError(
                    "class ids must be contiguous integers starting at 0, "
                    f"got {classes.tolist()}"
                )

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def num_classes(self) -> int:
        if self.labels is None:
            raise ValueError("graph has no labels")
        return int(self.labels.max()) + 1

    def edge_array(self) -> np.ndarray:
        """Edges as a read-only ``(m, 2)`` int64 array in sorted order."""
        return self._edge_array

    @functools.cached_property
    def _edge_array(self) -> np.ndarray:
        # built on first use, so constructing a graph costs no more than the
        # range check; since 0 <= i < j < n, the key i*n + j sorts rows as
        # sorted(edges) does
        m = len(self.edges)
        edges = np.fromiter(itertools.chain.from_iterable(self.edges), np.int64, count=2 * m)
        edges = edges.reshape(m, 2)
        edges = edges[np.argsort(edges[:, 0] * self.n + edges[:, 1])]
        edges.flags.writeable = False
        return edges

    def with_edges(self, edges) -> "AttributedGraph":
        """Copy of this graph with a different edge set (features/labels shared)."""
        return AttributedGraph(self.n, normalize_edges(edges), self.features, self.labels)


def _parse_edge_file(path: Path):
    edges = set()
    max_id = -1
    ids = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 2:
                raise GraphFormatError(
                    f"{path}:{lineno}: expected two node ids, got {line.strip()!r}"
                )
            try:
                i, j = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise GraphFormatError(
                    f"{path}:{lineno}: non-integer node id in {line.strip()!r}"
                ) from exc
            if i == j:
                raise GraphFormatError(f"{path}:{lineno}: self-loop {i}-{j}")
            if i < 0 or j < 0:
                raise GraphFormatError(f"{path}:{lineno}: negative node id")
            edges.add((i, j) if i < j else (j, i))
            ids.update((i, j))
            max_id = max(max_id, i, j)
    return edges, ids, max_id


def _parse_dense_features(path: Path) -> np.ndarray:
    rows, linenos = [], []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            try:
                row = [float(p) for p in parts]
            except ValueError as exc:
                raise GraphFormatError(f"{path}:{lineno}: non-numeric feature value") from exc
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise GraphFormatError(
                    f"{path}:{lineno}: expected {width} values, got {len(row)}"
                )
            rows.append(row)
            linenos.append(lineno)
    if not rows:
        raise GraphFormatError(f"{path}: empty feature file")
    features = np.array(rows, dtype=np.float64)
    finite = np.isfinite(features).all(axis=1)
    if not finite.all():
        raise GraphFormatError(f"{path}:{linenos[np.argmin(finite)]}: non-finite feature value")
    return features


def _parse_label_file(path: Path) -> np.ndarray:
    labels = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            s = line.strip()
            if not s:
                continue
            try:
                labels.append(int(s))
            except ValueError as exc:
                raise GraphFormatError(f"{path}:{lineno}: non-integer label {s!r}") from exc
    return np.array(labels, dtype=np.int64)


def load_graph(edge_path, feature_path, label_path=None, id_map_path=None) -> AttributedGraph:
    """Load an attributed graph from plain text files.

    The edge file holds one edge per line as two whitespace-separated node
    ids; duplicate and reversed lines collapse to one undirected edge and
    self-loops are rejected.  The feature file is a dense whitespace-separated
    matrix, one node per line in node-id order; a path ending in ``.coo``,
    the retired sparse ``i j value`` triplet format, raises
    :class:`GraphFormatError` rather than being read as 3-column rows, as
    does a value that is not finite (``nan``, ``inf``), naming its line.  The
    optional label file holds one integer class id per line.

    When the feature file has at least largest id + 1 rows, node ids are
    row indices and ``n`` is the number of rows, so nodes without edges
    (anywhere in the id range) load.  Otherwise the ids are remapped in
    ascending order to ``0 .. n-1``, which needs exactly one feature row per
    distinct id; the mapping is written to ``id_map_path`` when given, and
    feature and label rows are indexed by the remapped id.
    """
    edge_path, feature_path = Path(edge_path), Path(feature_path)
    if feature_path.suffix == ".coo":
        raise GraphFormatError(
            f"{feature_path}: the sparse '.coo' triplet format is no longer read; "
            "write one dense feature row per node"
        )
    edges, ids, max_id = _parse_edge_file(edge_path)
    features = _parse_dense_features(feature_path)

    n_nodes = features.shape[0]
    if n_nodes < max_id + 1:
        if n_nodes != len(ids):
            raise GraphFormatError(
                f"{feature_path}: {n_nodes} feature rows, but the edge file has "
                f"{len(ids)} distinct node ids and its largest id is {max_id}"
            )
        id_map = {orig: k for k, orig in enumerate(sorted(ids))}
        edges = {(id_map[i], id_map[j]) for i, j in edges}
        edges = {(i, j) if i < j else (j, i) for i, j in edges}
        if id_map_path is not None:
            atomic_write_text(
                id_map_path, "".join(f"{orig}\t{dense}\n" for orig, dense in sorted(id_map.items()))
            )

    labels = None
    if label_path is not None:
        labels = _parse_label_file(Path(label_path))
        if len(labels) != n_nodes:
            raise GraphFormatError(
                f"{label_path}: {len(labels)} labels for {n_nodes} nodes"
            )
        if labels.min(initial=0) < 0:
            raise GraphFormatError(f"{label_path}: negative label")

    return AttributedGraph(n_nodes, frozenset(edges), features, labels)


def adjacency(g: AttributedGraph) -> sp.csr_matrix:
    """Symmetric 0/1 adjacency CSR of ``g`` with zero diagonal."""
    return adjacency_from_edges(g.n, g.edge_array())


def adjacency_from_edges(n: int, edges) -> sp.csr_matrix:
    """Symmetric 0/1 float64 CSR over ``n`` nodes from an ``(m, 2)`` edge array.

    Rows may come in any order but must be distinct undirected edges; the
    result has sorted indices and no duplicate entries.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    row = np.concatenate([edges[:, 0], edges[:, 1]])
    col = np.concatenate([edges[:, 1], edges[:, 0]])
    a = sp.csr_matrix((np.ones(row.size), (row, col)), shape=(n, n))
    a.sort_indices()
    return a


def hop_neighborhoods(g: AttributedGraph) -> np.ndarray:
    """Sorted ``(h, 2)`` int64 array of the pairs ``i < j`` at distance exactly 2.

    A pair qualifies iff it is joined by a path of two edges but is not
    itself an edge: the pattern of ``A @ A`` minus ``A`` and the diagonal.
    """
    a = adjacency(g)
    reach = sp.triu(a @ a, k=1, format="csr")
    reach = (reach - reach.multiply(a)).tocsr()
    reach.eliminate_zeros()
    reach.sort_indices()
    pairs = reach.tocoo()
    return np.column_stack([pairs.row, pairs.col]).astype(np.int64)


def knn_graph(features, k: int, metric=DistanceMetric.EUCLIDEAN) -> AttributedGraph:
    """Union-symmetrized k-nearest-neighbor graph over feature rows.

    An edge (i, j) exists iff j is among the k nearest neighbors of i or
    vice versa.  Distance ties break toward the smaller node index, so the
    result is deterministic even for degenerate (all-identical) inputs.
    """
    n = len(features)
    if not 1 <= k < n:
        raise ValueError(f"k must be in [1, n), got k={k}, n={n}")

    dist = pairwise_distance(features, metric)
    np.fill_diagonal(dist, np.inf)
    # row i takes every distance below its k-th smallest, then the
    # smallest-index columns at exactly that distance until it has k
    rows, cols = [], []
    for b in _row_blocks(n, n, 1 << 20):
        a, block = b.start, dist[b]
        kth = np.partition(block, k - 1, axis=1)[:, k - 1 : k]
        below = block < kth
        bi, bj = np.nonzero(below)
        ti, tj = np.nonzero(block == kth)
        rank = np.arange(ti.size) - np.searchsorted(ti, ti)
        take = rank < (k - below.sum(axis=1))[ti]
        rows += [bi + a, ti[take] + a]
        cols += [bj, tj[take]]
    i, j = np.concatenate(rows), np.concatenate(cols)
    lo, hi = np.divmod(np.unique(np.minimum(i, j) * n + np.maximum(i, j)), n)
    # one int object per node, shared by all its edges, and no temporary int
    # lists: the set takes no more memory than one built pair by pair
    ids = list(range(n))
    edges = frozenset(zip(map(ids.__getitem__, lo), map(ids.__getitem__, hi)))
    return AttributedGraph(n, edges, features, None)
