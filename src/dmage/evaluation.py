"""Downstream evaluation: k-means clustering and link prediction.

Clustering runs Lloyd's algorithm with k-means++ seeding on the embedding
and scores the assignment against ground-truth labels with ACC (after
Hungarian cluster-to-label matching), NMI (arithmetic normalization), and
macro F1 over the matched classes.  The matching is a port of scipy's
rectangular linear-sum-assignment solver with its tie rules, so it picks the
matching ``scipy.optimize.linear_sum_assignment`` picks; AUC ranks the scores
with ties sharing their mean rank, as ``scipy.stats.rankdata`` does.  Neither
scipy module is imported: each would load most of scipy into every process.

The restarts of one ``kmeans`` call run in lockstep, so each Lloyd iteration
reads the embedding once for the distances and once for the means of every
live restart.  Each restart keeps what it computes alone, bit for bit: its
k-means++ seeding, the squared distance formula, means summed in index
order, and its own re-seeding, cycle, cap and convergence rules.  The one
caveat is BLAS: a restart's columns of the stacked product must have the
bits of its own width-k product, or bits that change no choice the restart
makes (see :func:`kmeans`).

Link prediction holds out edge sets, retrains on the remaining graph,
scores held-out pairs from the embedding, and reports AUC and average
precision.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csc_array

from .container import atomic_write_text
from .graph import AttributedGraph
from .similarity import t_kernel
from .training import TrainConfig, train

__all__ = [
    "ClusteringReport",
    "LinkPredSplit",
    "LinkPredReport",
    "kmeans",
    "clustering_metrics",
    "cluster_eval",
    "linkpred_split",
    "edge_scores",
    "auc_ap",
    "linkpred_eval",
    "write_split",
    "write_report",
]

KMEANS_MAX_ITER = 300
VAL_FRACTION = 0.05
TEST_FRACTION = 0.10


@dataclass(frozen=True)
class ClusteringReport:
    acc: float
    nmi: float
    f1: float
    seed: int
    assignment: np.ndarray


@dataclass(frozen=True)
class LinkPredSplit:
    """Disjoint edge holdout plus matched negative (non-edge) samples."""

    train_edges: frozenset
    val_edges: frozenset
    test_edges: frozenset
    val_negatives: frozenset
    test_negatives: frozenset
    seed: int


@dataclass(frozen=True)
class LinkPredReport:
    auc: float
    ap: float
    seed: int


def _sq_dists_to(Z, z2, centers):
    """(n, m) squared Euclidean distances to m centers; z2 holds the squared norms of Z's rows.

    Taken in place as ``max(-2 Z·c + z2 + |c|², 0)``, the bits of
    ``max(z2 - 2 Z·c + |c|², 0)``: the sum and difference round alike.
    """
    d2 = Z @ centers.T
    d2 *= -2.0
    d2 += z2[:, None]
    d2 += (centers * centers).sum(axis=1)
    np.maximum(d2, 0.0, out=d2)
    return d2


def _plus_plus_init(Z, z2, k, rng):
    n = Z.shape[0]
    centers = np.empty((k, Z.shape[1]))
    centers[0] = Z[rng.integers(n)]
    closest = _sq_dists_to(Z, z2, centers[:1]).ravel()
    for c in range(1, k):
        total = closest.sum()
        if total <= 0:
            centers[c] = Z[rng.integers(n)]
        else:
            centers[c] = Z[rng.choice(n, p=closest / total)]
        closest = np.minimum(closest, _sq_dists_to(Z, z2, centers[c : c + 1]).ravel())
    return centers


def _means(Z, assign, counts):
    """Every restart's cluster means: ``[l, c]`` is ``Z[assign[:, l] == c].mean(axis=0)`` exactly.

    ``assign`` holds one column of cluster ids per restart and ``counts``
    (restarts, k) each cluster's size, none of them 0.  Column j of a CSC
    product holds point j's (restart, cluster) rows, so one pass over ``Z``
    adds each cluster's members in index order, starting from 0, as numpy's
    mean over the rows of a selection with more than one column does (with
    one column numpy sums pairwise instead).
    """
    n, runs = assign.shape
    k = counts.shape[1]
    rows = (assign + np.arange(runs) * k).ravel()
    indptr = np.arange(0, n * runs + 1, runs)
    members = csc_array((np.ones(n * runs), rows, indptr), shape=(runs * k, n))
    centers = members @ Z
    centers /= counts.reshape(-1, 1)
    return centers.reshape(runs, k, -1)


def _masked_means(Z, centers, assign, d2):
    """One restart's means cluster by cluster, re-seeding empty clusters; True if one was.

    An empty cluster is re-seeded at the point farthest from its center,
    which moves that point into it.  ``centers`` and ``assign`` are updated
    in place; ``d2`` holds the restart's (n, k) squared distances.
    """
    point_d2 = None  # taken before the first re-seed changes assign, and only if one is needed
    for c in range(centers.shape[0]):
        members = assign == c
        if members.any():
            centers[c] = Z[members].mean(axis=0)
        else:
            if point_d2 is None:
                point_d2 = d2[np.arange(Z.shape[0]), assign]
            far = point_d2.argmax()
            centers[c] = Z[far]
            assign[far] = c
            point_d2[far] = 0.0
    return point_d2 is not None


def kmeans(Z, k: int, seed: int = 0, restarts: int = 10) -> np.ndarray:
    """Best-of-``restarts`` Lloyd clustering, deterministic given the seed.

    Restart r is seeded by k-means++ from ``default_rng([seed, r])`` and runs
    at most ``KMEANS_MAX_ITER`` iterations; the lowest inertia wins, the
    first in restart order on a tie.  The restarts run in lockstep: each
    iteration takes one product of ``Z`` with the stacked centers of every
    live restart, then one pass over ``Z`` for the means of all restarts
    with no empty cluster (:func:`_means`).  A restart with an empty
    cluster, or any restart of a one-column ``Z``, takes its means cluster
    by cluster and re-seeds the empty ones from its own distances.  A
    restart leaves the lockstep when its assignment stops changing or it
    reaches its cap.

    With fewer distinct points than clusters, re-seeding can move a point
    from one equal center to another in every iteration, so a restart's
    state after a re-seeding iteration repeats and its iterations cycle.
    Its state at the cap is then the one a whole number of periods on, so
    it runs only to that state.

    Each restart's assignment is bit for bit the one it gets run alone
    wherever BLAS gives its columns of the stacked product the bits of its
    own width-k product, or bits that change no choice it makes.  OpenBLAS
    gave the same bits at every width from 7 to 70 (10 restarts of 7
    clusters), but not in every block at 210.  The tests compare whole
    results with the restarts run one at a time at stacked widths up to 70
    and, for 7 clusters, at 210 and 280 (30 and 40 restarts).

    Raises ``ValueError`` when ``k`` is outside [1, n], ``restarts`` is below
    1 or ``Z`` holds a value that is not finite.
    """
    Z = np.asarray(Z, dtype=np.float64)
    if not 1 <= k <= Z.shape[0]:
        raise ValueError(f"k must be in [1, {Z.shape[0]}], got {k}")
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    bad = Z.size - np.count_nonzero(np.isfinite(Z))
    if bad:
        raise ValueError(f"Z holds {bad} non-finite entries")
    n, dim = Z.shape
    z2 = (Z * Z).sum(axis=1)
    centers = np.stack(
        [_plus_plus_init(Z, z2, k, np.random.default_rng([seed, r])) for r in range(restarts)]
    )
    assign = np.full((n, restarts), -1)
    inertia = np.empty(restarts)
    seen = [{} for _ in range(restarts)]
    stop = np.full(restarts, KMEANS_MAX_ITER)
    live = np.arange(restarts)
    it = 0
    while live.size:
        d2 = _sq_dists_to(Z, z2, centers[live].reshape(-1, dim)).reshape(n, live.size, k)
        new_assign = d2.argmin(axis=2)
        rows = (new_assign + np.arange(live.size) * k).ravel()
        counts = np.bincount(rows, minlength=live.size * k).reshape(live.size, k)
        full = counts.all(axis=1) & (dim > 1)  # no empty cluster to re-seed
        if full.any():
            centers[live[full]] = _means(Z, new_assign[:, full], counts[full])
        reseeded = np.zeros(live.size, dtype=bool)
        for l in np.flatnonzero(~full):
            reseeded[l] = _masked_means(Z, centers[live[l]], new_assign[:, l], d2[:, l])
        changed = (new_assign != assign[:, live]).any(axis=0)
        assign[:, live] = new_assign
        for l in np.flatnonzero(changed & reseeded):
            r = live[l]
            if stop[r] == KMEANS_MAX_ITER:
                state = hashlib.blake2b(
                    centers[r].tobytes() + assign[:, r].tobytes(), digest_size=16
                ).digest()
                if state in seen[r]:
                    stop[r] = it + 1 + (KMEANS_MAX_ITER - 1 - it) % (it - seen[r][state])
                seen[r][state] = it
        it += 1
        leaving = ~changed | (it >= stop[live])
        for r in live[leaving]:
            inertia[r] = _sq_dists_to(Z, z2, centers[r])[np.arange(n), assign[:, r]].sum()
        live = live[~leaving]
    return assign[:, int(np.argmin(inertia))].copy()


def _contingency(pred, truth):
    """Counts of points per (cluster, class), both in sorted order of their ids."""
    clusters, cluster_of = np.unique(pred, return_inverse=True)
    classes, class_of = np.unique(truth, return_inverse=True)
    table = np.zeros((clusters.size, classes.size), dtype=np.int64)
    np.add.at(table, (cluster_of, class_of), 1)
    return table


def _entropy(counts):
    p = counts[counts > 0] / counts.sum()
    return float(-(p * np.log(p)).sum())


def _nmi(table):
    n = table.sum()
    h_pred = _entropy(table.sum(axis=1))
    h_true = _entropy(table.sum(axis=0))
    if h_pred == 0.0 and h_true == 0.0:
        return 1.0
    outer = np.outer(table.sum(axis=1), table.sum(axis=0)).astype(np.float64)
    nz = table > 0
    mi = float((table[nz] / n * np.log(n * table[nz] / outer[nz])).sum())
    denom = 0.5 * (h_pred + h_true)
    return mi / denom if denom > 0 else 0.0


def _macro_f1(table, rows, cols):
    """Mean F1 over the classes, each against the cluster matched to it.

    Class ``cols[i]`` is matched to cluster ``rows[i]``: its true positives
    are ``table[rows[i], cols[i]]``, its false positives the cluster's other
    points and its false negatives the class's other points.  An unmatched
    class (more classes than clusters) has no true or false positives.
    """
    tp = np.zeros(table.shape[1], dtype=np.int64)
    fp = np.zeros_like(tp)
    tp[cols] = table[rows, cols]
    fp[cols] = table.sum(axis=1)[rows] - tp[cols]
    fn = table.sum(axis=0) - tp
    # every class has a point, so tp + fn > 0
    return float(np.mean(2 * tp / (2 * tp + fp + fn)))


def _shortest_augmenting_path(cost, u, v, path, row4col, i):
    """Crouse's shortest path from free row ``i`` to a free column; fills ``path`` in place.

    Returns the sink column, the path's reduced cost, every column's
    shortest-path cost and the masks of the rows and columns visited.  The
    unvisited columns are scanned from the last one down, and the next column
    visited is a free one among the cheapest if there is one (the last such in
    scan order), else the first of the cheapest; a visited column leaves the
    scan by swapping the last unvisited one into its place.
    """
    nr, nc = cost.shape
    remaining = np.arange(nc - 1, -1, -1)
    spc = np.full(nc, np.inf)
    rows_seen = np.zeros(nr, dtype=bool)
    cols_seen = np.zeros(nc, dtype=bool)
    min_val = 0.0
    while True:
        rows_seen[i] = True
        r = min_val + cost[i, remaining] - u[i] - v[remaining]
        better = r < spc[remaining]
        path[remaining[better]] = i
        spc[remaining[better]] = r[better]
        reach = spc[remaining]
        min_val = reach.min()
        cheapest = np.flatnonzero(reach == min_val)
        free = cheapest[row4col[remaining[cheapest]] == -1]
        index = free[-1] if free.size else cheapest[0]
        j = remaining[index]
        cols_seen[j] = True
        if row4col[j] == -1:
            return j, min_val, spc, rows_seen, cols_seen
        i = row4col[j]
        remaining[index] = remaining[-1]
        remaining = remaining[:-1]


def _linear_sum_assignment(cost):
    """Minimum-cost matching ``(rows, cols)`` of a finite cost table, as scipy's ``linear_sum_assignment``.

    A port of scipy's rectangular solver, Crouse's shortest augmenting path
    (IEEE TAES, 2016), with its tie rules (see
    :func:`_shortest_augmenting_path`), so that it picks the same matching
    where several cost the same.  A table with more rows than columns is
    solved transposed and its pairs are sorted back by row.
    """
    cost = np.asarray(cost, dtype=np.float64)
    transpose = cost.shape[1] < cost.shape[0]
    if transpose:
        cost = cost.T
    nr, nc = cost.shape
    u = np.zeros(nr)
    v = np.zeros(nc)
    path = np.full(nc, -1)
    col4row = np.full(nr, -1)
    row4col = np.full(nc, -1)
    for row in range(nr):
        sink, min_val, spc, rows_seen, cols_seen = _shortest_augmenting_path(
            cost, u, v, path, row4col, row
        )
        # dual update, then flip the assignments along the path from the sink back to row
        u[row] += min_val
        rows_seen[row] = False
        u[rows_seen] += min_val - spc[col4row[rows_seen]]
        v[cols_seen] -= min_val - spc[cols_seen]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == row:
                break
    if transpose:
        order = np.argsort(col4row)
        return col4row[order], order
    return np.arange(nr), col4row


def clustering_metrics(pred, truth, seed: int = 0) -> ClusteringReport:
    """Score a cluster assignment against labels; ACC and macro F1 use Hungarian matching."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise ValueError("pred and truth must be equal-length vectors")
    if pred.size < 2:
        raise ValueError("need at least 2 points to score a clustering")
    table = _contingency(pred, truth)
    rows, cols = _linear_sum_assignment(-table)
    acc = float(table[rows, cols].sum() / pred.size)
    return ClusteringReport(acc, _nmi(table), _macro_f1(table, rows, cols), seed, pred)


def cluster_eval(Z, labels, seeds, restarts: int = 10):
    """k-means per seed on fixed embeddings; returns per-seed reports."""
    labels = np.asarray(labels)
    k = np.unique(labels).size
    return [clustering_metrics(kmeans(Z, k, seed, restarts), labels, seed) for seed in seeds]


def _split_sizes(g: AttributedGraph):
    """Held-out validation and test edge counts; ``ValueError`` if ``g`` is too small to split."""
    m = g.num_edges
    if m < 20:
        raise ValueError(f"need at least 20 edges to split, got {m}")
    n_val = int(m * VAL_FRACTION)
    n_test = int(m * TEST_FRACTION)
    if g.n * (g.n - 1) // 2 - m < n_val + n_test:
        raise ValueError("not enough non-edges to sample negatives")
    return n_val, n_test


def linkpred_split(g: AttributedGraph, seed: int = 0) -> LinkPredSplit:
    """Hold out 5% of edges for validation and 10% for testing.

    Negatives are non-edges sampled uniformly without replacement, one per
    held-out positive, split disjointly between validation and test.
    """
    m = g.num_edges
    n_val, n_test = _split_sizes(g)
    rng = np.random.default_rng(seed)
    edges = g.edge_array()
    order = rng.permutation(m)
    val = edges[order[:n_val]]
    test = edges[order[n_val : n_val + n_test]]
    rest = edges[order[n_val + n_test :]]

    negatives = set()
    while len(negatives) < n_val + n_test:
        i, j = int(rng.integers(g.n)), int(rng.integers(g.n))
        if i == j:
            continue
        pair = (i, j) if i < j else (j, i)
        if pair in g.edges or pair in negatives:
            continue
        negatives.add(pair)
    negatives = sorted(negatives)
    rng.shuffle(negatives)
    val_neg = frozenset(negatives[:n_val])
    test_neg = frozenset(negatives[n_val : n_val + n_test])

    as_set = lambda arr: frozenset(map(tuple, arr))
    return LinkPredSplit(as_set(rest), as_set(val), as_set(test), val_neg, test_neg, seed)


def edge_scores(Z, pairs, scorer: str = "t_kernel", nu: float = 1.0) -> np.ndarray:
    """Score candidate edges from latent rows; higher means more likely an edge.

    The score is the latent kernel of the endpoint distance, the model's own
    edge similarity; ``scorer`` accepts only "t_kernel".
    """
    if scorer != "t_kernel":
        raise ValueError(f"unknown scorer {scorer!r}; edges are scored with 't_kernel'")
    Z = np.asarray(Z, dtype=np.float64)
    pairs = np.asarray(list(pairs) if not isinstance(pairs, np.ndarray) else pairs)
    if pairs.size == 0:
        return np.empty(0)
    return t_kernel(np.linalg.norm(Z[pairs[:, 0]] - Z[pairs[:, 1]], axis=1), nu)


def _average_ranks(x):
    """1-based ranks of ``x``, tied values sharing their mean rank; all NaN if ``x`` holds a NaN.

    These are ``scipy.stats.rankdata``'s default ranks, bit for bit: each is
    a whole or half number.
    """
    if np.isnan(x).any():
        return np.full(x.size, np.nan)
    order = np.argsort(x, kind="stable")
    xs = x[order]
    first = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
    counts = np.diff(np.append(first, x.size))
    ranks = np.empty(x.size)
    ranks[order] = np.repeat(first + (counts + 1) / 2, counts)
    return ranks


def auc_ap(scores_pos, scores_neg):
    """AUC (rank statistic, ties count half) and average precision."""
    pos = np.asarray(scores_pos, dtype=np.float64)
    neg = np.asarray(scores_neg, dtype=np.float64)
    if pos.size == 0 or neg.size == 0:
        raise ValueError("need at least one positive and one negative score")
    scores = np.concatenate([pos, neg])
    ranks = _average_ranks(scores)
    auc = (ranks[: pos.size].sum() - pos.size * (pos.size + 1) / 2.0) / (pos.size * neg.size)

    # average precision: step through descending score thresholds, tied
    # scores enter together
    labels = np.concatenate([np.ones(pos.size, bool), np.zeros(neg.size, bool)])
    order = np.argsort(-scores, kind="stable")
    scores, labels = scores[order], labels[order]
    boundaries = np.flatnonzero(np.diff(scores)) + 1
    tp = np.cumsum(labels)[np.append(boundaries - 1, labels.size - 1)]
    count = np.append(boundaries - 1, labels.size - 1) + 1
    precision = tp / count
    recall = tp / pos.size
    recall_prev = np.concatenate([[0.0], recall[:-1]])
    ap = float(np.sum((recall - recall_prev) * precision))
    return float(auc), ap


def linkpred_eval(
    g: AttributedGraph,
    cfg: TrainConfig,
    seeds,
    cache_dir=None,
    split_dir=None,
):
    """Re-train on the split graph per seed and score held-out pairs.

    Returns ``(reports, splits)``; if ``split_dir`` is given each split is
    persisted there as edge-list files.
    """
    reports, splits = [], []
    for seed in seeds:
        split = linkpred_split(g, seed)
        g_train = g.with_edges(split.train_edges)
        result = train(g_train, dataclasses.replace(cfg, seed=seed), cache_dir)
        s_pos = edge_scores(result.embeddings, split.test_edges, nu=cfg.nu_latent)
        s_neg = edge_scores(result.embeddings, split.test_negatives, nu=cfg.nu_latent)
        auc, ap = auc_ap(s_pos, s_neg)
        reports.append(LinkPredReport(auc, ap, seed))
        splits.append(split)
        if split_dir is not None:
            write_split(os.path.join(split_dir, f"split-seed{seed}"), split)
    return reports, splits


def _write_edge_list(path, edges):
    lines = [f"{i}\t{j}" for i, j in sorted(edges)]
    atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))


def write_split(directory, split: LinkPredSplit):
    """Persist a split as five edge-list files for reproducibility."""
    os.makedirs(directory, exist_ok=True)
    _write_edge_list(os.path.join(directory, "train_edges.tsv"), split.train_edges)
    _write_edge_list(os.path.join(directory, "val_edges.tsv"), split.val_edges)
    _write_edge_list(os.path.join(directory, "test_edges.tsv"), split.test_edges)
    _write_edge_list(os.path.join(directory, "val_negatives.tsv"), split.val_negatives)
    _write_edge_list(os.path.join(directory, "test_negatives.tsv"), split.test_negatives)


def write_report(path, task: str, rows: list, extra: dict | None = None):
    """Serialize per-seed metric rows plus mean/std as a JSON document."""
    payload = {"task": task, "rows": rows}
    if rows:
        keys = [k for k in rows[0] if k != "seed"]
        payload["mean"] = {k: float(np.mean([r[k] for r in rows])) for k in keys}
        payload["std"] = {k: float(np.std([r[k] for r in rows])) for k in keys}
    if extra:
        payload.update(extra)
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
