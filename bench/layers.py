"""Per-layer metrics: a traced pass over the workload and what it counted.

Times are seconds per operation.  ``<layer>.self.s`` is the layer's self
time (its spans minus their child spans); the nine of them add up to the
time spent inside dmage calls (nearly all of the traced ``wall_s``), and all
but ``evaluation`` to the traced ``train_s``, whose remainder outside every
other layer is ``training.self.s``.
``<layer>.<function>.s`` is the inclusive time of that function's spans.
Counts are per operation too.
"""

from __future__ import annotations

import statistics
from collections import Counter

import numpy as np

import dmage

from tracer import LAYERS, Tracer, call_costs
from workloads import closed_loop

# functions whose inclusive time is reported; each runs on every workload
TIMED = {
    "training.precompute.s": ("training.precompute",),
    "graph.adjacency.s": ("graph.adjacency", "graph.adjacency_from_edges"),
    "graph.hop_neighborhoods.s": ("graph.hop_neighborhoods",),
    "augmentation.augment.s": ("augmentation.augment",),
    "network.forward.s": ("network.forward",),
    "network.backward.s": ("network.backward",),
    "network.aggregation_matrix.s": ("network.aggregation_matrix",),
    "losses.fused_loss.s": ("losses.fused_loss",),
    "evaluation.kmeans.s": ("evaluation.kmeans",),
    "evaluation.edge_scores.s": ("evaluation.edge_scores",),
    "evaluation.auc_ap.s": ("evaluation.auc_ap",),
}
CALLS = {
    "distances.geodesic.calls": ("distances.geodesic_distances",),
    "distances.complete.calls": ("distances.complete_graph_distances",),
    "graph.knn_graph.calls": ("graph.knn_graph",),
    "graph.adjacency.calls": ("graph.adjacency", "graph.adjacency_from_edges"),
    "container.cache_hits": ("container.load_matrix",),
    "container.cache_misses": ("container.save_matrix",),
    "augmentation.augment.calls": ("augmentation.augment",),
    "network.forward.calls": ("network.forward",),
    "losses.fused_loss.calls": ("losses.fused_loss",),
    "evaluation.kmeans.calls": ("evaluation.kmeans",),
    "evaluation.linkpred_split.calls": ("evaluation.linkpred_split",),
}
MATRIX_HEADER_BYTES = 12


class Counts:
    """Observers that turn call arguments and results into work counts."""

    def __init__(self):
        self.n = Counter()
        self._knn_graphs = []

    def observers(self):
        return {
            "similarity.calibrate_all": self._calibrate,
            "graph.knn_graph": self._knn,
            "distances.geodesic_distances": self._geodesic,
            "container.save_matrix": self._save,
            "container.load_matrix": self._load,
            "augmentation.augment": self._augment,
            "network.forward": self._forward,
            "losses.fused_loss": self._fused_loss,
        }

    def _calibrate(self, args, kwargs, result):
        self.n["calibrate.rows"] += len(result.sigma)

    def _knn(self, args, kwargs, result):
        self._knn_graphs.append(result)

    def _geodesic(self, args, kwargs, result):
        g = args[0] if args else kwargs["g"]
        if any(g is k for k in self._knn_graphs):
            self.n["knn.useful"] += 1

    def _save(self, args, kwargs, result):
        matrix = args[1] if len(args) > 1 else kwargs["matrix"]
        self.n["save.bytes"] += np.asarray(matrix).nbytes + MATRIX_HEADER_BYTES

    def _load(self, args, kwargs, result):
        self.n["load.bytes"] += result[0].nbytes + MATRIX_HEADER_BYTES

    def _augment(self, args, kwargs, result):
        self.n["edges_removed"] += len(result.removed)
        self.n["edges_added"] += len(result.added)

    def _forward(self, args, kwargs, result):
        self.n["forward.rows"] += np.asarray(args[0] if args else kwargs["X"]).shape[0]

    def _fused_loss(self, args, kwargs, result):
        batch = args[6] if len(args) > 6 else kwargs.get("batch")
        m = len(batch) if batch is not None else np.asarray(args[2]).shape[0]
        self.n["fused_loss.pairs"] += m * (m - 1) // 2


def traced_loop(workload, count):
    """Repeat ``count`` operations with every layer wrapped."""
    counts = Counts()
    with Tracer(counts.observers()) as tracer:
        ops = closed_loop(workload, count=count)
    return ops, tracer, counts


def collapse_fraction(Z, nu):
    """Share of distinct embedding pairs whose latent kernel exceeds 1/2.

    Above 1/2 the latent similarity ``2k - 2k^2`` falls as k rises, so a
    large share means the embedding has collapsed onto a small region.
    """
    sq = np.sum(Z * Z, axis=1)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * Z @ Z.T, 0.0)
    k = dmage.t_kernel(np.sqrt(d2[np.triu_indices(Z.shape[0], 1)]), nu)
    return float(np.mean(k > 0.5))


def _mean(values):
    values = list(values)
    return statistics.fmean(values) if values else float("nan")


def per_layer(tracer, counts, traced, nu_latent):
    """The per-layer metrics of one traced run, per operation."""
    ops = len(traced)
    good = [op for op in traced if op.failure is None]
    inclusive, own = tracer.summary()
    calls, n = tracer.calls, counts.n
    out = {f"{layer}.self.s": (own[layer] / ops, "s") for layer in LAYERS}
    for name, quals in TIMED.items():
        out[name] = (sum(inclusive[q] for q in quals) / ops, "s")
    for name, quals in CALLS.items():
        out[name] = (sum(calls[q] for q in quals) / ops, "count")
    span_cost, count_cost = call_costs()
    spanned, total_calls = len(tracer.spans), sum(calls.values())
    hits, misses = calls["container.load_matrix"], calls["container.save_matrix"]
    builds = calls["graph.knn_graph"]
    out.update(
        {
            "similarity.calibrate.rows": (n["calibrate.rows"] / ops, "count"),
            "similarity.calibration_warnings": (
                sum(op.calibration_warnings for op in traced) / ops,
                "count",
            ),
            "graph.knn_useful_ratio": (n["knn.useful"] / builds if builds else 0.0, "ratio"),
            "container.save.bytes": (n["save.bytes"] / ops, "B"),
            "container.load.bytes": (n["load.bytes"] / ops, "B"),
            "container.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
            "augmentation.edges_removed": (n["edges_removed"] / ops, "count"),
            "augmentation.edges_added": (n["edges_added"] / ops, "count"),
            "network.forward.rows": (n["forward.rows"] / ops, "count"),
            "losses.fused_loss.pairs": (n["fused_loss.pairs"] / ops, "count"),
            "training.collapse_frac": (
                _mean(collapse_fraction(op.embeddings, nu_latent) for op in good),
                "ratio",
            ),
            "evaluation.nmi": (_mean(op.quality["nmi"] for op in good), "ratio"),
            "evaluation.f1": (_mean(op.quality["f1"] for op in good), "ratio"),
            "trace.train_s": (statistics.fmean(op.train_s for op in traced), "s"),
            "trace.overhead_s": (
                (spanned * span_cost + (total_calls - spanned) * count_cost) / ops,
                "s",
            ),
            "trace.spans": (spanned / ops, "count"),
        }
    )
    return {name: {"value": float(v), "unit": unit} for name, (v, unit) in out.items()}
