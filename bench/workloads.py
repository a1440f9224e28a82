"""The benchmark's workloads: inputs, one operation, the loop, and output checks.

One operation is one ``train`` call plus the evaluation of its embedding.
Every workload is deterministic given its seed, so operations of a run that
see the same inputs must return byte-identical embeddings.
"""

from __future__ import annotations

import dataclasses
import shutil
import statistics
import tempfile
import time
import warnings

import numpy as np

import dmage
from dmage.cli import PRESETS

import graphs

KMEANS_SEEDS = (0, 1, 2)
# cold: precompute is most of train; warm: the epochs are most of train
CORA_COLD_EPOCHS = 2
CORA_WARM_EPOCHS = 4
LINKPRED_EPOCHS = 12
LINKPRED_SEEDS = 3


@dataclasses.dataclass
class Op:
    """Outcome of one operation; ``failure`` is None when every check passed."""

    train_s: float = 0.0
    wall_s: float = 0.0
    embeddings: np.ndarray | None = None
    loss_final: float = float("nan")
    quality: dict = dataclasses.field(default_factory=dict)
    calibration_warnings: int = 0
    failure: str | None = None


def _check_result(result, n, latent_dim):
    """Why a train result is unusable, or None."""
    Z = result.embeddings
    if Z.shape != (n, latent_dim):
        return f"embedding shape {Z.shape}, expected {(n, latent_dim)}"
    if not np.isfinite(Z).all():
        return "non-finite embedding"
    if not all(np.isfinite(t.total) for t in result.loss_history):
        return "non-finite loss"
    return None


def _timed_train(op, g, cfg, cache):
    """``dmage.train`` timed into ``op``; returns the embedding, or None on a failed check."""
    t0 = time.perf_counter()
    result = dmage.train(g, cfg, cache)
    op.train_s = time.perf_counter() - t0
    op.failure = _check_result(result, g.n, cfg.latent_dim)
    if op.failure:
        return None
    op.embeddings, op.loss_final = result.embeddings, float(result.loss_history[-1].total)
    return result.embeddings


def _evaluate(op, Z, labels, pos, neg, nu):
    """Cluster quality (medians over the k-means seeds) and edge-score AUC/AP."""
    reports = dmage.cluster_eval(Z, labels, KMEANS_SEEDS)
    auc, ap = dmage.auc_ap(
        dmage.edge_scores(Z, pos, "t_kernel", nu),
        dmage.edge_scores(Z, neg, "t_kernel", nu),
    )
    op.quality = {
        "acc": statistics.median(r.acc for r in reports),
        "nmi": statistics.median(r.nmi for r in reports),
        "f1": statistics.median(r.f1 for r in reports),
        "auc": auc,
        "ap": ap,
        "loss_final": op.loss_final,
    }


def _run_op(body):
    """Run ``body(op)`` timed and under a warnings recorder; exceptions fail the op."""
    op = Op()
    t0 = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            body(op)
        except Exception as e:  # an operation that raises is counted as failed
            op.failure = f"{type(e).__name__}: {e}"
    op.wall_s = time.perf_counter() - t0
    op.calibration_warnings = sum(issubclass(w.category, dmage.CalibrationWarning) for w in caught)
    return op


def _same_graph(a, b):
    return (
        a.edges == b.edges
        and np.array_equal(a.features, b.features)
        and np.array_equal(a.labels, b.labels)
    )


class Workload:
    """Inputs from the seed, then ``operation(i)`` for i = 0, 1, ... in a closed loop.

    The inputs are generated again before every operation, outside its
    timing: each generation must give identical inputs, and ``setup_s`` is
    the median generation time.  Generations spread over the run read
    steadier than back-to-back ones.
    """

    round_size = 1  # operations that form one protocol and only end together
    setup_repeats = 3

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.cache = None
        self.graph = None
        self.generate_s = []
        self.input_mismatches = 0
        self.fill_s = 0.0

    def fresh_cache(self):
        return tempfile.mkdtemp(prefix="cache-", dir=self.workdir)

    def generate(self):
        """The workload's graph, a function of ``self.seed`` alone."""
        raise NotImplementedError

    def make_inputs(self):
        """Generate the inputs, timed, and count a mismatch if they differ from the first ones."""
        t0 = time.perf_counter()
        g = self.generate()
        self.generate_s.append(time.perf_counter() - t0)
        if self.graph is None:
            self.graph = g
        elif not _same_graph(g, self.graph):
            self.input_mismatches += 1

    def setup(self):
        for _ in range(self.setup_repeats):
            self.make_inputs()

    def setup_s(self) -> float:
        return statistics.median(self.generate_s) + self.fill_s

    def operation(self, i: int) -> Op:
        raise NotImplementedError

    def final_checks(self, ops) -> list:
        """Problems found after the timed loop (empty when correct)."""
        return []


class CoraCold(Workload):
    """Cora-shaped graph, ``paper_clustering`` preset, a fresh cache per operation."""

    name = "cora-cold"
    epochs = CORA_COLD_EPOCHS

    def generate(self):
        return graphs.cora_like(self.seed)

    def setup(self):
        super().setup()
        self.cfg = dmage.TrainConfig.from_dict(
            {**PRESETS["paper_clustering"], "epochs": self.epochs, "seed": self.seed}
        )
        self.pos_pairs = self.graph.edge_array()
        self.neg_pairs = graphs.non_edges(self.graph, len(self.pos_pairs), self.seed)

    def operation(self, i):
        g, cfg = self.graph, self.cfg
        cache = self.cache or self.fresh_cache()

        def body(op):
            Z = _timed_train(op, g, cfg, cache)
            if Z is not None:
                _evaluate(op, Z, g.labels, self.pos_pairs, self.neg_pairs, cfg.nu_latent)

        op = _run_op(body)
        if cache != self.cache:
            shutil.rmtree(cache, ignore_errors=True)
        return op


class CoraWarm(CoraCold):
    """As ``cora-cold``, but every operation reads a cache filled during set-up."""

    name = "cora-warm"
    epochs = CORA_WARM_EPOCHS

    def setup(self):
        super().setup()
        self.cache = self.fresh_cache()
        t0 = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", dmage.CalibrationWarning)
            dmage.precompute(self.graph, self.cfg, self.cache)
        self.fill_s = time.perf_counter() - t0


class LinkpredDense(Workload):
    """Dense two-block SBM through the ``linkpred_eval`` steps, one split seed per operation."""

    name = "linkpred-dense"
    round_size = LINKPRED_SEEDS

    def generate(self):
        return graphs.dense_sbm(self.seed)

    def setup(self):
        super().setup()
        self.cfg = dmage.TrainConfig(epochs=LINKPRED_EPOCHS, metric="euclidean", knn_k=0)

    def split_seed(self, i):
        return LINKPRED_SEEDS * self.seed + i % LINKPRED_SEEDS

    def operation(self, i):
        if i % LINKPRED_SEEDS == 0:  # each round starts on an empty cache
            if self.cache:
                shutil.rmtree(self.cache, ignore_errors=True)
            self.cache = self.fresh_cache()
        g, seed = self.graph, self.split_seed(i)
        cfg = dataclasses.replace(self.cfg, seed=seed)

        def body(op):
            split = dmage.linkpred_split(g, seed)
            Z = _timed_train(op, g.with_edges(split.train_edges), cfg, self.cache)
            if Z is not None:
                _evaluate(op, Z, g.labels, split.test_edges, split.test_negatives, cfg.nu_latent)

        return _run_op(body)

    def final_checks(self, ops):
        """The hand-driven steps must give ``linkpred_eval``'s AUC/AP exactly."""
        cache = self.fresh_cache()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", dmage.CalibrationWarning)
                reports, _ = dmage.linkpred_eval(self.graph, self.cfg, [self.split_seed(0)], cache_dir=cache)
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        want, got = (reports[0].auc, reports[0].ap), (ops[0].quality["auc"], ops[0].quality["ap"])
        if want != got:
            return [f"linkpred_eval gives auc/ap {want}, the hand-driven steps {got}"]
        return []


WORKLOADS = {w.name: w for w in (CoraCold, CoraWarm, LinkpredDense)}


def closed_loop(workload, seconds=None, count=None):
    """Operations back to back until ``seconds`` have passed, in whole rounds, or exactly ``count``."""
    ops = []
    t0 = time.perf_counter()
    while True:
        if count is not None:
            if len(ops) >= count:
                break
        elif ops and len(ops) % workload.round_size == 0 and time.perf_counter() - t0 >= seconds:
            break
        workload.make_inputs()
        ops.append(workload.operation(len(ops)))
    return ops


def same_outputs(a, b):
    """Byte-identical embeddings and final losses, operation by operation."""
    return len(a) == len(b) and all(
        x.failure is None
        and y.failure is None
        and x.loss_final == y.loss_final
        and x.embeddings.tobytes() == y.embeddings.tobytes()
        for x, y in zip(a, b)
    )


def rounds_repeat(ops, round_size):
    """Every later round of operations repeats the first one exactly."""
    first = ops[:round_size]
    return all(same_outputs(first, ops[k : k + round_size]) for k in range(round_size, len(ops), round_size))
