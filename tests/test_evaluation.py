import itertools
import json
import math
import os

import numpy as np
import pytest

from dmage.evaluation import (
    KMEANS_MAX_ITER,
    ClusteringReport,
    LinkPredReport,
    auc_ap,
    cluster_eval,
    clustering_metrics,
    edge_scores,
    kmeans,
    linkpred_eval,
    linkpred_split,
    write_report,
    write_split,
)
from dmage import evaluation
from dmage.similarity import t_kernel
from dmage.synthetic import two_block_sbm
from dmage.training import TrainConfig


def blobs(rng, k=3, per=15, sep=20.0, dim=2):
    """Well-separated Gaussian clusters with known membership."""
    centers = rng.standard_normal((k, dim)) * sep
    Z = np.concatenate([c + rng.standard_normal((per, dim)) for c in centers])
    truth = np.repeat(np.arange(k), per)
    return Z, truth


def inertia_of(Z, assign):
    total = 0.0
    for c in np.unique(assign):
        members = Z[assign == c]
        total += ((members - members.mean(axis=0)) ** 2).sum()
    return total


def frozen_clustering_scores(pred, truth):
    """ACC, NMI and macro F1 as ``clustering_metrics`` computed them before its
    F1 read the contingency table: a Python loop fills the table, a dict maps
    every point's cluster to its matched class, and tp, fp and fn are counted
    from per-point vectors."""
    from scipy.optimize import linear_sum_assignment

    clusters, classes = np.unique(pred), np.unique(truth)
    table = np.zeros((clusters.size, classes.size), dtype=np.int64)
    c_idx = {c: i for i, c in enumerate(clusters)}
    l_idx = {c: i for i, c in enumerate(classes)}
    for p, t in zip(pred, truth):
        table[c_idx[p], l_idx[t]] += 1
    rows, cols = linear_sum_assignment(-table)
    acc = float(table[rows, cols].sum() / pred.size)
    mapping = dict(zip(clusters[rows], classes[cols]))
    pred_labels = np.array([mapping.get(p, -1) for p in pred])
    scores = []
    for c in classes:
        tp = np.sum((pred_labels == c) & (truth == c))
        fp = np.sum((pred_labels == c) & (truth != c))
        fn = np.sum((pred_labels != c) & (truth == c))
        denom = 2 * tp + fp + fn
        scores.append(2 * tp / denom if denom > 0 else 0.0)
    return acc, evaluation._nmi(table), float(np.mean(scores))


def acc_oracle(pred, truth):
    """Best accuracy over all injective cluster-to-class mappings."""
    clusters = sorted(set(pred))
    classes = sorted(set(truth))
    k = max(len(clusters), len(classes))
    best = 0
    for perm in itertools.permutations(range(k)):
        correct = 0
        for ci, c in enumerate(clusters):
            if ci < len(perm) and perm[ci] < len(classes):
                lab = classes[perm[ci]]
                correct += sum(1 for p, t in zip(pred, truth) if p == c and t == lab)
        best = max(best, correct)
    return best / len(pred)


def nmi_oracle(pred, truth):
    n = len(pred)
    clusters, classes = sorted(set(pred)), sorted(set(truth))
    mi = 0.0
    for c in clusters:
        nc = sum(1 for p in pred if p == c)
        for lab in classes:
            nl = sum(1 for t in truth if t == lab)
            ncl = sum(1 for p, t in zip(pred, truth) if p == c and t == lab)
            if ncl:
                mi += ncl / n * math.log(n * ncl / (nc * nl))
    def ent(values, domain):
        out = 0.0
        for lab in domain:
            p = sum(1 for v in values if v == lab) / n
            if p:
                out -= p * math.log(p)
        return out
    hp, ht = ent(pred, clusters), ent(truth, classes)
    if hp == 0.0 and ht == 0.0:
        return 1.0
    denom = (hp + ht) / 2
    return mi / denom if denom else 0.0


def auc_oracle(pos, neg):
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def ap_oracle(pos, neg):
    """Step AP over descending thresholds; tied scores enter together."""
    items = [(s, 1) for s in pos] + [(s, 0) for s in neg]
    ap, prev_recall = 0.0, 0.0
    for t in sorted({s for s, _ in items}, reverse=True):
        sel = [lab for s, lab in items if s >= t]
        tp = sum(sel)
        recall = tp / len(pos)
        ap += (recall - prev_recall) * (tp / len(sel))
        prev_recall = recall
    return ap


class TestKmeans:
    def test_recovers_separated_blobs(self):
        Z, truth = blobs(np.random.default_rng(0))
        assign = kmeans(Z, 3, seed=0)
        assert acc_oracle(assign.tolist(), truth.tolist()) == 1.0

    def test_deterministic(self):
        Z, _ = blobs(np.random.default_rng(1))
        assert np.array_equal(kmeans(Z, 3, seed=5), kmeans(Z, 3, seed=5))

    def test_k_equals_n(self):
        Z = np.random.default_rng(2).standard_normal((6, 2))
        assign = kmeans(Z, 6, seed=0)
        assert sorted(assign.tolist()) == list(range(6))
        assert inertia_of(Z, assign) == 0.0

    def test_k_one(self):
        Z = np.random.default_rng(3).standard_normal((8, 2))
        assert np.array_equal(kmeans(Z, 1, seed=0), np.zeros(8, dtype=int))

    def test_restarts_never_hurt(self):
        Z, _ = blobs(np.random.default_rng(4), k=4, per=8, sep=3.0)
        one = inertia_of(Z, kmeans(Z, 4, seed=0, restarts=1))
        ten = inertia_of(Z, kmeans(Z, 4, seed=0, restarts=10))
        assert ten <= one + 1e-9

    def test_duplicate_points_stay_valid(self):
        # only two distinct locations but three clusters: exercises the
        # empty-cluster reseeding path
        Z = np.concatenate([np.zeros((10, 2)), np.ones((1, 2))])
        for seed in range(5):
            assign = kmeans(Z, 3, seed=seed)
            assert assign.shape == (11,)
            assert set(assign.tolist()) <= {0, 1, 2}

    def test_all_identical_points(self):
        Z = np.ones((5, 3))
        assign = kmeans(Z, 2, seed=0)
        assert set(assign.tolist()) <= {0, 1}

    @pytest.mark.parametrize("k", [0, 7])
    def test_k_out_of_range(self, k):
        with pytest.raises(ValueError):
            kmeans(np.zeros((6, 2)), k)


# Frozen copy of k-means before the squared norms were hoisted out of the
# distance helper and the re-seed distances were taken lazily.  It also
# counts re-seeds, so the tests can tell the path was taken.


def _oracle_sq_dists_to(Z, centers):
    cross = Z @ centers.T
    return np.maximum(
        (Z * Z).sum(axis=1)[:, None] - 2.0 * cross + (centers * centers).sum(axis=1), 0.0
    )


def _oracle_lloyd(Z, k, rng, reseeds):
    """One restart run alone; returns its assignment, inertia and iterations."""
    n = Z.shape[0]
    centers = np.empty((k, Z.shape[1]))
    centers[0] = Z[rng.integers(n)]
    closest = _oracle_sq_dists_to(Z, centers[:1]).ravel()
    for c in range(1, k):
        total = closest.sum()
        if total <= 0:
            centers[c] = Z[rng.integers(n)]
        else:
            centers[c] = Z[rng.choice(n, p=closest / total)]
        closest = np.minimum(closest, _oracle_sq_dists_to(Z, centers[c : c + 1]).ravel())
    assign = np.full(n, -1)
    for it in range(KMEANS_MAX_ITER):
        d2 = _oracle_sq_dists_to(Z, centers)
        new_assign = d2.argmin(axis=1)
        point_d2 = d2[np.arange(n), new_assign]
        for c in range(k):
            members = new_assign == c
            if members.any():
                centers[c] = Z[members].mean(axis=0)
            else:
                reseeds.append(c)
                far = point_d2.argmax()
                centers[c] = Z[far]
                new_assign[far] = c
                point_d2[far] = 0.0
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    inertia = float(_oracle_sq_dists_to(Z, centers)[np.arange(n), assign].sum())
    return assign, inertia, it + 1


def _oracle_kmeans(Z, k, seed, restarts=10, runs=None):
    """Best-of-restarts assignment and the number of re-seeds; ``runs``, if a
    list, gets each restart's (iterations, re-seeds)."""
    best_assign, best_inertia, reseeds = None, np.inf, []
    for r in range(restarts):
        before = len(reseeds)
        assign, inertia, iterations = _oracle_lloyd(
            Z, k, np.random.default_rng([seed, r]), reseeds
        )
        if runs is not None:
            runs.append((iterations, len(reseeds) - before))
        if inertia < best_inertia:
            best_assign, best_inertia = assign, inertia
    return best_assign, len(reseeds)


class TestKmeansMatchesOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_assignments(self, seed):
        Z, _ = blobs(np.random.default_rng(seed), k=5, per=40, sep=1.5, dim=6)
        want, _ = _oracle_kmeans(Z, 5, seed)
        assert np.array_equal(kmeans(Z, 5, seed=seed), want)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_same_assignments_through_reseeds(self, seed):
        # four distinct points for six clusters: k-means++ repeats centers,
        # so clusters come out empty and are re-seeded, some in one iteration
        rng = np.random.default_rng(seed)
        Z = np.repeat(rng.standard_normal((4, 3)), rng.integers(1, 9, 4), axis=0)
        want, reseeds = _oracle_kmeans(Z, 6, seed)
        assert reseeds > 0
        assert np.array_equal(kmeans(Z, 6, seed=seed), want)


    def test_cycling_restarts_end_early_with_the_capped_result(self, monkeypatch):
        # 17 points at 4 locations, 6 clusters: every iteration re-seeds a
        # point from one equal center to another, a cycle of period 4 that
        # never converges; the restart stops once the cycle repeats
        rng = np.random.default_rng(0)
        Z = np.repeat(rng.standard_normal((4, 3)), rng.integers(1, 9, 4), axis=0)
        assert Z.shape[0] == 17 and len(np.unique(Z, axis=0)) == 4
        want, reseeds = _oracle_kmeans(Z, 6, 0)
        assert reseeds >= 10 * KMEANS_MAX_ITER  # the oracle runs every iteration
        widths = record_widths(monkeypatch)
        got = kmeans(Z, 6, seed=0)
        # 6 seeding passes per restart, one stacked pass per lockstep
        # iteration, one inertia pass per restart
        assert widths.count(1) == 10 * 6
        assert len(widths) <= 10 * 6 + 12 + 10
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_restarts_converge_at_different_iterations(self, seed, monkeypatch):
        # overlapping blobs: the restarts take from 6 to 18 iterations, so
        # they leave the lockstep one by one
        Z, _ = blobs(np.random.default_rng(seed), k=7, per=72, sep=1.0, dim=16)
        runs = []
        want, reseeds = _oracle_kmeans(Z, 7, seed, runs=runs)
        iterations = sorted(it for it, _ in runs)
        assert reseeds == 0 and iterations[0] < iterations[-1] < KMEANS_MAX_ITER
        widths = record_widths(monkeypatch)
        assert np.array_equal(kmeans(Z, 7, seed=seed), want)
        # after the seeding, each iteration takes one pass over 7 centers per
        # live restart, then one inertia pass per restart that converged
        expected = []
        for it in range(iterations[-1]):
            expected.append(7 * sum(1 for n_it in iterations if n_it > it))
            expected += [7] * iterations.count(it + 1)
        assert widths[:70] == [1] * 70 and widths[70:] == expected

    def test_some_restarts_reseed_and_others_do_not(self):
        # heavy-tailed points: restart 4 empties a cluster and re-seeds it,
        # the other nine never do, so one iteration mixes the stacked means
        # with the cluster-by-cluster ones
        Z = np.random.default_rng(374).standard_normal((20, 2)) ** 3
        runs = []
        want, _ = _oracle_kmeans(Z, 6, 0, runs=runs)
        assert [r for _, r in runs] == [0, 0, 0, 0, 1, 0, 0, 0, 0, 0]
        assert np.array_equal(kmeans(Z, 6, seed=0), want)

    def test_cycling_restarts_stop_at_different_iterations(self, monkeypatch):
        # 41 points at 4 locations, 7 clusters: every restart cycles, and
        # they reach their capped state after 4 or 6 iterations
        rng = np.random.default_rng(843)
        Z = np.repeat(rng.standard_normal((4, 2)), rng.integers(2, 20, 4), axis=0)
        runs = []
        want, _ = _oracle_kmeans(Z, 7, 0, runs=runs)
        assert all(it == KMEANS_MAX_ITER and r > 0 for it, r in runs)
        widths = record_widths(monkeypatch)
        assert np.array_equal(kmeans(Z, 7, seed=0), want)
        assert [w for w in widths if w > 7] == [70] * 4 + [49] * 2

    @pytest.mark.parametrize(
        "n, dim, k, restarts",
        [
            (40, 3, 1, 10),
            (12, 3, 12, 10),
            (200, 5, 4, 1),
            (180, 1, 3, 10),
            (60, 2, 5, 3),
            # 7 centers per restart stacked into one product 210 and 280 wide
            (504, 16, 7, 30),
            (504, 16, 7, 40),
        ],
        ids=[
            "k=1", "k=n", "one-restart", "one-column", "three-restarts", "width-210", "width-280"
        ],
    )
    def test_edge_shapes(self, n, dim, k, restarts):
        rng = np.random.default_rng(n + dim + k)
        Z = rng.standard_normal((n, dim)) * rng.uniform(0.5, 3.0, dim)
        for seed in range(3):
            want, _ = _oracle_kmeans(Z, k, seed, restarts)
            assert np.array_equal(kmeans(Z, k, seed=seed, restarts=restarts), want)


def record_widths(monkeypatch):
    """Patch the distance pass to log how many centers each call measures."""
    widths = []
    sq_dists_to = evaluation._sq_dists_to

    def logged(Z, z2, centers):
        widths.append(centers.shape[0])
        return sq_dists_to(Z, z2, centers)

    monkeypatch.setattr(evaluation, "_sq_dists_to", logged)
    return widths


class TestClusterMeans:
    def test_one_pass_means_bit_for_bit(self):
        rng = np.random.default_rng(12)
        for case in range(60):
            n, dim = int(rng.integers(1, 700)), int(rng.integers(2, 12))
            k = int(rng.integers(1, min(n, 8) + 1))
            runs = int(rng.integers(1, 11))
            Z = rng.standard_normal((n, 2 * dim)) * 10.0 ** rng.integers(-3, 4)
            Z[rng.random(Z.shape) < 0.2] = -0.0
            # C order, Fortran order and a strided view
            Z = [Z[:, :dim].copy(), np.asfortranarray(Z[:, :dim]), Z[:, ::2]][case % 3]
            assign = np.stack(
                [rng.permutation(np.concatenate([np.arange(k), rng.integers(0, k, n - k)]))
                 for _ in range(runs)],
                axis=1,
            )
            counts = np.stack([np.bincount(a, minlength=k) for a in assign.T])
            got = evaluation._means(Z, assign, counts)
            assert got.shape == (runs, k, dim)
            for r in range(runs):
                want = np.array([Z[assign[:, r] == c].mean(axis=0) for c in range(k)])
                assert got[r].tobytes() == want.tobytes()

    def test_one_column_keeps_the_masked_mean(self, monkeypatch):
        # numpy sums a single column pairwise, not in index order
        def refuse(*args):
            raise AssertionError("one-pass means on one column")

        monkeypatch.setattr(evaluation, "_means", refuse)
        Z, truth = blobs(np.random.default_rng(13), k=3, per=60, dim=1)
        assert np.array_equal(kmeans(Z, 3, seed=0), _oracle_kmeans(Z, 3, 0)[0])
        with pytest.raises(AssertionError, match="one-pass"):
            kmeans(np.hstack([Z, Z]), 3, seed=0)


class TestKmeansRefuses:
    @pytest.mark.parametrize("value, count", [(np.nan, 1), (np.inf, 2), (-np.inf, 3)])
    def test_non_finite_embedding(self, value, count):
        Z = np.random.default_rng(0).standard_normal((20, 3))
        Z.flat[:count] = value
        with pytest.raises(ValueError, match=f"{count} non-finite"):
            kmeans(Z, 2)

    @pytest.mark.parametrize("restarts", [0, -1])
    def test_no_restarts(self, restarts):
        with pytest.raises(ValueError, match="restarts must be at least 1"):
            kmeans(np.random.default_rng(0).standard_normal((20, 3)), 2, restarts=restarts)


class TestClusteringMetrics:
    def test_perfect_assignment(self):
        truth = np.array([0, 0, 1, 1, 2, 2])
        rep = clustering_metrics(np.array([2, 2, 0, 0, 1, 1]), truth)
        assert (rep.acc, rep.nmi, rep.f1) == (1.0, 1.0, 1.0)

    def test_matches_brute_force_on_fixed_case(self):
        # 10 points, two deliberate mistakes
        truth = [0, 0, 0, 1, 1, 1, 2, 2, 2, 2]
        pred = [1, 1, 2, 2, 2, 2, 0, 0, 0, 1]
        rep = clustering_metrics(np.array(pred), np.array(truth))
        assert rep.acc == pytest.approx(acc_oracle(pred, truth), rel=1e-12)
        assert rep.nmi == pytest.approx(nmi_oracle(pred, truth), rel=1e-12)
        # macro F1 over the matched classes: 2/3, 6/7 and 6/7
        assert rep.f1 == pytest.approx(50 / 63, rel=1e-12)

    def test_random_cases_match_oracles(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(4, 12))
            pred = rng.integers(0, 3, n)
            truth = rng.integers(0, 3, n)
            rep = clustering_metrics(pred, truth)
            assert rep.acc == pytest.approx(acc_oracle(pred.tolist(), truth.tolist()), rel=1e-12)
            assert rep.nmi == pytest.approx(nmi_oracle(pred.tolist(), truth.tolist()), abs=1e-12)

    def test_cluster_relabeling_invariance(self):
        rng = np.random.default_rng(6)
        pred = rng.integers(0, 3, 30)
        truth = rng.integers(0, 3, 30)
        base = clustering_metrics(pred, truth)
        relabeled = np.array([10, 20, 30])[pred]  # arbitrary distinct ids
        rep = clustering_metrics(relabeled, truth)
        assert (rep.acc, rep.nmi, rep.f1) == (base.acc, base.nmi, base.f1)

    def test_arbitrary_truth_label_values(self):
        truth = np.array([5, 5, 9, 9])
        rep = clustering_metrics(np.array([0, 0, 1, 1]), truth)
        assert rep.acc == 1.0

    def test_nmi_symmetric(self):
        rng = np.random.default_rng(7)
        a = rng.integers(0, 3, 40)
        b = rng.integers(0, 4, 40)
        assert clustering_metrics(a, b).nmi == pytest.approx(
            clustering_metrics(b, a).nmi, rel=1e-12
        )

    def test_constant_vs_constant_nmi(self):
        rep = clustering_metrics(np.zeros(5, int), np.ones(5, int) * 3)
        assert rep.nmi == 1.0
        assert rep.acc == 1.0

    def test_constant_vs_split_nmi_zero(self):
        rep = clustering_metrics(np.zeros(6, int), np.array([0, 0, 0, 1, 1, 1]))
        assert rep.nmi == 0.0

    def test_extra_clusters_reduce_acc(self):
        truth = np.array([0, 0, 0, 0])
        pred = np.array([0, 0, 1, 2])  # two clusters cannot match any class
        rep = clustering_metrics(pred, truth)
        assert rep.acc == 0.5

    @pytest.mark.parametrize(
        "clusters, classes", [(5, 3), (2, 4), (3, 3), (3, 1), (1, 3), (12, 7)]
    )
    def test_matches_frozen_per_point_scores(self, clusters, classes):
        # more clusters than classes, fewer, as many, a single class or cluster;
        # ids are arbitrary non-negative values, not 0..k-1
        rng = np.random.default_rng(clusters * 10 + classes)
        for _ in range(25):
            n = int(rng.integers(2, 200))
            pred = rng.choice(rng.permutation(50)[:clusters], n)
            truth = rng.choice(rng.permutation(50)[:classes] * 3, n)
            rep = clustering_metrics(pred, truth)
            want = frozen_clustering_scores(pred, truth)
            assert (rep.acc, rep.nmi, rep.f1) == want
            assert [v.hex() for v in (rep.acc, rep.nmi, rep.f1)] == [v.hex() for v in want]

    def test_unmatched_clusters_predict_no_class_not_class_minus_one(self):
        # two of the three clusters match no class; their points are false
        # negatives of class -1 as of class 0 (the per-point scores took -1
        # as the label of an unmatched cluster and gave 1.0 here)
        pred = np.array([0, 0, 1, 2])
        for label in (0, -1):
            rep = clustering_metrics(pred, np.full(4, label))
            assert (rep.acc, rep.f1) == (0.5, 2 / 3)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            clustering_metrics(np.zeros(3, int), np.zeros(4, int))
        with pytest.raises(ValueError):
            clustering_metrics(np.zeros(1, int), np.zeros(1, int))

    def test_cluster_eval_runs_kmeans_once_per_seed(self, monkeypatch):
        calls = []
        run = evaluation.kmeans

        def logged(Z, k, seed, restarts):
            calls.append((k, seed, restarts))
            return run(Z, k, seed, restarts)

        monkeypatch.setattr(evaluation, "kmeans", logged)
        Z, truth = blobs(np.random.default_rng(14))
        reports = cluster_eval(Z, truth, [4, 0, 9], restarts=3)
        assert calls == [(3, 4, 3), (3, 0, 3), (3, 9, 3)]
        assert [r.seed for r in reports] == [4, 0, 9]

    def test_cluster_eval_on_trained_embeddings(self, sbm_graph, sbm_result):
        reports = cluster_eval(sbm_result.embeddings, sbm_graph.labels, [0, 1])
        assert [r.seed for r in reports] == [0, 1]
        assert all(r.acc >= 0.9 for r in reports)

    def test_matching_is_scipys_on_tied_tables(self):
        # scipy is the reference here only; the library does not import it
        from scipy.optimize import linear_sum_assignment

        rng = np.random.default_rng(17)
        shapes = set()
        for _ in range(20_000):
            rows, cols = rng.integers(1, 9, 2)
            table = rng.integers(0, int(rng.integers(1, 6)), (rows, cols))
            want = linear_sum_assignment(-table)
            got = evaluation._linear_sum_assignment(-table)
            for g, w in zip(got, want):
                assert np.array_equal(g, w) and g.dtype == w.dtype, table
            shapes.add(int(np.sign(rows - cols)))
        assert shapes == {-1, 0, 1}  # wide, square and tall


class TestLinkpredSplit:
    def graph(self, seed=0):
        return two_block_sbm(n=40, p_intra=0.4, p_inter=0.05, seed=seed)

    def test_sizes_and_partition(self):
        g = self.graph()
        s = linkpred_split(g, seed=0)
        m = g.num_edges
        assert len(s.val_edges) == int(m * 0.05)
        assert len(s.test_edges) == int(m * 0.10)
        assert len(s.val_negatives) == len(s.val_edges)
        assert len(s.test_negatives) == len(s.test_edges)
        assert s.train_edges | s.val_edges | s.test_edges == g.edges
        assert not s.train_edges & s.val_edges
        assert not s.train_edges & s.test_edges
        assert not s.val_edges & s.test_edges

    def test_negatives_are_non_edges(self):
        g = self.graph()
        s = linkpred_split(g, seed=1)
        for pair in s.val_negatives | s.test_negatives:
            assert pair not in g.edges
            assert pair[0] < pair[1]
        assert not s.val_negatives & s.test_negatives

    def test_deterministic_and_seed_sensitive(self):
        g = self.graph()
        assert linkpred_split(g, seed=3) == linkpred_split(g, seed=3)
        assert linkpred_split(g, seed=3) != linkpred_split(g, seed=4)

    def test_too_few_edges(self):
        g = two_block_sbm(n=10, p_intra=0.2, p_inter=0.0, seed=0)
        assert g.num_edges < 20
        with pytest.raises(ValueError, match="at least 20"):
            linkpred_split(g)

    def test_too_few_non_edges(self):
        from dmage.graph import AttributedGraph

        n = 8
        edges = frozenset(
            (i, j) for i in range(n) for j in range(i + 1, n)
        )
        g = AttributedGraph(n, edges, np.zeros((n, 2)), None)
        with pytest.raises(ValueError, match="non-edges"):
            linkpred_split(g)

    def test_write_split_round_trips(self, tmp_path):
        g = self.graph()
        s = linkpred_split(g, seed=0)
        write_split(str(tmp_path / "split"), s)
        names = sorted(os.listdir(tmp_path / "split"))
        assert names == [
            "test_edges.tsv",
            "test_negatives.tsv",
            "train_edges.tsv",
            "val_edges.tsv",
            "val_negatives.tsv",
        ]
        got = set()
        with open(tmp_path / "split" / "test_edges.tsv") as f:
            for line in f:
                i, j = line.split()
                got.add((int(i), int(j)))
        assert got == set(s.test_edges)


class TestEdgeScores:
    def test_t_kernel_scores(self):
        Z = np.array([[0.0, 0.0], [0.0, 0.0], [3.0, 4.0]])
        got = edge_scores(Z, [(0, 1), (0, 2)])
        assert got == pytest.approx([t_kernel(0.0, 1.0), t_kernel(5.0, 1.0)], rel=1e-12)

    def test_t_kernel_monotone_in_distance(self):
        Z = np.array([[0.0], [1.0], [2.0], [5.0]])
        s = edge_scores(Z, [(0, 1), (0, 2), (0, 3)])
        assert s[0] > s[1] > s[2]

    def test_empty_pairs(self):
        assert edge_scores(np.zeros((3, 2)), []).size == 0

    def test_unknown_scorer(self):
        for scorer in ("dot", "cosine"):
            with pytest.raises(ValueError, match="scorer"):
                edge_scores(np.zeros((3, 2)), [(0, 1)], scorer=scorer)


class TestAucAp:
    def test_perfect_separation(self):
        auc, ap = auc_ap([0.9, 0.8, 0.7], [0.3, 0.2, 0.1])
        assert auc == 1.0
        assert ap == 1.0

    def test_reversed_separation(self):
        auc, _ = auc_ap([0.1, 0.2], [0.8, 0.9])
        assert auc == 0.0

    def test_all_tied(self):
        auc, ap = auc_ap([0.5, 0.5], [0.5, 0.5, 0.5])
        assert auc == 0.5
        assert ap == pytest.approx(2 / 5)

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            pos = rng.integers(0, 6, rng.integers(2, 10)) / 5.0  # coarse → ties
            neg = rng.integers(0, 6, rng.integers(2, 10)) / 5.0
            auc, ap = auc_ap(pos, neg)
            assert auc == pytest.approx(auc_oracle(pos.tolist(), neg.tolist()), rel=1e-12)
            assert ap == pytest.approx(ap_oracle(pos.tolist(), neg.tolist()), rel=1e-12)

    def test_continuous_scores_match_oracle(self):
        rng = np.random.default_rng(10)
        pos = (rng.standard_normal(15) + 0.5).tolist()
        neg = rng.standard_normal(12).tolist()
        auc, ap = auc_ap(pos, neg)
        assert auc == pytest.approx(auc_oracle(pos, neg), rel=1e-12)
        assert ap == pytest.approx(ap_oracle(pos, neg), rel=1e-12)

    @pytest.mark.parametrize("with_nan", [False, True], ids=["finite", "nan"])
    def test_ranks_are_scipys(self, with_nan):
        from scipy.stats import rankdata

        rng = np.random.default_rng(31)
        for _ in range(2_000):
            n = int(rng.integers(1, 40))
            x = rng.integers(0, int(rng.integers(1, 10)), n) / 4.0
            x[rng.random(n) < 0.1] = -0.0
            if with_nan:
                x[rng.integers(n)] = np.nan
            want = rankdata(x)
            got = evaluation._average_ranks(x)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), x

    def test_empty_side_rejected(self):
        with pytest.raises(ValueError):
            auc_ap([], [0.1])
        with pytest.raises(ValueError):
            auc_ap([0.1], [])


class TestLinkpredEval:
    def test_end_to_end_reports_and_splits(self, tmp_path):
        g = two_block_sbm(n=40, p_intra=0.4, p_inter=0.05, seed=0)
        cfg = TrainConfig(epochs=5, hidden_dims=(16, 8), latent_dim=3)
        reports, splits = linkpred_eval(
            g, cfg, seeds=[0, 1], split_dir=str(tmp_path)
        )
        assert len(reports) == len(splits) == 2
        for rep, split in zip(reports, splits):
            assert 0.0 <= rep.auc <= 1.0
            assert 0.0 <= rep.ap <= 1.0
            assert rep.seed == split.seed
        assert os.path.isdir(tmp_path / "split-seed0")
        assert os.path.isdir(tmp_path / "split-seed1")


class TestWriteReport:
    def test_rows_mean_std(self, tmp_path):
        path = str(tmp_path / "report.json")
        rows = [
            {"seed": 0, "acc": 0.8, "nmi": 0.6},
            {"seed": 1, "acc": 0.6, "nmi": 0.4},
        ]
        write_report(path, "clustering", rows, extra={"n": 60})
        with open(path) as f:
            doc = json.load(f)
        assert doc["task"] == "clustering"
        assert doc["rows"] == rows
        assert doc["mean"]["acc"] == pytest.approx(0.7)
        assert doc["std"]["nmi"] == pytest.approx(0.1)
        assert "seed" not in doc["mean"]
        assert doc["n"] == 60

    def test_empty_rows(self, tmp_path):
        path = str(tmp_path / "report.json")
        write_report(path, "t", [])
        with open(path) as f:
            doc = json.load(f)
        assert doc == {"task": "t", "rows": []}
