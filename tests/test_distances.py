import warnings

import numpy as np
import pytest

from dmage import distances
from dmage.distances import (
    DegenerateGraphWarning,
    complete_graph_distances,
    geodesic_distances,
    pairwise_distance,
)
from dmage.graph import AttributedGraph, normalize_edges

from conftest import random_graph


# ---------------------------------------------------------------- oracles


def floyd_warshall_oracle(weights):
    """Plain-loop all-pairs shortest paths on a dense weight matrix.

    ``weights[i, j]`` is the direct edge weight or inf when absent.
    """
    n = weights.shape[0]
    dist = weights.copy()
    np.fill_diagonal(dist, 0.0)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                via = dist[i, k] + dist[k, j]
                if via < dist[i, j]:
                    dist[i, j] = via
    return dist


def scalar_metric(a, b, metric):
    if metric == "euclidean":
        return float(np.sqrt(((a - b) ** 2).sum()))
    if metric == "manhattan":
        return float(np.abs(a - b).sum())
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        return 1.0  # zero-norm rows sit at distance 1 from everything
    return float(1.0 - (a @ b) / (na * nb))


def edge_weight_matrix(g, metric):
    w = np.full((g.n, g.n), np.inf)
    for i, j in g.edges:
        d = scalar_metric(g.features[i], g.features[j], metric)
        w[i, j] = w[j, i] = d
    return w


# ---------------------------------------------------------------- pairwise


class TestPairwiseDistance:
    @pytest.mark.parametrize("metric", ["euclidean", "manhattan", "cosine"])
    def test_matches_scalar_loop(self, metric):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((8, 4))
        d = pairwise_distance(x, metric)
        for i in range(8):
            for j in range(8):
                expect = 0.0 if i == j else scalar_metric(x[i], x[j], metric)
                assert d[i, j] == pytest.approx(expect, abs=1e-12)

    @pytest.mark.parametrize("metric", ["euclidean", "manhattan", "cosine"])
    def test_symmetric_zero_diagonal(self, metric):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((10, 3))
        d = pairwise_distance(x, metric)
        assert (d == d.T).all()
        assert (np.diag(d) == 0).all()
        assert (d >= 0).all()

    @pytest.mark.parametrize("block", [None, 64])
    @pytest.mark.parametrize("n", [2, 23, 300])
    def test_euclidean_row_blocks_match_whole_array(self, n, block, monkeypatch):
        # default blocks: 300 rows go 218 + 82; blocks of 64: 23 rows go 2 at a time
        if block is not None:
            monkeypatch.setattr(distances, "_BLOCK", block)
        x = np.random.default_rng(n).standard_normal((n, 7))
        x[1] = x[0]
        # frozen copy of the whole-array computation the row blocks replaced
        sq = np.sum(x * x, axis=1)
        d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
        np.clip(d2, 0.0, None, out=d2)
        want = np.sqrt(d2)
        want = (want + want.T) / 2.0
        np.fill_diagonal(want, 0.0)
        assert pairwise_distance(x, "euclidean").tobytes() == want.tobytes()

    def test_cosine_zero_norm_rows(self):
        x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
        d = pairwise_distance(x, "cosine")
        assert d[0, 1] == 1.0
        assert d[0, 2] == 1.0  # distance 1 to everything except the diagonal
        assert d[0, 0] == 0.0

    def test_cosine_range(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((20, 5))
        d = pairwise_distance(x, "cosine")
        assert (d <= 2.0).all() and (d >= 0.0).all()


# ---------------------------------------------------------------- geodesic


class TestGeodesicDistances:
    def test_matches_floyd_warshall_oracle(self):
        rng = np.random.default_rng(7)
        for trial in range(40):
            g = random_graph(rng, density=0.3)
            got = geodesic_distances(g, "euclidean", lambda_=10.0)
            w = edge_weight_matrix(g, "euclidean")
            oracle = floyd_warshall_oracle(w)
            finite = np.isfinite(oracle)
            assert np.allclose(got.matrix[finite], oracle[finite], atol=1e-9)
            if finite.all():
                continue
            cmax = oracle[finite & (oracle > 0)].max(initial=0.0)
            assert np.allclose(got.matrix[~finite], 10.0 * cmax, atol=1e-9)

    def test_two_component_lambda_rule(self):
        # components {0,1} and {2,3}; cross distances = lambda * max connected
        feats = np.array([[0.0], [1.0], [5.0], [9.0]])
        g = AttributedGraph(4, normalize_edges([(0, 1), (2, 3)]), feats, None)
        got = geodesic_distances(g, "euclidean", lambda_=3.0)
        assert got.matrix[0, 1] == 1.0
        assert got.matrix[2, 3] == 4.0
        assert got.matrix[0, 2] == 12.0  # 3 * 4
        assert got.connected_max == 4.0

    def test_zero_weight_edge_stays_an_edge(self):
        # nodes 0 and 1 share features: their edge weighs 0 but still joins them
        feats = np.array([[0.0], [0.0], [5.0], [9.0]])
        g = AttributedGraph(4, normalize_edges([(0, 1), (2, 3)]), feats, None)
        got = geodesic_distances(g, "euclidean", lambda_=3.0)
        assert got.matrix[0, 1] == 0.0
        assert got.matrix[2, 3] == 4.0
        assert got.matrix[0, 2] == 12.0

    def test_lambda_must_exceed_one(self):
        g = random_graph(np.random.default_rng(0), n=5)
        with pytest.raises(ValueError):
            geodesic_distances(g, "euclidean", lambda_=1.0)

    def test_edgeless_graph_warns_and_zeroes(self):
        g = AttributedGraph(3, frozenset(), np.eye(3), None)
        with pytest.warns(DegenerateGraphWarning):
            got = geodesic_distances(g, "euclidean")
        assert (got.matrix == 0).all()

    def test_hop_count_variant(self):
        feats = np.array([[0.0], [10.0], [11.0]])
        g = AttributedGraph(3, normalize_edges([(0, 1), (1, 2)]), feats, None)
        got = geodesic_distances(g, "euclidean", hop_count=True)
        assert got.matrix[0, 1] == 1.0
        assert got.matrix[0, 2] == 2.0

    def test_indirect_path_shorter_than_edge(self):
        # direct 0-2 edge weight 10, path through 1 weighs 2
        feats = np.array([[0.0], [1.0], [10.0]])
        g = AttributedGraph(3, normalize_edges([(0, 2)]), feats, None)
        d_direct = geodesic_distances(g, "euclidean").matrix[0, 2]
        g2 = g.with_edges([(0, 2), (0, 1), (1, 2)])
        d_path = geodesic_distances(g2, "euclidean").matrix[0, 2]
        assert d_direct == 10.0
        assert d_path == 10.0  # euclidean on a line: path equals direct

        feats = np.array([[0.0, 0.0], [3.0, 4.0], [6.0, 0.0]])
        g3 = AttributedGraph(3, normalize_edges([(0, 2), (0, 1), (1, 2)]), feats, None)
        d = geodesic_distances(g3, "euclidean").matrix
        assert d[0, 2] == 6.0  # direct shortcut beats the 10-unit detour


def old_geodesic_tail(dist, n, lambda_):
    """Frozen copy of the connected-maximum and unconnected rule before it
    stopped building the off-diagonal mask."""
    dist = dist.copy()
    off_diag = ~np.eye(n, dtype=bool)
    finite = np.isfinite(dist) & off_diag
    connected_max = float(dist[finite].max()) if finite.any() else 0.0
    dist[~np.isfinite(dist)] = lambda_ * connected_max
    np.fill_diagonal(dist, 0.0)
    return dist, connected_max


def graph_with_duplicates(rng, features):
    """Random edges over ``features``, plus edges between rows that repeat."""
    n = len(features)
    g = random_graph(rng, n=n, density=0.3, dims=1)
    pairs = set(g.edges)
    for i in range(n):
        for j in range(i + 1, n):
            if (features[i] == features[j]).all():
                pairs.add((i, j))
    return AttributedGraph(n, normalize_edges(pairs), features, None)


class TestEdgeWeights:
    """Edge weights come from the two endpoint rows, not an n x n matrix."""

    @pytest.mark.parametrize("metric", ["euclidean", "manhattan", "cosine"])
    def test_match_pairwise_distance(self, metric):
        rng = np.random.default_rng(21)
        for trial in range(12):
            n = int(rng.integers(2, 40))
            # dyadic entries keep the Gram matrix behind pairwise_distance exact,
            # so repeated rows are at distance 0 there too (with Gaussian rows
            # its cancellation leaves about 1e-7; see the next test)
            x = rng.integers(-3, 4, size=(n, int(rng.integers(1, 9)))).astype(np.float64)
            if trial % 2:
                x = x * 2.0 ** rng.integers(-4, 3, size=x.shape[1]) + 0.25
            x[rng.random(n) < 0.2] = 0.0  # zero-norm rows
            dup = rng.integers(0, n, size=n // 3)
            x[rng.integers(0, n, size=dup.size)] = x[dup]
            g = graph_with_duplicates(rng, x)
            got = distances._edge_weight_graph(g, metric, False)
            e = g.edge_array()
            want = pairwise_distance(x, metric)[e[:, 0], e[:, 1]]
            assert got.nnz == 2 * len(e)  # zero-weight edges stay stored
            dense = got.toarray()
            assert (dense >= 0).all()
            assert np.abs(dense[e[:, 0], e[:, 1]] - want).max(initial=0.0) <= 1e-12
            assert (dense == dense.T).all()

    @pytest.mark.parametrize("metric", ["euclidean", "manhattan", "cosine"])
    def test_repeated_rows_weigh_zero_and_zero_rows_one(self, metric):
        rng = np.random.default_rng(22)
        x = rng.standard_normal((30, 7))
        x[10:20] = x[:10]
        x[25:] = 0.0
        g = graph_with_duplicates(rng, x)
        got = distances._edge_weight_graph(g, metric, False)
        for i, j in g.edge_array():
            w = got[i, j]
            if (x[i] == 0).all() and (x[j] == 0).all() and metric == "cosine":
                assert w == 1.0
            elif (x[i] == x[j]).all():
                assert 0.0 <= w <= (2.3e-16 if metric == "cosine" else 0.0)
            else:
                assert w == pytest.approx(scalar_metric(x[i], x[j], metric), rel=1e-12, abs=1e-15)

    def test_edgeless_graph(self):
        g = AttributedGraph(4, frozenset(), np.ones((4, 3)), None)
        for metric in ("euclidean", "manhattan", "cosine"):
            got = distances._edge_weight_graph(g, metric, False)
            assert got.shape == (4, 4) and got.nnz == 0

    def test_unconnected_rule_matches_masked_maximum(self):
        rng = np.random.default_rng(23)
        for trial in range(30):
            g = random_graph(rng, n=int(rng.integers(1, 14)), density=float(rng.uniform(0, 0.5)))
            graph = distances._edge_weight_graph(g, "euclidean", False)
            want, want_max = old_geodesic_tail(distances.dijkstra(graph, directed=True), g.n, 4.0)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegenerateGraphWarning)
                got = geodesic_distances(g, "euclidean", lambda_=4.0)
            assert got.matrix.tobytes() == want.tobytes()
            assert got.connected_max == want_max


class TestCompleteGraphDistances:
    def test_euclidean_is_direct_metric(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((7, 3))
        assert np.allclose(complete_graph_distances(x, "euclidean"), pairwise_distance(x, "euclidean"))

    def test_triangle_inequality_holds_after_relaxation(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((9, 4))
        for metric in ("euclidean", "manhattan", "cosine"):
            d = complete_graph_distances(x, metric)
            n = d.shape[0]
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        assert d[i, j] <= d[i, k] + d[k, j] + 1e-9

    def test_cosine_shortest_path_can_shrink_distances(self):
        # cosine violates the triangle inequality; the complete-graph geodesic
        # repairs it by routing through intermediate nodes
        x = np.array([[1.0, 0.0], [1.0, 0.05], [1.0, 0.1]])
        direct = pairwise_distance(x, "cosine")
        geo = complete_graph_distances(x, "cosine")
        assert (geo <= direct + 1e-15).all()

    def test_matches_floyd_warshall_on_dense_weights(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((8, 3))
        for metric in ("euclidean", "cosine"):
            direct = pairwise_distance(x, metric)
            w = direct.copy()
            got = complete_graph_distances(x, metric)
            assert np.allclose(got, floyd_warshall_oracle(w), atol=1e-12)
