import logging
import os
import re
import time
import warnings

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from dmage import distances
from dmage.distances import (
    DegenerateGraphWarning,
    complete_graph_distances,
    geodesic_distances,
    pairwise_distance,
)
from dmage.graph import AttributedGraph, normalize_edges

from conftest import assert_same_csr, random_graph


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
        want = frozen_euclidean(x)
        np.fill_diagonal(want, 0.0)
        assert pairwise_distance(x, "euclidean").tobytes() == want.tobytes()

    @pytest.mark.parametrize("tile", [None, 5])
    def test_mirror_takes_each_pair_above_the_diagonal(self, tile, monkeypatch):
        # an asymmetric Gram matrix, as BLAS may round one of another layout:
        # each pair takes the distance of its entry above the diagonal, in
        # both orders, in diagonal tiles (the only one at tiles of 64) and off
        # them alike
        if tile is not None:
            monkeypatch.setattr(distances, "_TILE", tile)
        n = 23
        x = np.random.default_rng(5).standard_normal((n, 7))
        x /= np.linalg.norm(x, axis=1)[:, None]
        gram = x @ x.T
        gram[1, 2] += 1e-3
        gram[17, 3] -= 1e-3
        d2 = 2.0 - 2.0 * gram  # rows of unit norm
        upper = np.arange(n)[:, None] <= np.arange(n)
        for src, transform in (
            (d2, lambda a, _: np.sqrt(np.clip(a, 0.0, None))),
            (gram, lambda g, _: np.clip(1.0 - g, 0.0, 2.0)),
        ):
            assert not np.array_equal(src, src.T)
            each = transform(src, None)
            want = np.where(upper, each, each.T)
            got = src.copy()
            distances._mirror(got, got, transform)
            assert got.tobytes() == want.tobytes()
            assert np.array_equal(got, got.T)
            assert got[2, 1] == each[1, 2] != each[2, 1]
            assert got[17, 3] == each[3, 17] != each[17, 3]

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    @pytest.mark.parametrize("shape", [(300, 200), (150, 32)])
    def test_view_and_copy_give_the_same_bytes(self, metric, shape):
        # a strided view is used as contiguous rows, so its Gram matrix is the
        # symmetric product of its copy
        n, d = shape
        big = np.random.default_rng(n).standard_normal((n, 2 * d))
        view = big[:, ::2]
        got = pairwise_distance(view, metric)
        assert got.tobytes() == pairwise_distance(view.copy(), metric).tobytes()

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
        # every unconnected pair, in both orders, is lambda times the largest connected distance
        assert (got.matrix[:2, 2:] == 12.0).all() and (got.matrix[2:, :2] == 12.0).all()

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
    return dist


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
            got = distances._edge_weight_graph(g, metric)
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
        got = distances._edge_weight_graph(g, metric)
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
            got = distances._edge_weight_graph(g, metric)
            assert got.shape == (4, 4) and got.nnz == 0

    @pytest.mark.parametrize("metric", ["euclidean", "manhattan", "cosine"])
    def test_matches_frozen_copy(self, metric):
        # the construction before the shared edge builder, with its edgeless case
        def frozen(g):
            edges = g.edge_array()
            if len(edges) == 0:
                return csr_matrix((g.n, g.n))
            w = distances._edge_weights(g.features, edges, metric)
            row = np.concatenate([edges[:, 0], edges[:, 1]])
            col = np.concatenate([edges[:, 1], edges[:, 0]])
            return csr_matrix((np.concatenate([w, w]), (row, col)), shape=(g.n, g.n))

        rng = np.random.default_rng(25)
        graphs = [AttributedGraph(4, frozenset(), np.ones((4, 3)), None)]
        for _ in range(10):
            x = rng.standard_normal((int(rng.integers(2, 25)), 3))
            x[rng.random(len(x)) < 0.3] = x[0]  # repeated rows: zero-weight edges
            graphs.append(graph_with_duplicates(rng, x))
        zero_weights = 0
        for g in graphs:
            got = distances._edge_weight_graph(g, metric)
            assert_same_csr(got, frozen(g))
            zero_weights += int((got.data == 0).sum())
        assert metric == "cosine" or zero_weights > 0

    def test_unconnected_rule_matches_masked_maximum(self):
        rng = np.random.default_rng(23)
        for trial in range(30):
            g = random_graph(rng, n=int(rng.integers(1, 14)), density=float(rng.uniform(0, 0.5)))
            graph = distances._edge_weight_graph(g, "euclidean")
            want = old_geodesic_tail(distances.dijkstra(graph, directed=True), g.n, 4.0)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegenerateGraphWarning)
                got = geodesic_distances(g, "euclidean", lambda_=4.0)
            assert got.matrix.tobytes() == want.tobytes()


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

    @pytest.mark.parametrize("n, warns", [(2047, False), (2048, True)])
    def test_large_cosine_graph_warns_before_floyd_warshall(self, n, warns, caplog, monkeypatch):
        calls = []

        def stub(graph, directed):
            calls.append(len(caplog.records))
            return np.zeros((n, n))

        monkeypatch.setattr(distances, "floyd_warshall", stub)
        x = np.random.default_rng(6).standard_normal((n, 3))
        with caplog.at_level(logging.WARNING, logger="dmage"):
            complete_graph_distances(x, "cosine")
        assert calls == [int(warns)]  # the warning comes before the O(n^3) run
        if warns:
            (record,) = caplog.records
            assert record.name == "dmage"
            message = record.getMessage()
            assert f"{n} nodes" in message and "knn_k > 0" in message
            assert f"about {1.7 * (n / 1000) ** 3:.0f} s" in message


def components_graph(rng):
    """37 nodes: three random components, a path, and isolated nodes."""
    edges, start = set(), 0
    for size in (12, 9, 7):
        g = random_graph(rng, n=size, density=0.4)
        edges |= {(i + start, j + start) for i, j in g.edges}
        start += size
    edges |= {(28, 29), (29, 30), (30, 31)}
    return AttributedGraph(37, normalize_edges(edges), rng.standard_normal((37, 4)), None)


class TestFillRows:
    """Row passes split over forked workers give the same bytes as one process."""

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 12, 200])
    def test_ranges_are_contiguous_and_cover_every_row_once(self, n, workers, tmp_path):
        def fill(rows, value):
            # one short O_APPEND write per fill, whichever process runs it
            fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
            os.write(fd, f"{rows.start} {rows.stop}\n".encode())
            os.close(fd)
            value[rows] = np.sqrt(np.arange(rows.start, rows.stop) + 0.5)

        got = []
        for w in (1, 2, 3):
            workers(w)
            log = tmp_path / f"fills-{w}"
            (value,) = distances._fill_rows(n, 1, fill, ((), np.float64))
            fills = sorted(tuple(map(int, line.split())) for line in log.read_text().splitlines()) if n else []
            # the chunks filled tile the rows, each once
            assert [0] + [b for _, b in fills] == [a for a, _ in fills] + [n]
            assert all(a < b for a, b in fills)
            chunks = min(n, distances._CHUNKS_PER_WORKER * distances._worker_count(n, 1))
            assert len(fills) == (chunks if distances._worker_count(n, 1) > 1 else min(n, 1))
            got.append(value.tobytes())
        assert got == [got[0]] * 3

    def test_chunk_indices_fit_one_pipe_write(self, workers, monkeypatch):
        workers(2)
        monkeypatch.setattr(distances, "_CHUNKS_PER_WORKER", 1000)

        def fill(rows, start, stop):
            start[rows], stop[rows] = rows.start, rows.stop

        start, stop = distances._fill_rows(3000, 1, fill, ((), np.int64), ((), np.int64))
        chunks = sorted(set(zip(start.tolist(), stop.tolist())))
        assert len(chunks) == 1024
        assert [0] + [b for _, b in chunks] == [a for a, _ in chunks] + [3000]

    def test_row_shapes_and_dtypes(self, workers):
        workers(2)

        def fill(rows, a, b):
            a[rows] = np.arange(rows.start, rows.stop)[:, None, None]
            b[rows] = 1

        a, b = distances._fill_rows(5, 1, fill, ((2, 3), np.float64), ((), np.int8))
        assert a.shape == (5, 2, 3) and a.dtype == np.float64 and b.dtype == np.int8
        assert (a[:, 1, 2] == np.arange(5)).all() and (b == 1).all()

    def test_a_failing_child_makes_the_parent_raise_and_leaves_no_child(self, workers):
        workers(3)
        parent, shared = os.getpid(), []

        def fill(rows, out):
            if os.getpid() != parent:
                out[rows] = 2.0
                raise ValueError("child failed")
            shared.append(out)
            # hold the first chunk until a child has failed, so one does
            deadline = time.monotonic() + 30
            while not (out == 2.0).any() and time.monotonic() < deadline:
                time.sleep(0.001)
            out[rows] = 1.0

        with pytest.raises(RuntimeError, match=r"rows \d+:\d+ \(exit status 1\)") as exc:
            distances._fill_rows(9, 1, fill, ((), np.float64))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        # the message names exactly the rows the failing children were filling
        reported = [range(int(a), int(b)) for a, b in re.findall(r"rows (\d+):(\d+)", str(exc.value))]
        assert 1 <= len(reported) <= 2
        assert sorted(i for r in reported for i in r) == np.flatnonzero(shared[0] == 2.0).tolist()

    def test_a_failing_parent_range_raises_its_error_and_reaps_every_child(self, workers):
        workers(3)
        parent = os.getpid()

        def fill(rows, out):
            if os.getpid() == parent:
                out[rows] = 2.0
                raise KeyError("parent failed")
            # hold each child's chunk until this process has failed, so it does
            deadline = time.monotonic() + 30
            while not (out == 2.0).any() and time.monotonic() < deadline:
                time.sleep(0.001)
            out[rows] = 1.0

        with pytest.raises(KeyError, match="parent failed"):
            distances._fill_rows(9, 1, fill, ((), np.float64))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_without_fork_the_fill_runs_here(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        monkeypatch.setattr(distances, "_MIN_WORK", 1)
        assert distances._usable_cores() == 1
        (pid,) = distances._fill_rows(6, 1, lambda rows, pid: pid.fill(os.getpid()), ((), np.int64))
        assert (pid == os.getpid()).all()

    def test_small_passes_stay_in_process(self, monkeypatch):
        monkeypatch.setattr(distances, "_usable_cores", lambda: 8)
        rows = distances._MIN_WORK // 64  # rows of 64 elements per worker
        assert distances._worker_count(0, 64) == 1
        assert distances._worker_count(2 * rows - 1, 64) == 1
        assert distances._worker_count(3 * rows, 64) == 3
        assert distances._worker_count(100 * rows, 64) == 8

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_geodesics_byte_identical_across_worker_counts(self, metric, workers, monkeypatch):
        rng = np.random.default_rng(31)
        for graph in (components_graph(rng), random_graph(rng, n=2, density=1.0)):
            got = []
            for w, block in ((1, 1 << 19), (2, 1 << 19), (3, 1 << 19), (3, 40)):
                workers(w)
                # blocks of a single source row inside each range, too
                monkeypatch.setattr(distances, "_DIJKSTRA_BLOCK", block)
                dist = geodesic_distances(graph, metric, lambda_=4.0)
                got.append(dist.matrix.tobytes())
            want = old_geodesic_tail(
                distances.dijkstra(distances._edge_weight_graph(graph, metric), directed=True),
                graph.n,
                4.0,
            )
            assert got == [want.tobytes()] * 4

    def test_one_degenerate_warning_from_three_workers(self, workers):
        workers(3)
        g = AttributedGraph(9, frozenset(), np.ones((9, 2)), None)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            dist = geodesic_distances(g)
        assert [w.category for w in caught] == [DegenerateGraphWarning]
        assert (dist.matrix == 0).all()


class TestEuclideanEqualRows:
    @pytest.mark.parametrize("dims", [3, 16, 50])
    def test_equal_rows_are_exactly_zero_and_others_unchanged(self, dims):
        rng = np.random.default_rng(dims)
        x = rng.standard_normal((40, dims))
        x[30:] = x[rng.choice(30, 10, replace=False)]
        # equal as vectors, not as bytes: 0.0 in one row, -0.0 in the other
        x[28, 0], x[29] = 0.0, x[28]
        x[29, 0] = -0.0
        got = pairwise_distance(x, "euclidean")
        equal = (x[:, None, :] == x[None, :, :]).all(axis=2)
        assert equal.sum() > 40
        assert (got[equal] == 0.0).all()
        # every other entry is the Gram-formula value
        want = frozen_euclidean(x)
        assert got[~equal].tobytes() == want[~equal].tobytes()
        assert (got == got.T).all() and (got[~equal] > 0).all()

    def test_rows_equal_as_vectors_share_a_group(self):
        x = np.array([[0.0, 1.0], [-0.0, 1.0], [1.0, 2.0], [1.0, 2.0], [2.0, 1.0]])
        assert distances._equal_rows(x).tolist() == [0, 0, 1, 1, 2]
        assert distances._equal_rows(x[1:3]) is None

    def test_distinct_rows_take_the_gram_path_unchanged(self):
        from dmage import two_block_sbm

        # the link-prediction benchmark's graph: no two feature rows are equal,
        # so its distances are byte-identical to the plain Gram formula
        g = two_block_sbm(n=600, p_intra=0.08, p_inter=0.01, feature_dim=16, seed=0)
        assert distances._equal_rows(g.features) is None
        want = frozen_euclidean(g.features)
        np.fill_diagonal(want, 0.0)
        assert pairwise_distance(g.features, "euclidean").tobytes() == want.tobytes()

    def test_one_n_by_n_buffer(self):
        # the Gram matrix becomes the distances in place: the peak is that
        # buffer and row-block temporaries, not a second n x n matrix
        import tracemalloc

        n = 1000
        x = np.random.default_rng(3).standard_normal((n, 16))
        x[1] = x[0]
        tracemalloc.start()
        try:
            pairwise_distance(x, "euclidean")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * n * n * 8


# ------------------------------------------------------- in-place passes
# Frozen copies of the distances and of the geodesic statistics and
# unconnected rule as they stood before these passes ran in place: the Gram
# formulas, the clip and the mean with the transpose over whole arrays, the
# symmetric minimum of the complete-graph geodesics through a transposed
# copy, and every infinite entry replaced through a whole-matrix mask.


def frozen_euclidean(x):
    """The whole-array Gram formula, averaged with its transpose; no row is special."""
    sq = np.sum(x * x, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.clip(d2, 0.0, None, out=d2)
    dist = np.sqrt(d2)
    return (dist + dist.T) / 2.0


def frozen_pairwise(x, metric):
    if metric == "euclidean":
        dist = frozen_euclidean(x)
        dist[(x[:, None, :] == x[None, :, :]).all(axis=2)] = 0.0
    elif metric == "manhattan":
        from scipy.spatial.distance import cdist

        dist = cdist(x, x, metric="cityblock")
    else:
        norms = np.linalg.norm(x, axis=1)
        zero = norms == 0.0
        unit = x / np.where(zero, 1.0, norms)[:, None]
        dist = 1.0 - unit @ unit.T
        np.clip(dist, 0.0, 2.0, out=dist)
        if np.any(zero):
            dist[zero, :] = 1.0
            dist[:, zero] = 1.0
    if metric != "euclidean":
        dist = (dist + dist.T) / 2.0
    np.fill_diagonal(dist, 0.0)
    return dist


def frozen_complete_cosine(x):
    graph = distances.csgraph_from_dense(frozen_pairwise(x, "cosine"), null_value=np.inf)
    dist = distances.floyd_warshall(graph, directed=False)
    dist = np.minimum(dist, dist.T)
    np.fill_diagonal(dist, 0.0)
    return dist


def frozen_geodesic(g, metric, lambda_):
    d = distances.dijkstra(distances._edge_weight_graph(g, metric), directed=True)
    finite = np.isfinite(d)
    connected_max = float(np.where(finite, d, 0.0).max(axis=1).max(initial=0.0))
    np.copyto(d, lambda_ * connected_max, where=np.isinf(d))
    np.fill_diagonal(d, 0.0)
    return d


def feature_rows(rng, n):
    """Sparse binary rows with zero rows and repeats, and Gaussian rows."""
    x = (rng.random((n, 9)) < 0.2).astype(float)
    x[: n // 3] = rng.standard_normal((n // 3, 9))
    x[n // 2 : n // 2 + 2] = x[n // 2]
    x[-1] = 0.0
    return x


class TestInPlacePassesMatchFrozenCopies:
    @pytest.mark.parametrize("block", [None, 64])
    @pytest.mark.parametrize("tile", [None, 5])
    @pytest.mark.parametrize("n", [1, 2, 3, 64, 65, 150])
    @pytest.mark.parametrize("metric", ["euclidean", "cosine", "manhattan"])
    def test_pairwise_distance_bit_for_bit(self, metric, n, tile, block, monkeypatch):
        # tiles of 64 and of 5 over sides below, at and past one tile; row
        # blocks of the Euclidean pass of all rows and of 64 elements
        if tile is not None:
            monkeypatch.setattr(distances, "_TILE", tile)
        if block is not None:
            monkeypatch.setattr(distances, "_BLOCK", block)
        x = feature_rows(np.random.default_rng(n), n)
        assert pairwise_distance(x, metric).tobytes() == frozen_pairwise(x, metric).tobytes()

    @pytest.mark.parametrize("tile", [None, 5])
    @pytest.mark.parametrize("n", [3, 64, 65, 150])
    def test_cosine_complete_graph_distances_bit_for_bit(self, n, tile, monkeypatch):
        if tile is not None:
            monkeypatch.setattr(distances, "_TILE", tile)
        x = feature_rows(np.random.default_rng(n), n)
        got = complete_graph_distances(x, "cosine")
        assert got.tobytes() == frozen_complete_cosine(x).tobytes()

    @pytest.mark.parametrize("scale", [1e-5, 1.0, 1e5])
    def test_manhattan_exactly_symmetric_as_computed(self, scale):
        # cdist sums |x_ik - x_jk| in one order for both orders of a pair
        x = np.random.default_rng(7).standard_normal((300, 200)) * scale
        d = pairwise_distance(x, "manhattan")
        assert np.array_equal(d, d.T)
        assert d.tobytes() == frozen_pairwise(x, "manhattan").tobytes()

    @pytest.mark.parametrize("w", [1, 2, 3])
    def test_geodesic_distances_bit_for_bit(self, w, workers, monkeypatch):
        workers(w)
        rng = np.random.default_rng(41)
        graphs = [
            components_graph(rng),  # isolated nodes and several components
            random_graph(rng, n=30, density=0.5),  # one component: nothing to replace
            random_graph(rng, n=40, density=0.03),
            AttributedGraph(5, normalize_edges([(0, 1)]), rng.standard_normal((5, 2)), None),
        ]
        for block in (1 << 19, 40):  # single source rows per Dijkstra block, too
            monkeypatch.setattr(distances, "_DIJKSTRA_BLOCK", block)
            for g in graphs:
                for metric in ("euclidean", "cosine"):
                    got = geodesic_distances(g, metric, lambda_=4.0)
                    want = frozen_geodesic(g, metric, 4.0)
                    assert got.matrix.tobytes() == want.tobytes()

    @pytest.mark.parametrize("w", [1, 2, 3])
    def test_edgeless_graph_warns_once(self, w, workers):
        workers(w)
        for n, warns in ((1, 0), (2, 1), (9, 1)):
            g = AttributedGraph(n, frozenset(), np.ones((n, 2)), None)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = geodesic_distances(g)
            assert [w.category for w in caught] == [DegenerateGraphWarning] * warns
            want = frozen_geodesic(g, "euclidean", 10.0)
            assert got.matrix.tobytes() == want.tobytes()
        # a graph with an edge has a connected pair, however small
        g = AttributedGraph(3, normalize_edges([(0, 2)]), np.ones((3, 2)), None)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = geodesic_distances(g)
        assert caught == [] and (got.matrix == 0).all()
