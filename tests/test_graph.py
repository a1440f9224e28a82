import os
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

from dmage.augmentation import AugmentationConfig, AugmentationWarning, augment
from dmage.graph import (
    AttributedGraph,
    DistanceMetric,
    GraphFormatError,
    adjacency,
    adjacency_from_edges,
    hop_neighborhoods,
    knn_graph,
    load_graph,
    normalize_edges,
)
from dmage.network import aggregation_matrix, default_stack
from dmage.training import TrainConfig, _aggregation_operator, train

from conftest import assert_same_csr, random_graph


def make_graph(n, edges, dims=3, labels=None):
    rng = np.random.default_rng(0)
    return AttributedGraph(
        n, normalize_edges(edges), rng.standard_normal((n, dims)),
        None if labels is None else np.asarray(labels, dtype=np.int64),
    )


class TestNormalizeEdges:
    def test_orders_endpoints(self):
        assert normalize_edges([(3, 1), (0, 2)]) == frozenset({(1, 3), (0, 2)})

    def test_deduplicates_both_orientations(self):
        assert normalize_edges([(1, 2), (2, 1), (1, 2)]) == frozenset({(1, 2)})

    def test_rejects_self_loop(self):
        with pytest.raises(GraphFormatError):
            normalize_edges([(2, 2)])

    @given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)), max_size=30))
    def test_result_always_ordered(self, pairs):
        pairs = [(i, j) for i, j in pairs if i != j]
        for i, j in normalize_edges(pairs):
            assert i < j


class TestAttributedGraph:
    def test_validates_feature_rows(self):
        with pytest.raises(ValueError):
            AttributedGraph(3, frozenset(), np.zeros((2, 2)), None)

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValueError):
            make_graph(3, [(0, 5)])

    def test_rejects_noncontiguous_labels(self):
        with pytest.raises(ValueError):
            make_graph(3, [], labels=[0, 2, 2])

    def test_num_classes(self):
        g = make_graph(4, [], labels=[0, 1, 1, 2])
        assert g.num_classes == 3

    def test_edge_array_sorted(self):
        g = make_graph(4, [(2, 3), (0, 1), (1, 3)])
        assert g.edge_array().tolist() == [[0, 1], [1, 3], [2, 3]]
        assert g.edge_array() is g.edge_array()  # built once per graph
        assert not g.edge_array().flags.writeable

    def test_with_edges_swaps_structure_only(self):
        g = make_graph(4, [(0, 1)])
        h = g.with_edges([(2, 3)])
        assert h.edges == frozenset({(2, 3)})
        assert h.features is g.features


def dense_adjacency(n, edges):
    """Loop-built 0/1 reference adjacency."""
    a = np.zeros((n, n))
    for i, j in edges:
        a[i, j] = a[j, i] = 1.0
    return a


def row_neighbors(adj, i):
    return adj.indices[adj.indptr[i] : adj.indptr[i + 1]].tolist()


class TestAdjacency:
    def test_neighbors_sorted_and_symmetric(self):
        g = make_graph(4, [(0, 2), (0, 1), (2, 3)])
        adj = adjacency(g)
        assert row_neighbors(adj, 0) == [1, 2]
        assert row_neighbors(adj, 2) == [0, 3]
        dense = adj.toarray()
        assert (dense == dense.T).all()
        assert dense.sum() == 2 * g.num_edges

    def test_csr_matches_dense(self):
        g = make_graph(5, [(0, 1), (1, 4), (2, 3)])
        adj = adjacency(g)
        assert adj.has_canonical_format and adj.dtype == np.float64
        assert (adj.toarray() == dense_adjacency(5, g.edges)).all()

    def test_degrees(self):
        g = make_graph(4, [(0, 1), (0, 2), (0, 3)])
        assert np.diff(adjacency(g).indptr).tolist() == [3, 1, 1, 1]

    def test_matches_frozen_copy(self):
        # the construction before the shared edge builder, with its sort_indices
        def frozen(n, edges):
            edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
            row = np.concatenate([edges[:, 0], edges[:, 1]])
            col = np.concatenate([edges[:, 1], edges[:, 0]])
            a = sp.csr_matrix((np.ones(row.size), (row, col)), shape=(n, n))
            a.sort_indices()
            return a

        rng = np.random.default_rng(24)
        cases = [(5, np.zeros((0, 2), np.int64)), (1, []), (3, [(2, 0)])]
        for _ in range(20):
            g = random_graph(rng, n=int(rng.integers(2, 30)), density=float(rng.uniform(0.0, 0.5)))
            cases.append((g.n, rng.permutation(g.edge_array())))
        for n, edges in cases:
            got = adjacency_from_edges(n, edges)
            assert_same_csr(got, frozen(n, edges))
            assert got.has_canonical_format


class TestHopNeighborhoods:
    def test_path_graph(self):
        # 0-1-2-3: hop-2 pairs are (0,2) and (1,3)
        g = make_graph(4, [(0, 1), (1, 2), (2, 3)])
        assert hop_neighborhoods(g).tolist() == [[0, 2], [1, 3]]

    def test_triangle_has_no_hop2(self):
        g = make_graph(3, [(0, 1), (1, 2), (0, 2)])
        assert hop_neighborhoods(g).size == 0

    def test_hop2_excludes_direct_edges_and_self(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(4, 12))
            iu, ju = np.triu_indices(n, k=1)
            keep = rng.random(iu.size) < 0.3
            g = make_graph(n, list(zip(iu[keep].tolist(), ju[keep].tolist())))
            dense = adjacency(g).toarray()
            two_step = (dense @ dense > 0)
            for i, j in hop_neighborhoods(g):
                assert i < j
                assert (i, j) not in g.edges
                assert two_step[i, j]


class TestArrayCoreCompleteness:
    def test_matches_dense_reference(self):
        """Hop-2 pairs, adjacency and the per-epoch training operator all equal
        their loop-built dense references, on 20 random graphs."""
        rng = np.random.default_rng(21)
        for trial in range(20):
            g = random_graph(rng, n=int(rng.integers(4, 30)), density=float(rng.uniform(0.05, 0.5)))
            ref = dense_adjacency(g.n, g.edges)
            assert (adjacency(g).toarray() == ref).all()

            two = ref @ ref
            want = sorted(
                [i, j] for i in range(g.n) for j in range(i + 1, g.n) if two[i, j] > 0 and ref[i, j] == 0
            )
            hop2 = hop_neighborhoods(g)
            assert hop2.dtype == np.int64 and hop2.shape == (len(want), 2)
            assert hop2.tolist() == want

            specs = default_stack(g.features.shape[1], (5, 4), 3)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", AugmentationWarning)
                out = augment(g, hop2, AugmentationConfig(0.3, rng_seed=trial), epoch=trial)
            removed = set(map(tuple, out.removed.tolist()))
            added = set(map(tuple, out.added.tolist()))
            perturbed = dense_adjacency(g.n, (g.edges - removed) | added)
            got = _aggregation_operator(g.n, out.result, specs).toarray()
            assert np.array_equal(got, aggregation_matrix(perturbed).toarray())


class TestKnnGraph:
    def test_line_of_points(self):
        # colinear equally spaced points: 1-nn connects consecutive pairs
        x = np.arange(5.0)[:, None]
        g = knn_graph(x, 1)
        assert (0, 1) in g.edges and (3, 4) in g.edges

    def test_every_node_reaches_k_neighbors(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((12, 3))
        g = knn_graph(x, 3)
        degs = np.diff(adjacency(g).indptr)
        assert (degs >= 3).all()

    def test_union_symmetrization_superset_of_out_edges(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((10, 2))
        k = 2
        g = knn_graph(x, k)
        d = np.linalg.norm(x[:, None] - x[None, :], axis=2)
        np.fill_diagonal(d, np.inf)
        for i in range(10):
            for j in np.argsort(d[i], kind="stable")[:k]:
                pair = (i, j) if i < j else (j, i)
                assert pair in g.edges

    def test_matches_stable_argsort_reference_on_ties(self):
        # binary features give cosine distances with many exact ties; the
        # reference takes each row's first k columns in a stable sort
        from dmage.distances import pairwise_distance

        rng = np.random.default_rng(3)
        for trial in range(30):
            n = int(rng.integers(2, 120))
            k = int(rng.integers(1, n))
            x = (rng.random((n, int(rng.integers(1, 10)))) < 0.3).astype(float)
            metric = ("cosine", "euclidean", "manhattan")[trial % 3]
            d = pairwise_distance(x, metric)
            np.fill_diagonal(d, np.inf)
            order = np.argsort(d, axis=1, kind="stable")[:, :k]
            expect = {(min(i, int(j)), max(i, int(j))) for i in range(n) for j in order[i]}
            assert knn_graph(x, k, metric).edges == expect, f"trial {trial}"

    def test_rejects_bad_k(self):
        x = np.zeros((4, 2))
        with pytest.raises(ValueError):
            knn_graph(x, 0)
        with pytest.raises(ValueError):
            knn_graph(x, 4)

    def test_metric_changes_neighbors(self):
        x = np.array([[1.0, 0.0], [10.0, 0.0], [0.0, 0.4], [8.0, 5.0]])
        g_euc = knn_graph(x, 1, DistanceMetric.EUCLIDEAN)
        g_cos = knn_graph(x, 1, DistanceMetric.COSINE)
        assert g_euc.edges != g_cos.edges


class TestLoadGraph:
    def write(self, tmp_path, edges, features, labels=None):
        e = tmp_path / "e.tsv"
        f = tmp_path / "f.tsv"
        e.write_text(edges)
        f.write_text(features)
        label_path = None
        if labels is not None:
            label_path = tmp_path / "l.tsv"
            label_path.write_text(labels)
        return str(e), str(f), (str(label_path) if label_path else None)

    def test_dense_ids(self, tmp_path):
        e, f, l = self.write(tmp_path, "0\t1\n1\t2\n", "1 2\n3 4\n5 6\n", "0\n0\n1\n")
        g = load_graph(e, f, l)
        assert g.n == 3
        assert g.edges == frozenset({(0, 1), (1, 2)})
        assert g.labels.tolist() == [0, 0, 1]

    def test_arbitrary_ids_remapped_sorted(self, tmp_path):
        e, f, _ = self.write(tmp_path, "10\t30\n20\t30\n", "1 0\n0 1\n1 1\n")
        id_map = tmp_path / "ids.tsv"
        g = load_graph(e, f, id_map_path=str(id_map))
        # ids 10, 20, 30 -> 0, 1, 2
        assert g.edges == frozenset({(0, 2), (1, 2)})
        assert id_map.read_text().splitlines() == ["10\t0", "20\t1", "30\t2"]

    def test_id_map_written_whole_or_not_at_all(self, tmp_path, monkeypatch):
        e, f, _ = self.write(tmp_path, "10\t30\n20\t30\n", "1 0\n0 1\n1 1\n")
        id_map = tmp_path / "ids.tsv"
        load_graph(e, f, id_map_path=str(id_map))
        assert id_map.read_bytes() == b"10\t0\n20\t1\n30\t2\n"

        real_fdopen = os.fdopen

        class HalfWrite:
            """A file that writes half of what it is given, then fails."""

            def __init__(self, fd, mode):
                self.f = real_fdopen(fd, mode)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, chunk):
                self.f.write(chunk[: len(chunk) // 2])
                self.f.flush()
                raise OSError(28, "No space left on device")

        id_map.write_text("previous map\n")
        monkeypatch.setattr(os, "fdopen", HalfWrite)
        with pytest.raises(OSError, match="No space"):
            load_graph(e, f, id_map_path=str(id_map))
        assert id_map.read_text() == "previous map\n"
        assert sorted(os.listdir(tmp_path)) == ["e.tsv", "f.tsv", "ids.tsv"]

    def test_self_loop_rejected_with_line_number(self, tmp_path):
        e, f, _ = self.write(tmp_path, "0\t1\n1\t1\n", "1\n2\n")
        with pytest.raises(GraphFormatError, match=":2"):
            load_graph(e, f)

    def test_trailing_isolated_nodes_load_and_train(self, tmp_path):
        # node 3 has no edges, so only the feature rows reveal it
        e, f, _ = self.write(tmp_path, "0 1\n1 2\n", "1 0\n0 1\n1 1\n0 0\n")
        g = load_graph(e, f)
        assert g.n == 4
        assert g.edges == frozenset({(0, 1), (1, 2)})
        result = train(g, TrainConfig(epochs=2))
        assert result.embeddings.shape[0] == 4
        assert np.isfinite(result.embeddings).all()

    def test_isolated_node_inside_id_range_loads_and_trains(self, tmp_path):
        # node 2 has no edges; the ids {0, 1, 3} are row indices, not remapped
        e, f, _ = self.write(tmp_path, "0 1\n1 3\n", "1 0\n0 1\n1 1\n0 2\n")
        g = load_graph(e, f)
        assert g.n == 4
        assert g.edges == frozenset({(0, 1), (1, 3)})
        result = train(g, TrainConfig(epochs=2))
        assert result.embeddings.shape[0] == 4
        assert np.isfinite(result.embeddings).all()

    def test_row_count_matching_neither_ids_nor_range_names_both(self, tmp_path):
        e, f, _ = self.write(tmp_path, "10 30\n20 30\n", "1\n2\n")
        with pytest.raises(GraphFormatError, match="2 feature rows.*3 distinct node ids.*30"):
            load_graph(e, f)

    def test_feature_row_count_mismatch(self, tmp_path):
        e, f, _ = self.write(tmp_path, "0\t1\n1\t2\n", "1\n2\n")
        with pytest.raises(GraphFormatError):
            load_graph(e, f)

    @pytest.mark.parametrize("value", ["nan", "NaN", "inf", "-inf", "Infinity"])
    def test_non_finite_feature_names_its_line(self, tmp_path, value):
        # a blank line does not shift the count: the value is on line 4
        e, f, _ = self.write(tmp_path, "0\t1\n1\t2\n", f"1 2\n\n3 4\n5 {value}\n")
        with pytest.raises(GraphFormatError, match=r"f\.tsv:4: non-finite feature value"):
            load_graph(e, f)

    def test_label_length_mismatch(self, tmp_path):
        e, f, l = self.write(tmp_path, "0\t1\n", "1\n2\n", "0\n1\n0\n")
        with pytest.raises(GraphFormatError):
            load_graph(e, f, l)

    def test_triplet_features(self, tmp_path):
        # the retired sparse format is refused, not read as 3-column dense rows
        e = tmp_path / "e.tsv"
        e.write_text("0\t1\n")
        f = tmp_path / "f.coo"
        f.write_text("0 0 1.5\n1 2 2.5\n")
        with pytest.raises(GraphFormatError, match=r"f\.coo.*'\.coo' triplet format"):
            load_graph(str(e), str(f))
