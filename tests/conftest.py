import functools
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from dmage import TrainConfig, train, two_block_sbm


def random_graph(rng, n=None, density=0.3, dims=4):
    """Random attributed graph for property tests (may be disconnected)."""
    from dmage.graph import AttributedGraph

    if n is None:
        n = int(rng.integers(4, 16))
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < density
    edges = frozenset(zip(iu[keep].tolist(), ju[keep].tolist()))
    features = rng.standard_normal((n, dims))
    return AttributedGraph(n, edges, features, None)


def assert_same_csr(got, want):
    """Two CSR matrices are equal field for field: shape, dtypes and the bytes of data, indices and indptr."""
    assert got.shape == want.shape
    for field in ("data", "indices", "indptr"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype, field
        assert a.tobytes() == b.tobytes(), field


@functools.lru_cache(maxsize=1)
def cora_like_graph():
    """The benchmark's Cora-shaped graph ``cora_like(1)``, from ``bench/graphs.py``."""
    path = Path(__file__).resolve().parents[1] / "bench" / "graphs.py"
    spec = importlib.util.spec_from_file_location("bench_graphs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.cora_like(1)


def cora_shaped(n):
    """``cora_like(1)`` cut to its first ``n`` nodes: the features of Cora's shape on fewer rows."""
    from dmage.graph import AttributedGraph

    g = cora_like_graph()
    edges = frozenset((i, j) for i, j in g.edges if j < n)
    return AttributedGraph(n, edges, g.features[:n], g.labels[:n])


@pytest.fixture(scope="session")
def sbm_graph():
    return two_block_sbm(seed=0)


@pytest.fixture(scope="session")
def sbm_result(sbm_graph):
    """One shared short training run on the block-model fixture."""
    return train(sbm_graph, TrainConfig(epochs=60, seed=0))


@pytest.fixture
def toy_dataset(tmp_path):
    """Block-model graph written to disk in the CLI's input formats."""
    g = two_block_sbm(seed=0)
    edge_path = tmp_path / "edges.tsv"
    feature_path = tmp_path / "features.tsv"
    label_path = tmp_path / "labels.tsv"
    edge_path.write_text("".join(f"{i}\t{j}\n" for i, j in g.edge_array()))
    feature_path.write_text(
        "".join("\t".join(format(v, ".17g") for v in row) + "\n" for row in g.features)
    )
    label_path.write_text("".join(f"{v}\n" for v in g.labels))
    return {
        "graph": g,
        "edge_path": str(edge_path),
        "feature_path": str(feature_path),
        "label_path": str(label_path),
    }


@pytest.fixture
def workers(monkeypatch):
    """``workers(w)`` splits every row pass over ``w`` workers, however few the rows."""
    from dmage import distances

    def force(w):
        monkeypatch.setattr(distances, "_usable_cores", lambda: w)
        monkeypatch.setattr(distances, "_MIN_WORK", 1)

    return force
