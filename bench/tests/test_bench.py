"""Tests of the benchmark itself: inputs, tracer, and the launcher's failure mode.

    python3 -m pytest -q bench/tests
"""

import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import dmage
import graphs
import layers
from tracer import Tracer

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _module_namespaces():
    return {
        name: dict(vars(module))
        for name, module in sys.modules.items()
        if name.split(".")[0] == "dmage"
    }


def test_cora_like_is_deterministic_per_seed_and_cora_shaped():
    a, b, c = graphs.cora_like(3), graphs.cora_like(3), graphs.cora_like(4)
    assert a.edges == b.edges
    assert np.array_equal(a.features, b.features) and np.array_equal(a.labels, b.labels)
    assert a.edges != c.edges
    assert a.features.shape == (2708, 1433) and set(np.unique(a.features)) == {0.0, 1.0}
    assert a.num_edges == graphs.CORA_EDGES and a.num_classes == 7
    assert 15 < a.features.sum(axis=1).mean() < 21
    e = a.edge_array()
    assert 0.75 < np.mean(a.labels[e[:, 0]] == a.labels[e[:, 1]]) < 0.87


def test_dense_sbm_and_non_edges_are_deterministic_per_seed():
    assert graphs.dense_sbm(5).edges == graphs.dense_sbm(5).edges
    assert graphs.dense_sbm(5).edges != graphs.dense_sbm(6).edges
    g = graphs.dense_sbm(5)
    pairs = graphs.non_edges(g, 500, 5)
    assert np.array_equal(pairs, graphs.non_edges(g, 500, 5))
    keys = {(i, j) for i, j in pairs.tolist()}
    assert len(keys) == 500 and not keys & g.edges
    assert all(i < j for i, j in keys)


def test_tracer_wraps_callers_names_and_restores_them_after_an_exception():
    before = _module_namespaces()
    with pytest.raises(RuntimeError, match="inside"):
        with Tracer():
            assert dmage.training.fused_loss.__wrapped__ is before["dmage.losses"]["fused_loss"]
            assert hasattr(dmage.train, "__wrapped__")
            assert hasattr(dmage.similarity.calibrate_all, "__wrapped__")
            raise RuntimeError("inside")
    after = _module_namespaces()
    assert after.keys() == before.keys()
    for name, namespace in before.items():
        for attr, value in namespace.items():
            assert after[name][attr] is value, f"{name}.{attr} not restored"


def test_traced_training_is_byte_identical_and_self_times_add_up():
    g = dmage.two_block_sbm(n=40, seed=1)
    cfg = dmage.TrainConfig(epochs=4, seed=2, hidden_dims=(16,), latent_dim=4)
    plain = dmage.train(g, cfg)
    counts = layers.Counts()
    with Tracer(counts.observers()) as tracer:
        traced = dmage.train(g, cfg)
    assert traced.embeddings.tobytes() == plain.embeddings.tobytes()
    assert traced.loss_history[-1].total == plain.loss_history[-1].total

    root = tracer.spans[0]
    assert root[0] == "training.train" and root[1] is None
    assert sum(tracer.self_times()) == pytest.approx(root[3] - root[2], rel=1e-9)
    assert tracer.calls["losses.fused_loss"] == 4
    assert counts.n["calibrate.rows"] == 2 * g.n
    assert counts.n["fused_loss.pairs"] == 4 * g.n * (g.n - 1) // 2


def test_launcher_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cora-cold", "--seed", "0", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
