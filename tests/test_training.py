import dataclasses
import json
import logging
import re
import warnings

import numpy as np
import pytest

from dmage.container import load_checkpoint, load_matrix, save_checkpoint
from dmage.graph import adjacency
from dmage import container, distances, losses, network, similarity, training
from dmage.losses import BregmanKind
from dmage.graph import AttributedGraph
from dmage.network import NetworkParams, default_stack, forward, init_network, aggregation_matrix
from dmage.training import (
    TrainConfig,
    TrainingDivergedError,
    _AdamOptimizer,
    _batches,
    embed,
    precompute,
    read_embeddings,
    train,
    write_embeddings,
    write_loss_history,
)
from dmage.synthetic import two_block_sbm

from conftest import cora_shaped, random_graph
from test_losses import assert_matches_oracle

SMALL = dict(hidden_dims=(16, 8), latent_dim=3, epochs=5, p_minus=0.3)

# ``TrainConfig().to_dict()`` before nine options were retired at one value;
# no_augment and the last eight keys are those options
DEFAULTS_WITH_RETIRED_KEYS = {
    "learning_rate": 0.001, "epochs": 500, "batch_size": 0, "alpha": 1.0,
    "nu_input": 100.0, "nu_latent": 1.0, "q_p": 16.0, "p_minus": 0.01,
    "metric": "euclidean", "knn_k": 0, "seed": 0, "bregman": "logi",
    "no_augment": False, "no_fca": False, "hard_similarity": False,
    "hidden_dims": [500, 250], "latent_dim": 200, "lambda": 10.0,
    "optimizer": "adam", "adam_beta1": 0.9, "adam_beta2": 0.999, "adam_eps": 1e-08,
    "activation": "leaky_relu", "fca_variant": "gcn", "self_loops": True,
    "symmetrize_variant": "paper",
}


def refuse(name):
    def call(*args, **kwargs):
        raise AssertionError(f"{name} called")

    return call


def small_graph(seed=3, n=20):
    # dense enough that no node is isolated (keeps calibration warning-free)
    return two_block_sbm(n=n, p_intra=0.5, p_inter=0.1, seed=seed)


class TestTrainConfig:
    def test_defaults_valid(self):
        cfg = TrainConfig()
        assert cfg.learning_rate == 1e-3
        assert cfg.epochs == 500
        assert cfg.lambda_ == 10.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epochs": 0},
            {"batch_size": 1},
            {"learning_rate": 0.0},
            {"learning_rate": -1.0},
            {"p_minus": 1.5},
            {"p_minus": -0.1},
            {"lambda_": 1.0},
            {"alpha": -0.5},
            {"nu_input": 0.0},
            {"nu_latent": -1.0},
            {"q_p": 1.0},
            {"knn_k": -1},
            {"seed": -1},
            {"bregman": "kl"},
            {"metric": "foo"},
            {"latent_dim": 0},
            {"hidden_dims": [0]},
            {"hidden_dims": (8, -1)},
            {"epochs": 2.5},
            {"batch_size": 2.5},
            {"knn_k": 2.5},
            {"seed": 2.5},
            {"latent_dim": 2.5},
            {"hidden_dims": (8, 4.5)},
            {"epochs": True},
            {"hidden_dims": (8, True)},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize(
        "key", ["learning_rate", "alpha", "nu_input", "nu_latent", "q_p", "p_minus", "lambda_"]
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_numbers(self, key, value):
        with pytest.raises(ValueError, match=f"{key.rstrip('_')} must be a finite number"):
            TrainConfig(**{key: value})

    def test_bregman_error_names_the_kinds(self):
        with pytest.raises(ValueError, match=r"bregman must be one of \['sed', 'logi'\]"):
            TrainConfig(bregman="sed_plus_logi")
        assert [k.value for k in BregmanKind] == ["sed", "logi"]

    def test_json_round_trip(self):
        # the manifest holds to_dict(); a run reproduces from it
        cfg = TrainConfig(lambda_=5.0, metric="cosine", hidden_dims=(32, 16))
        text = json.dumps(cfg.to_dict())
        assert TrainConfig.from_dict(json.loads(text)) == cfg

    def test_serializes_lambda_without_underscore(self):
        d = TrainConfig(lambda_=7.5).to_dict()
        assert d["lambda"] == 7.5
        assert "lambda_" not in d

    def test_accepts_lambda_key(self):
        assert TrainConfig.from_dict({"lambda": 3.0}).lambda_ == 3.0

    def test_rejects_both_lambda_spellings(self):
        with pytest.raises(ValueError, match="both"):
            TrainConfig.from_dict({"lambda": 3.0, "lambda_": 3.0})

    def test_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown config keys.*learning_rte"):
            TrainConfig.from_dict({"learning_rte": 0.1})

    def test_retired_keys_at_their_value_are_dropped(self):
        assert TrainConfig.from_dict(DEFAULTS_WITH_RETIRED_KEYS) == TrainConfig()
        assert len(dataclasses.fields(TrainConfig)) == len(DEFAULTS_WITH_RETIRED_KEYS) - 9 == 17
        # two retired evaluation keys of the CLI config
        eval_keys = {"f1_variant": "macro", "edge_scorer": "t_kernel"}
        assert TrainConfig.from_dict(eval_keys) == TrainConfig()

    @pytest.mark.parametrize(
        "key, value",
        [("optimizer", "sgd"), ("adam_beta1", 0.5), ("activation", "relu"),
         ("fca_variant", "verbatim"), ("self_loops", False), ("symmetrize_variant", "fuzzy"),
         ("f1_variant", "micro"), ("edge_scorer", "cosine"), ("no_augment", True)],
    )
    def test_retired_keys_at_another_value_raise(self, key, value):
        with pytest.raises(ValueError, match=f"'{key}' is retired"):
            TrainConfig.from_dict({key: value})

    def test_hidden_dims_list_becomes_tuple(self):
        cfg = TrainConfig.from_dict({"hidden_dims": [8, 4]})
        assert cfg.hidden_dims == (8, 4)
        json.loads(json.dumps(cfg.to_dict()))  # list form stays serializable


class TestPrecompute:
    def test_returns_joint_matrices(self):
        g = small_graph()
        pc, pp = precompute(g, TrainConfig())
        for sm in (pc, pp):
            assert sm.kind == "joint"
            m = sm.matrix
            assert m.shape == (g.n, g.n)
            assert np.allclose(m, m.T)
            assert np.all(np.diag(m) == 0)
            off = m[~np.eye(g.n, dtype=bool)]
            assert ((off >= 0) & (off < 1)).all()
            assert (off > 0).any()

    def test_cache_round_trip_bit_identical(self, tmp_path):
        g = small_graph()
        cfg = TrainConfig()
        first = precompute(g, cfg, cache_dir=str(tmp_path))
        assert sorted(p.suffix for p in tmp_path.iterdir()) == [".dmgs", ".dmgs"]
        second = precompute(g, cfg, cache_dir=str(tmp_path))
        for a, b in zip(first, second):
            assert a.matrix.tobytes() == b.matrix.tobytes()

    def test_cache_names_are_stable(self, tmp_path):
        # the names of the float32 payload, whose keys hash the features once;
        # no file of an earlier version can hit, because its payload is float64
        precompute(two_block_sbm(seed=0), TrainConfig(), cache_dir=str(tmp_path))
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "complete-ddef72eb519d7830a85a22cf1566ad94.dmgs",
            "prior-97ef30c74a6f4ea23d46aec2861d37ef.dmgs",
        ]

    @pytest.mark.parametrize("knn_k", [0, 4], ids=["complete", "knn"])
    def test_graphs_differing_in_edges_share_the_complete_file(self, knn_k, tmp_path, monkeypatch):
        g = small_graph()
        other = g.with_edges(g.edge_array()[::2])
        cfg = TrainConfig(knn_k=knn_k)
        fresh = [precompute(h, cfg)[0].matrix.tobytes() for h in (g, other)]
        assert fresh[0] == fresh[1]
        precompute(g, cfg, cache_dir=str(tmp_path))
        for name in ("complete_graph_distances", "knn_graph"):
            monkeypatch.setattr(training, name, refuse(name))
        got, _ = precompute(other, cfg, cache_dir=str(tmp_path))
        (complete,) = tmp_path.glob("complete-*.dmgs")
        assert len(list(tmp_path.glob("prior-*.dmgs"))) == 2
        assert got.matrix.tobytes() == fresh[1]
        assert load_matrix(complete)[0].tobytes() == fresh[1]

    @pytest.mark.parametrize(
        "kwargs",
        [{}, {"metric": "cosine", "knn_k": 4}, {"hard_similarity": True}],
        ids=["complete", "knn", "hard"],
    )
    def test_cache_names_are_the_files_written(self, kwargs, tmp_path):
        g = small_graph()
        cfg = TrainConfig(**kwargs)
        complete, prior = training._cache_names(g, cfg)
        precompute(g, cfg, cache_dir=str(tmp_path))
        assert {p.name for p in tmp_path.iterdir()} == {complete, prior} - {None}
        assert (prior is None) == cfg.hard_similarity

    def test_cache_hit_logged(self, tmp_path, caplog):
        g = small_graph()
        cfg = TrainConfig()
        precompute(g, cfg, cache_dir=str(tmp_path))
        with caplog.at_level(logging.INFO, logger="dmage"):
            precompute(g, cfg, cache_dir=str(tmp_path))
        assert any("cache hit" in r.message for r in caplog.records)

    @pytest.mark.parametrize(
        "cfg",
        [TrainConfig(), TrainConfig(metric="cosine", knn_k=4)],
        ids=["complete", "knn"],
    )
    def test_cache_files_byte_identical_across_worker_counts(self, cfg, tmp_path, workers):
        # isolated nodes and several components reach the unconnected rule
        g = two_block_sbm(n=45, p_intra=0.08, p_inter=0.01, seed=2)
        files = []
        for w in (1, 2, 3):
            workers(w)
            cache = tmp_path / str(w)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                precompute(g, cfg, cache_dir=str(cache))
            files.append({p.name: p.read_bytes() for p in cache.iterdir()})
        assert len(files[0]) == 2
        assert files[1] == files[0] and files[2] == files[0]

    @pytest.mark.parametrize("knn_k", [0, 4], ids=["complete", "knn"])
    def test_one_timing_line_per_computed_matrix(self, tmp_path, caplog, workers, knn_k):
        workers(3)
        g = small_graph()
        cfg = TrainConfig(knn_k=knn_k)
        with caplog.at_level(logging.INFO, logger="dmage"):
            precompute(g, cfg, cache_dir=str(tmp_path))
        lines = [r.message for r in caplog.records if "similarity, up to" in r.message]
        assert [line.split()[0] for line in lines] == ["complete", "prior"]
        for line in lines:
            # the kNN graph is built for the complete similarity only
            knn = r"kNN graph \d+\.\d{3} s, " if knn_k and line.startswith("complete") else ""
            assert re.search(f"similarity, up to 3 workers: {knn}distances ", line)
            for stage in ("calibration", "kernel+symmetrize", "cache write"):
                assert f", {stage} " in line
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="dmage"):
            precompute(g, cfg, cache_dir=str(tmp_path))
        assert not [r for r in caplog.records if "similarity, up to" in r.message]

    @pytest.mark.parametrize("bad", [np.nan, 2.0], ids=["nan", "two"])
    def test_cached_similarity_outside_unit_interval_is_recomputed(self, bad, tmp_path, caplog):
        g = small_graph()
        cfg = TrainConfig()
        want = [m.matrix.tobytes() for m in precompute(g, cfg, cache_dir=str(tmp_path))]
        files = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        (prior,) = tmp_path.glob("prior-*.dmgs")
        raw = bytearray(files[prior.name])
        raw[12 + 4 * 5 : 12 + 4 * 6] = np.float32(bad).tobytes()  # entry (0, 5)
        prior.write_bytes(bytes(raw))
        with caplog.at_level(logging.INFO, logger="dmage"):
            got = precompute(g, cfg, cache_dir=str(tmp_path))
        misses = [r for r in caplog.records if "cache miss" in r.message]
        assert len(misses) == 1 and prior.name in misses[0].message
        assert misses[0].levelno == logging.WARNING
        assert "prior similarity holds values outside [0, 1]" in misses[0].message
        assert [m.matrix.tobytes() for m in got] == want
        # the file is written again, as it was
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == files

    @pytest.mark.parametrize(
        "damage, says",
        [
            ("truncate", "expected 14400 payload bytes for n=60, found 14396"),
            ("magic", "unknown magic b'DMGD'"),
            ("header", "truncated header"),
        ],
    )
    def test_unreadable_cache_file_is_recomputed(self, damage, says, tmp_path, caplog):
        g = two_block_sbm(seed=0)
        cfg = TrainConfig()
        want = [m.matrix.tobytes() for m in precompute(g, cfg, cache_dir=str(tmp_path))]
        files = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        (bad,) = tmp_path.glob("prior-*.dmgs")
        raw = files[bad.name]
        if damage == "truncate":
            bad.write_bytes(raw[:-4])
        elif damage == "header":
            bad.write_bytes(raw[:11])
        else:
            bad.write_bytes(b"DMGD" + raw[4:])
        with caplog.at_level(logging.INFO, logger="dmage"):
            got = precompute(g, cfg, cache_dir=str(tmp_path))
        misses = [r for r in caplog.records if "cache miss" in r.message]
        assert len(misses) == 1 and misses[0].levelno == logging.WARNING
        assert bad.name in misses[0].message and says in misses[0].message
        assert [m.matrix.tobytes() for m in got] == want
        # the file is written again, as it was
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == files

    def test_computed_similarity_outside_unit_interval_raises(self, monkeypatch):
        real = training.symmetrize

        def with_nan(p, out=None):
            joint = real(p, out=out)
            joint.matrix[0, 1] = joint.matrix[1, 0] = np.nan
            return joint

        monkeypatch.setattr(training, "symmetrize", with_nan)
        with pytest.raises(ValueError, match="complete similarity holds values outside"):
            precompute(small_graph(), TrainConfig())

    def test_cache_dir_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DMAGE_CACHE_DIR", str(tmp_path))
        precompute(small_graph(), TrainConfig())
        assert any(p.suffix == ".dmgs" for p in tmp_path.iterdir())

    def test_config_change_writes_one_similarity_per_matrix(self, tmp_path):
        g = small_graph()
        precompute(g, TrainConfig(q_p=16.0), cache_dir=str(tmp_path))
        before = {p.name for p in tmp_path.iterdir()}
        precompute(g, TrainConfig(q_p=8.0), cache_dir=str(tmp_path))
        after = {p.name for p in tmp_path.iterdir()}
        assert len(before) == 2 and before < after and len(after) == 4
        assert sorted(name.split("-")[0] for name in after - before) == ["complete", "prior"]
        assert all(name.endswith(".dmgs") for name in after)

    def test_warm_cache_computes_no_distances(self, tmp_path, monkeypatch):
        g = small_graph()
        cfg = TrainConfig()
        first = precompute(g, cfg, cache_dir=str(tmp_path))
        loaded = []

        def spy(path):
            loaded.append(path)
            return load_matrix(path)

        monkeypatch.setattr("dmage.training.load_matrix", spy)
        for name in ("complete_graph_distances", "_calibrated", "_calibrated_geodesics"):
            monkeypatch.setattr(training, name, refuse(name))
        second = precompute(g, cfg, cache_dir=str(tmp_path))
        assert len(loaded) == 2
        for a, b in zip(first, second):
            assert a.matrix.tobytes() == b.matrix.tobytes()

    def test_warm_cache_builds_no_knn_graph(self, tmp_path, monkeypatch):
        g = small_graph()
        cfg = TrainConfig(knn_k=3)
        first = precompute(g, cfg, cache_dir=str(tmp_path))

        def refuse(*args, **kwargs):
            raise AssertionError("knn_graph called on a cache hit")

        monkeypatch.setattr("dmage.training.knn_graph", refuse)
        second = precompute(g, cfg, cache_dir=str(tmp_path))
        for a, b in zip(first, second):
            assert a.matrix.tobytes() == b.matrix.tobytes()

    def test_hard_similarity_uses_adjacency(self):
        g = small_graph()
        _, pp = precompute(g, TrainConfig(hard_similarity=True))
        assert np.array_equal(pp.matrix, adjacency(g).toarray())
        assert set(np.unique(pp.matrix)) <= {0.0, 1.0}

    @pytest.mark.parametrize("hard", [False, True], ids=["geodesic", "hard"])
    @pytest.mark.parametrize("knn_k", [0, 4], ids=["complete", "knn"])
    @pytest.mark.parametrize("variant", ["paper"])
    def test_matrices_exactly_symmetric(self, variant, knn_k, hard, tmp_path):
        # fused_loss computes each unordered pair once and mirrors it; the
        # retired key at its one value loads, as an older manifest sets it
        g = two_block_sbm(n=45, p_intra=0.08, p_inter=0.01, seed=2)
        cfg = TrainConfig.from_dict(
            {"symmetrize_variant": variant, "knn_k": knn_k, "hard_similarity": hard}
        )
        for lookup in ("miss", "hit"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                matrices = precompute(g, cfg, cache_dir=str(tmp_path))
            for sm in matrices:
                assert np.array_equal(sm.matrix, sm.matrix.T), lookup
            assert len(list(tmp_path.iterdir())) == (1 if hard else 2)

    def test_knn_substitution_changes_complete_matrix(self):
        g = small_graph()
        full, _ = precompute(g, TrainConfig(knn_k=0))
        knn, _ = precompute(g, TrainConfig(knn_k=3))
        assert not np.allclose(full.matrix, knn.matrix)

    @pytest.mark.parametrize(
        "kwargs",
        [{}, {"metric": "cosine", "knn_k": 4}, {"hard_similarity": True}],
        ids=["complete", "knn", "hard"],
    )
    def test_matrices_are_float32_in_the_unit_interval_without_subnormals(
        self, kwargs, tmp_path, monkeypatch
    ):
        # blocks far apart for their spread: far pairs' similarities underflow
        g = two_block_sbm(n=45, p_intra=0.08, p_inter=0.01, separation=4.0, sigma=0.5, seed=2)
        cfg = TrainConfig(**kwargs)
        tiny = np.finfo(np.float32).tiny
        flushed = []
        real = training.symmetrize

        def spy(p, out=None):
            # the float64 joint form holds values that float32 keeps only as subnormals
            wide = real(p).matrix
            flushed.append(int(((wide != 0) & (np.abs(wide) < tiny)).sum()))
            return real(p, out=out)

        monkeypatch.setattr(training, "symmetrize", spy)
        runs = []
        for lookup in ("miss", "hit"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                runs.append(precompute(g, cfg, cache_dir=str(tmp_path)))
        assert len(flushed) == (1 if cfg.hard_similarity else 2) and all(flushed)
        for cold, warm in zip(*runs):
            for m in (cold.matrix, warm.matrix):
                assert m.dtype == np.float32 and m.flags.c_contiguous
                assert np.array_equal(m, m.T)
                assert m.min() >= 0.0 and m.max() <= 1.0
                assert not ((m != 0) & (m < tiny)).any()
            assert cold.matrix.tobytes() == warm.matrix.tobytes()
        for path in tmp_path.iterdir():
            assert path.stat().st_size == 12 + 4 * g.n * g.n

    def test_float64_file_of_earlier_versions_is_recomputed(self, tmp_path, caplog):
        g = two_block_sbm(seed=0)
        cfg = TrainConfig()
        want = [m.matrix.tobytes() for m in precompute(g, cfg, cache_dir=str(tmp_path))]
        files = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        (prior,) = tmp_path.glob("prior-*.dmgs")
        # the layout earlier versions wrote: the same header, a float64 payload
        wide = load_matrix(prior)[0].astype(np.float64)
        prior.write_bytes(files[prior.name][:12] + wide.tobytes())
        with caplog.at_level(logging.INFO, logger="dmage"):
            got = precompute(g, cfg, cache_dir=str(tmp_path))
        misses = [r for r in caplog.records if "cache miss" in r.message]
        assert len(misses) == 1 and misses[0].levelno == logging.WARNING
        assert prior.name in misses[0].message
        assert "expected 14400 payload bytes for n=60, found 28800" in misses[0].message
        assert [m.matrix.tobytes() for m in got] == want
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == files

    def test_cache_names_hash_the_features_once(self, monkeypatch):
        g = two_block_sbm(n=60, feature_dim=64, seed=0)
        sizes = []
        real = container.hashlib.sha256

        class Spy:
            def __init__(self):
                self.h = real()

            def update(self, data):
                sizes.append(memoryview(data).nbytes)
                self.h.update(data)

            def hexdigest(self):
                return self.h.hexdigest()

        monkeypatch.setattr(container.hashlib, "sha256", Spy)
        training._cache_names(g, TrainConfig())
        assert sizes.count(g.features.nbytes) == 1
        assert sum(sizes) < 2 * g.features.nbytes

    def test_cache_names_follow_what_each_matrix_reads(self):
        g = small_graph()
        cfg = TrainConfig()
        base = training._cache_names(g, cfg)
        features = g.features.copy()
        features[0, 0] += 1.0
        changes = {
            "edges": (g.with_edges(g.edge_array()[::2]), cfg),
            "features": (AttributedGraph(g.n, g.edges, features, g.labels), cfg),
            "metric": (g, TrainConfig(metric="cosine")),
            "lambda": (g, TrainConfig(lambda_=5.0)),
            "nu": (g, TrainConfig(nu_input=50.0)),
            "q_p": (g, TrainConfig(q_p=8.0)),
        }
        for what, (h, c) in changes.items():
            complete, prior = training._cache_names(h, c)
            # the complete matrix reads the features, and lambda only with a kNN graph
            assert (complete == base[0]) == (what in ("edges", "lambda")), what
            assert prior != base[1], what
        knn = TrainConfig(knn_k=4)
        assert training._cache_names(g, knn)[0] != training._cache_names(
            g, dataclasses.replace(knn, lambda_=5.0)
        )[0]
        assert training._cache_names(g, TrainConfig(hard_similarity=True)) == (base[0], None)


class TestReachLimitedCompleteSimilarity:
    """The kNN graph's geodesics computed only as far as the kernel reaches."""

    CFG = dict(metric="cosine", knn_k=15, hidden_dims=(16, 8), latent_dim=4, epochs=3)

    def run(self, g, cache):
        cfg = TrainConfig(**self.CFG)
        with warnings.catch_warnings():
            # the prior graph's isolated nodes miss the calibration target
            warnings.simplefilter("ignore", similarity.CalibrationWarning)
            p_complete = precompute(g, cfg, cache_dir=str(cache))[0].matrix
            return p_complete, train(g, cfg, str(cache))

    def test_same_embedding_bytes_as_the_full_similarity(self, tmp_path, monkeypatch):
        g = cora_shaped(900)
        reach, got = self.run(g, tmp_path / "reach")

        def full(g, metric, lambda_, nu, q_p):
            geodesics = distances.geodesic_distances
            return similarity._calibrated(lambda: geodesics(g, metric, lambda_).matrix, nu, q_p)

        monkeypatch.setattr(training, "_calibrated_geodesics", full)
        p_full, want = self.run(g, tmp_path / "full")
        # the similarities differ, below the floor only, which narrowing to
        # float32 rounds to one step of float32, or to a value flushed to 0
        assert (reach != p_full).any()
        f32 = np.finfo(np.float32)
        np.testing.assert_allclose(reach, p_full, rtol=f32.eps, atol=f32.tiny + 2.0 * similarity._FLOOR)
        assert got.embeddings.tobytes() == want.embeddings.tobytes()
        assert [t.total for t in got.loss_history] == [t.total for t in want.loss_history]

    def test_one_line_per_matrix_says_how_far_its_rows_were_computed(self, tmp_path, caplog):
        g = cora_shaped(900)
        with caplog.at_level(logging.INFO, logger="dmage"):
            self.run(g, tmp_path)
        lines = [r.message for r in caplog.records if "similarity, up to" in r.message]
        assert [line.split()[0] for line in lines] == ["complete", "prior"]
        pattern = r"; pairs computed ([0-9.]+)%, rows extended (\d+), rows in full (\d+)$"
        counts = [re.search(pattern, line) for line in lines]
        pairs, extended, full = counts[0].groups()
        # the connected kNN graph: a share of the pairs, some rows extended,
        # the sample and few others in full
        assert 0.0 < float(pairs) < 100.0
        assert int(extended) > 0 and 16 <= int(full) < 900
        # the priori graph has isolated nodes: every row in full
        assert counts[1].groups() == ("100.0", "0", "900")
        # a cache hit logs no such line
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="dmage"):
            self.run(g, tmp_path)
        assert not [r for r in caplog.records if "similarity, up to" in r.message]


class TestFusedLossOnPrecomputedMatrices:
    @pytest.mark.parametrize("m", [9, 20, 257])
    def test_trapezoid_blocks_bit_for_bit(self, m, monkeypatch):
        # blocks of 64 pairs: 9 rows take 7 + 2, 20 rows 3, 3, 4, 6, 4, and
        # 257 rows one at a time until the trapezoids grow narrow; the loss
        # matches the frozen whole-array copy to rounding (see test_losses)
        monkeypatch.setattr(losses, "_BLOCK", 64)
        g = two_block_sbm(n=262, p_intra=0.05, p_inter=0.005, seed=4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pc, pp = precompute(g, TrainConfig())
        rng = np.random.default_rng(m)
        Z = rng.standard_normal((g.n, 3))
        batch = rng.permutation(g.n)[:m]
        for kind in BregmanKind:
            for alpha in (0.0, 0.5, 1.0):
                got = losses.fused_loss(pc, pp, Z[batch], 2.5, alpha, kind, batch)
                # float64 rows read the float32 matrices widened, which is exact
                wide = [m.matrix.astype(np.float64) for m in (pc, pp)]
                assert_matches_oracle(got, *wide, Z, 2.5, alpha, kind, batch)


class TestBatches:
    def test_plain_chunks(self):
        out = _batches(np.arange(6), 3)
        assert [b.tolist() for b in out] == [[0, 1, 2], [3, 4, 5]]

    def test_trailing_singleton_merges(self):
        out = _batches(np.arange(7), 3)
        assert [len(b) for b in out] == [3, 4]

    def test_partition_preserved(self):
        perm = np.random.default_rng(0).permutation(11)
        out = _batches(perm, 4)
        assert sorted(np.concatenate(out).tolist()) == list(range(11))
        assert all(len(b) >= 2 for b in out)

    def test_single_batch(self):
        out = _batches(np.arange(5), 5)
        assert len(out) == 1

    def test_each_batch_sorted_after_the_merge(self):
        perm = np.random.default_rng(1).permutation(13)
        out = _batches(perm, 4)
        want = [perm[:4], perm[4:8], perm[8:]]  # the trailing singleton merged
        assert [b.tolist() for b in out] == [sorted(b.tolist()) for b in want]


class TestAdamOptimizer:
    def test_matches_reference_recurrence(self):
        """Three steps against the textbook bias-corrected update, scalar loop."""
        rng = np.random.default_rng(0)
        specs = default_stack(3, (4,), 2, "leaky_relu", no_fca=True)
        params = init_network(specs, seed=0)
        ref_w = [w.copy() for w in params.weights]
        ref_b = [b.copy() for b in params.biases]
        opt = _AdamOptimizer(0.01)
        m = [np.zeros_like(t) for t in ref_w + ref_b]
        v = [np.zeros_like(t) for t in ref_w + ref_b]
        for t in range(1, 4):
            dW = [rng.standard_normal(w.shape) for w in ref_w]
            dB = [rng.standard_normal(b.shape) for b in ref_b]
            opt.step(params, dW, dB)
            for k, (x, gr) in enumerate(zip(ref_w + ref_b, dW + dB)):
                m[k] = 0.9 * m[k] + 0.1 * gr
                v[k] = 0.999 * v[k] + 0.001 * gr * gr
                mh = m[k] / (1 - 0.9**t)
                vh = v[k] / (1 - 0.999**t)
                x -= 0.01 * mh / (np.sqrt(vh) + 1e-8)
        for got, want in zip(list(params.weights) + list(params.biases), ref_w + ref_b):
            assert np.allclose(got, want, atol=1e-12)

    def test_step_bumps_version(self):
        specs = default_stack(3, (), 2, "linear", no_fca=True)
        params = init_network(specs, seed=0)
        v0 = params.version
        opt = _AdamOptimizer(0.01)
        opt.step(params, [np.ones_like(w) for w in params.weights],
                 [np.ones_like(b) for b in params.biases])
        assert params.version == v0 + 1


    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_whole_tensor_update_bit_identical_to_frozen_reference(self, delta):
        """Five steps against a frozen copy of the whole-array update, on
        tensors of 8192 + delta elements (in all, or per row) and one small
        one, with special values in the gradients."""
        rng = np.random.default_rng(40 + delta)
        shapes = [(8192 + delta,), (2, 8192 + delta), (384 + delta, 64), (5, 3)]
        tensors = [rng.standard_normal(s) for s in shapes]
        params = NetworkParams((), tensors[:2], tensors[2:], 0)
        ref = [t.copy() for t in tensors]
        opt = _AdamOptimizer(0.01)
        ref_m = [np.zeros_like(t) for t in ref]
        ref_v = [np.zeros_like(t) for t in ref]
        with np.errstate(all="ignore"):
            for t in range(1, 6):
                grads = [rng.standard_normal(s) * 10.0 ** rng.integers(-12, 4, s) for s in shapes]
                for gr in grads[:3]:
                    flat = gr.reshape(-1)
                    flat[rng.integers(0, flat.size, 6)] = [-0.0, 0.0, 1e-310, -5e-324, 1e154, -1e154]
                if t == 4:  # non-finite values in one late step
                    grads[0].reshape(-1)[[0, 4096, -1]] = [np.nan, np.inf, -np.inf]
                opt.step(params, grads[:2], grads[2:])
                c1, c2 = 1.0 - 0.9**t, 1.0 - 0.999**t
                for x, g, m, v in zip(ref, grads, ref_m, ref_v):
                    m *= 0.9
                    m += (1.0 - 0.9) * g
                    v *= 0.999
                    v += (1.0 - 0.999) * g * g
                    x -= 0.01 * (m / c1) / (np.sqrt(v / c2) + 1e-8)
        for got, want in zip(params.weights + params.biases, ref):
            assert got.tobytes() == want.tobytes()
        for got, want in zip(opt.m + opt.v, ref_m + ref_v):
            assert got.tobytes() == want.tobytes()


class TestTrain:
    def test_deterministic_given_seed(self):
        g = small_graph()
        cfg = TrainConfig(seed=7, **SMALL)
        r1 = train(g, cfg)
        r2 = train(g, cfg)
        assert r1.embeddings.tobytes() == r2.embeddings.tobytes()
        assert [t.total for t in r1.loss_history] == [t.total for t in r2.loss_history]

    @pytest.mark.parametrize("knn_k", [0, 4], ids=["complete", "knn"])
    def test_cached_and_computed_similarities_train_the_same_bytes(self, knn_k, tmp_path):
        g = two_block_sbm(n=45, p_intra=0.08, p_inter=0.01, seed=2)
        cfg = TrainConfig(seed=3, knn_k=knn_k, **SMALL)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            runs = [train(g, cfg), train(g, cfg, str(tmp_path)), train(g, cfg, str(tmp_path))]
        # computed in the call, computed and written, loaded
        for r in runs[1:]:
            assert r.embeddings.tobytes() == runs[0].embeddings.tobytes()
            assert [dataclasses.astuple(t) for t in r.loss_history] == [
                dataclasses.astuple(t) for t in runs[0].loss_history
            ]

    def test_seed_changes_result(self):
        g = small_graph()
        r1 = train(g, TrainConfig(seed=0, **SMALL))
        r2 = train(g, TrainConfig(seed=1, **SMALL))
        assert not np.allclose(r1.embeddings, r2.embeddings)

    def test_result_shapes_and_echo(self):
        g = small_graph()
        cfg = TrainConfig(seed=0, **SMALL)
        r = train(g, cfg)
        assert r.embeddings.shape == (g.n, 3)
        assert len(r.loss_history) == cfg.epochs
        assert r.config_echo == cfg
        for t in r.loss_history:
            assert t.total == pytest.approx(
                t.feature_term + t.alpha * t.structure_term, rel=1e-9
            )

    def test_tiny_learning_rate_stays_at_initialization(self):
        g = small_graph()
        cfg = TrainConfig(seed=5, learning_rate=1e-30, hidden_dims=(16, 8),
                          latent_dim=3, epochs=1, p_minus=0.0)
        r = train(g, cfg)
        specs = default_stack(g.features.shape[1], (16, 8), 3, "leaky_relu")
        virgin = init_network(specs, 4 * 5)
        N = aggregation_matrix(adjacency(g), "gcn", True)
        Z0 = forward(g.features, N, virgin)
        assert np.allclose(r.embeddings, Z0, atol=1e-12)

    def test_loss_decreases_on_block_model(self, sbm_result):
        totals = [t.total for t in sbm_result.loss_history]
        assert np.median(totals[-10:]) < np.median(totals[:10])

    def test_embed_reproduces_final_embeddings(self, sbm_graph, sbm_result):
        Z = embed(sbm_graph, sbm_result.params)
        assert Z.tobytes() == sbm_result.embeddings.tobytes()

    def test_embed_rejects_wrong_feature_width(self, sbm_result):
        bad = two_block_sbm(n=12, feature_dim=5, seed=0)
        with pytest.raises(ValueError, match="expects"):
            embed(bad, sbm_result.params)

    def test_checkpoint_round_trip_reproduces_embeddings(self, tmp_path, sbm_graph, sbm_result):
        path = str(tmp_path / "model.dmgw")
        save_checkpoint(path, sbm_result.params)
        loaded = load_checkpoint(path)
        assert embed(sbm_graph, loaded).tobytes() == sbm_result.embeddings.tobytes()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"no_fca": True},
            {"p_minus": 0.0},
            {"hard_similarity": True},
            {"alpha": 0.2},
            {"bregman": "sed"},
        ],
    )
    def test_switches_change_embeddings(self, kwargs):
        g = small_graph()
        base = train(g, TrainConfig(seed=0, **SMALL))
        varied = train(g, TrainConfig(seed=0, **{**SMALL, **kwargs}))
        assert not np.allclose(base.embeddings, varied.embeddings)

    def test_zero_p_minus_never_augments(self, monkeypatch):
        # p_minus = 0 is the ablation without augmentation
        for name in ("augment", "hop_neighborhoods"):
            monkeypatch.setattr(training, name, refuse(name))
        r = train(small_graph(), TrainConfig(seed=0, **{**SMALL, "p_minus": 0.0}))
        assert np.isfinite(r.embeddings).all()

    def test_config_with_retired_keys_trains_byte_identically(self):
        g = small_graph()
        small = {**SMALL, "hidden_dims": list(SMALL["hidden_dims"])}
        old = train(g, TrainConfig.from_dict({**DEFAULTS_WITH_RETIRED_KEYS, **small}))
        new = train(g, TrainConfig.from_dict(small))
        assert old.embeddings.tobytes() == new.embeddings.tobytes()
        assert old.loss_history == new.loss_history

    def test_batched_training_runs(self):
        g = small_graph(n=23)
        r = train(g, TrainConfig(seed=0, batch_size=6, **SMALL))
        assert np.isfinite(r.embeddings).all()

    def test_batch_size_exceeding_nodes(self):
        with pytest.raises(ValueError, match="exceeds"):
            train(small_graph(n=10), TrainConfig(batch_size=64, **SMALL))

    def test_too_few_nodes(self, monkeypatch):
        # calibration needs two off-diagonal distances per row, so the
        # minimum is 3 nodes, refused before any distance is computed
        monkeypatch.setattr(training, "complete_graph_distances", None)
        g = random_graph(np.random.default_rng(0), n=4)
        for n in (1, 2):
            small = g.__class__(n, frozenset({(0, 1)} if n == 2 else ()), g.features[:n], None)
            for run in (train, precompute):
                with pytest.raises(ValueError, match=f"has {n} nodes; embedding needs at least 3"):
                    run(small, TrainConfig(**SMALL))

    def test_divergence_raises_with_epoch_info(self):
        g = small_graph()
        cfg = TrainConfig(seed=0, learning_rate=1e200, hidden_dims=(16, 8), latent_dim=3, epochs=10)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(TrainingDivergedError) as exc:
                train(g, cfg)
        assert exc.value.epoch > exc.value.last_finite_epoch
        assert str(exc.value.last_finite_epoch) in str(exc.value)


    def test_non_finite_gradient_raises_in_its_batch(self, monkeypatch):
        """An inf gradient in the last batch stops training before the update."""
        g = small_graph(n=23)
        cfg = TrainConfig(seed=0, batch_size=6, **SMALL)
        batches = cfg.epochs * 4  # 23 nodes in batches of 6: 6, 6, 6, 5 rows
        real_backward, real_step = training.backward, training._AdamOptimizer.step
        calls = {"backward": 0, "step": 0}

        def backward_with_inf(tape, dZ):
            dW, dB = real_backward(tape, dZ)
            calls["backward"] += 1
            if calls["backward"] == batches:
                dW[1][0, 0] = np.inf
            return dW, dB

        def counted_step(self, params, dW, dB):
            calls["step"] += 1
            return real_step(self, params, dW, dB)

        monkeypatch.setattr(training, "backward", backward_with_inf)
        monkeypatch.setattr(training._AdamOptimizer, "step", counted_step)
        with pytest.raises(TrainingDivergedError, match="gradient") as exc:
            train(g, cfg)
        assert calls == {"backward": batches, "step": batches - 1}
        assert exc.value.epoch == cfg.epochs - 1
        assert exc.value.last_finite_epoch == cfg.epochs - 2

    def test_forward_receives_the_dense_features(self, monkeypatch):
        """The public ``forward`` call always gets the caller's feature array;
        the CSR copy of sparse features stays inside the network."""
        g = sparse_feature_graph()
        seen = []
        real_forward = training.forward

        def spy(X, *args, **kwargs):
            seen.append(X)
            return real_forward(X, *args, **kwargs)

        monkeypatch.setattr(training, "forward", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            train(g, TrainConfig(seed=0, batch_size=16, **SMALL))
        assert len(seen) == SMALL["epochs"] * 3 + 1
        assert all(X is g.features and type(X) is np.ndarray for X in seen)


class TestSinglePrecisionTraining:
    """The batch steps run the network in float32; the result is float64."""

    def test_batch_steps_run_in_float32(self, monkeypatch):
        g = small_graph(n=23)
        cfg = TrainConfig(seed=0, batch_size=6, **SMALL)
        seen = []
        real_forward, real_backward = training.forward, training.backward

        def forward(X, N, params, tape=None, rows=None):
            seen.append((rows is None, {t.dtype for t in (*params.weights, *params.biases)}))
            return real_forward(X, N, params, tape, rows)

        def backward(tape, dZ):
            assert dZ.dtype == np.float32  # the loss's gradient
            dW, dB = real_backward(tape, dZ)
            assert all(t.dtype == np.float32 for t in (*dW, *dB))
            return dW, dB

        real_step = training._AdamOptimizer.step
        moments = set()

        def step(self, params, dW, dB):
            real_step(self, params, dW, dB)
            moments.update(t.dtype for t in (*self.m, *self.v, *params.weights, *params.biases))

        monkeypatch.setattr(training, "forward", forward)
        monkeypatch.setattr(training, "backward", backward)
        monkeypatch.setattr(training._AdamOptimizer, "step", step)
        result = train(g, cfg)
        assert seen[:-1] == [(False, {np.dtype(np.float32)})] * (cfg.epochs * 4)
        assert moments == {np.dtype(np.float32)}
        assert seen[-1] == (True, {np.dtype(np.float64)})
        assert result.embeddings.dtype == np.float64

    def test_params_are_float64_holding_float32_values(self, sbm_result):
        # test_embed_reproduces_final_embeddings checks that they give the embedding's bytes
        for t in (*sbm_result.params.weights, *sbm_result.params.biases):
            assert t.dtype == np.float64
            assert (t.astype(np.float32).astype(np.float64) == t).all()


def full_pass(monkeypatch):
    """Make ``train`` run every batch step as before its forward and backward
    were restricted to the batch rows: the full forward, the loss on rows
    ``batch`` of that output, and a backward from the batch gradient
    scattered into zeros.  Of the batch step, only ``batch`` and the
    optimizer come from ``train``."""
    real_forward, real_loss, real_backward = training.forward, training.fused_loss, training.backward
    last = {}

    def forward(X, N, params, tape=None, rows=None):
        last["Z"] = Z = real_forward(X, N, params, tape)
        return Z if rows is None else Z[rows]

    def fused_loss(Pc, Pp, Z, nu_latent, alpha, kind, batch):
        terms, last["dZb"] = real_loss(Pc, Pp, last["Z"][batch], nu_latent, alpha, kind, batch)
        last["batch"] = batch
        return terms, last["dZb"]

    def backward(tape, g):
        dZ = np.zeros_like(last["Z"])
        dZ[last["batch"]] = last["dZb"]
        return real_backward(tape, dZ)

    monkeypatch.setattr(training, "forward", forward)
    monkeypatch.setattr(training, "fused_loss", fused_loss)
    monkeypatch.setattr(training, "backward", backward)


class TestBatchRowsOnly:
    """The batch step computes only the batch rows' receptive field."""

    def test_one_batch_of_every_node_is_byte_identical(self, sbm_graph, sbm_result, monkeypatch):
        full_pass(monkeypatch)
        want = train(sbm_graph, TrainConfig(epochs=60, seed=0))
        assert sbm_result.embeddings.tobytes() == want.embeddings.tobytes()
        assert sbm_result.loss_history == want.loss_history

    @pytest.mark.parametrize("kwargs", [{}, {"no_fca": True}])
    def test_smaller_batches_agree_to_rounding(self, kwargs, monkeypatch):
        g = small_graph(n=23)
        cfg = TrainConfig(seed=0, batch_size=6, **SMALL, **kwargs)
        got = train(g, cfg)
        full_pass(monkeypatch)
        want = train(g, cfg)
        totals = np.array([[t.feature_term, t.structure_term, t.total] for t in got.loss_history])
        wanted = np.array([[t.feature_term, t.structure_term, t.total] for t in want.loss_history])
        assert np.abs(totals - wanted).max() <= 1e-9 * np.abs(wanted).max()
        err = np.abs(got.embeddings - want.embeddings).max()
        assert err <= 1e-8 * np.abs(want.embeddings).max()

    def test_forward_gets_each_batch_sorted(self, monkeypatch):
        """One sorted index array orders a batch step: forward computes its
        rows, the loss reads that output with that array, and backward takes
        the loss's gradient against the same tape."""
        g = small_graph(n=23)
        cfg = TrainConfig(seed=0, batch_size=6, **SMALL)
        seen = []
        last = {}
        real_forward, real_loss, real_backward = training.forward, training.fused_loss, training.backward

        def forward(X, N, params, tape=None, rows=None):
            seen.append(rows)
            last["Z"] = real_forward(X, N, params, tape, rows)
            return last["Z"]

        def fused_loss(Pc, Pp, Z, nu_latent, alpha, kind, batch):
            assert batch is seen[-1] and Z is last["Z"]
            terms, last["dZ"] = real_loss(Pc, Pp, Z, nu_latent, alpha, kind, batch)
            return terms, last["dZ"]

        def backward(tape, dZ):
            assert tape.output is last["Z"] and dZ is last["dZ"]
            assert dZ.shape == (seen[-1].size, cfg.latent_dim)
            return real_backward(tape, dZ)

        monkeypatch.setattr(training, "forward", forward)
        monkeypatch.setattr(training, "fused_loss", fused_loss)
        monkeypatch.setattr(training, "backward", backward)
        train(g, cfg)
        assert seen[-1] is None  # the final embedding covers every node
        for epoch in range(cfg.epochs):
            perm = np.random.default_rng([4 * cfg.seed + training._SHUFFLE_STREAM, epoch]).permutation(g.n)
            want = [np.sort(b) for b in np.split(perm, [6, 12, 18])]
            got = seen[epoch * len(want) : (epoch + 1) * len(want)]
            assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))


def sparse_feature_graph(n=40, dims=128, seed=3):
    """Block-model edges with binary bag-of-words features (2 words a row)."""
    rng = np.random.default_rng(seed)
    X = np.zeros((n, dims))
    for i in range(n):
        X[i, rng.choice(dims, 2, replace=False)] = 1.0
    assert np.count_nonzero(X) <= network._SPARSE_DENSITY * X.size
    base = small_graph(seed=seed, n=n)
    return AttributedGraph(n, base.edges, X, base.labels)


class TestSparseFeatureTraining:
    """Training on features sparse enough for the CSR first layer."""

    def run(self, **kwargs):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return train(sparse_feature_graph(), TrainConfig(seed=2, batch_size=16, **SMALL, **kwargs))

    def test_runs_are_byte_identical(self):
        a, b = self.run(), self.run()
        assert a.embeddings.tobytes() == b.embeddings.tobytes()
        assert [t.total for t in a.loss_history] == [t.total for t in b.loss_history]

    def test_checkpoint_embedding_is_byte_identical(self, tmp_path):
        result = self.run()
        path = str(tmp_path / "model.dmgw")
        save_checkpoint(path, result.params)
        restored = embed(sparse_feature_graph(), load_checkpoint(path))
        assert restored.tobytes() == result.embeddings.tobytes()

    def test_csr_copy_built_once_per_tape(self, monkeypatch):
        built = []
        real = network.sp.csr_array

        def counting(*args, **kwargs):
            # the copy is built from its (data, indices, indptr) and its shape
            built.append(kwargs["shape"])
            return real(*args, **kwargs)

        monkeypatch.setattr(network.sp, "csr_array", counting)
        self.run()
        # the batch steps and the final forward share the run's tape
        assert built == [(40, 128)]


class TestEmbeddingFiles:
    def test_write_read_round_trip(self, tmp_path):
        Z = np.random.default_rng(0).standard_normal((5, 3))
        path = str(tmp_path / "emb.tsv")
        write_embeddings(path, Z)
        ids, back = read_embeddings(path)
        assert ids == [str(i) for i in range(5)]
        assert np.allclose(back, Z, rtol=1e-8)

    def test_nine_significant_digits(self, tmp_path):
        path = str(tmp_path / "emb.tsv")
        write_embeddings(path, np.array([[1 / 3]]))
        with open(path) as f:
            assert f.read() == "0\t0.333333333\n"

    def test_loss_history_format(self, tmp_path, sbm_result):
        path = str(tmp_path / "loss.tsv")
        write_loss_history(path, sbm_result.loss_history)
        with open(path) as f:
            lines = f.read().splitlines()
        assert len(lines) == len(sbm_result.loss_history)
        first = lines[0].split("\t")
        assert first[0] == "0"
        assert float(first[3]) == pytest.approx(sbm_result.loss_history[0].total, rel=1e-8)
