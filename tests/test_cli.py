import glob
import json
import logging
import os
import warnings

import numpy as np
import pytest

from dmage.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, EXIT_OK, main
from dmage.container import atomic_write_bytes, load_matrix
from dmage.training import read_embeddings

from test_training import DEFAULTS_WITH_RETIRED_KEYS

FAST = {"epochs": 4, "hidden_dims": [8, 4], "latent_dim": 2}


def write_config(tmp_path, toy, name="config.json", **overrides):
    cfg = {
        "edge_path": toy["edge_path"],
        "feature_path": toy["feature_path"],
        "label_path": toy["label_path"],
        **FAST,
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(*argv):
    return main(list(argv))


def embedding_lines(g):
    """Embedding file lines in node order: each class at its own point, plus a little noise."""
    Z = np.eye(2)[g.labels] * 10.0 + np.random.default_rng(1).standard_normal((g.n, 2))
    return [f"{i}\t{a:.17g}\t{b:.17g}\n" for i, (a, b) in enumerate(Z)]


class TestTrainCommand:
    def test_produces_artifacts_and_manifest(self, tmp_path, toy_dataset):
        cfg = write_config(tmp_path, toy_dataset)
        out = str(tmp_path / "run")
        assert run("train", "--config", cfg, "--out", out) == EXIT_OK
        for name in ("embeddings.tsv", "checkpoint.dmgw", "loss.tsv", "manifest.json"):
            assert os.path.exists(os.path.join(out, name)), name
        with open(os.path.join(out, "manifest.json")) as f:
            manifest = json.load(f)
        assert manifest["command"] == "train"
        assert manifest["config"]["lambda"] == 10.0
        assert manifest["config"]["edge_path"] == toy_dataset["edge_path"]
        assert set(manifest["input_hashes"]) == {"edge_path", "feature_path", "label_path"}
        assert "train" in manifest["timings_s"]
        ids, Z = read_embeddings(os.path.join(out, "embeddings.tsv"))
        assert Z.shape == (toy_dataset["graph"].n, 2)

    def test_reruns_are_byte_identical(self, tmp_path, toy_dataset):
        cfg = write_config(tmp_path, toy_dataset)
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert run("train", "--config", cfg, "--out", out1) == EXIT_OK
        assert run("train", "--config", cfg, "--out", out2) == EXIT_OK
        with open(os.path.join(out1, "embeddings.tsv"), "rb") as f:
            first = f.read()
        with open(os.path.join(out2, "embeddings.tsv"), "rb") as f:
            assert f.read() == first

    def test_manifest_feeds_back_as_config(self, tmp_path, toy_dataset):
        cfg = write_config(tmp_path, toy_dataset)
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert run("train", "--config", cfg, "--out", out1) == EXIT_OK
        manifest = os.path.join(out1, "manifest.json")
        assert run("train", "--config", manifest, "--out", out2) == EXIT_OK
        with open(os.path.join(out1, "embeddings.tsv"), "rb") as f:
            first = f.read()
        with open(os.path.join(out2, "embeddings.tsv"), "rb") as f:
            assert f.read() == first

    def test_manifest_with_retired_keys_reproduces_its_run(self, tmp_path, toy_dataset):
        # a manifest written while the config still had eight single-valued
        # options holds them at their one value
        cfg = write_config(tmp_path, toy_dataset)
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert run("train", "--config", cfg, "--out", out1) == EXIT_OK
        with open(os.path.join(out1, "manifest.json")) as f:
            manifest = json.load(f)
        manifest["config"] = {**DEFAULTS_WITH_RETIRED_KEYS, **manifest["config"]}
        old = tmp_path / "old_manifest.json"
        old.write_text(json.dumps(manifest))
        assert run("train", "--config", str(old), "--out", out2) == EXIT_OK
        for name in ("embeddings.tsv", "loss.tsv", "checkpoint.dmgw"):
            with open(os.path.join(out1, name), "rb") as a, open(os.path.join(out2, name), "rb") as b:
                assert a.read() == b.read(), name

    def test_seed_flag_overrides_config(self, tmp_path, toy_dataset):
        cfg = write_config(tmp_path, toy_dataset, seed=3)
        out = str(tmp_path / "run")
        assert run("train", "--config", cfg, "--out", out, "--seed", "9") == EXIT_OK
        with open(os.path.join(out, "manifest.json")) as f:
            assert json.load(f)["config"]["seed"] == 9

    def test_viz_preset_gives_two_columns(self, tmp_path, toy_dataset):
        cfg = write_config(tmp_path, toy_dataset, latent_dim=5)
        out = str(tmp_path / "run")
        assert run("train", "--config", cfg, "--out", out, "--preset", "viz_2d") == EXIT_OK
        _, Z = read_embeddings(os.path.join(out, "embeddings.tsv"))
        assert Z.shape[1] == 2

    def test_clustering_preset_settings_recorded(self, tmp_path, toy_dataset):
        cfg = write_config(tmp_path, toy_dataset)
        out = str(tmp_path / "run")
        rc = run("train", "--config", cfg, "--out", out, "--preset", "paper_clustering")
        assert rc == EXIT_OK
        with open(os.path.join(out, "manifest.json")) as f:
            conf = json.load(f)["config"]
        assert conf["metric"] == "cosine"
        assert conf["knn_k"] == 15
        assert conf["p_minus"] == 0.01

    def test_cache_reused_on_second_run(self, tmp_path, toy_dataset, caplog):
        cfg = write_config(tmp_path, toy_dataset)
        out = str(tmp_path / "run")
        assert run("train", "--config", cfg, "--out", out) == EXIT_OK
        with caplog.at_level(logging.INFO, logger="dmage"):
            assert run("train", "--config", cfg, "--out", out) == EXIT_OK
        assert any("cache hit" in r.message for r in caplog.records)

    def test_cache_dir_environment_variable(self, tmp_path, toy_dataset, monkeypatch):
        cache = tmp_path / "shared-cache"
        monkeypatch.setenv("DMAGE_CACHE_DIR", str(cache))
        cfg = write_config(tmp_path, toy_dataset)
        assert run("train", "--config", cfg, "--out", str(tmp_path / "run")) == EXIT_OK
        assert any(p.suffix == ".dmgs" for p in cache.iterdir())


class TestPrecomputeCommand:
    def test_writes_cache_and_manifest(self, tmp_path, toy_dataset):
        cfg = write_config(tmp_path, toy_dataset)
        out = str(tmp_path / "run")
        assert run("precompute", "--config", cfg, "--out", out) == EXIT_OK
        with open(os.path.join(out, "manifest.json")) as f:
            manifest = json.load(f)
        assert manifest["command"] == "precompute"
        files = manifest["outputs"]["cache_files"]
        assert len(files) == 2 and all(f.endswith(".dmgs") for f in files)
        assert manifest["outputs"]["cache_dir"] == os.path.join(out, "cache")

    def test_stale_distance_file_neither_read_nor_listed(self, tmp_path, toy_dataset, monkeypatch):
        # a distance file as older versions wrote them, on a prior similarity miss
        cfg = write_config(tmp_path, toy_dataset)
        out = str(tmp_path / "run")
        assert run("precompute", "--config", cfg, "--out", out) == EXIT_OK
        cache = os.path.join(out, "cache")
        (prior,) = glob.glob(os.path.join(cache, "prior-*.dmgs"))
        os.unlink(prior)
        stale = os.path.join(cache, "prior-" + "0" * 32 + ".dmgd")
        atomic_write_bytes(stale, b"DMGD", np.array(3, "<u8"), np.ones((3, 3)))
        loaded = []

        def spy(path):
            loaded.append(os.path.basename(path))
            return load_matrix(path)

        monkeypatch.setattr("dmage.training.load_matrix", spy)
        assert run("precompute", "--config", cfg, "--out", out) == EXIT_OK
        with open(os.path.join(out, "manifest.json")) as f:
            files = json.load(f)["outputs"]["cache_files"]
        assert [os.path.basename(p) for p in glob.glob(os.path.join(cache, "complete-*"))] == loaded
        assert len(files) == 2 and os.path.basename(prior) in files
        assert all(f.endswith(".dmgs") for f in files)


    def test_shared_cache_manifest_lists_only_its_own_files(self, tmp_path, toy_dataset):
        cache = str(tmp_path / "shared")
        manifests = []
        for q_p in (16.0, 4.0):
            cfg = write_config(tmp_path, toy_dataset, q_p=q_p)
            out = str(tmp_path / f"q{q_p:g}")
            assert run("precompute", "--config", cfg, "--out", out, "--cache-dir", cache) == EXIT_OK
            with open(os.path.join(out, "manifest.json")) as f:
                manifests.append(json.load(f)["outputs"]["cache_files"])
        first, second = manifests
        assert len(os.listdir(cache)) == 4
        assert len(second) == 2 and not set(first) & set(second)
        assert sorted(name.split("-")[0] for name in second) == ["complete", "prior"]
        assert all(os.path.exists(os.path.join(cache, name)) for name in second)

    def test_hard_similarity_lists_one_file(self, tmp_path, toy_dataset):
        cfg = write_config(tmp_path, toy_dataset, hard_similarity=True)
        out = str(tmp_path / "run")
        assert run("precompute", "--config", cfg, "--out", out) == EXIT_OK
        with open(os.path.join(out, "manifest.json")) as f:
            (name,) = json.load(f)["outputs"]["cache_files"]
        assert name.startswith("complete-")
        assert os.listdir(os.path.join(out, "cache")) == [name]


class TestEvalCommand:
    def test_cluster_report(self, tmp_path, toy_dataset):
        cfg = write_config(tmp_path, toy_dataset)
        out = str(tmp_path / "run")
        assert run("train", "--config", cfg, "--out", out) == EXIT_OK
        emb = os.path.join(out, "embeddings.tsv")
        eval_out = str(tmp_path / "eval")
        rc = run("eval", "--task", "cluster", "--config", cfg, "--out", eval_out,
                 "--embeddings", emb, "--seeds", "0,1")
        assert rc == EXIT_OK
        with open(os.path.join(eval_out, "cluster_report.json")) as f:
            report = json.load(f)
        assert report["task"] == "cluster"
        assert [r["seed"] for r in report["rows"]] == [0, 1]
        assert set(report["mean"]) == {"acc", "nmi", "f1"}
        assert 0.0 <= report["mean"]["acc"] <= 1.0
        with open(os.path.join(eval_out, "manifest.json")) as f:
            assert json.load(f)["command"] == "eval-cluster"

    def test_linkpred_report_and_splits(self, tmp_path, toy_dataset):
        cfg = write_config(tmp_path, toy_dataset, epochs=3)
        out = str(tmp_path / "eval")
        rc = run("eval", "--task", "linkpred", "--config", cfg, "--out", out,
                 "--seeds", "0,1")
        assert rc == EXIT_OK
        with open(os.path.join(out, "linkpred_report.json")) as f:
            report = json.load(f)
        assert [r["seed"] for r in report["rows"]] == [0, 1]
        for row in report["rows"]:
            assert 0.0 <= row["auc"] <= 1.0
            assert 0.0 <= row["ap"] <= 1.0
        for seed in (0, 1):
            split = os.path.join(out, f"split-seed{seed}")
            assert os.path.isdir(split)
            assert os.path.exists(os.path.join(split, "train_edges.tsv"))

    @pytest.mark.parametrize(
        "task, key, value", [("cluster", "f1_variant", "macro"), ("linkpred", "edge_scorer", "t_kernel")]
    )
    def test_retired_eval_key_at_its_value_reproduces_the_report(
        self, tmp_path, toy_dataset, task, key, value
    ):
        # the manifest of an eval run that set the key still reproduces it
        cfg = write_config(tmp_path, toy_dataset, epochs=3)
        old_cfg = write_config(tmp_path, toy_dataset, "old.json", epochs=3, **{key: value})
        emb = os.path.join(str(tmp_path / "run"), "embeddings.tsv")
        assert run("train", "--config", cfg, "--out", str(tmp_path / "run")) == EXIT_OK
        reports = []
        for name, config in (("new", cfg), ("old", old_cfg)):
            out = str(tmp_path / name)
            rc = run("eval", "--task", task, "--config", config, "--out", out,
                     "--embeddings", emb, "--seeds", "0")
            assert rc == EXIT_OK
            with open(os.path.join(out, f"{task}_report.json"), "rb") as f:
                reports.append(f.read())
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["f1_variant" if task == "cluster" else "scorer"] == value

    def test_cluster_requires_embeddings_flag(self, tmp_path, toy_dataset):
        cfg = write_config(tmp_path, toy_dataset)
        rc = run("eval", "--task", "cluster", "--config", cfg, "--out", str(tmp_path / "o"))
        assert rc == EXIT_CONFIG

    def test_cluster_missing_embeddings_file(self, tmp_path, toy_dataset):
        cfg = write_config(tmp_path, toy_dataset)
        rc = run("eval", "--task", "cluster", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--embeddings", str(tmp_path / "nope.tsv"))
        assert rc == EXIT_DATA

    def test_cluster_requires_labels(self, tmp_path, toy_dataset):
        cfg_dict = {
            "edge_path": toy_dataset["edge_path"],
            "feature_path": toy_dataset["feature_path"],
            **FAST,
        }
        cfg = tmp_path / "nolabel.json"
        cfg.write_text(json.dumps(cfg_dict))
        out = str(tmp_path / "run")
        assert run("train", "--config", str(cfg), "--out", out) == EXIT_OK
        rc = run("eval", "--task", "cluster", "--config", str(cfg), "--out", out,
                 "--embeddings", os.path.join(out, "embeddings.tsv"))
        assert rc == EXIT_DATA

    @pytest.mark.parametrize(
        "text, where",
        [("0\t1.0\t2.0\n1\tx\t3.0\n", "short.tsv:2: non-numeric"),
         ("0\t1.0\t2.0\n1\t0.0\n", "short.tsv:2: expected 2 values, got 1")],
        ids=["non-numeric", "wrong-width"],
    )
    def test_cluster_malformed_embeddings(self, tmp_path, toy_dataset, caplog, text, where):
        cfg = write_config(tmp_path, toy_dataset)
        emb = tmp_path / "short.tsv"
        emb.write_text(text)
        rc = run("eval", "--task", "cluster", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--embeddings", str(emb))
        assert rc == EXIT_DATA
        assert where in caplog.text

    def test_cluster_rows_matched_by_node_id(self, tmp_path, toy_dataset):
        # the same lines in another order score the same, to the byte
        g = toy_dataset["graph"]
        lines = embedding_lines(g)
        order = np.random.default_rng(0).permutation(g.n)
        reports = []
        for name, text in (("sorted", lines), ("shuffled", [lines[i] for i in order])):
            emb = tmp_path / f"{name}.tsv"
            emb.write_text("".join(text))
            out = str(tmp_path / name)
            rc = run("eval", "--task", "cluster", "--config", write_config(tmp_path, toy_dataset),
                     "--out", out, "--embeddings", str(emb), "--seeds", "0,1")
            assert rc == EXIT_OK
            with open(os.path.join(out, "cluster_report.json"), "rb") as f:
                reports.append(f.read())
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["mean"]["acc"] == 1.0

    @pytest.mark.parametrize(
        "row, node_id, where",
        [(3, "x", "node id is not an integer"),
         (3, "2.0", "node id is not an integer"),
         (3, "5", "node id 5 appears more than once and 3 is missing"),
         (0, "-1", "node id -1 is outside"),
         (7, "{n}", "node id {n} is outside")],
        ids=["word", "decimal", "duplicate", "negative", "past-the-end"],
    )
    def test_cluster_bad_node_ids(self, tmp_path, toy_dataset, caplog, row, node_id, where):
        g = toy_dataset["graph"]
        lines = embedding_lines(g)
        lines[row] = node_id.format(n=g.n) + lines[row][lines[row].index("\t"):]
        emb = tmp_path / "ids.tsv"
        emb.write_text("".join(lines))
        rc = run("eval", "--task", "cluster", "--config", write_config(tmp_path, toy_dataset),
                 "--out", str(tmp_path / "o"), "--embeddings", str(emb))
        assert rc == EXIT_DATA
        assert where.format(n=g.n) in caplog.text

    @pytest.mark.parametrize("node_id", ["5", "x"], ids=["duplicate", "word"])
    def test_cluster_bad_node_id_leaves_no_out(self, tmp_path, toy_dataset, node_id):
        lines = embedding_lines(toy_dataset["graph"])
        lines[3] = node_id + lines[3][lines[3].index("\t"):]
        emb = tmp_path / "ids.tsv"
        emb.write_text("".join(lines))
        out = tmp_path / "o"
        rc = run("eval", "--task", "cluster", "--config", write_config(tmp_path, toy_dataset),
                 "--out", str(out), "--embeddings", str(emb))
        assert rc == EXIT_DATA
        assert not out.exists()

    def test_cluster_non_finite_embeddings(self, tmp_path, toy_dataset, caplog):
        g = toy_dataset["graph"]
        lines = embedding_lines(g)
        lines[4] = "4\tnan\t0.5\n"
        lines[9] = "9\t1.0\tinf\n"
        emb = tmp_path / "nan.tsv"
        emb.write_text("".join(lines))
        rc = run("eval", "--task", "cluster", "--config", write_config(tmp_path, toy_dataset),
                 "--out", str(tmp_path / "o"), "--embeddings", str(emb))
        assert rc == EXIT_DATA
        assert "nan.tsv: Z holds 2 non-finite entries" in caplog.text

    def test_cluster_row_count_mismatch(self, tmp_path, toy_dataset):
        cfg = write_config(tmp_path, toy_dataset)
        emb = tmp_path / "short.tsv"
        emb.write_text("0\t1.0\t2.0\n1\t0.0\t1.0\n")
        rc = run("eval", "--task", "cluster", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--embeddings", str(emb))
        assert rc == EXIT_DATA


class TestAblateCommand:
    def test_table_covers_flag_variants(self, tmp_path, toy_dataset):
        cfg = write_config(tmp_path, toy_dataset, epochs=3)
        out = str(tmp_path / "ablate")
        rc = run("ablate", "--config", cfg, "--out", out, "--seeds", "0",
                 "--q-p-grid", "16", "--nu-latent-grid", "1")
        assert rc == EXIT_OK
        with open(os.path.join(out, "ablation.tsv")) as f:
            lines = f.read().splitlines()
        assert lines[0] == "variant\tacc\tnmi\tf1\tseconds"
        variants = [line.split("\t")[0] for line in lines[1:]]
        assert variants == ["base", "no_augment", "no_fca", "hard_similarity"]
        for line in lines[1:]:
            acc = float(line.split("\t")[1])
            assert 0.0 <= acc <= 1.0

    def test_grid_values_add_variants(self, tmp_path, toy_dataset):
        cfg = write_config(tmp_path, toy_dataset, epochs=2)
        out = str(tmp_path / "ablate")
        rc = run("ablate", "--config", cfg, "--out", out, "--seeds", "0",
                 "--q-p-grid", "16,32", "--nu-latent-grid", "1,2")
        assert rc == EXIT_OK
        with open(os.path.join(out, "ablation.tsv")) as f:
            variants = [line.split("\t")[0] for line in f.read().splitlines()[1:]]
        assert "q_p=32" in variants
        assert "nu_latent=2" in variants
        assert "q_p=16" not in variants  # matches the base config


def replay(tmp_path, command, cfg, seeds):
    """Run ``command`` with ``--seeds``, then from its manifest without it.

    Returns the seeds the manifest recorded and the two --out directories.
    """
    first, second = str(tmp_path / "first"), str(tmp_path / "replay")
    assert run(*command, "--config", cfg, "--out", first, "--seeds", seeds) == EXIT_OK
    manifest = os.path.join(first, "manifest.json")
    with open(manifest) as f:
        recorded = json.load(f)["config"]["eval_seeds"]
    assert run(*command, "--config", manifest, "--out", second) == EXIT_OK
    return recorded, first, second


def read_bytes(*parts):
    with open(os.path.join(*parts), "rb") as f:
        return f.read()


class TestManifestReplay:
    @pytest.mark.parametrize(
        "task, seeds", [("cluster", [3, 4]), ("linkpred", [1])], ids=["cluster", "linkpred"]
    )
    def test_eval_replays_its_seeds(self, tmp_path, toy_dataset, task, seeds):
        emb = tmp_path / "emb.tsv"  # linkpred trains its own
        emb.write_text("".join(embedding_lines(toy_dataset["graph"])))
        command = ["eval", "--task", task, "--embeddings", str(emb)]
        cfg = write_config(tmp_path, toy_dataset, epochs=3)
        recorded, first, second = replay(tmp_path, command, cfg, ",".join(map(str, seeds)))
        assert recorded == seeds
        report = read_bytes(first, f"{task}_report.json")
        assert [r["seed"] for r in json.loads(report)["rows"]] == seeds
        assert read_bytes(second, f"{task}_report.json") == report

    def test_ablate_replays_its_seeds(self, tmp_path, toy_dataset):
        cfg = write_config(tmp_path, toy_dataset, epochs=3)
        recorded, first, second = replay(tmp_path, ["ablate"], cfg, "1")
        assert recorded == [1]
        tables = []
        for out in (first, second):
            lines = read_bytes(out, "ablation.tsv").decode().splitlines()
            assert lines[0].split("\t")[-1] == "seconds"
            tables.append([line.split("\t")[:-1] for line in lines])
        assert tables[1] == tables[0]


class TestErrorExits:
    def test_missing_config_file(self, tmp_path):
        assert run("train", "--config", str(tmp_path / "none.json"),
                   "--out", str(tmp_path / "o")) == EXIT_CONFIG

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run("train", "--config", str(bad), "--out", str(tmp_path / "o")) == EXIT_CONFIG

    def test_unknown_config_key(self, tmp_path, toy_dataset):
        cfg = write_config(tmp_path, toy_dataset, epochz=5)
        assert run("train", "--config", cfg, "--out", str(tmp_path / "o")) == EXIT_CONFIG

    def test_retired_key_at_another_value(self, tmp_path, toy_dataset, caplog):
        cfg = write_config(tmp_path, toy_dataset, optimizer="sgd")
        assert run("train", "--config", cfg, "--out", str(tmp_path / "o")) == EXIT_CONFIG
        assert "'optimizer'" in caplog.text

    @pytest.mark.parametrize(
        "bad", [{"metric": "foo"}, {"latent_dim": 0}, {"hidden_dims": [0]}], ids=["metric", "latent", "hidden"]
    )
    def test_bad_value_exits_before_precompute(self, tmp_path, toy_dataset, monkeypatch, bad):
        def refuse(*args, **kwargs):
            raise AssertionError("precompute ran")

        monkeypatch.setattr("dmage.training.precompute", refuse)
        cfg = write_config(tmp_path, toy_dataset, **bad)
        assert run("train", "--config", cfg, "--out", str(tmp_path / "o")) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "key, value",
        [("learning_rate", "Infinity"), ("alpha", "NaN"), ("nu_input", "Infinity"),
         ("nu_latent", "Infinity"), ("q_p", "Infinity"), ("p_minus", "NaN"),
         ("lambda", "Infinity")],
    )
    def test_non_finite_number_exits_before_precompute(
        self, tmp_path, toy_dataset, monkeypatch, caplog, key, value
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("precompute ran")

        monkeypatch.setattr("dmage.training.precompute", refuse)
        cfg = write_config(tmp_path, toy_dataset)
        with open(cfg) as f:
            text = f.read()
        with open(cfg, "w") as f:  # JSON's own NaN and Infinity, as a hand-written file holds them
            f.write(text[:-1] + f', "{key}": {value}}}')
        assert run("train", "--config", cfg, "--out", str(tmp_path / "o")) == EXIT_CONFIG
        assert f"{key} must be a finite number" in caplog.text

    def test_retired_bregman_kind_names_the_two_kinds(self, tmp_path, toy_dataset, monkeypatch, caplog):
        def refuse(*args, **kwargs):
            raise AssertionError("precompute ran")

        monkeypatch.setattr("dmage.training.precompute", refuse)
        cfg = write_config(tmp_path, toy_dataset, bregman="sed_plus_logi")
        assert run("train", "--config", cfg, "--out", str(tmp_path / "o")) == EXIT_CONFIG
        assert "bregman must be one of ['sed', 'logi'], got 'sed_plus_logi'" in caplog.text

    def test_non_finite_grid_value_exits_before_any_file_is_read(
        self, tmp_path, toy_dataset, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("a data file was read")

        monkeypatch.setattr("dmage.cli.load_graph", refuse)
        cfg = write_config(tmp_path, toy_dataset)
        rc = run("ablate", "--config", cfg, "--out", str(tmp_path / "o"), "--q-p-grid", "16,inf")
        assert rc == EXIT_CONFIG
        assert not (tmp_path / "o").exists()

    def test_float_hidden_dim_exits_before_any_cache_file(self, tmp_path, toy_dataset):
        cfg = write_config(tmp_path, toy_dataset, hidden_dims=[8, 4.5])
        out = tmp_path / "o"
        cache = str(tmp_path / "cache")
        rc = run("train", "--config", cfg, "--out", str(out), "--cache-dir", cache)
        assert rc == EXIT_CONFIG
        assert not (tmp_path / "cache").exists()
        assert not out.exists()

    @pytest.mark.parametrize(
        "task, key, value", [("cluster", "f1_variant", "micro"), ("linkpred", "edge_scorer", "cosine")]
    )
    def test_retired_eval_key_at_another_value(
        self, tmp_path, toy_dataset, caplog, task, key, value
    ):
        cfg = write_config(tmp_path, toy_dataset, **{key: value})
        rc = run("eval", "--task", task, "--config", cfg, "--out", str(tmp_path / "o"),
                 "--embeddings", str(tmp_path / "unused.tsv"))
        assert rc == EXIT_CONFIG
        assert f"'{key}' is retired" in caplog.text

    @pytest.mark.parametrize("command", ["eval", "ablate"])
    @pytest.mark.parametrize("restarts", [0, -3, 2.5, "10", True, None])
    def test_bad_eval_restarts_exits_before_any_file_is_read(
        self, tmp_path, toy_dataset, monkeypatch, caplog, command, restarts
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("a data file was read")

        monkeypatch.setattr("dmage.cli.load_graph", refuse)
        monkeypatch.setattr("dmage.cli.read_embeddings", refuse)
        cfg = write_config(tmp_path, toy_dataset, eval_restarts=restarts)
        task = ["--task", "cluster", "--embeddings", str(tmp_path / "e.tsv")]
        rc = run(command, "--config", cfg, "--out", str(tmp_path / "o"), *(task if command == "eval" else []))
        assert rc == EXIT_CONFIG
        assert "eval_restarts must be an integer >= 1" in caplog.text
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["eval", "ablate"])
    @pytest.mark.parametrize(
        "seeds", [3, [1.5], [-1], [], ["0"], [True], "0,1", None], ids=repr
    )
    def test_bad_eval_seeds_exits_before_any_file_is_read(
        self, tmp_path, toy_dataset, monkeypatch, caplog, command, seeds
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("a data file was read")

        monkeypatch.setattr("dmage.cli.load_graph", refuse)
        monkeypatch.setattr("dmage.cli.read_embeddings", refuse)
        cfg = write_config(tmp_path, toy_dataset, eval_seeds=seeds)
        task = ["--task", "cluster", "--embeddings", str(tmp_path / "e.tsv")]
        rc = run(command, "--config", cfg, "--out", str(tmp_path / "o"), *(task if command == "eval" else []))
        assert rc == EXIT_CONFIG
        assert "must be a non-empty list of non-negative integers" in caplog.text
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("task", ["cluster", "linkpred"])
    def test_negative_seeds_flag_exits_before_any_file_is_read(
        self, tmp_path, toy_dataset, monkeypatch, task
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("a data file was read")

        monkeypatch.setattr("dmage.cli.load_graph", refuse)
        monkeypatch.setattr("dmage.cli.read_embeddings", refuse)
        cfg = write_config(tmp_path, toy_dataset)
        rc = run("eval", "--task", task, "--config", cfg, "--out", str(tmp_path / "o"),
                 "--embeddings", str(tmp_path / "e.tsv"), "--seeds=-1")
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("command", ["train", "precompute", "ablate"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_too_few_nodes_is_a_data_error(self, tmp_path, toy_dataset, caplog, command, n):
        edges, features, labels = tmp_path / "e.tsv", tmp_path / "f.tsv", tmp_path / "l.tsv"
        edges.write_text("0\t1\n" if n == 2 else "")
        features.write_text("".join(["0.5\t1.0\n", "-1.0\t2.0\n"][:n]))
        labels.write_text("".join(["0\n", "1\n"][:n]))
        cfg = write_config(tmp_path, toy_dataset, edge_path=str(edges),
                           feature_path=str(features), label_path=str(labels))
        cache = tmp_path / "cache"
        rc = run(command, "--config", cfg, "--out", str(tmp_path / "o"), "--cache-dir", str(cache))
        assert rc == EXIT_DATA
        assert f"the graph has {n} nodes; embedding needs at least 3" in caplog.text
        assert not cache.exists()

    def test_too_few_edges_for_linkpred_is_a_data_error(self, tmp_path, toy_dataset, caplog):
        edges = tmp_path / "e.tsv"
        edges.write_text("".join(f"{i}\t{i + 1}\n" for i in range(19)))
        cfg = write_config(tmp_path, toy_dataset, edge_path=str(edges))
        rc = run("eval", "--task", "linkpred", "--config", cfg, "--out", str(tmp_path / "o"))
        assert rc == EXIT_DATA
        assert "need at least 20 edges to split, got 19" in caplog.text

    @pytest.mark.parametrize(
        "task, flags, code",
        [("cluster", [], EXIT_CONFIG), ("cluster", ["--embeddings", "nope.tsv"], EXIT_DATA),
         ("linkpred", [], EXIT_DATA)],
        ids=["no-embeddings-flag", "missing-embeddings", "graph-too-small-to-split"],
    )
    def test_refused_eval_leaves_no_out(self, tmp_path, toy_dataset, task, flags, code):
        edges = tmp_path / "e.tsv"
        edges.write_text("".join(f"{i}\t{i + 1}\n" for i in range(19)))
        cfg = write_config(tmp_path, toy_dataset, edge_path=str(edges))
        flags = [str(tmp_path / f) if f.endswith(".tsv") else f for f in flags]
        out = tmp_path / "o"
        assert run("eval", "--task", task, *flags, "--config", cfg, "--out", str(out)) == code
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "ablate", "eval"])
    def test_batch_above_node_count_is_a_config_error(self, tmp_path, toy_dataset, caplog, command):
        cfg = write_config(tmp_path, toy_dataset, batch_size=1000)
        cache = tmp_path / "cache"
        task = ["--task", "linkpred"] if command == "eval" else []
        rc = run(command, *task, "--config", cfg, "--out", str(tmp_path / "o"), "--cache-dir", str(cache))
        assert rc == EXIT_CONFIG
        assert "batch_size 1000 exceeds node count 60" in caplog.text
        assert not cache.exists()

    @pytest.mark.parametrize("command", ["precompute", "train", "ablate", "eval"])
    def test_knn_k_at_node_count_is_a_config_error(self, tmp_path, toy_dataset, caplog, command):
        cfg = write_config(tmp_path, toy_dataset, knn_k=60)
        task = ["--task", "linkpred"] if command == "eval" else []
        rc = run(command, *task, "--config", cfg, "--out", str(tmp_path / "o"))
        assert rc == EXIT_CONFIG
        assert "knn_k 60 must be below the node count 60" in caplog.text
        assert not glob.glob(str(tmp_path / "**" / "*.dmgs"), recursive=True)

    def test_precompute_takes_a_batch_above_node_count(self, tmp_path, toy_dataset):
        # the batch rule is train's; precompute builds no batch
        cfg = write_config(tmp_path, toy_dataset, batch_size=1000, knn_k=59)
        assert run("precompute", "--config", cfg, "--out", str(tmp_path / "o")) == EXIT_OK

    @pytest.mark.parametrize(
        "command",
        [["precompute"], ["train"], ["ablate"], ["eval", "--task", "cluster"], ["eval", "--task", "linkpred"]],
        ids=["precompute", "train", "ablate", "eval-cluster", "eval-linkpred"],
    )
    def test_out_naming_a_file_is_a_config_error(self, tmp_path, toy_dataset, caplog, command):
        cfg = write_config(tmp_path, toy_dataset)
        taken = toy_dataset["feature_path"]
        embeddings = ["--embeddings", taken] if "cluster" in command else []
        assert run(*command, *embeddings, "--config", cfg, "--out", taken) == EXIT_CONFIG
        assert f"cannot create directory {taken}: File exists" in caplog.text

    @pytest.mark.parametrize(
        "command",
        [["precompute"], ["train"], ["ablate"], ["eval", "--task", "linkpred"]],
        ids=["precompute", "train", "ablate", "eval-linkpred"],
    )
    def test_cache_under_a_file_is_a_config_error(self, tmp_path, toy_dataset, caplog, command):
        cfg = write_config(tmp_path, toy_dataset)
        cache = os.path.join(toy_dataset["edge_path"], "cache")
        rc = run(*command, "--config", cfg, "--out", str(tmp_path / "o"), "--cache-dir", cache)
        assert rc == EXIT_CONFIG
        assert f"cannot create directory {cache}: Not a directory" in caplog.text

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_feature_is_a_data_error(self, tmp_path, toy_dataset, caplog, value):
        features = tmp_path / "f.tsv"
        rows = [line.split("\t") for line in open(toy_dataset["feature_path"]).read().splitlines()]
        rows[6][1] = value
        features.write_text("".join("\t".join(row) + "\n" for row in rows))
        cfg = write_config(tmp_path, toy_dataset, feature_path=str(features))
        cache = tmp_path / "cache"
        rc = run("train", "--config", cfg, "--out", str(tmp_path / "o"), "--cache-dir", str(cache))
        assert rc == EXIT_DATA
        assert f"{features}:7: non-finite feature value" in caplog.text
        assert not cache.exists()

    def test_missing_data_keys(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(FAST))
        assert run("train", "--config", str(cfg), "--out", str(tmp_path / "o")) == EXIT_CONFIG

    def test_missing_edge_file(self, tmp_path, toy_dataset):
        cfg = write_config(tmp_path, toy_dataset, edge_path=str(tmp_path / "gone.tsv"))
        assert run("train", "--config", cfg, "--out", str(tmp_path / "o")) == EXIT_DATA

    def test_malformed_edge_file(self, tmp_path, toy_dataset):
        edges = tmp_path / "bad_edges.tsv"
        edges.write_text("0\tx\n")
        cfg = write_config(tmp_path, toy_dataset, edge_path=str(edges))
        assert run("train", "--config", cfg, "--out", str(tmp_path / "o")) == EXIT_DATA

    def test_coo_feature_file(self, tmp_path, toy_dataset):
        features = tmp_path / "features.coo"
        features.write_text("0 0 1.5\n1 2 2.5\n")
        cfg = write_config(tmp_path, toy_dataset, feature_path=str(features))
        assert run("train", "--config", cfg, "--out", str(tmp_path / "o")) == EXIT_DATA

    def test_divergence_exit_code(self, tmp_path, toy_dataset):
        cfg = write_config(tmp_path, toy_dataset, learning_rate=1e200, epochs=5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rc = run("train", "--config", cfg, "--out", str(tmp_path / "o"))
        assert rc == EXIT_NUMERIC


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("--version")
        assert exc.value.code == 0
        assert "dmage" in capsys.readouterr().out

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            run("frobnicate")

    def test_missing_task_flag(self):
        with pytest.raises(SystemExit):
            run("eval")
