"""Command-line front end: precompute, train, eval, ablate.

Each run reads a flat JSON config (training keys plus ``edge_path`` /
``feature_path`` / ``label_path`` data keys), writes its artifacts into the
--out directory, and finishes with a ``manifest.json`` capturing the
resolved config, input file hashes, output paths, and stage timings.  A
manifest can itself be passed back as --config to reproduce the run;
--seed and --seeds are recorded as ``seed`` and ``eval_seeds``, while
--embeddings and ablate's two grids, which have no config key, are given
again.

Exit codes: 0 success, 2 config error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import hashlib
import json
import logging
import os
import sys
import time

import numpy as np

from . import __version__
from .container import atomic_write_text, save_checkpoint
from .evaluation import _split_sizes, cluster_eval, linkpred_eval, write_report
from .graph import GraphFormatError, load_graph
from .training import (
    TrainConfig,
    TrainingDivergedError,
    _cache_dir as _training_cache_dir,
    _cache_names,
    _require_nodes,
    precompute,
    train,
    read_embeddings,
    write_embeddings,
    write_loss_history,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

DATA_KEYS = ("edge_path", "feature_path", "label_path", "id_map_path")
EVAL_KEYS = ("eval_seeds", "eval_restarts")

PRESETS = {
    "paper_clustering": {
        "metric": "cosine",
        "bregman": "logi",
        "nu_input": 100.0,
        "lambda": 10.0,
        "p_minus": 0.01,
        "knn_k": 15,
    },
    "viz_2d": {"latent_dim": 2},
}

log = logging.getLogger("dmage")


class ConfigError(Exception):
    pass


class DataError(Exception):
    pass


def _load_config_file(path):
    try:
        with open(path) as f:
            raw = json.load(f)
    except FileNotFoundError as e:
        raise ConfigError(f"config file not found: {path}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {path} is not valid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    # a manifest from a previous run reproduces that run
    if "config" in raw and "command" in raw:
        raw = raw["config"]
    return raw


def _resolve_config(args):
    """Merge config file, preset, --seed and --seeds into (TrainConfig, data, extras)."""
    raw = _load_config_file(args.config) if args.config else {}
    if args.preset:
        raw = {**raw, **PRESETS[args.preset]}
    if args.seed is not None:
        raw["seed"] = args.seed
    if getattr(args, "seeds", None) is not None:  # eval and ablate only
        raw["eval_seeds"] = args.seeds
    data = {k: raw.pop(k) for k in list(raw) if k in DATA_KEYS}
    extras = {k: raw.pop(k) for k in list(raw) if k in EVAL_KEYS}
    try:
        cfg = TrainConfig.from_dict(raw)
    except (ValueError, TypeError) as e:
        raise ConfigError(str(e)) from e
    return cfg, data, extras


def _load_data(data, check=_require_nodes):
    """The config's graph; ``check(g)`` refuses one the command cannot use."""
    if "edge_path" not in data or "feature_path" not in data:
        raise ConfigError("config must set edge_path and feature_path")
    try:
        g = load_graph(
            data["edge_path"],
            data["feature_path"],
            data.get("label_path"),
            data.get("id_map_path"),
        )
        if check is not None:
            check(g)
        return g
    except FileNotFoundError as e:
        raise DataError(f"input file missing: {e.filename or e}") from e
    except (GraphFormatError, OSError, ValueError) as e:
        raise DataError(str(e)) from e


def _check_sizes(cfg, g, batches=True):
    """A ``knn_k``, and with ``batches`` a ``batch_size``, too large for ``g`` is a config error."""
    if cfg.knn_k >= g.n:  # 0, the default, never is
        raise ConfigError(f"knn_k {cfg.knn_k} must be below the node count {g.n}")
    if batches and cfg.batch_size > g.n:  # 0, the default, never is
        raise ConfigError(f"batch_size {cfg.batch_size} exceeds node count {g.n}")


def _file_hash(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _input_hashes(data):
    return {
        key: _file_hash(path)
        for key, path in data.items()
        if key.endswith("_path") and path and os.path.exists(path)
    }


def _write_manifest(out_dir, command, cfg, data, extras, outputs, timings, preset=None):
    manifest = {
        "command": command,
        "version": __version__,
        "preset": preset,
        "config": {**cfg.to_dict(), **data, **extras},
        "input_hashes": _input_hashes(data),
        "outputs": outputs,
        "timings_s": {k: round(v, 3) for k, v in timings.items()},
    }
    path = os.path.join(out_dir, "manifest.json")
    atomic_write_text(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def _cache_dir(args, out_dir):
    return _training_cache_dir(args.cache_dir or None) or os.path.join(out_dir, "cache")


def _make_dirs(*paths):
    """Create each directory; one that cannot be created is a config error naming it."""
    for path in paths:
        try:
            os.makedirs(path, exist_ok=True)
        except OSError as e:
            raise ConfigError(f"cannot create directory {path}: {e.strerror or e}") from e


def cmd_precompute(args):
    cfg, data, extras = _resolve_config(args)
    g = _load_data(data)
    _check_sizes(cfg, g, batches=False)
    out_dir = args.out
    cache = _cache_dir(args, out_dir)
    _make_dirs(out_dir, cache)
    t0 = time.perf_counter()
    precompute(g, cfg, cache)
    elapsed = time.perf_counter() - t0
    # the files this run read or wrote, not others that share the directory
    names = [name for name in _cache_names(g, cfg) if name is not None]
    outputs = {"cache_dir": cache, "cache_files": names}
    _write_manifest(
        out_dir, "precompute", cfg, data, extras, outputs, {"precompute": elapsed}, args.preset
    )
    log.info("precompute done in %.2fs; cache at %s", elapsed, cache)
    return EXIT_OK


def cmd_train(args):
    cfg, data, extras = _resolve_config(args)
    g = _load_data(data)
    _check_sizes(cfg, g)
    out_dir = args.out
    cache = _cache_dir(args, out_dir)
    _make_dirs(out_dir, cache)
    t0 = time.perf_counter()
    result = train(g, cfg, cache)
    train_s = time.perf_counter() - t0

    emb_path = os.path.join(out_dir, "embeddings.tsv")
    ckpt_path = os.path.join(out_dir, "checkpoint.dmgw")
    loss_path = os.path.join(out_dir, "loss.tsv")
    write_embeddings(emb_path, result.embeddings)
    save_checkpoint(ckpt_path, result.params)
    write_loss_history(loss_path, result.loss_history)
    outputs = {"embeddings": emb_path, "checkpoint": ckpt_path, "loss_history": loss_path}
    _write_manifest(out_dir, "train", cfg, data, extras, outputs, {"train": train_s}, args.preset)
    log.info("trained %d epochs in %.2fs; final loss %.6g",
             cfg.epochs, train_s, result.loss_history[-1].total)
    return EXIT_OK


def _eval_restarts(extras):
    restarts = extras.get("eval_restarts", 10)
    if isinstance(restarts, bool) or not isinstance(restarts, int) or restarts < 1:
        raise ConfigError(f"eval_restarts must be an integer >= 1, got {restarts!r}")
    return restarts


def _eval_seeds(extras, default):
    seeds = extras.get("eval_seeds", default)
    if not (isinstance(seeds, list) and seeds and all(type(s) is int and s >= 0 for s in seeds)):
        raise ConfigError(
            "eval_seeds (or --seeds) must be a non-empty list of non-negative integers, "
            f"got {seeds!r}"
        )
    return seeds


def _rows_by_node_id(path, ids, Z):
    """``Z``'s rows in node order; ``ids`` must hold each of 0..n-1 once, n = len(ids)."""
    n = len(ids)
    try:
        nodes = [int(i) for i in ids]
    except ValueError as e:
        raise DataError(f"{path}: node id is not an integer: {e}") from e
    outside = [i for i in nodes if not 0 <= i < n]
    if outside:
        raise DataError(f"{path}: node id {outside[0]} is outside 0..{n - 1}")
    counts = np.bincount(nodes, minlength=n)
    if (counts != 1).any():
        twice, missing = np.flatnonzero(counts > 1)[0], np.flatnonzero(counts == 0)[0]
        raise DataError(f"{path}: node id {twice} appears more than once and {missing} is missing")
    rows = np.empty_like(Z)
    rows[nodes] = Z
    return rows


def cmd_eval(args):
    cfg, data, extras = _resolve_config(args)
    restarts = _eval_restarts(extras)
    seeds = _eval_seeds(extras, list(range(20)))
    out_dir = args.out
    t0 = time.perf_counter()

    # --out is created only once the inputs are read, so a run refused before leaves none
    if args.task == "cluster":
        if not args.embeddings:
            raise ConfigError("eval --task cluster requires --embeddings")
        try:
            ids, Z = read_embeddings(args.embeddings)
        except FileNotFoundError as e:
            raise DataError(f"embeddings file missing: {args.embeddings}") from e
        except ValueError as e:
            raise DataError(str(e)) from e
        g = _load_data(data, check=None)
        if g.labels is None:
            raise DataError("clustering evaluation requires label_path")
        if Z.shape[0] != g.n:
            raise DataError(
                f"embeddings have {Z.shape[0]} rows but graph has {g.n} nodes"
            )
        # an --out naming a file is refused as _make_dirs refuses it, before the ids are read
        if os.path.exists(out_dir) and not os.path.isdir(out_dir):
            raise ConfigError(f"cannot create directory {out_dir}: {os.strerror(errno.EEXIST)}")
        Z = _rows_by_node_id(args.embeddings, ids, Z)
        _make_dirs(out_dir)
        try:
            reports = cluster_eval(Z, g.labels, seeds, restarts)
        except ValueError as e:  # an embedding value that is not finite
            raise DataError(f"{args.embeddings}: {e}") from e
        rows = [
            {"seed": r.seed, "acc": r.acc, "nmi": r.nmi, "f1": r.f1} for r in reports
        ]
        report_path = os.path.join(out_dir, "cluster_report.json")
        write_report(report_path, "cluster", rows, {"f1_variant": "macro"})
        outputs = {"report": report_path}
    else:
        g = _load_data(data, check=_split_sizes)
        _check_sizes(cfg, g)
        cache = _cache_dir(args, out_dir)
        _make_dirs(out_dir, cache)
        reports, _ = linkpred_eval(g, cfg, seeds, cache, out_dir)
        rows = [{"seed": r.seed, "auc": r.auc, "ap": r.ap} for r in reports]
        report_path = os.path.join(out_dir, "linkpred_report.json")
        write_report(report_path, "linkpred", rows, {"scorer": "t_kernel"})
        outputs = {
            "report": report_path,
            "splits": [f"split-seed{s}" for s in seeds],
        }

    elapsed = time.perf_counter() - t0
    _write_manifest(
        out_dir, f"eval-{args.task}", cfg, data, extras, outputs, {"eval": elapsed}, args.preset
    )
    log.info("eval %s over %d seeds in %.2fs", args.task, len(seeds), elapsed)
    return EXIT_OK


def _ablate_variants(cfg, args):
    base = cfg.to_dict()
    variants = [
        ("base", {}),
        ("no_augment", {"p_minus": 0.0}),
        ("no_fca", {"no_fca": True}),
        ("hard_similarity", {"hard_similarity": True}),
    ]
    for q_p in args.q_p_grid:
        if q_p != base["q_p"]:
            variants.append((f"q_p={q_p:g}", {"q_p": q_p}))
    for nu in args.nu_latent_grid:
        if nu != base["nu_latent"]:
            variants.append((f"nu_latent={nu:g}", {"nu_latent": nu}))
    return [(name, TrainConfig.from_dict({**base, **delta})) for name, delta in variants]


def cmd_ablate(args):
    cfg, data, extras = _resolve_config(args)
    restarts = _eval_restarts(extras)
    seeds = _eval_seeds(extras, [0, 1, 2])
    try:
        variants = _ablate_variants(cfg, args)
    except ValueError as e:  # a grid value TrainConfig refuses
        raise ConfigError(str(e)) from e
    g = _load_data(data)
    _check_sizes(cfg, g)
    if g.labels is None:
        raise DataError("ablation scoring requires label_path")
    out_dir = args.out
    cache = _cache_dir(args, out_dir)
    _make_dirs(out_dir, cache)

    t0 = time.perf_counter()
    rows = []
    for name, variant_cfg in variants:
        t_var = time.perf_counter()
        accs, nmis, f1s = [], [], []
        for seed in seeds:
            run_cfg = dataclasses.replace(variant_cfg, seed=seed)
            result = train(g, run_cfg, cache)
            reports = cluster_eval(result.embeddings, g.labels, [seed], restarts)
            accs.append(reports[0].acc)
            nmis.append(reports[0].nmi)
            f1s.append(reports[0].f1)
        rows.append(
            {
                "variant": name,
                "acc": float(np.mean(accs)),
                "nmi": float(np.mean(nmis)),
                "f1": float(np.mean(f1s)),
                "seconds": round(time.perf_counter() - t_var, 2),
            }
        )
        log.info("ablate %s: acc=%.4f nmi=%.4f f1=%.4f", name, rows[-1]["acc"],
                 rows[-1]["nmi"], rows[-1]["f1"])

    table_path = os.path.join(out_dir, "ablation.tsv")
    header = "variant\tacc\tnmi\tf1\tseconds"
    lines = [header] + [
        f"{r['variant']}\t{r['acc']:.4f}\t{r['nmi']:.4f}\t{r['f1']:.4f}\t{r['seconds']}"
        for r in rows
    ]
    atomic_write_text(table_path, "\n".join(lines) + "\n")
    elapsed = time.perf_counter() - t0
    _write_manifest(
        out_dir, "ablate", cfg, data, extras, {"table": table_path}, {"ablate": elapsed},
        args.preset,
    )
    return EXIT_OK


def _int_list(text):
    return [int(x) for x in text.split(",") if x != ""]


def _float_list(text):
    return [float(x) for x in text.split(",") if x != ""]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dmage",
        description="Attributed graph embedding via geodesic similarity matching.",
    )
    parser.add_argument("--version", action="version", version=f"dmage {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file (or a previous run's manifest)")
        p.add_argument("--out", default="runs/latest", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument(
            "--preset",
            choices=sorted(PRESETS),
            default=None,
            help="apply a named settings bundle on top of the config file",
        )
        p.add_argument("--cache-dir", default=None,
                       help="cache location (default: $DMAGE_CACHE_DIR or <out>/cache)")
        p.add_argument("-v", "--verbose", action="store_true", help="debug logging")

    p = sub.add_parser("precompute", help="compute and cache the two similarity matrices")
    common(p)
    p.set_defaults(func=cmd_precompute)

    p = sub.add_parser("train", help="fit the embedding network and export embeddings")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score embeddings by clustering or link prediction")
    common(p)
    p.add_argument("--task", choices=("cluster", "linkpred"), required=True)
    p.add_argument("--embeddings", help="embeddings.tsv to score (cluster task)")
    p.add_argument("--seeds", type=_int_list, default=None,
                   help="comma-separated evaluation seeds (default 0..19)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="sweep ablation flags and kernel grids")
    common(p)
    p.add_argument("--seeds", type=_int_list, default=None,
                   help="comma-separated training seeds per variant (default 0,1,2)")
    p.add_argument("--q-p-grid", type=_float_list, default=[4.0, 16.0, 64.0],
                   dest="q_p_grid", help="comma-separated q_p values")
    p.add_argument("--nu-latent-grid", type=_float_list, default=[0.5, 1.0, 2.0],
                   dest="nu_latent_grid", help="comma-separated nu_latent values")
    p.set_defaults(func=cmd_ablate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.func(args)
    except ConfigError as e:
        log.error("config error: %s", e)
        return EXIT_CONFIG
    except DataError as e:
        log.error("data error: %s", e)
        return EXIT_DATA
    except TrainingDivergedError as e:
        log.error("numeric failure: %s", e)
        return EXIT_NUMERIC
    except FloatingPointError as e:
        log.error("numeric failure: %s", e)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
