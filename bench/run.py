"""dmage benchmark: one workload, closed loop, one client, one job at a time.

    python3 bench/run.py --workload cora-cold --seed 1 --seconds 15 --trace 0

Run from the repository root.  The library is imported from ``src/`` next
to this directory.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``; with ``--trace 1`` the per-layer metrics of a
traced pass that repeats an untraced pass's operations.  The line before
it records the environment.  Scratch files (caches, spans, results) go to
``.bench_out/`` in the working directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")
OUT_DIR = ".bench_out"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def usable_cores() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def pin_blas_threads() -> int:
    """Cap BLAS threads at the cores this process may use; call before numpy loads."""
    threads = usable_cores()
    for var in BLAS_ENV:
        if os.environ.get(var, "").isdigit():
            threads = min(threads, max(1, int(os.environ[var])))
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    return threads


def import_library():
    """Import dmage from this checkout's ``src/`` and nowhere else."""
    sys.path[:0] = [SRC_DIR, BENCH_DIR]
    import dmage

    if os.path.dirname(os.path.dirname(os.path.abspath(dmage.__file__))) != SRC_DIR:
        raise ImportError(f"dmage imported from {dmage.__file__}, not from {SRC_DIR}")
    return dmage


def environment(blas_threads):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cores": usable_cores(),
        "blas_threads": blas_threads,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def round_mean(ops, round_size, key):
    """Mean over the first round's operations; NaN when they all failed."""
    values = [op.quality[key] for op in ops[:round_size] if op.failure is None]
    return statistics.fmean(values) if values else float("nan")


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def end_to_end(setup_s, ops, round_size):
    return {
        "setup_s": metric(setup_s, "s"),
        "wall_s": metric(statistics.median(op.wall_s for op in ops), "s"),
        "train_s": metric(statistics.median(op.train_s for op in ops), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "loss_final": metric(round_mean(ops, round_size, "loss_final"), "loss"),
        "acc": metric(round_mean(ops, round_size, "acc"), "ratio"),
        "auc": metric(round_mean(ops, round_size, "auc"), "ratio"),
        "ap": metric(round_mean(ops, round_size, "ap"), "ratio"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    blas_threads = pin_blas_threads()
    try:
        import_library()
    except ImportError as e:
        print(f"bench: cannot import dmage from {SRC_DIR}: {e}", file=sys.stderr)
        return 2
    import layers
    from workloads import WORKLOADS, closed_loop, rounds_repeat, same_outputs

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    env = environment(blas_threads)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.setup()
        ops = closed_loop(workload, seconds=args.seconds)
        problems = [f"op {i}: {op.failure}" for i, op in enumerate(ops) if op.failure]
        if workload.input_mismatches:
            problems.append(f"{workload.input_mismatches} input generations differed from the first")
        if not problems:
            if not rounds_repeat(ops, workload.round_size):
                problems.append("operations on identical inputs gave different outputs")
            problems += workload.final_checks(ops)
        attempted, failed = len(ops), sum(op.failure is not None for op in ops)
        if args.trace:
            traced, tracer, counts = layers.traced_loop(workload, len(ops))
            attempted += len(traced)
            failed += sum(op.failure is not None for op in traced)
            if not same_outputs(ops, traced):
                problems.append("traced run differs from untraced run")
            stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}")
            tracer.write(stem + "-spans.jsonl")
            metrics = layers.per_layer(tracer, counts, traced, workload.cfg.nu_latent)
        else:
            metrics = end_to_end(workload.setup_s(), ops, workload.round_size)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    summary = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as f:
        json.dump({"environment": env, "problems": problems, **summary}, f, indent=2)
    for p in problems:
        print(f"bench: {p}", file=sys.stderr)
    print(json.dumps({"environment": env}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
