import ast
import importlib
import inspect
import os
import pathlib
import subprocess
import sys

import pytest

import dmage

# helpers that duplicated a code path of the pipeline or served no run
DELETED = [
    "fc_forward",
    "fca_forward",
    "similarity_from_distances",
    "graph_geodesic_similarity",
    "t_kernel_grad",
    "normalize_row",
    "edge_score",
    "latent_similarity",
    "KernelParams",
]
MODULES = [
    "augmentation",
    "cli",
    "container",
    "distances",
    "evaluation",
    "graph",
    "losses",
    "network",
    "similarity",
    "synthetic",
    "training",
]


def test_every_exported_name_resolves():
    assert len(dmage.__all__) == len(set(dmage.__all__)) == 64
    for name in dmage.__all__:
        getattr(dmage, name)


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"dmage.{module}")
    for name in getattr(mod, "__all__", ()):
        getattr(mod, name)


@pytest.mark.parametrize("name", DELETED)
def test_deleted_helpers_are_gone(name):
    assert name not in dmage.__all__
    assert not hasattr(dmage, name)
    for module in MODULES:
        mod = importlib.import_module(f"dmage.{module}")
        assert not hasattr(mod, name), f"dmage.{module}.{name}"


@pytest.mark.parametrize(
    "name", ["calibrate_sigma", "calibrate_all", "bregman_logistic", "fused_loss"]
)
def test_method_constants_are_not_parameters(name):
    # the search tolerance, the bisection cap and the logistic clamp are
    # module constants: similarity.DEFAULT_TOL, DEFAULT_MAX_ITER, losses.LOGI_EPS
    params = inspect.signature(getattr(dmage, name)).parameters
    assert not {"tol", "max_iter", "eps"} & set(params)


def test_kernel_and_loss_signatures():
    # nu is passed directly; the bench's loss observer reads the batch as args[6];
    # the kernel and the joint form can be written into a given buffer
    assert list(inspect.signature(dmage.conditional_similarity).parameters) == [
        "distances", "nu", "calib", "out"
    ]
    assert list(inspect.signature(dmage.symmetrize).parameters) == ["p", "out"]
    assert list(inspect.signature(dmage.fused_loss).parameters) == [
        "P_complete", "P_prior", "Z", "nu_latent", "alpha", "kind", "batch"
    ]


def _subprocess_env():
    src = os.path.dirname(os.path.dirname(os.path.abspath(dmage.__file__)))
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def test_scoring_imports_no_scipy_stats_or_optimize():
    # ACC matching and AUC ranks are numpy code; importing scipy.stats or
    # scipy.optimize would add about 40 MB to every dmage process
    script = (
        "import sys\n"
        "import numpy as np\n"
        "import dmage\n"
        "Z = np.random.default_rng(0).standard_normal((30, 2))\n"
        "dmage.cluster_eval(Z, np.arange(30) % 3, [0])\n"
        "dmage.auc_ap([0.9, 0.5], [0.5, 0.1])\n"
        "print(sorted(m for m in ('scipy.stats', 'scipy.optimize') if m in sys.modules))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=_subprocess_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


def test_distance_metric_has_one_definition():
    assert dmage.graph.DistanceMetric is dmage.distances.DistanceMetric


@pytest.mark.parametrize("module", ["graph", "distances", "container", "similarity", "losses"])
def test_module_imports_first(module):
    # a fresh interpreter with the package's __init__ skipped, so that the
    # module's own imports run before any other dmage module's
    script = (
        "import importlib, importlib.util, sys, types\n"
        "package = types.ModuleType('dmage')\n"
        "package.__path__ = importlib.util.find_spec('dmage').submodule_search_locations\n"
        "sys.modules['dmage'] = package\n"
        f"importlib.import_module('dmage.{module}')\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], env=_subprocess_env(), capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr


def test_no_function_imports_a_dmage_module():
    # every dmage import is at module level, so the import graph has no cycle
    # hidden behind a function-local import
    lazy = []
    for path in sorted(pathlib.Path(dmage.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.ImportFrom):
                    lazy.append((path.stem, "." * node.level + (node.module or "")))
                elif isinstance(node, ast.Import):
                    lazy += [(path.stem, alias.name) for alias in node.names]
    internal = [(where, name) for where, name in lazy if name.startswith((".", "dmage"))]
    assert internal == []
    # the Manhattan distance still loads scipy.spatial only when it runs
    assert ("distances", "scipy.spatial.distance") in lazy
