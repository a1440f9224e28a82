import importlib
import inspect
import os
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
    src = os.path.dirname(os.path.dirname(os.path.abspath(dmage.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
