import importlib
import inspect

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
    # nu is passed directly; the bench's loss observer reads the batch as args[6]
    assert list(inspect.signature(dmage.conditional_similarity).parameters) == [
        "distances", "nu", "calib"
    ]
    assert list(inspect.signature(dmage.fused_loss).parameters) == [
        "P_complete", "P_prior", "Z", "nu_latent", "alpha", "kind", "batch"
    ]
