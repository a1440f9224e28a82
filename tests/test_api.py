import importlib

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
    assert len(dmage.__all__) == len(set(dmage.__all__)) == 65
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
