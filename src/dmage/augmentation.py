"""Per-epoch structural augmentation: drop hop-1 edges, add hop-2 edges.

Each existing edge is dropped independently with a small probability; the
same number of hop-2 pairs (nodes at graph distance exactly 2 in the
original graph) is then added, sampled uniformly without replacement.  The
result is a perturbed edge set used for one training epoch only — evaluation
always runs on the unaugmented graph.

Edge sets are ``(k, 2)`` int64 arrays: the drop draws follow the rows of the
graph's sorted edge array and the additions index the sorted hop-2 array from
:func:`~dmage.graph.hop_neighborhoods`, so an epoch is a boolean keep-mask
plus a row sample, with no per-edge Python work.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .graph import AttributedGraph

__all__ = ["AugmentationConfig", "AugmentedEdges", "AugmentationWarning", "augment"]


class AugmentationWarning(UserWarning):
    """Not enough hop-2 candidates to balance the dropped edges."""


@dataclass(frozen=True)
class AugmentationConfig:
    p_minus: float
    rng_seed: int

    def __post_init__(self):
        if not 0.0 <= self.p_minus <= 1.0:
            raise ValueError(f"p_minus must be in [0, 1], got {self.p_minus}")


@dataclass(frozen=True, eq=False)
class AugmentedEdges:
    """Edges removed, edges added, and the resulting perturbed edge set.

    Each is a ``(k, 2)`` int64 array of ``(i, j)`` rows with ``i < j``;
    ``len()`` counts edges.  ``removed`` and ``added`` are sorted, and
    ``result`` is the kept edges (sorted) followed by ``added``.
    """

    removed: np.ndarray
    added: np.ndarray
    result: np.ndarray


def augment(
    g: AttributedGraph,
    hop2: np.ndarray,
    cfg: AugmentationConfig,
    epoch: int,
) -> AugmentedEdges:
    """One epoch's edge perturbation, deterministic in (rng_seed, epoch).

    ``hop2`` is ``hop_neighborhoods(g)``, computed once on the original
    graph; by construction it is disjoint from the existing edges.  When
    fewer candidates exist than edges were dropped, all candidates are added
    and an :class:`AugmentationWarning` notes the imbalance.
    """
    rng = np.random.default_rng([cfg.rng_seed, epoch])
    edges = g.edge_array()
    drop = rng.random(edges.shape[0]) < cfg.p_minus

    n_cand = hop2.shape[0]
    want = int(drop.sum())
    if n_cand < want:
        warnings.warn(
            f"only {n_cand} hop-2 candidates for {want} dropped edges; adding all",
            AugmentationWarning,
        )
        added = hop2
    else:
        added = hop2[np.sort(rng.choice(n_cand, size=want, replace=False))]

    return AugmentedEdges(edges[drop], added, np.concatenate([edges[~drop], added]))
