"""
Per-epoch graph structure augmentation
======================================

During training the aggregation graph is perturbed every epoch: each edge
drops with probability p_minus, and an equal number of hop-2 pairs (ends
of length-2 paths that are not yet edges) are added in their place.  This
script shows the drop/add bookkeeping, determinism, and starvation.
"""

import warnings

import numpy as np

from dmage import AugmentationConfig, augment, hop_neighborhoods, two_block_sbm
from dmage.graph import AttributedGraph

g = two_block_sbm(n=60, p_intra=0.3, p_inter=0.02, seed=0)
hop2 = hop_neighborhoods(g)  # sorted (h, 2) array of pairs at distance exactly 2
print(f"graph: {g.num_edges} edges, {len(hop2)} hop-2 candidate pairs")

# Each epoch is an independent draw keyed by (seed, epoch): drops are
# Bernoulli(p_minus) per edge, additions are sampled without replacement
# from the hop-2 pairs of the *original* graph.
cfg = AugmentationConfig(p_minus=0.05, rng_seed=0)
print("\nper-epoch edits (p_minus=0.05):")
for epoch in range(6):
    out = augment(g, hop2, cfg, epoch)
    print(
        f"  epoch {epoch}: dropped {len(out.removed):2d}, added {len(out.added):2d}, "
        f"edge count {len(out.result)} (unchanged: {len(out.result) == g.num_edges})"
    )

# Same (seed, epoch) -> same edit, so runs are reproducible; a different
# seed reshuffles everything.
a = augment(g, hop2, cfg, epoch=3)
b = augment(g, hop2, cfg, epoch=3)
c = augment(g, hop2, AugmentationConfig(p_minus=0.05, rng_seed=1), epoch=3)
print(f"\nsame seed+epoch identical: {np.array_equal(a.result, b.result)}")
print(f"different seed identical:  {np.array_equal(a.result, c.result)}")

# Long-run statistics: the mean drop count matches the Bernoulli rate.
counts = [len(augment(g, hop2, cfg, e).removed) for e in range(2000)]
print(f"mean drops over 2000 epochs: {np.mean(counts):.2f} "
      f"(expected {0.05 * g.num_edges:.2f})")

# Starvation: when fewer hop-2 candidates exist than edges were dropped,
# every candidate is added and a warning reports the shortfall.  A triangle
# has no hop-2 pairs at all.
tri = AttributedGraph(3, frozenset({(0, 1), (0, 2), (1, 2)}), np.eye(3), None)
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    out = augment(tri, hop_neighborhoods(tri), AugmentationConfig(1.0, 0), epoch=0)
print(f"\ntriangle with p_minus=1: dropped {len(out.removed)}, added {len(out.added)}")
print(f"warning raised: {caught[0].message}")
