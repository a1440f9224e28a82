"""
From an attributed graph to a joint similarity matrix
=====================================================

Walks the input-side pipeline one stage at a time: feature-weighted
geodesic distances, per-node bandwidth calibration, asymmetric conditional
similarities, and the symmetrized joint matrix the trainer actually fits.
"""

import numpy as np

from dmage import (
    calibrate_all,
    conditional_similarity,
    geodesic_distances,
    symmetrize,
    two_block_sbm,
)

np.set_printoptions(precision=3, suppress=True, linewidth=100)

# A small two-community graph.  Edges follow the blocks; features are 2-D
# Gaussians whose means differ between blocks, so edge weights (euclidean
# feature distances) are short inside a block and long across.
g = two_block_sbm(n=16, p_intra=0.6, p_inter=0.1, seed=4)
print(f"graph: {g.n} nodes, {g.num_edges} edges")

# Stage 1: geodesic distances.  Every edge is weighted by the euclidean
# distance between its endpoint features, then we take all-pairs shortest
# paths.  Pairs in different components would get lambda * the largest
# connected distance; this graph is connected so none appear.
dist = geodesic_distances(g, "euclidean", lambda_=10.0)
print("\ngeodesic distances (first 6 nodes):")
print(dist.matrix[:6, :6])

# Stage 2: calibration.  For each row we solve for the bandwidth sigma_i
# that makes the row's compactness 2^(sum_j kappa^2) hit the target q_p.
# rho_i is the distance to the nearest other node, so the closest neighbor
# always sits at the top of the kernel.
calib = calibrate_all(dist.matrix, nu=100.0, q_p=8.0)
print("\nper-node rho (nearest-neighbor distance):")
print(calib.rho[:8])
print("per-node sigma (calibrated bandwidth):")
print(calib.sigma[:8])

# Stage 3: conditional similarities.  Asymmetric, because each row uses its
# own rho and sigma.
cond = conditional_similarity(dist, nu=100.0, calib=calib)
asym = np.abs(cond.matrix - cond.matrix.T).max()
print(f"\nconditional similarity asymmetry: max |P - P^T| = {asym:.3f}")

# Stage 4: the joint form p + q - 2pq.  Symmetric, zero diagonal, and the
# quantity the loss compares against latent similarities.
joint = symmetrize(cond)
print("joint similarity (first 6 nodes):")
print(joint.matrix[:6, :6])

# The target q_p controls how local the similarity is: raising it forces
# larger bandwidths, which spreads mass onto farther neighbors.
for q_p in (4.0, 8.0, 32.0):
    c = calibrate_all(dist.matrix, nu=100.0, q_p=q_p)
    j = symmetrize(conditional_similarity(dist, nu=100.0, calib=c))
    off = j.matrix[~np.eye(g.n, dtype=bool)]
    print(
        f"q_p={q_p:5.1f}: median sigma {np.median(c.sigma):.3f}, "
        f"mean joint similarity {off.mean():.4f}"
    )
