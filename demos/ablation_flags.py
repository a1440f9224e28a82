"""
What each training ingredient contributes
=========================================

Retrains the block-model embedding with individual ingredients switched
off — no augmentation, no aggregation layer, hard 0/1 adjacency instead of
geodesic similarities — and compares clustering quality.  The same sweep
is available from the command line as ``dmage ablate``.
"""

import dataclasses

import numpy as np

from dmage import TrainConfig, cluster_eval, train, two_block_sbm

g = two_block_sbm(n=60, p_intra=0.3, p_inter=0.02, seed=0)

# default latent width; shrinking it far below the default risks the
# collapsed-embedding local optimum where every variant scores at chance
base = TrainConfig(epochs=200)
variants = [
    ("base", {}),
    ("no_augment", {"p_minus": 0.0}),
    ("no_fca", {"no_fca": True}),
    ("hard_similarity", {"hard_similarity": True}),
    ("sed loss", {"bregman": "sed"}),
    ("alpha=0 (feature term only)", {"alpha": 0.0}),
]

print(f"{'variant':<30} {'ACC':>6} {'NMI':>6} {'F1':>6}")
for name, delta in variants:
    accs, nmis, f1s = [], [], []
    # three training seeds per variant so single-run noise does not decide
    for seed in (0, 1, 2):
        cfg = dataclasses.replace(base, seed=seed, **delta)
        result = train(g, cfg)
        r = cluster_eval(result.embeddings, g.labels, [seed])[0]
        accs.append(r.acc)
        nmis.append(r.nmi)
        f1s.append(r.f1)
    print(f"{name:<30} {np.mean(accs):6.3f} {np.mean(nmis):6.3f} {np.mean(f1s):6.3f}")

print("\nOn a graph this easy most variants tie; the flags matter on real")
print("datasets where structure and features disagree more often.")
