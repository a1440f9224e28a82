"""Benchmark inputs: a Cora-shaped attributed graph and a dense block model.

Both are functions of the workload seed alone, so the same seed gives the
same graph on every commit.  The library sees only the finished
``AttributedGraph``.
"""

from __future__ import annotations

import numpy as np

from dmage import AttributedGraph, two_block_sbm

# Cora: 2708 papers, 7 classes, 1433-word binary bag of words with about 18
# words per paper, 5429 citation links of which about 81% join one class.
CORA_N = 2708
CORA_CLASS_SIZES = (818, 426, 418, 351, 298, 217, 180)
CORA_VOCAB = 1433
CORA_WORDS_PER_NODE = 18
CORA_EDGES = 5300
CORA_INTRA_FRACTION = 0.81
TOPIC_WORDS = 120  # vocabulary slice each class favours
TOPIC_SHARE = 0.5  # expected share of a node's words drawn from its topic


def cora_like(seed: int) -> AttributedGraph:
    """Attributed k-block graph with Cora's size, class mix and sparsity.

    Each class favours its own slice of a Zipf-weighted vocabulary; a node
    draws about 18 distinct words from the mixture of its class slice and
    the global distribution.  Edge endpoints are drawn in proportion to
    heavy-tailed node weights, within one class with probability 0.81.
    """
    rng = np.random.default_rng([seed, 7])
    k = len(CORA_CLASS_SIZES)
    labels = rng.permutation(np.repeat(np.arange(k), CORA_CLASS_SIZES))

    zipf = 1.0 / np.arange(1, CORA_VOCAB + 1)
    vocab_order = rng.permutation(CORA_VOCAB)
    global_p = np.empty(CORA_VOCAB)
    global_p[vocab_order] = zipf / zipf.sum()
    topic_p = np.zeros((k, CORA_VOCAB))
    for c in range(k):
        words = rng.choice(CORA_VOCAB, TOPIC_WORDS, replace=False)
        topic_p[c, words] = 1.0 / TOPIC_WORDS
    word_p = TOPIC_SHARE * topic_p[labels] + (1.0 - TOPIC_SHARE) * global_p
    # Gumbel top-k: the m_i largest perturbed log-weights of row i are a
    # draw of m_i distinct words without replacement
    counts = np.clip(rng.poisson(CORA_WORDS_PER_NODE, CORA_N), 1, None)
    keys = np.log(word_p) + rng.gumbel(size=word_p.shape)
    cutoff = -np.sort(-keys, axis=1)[np.arange(CORA_N), counts - 1]
    features = (keys >= cutoff[:, None]).astype(np.float64)

    weight = rng.pareto(2.5, CORA_N) + 1.0
    pairs = _weighted_pairs(rng, labels, weight, 2 * CORA_EDGES)
    _, first = np.unique(pairs[:, 0] * CORA_N + pairs[:, 1], return_index=True)
    keep = pairs[np.sort(first)[:CORA_EDGES]]
    edges = frozenset(zip(keep[:, 0].tolist(), keep[:, 1].tolist()))
    return AttributedGraph(CORA_N, edges, features, labels)


def _weighted_pairs(rng, labels, weight, size):
    """Canonical ``(i < j)`` pairs, both ends drawn in proportion to ``weight``.

    The second end shares the first's class with probability
    ``CORA_INTRA_FRACTION`` and is drawn from the other classes otherwise.
    """
    p = weight / weight.sum()
    src = rng.choice(labels.size, size, p=p)
    intra = rng.random(size) < CORA_INTRA_FRACTION
    dst = np.empty(size, dtype=np.int64)
    for c in range(labels.max() + 1):
        in_c = labels == c
        for same, pool in ((True, in_c), (False, ~in_c)):
            rows = np.flatnonzero((labels[src] == c) & (intra == same))
            members = np.flatnonzero(pool)
            dst[rows] = rng.choice(members, rows.size, p=p[members] / p[members].sum())
    pairs = np.sort(np.stack([src, dst], axis=1), axis=1)
    return pairs[pairs[:, 0] != pairs[:, 1]]


def dense_sbm(seed: int) -> AttributedGraph:
    """Two-block SBM, n=600, 16-d Gaussian features, about 8k edges."""
    return two_block_sbm(n=600, p_intra=0.08, p_inter=0.01, feature_dim=16, seed=seed)


def non_edges(g: AttributedGraph, count: int, seed: int) -> np.ndarray:
    """``count`` distinct node pairs ``(i < j)`` that are not edges of ``g``."""
    rng = np.random.default_rng([seed, 11])
    taken = {i * g.n + j for i, j in g.edges}
    out = []
    while len(out) < count:
        pairs = np.sort(rng.integers(0, g.n, size=(2 * count, 2)), axis=1)
        for i, j in pairs[pairs[:, 0] != pairs[:, 1]].tolist():
            key = i * g.n + j
            if key not in taken:
                taken.add(key)
                out.append((i, j))
    return np.array(out[:count], dtype=np.int64)
