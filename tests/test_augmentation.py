import warnings

import numpy as np
import pytest

from dmage.augmentation import AugmentationConfig, AugmentationWarning, augment
from dmage.graph import AttributedGraph, hop_neighborhoods, normalize_edges

from conftest import random_graph


def prepared(g):
    return g, hop_neighborhoods(g)


def as_set(pairs):
    return frozenset(map(tuple, np.asarray(pairs).tolist()))


class TestAugment:
    def test_zero_probability_is_identity(self):
        g, hoods = prepared(random_graph(np.random.default_rng(0), n=10, density=0.3))
        out = augment(g, hoods, AugmentationConfig(0.0, rng_seed=1), epoch=0)
        assert as_set(out.removed) == frozenset()
        assert as_set(out.added) == frozenset()
        assert as_set(out.result) == g.edges

    def test_p_one_on_triangle_drops_all_with_warning(self):
        # K3 has no hop-2 pairs, so nothing can replace the dropped edges
        feats = np.zeros((3, 2))
        g = AttributedGraph(3, normalize_edges([(0, 1), (1, 2), (0, 2)]), feats, None)
        hoods = hop_neighborhoods(g)
        with pytest.warns(AugmentationWarning):
            out = augment(g, hoods, AugmentationConfig(1.0, rng_seed=2), epoch=0)
        assert as_set(out.removed) == g.edges
        assert as_set(out.added) == frozenset()
        assert as_set(out.result) == frozenset()

    def test_deterministic_given_seed_and_epoch(self):
        g, hoods = prepared(random_graph(np.random.default_rng(1), n=20, density=0.2))
        cfg = AugmentationConfig(0.3, rng_seed=3)
        a = augment(g, hoods, cfg, epoch=5)
        b = augment(g, hoods, cfg, epoch=5)
        assert np.array_equal(a.removed, b.removed) and np.array_equal(a.added, b.added)

    def test_different_epochs_differ(self):
        g, hoods = prepared(random_graph(np.random.default_rng(2), n=30, density=0.3))
        cfg = AugmentationConfig(0.5, rng_seed=4)
        outs = [augment(g, hoods, cfg, epoch=e) for e in range(6)]
        assert len({as_set(o.removed) for o in outs}) > 1

    def test_structural_invariants(self):
        rng = np.random.default_rng(3)
        for trial in range(25):
            g, hoods = prepared(random_graph(rng, density=0.25))
            cfg = AugmentationConfig(0.4, rng_seed=trial)
            with warnings.catch_warnings():
                # sparse trials legitimately run out of hop-2 candidates
                warnings.simplefilter("ignore", AugmentationWarning)
                out = augment(g, hoods, cfg, epoch=trial)
            removed, added, result = as_set(out.removed), as_set(out.added), as_set(out.result)
            assert len(result) == len(out.result)  # no duplicate rows
            assert removed <= g.edges
            assert not (added & g.edges)
            assert added <= as_set(hoods)
            assert result == (g.edges - removed) | added
            for i, j in result:
                assert 0 <= i < j < g.n

    def test_equal_counts_when_candidates_suffice(self):
        rng = np.random.default_rng(4)
        g, hoods = prepared(random_graph(rng, n=40, density=0.15))
        assert hoods.shape[0] > g.num_edges  # sparse: plenty of hop-2
        cfg = AugmentationConfig(0.5, rng_seed=5)
        for epoch in range(10):
            out = augment(g, hoods, cfg, epoch)
            assert len(out.added) == len(out.removed)

    def test_binomial_drop_statistics(self):
        # scaled-down version of the acceptance check
        g, hoods = prepared(random_graph(np.random.default_rng(6), n=60, density=0.2))
        p = 0.05
        cfg = AugmentationConfig(p, rng_seed=7)
        m = g.num_edges
        trials = 300
        counts = np.array([len(augment(g, hoods, cfg, e).removed) for e in range(trials)])
        expect = p * m
        sigma = np.sqrt(m * p * (1 - p))
        assert abs(counts.mean() - expect) <= 3 * sigma / np.sqrt(trials)

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            AugmentationConfig(1.5, rng_seed=0)
