import importlib.util
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmage import CalibrationWarning, TrainConfig, losses, precompute, train, training
from dmage.cli import PRESETS
from dmage.losses import (
    LOGI_EPS,
    BregmanKind,
    bregman_logistic,
    bregman_sed,
    fused_loss,
)
from dmage.distances import _row_blocks
from dmage.network import forward, init_network

# 0.5*log(2) + 0.5*log(2/3), evaluated at 40-digit precision
LOGI_HALF_QUARTER = 0.14384103622589046372


def rand_similarity(rng, n):
    p = rng.uniform(0, 1, (n, n))
    p = (p + p.T) / 2
    np.fill_diagonal(p, 0.0)
    return p


def sed_oracle(P, Q):
    n = P.shape[0]
    total, count = 0.0, 0
    for i in range(n):
        for j in range(n):
            if i != j:
                total += (P[i, j] - Q[i, j]) ** 2
                count += 1
    return total / count


def logi_oracle(P, Q, eps=LOGI_EPS):
    n = P.shape[0]
    total, count = 0.0, 0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            p = P[i, j]
            q = min(max(Q[i, j], eps), 1 - eps)
            term = 0.0
            if p > 0:
                term += p * math.log(p / q)
            if p < 1:
                term += (1 - p) * math.log((1 - p) / (1 - q))
            total += term
            count += 1
    return total / count


def latent_similarity(Z, nu):
    """The latent joint similarity of every pair, built from ``fused_loss``'s row blocks."""
    Z = np.asarray(Z, dtype=np.float64)
    sq = np.sum(Z * Z, axis=1)
    Q = np.empty((Z.shape[0], Z.shape[0]))
    for rows in _row_blocks(Z.shape[0], Z.shape[0], losses._BLOCK):
        Q[rows] = losses._latent_rows(Z, sq, rows, nu)[2]
    return Q


def latent_kernel_oracle(d, nu):
    """The latent kernel every loss oracle expects at distance ``d``: the Student-t kernel, uncapped.

    Elementwise on arrays; a float for a scalar ``d``.
    """
    log_c = (
        0.5 * math.log(2.0 * math.pi)
        + math.lgamma((nu + 1.0) / 2.0)
        - 0.5 * math.log(nu * math.pi)
        - math.lgamma(nu / 2.0)
    )
    return np.exp(log_c - 0.5 * (nu + 1.0) * np.log1p(d * d / nu))


def latent_similarity_oracle(Z, nu):
    """Scalar pipeline: distances -> kernel -> joint, one pair at a time."""
    n = Z.shape[0]
    q = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            d = math.sqrt(((Z[i] - Z[j]) ** 2).sum())
            k = latent_kernel_oracle(d, nu)
            q[i, j] = 2 * k - 2 * k * k
    return q


class TestBregmanSed:
    def test_equal_matrices_zero(self):
        p = rand_similarity(np.random.default_rng(0), 5)
        assert bregman_sed(p, p) == 0.0

    def test_all_ones_vs_zeros(self):
        n = 4
        p = 1.0 - np.eye(n)
        q = np.zeros((n, n))
        assert bregman_sed(p, q) == 1.0

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(1)
        p, q = rand_similarity(rng, 4), rand_similarity(rng, 4)
        assert bregman_sed(p, q) == pytest.approx(sed_oracle(p, q), rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            bregman_sed(np.zeros((3, 3)), np.zeros((4, 4)))


class TestBregmanLogistic:
    def test_equal_interior_zero(self):
        rng = np.random.default_rng(2)
        p = rand_similarity(rng, 5) * 0.8 + 0.1
        np.fill_diagonal(p, 0.0)
        assert bregman_logistic(p, p) == pytest.approx(0.0, abs=1e-12)

    def test_frozen_half_quarter_value(self):
        p = np.array([[0.0, 0.5], [0.5, 0.0]])
        q = np.array([[0.0, 0.25], [0.25, 0.0]])
        assert bregman_logistic(p, q) == pytest.approx(LOGI_HALF_QUARTER, rel=1e-14)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(3)
        p, q = rand_similarity(rng, 5), rand_similarity(rng, 5)
        assert bregman_logistic(p, q) == pytest.approx(logi_oracle(p, q), rel=1e-12)

    def test_extreme_p_values_finite(self):
        p = np.array([[0.0, 1.0], [0.0, 0.0]])
        q = np.array([[0.0, 0.0], [1.0, 0.0]])
        v = bregman_logistic(p, q)
        assert np.isfinite(v)
        assert v == pytest.approx(logi_oracle(p, q), rel=1e-12)

    @settings(max_examples=150)
    @given(st.integers(0, 10_000))
    def test_nonnegative_and_zero_iff_equal(self, seed):
        rng = np.random.default_rng(seed)
        p, q = rand_similarity(rng, 4), rand_similarity(rng, 4)
        d = bregman_logistic(p, q)
        assert d >= 0.0
        s = bregman_sed(p, q)
        assert s >= 0.0
        if not np.allclose(p, q, atol=1e-6):
            assert d > 0.0
            assert s > 0.0


class TestNaNInP:
    """A NaN similarity is not dropped as if it were 0 or 1."""

    def nan_pair(self):
        P = np.full((4, 4), 0.3)
        P[0, 1] = P[1, 0] = np.nan
        return P

    @pytest.mark.parametrize("divergence", [bregman_sed, bregman_logistic])
    def test_divergences_give_nan(self, divergence):
        Q = np.full((4, 4), 0.2)
        assert math.isnan(divergence(self.nan_pair(), Q))

    @pytest.mark.parametrize("kind", list(BregmanKind))
    def test_fused_loss_names_nan_on_a_diagonal_square(self, kind):
        Z = np.random.default_rng(0).standard_normal((4, 2))
        P = self.nan_pair()
        with pytest.raises(ValueError, match="P_prior holds NaN"):
            fused_loss(np.full((4, 4), 0.3), P, Z, 1.0, 0.5, kind)
        P[2, 3] = 0.4  # asymmetric as well: that is the error
        with pytest.raises(ValueError, match="P_prior is not symmetric"):
            fused_loss(np.full((4, 4), 0.3), P, Z, 1.0, 0.5, kind)

    @pytest.mark.parametrize("kind", list(BregmanKind))
    def test_fused_loss_is_nan_past_the_diagonal_square(self, kind, monkeypatch):
        # one row per block: pair (0, 1) lies right of row 0's square
        monkeypatch.setattr(losses, "_BLOCK", 1)
        Z = np.random.default_rng(0).standard_normal((4, 2))
        terms, _ = fused_loss(self.nan_pair(), np.full((4, 4), 0.3), Z, 1.0, 0.5, kind)
        assert math.isnan(terms.feature_term) and math.isnan(terms.total)


class TestLatentSimilarity:
    def test_matches_scalar_pipeline_oracle(self):
        rng = np.random.default_rng(4)
        Z = rng.standard_normal((5, 3))
        got = latent_similarity(Z, 1.0)
        assert np.allclose(got, latent_similarity_oracle(Z, 1.0), atol=1e-12)

    def test_identical_rows_joint_value(self):
        Z = np.zeros((2, 3))
        k0 = latent_kernel_oracle(0.0, 1.0)
        got = latent_similarity(Z, 1.0)
        assert got[0, 1] == pytest.approx(2 * k0 - 2 * k0 * k0, rel=1e-12)

    def test_scaling_up_distances_never_increases(self):
        rng = np.random.default_rng(5)
        Z = rng.standard_normal((6, 4))
        near = latent_similarity(Z, 1.0)
        far = latent_similarity(3.0 * Z, 1.0)
        off = ~np.eye(6, dtype=bool)
        assert (far[off] <= near[off] + 1e-12).all()


def finite_difference_error(Pc, Pp, Z, nu, kind, batch, alpha=0.6, h=1e-5):
    """Largest relative gap between ``fused_loss``'s gradient and central differences."""
    Z = Z[batch]
    _, grad = fused_loss(Pc, Pp, Z, nu, alpha, kind, batch)
    worst = 0.0
    for bi in range(batch.size):
        for d in range(Z.shape[1]):
            zp = Z.copy()
            zp[bi, d] += h
            zm = Z.copy()
            zm[bi, d] -= h
            fp = fused_loss(Pc, Pp, zp, nu, alpha, kind, batch)[0].total
            fm = fused_loss(Pc, Pp, zm, nu, alpha, kind, batch)[0].total
            fd = (fp - fm) / (2 * h)
            worst = max(worst, abs(fd - grad[bi, d]) / max(1.0, abs(fd), abs(grad[bi, d])))
    return worst


class TestFusedLoss:
    def setup_method(self):
        rng = np.random.default_rng(6)
        self.n = 8
        self.Pc = rand_similarity(rng, self.n)
        self.Pp = rand_similarity(rng, self.n)
        self.Z = rng.standard_normal((self.n, 3))

    def test_alpha_zero_drops_structure_term(self):
        terms, _ = fused_loss(self.Pc, self.Pp, self.Z, 1.0, 0.0, BregmanKind.SED)
        assert terms.total == terms.feature_term
        assert terms.alpha == 0.0

    def test_equal_inputs_collapse_to_single_term(self):
        terms, _ = fused_loss(self.Pc, self.Pc, self.Z, 1.0, 0.7, BregmanKind.SED)
        assert terms.total == pytest.approx((1 + 0.7) * terms.feature_term, rel=1e-12)

    def test_total_combines_terms(self):
        for kind in BregmanKind:
            terms, _ = fused_loss(self.Pc, self.Pp, self.Z, 1.0, 0.3, kind)
            assert terms.total == pytest.approx(
                terms.feature_term + 0.3 * terms.structure_term, rel=1e-12
            )

    def test_batch_restriction_matches_submatrix(self):
        batch = np.array([1, 3, 4, 6])
        terms, grad = fused_loss(self.Pc, self.Pp, self.Z[batch], 1.0, 0.5, BregmanKind.SED, batch)
        sub = np.ix_(batch, batch)
        sub_terms, sub_grad = fused_loss(
            self.Pc[sub], self.Pp[sub], self.Z[batch], 1.0, 0.5, BregmanKind.SED
        )
        assert terms.total == pytest.approx(sub_terms.total, rel=1e-12)
        assert np.allclose(grad, sub_grad, atol=1e-12)

    def test_batch_too_small(self):
        with pytest.raises(ValueError):
            fused_loss(self.Pc, self.Pp, self.Z[[2]], 1.0, 0.5, BregmanKind.SED, np.array([2]))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        perm = rng.permutation(self.n)
        t1, g1 = fused_loss(self.Pc, self.Pp, self.Z, 1.0, 0.5, BregmanKind.LOGI)
        t2, g2 = fused_loss(
            self.Pc[np.ix_(perm, perm)],
            self.Pp[np.ix_(perm, perm)],
            self.Z[perm],
            1.0,
            0.5,
            BregmanKind.LOGI,
        )
        assert t1.total == pytest.approx(t2.total, rel=1e-12)
        assert np.allclose(g1[perm], g2, atol=1e-12)

    @pytest.mark.parametrize("kind", list(BregmanKind))
    def test_batch_order_changes_only_rounding(self, kind):
        # Z holds the batch rows in batch order; a permuted batch with its
        # rows permuted alike sums the same pairs in another order
        rng = np.random.default_rng(14)
        n = 300
        Pc, Pp = rand_similarity(rng, n), rand_similarity(rng, n)
        Z = rng.standard_normal((n, 4))
        batch = np.sort(rng.permutation(n)[:257])
        perm = rng.permutation(batch.size)
        t1, g1 = fused_loss(Pc, Pp, Z[batch], 1.0, 0.5, kind, batch)
        t2, g2 = fused_loss(Pc, Pp, Z[batch[perm]], 1.0, 0.5, kind, batch[perm])
        assert (t2.feature_term, t2.structure_term, t2.total) == pytest.approx(
            (t1.feature_term, t1.structure_term, t1.total), rel=1e-12, abs=0.0
        )
        assert np.abs(g1[perm] - g2).max() <= 1e-12 * np.abs(g1).max()

    @pytest.mark.parametrize("batch", [None, np.array([1, 3, 4, 6])])
    def test_embedding_of_another_row_count_rejected(self, batch):
        m = self.n if batch is None else batch.size
        for rows in (m - 1, m + 1):
            Z = np.zeros((rows, 3))
            with pytest.raises(ValueError, match=f"embedding has {rows} rows but the batch has {m} nodes"):
                fused_loss(self.Pc, self.Pp, Z, 1.0, 0.5, BregmanKind.LOGI, batch)

    @pytest.mark.parametrize("kind", list(BregmanKind))
    def test_gradient_matches_finite_differences(self, kind):
        rng = np.random.default_rng(8)
        n = 6
        Pc, Pp = rand_similarity(rng, n), rand_similarity(rng, n)
        Z = rng.standard_normal((n, 3))
        batch = np.array([0, 2, 3, 5])
        assert finite_difference_error(Pc, Pp, Z, 1.0, kind, batch) <= 1e-4

    @pytest.mark.parametrize("nu", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("kind", list(BregmanKind))
    def test_gradient_with_coincident_rows_matches_finite_differences(self, kind, nu):
        # the kernel is smooth in the squared distance, so the loss is
        # differentiable where two batch rows coincide
        rng = np.random.default_rng(12)
        n = 7
        Pc, Pp = rand_similarity(rng, n), rand_similarity(rng, n)
        Z = rng.standard_normal((n, 3))
        Z[4] = Z[1]
        batch = np.array([0, 1, 3, 4, 6])
        assert finite_difference_error(Pc, Pp, Z, nu, kind, batch) <= 1e-8

    @pytest.mark.parametrize("kind", list(BregmanKind))
    def test_peak_memory_below_two_batch_squares(self, kind):
        # one (m, m) coefficient matrix plus blocks of about 32k pairs
        m = 1024
        rng = np.random.default_rng(13)
        P = rand_similarity(rng, m)
        Z = rng.standard_normal((m, 8))
        tracemalloc.start()
        try:
            fused_loss(P, P, Z, 1.0, 0.5, kind)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * m * m * 8

    @pytest.mark.parametrize("pair", [(1, 2), (18, 17)])
    def test_asymmetric_similarity_rejected(self, pair, monkeypatch):
        # blocks of 64 pairs over 20 rows: rows 0-2 and 16-19 have squares of their own
        monkeypatch.setattr(losses, "_BLOCK", 64)
        rng = np.random.default_rng(11)
        P = rand_similarity(rng, 20)
        Z = rng.standard_normal((20, 3))
        conditional = P.copy()
        conditional[pair] += 0.125
        for Pc, Pp in ((conditional, P), (P, conditional)):
            with pytest.raises(ValueError, match="not symmetric"):
                fused_loss(Pc, Pp, Z, 1.0, 0.5, BregmanKind.LOGI)

    def test_coincident_rows_finite_gradient(self):
        Z = self.Z.copy()
        Z[1] = Z[0]  # exact duplicate rows
        for kind in BregmanKind:
            terms, grad = fused_loss(self.Pc, self.Pp, Z, 1.0, 0.5, kind)
            assert np.isfinite(terms.total)
            assert np.isfinite(grad).all()


# Frozen copy of the whole-array loss that the row-block loop replaced.  The
# blocked code works on squared distances, takes a Gram product per block and
# sums the divergence terms per block, so it matches this copy to rounding:
# values to 1e-12 relative and gradients to 1e-12 of their largest entry.  The
# tests keep the "bit_for_bit" names they had when the two gave the same bits.


def _oracle_latent_kernel(Z, nu):
    sq = np.sum(Z * Z, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (Z @ Z.T)
    np.clip(d2, 0.0, None, out=d2)
    d = np.sqrt(d2)
    d = (d + d.T) / 2.0
    np.fill_diagonal(d, 0.0)
    k = latent_kernel_oracle(d, nu)
    np.fill_diagonal(k, 0.0)
    return d, k, 2.0 * k - 2.0 * k * k


def _oracle_value_and_dq(P, Q, kind, mask, eps=LOGI_EPS):
    M = mask.sum()
    if kind == BregmanKind.SED:
        diff = np.where(mask, Q - P, 0.0)
        return float(np.sum(diff * diff) / M), 2.0 * diff / M
    q_tilde = np.clip(Q, eps, 1.0 - eps)
    with np.errstate(divide="ignore", invalid="ignore"):
        term_a = np.where(P > 0, P * np.log(P / q_tilde), 0.0)
        term_b = np.where(P < 1, (1.0 - P) * np.log((1.0 - P) / (1.0 - q_tilde)), 0.0)
    value = float(np.sum(np.where(mask, term_a + term_b, 0.0)) / M)
    inside = mask & (Q > eps) & (Q < 1.0 - eps)
    grad = np.where(inside, (-P / q_tilde + (1.0 - P) / (1.0 - q_tilde)) / M, 0.0)
    return value, grad


def _oracle_fused_loss(Pc_full, Pp_full, Z, nu, alpha, kind, batch, eps=LOGI_EPS):
    Pc = Pc_full[np.ix_(batch, batch)]
    Pp = Pp_full[np.ix_(batch, batch)]
    Zb = Z[batch]
    d, k, Q = _oracle_latent_kernel(Zb, nu)
    mask = ~np.eye(batch.size, dtype=bool)
    feat, g_feat = _oracle_value_and_dq(Pc, Q, kind, mask, eps)
    struct, g_struct = _oracle_value_and_dq(Pp, Q, kind, mask, eps)
    g_q = g_feat + alpha * g_struct
    g_k = g_q * (2.0 - 4.0 * k)
    dk_dd = -k * (nu + 1.0) * d / (nu + d * d)
    g_d = g_k * dk_dd
    with np.errstate(divide="ignore", invalid="ignore"):
        coef = np.where(d > 0, 2.0 * g_d / d, 0.0)
    grad = coef.sum(axis=1)[:, None] * Zb - coef @ Zb
    # for a tolerance only: |coef| of the coincident pairs that the mask zeroes
    coincident = np.where(d > 0, 0.0, np.abs(2.0 * g_k * k * (nu + 1.0) / nu))
    return (feat, struct, feat + alpha * struct), grad, coincident


def _edge_case_inputs(rng, n, m):
    """Similarities with exact 0s and 1s, and an embedding whose batch has
    coincident rows and rows far enough apart that Q falls below the clamp."""
    Pc, Pp = rand_similarity(rng, n), rand_similarity(rng, n)
    for P in (Pc, Pp):
        # drawn on the upper triangle and mirrored: the loss needs symmetric P
        for value, share in ((0.0, 0.15), (1.0, 0.05)):
            mask = np.triu(rng.random((n, n)) < share, 1)
            P[mask | mask.T] = value
    Z = rng.standard_normal((n, 3))
    batch = rng.permutation(n)[:m]
    if m >= 3:
        # integer entries keep the Gram arithmetic exact, so d is exactly 0
        Z[batch[0]] = Z[batch[1]] = (1.0, 2.0, -1.0)
        Z[batch[2]] *= 1e5
    return Pc, Pp, Z, batch


def assert_matches_oracle(got, Pc, Pp, Z, nu, alpha, kind, batch):
    """``got``, the ``fused_loss`` result on these inputs, matches the frozen
    copy: values to 1e-12 relative, gradients to 1e-12 of their largest entry.

    A gradient row sums ``c_ij (z_i - z_j)`` as ``sum_j c_ij z_i - sum_j c_ij z_j``,
    so a pair of coincident rows, whose coefficient the frozen copy sets to
    0, leaves rounding of the size of ``|c_ij| |z|``.  The gradient bound is
    therefore at least 1e-12 of the largest such pair term; that only binds
    when every other pair's pull is far smaller, as with one far-away row.
    """
    terms, grad = got
    want_terms, want_grad, coincident = _oracle_fused_loss(Pc, Pp, Z, nu, alpha, kind, batch)
    assert (terms.feature_term, terms.structure_term, terms.total) == pytest.approx(
        want_terms, rel=1e-12, abs=0.0
    )
    scale = max(np.abs(want_grad).max(), (coincident * np.abs(Z[batch]).max(axis=1)).max())
    assert np.abs(grad - want_grad).max() <= 1e-12 * scale


def _assert_fused_matches_oracle(Pc, Pp, Z, batch, kind, alpha, nu=1.0):
    got = fused_loss(Pc, Pp, Z[batch], nu, alpha, kind, batch)
    assert_matches_oracle(got, Pc, Pp, Z, nu, alpha, kind, batch)


class TestRowBlocksMatchWholeArrays:
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("kind", list(BregmanKind))
    @pytest.mark.parametrize("m", [2, 3, 255, 256, 257, 600])
    def test_fused_loss_bit_for_bit(self, m, kind, alpha):
        # trapezoids of about 32k pairs: 256 rows take 128 + 128, 257 rows
        # 127 + 130, 600 rows seven blocks from 54 rows up to the last 112
        Pc, Pp, Z, batch = _edge_case_inputs(np.random.default_rng(m), m + 5, m)
        _assert_fused_matches_oracle(Pc, Pp, Z, batch, kind, alpha)

    @pytest.mark.parametrize("kind", list(BregmanKind))
    @pytest.mark.parametrize("m", [2, 3, 7, 8, 9, 20])
    def test_small_blocks_bit_for_bit(self, m, kind, monkeypatch):
        # blocks of 64 pairs: 8 rows fill one block, 9 rows take 7 + 2, 20 rows 3, 3, 4, 6, 4
        monkeypatch.setattr(losses, "_BLOCK", 64)
        Pc, Pp, Z, batch = _edge_case_inputs(np.random.default_rng(100 + m), m + 3, m)
        for alpha in (0.0, 0.5, 1.0):
            # nu + 1 = 3.5 is no power of two, so products in another order round differently
            _assert_fused_matches_oracle(Pc, Pp, Z, batch, kind, alpha, nu=2.5)

    def test_edge_cases_are_reached(self):
        Pc, Pp, Z, batch = _edge_case_inputs(np.random.default_rng(257), 262, 257)
        d, _, Q = _oracle_latent_kernel(Z[batch], 1.0)
        off = ~np.eye(batch.size, dtype=bool)
        P = Pc[np.ix_(batch, batch)][off]
        assert (P == 0).any() and (P == 1).any()
        assert (Q[off] < LOGI_EPS).any()
        assert d[0, 1] == 0.0  # coincident rows

    def test_whole_node_set_when_batch_is_none(self):
        rng = np.random.default_rng(9)
        Pc, Pp = rand_similarity(rng, 300), rand_similarity(rng, 300)
        Z = rng.standard_normal((300, 4))
        got = fused_loss(Pc, Pp, Z, 1.0, 0.5, BregmanKind.LOGI)
        assert_matches_oracle(got, Pc, Pp, Z, 1.0, 0.5, BregmanKind.LOGI, np.arange(300))

    @pytest.mark.parametrize("kind", list(BregmanKind))
    @pytest.mark.parametrize("n", [2, 9, 300])
    def test_divergences_bit_for_bit(self, n, kind, monkeypatch):
        if n == 9:
            monkeypatch.setattr(losses, "_BLOCK", 64)
        rng = np.random.default_rng(n)
        P, Q = rand_similarity(rng, n), rand_similarity(rng, n)
        P[rng.random((n, n)) < 0.2] = 0.0
        P[rng.random((n, n)) < 0.1] = 1.0
        Q[rng.random((n, n)) < 0.1] = 0.0
        Q[rng.random((n, n)) < 0.1] = 1.0
        np.fill_diagonal(P, 0.3)  # the diagonal must not count
        np.fill_diagonal(Q, 0.6)
        want = _oracle_value_and_dq(P, Q, kind, ~np.eye(n, dtype=bool))[0]
        assert losses._divergence(P, Q, kind) == want
        if kind == BregmanKind.SED:
            assert bregman_sed(P, Q) == want
        if kind == BregmanKind.LOGI:
            assert bregman_logistic(P, Q) == want

    @pytest.mark.parametrize("n", [2, 9, 300])
    def test_latent_similarity_bit_for_bit(self, n, monkeypatch):
        if n == 9:
            monkeypatch.setattr(losses, "_BLOCK", 64)
        Z = np.random.default_rng(n).standard_normal((n, 5))
        Z[1] = Z[0]
        want = _oracle_latent_kernel(Z, 1.0)[2]
        got = latent_similarity(Z, 1.0)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert (np.diag(got) == 0.0).all()

    def test_non_finite_embedding_rejected(self):
        rng = np.random.default_rng(10)
        P = rand_similarity(rng, 4)
        Z = rng.standard_normal((4, 2))
        Z[2, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            fused_loss(P, P, Z, 1.0, 0.5, BregmanKind.LOGI)


def _cora_like(seed):
    """The benchmark's Cora-shaped graph, from ``bench/graphs.py``."""
    path = Path(__file__).resolve().parents[1] / "bench" / "graphs.py"
    spec = importlib.util.spec_from_file_location("bench_graphs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.cora_like(seed)


@pytest.fixture(scope="class")
def cora_batches(tmp_path_factory):
    """``cora_like(1)``'s two similarity matrices and float32 batch rows of
    the ``paper_clustering`` network, at init and after 4 epochs."""
    g = _cora_like(1)
    cfg = TrainConfig.from_dict({**PRESETS["paper_clustering"], "epochs": 4, "seed": 0})
    cache = str(tmp_path_factory.mktemp("cache"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CalibrationWarning)
        trained = train(g, cfg, cache).params
        pc, pp = precompute(g, cfg, cache)
    N = training._aggregation_operator(g.n, g.edge_array(), trained.specs)
    batches = training._batches(np.random.default_rng(0).permutation(g.n), 1024)
    rows = []
    for params in (init_network(trained.specs, 0), trained):
        params = training._cast(params, np.float32)
        rows += [(np.sort(b), forward(g.features, N, params, None, np.sort(b))) for b in batches]
    return pc.matrix, pp.matrix, cfg, rows


class TestSinglePrecisionLoss:
    """``fused_loss`` computes in the dtype of the batch rows."""

    def setup_method(self):
        rng = np.random.default_rng(12)
        self.Pc, self.Pp = rand_similarity(rng, 40), rand_similarity(rng, 40)
        self.Z = rng.standard_normal((40, 3))

    @pytest.mark.parametrize("kind", list(BregmanKind))
    def test_float32_rows_give_a_float32_gradient(self, kind):
        terms, grad = fused_loss(self.Pc, self.Pp, self.Z.astype(np.float32), 1.0, 0.5, kind)
        assert grad.dtype == np.float32
        assert all(type(t) is float for t in (terms.feature_term, terms.structure_term, terms.total))

    @pytest.mark.parametrize("kind", list(BregmanKind))
    def test_float32_matrices_give_their_float64_widening(self, kind):
        # the blocks are cast, not the matrices, and widening is exact
        Pc32, Pp32 = self.Pc.astype(np.float32), self.Pp.astype(np.float32)
        got = fused_loss(Pc32, Pp32, self.Z, 1.0, 0.5, kind)
        want = fused_loss(Pc32.astype(np.float64), Pp32.astype(np.float64), self.Z, 1.0, 0.5, kind)
        assert got[0] == want[0]
        assert got[1].dtype == np.float64 and got[1].tobytes() == want[1].tobytes()
        Q = latent_similarity(self.Z, 1.0)
        divergence = bregman_sed if kind == BregmanKind.SED else bregman_logistic
        assert divergence(Pc32, Q.astype(np.float32)) == divergence(
            Pc32.astype(np.float64), Q.astype(np.float32).astype(np.float64)
        )

    @pytest.mark.parametrize("kind", list(BregmanKind))
    def test_agrees_with_the_float64_call_on_the_bench_graph(self, kind, cora_batches):
        Pc, Pp, cfg, rows = cora_batches
        for batch, Zb in rows:
            assert Zb.dtype == np.float32
            terms, grad = fused_loss(Pc, Pp, Zb, cfg.nu_latent, cfg.alpha, kind, batch)
            want_terms, want_grad = fused_loss(
                Pc, Pp, Zb.astype(np.float64), cfg.nu_latent, cfg.alpha, kind, batch
            )
            for got, want in zip(
                (terms.feature_term, terms.structure_term, terms.total),
                (want_terms.feature_term, want_terms.structure_term, want_terms.total),
                strict=True,
            ):
                assert got == pytest.approx(want, rel=1e-6, abs=0.0)
            assert np.abs(grad - want_grad).max() <= 1e-5 * np.abs(want_grad).max()

    @pytest.mark.parametrize("kind", list(BregmanKind))
    def test_float32_subnormal_similarities_count_as_zero(self, kind, monkeypatch):
        P = self.Pc.copy()
        subnormal = np.triu(np.random.default_rng(3).random(P.shape) < 0.3, 1)
        subnormal |= subnormal.T
        P[subnormal] = 1e-40  # subnormal in float32, normal in float64
        zeroed = np.where(subnormal, 0.0, P)
        Z = self.Z.astype(np.float32)
        blocks = []
        real = losses._terms_and_dq

        def spy(P, *args):
            blocks.append(P)
            return real(P, *args)

        monkeypatch.setattr(losses, "_terms_and_dq", spy)
        got = fused_loss(P, self.Pp, Z, 1.0, 0.5, kind)
        want = fused_loss(zeroed, self.Pp, Z, 1.0, 0.5, kind)
        assert got[0] == want[0] and got[1].tobytes() == want[1].tobytes()
        # the flush is for speed: no block the loss computes on holds a subnormal
        tiny = np.finfo(np.float32).tiny
        assert all(b.dtype == np.float32 and not ((b != 0) & (np.abs(b) < tiny)).any() for b in blocks)

    def test_narrowing_flushes_only_subnormals(self):
        P = np.array([[0.0, 1e-40, -1e-40, 2e-38, -0.25, np.nan, 1.0]])
        got = losses._narrow(P, np.float32)
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, np.float32([[0.0, 0.0, 0.0, 2e-38, -0.25, np.nan, 1.0]]))
        assert losses._narrow(P, np.float64).tobytes() == P.tobytes()

    @pytest.mark.parametrize("kind", list(BregmanKind))
    def test_block_sums_are_float64(self, kind):
        # coincident rows and a constant P give every pair one float32 term,
        # and a float64 sum of 600 * 599 copies of it is exact
        P = np.full((600, 600), 0.3)
        terms = fused_loss(P, P, np.zeros((600, 3), np.float32), 1.0, 0.5, kind)[0]
        pair = fused_loss(P[:2, :2], P[:2, :2], np.zeros((2, 3), np.float32), 1.0, 0.5, kind)[0]
        assert terms.feature_term == pair.feature_term

    @pytest.mark.parametrize("kind", list(BregmanKind))
    def test_nan_in_p_gives_a_nan_loss(self, kind, monkeypatch):
        # one row per block: pair (0, 1) lies right of row 0's square
        monkeypatch.setattr(losses, "_BLOCK", 1)
        P = self.Pc.copy()
        P[0, 1] = P[1, 0] = np.nan
        terms, _ = fused_loss(P, self.Pp, self.Z.astype(np.float32), 1.0, 0.5, kind)
        assert math.isnan(terms.feature_term) and math.isnan(terms.total)

    @pytest.mark.parametrize("kind", list(BregmanKind))
    def test_asymmetric_or_nan_square_raises(self, kind):
        Z = self.Z.astype(np.float32)
        P = self.Pp.copy()
        P[2, 3] = P[3, 2] = np.nan
        with pytest.raises(ValueError, match="P_prior holds NaN"):
            fused_loss(self.Pc, P, Z, 1.0, 0.5, kind)
        # a difference that float32 cannot hold is still an asymmetry
        P = self.Pc.copy()
        P[2, 3] += 1e-12
        with pytest.raises(ValueError, match="P_complete is not symmetric"):
            fused_loss(P, self.Pp, Z, 1.0, 0.5, kind)

    @pytest.mark.parametrize("node", [-1, 40])
    def test_batch_outside_the_matrices_rejected(self, node):
        batch = np.array([0, 5, node])
        with pytest.raises(IndexError, match="outside 0..39"):
            fused_loss(self.Pc, self.Pp, self.Z[:3], 1.0, 0.5, BregmanKind.LOGI, batch)


class TestFloat32StoredSimilarities:
    """``precompute`` stores each similarity as ``_narrow(P, float32)``.

    Float32 rows read those blocks as they are, and read a float64 P's
    blocks narrowed the same way, so the training bytes do not depend on
    which of the two the loss gets.
    """

    @staticmethod
    def inputs(m, seed):
        Pc, Pp, Z, batch = _edge_case_inputs(np.random.default_rng(seed), m + 5, m)
        rng = np.random.default_rng(seed + 1)
        tiny = float(np.finfo(np.float32).tiny)
        for P in (Pc, Pp):
            # float32 subnormals, and values either side of float32's smallest
            # normal that round to it
            for value in (1e-40, -1e-42, tiny * (1 - 1e-9), tiny * (1 + 1e-9), tiny / 4):
                mask = np.triu(rng.random(P.shape) < 0.03, 1)
                P[mask | mask.T] = value
        return Pc, Pp, Z.astype(np.float32), batch

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("kind", list(BregmanKind))
    @pytest.mark.parametrize("m, block", [(2, None), (9, 64), (20, 64), (255, None), (256, None), (257, None)])
    def test_narrowed_matrices_give_the_float64_bytes(self, m, block, kind, alpha, monkeypatch):
        # blocks of 64 pairs: 9 rows take 7 + 2, 20 rows 3, 3, 4, 6, 4; blocks
        # of 32k pairs: 256 rows take 128 + 128, 257 rows 127 + 130
        if block is not None:
            monkeypatch.setattr(losses, "_BLOCK", block)
        Pc, Pp, Z, batch = self.inputs(m, m)
        narrow = [losses._narrow(P, np.float32) for P in (Pc, Pp)]
        assert all(P.dtype == np.float32 for P in narrow)
        tiny = np.finfo(np.float32).tiny
        assert not any(((P != 0) & (np.abs(P) < tiny)).any() for P in narrow)
        got = fused_loss(*narrow, Z[batch], 1.0, alpha, kind, batch)
        want = fused_loss(Pc, Pp, Z[batch], 1.0, alpha, kind, batch)
        assert got[0] == want[0]
        assert got[1].dtype == np.float32 and got[1].tobytes() == want[1].tobytes()

    def test_float32_blocks_are_not_cast(self, monkeypatch):
        Pc, Pp, Z, batch = self.inputs(40, 3)
        narrow = [losses._narrow(P, np.float32) for P in (Pc, Pp)]
        calls = []
        real = losses._narrow

        def spy(P, dtype):
            calls.append(P.dtype)
            return real(P, dtype)

        monkeypatch.setattr(losses, "_narrow", spy)
        fused_loss(*narrow, Z[batch], 1.0, 0.5, BregmanKind.LOGI, batch)
        assert calls == []
        fused_loss(Pc, Pp, Z[batch], 1.0, 0.5, BregmanKind.LOGI, batch)
        assert calls and set(calls) == {np.dtype(np.float64)}
