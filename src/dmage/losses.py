"""Bregman divergences, latent-space similarity, and the fused objective.

The objective compares two input similarity matrices (complete-graph and
priori-graph geodesic similarities) against the similarity of the latent
embedding, each restricted to a minibatch.  Divergences average over ordered
off-diagonal pairs so the balance parameter alpha is batch-size independent.
``fused_loss`` also returns the exact analytic gradient with respect to the
batch rows of the embedding.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .distances import pairwise_distance
from .similarity import SimilarityMatrix, t_kernel

__all__ = [
    "BregmanKind",
    "LossTerms",
    "LOGI_EPS",
    "bregman_sed",
    "bregman_logistic",
    "latent_similarity",
    "fused_loss",
]

LOGI_EPS = 1e-7


class BregmanKind(str, Enum):
    SED = "sed"
    LOGI = "logi"
    SED_PLUS_LOGI = "sed_plus_logi"


@dataclass(frozen=True)
class LossTerms:
    """Complete-graph ("feature") and priori-graph ("structure") terms."""

    feature_term: float
    structure_term: float
    alpha: float
    total: float


def _as_matrix(x) -> np.ndarray:
    m = x.matrix if isinstance(x, SimilarityMatrix) else np.asarray(x, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def _offdiag_mask(n: int) -> np.ndarray:
    return ~np.eye(n, dtype=bool)


def _divergence(P, Q, kind: BregmanKind, eps: float = LOGI_EPS) -> float:
    p, q = _as_matrix(P), _as_matrix(Q)
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {q.shape}")
    return _value_and_dq(p, q, kind, _offdiag_mask(p.shape[0]), eps)[0]


def bregman_sed(P, Q) -> float:
    """Squared-distance divergence: mean over off-diagonal pairs of (p - q)^2."""
    return _divergence(P, Q, BregmanKind.SED)


def bregman_logistic(P, Q, eps: float = LOGI_EPS) -> float:
    """Logistic divergence: mean of p log(p/q) + (1-p) log((1-p)/(1-q)).

    ``q`` is clamped into [eps, 1-eps]; terms with p in {0, 1} follow the
    convention 0 log 0 = 0.
    """
    return _divergence(P, Q, BregmanKind.LOGI, eps)


def _latent_kernel(Z, nu_latent: float):
    """Distances ``d``, kernel ``k`` and joint similarity ``Q`` of latent rows.

    In latent space the normalization is fixed (shift 0, bandwidth 1), so the
    conditional matrix ``k`` is already symmetric and the joint form reduces
    to ``Q = 2k - 2k^2`` per pair.  ``k`` and ``Q`` have zero diagonals.
    """
    d = pairwise_distance(Z, "euclidean")
    k = t_kernel(d, nu_latent)
    np.fill_diagonal(k, 0.0)
    return d, k, 2.0 * k - 2.0 * k * k


def latent_similarity(Z, nu_latent: float) -> SimilarityMatrix:
    """Joint similarity of latent rows: Euclidean distance through the kernel."""
    return SimilarityMatrix(_latent_kernel(np.asarray(Z, dtype=np.float64), nu_latent)[2], "joint")


def _value_and_dq(P, Q, kind: BregmanKind, mask, eps: float = LOGI_EPS):
    """One divergence over off-diagonal entries plus its dLoss/dQ matrix."""
    M = mask.sum()
    if kind == BregmanKind.SED:
        diff = np.where(mask, Q - P, 0.0)
        return float(np.sum(diff * diff) / M), 2.0 * diff / M
    if kind == BregmanKind.LOGI:
        q_tilde = np.clip(Q, eps, 1.0 - eps)
        with np.errstate(divide="ignore", invalid="ignore"):
            term_a = np.where(P > 0, P * np.log(P / q_tilde), 0.0)
            term_b = np.where(P < 1, (1.0 - P) * np.log((1.0 - P) / (1.0 - q_tilde)), 0.0)
        value = float(np.sum(np.where(mask, term_a + term_b, 0.0)) / M)
        # the clamp is flat outside (eps, 1-eps), so the derivative is zero there
        inside = mask & (Q > eps) & (Q < 1.0 - eps)
        grad = np.where(inside, (-P / q_tilde + (1.0 - P) / (1.0 - q_tilde)) / M, 0.0)
        return value, grad
    if kind == BregmanKind.SED_PLUS_LOGI:
        v1, g1 = _value_and_dq(P, Q, BregmanKind.SED, mask, eps)
        v2, g2 = _value_and_dq(P, Q, BregmanKind.LOGI, mask, eps)
        return v1 + v2, g1 + g2
    raise ValueError(f"unknown Bregman kind {kind!r}")


def fused_loss(
    P_complete,
    P_prior,
    Z,
    nu_latent: float,
    alpha: float,
    kind: BregmanKind = BregmanKind.LOGI,
    batch=None,
    eps: float = LOGI_EPS,
):
    """Two-term objective on a batch and its gradient w.r.t. the batch rows.

    Both input similarity matrices and the embedding are restricted to
    ``batch`` (all nodes when None); the latent similarity of the batch rows
    is compared to each.  Returns ``(LossTerms, dTotal/dZ_batch)``.
    """
    Pc_full, Pp_full = _as_matrix(P_complete), _as_matrix(P_prior)
    if Pc_full.shape != Pp_full.shape:
        raise ValueError(f"shape mismatch: {Pc_full.shape} vs {Pp_full.shape}")
    Z = np.asarray(Z, dtype=np.float64)
    if Z.shape[0] != Pc_full.shape[0]:
        raise ValueError(f"embedding has {Z.shape[0]} rows but similarities are {Pc_full.shape}")
    kind = BregmanKind(kind)

    if batch is None:
        batch = np.arange(Z.shape[0])
    batch = np.asarray(batch, dtype=np.int64)
    if batch.size < 2:
        raise ValueError("batch needs at least 2 nodes to form a pair")
    Pc = Pc_full[np.ix_(batch, batch)]
    Pp = Pp_full[np.ix_(batch, batch)]
    Zb = Z[batch]
    m = batch.size

    d, k, Q = _latent_kernel(Zb, nu_latent)

    mask = _offdiag_mask(m)
    feat, g_feat = _value_and_dq(Pc, Q, kind, mask, eps)
    struct, g_struct = _value_and_dq(Pp, Q, kind, mask, eps)
    terms = LossTerms(feat, struct, alpha, feat + alpha * struct)

    # chain: dL/dQ -> dQ/dk = 2 - 4k -> dk/dd -> dd/dZ
    g_q = g_feat + alpha * g_struct
    g_k = g_q * (2.0 - 4.0 * k)
    dk_dd = -k * (nu_latent + 1.0) * d / (nu_latent + d * d)
    g_d = g_k * dk_dd
    # dd_ij/dz_i = (z_i - z_j)/d_ij; zero subgradient at coincident rows.
    # Each unordered pair appears twice in the ordered sums, hence the 2.
    with np.errstate(divide="ignore", invalid="ignore"):
        coef = np.where(d > 0, 2.0 * g_d / d, 0.0)
    grad = coef.sum(axis=1)[:, None] * Zb - coef @ Zb
    return terms, grad
