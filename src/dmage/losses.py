"""Bregman divergences, latent-space similarity, and the fused objective.

The objective compares two input similarity matrices (complete-graph and
priori-graph geodesic similarities) against the similarity of the latent
embedding, each restricted to a minibatch.  Divergences average over ordered
off-diagonal pairs so the balance parameter alpha is batch-size independent.
``fused_loss`` also returns the exact analytic gradient with respect to the
batch rows of the embedding.  There are two divergences (``BregmanKind``):
the squared difference ``sed`` and the logistic ``logi``; a run uses one of
them for both terms.

Every divergence, and ``fused_loss`` with its gradient, runs as one loop over
row blocks of about 32k pairs (``_BLOCK``).  The loss takes some forty
elementwise passes; on a block they read buffers that stay in cache, where
on whole (m, m) arrays each pass streams from memory.  Each element goes
through the same floating-point operations in the same order as the
whole-array expressions, and the reductions whose result depends on how they
are split stay on full arrays: the two divergence sums (numpy's pairwise
summation over each (m, m) term array), the row sums of the gradient
coefficients and ``coef @ Z`` (BLAS blocking).  Values and gradients are
therefore bit-identical to the unblocked computation.

``fused_loss`` computes each unordered pair once.  Its blocks are trapezoids,
rows ``a:b`` and columns ``a:m`` of the batch, so pair (i, j) with i <= j is
computed in the block that holds row i.  The diagonal square ``[a:b, a:b]``
is computed in full; the part right of it is copied, transposed, into rows
``b:m``, columns ``a:b``.  The copy is exact because every per-pair
value is symmetric bit for bit: the latent distance averages ``gram[i, j]``
and ``gram[j, i]`` in an order-free sum, and every later operation is
elementwise on ``(P[i, j], Q[i, j])``.  That needs both input matrices to be
exactly symmetric.  Every joint :class:`SimilarityMatrix` is (``symmetrize``
computes ``a + b - 2ab``, the same bits in either order), and so is the 0/1
adjacency of ``hard_similarity``.  The gradient needed it before the mirror
too: it doubles each ordered pair's coefficient, which is the true gradient
only when dL/dQ_ij = dL/dQ_ji.  The divergences themselves accept asymmetric
matrices and compute every ordered pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .distances import _diagonal, _euclidean_rows, _feature_rows, _gram, _row_blocks
from .similarity import SimilarityMatrix, t_kernel

__all__ = [
    "BregmanKind",
    "LossTerms",
    "LOGI_EPS",
    "bregman_sed",
    "bregman_logistic",
    "fused_loss",
]

# the logistic divergence clamps q into [LOGI_EPS, 1 - LOGI_EPS]
LOGI_EPS = 1e-7
# pairs per row block of the batch: a block's buffers stay in cache
_BLOCK = 1 << 15


class BregmanKind(str, Enum):
    SED = "sed"
    LOGI = "logi"


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


def _divergence(P, Q, kind: BregmanKind) -> float:
    p, q = _as_matrix(P), _as_matrix(Q)
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {q.shape}")
    kind = BregmanKind(kind)
    n = p.shape[0]
    M = n * n - n
    terms = np.empty((n, n))
    for rows in _row_blocks(n, n, _BLOCK):
        Qb = q[rows]
        _terms_and_dq(p[rows], Qb, _q_side(Qb, kind), kind, M, rows, terms[rows])
    return float(np.sum(terms) / M)


def bregman_sed(P, Q) -> float:
    """Squared-distance divergence: mean over off-diagonal pairs of (p - q)^2."""
    return _divergence(P, Q, BregmanKind.SED)


def bregman_logistic(P, Q) -> float:
    """Logistic divergence: mean of p log(p/q) + (1-p) log((1-p)/(1-q)).

    ``q`` is clamped into [LOGI_EPS, 1-LOGI_EPS]; terms with p in {0, 1}
    follow the convention 0 log 0 = 0.
    """
    return _divergence(P, Q, BregmanKind.LOGI)


def _latent_rows(sq, gram, rows: slice, nu_latent: float, start: int = 0):
    """Distances ``d``, kernel ``k`` and joint similarity ``Q`` of the latent block ``[rows, start:]``.

    In latent space the normalization is fixed (shift 0, bandwidth 1), so the
    conditional matrix ``k`` is already symmetric and the joint form reduces
    to ``Q = 2k - 2k^2`` per pair.  ``k`` and ``Q`` have zero diagonals.
    """
    d = _euclidean_rows(sq, gram, rows, start)
    k = t_kernel(d, nu_latent)
    k[_diagonal(rows, start)] = 0.0
    two_k = 2.0 * k
    return d, k, np.subtract(two_k, two_k * k, out=two_k)


def _q_side(Q, kind: BregmanKind):
    """What the logistic divergence needs of a Q block, shared by every P.

    The clamped ``q`` and ``1 - q``, and where the clamp is not flat.
    """
    if kind == BregmanKind.SED:
        return None
    q_tilde = np.clip(Q, LOGI_EPS, 1.0 - LOGI_EPS)
    return q_tilde, 1.0 - q_tilde, (Q > LOGI_EPS) & (Q < 1.0 - LOGI_EPS)


def _terms_and_dq(P, Q, q_side, kind: BregmanKind, M: int, rows: slice, terms, start: int = 0):
    """One divergence on the block ``[rows, start:]``: terms into ``terms``, returns dLoss/dQ.

    ``P``, ``Q`` and ``terms`` hold the block.  Divergences average over the
    ``M`` off-diagonal pairs, so diagonal terms and gradients are zero.
    """
    diag = _diagonal(rows, start)
    if kind == BregmanKind.SED:
        diff = np.subtract(Q, P)
        diff[diag] = 0.0
        np.multiply(diff, diff, out=terms)
        diff *= 2.0
        diff /= M
        return diff
    q_tilde, one_minus_q, inside = q_side
    # -p/q~ == -(p/q~) and s - r == -r + s bit for bit, so the ratios
    # serve both the terms and the gradient
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = P / q_tilde
        one_minus_p = 1.0 - P
        ratio_c = one_minus_p / one_minus_q
        term_a = np.log(ratio)
        term_a *= P
        term_b = np.log(ratio_c)
        term_b *= one_minus_p
    # the convention 0 log 0 = 0 at p = 0 and at p = 1
    term_a[~(P > 0)] = 0.0
    term_b[~(P < 1)] = 0.0
    np.add(term_a, term_b, out=terms)
    terms[diag] = 0.0
    grad = np.subtract(ratio_c, ratio, out=ratio_c)
    grad /= M
    # the clamp is flat outside (LOGI_EPS, 1-LOGI_EPS), so the derivative is zero there
    grad[~inside] = 0.0
    grad[diag] = 0.0
    return grad


def _trapezoid_blocks(m: int, elements: int):
    """Row blocks ``a:b`` whose trapezoids ``[a:b, a:m]`` hold about ``elements`` pairs each."""
    a = 0
    while a < m:
        b = min(m, a + max(1, elements // (m - a)))
        yield slice(a, b)
        a = b


def fused_loss(
    P_complete,
    P_prior,
    Z,
    nu_latent: float,
    alpha: float,
    kind: BregmanKind = BregmanKind.LOGI,
    batch=None,
):
    """Two-term objective on a batch and its gradient w.r.t. the batch rows.

    Both input similarity matrices and the embedding are restricted to
    ``batch`` (all nodes when None); the latent similarity of the batch rows
    is compared to each.  Returns ``(LossTerms, dTotal/dZ_batch)``.

    Both input matrices must be exactly symmetric, as every joint
    :class:`SimilarityMatrix` is: each unordered pair is computed once, in
    the upper trapezoid of its row block, and mirrored (see the module
    docstring).  A ``ValueError`` is raised when the part of either matrix
    on a block's diagonal square, which is gathered in full, is not
    symmetric; that catches a conditional matrix passed by mistake.
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
    Zb = _feature_rows(Z[batch])
    m = batch.size
    M = m * m - m

    sq, gram = _gram(Zb)
    terms = np.empty((2, m, m))
    coef = np.empty((m, m))
    for rows in _trapezoid_blocks(m, _BLOCK):
        a, b = rows.start, rows.stop
        d, k, Q = _latent_rows(sq, gram, rows, nu_latent, a)
        q_side = _q_side(Q, kind)
        # the same as P[np.ix_(batch[rows], batch[a:])], gathered faster
        Pc, Pp = Pc_full[batch[rows]][:, batch[a:]], Pp_full[batch[rows]][:, batch[a:]]
        for P, name in ((Pc, "P_complete"), (Pp, "P_prior")):
            square = P[:, : b - a]
            if not np.array_equal(square, square.T):
                raise ValueError(f"{name} is not symmetric; the loss needs a joint similarity")
        g_q = _terms_and_dq(Pc, Q, q_side, kind, M, rows, terms[0, rows, a:], a)
        g_struct = _terms_and_dq(Pp, Q, q_side, kind, M, rows, terms[1, rows, a:], a)
        # In place, in the operand order of the whole-array expressions:
        # g_q = g_feat + alpha * g_struct
        g_struct *= alpha
        g_q += g_struct
        # chain: dL/dQ -> dQ/dk = 2 - 4k -> dk/dd = -k (nu + 1) d / (nu + d^2)
        work = 4.0 * k
        g_q *= np.subtract(2.0, work, out=work)
        dk_dd = np.negative(k, out=k)
        dk_dd *= nu_latent + 1.0
        dk_dd *= d
        dk_dd /= np.add(d * d, nu_latent, out=work)
        g_q *= dk_dd
        # dd_ij/dz_i = (z_i - z_j)/d_ij; zero subgradient at coincident rows.
        # Each unordered pair appears twice in the ordered sums, hence the 2.
        g_q *= 2.0
        block = coef[rows, a:]
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(g_q, d, out=block)
        block[~(d > 0)] = 0.0
        # the pairs right of the diagonal square, mirrored into the rows below it
        coef[b:, rows] = block[:, b - a :].T
        terms[:, b:, rows] = terms[:, rows, b:].swapaxes(1, 2)

    feat, struct = float(np.sum(terms[0]) / M), float(np.sum(terms[1]) / M)
    grad = coef.sum(axis=1)[:, None] * Zb - coef @ Zb
    return LossTerms(feat, struct, alpha, feat + alpha * struct), grad
