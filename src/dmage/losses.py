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
row blocks of about 32k pairs (``_BLOCK``): the loss takes a few dozen
elementwise passes, and on a block they read buffers that stay in cache,
where on whole (m, m) arrays each pass streams from memory.  The divergences
keep the operation order of the whole-array expressions and sum their (n, n)
term array in one call, so their values are bit-identical to the unblocked
computation.

``fused_loss`` computes each unordered pair once.  Its blocks are trapezoids,
rows ``a:b`` and columns ``a:m`` of the batch, so pair (i, j) with i <= j is
computed in the block that holds row i.  Each block takes its own Gram
product of the batch rows, works on squared latent distances (the Student-t
kernel and its derivative need no square root), and sums its divergence
terms where it makes them: the diagonal square ``[a:b, a:b]`` holds both
orders of its pairs, and every pair right of it counts twice.  The gradient
coefficients of the part right of the square are copied, transposed, into
rows ``b:m``, columns ``a:b``; ``coef @ Zb`` needs the whole (m, m) matrix,
and it is the only one the loss holds.  A block's entries of both input
matrices are gathered by one flat index, without copying whole rows.

``fused_loss`` computes in the dtype of the batch rows: float32 rows, as
``train`` passes them, give float32 Gram products, kernel, Q, divergence
terms, coefficients and gradient; any other rows are float64.  The input
matrices are not copied.  A gathered block of a float32 matrix is read as
it is (widened for float64 rows): ``precompute`` stores every similarity in
float32 with its float32 subnormals already flushed to 0
(``similarity._narrow``), so under ``train`` the loss casts nothing.  A
block of a float64 matrix is cast, with every entry below the dtype's
smallest normal number flushed to 0 (``_narrow``): a subnormal operand
slows a multiply or divide over ten times, and a float32 block of
``P_complete`` can hold many of them.  A float32 matrix that holds
subnormals of its own is read with them, correct but slower.  The block
sums of the terms are float64 in either dtype.  The divergences compute in
float64 whatever their inputs' dtype.

What is exact: each pair's divergence term and dLoss/dQ are the same
elementwise operations, in the same order, as in ``bregman_sed`` and
``bregman_logistic`` (one kernel, ``_terms_and_dq``); the symmetry check on
the input matrices compares the bits of the gathered block before it is
cast; widening a float32 matrix is exact, so it gives the bytes of its
float64 copy; float32 rows read the same block from a float64 ``P`` as from
``_narrow(P, float32)``, so both give the same bytes; and a call gives the
same bits every time.  What is not: the
per-block Gram products and the per-block sums round otherwise than one
(m, m) product and one sum, so the float64 loss terms and gradient differ
from the older whole-array arithmetic (square roots, a division by the
distance, one term array per divergence) in the last bits: about 1e-16
relative for the terms, and 1e-15 of the largest entry for the gradient.
The logistic terms take 0 log 0 = 0 as the log of a ratio clamped below at
the smallest normal number, times its zero weight.  So float64 values are
those of the divergence with 0 log 0 set to 0 except where P is nonzero and
below that number (the flush zeroes it), and where P lies outside [0, 1],
the logistic divergence's domain, whose terms are finite but meaningless
rather than NaN.  Float32 rows give the float64 call's terms to about 1e-7
relative and its gradient to about 1e-6 of its largest entry (on the
benchmark's Cora-shaped graph, at init and after 4 epochs; the tests bound
them at 1e-6 and 1e-5).

The mirror needs both input matrices to be exactly symmetric.  Every joint
:class:`SimilarityMatrix` is (``symmetrize`` computes ``a + b - 2ab``, the
same bits in either order), and so is the 0/1 adjacency of
``hard_similarity``.  The gradient needs it too: it doubles each ordered
pair's coefficient, which is the true gradient only when dL/dQ_ij = dL/dQ_ji.
The divergences themselves accept asymmetric matrices and compute every
ordered pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .distances import _diagonal, _feature_rows, _row_blocks
from .similarity import SimilarityMatrix, _narrow, _t_kernel_of_squares

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
    """``x`` as a square float32 or float64 matrix; only another dtype is copied."""
    m = x.matrix if isinstance(x, SimilarityMatrix) else np.asarray(x)
    if m.dtype != np.float32:
        m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def _block(P, dtype):
    """A gathered block in the loss's ``dtype``: float32 read as it is, else narrowed."""
    if P.dtype == np.float32:
        return P.astype(dtype, copy=False)
    return _narrow(P, dtype)


def _divergence(P, Q, kind: BregmanKind) -> float:
    p, q = _as_matrix(P), _as_matrix(Q)
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {q.shape}")
    kind = BregmanKind(kind)
    n = p.shape[0]
    M = n * n - n
    terms = np.empty((n, n))
    for rows in _row_blocks(n, n, _BLOCK):
        Qb = np.asarray(q[rows], dtype=np.float64)
        Pb = _narrow(p[rows], np.float64)
        _terms_and_dq(Pb, Qb, _q_side(Qb, kind), kind, M, rows, terms[rows])
    return float(np.sum(terms) / M)


def bregman_sed(P, Q) -> float:
    """Squared-distance divergence: mean over off-diagonal pairs of (p - q)^2."""
    return _divergence(P, Q, BregmanKind.SED)


def bregman_logistic(P, Q) -> float:
    """Logistic divergence: mean of p log(p/q) + (1-p) log((1-p)/(1-q)).

    ``q`` is clamped into [LOGI_EPS, 1-LOGI_EPS]; terms with p in {0, 1}
    follow the convention 0 log 0 = 0.  A NaN in P makes the result NaN;
    P must lie in [0, 1], outside which the terms are not NaN but meaningless.
    The terms are computed in float64 whatever the dtype of P and Q, so a
    float32 matrix gives the value of its float64 widening.
    """
    return _divergence(P, Q, BregmanKind.LOGI)


def _latent_rows(Zb, sq, rows: slice, nu_latent: float, start: int = 0):
    """Squared distances ``d2``, kernel ``k`` and joint similarity ``Q`` of the latent block ``[rows, start:]``.

    ``Zb`` holds the batch rows and ``sq`` their squared norms.  The block
    takes its own Gram product, and ``d2 = max(|z_i|^2 + |z_j|^2 - 2 z_i.z_j, 0)``.
    In latent space the normalization is fixed (shift 0, bandwidth 1), so the
    conditional matrix ``k`` is already symmetric and the joint form reduces
    to ``Q = 2k - 2k^2`` per pair.  ``k`` and ``Q`` have zero diagonals.
    """
    # scaling by -2 is exact, so the product is -2 times the Gram block
    d2 = np.multiply(Zb[rows], -2.0) @ Zb[start:].T
    d2 += sq[rows, None]
    d2 += sq[None, start:]
    np.maximum(d2, 0.0, out=d2)
    k = _t_kernel_of_squares(d2, nu_latent, np.empty_like(d2))
    k[_diagonal(rows, start)] = 0.0
    two_k = 2.0 * k
    return d2, k, np.subtract(two_k, two_k * k, out=two_k)


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
    ratio = P / q_tilde
    one_minus_p = 1.0 - P
    ratio_c = one_minus_p / one_minus_q
    # the convention 0 log 0 = 0 at p = 0 and at p = 1: a zero ratio's log is
    # clamped to a finite value, which its zero weight turns into 0; a
    # multiply costs a fraction of a masked store on a block that is half
    # zeros, and a NaN in P stays NaN
    tiny = np.finfo(P.dtype).tiny
    term_a = np.maximum(ratio, tiny)
    np.log(term_a, out=term_a)
    term_a *= P
    term_b = np.maximum(ratio_c, tiny)
    np.log(term_b, out=term_b)
    term_b *= one_minus_p
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


def _pair_sum(terms, width: int):
    """Sum over ordered pairs of a trapezoid block whose diagonal square is ``width`` wide.

    The square holds both orders of its pairs; each pair right of it stands
    for itself and its mirror.
    """
    square = np.sum(terms[:, :width], dtype=np.float64)
    return square + 2.0 * np.sum(terms[:, width:], dtype=np.float64)


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

    ``Z`` holds the embedding rows of ``batch`` in batch order (every node
    when ``batch`` is None), as ``forward(..., rows=batch)`` returns them;
    another row count raises ``ValueError``.  The latent similarity of
    those rows is compared to both input similarity matrices restricted to
    ``batch``.  Returns ``(LossTerms, dTotal/dZ)``, whose rows follow ``Z``.
    The order of ``batch`` moves the result only in the last bits.

    Both input matrices must be exactly symmetric, as every joint
    :class:`SimilarityMatrix` is: each unordered pair is computed once, in
    the upper trapezoid of its row block, and mirrored (see the module
    docstring).  A ``ValueError`` is raised when the part of either matrix
    on a block's diagonal square, which is gathered in full, is not
    symmetric; that catches a conditional matrix passed by mistake.  When
    the square differs from its transpose only by holding NaN, the error
    says so; a NaN elsewhere makes the loss NaN.

    ``batch`` holds node ids of the matrices; an id outside them raises
    ``IndexError``.

    The loss computes in the dtype of ``Z``: float32 rows give a float32
    gradient, and any other rows are taken as float64 and give a float64
    one.  The terms are Python floats, summed in float64 either way.  The
    input matrices are not copied.  A block of a float32 matrix is read as
    it is; a block of any other is cast to the loss's dtype with the entries
    below its smallest normal number set to 0 (a NaN stays NaN), so a
    float64 matrix and its float32 copy narrowed that way give float32 rows
    the same bytes.  Float32 rows match the float64 call on the same values to
    about 1e-7 relative in the terms and 1e-6 of the largest entry in the
    gradient (see the module docstring).

    The result is deterministic.  Each pair's term is computed as in the
    divergences, but the terms are summed per block and the kernel is taken
    on squared distances from per-block Gram products, so values and
    gradient agree with older versions to rounding, not bit for bit.
    Memory beyond the inputs is one (m, m) coefficient matrix, in the dtype
    of ``Z``, plus a block's buffers.
    """
    Pc_full, Pp_full = _as_matrix(P_complete), _as_matrix(P_prior)
    if Pc_full.shape != Pp_full.shape:
        raise ValueError(f"shape mismatch: {Pc_full.shape} vs {Pp_full.shape}")
    kind = BregmanKind(kind)
    n = Pc_full.shape[0]
    batch = np.arange(n) if batch is None else np.asarray(batch, dtype=np.int64)
    if batch.size < 2:
        raise ValueError("batch needs at least 2 nodes to form a pair")
    if batch.min() < 0 or batch.max() >= n:
        raise IndexError(f"batch holds node ids outside 0..{n - 1}")
    Z = np.asarray(Z)
    Zb = _feature_rows(Z, np.float32 if Z.dtype == np.float32 else np.float64)
    m = batch.size
    if Zb.shape[0] != m:
        raise ValueError(f"embedding has {Zb.shape[0]} rows but the batch has {m} nodes")
    M = m * m - m

    sq = np.sum(Zb * Zb, axis=1)
    coef = np.empty((m, m), Zb.dtype)
    feat = struct = 0.0
    # chain rule on the squared distance s: dQ/dk = 2 - 4k,
    # dk/ds = -k (nu + 1) / (2 (nu + s)) and ds/dz_i = 2 (z_i - z_j), and each
    # unordered pair appears twice in the ordered sums; so the coefficient of
    # z_i - z_j is g_q (2 - 4k) k c / (nu + s).  It is finite at s = 0, where
    # coincident rows add c_ij (z_i - z_j) = 0.
    c = -2.0 * (nu_latent + 1.0)
    for rows in _trapezoid_blocks(m, _BLOCK):
        a, b = rows.start, rows.stop
        d2, k, Q = _latent_rows(Zb, sq, rows, nu_latent, a)
        q_side = _q_side(Q, kind)
        # P[np.ix_(batch[rows], batch[a:])] of both matrices, by one flat index
        flat = batch[rows, None] * n + batch[a:]
        Pc, Pp = Pc_full.take(flat), Pp_full.take(flat)
        for P, name in ((Pc, "P_complete"), (Pp, "P_prior")):
            square = P[:, : b - a]
            if not np.array_equal(square, square.T):
                if np.array_equal(square, square.T, equal_nan=True):
                    raise ValueError(f"{name} holds NaN")
                raise ValueError(f"{name} is not symmetric; the loss needs a joint similarity")
        Pc, Pp = _block(Pc, Zb.dtype), _block(Pp, Zb.dtype)
        terms = np.empty_like(Q)
        g_q = _terms_and_dq(Pc, Q, q_side, kind, M, rows, terms, a)
        feat += _pair_sum(terms, b - a)
        g_struct = _terms_and_dq(Pp, Q, q_side, kind, M, rows, terms, a)
        struct += _pair_sum(terms, b - a)
        g_struct *= alpha
        g_q += g_struct
        # Q is spent; its buffer takes (2 - 4k) c
        work = np.multiply(k, -4.0 * c, out=Q)
        work += 2.0 * c
        g_q *= work
        g_q *= k
        d2 += nu_latent
        block = coef[rows, a:]
        np.divide(g_q, d2, out=block)
        # the pairs right of the diagonal square, mirrored into the rows below it
        coef[b:, rows] = block[:, b - a :].T

    feat, struct = float(feat / M), float(struct / M)
    grad = coef.sum(axis=1)[:, None] * Zb - coef @ Zb
    return LossTerms(feat, struct, alpha, feat + alpha * struct), grad
