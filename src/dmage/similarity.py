"""Geodesic similarity: distance normalization, kernel calibration, symmetrization.

Distances are turned into per-pair similarities in three steps.  Each row is
first shifted by its minimum off-diagonal distance (``rho``) and scaled by a
per-node bandwidth (``sigma``), so every node's nearest neighbor lands at
normalized distance 0.  The bandwidth is calibrated by binary search so that
``2 ** sum_j kernel(normalized distance)^2`` hits a target compactness
``q_p`` — larger targets pull more neighbors into the high-similarity range.
The search's tolerance (``DEFAULT_TOL``, 1e-5) and bisection cap
(``DEFAULT_MAX_ITER``, 100) are constants of the method, read on each call.
The normalized distances then pass through a Student-t kernel and the
resulting conditional similarities are symmetrized into a joint form.

All rows are calibrated at once, each on its ``_NEAREST`` (128) nearest
distances rather than on all n - 1, as UMAP's and Barnes-Hut t-SNE's
bandwidth searches do.  The kernel falls with distance, so the left-out
distances, none nearer than the row's 128th nearest, add at most that many
times its squared kernel to the exponent: the truncated sum and this tail
bound bracket the objective.  Widened by a rounding margin of
``1e-9 * q_p``, far above the ~1e-14 by which another summation order moves
the objective and far below the tolerance, the bracket decides each
comparison of the search (within ``tol``, below or above the target)
unless it straddles -tol, 0 or +tol.  A row whose bracket does is
bracketed again in the same way on its ``_MIDDLE`` (1024) nearest
distances, partitioned from the row the first time it needs them; only
where that bracket straddles too is the row summed in full, exactly as
the one-row search sums it.  Every decision therefore goes the way the
row-at-a-time search goes, and sigma is the same bit for bit.

The kernel pass and the symmetrization can write into a given buffer
(``out=``), the distance matrix included, so that ``precompute`` turns one
n x n buffer from distances into the joint similarity.  Their bytes are
the same either way.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .distances import GeodesicDistanceMatrix, _fill_rows, _mirror, _row_blocks

__all__ = [
    "CalibrationParams",
    "SimilarityMatrix",
    "CalibrationWarning",
    "t_kernel",
    "calibrate_sigma",
    "calibrate_all",
    "conditional_similarity",
    "symmetrize",
]

SIGMA_LO = 1e-4
MAX_DOUBLINGS = 64
DEFAULT_TOL = 1e-5
DEFAULT_MAX_ITER = 100
# rows are searched on this many nearest distances, the rest bounded
_NEAREST = 128
# a row whose bracket on its _NEAREST nearest is open is bracketed again on
# this many nearest, before it is summed in full
_MIDDLE = 1024
# rounding margin on the objective, relative to q_p
_MARGIN = 1e-9
# matrix elements per row block when partitioning or gathering full rows
_BLOCK = 1 << 20
# matrix elements per row block of the kernel pass
_KERNEL_BLOCK = 1 << 16


class CalibrationWarning(UserWarning):
    """Bandwidth search could not bracket the target; a boundary was returned."""


@dataclass(frozen=True)
class CalibrationParams:
    """Per-node normalization obtained from bandwidth calibration.

    ``rho[i]`` is the minimum off-diagonal distance of row i and ``sigma[i]``
    the bandwidth found (or boundary fallback) for the compactness target.
    """

    rho: np.ndarray
    sigma: np.ndarray


@dataclass(frozen=True)
class SimilarityMatrix:
    """Square matrix of pair similarities in [0, 1] with a zero diagonal.

    ``kind`` is "conditional" for the asymmetric per-row form and "joint"
    for the symmetrized form.
    """

    matrix: np.ndarray
    kind: str

    def __post_init__(self):
        if self.kind not in ("conditional", "joint"):
            raise ValueError(f"unknown similarity kind {self.kind!r}")

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def _kernel_log_const(nu: float) -> float:
    # log of sqrt(2*pi) * Gamma((nu+1)/2) / (sqrt(nu*pi) * Gamma(nu/2));
    # log-gamma keeps this finite for large nu.
    return (
        0.5 * math.log(2.0 * math.pi)
        + math.lgamma((nu + 1.0) / 2.0)
        - 0.5 * math.log(nu * math.pi)
        - math.lgamma(nu / 2.0)
    )


def t_kernel(d, nu: float, out=None):
    """Student-t similarity kernel, strictly decreasing in |d|.

    Evaluates ``C(nu) * (1 + d^2/nu) ** (-(nu+1)/2)`` elementwise, where the
    constant is computed through log-gamma so very large ``nu`` stays finite.
    Accepts scalars or arrays; an array result is written into ``out`` when
    given (a float64 array of ``d``'s shape, which may be ``d`` itself).
    """
    if not nu > 0:
        raise ValueError(f"nu must be positive, got {nu}")
    d = np.asarray(d, dtype=np.float64)
    if out is None:
        out = np.empty(d.shape)
    np.multiply(d, d, out=out)
    _t_kernel_of_squares(out, nu, out)
    return float(out) if out.ndim == 0 else out


def _t_kernel_of_squares(d2, nu: float, out):
    """:func:`t_kernel` of the squared distances ``d2``, written into ``out`` (which may be ``d2``)."""
    np.divide(d2, nu, out=out)
    np.log1p(out, out=out)
    out *= 0.5 * (nu + 1.0)
    np.subtract(_kernel_log_const(nu), out, out=out)
    return np.exp(out, out=out)


def _kernel_mass(rows, rho, nu, sigma):
    """``sum_j kernel((d_j - rho)/sigma)^2`` along the last axis, one value per row.

    Row by row this is bit-identical to the sum over a 1-D array of the same
    row, as long as ``rows`` is C-contiguous.
    """
    k = t_kernel((rows - rho[:, None]) / sigma[:, None], nu)
    return np.sum(k * k, axis=-1)


def _exp2(x):
    with np.errstate(over="ignore"):
        return np.exp2(x)


def _off_diagonal(d, idx):
    """Rows ``idx`` of a square matrix without their diagonal entries, in index order."""
    n = d.shape[0]
    return d[idx][np.arange(n) != idx[:, None]].reshape(idx.size, n - 1)


class _Rows:
    """The calibration input: each row's nearest distances, bounds on the rest.

    Row i stands for row ``start + i`` of the square matrix ``d``.
    ``near[i]`` holds its ``_NEAREST`` smallest off-diagonal distances, in
    any order, and the other ``count`` are at least ``d_k[i]``.  With
    ``count == 0``, ``near[i]`` is the whole off-diagonal row in index order
    and ``d`` is not needed.  A row's ``_MIDDLE`` smallest distances, the
    second tier, are partitioned from ``d`` the first time the row needs
    them, and kept.
    """

    def __init__(self, near, rho, count=0, d_k=None, d=None, start=0):
        self.near, self.rho, self.count, self.d_k, self.d = near, rho, count, d_k, d
        self.start = start
        self.mid = self.mid_k = self.has_mid = None

    @classmethod
    def of_matrix(cls, d, rows):
        """The rows ``rows`` (a slice) of the square matrix ``d``."""
        n = d.shape[0]
        if n - 1 <= _NEAREST:
            near = _off_diagonal(d, np.arange(rows.start, rows.stop))
            return cls(near, near.min(axis=1))
        r = rows.stop - rows.start
        near = np.empty((r, _NEAREST))
        rho, d_k = np.empty(r), np.empty(r)
        for b in _row_blocks(rows.stop, n, _BLOCK, rows.start):
            block = _nearest_first(d, np.arange(b.start, b.stop), _NEAREST)
            local = slice(b.start - rows.start, b.stop - rows.start)
            # the minimum over the whole row, so that a NaN anywhere in it
            # gives rho = NaN, as the one-row search does
            rho[local] = block.min(axis=1)
            near[local] = block[:, :_NEAREST]
            d_k[local] = block[:, _NEAREST - 1]
        return cls(near, rho, n - 1 - _NEAREST, d_k, d, rows.start)

    def middle(self, idx):
        """Rows ``idx``'s ``_MIDDLE`` smallest distances, in any order, and the largest of them."""
        if self.mid is None:
            r = self.rho.size
            # pages are touched only for the rows that get here
            self.mid, self.mid_k = np.empty((r, _MIDDLE)), np.empty(r)
            self.has_mid = np.zeros(r, dtype=bool)
        new = idx[~self.has_mid[idx]]
        for b in _row_blocks(new.size, self.d.shape[0], _BLOCK):
            block = _nearest_first(self.d, self.start + new[b], _MIDDLE)
            self.mid[new[b]] = block[:, :_MIDDLE]
            self.mid_k[new[b]] = block[:, _MIDDLE - 1]
        self.has_mid[new] = True
        return self.mid[idx], self.mid_k[idx]

    def full_mass(self, idx, sigma, nu):
        """Kernel mass of rows ``idx`` over their full off-diagonal rows, in row blocks."""
        mass = np.empty(idx.size)
        for b in _row_blocks(idx.size, self.d.shape[0], _BLOCK):
            rows = _off_diagonal(self.d, self.start + idx[b])
            mass[b] = _kernel_mass(rows, self.rho[idx[b]], nu, sigma[b])
        return mass

    def objective(self, idx, sigma, q_p, nu, tol):
        """Stand-ins for ``compactness - q_p`` of rows ``idx`` at ``sigma``.

        Each value takes the same side of -tol, 0 and +tol as the objective
        computed on the full row in index order, so every decision of the
        search goes the same way.  A row is bracketed on its ``_NEAREST``
        nearest distances, then, where that bracket is open, on its
        ``_MIDDLE`` nearest, and only where that is open too summed in full.
        """
        rho = self.rho[idx]
        mass = _kernel_mass(self.near[idx], rho, nu, sigma)
        if self.count == 0:
            return _exp2(mass) - q_p
        value, open_ = _bracket(mass, self.count, self.d_k[idx], rho, sigma, q_p, nu, tol)
        n = self.d.shape[0]
        if open_.any() and n - 1 > _MIDDLE:
            at = np.flatnonzero(open_)
            mid, mid_k = self.middle(idx[at])
            mass = _kernel_mass(mid, rho[at], nu, sigma[at])
            value[at], open_[at] = _bracket(
                mass, n - 1 - _MIDDLE, mid_k, rho[at], sigma[at], q_p, nu, tol
            )
        if open_.any():
            value[open_] = _exp2(self.full_mass(idx[open_], sigma[open_], nu)) - q_p
        return value


def _nearest_first(d, idx, k):
    """Rows ``idx`` of the square matrix ``d``, their ``k`` smallest off-diagonal entries first.

    A copy, partitioned; the diagonal entry is set to inf before the
    partition, so it lands among the ``n - 1 - k`` others (as a NaN of the
    row would).
    """
    block = d[idx]
    block[np.arange(idx.size), idx] = np.inf
    block.partition(k - 1, axis=1)
    return block


def _bracket(mass, count, d_k, rho, sigma, q_p, nu, tol):
    """The lower bound on ``compactness - q_p`` from a truncated kernel mass, and where it is open.

    ``mass`` sums a row's nearest distances, and the ``count`` others are
    each at least ``d_k``.  The kernel falls with distance, so each of them
    adds at most ``kernel(d_k)^2`` to the exponent.  Widened by the rounding
    margin, the bracket is open where it holds -tol, 0 or +tol, or is NaN.
    """
    k = t_kernel((d_k - rho) / sigma, nu)
    margin = _MARGIN * q_p
    low = _exp2(mass) - q_p - margin
    high = _exp2(mass + count * (k * k)) - q_p + margin
    open_ = np.isnan(low) | np.isnan(high)
    for t in (-tol, 0.0, tol):
        open_ |= (low <= t) & (t <= high)
    return low, open_


# per-row outcome of the search
_FOUND, _BELOW, _ABOVE, _STALLED = range(4)


def _search(rows: _Rows, q_p, nu):
    """The bandwidth search of :func:`calibrate_sigma`, on every row at once.

    The scalar search's three loops, each over the rows still in it, which
    share its step: every row is evaluated at ``SIGMA_LO``; a row neither
    within ``DEFAULT_TOL`` nor above the target there doubles the upper end
    from 1 until the objective is non-negative, at most ``MAX_DOUBLINGS``
    times; a row that got there (or whose objective is NaN) bisects until the
    objective is within ``DEFAULT_TOL`` or ``DEFAULT_MAX_ITER`` bisections
    are done.  Each row is evaluated at the scalar search's points, in its
    order.  Returns the bandwidths and a per-row outcome (``_FOUND`` ..
    ``_STALLED``).
    """
    if not q_p > 1:
        raise ValueError(f"q_p must be > 1, got {q_p}")
    tol = DEFAULT_TOL
    r = rows.rho.size
    sigma = np.full(r, SIGMA_LO)
    outcome = np.full(r, _FOUND, dtype=np.int8)
    f = rows.objective(np.arange(r), sigma, q_p, nu, tol)
    outcome[f > tol] = _BELOW
    # not within tol and not above: a NaN searches on, as in the scalar search
    searching = ~(f >= -tol)

    lo, hi = np.full(r, SIGMA_LO), np.ones(r)
    live = np.flatnonzero(searching)
    for _ in range(MAX_DOUBLINGS):
        if not live.size:
            break
        live = live[~(rows.objective(live, hi[live], q_p, nu, tol) >= 0)]
        lo[live] = hi[live]
        hi[live] *= 2.0
    # below the target at the last doubling: the upper end is returned
    f = rows.objective(live, hi[live], q_p, nu, tol)
    above = live[f < 0]
    sigma[above] = hi[above]
    outcome[live[f < -tol]] = _ABOVE
    searching[above] = False

    live = np.flatnonzero(searching)
    for _ in range(DEFAULT_MAX_ITER):
        if not live.size:
            break
        x = 0.5 * (lo[live] + hi[live])
        f = rows.objective(live, x, q_p, nu, tol)
        sigma[live] = x
        neg = f < 0
        lo[live[neg]] = x[neg]
        hi[live[~neg]] = x[~neg]
        live = live[~(np.abs(f) <= tol)]
    outcome[live] = _STALLED
    return sigma, outcome


def _warn_outcomes(sigma, outcome, q_p):
    """One :class:`CalibrationWarning` summing up every row that missed the target."""
    counts = np.bincount(outcome, minlength=4)
    if counts[_FOUND] == sigma.size:
        return
    warnings.warn(
        f"compactness target {q_p} missed on {sigma.size - counts[_FOUND]} of "
        f"{sigma.size} rows: {counts[_BELOW]} unreachable from below "
        f"(sigma={SIGMA_LO}), {counts[_ABOVE]} unreachable from above, "
        f"{counts[_STALLED]} not within tol={DEFAULT_TOL} after {DEFAULT_MAX_ITER} bisections; "
        f"sigma min {sigma.min():.6g}, median {np.median(sigma):.6g}, max {sigma.max():.6g}",
        CalibrationWarning,
        stacklevel=3,
    )


def calibrate_sigma(d_row, rho_i: float, nu: float, q_p: float) -> float:
    """Find the bandwidth whose compactness matches the target ``q_p``.

    ``d_row`` holds the distances from one node to all *other* nodes (the
    self entry must already be removed).  The objective
    ``2 ** sum_j kernel((d_j - rho_i)/sigma)^2`` is non-decreasing in sigma,
    so a sign change brackets the root: the upper end starts at 1 and is
    doubled until the target is crossed, then plain bisection runs until the
    absolute objective error drops below ``DEFAULT_TOL``, for at most
    ``DEFAULT_MAX_ITER`` steps.  If the target cannot be
    bracketed (too small a target, or larger than the row can ever reach) the
    nearest boundary is returned and a :class:`CalibrationWarning` is issued.
    """
    d_row = np.asarray(d_row, dtype=np.float64)
    if d_row.size < 2:
        raise ValueError("distance row needs at least 2 entries")
    rows = _Rows(d_row.reshape(1, -1), np.array([rho_i], dtype=np.float64))
    sigma, outcome = _search(rows, q_p, nu)
    _warn_outcomes(sigma, outcome, q_p)
    return float(sigma[0])


def _distance_array(distances) -> np.ndarray:
    """The float64 array of a distance matrix or of a :class:`GeodesicDistanceMatrix`."""
    if isinstance(distances, GeodesicDistanceMatrix):
        distances = distances.matrix
    return np.asarray(distances, dtype=np.float64)


def calibrate_all(d_matrix, nu: float, q_p: float) -> CalibrationParams:
    """Row-wise rho and calibrated sigma for a full distance matrix.

    ``d_matrix`` is an array or a :class:`GeodesicDistanceMatrix`.

    The diagonal is excluded both from ``rho`` (min over j != i) and from
    the calibration sum.  Every row runs the search of
    :func:`calibrate_sigma` at once, and ``rho`` and ``sigma`` are the same
    bit for bit.  A row longer than ``_NEAREST`` is searched on its
    ``_NEAREST`` nearest distances, whose kernel mass ``S`` is the
    exponent's lower end.  The kernel falls with distance, so the ``c``
    left-out distances, each at least the ``_NEAREST``-th nearest ``d_k``,
    add at most ``B = c * kernel((d_k - rho) / sigma)^2``: the objective
    lies in ``[2^S - q_p - m, 2^(S+B) - q_p + m]``, where the rounding
    margin ``m = 1e-9 * q_p`` is far above the ~1e-14 by which another
    summation order moves it and far below the tolerance
    ``tol = DEFAULT_TOL``.  When that interval holds none of -tol, 0 and
    +tol, it settles every comparison the search makes.  Otherwise, in a
    row longer than ``_MIDDLE``, the same interval is formed on its
    ``_MIDDLE`` nearest distances, which are partitioned once, when the row
    first gets there, and kept for the rest of its search.  Only when that
    interval also holds one of the three is the row summed over its full
    off-diagonal row, in index order, exactly as the one-row search sums
    it.  The tiers change how often a row is summed in full, never a
    decision.  The matrix is read in row blocks, so no second n x n array
    is allocated, and the rows are split over the usable cores
    (``distances._fill_rows``).  At most one warning is issued, counting
    the rows that missed the target.  The result holds ``rho`` and
    ``sigma``.
    """
    d_matrix = _distance_array(d_matrix)
    n = d_matrix.shape[0]
    if n < 3:
        raise ValueError("calibration needs at least 3 nodes")

    def fill(rows, rho, sigma, outcome):
        part = _Rows.of_matrix(d_matrix, rows)
        rho[rows] = part.rho
        sigma[rows], outcome[rows] = _search(part, q_p, nu)

    rho, sigma, outcome = _fill_rows(n, n, fill, ((), np.float64), ((), np.float64), ((), np.int8))
    _warn_outcomes(sigma, outcome, q_p)
    return CalibrationParams(rho, sigma)


def conditional_similarity(
    distances, nu: float, calib: CalibrationParams, out=None
) -> SimilarityMatrix:
    """Row-normalized kernel similarities ``P[i, j] = kernel((d_ij - rho_i)/sigma_i)``.

    The kernel is :func:`t_kernel` with ``nu`` degrees of freedom.  Generally
    asymmetric, since each row carries its own rho and sigma.  The diagonal
    is zeroed by convention.  The result is written into ``out`` when given
    (a float64 array of the distances' shape, which may be the distance
    matrix itself), in row blocks; the bytes are the same either way.
    """
    d = _distance_array(distances)
    p = np.empty(d.shape) if out is None else out
    for rows in _row_blocks(d.shape[0], d.shape[0], _KERNEL_BLOCK):
        block = p[rows]
        np.subtract(d[rows], calib.rho[rows, None], out=block)
        block /= calib.sigma[rows, None]
        t_kernel(block, nu, out=block)
    np.fill_diagonal(p, 0.0)
    return SimilarityMatrix(p, "conditional")


def _joint(a, b):
    """``a + b - 2ab`` as a new tile, the product taken as ``(2a) b``."""
    joint = np.add(a, b)
    twice = np.multiply(a, 2.0)
    twice *= b
    joint -= twice
    return joint


def symmetrize(p: SimilarityMatrix, out=None) -> SimilarityMatrix:
    """Symmetrize conditional similarities into the joint form.

    ``p_ij = p_i|j + p_j|i - 2 p_i|j p_j|i``, the paper's joint similarity.
    Each tile is computed with its mirror tile, once for both
    (``distances._mirror``), so the result is exactly symmetric and no
    transposed copy of the matrix is made.  The result is written into
    ``out`` when given (a float64 array of the matrix's shape, which may be
    ``p.matrix`` itself); the bytes are the same either way.
    """
    if p.kind != "conditional":
        raise ValueError("symmetrize expects a conditional similarity matrix")
    m = p.matrix
    joint = np.empty(m.shape, np.result_type(m, 2.0)) if out is None else out
    _mirror(m, joint, _joint)
    np.fill_diagonal(joint, 0.0)
    return SimilarityMatrix(joint, "joint")
