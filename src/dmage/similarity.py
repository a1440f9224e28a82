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

All rows are calibrated at once, and each row is read in tiers, one loop
over the tier sizes ``(_NEAREST, _MIDDLE)`` = (128, 1024), those below
n - 1 (``_Rows``), as UMAP's and Barnes-Hut t-SNE's bandwidth searches
read only the nearest distances.  A tier of k brackets the objective on
the row's k nearest distances: the kernel falls with distance, so the
n - 1 - k left out, none nearer than the k-th, add at most that many
times its squared kernel to the exponent.  Widened by a rounding margin
of ``1e-9 * q_p``, far above the ~1e-14 by which another summation order
moves the objective and far below the tolerance, the bracket decides each
comparison of the search (within ``tol``, below or above the target)
unless it straddles -tol, 0 or +tol.  Only a row whose bracket does goes
on to the next tier, partitioned from the row the first time it gets
there, and only a row still open after the last tier is summed over its
full row, exactly as the one-row search sums it.  The tiers change how
often a row is summed in full, never a decision: every decision goes the
way the row-at-a-time search goes, and sigma is the same bit for bit.

The kernel pass and the symmetrization can write into a given buffer
(``out=``), the distance matrix included, so that ``precompute`` turns one
n x n buffer from distances into the conditional similarity, whose joint
form it writes into a float32 matrix, narrowed tile by tile
(``container._narrow``).  Their bytes are the same either way.

The geodesics of a connected graph are computed only as far as the kernel
reaches (``_calibrated_geodesics``): row i up to ``rho_i + x* sigma_i``,
where ``x*`` is the scaled distance at which the kernel falls to
``_FLOOR``, a quarter of float32's smallest normal (``x* = 21.9`` at
``nu = 100``).  Beyond it the conditional similarity is 0 rather than
below the floor, and the float32 loss flushes such values to 0 anyway.
sigma needs the distances first, so the rows are computed in rounds; rho
and sigma are the full computation's bit for bit, and so is every distance
within the reach.  Every other graph takes the one full route,
``distances.geodesic_distances`` and :func:`calibrate_all`: a disconnected
graph, because the unconnected rule needs every connected distance, and a
graph on which a sample of rows predicts no saving from the rounds.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .container import _narrow
from .distances import (
    GeodesicDistanceMatrix,
    _edge_weight_graph,
    _fill_rows,
    _mirror,
    _row_blocks,
    _search_rows,
    _shared_array,
    geodesic_distances,
)

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
# the tier sizes (_Rows): a row is bracketed on its _NEAREST nearest distances,
# where that is open on its _MIDDLE nearest, and only then summed in full
_NEAREST = 128
_MIDDLE = 1024
# rounding margin on the objective, relative to q_p
_MARGIN = 1e-9
# matrix elements per row block when partitioning or gathering full rows
_BLOCK = 1 << 20
# matrix elements per row block of the kernel pass
_KERNEL_BLOCK = 1 << 16
# a conditional similarity of a connected geodesic graph below this is not
# computed, and is 0: a quarter of float32's smallest normal, so that the
# loss, which reads the similarities in float32 and flushes subnormals to 0,
# reads nearly every entry as it would read the full computation's
_FLOOR = float(np.finfo(np.float32).tiny) / 4
# rows searched in full first, to choose the radius of the other rows' first
# search: their largest _NEAREST-th nearest distance, widened by _SLACK
_SAMPLE = 16
_SLACK = 1.1
# the rounds run only when the sample's searches would reach less than this
# share of the nodes that full searches reach: on 300-node 2-D Manhattan kNN
# graphs predictions from 0.86 came out above full searches, and on 400-node
# kNN graphs rounds over 0.73 to 0.86 of the pairs took as long as full
# searches; the Cora-shaped graphs (0.16 to 0.32 predicted) and a 1200-node
# block model (0.57) keep them
_ROUNDS_SHARE = 0.75


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
    """The calibration input: rows of a distance matrix, read tier by tier.

    Row i stands for row ``index[i]`` of the square matrix ``d``.  The
    tiers are ``_NEAREST`` and ``_MIDDLE``, those below ``n - 1``.  Tier t
    holds each row's ``tiers[t]`` smallest off-diagonal distances, the
    largest last, the rest in any order, partitioned from ``d`` the first
    time the row needs them, and kept.  Without ``index``, ``d`` holds the
    whole off-diagonal rows, in index order, and there are no tiers.  A
    row marked ``truncated`` holds only its distances up to a radius beyond
    its ``_NEAREST`` nearest, inf past it, so it has no second tier: where
    its first bracket is open it is marked ``escalated`` and its search
    goes on with that bracket's lower end, a value to be discarded.
    """

    def __init__(self, d, rho, index=None, truncated=None):
        self.d, self.rho, self.index, self.truncated = d, rho, index, truncated
        self.escalated = np.zeros(rho.size, dtype=bool)
        self.tiers = [k for k in (_NEAREST, _MIDDLE) if index is not None and k < d.shape[0] - 1]
        # pages are touched only for the rows that get to a tier
        self.near = [np.empty((rho.size, k)) for k in self.tiers]
        self.filled = [np.zeros(rho.size, dtype=bool) for _ in self.tiers]

    @classmethod
    def of_matrix(cls, d, index, truncated=None):
        """The rows ``index`` (an index array) of the square matrix ``d``."""
        if d.shape[0] - 1 <= _NEAREST:
            full = _off_diagonal(d, index)
            return cls(full, full.min(axis=1))
        rows = cls(d, np.empty(index.size), index, truncated)
        rows.tier(0, np.arange(index.size))
        return rows

    def tier(self, t, idx):
        """Rows ``idx``'s ``tiers[t]`` smallest distances, the largest last."""
        k = self.tiers[t]
        new = idx[~self.filled[t][idx]]
        for b in _row_blocks(new.size, self.d.shape[0], _BLOCK):
            at, rows = new[b], self.index[new[b]]
            block = self.d[rows]
            # the diagonal lands among the other n - 1 - k, as a NaN of the row would
            block[np.arange(rows.size), rows] = np.inf
            block.partition(k - 1, axis=1)
            if t == 0:
                # the minimum over the whole row, so that a NaN anywhere in it
                # gives rho = NaN, as the one-row search does
                self.rho[at] = block.min(axis=1)
            self.near[t][at] = block[:, :k]
        self.filled[t][new] = True
        return self.near[t][idx]

    def objective(self, idx, sigma, q_p, nu, tol):
        """Stand-ins for ``compactness - q_p`` of rows ``idx`` at ``sigma``.

        Each value takes the same side of -tol, 0 and +tol as the objective
        computed on the full row in index order, so every decision of the
        search goes the same way: each tier brackets the rows whose brackets
        are still open, and the rows open after the last are summed over
        their full off-diagonal rows (the module docstring).
        """
        value, open_ = np.empty(idx.size), np.ones(idx.size, dtype=bool)
        for t, k in enumerate(self.tiers):
            at = np.flatnonzero(open_)
            if not at.size:
                break
            near, rho = self.tier(t, idx[at]), self.rho[idx[at]]
            mass = _kernel_mass(near, rho, nu, sigma[at])
            count = self.d.shape[0] - 1 - k  # the distances the tier leaves out
            value[at], open_[at] = _bracket(mass, count, near[:, -1], rho, sigma[at], q_p, nu, tol)
            if t == 0 and self.truncated is not None:
                stuck = open_ & self.truncated[idx]
                self.escalated[idx[stuck]] = True
                open_ &= ~stuck
        at = np.flatnonzero(open_)
        for b in _row_blocks(at.size, self.d.shape[1], _BLOCK):
            rows = idx[at[b]]
            full = self.d[rows] if self.index is None else _off_diagonal(self.d, self.index[rows])
            value[at[b]] = _exp2(_kernel_mass(full, self.rho[rows], nu, sigma[at[b]])) - q_p
        return value


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
    bit for bit: a row is bracketed on its 128 nearest distances, then on
    its 1024 nearest, and summed in full only where neither bracket decides
    a step of the search (the tiers of the module docstring).  The matrix
    is read in row blocks, so no second n x n array is allocated, and the
    rows are split over the usable cores (``distances._fill_rows``).  At
    most one warning is issued, counting the rows that missed the target.
    The result holds ``rho`` and ``sigma``.
    """
    d_matrix = _distance_array(d_matrix)
    n = d_matrix.shape[0]
    if n < 3:
        raise ValueError("calibration needs at least 3 nodes")
    rho, sigma, outcome, _ = _calibrate(d_matrix, nu, q_p, np.arange(n))
    _warn_outcomes(sigma, outcome, q_p)
    return CalibrationParams(rho, sigma)


def _calibrate(d, nu, q_p, index, truncated=None):
    """The search of :func:`calibrate_all` on rows ``index`` of the square ``d``, with no warning.

    ``truncated`` marks the rows that hold their distances only up to a
    radius (:class:`_Rows`).  Returns rho, sigma, the outcome and whether
    the row escalated, per row, computed over the usable cores
    (``distances._fill_rows``).
    """

    def fill(rows, rho, sigma, outcome, escalated):
        part = _Rows.of_matrix(d, index[rows], None if truncated is None else truncated[rows])
        rho[rows] = part.rho
        sigma[rows], outcome[rows] = _search(part, q_p, nu)
        escalated[rows] = part.escalated

    layouts = ((), np.float64), ((), np.float64), ((), np.int8), ((), bool)
    return _fill_rows(index.size, d.shape[0], fill, *layouts)


@dataclass(frozen=True)
class _Computed:
    """How a calibrated distance matrix was computed, for the log.

    The seconds of the distances and of the calibration; ``pairs``, the
    share of the n x n pairs the distance searches reached, counted once per
    search; ``extended``, the rows searched again out to their reach;
    ``full``, the rows searched without a limit; ``knn_s``, the seconds of
    the kNN graph the distances run over, when one was built for them.
    """

    distances_s: float
    calibration_s: float
    pairs: float
    extended: int
    full: int
    knn_s: float | None = None


def _calibrated(distances_of, nu, q_p):
    """``(d, calib, computed)``: the full distances ``distances_of()`` and their calibration."""
    t0 = time.perf_counter()
    d = distances_of()
    t1 = time.perf_counter()
    calib = calibrate_all(d, nu, q_p)
    return d, calib, _Computed(t1 - t0, time.perf_counter() - t1, 1.0, 0, d.shape[0])


def _kernel_reach(nu):
    """The scaled distance ``x`` at which :func:`t_kernel` falls to ``_FLOOR``."""
    # C(nu) (1 + x^2/nu)^(-(nu+1)/2) = floor, solved for x
    log_ratio = _kernel_log_const(nu) - math.log(_FLOOR)
    return math.sqrt(nu * math.expm1(2.0 * log_ratio / (nu + 1.0)))


def _limit_grid(x):
    """``x`` rounded up to 8 significant bits (at most 0.8% up), so few distinct values remain."""
    mantissa, exponent = np.frexp(x)
    return np.ldexp(np.ceil(mantissa * 256.0) / 256.0, exponent)


def _calibrated_geodesics(g, metric, lambda_, nu, q_p):
    """Geodesic distances over ``g``'s edges and their calibration: ``(d, calib, computed)``.

    There are two routes.  The full one, :func:`distances.geodesic_distances`
    and :func:`calibrate_all`, is taken by a disconnected graph, one of at
    most ``_NEAREST + 1`` nodes, and one whose sample (step 1) predicts no
    saving from the rounds.  On any other graph each row is computed only
    as far as the kernel reaches: its *reach* is ``rho + x* sigma``, where
    ``x*`` is the scaled distance at which the kernel falls to ``_FLOOR``.
    Every distance within a row's reach has the bits of the full
    computation, every one beyond is inf, so its conditional similarity is
    exactly 0 instead of below ``_FLOOR``.  rho and sigma are the same bit
    for bit.  sigma needs the distances first, so the rows are computed in
    rounds (``distances._search_rows``, :func:`_geodesic_rounds`):

    1. ``_SAMPLE`` rows, evenly spaced, are searched in full and calibrated.
       The radius of the first round is their largest ``_NEAREST``-th
       nearest distance times ``_SLACK``.  Unless that radius and their
       reaches would have the sample's searches reach less than
       ``_ROUNDS_SHARE`` of the nodes that full searches reach, the sample
       is discarded and the graph takes the full route (a dense graph, or
       one whose reach covers most nodes): 16 rows predict the rest only
       roughly, and the rounds search some rows twice.
    2. Every other row is searched to that radius.  A row that reaches
       fewer than its ``_NEAREST`` nearest is searched again in full.
    3. The rows are calibrated by :func:`calibrate_all`'s search.  Its first
       tier sees each row's ``_NEAREST`` nearest distances and the same
       bound on the rest as on the full row, so it settles the same
       comparisons.  A row whose search would go on to a second tier or its
       full row is searched in full and calibrated again on it.
    4. A row whose reach lies beyond its radius is searched again to its
       reach (rounded up a little, so that rows share searches); a row that
       reached every node is complete.

    After the rounds, the distances outside each row's reach are set to
    inf, so the result does not depend on the rounds' radii.  The joint
    similarity differs from the full computation's only where a conditional
    lies below ``_FLOOR``, and by less than ``2 * _FLOOR``.
    """
    n = g.n
    # each edge once is enough to find the components, and cheaper than graph.adjacency
    edges = g.edge_array()
    structure = csr_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(n, n))
    if n - 1 > _NEAREST and connected_components(structure, directed=False)[0] == 1:
        rounds = _geodesic_rounds(g, metric, nu, q_p)
        if rounds is not None:
            return rounds
    return _calibrated(lambda: geodesic_distances(g, metric, lambda_).matrix, nu, q_p)


def _geodesic_rounds(g, metric, nu, q_p):
    """The rounds of :func:`_calibrated_geodesics` on a connected graph.

    Returns ``(d, calib, computed)``, or None where the sample predicts no
    saving.
    """
    n = g.n
    t_start = time.perf_counter()
    calibration_s = 0.0
    graph = _edge_weight_graph(g, metric)
    dist = _shared_array((n, n), np.float64)
    radius = np.empty(n)  # how far each row is computed; inf once it reached every node
    reached = np.zeros(n, dtype=np.int64)  # nodes reached, summed over each row's searches
    full = 0

    def search(rows, limit):
        """Searches ``rows`` as far as ``limit`` (one value, or one per row)."""
        nonlocal full
        if rows.size:
            limit = np.broadcast_to(limit, rows.shape)
            got, _ = _search_rows(graph, dist, rows, limit)
            reached[rows] += got
            radius[rows] = np.where(got == n, np.inf, limit)
            full += int(np.isinf(limit).sum())

    def calibrate(rows, truncated=None):
        """Calibrates ``rows``; returns those that escalated."""
        nonlocal calibration_s
        if not rows.size:
            return rows
        t0 = time.perf_counter()
        rho[rows], sigma[rows], outcome[rows], escalated = _calibrate(
            dist, nu, q_p, rows, truncated
        )
        calibration_s += time.perf_counter() - t0
        return rows[escalated]

    rho, sigma, outcome = np.empty(n), np.empty(n), np.empty(n, dtype=np.int8)
    x = _kernel_reach(nu)
    sample = np.unique(np.linspace(0, n - 1, _SAMPLE).round().astype(np.int64))
    search(sample, np.inf)
    calibrate(sample)
    ordered = np.sort(dist[sample], axis=1)  # each row's own 0 first
    first = _SLACK * ordered[:, _NEAREST].max()
    # nodes the sample's searches would reach in the rounds, against n in full
    cost = 0
    for row, reach in zip(ordered, rho[sample] + x * sigma[sample]):
        cost += np.searchsorted(row, first, side="right")
        cost += np.searchsorted(row, reach, side="right") if reach > first else 0

    if cost >= _ROUNDS_SHARE * n * sample.size:
        return None

    rest = np.setdiff1d(np.arange(n), sample)
    search(rest, first)
    search(rest[reached[rest] <= _NEAREST], np.inf)
    escalated = calibrate(rest, np.isfinite(radius[rest]))
    search(escalated, np.inf)
    calibrate(escalated)
    reach = rho + x * sigma
    extended = np.flatnonzero(reach > radius)
    search(extended, _limit_grid(reach[extended]))
    for rows in _row_blocks(n, n, _KERNEL_BLOCK):
        block = dist[rows]
        block[block > reach[rows, None]] = np.inf

    _warn_outcomes(sigma, outcome, q_p)
    distances_s = time.perf_counter() - t_start - calibration_s
    computed = _Computed(distances_s, calibration_s, reached.sum() / (n * n), extended.size, full)
    return dist, CalibrationParams(rho, sigma), computed


def conditional_similarity(
    distances, nu: float, calib: CalibrationParams, out=None
) -> SimilarityMatrix:
    """Row-normalized kernel similarities ``P[i, j] = kernel((d_ij - rho_i)/sigma_i)``.

    The kernel is :func:`t_kernel` with ``nu`` degrees of freedom.  Generally
    asymmetric, since each row carries its own rho and sigma.  The diagonal
    is zeroed by convention.  The result is written into ``out`` when given
    (a float64 array of the distances' shape, which may be the distance
    matrix itself), in row blocks; the bytes are the same either way.  An
    unreached pair (normalized distance ``+inf``) is 0, the kernel's value
    there, without evaluating it; a NaN stays NaN.
    """
    d = _distance_array(distances)
    p = np.empty(d.shape) if out is None else out
    for rows in _row_blocks(d.shape[0], d.shape[0], _KERNEL_BLOCK):
        block = p[rows]
        np.subtract(d[rows], calib.rho[rows, None], out=block)
        block /= calib.sigma[rows, None]
        if block.max() < np.inf:
            t_kernel(block, nu, out=block)
        else:
            # exp and log1p run several times slower on inf than on finite
            # values, and a reach-limited kNN row block is mostly inf
            reached = block != np.inf
            k = t_kernel(block[reached], nu)
            block.fill(0.0)
            block[reached] = k
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
    ``out`` when given (an array of the matrix's shape, which may be
    ``p.matrix`` itself); the bytes are the same either way.  A float32
    ``out`` takes each float64 tile narrowed by ``container._narrow``, its
    float32 subnormals flushed to 0, which is how ``precompute`` stores a
    similarity.
    """
    if p.kind != "conditional":
        raise ValueError("symmetrize expects a conditional similarity matrix")
    m = p.matrix
    wide = np.result_type(m, 2.0)
    joint = np.empty(m.shape, wide) if out is None else out
    if joint.dtype == wide:
        combine = _joint
    else:
        def combine(a, b):
            return _narrow(_joint(a, b), joint.dtype)
    _mirror(m, joint, combine)
    np.fill_diagonal(joint, 0.0)
    return SimilarityMatrix(joint, "joint")
