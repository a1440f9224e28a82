import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from dmage.similarity import (
    SIGMA_LO,
    CalibrationParams,
    CalibrationWarning,
    SimilarityMatrix,
    calibrate_all,
    calibrate_sigma,
    conditional_similarity,
    symmetrize,
    t_kernel,
)
from dmage import distances, similarity
from dmage.distances import geodesic_distances, pairwise_distance
from dmage.similarity import MAX_DOUBLINGS
from dmage.losses import BregmanKind, fused_loss
from dmage.synthetic import two_block_sbm
from dmage.training import TrainConfig, precompute

from conftest import cora_shaped, random_graph

# high-precision reference values (40-digit arbitrary-precision arithmetic)
KAPPA_0_100 = 0.99750316395510508721
KAPPA_1_1 = 0.39894228040143267794
KAPPA_2_100 = 0.13763555780590184475
KAPPA_0_1 = 0.79788456080286535588


def kernel_ref(d, nu):
    """Reference kernel via log-gamma and plain powers (independent code path)."""
    log_c = (
        0.5 * np.log(2 * np.pi) + gammaln((nu + 1) / 2) - 0.5 * np.log(nu * np.pi) - gammaln(nu / 2)
    )
    return np.exp(log_c) * np.power(1.0 + np.square(d) / nu, -(nu + 1) / 2)


def compactness_ref(d_row, rho, nu, sigma):
    k = kernel_ref((np.asarray(d_row) - rho) / sigma, nu)
    with np.errstate(over="ignore"):
        return np.exp2(np.sum(k * k))


def grid_achievable(d_row, rho, nu, q_p, points=2000):
    """Whether the monotone compactness curve crosses the target on the grid.

    The compactness is non-decreasing in sigma, so the target is reachable
    on [1e-4, 1e4] exactly when it sits between the curve's endpoints.
    """
    sigmas = np.logspace(-4, 4, points)
    vals = np.array([compactness_ref(d_row, rho, nu, s) for s in sigmas])
    return vals.min() <= q_p <= vals.max()


# ------------------------------------------------------------------ oracle
# The row-at-a-time search as it stood before the calibration ran all rows
# at once on their nearest distances, frozen as the reference: calibrate_all
# must give the same rho and sigma bit for bit.


def oracle_compactness(d_row, rho_i, nu, sigma):
    k = t_kernel((d_row - rho_i) / sigma, nu)
    with np.errstate(over="ignore"):
        return float(np.exp2(np.sum(k * k)))


def oracle_calibrate_sigma(d_row, rho_i, nu, q_p, tol=1e-5, max_iter=100):
    def objective(sigma):
        return oracle_compactness(d_row, rho_i, nu, sigma) - q_p

    f_lo = objective(SIGMA_LO)
    if abs(f_lo) <= tol or f_lo > 0:
        return SIGMA_LO
    lo, hi = SIGMA_LO, 1.0
    f_hi = objective(hi)
    for _ in range(MAX_DOUBLINGS):
        if f_hi >= 0:
            break
        lo, hi = hi, hi * 2.0
        f_hi = objective(hi)
    if f_hi < 0:
        return hi
    mid = hi
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        f_mid = objective(mid)
        if abs(f_mid) <= tol:
            return mid
        if f_mid < 0:
            lo = mid
        else:
            hi = mid
    return mid


def oracle_calibrate_all(d, nu, q_p, tol=1e-5, max_iter=100):
    n = d.shape[0]
    rho, sigma = np.empty(n), np.empty(n)
    idx = np.arange(n)
    for i in range(n):
        row = d[i, idx != i]
        rho[i] = row.min()
        sigma[i] = oracle_calibrate_sigma(row, rho[i], nu, q_p, tol, max_iter)
    return rho, sigma


def symmetric(m):
    m = np.minimum(m, m.T)
    np.fill_diagonal(m, 0.0)
    return m


def oracle_case(case):
    """Distance matrix, nu and q_p of one case; every n is above 129, so rows are truncated."""
    rng = np.random.default_rng(case)
    n = int(rng.integers(130, 200))
    nu, q_p = 100.0, 16.0
    kind = case % 6
    if kind == 0:  # rounded uniform distances: many ties
        d = symmetric(np.round(rng.uniform(0.1, 3.0, (n, n)), 1))
    elif kind == 1:  # a band of rows with every distance equal
        d = rng.uniform(0.1, 3.0, (n, n))
        d[: n // 3] = 2.0
        d = symmetric(d)
    elif kind == 2:  # nodes in isolated pairs cannot reach the target
        d = rng.uniform(0.1, 3.0, (n, n))
        m = 2 * (n // 6)
        d[:m] = d[:, :m] = np.inf
        pair = np.arange(m) ^ 1
        d[np.arange(m), pair] = rng.uniform(0.1, 3.0, m)
        d = symmetric(d)
        q_p = 4.0
    elif kind == 3:  # geodesics of a sparse graph with many components
        g = random_graph(rng, n=n, density=float(rng.uniform(0.5, 2.0)) / n)
        d = geodesic_distances(g, "euclidean", 10.0).matrix
    elif kind == 4:  # cosine distances of sparse binary features
        d = pairwise_distance((rng.random((n, 12)) < 0.15).astype(float), "cosine")
        nu = 1.0
    else:  # scaled distances and a large target
        d = symmetric(np.abs(rng.standard_normal((n, n))) * 10.0 ** rng.uniform(-3, 3))
        q_p = float(10.0 ** rng.uniform(1, 3))
    return d, nu, q_p


class TestTKernel:
    def test_frozen_reference_values(self):
        assert t_kernel(0.0, 100.0) == pytest.approx(KAPPA_0_100, rel=1e-14)
        assert t_kernel(1.0, 1.0) == pytest.approx(KAPPA_1_1, rel=1e-14)
        assert t_kernel(2.0, 100.0) == pytest.approx(KAPPA_2_100, rel=1e-14)
        assert t_kernel(0.0, 1.0) == pytest.approx(KAPPA_0_1, rel=1e-14)

    def test_zero_distance_below_one(self):
        # the kernel never quite reaches 1 for finite nu
        for nu in (0.5, 1.0, 10.0, 100.0, 1e4):
            assert 0.0 < t_kernel(0.0, nu) < 1.0

    @settings(max_examples=200)
    @given(
        st.floats(-1e6, 1e6, allow_nan=False),
        st.floats(0.01, 1e4, allow_nan=False),
    )
    def test_bounded_in_unit_interval(self, d, nu):
        k = t_kernel(d, nu)
        assert 0.0 <= k < 1.0

    def test_strictly_decreasing_in_abs_distance(self):
        d = np.linspace(0, 50, 200)
        for nu in (0.5, 1.0, 100.0):
            k = t_kernel(d, nu)
            assert (np.diff(k) < 0).all()

    def test_even_in_d(self):
        d = np.linspace(-3, 3, 13)
        assert np.allclose(t_kernel(d, 2.5), t_kernel(-d, 2.5))

    def test_matches_reference_on_grid(self):
        d = np.linspace(-5, 5, 101)
        for nu in (0.3, 1.0, 7.0, 100.0, 2000.0):
            assert np.allclose(t_kernel(d, nu), kernel_ref(d, nu), rtol=1e-12)

    def test_rejects_nonpositive_nu(self):
        with pytest.raises(ValueError):
            t_kernel(1.0, 0.0)


class TestCalibrateSigma:
    def test_hits_target_when_grid_says_achievable(self):
        rng = np.random.default_rng(0)
        checked = 0
        for _ in range(60):
            size = int(rng.integers(3, 30))
            row = rng.uniform(0.1, 5.0, size)
            rho = row.min()
            nu, q_p = 100.0, float(rng.uniform(1.5, min(48.0, 2.0**size)))
            if not grid_achievable(row, rho, nu, q_p, points=400):
                continue
            checked += 1
            sigma = calibrate_sigma(row, rho, nu, q_p)
            k = t_kernel((row - rho) / sigma, nu)
            impl_obj = abs(np.exp2(np.sum(k * k)) - q_p)
            ref_obj = abs(compactness_ref(row, rho, nu, sigma) - q_p)
            assert impl_obj <= 1e-5
            assert ref_obj == pytest.approx(impl_obj, abs=1e-7)
        assert checked > 20  # the scan must actually exercise the pass branch

    def test_objective_nondecreasing_in_sigma(self):
        rng = np.random.default_rng(1)
        row = rng.uniform(0.5, 3.0, 12)
        rho = row.min()
        sigmas = np.logspace(-3, 3, 50)
        vals = [compactness_ref(row, rho, 50.0, s) for s in sigmas]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_equidistant_row_constant_objective_low_target(self):
        # all entries at rho: kernel stuck at kappa(0), target overshot below
        row = np.full(20, 2.0)
        with pytest.warns(CalibrationWarning):
            sigma = calibrate_sigma(row, 2.0, 100.0, 16.0)
        assert sigma == SIGMA_LO

    def test_unreachable_from_above_returns_upper_boundary(self):
        # two entries cap the exponent sum at 2*kappa(0)^2, so 2^sum < 8
        row = np.array([1.0, 1.0])
        with pytest.warns(CalibrationWarning):
            sigma = calibrate_sigma(row, 1.0, 100.0, 8.0)
        assert sigma > 1e15  # doubled far past any useful bandwidth

    def test_matches_oracle_bit_for_bit(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            row = rng.uniform(0.1, 3.0, int(rng.integers(2, 60))) * 10.0 ** rng.uniform(-2, 2)
            if rng.random() < 0.3:
                row = np.round(row, 1)
            rho, q_p = float(row.min()), float(10.0 ** rng.uniform(0.05, 3.0))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", CalibrationWarning)
                got = calibrate_sigma(row, rho, 100.0, q_p)
            assert got == oracle_calibrate_sigma(row, rho, 100.0, q_p)
            assert isinstance(got, float)

    def test_rejects_tiny_row(self):
        with pytest.raises(ValueError):
            calibrate_sigma(np.array([1.0]), 1.0, 100.0, 4.0)

    def test_rejects_target_at_or_below_one(self):
        with pytest.raises(ValueError):
            calibrate_sigma(np.array([1.0, 2.0]), 1.0, 100.0, 1.0)


class TestCalibrateAll:
    def test_rho_is_offdiagonal_min(self):
        d = np.array(
            [[0.0, 3.0, 1.0], [3.0, 0.0, 2.0], [1.0, 2.0, 0.0]]
        )
        calib = calibrate_all(d, nu=100.0, q_p=2.0)
        assert calib.rho.tolist() == [1.0, 2.0, 1.0]

    def test_sigma_positive(self):
        rng = np.random.default_rng(2)
        d = np.abs(rng.standard_normal((8, 8)))
        d = (d + d.T) / 2
        np.fill_diagonal(d, 0.0)
        calib = calibrate_all(d, nu=100.0, q_p=4.0)
        assert (calib.sigma > 0).all()

    @pytest.mark.parametrize("case", range(30))
    def test_matches_row_by_row_oracle_bit_for_bit(self, case):
        d, nu, q_p = oracle_case(case)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CalibrationWarning)
            calib = calibrate_all(d, nu, q_p)
        rho, sigma = oracle_calibrate_all(d, nu, q_p)
        assert calib.rho.tobytes() == rho.tobytes()
        assert calib.sigma.tobytes() == sigma.tobytes()

    def test_oracle_cases_reach_every_outcome(self):
        # the cases above must hit the boundary and search paths they claim
        seen = set()
        for case in range(6):
            d, nu, q_p = oracle_case(case)
            rho, sigma = oracle_calibrate_all(d, nu, q_p)
            seen |= {"low"} if (sigma == SIGMA_LO).any() else set()
            seen |= {"high"} if (sigma == 2.0**MAX_DOUBLINGS).any() else set()
            seen |= {"found"} if ((sigma > SIGMA_LO) & (sigma < 1e6)).any() else set()
        assert seen == {"low", "high", "found"}

    def test_short_searches_match_oracle(self, monkeypatch):
        # few bisection steps, a loose and a tight tolerance; the search reads
        # the module constants on each call
        d, nu, q_p = oracle_case(0)
        for tol, max_iter in ((1e-5, 7), (1e-3, 100), (1e-9, 100)):
            monkeypatch.setattr(similarity, "DEFAULT_TOL", tol)
            monkeypatch.setattr(similarity, "DEFAULT_MAX_ITER", max_iter)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", CalibrationWarning)
                calib = calibrate_all(d, nu, q_p)
            _, sigma = oracle_calibrate_all(d, nu, q_p, tol, max_iter)
            assert calib.sigma.tobytes() == sigma.tobytes()
            if max_iter == 7:
                assert f"not within tol={tol} after 7 bisections" in str(caught[-1].message)

    @pytest.mark.parametrize("n", [40, 170])
    def test_nan_rows_match_oracle_bit_for_bit(self, n):
        # a NaN gives its rows rho = NaN and a NaN objective everywhere: they
        # pass SIGMA_LO, double to the last, bisect to the last and stall, as
        # the scalar search does; the other rows are searched as ever
        rng = np.random.default_rng(n)
        d = symmetric(rng.uniform(0.1, 3.0, (n, n)))
        d[5, 9] = d[9, 5] = np.nan
        d[n - 1] = np.nan  # a row of NaN, not its column
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", CalibrationWarning)
            calib = calibrate_all(d, 100.0, 16.0)
        rho, sigma = oracle_calibrate_all(d, 100.0, 16.0)
        assert calib.rho.tobytes() == rho.tobytes()
        assert calib.sigma.tobytes() == sigma.tobytes()
        assert np.flatnonzero(np.isnan(rho)).tolist() == [5, 9, n - 1]
        assert np.isfinite(sigma).all()
        assert "3 not within tol" in str(caught[-1].message)

    @pytest.mark.parametrize("case", [0, 3])
    def test_rows_are_evaluated_as_often_as_the_scalar_search_evaluates_them(
        self, case, workers, monkeypatch
    ):
        # one worker, so the calls are seen here
        workers(1)
        rows, calls = [], []
        objective, compactness = similarity._Rows.objective, oracle_compactness

        def spy(self, idx, *args):
            rows.append(idx.size)
            return objective(self, idx, *args)

        monkeypatch.setattr(similarity._Rows, "objective", spy)
        monkeypatch.setitem(
            globals(), "oracle_compactness", lambda *args: calls.append(1) or compactness(*args)
        )
        d, nu, q_p = oracle_case(case)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CalibrationWarning)
            calibrate_all(d, nu, q_p)
        oracle_calibrate_all(d, nu, q_p)
        assert sum(rows) == len(calls) > 2 * d.shape[0]

    def test_one_warning_sums_up_the_misses(self):
        d = np.full((140, 140), 2.0)
        d[:40] = np.arange(140.0)
        d = symmetric(d)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            calib = calibrate_all(d, 100.0, 16.0)
        messages = [str(w.message) for w in caught if issubclass(w.category, CalibrationWarning)]
        assert len(messages) == 1
        low = int((calib.sigma == SIGMA_LO).sum())
        assert low > 0
        assert f"{low} unreachable from below" in messages[0]
        assert "sigma min" in messages[0] and "median" in messages[0]

    def test_needs_three_nodes(self):
        with pytest.raises(ValueError):
            calibrate_all(np.zeros((2, 2)), 100.0, 4.0)

    def test_rejects_target_at_or_below_one(self):
        with pytest.raises(ValueError):
            calibrate_all(np.ones((3, 3)), 100.0, 1.0)


class TestConditionalSimilarity:
    def make(self, n=7, seed=3):
        rng = np.random.default_rng(seed)
        d = np.abs(rng.standard_normal((n, n))) + 0.1
        d = (d + d.T) / 2
        np.fill_diagonal(d, 0.0)
        calib = calibrate_all(d, 100.0, 4.0)
        return d, calib, conditional_similarity(d, 100.0, calib)

    def test_formula_per_entry(self):
        d, calib, p = self.make()
        for i in range(d.shape[0]):
            for j in range(d.shape[0]):
                if i == j:
                    continue
                expect = kernel_ref((d[i, j] - calib.rho[i]) / calib.sigma[i], 100.0)
                assert p.matrix[i, j] == pytest.approx(expect, rel=1e-12)

    def test_diagonal_zero_and_unit_range(self):
        _, _, p = self.make()
        assert (np.diag(p.matrix) == 0).all()
        off = p.matrix[~np.eye(p.n, dtype=bool)]
        assert ((off > 0) & (off < 1)).all()

    def test_generally_asymmetric(self):
        _, _, p = self.make()
        assert not np.allclose(p.matrix, p.matrix.T)

    def test_kind_label(self):
        _, _, p = self.make()
        assert p.kind == "conditional"


class TestSymmetrize:
    def joint_of(self, a, b):
        m = np.array([[0.0, a], [b, 0.0]])
        return symmetrize(SimilarityMatrix(m, "conditional")).matrix[0, 1]

    def test_fixed_points(self):
        assert self.joint_of(0.0, 0.0) == 0.0
        assert self.joint_of(1.0, 0.0) == 1.0
        assert self.joint_of(0.5, 0.5) == 0.5

    def test_both_certain_cancels(self):
        # p + q - 2pq at (1,1) collapses to 0 by the algebra as written
        assert self.joint_of(1.0, 1.0) == 0.0

    def test_output_symmetric(self):
        rng = np.random.default_rng(4)
        m = rng.uniform(0, 1, (6, 6))
        np.fill_diagonal(m, 0.0)
        joint = symmetrize(SimilarityMatrix(m, "conditional")).matrix
        assert (joint == joint.T).all()
        assert (np.diag(joint) == 0).all()

    def test_rejects_joint_input(self):
        m = np.zeros((3, 3))
        joint = symmetrize(SimilarityMatrix(m, "conditional"))
        with pytest.raises(ValueError):
            symmetrize(joint)

    @given(st.floats(0, 1), st.floats(0, 1))
    def test_paper_variant_stays_in_unit_interval(self, a, b):
        assert 0.0 <= self.joint_of(a, b) <= 1.0

    def test_joint_of_bitwise_asymmetric_geodesics_is_symmetric(self):
        # Dijkstra sums each path from its own source, so d_ij and d_ji
        # can differ in the last bits; the joint form is symmetric anyway
        g = two_block_sbm(n=40, p_intra=0.15, p_inter=0.02, seed=0)
        d = geodesic_distances(g, "euclidean", 10.0)
        assert not np.array_equal(d.matrix, d.matrix.T)
        assert np.allclose(d.matrix, d.matrix.T, rtol=1e-14, atol=0.0)
        calib = calibrate_all(d.matrix, 100.0, 16.0)
        joint = symmetrize(conditional_similarity(d, 100.0, calib))
        assert np.array_equal(joint.matrix, joint.matrix.T)
        Z = np.random.default_rng(0).standard_normal((g.n, 3))
        for kind in BregmanKind:
            terms, grad = fused_loss(joint, joint, Z, 1.0, 0.5, kind)
            assert np.isfinite(terms.total) and np.isfinite(grad).all()


# Frozen copy of the whole-array kernel and symmetrization that the row
# blocks replaced: the blocked code must give the same bits.


def _oracle_t_kernel(d, nu):
    log_k = similarity._kernel_log_const(nu) - 0.5 * (nu + 1.0) * np.log1p(d * d / nu)
    return np.exp(log_k)


def _oracle_conditional(d, nu, rho, sigma):
    p = _oracle_t_kernel((d - rho[:, None]) / sigma[:, None], nu)
    np.fill_diagonal(p, 0.0)
    return p


def _oracle_symmetrize(m):
    joint = m + m.T - 2.0 * m * m.T
    np.fill_diagonal(joint, 0.0)
    return joint


class TestRowBlocksMatchWholeArrays:
    @pytest.mark.parametrize("block", [None, 64])
    @pytest.mark.parametrize("n", [3, 23, 300])
    def test_conditional_and_symmetrize_bit_for_bit(self, n, block, monkeypatch):
        # default blocks: 300 rows go 218 + 82; blocks of 64: 23 rows go 2 at a time
        if block is not None:
            monkeypatch.setattr(similarity, "_KERNEL_BLOCK", block)
        rng = np.random.default_rng(n)
        d = np.abs(rng.standard_normal((n, n))) * 3.0
        d = (d + d.T) / 2
        d[rng.random((n, n)) < 0.1] = 1e6  # the kernel underflows to 0 there
        np.fill_diagonal(d, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CalibrationWarning)  # n=3 misses the target
            calib = calibrate_all(d, 100.0, 4.0)
        cond = conditional_similarity(d, 100.0, calib)
        want = _oracle_conditional(d, 100.0, calib.rho, calib.sigma)
        assert cond.matrix.tobytes() == want.tobytes()
        assert n < 23 or (want == 0).sum() > n  # off-diagonal zeros are covered
        got = symmetrize(cond).matrix
        assert got.tobytes() == _oracle_symmetrize(want).tobytes()

    @pytest.mark.parametrize("block", [None, 64])
    def test_unreached_pairs_and_nan_bit_for_bit(self, block, monkeypatch):
        # unreached pairs (+inf) are written as 0 without the kernel; blocks of
        # 64 elements hold no inf, inf alone, or inf with NaN, which is kernelled
        if block is not None:
            monkeypatch.setattr(similarity, "_KERNEL_BLOCK", block)
        n = 40
        rng = np.random.default_rng(12)
        d = np.abs(rng.standard_normal((n, n))) * 3.0
        d[8:][rng.random((n - 8, n)) < 0.7] = np.inf
        d[20:24, 5] = np.nan
        np.fill_diagonal(d, 0.0)
        calib = CalibrationParams(rng.random(n) * 0.5, rng.random(n) + 0.5)
        want = _oracle_conditional(d, 100.0, calib.rho, calib.sigma)
        got = conditional_similarity(d, 100.0, calib).matrix
        assert got.tobytes() == want.tobytes()
        assert np.isnan(got).sum() == 4 and (got[8:] == 0).mean() > 0.6
        out = d.copy()
        conditional_similarity(out, 100.0, calib, out=out)
        assert out.tobytes() == want.tobytes()

    def test_t_kernel_in_place_matches_whole_array(self):
        d = np.abs(np.random.default_rng(1).standard_normal((5, 7))) * 4.0
        want = _oracle_t_kernel(d, 2.5)
        assert t_kernel(d, 2.5).tobytes() == want.tobytes()
        out = d.copy()
        assert t_kernel(out, 2.5, out=out) is out
        assert out.tobytes() == want.tobytes()

    def test_t_kernel_scalar_input_gives_float(self):
        got = t_kernel(1.5, 3.0)
        assert type(got) is float
        assert got == float(_oracle_t_kernel(np.float64(1.5), 3.0))


class TestEndToEnd:
    """The distance-to-joint-similarity pipeline as ``precompute`` runs it."""

    def test_similarity_from_distances_properties(self):
        # the complete-graph matrix: feature distances, calibration, kernel, symmetrization
        g = random_graph(np.random.default_rng(5), n=9, density=0.4)
        s, _ = precompute(g, TrainConfig(nu_input=100.0, q_p=8.0))
        assert s.kind == "joint"
        assert (s.matrix == s.matrix.T).all()
        assert (s.matrix >= 0).all() and (s.matrix <= 1).all()
        assert (np.diag(s.matrix) == 0).all()
        d = pairwise_distance(g.features, "euclidean")
        cond = conditional_similarity(d, 100.0, calibrate_all(d, 100.0, 8.0))
        # stored in float32: the float64 joint form, narrowed once
        assert s.matrix.dtype == np.float32
        assert s.matrix.tobytes() == similarity._narrow(symmetrize(cond).matrix, np.float32).tobytes()

    def test_graph_geodesic_similarity_smoke(self):
        # the prior matrix: the same pipeline on the graph's geodesic distances
        g = random_graph(np.random.default_rng(6), n=10, density=0.4)
        _, s = precompute(g, TrainConfig(nu_input=100.0, q_p=8.0))
        assert s.n == 10
        assert (s.matrix == s.matrix.T).all()

    def test_geodesic_object_and_its_matrix_give_the_same_bytes(self):
        # geodesic_distances returns the object; both steps take it or its array
        g = random_graph(np.random.default_rng(6), n=10, density=0.4)
        d = geodesic_distances(g, "euclidean", 10.0)
        by_object, by_array = calibrate_all(d, 100.0, 8.0), calibrate_all(d.matrix, 100.0, 8.0)
        assert by_object.rho.tobytes() == by_array.rho.tobytes()
        assert by_object.sigma.tobytes() == by_array.sigma.tobytes()
        got = conditional_similarity(d, 100.0, by_object).matrix
        assert got.tobytes() == conditional_similarity(d.matrix, 100.0, by_array).matrix.tobytes()


class TestWorkerCounts:
    """Calibration, kernel and symmetrization split over workers give the same bytes."""

    def calibrate(self, d, nu, q_p, monkeypatch, max_iter=100):
        """rho, sigma and the per-row outcome codes of ``calibrate_all``."""
        seen = []
        warn = similarity._warn_outcomes
        monkeypatch.setattr(
            similarity, "_warn_outcomes", lambda s, o, *a: seen.append(o.copy()) or warn(s, o, *a)
        )
        monkeypatch.setattr(similarity, "DEFAULT_MAX_ITER", max_iter)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CalibrationWarning)
            calib = calibrate_all(d, nu, q_p)
        return calib.rho.tobytes(), calib.sigma.tobytes(), seen[-1].tobytes()

    def test_oracle_cases_byte_identical(self, workers, monkeypatch):
        outcomes = set()
        for case in range(30):
            d, nu, q_p = oracle_case(case)
            got = []
            for w in (1, 2, 3):
                workers(w)
                got.append(self.calibrate(d, nu, q_p, monkeypatch))
            # one worker matches the oracle: TestCalibrateAll
            assert got[1] == got[0] and got[2] == got[0], case
            outcomes |= set(np.frombuffer(got[0][2], np.int8).tolist())
        # short searches stall
        d, nu, q_p = oracle_case(0)
        got = []
        for w in (1, 2, 3):
            workers(w)
            got.append(self.calibrate(d, nu, q_p, monkeypatch, max_iter=2))
        assert got[1] == got[0] and got[2] == got[0]
        outcomes |= set(np.frombuffer(got[0][2], np.int8).tolist())
        codes = (similarity._FOUND, similarity._BELOW, similarity._ABOVE, similarity._STALLED)
        assert outcomes == set(codes)

    @pytest.mark.parametrize("n", [3, 4, 20, 131])
    def test_short_rows_and_small_n(self, n, workers, monkeypatch):
        # n - 1 <= 128 takes the whole off-diagonal rows; 3 and 4 rows on 3 workers
        rng = np.random.default_rng(n)
        d = symmetric(rng.uniform(0.1, 3.0, (n, n)))
        got = []
        for w in (1, 2, 3):
            workers(w)
            got.append(self.calibrate(d, 100.0, 2.0, monkeypatch))
        assert got[1] == got[0] and got[2] == got[0]

    def test_one_warning_from_three_workers(self, workers):
        workers(3)
        d = np.full((140, 140), 2.0)
        d[:40] = np.arange(140.0)
        d = symmetric(d)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            calibrate_all(d, 100.0, 16.0)
        assert [w.category for w in caught] == [CalibrationWarning]

    def test_conditional_and_joint_byte_identical(self, workers):
        rng = np.random.default_rng(5)
        n = 61
        d = symmetric(rng.uniform(0.1, 3.0, (n, n)))
        got = []
        for w in (1, 2, 3):
            workers(w)
            calib = calibrate_all(d, 100.0, 4.0)
            cond = conditional_similarity(d, 100.0, calib)
            got.append([cond.matrix.tobytes(), symmetrize(cond).matrix.tobytes()])
        want = _oracle_conditional(d, 100.0, calib.rho, calib.sigma)
        assert got[0] == [want.tobytes(), _oracle_symmetrize(want).tobytes()]
        assert got[1] == got[0] and got[2] == got[0]


class TestOutArguments:
    """The kernel and the joint form written into a given buffer, the distances' own included."""

    @pytest.mark.parametrize("tile", [None, 7])
    @pytest.mark.parametrize("w", [1, 2, 3])
    def test_out_forms_equal_copying_forms(self, w, tile, workers, monkeypatch):
        workers(w)
        if tile is not None:  # 7-wide tiles: many pairs and a ragged last tile
            monkeypatch.setattr(distances, "_TILE", tile)
        rng = np.random.default_rng(11)
        n = 150
        d = rng.uniform(0.1, 3.0, (n, n))
        d[rng.random((n, n)) < 0.05] = 1e6  # the kernel underflows to 0 there
        d = symmetric(d)
        calib = calibrate_all(d, 100.0, 4.0)
        rho, sigma, d_bytes = calib.rho.tobytes(), calib.sigma.tobytes(), d.tobytes()
        cond = conditional_similarity(d, 100.0, calib)
        cond_bytes = cond.matrix.tobytes()
        joint = symmetrize(cond).matrix
        want = _oracle_conditional(d, 100.0, calib.rho, calib.sigma)
        assert cond_bytes == want.tobytes()
        assert joint.tobytes() == _oracle_symmetrize(want).tobytes()
        assert d.tobytes() == d_bytes and cond.matrix.tobytes() == cond_bytes

        # into separate buffers: the inputs stay as they were
        buf = np.full((n, n), np.nan)
        got = conditional_similarity(d, 100.0, calib, out=buf)
        assert got.matrix is buf and buf.tobytes() == cond_bytes
        buf = np.full((n, n), np.nan)
        got = symmetrize(cond, out=buf)
        assert got.matrix is buf and buf.tobytes() == joint.tobytes()
        assert d.tobytes() == d_bytes and cond.matrix.tobytes() == cond_bytes

        # in the distance buffer itself, as precompute runs them; a
        # GeodesicDistanceMatrix gives its matrix
        work = d.copy()
        geodesic = distances.GeodesicDistanceMatrix(work)
        got = conditional_similarity(geodesic, 100.0, calib, out=work)
        assert got.matrix is work and work.tobytes() == cond_bytes
        got = symmetrize(got, out=work)
        assert got.matrix is work and work.tobytes() == joint.tobytes()
        assert calib.rho.tobytes() == rho and calib.sigma.tobytes() == sigma


def components_case(seed):
    """Distance matrix, nu and q_p of components of 20 to 40 nodes, inf between them."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(20, 41, 6)
    d = np.full((sizes.sum(), sizes.sum()), np.inf)
    for a, b in zip(np.cumsum(sizes) - sizes, np.cumsum(sizes)):
        d[a:b, a:b] = rng.uniform(0.1, 3.0, (b - a, b - a))
    return symmetric(d), 100.0, 16.0


class TestSecondTier:
    """Open brackets on the nearest distances are bracketed again on more of them."""

    def record(self, monkeypatch):
        """Tier sizes 16 and 48; records the rows partitioned for the second tier and summed in full."""
        monkeypatch.setattr(similarity, "_NEAREST", 16)
        monkeypatch.setattr(similarity, "_MIDDLE", 48)
        seen = {"middle": [], "largest": [], "full": 0}
        tier, off_diagonal = similarity._Rows.tier, similarity._off_diagonal

        class Reads(np.ndarray):
            """The distance matrix, recording the rows read from it."""

            def __getitem__(self, rows):
                seen["middle"] += np.asarray(rows).tolist()
                return self.view(np.ndarray)[rows]

        def second_tier(part, t, idx):
            if t != 1:
                return tier(part, t, idx)
            # the second tier reads a row from d only to partition it
            d, part.d = part.d, part.d.view(Reads)
            try:
                near = tier(part, t, idx)
            finally:
                part.d = d
            seen["largest"] += near[:, -1].tolist()
            return near

        def full_rows(d, idx):
            seen["full"] += idx.size
            return off_diagonal(d, idx)

        monkeypatch.setattr(similarity._Rows, "tier", second_tier)
        monkeypatch.setattr(similarity, "_off_diagonal", full_rows)
        return seen

    def calibrate(self, d, nu, q_p):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CalibrationWarning)
            return calibrate_all(d, nu, q_p)

    @pytest.mark.parametrize("case", [*range(12), "components 0", "components 1"])
    def test_small_tiers_match_row_by_row_oracle_bit_for_bit(self, case, workers, monkeypatch):
        # two cases of every oracle_case kind, and two of components of 20 to
        # 40 nodes, whose rows' 48 nearest hold inf; one worker, so the calls
        # are seen here
        workers(1)
        seen = self.record(monkeypatch)
        d, nu, q_p = components_case(int(case[-1])) if isinstance(case, str) else oracle_case(case)
        calib = self.calibrate(d, nu, q_p)
        rho, sigma = oracle_calibrate_all(d, nu, q_p)
        assert calib.rho.tobytes() == rho.tobytes()
        assert calib.sigma.tobytes() == sigma.tobytes()
        # the second tier is entered, and each row is partitioned for it once at most
        assert seen["middle"]
        assert len(set(seen["middle"])) == len(seen["middle"]) <= d.shape[0]
        if isinstance(case, str):
            # the second tier's largest distance is inf
            assert np.isinf(seen["largest"]).all()

    def test_fewer_full_rescans_on_sparse_graph_geodesics(self, workers, monkeypatch):
        workers(1)
        seen = self.record(monkeypatch)
        d, nu, q_p = oracle_case(3)  # geodesics of a sparse graph with many components
        two = self.calibrate(d, nu, q_p)
        two_tiers = seen["full"]
        seen["full"] = 0
        monkeypatch.setattr(similarity, "_MIDDLE", d.shape[0])  # no second tier
        one = self.calibrate(d, nu, q_p)
        assert two.sigma.tobytes() == one.sigma.tobytes()
        assert 0 < two_tiers < seen["full"]


# ------------------------------------------------- reach-limited geodesics


def reach_case(case):
    """A connected kNN graph, its metric and q_p, on which the rounds run."""
    from dmage.graph import knn_graph

    if case == "cora":  # Cora-shaped: sparse binary words, cosine, the preset's k
        return knn_graph(cora_shaped(900).features, 15, "cosine"), "cosine", 16.0
    rng = np.random.default_rng(case)
    if case % 3 == 0:
        x = (rng.random((400, 30)) < 0.2).astype(float)
        return knn_graph(x, 8, "cosine"), "cosine", 2.0
    if case % 3 == 1:
        return knn_graph(rng.standard_normal((400, 3)), 5, "euclidean"), "euclidean", 2.0
    return knn_graph(rng.standard_normal((400, 3)), 5, "manhattan"), "manhattan", 2.0


def full_path(g, metric, q_p, nu=100.0):
    """The full computation: every row searched in full, then calibrated."""
    d = geodesic_distances(g, metric, 10.0).matrix
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CalibrationWarning)
        return d, calibrate_all(d, nu, q_p)


def reach_limited(g, metric, q_p, nu=100.0):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CalibrationWarning)
        return similarity._calibrated_geodesics(g, metric, 10.0, nu, q_p)


def joint_of(d, calib, nu=100.0):
    return symmetrize(conditional_similarity(d, nu, calib)).matrix


def within_reach(d0, calib0, nu=100.0):
    """Where the full computation's distances lie within their row's reach."""
    reach = calib0.rho + similarity._kernel_reach(nu) * calib0.sigma
    return d0 <= reach[:, None]


def joint_within_reach(d0, calib0, nu=100.0):
    """The full computation's joint form with each conditional beyond its row's reach set to 0."""
    cond = conditional_similarity(d0, nu, calib0).matrix
    beyond = ~within_reach(d0, calib0, nu)
    assert (cond[beyond] < similarity._FLOOR).all()
    cond[beyond] = 0.0
    return symmetrize(SimilarityMatrix(cond, "conditional")).matrix


class TestReachLimitedGeodesics:
    """A connected graph's rows are computed only as far as the kernel reaches."""

    @pytest.mark.parametrize("nu", [0.5, 1.0, 10.0, 100.0, 1e4])
    def test_kernel_falls_to_the_floor_at_the_reach(self, nu):
        x = similarity._kernel_reach(nu)
        assert t_kernel(x, nu) == pytest.approx(similarity._FLOOR, rel=1e-9)
        assert similarity._FLOOR == np.finfo(np.float32).tiny / 4
        if nu == 100.0:
            assert round(x, 1) == 21.9

    @pytest.mark.parametrize("case", [0, 1, 2, 3, "cora"])
    def test_full_computation_within_the_reach(self, case, workers, monkeypatch):
        # the rounds' bytes, wherever they run: case 2's sample predicts 0.81
        # of the pairs, which no longer takes the rounds, so the margin is lifted
        monkeypatch.setattr(similarity, "_ROUNDS_SHARE", 1.0)
        g, metric, q_p = reach_case(case)
        d0, calib0 = full_path(g, metric, q_p)
        got = []
        for w in (1, 2, 3):
            workers(w)
            d, calib, computed = reach_limited(g, metric, q_p)
            got.append((d.tobytes(), calib.rho.tobytes(), calib.sigma.tobytes()))
        # the rounds ran: fewer pairs than in full, and some rows extended
        assert computed.pairs < 0.9 and computed.extended > 0 and computed.full < g.n, computed
        assert got[1] == got[0] and got[2] == got[0]
        # rho and sigma are the full computation's, bit for bit
        assert calib.rho.tobytes() == calib0.rho.tobytes()
        assert calib.sigma.tobytes() == calib0.sigma.tobytes()
        # every distance within a row's reach has the full computation's bits,
        # and every one beyond it is inf
        inside = within_reach(d0, calib0)
        assert np.isfinite(d).tolist() == inside.tolist()
        assert d[inside].tobytes() == d0[inside].tobytes()
        assert not inside.all()
        # the joint form is the full one with each conditional beyond the
        # reach set to 0, and differs from it by less than twice the floor
        p = joint_of(d, calib)
        assert p.tobytes() == joint_within_reach(d0, calib0).tobytes()
        assert 0.0 < np.abs(p - joint_of(d0, calib0)).max() < 2.0 * similarity._FLOOR

    def test_disconnected_knn_graph_and_isolated_nodes_take_the_full_path(self):
        from dmage.graph import AttributedGraph, knn_graph

        rng = np.random.default_rng(7)
        x = rng.standard_normal((300, 3))
        x[150:] += 100.0  # two clusters, no kNN edge between them
        knn = knn_graph(x, 5, "euclidean")
        edges = {(i, j) for i, j in knn.edges if max(i, j) < 280}  # 20 isolated nodes
        isolated = AttributedGraph(300, frozenset(edges), x, None)
        for g in (knn, isolated):
            d0, calib0 = full_path(g, "euclidean", 2.0)
            d, calib, computed = reach_limited(g, "euclidean", 2.0)
            assert d.tobytes() == d0.tobytes()
            assert calib.rho.tobytes() == calib0.rho.tobytes()
            assert calib.sigma.tobytes() == calib0.sigma.tobytes()
            assert (computed.pairs, computed.extended, computed.full) == (1.0, 0, 300)

    def test_every_row_in_full_where_the_reach_covers_the_graph(self):
        # a dense block model: the sample's reaches cover every node, so the
        # rounds would cost more than one full search per row
        g = two_block_sbm(n=300, p_intra=0.1, p_inter=0.01, feature_dim=16, seed=0)
        d0, calib0 = full_path(g, "euclidean", 16.0)
        d, calib, computed = reach_limited(g, "euclidean", 16.0)
        assert (computed.pairs, computed.extended, computed.full) == (1.0, 0, 300)
        assert d.tobytes() == d0.tobytes()
        assert calib.sigma.tobytes() == calib0.sigma.tobytes()

    def test_every_row_in_full_without_a_clear_saving(self, monkeypatch):
        # a 2-D Manhattan kNN graph whose sample predicts 0.91 of the pairs of
        # full searches, on which the rounds searched more than full searches
        from dmage.graph import knn_graph

        g = knn_graph(np.random.default_rng(7).standard_normal((300, 2)), 5, "manhattan")
        d0, calib0 = full_path(g, "manhattan", 4.0)
        d, calib, computed = reach_limited(g, "manhattan", 4.0)
        assert (computed.pairs, computed.extended, computed.full) == (1.0, 0, 300)
        assert d.tobytes() == d0.tobytes()
        assert calib.rho.tobytes() == calib0.rho.tobytes()
        assert calib.sigma.tobytes() == calib0.sigma.tobytes()
        # without the margin the rounds run, and search more pairs
        monkeypatch.setattr(similarity, "_ROUNDS_SHARE", 1.0)
        assert reach_limited(g, "manhattan", 4.0)[2].pairs > 1.0

    def test_a_connected_graph_the_rounds_skip_takes_the_public_full_route(self, monkeypatch):
        # a sample that predicts no saving sends a connected graph down the
        # route of small and disconnected graphs: the public functions, once each
        monkeypatch.setattr(similarity, "_ROUNDS_SHARE", 0.0)
        g, metric, q_p = reach_case(1)
        d0, calib0 = full_path(g, metric, q_p)
        assert np.isfinite(d0).all()  # connected
        calls = []
        for name in ("geodesic_distances", "calibrate_all"):

            def spy(*args, _name=name, _fn=getattr(similarity, name), **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(similarity, name, spy)
        d, calib, computed = reach_limited(g, metric, q_p)
        assert sorted(calls) == ["calibrate_all", "geodesic_distances"]
        assert d.tobytes() == d0.tobytes()
        assert calib.rho.tobytes() == calib0.rho.tobytes()
        assert calib.sigma.tobytes() == calib0.sigma.tobytes()
        assert (computed.pairs, computed.extended, computed.full) == (1.0, 0, g.n)

    def searched_in_full(self, monkeypatch):
        """The sources that the rounds search without a limit, as they are searched."""
        seen = []
        search = similarity._search_rows

        def spy(graph, dist, sources, limit):
            seen.extend(sources[np.isinf(limit)].tolist())
            return search(graph, dist, sources, limit)

        monkeypatch.setattr(similarity, "_search_rows", spy)
        return seen

    @pytest.mark.parametrize("case", [0, 1, 2])
    def test_rows_that_escalate_are_searched_in_full(self, case, workers, monkeypatch):
        # tiers of 8 and 24 nearest: many rows go past the first tier
        workers(1)
        monkeypatch.setattr(similarity, "_NEAREST", 8)
        monkeypatch.setattr(similarity, "_MIDDLE", 24)
        g, metric, q_p = reach_case(case)
        d0 = geodesic_distances(g, metric, 10.0).matrix
        escalating = []
        tier = similarity._Rows.tier

        def second_tier(part, t, idx):
            if t == 1:
                escalating.extend(part.index[idx].tolist())
            return tier(part, t, idx)

        monkeypatch.setattr(similarity._Rows, "tier", second_tier)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CalibrationWarning)
            calib0 = calibrate_all(d0, 100.0, q_p)
        escalating, tier2 = [], set(escalating)
        full = self.searched_in_full(monkeypatch)
        d, calib, computed = reach_limited(g, metric, q_p)
        assert tier2 and tier2 <= set(full)
        assert computed.full == len(full) < g.n
        assert calib.rho.tobytes() == calib0.rho.tobytes()
        assert calib.sigma.tobytes() == calib0.sigma.tobytes()
        assert joint_of(d, calib).tobytes() == joint_within_reach(d0, calib0).tobytes()

    def test_rows_short_of_their_nearest_are_searched_in_full(self, workers, monkeypatch):
        # a first radius below most rows' 128th nearest distance
        workers(1)
        monkeypatch.setattr(similarity, "_SLACK", 0.95)
        g, metric, q_p = reach_case("cora")
        d0, calib0 = full_path(g, metric, q_p)
        full = self.searched_in_full(monkeypatch)
        d, calib, computed = reach_limited(g, metric, q_p)
        nearest = np.sort(d0, axis=1)[:, similarity._NEAREST]
        sample = np.unique(np.linspace(0, g.n - 1, similarity._SAMPLE).round().astype(int))
        short = set(np.flatnonzero(nearest > 0.95 * nearest[sample].max()).tolist())
        assert short and short <= set(full)
        assert calib.rho.tobytes() == calib0.rho.tobytes()
        assert calib.sigma.tobytes() == calib0.sigma.tobytes()
        assert joint_of(d, calib).tobytes() == joint_within_reach(d0, calib0).tobytes()
