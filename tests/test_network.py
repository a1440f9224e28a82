import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from dmage import network
from dmage.augmentation import AugmentationConfig, AugmentationWarning, augment
from dmage.graph import adjacency, adjacency_from_edges, hop_neighborhoods
from dmage.losses import BregmanKind, fused_loss
from dmage.network import (
    GradientTape,
    LayerSpec,
    NetworkParams,
    StaleTapeError,
    aggregation_matrix,
    backward,
    default_stack,
    forward,
    init_network,
)
from dmage.training import _cast

from conftest import assert_same_csr, random_graph


# ---------------------------------------------------------------- oracles


def matmul_oracle(Z, W, B):
    """Scalar triple loop for an act-free fc layer."""
    n, d_in = Z.shape
    d_out = W.shape[1]
    out = np.zeros((n, d_out))
    for i in range(n):
        for j in range(d_out):
            s = B[j]
            for k in range(d_in):
                s += Z[i, k] * W[k, j]
            out[i, j] = s
    return out


def fca_oracle(Z, A_dense, W, B):
    """Dense scalar oracle of D^(-1/2) (A+I) D^(-1/2) (ZW + B)."""
    n = A_dense.shape[0]
    with_loops = A_dense + np.eye(n)
    deg = with_loops.sum(axis=1)
    norm = np.diag(1.0 / np.sqrt(deg)) @ with_loops @ np.diag(1.0 / np.sqrt(deg))
    return norm @ (matmul_oracle(Z, W, B))


def fc_forward(Z, W, B, activation="linear"):
    """``forward`` through one fc layer with weights ``W`` and bias ``B``."""
    spec = LayerSpec("fc", W.shape[0], W.shape[1], activation)
    return forward(Z, None, NetworkParams((spec,), [W], [B], 0))


def fca_forward(Z, N, W, B):
    """``forward`` through one fca layer with operator ``N``."""
    spec = LayerSpec("fca", W.shape[0], W.shape[1])
    return forward(Z, N, NetworkParams((spec,), [W], [B], 0))


# ---------------------------------------------------------------- init


class TestInitNetwork:
    def test_same_seed_bit_identical(self):
        specs = default_stack(6, (5, 4), 3)
        a = init_network(specs, 42)
        b = init_network(specs, 42)
        for wa, wb in zip(a.weights, b.weights):
            assert (wa == wb).all()

    def test_different_seeds_differ(self):
        specs = (LayerSpec("fc", 4, 3),)
        assert not (init_network(specs, 0).weights[0] == init_network(specs, 1).weights[0]).all()

    def test_shapes_and_zero_biases(self):
        params = init_network((LayerSpec("fc", 4, 3),), 0)
        assert params.weights[0].shape == (4, 3)
        assert params.biases[0].shape == (3,)
        assert (params.biases[0] == 0).all()

    def test_glorot_bounds(self):
        params = init_network((LayerSpec("fc", 300, 200),), 7)
        limit = np.sqrt(6.0 / 500)
        w = params.weights[0]
        assert (np.abs(w) <= limit).all()
        # uniform draw should come close to the bounds with this many samples
        assert np.abs(w).max() > 0.9 * limit

    def test_rejects_broken_chain(self):
        with pytest.raises(ValueError):
            init_network((LayerSpec("fc", 4, 3), LayerSpec("fc", 5, 2)), 0)


class TestDefaultStack:
    def test_architecture_shape(self):
        specs = default_stack(1433)
        dims = [(s.kind, s.in_dim, s.out_dim) for s in specs]
        assert dims == [
            ("fc", 1433, 500),
            ("fc", 500, 250),
            ("fca", 250, 250),
            ("fc", 250, 200),
        ]
        assert specs[0].activation == "leaky_relu"
        assert specs[-1].activation == "linear"

    def test_no_fca_swaps_to_linear_fc(self):
        specs = default_stack(10, (8, 6), 4, no_fca=True)
        kinds = [s.kind for s in specs]
        assert "fca" not in kinds
        assert specs[2].in_dim == specs[2].out_dim == 6
        assert specs[2].activation == "linear"

    def test_exactly_one_fca_layer(self):
        specs = default_stack(10)
        assert sum(s.kind == "fca" for s in specs) == 1
        assert specs[-2].kind == "fca"


# ---------------------------------------------------------------- layer ops


class TestFcForward:
    def test_identity_passthrough(self):
        Z = np.random.default_rng(0).standard_normal((5, 3))
        out = fc_forward(Z, np.eye(3), np.zeros(3), "linear")
        assert np.allclose(out, Z)

    def test_zero_weight_broadcasts_bias(self):
        out = fc_forward(np.ones((4, 2)), np.zeros((2, 3)), np.array([1.0, 2.0, 3.0]))
        assert (out == np.array([1.0, 2.0, 3.0])).all()

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(1)
        Z = rng.standard_normal((3, 4))
        W = rng.standard_normal((4, 5))
        B = rng.standard_normal(5)
        assert np.allclose(fc_forward(Z, W, B), matmul_oracle(Z, W, B), atol=1e-12)

    def test_leaky_relu_activation(self):
        Z = np.array([[-2.0, 3.0]])
        out = fc_forward(Z, np.eye(2), np.zeros(2), "leaky_relu")
        assert np.allclose(out, [[-0.02, 3.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            fc_forward(np.ones((2, 3)), np.ones((4, 2)), np.zeros(2))

    def test_relu_activation_rejected(self):
        with pytest.raises(ValueError, match="unknown activation 'relu'"):
            LayerSpec("fc", 2, 2, "relu")


class TestFcaForward:
    def test_no_edges_reduces_to_linear(self):
        rng = np.random.default_rng(2)
        g = random_graph(rng, n=5)
        g = g.with_edges([])
        Z = rng.standard_normal((5, 3))
        W = rng.standard_normal((3, 2))
        B = rng.standard_normal(2)
        out = fca_forward(Z, aggregation_matrix(adjacency(g)), W, B)
        assert np.allclose(out, Z @ W + B)

    def test_connected_identical_rows_agree(self):
        # two connected nodes with the same features and the same neighborhood
        from dmage.graph import AttributedGraph, normalize_edges

        feats = np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 1.0]])
        g = AttributedGraph(3, normalize_edges([(0, 1), (0, 2), (1, 2)]), feats, None)
        W = np.random.default_rng(3).standard_normal((2, 2))
        out = fca_forward(feats, aggregation_matrix(adjacency(g)), W, np.zeros(2))
        assert np.allclose(out[0], out[1])

    def test_matches_dense_scalar_oracle(self):
        rng = np.random.default_rng(4)
        g = random_graph(rng, n=5, density=0.5, dims=3)
        Z = rng.standard_normal((5, 3))
        W = rng.standard_normal((3, 4))
        B = rng.standard_normal(4)
        got = fca_forward(Z, aggregation_matrix(adjacency(g)), W, B)
        want = fca_oracle(Z, adjacency(g).toarray(), W, B)
        assert np.allclose(got, want, atol=1e-12)

    def test_constant_rows_preserved_on_regular_graph(self):
        # symmetric normalization has unit row sums only when degrees are
        # equal, so constant inputs pass through untouched on regular graphs
        from dmage.graph import AttributedGraph, normalize_edges

        n = 6
        cycle = [(i, (i + 1) % n) for i in range(n)]
        rng = np.random.default_rng(5)
        g = AttributedGraph(n, normalize_edges(cycle), rng.standard_normal((n, 3)), None)
        z = rng.standard_normal(3)
        Z = np.tile(z, (n, 1))
        W = rng.standard_normal((3, 2))
        B = rng.standard_normal(2)
        out = fca_forward(Z, aggregation_matrix(adjacency(g)), W, B)
        assert np.allclose(out, z @ W + B)

    def test_sqrt_degree_vector_is_fixed_point(self):
        # on irregular graphs the aggregation fixes sqrt(deg+1), not constants
        g = random_graph(np.random.default_rng(5), n=7, density=0.4)
        N = aggregation_matrix(adjacency(g)).toarray()
        root_deg = np.sqrt(np.diff(adjacency(g).indptr) + 1.0)
        assert np.allclose(N @ root_deg, root_deg)

    @pytest.mark.parametrize("args", [("verbatim", True), ("gcn", False), ("verbatim", False)])
    def test_retired_operators_rejected(self, args):
        g = random_graph(np.random.default_rng(6), n=6, density=0.5)
        with pytest.raises(ValueError, match="GCN-normalized with self-loops"):
            aggregation_matrix(adjacency(g), *args)

    def test_aggregation_matrix_symmetric(self):
        rng = np.random.default_rng(7)
        for density in (0.0, 0.3, 1.0):
            N = aggregation_matrix(adjacency(random_graph(rng, n=8, density=density))).toarray()
            assert np.array_equal(N, N.T)


def frozen_aggregation_matrix(A):
    """The operator as built before it was scaled in place: a diagonal matrix and two sparse products."""
    A = sp.csr_matrix(A, dtype=np.float64)
    base = (A + sp.identity(A.shape[0], format="csr")).tocsr()
    d_half = sp.diags(1.0 / np.sqrt(np.asarray(base.sum(axis=1)).ravel()))
    return (d_half @ base @ d_half).tocsr()


class TestOperatorMatchesFrozenCopy:
    """The in-place scaling gives the bytes of the two diagonal products."""

    def test_random_graphs_with_isolated_nodes(self):
        rng = np.random.default_rng(30)
        isolated = 0
        for trial in range(40):
            g = random_graph(rng, n=int(rng.integers(1, 40)), density=float(rng.uniform(0.0, 0.2)))
            A = adjacency(g)
            isolated += int((np.diff(A.indptr) == 0).sum())
            assert_same_csr(aggregation_matrix(A), frozen_aggregation_matrix(A))
        assert isolated > 40

    def test_augmented_edge_arrays(self):
        # kept edges then added hop-2 pairs: rows out of sorted order
        rng = np.random.default_rng(31)
        for trial in range(20):
            g = random_graph(rng, n=int(rng.integers(4, 40)), density=float(rng.uniform(0.05, 0.4)))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", AugmentationWarning)
                out = augment(g, hop_neighborhoods(g), AugmentationConfig(0.3, rng_seed=trial), trial)
            A = adjacency_from_edges(g.n, out.result)
            assert_same_csr(aggregation_matrix(A), frozen_aggregation_matrix(A))

    def test_weighted_dense_and_stored_zeros(self):
        rng = np.random.default_rng(32)
        for trial in range(60):
            n = int(rng.integers(1, 30))
            M = sp.random(n, n, density=float(rng.uniform(0.0, 0.5)), format="csr", random_state=trial)
            A = (M + M.T).tocsr()
            if trial % 2:
                A.data[A.data < 0.5] = 0.0  # stored zeros, symmetric as the values are
            for given in (A, A.toarray()):
                assert_same_csr(aggregation_matrix(given), frozen_aggregation_matrix(given))

    def test_entry_that_rounds_to_zero_is_dropped(self):
        # a subnormal weight on a row of degree 5 rounds to 0 once scaled,
        # and the sparse products do not store a zero result
        A = np.zeros((6, 6))
        A[0, 1:] = A[1:, 0] = 1.0
        A[0, 1] = A[1, 0] = 5e-324
        got = aggregation_matrix(A)
        assert_same_csr(got, frozen_aggregation_matrix(A))
        assert got.nnz == 6 + 8 and (got.data != 0).all()


# ---------------------------------------------------------------- forward/backward


class TestForward:
    def test_single_identity_layer(self):
        X = np.random.default_rng(8).standard_normal((4, 3))
        params = init_network((LayerSpec("fc", 3, 3),), 0)
        params.weights[0][:] = np.eye(3)
        assert np.allclose(forward(X, None, params), X)

    def test_purity(self):
        rng = np.random.default_rng(9)
        g = random_graph(rng, n=6)
        params = init_network(default_stack(4, (5, 4), 3), 1)
        N = aggregation_matrix(adjacency(g))
        a = forward(g.features, N, params)
        b = forward(g.features, N, params)
        assert (a == b).all()

    def test_output_dims(self):
        g = random_graph(np.random.default_rng(10), n=7)
        params = init_network(default_stack(4, (6, 5), 2), 2)
        Z = forward(g.features, aggregation_matrix(adjacency(g)), params)
        assert Z.shape == (7, 2)

    def test_fca_stack_needs_adjacency(self):
        params = init_network(default_stack(4, (5, 4), 3), 3)
        with pytest.raises(ValueError):
            forward(np.ones((5, 4)), None, params)

    def test_no_fca_vs_fca_differ_with_edges(self):
        rng = np.random.default_rng(11)
        g = random_graph(rng, n=6, density=0.6)
        with_fca = init_network(default_stack(4, (5, 4), 3), 4)
        without = init_network(default_stack(4, (5, 4), 3, no_fca=True), 4)
        # same draw order gives identical tensors; only the wiring differs
        for w1, w2 in zip(with_fca.weights, without.weights):
            assert (w1 == w2).all()
        Za = forward(g.features, aggregation_matrix(adjacency(g)), with_fca)
        Zb = forward(g.features, None, without)
        assert not np.allclose(Za, Zb)

    def test_tape_replay_reproduces_output(self):
        rng = np.random.default_rng(12)
        g = random_graph(rng, n=6)
        params = init_network(default_stack(4, (5, 4), 3), 5)
        tape = GradientTape()
        Z = forward(g.features, aggregation_matrix(adjacency(g)), params, tape)
        assert (tape.output == Z).all()
        Z2 = forward(g.features, aggregation_matrix(adjacency(g)), params)
        assert (Z2 == tape.output).all()


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        rng = np.random.default_rng(13)
        g = random_graph(rng, n=5)
        params = init_network(default_stack(4, (4, 3), 2), 6)
        tape = GradientTape()
        Z = forward(g.features, aggregation_matrix(adjacency(g)), params, tape)
        dW, dB = backward(tape, np.zeros_like(Z))
        assert all((g == 0).all() for g in dW)
        assert all((g == 0).all() for g in dB)

    def test_linear_layer_closed_form(self):
        # quadratic loss sum((XW - Y)^2): gradient is 2 X^T (XW - Y)
        rng = np.random.default_rng(14)
        X = rng.standard_normal((6, 4))
        Y = rng.standard_normal((6, 3))
        params = init_network((LayerSpec("fc", 4, 3),), 7)
        tape = GradientTape()
        Z = forward(X, None, params, tape)
        dW, dB = backward(tape, 2.0 * (Z - Y))
        want = 2.0 * X.T @ (X @ params.weights[0] + params.biases[0] - Y)
        assert np.allclose(dW[0], want, atol=1e-12)
        assert np.allclose(dB[0], 2.0 * (Z - Y).sum(axis=0), atol=1e-12)

    def test_full_stack_finite_differences(self):
        rng = np.random.default_rng(15)
        g = random_graph(rng, n=7, density=0.4, dims=5)
        params = init_network(default_stack(5, (6, 4), 3), 8)
        N = aggregation_matrix(adjacency(g))
        T = rng.standard_normal((7, 3))  # fixed target for a scalar loss

        def loss(params):
            Z = forward(g.features, N, params)
            return float(((Z - T) ** 2).sum())

        tape = GradientTape()
        Z = forward(g.features, N, params, tape)
        dW, dB = backward(tape, 2.0 * (Z - T))

        h = 1e-5
        worst = 0.0
        for l in range(len(params.specs)):
            for tensor, grad in ((params.weights[l], dW[l]), (params.biases[l], dB[l])):
                flat = tensor.ravel()
                for idx in range(0, flat.size, max(1, flat.size // 10)):
                    orig = flat[idx]
                    flat[idx] = orig + h
                    fp = loss(params)
                    flat[idx] = orig - h
                    fm = loss(params)
                    flat[idx] = orig
                    fd = (fp - fm) / (2 * h)
                    an = grad.ravel()[idx]
                    worst = max(worst, abs(fd - an) / max(1.0, abs(fd), abs(an)))
        assert worst <= 1e-4

    def test_stale_tape_detected(self):
        rng = np.random.default_rng(16)
        g = random_graph(rng, n=5)
        params = init_network(default_stack(4, (4, 3), 2), 9)
        tape = GradientTape()
        Z = forward(g.features, aggregation_matrix(adjacency(g)), params, tape)
        params.weights[0] += 0.1
        params.bump()
        with pytest.raises(StaleTapeError):
            backward(tape, np.zeros_like(Z))

    def test_empty_tape_rejected(self):
        with pytest.raises(StaleTapeError):
            backward(GradientTape(), np.zeros((2, 2)))


# ---------------------------------------------------------------- sparse first layer


def sparse_features(rng, n, dims, per_row=1):
    """Binary bag-of-words rows: row 0 is empty, every other row holds up to
    ``per_row`` words, one of them drawn without replacement, so with one
    word per row and ``n <= dims`` no two rows are equal."""
    X = np.zeros((n, dims))
    first = rng.permutation(max(dims, n))[: n - 1] % dims
    for i in range(1, n):
        X[i, first[i - 1]] = 1.0
        X[i, rng.choice(dims, per_row - 1, replace=False)] = 1.0
    return X


def sparse_graph(rng, n, dims, density=0.4, per_row=1):
    from dmage.graph import AttributedGraph

    g = random_graph(rng, n=n, density=density, dims=1)
    return AttributedGraph(n, g.edges, sparse_features(rng, n, dims, per_row), None)


class TestSparseFirstLayer:
    def test_path_follows_the_share_of_nonzeros(self):
        params = init_network((LayerSpec("fc", 32, 3),), 0)
        X = np.zeros((4, 32))
        X.flat[:4] = 1.0  # 4 of 128 entries: exactly the threshold share
        tape = GradientTape()
        forward(X, None, params, tape)
        assert sp.issparse(tape.inputs[0])
        X = X.copy()
        X.flat[5] = 1.0  # one entry more
        forward(X, None, params, tape)
        assert isinstance(tape.inputs[0], np.ndarray)
        forward(np.random.default_rng(0).standard_normal((4, 32)), None, params, tape)
        assert isinstance(tape.inputs[0], np.ndarray)

    @pytest.mark.parametrize(
        "case", ["empty rows", "all zero", "negative zero", "at the threshold", "row blocks"]
    )
    def test_csr_copy_is_scipys(self, case):
        rng = np.random.default_rng(4)
        X = np.zeros((8, 64))
        if case == "empty rows":
            X[[1, 1, 4, 7], [3, 40, 10, 63]] = (0.25, -3.0, np.nan, 1e-310)
        elif case == "negative zero":
            X[::2, ::3] = -0.0
            X[3, [2, 5, 63]] = (-1.5, 2.0, 1e-300)
        elif case == "at the threshold":
            X.flat[rng.choice(X.size, X.size // 32, replace=False)] = 1.0
        elif case == "row blocks":
            # the nonzeros are found in blocks of 64k entries: 16 rows of 4096
            X = np.zeros((40, 1 << 12))
            X[[0, 15, 16, 31, 39], [0, (1 << 12) - 1, 0, 7, 5]] = (3.0, -4.0, 1.0, 2.0, -0.5)
        got = network._input_rows(X, None)
        want = sp.csr_array(X)
        assert sp.issparse(got)
        for field in ("indptr", "indices", "data"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field
        assert got.shape == want.shape
        assert got.has_canonical_format == want.has_canonical_format

    def test_one_entry_above_the_threshold_stays_dense(self):
        X = np.zeros((8, 64))
        X.flat[: X.size // 32 + 1] = -0.5
        got = network._input_rows(X, None)
        assert isinstance(got, np.ndarray) and got.tobytes() == X.tobytes()

    def test_hidden_layers_stay_dense(self):
        rng = np.random.default_rng(30)
        g = sparse_graph(rng, 12, 64)
        params = init_network(default_stack(64, (6, 4), 3), 0)
        tape = GradientTape()
        forward(g.features, aggregation_matrix(adjacency(g)), params, tape)
        assert sp.issparse(tape.inputs[0])
        assert all(isinstance(z, np.ndarray) for z in tape.inputs[1:])

    def test_full_stack_finite_differences_through_csr(self):
        """Every weight and bias of the fused-loss pipeline, as in acceptance test 03."""
        rng = np.random.default_rng(31)
        kinds = list(BregmanKind)
        h = 1e-5
        for trial in range(3):
            n, dims = int(rng.integers(6, 11)), 40
            g = sparse_graph(rng, n, dims)
            params = init_network(default_stack(dims, (5, 4), 3, "leaky_relu"), seed=trial)
            # nonzero biases keep the empty rows' pre-activations off the kink at 0
            for B in params.biases:
                B[:] = rng.uniform(-0.5, 0.5, B.shape)
            N = aggregation_matrix(adjacency(g))
            P = [rng.uniform(0, 1, (n, n)) for _ in range(2)]
            Pc, Pp = [(p + p.T) / 2 for p in P]
            np.fill_diagonal(Pc, 0.0)
            np.fill_diagonal(Pp, 0.0)
            kind = kinds[trial % len(kinds)]

            def total_loss():
                return fused_loss(Pc, Pp, forward(g.features, N, params), 1.0, 0.7, kind)[0].total

            tape = GradientTape()
            Z = forward(g.features, N, params, tape)
            assert sp.issparse(tape.inputs[0])
            dW, dB = backward(tape, fused_loss(Pc, Pp, Z, 1.0, 0.7, kind)[1])
            worst = 0.0
            for l in range(len(params.specs)):
                for tensor, grad in ((params.weights[l], dW[l]), (params.biases[l], dB[l])):
                    flat, gflat = tensor.ravel(), grad.ravel()
                    for idx in range(flat.size):
                        orig = flat[idx]
                        flat[idx] = orig + h
                        fp = total_loss()
                        flat[idx] = orig - h
                        fm = total_loss()
                        flat[idx] = orig
                        fd = (fp - fm) / (2 * h)
                        worst = max(worst, abs(fd - gflat[idx]) / max(1.0, abs(fd), abs(gflat[idx])))
            assert worst <= 1e-4, f"trial {trial}: max rel err {worst:.2e}"

    def test_matches_dense_oracle(self, monkeypatch):
        rng = np.random.default_rng(32)
        g = sparse_graph(rng, 300, 500, density=0.02, per_row=6)
        N = aggregation_matrix(adjacency(g))
        params = init_network(default_stack(500, (40, 30), 8), 3)
        upstream = rng.standard_normal((300, 8))

        def run():
            tape = GradientTape()
            Z = forward(g.features, N, params, tape)
            return tape, Z, backward(tape, upstream)

        tape, Z, (dW, dB) = run()
        assert sp.issparse(tape.inputs[0])
        # every input now takes the dense first layer, the oracle of the CSR one
        monkeypatch.setattr(network, "_SPARSE_DENSITY", -1.0)
        tape, Z_ref, (dW_ref, dB_ref) = run()
        assert isinstance(tape.inputs[0], np.ndarray)
        for got, want in zip([Z, *dW, *dB], [Z_ref, *dW_ref, *dB_ref]):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_tape_reuses_rows_of_the_same_array_only(self):
        rng = np.random.default_rng(33)
        g = sparse_graph(rng, 10, 64)
        N = aggregation_matrix(adjacency(g))
        params = init_network(default_stack(64, (6, 4), 3), 4)
        tape = GradientTape()
        forward(g.features, N, params, tape)
        rows = tape.inputs[0]
        forward(g.features, N, params, tape)
        assert tape.inputs[0] is rows

        other = sparse_features(rng, 10, 64)  # a new array object, new values
        Z = forward(other, N, params, tape)
        assert tape.inputs[0] is not rows
        assert (tape.inputs[0].toarray() == other).all()
        assert Z.tobytes() == forward(other, N, params).tobytes()
        copy = other.copy()  # equal values, another object: rebuilt as well
        forward(copy, N, params, tape)
        assert tape.source is copy

    def test_reused_tape_still_detects_stale_parameters(self):
        rng = np.random.default_rng(34)
        g = sparse_graph(rng, 8, 64)
        N = aggregation_matrix(adjacency(g))
        params = init_network(default_stack(64, (6, 4), 3), 5)
        tape = GradientTape()
        Z = forward(g.features, N, params, tape)
        params.weights[0] += 0.1
        params.bump()
        with pytest.raises(StaleTapeError):
            backward(tape, np.ones_like(Z))
        Z = forward(g.features, N, params, tape)
        dW, _ = backward(tape, np.ones_like(Z))
        assert dW[0].shape == (64, 6)


# ---------------------------------------------------------------- row restriction


def isolated_graph(rng, n=12, isolated=(0, 5, 11)):
    """A random graph whose nodes ``isolated`` have no edge."""
    from dmage.graph import AttributedGraph

    g = random_graph(rng, n=n, density=0.5)
    edges = frozenset(e for e in g.edges if not set(e) & set(isolated))
    return AttributedGraph(n, edges, g.features, None)


def restricted_cases():
    """(name, graph, stack options) of the restriction tests."""
    rng = np.random.default_rng(40)
    return [
        ("gcn", random_graph(rng, n=14, density=0.2), {}),
        ("no_fca", random_graph(rng, n=9), {"no_fca": True}),
        ("isolated", isolated_graph(rng), {}),
        ("csr layer 0", sparse_graph(rng, 13, 64, density=0.15), {}),
    ]


def full_and_restricted(g, options, rows, upstream, seed=0):
    """Output rows and gradients of the full pass (upstream zero outside ``rows``)
    and of the pass restricted to ``rows``."""
    specs = default_stack(g.features.shape[1], (6, 5), 3, **options)
    params = init_network(specs, seed)
    for B in params.biases:
        B[:] = np.random.default_rng(seed).uniform(-0.5, 0.5, B.shape)
    N = None if options.get("no_fca") else aggregation_matrix(adjacency(g))
    tape = GradientTape()
    Z = forward(g.features, N, params, tape)
    masked = np.zeros_like(upstream)
    masked[rows] = upstream[rows]
    full = (Z[rows], *backward(tape, masked))
    Zr = forward(g.features, N, params, tape, rows)
    return full, (Zr, *backward(tape, upstream[rows])), tape


class TestRowRestriction:
    @pytest.mark.parametrize("case", range(4), ids=[c[0] for c in restricted_cases()])
    def test_gradients_match_the_full_pass(self, case):
        _, g, options = restricted_cases()[case]
        rng = np.random.default_rng(41 + case)
        for m in range(2, g.n + 1):
            for _ in range(3):
                rows = np.sort(rng.choice(g.n, m, replace=False))
                upstream = rng.standard_normal((g.n, 3))
                (Z, dW, dB), (Zr, dWr, dBr), _ = full_and_restricted(g, options, rows, upstream, m)
                assert Zr.shape == Z.shape
                for want, got in zip([Z, *dW, *dB], [Zr, *dWr, *dBr]):
                    assert got.shape == want.shape
                    assert np.abs(got - want).max() <= 1e-12 * max(np.abs(want).max(), 1e-300)

    @pytest.mark.parametrize("case", range(4), ids=[c[0] for c in restricted_cases()])
    def test_layers_run_on_the_receptive_field(self, case):
        _, g, options = restricted_cases()[case]
        rows = np.arange(0, g.n, 3)
        _, _, tape = full_and_restricted(g, options, rows, np.ones((g.n, 3)))
        specs = tape.params.specs
        fca = [l for l, s in enumerate(specs) if s.kind == "fca"]
        if fca:
            A = adjacency(g) + sp.identity(g.n)
            field = np.flatnonzero(np.asarray(abs(A)[rows].sum(axis=0)).ravel())
        for l, Z_in in enumerate(tape.inputs):
            assert Z_in.shape[0] == (field.size if fca and l <= fca[0] else rows.size)
        # nothing backward does not read: linear pre-activations are dropped
        assert [p is None for p in tape.preacts] == [s.activation == "linear" for s in specs]

    def test_isolated_batch_nodes_read_only_themselves(self):
        g = isolated_graph(np.random.default_rng(42))
        rows = np.array([0, 5, 11])
        upstream = np.random.default_rng(43).standard_normal((g.n, 3))
        (Z, dW, dB), (Zr, dWr, dBr), tape = full_and_restricted(g, {}, rows, upstream)
        # the self-loop is an isolated node's only neighbour, with weight 1
        assert tape.inputs[0].tobytes() == g.features[rows].tobytes()
        for want, got in zip([Z, *dW, *dB], [Zr, *dWr, *dBr]):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("case", range(4), ids=[c[0] for c in restricted_cases()])
    def test_every_row_gives_the_bytes_of_the_full_pass(self, case):
        _, g, options = restricted_cases()[case]
        upstream = np.random.default_rng(44).standard_normal((g.n, 3))
        rows = np.arange(g.n)
        (Z, dW, dB), (Zr, dWr, dBr), tape = full_and_restricted(g, options, rows, upstream)
        for want, got in zip([Z, *dW, *dB], [Zr, *dWr, *dBr]):
            assert got.tobytes() == want.tobytes()
        # every layer ran on every node, isolated ones included
        assert all(Z_in.shape[0] == g.n for Z_in in tape.inputs)

    @pytest.mark.parametrize(
        "rows",
        [[2, 1], [1, 1, 3], [-1, 2], [0, 6], [0.0, 1.0], [[0, 1]]],
        ids=["unsorted", "repeated", "negative", "past the end", "float", "2-D"],
    )
    def test_rows_must_be_increasing_node_indices(self, rows):
        g = random_graph(np.random.default_rng(45), n=6)
        params = init_network(default_stack(4, (5, 4), 3), 0)
        with pytest.raises(ValueError, match="strictly increasing"):
            forward(g.features, aggregation_matrix(adjacency(g)), params, rows=np.array(rows))

    def test_upstream_gradient_must_match_the_rows(self):
        g = random_graph(np.random.default_rng(46), n=8)
        N = aggregation_matrix(adjacency(g))
        params = init_network(default_stack(4, (5, 4), 3), 1)
        tape = GradientTape()
        Zr = forward(g.features, N, params, tape, np.array([1, 4, 6]))
        assert Zr.shape == (3, 3)
        with pytest.raises(ValueError, match="does not match"):
            backward(tape, np.ones((8, 3)))

    def test_stale_restricted_tape_raises(self):
        g = random_graph(np.random.default_rng(47), n=8)
        N = aggregation_matrix(adjacency(g))
        params = init_network(default_stack(4, (5, 4), 3), 2)
        tape = GradientTape()
        Zr = forward(g.features, N, params, tape, np.array([0, 3]))
        params.weights[1] += 0.1
        params.bump()
        with pytest.raises(StaleTapeError):
            backward(tape, np.ones_like(Zr))


# ---------------------------------------------------------------- single precision


def precision_cases():
    """(name, graph, output rows) on the dense and the CSR layer-0 paths."""
    rng = np.random.default_rng(50)
    dense, sparse = random_graph(rng, n=30, density=0.2, dims=6), sparse_graph(rng, 30, 64, 0.15)
    rows = np.arange(1, 30, 4)
    return [("dense", dense, None), ("dense rows", dense, rows),
            ("csr", sparse, None), ("csr rows", sparse, rows)]


class TestSinglePrecision:
    """The network computes in the dtype of its weights."""

    def run(self, g, rows, dtype):
        params = init_network(default_stack(g.features.shape[1], (12, 8), 4), 6)
        for B in params.biases:
            B[:] = np.random.default_rng(7).uniform(-0.5, 0.5, B.shape)
        tape = GradientTape()
        Z = forward(g.features, aggregation_matrix(adjacency(g)), _cast(params, dtype), tape, rows)
        upstream = np.random.default_rng(8).standard_normal(Z.shape)
        return tape, Z, backward(tape, upstream)

    @pytest.mark.parametrize("case", range(4), ids=[c[0] for c in precision_cases()])
    def test_float32_weights_give_float32_results_near_float64(self, case):
        _, g, rows = precision_cases()[case]
        tape, Z, (dW, dB) = self.run(g, rows, np.float32)
        assert sp.issparse(tape.inputs[0]) == (case >= 2)
        assert all(z.dtype == np.float32 for z in tape.inputs)
        _, Z64, (dW64, dB64) = self.run(g, rows, np.float64)
        for got, want in zip([Z, *dW, *dB], [Z64, *dW64, *dB64]):
            assert got.dtype == np.float32 and got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()

    def test_float64_forward_takes_the_operator_as_it_is(self):
        g = random_graph(np.random.default_rng(51), n=12, density=0.3)
        N = aggregation_matrix(adjacency(g))
        params = init_network(default_stack(4, (5, 4), 3), 0)
        fca = [s.kind for s in params.specs].index("fca")
        tape = GradientTape()
        forward(g.features, N, params, tape)
        assert tape.aggregations[fca] is N
        forward(g.features, N, _cast(params, np.float32), tape)
        assert tape.aggregations[fca].dtype == np.float32
        assert N.dtype == np.float64

    def test_float32_leaky_backward(self):
        rng = np.random.default_rng(52)
        pre, g = rng.standard_normal((2, 40, 6), dtype=np.float32)
        got = network._activation_backward(g, pre, "leaky_relu")
        assert got.dtype == np.float32
        slope = np.where(pre > 0, np.float32(1.0), np.float32(network.LEAKY_SLOPE))
        assert got.tobytes() == (g * slope).tobytes()


# ---------------------------------------------------------------- elementwise steps


def old_activate(pre, activation):
    """Frozen copy of the activation before it became one maximum."""
    if activation == "linear":
        return pre
    return np.where(pre > 0, pre, network.LEAKY_SLOPE * pre)


def old_activate_grad(pre, activation):
    """Frozen copy of the activation derivative the backward pass multiplied by."""
    if activation == "linear":
        return np.ones_like(pre)
    return np.where(pre > 0, 1.0, network.LEAKY_SLOPE)


def gather_activate_grad(g, pre):
    """Frozen copy of the LeakyReLU backward that gathered the derivative from a table."""
    table = np.array([network.LEAKY_SLOPE, 1.0])
    out = table[(pre > 0).view(np.uint8)]
    return np.multiply(out, g, out=out)


def special_values(rng, size):
    """Random values mixed with -0.0, 0.0, NaN, +-inf, subnormals and huge values."""
    x = rng.standard_normal(size) * 10.0 ** rng.integers(-5, 5, size)
    specials = np.array([-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                         1e-310, -1e-310, 1.7e308, -1.7e308, 2e-322, -2e-322])
    x[rng.integers(0, size, 3 * specials.size)] = np.tile(specials, 3)
    return x


class TestElementwiseBitIdentity:
    @pytest.mark.parametrize("activation", ["linear", "leaky_relu"])
    def test_activation_forward_and_backward(self, activation):
        rng = np.random.default_rng(35)
        pre = special_values(rng, 4000).reshape(200, 20)
        g = special_values(rng, 4000).reshape(200, 20)
        with np.errstate(invalid="ignore", over="ignore"):
            got = network._activate(pre, activation)
            assert got.tobytes() == old_activate(pre, activation).tobytes()
            got = network._activation_backward(g, pre, activation)
            assert got.tobytes() == (g * old_activate_grad(pre, activation)).tobytes()

    def test_leaky_backward_equals_table_gather(self):
        rng = np.random.default_rng(37)
        pre = special_values(rng, 4000).reshape(200, 20)
        g = special_values(rng, 4000).reshape(200, 20)
        with np.errstate(invalid="ignore", over="ignore"):
            got = network._activation_backward(g, pre, "leaky_relu")
            assert got.tobytes() == gather_activate_grad(g, pre).tobytes()
        assert (1.0 - network.LEAKY_SLOPE) + network.LEAKY_SLOPE == 1.0

    def test_bias_added_in_place(self):
        rng = np.random.default_rng(36)
        Z, W, B = rng.standard_normal((50, 7)), rng.standard_normal((7, 9)), special_values(rng, 9)
        assert network._affine(Z, W, B).tobytes() == (Z @ W + B).tobytes()
