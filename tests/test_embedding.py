"""Tests for the embedding network, the similarity kernel and the
fixed-block product behind both."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from conftest import flatten_params, unflatten_params
from dense_oracle import kernel
from kernelaj import EmbeddingConfig, ShapeMismatch, embed, embed_batch, init_mlp
from kernelaj.embedding import (
    MlpParams,
    _activate,
    _activate_grad,
    backward,
    blocked_matmul,
    flatten_grads,
    forward_cached,
    kernel_matrix,
    kernel_matrix_backward,
    pairwise_sq_dists,
)
from kernelaj.model import _embed_rows


class TestInit:
    def test_deterministic_given_seed(self):
        cfg = EmbeddingConfig(input_dim=3, num_layers=2, hidden_units=4, embed_dim=2)
        a = init_mlp(cfg, seed=42)
        b = init_mlp(cfg, seed=42)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_shapes(self):
        cfg = EmbeddingConfig(input_dim=3, num_layers=1, hidden_units=4, embed_dim=2)
        params = init_mlp(cfg)
        assert params.weights[0].shape == (4, 3)
        assert params.weights[1].shape == (2, 4)
        assert params.biases[0].shape == (4,)

    def test_different_seeds_differ(self):
        cfg = EmbeddingConfig(input_dim=3, num_layers=1, hidden_units=4, embed_dim=2)
        a = init_mlp(cfg, seed=1)
        b = init_mlp(cfg, seed=2)
        assert not np.array_equal(a.weights[0], b.weights[0])

    def test_bounds_and_zero_biases(self):
        cfg = EmbeddingConfig(input_dim=9, num_layers=1, hidden_units=50, embed_dim=2)
        params = init_mlp(cfg, seed=0)
        assert np.abs(params.weights[0]).max() <= np.sqrt(1.0 / 9)
        assert_allclose(params.biases[0], 0.0)


class TestEmbed:
    def test_zero_parameters_give_zero_embedding(self):
        sizes = (3, 4, 2)
        params = MlpParams(sizes, (np.zeros((4, 3)), np.zeros((2, 4))),
                           (np.zeros(4), np.zeros(2)))
        assert_allclose(embed(params, np.array([1.0, -2.0, 3.0])), 0.0)

    def test_single_linear_layer_is_matrix_product(self):
        W = np.array([[1.0, 2.0], [0.0, -1.0]])
        params = MlpParams((2, 2), (W,), (np.zeros(2),))
        x = np.array([3.0, 4.0])
        assert_allclose(embed(params, x), W @ x)

    def test_batch_matches_single(self):
        cfg = EmbeddingConfig(input_dim=3, num_layers=2, hidden_units=5, embed_dim=2)
        params = init_mlp(cfg, seed=0)
        X = np.random.default_rng(0).normal(size=(6, 3))
        batch = embed_batch(params, X)
        singles = np.vstack([embed(params, x) for x in X])
        assert_allclose(batch, singles)

    def test_shape_mismatch(self):
        cfg = EmbeddingConfig(input_dim=3, num_layers=1, hidden_units=4, embed_dim=2)
        params = init_mlp(cfg)
        with pytest.raises(ShapeMismatch):
            embed(params, np.zeros(5))


class TestKernel:
    def test_identical_embeddings(self):
        e = np.array([0.3, -0.7])
        assert kernel(e, e) == 1.0

    def test_unit_distance(self):
        # exp(-1) for two embeddings one unit apart
        assert kernel(np.zeros(2), np.array([1.0, 0.0])) == pytest.approx(
            0.36787944117144233, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            a, b = rng.normal(size=2 * 3).reshape(2, 3)
            assert kernel(a, b) == pytest.approx(kernel(b, a), abs=1e-15)

    def test_range(self):
        rng = np.random.default_rng(9)
        E = rng.normal(size=(20, 4))
        K = kernel_matrix(E)
        assert ((K > 0) & (K <= 1.0)).all()
        assert_allclose(np.diag(K), 1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeMismatch):
            kernel(np.zeros(2), np.zeros(3))


class TestBackward:
    def check_gradient(self, params, X, loss_fn, rtol=1e-6):
        """Compare the analytic parameter gradient of loss_fn(E) against
        central finite differences through the whole network."""
        E, cache = forward_cached(params, X)
        _, dE = loss_fn(E)
        dw, db = backward(params, cache, dE)
        analytic = flatten_grads(dw, db)

        flat = flatten_params(params)
        fd = np.zeros_like(flat)
        h = 1e-6
        for k in range(flat.size):
            up, down = flat.copy(), flat.copy()
            up[k] += h
            down[k] -= h
            lu, _ = loss_fn(embed_batch(unflatten_params(params, up), X))
            ld, _ = loss_fn(embed_batch(unflatten_params(params, down), X))
            fd[k] = (lu - ld) / (2 * h)
        denom = max(np.linalg.norm(fd), 1e-12)
        assert np.linalg.norm(analytic - fd) / denom < rtol * 100

    def test_quadratic_loss_gradient(self):
        cfg = EmbeddingConfig(input_dim=3, num_layers=2, hidden_units=5,
                              embed_dim=2, activation="tanh")
        params = init_mlp(cfg, seed=3)
        X = np.random.default_rng(3).normal(size=(7, 3))

        def loss_fn(E):
            return 0.5 * float((E ** 2).sum()), E

        self.check_gradient(params, X, loss_fn)

    def test_kernel_loss_gradient(self):
        cfg = EmbeddingConfig(input_dim=2, num_layers=1, hidden_units=6,
                              embed_dim=3, activation="tanh")
        params = init_mlp(cfg, seed=5)
        rng = np.random.default_rng(5)
        X = rng.normal(size=(5, 2))
        C = rng.normal(size=(5, 5))

        def loss_fn(E):
            K = kernel_matrix(E)
            dK = C.copy()
            np.fill_diagonal(dK, 0.0)
            Kd = K.copy()
            np.fill_diagonal(Kd, 0.0)
            return float((C * Kd).sum()), kernel_matrix_backward(E, dK * K)

        self.check_gradient(params, X, loss_fn)

    def test_relu_gradient(self):
        cfg = EmbeddingConfig(input_dim=3, num_layers=2, hidden_units=4,
                              embed_dim=2, activation="relu")
        params = init_mlp(cfg, seed=8)
        X = np.random.default_rng(8).normal(size=(6, 3))

        def loss_fn(E):
            return float(E.sum()), np.ones_like(E)

        self.check_gradient(params, X, loss_fn)

    def test_relu_derivative_read_off_activations(self):
        # a > 0 exactly where z > 0, at signed zeros, the smallest subnormal,
        # the infinities and NaN
        z = np.array([-0.0, 0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan, 1.0, -1.0])
        got = _activate_grad(_activate(z, "relu"), "relu")
        assert got.tobytes() == (z > 0).astype(np.float64).tobytes()

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_cache_is_the_activations(self, activation):
        cfg = EmbeddingConfig(input_dim=3, num_layers=2, hidden_units=4, embed_dim=2,
                              activation=activation)
        params = init_mlp(cfg, seed=1)
        X = np.random.default_rng(1).normal(size=(6, 3))
        E, cache = forward_cached(params, X)
        assert isinstance(cache, list) and len(cache) == len(params.weights) + 1
        assert_array_equal(cache[0], X)
        assert cache[-1] is E
        for k, (w, b) in enumerate(zip(params.weights[:-1], params.biases[:-1])):
            assert_array_equal(cache[k + 1], _activate(blocked_matmul(cache[k], w.T) + b,
                                                       activation))


class TestFlattening:
    def test_pairwise_distances_match_direct(self):
        rng = np.random.default_rng(2)
        E = rng.normal(size=(8, 3))
        D2 = pairwise_sq_dists(E)
        for i in range(8):
            for j in range(8):
                diff = E[i] - E[j]
                assert D2[i, j] == pytest.approx(diff @ diff, abs=1e-10)


class TestOneProduct:
    """Every batch-invariant product is one ``blocked_matmul``: a row's bits
    do not depend on the rows passed with it, so training and prediction
    embed alike and both kernel forms agree."""

    @pytest.mark.parametrize("shape", [(8, 32), (2904, 192)],
                             ids=["embedding-layer", "prediction-table"])
    def test_product_pins_rows(self, shape):
        rng = np.random.default_rng(11)
        A, M = rng.uniform(0.0, 1.0, (1024, shape[0])), rng.normal(size=shape)
        whole = blocked_matmul(A, M)
        assert_allclose(whole, A @ M, rtol=1e-12, atol=1e-12)
        for rows in (1, 15, 16, 17, 33):
            start = 1024 - rows - 5
            out = np.full((rows, shape[1]), np.nan)
            assert blocked_matmul(A[start:start + rows], M, out=out) is out
            assert_array_equal(out, whole[start:start + rows])

    def test_training_and_prediction_embed_alike(self):
        params = init_mlp(EmbeddingConfig(input_dim=8, num_layers=2, hidden_units=32,
                                          embed_dim=8, init_seed=3))
        X = np.random.default_rng(13).normal(size=(4800, 8))
        E = embed_batch(params, X)
        assert_array_equal(E, _embed_rows(params, X))
        assert_array_equal(E[100:107], _embed_rows(params, X[100:107]))

    def test_self_kernel_is_the_two_set_kernel(self):
        E = np.random.default_rng(14).normal(size=(300, 8))
        off = ~np.eye(300, dtype=bool)
        assert_array_equal(kernel_matrix(E)[off], kernel_matrix(E, E)[off])
        assert_array_equal(np.diag(kernel_matrix(E)), 1.0)
