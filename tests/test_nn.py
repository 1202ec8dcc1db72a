import numpy as np
import pytest

from svkit import nn
from svkit.errors import LengthError, OptimizerError, ShapeError

N_SEEDS = 20
GRAD_TOL = 1e-5


def rand(seed):
    return np.random.default_rng(seed)


class TestAffine:
    def test_identity(self):
        x = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(nn.affine(x, np.eye(3), np.zeros(3)), x)

    def test_hand_case(self):
        y = nn.affine(np.array([1.0, 1.0]), np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([1.0, 1.0]))
        assert np.array_equal(y, [4.0, 8.0])

    def test_batch_matches_vector(self):
        rng = rand(0)
        W, b = rng.standard_normal((3, 5)), rng.standard_normal(3)
        X = rng.standard_normal((4, 5))
        Y = nn.affine(X, W, b)
        for i in range(4):
            assert np.allclose(Y[i], nn.affine(X[i], W, b))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            nn.affine(np.zeros(3), np.zeros((2, 4)), np.zeros(2))

    @pytest.mark.parametrize("seed", range(N_SEEDS))
    def test_gradients(self, seed):
        rng = rand(seed)
        x = rng.standard_normal((3, 4)) if seed % 2 else rng.standard_normal(4)
        W, b = rng.standard_normal((2, 4)), rng.standard_normal(2)
        w_out = rng.standard_normal(nn.affine(x, W, b).shape)

        def f(x, W, b):
            y = nn.affine(x, W, b)
            return float(np.sum(w_out * y)), nn.affine_backward(w_out, x, W)

        assert nn.grad_check(f, [x, W, b]) < GRAD_TOL


class TestLengthNorm:
    def test_unit_input_fixed(self):
        x = np.array([0.6, 0.8])
        assert np.allclose(nn.length_norm(x), x, atol=1e-10)

    def test_hand_case(self):
        assert np.allclose(nn.length_norm(np.array([3.0, 4.0])), [0.6, 0.8], atol=1e-12)

    def test_batch_rows_unit(self):
        X = rand(1).standard_normal((6, 4))
        Y = nn.length_norm(X)
        assert np.allclose(np.linalg.norm(Y, axis=1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("seed", range(N_SEEDS))
    def test_gradients(self, seed):
        rng = rand(seed)
        x = rng.standard_normal(5)
        w_out = rng.standard_normal(5)

        def f(x):
            y = nn.length_norm(x)
            return float(w_out @ y), [nn.length_norm_backward(w_out, x)]

        assert nn.grad_check(f, [x]) < GRAD_TOL

    def test_jacobian_orthogonal_to_output(self):
        # rows of the Jacobian live in the tangent space of the sphere
        rng = rand(5)
        x = rng.standard_normal(6)
        y = nn.length_norm(x)
        J = np.stack([nn.length_norm_backward(e, x) for e in np.eye(6)])
        assert np.allclose(J @ y, 0.0, atol=1e-9)


class TestTdnnLayer:
    def test_single_offset_is_framewise_affine(self):
        rng = rand(2)
        X = rng.standard_normal((5, 3))
        W, b = rng.standard_normal((4, 3)), rng.standard_normal(4)
        Y = nn.tdnn_layer(X, [0], W, b)
        assert Y.shape == (5, 4)
        expected = np.maximum(X @ W.T + b, 0.0)
        assert np.allclose(Y, expected)

    def test_constant_input_constant_output(self):
        X = np.tile([1.0, -2.0], (10, 1))
        rng = rand(3)
        W, b = rng.standard_normal((3, 6)), rng.standard_normal(3)
        Y = nn.tdnn_layer(X, [-1, 0, 1], W, b)
        assert Y.shape == (8, 3)
        assert np.allclose(Y, Y[0])

    def test_time_shift_commutes(self):
        rng = rand(4)
        X = rng.standard_normal((12, 2))
        W, b = rng.standard_normal((3, 6)), rng.standard_normal(3)
        full = nn.tdnn_layer(X, [-1, 0, 1], W, b)
        shifted = nn.tdnn_layer(X[1:], [-1, 0, 1], W, b)
        assert np.allclose(full[1:], shifted)

    def test_too_short_input(self):
        with pytest.raises(LengthError):
            nn.tdnn_layer(np.zeros((2, 3)), [-2, 0, 2], np.zeros((1, 9)), np.zeros(1))

    @pytest.mark.parametrize("seed", range(N_SEEDS))
    def test_gradients(self, seed):
        rng = rand(seed)
        offsets = [-2, 0, 1]
        X = rng.standard_normal((7, 2))
        W = rng.standard_normal((3, 6))
        b = rng.standard_normal(3)
        Y0 = nn.tdnn_layer(X, offsets, W, b)
        w_out = rng.standard_normal(Y0.shape)

        def f(X, W, b):
            Y = nn.tdnn_layer(X, offsets, W, b)
            return float(np.sum(w_out * Y)), nn.tdnn_layer_backward(w_out, X, offsets, W, b)

        assert nn.grad_check(f, [X, W, b]) < GRAD_TOL


class TestStatsPool:
    def test_constant_column(self):
        X = np.full((5, 2), 3.0)
        out = nn.stats_pool(X, "stddev")
        assert np.allclose(out[:2], 3.0)
        assert np.allclose(out[2:], np.sqrt(nn.EPS_VAR))
        out_v = nn.stats_pool(X, "variance")
        assert np.allclose(out_v[2:], 0.0)

    def test_hand_case(self):
        X = np.array([[1.0], [3.0]])
        mean, var = nn.stats_pool(X, "variance")
        assert mean == 2.0 and var == 1.0
        _, std = nn.stats_pool(X, "stddev")
        assert abs(std - 1.0) < 1e-9

    def test_min_frames(self):
        with pytest.raises(LengthError):
            nn.stats_pool(np.zeros((1, 2)), "stddev")

    @pytest.mark.parametrize("seed", range(N_SEEDS))
    @pytest.mark.parametrize("mode", ["stddev", "variance"])
    def test_gradients(self, mode, seed):
        rng = rand(seed)
        X = rng.standard_normal((6, 3))
        w_out = rng.standard_normal(6)

        def f(X):
            v = nn.stats_pool(X, mode)
            return float(w_out @ v), [nn.stats_pool_backward(w_out, X, mode)]

        assert nn.grad_check(f, [X]) < GRAD_TOL


class TestStackedUtterances:
    """An (N, T, k) stack gives what N calls on its (T, k) utterances give."""

    N = 5

    def assert_close(self, a, b):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("offsets", [(0,), (-1, 0, 1), (-2, 0, 2)])
    def test_tdnn_layer(self, offsets):
        rng = rand(30)
        X = rng.standard_normal((self.N, 9, 3))
        W, b = rng.standard_normal((4, 3 * len(offsets))), rng.standard_normal(4)
        Y = nn.tdnn_layer(X, offsets, W, b)
        dY = rng.standard_normal(Y.shape)
        dX, dW, db = nn.tdnn_layer_backward(dY, X, offsets, W, b)
        per = [nn.tdnn_layer_backward(dY[n], X[n], offsets, W, b) for n in range(self.N)]
        for n in range(self.N):
            self.assert_close(Y[n], nn.tdnn_layer(X[n], offsets, W, b))
            self.assert_close(dX[n], per[n][0])
        self.assert_close(dW, sum(g[1] for g in per))
        self.assert_close(db, sum(g[2] for g in per))

    @pytest.mark.parametrize("mode", ["stddev", "variance"])
    def test_stats_pool(self, mode):
        rng = rand(31)
        X = rng.standard_normal((self.N, 7, 3))
        pooled = nn.stats_pool(X, mode)
        dout = rng.standard_normal(pooled.shape)
        dX = nn.stats_pool_backward(dout, X, mode)
        for n in range(self.N):
            self.assert_close(pooled[n], nn.stats_pool(X[n], mode))
            self.assert_close(dX[n], nn.stats_pool_backward(dout[n], X[n], mode))

    def test_gradients(self):
        rng = rand(32)
        offsets = [-2, 0, 1]
        X = rng.standard_normal((3, 7, 2))
        W, b = rng.standard_normal((3, 6)), rng.standard_normal(3)
        w_td = rng.standard_normal(nn.tdnn_layer(X, offsets, W, b).shape)
        w_sp = rng.standard_normal((3, 4))

        def f_tdnn(X, W, b):
            Y = nn.tdnn_layer(X, offsets, W, b)
            return float(np.sum(w_td * Y)), nn.tdnn_layer_backward(w_td, X, offsets, W, b)

        def f_pool(X):
            return float(np.sum(w_sp * nn.stats_pool(X))), [nn.stats_pool_backward(w_sp, X)]

        assert nn.grad_check(f_tdnn, [X, W, b]) < GRAD_TOL
        assert nn.grad_check(f_pool, [X]) < GRAD_TOL


class TestQuadraticScore:
    def test_zero_form_returns_constant(self):
        rng = rand(6)
        e, t = rng.standard_normal(4), rng.standard_normal(4)
        assert nn.quadratic_score(e, t, np.zeros(4), np.zeros(4), 2.5) == 2.5
        assert nn.quadratic_score(e, t, np.zeros((4, 4)), np.zeros((4, 4)), -1.0) == -1.0

    def test_hand_case_one_dim(self):
        s = nn.quadratic_score(np.array([1.0]), np.array([1.0]),
                               np.array([1.0 / 3.0]), np.array([-1.0 / 6.0]), 0.0)
        assert abs(s - 1.0 / 3.0) < 1e-12

    @pytest.mark.parametrize("seed", range(N_SEEDS))
    def test_exchange_symmetry(self, seed):
        rng = rand(seed)
        d = 5
        A = rng.standard_normal((d, d))
        Q = A + A.T
        B = rng.standard_normal((d, d))
        P = B + B.T
        e, t = rng.standard_normal(d), rng.standard_normal(d)
        s1 = nn.quadratic_score(e, t, P, Q, 0.3)
        s2 = nn.quadratic_score(t, e, P, Q, 0.3)
        assert abs(s1 - s2) < 1e-10

    def test_batch_matches_single(self):
        rng = rand(7)
        E, T = rng.standard_normal((5, 3)), rng.standard_normal((5, 3))
        p, q = rng.standard_normal(3), rng.standard_normal(3)
        S = nn.quadratic_score(E, T, p, q, 0.5)
        for i in range(5):
            assert abs(S[i] - nn.quadratic_score(E[i], T[i], p, q, 0.5)) < 1e-12

    @pytest.mark.parametrize("seed", range(N_SEEDS))
    @pytest.mark.parametrize("diag", [True, False])
    def test_gradients(self, diag, seed):
        rng = rand(seed)
        d = 3
        e, t = rng.standard_normal(d), rng.standard_normal(d)
        if diag:
            P, Q = rng.standard_normal(d), rng.standard_normal(d)
        else:
            A, B = rng.standard_normal((d, d)), rng.standard_normal((d, d))
            P, Q = A + A.T, B + B.T

        def f(e, t, P, Q, k):
            s = nn.quadratic_score(e, t, P, Q, float(k))
            de, dt, dP, dQ, dk = nn.quadratic_score_backward(1.0, e, t, P, Q)
            return s, [de, dt, dP, dQ, np.array(dk)]

        assert nn.grad_check(f, [e, t, P, Q, np.array(0.7)]) < GRAD_TOL

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            nn.quadratic_score(np.zeros(3), np.zeros(4), np.zeros(3), np.zeros(3), 0.0)


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        params = {"w": np.array([1.0, 2.0])}
        state = nn.adam_init(params, lr=0.1)
        out = nn.adam_step(params, {"w": np.zeros(2)}, state)
        assert np.array_equal(out["w"], params["w"])

    def test_first_step_magnitude(self):
        params = {"w": np.array([0.0])}
        state = nn.adam_init(params, lr=0.01)
        out = nn.adam_step(params, {"w": np.array([1.0])}, state)
        # bias-corrected first step moves by almost exactly lr
        assert abs(out["w"][0] + 0.01) < 1e-9

    def test_deterministic_sequences(self):
        rng = rand(8)
        grads = [{"w": rng.standard_normal(3)} for _ in range(10)]
        outs = []
        for _ in range(2):
            params = {"w": np.zeros(3)}
            state = nn.adam_init(params, lr=0.05)
            for g in grads:
                params = nn.adam_step(params, g, state)
            outs.append(params["w"])
        assert np.array_equal(outs[0], outs[1])

    def test_non_finite_gradient_names_param(self):
        params = {"bad_param": np.zeros(2)}
        state = nn.adam_init(params)
        with pytest.raises(OptimizerError) as exc:
            nn.adam_step(params, {"bad_param": np.array([1.0, np.inf])}, state)
        assert "bad_param" in str(exc.value)


class TestGradCheck:
    def test_quadratic_norm(self):
        rng = rand(9)
        x = rng.standard_normal(6)

        def f(x):
            return float(x @ x), [2.0 * x]

        assert nn.grad_check(f, [x]) < 1e-8

    def test_detects_wrong_gradient(self):
        def f(x):
            return float(x @ x), [3.0 * x]  # deliberately wrong

        assert nn.grad_check(f, [np.ones(3)]) > 0.1
