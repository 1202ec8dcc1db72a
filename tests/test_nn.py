import re

import numpy as np
import pytest

from svkit import nn
from svkit.errors import LengthError, ModelError, OptimizerError, ShapeError

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

    def test_backward_without_input_grad(self):
        rng = rand(33)
        offsets = [-1, 0, 2]
        X = rng.standard_normal((self.N, 9, 3))
        W, b = rng.standard_normal((4, 9)), rng.standard_normal(4)
        dY = rng.standard_normal(nn.tdnn_layer(X, offsets, W, b).shape)
        _, dW, db = nn.tdnn_layer_backward(dY, X, offsets, W, b)
        dX, dW0, db0 = nn.tdnn_layer_backward(dY, X, offsets, W, b, input_grad=False)
        assert dX is None
        assert np.array_equal(dW0, dW) and np.array_equal(db0, db)

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

    def test_hand_case_one_dim(self):
        s = nn.quadratic_score(np.array([1.0]), np.array([1.0]),
                               np.array([1.0 / 3.0]), np.array([-1.0 / 6.0]), 0.0)
        assert abs(s - 1.0 / 3.0) < 1e-12

    @pytest.mark.parametrize("seed", range(N_SEEDS))
    def test_exchange_symmetry(self, seed):
        rng = rand(seed)
        d = 5
        p, q = rng.standard_normal(d), rng.standard_normal(d)
        e, t = rng.standard_normal(d), rng.standard_normal(d)
        s1 = nn.quadratic_score(e, t, p, q, 0.3)
        s2 = nn.quadratic_score(t, e, p, q, 0.3)
        assert abs(s1 - s2) < 1e-10

    def test_batch_matches_single(self):
        rng = rand(7)
        E, T = rng.standard_normal((5, 3)), rng.standard_normal((5, 3))
        p, q = rng.standard_normal(3), rng.standard_normal(3)
        S = nn.quadratic_score(E, T, p, q, 0.5)
        for i in range(5):
            assert abs(S[i] - nn.quadratic_score(E[i], T[i], p, q, 0.5)) < 1e-12

    @pytest.mark.parametrize("seed", range(N_SEEDS))
    @pytest.mark.parametrize("single", [True, False])
    def test_gradients(self, single, seed):
        # one pair of vectors, or a weighted sum of the scores of a batch of rows
        rng = rand(seed)
        d = 3
        shape = (d,) if single else (1 + seed % 4, d)
        e, t = rng.standard_normal(shape), rng.standard_normal(shape)
        p, q = rng.standard_normal(d), rng.standard_normal(d)
        w = 1.0 if single else rng.standard_normal(shape[0])

        def f(e, t, p, q, k):
            s = nn.quadratic_score(e, t, p, q, float(k))
            de, dt, dp, dq, dk = nn.quadratic_score_backward(w, e, t, p, q)
            return float(np.sum(w * s)), [de, dt, dp, dq, np.array(dk)]

        assert nn.grad_check(f, [e, t, p, q, np.array(0.7)]) < GRAD_TOL

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            nn.quadratic_score(np.zeros(3), np.zeros(4), np.zeros(3), np.zeros(3), 0.0)


class TestQuadraticScoreProduct:
    def test_entries_are_pair_scores(self):
        rng = rand(40)
        A_e, A_t = rng.standard_normal((4, 3)), rng.standard_normal((5, 3))
        p, q = rng.standard_normal(3), rng.standard_normal(3)
        S = nn.quadratic_score_product(A_e, A_t, p, q, 0.3)
        assert S.shape == (4, 5)
        for i in range(4):
            for j in range(5):
                want = nn.quadratic_score(A_e[i], A_t[j], p, q, 0.3)
                assert abs(S[i, j] - want) <= 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize("seed", range(N_SEEDS))
    def test_gradients(self, seed):
        # dA_e, dA_t, dp, dq and dk of a weighted sum of the score matrix
        rng = rand(300 + seed)
        n_e, n_t, d = 1 + seed % 4, 1 + seed % 3, 3
        A_e, A_t = rng.standard_normal((n_e, d)), rng.standard_normal((n_t, d))
        p, q = rng.standard_normal(d), rng.standard_normal(d)
        w = rng.standard_normal((n_e, n_t))

        def f(A_e, A_t, p, q, k):
            S = nn.quadratic_score_product(A_e, A_t, p, q, float(k))
            dA_e, dA_t, dp, dq, dk = nn.quadratic_score_product_backward(w, A_e, A_t, p, q)
            return float(np.sum(w * S)), [dA_e, dA_t, dp, dq, np.array(dk)]

        assert nn.grad_check(f, [A_e, A_t, p, q, np.array(-0.4)]) < GRAD_TOL

    def test_backward_matches_row_aligned_pairs(self):
        # the product of rows is the row-aligned score on every pair of rows
        rng = rand(41)
        A_e, A_t = rng.standard_normal((3, 4)), rng.standard_normal((2, 4))
        p, q = rng.standard_normal(4), rng.standard_normal(4)
        dS = rng.standard_normal((3, 2))
        e_idx, t_idx = np.repeat(np.arange(3), 2), np.tile(np.arange(2), 3)
        de, dt, dp, dq, dk = nn.quadratic_score_backward(dS.ravel(), A_e[e_idx], A_t[t_idx], p, q)
        dA_e, dA_t = np.zeros_like(A_e), np.zeros_like(A_t)
        np.add.at(dA_e, e_idx, de)
        np.add.at(dA_t, t_idx, dt)
        got = nn.quadratic_score_product_backward(dS, A_e, A_t, p, q)
        for a, b in zip(got, (dA_e, dA_t, dp, dq, dk)):
            assert np.allclose(a, b, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("shapes", [((3, 2), (4, 3), (2,)), ((3,), (4, 3), (3,)),
                                        ((3, 3), (4, 3), (2,))])
    def test_shape_mismatch(self, shapes):
        e, t, pq = shapes
        with pytest.raises(ShapeError):
            nn.quadratic_score_product(np.zeros(e), np.zeros(t), np.zeros(pq), np.zeros(pq), 0.0)


def one_vector(**arrays):
    """A ParamVector holding ``arrays`` in the given order."""
    return nn.ParamVector({n: np.shape(a) for n, a in arrays.items()}).from_dict(arrays)


def reference_adam(params, grads, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The per-name Adam update on dicts of arrays; mutates m and v, returns new params."""
    bc1, bc2 = 1.0 - beta1**t, 1.0 - beta2**t
    out = {}
    for name, p in params.items():
        g = grads[name]
        m[name] = beta1 * m[name] + (1.0 - beta1) * g
        v[name] = beta2 * v[name] + (1.0 - beta2) * g * g
        out[name] = p - lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + eps)
    return out


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        params = one_vector(w=np.array([1.0, 2.0]))
        state = nn.adam_init(params, lr=0.1)
        nn.adam_step(params, params.zeros(), state)
        assert np.array_equal(params["w"], [1.0, 2.0])

    def test_first_step_magnitude(self):
        params = one_vector(w=np.array([0.0]))
        state = nn.adam_init(params, lr=0.01)
        nn.adam_step(params, one_vector(w=np.array([1.0])), state)
        # bias-corrected first step moves by almost exactly lr
        assert abs(params["w"][0] + 0.01) < 1e-9

    def test_deterministic_sequences(self):
        rng = rand(8)
        grads = [one_vector(w=rng.standard_normal(3)) for _ in range(10)]
        outs = []
        for _ in range(2):
            params = one_vector(w=np.zeros(3))
            state = nn.adam_init(params, lr=0.05)
            for g in grads:
                nn.adam_step(params, g, state)
            outs.append(params["w"])
        assert np.array_equal(outs[0], outs[1])

    def test_non_finite_gradient_names_param(self):
        params = one_vector(bad_param=np.zeros(2))
        state = nn.adam_init(params)
        with pytest.raises(OptimizerError) as exc:
            nn.adam_step(params, one_vector(bad_param=np.array([1.0, np.inf])), state)
        assert "bad_param" in str(exc.value)

    @pytest.mark.parametrize("bad, value", [("a", np.inf), ("bad_param", np.nan),
                                            ("b", -np.inf), ("k", np.nan)])
    def test_non_finite_gradient_named_from_its_slice(self, bad, value):
        params = one_vector(a=np.zeros((2, 2)), bad_param=np.zeros(2), b=np.zeros(3),
                            k=np.float64(0.0))
        grads = params.zeros()
        grads[bad].reshape(-1)[-1] = value
        state = nn.adam_init(params)
        with pytest.raises(OptimizerError) as exc:
            nn.adam_step(params, grads, state)
        assert f"parameter {bad!r}" in str(exc.value)
        # a refused step changes nothing
        assert state.step == 0 and not params.vector.any() and not state.m.any()

    def test_gradient_layout_must_match(self):
        params = one_vector(w=np.zeros(3))
        with pytest.raises(ShapeError):
            nn.adam_step(params, one_vector(u=np.zeros(3)), nn.adam_init(params))

    def test_bit_identical_to_per_name_adam(self):
        # matrices, vectors and 0-d scalars in one vector, fifty steps
        rng = rand(81)
        start = {"W": rng.standard_normal((4, 3)), "b": rng.standard_normal(4),
                 "k": np.float64(0.3), "V": rng.standard_normal((2, 5)), "theta": np.float64(-1.0)}
        params = one_vector(**start)
        state = nn.adam_init(params, lr=0.01)
        ref = dict(start)
        m = {n: np.zeros_like(a) for n, a in ref.items()}
        v = {n: np.zeros_like(a) for n, a in ref.items()}
        for t in range(1, 51):
            g = {n: rng.standard_normal(np.shape(a)) * 10.0 ** rng.integers(-6, 3)
                 for n, a in ref.items()}
            nn.adam_step(params, one_vector(**g), state)
            ref = reference_adam(ref, g, m, v, t, lr=0.01)
            for n in ref:  # compared bit by bit
                assert np.array_equal(params[n].view(np.int64),
                                      np.asarray(ref[n]).view(np.int64)), (t, n)


class TestParamVector:
    def layout(self):
        return one_vector(W=np.arange(6.0).reshape(2, 3), b=np.array([6.0, 7.0]),
                          k=np.float64(8.0))

    def test_views_are_slices_of_the_vector(self):
        params = self.layout()
        assert np.array_equal(params.vector, np.arange(9.0))
        params["W"][1, 2] = -1.0
        assert params.vector[5] == -1.0
        assert list(params) == ["W", "b", "k"] and params["k"].shape == ()

    @pytest.mark.parametrize("make", [lambda p: p.copy(), lambda p: p.from_dict(p.to_dict()),
                                      lambda p: p.zeros()])
    def test_new_vectors_share_no_memory(self, make):
        params = self.layout()
        other = make(params)
        assert not np.shares_memory(other.vector, params.vector)
        before = params.vector.copy()
        other.vector += 1.0
        assert np.array_equal(params.vector, before)

    def test_to_dict_returns_the_views(self):
        params = self.layout()
        params.to_dict()["b"][0] = 0.5
        assert params["b"][0] == 0.5

    @pytest.mark.parametrize("change, named", [
        (lambda d: d.pop("b"), "parameter 'b': missing, expected shape (2,)"),
        (lambda d: d.update(c=np.zeros(1)), "unexpected parameter 'c'"),
        (lambda d: d.update(W=np.zeros((3, 2))), "'W': shape (3, 2), expected shape (2, 3)"),
        (lambda d: d.update(k=np.zeros(1)), "'k': shape (1,), expected shape ()"),
    ], ids=["missing", "unexpected", "transposed", "scalar"])
    def test_from_dict_checks_names_and_shapes(self, change, named):
        params = self.layout()
        d = params.to_dict()
        change(d)
        with pytest.raises(ModelError, match=re.escape(named)):
            params.from_dict(d)


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
