"""Dense layer primitives with analytic backward passes.

Everything here is double precision numpy and pure: forward functions map
inputs to outputs, backward functions map the upstream gradient plus the
original inputs to downstream gradients.  No layer keeps hidden state, so
finite-difference checks can perturb any input freely.

Supported operators: affine, unit-length normalization, TDNN layer (temporal
convolution with ReLU), statistics pooling (mean + stddev or variance), the
symmetric quadratic scoring layer, and the Adam update.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, LengthError, OptimizerError, ShapeError

# Regularizers for operations the model definition leaves unspecified at
# degenerate inputs: zero variance inside stddev pooling, zero-norm vectors
# inside length normalization.
EPS_VAR = 1e-10
EPS_NORM = 1e-12

POOL_STDDEV = "stddev"
POOL_VARIANCE = "variance"


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


# ---------------------------------------------------------------------------
# affine
# ---------------------------------------------------------------------------


def affine(x: np.ndarray, W: np.ndarray, b: np.ndarray) -> np.ndarray:
    """y = x W^T + b on the last axis: one vector, or a batch of rows."""
    x = np.asarray(x, dtype=np.float64)
    if W.ndim != 2 or b.shape != (W.shape[0],):
        raise ShapeError(f"bad affine parameter shapes W{W.shape} b{b.shape}")
    if x.ndim not in (1, 2) or x.shape[-1] != W.shape[1]:
        raise ShapeError(f"affine: x has shape {x.shape}, W expects rows of {W.shape[1]}")
    return x @ W.T + b


def affine_backward(dy: np.ndarray, x: np.ndarray, W: np.ndarray):
    """Gradients (dx, dW, db) given the output gradient dy."""
    dy = np.asarray(dy, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    dy_rows = np.atleast_2d(dy)
    return dy @ W, dy_rows.T @ np.atleast_2d(x), dy_rows.sum(axis=0)


# ---------------------------------------------------------------------------
# length normalization
# ---------------------------------------------------------------------------


def length_norm(x: np.ndarray) -> np.ndarray:
    """Project onto the unit sphere along the last axis; the norm is floored by EPS_NORM."""
    x = np.asarray(x, dtype=np.float64)
    return x / (np.linalg.norm(x, axis=-1, keepdims=True) + EPS_NORM)


def length_norm_backward(dy: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Exact Jacobian-transpose product for y = x / (|x| + eps)."""
    x = np.asarray(x, dtype=np.float64)
    dy = np.asarray(dy, dtype=np.float64)
    n = np.linalg.norm(x, axis=-1, keepdims=True)
    ne = n + EPS_NORM
    dots = np.sum(x * dy, axis=-1, keepdims=True)
    return dy / ne - x * dots / (np.maximum(n, EPS_NORM) * ne * ne)


# ---------------------------------------------------------------------------
# TDNN layer
# ---------------------------------------------------------------------------


def _tdnn_pre(X: np.ndarray, offsets: np.ndarray, W: np.ndarray, b: np.ndarray):
    """Spliced context frames and pre-activations of X, (T, k) or (N, T, k).

    Each offset contributes one time slice of X; the slices are concatenated
    on the feature axis and fed to one GEMM over every frame of the stack.
    """
    if X.ndim not in (2, 3):
        raise ShapeError(f"tdnn input must be (T, k) or (N, T, k), got {X.shape}")
    T, k_in = X.shape[-2:]
    C = offsets.shape[0]
    if W.ndim != 2 or W.shape[1] != C * k_in:
        raise ShapeError(f"W has shape {W.shape}, expected (k_out, {C * k_in})")
    if b.shape != (W.shape[0],):
        raise ShapeError(f"b has shape {b.shape}, expected ({W.shape[0]},)")
    span = int(offsets.max() - offsets.min())
    T_out = T - span
    if T_out < 1:
        raise LengthError(f"input has {T} frames, context span {span} needs more")
    starts = offsets - offsets.min()
    X_cat = np.concatenate([X[..., s:s + T_out, :] for s in starts], axis=-1)
    pre = X_cat.reshape(-1, C * k_in) @ W.T + b
    return starts, X_cat, pre.reshape(*X.shape[:-2], T_out, W.shape[0])


def tdnn_layer(X: np.ndarray, offsets, W: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Valid-frame temporal convolution followed by ReLU.

    Output frame j is ReLU(W concat(X[j + o - min(o)] for o in offsets) + b),
    so an input of T frames yields T - (max(o) - min(o)) output frames.  X is
    one utterance (T, k) or a stack of N equal-length ones (N, T, k).
    """
    X = np.asarray(X, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.int64)
    _, _, pre = _tdnn_pre(X, offsets, W, b)
    return relu(pre)


def tdnn_layer_backward(dY: np.ndarray, X: np.ndarray, offsets, W: np.ndarray, b: np.ndarray):
    """Gradients (dX, dW, db); recomputes the ReLU mask from the inputs.

    For a stack X of shape (N, T, k), dW and db are summed over its utterances.
    """
    X = np.asarray(X, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.int64)
    starts, X_cat, pre = _tdnn_pre(X, offsets, W, b)
    dpre = (np.asarray(dY, dtype=np.float64) * (pre > 0.0)).reshape(-1, W.shape[0])
    dW = dpre.T @ X_cat.reshape(dpre.shape[0], -1)
    db = dpre.sum(axis=0)
    T_out, k_in = pre.shape[-2], X.shape[-1]
    dX_cat = (dpre @ W).reshape(*pre.shape[:-1], len(starts), k_in)
    dX = np.zeros_like(X)
    # each context offset reads one time slice of X, so it adds back into that slice
    for c, s in enumerate(starts):
        dX[..., s:s + T_out, :] += dX_cat[..., c, :]
    return dX, dW, db


# ---------------------------------------------------------------------------
# statistics pooling
# ---------------------------------------------------------------------------


def stats_pool(X: np.ndarray, mode: str = POOL_STDDEV) -> np.ndarray:
    """Concatenate the per-dimension mean with the stddev or variance over time.

    X is (T, k), pooled to 2k values, or (N, T, k), pooled to (N, 2k).
    Population (divide-by-T) statistics; the stddev is sqrt(var + EPS_VAR)
    so constant inputs stay differentiable.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim not in (2, 3) or X.shape[-2] < 2:
        raise LengthError(f"stats_pool needs T x k matrices with T >= 2, got {X.shape}")
    if mode not in (POOL_STDDEV, POOL_VARIANCE):
        raise ArgumentError(f"unknown pooling mode {mode!r}")
    mean = X.mean(axis=-2)
    var = np.mean((X - mean[..., None, :]) ** 2, axis=-2)
    second = np.sqrt(var + EPS_VAR) if mode == POOL_STDDEV else var
    return np.concatenate([mean, second], axis=-1)


def stats_pool_backward(dout: np.ndarray, X: np.ndarray, mode: str = POOL_STDDEV) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    dout = np.asarray(dout, dtype=np.float64)
    T, k = X.shape[-2:]
    dmean, dsecond = dout[..., None, :k], dout[..., None, k:]
    centered = X - X.mean(axis=-2, keepdims=True)
    if mode == POOL_STDDEV:
        std = np.sqrt(np.mean(centered**2, axis=-2, keepdims=True) + EPS_VAR)
        dvar = dsecond / (2.0 * std)
    else:
        dvar = dsecond
    # d var / d X[t] = 2 centered[t] / T; the mean coupling cancels because
    # the centered columns sum to zero.
    return dmean / T + centered * (2.0 * dvar / T)


# ---------------------------------------------------------------------------
# quadratic scoring layer
# ---------------------------------------------------------------------------


def quadratic_score(eta_e, eta_t, P, Q, k: float):
    """s = eta_e' Q eta_e + eta_t' Q eta_t + 2 eta_e' P eta_t + k.

    P and Q may be dense symmetric matrices or 1-D arrays holding their
    diagonals.  Inputs may be single vectors or (N, D) batches; the result
    is a scalar or an (N,) score vector accordingly.
    """
    eta_e = np.asarray(eta_e, dtype=np.float64)
    eta_t = np.asarray(eta_t, dtype=np.float64)
    P = np.asarray(P, dtype=np.float64)
    Q = np.asarray(Q, dtype=np.float64)
    if eta_e.shape != eta_t.shape:
        raise ShapeError(f"pair shapes differ: {eta_e.shape} vs {eta_t.shape}")
    d = eta_e.shape[-1]
    if P.shape != Q.shape or P.shape not in ((d,), (d, d)):
        raise ShapeError(f"P/Q shapes {P.shape}/{Q.shape} do not match dim {d}")
    if P.ndim == 1:
        s = (
            np.sum(eta_e * eta_e * Q, axis=-1)
            + np.sum(eta_t * eta_t * Q, axis=-1)
            + 2.0 * np.sum(eta_e * eta_t * P, axis=-1)
            + k
        )
    else:
        s = (
            np.sum((eta_e @ Q) * eta_e, axis=-1)
            + np.sum((eta_t @ Q) * eta_t, axis=-1)
            + 2.0 * np.sum((eta_e @ P) * eta_t, axis=-1)
            + k
        )
    return float(s) if eta_e.ndim == 1 else s


def quadratic_score_backward(ds, eta_e, eta_t, P, Q):
    """Gradients (d_eta_e, d_eta_t, dP, dQ, dk) for quadratic_score.

    ds is the upstream gradient: a scalar for vector inputs, an (N,) array
    for batched pairs (parameter gradients are then summed over the batch).
    """
    eta_e = np.asarray(eta_e, dtype=np.float64)
    eta_t = np.asarray(eta_t, dtype=np.float64)
    P = np.asarray(P, dtype=np.float64)
    Q = np.asarray(Q, dtype=np.float64)
    if eta_e.ndim == 1:
        de, dt, dP, dQ, dk = quadratic_score_backward([ds], eta_e[None], eta_t[None], P, Q)
        return de[0], dt[0], dP, dQ, dk
    ds = np.asarray(ds, dtype=np.float64)[:, None]
    if P.ndim == 1:
        de = ds * (2.0 * eta_e * Q + 2.0 * eta_t * P)
        dt = ds * (2.0 * eta_t * Q + 2.0 * eta_e * P)
        dP = np.sum(ds * 2.0 * eta_e * eta_t, axis=0)
        dQ = np.sum(ds * (eta_e**2 + eta_t**2), axis=0)
    else:
        de = ds * (2.0 * eta_e @ Q + 2.0 * eta_t @ P)
        dt = ds * (2.0 * eta_t @ Q + 2.0 * eta_e @ P)
        dP = 2.0 * (ds * eta_e).T @ eta_t
        dQ = (ds * eta_e).T @ eta_e + (ds * eta_t).T @ eta_t
    dk = float(ds.sum())
    return de, dt, dP, dQ, dk


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    """Per-parameter moment accumulators plus hyperparameters."""

    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_init(params: dict, lr: float = 1e-4) -> AdamState:
    state = AdamState(lr=lr)
    for name, p in params.items():
        state.m[name] = np.zeros_like(np.asarray(p, dtype=np.float64))
        state.v[name] = np.zeros_like(np.asarray(p, dtype=np.float64))
    return state


def adam_step(params: dict, grads: dict, state: AdamState) -> dict:
    """One bias-corrected Adam update; mutates state, returns new params."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    out = {}
    for name, p in params.items():
        g = np.asarray(grads[name], dtype=np.float64)
        if not np.all(np.isfinite(g)):
            raise OptimizerError(f"non-finite gradient for parameter {name!r}")
        if g.shape != np.shape(p):
            raise ShapeError(f"gradient shape {g.shape} != param shape {np.shape(p)} for {name!r}")
        state.m[name] = state.beta1 * state.m[name] + (1.0 - state.beta1) * g
        state.v[name] = state.beta2 * state.v[name] + (1.0 - state.beta2) * g * g
        m_hat = state.m[name] / bc1
        v_hat = state.v[name] / bc2
        out[name] = p - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return out


# ---------------------------------------------------------------------------
# finite-difference gradient checking
# ---------------------------------------------------------------------------


def grad_check(f, inputs, h: float = 1e-5, atol: float = 1e-8) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f(*inputs)`` must return ``(value, grads)`` where grads is a sequence
    of arrays aligned with inputs (entries may be None to skip an input).
    Perturbation goes through multi-indices so any memory layout works.

    ``atol`` floors the per-coordinate denominator: central differences of a
    double-precision function cannot resolve gradients near the rounding
    noise |f| eps / h, so coordinates far below the dominant gradient scale
    are compared absolutely rather than relatively.
    """
    inputs = [np.array(x, dtype=np.float64) for x in inputs]
    _, analytic = f(*inputs)
    worst = 0.0
    for arg, grad in enumerate(analytic):
        if grad is None:
            continue
        grad = np.asarray(grad, dtype=np.float64)
        x = inputs[arg]
        it = np.nditer(x, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = x[idx]
            x[idx] = orig + h
            up, _ = f(*inputs)
            x[idx] = orig - h
            down, _ = f(*inputs)
            x[idx] = orig
            numeric = (up - down) / (2.0 * h)
            a = float(grad[idx])
            denom = max(abs(a) + abs(numeric), atol)
            worst = max(worst, abs(a - numeric) / denom)
            it.iternext()
    return worst
