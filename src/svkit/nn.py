"""Dense layer primitives with analytic backward passes.

Everything here is double precision numpy and pure: forward functions map
inputs to outputs, backward functions map the upstream gradient plus the
original inputs to downstream gradients.  No layer keeps hidden state, so
finite-difference checks can perturb any input freely.

Supported operators: affine, unit-length normalization, TDNN layer (temporal
convolution with ReLU), statistics pooling (mean + stddev or variance), the
symmetric quadratic scoring layer with diagonal P and Q on row-aligned pairs
and on the product of two row sets, and the Adam update of a model's one
parameter vector.  The dense form is the oracle ``gplda.score_pairs_dense``.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import ArgumentError, LengthError, ModelError, OptimizerError, ShapeError

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


def tdnn_layer_backward(dY: np.ndarray, X: np.ndarray, offsets, W: np.ndarray, b: np.ndarray,
                        input_grad: bool = True):
    """Gradients (dX, dW, db); recomputes the ReLU mask from the inputs.

    For a stack X of shape (N, T, k), dW and db are summed over its utterances.
    With ``input_grad`` false dX is None and costs nothing: a model's first
    layer reads acoustic features, which take no gradient.
    """
    X = np.asarray(X, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.int64)
    starts, X_cat, pre = _tdnn_pre(X, offsets, W, b)
    dpre = (np.asarray(dY, dtype=np.float64) * (pre > 0.0)).reshape(-1, W.shape[0])
    dW = dpre.T @ X_cat.reshape(dpre.shape[0], -1)
    db = dpre.sum(axis=0)
    if not input_grad:
        return None, dW, db
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


def quadratic_score(eta_e, eta_t, p, q, k: float):
    """s = eta_e' Q eta_e + eta_t' Q eta_t + 2 eta_e' P eta_t + k with diagonal P and Q.

    p and q hold the diagonals of P and Q.  Inputs may be single vectors or
    (N, D) batches; the result is a scalar or an (N,) score vector accordingly.
    """
    eta_e = np.asarray(eta_e, dtype=np.float64)
    eta_t = np.asarray(eta_t, dtype=np.float64)
    if eta_e.shape != eta_t.shape:
        raise ShapeError(f"pair shapes differ: {eta_e.shape} vs {eta_t.shape}")
    d = eta_e.shape[-1]
    if np.shape(p) != (d,) or np.shape(q) != (d,):
        raise ShapeError(f"p/q shapes {np.shape(p)}/{np.shape(q)} do not match dim {d}")
    s = (np.sum(eta_e * eta_e * q, axis=-1) + np.sum(eta_t * eta_t * q, axis=-1)
         + 2.0 * np.sum(eta_e * eta_t * p, axis=-1) + k)
    return float(s) if eta_e.ndim == 1 else s


def quadratic_score_backward(ds, eta_e, eta_t, p, q):
    """Gradients (d_eta_e, d_eta_t, dp, dq, dk) for quadratic_score.

    ds is the upstream gradient: a scalar for vector inputs, an (N,) array
    for batched pairs (parameter gradients are then summed over the batch).
    """
    eta_e = np.asarray(eta_e, dtype=np.float64)
    eta_t = np.asarray(eta_t, dtype=np.float64)
    ds = np.asarray(ds, dtype=np.float64)[..., None]
    rows = tuple(range(eta_e.ndim - 1))  # the leading axes, none for one vector
    de = ds * (2.0 * eta_e * q + 2.0 * eta_t * p)
    dt = ds * (2.0 * eta_t * q + 2.0 * eta_e * p)
    dp = np.sum(ds * 2.0 * eta_e * eta_t, axis=rows)
    dq = np.sum(ds * (eta_e**2 + eta_t**2), axis=rows)
    return de, dt, dp, dq, float(ds.sum())


def quadratic_score_product(A_e, A_t, p, q, k: float) -> np.ndarray:
    """Quadratic scores of every (row of A_e, row of A_t) pair, an (n_e, n_t) matrix.

    Entry (i, j) is quadratic_score(A_e[i], A_t[j], p, q, k) with diagonal p
    and q; the matrix is (A_e^2 q) 1' + 1 (A_t^2 q)' + 2 A_e diag(p) A_t' + k,
    one GEMM in place of n_e n_t row sums.
    """
    A_e = np.asarray(A_e, dtype=np.float64)
    A_t = np.asarray(A_t, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if A_e.ndim != 2 or A_t.ndim != 2 or A_e.shape[1] != A_t.shape[1]:
        raise ShapeError(f"need (n_e, d) and (n_t, d) rows, got {A_e.shape} and {A_t.shape}")
    d = A_e.shape[1]
    if p.shape != (d,) or q.shape != (d,):
        raise ShapeError(f"p/q shapes {p.shape}/{q.shape} do not match dim {d}")
    S = (A_e * (2.0 * p)) @ A_t.T
    S += ((A_e * A_e) @ q)[:, None]
    S += (A_t * A_t) @ q
    S += k
    return S


def quadratic_score_product_backward(dS, A_e, A_t, p, q):
    """Gradients (dA_e, dA_t, dp, dq, dk) for quadratic_score_product.

    dS is the (n_e, n_t) upstream gradient; every gradient is a GEMM of it
    or of its row and column sums against the rows.
    """
    dS = np.asarray(dS, dtype=np.float64)
    A_e = np.asarray(A_e, dtype=np.float64)
    A_t = np.asarray(A_t, dtype=np.float64)
    rows, cols = dS.sum(axis=1), dS.sum(axis=0)
    dS_At = dS @ A_t  # (n_e, d): sum_j dS[i, j] A_t[j]
    dS_Ae = dS.T @ A_e  # (n_t, d): sum_i dS[i, j] A_e[i]
    dA_e = 2.0 * (rows[:, None] * A_e * q + dS_At * p)
    dA_t = 2.0 * (cols[:, None] * A_t * q + dS_Ae * p)
    dp = 2.0 * np.sum(A_e * dS_At, axis=0)
    dq = rows @ (A_e * A_e) + cols @ (A_t * A_t)
    return dA_e, dA_t, dp, dq, float(rows.sum())


# ---------------------------------------------------------------------------
# parameter vectors and Adam
# ---------------------------------------------------------------------------


class ParamView:
    """Attribute access to one named view of a ParamVector: a float if 0-d; assigning fills it."""

    def __init__(self, name: str):
        self.name = name

    def __get__(self, obj, owner=None):
        view = obj.views[self.name]
        return view if view.ndim else float(view)

    def __set__(self, obj, value):
        obj.views[self.name][...] = value


class ParamVector(Mapping):
    """Named parameters that are views of one float64 vector: a mapping of name to view.

    ``shapes`` maps each name, in vector order, to its shape (``()`` for a
    scalar); the i-th name's entries start at ``offsets[i]``, in C order.  A
    model, its gradients and Adam's moments are vectors of one layout.
    """

    def __init__(self, shapes: dict[str, tuple[int, ...]], vector: np.ndarray | None = None):
        self.shapes = shapes
        self.offsets = list(accumulate(map(math.prod, shapes.values()), initial=0))
        self.vector = np.zeros(self.offsets[-1]) if vector is None else vector
        self.views = {name: self.vector[start:end].reshape(shape) for (name, shape), start, end
                      in zip(shapes.items(), self.offsets, self.offsets[1:])}

    def __getitem__(self, name: str) -> np.ndarray:
        return self.views[name]

    def __iter__(self):
        return iter(self.views)

    def __len__(self) -> int:
        return len(self.views)

    @classmethod
    def _over(cls, shapes: dict[str, tuple[int, ...]], vector: np.ndarray | None = None):
        """Parameters of this class and layout ``shapes`` whose vector is ``vector``."""
        params = cls.__new__(cls)
        ParamVector.__init__(params, shapes, vector)
        return params

    def like(self, vector: np.ndarray) -> "ParamVector":
        """Parameters of this kind and layout whose vector is ``vector``."""
        return self._over(self.shapes, vector)

    def copy(self) -> "ParamVector":
        return self.like(self.vector.copy())

    def zeros(self) -> "ParamVector":
        return self.like(np.zeros_like(self.vector))

    def to_dict(self) -> dict[str, np.ndarray]:
        return dict(self.views)

    def from_dict(self, d: dict[str, np.ndarray]) -> "ParamVector":
        """Parameters of this layout holding the arrays of ``d``, matched by name and shape."""
        extra = sorted(d.keys() - self.shapes.keys())
        if extra:
            raise ModelError(f"unexpected parameter {extra[0]!r}")
        out = self.zeros()
        for name, view in out.views.items():
            if name not in d:
                raise ModelError(f"parameter {name!r}: missing, expected shape {view.shape}")
            if np.shape(d[name]) != view.shape:
                raise ModelError(f"parameter {name!r}: shape {np.shape(d[name])}, "
                                 f"expected shape {view.shape}")
            view[...] = d[name]
        return out


@dataclass
class AdamState:
    """Adam's moments, vectors of the model's layout, and its hyperparameters."""

    m: np.ndarray
    v: np.ndarray
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0


def adam_init(params: ParamVector, lr: float = 1e-4) -> AdamState:
    return AdamState(np.zeros_like(params.vector), np.zeros_like(params.vector), lr=lr)


def adam_step(params: ParamVector, grads: ParamVector, state: AdamState) -> None:
    """One bias-corrected Adam update of ``params`` and ``state``, in place."""
    if grads.shapes != params.shapes:
        raise ShapeError("gradient layout differs from the parameter layout")
    g, finite = grads.vector, np.isfinite(grads.vector)
    if not finite.all():
        bad = list(params)[np.searchsorted(params.offsets, np.argmin(finite), "right") - 1]
        raise OptimizerError(f"non-finite gradient for parameter {bad!r}")
    state.step += 1
    bc1, bc2 = 1.0 - state.beta1**state.step, 1.0 - state.beta2**state.step
    state.m[...] = state.beta1 * state.m + (1.0 - state.beta1) * g
    state.v[...] = state.beta2 * state.v + (1.0 - state.beta2) * g * g
    params.vector -= state.lr * (state.m / bc1) / (np.sqrt(state.v / bc2) + state.eps)


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
