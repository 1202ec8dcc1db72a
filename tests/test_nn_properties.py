"""Backward passes given the forward's outputs equal the recomputing forms, bit for bit."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from svkit import nn  # noqa: E402


def same(a, b):
    return a is None and b is None or a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def tdnn_cases(draw):
    """A layer input (T, k) or (N, T, k), its parameters and an upstream gradient."""
    offsets = draw(st.sampled_from([(0,), (-1, 0, 1), (-2, 0, 2)]), label="offsets")
    span = max(offsets) - min(offsets)
    shape = (draw(st.integers(span + 1, span + 8), label="T"), draw(st.integers(1, 4), label="k"))
    if draw(st.booleans(), label="stacked"):
        shape = (draw(st.integers(1, 4), label="N"), *shape)
    k_out = draw(st.integers(1, 4), label="k_out")
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1), label="seed"))
    # small integers make exact zeros and ties common; normals make rounding matter
    if draw(st.booleans(), label="integer values"):
        X = rng.integers(-2, 3, shape).astype(float)
        W = rng.integers(-2, 3, (k_out, len(offsets) * shape[-1])).astype(float)
    else:
        X = rng.standard_normal(shape)
        W = rng.standard_normal((k_out, len(offsets) * shape[-1]))
    b = rng.standard_normal(k_out)
    if draw(st.booleans(), label="a frame of zero pre-activations"):
        # the same GEMM plus its own negation: every pre-activation of that frame is 0
        _, _, gemm = nn._tdnn_pre(X, np.array(offsets), W, np.zeros(k_out))
        frames = gemm.reshape(-1, k_out)
        b = -frames[draw(st.integers(0, len(frames) - 1), label="zero frame")]
        _, _, pre = nn._tdnn_pre(X, np.array(offsets), W, b)
        assert (pre == 0.0).any()
    dY = rng.standard_normal(nn.tdnn_layer(X, offsets, W, b).shape)
    return X, offsets, W, b, dY


@settings(max_examples=300, deadline=None)
@given(case=tdnn_cases(), input_grad=st.booleans())
def test_tdnn_backward_from_the_output_equals_the_recomputing_form(case, input_grad):
    X, offsets, W, b, dY = case
    Y = nn.tdnn_layer(X, offsets, W, b)
    got = nn.tdnn_layer_backward(dY, X, offsets, W, b, input_grad, Y=Y)
    want = nn.tdnn_layer_backward(dY, X, offsets, W, b, input_grad)
    assert (got[0] is None) == (not input_grad)
    assert all(same(g, w) for g, w in zip(got, want))


def reference_pool_backward(dout, X, mode):
    """The stats_pool gradient with its statistics computed afresh from X."""
    T, k = X.shape[-2:]
    dmean, dsecond = dout[..., None, :k], dout[..., None, k:]
    centered = X - X.mean(axis=-2, keepdims=True)
    if mode == nn.POOL_STDDEV:
        dsecond = dsecond / (2.0 * np.sqrt(np.mean(centered**2, axis=-2, keepdims=True)
                                           + nn.EPS_VAR))
    return dmean / T + centered * (2.0 * dsecond / T)


@settings(max_examples=300, deadline=None)
@given(shape=st.tuples(st.integers(2, 9), st.integers(1, 4)), stacked=st.integers(0, 4),
       constant=st.booleans(), seed=st.integers(0, 2**31 - 1),
       mode=st.sampled_from([nn.POOL_STDDEV, nn.POOL_VARIANCE]))
def test_pool_backward_from_the_pooled_vector_equals_the_recomputing_form(shape, stacked,
                                                                          constant, seed, mode):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((stacked, *shape) if stacked else shape)
    if constant:
        X[..., 0] = 1.5  # a zero-variance column
    dout = rng.standard_normal(nn.stats_pool(X, mode).shape)
    got = nn.stats_pool_backward(dout, X, mode, pooled=nn.stats_pool(X, mode))
    assert same(got, nn.stats_pool_backward(dout, X, mode))
    assert same(got, reference_pool_backward(dout, X, mode))
