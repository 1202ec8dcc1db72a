"""Cross-product batches scored as blocks give what the per-trial gather path gives."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from svkit import data, nplda, sampling  # noqa: E402

REL = 1e-12


@st.composite
def block_batches(draw):
    """A CrossProduct batch over random embeddings; its two sides may share utterances."""
    n = draw(st.integers(2, 10), label="utterances")
    # the head's first affine maps to dim - 1 >= 2: length-normalising one
    # coordinate has a zero gradient, whose rounding no relative bound can hold
    dim = draw(st.integers(3, 6), label="dim")
    seed = draw(st.integers(0, 2**31 - 1), label="seed")
    rng = np.random.default_rng(seed)
    utts = data.UtteranceSet([
        data.Utterance(f"u{i}", f"s{i}", "M", "d", data.Embedding(rng.standard_normal(dim)))
        for i in range(n)
    ])
    ids = [f"u{i}" for i in range(n)]
    enroll = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=n, unique=True),
                  label="enroll")
    test = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=n, unique=True),
                label="test")
    size = len(enroll) * len(test)
    flat = draw(st.lists(st.booleans(), min_size=size, max_size=size)
                .filter(lambda ys: any(ys) and not all(ys)), label="labels")
    labels = np.array(flat, dtype=np.float64).reshape(len(enroll), len(test))
    return sampling.TrialBatch(utts, sampling.CrossProduct(enroll, test, labels)), dim, seed


def assert_close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= REL * np.max(np.abs(want), initial=0.0)


@settings(max_examples=150, deadline=None)
@given(case=block_batches(), alpha=st.sampled_from([1.0, 4.0, 10.0]),
       theta=st.floats(-1.0, 1.0))
def test_block_matches_gather(case, alpha, theta):
    batch, dim, seed = case
    gather = sampling.TrialBatch(batch.utterances, list(batch.trials))
    assert batch.block is not None and gather.block is None
    params = nplda.init_random(dim, dim - 1, dim - 2, seed=seed)
    params.theta = theta
    cfg = nplda.LossConfig(alpha=alpha)
    grads, want_grads = params.zeros(), params.zeros()
    loss, dX = nplda.stack_loss_and_grads(params, batch.embeddings, batch, cfg, grads)
    want_loss, want_dX = nplda.stack_loss_and_grads(
        params, gather.embeddings, gather, cfg, want_grads)
    assert abs(loss - want_loss) <= REL * abs(want_loss)
    assert grads.keys() == want_grads.keys()
    for name in grads:
        assert_close(grads[name], want_grads[name])
    assert_close(dX, want_dX)


@settings(max_examples=100, deadline=None)
@given(case=block_batches())
def test_trials_are_the_enroll_major_product(case):
    batch, _, _ = case
    p = batch.trials
    enroll, test = p.sides
    labels = p.labels.reshape(len(enroll), len(test))
    want = [data.Trial(e, t, data.TARGET if labels[i, j] else data.NONTARGET)
            for i, e in enumerate(enroll) for j, t in enumerate(test)]
    assert list(p) == want
    assert len(p) == len(want)
    assert p[-1] == want[-1] and p[1:3] == want[1:3]
    assert batch.ids == sorted({*enroll, *test})
