"""Write/read/write cycles of checkpoints and of every text format, on random values.

Values come back bit for bit (the sign of zero included) and the second write
is byte-identical to the first.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import array_shapes, arrays  # noqa: E402

from svkit import checkpoint, data  # noqa: E402

TINY = np.finfo(np.float64).smallest_subnormal
HUGE = np.finfo(np.float64).max
# any finite double; the edges are drawn on purpose, not left to chance
FINITE = st.one_of(st.sampled_from([0.0, -0.0, TINY, -TINY, HUGE, -HUGE]),
                   st.floats(allow_nan=False, allow_infinity=False))
TOKENS = st.text("abcdefghijklmnopqrstuvwxyz0123456789-_.", min_size=1, max_size=6)


def _bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


def _cycle(write, read, value, rewrite=None):
    """(what ``read`` gave back, first file bytes, second file bytes)."""
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first", Path(tmp) / "second"
        write(value, first)
        back = read(first)
        (rewrite or write)(back, second)
        return back, first.read_bytes(), second.read_bytes()


@settings(max_examples=150, deadline=None)
@given(params=st.dictionaries(TOKENS, arrays(np.float64, array_shapes(min_dims=0, max_dims=3),
                                             elements=FINITE), min_size=1, max_size=4),
       meta=st.dictionaries(TOKENS, TOKENS, max_size=3))
def test_checkpoint_cycle(params, meta):
    (back, back_meta), first, second = _cycle(
        lambda p, path: checkpoint.save_params(path, p, meta), checkpoint.load_params, params,
        rewrite=lambda loaded, path: checkpoint.save_params(path, loaded[0], loaded[1]))
    assert back_meta == meta
    assert list(back) == list(params)
    for name, value in params.items():
        assert back[name].shape == value.shape
        assert _bits(back[name]) == _bits(value)
    assert first == second


@st.composite
def utterance_sets(draw, payload):
    """Utterances with unique ids and one payload dimension."""
    dim = draw(st.integers(1, 4))
    utts = []
    for u in draw(st.lists(TOKENS, min_size=1, max_size=4, unique=True)):
        shape = (dim,) if payload is data.Embedding else (draw(st.integers(1, 3)), dim)
        utts.append(data.Utterance(u, draw(TOKENS), draw(st.sampled_from(data.GENDERS)),
                                   draw(TOKENS),
                                   payload(draw(arrays(np.float64, shape, elements=FINITE)))))
    return data.UtteranceSet(utts)


@pytest.mark.parametrize("payload, write, read, values", [
    (data.Embedding, data.write_embeddings, data.read_embeddings, lambda p: p.vector),
    (data.FeatureMatrix, data.write_features, data.read_features, lambda p: p.frames),
], ids=["embeddings", "features"])
@settings(max_examples=100, deadline=None)
@given(draws=st.data())
def test_utterance_file_cycle(payload, write, read, values, draws):
    utts = draws.draw(utterance_sets(payload), label="utterances")
    back, first, second = _cycle(write, read, utts)
    assert ([(u.id, u.speaker_id, u.gender, u.dataset_id) for u in back]
            == [(u.id, u.speaker_id, u.gender, u.dataset_id) for u in utts])
    for got, want in zip(back, utts):
        assert values(got.payload).shape == values(want.payload).shape
        assert _bits(values(got.payload)) == _bits(values(want.payload))
    assert first == second


TRIALS = st.lists(st.builds(data.Trial, TOKENS, TOKENS,
                            st.sampled_from([data.TARGET, data.NONTARGET, None])),
                  min_size=1, max_size=6)


@settings(max_examples=100, deadline=None)
@given(trials=TRIALS)
def test_trial_file_cycle(trials):
    back, first, second = _cycle(data.write_trials, data.read_trials, trials)
    assert list(back) == trials
    assert first == second


@settings(max_examples=100, deadline=None)
@given(trials=TRIALS, draws=st.data())
def test_score_file_cycle(trials, draws):
    scores = draws.draw(arrays(np.float64, len(trials), elements=FINITE), label="scores")
    back, first, second = _cycle(data.write_scores, data.read_scores,
                                 data.ScoredTrialSet(trials, scores))
    assert [(t.enroll_id, t.test_id) for t in back.trials] == [(t.enroll_id, t.test_id)
                                                               for t in trials]
    assert _bits(back.scores) == _bits(scores)
    assert first == second
