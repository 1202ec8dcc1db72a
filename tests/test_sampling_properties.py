"""Sampler invariants on random gender x dataset x speaker x utterance corpora."""

from collections import Counter

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from svkit import data, sampling  # noqa: E402
from svkit.errors import ArgumentError, SamplerError  # noqa: E402

EMBEDDING = data.Embedding(np.zeros(2))


@st.composite
def corpora(draw, max_speakers=6, max_utts=12):
    """Utterances of random partitions, in a random order.

    Partitions often share one speaker layout: equal partitions are where
    rounded per-partition trial quotas drift from the total asked for.
    """
    layouts = st.lists(st.integers(1, max_utts), min_size=1, max_size=max_speakers)
    shared = draw(layouts)
    utts = []
    for g in draw(st.sampled_from([("M",), ("F",), ("M", "F")])):
        for ds in draw(st.sampled_from([("d1",), ("d1", "d2"), ("d1", "d2", "d3")])):
            counts = draw(st.one_of(st.just(shared), layouts))
            for s, n in enumerate(counts):
                utts += [data.Utterance(f"{g}-{ds}-s{s}-u{r}", f"{g}-{ds}-s{s}", g, ds, EMBEDDING)
                         for r in range(n)]
    return [utts[i] for i in draw(st.permutations(range(len(utts))))]


def partitions(utts):
    """{(gender, dataset): Counter of utterances per speaker}."""
    parts = {}
    for u in utts:
        parts.setdefault((u.gender, u.dataset_id), Counter())[u.speaker_id] += 1
    return parts


@settings(max_examples=200, deadline=None)
@given(utts=corpora(), draws=st.data(), target_ratio=st.sampled_from([0.0, 0.5, 1.0]),
       seed=st.integers(0, 2**31 - 1))
def test_algo1_invariants(utts, draws, target_ratio, seed):
    max_total = sum(sum(c.values()) // 2 for c in partitions(utts).values())
    n_trials = draws.draw(st.integers(1, max_total + 1), label="n_trials")
    try:
        batches = sampling.sample_trials_algo1(utts, n_trials, target_ratio, seed=seed)
    except SamplerError:
        # only an unattainable count
        assert n_trials > max_total
        return
    by_id = {u.id: u for u in utts}
    trials = [t for b in batches for t in b.trials]
    assert len(trials) == n_trials
    used = [i for t in trials for i in (t.enroll_id, t.test_id)]
    assert len(used) == len(set(used))
    for b in batches:
        referenced = {i for t in b.trials for i in (t.enroll_id, t.test_id)}
        assert {u.id for u in b.utterances} == referenced
    for t in trials:
        e, s = by_id[t.enroll_id], by_id[t.test_id]
        assert (e.gender, e.dataset_id) == (s.gender, s.dataset_id)
        assert (t.label == data.TARGET) == (e.speaker_id == s.speaker_id)


@settings(max_examples=250, deadline=None)
@given(utts=corpora(max_utts=16), pairs=st.integers(2, 8), m_min=st.integers(2, 4),
       m_span=st.integers(0, 6), n_batches=st.integers(1, 5), seed=st.integers(0, 2**31 - 1))
def test_algo2_epoch_invariants(utts, pairs, m_min, m_span, n_batches, seed):
    m_max = m_min + m_span
    if m_max > pairs:
        # every speaker of a batch needs a pair: the config is refused
        with pytest.raises(ArgumentError, match="m_max"):
            sampling.SamplerConfig(utts_per_batch=2 * pairs, m_min=m_min, m_max=m_max)
        return
    cfg = sampling.SamplerConfig(utts_per_batch=2 * pairs, m_min=m_min, m_max=m_max, seed=seed)
    # a partition can fill a batch iff it has m_min speakers with >= 2 utterances
    # and enough of them in even counts
    feasible = any(
        sum(n >= 2 for n in c.values()) >= m_min
        and sum(n // 2 * 2 for n in c.values()) >= 2 * pairs
        for c in partitions(utts).values()
    )
    if not feasible:
        with pytest.raises(SamplerError, match="no partition can supply"):
            sampling.sample_epoch_algo2(utts, cfg, n_batches)
        return
    batches = sampling.sample_epoch_algo2(utts, cfg, n_batches)
    assert len(batches) == n_batches
    for b in batches:
        assert {(u.gender, u.dataset_id) for u in b.utterances} == {(b.gender, b.dataset_id)}
        assert len(b.utterances) == len({u.id for u in b.utterances}) == 2 * pairs
        speaker = {u.id: u.speaker_id for u in b.utterances}
        enroll = list(dict.fromkeys(t.enroll_id for t in b.trials))
        test = list(dict.fromkeys(t.test_id for t in b.trials))
        assert len(enroll) == len(test) == pairs
        assert set(enroll) | set(test) == set(speaker) and not set(enroll) & set(test)
        assert [(t.enroll_id, t.test_id) for t in b.trials] == [(e, s) for e in enroll
                                                                 for s in test]
        for t in b.trials:
            assert (t.label == data.TARGET) == (speaker[t.enroll_id] == speaker[t.test_id])
        per_speaker = Counter(speaker.values())
        assert all(n % 2 == 0 for n in per_speaker.values())
        assert Counter(speaker[i] for i in enroll) == Counter(speaker[i] for i in test)
