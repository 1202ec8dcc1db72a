"""Properties of the three scorers and of the hard metrics, on random inputs."""

import contextlib
import io
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from svkit import cli, data, e2e, gplda, metrics, nplda  # noqa: E402

SEEDS = st.integers(0, 2**31 - 1)


def _random_gplda(rng, d):
    B = rng.standard_normal((d, d))
    C = rng.standard_normal((d, d))
    chain = gplda.PreprocessChain(rng.standard_normal(d), rng.standard_normal((d, d)))
    return gplda.make_model(B @ B.T, C @ C.T + np.eye(d), chain, 0.1 * rng.standard_normal(d))


def _random_nplda(rng, d):
    params = nplda.init_random(d, 3, 2, seed=int(rng.integers(2**31)))
    params.p, params.q, params.k = rng.standard_normal(2), rng.standard_normal(2), 0.5
    return params


def _random_e2e(rng, d):
    cfg = e2e.E2EConfig(
        layers=(e2e.TdnnLayerSpec(d, 4, (-1, 0, 1)), e2e.TdnnLayerSpec(4, 4, (0,))),
        embedding_dim=4, head_lda_dim=3, head_out_dim=3,
    )
    model = e2e.init_e2e(cfg, seed=int(rng.integers(2**31)))
    model.head.p, model.head.q = rng.standard_normal(3), rng.standard_normal(3)
    return model


# model kind -> (random model, payload of one random utterance, scorer)
SCORERS = {
    "gplda": (_random_gplda, lambda rng, d: data.Embedding(rng.standard_normal(d)),
              gplda.score_trials),
    "nplda": (_random_nplda, lambda rng, d: data.Embedding(rng.standard_normal(d)),
              nplda.score_trials),
    "e2e": (_random_e2e, lambda rng, d: data.FeatureMatrix(rng.standard_normal((9, d))),
            e2e.score_trials),
}


@pytest.mark.parametrize("kind", sorted(SCORERS))
@settings(max_examples=25, deadline=None)
@given(seed=SEEDS, n_utts=st.integers(2, 6), n_trials=st.integers(1, 12))
def test_scores_symmetric_in_enroll_and_test(kind, seed, n_utts, n_trials):
    make_model, payload, score = SCORERS[kind]
    rng = np.random.default_rng(seed)
    d = 3
    model = make_model(rng, d)
    utts = data.UtteranceSet([data.Utterance(f"u{i}", f"s{i % 2}", "M", "d", payload(rng, d))
                              for i in range(n_utts)])
    pairs = rng.integers(n_utts, size=(n_trials, 2))
    trials = [data.Trial(f"u{e}", f"u{t}") for e, t in pairs]
    swapped = [data.Trial(t.test_id, t.enroll_id) for t in trials]
    fwd, rev = score(model, trials, utts).scores, score(model, swapped, utts).scores
    assert np.allclose(fwd, rev, rtol=0.0, atol=1e-10)


def _scored(scores, labels):
    trials = [data.Trial(f"e{i}", f"t{i}", data.TARGET if y else data.NONTARGET)
              for i, y in enumerate(labels)]
    return data.ScoredTrialSet(trials, np.asarray(scores, dtype=np.float64))


# strictly increasing on the integer scores drawn below, in floating point too
TRANSFORMS = [lambda s: 3.0 * s - 7.0, lambda s: np.exp(s / 4.0), lambda s: s**3, np.arctan]


@settings(max_examples=100, deadline=None)
@given(scores=st.lists(st.integers(-20, 20), min_size=2, max_size=40), data_=st.data(),
       transform=st.sampled_from(TRANSFORMS))
def test_metrics_invariant_under_increasing_transforms(scores, data_, transform):
    # few distinct integers, so ties are common
    n = len(scores)
    labels = data_.draw(st.lists(st.booleans(), min_size=n, max_size=n)
                        .filter(lambda ys: any(ys) and not all(ys)), label="labels")
    before = _scored(scores, labels)
    after = _scored(transform(np.array(scores, dtype=np.float64)), labels)
    assert metrics.min_dcf(after)[0] == metrics.min_dcf(before)[0]
    assert metrics.eer(after) == metrics.eer(before)


@settings(max_examples=100, deadline=None)
@given(tgt=st.lists(st.integers(-10, 10), min_size=1, max_size=30),
       non=st.lists(st.integers(-10, 10), min_size=1, max_size=30),
       thresholds=st.lists(st.floats(-12, 12), min_size=1, max_size=30))
def test_error_rates_monotone_in_threshold(tgt, non, thresholds):
    p_miss, p_fa = metrics.error_rates(np.array(tgt, dtype=np.float64),
                                       np.array(non, dtype=np.float64), np.sort(thresholds))
    assert np.all(np.diff(p_miss) >= 0.0)
    assert np.all(np.diff(p_fa) <= 0.0)


def _staircase_eer(scores, labels):
    """EER by brute force: each distinct score, then +inf, used as the threshold."""
    scores, labels = np.asarray(scores, dtype=np.float64), np.asarray(labels, dtype=bool)
    tgt, non = scores[labels], scores[~labels]
    points = [(np.mean(tgt < th), np.mean(non >= th)) for th in [*np.unique(scores), np.inf]]
    for (m0, f0), (m1, f1) in zip(points, points[1:]):
        if m0 - f0 <= 0.0 < m1 - f1:
            return m0 + (f0 - m0) / ((m1 - m0) - (f1 - f0)) * (m1 - m0)
    raise AssertionError("P_Miss - P_FA never turns positive")


OPERATING_POINTS = [metrics.DcfWeights(p_target=p) for p in (0.01, 0.05, 0.5)]


@settings(max_examples=200, deadline=None)
@given(scores=st.lists(st.integers(-5, 5), min_size=2, max_size=60), data_=st.data(),
       weights=st.sampled_from(OPERATING_POINTS))
def test_one_sweep_serves_every_metric(scores, data_, weights):
    # eleven distinct values over up to sixty trials: ties everywhere
    n = len(scores)
    labels = data_.draw(st.lists(st.booleans(), min_size=n, max_size=n)
                        .filter(lambda ys: any(ys) and not all(ys)), label="labels")
    scored = _scored(scores, labels)
    report = metrics.evaluate(scored, weights)
    assert (report.eer, report.min_dcf, report.threshold) == (metrics.eer(scored),
                                                             *metrics.min_dcf(scored, weights))
    first, *extra = OPERATING_POINTS
    assert metrics.evaluate(scored, first, extra).min_dcf_avg == float(
        np.mean([metrics.min_dcf(scored, w)[0] for w in OPERATING_POINTS]))
    assert report.min_dcf_avg == report.min_dcf
    assert metrics.eer(scored) == pytest.approx(_staircase_eer(scores, labels), abs=1e-12)


# finite floats that are hard to sort and compare: both zeros, the extremes, subnormals;
# small integers and repeated draws give ties
TINY = np.finfo(float).smallest_subnormal
HARD_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1e308, -1e308, np.finfo(float).max, -np.finfo(float).max,
                     TINY, -TINY, 3 * TINY, np.finfo(float).smallest_normal]),
    st.integers(-3, 3).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _bits(*values):
    return tuple(float(v).hex() for v in values)


@settings(max_examples=300, deadline=None)
@given(scores=st.lists(HARD_FLOATS, min_size=2, max_size=40), data_=st.data(),
       weights=st.sampled_from(OPERATING_POINTS))
def test_distinct_scores_are_np_unique_bit_for_bit(scores, data_, weights):
    s = np.array(scores, dtype=np.float64)
    assert metrics._distinct(s).tobytes() == np.unique(s).tobytes()
    n = len(scores)
    labels = data_.draw(st.lists(st.booleans(), min_size=n, max_size=n)
                        .filter(lambda ys: any(ys) and not all(ys)), label="labels")
    scored = _scored(s, labels)
    first, *extra = OPERATING_POINTS
    results = []
    for distinct in (metrics._distinct, np.unique):
        with mock.patch.object(metrics, "_distinct", distinct):
            report = metrics.evaluate(scored, first, extra)
            results.append(_bits(report.eer, report.min_dcf, report.threshold,
                                 report.min_dcf_avg, *metrics.min_dcf(scored, weights),
                                 metrics.eer(scored)))
    assert results[0] == results[1]


@settings(max_examples=50, deadline=None)
@given(scores=st.lists(st.integers(-4, 4), min_size=2, max_size=30), data_=st.data())
def test_evaluate_ignores_line_order(scores, data_):
    # the key and the score file each in two random line orders: one printed report
    n = len(scores)
    labels = data_.draw(st.lists(st.booleans(), min_size=n, max_size=n)
                        .filter(lambda ys: any(ys) and not all(ys)), label="labels")
    key = [f"e{i} t{i} {data.TARGET if y else data.NONTARGET}\n" for i, y in enumerate(labels)]
    lines = [f"e{i} t{i} {s}\n" for i, s in enumerate(scores)]
    reports = []
    with tempfile.TemporaryDirectory() as tmp:
        for k in range(2):
            order = data_.draw(st.permutations(range(n)), label="key order")
            (Path(tmp) / "key").write_text("".join(key[i] for i in order))
            order = data_.draw(st.permutations(range(n)), label="score order")
            (Path(tmp) / "scores").write_text("".join(lines[i] for i in order))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.main(["evaluate", "--scores", f"{tmp}/scores", "--key", f"{tmp}/key",
                                 "--extra-p-target", "0.5"]) == 0
            reports.append((out.getvalue(), (Path(tmp) / "scores.metrics.csv").read_text()))
    assert reports[0] == reports[1]
