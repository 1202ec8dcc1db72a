import numpy as np
import pytest

from svkit import data, metrics
from svkit.errors import ArgumentError, MetricError


def scored_from(targets, nontargets):
    trials = [data.Trial(f"e{i}", f"t{i}", "target") for i in range(len(targets))]
    trials += [
        data.Trial(f"e{i}", f"t{i}", "nontarget")
        for i in range(len(targets), len(targets) + len(nontargets))
    ]
    return data.ScoredTrialSet(trials, np.concatenate([targets, nontargets]).astype(float))


def random_scored(rng, n_max=2000, round_to=None):
    n = int(rng.integers(10, n_max + 1))
    scores = rng.standard_normal(n)
    if round_to is not None:
        scores = np.round(scores, round_to)
    labels = rng.random(n) < rng.uniform(0.1, 0.9)
    labels[0], labels[1] = True, False
    return scored_from(scores[labels], scores[~labels])


def brute_force_min_dcf(scored, beta):
    """Independent quadratic-time sweep used as the oracle."""
    labels = scored.labels()
    tgt = scored.scores[labels == 1]
    non = scored.scores[labels == 0]
    distinct = np.unique(scored.scores)
    cands = [distinct[0] - 1.0, distinct[-1] + 1.0]
    cands += [(a + b) / 2.0 for a, b in zip(distinct[:-1], distinct[1:])]
    best, best_t = np.inf, None
    for th in cands:
        cost = np.mean(tgt < th) + beta * np.mean(non >= th)
        if cost < best:
            best, best_t = cost, th
    return best, best_t


def brute_force_eer(scored):
    labels = scored.labels()
    tgt = scored.scores[labels == 1]
    non = scored.scores[labels == 0]
    distinct = np.unique(scored.scores)
    cands = np.concatenate(
        [[distinct[0] - 1.0], (distinct[:-1] + distinct[1:]) / 2.0, [distinct[-1] + 1.0]]
    )
    pts = [(np.mean(tgt < th), np.mean(non >= th)) for th in cands]
    for i in range(1, len(pts)):
        m0, f0 = pts[i - 1]
        m1, f1 = pts[i]
        if (m0 - f0) <= 0.0 < (m1 - f1):
            t = (f0 - m0) / ((m1 - m0) - (f1 - f0))
            return m0 + t * (m1 - m0)
    raise AssertionError("no crossing found")


class TestBeta:
    def test_symmetric_point(self):
        assert metrics.DcfWeights(1, 1, 0.5).beta == 1.0

    def test_hand_values(self):
        assert abs(metrics.DcfWeights(1, 1, 0.05).beta - 19.0) < 1e-12
        assert abs(metrics.DcfWeights(10, 1, 0.01).beta - 9.9) < 1e-12

    def test_default_is_99(self):
        assert abs(metrics.DcfWeights().beta - 99.0) < 1e-12

    def test_domain_checks(self):
        with pytest.raises(ArgumentError):
            metrics.DcfWeights(0, 1, 0.5).beta
        with pytest.raises(ArgumentError):
            metrics.DcfWeights(1, 1, 1.0).beta

    @pytest.mark.parametrize("c_miss, c_fa", [(np.inf, 1), (1, np.inf), (np.nan, 1), (1, np.nan)])
    def test_costs_must_be_finite(self, c_miss, c_fa):
        with pytest.raises(ArgumentError, match="costs must be finite and positive"):
            metrics.DcfWeights(c_miss, c_fa, 0.01)


class TestDcf:
    def test_accept_all(self):
        st = scored_from([1.0, 2.0], [0.0, 0.5])
        w = metrics.DcfWeights(1, 1, 0.5)
        assert metrics.dcf(st, -10.0, w) == w.beta

    def test_reject_all(self):
        st = scored_from([1.0, 2.0], [0.0, 0.5])
        assert metrics.dcf(st, 10.0, metrics.DcfWeights(1, 1, 0.5)) == 1.0

    def test_hand_count(self):
        st = scored_from([2.0, 0.0], [1.0, -1.0])
        assert metrics.dcf(st, 0.5, metrics.DcfWeights(1, 1, 0.5)) == 1.0

    def test_tie_counts_as_accept(self):
        st = scored_from([1.0], [0.5])
        # the non-target sits exactly at the threshold and is accepted
        assert metrics.dcf(st, 0.5, metrics.DcfWeights(1, 1, 0.5)) == 1.0

    def test_single_class_rejected(self):
        trials = [data.Trial("a", "b", "target")]
        st = data.ScoredTrialSet(trials, np.array([1.0]))
        with pytest.raises(MetricError):
            metrics.dcf(st, 0.0)

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        st = random_scored(rng, 200)
        w = metrics.DcfWeights()
        for c in (-3.0, 0.7, 12.0):
            shifted = data.ScoredTrialSet(st.trials, st.scores + c)
            assert abs(metrics.dcf(st, 0.3, w) - metrics.dcf(shifted, 0.3 + c, w)) < 1e-12


class TestMinDcf:
    def test_separable_is_zero(self):
        st = scored_from([2.0, 3.0], [-1.0, 0.0])
        cost, theta = metrics.min_dcf(st)
        assert cost == 0.0
        assert 0.0 < theta < 2.0

    def test_bounded_by_trivial_policies(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            st = random_scored(rng, 300)
            for w in (metrics.DcfWeights(), metrics.DcfWeights(1, 1, 0.5)):
                cost, _ = metrics.min_dcf(st, w)
                assert cost <= min(1.0, w.beta) + 1e-12

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(2)
        w = metrics.DcfWeights()
        for i in range(50):
            st = random_scored(rng, 500, round_to=2 if i % 2 else None)
            got, _ = metrics.min_dcf(st, w)
            want, _ = brute_force_min_dcf(st, w.beta)
            assert got == pytest.approx(want, abs=1e-12)

    def test_witness_threshold_achieves_cost(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            st = random_scored(rng, 200)
            w = metrics.DcfWeights()
            cost, theta = metrics.min_dcf(st, w)
            assert metrics.dcf(st, theta, w) == pytest.approx(cost, abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(4)
        st = random_scored(rng, 300)
        w = metrics.DcfWeights()
        base, _ = metrics.min_dcf(st, w)
        warped = data.ScoredTrialSet(st.trials, np.exp(0.5 * st.scores) + 2.0)
        got, _ = metrics.min_dcf(warped, w)
        assert got == pytest.approx(base, abs=1e-12)

    def test_multi_operating_point_average(self):
        rng = np.random.default_rng(5)
        st = random_scored(rng, 300)
        ws = [metrics.DcfWeights(p_target=p) for p in (0.01, 0.05)]
        avg = metrics.evaluate(st, ws[0], ws[1:]).min_dcf_avg
        parts = [metrics.min_dcf(st, w)[0] for w in ws]
        assert avg == pytest.approx(np.mean(parts))


class TestEer:
    def test_separable_is_zero(self):
        assert metrics.eer(scored_from([2.0, 3.0], [-1.0, 0.0])) == 0.0

    def test_hand_case_matches_oracle(self):
        st = scored_from([3.0, 1.0], [2.0, 0.0])
        assert metrics.eer(st) == pytest.approx(brute_force_eer(st), abs=1e-12)

    def test_chance_level_for_identical_distributions(self):
        rng = np.random.default_rng(6)
        scores = rng.standard_normal(4000)
        st = scored_from(scores[:2000], scores[2000:])
        assert 0.45 <= metrics.eer(st) <= 0.55

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(7)
        for i in range(50):
            st = random_scored(rng, 400, round_to=2 if i % 3 == 0 else None)
            assert metrics.eer(st) == pytest.approx(brute_force_eer(st), abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(8)
        st = random_scored(rng, 300)
        warped = data.ScoredTrialSet(st.trials, np.tanh(st.scores) * 7.0)
        assert metrics.eer(warped) == pytest.approx(metrics.eer(st), abs=1e-12)

    def test_scaling_invariance_with_threshold(self):
        rng = np.random.default_rng(9)
        st = random_scored(rng, 200)
        scaled = data.ScoredTrialSet(st.trials, 3.5 * st.scores)
        w = metrics.DcfWeights()
        assert metrics.min_dcf(scaled, w)[0] == pytest.approx(metrics.min_dcf(st, w)[0])
        assert metrics.eer(scaled) == pytest.approx(metrics.eer(st))


class TestErrorRateMonotonicity:
    def test_p_miss_up_p_fa_down_in_threshold(self):
        rng = np.random.default_rng(10)
        st = random_scored(rng, 500)
        labels = st.labels()
        tgt = st.scores[labels == 1]
        non = st.scores[labels == 0]
        thresholds = np.linspace(st.scores.min() - 1, st.scores.max() + 1, 200)
        p_miss, p_fa = metrics.error_rates(tgt, non, thresholds)
        assert np.all(np.diff(p_miss) >= 0)
        assert np.all(np.diff(p_fa) <= 0)


class TestEvaluate:
    def test_report_fields(self):
        st = scored_from([2.0, 3.0], [-1.0, 0.0])
        rep = metrics.evaluate(st)
        assert rep.eer == 0.0
        assert rep.min_dcf == 0.0
        assert metrics.dcf(st, 1.0) == 0.0
        assert rep.min_dcf <= metrics.dcf(st, 1.0) + 1e-12


class TestOneSweep:
    def test_evaluate_reads_the_labels_once(self, monkeypatch):
        calls = []
        labels = data.ScoredTrialSet.labels
        monkeypatch.setattr(data.ScoredTrialSet, "labels",
                            lambda self: calls.append(self) or labels(self))
        metrics.evaluate(random_scored(np.random.default_rng(11), 300))
        assert len(calls) == 1

    @pytest.mark.parametrize("tgt, non, eer", [
        ([np.nextafter(1.0, 2.0)], [1.0], 0.0),
        ([1.0], [np.nextafter(1.0, 2.0)], 1.0),
        ([1e300], [1e300], 0.5),
        ([np.finfo(float).max, 0.0], [np.finfo(float).max], 2 / 3),
        ([np.finfo(float).max], [0.75 * np.finfo(float).max], 0.0),
    ], ids=["neighbours-separable", "neighbours-reversed", "absorbed-tie", "largest-float",
            "overflowing-midpoint"])
    def test_thresholds_separate_scores_at_float_extremes(self, tgt, non, eer):
        # the midpoint of neighbouring floats is one of them, and 1e300 + 1.0
        # is 1e300: the sweep still counts every step of the staircase, and its
        # threshold still achieves its cost
        st = scored_from(tgt, non)
        w = metrics.DcfWeights(p_target=0.5)
        report = metrics.evaluate(st, w)
        assert report.eer == pytest.approx(eer, abs=1e-15)
        assert metrics.dcf(st, report.threshold, w) == report.min_dcf
