"""Hard detection metrics: detection cost, its minimum over thresholds, EER.

The decision rule is uniform everywhere: a trial is accepted iff its score
is >= the threshold.  Threshold sweeps therefore place candidates at the
midpoints between consecutive distinct scores (plus sentinels beyond both
ends) so no candidate ever ties a score.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, MetricError
from .data import ScoredTrialSet


@dataclass(frozen=True)
class DcfWeights:
    """Cost model for the detection cost function.

    beta folds the miss/false-alarm costs and the target prior into a single
    weight on the false-alarm rate; costs of (1, 1) with a 0.01 target prior
    give the default beta of 99.
    """

    c_miss: float = 1.0
    c_fa: float = 1.0
    p_target: float = 0.01

    def __post_init__(self):
        if self.c_miss <= 0 or self.c_fa <= 0:
            raise ArgumentError("costs must be positive")
        if not 0.0 < self.p_target < 1.0:
            raise ArgumentError("p_target must lie in (0, 1)")

    @property
    def beta(self) -> float:
        return self.c_fa * (1.0 - self.p_target) / (self.c_miss * self.p_target)


@dataclass
class EvalReport:
    """Evaluation summary for one scored trial set."""

    eer: float
    min_dcf: float
    threshold: float


def _split_scores(scored: ScoredTrialSet):
    labels = scored.labels()
    tgt = scored.scores[labels == 1.0]
    non = scored.scores[labels == 0.0]
    if tgt.size == 0 or non.size == 0:
        raise MetricError("trial set must contain both targets and non-targets")
    return tgt, non


def error_rates(tgt: np.ndarray, non: np.ndarray, thresholds: np.ndarray):
    """P_Miss and P_FA at each threshold under the accept-iff-score>=theta rule."""
    thresholds = np.atleast_1d(np.asarray(thresholds, dtype=np.float64))
    tgt_sorted = np.sort(tgt)
    non_sorted = np.sort(non)
    # targets with s < theta are misses; non-targets with s >= theta are FAs
    p_miss = np.searchsorted(tgt_sorted, thresholds, side="left") / tgt.size
    p_fa = (non.size - np.searchsorted(non_sorted, thresholds, side="left")) / non.size
    return p_miss, p_fa


def dcf(scored: ScoredTrialSet, threshold: float, weights: DcfWeights = DcfWeights()) -> float:
    """Normalized detection cost P_Miss + beta * P_FA at one threshold."""
    tgt, non = _split_scores(scored)
    p_miss, p_fa = error_rates(tgt, non, np.array([threshold]))
    return float(p_miss[0] + weights.beta * p_fa[0])


def _candidate_thresholds(scores: np.ndarray) -> np.ndarray:
    distinct = np.unique(scores)
    mids = (distinct[:-1] + distinct[1:]) / 2.0
    below = distinct[0] - 1.0
    above = distinct[-1] + 1.0
    return np.concatenate([[below], mids, [above]])


def min_dcf(scored: ScoredTrialSet, weights: DcfWeights = DcfWeights()):
    """Minimum detection cost over all thresholds, with a witnessing threshold.

    Sweeps the midpoints between consecutive distinct scores plus a sentinel
    below the lowest score (accept everything) and one above the highest
    (reject everything).
    """
    tgt, non = _split_scores(scored)
    cands = _candidate_thresholds(scored.scores)
    p_miss, p_fa = error_rates(tgt, non, cands)
    costs = p_miss + weights.beta * p_fa
    best = int(np.argmin(costs))
    return float(costs[best]), float(cands[best])


def min_dcf_multi(scored: ScoredTrialSet, weights_list) -> float:
    """Mean of minimum detection costs over several operating points."""
    weights_list = list(weights_list)
    if not weights_list:
        raise ArgumentError("weights_list must be non-empty")
    return float(np.mean([min_dcf(scored, w)[0] for w in weights_list]))


def eer(scored: ScoredTrialSet) -> float:
    """Equal error rate with linear interpolation of the ROC staircase."""
    tgt, non = _split_scores(scored)
    cands = _candidate_thresholds(scored.scores)
    p_miss, p_fa = error_rates(tgt, non, cands)
    diff = p_miss - p_fa
    # P_Miss is non-decreasing and P_FA non-increasing in the threshold, so
    # diff crosses zero exactly once (possibly along a flat segment).
    idx = int(np.searchsorted(diff > 0, True))
    if idx == 0:
        return float((p_miss[0] + p_fa[0]) / 2.0)
    if idx == len(diff):
        return float((p_miss[-1] + p_fa[-1]) / 2.0)
    m0, f0 = p_miss[idx - 1], p_fa[idx - 1]
    m1, f1 = p_miss[idx], p_fa[idx]
    denom = (m1 - m0) - (f1 - f0)
    if denom == 0.0:
        return float((m0 + f0) / 2.0)
    t = (f0 - m0) / denom
    return float(m0 + t * (m1 - m0))


def evaluate(scored: ScoredTrialSet, weights: DcfWeights = DcfWeights()) -> EvalReport:
    """EER, and minDCF with its threshold."""
    cost, theta = min_dcf(scored, weights)
    return EvalReport(eer=eer(scored), min_dcf=cost, threshold=theta)
