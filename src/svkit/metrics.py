"""Hard detection metrics: detection cost, its minimum over thresholds, EER.

The decision rule is uniform everywhere: a trial is accepted iff its score
is >= the threshold.  Threshold sweeps therefore place candidates at the
midpoints between consecutive distinct scores (plus sentinels beyond both
ends) so no candidate ever ties a score.  Each call sweeps the thresholds
once; ``evaluate`` shares one sweep between its metrics and operating
points.  ``dcf`` and ``error_rates`` are the independent oracle.
"""

from __future__ import annotations

from collections.abc import Sequence
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
        if not (0 < self.c_miss < np.inf and 0 < self.c_fa < np.inf):
            raise ArgumentError("costs must be finite and positive")
        if not 0.0 < self.p_target < 1.0:
            raise ArgumentError("p_target must lie in (0, 1)")

    @property
    def beta(self) -> float:
        return self.c_fa * (1.0 - self.p_target) / (self.c_miss * self.p_target)


@dataclass
class EvalReport:
    """Evaluation summary for one scored trial set.

    ``min_dcf_avg`` is the mean minimum cost over every operating point
    evaluated; with one, it is ``min_dcf``.
    """

    eer: float
    min_dcf: float
    threshold: float
    min_dcf_avg: float


def _targets(scored: ScoredTrialSet) -> np.ndarray:
    """Mask of the target trials; both classes must be present."""
    is_tgt = scored.labels() == 1.0
    if is_tgt.all() or not is_tgt.any():
        raise MetricError("trial set must contain both targets and non-targets")
    return is_tgt


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
    is_tgt = _targets(scored)
    p_miss, p_fa = error_rates(scored.scores[is_tgt], scored.scores[~is_tgt],
                               np.array([threshold]))
    return float(p_miss[0] + weights.beta * p_fa[0])


def _candidate_thresholds(distinct: np.ndarray) -> np.ndarray:
    """Midpoints of the sorted distinct scores and sentinels 1.0 beyond both ends.

    Where rounding puts one on or past a score (neighbouring floats, or a
    magnitude that absorbs the 1.0), the nearest float that separates replaces it.
    """
    with np.errstate(over="ignore"):  # midpoints and next floats past the largest are inf
        cands = np.concatenate([[distinct[0] - 1.0], (distinct[:-1] + distinct[1:]) / 2.0,
                                [distinct[-1] + 1.0]])
        np.maximum(cands[1:], np.nextafter(distinct, np.inf), out=cands[1:])
    return np.minimum(cands, np.append(distinct, np.inf), out=cands)


def _distinct(scores: np.ndarray) -> np.ndarray:
    """The sorted distinct values of finite ``scores``, as ``np.unique`` gives them.

    One sort and a neighbour mask: ``np.unique`` checks for masked arrays, and
    its first call imports ``numpy.ma``.
    """
    ordered = np.sort(scores)
    first = np.empty(ordered.size, dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return ordered[first]


def _sweep(scored: ScoredTrialSet):
    """Every candidate threshold with its P_Miss and P_FA, from one read of the labels.

    The candidates separate the distinct scores, so P_Miss - P_FA is -1 at the
    first (accept all), +1 at the last (reject all), and rises at every step:
    each distinct score belongs to a target or a non-target.
    """
    is_tgt = _targets(scored)
    cands = _candidate_thresholds(_distinct(scored.scores))
    return cands, *error_rates(scored.scores[is_tgt], scored.scores[~is_tgt], cands)


def _min_cost(sweep, weights: DcfWeights):
    cands, p_miss, p_fa = sweep
    costs = p_miss + weights.beta * p_fa
    best = int(np.argmin(costs))
    return float(costs[best]), float(cands[best])


def min_dcf(scored: ScoredTrialSet, weights: DcfWeights = DcfWeights()):
    """Minimum detection cost over all thresholds, with a witnessing threshold.

    Sweeps the midpoints between consecutive distinct scores plus a sentinel
    below the lowest score (accept everything) and one above the highest
    (reject everything).
    """
    return _min_cost(_sweep(scored), weights)


def _eer(sweep) -> float:
    _, p_miss, p_fa = sweep
    # P_Miss - P_FA rises from -1 to +1 (see _sweep): it turns positive at one step
    idx = int(np.searchsorted(p_miss - p_fa > 0, True))
    m0, f0 = p_miss[idx - 1], p_fa[idx - 1]
    m1, f1 = p_miss[idx], p_fa[idx]
    t = (f0 - m0) / ((m1 - m0) - (f1 - f0))
    return float(m0 + t * (m1 - m0))


def eer(scored: ScoredTrialSet) -> float:
    """Equal error rate with linear interpolation of the ROC staircase."""
    return _eer(_sweep(scored))


def evaluate(scored: ScoredTrialSet, weights: DcfWeights = DcfWeights(),
             extra: Sequence[DcfWeights] = ()) -> EvalReport:
    """EER, minDCF with its threshold, and minDCF averaged with ``extra`` operating points.

    One sweep serves every metric and operating point.
    """
    sweep = _sweep(scored)
    cost, theta = _min_cost(sweep, weights)
    avg = float(np.mean([cost] + [_min_cost(sweep, w)[0] for w in extra]))
    return EvalReport(eer=_eer(sweep), min_dcf=cost, threshold=theta, min_dcf_avg=avg)
