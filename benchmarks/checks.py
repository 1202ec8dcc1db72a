"""Output checks: score files, evaluate results and repeatability.

Each check returns a list of problems; an empty list means the output is
correct.  The reference minDCF and EER are computed here from the score file
and the key with cumulative counts, independently of `svkit.metrics`.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

P_TARGET = 0.01
BETA = (1.0 - P_TARGET) / P_TARGET  # c_miss = c_fa = 1
# evaluate prints eer_percent with 4 decimals and min_dcf with 6
EER_PCT_TOL = 1e-4
MIN_DCF_TOL = 1e-6


def file_hash(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def read_columns(path, n_fields: int) -> list[list[str]]:
    """Whitespace-separated columns of a text file, every non-empty line of `n_fields`."""
    rows = [line.split() for line in Path(path).read_text().splitlines() if line.strip()]
    bad = next((i for i, r in enumerate(rows) if len(r) != n_fields), None)
    if bad is not None:
        raise ValueError(f"{path}: line {bad + 1} has {len(rows[bad])} fields, not {n_fields}")
    return [list(col) for col in zip(*rows)] if rows else [[] for _ in range(n_fields)]


def check_scores(score_path, trials_path) -> tuple[list[str], np.ndarray | None]:
    """One finite score per trial, in trial-list order; returns (problems, scores)."""
    try:
        enroll, test, _ = read_columns(trials_path, 3)
        s_enroll, s_test, values = read_columns(score_path, 3)
        scores = np.array(values, dtype=np.float64)
    except (OSError, ValueError) as exc:
        return [f"unreadable scores: {exc}"], None
    if len(scores) != len(enroll):
        return [f"{score_path}: {len(scores)} scores for {len(enroll)} trials"], None
    if s_enroll != enroll or s_test != test:
        return [f"{score_path}: trial ids differ from {trials_path}"], None
    if not np.all(np.isfinite(scores)):
        return [f"{score_path}: {int(np.sum(~np.isfinite(scores)))} non-finite scores"], None
    return [], scores


def labels_of(trials_path) -> np.ndarray:
    _, _, labels = read_columns(trials_path, 3)
    return np.array([label == "target" for label in labels], dtype=np.float64)


def reference_metrics(scores: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """(EER in percent, minDCF at P_target = 0.01) under accept-iff-score>=threshold.

    Thresholds sit below every score, between consecutive distinct scores,
    and above every score; the EER interpolates linearly between the two
    thresholds where P_miss - P_fa changes sign.
    """
    distinct, where = np.unique(scores, return_inverse=True)
    tgt_at = np.bincount(where, weights=labels, minlength=distinct.size)
    non_at = np.bincount(where, weights=1.0 - labels, minlength=distinct.size)
    n_tgt, n_non = tgt_at.sum(), non_at.sum()
    # threshold j accepts the scores distinct[j:], so it misses the targets below
    p_miss = np.concatenate([[0.0], np.cumsum(tgt_at)]) / n_tgt
    p_fa = 1.0 - np.concatenate([[0.0], np.cumsum(non_at)]) / n_non
    min_dcf = float(np.min(p_miss + BETA * p_fa))
    j = int(np.argmax(p_miss - p_fa > 0)) if np.any(p_miss - p_fa > 0) else p_miss.size
    if j == 0 or j == p_miss.size:
        k = 0 if j == 0 else -1
        return 100.0 * (p_miss[k] + p_fa[k]) / 2.0, min_dcf
    m0, f0, m1, f1 = p_miss[j - 1], p_fa[j - 1], p_miss[j], p_fa[j]
    denom = (m1 - m0) - (f1 - f0)
    eer = (m0 + f0) / 2.0 if denom == 0.0 else m0 + (f0 - m0) / denom * (m1 - m0)
    return 100.0 * eer, min_dcf


def parse_evaluate(stdout: str) -> dict[str, float]:
    """The `eer_percent` and `min_dcf` lines of `svkit evaluate` output."""
    values = {}
    for line in stdout.splitlines():
        fields = line.split()
        if len(fields) == 2 and fields[0] in ("eer_percent", "min_dcf"):
            values[fields[0]] = float(fields[1])
    return values


def check_evaluate(stdout: str, scores: np.ndarray, labels: np.ndarray) -> list[str]:
    got = parse_evaluate(stdout)
    if set(got) != {"eer_percent", "min_dcf"}:
        return ["evaluate printed no eer_percent/min_dcf"]
    eer_pct, min_dcf = reference_metrics(scores, labels)
    problems = []
    if not math.isclose(got["eer_percent"], eer_pct, rel_tol=0.0, abs_tol=EER_PCT_TOL):
        problems.append(f"evaluate eer_percent {got['eer_percent']} != reference {eer_pct:.6f}")
    if not math.isclose(got["min_dcf"], min_dcf, rel_tol=0.0, abs_tol=MIN_DCF_TOL):
        problems.append(f"evaluate min_dcf {got['min_dcf']} != reference {min_dcf:.8f}")
    return problems


def printed_min_dcf(stdout: str) -> float:
    """C_Min of the result row `svkit train` prints under its `model ... C_Min` header."""
    lines = stdout.splitlines()
    header = next(i for i, line in enumerate(lines) if line.split()[:1] == ["model"])
    return float(lines[header + 1].split()[-1])


def best_traced_min_dcf(trace_csv) -> float:
    """Lowest per-epoch dev minDCF in a `--trace` CSV."""
    _, body = Path(trace_csv).read_text().split("\n", 1)
    return min(float(line.split(",")[3]) for line in body.splitlines() if line)
