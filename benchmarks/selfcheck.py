"""The benchmark's own tests: harness behaviour that the workloads never exercise.

    python3 benchmarks/selfcheck.py

Run from the root of a source checkout; prints one PASS/FAIL line per check
and exits 1 if any check fails.  Scratch files go under `.bench_work/`.
"""

from __future__ import annotations

import contextlib
import shutil
import sys
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import run  # noqa: E402
from frozen import FROZEN, drift_problems  # noqa: E402
from tracing import Spans, accounting_gap_s  # noqa: E402
from workloads import WORKLOADS, Stage  # noqa: E402

# `svkit simulate` cannot draw 100 distinct trials from 2 speakers x 2 utterances
HANG_INI = """
[simulate]
kind = embeddings
seed = 3
n_speakers = 4
utts_per_speaker = 4
n_dev_speakers = 2
dev_utts_per_speaker = 2
n_dev_trials = 100
"""
HANG_TIMEOUT_S = 10.0


def check_drift(work: Path) -> list[str]:
    problems = [f"real tree: {p}" for p in drift_problems(run.ROOT)]
    fake = work / "drifted"
    (fake / "tests").mkdir(parents=True)
    text = (run.ROOT / "tests" / "test_acceptance.py").read_text()
    (fake / "tests" / "test_acceptance.py").write_text(
        text.replace(FROZEN["E2E_INI"], FROZEN["E2E_INI"].replace("epochs = 50", "epochs = 5")))
    if not any("E2E_INI" in p for p in drift_problems(fake)):
        problems.append("an edited E2E_INI in the test suite went unnoticed")
    return problems


def check_hang_is_a_failure(work: Path) -> list[str]:
    """The known `_make_dev_trials` hang ends as one failed stage within the timeout."""
    cfg = work / "hang.ini"
    cfg.write_text(HANG_INI)
    runner = run.Runner(WORKLOADS["backend-xprod"], 3, work, timeout_s=HANG_TIMEOUT_S)
    t0 = time.perf_counter()
    res = runner.stage(Stage("simulate", ["simulate", "--config", str(cfg),
                                          "--out", str(work / "hang")]))
    elapsed = time.perf_counter() - t0
    problems = []
    if res.status == "ok":
        problems.append("the hang configuration was reported as a success")
    if (runner.attempted, runner.failed) != (1, 1):
        problems.append(f"counted {runner.failed} failed of {runner.attempted} attempted, "
                        "not 1 of 1")
    if elapsed > HANG_TIMEOUT_S + 5.0:
        problems.append(f"took {elapsed:.1f} s with a {HANG_TIMEOUT_S:.0f} s timeout")
    print(f"  hang configuration: {res.status} after {elapsed:.1f} s; {res.problems}")
    return problems


def check_output_checks(work: Path) -> list[str]:
    """The score and evaluate checks accept good output and reject bad output."""
    sys.path.insert(0, str(run.ROOT / "src"))
    from svkit import data, metrics

    rng = np.random.default_rng(5)
    n = 400
    labels = (rng.random(n) < 0.3).astype(np.float64)
    scores = rng.standard_normal(n) + 2.0 * labels
    scores[:40] = np.round(scores[:40])  # ties
    trials = [data.Trial(f"e{i}", f"t{i}", "target" if y else "nontarget")
              for i, y in enumerate(labels)]
    trials_path, scores_path = work / "t.trials", work / "s.scores"
    data.write_trials(trials, trials_path)
    scored = data.ScoredTrialSet(trials, scores)
    data.write_scores(scored, scores_path)

    problems = []
    report = metrics.evaluate(scored)
    stdout = f"eer_percent {100 * report.eer:.4f}\nmin_dcf {report.min_dcf:.6f}\n"
    found, parsed = checks.check_scores(scores_path, trials_path)
    problems += found + checks.check_evaluate(stdout, parsed, labels)
    wrong = f"eer_percent {100 * report.eer:.4f}\nmin_dcf {report.min_dcf + 0.01:.6f}\n"
    if not checks.check_evaluate(wrong, parsed, labels):
        problems.append("a wrong min_dcf was accepted")

    lines = scores_path.read_text().splitlines()
    bad_cases = {
        "a non-finite score": ["e0 t0 nan"] + lines[1:],
        "a missing score": lines[1:],
        "reordered trials": [lines[1], lines[0]] + lines[2:],
    }
    for what, bad in bad_cases.items():
        scores_path.write_text("\n".join(bad) + "\n")
        if not checks.check_scores(scores_path, trials_path)[0]:
            problems.append(f"{what} was accepted")
    return problems


def check_tracing(work: Path) -> list[str]:
    """A traced stage's self times add up to its root span and count written data."""
    cfg = work / "small.ini"
    cfg.write_text(HANG_INI.replace("n_dev_trials = 100", "n_dev_trials = 6"))
    spans = work / "small.npz"
    res = run.run_stage(Stage("simulate", ["simulate", "--config", str(cfg),
                                           "--out", str(work / "small")]),
                        work / "logs", spans=spans)
    if res.status != "ok":
        return [f"traced simulate failed: {res.problems}"]
    sp = Spans(spans)
    problems = []
    gap = accounting_gap_s(sp)
    if gap > 1e-6:
        problems.append(f"self times miss the root span by {gap:.2e} s")
    written = sp.work[sp.prefix("data.write_")].sum() * 1e6
    on_disk = sum(p.stat().st_size for p in (work / "small").iterdir()
                  if p.suffix in (".embeddings", ".trials"))
    if not np.isclose(written, on_disk):
        problems.append(f"data.write counted {written:.0f} bytes, {on_disk} on disk")
    return problems


def main() -> int:
    work = run.ROOT / ".bench_work" / "selfcheck"
    shutil.rmtree(work, ignore_errors=True)
    failed = 0
    try:
        for check in (check_drift, check_hang_is_a_failure, check_output_checks, check_tracing):
            sub = work / check.__name__
            sub.mkdir(parents=True)
            problems = check(sub)
            failed += bool(problems)
            print(f"[{'FAIL' if problems else 'PASS'}] {check.__name__} {'; '.join(problems)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only succeeds when no benchmark run is using it
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
