"""svkit benchmark: drive the shipped CLI through one workload and measure it.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each CLI stage runs in a fresh
child process (`stage.py`) under a wall-clock timeout, one after another:
a closed loop with one client.  The workload is set up several times, then
its pipeline repeats while the next repetition is expected to end within
`--seconds`; every repetition's outputs are checked.  With `--trace 0` the last line of output is a JSON
object with the end-to-end metrics from BENCHMARK.json; with `--trace 1`
untraced and traced repetitions alternate and the JSON holds the per-layer
metrics.  See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
from frozen import drift_problems  # noqa: E402
from provenance import provenance  # noqa: E402
from tracing import LAYERS, SAMPLERS, Spans, accounting_gap_s, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Stage, Workload  # noqa: E402

SETUPS = 3  # set-ups per untraced run; setup_s is their median
STAGE_TIMEOUT_S = 60.0
TRAIN_STAGES = ("train_nplda", "train_e2e")


class HarnessError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class StageResult:
    stage: Stage
    status: str  # "ok", "exit <rc>", "timeout" or "no report"
    wall_s: float  # spawn to exit, as the user waits for it
    main_s: float = 0.0  # inside svkit.cli.main
    maxrss_mb: float = 0.0
    stdout: str = ""
    spans: Path | None = None
    problems: list[str] = field(default_factory=list)


def _kill_group(pid: int, fired: threading.Event) -> None:
    fired.set()
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:  # exited just before the deadline
        pass


def run_stage(stage: Stage, logs: Path, timeout_s: float = STAGE_TIMEOUT_S,
              spans: Path | None = None, tdnn_layers: int = 0) -> StageResult:
    """Run one CLI stage in a child process; kill its process group on timeout."""
    logs.mkdir(parents=True, exist_ok=True)
    tag = f"{stage.name}-{time.monotonic_ns()}"
    report = logs / f"{tag}.report.json"
    cmd = [sys.executable, str(BENCH_DIR / "stage.py"), "--src", str(ROOT / "src"),
           "--report", str(report), "--stage", stage.name]
    if spans is not None:
        cmd += ["--spans", str(spans), "--tdnn-layers", str(tdnn_layers)]
    cmd += ["--", *stage.argv]
    out_path, err_path = logs / f"{tag}.out", logs / f"{tag}.err"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, start_new_session=True)
        # a blocking wait times the child exactly; Popen.wait(timeout) polls
        fired = threading.Event()
        timer = threading.Timer(timeout_s, _kill_group, (proc.pid, fired))
        timer.start()
        try:
            rc = proc.wait()
        finally:  # also when the benchmark itself is interrupted or terminated
            wall_s = time.perf_counter() - t0
            timer.cancel()
            timer.join()
            if proc.poll() is None:
                _kill_group(proc.pid, threading.Event())
                proc.wait()
    status = "timeout" if fired.is_set() else "ok" if rc == 0 else f"exit {rc}"
    result = StageResult(stage, status, wall_s, stdout=out_path.read_text())
    if status == "ok":
        try:
            rep = json.loads(report.read_text())
            result.main_s, result.maxrss_mb = rep["wall_s"], rep["maxrss_mb"]
            result.spans = spans
        except (OSError, ValueError, KeyError):
            result.status = "no report"
    if result.status != "ok":
        tail = err_path.read_text().strip().splitlines()[-3:]
        detail = f"after {wall_s:.1f} s" if status == "timeout" else "; ".join(tail)
        result.problems.append(f"{stage.name}: {result.status} {detail}".rstrip())
    return result


class Runner:
    """One workload run: set-ups, repetitions, checks and failure accounting."""

    def __init__(self, workload: Workload, seed: int, work: Path,
                 timeout_s: float = STAGE_TIMEOUT_S):
        self.w = workload
        self.seed = seed
        self.work = work
        self.timeout_s = timeout_s
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.hashes: dict[str, str] = {}  # output name -> hash in the first repetition
        self.checked: set[str] = set()  # score files already checked in full

    # -- stages -------------------------------------------------------------

    def stage(self, stage: Stage, spans: Path | None = None) -> StageResult:
        self.attempted += 1
        res = run_stage(stage, self.work / "logs", self.timeout_s, spans,
                        self.w.tdnn_layers())
        if res.status == "ok":
            res.problems += self.check_outputs(res)
        if res.problems:
            self.failed += 1
            self.problems += res.problems
        return res

    def check_outputs(self, res: StageResult) -> list[str]:
        stage, problems = res.stage, []
        for path in stage.outputs:
            key = f"{stage.name}:{path.name}"
            if not path.is_file():
                problems.append(f"{stage.name}: {path.name} was not written")
                continue
            digest = checks.file_hash(path)
            if self.hashes.setdefault(key, digest) != digest:
                problems.append(f"{stage.name}: {path.name} differs from the first repetition")
        if problems or not stage.checks:
            return problems
        kind, scores_path, trials_path = stage.checks
        if kind == "scores" and scores_path.name not in self.checked:
            found, _ = checks.check_scores(scores_path, trials_path)
            problems += found
            self.checked.add(scores_path.name)
        elif kind == "evaluate":
            key = f"evaluate:{scores_path.name}"
            if self.hashes.setdefault(key, res.stdout) != res.stdout:
                problems.append(f"evaluate {scores_path.name}: output differs from the first")
            elif key not in self.checked:
                found, scores = checks.check_scores(scores_path, trials_path)
                problems += found or checks.check_evaluate(
                    res.stdout, scores, checks.labels_of(trials_path))
                self.checked.add(key)
        return problems

    # -- set-up -------------------------------------------------------------

    def setup(self, data: Path, traced: bool) -> tuple[float, list[StageResult]]:
        """Write the workload's inputs into `data`; returns (seconds, stage results)."""
        t0 = time.perf_counter()
        data.mkdir(parents=True)
        self.w.write_config(self.seed, data)
        results = []
        for st in self.w.setup_stages(self.seed, data):
            spans = data / f"{st.name}.spans.npz" if traced else None
            results.append(self.stage(st, spans))
            if results[-1].problems:
                break
        else:
            self.quality_checks(results)
            self.w.write_eval_list(self.seed, data)
        return time.perf_counter() - t0, results

    # -- repetitions --------------------------------------------------------

    def repetition(self, data: Path, traced: bool, index: int) -> list[StageResult] | None:
        run = self.work / "run"
        shutil.rmtree(run, ignore_errors=True)
        run.mkdir()
        results = []
        for st in self.w.pipeline(self.seed, data, run):
            spans = self.work / "spans" / f"{index}-{len(results)}.npz" if traced else None
            if spans is not None:
                spans.parent.mkdir(exist_ok=True)
            res = self.stage(st, spans)
            results.append(res)
            if res.problems:
                return None
        return None if self.quality_checks(results) else results

    def quality_checks(self, results: list[StageResult]) -> list[str]:
        """Invariants of best-dev checkpointing, read from the CLI's own outputs.

        Training keeps the checkpoint with the lowest dev minDCF, its
        initialization included, so the dev minDCF a `train` command prints
        is at most the best per-epoch value of its trace, and for nplda at
        most that of the gplda model it starts from.  The printed values have
        three decimals, the trace six.
        """
        problems, printed = [], {}
        for r in results:
            if not r.stage.name.startswith("train_"):
                continue
            printed[r.stage.name] = checks.printed_min_dcf(r.stdout)
            for trace in (p for p in r.stage.outputs if p.suffix == ".csv"):
                best = checks.best_traced_min_dcf(trace)
                if printed[r.stage.name] > best + 5e-4:
                    problems.append(f"{r.stage.name}: dev minDCF {printed[r.stage.name]} "
                                    f"above its best epoch {best}")
        if printed.get("train_nplda", 0.0) > printed.get("train_gplda", 1.0):
            problems.append(f"nplda dev minDCF {printed['train_nplda']} above its gplda "
                            f"start {printed['train_gplda']}")
        if problems:
            self.failed += 1
            self.problems += problems
        return problems


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def rate(results: list[StageResult]) -> float:
    """Trials per second over all the given commands: total trials / total time."""
    return sum(r.stage.trials for r in results) / sum(r.main_s for r in results)


def end_to_end(reps: list[list[StageResult]], setups: list[tuple[float, list[StageResult]]],
               ) -> dict[str, float]:
    """End-to-end metrics over every repetition of the run.

    The speed of a shared host switches between levels every few seconds, so
    times are averaged over the whole run (total work / total time) rather
    than taken as the median of a handful of repetitions, which jumps
    between levels.  setup_s is the median of the set-ups.
    """
    done = [r for rep in reps for r in rep]
    train = [r for r in done if r.stage.name in TRAIN_STAGES]
    if not train:  # `score` trains only at set-up
        train = [r for _, res in setups for r in res if r.stage.name in TRAIN_STAGES]
    return {
        "setup_s": statistics.median(seconds for seconds, _ in setups),
        "pipeline_s": statistics.mean(sum(r.wall_s for r in rep) for rep in reps),
        "train_trials_per_s": rate(train),
        "score_trials_per_s": rate([r for r in done if r.stage.name == "score"]),
        "evaluate_trials_per_s": rate([r for r in done if r.stage.name == "evaluate"]),
        "peak_rss_mb": max(r.maxrss_mb for r in done),
    }


def quality(rep: list[StageResult]) -> dict[str, float]:
    """dev minDCF and EER of the workload's final `evaluate`."""
    final = checks.parse_evaluate([r for r in rep if r.stage.name == "evaluate"][-1].stdout)
    return {"metrics.dev_min_dcf": final["min_dcf"], "metrics.dev_eer_pct": final["eer_percent"]}


def trace_problems(name: str, sp: Spans, stage: Stage) -> list[str]:
    """Span accounting must be exact, and the trial count must match the sampler's."""
    problems = []
    gap = accounting_gap_s(sp)
    if gap > 1e-6:
        problems.append(f"{name}: self times miss the stage time by {gap:.2e} s")
    if name in TRAIN_STAGES:
        sampled = sp.work[sp.where(*SAMPLERS)].sum()
        epochs = stage.trials / sampled if sampled else 0
        if epochs != int(epochs) or epochs < 1:
            problems.append(f"{name}: sampler drew {sampled:.0f} trials per epoch, "
                            f"inconsistent with {stage.trials} trials stepped")
    return problems


def per_layer(runner: Runner, setup: list[StageResult], traced: list[list[StageResult]],
              untraced: list[list[StageResult]]) -> dict[str, float]:
    layers = WORKLOADS["e2e"].tdnn_layers()  # every workload reports these layers
    setup_spans = [(r.stage.name, Spans(r.spans)) for r in setup]
    per_rep = []
    for rep in traced:
        spans = setup_spans + [(r.stage.name, Spans(r.spans)) for r in rep]
        for (name, sp), res in zip(spans, setup + rep):
            problems = trace_problems(name, sp, res.stage)
            runner.failed += bool(problems)
            runner.problems += problems
        m = layer_metrics(spans, layers)
        m.update(quality(rep))
        per_rep.append(m)
    metrics = {k: statistics.median(m[k] for m in per_rep) for k in per_rep[0]}
    traced_s = statistics.median(sum(r.wall_s for r in rep) for rep in traced)
    untraced_s = statistics.median(sum(r.wall_s for r in rep) for rep in untraced)
    metrics["trace_overhead_pct"] = 100.0 * (traced_s / untraced_s - 1.0)
    return metrics


def print_stage_breakdown(setup: list[StageResult], rep: list[StageResult],
                          untraced: list[StageResult]) -> None:
    """Self time per layer in each traced stage, against the untraced stage time."""
    plain = {r.stage.name: r.main_s for r in reversed(untraced)}
    for r in setup + rep:
        m = layer_metrics([(r.stage.name, Spans(r.spans))], 0)
        layers = {layer: m[f"{layer}.self_s"] for layer in ("cli", *LAYERS)}
        total = sum(layers.values())
        top = max(layers, key=layers.get)
        shares = " ".join(f"{k}={v:.3f}" for k, v in layers.items() if v >= 0.0005)
        vs = f" untraced={plain[r.stage.name]:.3f}s" if r.stage.name in plain else ""
        print(f"  layers {r.stage.name}: sum(self_s)={total:.3f}s{vs} "
              f"dominant={top} ({100 * layers[top] / total:.0f}%) {shares}")


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


def run_workload(w: Workload, seed: int, seconds: float, trace: bool,
                 spec: dict) -> dict:
    work = ROOT / ".bench_work" / f"{w.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(w, seed, work)
    try:
        return _run(runner, seed, seconds, trace, spec)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only succeeds when no other run is using it


def _run(runner: Runner, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    w, log = runner.w, print
    setups = []
    for k in range(1 if trace else SETUPS):
        setups.append(runner.setup(runner.work / f"data{k}", traced=trace))
        log(f"{w.name} setup {k}: {setups[-1][0]:.3f} s")
        if runner.problems:
            return result(runner, {}, spec, trace)
    # check_outputs has compared every set-up's outputs with the first one's
    data = runner.work / "data0"
    for k in range(1, len(setups)):
        shutil.rmtree(runner.work / f"data{k}")

    reps: list[list[StageResult]] = []
    traced_flags: list[bool] = []
    t_loop = time.perf_counter()
    longest = 0.0
    while True:
        traced = trace and len(reps) % 2 == 1
        t0 = time.perf_counter()
        rep = runner.repetition(data, traced, len(reps))
        longest = max(longest, time.perf_counter() - t0)
        if rep is None:
            break
        reps.append(rep)
        traced_flags.append(traced)
        log(f"{w.name} rep {len(reps)}{' traced' if traced else ''}: " + " ".join(
            f"{r.stage.name}={r.wall_s:.3f}s({r.main_s:.3f}s)" for r in rep))
        elapsed = time.perf_counter() - t_loop
        if len(reps) >= 2 and elapsed + longest > seconds:
            break
    if runner.problems:
        return result(runner, {}, spec, trace)

    untraced = [rep for rep, t in zip(reps, traced_flags) if not t]
    if trace:
        traced_reps = [rep for rep, t in zip(reps, traced_flags) if t]
        print_stage_breakdown(setups[0][1], traced_reps[0], untraced[0])
        metrics = per_layer(runner, setups[0][1], traced_reps, untraced)
    else:
        metrics = end_to_end(untraced, setups)
        for k, v in quality(untraced[0]).items():
            log(f"  {k} {v}")
    return result(runner, metrics, spec, trace)


def result(runner: Runner, metrics: dict[str, float], spec: dict, trace: bool) -> dict:
    for p in runner.problems:
        print(f"FAILED {p}")
    print(f"{runner.w.name} error_rate {runner.failed / max(runner.attempted, 1):.4f} "
          f"({runner.failed} of {runner.attempted} stages failed)")
    wanted = spec["per_layer" if trace else "end_to_end"]
    correct = not runner.problems and runner.failed == 0
    out = {}
    if correct:
        missing = [m["name"] for m in wanted if m["name"] not in metrics]
        if missing:
            raise HarnessError(f"metrics not measured: {missing}")
        out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    return {"correct": correct, "attempted": runner.attempted, "failed": runner.failed,
            "metrics": out}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def preflight() -> dict:
    if not (ROOT / "src" / "svkit" / "cli.py").is_file():
        raise HarnessError(f"no svkit sources under {ROOT / 'src'}; run from a source checkout")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        raise HarnessError(f"{spec_path} not found")
    problems = drift_problems(ROOT)
    if problems:
        raise HarnessError("frozen configs drifted: " + "; ".join(problems))
    return json.loads(spec_path.read_text())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the repetitions of one workload run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so the running stage and the scratch files go too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        spec = preflight()
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        print("provenance " + json.dumps(provenance(ROOT, names, args.seed)))
        results = {}
        for name in names:
            results[name] = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                         bool(args.trace), spec)
            for metric, v in results[name]["metrics"].items():
                print(f"{name} {metric} {v['value']:.6g} {v['unit']}")
    except HarnessError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
