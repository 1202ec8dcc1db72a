"""Spans around svkit's layers, recorded from outside the program.

`Tracer.install` wraps every public module-level function of the layer
modules (`data`, `checkpoint`, `sampling`, `gplda`, `nplda`, `e2e`, `nn`,
`metrics`) and rebinds each wrapper under every name that refers to the
original in any svkit module, so `from .nn import tdnn_layer` in `e2e` is
traced as well as `nn.tdnn_layer`.  A span is (name, start, end, parent),
kept in memory and written out once by `save`.  Some wrappers also record
the work their span did (megabytes read or written, trials, GEMM flops);
`summarize` turns saved spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import types

import numpy as np

LAYERS = ("data", "checkpoint", "sampling", "gplda", "nplda", "e2e", "nn", "metrics")
STAGES = ("simulate", "train_gplda", "train_nplda", "train_e2e", "score", "evaluate")
TDNN = ("nn.tdnn_layer", "nn.tdnn_layer_backward")
SAMPLERS = ("sampling.sample_epoch_algo2", "sampling.sample_trials_algo1")
FILE_KINDS = ("embeddings", "features", "trials", "scores")


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


def _file_mb(path) -> float:
    return os.path.getsize(path) / 1e6


def _count(n) -> tuple[float, float, int]:
    return float(n), 0.0, -1


def _tdnn_gflop(args, kwargs, result):
    # one GEMM of 2 * T_out * (C * k_in) * k_out flops
    W = _arg(args, kwargs, 2, "W")
    rows = int(np.prod(np.shape(result)[:-1]))
    return _count(2.0 * rows * W.shape[1] * W.shape[0] / 1e9)


def _tdnn_backward_gflop(args, kwargs, result):
    # the backward pass recomputes the forward GEMM, then forms dW and dX_cat
    W = _arg(args, kwargs, 3, "W")
    rows = int(np.prod(np.shape(_arg(args, kwargs, 0, "dY"))[:-1]))
    return _count(3 * 2.0 * rows * W.shape[1] * W.shape[0] / 1e9)


def _sampled(args, kwargs, result):
    """Trials, unique utterances summed over batches, and batches."""
    return (float(sum(len(b.trials) for b in result)),
            float(sum(len(b.utterances) for b in result)), len(result))


# span name -> f(args, kwargs, result) giving the span's (work, work2, tag)
WORK = {
    **{f"data.read_{k}": lambda a, kw, r: _count(_file_mb(_arg(a, kw, 0, "path")))
       for k in FILE_KINDS},
    **{f"data.write_{k}": lambda a, kw, r: _count(_file_mb(_arg(a, kw, 1, "path")))
       for k in FILE_KINDS},
    "checkpoint.load_params": lambda a, kw, r: _count(_file_mb(_arg(a, kw, 0, "path"))),
    "checkpoint.save_params": lambda a, kw, r: _count(_file_mb(_arg(a, kw, 0, "path"))),
    "gplda.score_trials": lambda a, kw, r: _count(len(_arg(a, kw, 1, "trials"))),
    "metrics.min_dcf": lambda a, kw, r: _count(len(_arg(a, kw, 0, "scored").scores)),
    "nn.tdnn_layer": _tdnn_gflop,
    "nn.tdnn_layer_backward": _tdnn_backward_gflop,
    **{name: _sampled for name in SAMPLERS},
}


class Tracer:
    """In-memory span recorder; one per traced process.

    `tdnn_layers` is the number of TDNN layers of the model being run: a
    model calls `tdnn_layer` for layers 0..L-1 and `tdnn_layer_backward` for
    L-1..0, so the call count modulo L tags each span with its layer.
    """

    def __init__(self, tdnn_layers: int = 0):
        self.tdnn_layers = tdnn_layers
        self.names: list[str] = []
        self.name_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.work: list[float] = []
        self.work2: list[float] = []
        self.tag: list[int] = []
        self._stack: list[int] = [-1]
        self._calls = {name: 0 for name in TDNN}

    def _layer_tag(self, name: str) -> int:
        n = self._calls[name]
        self._calls[name] = n + 1
        i = n % self.tdnn_layers
        return i if name == "nn.tdnn_layer" else self.tdnn_layers - 1 - i

    def wrap(self, name: str, fn):
        """`fn` recording one span per call under `name`."""
        self.names.append(name)
        name_index = len(self.names) - 1
        work = WORK.get(name)
        tagged = self.tdnn_layers > 0 and name in TDNN
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(tracer.start)
            tracer.name_id.append(name_index)
            tracer.parent.append(tracer._stack[-1])
            tracer.end.append(0.0)
            tracer.work.append(0.0)
            tracer.work2.append(0.0)
            tracer.tag.append(-1)
            tracer._stack.append(i)
            tracer.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[i] = time.perf_counter()
                tracer._stack.pop()
            if work is not None:
                tracer.work[i], tracer.work2[i], tracer.tag[i] = work(args, kwargs, result)
            if tagged:
                tracer.tag[i] = tracer._layer_tag(name)
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer module, under every binding."""
        wrapped = {}
        for layer in LAYERS:
            module = sys.modules[f"svkit.{layer}"]
            for attr, fn in vars(module).items():
                if (
                    not attr.startswith("_")
                    and isinstance(fn, types.FunctionType)
                    and fn.__module__ == module.__name__
                ):
                    wrapped[fn] = self.wrap(f"{layer}.{attr}", fn)
        package = [m for k, m in sys.modules.items() if k == "svkit" or k.startswith("svkit.")]
        for module in package:
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and obj in wrapped:
                    setattr(module, attr, wrapped[obj])

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.array(self.name_id, dtype=np.int64),
            start=np.array(self.start),
            end=np.array(self.end),
            parent=np.array(self.parent, dtype=np.int64),
            work=np.array(self.work),
            work2=np.array(self.work2),
            tag=np.array(self.tag, dtype=np.int64),
        )


# ---------------------------------------------------------------------------
# per-layer metrics from saved spans
# ---------------------------------------------------------------------------


class Spans:
    """The spans of one traced process, loaded from a `Tracer.save` file."""

    def __init__(self, path):
        with np.load(path) as f:
            self.name = f["names"].astype(object)[f["name_id"]]
            self.start, self.end = f["start"], f["end"]
            self.parent, self.tag = f["parent"], f["tag"]
            self.work, self.work2 = f["work"], f["work2"]
        self.duration = self.end - self.start
        inner = self.parent >= 0
        covered = np.bincount(self.parent[inner], weights=self.duration[inner],
                              minlength=len(self.duration))
        self.self_time = self.duration - covered

    def where(self, *names: str) -> np.ndarray:
        return np.isin(self.name, names)

    def prefix(self, prefix: str) -> np.ndarray:
        return np.array([n.startswith(prefix) for n in self.name], dtype=bool)

    def steps_ms(self, loop: str, loss: str) -> list[float]:
        """Per-step times in a training loop: each `loss` call to the next Adam update."""
        loops = set(np.flatnonzero(self.where(loop)).tolist())
        steps, opened = [], None
        for i in np.flatnonzero(np.isin(self.parent, list(loops))):
            if self.name[i] == loss:
                opened = self.start[i]
            elif self.name[i] == "nn.adam_step" and opened is not None:
                steps.append(1e3 * (self.end[i] - opened))
                opened = None
        return steps


def percentile_tail(values) -> float:
    """The highest percentile with at least ten samples beyond it (the max if n <= 10)."""
    values = np.asarray(values, dtype=np.float64)
    if values.size <= 10:
        return float(values.max()) if values.size else 0.0
    return float(np.percentile(values, 100.0 * (1.0 - 10.0 / values.size)))


def layer_metrics(runs: list[tuple[str, Spans]], tdnn_layers: int) -> dict[str, float]:
    """Per-layer metrics summed over the traced stages of one pipeline run.

    `runs` pairs each stage name (`train_nplda`, ...) with its spans; a
    metric of a stage or TDNN layer that did not run reads 0.
    """
    m: dict[str, float] = {f"cli.{stage}.s": 0.0 for stage in STAGES}

    def add(name, value):
        m[name] = m.get(name, 0.0) + float(value)

    steps: dict[str, list[float]] = {"nplda": [], "e2e": []}
    for stage, sp in runs:
        add(f"cli.{stage}.s", sp.duration[sp.parent < 0].sum())
        add("cli.self_s", sp.self_time[sp.parent < 0].sum())
        for layer in LAYERS:
            add(f"{layer}.self_s", sp.self_time[sp.prefix(layer + ".")].sum())
        for op, arg in (("read", "data.read_"), ("write", "data.write_")):
            sel = sp.prefix(arg)
            add(f"data.{op}.s", sp.duration[sel].sum())
            add(f"data.{op}.mb", sp.work[sel].sum())
        for op in ("save", "load"):
            sel = sp.where(f"checkpoint.{op}_params")
            add(f"checkpoint.{op}.s", sp.duration[sel].sum())
            add("checkpoint.mb", sp.work[sel].sum())
        sel = sp.where(*SAMPLERS)
        add("sampling.sample.s", sp.duration[sel].sum())
        add("sampling.batches", sp.tag[sel].sum())
        add("sampling.trials", sp.work[sel].sum())
        add("sampling.utts", sp.work2[sel].sum())
        for fn in ("gplda.fit_preprocess", "gplda.em_fit", "gplda.score_trials",
                   "nplda.soft_dcf_loss", "nplda.score_trials", "e2e.score_trial_batch",
                   "nn.stats_pool", "nn.stats_pool_backward", "nn.quadratic_score",
                   "nn.quadratic_score_backward", "nn.affine", "nn.affine_backward",
                   "nn.length_norm", "nn.length_norm_backward", "nn.adam_step",
                   "metrics.min_dcf", "metrics.eer"):
            add(f"{fn}.s", sp.duration[sp.where(fn)].sum())
        for fn in ("nplda.train", "nplda.batch_loss_and_grads", "nplda.stack_loss_and_grads",
                   "e2e.train_e2e", "e2e.batch_loss_and_grads"):
            add(f"{fn}.self_s", sp.self_time[sp.where(fn)].sum())
        for fn in ("nn.adam_step", "metrics.min_dcf", "metrics.eer"):
            add(f"{fn}.calls", sp.where(fn).sum())
        add("gplda.score_trials.trials", sp.work[sp.where("gplda.score_trials")].sum())
        add("metrics.trials", sp.work[sp.where("metrics.min_dcf")].sum())
        for fn in TDNN:
            for i in range(tdnn_layers):
                sel = sp.where(fn) & (sp.tag == i)
                add(f"{fn}.L{i}.s", sp.duration[sel].sum())
                add(f"{fn}.L{i}.gflop", sp.work[sel].sum())
        steps["nplda"] += sp.steps_ms("nplda.train", "nplda.batch_loss_and_grads")
        steps["e2e"] += sp.steps_ms("e2e.train_e2e", "e2e.batch_loss_and_grads")

    utts = m.pop("sampling.utts")
    m["sampling.utts_per_trial"] = utts / m["sampling.trials"] if m["sampling.trials"] else 0.0
    for fn in TDNN:
        for i in range(tdnn_layers):
            seconds = m[f"{fn}.L{i}.s"]
            gflop = m.pop(f"{fn}.L{i}.gflop")
            m[f"{fn}.L{i}.gflops"] = gflop / seconds if seconds > 0 else 0.0
    for loop, values in steps.items():
        m[f"{loop}.step_ms.p50"] = float(np.median(values)) if values else 0.0
        m[f"{loop}.step_ms.ptail"] = percentile_tail(values)
        m[f"{loop}.step_ms.n"] = float(len(values))
    return m


def accounting_gap_s(sp: Spans) -> float:
    """|sum of every span's self time - root span time|; zero up to rounding."""
    return float(abs(sp.self_time.sum() - sp.duration[sp.parent < 0].sum()))
