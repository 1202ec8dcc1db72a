"""The four workloads: their inputs, set-up stages and timed CLI sequences.

Every workload config is a frozen acceptance config (`frozen.py`) with only
the seed and the sizes below overridden.  A workload's set-up writes its
inputs into a data directory: the `simulate` corpus, a labelled evaluation
list over the dev utterances, and for `score` the trained checkpoints.  Its
pipeline is the CLI sequence a user runs to get a result, writing into a run
directory that is emptied before each repetition.  Training selects its
checkpoint on the simulated dev list; `score` and `evaluate` run on the
larger evaluation list, so that they take long enough to time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from frozen import BACKEND_INI, E2E_INI, derive

TRIALS_PER_XPROD_BATCH = 1024  # 64 utterances split 32 x 32, enroll x test


@dataclass
class Stage:
    """One CLI command: `name` is its stage (`train_nplda`, ...), `argv` its arguments."""

    name: str
    argv: list[str]
    # files whose contents must repeat exactly across repetitions
    outputs: tuple[Path, ...] = ()
    # ("scores" | "evaluate", score file, trial list) for the output checks
    checks: tuple = ()
    trials: int = 0  # trials this command scores, evaluates or steps through


@dataclass(frozen=True)
class Workload:
    name: str
    frozen: str
    overrides: dict[str, str] = field(default_factory=dict)
    eval_trials: int = 0  # trials in the evaluation list
    # train at set-up and time only `score` and `evaluate` of both models
    score_only: bool = False

    def config(self, seed: int, data: Path):
        cfg = derive(self.frozen, {"simulate.seed": str(seed), **self.overrides})
        kind = cfg["simulate"]["kind"]
        cfg["data"] = {
            f"train_{kind}": str(data / f"train.{kind}"),
            f"dev_{kind}": str(data / f"dev.{kind}"),
            "dev_trials": str(data / "dev.trials"),
        }
        return cfg

    @property
    def kind(self) -> str:
        return derive(self.frozen, {})["simulate"]["kind"]

    def tdnn_layers(self) -> int:
        cfg = derive(self.frozen, {})
        if not cfg.has_option("e2e", "layers"):
            return 0
        return sum(1 for line in cfg["e2e"]["layers"].splitlines() if line.strip())

    def trials_stepped(self, seed: int) -> int:
        """Trials one discriminative `train` command steps through."""
        cfg = self.config(seed, Path("."))
        epochs = cfg.getint("optimizer", "epochs")
        if cfg.getint("sampler", "algo") == 1:
            return epochs * cfg.getint("sampler", "n_trials")
        return epochs * cfg.getint("sampler", "n_batches") * TRIALS_PER_XPROD_BATCH

    def write_config(self, seed: int, data: Path) -> None:
        with open(data / "workload.ini", "w") as fh:
            self.config(seed, data).write(fh)

    def write_eval_list(self, seed: int, data: Path) -> None:
        dev = utterances_of(data / f"dev.{self.kind}", self.kind)
        write_trial_list(dev, data / "eval.trials", self.eval_trials, seed)

    def setup_stages(self, seed: int, data: Path) -> list[Stage]:
        cfg_path = str(data / "workload.ini")
        stages = [Stage(
            "simulate",
            ["simulate", "--config", cfg_path, "--out", str(data)],
            outputs=tuple(data / f for f in (f"train.{self.kind}", f"dev.{self.kind}",
                                             "dev.trials")),
        )]
        if self.score_only:
            stages += _backend_training(cfg_path, seed, data, self.trials_stepped(seed))
        return stages

    def pipeline(self, seed: int, data: Path, run: Path) -> list[Stage]:
        cfg_path = str(data / "workload.ini")
        evl, dev, n = data / "eval.trials", data / f"dev.{self.kind}", self.eval_trials
        if self.score_only:
            return [
                _score(data / "model.gplda", evl, dev, run / "gplda.scores", n),
                _score(data / "model.nplda", evl, dev, run / "nplda.scores", n),
                _evaluate(run / "gplda.scores", evl, n),
                _evaluate(run / "nplda.scores", evl, n),
            ]
        if self.kind == "features":
            train = [Stage(
                "train_e2e",
                ["train", "e2e", "--config", cfg_path, "--seed", str(seed),
                 "--out", str(run / "model.e2e"), "--trace", str(run / "e2e.csv")],
                outputs=(run / "model.e2e", run / "e2e.csv"),
                trials=self.trials_stepped(seed),
            )]
            model = run / "model.e2e"
        else:
            train = _backend_training(cfg_path, seed, run, self.trials_stepped(seed))
            model = run / "model.nplda"
        scores = run / f"{model.suffix[1:]}.scores"
        return train + [_score(model, evl, dev, scores, n), _evaluate(scores, evl, n)]


def _backend_training(cfg_path: str, seed: int, out: Path, trials: int) -> list[Stage]:
    return [
        Stage("train_gplda", ["train", "gplda", "--config", cfg_path,
                              "--out", str(out / "model.gplda")],
              outputs=(out / "model.gplda",)),
        Stage("train_nplda", ["train", "nplda", "--config", cfg_path, "--seed", str(seed),
                              "--init", str(out / "model.gplda"),
                              "--out", str(out / "model.nplda"),
                              "--trace", str(out / "nplda.csv")],
              outputs=(out / "model.nplda", out / "nplda.csv"), trials=trials),
    ]


def _score(model: Path, trials: Path, data: Path, out: Path, n: int) -> Stage:
    return Stage(
        "score",
        ["score", "--model", str(model), "--trials", str(trials), "--data", str(data),
         "--out", str(out)],
        outputs=(out,), checks=("scores", out, trials), trials=n,
    )


def _evaluate(scores: Path, key: Path, n: int) -> Stage:
    return Stage(
        "evaluate",
        ["evaluate", "--scores", str(scores), "--key", str(key), "--p-target", "0.01"],
        checks=("evaluate", scores, key), trials=n,
    )


def utterances_of(path: Path, kind: str) -> tuple[list[str], list[str]]:
    """(utterance ids, speaker ids) of an embedding or feature file."""
    ids, speakers = [], []
    with open(path) as fh:
        lines = [line for line in fh if line.strip()]
    i = 0
    while i < len(lines):
        fields = lines[i].split()
        ids.append(fields[0])
        speakers.append(fields[1])
        # a feature header `utt spk gender dataset T d` is followed by T frame rows
        i += 1 + (int(fields[4]) if kind == "features" else 0)
    return ids, speakers


def write_trial_list(utterances: tuple[list[str], list[str]], out: Path, n_trials: int,
                     seed: int, target_ratio: float = 0.25) -> None:
    """A labelled list of distinct ordered pairs over (utterance ids, speaker ids).

    Targets are drawn without replacement from all same-speaker pairs and
    non-targets from random different-speaker pairs; the list is shuffled.
    """
    rng = np.random.default_rng(seed)
    ids, speakers = np.array(utterances[0]), np.array(utterances[1])
    _, spk = np.unique(speakers, return_inverse=True)
    order = np.argsort(spk, kind="stable")
    starts = np.flatnonzero(np.r_[True, np.diff(spk[order]) != 0])
    groups = np.split(order, starts[1:])
    same = np.concatenate([
        np.stack(np.meshgrid(g, g, indexing="ij"), -1).reshape(-1, 2) for g in groups
    ])
    same = same[same[:, 0] != same[:, 1]]
    n_tgt = min(int(round(n_trials * target_ratio)), len(same))
    targets = same[rng.choice(len(same), size=n_tgt, replace=False)]
    n_non = n_trials - n_tgt
    if n_non > len(ids) * (len(ids) - 1) - len(same):
        raise ValueError(f"fewer than {n_non} non-target pairs for {out}")
    pairs = np.empty((0, 2), dtype=np.int64)
    while len(pairs) < n_non:
        cand = rng.integers(len(ids), size=(2 * n_non, 2))
        cand = cand[spk[cand[:, 0]] != spk[cand[:, 1]]]
        pairs = np.unique(np.concatenate([pairs, cand]), axis=0)
    nontargets = pairs[rng.permutation(len(pairs))[:n_non]]
    both = np.concatenate([targets, nontargets])
    labels = np.array(["target"] * n_tgt + ["nontarget"] * n_non)
    perm = rng.permutation(len(both))
    lines = [f"{ids[e]} {ids[t]} {lab}\n" for (e, t), lab in zip(both[perm], labels[perm])]
    with open(out, "w") as fh:
        fh.writelines(lines)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "backend-xprod",
            BACKEND_INI,
            {"optimizer.epochs": "6"},
            eval_trials=50_000,
        ),
        Workload(
            "backend-pairwise",
            BACKEND_INI,
            {"sampler.algo": "1", "simulate.utts_per_speaker": "32",
             "sampler.n_trials": "7168", "sampler.batch_size": "1024",
             "optimizer.epochs": "12"},
            eval_trials=50_000,
        ),
        Workload(
            "e2e",
            E2E_INI,
            {"optimizer.epochs": "1"},
            eval_trials=30_000,
        ),
        Workload(
            "score",
            BACKEND_INI,
            {"optimizer.epochs": "1"},
            eval_trials=100_000,
            score_only=True,
        ),
    )
}
