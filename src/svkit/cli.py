"""Experiment runner: simulate | train | score | evaluate | sample | estimate-mem.

Configuration lives in an INI file with one section per stage; any value can
be overridden on the command line.  Every run writes a resolved copy of the
configuration next to its outputs so results can be reproduced from the
artifacts alone.  Exit codes: 0 success, 1 user error, 2 internal error.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys

import numpy as np

from . import data as dm
from . import e2e as e2e_mod
from . import gplda as gplda_mod
from . import metrics as metrics_mod
from . import nplda as nplda_mod
from . import sampling
from .errors import ArgumentError, ConfigError, SvkitError
from .nn import POOL_STDDEV, POOL_VARIANCE


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

DEFAULTS = {
    "simulate": {
        "kind": "embeddings",
        "n_speakers": "60",
        "utts_per_speaker": "12",
        "n_dev_speakers": "40",
        "dev_utts_per_speaker": "8",
        "dim": "16",
        "latent_dim": "3",
        "phi_scale": "1.0",
        "noise_scale": "1.0",
        "dataset": "synth",
        "feat_dim": "8",
        "frames": "120",
        "mean_scale": "3.0",
        "within_std": "1.0",
        "n_dev_trials": "4000",
        "dev_target_ratio": "0.2",
        "split_genders": "false",
    },
    "gplda": {
        "lda_dim": "170",
        "latent_dim": "",
        "em_iters": "20",
        "average_per_speaker": "false",
    },
    "sampler": {
        "algo": "2",
        "utts_per_batch": "64",
        "m_min": "3",
        "m_max": "8",
        "n_batches": "40",
        "n_trials": "8192",
        "target_ratio": "0.5",
        "batch_size": "1024",
    },
    "loss": {
        "alpha": "10.0",
        "c_miss": "1.0",
        "c_fa": "1.0",
        "p_target": "0.01",
        "learn_theta": "true",
    },
    "optimizer": {
        "lr": "1e-4",
        "epochs": "30",
        "patience": "3",
    },
    "e2e": {
        "layers": "",
        "pooling": POOL_STDDEV,
        "embedding_dim": "16",
        "head_lda_dim": "12",
        "head_out_dim": "8",
        "freeze_prefix": "0",
    },
    "data": {},
}


class Config:
    """INI-backed experiment configuration with CLI overrides."""

    def __init__(self, path: str | None, overrides: list[str] | None = None):
        self.parser = configparser.ConfigParser()
        for section, values in DEFAULTS.items():
            self.parser[section] = dict(values)
        if path is not None:
            if not os.path.exists(path):
                raise ConfigError(f"config file not found: {path}")
            self.parser.read(path)
        for item in overrides or []:
            if "=" not in item or "." not in item.split("=", 1)[0]:
                raise ConfigError(f"override must look like section.key=value: {item!r}")
            key, value = item.split("=", 1)
            section, name = key.split(".", 1)
            if section not in self.parser:
                self.parser[section] = {}
            self.parser[section][name] = value

    def get(self, section: str, key: str, default: str | None = None) -> str:
        try:
            return self.parser[section][key]
        except KeyError:
            if default is not None:
                return default
            raise ConfigError(f"missing config value [{section}] {key}") from None

    def getint(self, section, key):
        return int(self.get(section, key))

    def getfloat(self, section, key):
        return float(self.get(section, key))

    def getbool(self, section, key):
        return self.get(section, key).strip().lower() in ("1", "true", "yes", "on")

    def set(self, section, key, value):
        if section not in self.parser:
            self.parser[section] = {}
        self.parser[section][key] = str(value)

    def write_resolved(self, out_path: str) -> None:
        directory = os.path.dirname(os.path.abspath(out_path))
        os.makedirs(directory, exist_ok=True)
        with open(out_path, "w") as fh:
            self.parser.write(fh)


def _resolved_next_to(cfg: Config, output_path: str) -> None:
    cfg.write_resolved(output_path + ".config.ini")


def _dcf_weights(cfg: Config) -> metrics_mod.DcfWeights:
    return metrics_mod.DcfWeights(
        c_miss=cfg.getfloat("loss", "c_miss"),
        c_fa=cfg.getfloat("loss", "c_fa"),
        p_target=cfg.getfloat("loss", "p_target"),
    )


def _loss_config(cfg: Config) -> nplda_mod.LossConfig:
    return nplda_mod.LossConfig(
        alpha=cfg.getfloat("loss", "alpha"),
        weights=_dcf_weights(cfg),
        learn_theta=cfg.getbool("loss", "learn_theta"),
    )


def _e2e_config(cfg: Config) -> e2e_mod.E2EConfig:
    text = cfg.get("e2e", "layers").strip()
    if not text:
        return e2e_mod.desk_config(cfg.getint("simulate", "feat_dim"))
    layers = []
    for line in text.splitlines():
        fields = line.split()
        if not fields:
            continue
        if len(fields) < 3:
            raise ConfigError(f"[e2e] layers line needs 'k_in k_out offsets...': {line!r}")
        layers.append(
            e2e_mod.TdnnLayerSpec(
                int(fields[0]), int(fields[1]), tuple(int(o) for o in fields[2:])
            )
        )
    return e2e_mod.E2EConfig(
        layers=tuple(layers),
        pooling=cfg.get("e2e", "pooling"),
        embedding_dim=cfg.getint("e2e", "embedding_dim"),
        head_lda_dim=cfg.getint("e2e", "head_lda_dim"),
        head_out_dim=cfg.getint("e2e", "head_out_dim"),
    )


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _make_dev_trials(utts: dm.UtteranceSet, n_trials: int, target_ratio: float,
                     seed: int) -> list[dm.Trial]:
    rng = np.random.default_rng(seed)
    by_spk: dict[str, list[str]] = {}
    for u in utts:
        by_spk.setdefault(u.speaker_id, []).append(u.id)
    speakers = sorted(by_spk)
    # distinct ordered pairs each label can supply; asking for more never ends
    sizes = [len(ids) for ids in by_spk.values()]
    n_target = sum(n * (n - 1) for n in sizes) if target_ratio > 0 else 0
    n_nontarget = sum(sizes) ** 2 - sum(n * n for n in sizes) if target_ratio < 1 else 0
    if n_trials > n_target + n_nontarget:
        raise ConfigError(f"[simulate] n_dev_trials = {n_trials} exceeds the "
                          f"{n_target + n_nontarget} distinct trials the dev set can form")
    trials = []
    seen = set()
    while len(trials) < n_trials:
        if rng.random() < target_ratio:
            ids = by_spk[speakers[int(rng.integers(len(speakers)))]]
            if len(ids) < 2:
                continue
            i, j = rng.choice(len(ids), size=2, replace=False)
            key, label = (ids[int(i)], ids[int(j)]), dm.TARGET
        else:
            si, sj = rng.choice(len(speakers), size=2, replace=False)
            a = by_spk[speakers[int(si)]]
            b = by_spk[speakers[int(sj)]]
            key, label = (a[int(rng.integers(len(a)))], b[int(rng.integers(len(b)))]), dm.NONTARGET
        if key not in seen:
            seen.add(key)
            trials.append(dm.Trial(key[0], key[1], label))
    return trials


def _simulate_embeddings(cfg: Config, seed: int):
    """Synthetic embedding tracks from one or several sub-populations.

    With `phi_scales`/`noise_scales` lists, one dataset tier is generated per
    entry; `split_genders` gives each tier independent single-gender male and
    female populations.  Pooling heterogeneous tiers is the desk-scale
    analogue of multi-corpus backend training.
    """
    dim = cfg.getint("simulate", "dim")
    latent = cfg.getint("simulate", "latent_dim")
    rng = np.random.default_rng(seed)
    phi_list = cfg.get("simulate", "phi_scales", default="").split()
    if phi_list:
        noise_list = cfg.get("simulate", "noise_scales", default="").split()
        if len(noise_list) != len(phi_list):
            raise ConfigError("[simulate] phi_scales and noise_scales must have equal length")
        tiers = [(float(p), float(n)) for p, n in zip(phi_list, noise_list)]
    else:
        tiers = [(cfg.getfloat("simulate", "phi_scale"),
                  cfg.getfloat("simulate", "noise_scale"))]
    split = cfg.getbool("simulate", "split_genders")
    populations = []
    for di, (phi_scale, noise_scale) in enumerate(tiers):
        dataset = cfg.get("simulate", "dataset") if len(tiers) == 1 else f"dom{di}"
        genders = ("M", "F") if split else ("alternate",)
        for g in genders:
            phi = phi_scale * rng.standard_normal((dim, latent))
            scales = noise_scale * (0.6 + 0.8 * rng.random(dim))
            populations.append((phi, np.diag(scales**2), dataset, g))

    def gen(n_speakers, utts_per_speaker, seed0, prefix):
        parts = []
        for pi, (phi, sigma, dataset, g) in enumerate(populations):
            tag = f"{prefix}{dataset}{g if g != 'alternate' else ''}s"
            parts.extend(
                dm.synth_plda_embeddings(
                    phi, sigma, n_speakers, utts_per_speaker,
                    seed=seed0 + pi, dataset_id=dataset, gender=g, id_prefix=tag,
                )
            )
        return dm.UtteranceSet(parts)

    train = gen(cfg.getint("simulate", "n_speakers"),
                cfg.getint("simulate", "utts_per_speaker"), seed + 1, "")
    dev = gen(cfg.getint("simulate", "n_dev_speakers"),
              cfg.getint("simulate", "dev_utts_per_speaker"), seed + 1001, "dev-")
    return train, dev, {"dim": dim, "latent_dim": latent, "populations": len(populations)}


def _simulate_features(cfg: Config, seed: int):
    feat_dim = cfg.getint("simulate", "feat_dim")
    mean_scale = cfg.getfloat("simulate", "mean_scale")
    rng = np.random.default_rng(seed)
    n_spk = cfg.getint("simulate", "n_speakers")
    n_dev = cfg.getint("simulate", "n_dev_speakers")
    means = {
        f"fspk{i:04d}": mean_scale * rng.standard_normal(feat_dim)
        for i in range(n_spk)
    }
    dev_means = {
        f"dev-fspk{i:04d}": mean_scale * rng.standard_normal(feat_dim)
        for i in range(n_dev)
    }
    common = dict(
        within_std=cfg.getfloat("simulate", "within_std"),
        T=cfg.getint("simulate", "frames"),
        dataset_id=cfg.get("simulate", "dataset"),
    )
    train = dm.synth_features(
        means, seed=seed + 1,
        utts_per_speaker=cfg.getint("simulate", "utts_per_speaker"), **common
    )
    dev = dm.synth_features(
        dev_means, seed=seed + 2,
        utts_per_speaker=cfg.getint("simulate", "dev_utts_per_speaker"), **common
    )
    return train, dev, {"feat_dim": feat_dim, "mean_scale": mean_scale}


def cmd_simulate(args) -> int:
    cfg = Config(args.config, args.override)
    seed = args.seed if args.seed is not None else cfg.getint("simulate", "seed")
    cfg.set("simulate", "seed", seed)
    kind = cfg.get("simulate", "kind")
    os.makedirs(args.out, exist_ok=True)
    if kind == "embeddings":
        train, dev, info = _simulate_embeddings(cfg, seed)
        dm.write_embeddings(train, os.path.join(args.out, "train.embeddings"))
        dm.write_embeddings(dev, os.path.join(args.out, "dev.embeddings"))
    elif kind == "features":
        train, dev, info = _simulate_features(cfg, seed)
        dm.write_features(train, os.path.join(args.out, "train.features"))
        dm.write_features(dev, os.path.join(args.out, "dev.features"))
    else:
        raise ConfigError(f"[simulate] kind must be embeddings or features, got {kind!r}")
    trials = _make_dev_trials(
        dev,
        cfg.getint("simulate", "n_dev_trials"),
        cfg.getfloat("simulate", "dev_target_ratio"),
        seed + 3,
    )
    dm.write_trials(trials, os.path.join(args.out, "dev.trials"))
    _resolved_next_to(cfg, os.path.join(args.out, "simulate"))
    print(f"simulate kind={kind} seed={seed} " +
          " ".join(f"{k}={v}" for k, v in info.items()))
    print(f"train records: {len(train)}  dev records: {len(dev)}  dev trials: {len(trials)}")
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def _load_dev(cfg: Config, kind: str):
    dev_path = cfg.get("data", f"dev_{kind}", default="")
    trials_path = cfg.get("data", "dev_trials", default="")
    if not dev_path or not trials_path:
        return None, None
    reader = dm.read_embeddings if kind == "embeddings" else dm.read_features
    return reader(dev_path), dm.read_trials(trials_path)


def _report_row(model: str, pooling: str, init: str, scored: dm.ScoredTrialSet,
                weights: metrics_mod.DcfWeights):
    report = metrics_mod.evaluate(scored, weights)
    print(f"{'model':<8} {'pooling':<8} {'init':<12} {'EER%':>7} {'C_Min':>7}")
    print(f"{model:<8} {pooling:<8} {init:<12} {100 * report.eer:>7.2f} {report.min_dcf:>7.3f}")


def _sample_batches(cfg: Config, utts, seed: int) -> list[sampling.TrialBatch]:
    algo = cfg.getint("sampler", "algo")
    if algo == 2:
        sampler_cfg = sampling.SamplerConfig(
            utts_per_batch=cfg.getint("sampler", "utts_per_batch"),
            m_min=cfg.getint("sampler", "m_min"),
            m_max=cfg.getint("sampler", "m_max"),
            seed=seed,
        )
        return sampling.sample_epoch_algo2(utts, sampler_cfg,
                                           cfg.getint("sampler", "n_batches"))
    if algo == 1:
        return sampling.sample_trials_algo1(
            utts,
            n_trials=cfg.getint("sampler", "n_trials"),
            target_ratio=cfg.getfloat("sampler", "target_ratio"),
            batch_size=cfg.getint("sampler", "batch_size"),
            seed=seed,
        )
    raise ConfigError(f"[sampler] algo must be 1 or 2, got {algo}")


def cmd_train(args) -> int:
    cfg = Config(args.config, args.override)
    if args.pooling is not None:
        cfg.set("e2e", "pooling", args.pooling)
    seed = args.seed if args.seed is not None else 0
    weights = _dcf_weights(cfg)
    loss_cfg = _loss_config(cfg)

    if args.kind == "gplda":
        train_set = dm.read_embeddings(cfg.get("data", "train_embeddings"))
        latent = cfg.get("gplda", "latent_dim").strip()
        chain = gplda_mod.fit_preprocess(train_set, target_dim=cfg.getint("gplda", "lda_dim"))
        processed = chain.apply(train_set.embedding_matrix())
        model = gplda_mod.em_fit(
            (processed, train_set.speaker_labels()),
            latent_dim=int(latent) if latent else None,
            n_iters=cfg.getint("gplda", "em_iters"),
            average_per_speaker=cfg.getbool("gplda", "average_per_speaker"),
            chain=chain,
        )
        gplda_mod.save_model(model, args.out)
        _resolved_next_to(cfg, args.out)
        dev_set, dev_trials = _load_dev(cfg, "embeddings")
        if dev_set is not None:
            scored = gplda_mod.score_trials(model, dev_trials, dev_set)
            _report_row("gplda", "-", "-", scored, weights)
        print(f"wrote {args.out}")
        return 0

    if args.kind == "nplda":
        if not args.init:
            raise ConfigError("train nplda requires --init <gplda checkpoint>")
        train_set = dm.read_embeddings(cfg.get("data", "train_embeddings"))
        gplda_model = gplda_mod.load_model(args.init)
        dev_set, dev_trials = _load_dev(cfg, "embeddings")
        dev_scored = None
        if dev_set is not None:
            dev_scored = gplda_mod.score_trials(gplda_model, dev_trials, dev_set)
        model = nplda_mod.init_from_gplda(gplda_model, dev_scored, weights)
        train, save, score = nplda_mod.train, nplda_mod.save_nplda, nplda_mod.score_trials
        row = ("nplda", "-", os.path.basename(args.init))
        extra = {}
    elif args.kind == "e2e":
        train_set = dm.read_features(cfg.get("data", "train_features"))
        e2e_cfg = _e2e_config(cfg)
        head = None
        init_name = "random"
        if args.init:
            head = nplda_mod.load_nplda(args.init)
            init_name = os.path.basename(args.init)
        model = e2e_mod.init_e2e(e2e_cfg, seed=seed, head=head)
        if args.extractor:
            model = e2e_mod.load_e2e(args.extractor)
            if head is not None:
                model.head = head.copy()
            init_name = os.path.basename(args.extractor)
        dev_set, dev_trials = _load_dev(cfg, "features")
        train, save, score = e2e_mod.train_e2e, e2e_mod.save_e2e, e2e_mod.score_trials
        row = ("e2e", e2e_cfg.pooling, init_name)
        extra = {"freeze_prefix": cfg.getint("e2e", "freeze_prefix")}
    else:
        raise ConfigError(f"unknown training kind {args.kind!r}")

    # both discriminative trainers take the dev trials and their data positionally
    best, trace = train(
        model,
        _sample_batches(cfg, train_set, seed),
        loss_cfg,
        cfg.getint("optimizer", "epochs"),
        seed,
        dev_trials,
        dev_set,
        lr=cfg.getfloat("optimizer", "lr"),
        patience=cfg.getint("optimizer", "patience"),
        **extra,
    )
    save(best, args.out)
    _resolved_next_to(cfg, args.out)
    if args.trace:
        nplda_mod.write_trace(trace, args.trace)
    if dev_set is not None:
        _report_row(*row, score(best, dev_trials, dev_set), weights)
    print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# score / evaluate
# ---------------------------------------------------------------------------


def cmd_score(args) -> int:
    from .checkpoint import load_params

    _, meta = load_params(args.model)
    kind = meta.get("kind", "")
    trials = dm.read_trials(args.trials)
    # checkpoint kind -> (loader, scorer, reader of the --data file)
    kinds = {
        "gplda": (gplda_mod.load_model, gplda_mod.score_trials, dm.read_embeddings),
        "nplda": (nplda_mod.load_nplda, nplda_mod.score_trials, dm.read_embeddings),
        "e2e": (e2e_mod.load_e2e, e2e_mod.score_trials, dm.read_features),
    }
    if kind not in kinds:
        raise ConfigError(f"{args.model}: unknown checkpoint kind {kind!r}")
    load, score, read = kinds[kind]
    scored = score(load(args.model), trials, read(args.data))
    dm.write_scores(scored, args.out)
    print(f"wrote {args.out} ({len(scored)} trials)")
    return 0


def cmd_evaluate(args) -> int:
    key = {(t.enroll_id, t.test_id): t.label for t in dm.read_trials(args.key)}
    if any(label is None for label in key.values()):
        raise ArgumentError(f"{args.key}: every key trial needs a label")
    rows = dm.read_scores(args.scores)
    trials = []
    scores = []
    unkeyed = [(e, t) for e, t, _ in rows if (e, t) not in key]
    if unkeyed:
        raise ArgumentError(
            f"{len(unkeyed)} scored trial(s) missing from the key, first: {unkeyed[0]}"
        )
    for e, t, s in rows:
        trials.append(dm.Trial(e, t, key[(e, t)]))
        scores.append(s)
    scored = dm.ScoredTrialSet(trials, np.array(scores))
    weights = metrics_mod.DcfWeights(args.c_miss, args.c_fa, args.p_target)
    if args.extra_p_target:
        all_w = [weights] + [
            metrics_mod.DcfWeights(args.c_miss, args.c_fa, p) for p in args.extra_p_target
        ]
        avg = metrics_mod.min_dcf_multi(scored, all_w)
    else:
        avg = None
    report = metrics_mod.evaluate(scored, weights)
    print(f"eer_percent {100.0 * report.eer:.4f}")
    print(f"min_dcf {report.min_dcf:.6f}")
    print(f"threshold {report.threshold:.6f}")
    print(
        f"weights c_miss={weights.c_miss} c_fa={weights.c_fa} "
        f"p_target={weights.p_target} beta={weights.beta:.4f}"
    )
    if avg is not None:
        print(f"min_dcf_avg {avg:.6f}")
    csv_path = args.csv or (args.scores + ".metrics.csv")
    with open(csv_path, "w") as fh:
        fh.write("metric,value\n")
        fh.write(f"eer,{report.eer:.8f}\n")
        fh.write(f"min_dcf,{report.min_dcf:.8f}\n")
        fh.write(f"threshold,{report.threshold:.8f}\n")
        fh.write(f"beta,{weights.beta:.8f}\n")
    return 0


# ---------------------------------------------------------------------------
# sample / estimate-mem
# ---------------------------------------------------------------------------


def cmd_sample(args) -> int:
    cfg = Config(args.config, args.override)
    seed = args.seed if args.seed is not None else 0
    utts = dm.read_embeddings(args.data)
    batches = _sample_batches(cfg, utts, seed)
    sampling.write_batches(batches, args.out)
    _resolved_next_to(cfg, args.out)
    n_trials = sum(len(b.trials) for b in batches)
    print(f"wrote {args.out} ({len(batches)} batches, {n_trials} trials)")
    return 0


def cmd_estimate_mem(args) -> int:
    cfg = Config(args.config, args.override) if args.config else Config(None, args.override)
    e2e_cfg = e2e_mod.full_size_config() if args.full_size else _e2e_config(cfg)
    est = e2e_mod.estimate_memory(args.n_trials, args.frames, e2e_cfg)
    for name, b in est.per_layer:
        print(f"{name:<8} {b:>16d} bytes")
    print(f"total    {est.total_bytes:>16d} bytes ({est.gigabytes():.1f} GB)")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="svkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="INI experiment configuration")
    common.add_argument("--seed", type=int, default=None)
    common.add_argument(
        "--override", "-O", action="append", default=[],
        metavar="SECTION.KEY=VALUE", help="override a config value",
    )

    p = sub.add_parser("simulate", parents=[common], help="write synthetic datasets")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", parents=[common], help="train a model stage")
    p.add_argument("kind", choices=["gplda", "nplda", "e2e"])
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--init", help="initialization checkpoint (gplda for nplda, nplda for e2e)")
    p.add_argument("--extractor", help="pretrained e2e extractor checkpoint")
    p.add_argument("--trace", help="CSV training trace path")
    p.add_argument("--pooling", choices=[POOL_STDDEV, POOL_VARIANCE])
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("score", help="score a trial list with a checkpoint")
    p.add_argument("--model", required=True)
    p.add_argument("--trials", required=True)
    p.add_argument("--data", required=True, help="embedding or feature file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("evaluate", help="EER / minDCF of a score file")
    p.add_argument("--scores", required=True)
    p.add_argument("--key", required=True, help="labelled trial file")
    p.add_argument("--p-target", type=float, default=0.01, dest="p_target")
    p.add_argument("--c-miss", type=float, default=1.0, dest="c_miss")
    p.add_argument("--c-fa", type=float, default=1.0, dest="c_fa")
    p.add_argument(
        "--extra-p-target", type=float, action="append", default=[],
        dest="extra_p_target", help="additional operating points to average",
    )
    p.add_argument("--csv", help="metrics CSV path")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sample", parents=[common], help="write trial batches")
    p.add_argument("--data", required=True, help="embedding file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("estimate-mem", parents=[common], help="batch memory estimate")
    p.add_argument("-N", "--n-trials", type=int, required=True, dest="n_trials")
    p.add_argument("-T", "--frames", type=int, required=True, dest="frames")
    p.add_argument("--full-size", action="store_true",
                   help="use the nine-layer full-size extractor shape")
    p.set_defaults(func=cmd_estimate_mem)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SvkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - internal failure path
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
