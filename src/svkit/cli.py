"""Experiment runner: simulate | train | score | evaluate | sample | estimate-mem.

Configuration lives in an INI file with one section per stage; any value can
be overridden on the command line.  Every run writes a resolved copy of the
configuration next to its outputs so results can be reproduced from the
artifacts alone.  Exit codes: 0 success, 1 user error, 2 internal error.
"""

from __future__ import annotations

import argparse
import configparser
import io
import os
import sys

import numpy as np

from . import data as dm
from . import e2e as e2e_mod
from . import gplda as gplda_mod
from . import metrics as metrics_mod
from . import nplda as nplda_mod
from . import sampling
from .checkpoint import _load_kind
from .errors import ArgumentError, ConfigError, DimensionError, LengthError, SvkitError
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

# keys read with no default, so a resolved copy lists them only when they are set
_OPTIONAL_KEYS = {
    "simulate": ("seed", "phi_scales", "noise_scales"),
    "data": ("train_embeddings", "dev_embeddings", "dev_trials", "train_features", "dev_features"),
}


class Config:
    """INI-backed experiment configuration with CLI overrides."""

    def __init__(self, path: str | None, overrides: list[str] | None = None):
        # values are literal: a '%' is text, not interpolation syntax
        self.parser = configparser.ConfigParser(interpolation=None)
        for section, values in DEFAULTS.items():
            self.parser[section] = dict(values)
        if path is not None:
            if not os.path.exists(path):
                raise ConfigError(f"config file not found: {path}")
            try:
                self.parser.read(path)
            except configparser.Error as exc:
                # ParsingError lists every bad line; the other read errors name their one
                line = getattr(exc, "lineno", None) or exc.errors[0][0]
                reason = str(exc).splitlines()[0].split("]: ", 1)[-1]
                raise ConfigError(f"{path}:{line}: {reason}") from None
        for item in overrides or []:
            if "=" not in item or "." not in item.split("=", 1)[0]:
                raise ConfigError(f"override must look like section.key=value: {item!r}")
            key, value = item.split("=", 1)
            section, name = key.split(".", 1)
            if section not in self.parser:
                self.parser[section] = {}
            self.parser[section][name] = value
        for section in self.parser.sections():
            known = set(DEFAULTS.get(section, ())) | set(_OPTIONAL_KEYS.get(section, ()))
            for name in self.parser[section]:
                if name not in known:
                    raise ConfigError(f"unknown config key [{section}] {name}")

    def get(self, section: str, key: str, default: str | None = None) -> str:
        try:
            return self.parser[section][key]
        except KeyError:
            if default is not None:
                return default
            raise ConfigError(f"missing config value [{section}] {key}") from None

    def getint(self, section, key):
        return self._parse(int, section, key)

    def getfloat(self, section, key):
        return self._parse(float, section, key)

    def _parse(self, kind, section, key, value=None):
        """``value`` (by default the configured one) of ``[section] key`` as ``kind``."""
        value = self.get(section, key) if value is None else value
        try:
            return kind(value)
        except ValueError:
            raise ConfigError(f"[{section}] {key} = {value!r}: expected {kind.__name__}") from None

    def getbool(self, section, key):
        value = self.get(section, key)
        if value.strip().lower() not in self.parser.BOOLEAN_STATES:
            raise ConfigError(f"[{section}] {key} = {value!r}: expected 1/yes/true/on or "
                              "0/no/false/off")
        return self.parser.BOOLEAN_STATES[value.strip().lower()]

    def set(self, section, key, value):
        if section not in self.parser:
            self.parser[section] = {}
        self.parser[section][key] = str(value)

    def write_resolved(self, output_path: str) -> None:
        """Write the resolved configuration to ``<output_path>.config.ini``."""
        text = io.StringIO()
        self.parser.write(text)
        dm._write_lines(output_path + ".config.ini", [text.getvalue()])


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
    """The [e2e] model shape; a blank ``layers`` is the default five-layer stack."""
    text = cfg.get("e2e", "layers").strip()
    layers = e2e_mod.desk_config(cfg.getint("simulate", "feat_dim")).layers
    if text:
        layers = []
        for _, fields in dm._records(enumerate(text.splitlines())):
            if len(fields) < 3:
                raise ConfigError(f"[e2e] layers line needs 'k_in k_out offsets...': "
                                  f"{' '.join(fields)!r}")
            layers.append(e2e_mod._layer_spec(fields))
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
        tiers = [(cfg._parse(float, "simulate", "phi_scales", p),
                  cfg._parse(float, "simulate", "noise_scales", n))
                 for p, n in zip(phi_list, noise_list)]
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
    trials = dm.make_trials(
        dev,
        cfg.getint("simulate", "n_dev_trials"),
        cfg.getfloat("simulate", "dev_target_ratio"),
        seed + 3,
    )
    dm.write_trials(trials, os.path.join(args.out, "dev.trials"))
    cfg.write_resolved(os.path.join(args.out, "simulate"))
    print(f"simulate kind={kind} seed={seed} " +
          " ".join(f"{k}={v}" for k, v in info.items()))
    print(f"train records: {len(train)}  dev records: {len(dev)}  dev trials: {len(trials)}")
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


# model kind -> ([data] files it reads, their reader, model from a checkpoint, writer, scorer)
_KINDS = {
    "gplda": ("embeddings", dm.read_embeddings, gplda_mod._from_checkpoint,
              gplda_mod.save_model, gplda_mod.score_trials),
    "nplda": ("embeddings", dm.read_embeddings, nplda_mod._from_checkpoint,
              nplda_mod.save_nplda, nplda_mod.score_trials),
    "e2e": ("features", dm.read_features, e2e_mod._from_checkpoint,
            e2e_mod.save_e2e, e2e_mod.score_trials),
}


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


def _e2e_model(cfg: Config, args, seed: int) -> e2e_mod.E2EModel:
    """A new model of the [e2e] shape or the --extractor of that shape, with any --init head."""
    shape = _e2e_config(cfg)
    head = nplda_mod.load_nplda(args.init) if args.init else None
    if not args.extractor:
        return e2e_mod.init_e2e(shape, seed=seed, head=head)
    model = e2e_mod.load_e2e(args.extractor)
    if head is not None:
        model = e2e_mod._with_head(model, head)
    differ = [k for k, v in vars(shape).items() if getattr(model.config, k) != v]
    if differ:
        raise ConfigError(f"{args.extractor}: extractor differs from the [e2e] config in "
                          + ", ".join(differ))
    return model


def _check_inputs(files, in_dim: int, min_frames: int = 0) -> None:
    """Fail unless every (path, UtteranceSet) of ``files`` has the model's input dim ``in_dim``
    and, for an extractor, no utterance shorter than ``min_frames``."""
    for path, utts in files:
        if utts.dim not in (None, in_dim):
            raise DimensionError(f"{path}: data has dim {utts.dim}, the model takes dim {in_dim}")
        for u in utts if min_frames else ():
            if u.payload.num_frames < min_frames:
                raise LengthError(f"{path}: utterance {u.id} has {u.payload.num_frames} frames, "
                                  f"extractor needs min_frames = {min_frames}")


def _read_key(path, both_classes: bool = True) -> list[dm.Trial]:
    """The trials of ``path``, which must all be labelled and, with ``both_classes``, hold both."""
    trials = dm.read_trials(path)
    bad = next((t for t in trials if t.label is None), None)
    if bad is not None:
        raise ArgumentError(f"{path}: trial {bad.enroll_id} {bad.test_id} has no label")
    if both_classes and not 0 < (n_tgt := sum(t.is_target for t in trials)) < len(trials):
        raise ArgumentError(f"{path}: needs target and nontarget trials, has {n_tgt} target "
                            f"and {len(trials) - n_tgt} nontarget")
    return trials


def cmd_train(args) -> int:
    cfg = Config(args.config, args.override)
    if args.pooling is not None:
        cfg.set("e2e", "pooling", args.pooling)
    if args.kind == "nplda" and not args.init:
        raise ConfigError("train nplda requires --init <gplda checkpoint>")
    seed = args.seed if args.seed is not None else 0
    weights = _dcf_weights(cfg)
    files, read, _, save, score = _KINDS[args.kind]
    train_path = cfg.get("data", f"train_{files}")
    dev_path = cfg.get("data", f"dev_{files}", default="")
    trials_path = cfg.get("data", "dev_trials", default="")
    train_set = read(train_path)
    dev_set, dev_trials = ((read(dev_path), _read_key(trials_path))
                           if dev_path and trials_path else (None, None))
    inputs = [(train_path, train_set)] + ([(dev_path, dev_set)] if dev_set is not None else [])

    if args.kind == "gplda":
        _check_inputs(inputs, train_set.dim)
        latent = cfg.get("gplda", "latent_dim").strip()
        chain = gplda_mod.fit_preprocess(train_set, target_dim=cfg.getint("gplda", "lda_dim"))
        best = gplda_mod.em_fit(
            (chain.apply(train_set.embedding_matrix()), train_set.speaker_labels()),
            latent_dim=cfg.getint("gplda", "latent_dim") if latent else None,
            n_iters=cfg.getint("gplda", "em_iters"), chain=chain,
            average_per_speaker=cfg.getbool("gplda", "average_per_speaker"))
        row = ("gplda", "-", "-")
    else:
        if args.kind == "nplda":
            gplda_model = gplda_mod.load_model(args.init)
            _check_inputs(inputs, gplda_model.in_dim)
            dev_scored = (None if dev_set is None
                          else gplda_mod.score_trials(gplda_model, dev_trials, dev_set))
            model = nplda_mod.init_from_gplda(gplda_model, dev_scored, weights)
            train, extra = nplda_mod.train, {}
            row = ("nplda", "-", os.path.basename(args.init))
        else:
            model = _e2e_model(cfg, args, seed)
            _check_inputs(inputs, model.in_dim, model.config.min_frames)
            train, extra = e2e_mod.train_e2e, {"freeze_prefix": cfg.getint("e2e", "freeze_prefix")}
            row = ("e2e", model.config.pooling,
                   os.path.basename(args.extractor or args.init or "random"))
        # both discriminative trainers take the dev trials and their data positionally
        best, trace = train(model, _sample_batches(cfg, train_set, seed), _loss_config(cfg),
                            cfg.getint("optimizer", "epochs"), seed, dev_trials, dev_set,
                            lr=cfg.getfloat("optimizer", "lr"),
                            patience=cfg.getint("optimizer", "patience"), **extra)
    save(best, args.out)
    cfg.write_resolved(args.out)
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
    kind, model = _load_kind(args.model, {kind: row[2] for kind, row in _KINDS.items()})
    _, read, _, _, score = _KINDS[kind]
    trials = dm.read_trials(args.trials)
    utts = read(args.data)
    _check_inputs([(args.data, utts)], model.in_dim,
                  model.config.min_frames if kind == "e2e" else 0)
    scored = score(model, trials, utts)
    dm.write_scores(scored, args.out)
    print(f"wrote {args.out} ({len(scored)} trials)")
    return 0


def cmd_evaluate(args) -> int:
    trials = _read_key(args.key, both_classes=False)
    key = {(t.enroll_id, t.test_id): t for t in trials}
    if len(key) < len(trials):
        raise dm._repeated_pair(args.key)
    rows = dm.read_scores(args.scores)
    unkeyed = [(e, t) for e, t, _ in rows if (e, t) not in key]
    if unkeyed:
        raise ArgumentError(
            f"{len(unkeyed)} scored trial(s) missing from the key, first: {unkeyed[0]}"
        )
    # every scored pair is keyed, so a pair the key no longer holds was scored before
    picked = [key.pop((e, t), None) for e, t, _ in rows]
    if any(t is None for t in picked):
        raise dm._repeated_pair(args.scores)
    scored = dm.ScoredTrialSet(picked, np.array([s for _, _, s in rows]))
    all_w = [metrics_mod.DcfWeights(args.c_miss, args.c_fa, p)
             for p in [args.p_target, *args.extra_p_target]]
    weights = all_w[0]
    report = metrics_mod.evaluate(scored, weights, all_w[1:])
    print(f"eer_percent {100.0 * report.eer:.4f}")
    print(f"min_dcf {report.min_dcf:.6f}")
    print(f"threshold {report.threshold:.6f}")
    print(
        f"weights c_miss={weights.c_miss} c_fa={weights.c_fa} "
        f"p_target={weights.p_target} beta={weights.beta:.4f}"
    )
    if args.extra_p_target:
        print(f"min_dcf_avg {report.min_dcf_avg:.6f}")
    dm._write_lines(args.csv or (args.scores + ".metrics.csv"), [
        "metric,value\n",
        f"eer,{report.eer:.8f}\n",
        f"min_dcf,{report.min_dcf:.8f}\n",
        f"threshold,{report.threshold:.8f}\n",
        f"beta,{weights.beta:.8f}\n",
    ])
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
    cfg.write_resolved(args.out)
    n_trials = sum(len(b.trials) for b in batches)
    print(f"wrote {args.out} ({len(batches)} batches, {n_trials} trials)")
    return 0


def cmd_estimate_mem(args) -> int:
    cfg = Config(args.config, args.override)
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

    p = sub.add_parser("train", help="train a model stage")
    p.set_defaults(func=cmd_train, init=None, extractor=None, trace=None, pooling=None)
    # each kind takes only the flags it uses
    kinds = p.add_subparsers(dest="kind", required=True)
    for kind in _KINDS:
        k = kinds.add_parser(kind, parents=[common], help=f"train a {kind} checkpoint")
        k.add_argument("--out", required=True, help="checkpoint path")
        if kind != "gplda":
            k.add_argument("--init", help="gplda checkpoint for nplda, nplda head for e2e")
            k.add_argument("--trace", help="CSV training trace path")
        if kind == "e2e":
            k.add_argument("--extractor", help="pretrained e2e extractor checkpoint")
            k.add_argument("--pooling", choices=[POOL_STDDEV, POOL_VARIANCE])

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
