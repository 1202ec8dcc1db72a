"""Experiment runner: simulate | train | score | evaluate | sample | estimate-mem.

Configuration lives in an INI file with one section per stage; any value can
be overridden on the command line.  Every run writes a resolved copy of the
configuration next to its outputs so results can be reproduced from the
artifacts alone.  Exit codes: 0 success, 1 user error, 2 internal error.
"""

from __future__ import annotations

import argparse
import configparser
import ctypes
import io
import locale  # argparse's messages load it through gettext: load it here, not in main
import math
import os
import sys
from collections import defaultdict
from collections.abc import Callable
from typing import NamedTuple

import numpy as np
import numpy.random  # numpy loads it lazily: load it here, not at the first draw

from . import data as dm
from . import e2e as e2e_mod
from . import gplda as gplda_mod
from . import metrics as metrics_mod
from . import nplda as nplda_mod
from . import sampling
from .checkpoint import _load_kind
from .errors import (ArgumentError, ConfigError, DimensionError, LengthError, MissingIdError,
                     ParseError, SvkitError)
from .nn import POOL_STDDEV, POOL_VARIANCE


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

class _Type(NamedTuple):
    """A config value type: ``read`` gives the value of a text, or raises ValueError with
    what the message says after ``[section] key``; ``name`` and ``expected`` are its type
    and range as README's key table gives them."""

    name: str
    expected: str
    read: Callable[[str], object]


def _scalar(name: str, parse, test, expected: str) -> _Type:
    """One value: ``parse`` makes it from the text, ``test`` bounds it, ``expected`` says how."""
    def read(text):
        try:
            value = parse(text)
        except ValueError:
            raise ValueError(f"= {text!r}: expected {name}") from None
        if not test(value):
            raise ValueError(f"= {text!r}: expected {expected}")
        return value
    return _Type(name, expected, read)


def _int(lo=-math.inf, expected: str | None = None) -> _Type:
    return _scalar("int", int, lambda v: v >= lo, expected or f"at least {lo}")


def _choice(parse, *choices) -> _Type:
    return _scalar("int" if parse is int else "word", parse, lambda v: v in choices,
                   " or ".join(map(str, choices)))


def _floats(entry: _Type) -> _Type:
    """Whitespace-separated entries of the type ``entry``; an error shows the bad entry."""
    return _Type("float list", f"each {entry.expected}",
                 lambda text: [entry.read(part) for part in text.split()])


def _layer_lines(text: str) -> tuple:
    """The TDNN layers of ``[e2e] layers``: one ``k_in k_out offsets...`` line each."""
    layers = []
    for fields in filter(None, (line.split() for line in text.splitlines())):
        try:
            if len(fields) < 3:
                raise ArgumentError("needs 'k_in k_out offsets...'")
            layer = e2e_mod._layer_spec(fields)
            if layers and layer.in_dim != layers[-1].out_dim:
                raise ArgumentError(f"k_in {layer.in_dim} is not the k_out {layers[-1].out_dim} "
                                    "of the line before")
        except (ArgumentError, ValueError) as exc:
            raise ValueError(f"line {' '.join(fields)!r}: {exc}") from None
        layers.append(layer)
    return tuple(layers)


_POSITIVE = _scalar("float", float, lambda v: 0 < v < math.inf, "a finite number > 0")
_NON_NEGATIVE = _scalar("float", float, lambda v: 0 <= v < math.inf, "a finite number >= 0")
_RATIO = _scalar("float", float, lambda v: 0 <= v <= 1, "a number in [0, 1]")
_SWITCH = _scalar("switch", lambda text: configparser.ConfigParser.BOOLEAN_STATES.get(
    text.strip().lower()), lambda v: v is not None, "1/yes/true/on or 0/no/false/off")
_PATH = _Type("path", "", str)

# Every config key: (section, key) -> (its default text, None if unset, and its type).  A
# key whose default is blank may be left blank, which makes its value None.  Rules that tie
# keys together are in _check_together; README's key table lists the same rows.
_KEYS = {
    ("simulate", "kind"): ("embeddings", _choice(str.strip, "embeddings", "features")),
    ("simulate", "seed"): (None, _int(0)),
    ("simulate", "n_speakers"): ("60", _int(1)),
    ("simulate", "utts_per_speaker"): ("12", _int(1)),
    ("simulate", "n_dev_speakers"): ("40", _int(1)),
    ("simulate", "dev_utts_per_speaker"): ("8", _int(1)),
    ("simulate", "dim"): ("16", _int(1)),
    ("simulate", "latent_dim"): ("3", _int(1, "1 to [simulate] dim")),
    ("simulate", "phi_scale"): ("1.0", _NON_NEGATIVE),
    ("simulate", "noise_scale"): ("1.0", _POSITIVE),
    ("simulate", "phi_scales"): (None, _floats(_NON_NEGATIVE)),
    ("simulate", "noise_scales"): (None, _floats(_POSITIVE)),
    ("simulate", "dataset"): ("synth", _scalar("word", str, lambda v: v.split() == [v],
                                               "one field, no spaces")),
    ("simulate", "feat_dim"): ("8", _int(1)),
    ("simulate", "frames"): ("120", _int(1)),
    ("simulate", "mean_scale"): ("3.0", _NON_NEGATIVE),
    ("simulate", "within_std"): ("1.0", _POSITIVE),
    ("simulate", "n_dev_trials"): ("4000", _int(1)),
    ("simulate", "dev_target_ratio"): ("0.2", _RATIO),
    ("simulate", "split_genders"): ("false", _SWITCH),
    ("gplda", "lda_dim"): ("170", _int(expected="at least 1")),
    ("gplda", "latent_dim"): ("", _int(1, "1 to [gplda] lda_dim")),
    ("gplda", "em_iters"): ("20", _int(1)),
    ("gplda", "average_per_speaker"): ("false", _SWITCH),
    ("sampler", "algo"): ("2", _choice(int, 1, 2)),
    ("sampler", "utts_per_batch"): ("64", _scalar("int", int, lambda v: v > 0 and v % 2 == 0,
                                                  "an even number > 0")),
    ("sampler", "m_min"): ("3", _int(2)),
    ("sampler", "m_max"): ("8", _int(expected="[sampler] m_min to utts_per_batch / 2")),
    ("sampler", "n_batches"): ("40", _int(1)),
    ("sampler", "n_trials"): ("8192", _int(1)),
    ("sampler", "target_ratio"): ("0.5", _RATIO),
    ("sampler", "batch_size"): ("1024", _choice(int, 1024, 2048)),
    ("loss", "alpha"): ("10.0", _POSITIVE),
    ("loss", "c_miss"): ("1.0", _POSITIVE),
    ("loss", "c_fa"): ("1.0", _POSITIVE),
    ("loss", "p_target"): ("0.01", _scalar("float", float, lambda v: 0 < v < 1,
                                           "a number in (0, 1)")),
    ("loss", "learn_theta"): ("true", _SWITCH),
    ("optimizer", "lr"): ("1e-4", _POSITIVE),
    ("optimizer", "epochs"): ("30", _int(1)),
    ("optimizer", "patience"): ("3", _int(1)),
    ("e2e", "layers"): ("", _Type("TDNN layers", "k_in k_out offsets... per line, k_in the "
                                  "k_out of the line before", _layer_lines)),
    ("e2e", "pooling"): (POOL_STDDEV, _choice(str.strip, POOL_STDDEV, POOL_VARIANCE)),
    ("e2e", "embedding_dim"): ("16", _int(1)),
    ("e2e", "head_lda_dim"): ("12", _int(1, "1 to [e2e] embedding_dim")),
    ("e2e", "head_out_dim"): ("8", _int(1, "1 to [e2e] head_lda_dim")),
    ("e2e", "freeze_prefix"): ("0", _int(expected="0 to the number of TDNN layers")),
    ("data", "train_embeddings"): (None, _PATH),
    ("data", "dev_embeddings"): (None, _PATH),
    ("data", "dev_trials"): (None, _PATH),
    ("data", "train_features"): (None, _PATH),
    ("data", "dev_features"): (None, _PATH),
}


def _read(name: str, kind: _Type, text: str):
    """``text`` as a value of ``kind``, or ConfigError naming ``name``."""
    try:
        return kind.read(text)
    except ValueError as exc:
        raise ConfigError(f"{name} {exc}") from None


def _layers(cfg) -> tuple:
    """The [e2e] TDNN layers; blank ``layers`` is the five-layer desk stack."""
    return cfg["e2e", "layers"] or e2e_mod.desk_config(cfg["simulate", "feat_dim"]).layers


def _check_together(cfg) -> None:
    """The rules that tie keys together, each naming its keys."""
    phi, noise = cfg["simulate", "phi_scales"] or [], cfg["simulate", "noise_scales"] or []
    if len(phi) != len(noise):
        raise ConfigError(f"[simulate] phi_scales has {len(phi)} entries and "
                          f"[simulate] noise_scales {len(noise)}: expected as many")
    if (latent := cfg["simulate", "latent_dim"]) > (dim := cfg["simulate", "dim"]):
        raise ConfigError(f"[simulate] latent_dim = {latent}: expected at most "
                          f"[simulate] dim = {dim}")
    lda, latent = cfg["gplda", "lda_dim"], cfg["gplda", "latent_dim"]
    if lda < (latent or 1):
        raise ConfigError(f"[gplda] lda_dim = {lda}: expected at least "
                          + (f"[gplda] latent_dim = {latent}" if latent else "1"))
    m_min, m_max, half = (cfg["sampler", "m_min"], cfg["sampler", "m_max"],
                          cfg["sampler", "utts_per_batch"] // 2)
    if not m_min <= m_max <= half:
        raise ConfigError(f"[sampler] m_max = {m_max}: expected [sampler] m_min = {m_min} to "
                          f"[sampler] utts_per_batch / 2 = {half}")
    dims = [(key, cfg["e2e", key]) for key in ("head_out_dim", "head_lda_dim", "embedding_dim")]
    for (a, x), (b, y) in zip(dims, dims[1:]):
        if x > y:
            raise ConfigError(f"[e2e] {a} = {x} exceeds [e2e] {b} = {y}: need head_out_dim <= "
                              "head_lda_dim <= embedding_dim, got "
                              + ", ".join(str(v) for _, v in dims))
    frozen, n = cfg["e2e", "freeze_prefix"], len(_layers(cfg))
    if not 0 <= frozen <= n:
        raise ConfigError(f"[e2e] freeze_prefix = {frozen}: expected 0 to {n}, the number of "
                          "TDNN layers")


class Config:
    """INI-backed experiment configuration with CLI overrides, every value checked at load.

    ``cfg[section, key]`` is a value of its ``_KEYS`` type, or None if it is unset.
    """

    def __init__(self, path: str | None, overrides: list[str] | None = None):
        # values are literal: a '%' is text, not interpolation syntax
        self.parser = configparser.ConfigParser(interpolation=None)
        for (section, key), (default, _) in _KEYS.items():
            self.parser.setdefault(section, {})
            if default is not None:
                self.parser[section][key] = default
        if path is not None:
            if not os.path.exists(path):
                raise ConfigError(f"config file not found: {path}")
            try:
                with dm._reading(path) as fh:
                    self.parser.read_file(fh, path)
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
            self.parser.setdefault(section, {})
            self.parser[section][name] = value
        self._values = dict.fromkeys(_KEYS)
        for section in self.parser.sections():
            for key, text in self.parser[section].items():
                if (section, key) not in _KEYS:
                    raise ConfigError(f"unknown config key [{section}] {key}")
                default, kind = _KEYS[section, key]
                if text.strip() or default != "":
                    self._values[section, key] = _read(f"[{section}] {key}", kind, text)
        _check_together(self)

    def __getitem__(self, section_key: tuple[str, str]):
        return self._values[section_key]

    def get(self, section: str, key: str) -> str:
        """The text of ``[section] key``, as the resolved copy gives it."""
        return self.parser[section][key]

    def set(self, section, key, value):
        self.parser[section][key] = str(value)
        self._values[section, key] = value

    def write_resolved(self, output_path: str) -> None:
        """Write the resolved configuration to ``<output_path>.config.ini``."""
        text = io.StringIO()
        self.parser.write(text)
        dm._write_lines(output_path + ".config.ini", [text.getvalue()])


def _dcf_weights(cfg: Config) -> metrics_mod.DcfWeights:
    return metrics_mod.DcfWeights(*(cfg["loss", key] for key in ("c_miss", "c_fa", "p_target")))


def _loss_config(cfg: Config) -> nplda_mod.LossConfig:
    return nplda_mod.LossConfig(alpha=cfg["loss", "alpha"], weights=_dcf_weights(cfg),
                                learn_theta=cfg["loss", "learn_theta"])


def _e2e_config(cfg: Config) -> e2e_mod.E2EConfig:
    """The [e2e] model shape."""
    return e2e_mod.E2EConfig(_layers(cfg), *(cfg["e2e", key] for key in (
        "pooling", "embedding_dim", "head_lda_dim", "head_out_dim")))


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
    dim, latent = cfg["simulate", "dim"], cfg["simulate", "latent_dim"]
    rng = np.random.default_rng(seed)
    tiers = (list(zip(cfg["simulate", "phi_scales"] or (), cfg["simulate", "noise_scales"] or ()))
             or [(cfg["simulate", "phi_scale"], cfg["simulate", "noise_scale"])])
    split = cfg["simulate", "split_genders"]
    populations = []
    for di, (phi_scale, noise_scale) in enumerate(tiers):
        dataset = cfg["simulate", "dataset"] if len(tiers) == 1 else f"dom{di}"
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

    train = gen(cfg["simulate", "n_speakers"], cfg["simulate", "utts_per_speaker"], seed + 1, "")
    dev = gen(cfg["simulate", "n_dev_speakers"], cfg["simulate", "dev_utts_per_speaker"],
              seed + 1001, "dev-")
    return train, dev, {"dim": dim, "latent_dim": latent, "populations": len(populations)}


def _simulate_features(cfg: Config, seed: int):
    feat_dim, mean_scale = cfg["simulate", "feat_dim"], cfg["simulate", "mean_scale"]
    rng = np.random.default_rng(seed)
    n_spk, n_dev = cfg["simulate", "n_speakers"], cfg["simulate", "n_dev_speakers"]
    means = {f"fspk{i:04d}": mean_scale * rng.standard_normal(feat_dim) for i in range(n_spk)}
    dev_means = {f"dev-fspk{i:04d}": mean_scale * rng.standard_normal(feat_dim)
                 for i in range(n_dev)}
    common = dict(within_std=cfg["simulate", "within_std"], T=cfg["simulate", "frames"],
                  dataset_id=cfg["simulate", "dataset"])
    train = dm.synth_features(means, seed=seed + 1,
                              utts_per_speaker=cfg["simulate", "utts_per_speaker"], **common)
    dev = dm.synth_features(dev_means, seed=seed + 2,
                            utts_per_speaker=cfg["simulate", "dev_utts_per_speaker"], **common)
    return train, dev, {"feat_dim": feat_dim, "mean_scale": mean_scale}


def cmd_simulate(args) -> int:
    cfg = Config(args.config, args.override)
    seed = args.seed if args.seed is not None else cfg["simulate", "seed"]
    if seed is None:
        raise ConfigError("missing config value [simulate] seed")
    cfg.set("simulate", "seed", seed)
    kind = cfg["simulate", "kind"]
    os.makedirs(args.out, exist_ok=True)
    if kind == "embeddings":
        train, dev, info = _simulate_embeddings(cfg, seed)
        dm.write_embeddings(train, os.path.join(args.out, "train.embeddings"))
        dm.write_embeddings(dev, os.path.join(args.out, "dev.embeddings"))
    else:
        train, dev, info = _simulate_features(cfg, seed)
        dm.write_features(train, os.path.join(args.out, "train.features"))
        dm.write_features(dev, os.path.join(args.out, "dev.features"))
    trials = dm.make_trials(dev, cfg["simulate", "n_dev_trials"],
                            cfg["simulate", "dev_target_ratio"], seed + 3)
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
    if cfg["sampler", "algo"] == 2:
        sampler_cfg = sampling.SamplerConfig(
            *(cfg["sampler", key] for key in ("utts_per_batch", "m_min", "m_max")), seed=seed)
        return sampling.sample_epoch_algo2(utts, sampler_cfg, cfg["sampler", "n_batches"])
    return sampling.sample_trials_algo1(
        utts, *(cfg["sampler", key] for key in ("n_trials", "target_ratio", "batch_size")),
        seed=seed)


def _e2e_model(cfg: Config, args, seed: int) -> e2e_mod.E2EModel:
    """A new model of the [e2e] shape or the --extractor of that shape, with any --init head."""
    shape = _e2e_config(cfg)
    head = nplda_mod.load_nplda(args.init) if args.init else None
    model = e2e_mod.load_e2e(args.extractor) if args.extractor else e2e_mod.init_e2e(shape, seed)
    # the extractor is checked, not the --init head that replaces its head and head dims
    differ = [k for k, v in vars(shape).items() if getattr(model.config, k) != v]
    if head is not None:
        try:
            model = e2e_mod._with_head(model, head)
        except ArgumentError as exc:
            raise ArgumentError(f"{args.init}: {exc}") from None
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


def _read_key(path, both_classes: bool = True) -> dm.TrialList:
    """The trials of ``path``, which must all be labelled and, with ``both_classes``, hold both."""
    trials = dm.read_trials(path)
    unlabelled = np.flatnonzero(np.isnan(trials.labels))
    if unlabelled.size:
        i = unlabelled[0]
        raise ArgumentError(f"{path}: trial {trials.enroll[i]} {trials.test[i]} has no label")
    if both_classes and not 0 < (n_tgt := int(trials.labels.sum())) < len(trials):
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
    train_path, dev_path, trials_path = (cfg["data", key] for key in (
        f"train_{files}", f"dev_{files}", "dev_trials"))
    if train_path is None:
        raise ConfigError(f"missing config value [data] train_{files}")
    train_set = read(train_path)
    if not len(train_set):
        raise ArgumentError(f"{train_path}: holds no utterances")
    dev = None
    if dev_path and trials_path:
        try:
            dev = sampling.TrialBatch(read(dev_path), _read_key(trials_path))
        except MissingIdError as exc:
            raise ArgumentError(f"{trials_path}: {exc} (not in {dev_path})") from None
    inputs = [(train_path, train_set)] + ([(dev_path, dev.utterances)] if dev is not None else [])

    if args.kind == "gplda":
        _check_inputs(inputs, train_set.dim)
        n_speakers = len(set(train_set.speaker_labels()))
        if n_speakers == len(train_set):
            raise ArgumentError(f"{train_path}: no speaker has two utterances, so the "
                                "within-speaker covariance cannot be estimated")
        # LDA finds at most dim and n_speakers - 1 directions: the resolved config gives the
        # dim fitted
        cfg.set("gplda", "lda_dim", min(cfg["gplda", "lda_dim"], train_set.dim,
                                        max(n_speakers - 1, 1)))
        chain = gplda_mod.fit_preprocess(train_set, target_dim=cfg["gplda", "lda_dim"])
        best = gplda_mod.em_fit(
            (chain.apply(train_set.embedding_matrix()), train_set.speaker_labels()),
            latent_dim=cfg["gplda", "latent_dim"], n_iters=cfg["gplda", "em_iters"],
            chain=chain, average_per_speaker=cfg["gplda", "average_per_speaker"])
        row = ("gplda", "-", "-")
    else:
        if args.kind == "nplda":
            gplda_model = gplda_mod.load_model(args.init)
            _check_inputs(inputs, gplda_model.in_dim)
            dev_scored = (None if dev is None
                          else gplda_mod.score_trials(gplda_model, dev.trials, dev.utterances))
            model = nplda_mod.init_from_gplda(gplda_model, dev_scored, weights)
            train, extra = nplda_mod.train, {}
            row = ("nplda", "-", os.path.basename(args.init))
        else:
            model = _e2e_model(cfg, args, seed)
            _check_inputs(inputs, model.in_dim, model.config.min_frames)
            # an --init head brings its own dims: the resolved config gives the checkpoint's
            cfg.set("e2e", "head_lda_dim", model.config.head_lda_dim)
            cfg.set("e2e", "head_out_dim", model.config.head_out_dim)
            train, extra = e2e_mod.train_e2e, {"freeze_prefix": cfg["e2e", "freeze_prefix"]}
            row = ("e2e", model.config.pooling,
                   os.path.basename(args.extractor or args.init or "random"))
        # both discriminative trainers take the dev batch positionally
        best, trace = train(model, _sample_batches(cfg, train_set, seed), _loss_config(cfg),
                            cfg["optimizer", "epochs"], seed, dev, lr=cfg["optimizer", "lr"],
                            patience=cfg["optimizer", "patience"], **extra)
    save(best, args.out)
    cfg.write_resolved(args.out)
    if args.trace:
        nplda_mod.write_trace(trace, args.trace)
    if dev is not None:
        _report_row(*row, score(best, dev.trials, dev.utterances), weights)
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
    try:
        scored = score(model, trials, utts)
    except MissingIdError as exc:
        raise ArgumentError(f"{args.trials}: {exc} (not in {args.data})") from None
    dm.write_scores(scored, args.out)
    print(f"wrote {args.out} ({len(scored)} trials)")
    return 0


def _pair_codes(trials: dm.TrialList, row: defaultdict) -> np.ndarray:
    """Each trial's (enroll, test) pair as one integer, enroll row * 2**32 + test row.

    ``row`` numbers ids; its default factory is its ``__len__``, so an id it
    lacks takes the next number.
    """
    enroll, test = (np.fromiter(map(row.__getitem__, side), np.int64, len(trials))
                    for side in (trials.enroll, trials.test))
    return enroll << 32 | test


def _refuse_repeats(path, trials: dm.TrialList, codes: np.ndarray, order: np.ndarray) -> None:
    """Fail at the first line of ``path`` whose pair an earlier line has.

    ``order`` is a stable argsort of ``codes``, so of equal codes the first is the earliest.
    """
    sorted_codes = codes[order]
    repeats = order[1:][sorted_codes[1:] == sorted_codes[:-1]]
    if repeats.size:
        i = repeats.min()
        raise ParseError(path, int(trials.lines[i]),
                         f"repeated pair {trials.enroll[i]} {trials.test[i]}")


def cmd_evaluate(args) -> int:
    def flag(key, text, name=None):
        return _read(name or "--" + key.replace("_", "-"), _KEYS["loss", key][1], text)

    c_miss, c_fa = flag("c_miss", args.c_miss), flag("c_fa", args.c_fa)
    all_w = [metrics_mod.DcfWeights(c_miss, c_fa, p) for p in [
        flag("p_target", args.p_target),
        *(flag("p_target", p, "--extra-p-target") for p in args.extra_p_target)]]
    key = _read_key(args.key, both_classes=False)
    row: defaultdict[str, int] = defaultdict()
    row.default_factory = row.__len__
    key_codes = _pair_codes(key, row)
    key_order = np.argsort(key_codes, kind="stable")
    _refuse_repeats(args.key, key, key_codes, key_order)
    key_labels = key.labels
    del key  # its ids are numbered: let them go before the score file is read
    scored = dm.read_scores(args.scores)
    codes = _pair_codes(scored.trials, row)
    # each scored pair's row in the key, where the key has it
    sorted_key = np.append(key_codes[key_order], -1)
    at = np.searchsorted(sorted_key[:-1], codes)
    unkeyed = np.flatnonzero(sorted_key[at] != codes)
    if unkeyed.size:
        i = unkeyed[0]
        raise ArgumentError(f"{unkeyed.size} scored trial(s) missing from the key, first: "
                            f"{(scored.trials.enroll[i], scored.trials.test[i])}")
    _refuse_repeats(args.scores, scored.trials, codes, np.argsort(codes, kind="stable"))
    scored = dm.ScoredTrialSet(dm.TrialList(scored.trials.enroll, scored.trials.test,
                                            key_labels[key_order[at]]), scored.scores)
    weights = all_w[0]
    report = metrics_mod.evaluate(scored, weights, all_w[1:])
    print(f"eer_percent {100.0 * report.eer:.4f}")
    print(f"min_dcf {report.min_dcf:.6f}")
    print(f"threshold {report.threshold:.6f}")
    print(f"weights c_miss={weights.c_miss} c_fa={weights.c_fa} "
          f"p_target={weights.p_target} beta={weights.beta:.4f}")
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
    # read as [simulate] seed is, so that a bad one fails naming the flag before any command runs
    common.add_argument("--seed", help="a non-negative integer",
                        type=lambda text: _read("--seed", _KEYS["simulate", "seed"][1], text))
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
    # each takes what its [loss] key takes, and defaults to it
    for key in ("p_target", "c_miss", "c_fa"):
        p.add_argument("--" + key.replace("_", "-"), default=_KEYS["loss", key][0], dest=key)
    p.add_argument("--extra-p-target", action="append", default=[], dest="extra_p_target",
                   help="additional operating points to average")
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


# glibc's mallopt parameters
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_freed_memory() -> None:
    """Let glibc's malloc reuse freed memory instead of returning it to the OS.

    An E2E training step frees and allocates again temporaries of a few
    hundred kilobytes.  By default glibc maps such blocks one by one and trims
    the top of the heap, so every step faults in and zero-fills its memory
    afresh.  Heap blocks up to 32 MiB, and up to 64 MiB of free memory at the
    top of the heap, remove that cost.  Another C library is left as it is.
    """
    try:
        libc = ctypes.CDLL(None)
        libc.gnu_get_libc_version  # only glibc has it
        mallopt = libc.mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)


def main(argv: list[str] | None = None) -> int:
    _keep_freed_memory()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (SvkitError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - internal failure path
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
