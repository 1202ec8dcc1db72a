"""End-to-end model: tied twin TDNN extractors feeding the neural backend.

A stack of TDNN layers followed by statistics pooling and a segment-level
affine turns a frame sequence into a fixed embedding; the backend scores
embedding pairs.  Enrollment and test branches share one parameter set, so
the scorer is symmetric by construction and every utterance in a batch is
embedded exactly once no matter how many trials reference it.

Includes the activation-memory estimator for a training batch: storing
forward and backward activations for 2N utterances of T frames costs
2 N T sum_i(k_i c_i) * 16 bytes, where k_i is the input dimension and c_i
the context width of TDNN layer i.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from . import nplda
from .checkpoint import load_params, save_params
from .data import FeatureMatrix, ScoredTrialSet, Trial, UtteranceSet, pair_index
from .errors import ArgumentError, LengthError, StateError
from .nn import (
    POOL_STDDEV,
    POOL_VARIANCE,
    _tdnn_pre,
    affine,
    affine_backward,
    relu,
    stats_pool,
    stats_pool_backward,
    tdnn_layer,
    tdnn_layer_backward,
)
from .nplda import LossConfig, NpldaParams
from .sampling import TrialBatch


@dataclass(frozen=True)
class TdnnLayerSpec:
    in_dim: int
    out_dim: int
    offsets: tuple[int, ...]

    def __post_init__(self):
        if not self.offsets:
            raise ArgumentError("a TDNN layer needs at least one context offset")

    @property
    def context_width(self) -> int:
        return len(self.offsets)

    @property
    def span(self) -> int:
        return max(self.offsets) - min(self.offsets)


@dataclass(frozen=True)
class E2EConfig:
    """Extractor and head dimensions for the end-to-end model."""

    layers: tuple[TdnnLayerSpec, ...]
    pooling: str = POOL_STDDEV
    embedding_dim: int = 16
    head_lda_dim: int = 12
    head_out_dim: int = 8

    def __post_init__(self):
        if not self.layers:
            raise ArgumentError("config needs at least one TDNN layer")
        if self.pooling not in (POOL_STDDEV, POOL_VARIANCE):
            raise ArgumentError(f"unknown pooling mode {self.pooling!r}")
        for a, b in zip(self.layers, self.layers[1:]):
            if a.out_dim != b.in_dim:
                raise ArgumentError(
                    f"layer dims do not chain: {a.out_dim} -> {b.in_dim}"
                )

    @property
    def feat_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def min_frames(self) -> int:
        return sum(layer.span for layer in self.layers) + 2


def desk_config(feat_dim: int = 8) -> E2EConfig:
    """Small five-layer default; trainable and gradient-checkable on a CPU."""
    return E2EConfig(
        layers=(
            TdnnLayerSpec(feat_dim, 16, (-1, 0, 1)),
            TdnnLayerSpec(16, 16, (0,)),
            TdnnLayerSpec(16, 16, (-1, 0, 1)),
            TdnnLayerSpec(16, 16, (0,)),
            TdnnLayerSpec(16, 24, (0,)),
        ),
        pooling=POOL_STDDEV,
        embedding_dim=16,
        head_lda_dim=12,
        head_out_dim=8,
    )


def full_size_config(feat_dim: int = 30) -> E2EConfig:
    """Nine TDNN layers shaped like a full extended-TDNN extractor.

    Ships for the memory estimator: at 2048 trials of 2000 frames the
    activation estimate lands in the hundreds of gigabytes, which is why
    full-size end-to-end training needs the small-batch sampler.
    """
    return E2EConfig(
        layers=(
            TdnnLayerSpec(feat_dim, 128, (-2, -1, 0, 1, 2)),
            TdnnLayerSpec(128, 128, (0,)),
            TdnnLayerSpec(128, 128, (-2, 0, 2)),
            TdnnLayerSpec(128, 128, (0,)),
            TdnnLayerSpec(128, 128, (-3, 0, 3)),
            TdnnLayerSpec(128, 128, (0,)),
            TdnnLayerSpec(128, 128, (-4, 0, 4)),
            TdnnLayerSpec(128, 128, (0,)),
            TdnnLayerSpec(128, 128, (0,)),
        ),
        pooling=POOL_STDDEV,
        embedding_dim=128,
        head_lda_dim=64,
        head_out_dim=32,
    )


@dataclass
class E2EModel:
    """One shared extractor parameter set plus the scoring head."""

    config: E2EConfig
    tdnn_W: list[np.ndarray]
    tdnn_b: list[np.ndarray]
    emb_W: np.ndarray
    emb_b: np.ndarray
    head: NpldaParams

    def copy(self) -> "E2EModel":
        return copy.deepcopy(self)

    def to_dict(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for i, (W, b) in enumerate(zip(self.tdnn_W, self.tdnn_b)):
            out[f"tdnn{i}.W"] = W
            out[f"tdnn{i}.b"] = b
        out["emb.W"] = self.emb_W
        out["emb.b"] = self.emb_b
        for name, value in self.head.to_dict().items():
            out[f"head.{name}"] = value
        return out

    def from_dict(self, d: dict[str, np.ndarray]) -> "E2EModel":
        return _model_from_dict(self.config, d)


def _model_from_dict(cfg: E2EConfig, d: dict[str, np.ndarray]) -> E2EModel:
    """The model of config ``cfg`` with the parameters named as in to_dict."""
    n = len(cfg.layers)
    head = NpldaParams.from_dict(
        {k.split(".", 1)[1]: v for k, v in d.items() if k.startswith("head.")}
    )
    return E2EModel(
        config=cfg,
        tdnn_W=[np.asarray(d[f"tdnn{i}.W"], dtype=np.float64) for i in range(n)],
        tdnn_b=[np.asarray(d[f"tdnn{i}.b"], dtype=np.float64) for i in range(n)],
        emb_W=np.asarray(d["emb.W"], dtype=np.float64),
        emb_b=np.asarray(d["emb.b"], dtype=np.float64),
        head=head,
    )


def init_e2e(cfg: E2EConfig, seed: int, head: NpldaParams | None = None) -> E2EModel:
    """Random extractor; the head may come from a trained backend checkpoint."""
    rng = np.random.default_rng(seed)
    tdnn_W, tdnn_b = [], []
    for layer in cfg.layers:
        fan_in = layer.in_dim * layer.context_width
        tdnn_W.append(rng.standard_normal((layer.out_dim, fan_in)) * np.sqrt(2.0 / fan_in))
        tdnn_b.append(0.01 * np.ones(layer.out_dim))
    pooled = 2 * cfg.layers[-1].out_dim
    emb_W = rng.standard_normal((cfg.embedding_dim, pooled)) * np.sqrt(1.0 / pooled)
    emb_b = np.zeros(cfg.embedding_dim)
    if head is None:
        head = nplda.init_random(
            cfg.embedding_dim, cfg.head_lda_dim, cfg.head_out_dim,
            seed=int(rng.integers(2**31)),
        )
    elif head.in_dim != cfg.embedding_dim:
        raise ArgumentError(
            f"head expects dim {head.in_dim}, extractor emits {cfg.embedding_dim}"
        )
    return E2EModel(cfg, tdnn_W, tdnn_b, emb_W, emb_b, head.copy())


# ---------------------------------------------------------------------------
# forward / backward
# ---------------------------------------------------------------------------


def _frames_of(f) -> np.ndarray:
    if isinstance(f, FeatureMatrix):
        return f.frames
    return np.asarray(f, dtype=np.float64)


def extract_embedding(model: E2EModel, f) -> np.ndarray:
    """TDNN stack, statistics pooling, segment affine.  Deterministic."""
    emb, _ = _extract_with_cache(model, _frames_of(f))
    return emb


def _extract_with_cache(model: E2EModel, frames: np.ndarray):
    cfg = model.config
    if frames.shape[0] < cfg.min_frames:
        raise LengthError(
            f"utterance has {frames.shape[0]} frames, extractor needs {cfg.min_frames}"
        )
    layer_inputs = []
    X = frames
    for layer, W, b in zip(cfg.layers, model.tdnn_W, model.tdnn_b):
        layer_inputs.append(X)
        X = tdnn_layer(X, layer.offsets, W, b)
    pooled = stats_pool(X, cfg.pooling)
    emb = affine(pooled, model.emb_W, model.emb_b)
    return emb, (layer_inputs, X, pooled)


def _extract_backward(model: E2EModel, cache, demb: np.ndarray, grads: dict) -> None:
    """Accumulate extractor gradients for one utterance into grads."""
    cfg = model.config
    layer_inputs, last, pooled = cache
    dpooled, dWe, dbe = affine_backward(demb, pooled, model.emb_W)
    grads["emb.W"] += dWe
    grads["emb.b"] += dbe
    dX = stats_pool_backward(dpooled, last, cfg.pooling)
    for i in reversed(range(len(cfg.layers))):
        dX, dW, db = tdnn_layer_backward(
            dX, layer_inputs[i], cfg.layers[i].offsets, model.tdnn_W[i], model.tdnn_b[i]
        )
        grads[f"tdnn{i}.W"] += dW
        grads[f"tdnn{i}.b"] += db


def _trial_embeddings(model: E2EModel, trials: list[Trial], lookup, with_cache: bool):
    """Embed each utterance the trials reference once, in sorted id order."""
    ids, e_idx, t_idx = pair_index(trials, lookup)
    embs, caches = [], []
    for u in ids:
        emb, cache = _extract_with_cache(model, _frames_of(lookup[u].payload))
        embs.append(emb)
        caches.append(cache if with_cache else None)
    return np.stack(embs), caches, e_idx, t_idx


def _model_grads(model: E2EModel, head_grads: dict, caches, dX: np.ndarray) -> dict:
    """Head gradients under their checkpoint names plus the extractor's.

    Row u of dX is the gradient at the embedding cached in caches[u].
    """
    grads: dict[str, np.ndarray] = {f"head.{name}": g for name, g in head_grads.items()}
    for i, (W, b) in enumerate(zip(model.tdnn_W, model.tdnn_b)):
        grads[f"tdnn{i}.W"] = np.zeros_like(W)
        grads[f"tdnn{i}.b"] = np.zeros_like(b)
    grads["emb.W"] = np.zeros_like(model.emb_W)
    grads["emb.b"] = np.zeros_like(model.emb_b)
    for u, cache in enumerate(caches):
        _extract_backward(model, cache, dX[u], grads)
    return grads


def score_trials(model: E2EModel, trials: list[Trial], utts) -> ScoredTrialSet:
    """Embed each referenced utterance once, then score every trial pair.

    ``utts`` is an UtteranceSet of feature matrices or a dict of utterances
    keyed by id.
    """
    X, _, e_idx, t_idx = _trial_embeddings(model, trials, utts, with_cache=False)
    scores, _ = nplda._head_forward(model.head, X, e_idx, t_idx)
    return ScoredTrialSet(list(trials), np.atleast_1d(scores))


def score_trial_batch(model: E2EModel, batch: TrialBatch) -> ScoredTrialSet:
    """score_trials over a batch's trials and utterances."""
    return score_trials(model, batch.trials, batch.utterance_by_id())


def score_with_grads(model: E2EModel, frames_e, frames_t):
    """Score one trial and differentiate it through the whole model.

    Returns (score, grads) with one gradient per parameter; the threshold
    does not enter the score, so its gradient is zero.  This is the hook the
    finite-difference suite drives end to end.
    """
    emb_e, cache_e = _extract_with_cache(model, _frames_of(frames_e))
    emb_t, cache_t = _extract_with_cache(model, _frames_of(frames_t))
    scores, head_cache = nplda._head_forward(
        model.head, np.stack([emb_e, emb_t]), np.array([0]), np.array([1])
    )
    head_grads, dX = nplda._head_backward(model.head, head_cache, np.ones(1))
    head_grads["theta"] = np.float64(0.0)
    return float(scores[0]), _model_grads(model, head_grads, [cache_e, cache_t], dX)


def min_abs_preactivation(model: E2EModel, frames) -> float:
    """Distance of the closest TDNN pre-activation to the ReLU kink.

    Finite-difference checks of a piecewise-linear network are only valid
    when no perturbation crosses a kink; callers can use this to confirm a
    safety margin of a few orders above the step size.
    """
    X = _frames_of(frames)
    closest = np.inf
    for layer, W, b in zip(model.config.layers, model.tdnn_W, model.tdnn_b):
        _, _, pre = _tdnn_pre(X, np.asarray(layer.offsets, dtype=np.int64), W, b)
        closest = min(closest, float(np.min(np.abs(pre))))
        X = relu(pre)
    return closest


def batch_loss_and_grads(model: E2EModel, batch: TrialBatch, cfg: LossConfig):
    """Soft-DCF loss and gradients for the whole model on one batch."""
    X, caches, e_idx, t_idx = _trial_embeddings(
        model, batch.trials, batch.utterance_by_id(), with_cache=True
    )
    labels = np.array([1.0 if t.is_target else 0.0 for t in batch.trials])
    loss, head_grads, dX = nplda.stack_loss_and_grads(
        model.head, X, e_idx, t_idx, labels, cfg
    )
    return loss, _model_grads(model, head_grads, caches, dX)


def train_e2e(
    model: E2EModel,
    batches: list[TrialBatch],
    cfg: LossConfig,
    epochs: int,
    seed: int,
    dev_trials: list[Trial] | None = None,
    dev_features: UtteranceSet | None = None,
    lr: float = nplda.DEFAULT_LR,
    patience: int = 3,
    freeze_prefix: int = 0,
):
    """Joint Adam training of extractor, head, and threshold.

    With ``dev_trials`` and ``dev_features`` (feature matrices of the
    utterances those trials reference) it returns the best-development
    checkpoint and halves the learning rate after ``patience`` epochs
    without improvement; without them, the final model.  ``freeze_prefix``
    holds the first n TDNN layers at their initial values.  Returns the
    model and the per-epoch trace.
    """
    has_dev = dev_trials is not None and dev_features is not None
    dev_score = (lambda m: score_trials(m, dev_trials, dev_features)) if has_dev else None
    frozen = frozenset(f"tdnn{i}.{s}" for i in range(freeze_prefix) for s in ("W", "b"))
    return nplda._fit(model, batches, cfg, epochs, seed, lr, patience,
                      batch_loss_and_grads, dev_score, frozen)


# ---------------------------------------------------------------------------
# memory estimate
# ---------------------------------------------------------------------------


@dataclass
class MemoryEstimate:
    total_bytes: int
    per_layer: list[tuple[str, int]]
    n_trials: int
    frames: int

    def gigabytes(self) -> float:
        return self.total_bytes / 1e9


def estimate_memory(n_trials: int, frames: int, cfg: E2EConfig) -> MemoryEstimate:
    """Activation memory for one training batch: 2 N T sum(k_i c_i) * 16."""
    if n_trials < 0 or frames < 0:
        raise ArgumentError("n_trials and frames must be non-negative")
    per_layer = []
    total = 0
    for i, layer in enumerate(cfg.layers):
        b = 2 * n_trials * frames * layer.in_dim * layer.context_width * 16
        per_layer.append((f"tdnn{i}", b))
        total += b
    return MemoryEstimate(total_bytes=total, per_layer=per_layer,
                          n_trials=n_trials, frames=frames)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def save_e2e(model: E2EModel, path) -> None:
    cfg = model.config
    meta = {
        "kind": "e2e",
        "pooling": cfg.pooling,
        "embedding_dim": str(cfg.embedding_dim),
        "head_lda_dim": str(cfg.head_lda_dim),
        "head_out_dim": str(cfg.head_out_dim),
        "n_layers": str(len(cfg.layers)),
    }
    for i, layer in enumerate(cfg.layers):
        meta[f"layer{i}"] = (
            f"{layer.in_dim} {layer.out_dim} " + " ".join(str(o) for o in layer.offsets)
        )
    save_params(path, model.to_dict(), meta)


def load_e2e(path) -> E2EModel:
    params, meta = load_params(path)
    if meta.get("kind") != "e2e":
        raise StateError(f"{path} is not an e2e checkpoint (kind={meta.get('kind')!r})")
    n = int(meta["n_layers"])
    layers = []
    for i in range(n):
        fields = meta[f"layer{i}"].split()
        layers.append(
            TdnnLayerSpec(int(fields[0]), int(fields[1]), tuple(int(o) for o in fields[2:]))
        )
    cfg = E2EConfig(
        layers=tuple(layers),
        pooling=meta["pooling"],
        embedding_dim=int(meta["embedding_dim"]),
        head_lda_dim=int(meta["head_lda_dim"]),
        head_out_dim=int(meta["head_out_dim"]),
    )
    return _model_from_dict(cfg, params)
