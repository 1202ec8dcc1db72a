"""End-to-end model: tied twin TDNN extractors feeding the neural backend.

A stack of TDNN layers followed by statistics pooling and a segment-level
affine turns a frame sequence into a fixed embedding; the backend scores
embedding pairs.  Enrollment and test branches share one parameter set, so
the scorer is symmetric by construction and every utterance in a batch is
embedded exactly once no matter how many trials reference it.  Utterances
are embedded in small groups of equal length: each group runs through the
TDNN layers as one (N, T, k) stack, one matrix product per layer.  The
model's parameters are views of one vector, the extractor's followed by the
head's, and a batch's gradients fill one vector of that layout: the head
writes its tail, and each stack adds into the extractor's part.

Includes the activation-memory estimator for a training batch: storing
forward and backward activations for 2N utterances of T frames costs
2 N T sum_i(k_i c_i) * 16 bytes, where k_i is the input dimension and c_i
the context width of TDNN layer i.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np
import numpy.random  # numpy loads it lazily: load it here, not at the first draw

from . import nplda
from .checkpoint import _load_kind, save_params
from .data import FeatureMatrix, ScoredTrialSet, Trial
from .errors import ArgumentError, LengthError
from .nn import (
    POOL_STDDEV,
    POOL_VARIANCE,
    ParamVector,
    _tdnn_pre,
    affine,
    affine_backward,
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
        if self.in_dim < 1 or self.out_dim < 1:
            raise ArgumentError(f"TDNN layer dims must be positive, got {self.in_dim} -> "
                                f"{self.out_dim}")

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
        if not self.head_out_dim <= self.head_lda_dim <= self.embedding_dim:
            raise ArgumentError("need head_out_dim <= head_lda_dim <= embedding_dim, got "
                                f"{self.head_out_dim}, {self.head_lda_dim}, {self.embedding_dim}")
        for a, b in zip(self.layers, self.layers[1:]):
            if a.out_dim != b.in_dim:
                raise ArgumentError(
                    f"layer dims do not chain: {a.out_dim} -> {b.in_dim}"
                )

    @property
    def min_frames(self) -> int:
        return sum(layer.span for layer in self.layers) + 2


def desk_config(feat_dim: int = 8) -> E2EConfig:
    """Five small TDNN layers under E2EConfig's defaults; trainable and checkable on a CPU."""
    return E2EConfig(layers=(
        TdnnLayerSpec(feat_dim, 16, (-1, 0, 1)),
        TdnnLayerSpec(16, 16, (0,)),
        TdnnLayerSpec(16, 16, (-1, 0, 1)),
        TdnnLayerSpec(16, 16, (0,)),
        TdnnLayerSpec(16, 24, (0,)),
    ))


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
        embedding_dim=128,
        head_lda_dim=64,
        head_out_dim=32,
    )


class E2EModel(ParamVector):
    """One shared extractor parameter set plus the scoring head, as views of one vector.

    The vector holds each TDNN layer's W and b, then the segment affine
    ``emb``, then the head's parameters under ``head.``, of the dims the
    config gives; the ``head`` attribute is an NpldaParams over that tail.
    """

    def __init__(self, config: E2EConfig, vector: np.ndarray | None = None):
        shapes = {}
        for i, layer in enumerate(config.layers):
            shapes[f"tdnn{i}.W"] = (layer.out_dim, layer.in_dim * layer.context_width)
            shapes[f"tdnn{i}.b"] = (layer.out_dim,)
        shapes["emb.W"] = (config.embedding_dim, 2 * config.layers[-1].out_dim)
        shapes["emb.b"] = (config.embedding_dim,)
        head = nplda._layout(config.embedding_dim, config.head_lda_dim, config.head_out_dim)
        super().__init__(shapes | {f"head.{name}": s for name, s in head.items()}, vector)
        self.config = config
        self.tdnn_W = [self.views[f"tdnn{i}.W"] for i in range(len(config.layers))]
        self.tdnn_b = [self.views[f"tdnn{i}.b"] for i in range(len(config.layers))]
        self.emb_W, self.emb_b = self.views["emb.W"], self.views["emb.b"]
        self.head = NpldaParams._over(head, self.vector[self.offsets[len(shapes)]:])

    @property
    def in_dim(self) -> int:
        return self.config.layers[0].in_dim

    def like(self, vector: np.ndarray) -> "E2EModel":
        return E2EModel(self.config, vector)


def init_e2e(cfg: E2EConfig, seed: int, head: NpldaParams | None = None) -> E2EModel:
    """Random extractor; the head may come from a trained backend checkpoint."""
    rng = np.random.default_rng(seed)
    model = E2EModel(cfg)  # _with_head replaces the zero head
    for W, b in zip(model.tdnn_W, model.tdnn_b):
        W[...] = rng.standard_normal(W.shape) * np.sqrt(2.0 / W.shape[1])
        b[...] = 0.01
    pooled = model.emb_W.shape[1]
    model.emb_W[...] = rng.standard_normal(model.emb_W.shape) * np.sqrt(1.0 / pooled)
    if head is None:
        head = nplda.init_random(cfg.embedding_dim, cfg.head_lda_dim, cfg.head_out_dim,
                                 seed=int(rng.integers(2**31)))
    return _with_head(model, head)


def _with_head(model: E2EModel, head: NpldaParams) -> E2EModel:
    """``model``'s extractor under a copy of ``head``, which must take its embeddings.

    The result's config takes the head's dims.
    """
    if head.in_dim != model.config.embedding_dim:
        raise ArgumentError(f"head expects dim {head.in_dim}, "
                            f"extractor emits {model.config.embedding_dim}")
    config = replace(model.config, head_lda_dim=len(head.W1), head_out_dim=len(head.W2))
    extractor = model.vector[:model.vector.size - model.head.vector.size]
    return E2EModel(config, np.concatenate([extractor, head.vector]))


# ---------------------------------------------------------------------------
# forward / backward
# ---------------------------------------------------------------------------


def _frames_of(f) -> np.ndarray:
    if isinstance(f, FeatureMatrix):
        return f.frames
    return np.asarray(f, dtype=np.float64)


# Utterances are embedded in stacks of at most this many of one length, one GEMM
# per TDNN layer per stack.  On the e2e benchmark workload (64 x 100 frames per
# step, 2 vCPUs) one stack per batch was no faster, but raised training peak RSS
# from 76.6 MB (one utterance at a time) to 87 MB; stacks of 8 keep it at 77.6 MB.
_GROUP = 8


def extract_embedding(model: E2EModel, f) -> np.ndarray:
    """TDNN stack, statistics pooling, segment affine.  Deterministic."""
    emb, _ = _extract(model, _frames_of(f)[None])
    return emb[0]


def _extract(model: E2EModel, X: np.ndarray):
    """Embeddings of a stack of equal-length utterances (N, T, k), and the backward cache."""
    cfg = model.config
    if X.shape[1] < cfg.min_frames:
        raise LengthError(f"utterance has {X.shape[1]} frames, extractor needs {cfg.min_frames}")
    layer_inputs = []
    for layer, W, b in zip(cfg.layers, model.tdnn_W, model.tdnn_b):
        layer_inputs.append(X)
        X = tdnn_layer(X, layer.offsets, W, b)
    pooled = stats_pool(X, cfg.pooling)
    emb = affine(pooled, model.emb_W, model.emb_b)
    return emb, (layer_inputs, X, pooled)


def _extract_backward(model: E2EModel, stacks, demb: np.ndarray, grads: E2EModel) -> E2EModel:
    """``grads`` plus the extractor gradients of every stack; demb is d_loss/d_embeddings."""
    cfg = model.config
    for rows, (layer_inputs, last, pooled) in stacks:
        dpooled, dWe, dbe = affine_backward(demb[rows], pooled, model.emb_W)
        grads.emb_W += dWe
        grads.emb_b += dbe
        dX = stats_pool_backward(dpooled, last, cfg.pooling, pooled=pooled)
        # each layer's output is the next one's input, so no forward pass runs again
        outputs = layer_inputs[1:] + [last]
        for i in reversed(range(len(cfg.layers))):
            # nothing reads the gradient at the features, layer 0's input
            dX, dW, db = tdnn_layer_backward(dX, layer_inputs[i], cfg.layers[i].offsets,
                                             model.tdnn_W[i], model.tdnn_b[i], input_grad=i > 0,
                                             Y=outputs[i])
            grads.tdnn_W[i] += dW
            grads.tdnn_b[i] += db
    return grads


def _embed(model: E2EModel, frames: list[np.ndarray], with_cache: bool):
    """One embedding row per frame matrix, extracted in equal-length stacks.

    Returns the (n, d) embeddings and, per stack, its row indices and its
    backward cache (None unless ``with_cache``).
    """
    by_length: dict[int, list[int]] = {}
    for u, f in enumerate(frames):
        by_length.setdefault(f.shape[0], []).append(u)
    X = np.empty((len(frames), model.config.embedding_dim))
    stacks = []
    for rows in by_length.values():
        for s in range(0, len(rows), _GROUP):
            group = rows[s:s + _GROUP]
            X[group], cache = _extract(model, np.stack([frames[u] for u in group]))
            stacks.append((group, cache if with_cache else None))
    return X, stacks


def score_trials(model: E2EModel, trials: Sequence[Trial], utts) -> ScoredTrialSet:
    """Embed each utterance of ``utts`` (an UtteranceSet) the trials reference once; score them."""
    batch = TrialBatch(utts, trials, labelled=False)
    return ScoredTrialSet(batch.trials, _scores(model, batch))


def _frames(batch: TrialBatch) -> list[np.ndarray]:
    """The frame matrix of each utterance of ``batch.ids``."""
    return [_frames_of(batch.utterances[u].payload) for u in batch.ids]


def _scores(model: E2EModel, batch: TrialBatch) -> np.ndarray:
    """The score of each trial of ``batch``, embedding each of its utterances once."""
    X = _embed(model, _frames(batch), with_cache=False)[0]
    return nplda._head_forward(model.head, X, batch.e_idx, batch.t_idx)[0]


def score_with_grads(model: E2EModel, frames_e, frames_t):
    """Score one trial and differentiate it through the whole model.

    Returns (score, grads) with one gradient per parameter; the threshold
    does not enter the score, so its gradient is zero.  This is the hook the
    finite-difference suite drives end to end.
    """
    X, stacks = _embed(model, [_frames_of(frames_e), _frames_of(frames_t)], with_cache=True)
    scores, head_cache = nplda._head_forward(model.head, X, np.array([0]), np.array([1]))
    grads = model.zeros()
    dX = nplda._head_backward(model.head, head_cache, np.ones(1), grads.head)
    return float(scores[0]), _extract_backward(model, stacks, dX, grads)


def min_abs_preactivation(model: E2EModel, frames) -> float:
    """Distance of the closest TDNN pre-activation to the ReLU kink.

    Finite-difference checks of a piecewise-linear network are only valid
    when no perturbation crosses a kink; callers can use this to confirm a
    safety margin of a few orders above the step size.  Like every extractor
    entry, it needs at least ``config.min_frames`` frames.
    """
    _, (layer_inputs, _, _) = _extract(model, _frames_of(frames)[None])
    closest = np.inf
    for X, layer, W, b in zip(layer_inputs, model.config.layers, model.tdnn_W, model.tdnn_b):
        _, _, pre = _tdnn_pre(X, np.asarray(layer.offsets, dtype=np.int64), W, b)
        closest = min(closest, float(np.min(np.abs(pre))))
    return closest


def batch_loss_and_grads(model: E2EModel, batch: TrialBatch, cfg: LossConfig):
    """Soft-DCF loss and gradients for the whole model on one batch."""
    X, stacks = _embed(model, _frames(batch), with_cache=True)
    grads = model.zeros()
    loss, dX = nplda.stack_loss_and_grads(model.head, X, batch, cfg, grads.head)
    return loss, _extract_backward(model, stacks, dX, grads)


def train_e2e(
    model: E2EModel,
    batches: list[TrialBatch],
    cfg: LossConfig,
    epochs: int,
    seed: int,
    dev: TrialBatch | None = None,
    lr: float = nplda.DEFAULT_LR,
    patience: int = 3,
    freeze_prefix: int = 0,
):
    """Joint Adam training of extractor, head, and threshold.

    With ``dev``, the development trials indexed against the feature
    matrices of their utterances, it returns the best-development
    checkpoint and halves the learning rate after ``patience`` epochs
    without improvement; without it, the final model.  ``freeze_prefix``
    holds the first n TDNN layers at their initial values.  Returns the
    model and the per-epoch trace.
    """
    # the first layers lead the parameter vector
    frozen = slice(model.offsets[2 * freeze_prefix])
    return nplda._fit(model, batches, cfg, epochs, seed, lr, patience,
                      batch_loss_and_grads, _scores, dev, frozen)


# ---------------------------------------------------------------------------
# memory estimate
# ---------------------------------------------------------------------------


@dataclass
class MemoryEstimate:
    total_bytes: int
    per_layer: list[tuple[str, int]]

    def gigabytes(self) -> float:
        return self.total_bytes / 1e9


def estimate_memory(n_trials: int, frames: int, cfg: E2EConfig) -> MemoryEstimate:
    """Activation memory for one training batch: 2 N T sum(k_i c_i) * 16."""
    if n_trials < 0 or frames < 0:
        raise ArgumentError("n_trials and frames must be non-negative")
    per_layer = [(f"tdnn{i}", 2 * n_trials * frames * layer.in_dim * layer.context_width * 16)
                 for i, layer in enumerate(cfg.layers)]
    return MemoryEstimate(total_bytes=sum(b for _, b in per_layer), per_layer=per_layer)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def _layer_spec(fields: list[str]) -> TdnnLayerSpec:
    """A layer from its text fields ``k_in k_out offsets...``, as saved and configured."""
    return TdnnLayerSpec(int(fields[0]), int(fields[1]), tuple(int(o) for o in fields[2:]))


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
    return _load_kind(path, {"e2e": _from_checkpoint})[1]


def _from_checkpoint(params: dict[str, np.ndarray], meta: dict[str, str]) -> E2EModel:
    n = int(meta["n_layers"])
    cfg = E2EConfig(
        layers=tuple(_layer_spec(meta[f"layer{i}"].split()) for i in range(n)),
        pooling=meta["pooling"],
        embedding_dim=int(meta["embedding_dim"]),
        head_lda_dim=int(meta["head_lda_dim"]),
        head_out_dim=int(meta["head_out_dim"]),
    )
    return E2EModel(cfg).from_dict(params)
