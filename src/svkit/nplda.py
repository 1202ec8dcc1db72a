"""Discriminative neural backend with the PLDA scoring form.

The scorer is a tied two-branch stack: affine (LDA-initialized), unit-length
normalization, a second affine (diagonalizing transform), and a diagonal
quadratic layer with a bias constant.  A detection threshold is part of the
parameter set and is trained jointly through a sigmoid-smoothed detection
cost, so the model descends an approximation of its own evaluation metric.

Initialized from a fitted generative PLDA model, the scorer reproduces that
model's log-likelihood ratios exactly, which pins the starting EER/minDCF to
the generative baseline before any gradient step.

Training embeds each utterance of a batch once.  A cross-product batch is
scored as its block: with A_e and A_t the enroll and test rows after the
second affine, the score matrix is (A_e^2 q) 1' + 1 (A_t^2 q)' +
2 A_e diag(p) A_t' + k, and its backward is GEMMs against the (n_e, n_t)
gradient of the soft cost.  Other batches, and every scorer, gather the two
sides of each trial and score the row-aligned pairs.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
import numpy.random  # numpy loads it lazily: load it here, not at the first draw

from .checkpoint import _load_kind, save_params
from .data import ScoredTrialSet, Trial, UtteranceSet, _write_lines
from .errors import (
    ArgumentError,
    BatchCompositionError,
    ModelError,
    NumericalError,
    ShapeError,
    StateError,
)
from .gplda import PldaModel
from .metrics import DcfWeights, evaluate, min_dcf
from .nn import (
    ParamVector,
    ParamView,
    adam_init,
    adam_step,
    affine,
    affine_backward,
    length_norm,
    length_norm_backward,
    quadratic_score,
    quadratic_score_backward,
    quadratic_score_product,
    quadratic_score_product_backward,
)
from .sampling import TrialBatch

DEFAULT_ALPHA = 10.0
DEFAULT_LR = 1e-4


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@dataclass
class LossConfig:
    """Soft detection-cost settings: sigmoid warping and the cost weights."""

    alpha: float = DEFAULT_ALPHA
    weights: DcfWeights = field(default_factory=DcfWeights)
    learn_theta: bool = True

    def __post_init__(self):
        if self.alpha <= 0:
            raise ArgumentError("warping factor alpha must be > 0")


class NpldaParams(ParamVector):
    """Backend parameters: two affines, diagonal quadratic, and threshold.

    Each is a view of one vector, laid out by ``_layout``; k and theta are 0-d.
    """

    W1, b1, W2, b2 = ParamView("W1"), ParamView("b1"), ParamView("W2"), ParamView("b2")
    p, q, k, theta = ParamView("p"), ParamView("q"), ParamView("k"), ParamView("theta")

    def __init__(self, W1, b1, W2, b2, p, q, k, theta=0.0):
        (lda_dim, in_dim), out_dim = np.shape(W1), len(W2)
        super().__init__(_layout(in_dim, lda_dim, out_dim), np.concatenate(
            [np.ravel(a) for a in (W1, b1, W2, b2, p, q, k, theta)], dtype=np.float64))

    @property
    def in_dim(self) -> int:
        return self.W1.shape[1]


def _layout(in_dim: int, lda_dim: int, out_dim: int) -> dict[str, tuple[int, ...]]:
    """Names and shapes of a backend's parameters, in vector order."""
    return {"W1": (lda_dim, in_dim), "b1": (lda_dim,), "W2": (out_dim, lda_dim),
            "b2": (out_dim,), "p": (out_dim,), "q": (out_dim,), "k": (), "theta": ()}


def init_from_gplda(model: PldaModel, dev_scores: ScoredTrialSet | None = None,
                    weights: DcfWeights | None = None) -> NpldaParams:
    """Backend parameters that reproduce a generative model's scores.

    The first affine is the centering+LDA projection, the second the
    diagonalizing transform with its centering, and the quadratic diagonals
    and constant are copied.  The threshold starts at the minDCF-optimal
    threshold of the model's scores on a development set when one is given.
    """
    if not model.chain.apply_length_norm:
        raise StateError(
            "init requires a preprocessing chain with length normalization; "
            "the backend applies it as its activation"
        )
    if model.p is None or model.q is None:
        raise StateError("model is missing its diagonal scoring form")
    theta = 0.0
    if dev_scores is not None:
        _, theta = min_dcf(dev_scores, weights or DcfWeights())
    return NpldaParams(model.chain.lda, -model.chain.lda @ model.chain.mean, model.V.T,
                       -model.V.T @ model.center, model.p, model.q, model.k, theta)


def init_random(in_dim: int, lda_dim: int, out_dim: int, seed: int) -> NpldaParams:
    """Random backend for training without a generative warm start.

    Projections start orthonormal and the quadratic diagonals at an
    inner-product-like similarity, so initial scores have unit-order spread
    and the warped cost sees usable gradients from the first step.
    """
    if not out_dim <= lda_dim <= in_dim:
        raise ArgumentError("need out_dim <= lda_dim <= in_dim, got "
                            f"{out_dim}, {lda_dim}, {in_dim}")
    rng = np.random.default_rng(seed)
    W1 = np.linalg.qr(rng.standard_normal((in_dim, lda_dim)))[0].T
    W2 = np.linalg.qr(rng.standard_normal((lda_dim, out_dim)))[0].T
    return NpldaParams(W1, np.zeros(lda_dim), W2, np.zeros(out_dim),
                       np.full(out_dim, 0.5), np.full(out_dim, -0.25), 0.0)


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


def forward(params: NpldaParams, eta_e: np.ndarray, eta_t: np.ndarray):
    """Scores of row-aligned raw embedding pairs (a float for one pair); symmetric."""
    eta_e = np.asarray(eta_e, dtype=np.float64)
    if eta_e.shape != np.shape(eta_t):
        raise ShapeError(f"pair shapes differ: {eta_e.shape} vs {np.shape(eta_t)}")
    n = len(np.atleast_2d(eta_e))
    scores, _ = _head_forward(params, np.vstack([eta_e, eta_t]), np.arange(n), n + np.arange(n))
    return float(scores[0]) if eta_e.ndim == 1 else scores


def score_trials(params: NpldaParams, trials: Sequence[Trial],
                 embeddings: UtteranceSet) -> ScoredTrialSet:
    """Score trials, embedding each referenced utterance exactly once."""
    batch = TrialBatch(embeddings, trials, labelled=False)
    return ScoredTrialSet(batch.trials, _scores(params, batch))


def _scores(params: NpldaParams, batch: TrialBatch) -> np.ndarray:
    """The score of each trial of ``batch``; the batch keeps its stacked embeddings."""
    return _head_forward(params, batch.embeddings, batch.e_idx, batch.t_idx)[0]


# ---------------------------------------------------------------------------
# soft detection cost
# ---------------------------------------------------------------------------


def soft_dcf_loss(scores: np.ndarray, labels: np.ndarray, theta: float, cfg: LossConfig):
    """Sigmoid-smoothed detection cost and its gradients.

    Returns (loss, d_loss/d_scores, d_loss/d_theta).  The miss rate is the
    label-weighted mean of 1 - sigmoid(alpha (s - theta)), the false-alarm
    rate the complementary mean of the sigmoid, combined as miss + beta*fa.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if scores.shape != labels.shape:
        raise ShapeError(f"scores {scores.shape} vs labels {labels.shape}")
    n_tgt = float(labels.sum())
    n_non = float((1.0 - labels).sum())
    if n_tgt < 1 or n_non < 1:
        raise BatchCompositionError(
            f"batch has {int(n_tgt)} targets / {int(n_non)} non-targets; "
            "both classes are required (check the sampler configuration)"
        )
    beta = cfg.weights.beta
    sig = sigmoid(cfg.alpha * (scores - theta))
    p_miss = float(np.sum(labels * (1.0 - sig)) / n_tgt)
    p_fa = float(np.sum((1.0 - labels) * sig) / n_non)
    loss = p_miss + beta * p_fa
    dsig = cfg.alpha * sig * (1.0 - sig)
    dscores = (-labels / n_tgt + beta * (1.0 - labels) / n_non) * dsig
    dtheta = -float(dscores.sum())
    return loss, dscores, dtheta


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def _head_forward(params: NpldaParams, X: np.ndarray, e_rows: np.ndarray, t_rows: np.ndarray,
                  product: bool = False):
    """Scores of trials whose sides index the rows of X, and the backward cache.

    The trials are the row-aligned pairs (e_rows[i], t_rows[i]), scored as an
    (n,) vector, or with ``product`` every pair (e_rows[i], t_rows[j]), scored
    as the (n_e, n_t) matrix.
    """
    h1 = affine(X, params.W1, params.b1)
    z = length_norm(h1)
    acts = affine(z, params.W2, params.b2)
    a_e, a_t = acts[e_rows], acts[t_rows]
    score = quadratic_score_product if product else quadratic_score
    scores = score(a_e, a_t, params.p, params.q, params.k)
    return scores, (X, h1, z, acts, a_e, a_t, e_rows, t_rows, product)


def _head_backward(params: NpldaParams, cache, dscores: np.ndarray,
                   grads: NpldaParams) -> np.ndarray:
    """dX given d_loss/d_scores; writes the gradient of every parameter but theta to ``grads``.

    Gradients of the gathered rows are scattered back onto the shared rows
    before the stack backward, so each row of X receives the sum over its
    trials.
    """
    X, h1, z, acts, a_e, a_t, e_rows, t_rows, product = cache
    backward = quadratic_score_product_backward if product else quadratic_score_backward
    de, dt, dp, dq, dk = backward(dscores, a_e, a_t, params.p, params.q)
    dacts = np.zeros_like(acts)
    np.add.at(dacts, e_rows, de)
    np.add.at(dacts, t_rows, dt)
    dz, dW2, db2 = affine_backward(dacts, z, params.W2)
    dh1 = length_norm_backward(dz, h1)
    dX, grads.W1, grads.b1 = affine_backward(dh1, X, params.W1)
    grads.W2, grads.b2, grads.p, grads.q, grads.k = dW2, db2, dp, dq, dk
    return dX


def stack_loss_and_grads(params: NpldaParams, X: np.ndarray, batch: TrialBatch, cfg: LossConfig,
                         grads: NpldaParams):
    """Soft-DCF loss over a batch's trials, given one input row per id of ``batch.ids``.

    X holds one raw embedding per unique utterance.  A cross-product batch
    (``batch.block``) is scored as its (n_e, n_t) score matrix, with GEMMs;
    any other batch gathers the two sides of each trial by e_idx/t_idx.
    Writes the parameter gradients into ``grads``, zeroed and of the layout of
    ``params``, and returns (loss, dX): dX, the gradient with respect to the
    input rows, lets a front-end extractor continue the backward pass.
    """
    if batch.block is None:
        scores, cache = _head_forward(params, X, batch.e_idx, batch.t_idx)
    else:
        scores, cache = _head_forward(params, X, *batch.block, product=True)
    # the enroll-major label vector of a block, viewed as its label matrix
    labels = batch.labels.reshape(scores.shape)
    loss, dscores, dtheta = soft_dcf_loss(scores, labels, params.theta, cfg)
    dX = _head_backward(params, cache, dscores, grads)
    if cfg.learn_theta:
        grads.theta = dtheta
    return loss, dX


def batch_loss_and_grads(params: NpldaParams, batch: TrialBatch, cfg: LossConfig):
    """Soft-DCF loss on one batch plus gradients for every parameter.

    The batch's embedding matrix is stacked on its first step and kept, and
    each utterance in it is embedded once per step.
    """
    grads = params.zeros()
    loss, _ = stack_loss_and_grads(params, batch.embeddings, batch, cfg, grads)
    return loss, grads


@dataclass
class TraceRow:
    epoch: int
    loss: float
    dev_eer: float
    dev_mindcf: float


def write_trace(trace: list[TraceRow], path) -> None:
    _write_lines(path, ["epoch,loss,dev_eer,dev_mindcf\n"] + [
        f"{row.epoch},{row.loss:.6f},{row.dev_eer:.6f},{row.dev_mindcf:.6f}\n" for row in trace
    ])


def train(
    params: NpldaParams,
    batches: list[TrialBatch],
    cfg: LossConfig,
    epochs: int,
    seed: int,
    dev: TrialBatch | None = None,
    lr: float = DEFAULT_LR,
    patience: int = 3,
):
    """Adam training of all backend parameters including the threshold.

    Deterministic given (inputs, seed).  Returns the checkpoint with the
    best minDCF on ``dev``, the development trials indexed against their
    embeddings (the final parameters without it), and a per-epoch trace.
    The learning rate halves when the dev minDCF stalls ``patience`` epochs.
    """
    return _fit(params, batches, cfg, epochs, seed, lr, patience,
                batch_loss_and_grads, _scores, dev, slice(0))


def _fit(model: ParamVector, batches, cfg: LossConfig, epochs: int, seed: int, lr: float,
         patience: int, loss_and_grads, scores, dev: TrialBatch | None, frozen: slice):
    """The Adam loop of `train` and `e2e.train_e2e`, updating a copy of ``model`` in place.

    ``loss_and_grads(model, batch, cfg)`` gives a batch's loss and its
    gradients, a ParamVector of the model's layout; ``scores(model, dev)``
    scores the development batch (None without one), which is evaluated
    against ``dev.labels``.  The gradient entries of the parameter vector's
    ``frozen`` slice are zeroed, so those entries keep their values.
    """
    if not batches:
        raise ArgumentError("no training batches")
    rng = np.random.default_rng(seed)
    current = model.copy()
    state = adam_init(current, lr=lr)
    # updated in place, ``current`` is the result when no development set picks one
    best = current if dev is None else current.copy()
    best_cost = np.inf if dev is None else evaluate(
        ScoredTrialSet(dev.trials, scores(current, dev)), cfg.weights).min_dcf
    since_improved = 0
    trace: list[TraceRow] = []
    for epoch in range(1, epochs + 1):
        order = rng.permutation(len(batches))
        losses = []
        for bi in order:
            batch = batches[int(bi)]
            loss, grads = loss_and_grads(current, batch, cfg)
            if not np.isfinite(loss):
                raise NumericalError(
                    f"non-finite loss in epoch {epoch}, batch {batch.tag or int(bi)}"
                )
            grads.vector[frozen] = 0.0
            adam_step(current, grads, state)
            losses.append(loss)
        if dev is not None:
            report = evaluate(ScoredTrialSet(dev.trials, scores(current, dev)), cfg.weights)
            dev_e, dev_c = report.eer, report.min_dcf
            if dev_c < best_cost:
                best_cost = dev_c
                best = current.copy()
                since_improved = 0
            else:
                since_improved += 1
                if since_improved >= patience:
                    state.lr /= 2.0
                    since_improved = 0
        else:
            dev_e, dev_c = float("nan"), float("nan")
        trace.append(TraceRow(epoch, float(np.mean(losses)), dev_e, dev_c))
    return best, trace


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def save_nplda(params: NpldaParams, path) -> None:
    save_params(path, params.to_dict(), {"kind": "nplda"})


def load_nplda(path) -> NpldaParams:
    return _load_kind(path, {"nplda": _from_checkpoint})[1]


def _from_checkpoint(params: dict[str, np.ndarray], meta: dict[str, str]) -> NpldaParams:
    """The backend saved as ``params``; W1 and p give its dimensions."""
    try:
        (lda_dim, in_dim), (out_dim,) = np.shape(params["W1"]), np.shape(params["p"])
    except (KeyError, ValueError):
        raise ModelError("parameters W1 (a matrix) and p (a vector) give the layout") from None
    if out_dim > lda_dim:
        raise ModelError(f"head needs out_dim <= lda_dim, got out_dim {out_dim} (p) and "
                         f"lda_dim {lda_dim} (W1)")
    return NpldaParams._over(_layout(in_dim, lda_dim, out_dim)).from_dict(params)
