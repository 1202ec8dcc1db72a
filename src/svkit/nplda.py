"""Discriminative neural backend with the PLDA scoring form.

The scorer is a tied two-branch stack: affine (LDA-initialized), unit-length
normalization, a second affine (diagonalizing transform), and a diagonal
quadratic layer with a bias constant.  A detection threshold is part of the
parameter set and is trained jointly through a sigmoid-smoothed detection
cost, so the model descends an approximation of its own evaluation metric.

Initialized from a fitted generative PLDA model, the scorer reproduces that
model's log-likelihood ratios exactly, which pins the starting EER/minDCF to
the generative baseline before any gradient step.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import _load_kind, save_params
from .data import ScoredTrialSet, Trial, UtteranceSet, _labels, _write_lines, pair_index
from .errors import (
    ArgumentError,
    BatchCompositionError,
    NumericalError,
    ShapeError,
    StateError,
)
from .gplda import PldaModel
from .metrics import DcfWeights, eer, min_dcf
from .nn import (
    adam_init,
    adam_step,
    affine,
    affine_backward,
    length_norm,
    length_norm_backward,
    quadratic_score,
    quadratic_score_backward,
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


@dataclass
class NpldaParams:
    """Backend parameters: two affines, diagonal quadratic, and threshold."""

    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray
    p: np.ndarray
    q: np.ndarray
    k: float
    theta: float = 0.0

    def to_dict(self) -> dict[str, np.ndarray]:
        return {
            "W1": self.W1,
            "b1": self.b1,
            "W2": self.W2,
            "b2": self.b2,
            "p": self.p,
            "q": self.q,
            "k": np.float64(self.k),
            "theta": np.float64(self.theta),
        }

    @staticmethod
    def from_dict(d: dict[str, np.ndarray]) -> "NpldaParams":
        return NpldaParams(
            W1=np.asarray(d["W1"], dtype=np.float64),
            b1=np.asarray(d["b1"], dtype=np.float64),
            W2=np.asarray(d["W2"], dtype=np.float64),
            b2=np.asarray(d["b2"], dtype=np.float64),
            p=np.asarray(d["p"], dtype=np.float64),
            q=np.asarray(d["q"], dtype=np.float64),
            k=float(d["k"]),
            theta=float(d["theta"]),
        )

    def copy(self) -> "NpldaParams":
        return copy.deepcopy(self)

    @property
    def in_dim(self) -> int:
        return self.W1.shape[1]


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
    return NpldaParams(
        W1=model.chain.lda.copy(),
        b1=-model.chain.lda @ model.chain.mean,
        W2=model.V.T.copy(),
        b2=-model.V.T @ model.center,
        p=model.p.copy(),
        q=model.q.copy(),
        k=model.k,
        theta=theta,
    )


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
    return NpldaParams(
        W1=W1,
        b1=np.zeros(lda_dim),
        W2=W2,
        b2=np.zeros(out_dim),
        p=0.5 * np.ones(out_dim),
        q=-0.25 * np.ones(out_dim),
        k=0.0,
        theta=0.0,
    )


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


def score_trials(params: NpldaParams, trials: list[Trial], embeddings: UtteranceSet) -> ScoredTrialSet:
    """Score trials, embedding each referenced utterance exactly once."""
    ids, e_idx, t_idx = pair_index(trials, embeddings)
    scores, _ = _head_forward(params, embeddings.embedding_matrix(ids), e_idx, t_idx)
    return ScoredTrialSet(list(trials), np.atleast_1d(scores))


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


def _head_forward(params: NpldaParams, X: np.ndarray, e_idx: np.ndarray, t_idx: np.ndarray):
    """Scores of trials whose sides index the rows of X, and the backward cache."""
    h1 = affine(X, params.W1, params.b1)
    z = length_norm(h1)
    acts = affine(z, params.W2, params.b2)
    a_e, a_t = acts[e_idx], acts[t_idx]
    scores = quadratic_score(a_e, a_t, params.p, params.q, params.k)
    return scores, (X, h1, z, acts, a_e, a_t, e_idx, t_idx)


def _head_backward(params: NpldaParams, cache, dscores: np.ndarray):
    """Gradients of every parameter but theta, and dX, given d_loss/d_scores.

    Trial-level gradients are scattered back onto the shared rows before the
    stack backward, so each row of X receives the sum over its trials.
    """
    X, h1, z, acts, a_e, a_t, e_idx, t_idx = cache
    de, dt, dp, dq, dk = quadratic_score_backward(dscores, a_e, a_t, params.p, params.q)
    dacts = np.zeros_like(acts)
    np.add.at(dacts, e_idx, de)
    np.add.at(dacts, t_idx, dt)
    dz, dW2, db2 = affine_backward(dacts, z, params.W2)
    dh1 = length_norm_backward(dz, h1)
    dX, dW1, db1 = affine_backward(dh1, X, params.W1)
    grads = {
        "W1": dW1,
        "b1": db1,
        "W2": dW2,
        "b2": db2,
        "p": dp,
        "q": dq,
        "k": np.float64(dk),
    }
    return grads, dX


def stack_loss_and_grads(
    params: NpldaParams,
    X: np.ndarray,
    e_idx: np.ndarray,
    t_idx: np.ndarray,
    labels: np.ndarray,
    cfg: LossConfig,
):
    """Soft-DCF loss over trials indexing shared input rows.

    X holds one raw embedding per unique utterance; e_idx/t_idx gather the
    two sides of each trial.  Returns (loss, parameter grads, dX) where dX
    is the gradient with respect to the input rows, which lets a front-end
    extractor continue the backward pass.
    """
    scores, cache = _head_forward(params, X, e_idx, t_idx)
    loss, dscores, dtheta = soft_dcf_loss(scores, labels, params.theta, cfg)
    grads, dX = _head_backward(params, cache, dscores)
    grads["theta"] = np.float64(dtheta if cfg.learn_theta else 0.0)
    return loss, grads, dX


def batch_loss_and_grads(params: NpldaParams, batch: TrialBatch, cfg: LossConfig):
    """Soft-DCF loss on one batch plus gradients for every parameter.

    Each utterance in the batch is embedded once; trial-level gradients are
    scattered back onto the shared activations before the stack backward.
    """
    ids, e_idx, t_idx = pair_index(batch.trials, batch.utterances)
    X = batch.utterances.embedding_matrix(ids)
    loss, grads, _ = stack_loss_and_grads(params, X, e_idx, t_idx, _labels(batch.trials), cfg)
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
    dev_trials: list[Trial] | None = None,
    dev_embeddings: UtteranceSet | None = None,
    lr: float = DEFAULT_LR,
    patience: int = 3,
):
    """Adam training of all backend parameters including the threshold.

    Deterministic given (inputs, seed).  Returns the checkpoint with the
    best development minDCF (the final parameters when no development set
    is given) and a per-epoch trace.  The learning rate halves when the
    development minDCF fails to improve for ``patience`` epochs.
    """
    has_dev = dev_trials is not None and dev_embeddings is not None
    dev_score = (lambda pr: score_trials(pr, dev_trials, dev_embeddings)) if has_dev else None
    return _fit(params, batches, cfg, epochs, seed, lr, patience,
                batch_loss_and_grads, dev_score, frozenset())


def _fit(model, batches, cfg: LossConfig, epochs: int, seed: int, lr: float,
         patience: int, loss_and_grads, dev_score, frozen: frozenset[str]):
    """The Adam loop of `train` and `e2e.train_e2e`, for any model with copy/to_dict/from_dict.

    ``loss_and_grads(model, batch, cfg)`` gives a batch's loss and gradients,
    ``dev_score(model)`` scores the development trials (None without them),
    and the gradients of the ``frozen`` parameter names are zeroed.
    """
    if not batches:
        raise ArgumentError("no training batches")
    rng = np.random.default_rng(seed)
    current = model.copy()
    state = adam_init(current.to_dict(), lr=lr)

    def dev_metrics(m):
        scored = dev_score(m)
        cost, _ = min_dcf(scored, cfg.weights)
        return eer(scored), cost

    best = current.copy()
    best_cost = np.inf
    since_improved = 0
    if dev_score is not None:
        _, best_cost = dev_metrics(current)
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
            for name in frozen:
                grads[name] = np.zeros_like(grads[name])
            current = current.from_dict(adam_step(current.to_dict(), grads, state))
            losses.append(loss)
        if dev_score is not None:
            dev_e, dev_c = dev_metrics(current)
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
    if dev_score is None:
        best = current
    return best, trace


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def save_nplda(params: NpldaParams, path) -> None:
    save_params(path, params.to_dict(), {"kind": "nplda"})


def load_nplda(path) -> NpldaParams:
    return NpldaParams.from_dict(_load_kind(path, "nplda")[0])
