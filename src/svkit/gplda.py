"""Generative Gaussian PLDA: preprocessing, EM estimation, and LLR scoring.

The model splits embedding variability into an across-speaker part
``Sigma_ac = Phi Phi^T`` and a within-speaker residual ``Sigma_wc``.  A pair
of embeddings is scored with the log-likelihood ratio of the same-speaker
joint Gaussian against independent marginals.

Scoring convention: the textbook scoring matrices

    Q = Sigma_tot^-1 - (Sigma_tot - Sigma_ac Sigma_tot^-1 Sigma_ac)^-1
    P = Sigma_tot^-1 Sigma_ac (Sigma_tot - Sigma_ac Sigma_tot^-1 Sigma_ac)^-1

make the quadratic form e'Qe + t'Qt + 2e'Pt equal to TWICE the exact LLR up
to a constant.  This toolkit reports calibrated log-likelihood ratios, so
the stored diagonal scoring coefficients are the halved ones and the
constant is pinned by the exact Gaussian densities; `llr_oracle` provides
the independent check.  `derive_pq` still returns the textbook matrices.

A simultaneous diagonalization V (V' Sigma_wc V = I, V' Sigma_ac V diagonal)
reduces both scoring matrices to diagonals, which is also what the neural
backend is initialized from.
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import nn
from .checkpoint import _load_kind, save_params
from .data import ScoredTrialSet, Trial, UtteranceSet
from .errors import ArgumentError, ModelError, NumericalError
from .nn import quadratic_score
from .sampling import TrialBatch

DEFAULT_LDA_DIM = 170
DEFAULT_EM_ITERS = 20


@dataclass
class PreprocessChain:
    """Centering + LDA projection + optional unit-length normalization."""

    mean: np.ndarray
    lda: np.ndarray
    apply_length_norm: bool = True

    def apply(self, X: np.ndarray) -> np.ndarray:
        out = (np.asarray(X, dtype=np.float64) - self.mean) @ self.lda.T
        if self.apply_length_norm:
            out = nn.length_norm(out)
        return out

    @property
    def out_dim(self) -> int:
        return self.lda.shape[0]


def identity_chain(dim: int) -> PreprocessChain:
    return PreprocessChain(np.zeros(dim), np.eye(dim), apply_length_norm=False)


@dataclass
class PldaModel:
    """Fitted PLDA parameters plus the derived diagonal scoring form.

    p, q and k are the coefficients actually used for scoring: the generic
    quadratic layer applied to V'-transformed, centered embeddings with
    these diagonals returns the exact log-likelihood ratio.
    """

    chain: PreprocessChain
    center: np.ndarray          # mean of the processed training embeddings
    sigma_ac: np.ndarray
    sigma_wc: np.ndarray
    V: np.ndarray               # simultaneous diagonalizer, columns are directions
    psi: np.ndarray             # across/within generalized eigenvalues
    p: np.ndarray               # diagonal cross-term coefficients (LLR scale)
    q: np.ndarray               # diagonal self-term coefficients (LLR scale)
    k: float                    # LLR constant
    loglik_trace: np.ndarray | None = None

    @property
    def sigma_tot(self) -> np.ndarray:
        return self.sigma_ac + self.sigma_wc

    @property
    def dim(self) -> int:
        return self.sigma_wc.shape[0]

    @property
    def in_dim(self) -> int:
        return self.chain.lda.shape[1]

    def transform(self, processed: np.ndarray) -> np.ndarray:
        """Map processed embeddings into the diagonalized scoring space."""
        return (np.asarray(processed, dtype=np.float64) - self.center) @ self.V


@dataclass
class ScoringForm:
    """Output of derive_pq: textbook dense matrices plus the diagonal form."""

    P: np.ndarray
    Q: np.ndarray
    p: np.ndarray
    q: np.ndarray
    k: float


# ---------------------------------------------------------------------------
# preprocessing
# ---------------------------------------------------------------------------


def fit_preprocess(
    embeddings, target_dim: int = DEFAULT_LDA_DIM, apply_length_norm: bool = True
) -> PreprocessChain:
    """Fit centering and an LDA projection on labelled embeddings.

    The LDA rows are the top generalized eigenvectors of the (between,
    within) scatter pair, which also whitens the within-class scatter.  The
    target dimension must be at least 1 and is clamped to min(D, n_speakers - 1)
    with a warning.
    """
    if target_dim < 1:
        raise ArgumentError(f"LDA target_dim must be at least 1, got {target_dim}")
    X, speakers = _as_matrix(embeddings)
    counts, means, Sw = _speaker_stats(X, speakers)
    n_spk = len(counts)
    if n_spk < 2:
        raise ArgumentError("LDA needs at least 2 speakers")
    mean = X.mean(axis=0)
    Sb = np.zeros_like(Sw)
    for n_rows, mi in zip(counts, means):
        dm = mi - mean
        Sb += n_rows * np.outer(dm, dm)
    Sb, Sw = Sb / X.shape[0], Sw / X.shape[0]
    d = X.shape[1]
    max_dim = min(d, n_spk - 1)
    if target_dim > max_dim:
        warnings.warn(
            f"LDA target_dim {target_dim} clamped to {max_dim} "
            f"({n_spk} speakers, dim {d})"
        )
        target_dim = max_dim
    try:
        np.linalg.cholesky(Sw)
    except np.linalg.LinAlgError:
        lam = 1e-6 * np.trace(Sw) / d
        warnings.warn(f"singular within-class scatter, adding ridge {lam:.3e}")
        Sw = Sw + lam * np.eye(d)
    import scipy.linalg  # only fitting solves a generalized eigenproblem; loading scipy is slow

    try:
        eigvals, eigvecs = scipy.linalg.eigh(Sb, Sw)
    except scipy.linalg.LinAlgError as exc:
        raise NumericalError(f"generalized eigenproblem failed: {exc}") from None
    order = np.argsort(eigvals)[::-1][:target_dim]
    lda = eigvecs[:, order].T
    return PreprocessChain(mean=mean, lda=lda, apply_length_norm=apply_length_norm)


def _as_matrix(embeddings) -> tuple[np.ndarray, list[str]]:
    if isinstance(embeddings, UtteranceSet):
        return embeddings.embedding_matrix(), embeddings.speaker_labels()
    X, speakers = embeddings
    return np.asarray(X, dtype=np.float64), list(speakers)


# ---------------------------------------------------------------------------
# EM estimation
# ---------------------------------------------------------------------------


def _speaker_stats(X: np.ndarray, speakers: list[str]):
    """Per-speaker counts and means, and the within-speaker scatter.

    Speakers are taken in order of first appearance and the scatter is
    summed in that order.
    """
    by_spk: dict[str, list[int]] = {}
    for i, s in enumerate(speakers):
        by_spk.setdefault(s, []).append(i)
    groups = list(by_spk.values())
    counts = np.array([len(rows) for rows in groups], dtype=np.int64)
    means = np.stack([X[rows].mean(axis=0) for rows in groups])
    d = X.shape[1]
    S_dev = np.zeros((d, d))
    for rows, mi in zip(groups, means):
        dev = X[rows] - mi
        S_dev += dev.T @ dev
    return counts, means, S_dev


def _total_loglik(counts, means_c, S_dev, sigma_ac, sigma_wc) -> float:
    """Exact marginal log-likelihood of all utterances under the model.

    Decomposes each speaker's block covariance through the speaker mean:
    the mean carries Sigma_wc/n + Sigma_ac, the n-1 deviation directions
    carry Sigma_wc.
    """
    d = sigma_wc.shape[0]
    N = int(counts.sum())
    S = counts.shape[0]
    sign, logdet_w = np.linalg.slogdet(sigma_wc)
    if sign <= 0:
        raise NumericalError("within covariance is not positive definite")
    try:
        wc_inv_Sdev = np.linalg.solve(sigma_wc, S_dev)
    except np.linalg.LinAlgError:
        raise NumericalError("within covariance is singular") from None
    ll = -0.5 * (N * d * np.log(2.0 * np.pi) + (N - S) * logdet_w + np.trace(wc_inv_Sdev))
    for n in np.unique(counts):
        rows = means_c[counts == n]
        cov_n = sigma_wc + n * sigma_ac
        sign, logdet_n = np.linalg.slogdet(cov_n)
        if sign <= 0:
            raise NumericalError("speaker-mean covariance is not positive definite")
        solved = np.linalg.solve(cov_n, rows.T)
        quad = np.sum(rows.T * solved)
        ll += -0.5 * (rows.shape[0] * logdet_n + n * quad)
    if not np.isfinite(ll):
        raise NumericalError("non-finite log-likelihood")
    return float(ll)


def em_fit(
    embeddings,
    latent_dim: int | None = None,
    n_iters: int = DEFAULT_EM_ITERS,
    average_per_speaker: bool = False,
    chain: PreprocessChain | None = None,
) -> PldaModel:
    """EM for the speaker-subspace model on processed embeddings.

    Each speaker draws one latent factor with a unit Gaussian prior; the
    across-class covariance is Phi Phi' with Phi of rank ``latent_dim``
    (full rank by default).  The global mean of the input is estimated once
    and held fixed, which keeps the per-iteration marginal log-likelihood
    provably non-decreasing.

    ``average_per_speaker`` collapses every speaker to its mean embedding
    before fitting.  With one vector per speaker only the total covariance
    is identifiable, so the default is off; the switch exists to study that
    regime deliberately.
    """
    X, speakers = _as_matrix(embeddings)
    d = X.shape[1]
    q = d if latent_dim is None else int(latent_dim)
    if q < 1 or q > d:
        raise ArgumentError(f"latent_dim must be in [1, {d}], got {q}")
    if average_per_speaker:
        _, X, _ = _speaker_stats(X, speakers)
        speakers = [f"s{i}" for i in range(X.shape[0])]

    mu = X.mean(axis=0)
    counts, means, S_dev = _speaker_stats(X, speakers)
    means_c = means - mu
    N = int(counts.sum())
    S = counts.shape[0]
    # Constant across iterations: total scatter about the global mean.
    T_mat = S_dev + (means_c * counts[:, None]).T @ means_c

    # Deterministic warm start: split the total covariance, direct Phi at the
    # leading between-speaker directions.
    Sb = (means_c * counts[:, None]).T @ means_c / N
    Sw = S_dev / max(N - S, 1) if N > S else np.zeros((d, d))
    if not np.all(np.isfinite(Sw)) or np.trace(Sw) <= 0:
        Sw = np.eye(d)
    evals, evecs = np.linalg.eigh(Sb)
    evals = np.maximum(evals[::-1], 1e-3 * max(np.trace(Sb) / d, 1e-6))
    evecs = evecs[:, ::-1]
    phi = evecs[:, :q] * np.sqrt(evals[:q])
    sigma_wc = Sw + 1e-6 * np.trace(Sw) / d * np.eye(d)

    trace = [_total_loglik(counts, means_c, S_dev, phi @ phi.T, sigma_wc)]
    for _ in range(n_iters):
        wc_inv_phi = np.linalg.solve(sigma_wc, phi)  # d x q
        R = np.zeros((d, q))
        G = np.zeros((q, q))
        for un in np.unique(counts):
            rows = means_c[counts == un]
            prec = np.eye(q) + un * phi.T @ wc_inv_phi
            try:
                C = np.linalg.inv(prec)
            except np.linalg.LinAlgError:
                raise NumericalError("latent posterior precision is singular") from None
            m = (un * rows @ wc_inv_phi) @ C.T  # group x q posterior means
            R += un * rows.T @ m
            G += rows.shape[0] * un * C + un * m.T @ m
        try:
            phi = np.linalg.solve(G.T, R.T).T
        except np.linalg.LinAlgError:
            raise NumericalError("latent moment matrix is singular") from None
        sigma_wc = (T_mat - phi @ R.T) / N
        sigma_wc = 0.5 * (sigma_wc + sigma_wc.T)
        trace.append(_total_loglik(counts, means_c, S_dev, phi @ phi.T, sigma_wc))

    sigma_ac = phi @ phi.T
    model_chain = chain if chain is not None else identity_chain(d)
    return _finalize_model(model_chain, mu, sigma_ac, sigma_wc, np.array(trace))


def _finalize_model(chain, center, sigma_ac, sigma_wc, trace) -> PldaModel:
    V, psi = simultaneous_diagonalizer(sigma_ac, sigma_wc)
    p, q, k = _diag_scoring_coeffs(psi)
    return PldaModel(
        chain=chain,
        center=center,
        sigma_ac=sigma_ac,
        sigma_wc=sigma_wc,
        V=V,
        psi=psi,
        p=p,
        q=q,
        k=k,
        loglik_trace=trace,
    )


def make_model(
    sigma_ac: np.ndarray,
    sigma_wc: np.ndarray,
    chain: PreprocessChain | None = None,
    center: np.ndarray | None = None,
) -> PldaModel:
    """Build a PldaModel directly from covariances (no EM); used by oracles."""
    sigma_ac = np.asarray(sigma_ac, dtype=np.float64)
    sigma_wc = np.asarray(sigma_wc, dtype=np.float64)
    d = sigma_wc.shape[0]
    if chain is None:
        chain = identity_chain(d)
    if center is None:
        center = np.zeros(d)
    return _finalize_model(chain, np.asarray(center, dtype=np.float64), sigma_ac, sigma_wc, None)


# ---------------------------------------------------------------------------
# scoring form
# ---------------------------------------------------------------------------


def simultaneous_diagonalizer(sigma_ac: np.ndarray, sigma_wc: np.ndarray):
    """V with V' Sigma_wc V = I and V' Sigma_ac V = diag(psi), psi >= 0."""
    import scipy.linalg  # see fit_preprocess

    try:
        psi, V = scipy.linalg.eigh(sigma_ac, sigma_wc)
    except (scipy.linalg.LinAlgError, np.linalg.LinAlgError) as exc:
        cond = np.linalg.cond(sigma_wc)
        raise NumericalError(
            f"simultaneous diagonalization failed (cond(Sigma_wc)={cond:.3e}): {exc}"
        ) from None
    order = np.argsort(psi)[::-1]
    psi = np.maximum(psi[order], 0.0)
    return V[:, order], psi


def _diag_scoring_coeffs(psi: np.ndarray):
    """LLR-scale diagonal coefficients and constant from the eigenvalues.

    In the diagonalized space each dimension contributes independently with
    total variance 1 + psi and across variance psi; the exact LLR is half
    the textbook quadratic form plus a determinant constant.
    """
    denom = (1.0 + psi) * (1.0 + 2.0 * psi)
    q_full = -(psi**2) / denom
    p_full = psi / (1.0 + 2.0 * psi)
    k = 0.5 * float(np.sum(np.log((1.0 + psi) ** 2 / (1.0 + 2.0 * psi))))
    return p_full / 2.0, q_full / 2.0, k


def derive_pq(model: PldaModel) -> ScoringForm:
    """Textbook dense scoring matrices plus their diagonal representation.

    The dense P and Q follow the standard derivation from Sigma_tot and
    Sigma_ac; the diagonal vectors are the same matrices expressed in the
    V basis.  Scoring halves this form to report an exact LLR (see module
    docstring), so ``2 * model.p == ScoringForm.p``.
    """
    tot = model.sigma_tot
    ac = model.sigma_ac
    try:
        tot_inv = np.linalg.inv(tot)
        schur = tot - ac @ tot_inv @ ac
        schur_inv = np.linalg.inv(schur)
    except np.linalg.LinAlgError:
        cond = np.linalg.cond(tot)
        raise NumericalError(
            f"scoring-form inversion failed (cond(Sigma_tot)={cond:.3e})"
        ) from None
    Q = tot_inv - schur_inv
    P = tot_inv @ ac @ schur_inv
    return ScoringForm(P=P, Q=Q, p=2.0 * model.p, q=2.0 * model.q, k=model.k)


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------


def score_pairs(model: PldaModel, raw_e: np.ndarray, raw_t: np.ndarray) -> np.ndarray:
    """Exact-LLR scores for row-aligned raw embedding pairs."""
    e = model.transform(model.chain.apply(raw_e))
    t = model.transform(model.chain.apply(raw_t))
    s = quadratic_score(e, t, model.p, model.q, model.k)
    return np.atleast_1d(np.asarray(s, dtype=np.float64))


def score_pairs_dense(model: PldaModel, raw_e: np.ndarray, raw_t: np.ndarray) -> np.ndarray:
    """Same scores from the dense textbook matrices: (e'Qe + t'Qt + 2e'Pt) / 2 + k (oracle)."""
    form = derive_pq(model)
    e = np.atleast_2d(model.chain.apply(raw_e) - model.center)
    t = np.atleast_2d(model.chain.apply(raw_t) - model.center)
    full = np.sum((e @ form.Q) * e + (t @ form.Q) * t + 2.0 * (e @ form.P) * t, axis=-1)
    return 0.5 * full + model.k


def score_trials(model: PldaModel, trials: Sequence[Trial],
                 embeddings: UtteranceSet) -> ScoredTrialSet:
    """Score labelled or unlabelled trials against raw embeddings."""
    batch = TrialBatch(embeddings, trials, labelled=False)
    return ScoredTrialSet(batch.trials, _scores(model, batch))


def _scores(model: PldaModel, batch: TrialBatch) -> np.ndarray:
    """The score of each trial of ``batch``, preprocessing each utterance once."""
    proc = model.transform(model.chain.apply(batch.embeddings))
    return quadratic_score(proc[batch.e_idx], proc[batch.t_idx], model.p, model.q, model.k)


def llr_oracle(model: PldaModel, raw_e: np.ndarray, raw_t: np.ndarray) -> float:
    """Independent LLR by direct Gaussian density evaluation.

    log N([e; t]; 0, [[tot, ac], [ac, tot]]) - log N(e; 0, tot)
                                             - log N(t; 0, tot)
    evaluated on the preprocessed, centered pair.
    """
    e = model.chain.apply(np.asarray(raw_e, dtype=np.float64)) - model.center
    t = model.chain.apply(np.asarray(raw_t, dtype=np.float64)) - model.center
    tot = model.sigma_tot
    joint = np.block([[tot, model.sigma_ac], [model.sigma_ac, tot]])
    z = np.concatenate([e, t])
    try:
        sign_j, logdet_j = np.linalg.slogdet(joint)
        sign_m, logdet_m = np.linalg.slogdet(tot)
        if sign_j <= 0 or sign_m <= 0:
            raise NumericalError("joint covariance is not positive definite")
        quad_j = z @ np.linalg.solve(joint, z)
        quad_e = e @ np.linalg.solve(tot, e)
        quad_t = t @ np.linalg.solve(tot, t)
    except np.linalg.LinAlgError:
        raise NumericalError("singular covariance in llr oracle") from None
    log_joint = -0.5 * (2 * model.dim * np.log(2.0 * np.pi) + logdet_j + quad_j)
    log_e = -0.5 * (model.dim * np.log(2.0 * np.pi) + logdet_m + quad_e)
    log_t = -0.5 * (model.dim * np.log(2.0 * np.pi) + logdet_m + quad_t)
    return float(log_joint - log_e - log_t)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def _layout(dim: int, in_dim: int) -> dict[str, tuple[int, ...]]:
    """Names and shapes of a checkpoint's arrays, in file order, given the LDA's shape."""
    return {"mean": (in_dim,), "lda": (dim, in_dim), "center": (dim,), "sigma_ac": (dim, dim),
            "sigma_wc": (dim, dim), "V": (dim, dim), "psi": (dim,), "p": (dim,), "q": (dim,),
            "k": ()}


def save_model(model: PldaModel, path) -> None:
    fields = {**vars(model.chain), **vars(model)}
    params = {name: fields[name] for name in _layout(*model.chain.lda.shape)}
    save_params(path, params,
                {"kind": "gplda", "length_norm": str(int(model.chain.apply_length_norm))})


def load_model(path) -> PldaModel:
    return _load_kind(path, {"gplda": _from_checkpoint})[1]


def _from_checkpoint(params: dict[str, np.ndarray], meta: dict[str, str]) -> PldaModel:
    """The model saved as ``params``; lda's (L, D) gives every other shape."""
    try:
        dim, in_dim = np.shape(params["lda"])
    except (KeyError, ValueError):
        raise ModelError("parameter lda (a matrix) gives the layout") from None
    arrays = dict(nn.ParamVector(_layout(dim, in_dim)).from_dict(params))
    chain = PreprocessChain(arrays.pop("mean"), arrays.pop("lda"),
                            apply_length_norm=meta.get("length_norm", "1") == "1")
    return PldaModel(chain=chain, k=float(arrays.pop("k")), **arrays)
