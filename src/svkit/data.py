"""Domain types, file formats, utterance chunking, and synthetic generators.

File formats are text based and line oriented:

* embedding file: ``utt_id speaker_id gender dataset_id v1 ... vD`` per line
* feature file:   header ``utt_id speaker_id gender dataset_id T d`` followed
  by ``T`` lines of ``d`` floats
* trial file:     ``enroll_id test_id [target|nontarget]`` per line
* score file:     ``enroll_id test_id score`` per line

Floats are written with ``%.17g`` so a write/read/write cycle reproduces the
file byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ArgumentError,
    DimensionError,
    MissingIdError,
    ModelError,
    ParseError,
)

GENDERS = ("M", "F")

TARGET = "target"
NONTARGET = "nontarget"


def _fmt(x: float) -> str:
    return "%.17g" % x


@dataclass(frozen=True)
class Embedding:
    """Fixed-dimension utterance vector."""

    vector: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vector, dtype=np.float64)
        if v.ndim != 1:
            raise DimensionError(f"embedding must be a vector, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ModelError("embedding contains non-finite entries")
        object.__setattr__(self, "vector", v)

    @property
    def dim(self) -> int:
        return self.vector.shape[0]


@dataclass(frozen=True)
class FeatureMatrix:
    """T x d matrix of frame-level feature coefficients."""

    frames: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.frames, dtype=np.float64)
        if f.ndim != 2:
            raise DimensionError(f"features must be T x d, got shape {f.shape}")
        object.__setattr__(self, "frames", f)

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def dim(self) -> int:
        return self.frames.shape[1]


@dataclass(frozen=True)
class Utterance:
    """One utterance with speaker/gender/dataset bookkeeping.

    The payload is either an Embedding or a FeatureMatrix depending on which
    stage of the pipeline the collection feeds.
    """

    id: str
    speaker_id: str
    gender: str
    dataset_id: str
    payload: Embedding | FeatureMatrix

    def __post_init__(self):
        if not self.id:
            raise ArgumentError("utterance id must be non-empty")
        if self.gender not in GENDERS:
            raise ArgumentError(f"gender must be one of {GENDERS}, got {self.gender!r}")
        if not self.dataset_id:
            raise ArgumentError("dataset_id must be non-empty")
        if not isinstance(self.payload, (Embedding, FeatureMatrix)):
            raise ArgumentError("payload must be an Embedding or FeatureMatrix")


@dataclass(frozen=True)
class Trial:
    """An (enrollment, test) utterance pair, optionally labelled."""

    enroll_id: str
    test_id: str
    label: str | None = None

    def __post_init__(self):
        if self.label not in (None, TARGET, NONTARGET):
            raise ArgumentError(f"label must be target/nontarget/None, got {self.label!r}")

    @property
    def is_target(self) -> bool:
        return self.label == TARGET


@dataclass
class ScoredTrialSet:
    """Trials with their log-likelihood-ratio scores."""

    trials: list[Trial]
    scores: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.scores, dtype=np.float64)
        if s.shape != (len(self.trials),):
            raise DimensionError("one score per trial required")
        if not np.all(np.isfinite(s)):
            raise ModelError("scores contain non-finite values")
        self.scores = s

    def labels(self) -> np.ndarray:
        """0/1 label vector; raises if any trial is unlabelled."""
        out = np.empty(len(self.trials), dtype=np.float64)
        for i, t in enumerate(self.trials):
            if t.label is None:
                raise ArgumentError(f"trial {t.enroll_id}/{t.test_id} has no label")
            out[i] = 1.0 if t.is_target else 0.0
        return out

    def __len__(self) -> int:
        return len(self.trials)


class UtteranceSet:
    """A collection of utterances with unique ids and a common payload dim."""

    def __init__(self, utterances: list[Utterance]):
        self.utterances = list(utterances)
        self._by_id: dict[str, Utterance] = {}
        dim = None
        for u in self.utterances:
            if u.id in self._by_id:
                raise ArgumentError(f"duplicate utterance id {u.id!r}")
            self._by_id[u.id] = u
            d = u.payload.dim
            if dim is None:
                dim = d
            elif d != dim:
                raise DimensionError(
                    f"utterance {u.id!r} has dim {d}, collection has dim {dim}"
                )
        self.dim = dim

    def __len__(self):
        return len(self.utterances)

    def __iter__(self):
        return iter(self.utterances)

    def __getitem__(self, utt_id: str) -> Utterance:
        try:
            return self._by_id[utt_id]
        except KeyError:
            raise MissingIdError([utt_id]) from None

    def __contains__(self, utt_id: str) -> bool:
        return utt_id in self._by_id

    def ids(self) -> list[str]:
        return [u.id for u in self.utterances]

    def speakers(self) -> list[str]:
        seen: dict[str, None] = {}
        for u in self.utterances:
            seen.setdefault(u.speaker_id, None)
        return list(seen)

    def resolve(self, trials: list[Trial]) -> None:
        """Raise MissingIdError listing every unresolvable trial id."""
        pair_index(trials, self)

    def embedding_matrix(self, ids: list[str] | None = None) -> np.ndarray:
        """Stack embedding payloads into an (n, D) matrix."""
        utts = self.utterances if ids is None else [self[i] for i in ids]
        return np.stack([u.payload.vector for u in utts])

    def speaker_labels(self, ids: list[str] | None = None) -> list[str]:
        utts = self.utterances if ids is None else [self[i] for i in ids]
        return [u.speaker_id for u in utts]


def pair_index(trials: list[Trial], lookup) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Sorted unique ids the trials reference and each trial's two rows in them.

    ``lookup`` is any container of utterance ids (an UtteranceSet or a dict
    keyed by id).  Every referenced id missing from it is reported, sorted,
    by one MissingIdError.
    """
    ids = sorted({t.enroll_id for t in trials} | {t.test_id for t in trials})
    missing = [u for u in ids if u not in lookup]
    if missing:
        raise MissingIdError(missing)
    index = {u: i for i, u in enumerate(ids)}
    e_idx = np.array([index[t.enroll_id] for t in trials])
    t_idx = np.array([index[t.test_id] for t in trials])
    return ids, e_idx, t_idx


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def write_embeddings(utterances, path) -> None:
    with open(path, "w") as fh:
        for u in utterances:
            vals = " ".join(_fmt(v) for v in u.payload.vector)
            fh.write(f"{u.id} {u.speaker_id} {u.gender} {u.dataset_id} {vals}\n")


def read_embeddings(path) -> UtteranceSet:
    utts = []
    dim = None
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) < 5:
                raise ParseError(path, line_no, f"expected at least 5 fields, got {len(parts)}")
            utt_id, spk, gender, dataset = parts[:4]
            try:
                vec = np.array([float(x) for x in parts[4:]], dtype=np.float64)
            except ValueError as exc:
                raise ParseError(path, line_no, f"bad float: {exc}") from None
            if dim is None:
                dim = vec.shape[0]
            elif vec.shape[0] != dim:
                raise DimensionError(
                    f"{path}:{line_no}: embedding dim {vec.shape[0]} != {dim}"
                )
            try:
                utts.append(Utterance(utt_id, spk, gender, dataset, Embedding(vec)))
            except ArgumentError as exc:
                raise ParseError(path, line_no, str(exc)) from None
    return UtteranceSet(utts)


def write_features(utterances, path) -> None:
    with open(path, "w") as fh:
        for u in utterances:
            f = u.payload.frames
            fh.write(
                f"{u.id} {u.speaker_id} {u.gender} {u.dataset_id} "
                f"{f.shape[0]} {f.shape[1]}\n"
            )
            for row in f:
                fh.write(" ".join(_fmt(v) for v in row) + "\n")


def read_features(path) -> UtteranceSet:
    utts = []
    dim = None
    with open(path) as fh:
        lines = fh.read().splitlines()
    i = 0
    line_no = 0
    while i < len(lines):
        line_no = i + 1
        header = lines[i].strip()
        i += 1
        if not header:
            continue
        parts = header.split()
        if len(parts) != 6:
            raise ParseError(path, line_no, f"expected 6 header fields, got {len(parts)}")
        utt_id, spk, gender, dataset, t_str, d_str = parts
        try:
            T, d = int(t_str), int(d_str)
        except ValueError:
            raise ParseError(path, line_no, "T and d must be integers") from None
        if dim is None:
            dim = d
        elif d != dim:
            raise DimensionError(f"{path}:{line_no}: feature dim {d} != {dim}")
        if i + T > len(lines):
            raise ParseError(path, line_no, f"expected {T} frame lines, file truncated")
        rows = []
        for j in range(T):
            row_no = i + j + 1
            fields = lines[i + j].split()
            if len(fields) != d:
                raise ParseError(path, row_no, f"expected {d} values, got {len(fields)}")
            try:
                rows.append([float(x) for x in fields])
            except ValueError as exc:
                raise ParseError(path, row_no, f"bad float: {exc}") from None
        i += T
        frames = np.array(rows, dtype=np.float64).reshape(T, d)
        utts.append(Utterance(utt_id, spk, gender, dataset, FeatureMatrix(frames)))
    return UtteranceSet(utts)


def write_trials(trials, path) -> None:
    with open(path, "w") as fh:
        for t in trials:
            if t.label is None:
                fh.write(f"{t.enroll_id} {t.test_id}\n")
            else:
                fh.write(f"{t.enroll_id} {t.test_id} {t.label}\n")


def read_trials(path) -> list[Trial]:
    trials = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) == 2:
                trials.append(Trial(parts[0], parts[1]))
            elif len(parts) == 3:
                if parts[2] not in (TARGET, NONTARGET):
                    raise ParseError(path, line_no, f"bad label {parts[2]!r}")
                trials.append(Trial(parts[0], parts[1], parts[2]))
            else:
                raise ParseError(path, line_no, f"expected 2 or 3 fields, got {len(parts)}")
    return trials


def write_scores(scored: ScoredTrialSet, path) -> None:
    with open(path, "w") as fh:
        for t, s in zip(scored.trials, scored.scores):
            fh.write(f"{t.enroll_id} {t.test_id} {_fmt(s)}\n")


def read_scores(path) -> list[tuple[str, str, float]]:
    out = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ParseError(path, line_no, f"expected 3 fields, got {len(parts)}")
            try:
                out.append((parts[0], parts[1], float(parts[2])))
            except ValueError as exc:
                raise ParseError(path, line_no, f"bad float: {exc}") from None
    return out


# ---------------------------------------------------------------------------
# chunking
# ---------------------------------------------------------------------------


def chunk_utterance(f: FeatureMatrix, chunk_len: int = 2000, min_keep: int = 500):
    """Split a feature matrix into consecutive non-overlapping chunks.

    The final remainder is kept only if it has at least ``min_keep`` frames;
    shorter tails would feed degenerate statistics pooling.
    """
    if chunk_len < 1:
        raise ArgumentError(f"chunk_len must be >= 1, got {chunk_len}")
    T = f.num_frames
    if T == 0:
        return []
    out = []
    start = 0
    while start + chunk_len <= T:
        out.append(FeatureMatrix(f.frames[start : start + chunk_len]))
        start += chunk_len
    rest = T - start
    if rest >= min_keep:
        out.append(FeatureMatrix(f.frames[start:]))
    return out


def chunk_collection(
    utterances, chunk_len: int = 2000, min_keep: int = 500
) -> UtteranceSet:
    """Chunk every utterance, deriving ids like ``<utt_id>-c<k>``."""
    out = []
    for u in utterances:
        for k, piece in enumerate(chunk_utterance(u.payload, chunk_len, min_keep)):
            out.append(
                Utterance(f"{u.id}-c{k}", u.speaker_id, u.gender, u.dataset_id, piece)
            )
    return UtteranceSet(out)


# ---------------------------------------------------------------------------
# synthetic generators
# ---------------------------------------------------------------------------


def synth_plda_embeddings(
    phi: np.ndarray,
    sigma: np.ndarray,
    n_speakers: int,
    utts_per_speaker: int,
    seed: int,
    dataset_id: str = "synth",
    gender: str = "alternate",
    id_prefix: str = "spk",
) -> UtteranceSet:
    """Draw embeddings from the two-covariance generative model.

    One latent speaker factor is drawn per speaker from a unit Gaussian and
    shared across that speaker's utterances; each utterance adds residual
    noise with covariance ``sigma``.  By default speakers alternate genders
    so the collection can feed the gender-partitioned samplers; pass "M" or
    "F" to build single-gender populations.
    """
    phi = np.asarray(phi, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    if phi.ndim != 2:
        raise ArgumentError("phi must be a D x q matrix")
    D, q = phi.shape
    if sigma.shape != (D, D):
        raise ArgumentError(f"sigma must be {D} x {D}, got {sigma.shape}")
    if q > D:
        raise ArgumentError(f"latent dim {q} exceeds embedding dim {D}")
    if not np.allclose(sigma, sigma.T):
        raise ModelError("sigma must be symmetric")
    if gender not in GENDERS and gender != "alternate":
        raise ArgumentError(f"gender must be M, F, or alternate, got {gender!r}")
    try:
        chol = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        raise ModelError("sigma must be positive definite") from None

    rng = np.random.default_rng(seed)
    utts = []
    for s in range(n_speakers):
        omega = rng.standard_normal(q)
        center = phi @ omega
        g = GENDERS[s % 2] if gender == "alternate" else gender
        for r in range(utts_per_speaker):
            eps = chol @ rng.standard_normal(D)
            vec = center + eps
            utts.append(
                Utterance(
                    f"{id_prefix}{s:04d}-u{r:03d}",
                    f"{id_prefix}{s:04d}",
                    g,
                    dataset_id,
                    Embedding(vec),
                )
            )
    return UtteranceSet(utts)


def synth_features(
    speaker_means: dict[str, np.ndarray],
    within_std: float,
    T: int,
    seed: int,
    utts_per_speaker: int = 10,
    dataset_id: str = "synth",
) -> UtteranceSet:
    """Generate frame-level features with i.i.d. Gaussian frames per speaker.

    Frame t of speaker s is drawn from N(mean_s, within_std^2 I).  This is a
    desk-scale stand-in for real cepstral inputs: the speaker identity lives
    entirely in the frame mean, which statistics pooling can recover.
    """
    if not speaker_means:
        raise ArgumentError("speaker_means must be non-empty")
    if within_std <= 0:
        raise ArgumentError(f"within_std must be > 0, got {within_std}")
    rng = np.random.default_rng(seed)
    names = sorted(speaker_means)
    d = np.asarray(speaker_means[names[0]]).shape[0]
    utts = []
    for idx, name in enumerate(names):
        mean = np.asarray(speaker_means[name], dtype=np.float64)
        if mean.shape != (d,):
            raise DimensionError(f"speaker {name!r} mean has shape {mean.shape}")
        gender = GENDERS[idx % 2]
        for r in range(utts_per_speaker):
            frames = mean + within_std * rng.standard_normal((T, d))
            utts.append(
                Utterance(
                    f"{name}-u{r:03d}", name, gender, dataset_id, FeatureMatrix(frames)
                )
            )
    return UtteranceSet(utts)
