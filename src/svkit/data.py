"""Domain types, file formats, utterance chunking, and synthetic generators.

File formats are text based and line oriented:

* embedding file: ``utt_id speaker_id gender dataset_id v1 ... vD`` per line
* feature file:   header ``utt_id speaker_id gender dataset_id T d`` followed
  by ``T`` lines of ``d`` floats
* trial file:     ``enroll_id test_id [target|nontarget]`` per line; a line
  whose first field starts with ``#`` is a comment
* score file:     ``enroll_id test_id score`` per line

A trial list is held as columns (``TrialList``); trial and score files are
read whole, split once and checked column by column.  The text layer below
serves every file svkit reads or writes, checkpoints included.  Floats are written with ``%.17g`` so a write/read/write cycle
reproduces the file byte for byte; outputs are replaced atomically; bad input,
non-finite values included, raises ParseError naming the file and line.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
import numpy.random  # numpy loads it lazily: load it here, not at the first draw

from .errors import (
    ArgumentError,
    ConfigError,
    DimensionError,
    MissingIdError,
    ModelError,
    ParseError,
)

GENDERS = ("M", "F")

TARGET = "target"
NONTARGET = "nontarget"


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


_LABEL_VALUES = {TARGET: 1.0, NONTARGET: 0.0}
_LABEL_WORDS = {1.0: TARGET, 0.0: NONTARGET}


class TrialList(Sequence):
    """Trials as three columns: enroll ids, test ids and a label vector.

    A label is 1.0 for a target, 0.0 for a nontarget and NaN for an
    unlabelled trial.  A Trial is made only when a row is read.  ``lines``
    holds each trial's line in the file it was read from, or None.
    """

    def __init__(self, enroll: list[str], test: list[str], labels=None, lines=None):
        self.enroll, self.test = list(enroll), list(test)
        self.labels = (np.full(len(self.enroll), np.nan) if labels is None
                       else np.asarray(labels, dtype=np.float64))
        self.lines = lines
        if len(self.test) != len(self.enroll) or self.labels.shape != (len(self.enroll),):
            raise ArgumentError("a trial list needs one test id and one label per enroll id")
        if not (np.isin(self.labels, (0.0, 1.0)) | np.isnan(self.labels)).all():
            raise ArgumentError("trial labels must be 0, 1 or NaN")

    @classmethod
    def of(cls, trials) -> "TrialList":
        """``trials`` if it is a TrialList, else the columns of its Trials."""
        if isinstance(trials, TrialList):
            return trials
        rows = list(trials)
        return cls([t.enroll_id for t in rows], [t.test_id for t in rows],
                   [_LABEL_VALUES.get(t.label, np.nan) for t in rows])

    def __len__(self) -> int:
        return len(self.enroll)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        i = range(len(self))[i]
        return Trial(self.enroll[i], self.test[i], _LABEL_WORDS.get(float(self.labels[i])))

    def __iter__(self):
        return map(Trial, self.enroll, self.test, map(_LABEL_WORDS.get, self.labels.tolist()))


def _labels(trials) -> np.ndarray:
    """0/1 label vector of ``trials``; an unlabelled trial raises ArgumentError."""
    trials = TrialList.of(trials)
    unlabelled = np.flatnonzero(np.isnan(trials.labels))
    if unlabelled.size:
        i = unlabelled[0]
        raise ArgumentError(f"trial {trials.enroll[i]}/{trials.test[i]} has no label")
    return trials.labels


@dataclass
class ScoredTrialSet:
    """Trials, held as a TrialList, with their log-likelihood-ratio scores."""

    trials: TrialList
    scores: np.ndarray

    def __post_init__(self):
        self.trials = TrialList.of(self.trials)
        s = np.asarray(self.scores, dtype=np.float64)
        if s.shape != (len(self.trials),):
            raise DimensionError("one score per trial required")
        if not np.all(np.isfinite(s)):
            raise ModelError("scores contain non-finite values")
        self.scores = s

    def labels(self) -> np.ndarray:
        """0/1 label vector; raises if any trial is unlabelled."""
        return _labels(self.trials)

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

    def embedding_matrix(self, ids: list[str] | None = None) -> np.ndarray:
        """Stack embedding payloads into an (n, D) matrix; n may be 0."""
        utts = self.utterances if ids is None else [self[i] for i in ids]
        return np.stack([u.payload.vector for u in utts]) if utts else np.empty((0, self.dim or 0))

    def speaker_labels(self) -> list[str]:
        return [u.speaker_id for u in self.utterances]


def pair_index(trials, lookup) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Sorted unique ids the trials reference and each trial's two rows in them.

    ``trials`` is a TrialList or any sequence of Trials.  ``lookup`` is any
    container of utterance ids (an UtteranceSet or a dict keyed by id).
    Every referenced id missing from it is reported, sorted, by one
    MissingIdError.
    """
    trials = TrialList.of(trials)
    return _index_sides(trials.enroll, trials.test, lookup)


def _index_sides(enroll_ids: list[str], test_ids: list[str], lookup):
    """Sorted unique ids of two id lists and the row of each of their entries among them.

    ``pair_index`` passes one entry per trial and side; a cross-product batch
    passes its enroll and its test utterances once each.
    """
    ids = sorted(set(enroll_ids).union(test_ids))
    missing = [u for u in ids if u not in lookup]
    if missing:
        raise MissingIdError(missing)
    row = {u: i for i, u in enumerate(ids)}.__getitem__
    return ids, *(np.fromiter(map(row, side), dtype=np.intp, count=len(side))
                  for side in (enroll_ids, test_ids))


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


_FLOAT = "%.17g"
_SCORE_LINE = f"%s %s {_FLOAT}\n"


def _fmt(x: float) -> str:
    return _FLOAT % x


def _float_lines(block: np.ndarray):
    """One line of ``_fmt`` fields per row of a 2-D array."""
    for row in block.tolist():
        yield " ".join(map(_fmt, row)) + "\n"


def _write_lines(path, lines) -> None:
    """Write ``lines`` to ``<path>.tmp``, then rename it over ``path``."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _records(numbered):
    """(line_no, fields) of each non-blank line of ``enumerate(file, start=1)``."""
    for line_no, text in numbered:
        fields = text.split()
        if fields:
            yield line_no, fields


def _floats(path, rows, width: int | None) -> np.ndarray:
    """Parse (line_no, fields) rows into one flat float64 array.

    Every row holds ``width`` values, or as many as the first row when ``width``
    is None; a wrong count, bad float or non-finite value raises ParseError at
    its line.
    """
    if width is None and rows:
        width = len(rows[0][1])
    values = []
    for line_no, fields in rows:
        if len(fields) != width:
            raise ParseError(path, line_no, f"expected {width} values, got {len(fields)}")
        try:
            values += map(float, fields)
        except ValueError as exc:
            raise ParseError(path, line_no, f"bad float: {exc}") from None
    values = np.array(values, dtype=np.float64)
    if not np.isfinite(values).all():
        line_no = next(no for no, fields in rows if not all(map(math.isfinite, map(float, fields))))
        raise ParseError(path, line_no, "non-finite value")
    return values


def _float_block(path, numbered, header_no, n_rows, width, truncated) -> np.ndarray:
    """``_floats`` of the next ``n_rows`` lines of ``numbered``, blank or not."""
    rows = [(no, text.split()) for no, text in itertools.islice(numbered, max(n_rows, 0))]
    if len(rows) != n_rows:
        raise ParseError(path, header_no, truncated)
    return _floats(path, rows, width)


def write_embeddings(utterances, path) -> None:
    _write_lines(path, (
        f"{u.id} {u.speaker_id} {u.gender} {u.dataset_id} "
        f"{' '.join(map(_fmt, u.payload.vector.tolist()))}\n"
        for u in utterances
    ))


def read_embeddings(path) -> UtteranceSet:
    utts = []
    dim = None
    with open(path, encoding="utf-8") as fh:
        for line_no, parts in _records(enumerate(fh, start=1)):
            if len(parts) < 5:
                raise ParseError(path, line_no, f"expected at least 5 fields, got {len(parts)}")
            utt_id, spk, gender, dataset = parts[:4]
            vec = _floats(path, [(line_no, parts[4:])], None)
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
    def lines():
        for u in utterances:
            f = u.payload.frames
            yield (f"{u.id} {u.speaker_id} {u.gender} {u.dataset_id} "
                   f"{f.shape[0]} {f.shape[1]}\n")
            yield from _float_lines(f)

    _write_lines(path, lines())


def read_features(path) -> UtteranceSet:
    utts = []
    dim = None
    with open(path, encoding="utf-8") as fh:
        numbered = enumerate(fh, start=1)
        for line_no, parts in _records(numbered):
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
            frames = _float_block(path, numbered, line_no, T, d,
                                  f"expected {T} frame lines, file truncated")
            try:
                utts.append(Utterance(utt_id, spk, gender, dataset,
                                      FeatureMatrix(frames.reshape(T, d))))
            except ArgumentError as exc:
                raise ParseError(path, line_no, str(exc)) from None
    return UtteranceSet(utts)


# whitespace as str.split() sees it: the ASCII part by byte, the rest turned into spaces
_ASCII_SPACE = np.array([chr(c).isspace() for c in range(33)])
_WIDE_SPACES = str.maketrans({c: " " for c in range(128, 0x3001) if chr(c).isspace()})


def _table(path, comment: str | None = None):
    """The fields of the text file at ``path`` and where its records start.

    Returns the list of ``str.split()`` fields and, per record (non-blank
    line), the index of its first field, its field count and its line number
    as iterating the file numbers them.  With ``comment``, a record whose
    first field starts with that character is dropped.
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    # the numpy pass frees its arrays before the fields are made
    first, count, line = _record_layout(text, comment)
    return text.split(), first, count, line


def _record_layout(text: str, comment: str | None):
    """``_table``'s record columns, from one numpy pass over the encoded text."""
    raw = np.frombuffer((text if text.isascii() else text.translate(_WIDE_SPACES)).encode(),
                        np.uint8)
    space = np.flatnonzero(raw <= 32)
    space = space[_ASCII_SPACE[raw[space]]]
    # a field starts after each whitespace byte that no whitespace byte follows
    after = np.flatnonzero(np.diff(space, append=raw.size) > 1)
    start, line = space[after] + 1, np.cumsum(raw[space] == 10)[after] + 1
    if raw.size and (not space.size or space[0]):  # the file opens with a field
        start, line = np.r_[0, start], np.r_[1, line]
    first = np.flatnonzero(np.diff(line, prepend=0))
    count = np.diff(first, append=len(start))
    if comment is not None:
        kept = raw[start[first]] != ord(comment)
        first, count = first[kept], count[kept]
    return first, count, line[first]


def _gather(fields: list, at: np.ndarray) -> list:
    """``[fields[i] for i in at]``; evenly spaced indices, as in a file of one record
    width, take one slice."""
    step = int(at[1] - at[0]) if len(at) > 1 else 1
    if (np.diff(at) == step).all():
        return fields[at[0]:at[-1] + 1:step] if len(at) else []
    return list(map(fields.__getitem__, at.tolist()))


def write_trials(trials, path) -> None:
    trials = TrialList.of(trials)
    suffix = map({1.0: f" {TARGET}", 0.0: f" {NONTARGET}"}.get, trials.labels.tolist(),
                 itertools.repeat(""))
    _write_lines(path, map("%s %s%s\n".__mod__, zip(trials.enroll, trials.test, suffix)))


def read_trials(path) -> TrialList:
    """The trials of a trial file; ``#`` lines are comments."""
    fields, first, count, line = _table(path, comment="#")
    has_label = count == 3
    labels = np.full(len(first), np.nan)
    labels[has_label] = np.fromiter(
        map(_LABEL_VALUES.get, _gather(fields, first[has_label] + 2), itertools.repeat(-1.0)),
        np.float64, int(has_label.sum()))
    wrong = (count < 2) | (count > 3)
    bad = np.flatnonzero(wrong | (labels == -1.0))
    if bad.size:
        i = bad[0]
        raise ParseError(path, int(line[i]), f"expected 2 or 3 fields, got {count[i]}" if wrong[i]
                         else f"bad label {fields[first[i] + 2]!r}")
    return TrialList(_gather(fields, first), _gather(fields, first + 1), labels, line)


def write_scores(scored: ScoredTrialSet, path) -> None:
    t = scored.trials
    _write_lines(path, map(_SCORE_LINE.__mod__, zip(t.enroll, t.test, scored.scores.tolist())))


def read_scores(path) -> ScoredTrialSet:
    """The unlabelled trials of a score file with their scores."""
    fields, first, count, line = _table(path)
    faults = []  # (record, reason) of the first fault of each kind; the earliest is raised
    wrong = np.flatnonzero(count != 3)
    if wrong.size:
        faults.append((wrong[0], f"expected 3 fields, got {count[wrong[0]]}"))
    rows = np.flatnonzero(count == 3)
    scores = []
    try:
        scores += map(float, _gather(fields, first[rows] + 2))
    except ValueError as exc:
        # the list keeps the scores parsed before the bad one
        faults.append((rows[len(scores)], f"bad float: {exc}"))
    scores = np.array(scores, dtype=np.float64)
    non_finite = np.flatnonzero(~np.isfinite(scores))
    if non_finite.size:
        faults.append((rows[non_finite[0]], "non-finite value"))
    if faults:
        i, reason = min(faults)
        raise ParseError(path, int(line[i]), reason)
    return ScoredTrialSet(TrialList(_gather(fields, first), _gather(fields, first + 1),
                                    lines=line), scores)


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


def make_trials(utts, n_trials: int, target_ratio: float, seed: int) -> list[Trial]:
    """``n_trials`` distinct labelled pairs, each a target with probability ``target_ratio``.

    Too large a count raises ConfigError naming ``[simulate] n_dev_trials``, which sets it.
    """
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
            key, label = (ids[int(i)], ids[int(j)]), TARGET
        else:
            if len(speakers) < 2:
                continue
            si, sj = rng.choice(len(speakers), size=2, replace=False)
            a = by_spk[speakers[int(si)]]
            b = by_spk[speakers[int(sj)]]
            key, label = (a[int(rng.integers(len(a)))], b[int(rng.integers(len(b)))]), NONTARGET
        if key not in seen:
            seen.add(key)
            trials.append(Trial(key[0], key[1], label))
    return trials
