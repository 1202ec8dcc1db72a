"""Trial-batch construction for backend and end-to-end training.

Two samplers are provided.  The pairwise sampler draws enroll/test pairs
within each gender+dataset partition without reusing any utterance inside an
epoch, then pools and shuffles everything into fixed-size batches whose
trials may mix genders and datasets.  The cross-product sampler instead
builds each batch from a small set of utterances of m speakers, all of one
gender and one dataset, splits every speaker's utterances into enroll and
test halves, and labels the full cross product; 64 utterances split 32/32
yield 1024 trials.

Each sampler call builds one speaker-pool index, ``_speaker_pools``, and
both samplers draw from it; cross-product batches are built by
``_cross_product``.  Every batch holds its trials as a ``TrialList``; a
cross-product batch holds a ``CrossProduct``, the TrialList that also keeps
its enroll and its test ids, so that the backend scores the block as one
matrix (see ``nplda.stack_loss_and_grads``).
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from functools import cached_property

import numpy as np
import numpy.random  # numpy loads it lazily: load it here, not at the first draw

from .data import (TrialList, Utterance, UtteranceSet, _labels, _trial_lines, _write_lines,
                   pair_index)
from .errors import ArgumentError, SamplerError

UTTS_PER_BATCH = 64


@dataclass(frozen=True)
class SamplerConfig:
    utts_per_batch: int = UTTS_PER_BATCH
    m_min: int = 3
    m_max: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.utts_per_batch % 2 != 0:
            raise ArgumentError("utts_per_batch must be even")
        if self.m_min < 2 or self.m_max < self.m_min:
            raise ArgumentError("need m_max >= m_min >= 2")
        # every speaker of a batch needs an enroll/test pair of its utterances
        if self.m_max > self.utts_per_batch / 2:
            raise ArgumentError(f"m_max = {self.m_max} exceeds utts_per_batch / 2")


class CrossProduct(TrialList):
    """Every (enroll, test) pair of two id lists as a trial list, in enroll-major order.

    ``labels`` is given as the (n_e, n_t) matrix of the pairs' labels.  ``sides``
    keeps the two id lists, which the backend scores as one block.
    """

    def __init__(self, enroll: list[str], test: list[str], labels):
        self.sides = list(enroll), list(test)
        n_e, n_t = len(enroll), len(test)
        if not n_e or not n_t:
            raise ArgumentError("a cross product needs enroll and test utterances")
        # a repeated id would repeat its trials
        if len(set(enroll)) < n_e or len(set(test)) < n_t:
            raise ArgumentError("a cross product lists each enroll and each test id once")
        if np.shape(labels) != (n_e, n_t):
            raise ArgumentError(f"label matrix has shape {np.shape(labels)}, "
                                f"expected ({n_e}, {n_t})")
        super().__init__([e for e in enroll for _ in range(n_t)], list(test) * n_e,
                         np.ravel(labels))


@dataclass
class TrialBatch:
    """Trials plus the utterances they reference, indexed once when built.

    ``trials`` is a TrialList; any other sequence of Trials is stored as one.
    ``ids`` are the sorted ids the trials reference, ``e_idx``/``t_idx`` each
    trial's two rows among them and ``labels`` the 0/1 label vector, read
    from the trials' columns, so building a batch makes no Trial.  A
    CrossProduct is indexed by its two id lists and also sets ``block``, the
    rows of its enroll and of its test ids.  Training, dev selection and
    scoring read these.  A batch cannot be built with a trial naming an
    utterance it lacks, nor with an unlabelled trial unless built
    ``labelled=False`` for output scoring, which leaves ``labels`` None.
    gender/dataset_id are set for single-partition batches and None for
    pooled mixed batches.
    """

    utterances: UtteranceSet
    trials: TrialList
    gender: str | None = None
    dataset_id: str | None = None
    tag: str = ""
    labelled: InitVar[bool] = True

    def __post_init__(self, labelled: bool):
        self.trials = TrialList.of(self.trials)
        product = isinstance(self.trials, CrossProduct)
        sides = self.trials.sides if product else (self.trials.enroll, self.trials.test)
        self.ids, e_rows, t_rows = pair_index(*sides, self.utterances)
        self.block = (e_rows, t_rows) if product else None
        self.e_idx, self.t_idx = ((np.repeat(e_rows, len(t_rows)), np.tile(t_rows, len(e_rows)))
                                  if product else (e_rows, t_rows))
        self.labels = _labels(self.trials) if labelled else None

    @cached_property
    def embeddings(self) -> np.ndarray:
        """One embedding row per id of ``ids``, stacked on first read and kept."""
        return self.utterances.embedding_matrix(self.ids)

    def n_targets(self) -> int:
        return int(self.labels.sum())


def _speaker_pools(utterances) -> dict[tuple[str, str], dict[str, list[Utterance]]]:
    """{(gender, dataset): {speaker: that speaker's utterances sorted by id}}.

    Speakers keep their order of first appearance within a partition, which
    fixes the order in which the pairwise sampler shuffles their pools.
    """
    pools: dict[tuple[str, str], dict[str, list[Utterance]]] = {}
    for u in utterances:
        pools.setdefault((u.gender, u.dataset_id), {}).setdefault(u.speaker_id, []).append(u)
    for by_spk in pools.values():
        for us in by_spk.values():
            us.sort(key=lambda u: u.id)
    return pools


def _allocate_counts(m: int, utts_per_batch: int, available: list[int]) -> list[int]:
    """Even utterance counts per speaker summing to utts_per_batch.

    Splits the pairs (so halves split cleanly) as evenly as possible, clamps
    each speaker to the pairs it has, then fills the excess into speakers
    with room, in speaker order.  With m <= utts_per_batch / 2 speakers of
    at least one pair each, every speaker keeps a pair.
    """
    pairs_total = utts_per_batch // 2
    capacity = [a // 2 for a in available]
    if pairs_total > sum(capacity):
        raise SamplerError(
            f"cannot place {utts_per_batch} utterances on {m} speakers "
            f"with capacities {available}"
        )
    base, rem = divmod(pairs_total, m)
    pairs = [min(base + (i < rem), c) for i, c in enumerate(capacity)]
    excess = pairs_total - sum(pairs)
    for i, c in enumerate(capacity):
        take = min(c - pairs[i], excess)
        pairs[i] += take
        excess -= take
    return [2 * p for p in pairs]


def _cross_product(key: tuple[str, str], by_spk: dict[str, list[Utterance]],
                   speakers: list[str], utts_per_batch: int, seed: int,
                   rng: np.random.Generator) -> TrialBatch:
    """The enroll x test batch of ``speakers`` from one partition's pools.

    Each speaker gets an even count of its utterances, drawn and shuffled by
    ``rng``, and splits them into an enroll and a test half.
    """
    counts = _allocate_counts(len(speakers), utts_per_batch,
                              [len(by_spk[s]) for s in speakers])
    utterances: list[Utterance] = []
    enroll: list[str] = []
    test: list[str] = []
    for spk, count in zip(speakers, counts):
        pool = by_spk[spk]
        chosen = [pool[i] for i in rng.choice(len(pool), size=count, replace=False)]
        rng.shuffle(chosen)
        utterances += chosen
        enroll += [u.id for u in chosen[: count // 2]]
        test += [u.id for u in chosen[count // 2 :]]
    # each speaker contributes count // 2 utterances to either side, in speaker order
    speaker_of = np.repeat(np.arange(len(speakers)), [count // 2 for count in counts])
    labels = np.equal.outer(speaker_of, speaker_of)
    gender, dataset = key
    return TrialBatch(UtteranceSet(utterances), CrossProduct(enroll, test, labels), gender,
                      dataset, tag=f"{gender}/{dataset}/m{len(speakers)}/seed{seed}")


def sample_batch_algo2(
    partition: list[Utterance],
    m: int,
    seed: int,
    utts_per_batch: int = UTTS_PER_BATCH,
) -> TrialBatch:
    """One gender/dataset-homogeneous cross-product batch from m speakers."""
    if m > utts_per_batch / 2:
        raise ArgumentError(f"m = {m} exceeds utts_per_batch / 2")
    if not partition:
        raise SamplerError("empty partition")
    pools = _speaker_pools(partition)
    key = (partition[0].gender, partition[0].dataset_id)
    name = f"{key[0]}/{key[1]}"
    if len(pools) > 1:
        raise SamplerError(f"partition {name} mixes genders or datasets")
    usable = {s: us for s, us in pools[key].items() if len(us) >= 2}
    if len(usable) < m:
        raise SamplerError(f"partition {name} has {len(usable)} usable speakers, need {m}")
    rng = np.random.default_rng(seed)
    speakers = list(rng.choice(sorted(usable), size=m, replace=False))
    return _cross_product(key, usable, speakers, utts_per_batch, seed, rng)


def sample_epoch_algo2(
    utterances, cfg: SamplerConfig, n_batches: int
) -> list[TrialBatch]:
    """Repeated cross-product batches over all partitions.

    Speakers are drawn without replacement within a partition until
    exhausted, then the pool reshuffles.  m cycles through the configured
    range.  Finally the batch order is pooled and randomized.
    """
    pools = _speaker_pools(utterances)
    keys = sorted(pools)
    rng = np.random.default_rng(cfg.seed)
    batches: list[TrialBatch] = []
    # usable speakers in id order; even counts only: each splits into enroll/test halves
    capacity = {k: {s: len(us) // 2 * 2 for s, us in sorted(pools[k].items()) if len(us) >= 2}
                for k in keys}
    queue: dict[tuple[str, str], list[str]] = {k: [] for k in keys}

    def feasible_m(key, m_wanted: int) -> int | None:
        """Smallest m >= m_wanted whose top-m speakers can fill a batch."""
        caps = sorted(capacity[key].values(), reverse=True)
        for m in range(m_wanted, len(caps) + 1):
            if m >= 2 and sum(caps[:m]) >= cfg.utts_per_batch:
                return m
        return None

    if not any(feasible_m(key, cfg.m_min) for key in keys):
        raise SamplerError(
            f"no partition can supply {cfg.utts_per_batch} utterances "
            f"from {cfg.m_min}+ speakers"
        )
    m_cycle = list(range(cfg.m_min, cfg.m_max + 1))
    i = 0
    # some key is feasible, so every len(keys) passes add a batch: <= n_batches * len(keys)
    while len(batches) < n_batches:
        key = keys[i % len(keys)]
        i += 1
        m = feasible_m(key, m_cycle[len(batches) % len(m_cycle)]) or feasible_m(key, cfg.m_min)
        if m is None:
            continue
        speakers: list[str] = []
        total_cap = 0
        # a refill holds every usable speaker, enough for both tests: < 2 * len(refill) pops
        while len(speakers) < m or total_cap < cfg.utts_per_batch:
            if not queue[key]:
                refill = list(capacity[key])
                rng.shuffle(refill)
                queue[key].extend(refill)
            spk = queue[key].pop()
            if spk in speakers:
                continue
            speakers.append(spk)
            total_cap += capacity[key][spk]
        seed = int(rng.integers(2**31))
        batches.append(_cross_product(key, pools[key], speakers, cfg.utts_per_batch, seed,
                                      np.random.default_rng(seed)))
    return pool_and_shuffle(batches, int(rng.integers(2**31)))


def sample_trials_algo1(
    utterances,
    n_trials: int,
    target_ratio: float = 0.5,
    batch_size: int = 1024,
    seed: int = 0,
) -> list[TrialBatch]:
    """Pairwise sampling without utterance repetition, pooled into batches.

    Each partition contributes trials proportionally to its utterance count;
    every utterance is used at most once per epoch.  All sampled trials are
    pooled, shuffled, and split into fixed-size mixed batches.
    """
    if not 0.0 <= target_ratio <= 1.0:
        raise ArgumentError("target_ratio must lie in [0, 1]")
    if batch_size not in (1024, 2048):
        raise ArgumentError("batch_size must be 1024 or 2048")
    pools = _speaker_pools(utterances)
    keys = sorted(pools)
    if not keys:
        raise SamplerError("no utterances to sample from")
    rng = np.random.default_rng(seed)

    sizes = {k: sum(map(len, pools[k].values())) for k in keys}
    max_total = sum(sizes[k] // 2 for k in keys)
    if n_trials > max_total:
        raise SamplerError(
            f"{n_trials} trials unattainable without repetition; max is {max_total}"
        )

    total_utts = sum(sizes.values())
    quotas = {k: min(int(round(n_trials * sizes[k] / total_utts)), sizes[k] // 2)
              for k in keys}
    # Rounding can miss n_trials either way.  A shortfall goes where there is
    # room, in key order; a surplus (less than one trial per partition) is
    # taken back one trial per partition, from the last key.
    drift = n_trials - sum(quotas.values())
    for k in keys:
        take = max(0, min(sizes[k] // 2 - quotas[k], drift))
        quotas[k] += take
        drift -= take
    for k in reversed(keys):
        if drift < 0 and quotas[k] > 0:
            quotas[k] -= 1
            drift += 1

    # one entry per trial: its enroll and test utterances and its 0/1 label
    enroll: list[Utterance] = []
    test: list[Utterance] = []
    labels: list[float] = []
    for k in keys:
        # copies: shuffling and popping must leave the shared index as it is
        pool = {s: list(us) for s, us in pools[k].items()}
        for us in pool.values():
            rng.shuffle(us)
        made = 0
        # each pass makes one trial: quotas[k] passes
        while made < quotas[k]:
            # a quota of at most half the partition leaves >= 2 utterances, so
            # when the drawn label is impossible the other one is possible
            speakers = sorted(s for s, us in pool.items() if us)
            want_target = rng.random() < target_ratio
            eligible = [s for s in speakers if len(pool[s]) >= 2]
            if eligible and (want_target or len(speakers) < 2):
                spk = eligible[int(rng.integers(len(eligible)))]
                enroll.append(pool[spk].pop())
                test.append(pool[spk].pop())
                labels.append(1.0)
            else:
                se, st = rng.choice(len(speakers), size=2, replace=False)
                enroll.append(pool[speakers[int(se)]].pop())
                test.append(pool[speakers[int(st)]].pop())
                labels.append(0.0)
            made += 1

    # pooled, shuffled, then cut into batches carrying the utterances their
    # trials reference, in order of reference: no utterance repeats in an epoch
    order = rng.permutation(len(labels)).tolist()
    enroll, test = [enroll[i] for i in order], [test[i] for i in order]
    shuffled = np.array(labels)[order]
    batches: list[TrialBatch] = []
    for start in range(0, len(order), batch_size):
        cut = slice(start, start + batch_size)
        batches.append(TrialBatch(
            UtteranceSet([u for pair in zip(enroll[cut], test[cut]) for u in pair]),
            TrialList([u.id for u in enroll[cut]], [u.id for u in test[cut]], shuffled[cut]),
            tag=f"algo1/{start // batch_size}"))
    return batches


def pool_and_shuffle(batches: list[TrialBatch], seed: int) -> list[TrialBatch]:
    """Randomize batch order; it only permutes batches, never their trials.

    Cross-product batches keep their structure, and a batch's trials stay
    together and in order.
    """
    order = np.random.default_rng(seed).permutation(len(batches))
    return [batches[i] for i in order]


def write_batches(batches: list[TrialBatch], path) -> None:
    """Serialize batches to the trial-file format with manifest headers."""

    def lines():
        for b in batches:
            yield (f"#batch gender={b.gender or '-'} dataset={b.dataset_id or '-'} "
                   f"n_utts={len(b.utterances)} tag={b.tag}\n")
            yield from _trial_lines(b.trials)

    _write_lines(path, lines())
