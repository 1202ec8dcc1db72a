"""Trial-batch construction for backend and end-to-end training.

Two samplers are provided.  The pairwise sampler draws enroll/test pairs
within each gender+dataset partition without reusing any utterance inside an
epoch, then pools and shuffles everything into fixed-size batches whose
trials may mix genders and datasets.  The cross-product sampler instead
builds each batch from a small set of utterances of m speakers, all of one
gender and one dataset, splits every speaker's utterances into enroll and
test halves, and labels the full cross product; 64 utterances split 32/32
yield 1024 trials.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import NONTARGET, TARGET, Trial, Utterance
from .errors import ArgumentError, SamplerError

UTTS_PER_BATCH = 64
TRIALS_PER_BATCH = 1024


@dataclass(frozen=True)
class SamplerConfig:
    utts_per_batch: int = UTTS_PER_BATCH
    m_min: int = 3
    m_max: int = 8
    trials_per_batch: int = TRIALS_PER_BATCH
    seed: int = 0

    def __post_init__(self):
        if self.utts_per_batch % 2 != 0:
            raise ArgumentError("utts_per_batch must be even")
        if self.m_min < 2 or self.m_max < self.m_min:
            raise ArgumentError("need m_max >= m_min >= 2")


@dataclass
class TrialBatch:
    """Trials plus the utterances they reference.

    gender/dataset_id are set for single-partition batches and None for
    pooled mixed batches.
    """

    utterances: list[Utterance]
    enroll_ids: list[str]
    test_ids: list[str]
    trials: list[Trial]
    gender: str | None = None
    dataset_id: str | None = None
    tag: str = ""

    def n_targets(self) -> int:
        return sum(1 for t in self.trials if t.is_target)

    def utterance_by_id(self) -> dict[str, Utterance]:
        return {u.id: u for u in self.utterances}


def partition_by_gender_dataset(utterances) -> dict[tuple[str, str], list[Utterance]]:
    parts: dict[tuple[str, str], list[Utterance]] = {}
    for u in utterances:
        parts.setdefault((u.gender, u.dataset_id), []).append(u)
    return parts


def _allocate_counts(m: int, utts_per_batch: int, available: list[int]) -> list[int]:
    """Even utterance counts per speaker summing to utts_per_batch.

    Distributes pairs (so halves split cleanly) as evenly as possible, then
    round-robins the remainder, honoring per-speaker availability.
    """
    pairs_total = utts_per_batch // 2
    base = pairs_total // m
    rem = pairs_total % m
    pairs = [base + (1 if i < rem else 0) for i in range(m)]
    capacity = [a // 2 for a in available]
    # Shift overflow pairs to speakers with spare capacity.
    for i in range(m):
        while pairs[i] > capacity[i]:
            moved = False
            for j in range(m):
                if pairs[j] < capacity[j]:
                    pairs[i] -= 1
                    pairs[j] += 1
                    moved = True
                    break
            if not moved:
                raise SamplerError(
                    f"cannot place {utts_per_batch} utterances on {m} speakers "
                    f"with capacities {available}"
                )
    if min(pairs) < 1:
        raise SamplerError(f"allocation left a speaker empty: pairs={pairs}")
    return [2 * p for p in pairs]


def sample_batch_algo2(
    partition: list[Utterance],
    m: int,
    seed: int,
    utts_per_batch: int = UTTS_PER_BATCH,
    speakers: list[str] | None = None,
) -> TrialBatch:
    """One gender/dataset-homogeneous cross-product batch from m speakers."""
    if not partition:
        raise SamplerError("empty partition")
    gender = partition[0].gender
    dataset = partition[0].dataset_id
    name = f"{gender}/{dataset}"
    by_spk: dict[str, list[Utterance]] = {}
    for u in partition:
        if u.gender != gender or u.dataset_id != dataset:
            raise SamplerError(f"partition {name} mixes genders or datasets")
        by_spk.setdefault(u.speaker_id, []).append(u)
    usable = {s: us for s, us in by_spk.items() if len(us) >= 2}
    if speakers is None:
        if len(usable) < m:
            raise SamplerError(
                f"partition {name} has {len(usable)} usable speakers, need {m}"
            )
        rng = np.random.default_rng(seed)
        speakers = list(rng.choice(sorted(usable), size=m, replace=False))
    else:
        if len(speakers) != m:
            raise ArgumentError(f"expected {m} speakers, got {len(speakers)}")
        for s in speakers:
            if s not in usable:
                raise SamplerError(f"speaker {s!r} unusable in partition {name}")
        rng = np.random.default_rng(seed)
    counts = _allocate_counts(m, utts_per_batch, [len(usable[s]) for s in speakers])

    utterances: list[Utterance] = []
    enroll_ids: list[str] = []
    test_ids: list[str] = []
    side_speaker: dict[str, str] = {}
    for spk, count in zip(speakers, counts):
        pool = sorted(usable[spk], key=lambda u: u.id)
        chosen = list(rng.choice(len(pool), size=count, replace=False))
        chosen_utts = [pool[i] for i in chosen]
        rng.shuffle(chosen_utts)
        half = count // 2
        for u in chosen_utts[:half]:
            enroll_ids.append(u.id)
        for u in chosen_utts[half:]:
            test_ids.append(u.id)
        utterances.extend(chosen_utts)
        for u in chosen_utts:
            side_speaker[u.id] = spk

    trials = [
        Trial(e, t, TARGET if side_speaker[e] == side_speaker[t] else NONTARGET)
        for e in enroll_ids
        for t in test_ids
    ]
    return TrialBatch(
        utterances=utterances,
        enroll_ids=enroll_ids,
        test_ids=test_ids,
        trials=trials,
        gender=gender,
        dataset_id=dataset,
        tag=f"{name}/m{m}/seed{seed}",
    )


def sample_epoch_algo2(
    utterances, cfg: SamplerConfig, n_batches: int
) -> list[TrialBatch]:
    """Repeated cross-product batches over all partitions.

    Speakers are drawn without replacement within a partition until
    exhausted, then the pool reshuffles.  m cycles through the configured
    range.  Finally the batch order is pooled and randomized.
    """
    parts = partition_by_gender_dataset(utterances)
    keys = sorted(parts)
    rng = np.random.default_rng(cfg.seed)
    batches: list[TrialBatch] = []
    pools: dict[tuple[str, str], list[str]] = {}
    usable: dict[tuple[str, str], list[str]] = {}
    capacity: dict[tuple[str, str], dict[str, int]] = {}
    for key in keys:
        by_spk: dict[str, int] = {}
        for u in parts[key]:
            by_spk[u.speaker_id] = by_spk.get(u.speaker_id, 0) + 1
        usable[key] = sorted(s for s, c in by_spk.items() if c >= 2)
        # even counts only: each speaker splits into enroll/test halves
        capacity[key] = {s: (by_spk[s] // 2) * 2 for s in usable[key]}
        pools[key] = []

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
    while len(batches) < n_batches:
        key = keys[i % len(keys)]
        i += 1
        m = feasible_m(key, m_cycle[len(batches) % len(m_cycle)])
        if m is None:
            m = feasible_m(key, cfg.m_min)
        if m is None:
            if len(keys) == 1:
                raise SamplerError(f"partition {key} has too few usable speakers")
            continue
        speakers: list[str] = []
        total_cap = 0
        while len(speakers) < m or total_cap < cfg.utts_per_batch:
            if not pools[key]:
                refill = list(usable[key])
                rng.shuffle(refill)
                pools[key].extend(refill)
            spk = pools[key].pop()
            if spk in speakers:
                continue
            speakers.append(spk)
            total_cap += capacity[key][spk]
        m = len(speakers)
        batches.append(
            sample_batch_algo2(
                parts[key],
                m,
                seed=int(rng.integers(2**31)),
                utts_per_batch=cfg.utts_per_batch,
                speakers=speakers,
            )
        )
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
    parts = partition_by_gender_dataset(utterances)
    keys = sorted(parts)
    if not keys:
        raise SamplerError("no utterances to sample from")
    rng = np.random.default_rng(seed)

    max_total = sum(len(parts[k]) // 2 for k in keys)
    if n_trials > max_total:
        raise SamplerError(
            f"{n_trials} trials unattainable without repetition; max is {max_total}"
        )

    total_utts = sum(len(parts[k]) for k in keys)
    quotas = {k: int(round(n_trials * len(parts[k]) / total_utts)) for k in keys}
    # Fix rounding drift against per-partition capacity.
    for k in keys:
        quotas[k] = min(quotas[k], len(parts[k]) // 2)
    deficit = n_trials - sum(quotas.values())
    for k in keys:
        if deficit <= 0:
            break
        room = len(parts[k]) // 2 - quotas[k]
        take = min(room, deficit)
        quotas[k] += take
        deficit -= take
    if deficit > 0:
        raise SamplerError(
            f"{n_trials} trials unattainable without repetition; max is {max_total}"
        )

    all_trials: list[tuple[Trial, Utterance, Utterance]] = []
    for k in keys:
        by_spk: dict[str, list[Utterance]] = {}
        for u in parts[k]:
            by_spk.setdefault(u.speaker_id, []).append(u)
        pool: dict[str, list[Utterance]] = {
            s: sorted(us, key=lambda u: u.id) for s, us in by_spk.items()
        }
        for us in pool.values():
            rng.shuffle(us)
        made = 0
        while made < quotas[k]:
            speakers = sorted(s for s, us in pool.items() if us)
            if not speakers:
                raise SamplerError(f"partition {k} exhausted after {made} trials")
            want_target = rng.random() < target_ratio
            if want_target:
                eligible = [s for s in speakers if len(pool[s]) >= 2]
                if not eligible:
                    raise SamplerError(
                        f"partition {k} cannot produce more target trials ({made} made)"
                    )
                spk = eligible[int(rng.integers(len(eligible)))]
                enroll = pool[spk].pop()
                test = pool[spk].pop()
                label = TARGET
            else:
                if len(speakers) < 2:
                    raise SamplerError(
                        f"partition {k} cannot produce more non-target trials ({made} made)"
                    )
                se, st = rng.choice(len(speakers), size=2, replace=False)
                enroll = pool[speakers[int(se)]].pop()
                test = pool[speakers[int(st)]].pop()
                label = NONTARGET
            all_trials.append((Trial(enroll.id, test.id, label), enroll, test))
            made += 1

    order = rng.permutation(len(all_trials))
    return _mixed_batches([all_trials[i] for i in order], batch_size, "algo1")


def _mixed_batches(flat: list[tuple[Trial, Utterance, Utterance]], size: int,
                   prefix: str) -> list[TrialBatch]:
    """Consecutive batches of ``size`` trials, tagged ``<prefix>/<index>``.

    Each batch carries the utterances its trials reference, in order of
    first reference; gender and dataset are None because trials may mix.
    """
    batches: list[TrialBatch] = []
    for start in range(0, len(flat), size):
        chunk = flat[start : start + size]
        utts: dict[str, Utterance] = {}
        for _, e, t in chunk:
            utts.setdefault(e.id, e)
            utts.setdefault(t.id, t)
        batches.append(
            TrialBatch(
                utterances=list(utts.values()),
                enroll_ids=[tr.enroll_id for tr, _, _ in chunk],
                test_ids=[tr.test_id for tr, _, _ in chunk],
                trials=[tr for tr, _, _ in chunk],
                gender=None,
                dataset_id=None,
                tag=f"{prefix}/{start // size}",
            )
        )
    return batches


def pool_and_shuffle(batches: list[TrialBatch], seed: int) -> list[TrialBatch]:
    """Randomize batch order; mixed batches are reshuffled at trial level.

    Homogeneous (single gender+dataset) batches stay intact so their
    cross-product structure survives; pooled mixed batches are flattened,
    permuted, and re-batched at their original size.
    """
    if not batches:
        return []
    rng = np.random.default_rng(seed)
    if all(b.gender is not None for b in batches):
        order = rng.permutation(len(batches))
        return [batches[i] for i in order]
    flat: list[tuple[Trial, Utterance, Utterance]] = []
    size = max(len(b.trials) for b in batches)
    for b in batches:
        lookup = b.utterance_by_id()
        for t in b.trials:
            flat.append((t, lookup[t.enroll_id], lookup[t.test_id]))
    order = rng.permutation(len(flat))
    return _mixed_batches([flat[i] for i in order], size, "pooled")


def write_batches(batches: list[TrialBatch], path) -> None:
    """Serialize batches to the trial-file format with manifest headers."""
    with open(path, "w") as fh:
        for b in batches:
            fh.write(
                f"#batch gender={b.gender or '-'} dataset={b.dataset_id or '-'} "
                f"n_utts={len(b.utterances)} tag={b.tag}\n"
            )
            for t in b.trials:
                fh.write(f"{t.enroll_id} {t.test_id} {t.label}\n")
