import numpy as np
import pytest

from svkit import data, sampling
from svkit.errors import ArgumentError, MissingIdError, SamplerError


def make_utts(n_speakers=8, utts_per_speaker=20, genders=("M",), datasets=("d1",), dim=3):
    rng = np.random.default_rng(0)
    out = []
    for g in genders:
        for ds in datasets:
            for s in range(n_speakers):
                for r in range(utts_per_speaker):
                    out.append(
                        data.Utterance(
                            f"{g}-{ds}-s{s}-u{r}", f"{g}-{ds}-s{s}", g, ds,
                            data.Embedding(rng.standard_normal(dim)),
                        )
                    )
    return out


def sides(batch):
    """The batch's enroll and test utterance ids, in order of first use."""
    return (list(dict.fromkeys(t.enroll_id for t in batch.trials)),
            list(dict.fromkeys(t.test_id for t in batch.trials)))


class TestAlgo2Batch:
    def test_m4_combinatorics(self):
        batch = sampling.sample_batch_algo2(make_utts(), m=4, seed=1)
        assert len(batch.utterances) == 64
        assert len(batch.trials) == 1024
        assert batch.n_targets() == 256
        assert len(batch.trials) - batch.n_targets() == 768
        enroll_ids, test_ids = sides(batch)
        assert len(enroll_ids) * len(test_ids) == 1024

    def test_single_gender_and_dataset(self):
        batch = sampling.sample_batch_algo2(make_utts(), m=5, seed=2)
        assert batch.gender == "M" and batch.dataset_id == "d1"
        assert all(u.gender == "M" and u.dataset_id == "d1" for u in batch.utterances)

    def test_no_utterance_on_both_sides(self):
        batch = sampling.sample_batch_algo2(make_utts(), m=6, seed=3)
        enroll_ids, test_ids = sides(batch)
        assert not set(enroll_ids) & set(test_ids)
        assert len(set(enroll_ids)) == 32
        assert len(set(test_ids)) == 32

    def test_target_count_formula(self):
        # targets = sum over speakers of enroll_s * test_s
        batch = sampling.sample_batch_algo2(make_utts(), m=5, seed=4)
        spk_of = {u.id: u.speaker_id for u in batch.utterances}
        per_spk_e = {}
        per_spk_t = {}
        enroll_ids, test_ids = sides(batch)
        for i in enroll_ids:
            per_spk_e[spk_of[i]] = per_spk_e.get(spk_of[i], 0) + 1
        for i in test_ids:
            per_spk_t[spk_of[i]] = per_spk_t.get(spk_of[i], 0) + 1
        expected = sum(per_spk_e[s] * per_spk_t.get(s, 0) for s in per_spk_e)
        assert batch.n_targets() == expected

    def test_labels_are_correct(self):
        batch = sampling.sample_batch_algo2(make_utts(), m=4, seed=5)
        spk_of = {u.id: u.speaker_id for u in batch.utterances}
        for t in batch.trials:
            expected = data.TARGET if spk_of[t.enroll_id] == spk_of[t.test_id] else data.NONTARGET
            assert t.label == expected

    def test_uneven_m_allocation(self):
        # 64 does not divide by 3 or 5; every speaker still gets an even count
        for m in (3, 5, 6, 7):
            batch = sampling.sample_batch_algo2(make_utts(utts_per_speaker=30), m=m, seed=6)
            counts = {}
            for u in batch.utterances:
                counts[u.speaker_id] = counts.get(u.speaker_id, 0) + 1
            assert sum(counts.values()) == 64
            assert all(c % 2 == 0 and c >= 2 for c in counts.values())
            assert max(counts.values()) - min(counts.values()) <= 2

    def test_insufficient_speakers(self):
        with pytest.raises(SamplerError):
            sampling.sample_batch_algo2(make_utts(n_speakers=3), m=4, seed=7)

    def test_m_above_half_batch_refused(self):
        # 8 utterances give 4 enroll/test pairs, too few for 5 speakers
        with pytest.raises(ArgumentError, match="m = 5"):
            sampling.sample_batch_algo2(make_utts(), m=5, seed=7, utts_per_batch=8)

    def test_mixed_partition_rejected(self):
        utts = make_utts(genders=("M", "F"))
        with pytest.raises(SamplerError):
            sampling.sample_batch_algo2(utts, m=4, seed=8)

    def test_deterministic(self):
        a = sampling.sample_batch_algo2(make_utts(), m=4, seed=9)
        b = sampling.sample_batch_algo2(make_utts(), m=4, seed=9)
        assert [t for t in a.trials] == [t for t in b.trials]


class TestAlgo2Epoch:
    def test_all_batches_homogeneous(self):
        utts = make_utts(n_speakers=12, genders=("M", "F"), datasets=("d1", "d2"))
        cfg = sampling.SamplerConfig(seed=1)
        batches = sampling.sample_epoch_algo2(utts, cfg, n_batches=12)
        assert len(batches) == 12
        for b in batches:
            genders = {u.gender for u in b.utterances}
            datasets = {u.dataset_id for u in b.utterances}
            assert len(genders) == 1 and len(datasets) == 1
            assert len(b.utterances) == 64
            assert len(b.trials) == 1024

    def test_small_capacity_grows_m(self):
        # 12 utterances per speaker force more than m_min speakers per batch
        utts = make_utts(n_speakers=10, utts_per_speaker=12)
        cfg = sampling.SamplerConfig(seed=2, m_min=3, m_max=4)
        batches = sampling.sample_epoch_algo2(utts, cfg, n_batches=4)
        for b in batches:
            speakers = {u.speaker_id for u in b.utterances}
            assert len(speakers) >= 6  # 64 / 12 rounded up

    def test_deterministic(self):
        utts = make_utts(n_speakers=12)
        cfg = sampling.SamplerConfig(seed=3)
        a = sampling.sample_epoch_algo2(utts, cfg, n_batches=6)
        b = sampling.sample_epoch_algo2(utts, cfg, n_batches=6)
        assert [t for bb in a for t in bb.trials] == [t for bb in b for t in bb.trials]

    def test_impossible_partition(self):
        utts = make_utts(n_speakers=2, utts_per_speaker=3)
        with pytest.raises(SamplerError):
            sampling.sample_epoch_algo2(utts, sampling.SamplerConfig(seed=4), n_batches=2)


class TestAlgo1:
    def test_no_utterance_repetition_per_epoch(self):
        utts = make_utts(n_speakers=10, utts_per_speaker=10,
                         genders=("M", "F"), datasets=("d1", "d2"))
        batches = sampling.sample_trials_algo1(utts, n_trials=150, seed=1)
        used = []
        for b in batches:
            for t in b.trials:
                used.append(t.enroll_id)
                used.append(t.test_id)
        assert len(used) == len(set(used))
        assert sum(len(b.trials) for b in batches) >= 150

    def test_batches_can_mix_partitions(self):
        utts = make_utts(n_speakers=10, utts_per_speaker=10,
                         genders=("M", "F"), datasets=("d1", "d2"))
        batches = sampling.sample_trials_algo1(utts, n_trials=190, seed=2)
        genders = {u.gender for b in batches for u in b.utterances}
        datasets = {u.dataset_id for b in batches for u in b.utterances}
        assert genders == {"M", "F"} and datasets == {"d1", "d2"}
        assert all(b.gender is None for b in batches)

    def test_trials_within_partition(self):
        # pairs never cross gender or dataset even in pooled batches
        utts = make_utts(n_speakers=10, utts_per_speaker=10,
                         genders=("M", "F"), datasets=("d1", "d2"))
        batches = sampling.sample_trials_algo1(utts, n_trials=180, seed=3)
        info = {u.id: (u.gender, u.dataset_id) for b in batches for u in b.utterances}
        for b in batches:
            for t in b.trials:
                assert info[t.enroll_id] == info[t.test_id]

    def test_target_ratio_one_is_all_targets(self):
        utts = make_utts(n_speakers=6, utts_per_speaker=10)
        batches = sampling.sample_trials_algo1(utts, n_trials=20, target_ratio=1.0, seed=4)
        assert all(t.label == data.TARGET for b in batches for t in b.trials)

    def test_unattainable_count_reports_maximum(self):
        utts = make_utts(n_speakers=4, utts_per_speaker=4)
        with pytest.raises(SamplerError) as exc:
            sampling.sample_trials_algo1(utts, n_trials=1000, seed=5)
        assert "8" in str(exc.value)  # 16 utterances allow at most 8 trials

    def test_deterministic(self):
        utts = make_utts(n_speakers=8, utts_per_speaker=8)
        a = sampling.sample_trials_algo1(utts, n_trials=30, seed=6)
        b = sampling.sample_trials_algo1(utts, n_trials=30, seed=6)
        assert [t for bb in a for t in bb.trials] == [t for bb in b for t in bb.trials]

    @pytest.mark.parametrize("n_trials", [6, 14, 22])
    def test_exact_trial_count(self, n_trials):
        # four partitions of 40 utterances: every quota n_trials / 4 rounds up
        utts = make_utts(n_speakers=4, utts_per_speaker=10,
                         genders=("M", "F"), datasets=("d1", "d2"))
        batches = sampling.sample_trials_algo1(utts, n_trials=n_trials, seed=0)
        assert sum(len(b.trials) for b in batches) == n_trials

    def test_batch_size_validated(self):
        with pytest.raises(ArgumentError):
            sampling.sample_trials_algo1(make_utts(), n_trials=10, batch_size=100, seed=0)

    @pytest.mark.parametrize("n_speakers, utts_per_speaker, n_trials",
                             [(1, 8, 2), (2, 3, 3)])
    def test_feasible_request_never_fails(self, n_speakers, utts_per_speaker, n_trials):
        # one speaker has only target pairs, and 2 x 3 utterances run out of
        # one label on some draws: the other label must be made instead
        utts = make_utts(n_speakers=n_speakers, utts_per_speaker=utts_per_speaker)
        speaker = {u.id: u.speaker_id for u in utts}
        for seed in range(50):
            batches = sampling.sample_trials_algo1(utts, n_trials, target_ratio=0.5, seed=seed)
            trials = [t for b in batches for t in b.trials]
            assert len(trials) == n_trials
            for t in trials:
                assert (t.label == data.TARGET) == (speaker[t.enroll_id] == speaker[t.test_id])


class TestPoolAndShuffle:
    def test_homogeneous_batches_stay_intact(self):
        utts = make_utts(n_speakers=12)
        cfg = sampling.SamplerConfig(seed=5)
        batches = sampling.sample_epoch_algo2(utts, cfg, n_batches=5)
        shuffled = sampling.pool_and_shuffle(batches, seed=7)
        orig = {id(b.trials[0]): [t for t in b.trials] for b in batches}
        assert len(shuffled) == len(batches)
        for b in shuffled:
            assert [t for t in b.trials] in list(orig.values())

    def test_multiset_preserved(self):
        utts = make_utts(n_speakers=10, utts_per_speaker=10,
                         genders=("M", "F"))
        batches = sampling.sample_trials_algo1(utts, n_trials=90, seed=8)
        shuffled = sampling.pool_and_shuffle(batches, seed=9)
        orig = sorted((t.enroll_id, t.test_id, t.label) for b in batches for t in b.trials)
        new = sorted((t.enroll_id, t.test_id, t.label) for b in shuffled for t in b.trials)
        assert orig == new

    def test_different_seeds_change_order(self):
        utts = make_utts(n_speakers=12)
        batches = sampling.sample_epoch_algo2(utts, sampling.SamplerConfig(seed=10), n_batches=6)
        a = sampling.pool_and_shuffle(batches, seed=1)
        b = sampling.pool_and_shuffle(batches, seed=2)
        assert [x.tag for x in a] != [x.tag for x in b]

    def test_empty_input(self):
        assert sampling.pool_and_shuffle([], seed=0) == []


class TestSerialization:
    def test_manifest_headers(self, tmp_path):
        utts = make_utts(n_speakers=8)
        batch = sampling.sample_batch_algo2(utts, m=4, seed=11)
        path = tmp_path / "batches.txt"
        sampling.write_batches([batch], path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#batch gender=M dataset=d1")
        trials = data.read_trials(path)  # comments are skipped
        assert len(trials) == 1024


class TestBatchIndex:
    @pytest.mark.parametrize("sample", [
        lambda utts: sampling.sample_epoch_algo2(utts, sampling.SamplerConfig(seed=3), 4),
        lambda utts: sampling.sample_trials_algo1(utts, n_trials=1500, seed=3),
    ], ids=["algo2", "algo1"])
    def test_index_and_labels_match_the_trials(self, sample):
        batches = sample(make_utts(n_speakers=40, utts_per_speaker=40, genders=("M", "F")))
        for batch in batches:
            ids, e_idx, t_idx = data.pair_index(batch.trials, batch.utterances)
            assert batch.ids == ids
            assert np.array_equal(batch.e_idx, e_idx)
            assert np.array_equal(batch.t_idx, t_idx)
            assert np.array_equal(batch.labels, data._labels(batch.trials))

    def test_unlabelled_trial_fails_at_construction(self):
        utts = data.UtteranceSet(make_utts(n_speakers=2, utts_per_speaker=2))
        trials = [data.Trial("M-d1-s0-u0", "M-d1-s0-u1", data.TARGET),
                  data.Trial("M-d1-s0-u0", "M-d1-s1-u0")]
        with pytest.raises(ArgumentError) as exc:
            sampling.TrialBatch(utts, trials)
        assert "M-d1-s0-u0/M-d1-s1-u0" in str(exc.value)

    def test_missing_utterance_fails_at_construction(self):
        utts = data.UtteranceSet(make_utts(n_speakers=2, utts_per_speaker=2))
        with pytest.raises(MissingIdError) as exc:
            sampling.TrialBatch(utts, [data.Trial("M-d1-s0-u0", "ghost", data.NONTARGET)])
        assert exc.value.ids == ["ghost"]


class TestCrossProduct:
    @pytest.mark.parametrize("enroll, test, labels", [
        ([], ["b"], np.zeros((0, 1))),
        (["a", "a"], ["b"], np.zeros((2, 1))),
        (["a"], ["b", "c"], np.zeros((2, 1))),
        (["a"], ["b"], np.full((1, 1), 0.5)),
    ], ids=["empty-side", "repeated-id", "label-shape", "label-value"])
    def test_bad_block_fails_at_construction(self, enroll, test, labels):
        with pytest.raises(ArgumentError):
            sampling.CrossProduct(enroll, test, labels)

    def test_missing_utterance_fails_at_construction(self):
        utts = data.UtteranceSet(make_utts(n_speakers=2, utts_per_speaker=2))
        block = sampling.CrossProduct(["M-d1-s0-u0"], ["ghost"], np.zeros((1, 1)))
        with pytest.raises(MissingIdError) as exc:
            sampling.TrialBatch(utts, block)
        assert exc.value.ids == ["ghost"]

    def test_sampled_batches_are_blocks(self):
        utts = make_utts(n_speakers=40, utts_per_speaker=40, genders=("M", "F"))
        for batch in sampling.sample_epoch_algo2(utts, sampling.SamplerConfig(seed=3), 4):
            e_rows, t_rows = batch.block
            assert (len(e_rows), len(t_rows)) == (32, 32)
            # each speaker's enroll and test halves: labels mark same-speaker pairs
            spk = [batch.utterances[u].speaker_id for u in batch.ids]
            same = np.equal.outer([spk[r] for r in e_rows], [spk[r] for r in t_rows])
            assert np.array_equal(batch.labels.reshape(32, 32), same)

