import numpy as np
import pytest

from svkit import data, e2e, nn, nplda, sampling
from svkit.errors import ArgumentError, LengthError, MissingIdError


def tiny_config(pooling="stddev"):
    return e2e.E2EConfig(
        layers=(
            e2e.TdnnLayerSpec(3, 4, (-1, 0, 1)),
            e2e.TdnnLayerSpec(4, 4, (0,)),
        ),
        pooling=pooling,
        embedding_dim=4,
        head_lda_dim=3,
        head_out_dim=3,
    )


def feature_utts(rng, n=4, T=9, d=3):
    return [
        data.Utterance(
            f"f{i}", f"s{i % 2}", "M", "d", data.FeatureMatrix(rng.standard_normal((T, d)))
        )
        for i in range(n)
    ]


def mixed_length_utts(rng):
    """Eleven utterances of 9 frames (more than one stack) and three of 12, interleaved."""
    return [
        data.Utterance(f"g{i:02d}", f"s{i % 3}", "M", "d",
                       data.FeatureMatrix(rng.standard_normal((12 if i % 5 == 2 else 9, 3))))
        for i in range(14)
    ]


def mixed_length_batch(rng):
    trials = [data.Trial(f"g{i:02d}", f"g{(5 * i + 3) % 14:02d}",
                         data.TARGET if i % 3 == (5 * i + 3) % 14 % 3 else data.NONTARGET)
              for i in range(14)]
    return sampling.TrialBatch(data.UtteranceSet(mixed_length_utts(rng)), trials)


def tiny_batch(rng, T=9):
    utts = feature_utts(rng, 4, T)
    trials = [
        data.Trial("f0", "f2", data.TARGET),
        data.Trial("f0", "f3", data.NONTARGET),
        data.Trial("f1", "f2", data.NONTARGET),
        data.Trial("f1", "f3", data.TARGET),
    ]
    return sampling.TrialBatch(data.UtteranceSet(utts), trials)


class TestConfig:
    def test_dims_must_chain(self):
        with pytest.raises(ArgumentError):
            e2e.E2EConfig(
                layers=(e2e.TdnnLayerSpec(3, 4, (0,)), e2e.TdnnLayerSpec(5, 4, (0,))),
            )

    def test_min_frames(self):
        cfg = tiny_config()
        assert cfg.min_frames == 2 + 2  # one span-2 layer plus two pooling frames

    def test_configs_ship(self):
        desk = e2e.desk_config()
        assert len(desk.layers) == 5
        paper = e2e.full_size_config()
        assert len(paper.layers) == 9


class TestExtraction:
    def test_deterministic_and_branch_tied(self):
        rng = np.random.default_rng(0)
        model = e2e.init_e2e(tiny_config(), seed=1)
        f = data.FeatureMatrix(rng.standard_normal((10, 3)))
        a = e2e.extract_embedding(model, f)
        b = e2e.extract_embedding(model, f)
        assert np.array_equal(a, b)

    def test_mutating_shared_weight_changes_both_sides(self):
        rng = np.random.default_rng(1)
        model = e2e.init_e2e(tiny_config(), seed=2)
        fe = data.FeatureMatrix(rng.standard_normal((10, 3)))
        ft = data.FeatureMatrix(rng.standard_normal((10, 3)))
        s0 = nplda.forward(model.head, e2e.extract_embedding(model, fe),
                           e2e.extract_embedding(model, ft))
        model.tdnn_W[0][0, 0] += 0.5
        ee, et = e2e.extract_embedding(model, fe), e2e.extract_embedding(model, ft)
        s1 = nplda.forward(model.head, ee, et)
        assert s0 != s1
        # identical inputs still produce identical embeddings: one parameter set
        assert np.array_equal(
            e2e.extract_embedding(model, fe), e2e.extract_embedding(model, fe)
        )

    def test_constant_input_pools_to_epsilon_stddev(self):
        model = e2e.init_e2e(tiny_config(), seed=3)
        frames = np.tile([0.3, -0.2, 1.0], (12, 1))
        layer_out = frames
        for layer, W, b in zip(model.config.layers, model.tdnn_W, model.tdnn_b):
            layer_out = nn.tdnn_layer(layer_out, layer.offsets, W, b)
        pooled = nn.stats_pool(layer_out, "stddev")
        k = layer_out.shape[1]
        assert np.allclose(pooled[k:], np.sqrt(nn.EPS_VAR), atol=1e-12)

    def test_too_short_utterance(self):
        model = e2e.init_e2e(tiny_config(), seed=4)
        with pytest.raises(LengthError):
            e2e.extract_embedding(model, np.zeros((3, 3)))

    def test_longer_stationary_input_converges(self):
        # pooled moments converge, so doubling T barely moves the embedding
        rng = np.random.default_rng(5)
        model = e2e.init_e2e(tiny_config(), seed=6)
        mean = rng.standard_normal(3)
        long = mean + 0.5 * rng.standard_normal((4000, 3))
        emb_short = e2e.extract_embedding(model, long[:2000])
        emb_long = e2e.extract_embedding(model, long)
        ref = np.linalg.norm(emb_short)
        assert np.linalg.norm(emb_long - emb_short) < 0.2 * max(ref, 1.0)


class TestScoreTrialBatch:
    def test_symmetry(self):
        rng = np.random.default_rng(7)
        model = e2e.init_e2e(tiny_config(), seed=8)
        batch = tiny_batch(rng)
        fwd = e2e.score_trials(model, batch.trials, batch.utterances)
        swapped = sampling.TrialBatch(
            batch.utterances,
            [data.Trial(t.test_id, t.enroll_id, t.label) for t in batch.trials],
        )
        rev = e2e.score_trials(model, swapped.trials, swapped.utterances)
        assert np.allclose(fwd.scores, rev.scores, atol=1e-12)

    def test_factorization_consistency(self):
        rng = np.random.default_rng(9)
        model = e2e.init_e2e(tiny_config(), seed=10)
        batch = tiny_batch(rng)
        scored = e2e.score_trials(model, batch.trials, batch.utterances)
        for trial, s in zip(batch.trials, scored.scores):
            emb_e = e2e.extract_embedding(model, batch.utterances[trial.enroll_id].payload)
            emb_t = e2e.extract_embedding(model, batch.utterances[trial.test_id].payload)
            assert s == pytest.approx(nplda.forward(model.head, emb_e, emb_t), abs=1e-12)

    def test_trial_order_invariance(self):
        rng = np.random.default_rng(10)
        model = e2e.init_e2e(tiny_config(), seed=11)
        batch = tiny_batch(rng)
        rev = sampling.TrialBatch(batch.utterances, batch.trials[::-1])
        assert np.allclose(
            e2e.score_trials(model, batch.trials, batch.utterances).scores,
            e2e.score_trials(model, rev.trials, rev.utterances).scores[::-1],
        )

    def test_stacks_match_per_utterance_extraction(self):
        rng = np.random.default_rng(40)
        model = e2e.init_e2e(tiny_config(), seed=41)
        batch = mixed_length_batch(rng)
        utts = batch.utterances
        ids, _, _ = data.pair_index(batch.trials.enroll, batch.trials.test, utts)
        X, _ = e2e._embed(model, [utts[u].payload.frames for u in ids], with_cache=False)
        for row, u in enumerate(ids):
            np.testing.assert_allclose(X[row], e2e.extract_embedding(model, utts[u].payload),
                                       rtol=1e-12, atol=1e-12)
        scored = e2e.score_trials(model, batch.trials, utts)
        for trial, s in zip(batch.trials, scored.scores):
            emb_e = e2e.extract_embedding(model, utts[trial.enroll_id].payload)
            emb_t = e2e.extract_embedding(model, utts[trial.test_id].payload)
            assert s == pytest.approx(nplda.forward(model.head, emb_e, emb_t), abs=1e-12)

    def test_dangling_reference(self):
        rng = np.random.default_rng(11)
        model = e2e.init_e2e(tiny_config(), seed=12)
        batch = tiny_batch(rng)
        trials = list(batch.trials) + [data.Trial("f0", "ghost", data.TARGET)]
        with pytest.raises(MissingIdError) as exc:
            e2e.score_trials(model, trials, batch.utterances)
        assert "ghost" in str(exc.value)

    def test_only_referenced_utterances_embedded(self):
        # an unreferenced utterance too short for the extractor is never embedded
        rng = np.random.default_rng(12)
        model = e2e.init_e2e(tiny_config(), seed=13)
        batch = tiny_batch(rng)
        short = data.Utterance("short", "s0", "M", "d", data.FeatureMatrix(np.zeros((2, 3))))
        utts = data.UtteranceSet(list(batch.utterances) + [short])
        scored = e2e.score_trials(model, batch.trials, utts)
        assert np.array_equal(scored.scores,
                              e2e.score_trials(model, batch.trials, batch.utterances).scores)


class TestGradients:
    @pytest.mark.parametrize("pooling", ["stddev", "variance"])
    def test_score_gradcheck(self, pooling):
        # full-chain finite differences on single-trial scores; seeds are
        # screened to keep every ReLU pre-activation away from its kink
        checked = 0
        seed = 0
        worst = 0.0
        while checked < 5 and seed < 30:
            model = e2e.init_e2e(tiny_config(pooling), seed=seed)
            rng = np.random.default_rng(500 + seed)
            seed += 1
            fe = rng.standard_normal((9, 3))
            ft = rng.standard_normal((9, 3))
            margin = min(
                e2e.min_abs_preactivation(model, fe),
                e2e.min_abs_preactivation(model, ft),
            )
            if margin < 1e-3:
                continue
            names = list(model.to_dict().keys())

            def f(*arrays):
                mm = model.from_dict(dict(zip(names, arrays)))
                score, grads = e2e.score_with_grads(mm, fe, ft)
                return score, [grads[n] for n in names]

            vals = [np.array(v, dtype=np.float64) for v in model.to_dict().values()]
            worst = max(worst, nn.grad_check(f, vals, atol=1e-6))
            checked += 1
        assert checked == 5
        assert worst < 1e-4

    @staticmethod
    def loss_gradcheck(batch):
        model = e2e.init_e2e(tiny_config(), seed=3)
        cfg = nplda.LossConfig(alpha=4.0)
        names = list(model.to_dict().keys())

        def f(*arrays):
            mm = model.from_dict(dict(zip(names, arrays)))
            loss, grads = e2e.batch_loss_and_grads(mm, batch, cfg)
            return loss, [grads[n] for n in names]

        vals = [np.array(v, dtype=np.float64) for v in model.to_dict().values()]
        return nn.grad_check(f, vals)

    def test_loss_gradcheck_small(self):
        assert self.loss_gradcheck(tiny_batch(np.random.default_rng(13))) < 1e-3

    def test_loss_gradcheck_cross_product(self):
        # a sampled cross-product batch: the head scores it as a block
        rng = np.random.default_rng(13)
        utts = [data.Utterance(f"x{i:02d}", f"s{i % 3}", "M", "d",
                               data.FeatureMatrix(rng.standard_normal((9, 3))))
                for i in range(12)]
        cfg = sampling.SamplerConfig(utts_per_batch=8, m_min=2, m_max=3, seed=4)
        batch, = sampling.sample_epoch_algo2(utts, cfg, n_batches=1)
        assert batch.block is not None
        assert self.loss_gradcheck(batch) < 1e-3

    def test_loss_gradcheck_mixed_lengths(self):
        # three stacks (8 + 3 utterances of 9 frames, 3 of 12) add into one gradient
        assert self.loss_gradcheck(mixed_length_batch(np.random.default_rng(13))) < 1e-3


class TestTraining:
    def test_zero_lr_keeps_model(self):
        rng = np.random.default_rng(14)
        model = e2e.init_e2e(tiny_config(), seed=15)
        batch = tiny_batch(rng)
        best, _ = e2e.train_e2e(model, [batch], nplda.LossConfig(alpha=2.0),
                                epochs=2, seed=16, lr=0.0)
        for name, v in model.to_dict().items():
            assert np.array_equal(np.asarray(v), np.asarray(best.to_dict()[name]))

    def test_deterministic(self):
        rng = np.random.default_rng(17)
        batch = tiny_batch(rng)
        outs = []
        for _ in range(2):
            model = e2e.init_e2e(tiny_config(), seed=18)
            best, trace = e2e.train_e2e(model, [batch], nplda.LossConfig(alpha=2.0),
                                        epochs=3, seed=19, lr=1e-3)
            outs.append((best, trace))
        for name in outs[0][0].to_dict():
            assert np.array_equal(
                np.asarray(outs[0][0].to_dict()[name]),
                np.asarray(outs[1][0].to_dict()[name]),
            )
        assert [(r.epoch, r.loss) for r in outs[0][1]] == [(r.epoch, r.loss) for r in outs[1][1]]

    def test_freeze_prefix(self):
        rng = np.random.default_rng(20)
        batch = tiny_batch(rng)
        model = e2e.init_e2e(tiny_config(), seed=21)
        best, _ = e2e.train_e2e(model, [batch], nplda.LossConfig(alpha=2.0),
                                epochs=2, seed=22, lr=1e-2, freeze_prefix=1)
        assert np.array_equal(model.tdnn_W[0], best.tdnn_W[0])
        assert not np.array_equal(model.tdnn_W[1], best.tdnn_W[1])

    @pytest.mark.parametrize("freeze", [1, 2])
    def test_frozen_slice_is_bit_identical(self, freeze):
        # the first layers lead the parameter vector: their whole slice keeps its bits
        rng = np.random.default_rng(23)
        model = e2e.init_e2e(tiny_config(), seed=24)
        start = model.vector.copy()
        best, _ = e2e.train_e2e(model, [tiny_batch(rng)], nplda.LossConfig(alpha=2.0),
                                epochs=3, seed=25, lr=1e-2, freeze_prefix=freeze)
        n = sum(model[f"tdnn{i}.{p}"].size for i in range(freeze) for p in "Wb")
        assert np.array_equal(best.vector[:n].view(np.int64), start[:n].view(np.int64))
        assert not np.array_equal(best.vector[n:], start[n:])
        assert np.array_equal(model.vector, start)

    def test_head_init_from_nplda_matches_backend_at_step_zero(self):
        # scoring embeddings with the backend equals scoring features with
        # the e2e model whose head was initialized from that backend
        rng = np.random.default_rng(23)
        cfg = tiny_config()
        extractor = e2e.init_e2e(cfg, seed=24)
        utts = feature_utts(rng, 8, T=12)
        embs = data.UtteranceSet(
            [
                data.Utterance(
                    u.id, u.speaker_id, u.gender, u.dataset_id,
                    data.Embedding(e2e.extract_embedding(extractor, u.payload)),
                )
                for u in utts
            ]
        )
        head = nplda.init_random(cfg.embedding_dim, cfg.head_lda_dim, cfg.head_out_dim, seed=25)
        trials = [data.Trial("f0", "f4"), data.Trial("f1", "f5"), data.Trial("f2", "f6")]
        backend_scores = nplda.score_trials(head, trials, embs)
        combo = e2e.init_e2e(cfg, seed=24, head=head)
        combo_scores = e2e.score_trials(combo, trials, data.UtteranceSet(utts))
        assert np.allclose(backend_scores.scores, combo_scores.scores, atol=1e-10)

    def test_head_dim_mismatch_rejected(self):
        head = nplda.init_random(7, 4, 3, seed=26)
        with pytest.raises(ArgumentError):
            e2e.init_e2e(tiny_config(), seed=27, head=head)


class TestOneVector:
    """The model's parameters, its gradients and their copies are vectors of one layout."""

    def test_named_parameters_are_views_of_the_vector(self):
        model = e2e.init_e2e(tiny_config(), seed=26)
        model.tdnn_W[1][0, 0] = 7.0
        model.head.theta = 0.25
        assert model["tdnn1.W"][0, 0] == 7.0
        assert model.vector[-1] == 0.25 and model["head.theta"] == 0.25
        assert list(model)[-8:] == [f"head.{n}" for n in ("W1", "b1", "W2", "b2", "p", "q",
                                                          "k", "theta")]
        assert np.shares_memory(model.head.vector, model.vector)

    def test_gradients_share_the_layout(self):
        rng = np.random.default_rng(27)
        model = e2e.init_e2e(tiny_config(), seed=28)
        _, grads = e2e.batch_loss_and_grads(model, tiny_batch(rng), nplda.LossConfig())
        assert grads.shapes == model.shapes and grads.vector.shape == model.vector.shape
        assert np.shares_memory(grads.head.vector, grads.vector)

    @pytest.mark.parametrize("make", [
        lambda m: m.copy(),
        lambda m: m.from_dict(m.to_dict()),
        lambda m: e2e._with_head(m, m.head),
        lambda m: e2e._with_head(m, nplda.init_random(4, 2, 2, seed=3)),
    ], ids=["copy", "from_dict", "with_own_head", "with_new_head"])
    def test_new_models_share_no_memory(self, make):
        model = e2e.init_e2e(tiny_config(), seed=29)
        start = model.vector.copy()
        other = make(model)
        assert not np.shares_memory(other.vector, model.vector)
        other.tdnn_W[0][...] = 0.0
        other.head.k = 5.0
        other_start = other.vector.copy()
        assert np.array_equal(model.vector, start)
        model.vector += 1.0
        model.head.theta = 2.0
        assert np.array_equal(other.vector, other_start)

    def test_with_head_keeps_the_extractor_and_copies_the_head(self):
        model = e2e.init_e2e(tiny_config(), seed=30)
        head = nplda.init_random(4, 2, 2, seed=3)
        warm = e2e._with_head(model, head)
        for name, value in model.to_dict().items():
            if not name.startswith("head."):
                assert np.array_equal(warm[name], value)
        assert np.array_equal(warm.head.vector, head.vector)
        assert not np.shares_memory(warm.head.vector, head.vector)


class TestMemoryEstimate:
    def test_zero_batch(self):
        assert e2e.estimate_memory(0, 100, tiny_config()).total_bytes == 0

    def test_hand_case(self):
        cfg = e2e.E2EConfig(
            layers=(e2e.TdnnLayerSpec(30, 10, (-2, -1, 0, 1, 2)),),
            embedding_dim=4, head_lda_dim=3, head_out_dim=2,
        )
        est = e2e.estimate_memory(1, 100, cfg)
        assert est.total_bytes == 2 * 1 * 100 * (30 * 5) * 16 == 480_000

    def test_linear_in_n_and_t(self):
        cfg = e2e.desk_config()
        base = e2e.estimate_memory(3, 50, cfg).total_bytes
        assert e2e.estimate_memory(6, 50, cfg).total_bytes == 2 * base
        assert e2e.estimate_memory(3, 150, cfg).total_bytes == 3 * base

    def test_paper_shape_batch_lands_in_hundreds_of_gigabytes(self):
        est = e2e.estimate_memory(2048, 2000, e2e.full_size_config())
        assert 120e9 <= est.total_bytes <= 480e9

    def test_breakdown_sums(self):
        est = e2e.estimate_memory(16, 200, e2e.desk_config())
        assert sum(b for _, b in est.per_layer) == est.total_bytes


class TestPersistence:
    def test_config_takes_the_head_dims(self, tmp_path):
        # a head of other inner dims than the config's defaults sets the config's
        model = e2e.init_e2e(e2e.desk_config(8), seed=0, head=nplda.init_random(16, 10, 6, seed=0))
        assert (model.config.head_lda_dim, model.config.head_out_dim) == (10, 6)
        e2e.save_e2e(model, tmp_path / "m.e2e")
        back = e2e.load_e2e(tmp_path / "m.e2e")
        assert back.config == model.config
        assert np.array_equal(back.vector, model.vector)

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(28)
        model = e2e.init_e2e(tiny_config("variance"), seed=29)
        path = tmp_path / "e2e.ckpt"
        e2e.save_e2e(model, path)
        back = e2e.load_e2e(path)
        assert back.config == model.config
        f = data.FeatureMatrix(rng.standard_normal((10, 3)))
        assert np.array_equal(
            e2e.extract_embedding(model, f), e2e.extract_embedding(back, f)
        )
