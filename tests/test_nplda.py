import numpy as np
import pytest

from svkit import data, e2e, gplda, metrics, nn, nplda, sampling
from svkit.errors import ArgumentError, BatchCompositionError, NumericalError, StateError


@pytest.fixture(scope="module")
def fitted():
    """A fitted GPLDA model plus held-out embeddings and labelled trials."""
    rng = np.random.default_rng(100)
    D, q = 12, 3
    phi = 2.0 * rng.standard_normal((D, q))
    sigma = np.diag(0.5 + rng.random(D))
    train = data.synth_plda_embeddings(phi, sigma, 40, 10, seed=101)
    dev = data.synth_plda_embeddings(phi, sigma, 24, 6, seed=102, id_prefix="dev")
    chain = gplda.fit_preprocess(train, target_dim=8)
    proc = chain.apply(train.embedding_matrix())
    model = gplda.em_fit((proc, train.speaker_labels()), chain=chain)
    spk = {u.id: u.speaker_id for u in dev}
    ids = [u.id for u in dev]
    trng = np.random.default_rng(103)
    trials = []
    for _ in range(600):
        i, j = trng.choice(len(ids), size=2, replace=False)
        a, b = ids[int(i)], ids[int(j)]
        label = data.TARGET if spk[a] == spk[b] else data.NONTARGET
        trials.append(data.Trial(a, b, label))
    return model, dev, trials


def small_batch(rng, d=6, n_each=6):
    utts = [
        data.Utterance(f"u{i}", f"s{i % 3}", "M", "d", data.Embedding(rng.standard_normal(d)))
        for i in range(2 * n_each)
    ]
    trials = []
    for i in range(n_each):
        for j in range(n_each, 2 * n_each):
            label = data.TARGET if i % 3 == j % 3 else data.NONTARGET
            trials.append(data.Trial(f"u{i}", f"u{j}", label))
    return sampling.TrialBatch(data.UtteranceSet(utts), trials)


class TestInitEquivalence:
    def test_scores_match_pointwise(self, fitted):
        model, dev, trials = fitted
        g = gplda.score_trials(model, trials, dev)
        params = nplda.init_from_gplda(model, g)
        n = nplda.score_trials(params, trials, dev)
        assert np.max(np.abs(g.scores - n.scores)) < 1e-8

    def test_metrics_identical(self, fitted):
        model, dev, trials = fitted
        g = gplda.score_trials(model, trials, dev)
        params = nplda.init_from_gplda(model, g)
        n = nplda.score_trials(params, trials, dev)
        assert metrics.eer(g) == pytest.approx(metrics.eer(n), abs=1e-12)
        assert metrics.min_dcf(g)[0] == pytest.approx(metrics.min_dcf(n)[0], abs=1e-12)

    def test_theta_initialized_from_dev(self, fitted):
        model, dev, trials = fitted
        g = gplda.score_trials(model, trials, dev)
        params = nplda.init_from_gplda(model, g)
        _, theta_star = metrics.min_dcf(g)
        assert params.theta == pytest.approx(theta_star)
        assert nplda.init_from_gplda(model).theta == 0.0

    def test_parameter_shapes(self, fitted):
        model, dev, trials = fitted
        params = nplda.init_from_gplda(model)
        assert params.W1.shape == (8, 12)
        assert params.W2.shape == (8, 8)
        assert params.p.shape == (8,) and params.q.shape == (8,)

    def test_default_dimension_shapes(self):
        # stock dims: 512-dim embeddings projected to 170 by the first affine
        rng = np.random.default_rng(104)
        utts = [
            data.Utterance(
                f"u{s}-{r}", f"s{s}", "M", "d",
                data.Embedding(rng.standard_normal(512) + 3.0 * rng.standard_normal()),
            )
            for s in range(172)
            for r in range(2)
        ]
        # 344 samples cannot fill a 512-dim within scatter: the ridge kicks in
        with pytest.warns(UserWarning, match="ridge"):
            chain = gplda.fit_preprocess(data.UtteranceSet(utts))
        assert chain.lda.shape == (170, 512)
        proc = chain.apply(np.stack([u.payload.vector for u in utts]))
        model = gplda.em_fit(
            (proc, [u.speaker_id for u in utts]), latent_dim=8, n_iters=2, chain=chain
        )
        params = nplda.init_from_gplda(model)
        assert params.W1.shape == (170, 512)
        assert params.W2.shape == (170, 170)

    def test_requires_length_norm_chain(self):
        model = gplda.make_model(np.eye(2), np.eye(2))
        with pytest.raises(StateError):
            nplda.init_from_gplda(model)


class TestForward:
    def test_zero_diagonals_give_constant(self):
        rng = np.random.default_rng(0)
        params = nplda.init_random(5, 4, 3, seed=1)
        params.p = np.zeros(3)
        params.q = np.zeros(3)
        params.k = 1.25
        scores = nplda.forward(params, rng.standard_normal((7, 5)), rng.standard_normal((7, 5)))
        assert np.allclose(scores, 1.25, atol=1e-12)

    def test_symmetric_in_inputs(self):
        rng = np.random.default_rng(1)
        params = nplda.init_random(5, 4, 3, seed=2)
        e, t = rng.standard_normal(5), rng.standard_normal(5)
        assert nplda.forward(params, e, t) == pytest.approx(nplda.forward(params, t, e), abs=1e-12)


    @pytest.mark.parametrize("dims", [(10, 12, 8), (10, 4, 5)], ids=["lda-gt-in", "out-gt-lda"])
    def test_init_random_refuses_growing_dims(self, dims):
        with pytest.raises(ArgumentError) as exc:
            nplda.init_random(*dims, seed=0)
        assert f"got {dims[2]}, {dims[1]}, {dims[0]}" in str(exc.value)


class TestSoftDcfLoss:
    def test_separated_scores_near_zero_loss(self):
        cfg = nplda.LossConfig(alpha=1000.0, weights=metrics.DcfWeights(1, 1, 0.5))
        scores = np.array([2.0, 2.5, -2.0, -2.5])
        labels = np.array([1.0, 1.0, 0.0, 0.0])
        loss, _, _ = nplda.soft_dcf_loss(scores, labels, 0.0, cfg)
        assert loss < 1e-3

    def test_targets_at_threshold_give_half_miss(self):
        for alpha in (1.0, 10.0, 500.0):
            cfg = nplda.LossConfig(alpha=alpha, weights=metrics.DcfWeights(1, 1, 0.5))
            scores = np.array([0.5, 0.5, -3.0])
            labels = np.array([1.0, 1.0, 0.0])
            loss, _, _ = nplda.soft_dcf_loss(scores, labels, 0.5, cfg)
            # both targets sit exactly at theta: soft miss is exactly 0.5
            assert loss == pytest.approx(0.5 + 1.0 * nplda.sigmoid(np.array([alpha * -3.5]))[0], abs=1e-9)

    def test_single_class_batch_rejected(self):
        cfg = nplda.LossConfig()
        with pytest.raises(BatchCompositionError):
            nplda.soft_dcf_loss(np.array([1.0, 2.0]), np.array([1.0, 1.0]), 0.0, cfg)

    def test_monotone_in_scores(self):
        # decreasing in any target score, increasing in any non-target score
        rng = np.random.default_rng(2)
        cfg = nplda.LossConfig(alpha=3.0)
        scores = rng.standard_normal(20)
        labels = (rng.random(20) < 0.4).astype(float)
        labels[0], labels[1] = 1.0, 0.0
        base, dscores, _ = nplda.soft_dcf_loss(scores, labels, 0.1, cfg)
        assert np.all(dscores[labels == 1.0] <= 0)
        assert np.all(dscores[labels == 0.0] >= 0)
        bumped = scores.copy()
        bumped[0] += 0.05
        up, _, _ = nplda.soft_dcf_loss(bumped, labels, 0.1, cfg)
        assert up < base

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        cfg = nplda.LossConfig(alpha=7.0)
        scores = rng.standard_normal(30)
        labels = (rng.random(30) < 0.5).astype(float)
        labels[0], labels[1] = 1.0, 0.0
        a, _, _ = nplda.soft_dcf_loss(scores, labels, 0.2, cfg)
        b, _, _ = nplda.soft_dcf_loss(scores + 5.0, labels, 5.2, cfg)
        assert a == pytest.approx(b, abs=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_gradients(self, seed):
        rng = np.random.default_rng(seed)
        cfg = nplda.LossConfig(alpha=4.0)
        n = 25
        labels = (rng.random(n) < 0.4).astype(float)
        labels[0], labels[1] = 1.0, 0.0
        # keep scores inside the responsive band so no sigmoid saturates
        scores = rng.uniform(-1.5, 1.5, n)

        def f(s, th):
            loss, ds, dth = nplda.soft_dcf_loss(s, labels, float(th), cfg)
            return loss, [ds, np.array(dth)]

        assert nn.grad_check(f, [scores, np.array(0.1)]) < 1e-5

    def test_soft_approaches_hard_dcf(self):
        rng = np.random.default_rng(4)
        w = metrics.DcfWeights()
        n = 300
        labels = (rng.random(n) < 0.3).astype(float)
        labels[0], labels[1] = 1.0, 0.0
        scores = np.where(labels == 1.0, rng.normal(1.2, 0.8, n), rng.normal(-1.2, 0.8, n))
        theta = 0.05  # not equal to any score with probability one
        trials = [data.Trial(f"e{i}", f"t{i}", data.TARGET if l else data.NONTARGET)
                  for i, l in enumerate(labels)]
        hard = metrics.dcf(data.ScoredTrialSet(trials, scores), theta, w)
        last = None
        for alpha in (1.0, 4.0, 16.0, 64.0, 256.0, 1024.0):
            soft, _, _ = nplda.soft_dcf_loss(scores, labels, theta, nplda.LossConfig(alpha=alpha, weights=w))
            gap = abs(soft - hard)
            last = gap
        assert last < 0.01


class TestBatchGradients:
    @pytest.mark.parametrize("seed", range(20))
    def test_full_stack_gradcheck(self, seed):
        rng = np.random.default_rng(200 + seed)
        batch = small_batch(rng)
        params = nplda.init_random(6, 4, 3, seed=seed)
        cfg = nplda.LossConfig(alpha=4.0)
        names = ["W1", "b1", "W2", "b2", "p", "q", "k", "theta"]

        def f(*arrays):
            pr = nplda.NpldaParams(*arrays[:6], float(arrays[6]), float(arrays[7]))
            loss, grads = nplda.batch_loss_and_grads(pr, batch, cfg)
            return loss, [grads[n] for n in names]

        vals = [np.array(v, dtype=np.float64) for v in params.to_dict().values()]
        assert nn.grad_check(f, vals) < 1e-5

    def test_learn_theta_toggle(self):
        rng = np.random.default_rng(5)
        batch = small_batch(rng)
        params = nplda.init_random(6, 4, 3, seed=6)
        frozen = nplda.LossConfig(alpha=4.0, learn_theta=False)
        _, grads = nplda.batch_loss_and_grads(params, batch, frozen)
        assert grads["theta"] == 0.0


class TestTraining:
    def test_zero_lr_keeps_params(self, fitted):
        model, dev, trials = fitted
        g = gplda.score_trials(model, trials, dev)
        params = nplda.init_from_gplda(model, g)
        cfg = nplda.LossConfig()
        batches = sampling.sample_epoch_algo2(
            data.synth_plda_embeddings(2.0 * np.eye(12)[:, :3], np.eye(12), 20, 10, seed=7),
            sampling.SamplerConfig(seed=8), n_batches=3,
        )
        best, _ = nplda.train(params, batches, cfg, epochs=2, seed=9, lr=0.0)
        for name, value in params.to_dict().items():
            assert np.array_equal(np.asarray(value), np.asarray(best.to_dict()[name]))

    def test_deterministic_trace(self, fitted):
        model, dev, trials = fitted
        params = nplda.init_from_gplda(model)
        cfg = nplda.LossConfig()
        train_utts = data.synth_plda_embeddings(
            2.0 * np.eye(12)[:, :3], np.eye(12), 20, 10, seed=10
        )
        batches = sampling.sample_epoch_algo2(train_utts, sampling.SamplerConfig(seed=11), n_batches=4)
        runs = []
        for _ in range(2):
            best, trace = nplda.train(params, batches, cfg, epochs=3, seed=12,
                                      dev_trials=trials, dev_embeddings=dev)
            runs.append((best, trace))
        t0, t1 = runs[0][1], runs[1][1]
        assert [(r.epoch, r.loss, r.dev_eer, r.dev_mindcf) for r in t0] == [
            (r.epoch, r.loss, r.dev_eer, r.dev_mindcf) for r in t1
        ]
        for name in runs[0][0].to_dict():
            assert np.array_equal(
                np.asarray(runs[0][0].to_dict()[name]), np.asarray(runs[1][0].to_dict()[name])
            )

    def test_non_finite_loss_names_batch(self):
        rng = np.random.default_rng(13)
        batch = small_batch(rng)
        batch.tag = "poisoned"
        params = nplda.init_random(6, 4, 3, seed=14)
        params.k = np.nan
        with pytest.raises(NumericalError) as exc:
            nplda.train(params, [batch], nplda.LossConfig(), epochs=1, seed=15)
        assert "poisoned" in str(exc.value)

    def test_trace_csv(self, tmp_path):
        rows = [nplda.TraceRow(1, 0.5, 0.1, 0.9), nplda.TraceRow(2, 0.4, 0.08, 0.8)]
        path = tmp_path / "trace.csv"
        nplda.write_trace(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,loss,dev_eer,dev_mindcf"
        assert lines[1].startswith("1,0.5")


def _backend_case():
    rng = np.random.default_rng(300)
    phi = 2.0 * rng.standard_normal((6, 2))
    train = data.synth_plda_embeddings(phi, np.eye(6), 16, 6, seed=301)
    dev = data.synth_plda_embeddings(phi, np.eye(6), 8, 4, seed=302, id_prefix="dev")
    return nplda.train, nplda.score_trials, nplda.init_random(6, 4, 3, seed=303), train, dev


def _e2e_case():
    rng = np.random.default_rng(310)
    means = {f"spk{i:02d}": 2.0 * rng.standard_normal(3) for i in range(24)}
    train = data.synth_features(dict(list(means.items())[:16]), 1.0, 10, seed=311,
                                utts_per_speaker=6)
    dev = data.synth_features(dict(list(means.items())[16:]), 1.0, 10, seed=312,
                              utts_per_speaker=4)
    cfg = e2e.E2EConfig(
        layers=(e2e.TdnnLayerSpec(3, 4, (-1, 0, 1)), e2e.TdnnLayerSpec(4, 4, (0,))),
        embedding_dim=4, head_lda_dim=3, head_out_dim=3,
    )
    return e2e.train_e2e, e2e.score_trials, e2e.init_e2e(cfg, seed=313), train, dev


class TestBestDevContract:
    @pytest.mark.parametrize("case", [_backend_case, _e2e_case], ids=["nplda", "e2e"])
    def test_returns_lowest_dev_cost(self, case):
        # the returned model's dev minDCF is the least of the starting cost and
        # every epoch's, whether or not the last epoch was the best
        train, score, model, train_utts, dev = case()
        dev_trials = [
            data.Trial(a.id, b.id, data.TARGET if a.speaker_id == b.speaker_id else data.NONTARGET)
            for a in dev for b in dev if a.id != b.id
        ]
        batches = sampling.sample_epoch_algo2(
            train_utts, sampling.SamplerConfig(utts_per_batch=16, m_min=2, m_max=4, seed=5), 4
        )
        cfg = nplda.LossConfig(alpha=2.0, weights=metrics.DcfWeights(p_target=0.3))

        def dev_cost(m):
            return metrics.min_dcf(score(m, dev_trials, dev), cfg.weights)[0]

        best, trace = train(model, batches, cfg, 6, 7, dev_trials, dev, lr=0.01, patience=1)
        costs = [dev_cost(model)] + [r.dev_mindcf for r in trace]
        assert min(costs) < costs[-1]  # the final model is not the best one
        assert dev_cost(best) == min(costs)


class TestPersistence:
    def test_round_trip(self, tmp_path, fitted):
        model, dev, trials = fitted
        params = nplda.init_from_gplda(model)
        path = tmp_path / "nplda.ckpt"
        nplda.save_nplda(params, path)
        back = nplda.load_nplda(path)
        rng = np.random.default_rng(16)
        E, T = rng.standard_normal((10, 12)), rng.standard_normal((10, 12))
        assert np.array_equal(nplda.forward(params, E, T), nplda.forward(back, E, T))

    def test_kind_checked(self, tmp_path):
        from svkit.checkpoint import save_params

        path = tmp_path / "other.ckpt"
        save_params(path, {"x": np.zeros(2)}, {"kind": "gplda"})
        with pytest.raises(StateError):
            nplda.load_nplda(path)
