"""Acceptance suite: one test per release criterion, printed pass/fail.

Every criterion is exercised at its stated tolerance; the directional
pipeline experiment drives the shipped CLI end to end on the frozen
synthetic benchmark.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time

import numpy as np
import pytest

from svkit import cli, data, e2e, gplda, metrics, nn, nplda, sampling


def report(name, ok, detail=""):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name} {detail}")
    assert ok, f"{name}: {detail}"


# -----------------------------------------------------------------------
# shared synthetic fixtures
# -----------------------------------------------------------------------


def random_plda_model(rng, d_max=8):
    d = int(rng.integers(1, d_max + 1))
    q = int(rng.integers(1, d + 1))
    A = rng.standard_normal((d, d))
    sigma_wc = A @ A.T + d * np.eye(d)
    B = rng.standard_normal((d, q))
    return gplda.make_model(B @ B.T, sigma_wc)


class TestCriterion1GpldaOracle:
    def test_score_equals_llr_oracle(self):
        """100+ random models (dim <= 8), 100 pairs each, |score - oracle| < 1e-8."""
        t0 = time.time()
        rng = np.random.default_rng(1001)
        worst = 0.0
        for _ in range(100):
            model = random_plda_model(rng)
            E = rng.standard_normal((100, model.dim))
            T = rng.standard_normal((100, model.dim))
            scores = gplda.score_pairs(model, E, T)
            for i in range(100):
                worst = max(worst, abs(scores[i] - gplda.llr_oracle(model, E[i], T[i])))
        elapsed = time.time() - t0
        report(
            "criterion 1: GPLDA-oracle equivalence",
            worst < 1e-8 and elapsed < 10.0,
            f"max|diff|={worst:.2e} runtime={elapsed:.1f}s",
        )


class TestCriterion2HandValues:
    def test_unit_covariance_scoring_matrices(self):
        """Sigma_ac = Sigma_wc = 1 gives Q = -1/6 and P = 1/3 within 1e-12."""
        model = gplda.make_model(np.array([[1.0]]), np.array([[1.0]]))
        form = gplda.derive_pq(model)
        err_q = abs(form.Q[0, 0] + 1.0 / 6.0)
        err_p = abs(form.P[0, 0] - 1.0 / 3.0)
        report(
            "criterion 2: hand-value scoring form",
            err_q < 1e-12 and err_p < 1e-12,
            f"|Q+1/6|={err_q:.2e} |P-1/3|={err_p:.2e}",
        )


class TestCriterion3InitEquivalence:
    def test_nplda_init_reproduces_gplda(self):
        """GPLDA-initialized backend matches GPLDA on 10k trials, < 1e-8."""
        t0 = time.time()
        rng = np.random.default_rng(1003)
        D, q = 16, 3
        phi = 2.0 * rng.standard_normal((D, q))
        sigma = np.diag(0.5 + rng.random(D))
        train = data.synth_plda_embeddings(phi, sigma, 50, 10, seed=1004)
        dev = data.synth_plda_embeddings(phi, sigma, 40, 10, seed=1005, id_prefix="dev")
        chain = gplda.fit_preprocess(train, target_dim=10)
        proc = chain.apply(train.embedding_matrix())
        model = gplda.em_fit((proc, train.speaker_labels()), chain=chain)
        trials = data.make_trials(dev, 10_000, 0.25, seed=1006)
        g = gplda.score_trials(model, trials, dev)
        params = nplda.init_from_gplda(model, g)
        n = nplda.score_trials(params, trials, dev)
        worst = float(np.max(np.abs(g.scores - n.scores)))
        eer_match = metrics.eer(g) == pytest.approx(metrics.eer(n), abs=1e-12)
        dcf_match = metrics.min_dcf(g)[0] == pytest.approx(metrics.min_dcf(n)[0], abs=1e-12)
        elapsed = time.time() - t0
        report(
            "criterion 3: NPLDA init equivalence",
            worst < 1e-8 and eer_match and dcf_match and elapsed < 30.0,
            f"max|diff|={worst:.2e} over {len(trials)} trials, runtime={elapsed:.1f}s",
        )


class TestCriterion4GradientSuite:
    def test_all_gradients(self):
        """Layers and loss < 1e-5; a <= 2k-parameter full model < 1e-4; 20 seeds."""
        t0 = time.time()
        worst_layers = 0.0
        for seed in range(20):
            rng = np.random.default_rng(2000 + seed)

            x, W, b = rng.standard_normal(4), rng.standard_normal((3, 4)), rng.standard_normal(3)
            w_out = rng.standard_normal(3)

            def f_affine(x, W, b):
                y = nn.affine(x, W, b)
                return float(w_out @ y), nn.affine_backward(w_out, x, W)

            worst_layers = max(worst_layers, nn.grad_check(f_affine, [x, W, b]))

            v = rng.standard_normal(5)
            w_ln = rng.standard_normal(5)

            def f_ln(v):
                return float(w_ln @ nn.length_norm(v)), [nn.length_norm_backward(w_ln, v)]

            worst_layers = max(worst_layers, nn.grad_check(f_ln, [v]))

            X = rng.standard_normal((7, 2))
            Wt, bt = rng.standard_normal((3, 6)), rng.standard_normal(3)
            w_td = rng.standard_normal((5, 3))

            def f_tdnn(X, Wt, bt):
                Y = nn.tdnn_layer(X, [-1, 0, 1], Wt, bt)
                return float(np.sum(w_td * Y)), nn.tdnn_layer_backward(w_td, X, [-1, 0, 1], Wt, bt)

            worst_layers = max(worst_layers, nn.grad_check(f_tdnn, [X, Wt, bt]))

            Xp = rng.standard_normal((6, 3))
            w_sp = rng.standard_normal(6)
            for mode in (nn.POOL_STDDEV, nn.POOL_VARIANCE):

                def f_pool(Xp, mode=mode):
                    out = nn.stats_pool(Xp, mode)
                    return float(w_sp @ out), [nn.stats_pool_backward(w_sp, Xp, mode)]

                worst_layers = max(worst_layers, nn.grad_check(f_pool, [Xp]))

            ve, vt = rng.standard_normal(3), rng.standard_normal(3)
            pd, qd = rng.standard_normal(3), rng.standard_normal(3)

            def f_quad(ve, vt, pd, qd, k):
                s = nn.quadratic_score(ve, vt, pd, qd, float(k))
                de, dt, dP, dQ, dk = nn.quadratic_score_backward(1.0, ve, vt, pd, qd)
                return s, [de, dt, dP, dQ, np.array(dk)]

            worst_layers = max(worst_layers, nn.grad_check(f_quad, [ve, vt, pd, qd, np.array(0.3)]))

            # soft detection cost incl. theta, scores in the responsive band
            labels = (rng.random(24) < 0.4).astype(float)
            labels[0], labels[1] = 1.0, 0.0
            scores = rng.uniform(-1.5, 1.5, 24)
            cfg = nplda.LossConfig(alpha=4.0)

            def f_loss(s, th):
                loss, ds, dth = nplda.soft_dcf_loss(s, labels, float(th), cfg)
                return loss, [ds, np.array(dth)]

            worst_layers = max(worst_layers, nn.grad_check(f_loss, [scores, np.array(0.1)]))

        # full end-to-end model: score of one trial, 20 kink-safe seeds
        cfg_e = e2e.E2EConfig(
            layers=(e2e.TdnnLayerSpec(3, 4, (-1, 0, 1)), e2e.TdnnLayerSpec(4, 4, (0,))),
            pooling=nn.POOL_STDDEV, embedding_dim=4, head_lda_dim=3, head_out_dim=3,
        )
        worst_e2e = 0.0
        checked, seed = 0, 0
        while checked < 20 and seed < 100:
            model = e2e.init_e2e(cfg_e, seed=seed)
            rng = np.random.default_rng(3000 + seed)
            seed += 1
            fe, ft = rng.standard_normal((9, 3)), rng.standard_normal((9, 3))
            if min(e2e.min_abs_preactivation(model, fe),
                   e2e.min_abs_preactivation(model, ft)) < 1e-3:
                continue
            n_params = sum(v.size for v in map(np.asarray, model.to_dict().values()))
            assert n_params <= 2000
            names = list(model.to_dict().keys())

            def f_model(*arrays):
                mm = model.from_dict(dict(zip(names, arrays)))
                score, grads = e2e.score_with_grads(mm, fe, ft)
                return score, [grads[nme] for nme in names]

            vals = [np.array(v, dtype=np.float64) for v in model.to_dict().values()]
            worst_e2e = max(worst_e2e, nn.grad_check(f_model, vals, atol=1e-6))
            checked += 1
        elapsed = time.time() - t0
        report(
            "criterion 4: gradient suite",
            worst_layers < 1e-5 and worst_e2e < 1e-4 and checked == 20 and elapsed < 120.0,
            f"layers+loss max={worst_layers:.2e} e2e max={worst_e2e:.2e} runtime={elapsed:.0f}s",
        )


class TestCriterion5SoftToHard:
    ALPHAS = (1.0, 4.0, 16.0, 64.0, 256.0, 1024.0)

    @staticmethod
    def _soft_gap(scores, labels, theta, alpha, weights):
        loss, _, _ = nplda.soft_dcf_loss(scores, labels, theta, nplda.LossConfig(alpha=alpha, weights=weights))
        trials = [data.Trial(f"e{i}", f"t{i}", data.TARGET if l else data.NONTARGET)
                  for i, l in enumerate(labels)]
        hard = metrics.dcf(data.ScoredTrialSet(trials, scores), theta, weights)
        return abs(loss - hard)

    def test_convergence_and_monotonicity(self):
        """Gap shrinks below 0.01 at alpha=1024; monotone where each trial is
        on its own side of theta (50 separable sets) and over the guarded
        alphas (no score within 10/alpha of theta) on 50 overlapping sets."""
        w = metrics.DcfWeights()
        rng = np.random.default_rng(1005)
        mono_ok, final_ok = True, True
        for _ in range(50):
            n = int(rng.integers(50, 400))
            labels = (rng.random(n) < 0.3).astype(float)
            labels[0], labels[1] = 1.0, 0.0
            margin = 10.0 / 1024.0 + 1e-3
            scores = np.where(labels == 1.0,
                              rng.uniform(margin, 3.0, n),
                              rng.uniform(-3.0, -margin, n))
            gaps = [self._soft_gap(scores, labels, 0.0, a, w) for a in self.ALPHAS]
            mono_ok &= all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
            final_ok &= gaps[-1] < 0.01
        for _ in range(50):
            n = int(rng.integers(50, 400))
            labels = (rng.random(n) < 0.3).astype(float)
            labels[0], labels[1] = 1.0, 0.0
            scores = np.where(labels == 1.0, rng.normal(1.0, 1.0, n), rng.normal(-1.0, 1.0, n))
            theta = 0.0
            d_min = float(np.min(np.abs(scores - theta)))
            if d_min < 10.0 / 1024.0:
                scores = scores + np.where(np.abs(scores) < 10.0 / 1024.0,
                                           np.sign(scores + 1e-12) * 0.02, 0.0)
                d_min = float(np.min(np.abs(scores - theta)))
            gaps = [self._soft_gap(scores, labels, theta, a, w) for a in self.ALPHAS]
            guarded = [g for a, g in zip(self.ALPHAS, gaps) if 10.0 / a <= d_min]
            mono_ok &= all(b <= a + 1e-12 for a, b in zip(guarded, guarded[1:]))
            final_ok &= gaps[-1] < 0.01
        report(
            "criterion 5: soft-to-hard DCF convergence",
            mono_ok and final_ok,
            f"monotone={mono_ok} final<0.01={final_ok}",
        )


class TestCriterion6MetricOracle:
    def test_metric_oracle(self):
        """minDCF and EER equal an independent brute-force sweep on 200 sets."""
        rng = np.random.default_rng(1006)
        w = metrics.DcfWeights()
        worst = 0.0
        for i in range(200):
            n = int(rng.integers(10, 2001))
            scores = rng.standard_normal(n)
            if i % 2:
                scores = np.round(scores, 2)  # force ties
            labels = rng.random(n) < rng.uniform(0.1, 0.9)
            labels[0], labels[1] = True, False
            trials = [data.Trial(f"e{j}", f"t{j}", data.TARGET if l else data.NONTARGET)
                      for j, l in enumerate(labels)]
            st = data.ScoredTrialSet(trials, scores)

            tgt, non = scores[labels], scores[~labels]
            distinct = np.unique(scores)
            cands = np.concatenate([[distinct[0] - 1], (distinct[:-1] + distinct[1:]) / 2,
                                    [distinct[-1] + 1]])
            costs = [float(np.mean(tgt < th) + w.beta * np.mean(non >= th)) for th in cands]
            want_cost = min(costs)
            got_cost, _ = metrics.min_dcf(st, w)
            worst = max(worst, abs(got_cost - want_cost))

            pts = [(float(np.mean(tgt < th)), float(np.mean(non >= th))) for th in cands]
            want_eer = None
            for k in range(1, len(pts)):
                m0, f0 = pts[k - 1]
                m1, f1 = pts[k]
                if (m0 - f0) <= 0.0 < (m1 - f1):
                    t = (f0 - m0) / ((m1 - m0) - (f1 - f0))
                    want_eer = m0 + t * (m1 - m0)
                    break
            worst = max(worst, abs(metrics.eer(st) - want_eer))
        report(
            "criterion 6: minDCF/EER oracle equivalence",
            worst < 1e-12,
            f"max|diff|={worst:.2e} over 200 sets",
        )


class TestCriterion7SamplerCombinatorics:
    def test_algo2_counts_and_algo1_no_repeats(self):
        rng = np.random.default_rng(1007)
        utts = []
        for g in ("M", "F"):
            for ds in ("d1", "d2"):
                for s in range(8):
                    for r in range(16):
                        utts.append(data.Utterance(
                            f"{g}{ds}s{s}u{r}", f"{g}{ds}s{s}", g, ds,
                            data.Embedding(rng.standard_normal(4))))
        ok = True
        for gender, dataset in (("M", "d1"), ("F", "d2")):
            part = [u for u in utts if u.gender == gender and u.dataset_id == dataset]
            batch = sampling.sample_batch_algo2(part, m=4, seed=7)
            ok &= len(batch.utterances) == 64
            ok &= len(batch.trials) == 1024
            ok &= batch.n_targets() == 256
            ok &= (len(batch.trials) - batch.n_targets()) == 768
            ok &= len({u.gender for u in batch.utterances}) == 1
            ok &= len({u.dataset_id for u in batch.utterances}) == 1
        batches = sampling.sample_trials_algo1(utts, n_trials=200, seed=8)
        used = [i for b in batches for t in b.trials for i in (t.enroll_id, t.test_id)]
        ok &= len(used) == len(set(used))
        report(
            "criterion 7: sampler combinatorics",
            ok,
            "algo2 64/1024/256/768 per batch; algo1 epoch has no repeated utterance",
        )


BACKEND_INI = """
[simulate]
kind = embeddings
seed = 29
dim = 20
latent_dim = 3
phi_scales = 7.0 5.0 3.5 2.5
noise_scales = 0.5 0.9 1.2 1.6
split_genders = true
n_speakers = 60
utts_per_speaker = 8
n_dev_speakers = 25
dev_utts_per_speaker = 8
n_dev_trials = 10000
dev_target_ratio = 0.25

[gplda]
lda_dim = 10

[sampler]
algo = 2
n_batches = 120

[loss]
alpha = 10.0

[optimizer]
lr = 3e-4
epochs = 60
patience = 6
"""

E2E_INI = """
[simulate]
kind = features
seed = 41
n_speakers = 40
utts_per_speaker = 12
n_dev_speakers = 24
dev_utts_per_speaker = 8
feat_dim = 8
frames = 100
mean_scale = 5.0
within_std = 1.0
n_dev_trials = 8000
dev_target_ratio = 0.25

[sampler]
algo = 2
n_batches = 40

[loss]
alpha = 10.0

[optimizer]
lr = 2e-3
epochs = 50
patience = 10

[e2e]
layers =
    8 16 -1 0 1
    16 16 0
    16 16 -1 0 1
    16 16 0
    16 24 0
embedding_dim = 24
head_lda_dim = 16
head_out_dim = 12
"""


class TestCriterion8DirectionalPipeline:
    def test_pipeline_ordering(self, tmp_path):
        """gplda -> nplda -> e2e on the frozen benchmark through the CLI."""
        t0 = time.time()
        backend_cfg = tmp_path / "backend.ini"
        backend_cfg.write_text(BACKEND_INI)
        e2e_cfg = tmp_path / "e2e.ini"
        e2e_cfg.write_text(E2E_INI)
        emb = tmp_path / "emb"
        feat = tmp_path / "feat"
        out = tmp_path / "out"
        out.mkdir()

        assert cli.main(["simulate", "--config", str(backend_cfg), "--out", str(emb)]) == 0
        assert cli.main([
            "train", "gplda", "--config", str(backend_cfg),
            "-O", f"data.train_embeddings={emb}/train.embeddings",
            "-O", f"data.dev_embeddings={emb}/dev.embeddings",
            "-O", f"data.dev_trials={emb}/dev.trials",
            "--out", str(out / "model.gplda"),
        ]) == 0
        assert cli.main([
            "train", "nplda", "--config", str(backend_cfg), "--seed", "23",
            "-O", f"data.train_embeddings={emb}/train.embeddings",
            "-O", f"data.dev_embeddings={emb}/dev.embeddings",
            "-O", f"data.dev_trials={emb}/dev.trials",
            "--init", str(out / "model.gplda"),
            "--out", str(out / "model.nplda"),
            "--trace", str(out / "nplda.csv"),
        ]) == 0
        assert cli.main(["simulate", "--config", str(e2e_cfg), "--out", str(feat)]) == 0
        assert cli.main([
            "train", "e2e", "--config", str(e2e_cfg), "--seed", "7",
            "-O", f"data.train_features={feat}/train.features",
            "-O", f"data.dev_features={feat}/dev.features",
            "-O", f"data.dev_trials={feat}/dev.trials",
            "--out", str(out / "model.e2e"),
            "--trace", str(out / "e2e.csv"),
        ]) == 0

        w = metrics.DcfWeights()
        dev = data.read_embeddings(emb / "dev.embeddings")
        trials = data.read_trials(emb / "dev.trials")
        g_model = gplda.load_model(out / "model.gplda")
        g_scored = gplda.score_trials(g_model, trials, dev)
        g_cost, _ = metrics.min_dcf(g_scored, w)
        n_params = nplda.load_nplda(out / "model.nplda")
        n_scored = nplda.score_trials(n_params, trials, dev)
        n_cost, _ = metrics.min_dcf(n_scored, w)

        fdev = data.read_features(feat / "dev.features")
        ftrials = data.read_trials(feat / "dev.trials")
        e_model = e2e.load_e2e(out / "model.e2e")
        e_scored = e2e.score_trials(e_model, ftrials, fdev)
        e_cost, _ = metrics.min_dcf(e_scored, w)
        e_eer = metrics.eer(e_scored)

        elapsed = time.time() - t0
        rel_gain = (g_cost - n_cost) / g_cost
        ok = (
            n_cost <= g_cost + 0.02
            and e_cost <= n_cost + 0.02
            and rel_gain >= 0.10
            and e_cost < 0.10
            and e_eer < 0.05
            and elapsed < 600.0
        )
        report(
            "criterion 8: directional pipeline",
            ok,
            f"gplda={g_cost:.3f} nplda={n_cost:.3f} (gain {rel_gain:.1%}) "
            f"e2e={e_cost:.3f} eer={100 * e_eer:.2f}% runtime={elapsed:.0f}s",
        )


class TestCriterion9MemoryFormula:
    def test_hand_case_and_paper_shape(self):
        cfg1 = e2e.E2EConfig(
            layers=(e2e.TdnnLayerSpec(30, 10, (-2, -1, 0, 1, 2)),),
            embedding_dim=4, head_lda_dim=3, head_out_dim=2,
        )
        hand = e2e.estimate_memory(1, 100, cfg1).total_bytes
        full = e2e.estimate_memory(2048, 2000, e2e.full_size_config()).total_bytes
        ok = hand == 480_000 and 120e9 <= full <= 480e9
        report(
            "criterion 9: memory formula",
            ok,
            f"hand case={hand} bytes; full-size batch={full / 1e9:.1f} GB",
        )


class TestCriterion10Determinism:
    def test_bit_reproducible_commands(self, tmp_path):
        """simulate / sample / train gplda+nplda are byte-identical given
        (config, seed)."""
        cfg_text = BACKEND_INI.replace("n_speakers = 60", "n_speakers = 16").replace(
            "n_batches = 120", "n_batches = 4").replace("epochs = 60", "epochs = 2").replace(
            "n_dev_trials = 10000", "n_dev_trials = 800")
        cfg = tmp_path / "mini.ini"
        cfg.write_text(cfg_text)
        outputs = []
        for name in ("a", "b"):
            root = tmp_path / name
            root.mkdir()
            assert cli.main(["simulate", "--config", str(cfg), "--out", str(root / "emb")]) == 0
            assert cli.main([
                "train", "gplda", "--config", str(cfg),
                "-O", f"data.train_embeddings={root}/emb/train.embeddings",
                "--out", str(root / "model.gplda"),
            ]) == 0
            assert cli.main([
                "train", "nplda", "--config", str(cfg), "--seed", "5",
                "-O", f"data.train_embeddings={root}/emb/train.embeddings",
                "-O", f"data.dev_embeddings={root}/emb/dev.embeddings",
                "-O", f"data.dev_trials={root}/emb/dev.trials",
                "--init", str(root / "model.gplda"),
                "--out", str(root / "model.nplda"),
            ]) == 0
            assert cli.main([
                "sample", "--config", str(cfg), "--seed", "9",
                "--data", str(root / "emb" / "train.embeddings"),
                "--out", str(root / "batches.txt"),
            ]) == 0
            outputs.append({
                "train": (root / "emb" / "train.embeddings").read_text(),
                "dev": (root / "emb" / "dev.embeddings").read_text(),
                "trials": (root / "emb" / "dev.trials").read_text(),
                "gplda": (root / "model.gplda").read_text(),
                "nplda": (root / "model.nplda").read_text(),
                "batches": (root / "batches.txt").read_text(),
            })
        ok = all(outputs[0][k] == outputs[1][k] for k in outputs[0])
        report(
            "criterion 10: determinism",
            ok,
            "simulate/train/sample outputs byte-identical across reruns",
        )
