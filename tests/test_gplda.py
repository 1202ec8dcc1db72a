import numpy as np
import pytest

from svkit import data, gplda
from svkit.errors import ArgumentError


def random_model(rng, d=None, q=None):
    d = d or int(rng.integers(1, 9))
    q = q or max(1, d // 2)
    A = rng.standard_normal((d, d))
    sigma_wc = A @ A.T + d * np.eye(d)
    B = rng.standard_normal((d, q))
    sigma_ac = B @ B.T
    return gplda.make_model(sigma_ac, sigma_wc)


class TestFitPreprocess:
    def _two_cluster_set(self, rng, d=10, sep=20.0, n=40):
        utts = []
        for s, center in enumerate((np.zeros(d), sep * np.ones(d) / np.sqrt(d))):
            for r in range(n):
                vec = center + rng.standard_normal(d)
                utts.append(
                    data.Utterance(f"s{s}u{r}", f"s{s}", "M", "d", data.Embedding(vec))
                )
        return data.UtteranceSet(utts)

    def test_centering_before_length_norm(self):
        rng = np.random.default_rng(0)
        utts = self._two_cluster_set(rng)
        chain = gplda.fit_preprocess(utts, target_dim=1, apply_length_norm=False)
        out = chain.apply(utts.embedding_matrix())
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-9)

    def test_outputs_unit_norm(self):
        rng = np.random.default_rng(1)
        utts = self._two_cluster_set(rng)
        chain = gplda.fit_preprocess(utts, target_dim=1)
        out = chain.apply(utts.embedding_matrix())
        assert np.allclose(np.abs(out), 1.0, atol=1e-12)

    def test_two_class_direction_matches_lda_oracle(self):
        # the top generalized eigenvector for two classes is the whitened
        # means difference Sw^-1 (m1 - m0)
        rng = np.random.default_rng(2)
        utts = self._two_cluster_set(rng)
        X = utts.embedding_matrix()
        labels = np.array(utts.speaker_labels())
        m0 = X[labels == "s0"].mean(axis=0)
        m1 = X[labels == "s1"].mean(axis=0)
        Sw = np.zeros((10, 10))
        for s in ("s0", "s1"):
            dev = X[labels == s] - X[labels == s].mean(axis=0)
            Sw += dev.T @ dev
        Sw /= X.shape[0]
        oracle = np.linalg.solve(Sw, m1 - m0)
        chain = gplda.fit_preprocess(utts, target_dim=1, apply_length_norm=False)
        direction = chain.lda[0]
        cos = abs(direction @ oracle) / (np.linalg.norm(direction) * np.linalg.norm(oracle))
        assert cos > np.cos(np.deg2rad(5.0))

    def test_target_dim_clamped_with_warning(self):
        rng = np.random.default_rng(3)
        utts = self._two_cluster_set(rng)
        with pytest.warns(UserWarning):
            chain = gplda.fit_preprocess(utts, target_dim=5)
        assert chain.out_dim == 1  # 2 speakers allow only 1 dimension

    @pytest.mark.parametrize("target_dim", [0, -3])
    def test_target_dim_below_one_refused(self, target_dim):
        utts = self._two_cluster_set(np.random.default_rng(5))
        with pytest.raises(ArgumentError, match=f"target_dim must be at least 1, got {target_dim}"):
            gplda.fit_preprocess(utts, target_dim=target_dim)

    def test_needs_two_speakers(self):
        rng = np.random.default_rng(4)
        utts = data.UtteranceSet(
            [data.Utterance(f"u{r}", "s0", "M", "d", data.Embedding(rng.standard_normal(3)))
             for r in range(5)]
        )
        with pytest.raises(ArgumentError):
            gplda.fit_preprocess(utts, target_dim=1)


class TestEmFit:
    def test_one_dim_generator_oracle(self):
        utts = data.synth_plda_embeddings(np.array([[1.0]]), np.array([[1.0]]), 500, 10, seed=42)
        model = gplda.em_fit((utts.embedding_matrix(), utts.speaker_labels()))
        assert 0.8 <= model.sigma_ac[0, 0] <= 1.2
        assert 0.9 <= model.sigma_wc[0, 0] <= 1.1

    def test_zero_subspace_shrinks_across_class(self):
        sigma = np.diag([1.0, 2.0, 0.5])
        utts = data.synth_plda_embeddings(np.zeros((3, 1)), sigma, 500, 10, seed=7)
        model = gplda.em_fit((utts.embedding_matrix(), utts.speaker_labels()))
        ratio = np.linalg.norm(model.sigma_ac) / np.linalg.norm(model.sigma_wc)
        assert ratio < 0.05

    def test_loglik_nondecreasing(self):
        rng = np.random.default_rng(8)
        for trial in range(5):
            d = int(rng.integers(1, 5))
            q = int(rng.integers(1, d + 1))
            phi = rng.standard_normal((d, q))
            A = rng.standard_normal((d, d))
            sigma = A @ A.T + d * np.eye(d)
            utts = data.synth_plda_embeddings(phi, sigma, 30, 5, seed=trial)
            model = gplda.em_fit(
                (utts.embedding_matrix(), utts.speaker_labels()), n_iters=20
            )
            diffs = np.diff(model.loglik_trace)
            assert np.all(diffs >= -1e-8), f"trial {trial}: min diff {diffs.min()}"

    def test_low_rank_subspace(self):
        rng = np.random.default_rng(9)
        phi = rng.standard_normal((4, 1)) * 2.0
        utts = data.synth_plda_embeddings(phi, np.eye(4), 200, 8, seed=10)
        model = gplda.em_fit(
            (utts.embedding_matrix(), utts.speaker_labels()), latent_dim=1
        )
        target = phi @ phi.T
        rel = np.linalg.norm(model.sigma_ac - target) / np.linalg.norm(target)
        assert rel < 0.2

    def test_latent_dim_validation(self):
        utts = data.synth_plda_embeddings(np.eye(2), np.eye(2), 10, 3, seed=0)
        with pytest.raises(ArgumentError):
            gplda.em_fit((utts.embedding_matrix(), utts.speaker_labels()), latent_dim=3)

    def test_unequal_session_counts(self):
        # speakers contribute 1..6 utterances; the count-grouped E step and
        # likelihood must stay monotone and recover the generator
        rng = np.random.default_rng(11)
        phi = np.array([[1.2], [0.5]])
        sigma = np.diag([1.0, 0.6])
        chol = np.linalg.cholesky(sigma)
        X, labels = [], []
        for s in range(300):
            center = phi @ rng.standard_normal(1)
            for r in range(int(rng.integers(1, 7))):
                X.append(center + chol @ rng.standard_normal(2))
                labels.append(f"s{s}")
        model = gplda.em_fit((np.stack(X), labels), n_iters=25)
        assert np.all(np.diff(model.loglik_trace) >= -1e-8)
        target = phi @ phi.T
        assert np.linalg.norm(model.sigma_ac - target) / np.linalg.norm(target) < 0.25
        assert np.linalg.norm(model.sigma_wc - sigma) / np.linalg.norm(sigma) < 0.15

    def test_average_per_speaker_collapses_input(self):
        utts = data.synth_plda_embeddings(np.array([[1.0]]), np.array([[1.0]]), 100, 10, seed=3)
        model = gplda.em_fit(
            (utts.embedding_matrix(), utts.speaker_labels()),
            average_per_speaker=True,
        )
        # with one mean per speaker only the total covariance is constrained;
        # the trace is still monotone and the total roughly matches 1 + 1/10
        assert np.all(np.diff(model.loglik_trace) >= -1e-8)
        total = model.sigma_ac[0, 0] + model.sigma_wc[0, 0]
        assert 0.8 <= total <= 1.4


class TestScoringForm:
    def test_hand_values(self):
        model = gplda.make_model(np.array([[1.0]]), np.array([[1.0]]))
        form = gplda.derive_pq(model)
        assert abs(form.Q[0, 0] + 1.0 / 6.0) < 1e-12
        assert abs(form.P[0, 0] - 1.0 / 3.0) < 1e-12

    def test_zero_across_class(self):
        model = gplda.make_model(np.zeros((3, 3)), np.eye(3))
        form = gplda.derive_pq(model)
        assert np.allclose(form.P, 0.0, atol=1e-12)
        assert np.allclose(form.Q, 0.0, atol=1e-12)
        rng = np.random.default_rng(0)
        scores = gplda.score_pairs(model, rng.standard_normal((5, 3)), rng.standard_normal((5, 3)))
        assert np.allclose(scores, model.k, atol=1e-12)

    def test_diagonalization_invariants(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            model = random_model(rng)
            V = model.V
            assert np.max(np.abs(V.T @ model.sigma_wc @ V - np.eye(model.dim))) < 1e-8
            ac = V.T @ model.sigma_ac @ V
            off = ac - np.diag(np.diag(ac))
            assert np.max(np.abs(off)) < 1e-8

    def test_dense_equals_diagonal_scoring(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            model = random_model(rng)
            E = rng.standard_normal((100, model.dim))
            T = rng.standard_normal((100, model.dim))
            diag = gplda.score_pairs(model, E, T)
            dense = gplda.score_pairs_dense(model, E, T)
            assert np.max(np.abs(diag - dense)) < 1e-9


class TestNumericalErrors:
    def test_singular_within_reports_condition(self):
        from svkit.errors import NumericalError

        with pytest.raises(NumericalError) as exc:
            gplda.simultaneous_diagonalizer(
                np.eye(2), np.array([[1.0, 1.0], [1.0, 1.0]])
            )
        assert "cond" in str(exc.value)

    def test_singular_total_covariance_in_derive(self):
        from svkit.errors import NumericalError

        model = gplda.PldaModel(
            chain=gplda.identity_chain(2),
            center=np.zeros(2),
            sigma_ac=np.zeros((2, 2)),
            sigma_wc=np.array([[1.0, 1.0], [1.0, 1.0]]),
            V=np.eye(2),
            psi=np.zeros(2),
            p=np.zeros(2),
            q=np.zeros(2),
            k=0.0,
        )
        with pytest.raises(NumericalError) as exc:
            gplda.derive_pq(model)
        assert "cond" in str(exc.value)


class TestScoring:
    def test_score_equals_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            model = random_model(rng)
            for _ in range(5):
                e = rng.standard_normal(model.dim)
                t = rng.standard_normal(model.dim)
                s = gplda.score_pairs(model, e, t)[0]
                o = gplda.llr_oracle(model, e, t)
                assert abs(s - o) < 1e-8

    def test_one_dim_hand_model_oracle(self):
        model = gplda.make_model(np.array([[1.0]]), np.array([[1.0]]))
        one = np.array([1.0])
        s = gplda.score_pairs(model, one, one)[0]
        o = gplda.llr_oracle(model, one, one)
        assert abs(s - o) < 1e-10

    def test_oracle_zero_for_independent_model(self):
        model = gplda.make_model(np.zeros((2, 2)), np.eye(2))
        rng = np.random.default_rng(4)
        for _ in range(10):
            e, t = rng.standard_normal(2), rng.standard_normal(2)
            assert abs(gplda.llr_oracle(model, e, t)) < 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        model = random_model(rng, d=4)
        for _ in range(10):
            e, t = rng.standard_normal(4), rng.standard_normal(4)
            assert abs(
                gplda.score_pairs(model, e, t)[0] - gplda.score_pairs(model, t, e)[0]
            ) < 1e-10
            assert abs(
                gplda.llr_oracle(model, e, t) - gplda.llr_oracle(model, t, e)
            ) < 1e-10

    def test_score_trials_order_and_exchange_invariance(self):
        rng = np.random.default_rng(6)
        model = random_model(rng, d=3)
        utts = data.UtteranceSet(
            [data.Utterance(f"u{i}", f"s{i % 3}", "M", "d", data.Embedding(rng.standard_normal(3)))
             for i in range(8)]
        )
        trials = [data.Trial("u0", "u1"), data.Trial("u2", "u3"), data.Trial("u4", "u5")]
        fwd = gplda.score_trials(model, trials, utts)
        rev = gplda.score_trials(model, list(reversed(trials)), utts)
        assert np.allclose(fwd.scores, rev.scores[::-1])
        swapped = gplda.score_trials(
            model, [data.Trial(t.test_id, t.enroll_id) for t in trials], utts
        )
        assert np.allclose(fwd.scores, swapped.scores)

    def test_full_pipeline_score_oracle_after_chain(self):
        # chain + EM + scoring against the density oracle on raw embeddings
        rng = np.random.default_rng(7)
        phi = rng.standard_normal((8, 2))
        sigma = np.diag(0.5 + rng.random(8))
        train = data.synth_plda_embeddings(phi, sigma, 30, 8, seed=1)
        chain = gplda.fit_preprocess(train, target_dim=4)
        proc = chain.apply(train.embedding_matrix())
        model = gplda.em_fit((proc, train.speaker_labels()), chain=chain)
        for _ in range(20):
            e, t = rng.standard_normal(8), rng.standard_normal(8)
            s = gplda.score_pairs(model, e, t)[0]
            o = gplda.llr_oracle(model, e, t)
            assert abs(s - o) < 1e-8


class TestPersistence:
    def test_round_trip_preserves_scores(self, tmp_path):
        rng = np.random.default_rng(8)
        phi = rng.standard_normal((6, 2))
        sigma = np.diag(0.5 + rng.random(6))
        train = data.synth_plda_embeddings(phi, sigma, 20, 6, seed=2)
        chain = gplda.fit_preprocess(train, target_dim=3)
        proc = chain.apply(train.embedding_matrix())
        model = gplda.em_fit((proc, train.speaker_labels()), chain=chain)
        path = tmp_path / "model.txt"
        gplda.save_model(model, path)
        back = gplda.load_model(path)
        E = rng.standard_normal((20, 6))
        T = rng.standard_normal((20, 6))
        assert np.array_equal(
            gplda.score_pairs(model, E, T), gplda.score_pairs(back, E, T)
        )
