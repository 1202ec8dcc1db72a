import ast
import os
from pathlib import Path

import numpy as np
import pytest

from svkit import checkpoint, data
from svkit.errors import (
    ArgumentError,
    DimensionError,
    MissingIdError,
    ModelError,
    ParseError,
)


def _utt(i, spk, vec, gender="M", dataset="d1"):
    return data.Utterance(i, spk, gender, dataset, data.Embedding(np.asarray(vec, float)))


class TestTypes:
    def test_gender_validated(self):
        with pytest.raises(ArgumentError):
            _utt("u1", "s1", [1.0], gender="X")

    def test_empty_dataset_rejected(self):
        with pytest.raises(ArgumentError):
            _utt("u1", "s1", [1.0], dataset="")

    def test_embedding_must_be_finite(self):
        with pytest.raises(ModelError):
            data.Embedding(np.array([1.0, np.nan]))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ArgumentError):
            data.UtteranceSet([_utt("u1", "s1", [1.0]), _utt("u1", "s2", [2.0])])

    def test_dim_consistency_enforced(self):
        with pytest.raises(DimensionError):
            data.UtteranceSet([_utt("u1", "s1", [1.0, 2.0]), _utt("u2", "s2", [1.0])])

    def test_trial_label_domain(self):
        with pytest.raises(ArgumentError):
            data.Trial("a", "b", "both")

    def test_missing_id_lookup(self):
        us = data.UtteranceSet([_utt("u1", "s1", [1.0])])
        with pytest.raises(MissingIdError):
            us["nope"]
        with pytest.raises(MissingIdError) as exc:
            data.pair_index(["u1"], ["ghost"], us)
        assert "ghost" in str(exc.value)


class TestPairIndex:
    def test_sorted_ids_and_rows(self):
        us = data.UtteranceSet([_utt(u, "s1", [1.0]) for u in ("c", "a", "b", "z")])
        ids, e_idx, t_idx = data.pair_index(["c", "b", "a"], ["a", "c", "a"], us)
        assert ids == ["a", "b", "c"]  # "z" is not referenced
        assert [ids[i] for i in e_idx] == ["c", "b", "a"]
        assert [ids[i] for i in t_idx] == ["a", "c", "a"]

    def test_dict_lookup_reports_every_missing_id(self):
        lookup = {"a": None}
        with pytest.raises(MissingIdError) as exc:
            data.pair_index(["y", "a", "y"], ["a", "x", "x"], lookup)
        assert exc.value.ids == ["x", "y"]


class TestEmbeddingFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        utts = [_utt(f"u{i}", f"s{i % 3}", rng.standard_normal(4)) for i in range(7)]
        path = tmp_path / "emb.txt"
        data.write_embeddings(utts, path)
        back = data.read_embeddings(path)
        assert back.dim == 4
        assert len(back) == 7
        for a, b in zip(utts, back):
            assert a.id == b.id and a.speaker_id == b.speaker_id
            assert np.array_equal(a.payload.vector, b.payload.vector)

    def test_write_read_write_is_stable(self, tmp_path):
        rng = np.random.default_rng(1)
        utts = [_utt(f"u{i}", "s0", rng.standard_normal(3)) for i in range(4)]
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        data.write_embeddings(utts, p1)
        data.write_embeddings(data.read_embeddings(p1), p2)
        assert p1.read_text() == p2.read_text()

    def test_two_records_dim_4(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("u1 s1 M d 1 2 3 4\nu2 s2 F d 5 6 7 8\n")
        back = data.read_embeddings(path)
        assert len(back) == 2 and back.dim == 4

    def test_inconsistent_dim_reports_error(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("u1 s1 M d 1 2 3 4\nu2 s2 F d 5 6 7\n")
        with pytest.raises(DimensionError) as exc:
            data.read_embeddings(path)
        assert ":2" in str(exc.value)

    def test_malformed_line_number(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("u1 s1 M d 1 2\nu2 s2 F d 1 oops\n")
        with pytest.raises(ParseError) as exc:
            data.read_embeddings(path)
        assert exc.value.line_no == 2


class TestFeatureFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        utts = [
            data.Utterance(
                f"u{i}", f"s{i}", "F", "d2", data.FeatureMatrix(rng.standard_normal((5, 3)))
            )
            for i in range(3)
        ]
        path = tmp_path / "feat.txt"
        data.write_features(utts, path)
        back = data.read_features(path)
        assert len(back) == 3 and back.dim == 3
        for a, b in zip(utts, back):
            assert np.array_equal(a.payload.frames, b.payload.frames)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "feat.txt"
        path.write_text("u1 s1 M d 3 2\n1 2\n3 4\n")
        with pytest.raises(ParseError):
            data.read_features(path)


class TestTrialAndScoreFiles:
    def test_trial_round_trip(self, tmp_path):
        trials = [
            data.Trial("a", "b", "target"),
            data.Trial("c", "d", "nontarget"),
            data.Trial("e", "f"),
        ]
        path = tmp_path / "trials.txt"
        data.write_trials(trials, path)
        back = data.read_trials(path)
        assert list(back) == trials

    def test_score_round_trip(self, tmp_path):
        trials = [data.Trial("a", "b", "target"), data.Trial("c", "d", "nontarget")]
        scored = data.ScoredTrialSet(trials, np.array([1.25, -3.5]))
        path = tmp_path / "scores.txt"
        data.write_scores(scored, path)
        back = data.read_scores(path)
        assert list(back.trials) == [data.Trial("a", "b"), data.Trial("c", "d")]
        assert back.scores.tolist() == [1.25, -3.5]

    def test_bad_label_rejected(self, tmp_path):
        path = tmp_path / "trials.txt"
        path.write_text("a b maybe\n")
        with pytest.raises(ParseError):
            data.read_trials(path)


READERS = {
    "embeddings": data.read_embeddings,
    "features": data.read_features,
    "scores": data.read_scores,
    "checkpoint": checkpoint.load_params,
}


def _code_sites(src_dir, match):
    """(file, enclosing scope) of every AST node ``match`` accepts.

    The scope is the dotted path of the classes and functions around the node,
    such as ``TrialList.__iter__``, or None at module level.  Docstrings and
    other bare string statements are not code and are skipped.
    """
    sites = set()

    def visit(node, path, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Expr) and isinstance(child.value, ast.Constant):
                continue
            if match(child):
                sites.add((path.name, scope))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, path, f"{scope}.{child.name}" if scope else child.name)
            else:
                visit(child, path, scope)

    for path in sorted(Path(src_dir).glob("*.py")):
        visit(ast.parse(path.read_text()), path, None)
    return sites


def _formats_17g(node):
    return isinstance(node, ast.Constant) and isinstance(node.value, str) and ".17g" in node.value


def _opens_for_writing(node):
    if not isinstance(node, ast.Call):
        return False
    name = getattr(node.func, "id", getattr(node.func, "attr", None))
    if name in ("write_text", "write_bytes"):
        return True
    mode = node.args[1] if len(node.args) > 1 else next(
        (kw.value for kw in node.keywords if kw.arg == "mode"), None)
    return (name == "open" and isinstance(mode, ast.Constant)
            and any(c in str(mode.value) for c in "wax+"))


class TestTextLayer:
    @pytest.mark.parametrize("fmt, text, line_no", [
        ("embeddings", "u1 s1 M d 1 2\nu2 s2 F d 1 nan\n", 2),
        ("features", "u1 s1 M d 2 2\n1 2\n3 inf\nu2 s2 F d 1 2\n5 6\n", 3),
        ("scores", "a b 1.5\n\nc d -inf\n", 3),
        ("checkpoint", "svkit-params v1\nparam v 1 2\n1 NaN\nend\n", 3),
    ], ids=list(READERS))
    def test_non_finite_value_names_its_line(self, tmp_path, fmt, text, line_no):
        path = tmp_path / fmt
        path.write_text(text)
        with pytest.raises(ParseError) as exc:
            READERS[fmt](path)
        assert exc.value.line_no == line_no

    @pytest.mark.parametrize("fmt, text, line_no", [
        ("embeddings", "u1 s1 M d 1 2\nu2 s2 X d 3 4\n", 2),
        ("features", "u1 s1 M d 1 2\n1 2\nu2 s2 X d 1 2\n3 4\n", 3),
    ], ids=["embeddings", "features"])
    def test_bad_gender_names_its_line(self, tmp_path, fmt, text, line_no):
        path = tmp_path / fmt
        path.write_text(text)
        with pytest.raises(ParseError) as exc:
            READERS[fmt](path)
        assert exc.value.line_no == line_no

    @pytest.mark.parametrize("fmt, text, line_no", [
        ("embeddings", "u1 s1 M d 1 2\nu2 s2 F d 3 4\n\nu1 s3 F d 5 6\n", 4),
        ("features", "u1 s1 M d 1 2\n1 2\nu2 s2 F d 1 2\n3 4\nu1 s1 M d 1 2\n5 6\n", 5),
    ], ids=["embeddings", "features"])
    def test_repeated_id_names_its_file_and_line(self, tmp_path, fmt, text, line_no):
        path = tmp_path / fmt
        path.write_text(text)
        with pytest.raises(ParseError) as exc:
            READERS[fmt](path)
        assert str(exc.value) == f"{path}:{line_no}: duplicate utterance id 'u1'"

    @pytest.mark.parametrize("fmt, text, line_no", [
        ("checkpoint", "svkit-params v1\nmeta kind\nend\n", 2),
        ("checkpoint", "svkit-params v1\nweights W 1 2\n1 2\nend\n", 2),
        ("checkpoint", "svkit-params v1\nparam W\nend\n", 2),
        ("checkpoint", "svkit-params v1\nparam W 2 2 x\n1 2\n3 4\nend\n", 2),
        ("checkpoint", "svkit-params v1\nparam W 2 2\n1 2\nend\n", 2),
        ("embeddings", "u1 s1 M d 1 2\nu2 s2 F d\n", 2),
        ("features", "u1 s1 M d 1 2\n1 2\nu2 s2 F d 1\n3 4\n", 3),
        ("features", "u1 s1 M d one 2\n1 2\n", 1),
        ("features", "u1 s1 M d 1 2\n1 2\nu2 s2 F d 1 3\n3 4 5\n", 3),
        ("trials", "a b target\nc d target extra\n", 2),
        ("scores", "a b 1.5\nc d\n", 2),
    ], ids=["meta-without-value", "unknown-record", "param-without-ndim", "non-integer-dims",
            "wrong-dim-count", "embedding-fields", "feature-header-fields",
            "feature-non-integer-length", "feature-dim-changes", "trial-fields", "score-fields"])
    def test_malformed_record_names_its_file_and_line(self, tmp_path, fmt, text, line_no):
        path = tmp_path / fmt
        path.write_text(text)
        with pytest.raises((ParseError, DimensionError)) as exc:
            {**READERS, "trials": data.read_trials}[fmt](path)
        assert str(exc.value).startswith(f"{path}:{line_no}: ")

    def test_failed_write_leaves_target_intact(self, tmp_path):
        path = tmp_path / "scores.txt"
        path.write_bytes(b"a b 1.5\n")

        def lines():
            yield "c d 2.5\n"
            raise RuntimeError("killed midway")

        with pytest.raises(RuntimeError):
            data._write_lines(path, lines())
        assert path.read_bytes() == b"a b 1.5\n"
        assert os.listdir(tmp_path) == ["scores.txt"]

    def test_one_formatter_and_one_writer(self):
        src = Path(data.__file__).parent
        assert _code_sites(src, _formats_17g) == {("data.py", None)}
        assert _code_sites(src, _opens_for_writing) == {("data.py", "_write_lines")}


def _calls(name):
    return lambda node: (isinstance(node, ast.Call)
                         and getattr(node.func, "id", getattr(node.func, "attr", None)) == name)


def _makes_trials(node):
    """A call of Trial, or a call handed Trial, such as ``map(Trial, ...)``."""
    return isinstance(node, ast.Call) and any(
        isinstance(n, ast.Name) and n.id == "Trial" for n in (node.func, *node.args))


class TestOneDerivation:
    def test_batches_are_indexed_once(self):
        # a TrialBatch is the one index of a trial list, a cross product's
        # included: training steps, dev selection and every score_trials read
        # the index a TrialBatch built, through one call
        src = Path(data.__file__).parent
        assert _code_sites(src, _calls("pair_index")) == {("sampling.py",
                                                           "TrialBatch.__post_init__")}
        assert {site for site in _code_sites(src, _calls("_labels"))
                if site[0] != "data.py"} == {("sampling.py", "TrialBatch.__post_init__")}

    def test_trials_are_made_only_from_trial_list_rows(self):
        # trials are built and held as columns; a Trial exists only when a row is read
        src = Path(data.__file__).parent
        assert _code_sites(src, _makes_trials) == {("data.py", "TrialList.__getitem__"),
                                                   ("data.py", "TrialList.__iter__")}

    def test_metrics_sweep_once(self):
        src = Path(data.__file__).parent
        assert {site for site in _code_sites(src, _calls("_candidate_thresholds"))
                if site[0] == "metrics.py"} == {("metrics.py", "_sweep")}


class TestMakeTrials:
    def test_one_speaker_draws_targets_only(self):
        utts = [_utt(f"u{i}", "s1", [float(i)]) for i in range(3)]
        trials = data.make_trials(utts, 5, 0.5, seed=0)
        assert isinstance(trials, data.TrialList)
        assert len({(t.enroll_id, t.test_id) for t in trials}) == 5
        assert all(t.label == data.TARGET for t in trials)


class TestSynthEmbeddings:
    def test_deterministic(self):
        phi = np.ones((2, 1))
        sigma = np.eye(2)
        a = data.synth_plda_embeddings(phi, sigma, 5, 3, seed=9)
        b = data.synth_plda_embeddings(phi, sigma, 5, 3, seed=9)
        for ua, ub in zip(a, b):
            assert ua.id == ub.id
            assert np.array_equal(ua.payload.vector, ub.payload.vector)

    def test_record_count_and_sharing(self):
        utts = data.synth_plda_embeddings(np.eye(3), np.eye(3), 4, 6, seed=0)
        assert len(utts) == 24
        assert len({u.speaker_id for u in utts}) == 4

    def test_zero_subspace_moments(self):
        # with no speaker subspace the sample covariance approaches sigma and
        # speaker means carry no structure beyond sampling noise
        d = 3
        sigma = np.diag([1.0, 2.0, 0.5])
        utts = data.synth_plda_embeddings(np.zeros((d, 1)), sigma, 100, 60, seed=5)
        X = utts.embedding_matrix()
        cov = np.cov(X.T)
        assert np.linalg.norm(cov - sigma) / np.linalg.norm(sigma) < 0.1
        spk_means = np.stack(
            [X[[i * 60 + j for j in range(60)]].mean(axis=0) for i in range(100)]
        )
        between = np.cov(spk_means.T)
        # speaker means are averages of 60 draws: covariance sigma / 60
        assert np.linalg.norm(between) < 3 * np.linalg.norm(sigma) / 60 + 0.05

    def test_one_dim_variance_decomposition(self):
        # phi = 1, sigma = 1: total variance 2, between-speaker variance 1
        utts = data.synth_plda_embeddings(np.array([[1.0]]), np.array([[1.0]]), 500, 10, seed=6)
        X = utts.embedding_matrix().ravel()
        spk = np.array([int(u.speaker_id[3:]) for u in utts])
        total_var = X.var()
        means = np.array([X[spk == s].mean() for s in range(500)])
        between = means.var() - 1.0 / 10  # subtract within-mean noise
        # standard errors: var of 5000 samples ~ sqrt(2/n)*var
        assert abs(total_var - 2.0) < 3 * 2.0 * np.sqrt(2.0 / 5000)
        assert abs(between - 1.0) < 3 * np.sqrt(2.0 / 500) * 1.2 + 0.05

    def test_non_pd_sigma_rejected(self):
        with pytest.raises(ModelError):
            data.synth_plda_embeddings(np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]]), 2, 2, seed=0)

    def test_sample_covariances_match_model(self):
        # with 5000+ utterances the across and within sample covariances
        # match phi phi^T and sigma within 10% relative Frobenius error
        rng = np.random.default_rng(7)
        d, q = 4, 2
        phi = rng.standard_normal((d, q))
        A = rng.standard_normal((d, d))
        sigma = A @ A.T + d * np.eye(d)
        utts = data.synth_plda_embeddings(phi, sigma, 500, 12, seed=8)
        X = utts.embedding_matrix()
        labels = np.array([u.speaker_id for u in utts])
        names = sorted(set(labels))
        means = np.stack([X[labels == s].mean(axis=0) for s in names])
        within = np.zeros((d, d))
        for s in names:
            dev = X[labels == s] - X[labels == s].mean(axis=0)
            within += dev.T @ dev
        within /= len(utts) - len(names)
        between = np.cov(means.T) - within / 12
        assert np.linalg.norm(within - sigma) / np.linalg.norm(sigma) < 0.1
        assert np.linalg.norm(between - phi @ phi.T) / np.linalg.norm(phi @ phi.T) < 0.1

    def test_single_gender_population(self):
        utts = data.synth_plda_embeddings(np.eye(2), np.eye(2), 4, 2, seed=1, gender="F")
        assert all(u.gender == "F" for u in utts)


class TestSynthFeatures:
    def test_deterministic(self):
        means = {"a": np.zeros(2), "b": np.ones(2)}
        x = data.synth_features(means, 0.5, 10, seed=3)
        y = data.synth_features(means, 0.5, 10, seed=3)
        for ua, ub in zip(x, y):
            assert np.array_equal(ua.payload.frames, ub.payload.frames)

    def test_degenerate_noise_equals_mean(self):
        means = {"a": np.array([1.0, -2.0])}
        utts = data.synth_features(means, 1e-12, 5, seed=0, utts_per_speaker=1)
        frames = utts.utterances[0].payload.frames
        assert np.allclose(frames, means["a"], atol=1e-10)

    def test_distant_means_are_bayes_separable(self):
        # with means 10 sigma apart, classifying an utterance by the nearest
        # speaker mean of its frame average is error-free for this sample
        means = {"a": np.array([0.0, 0.0]), "b": np.array([10.0, 10.0])}
        utts = data.synth_features(means, 1.0, 50, seed=1, utts_per_speaker=40)
        for u in utts:
            avg = u.payload.frames.mean(axis=0)
            nearest = min(means, key=lambda s: np.linalg.norm(avg - means[s]))
            assert nearest == u.speaker_id

    def test_empty_speaker_map_rejected(self):
        with pytest.raises(ArgumentError):
            data.synth_features({}, 1.0, 5, seed=0)
