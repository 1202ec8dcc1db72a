import ctypes
import hashlib
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from svkit import cli, data, e2e, gplda, metrics, nplda
from svkit.checkpoint import load_params, save_params


def run(args):
    return cli.main(args)


def write_config(path, text):
    path.write_text(text)
    return str(path)


def pass_through(monkeypatch):
    """Make `train e2e` write the model it would train, untrained."""
    monkeypatch.setattr(e2e, "train_e2e", lambda model, *args, **kwargs: (model, []))


EMB_CONFIG = """
[simulate]
kind = embeddings
seed = 5
n_speakers = 30
utts_per_speaker = 8
n_dev_speakers = 16
dev_utts_per_speaker = 6
dim = 10
latent_dim = 2
phi_scale = 3.0
n_dev_trials = 1500
dev_target_ratio = 0.3

[gplda]
lda_dim = 5

[sampler]
algo = 2
n_batches = 6

[optimizer]
epochs = 2
lr = 1e-4
"""

FEAT_CONFIG = """
[simulate]
kind = features
seed = 6
n_speakers = 12
utts_per_speaker = 12
n_dev_speakers = 8
dev_utts_per_speaker = 6
feat_dim = 4
frames = 30
mean_scale = 3.0
within_std = 1.0
n_dev_trials = 600
dev_target_ratio = 0.3

[sampler]
algo = 2
n_batches = 4

[optimizer]
epochs = 2
lr = 1e-3

[e2e]
layers =
    4 8 -1 0 1
    8 8 0
embedding_dim = 6
head_lda_dim = 5
head_out_dim = 4
"""

SMALL_DEV_CONFIG = """
[simulate]
kind = embeddings
seed = 3
n_speakers = 4
utts_per_speaker = 4
n_dev_speakers = 2
dev_utts_per_speaker = 2
n_dev_trials = %d
"""


@pytest.fixture(scope="module")
def emb_workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("embwork")
    cfg = write_config(root / "exp.ini", EMB_CONFIG)
    out = root / "data"
    assert run(["simulate", "--config", cfg, "--out", str(out)]) == 0
    return root, cfg, out


class TestSimulate:
    def test_outputs_exist(self, emb_workspace):
        root, cfg, out = emb_workspace
        assert (out / "train.embeddings").exists()
        assert (out / "dev.embeddings").exists()
        assert (out / "dev.trials").exists()
        assert (out / "simulate.config.ini").exists()

    def test_record_count(self, emb_workspace):
        root, cfg, out = emb_workspace
        train = data.read_embeddings(out / "train.embeddings")
        assert len(train) == 30 * 8

    def test_deterministic(self, emb_workspace, tmp_path):
        root, cfg, out = emb_workspace
        again = tmp_path / "again"
        assert run(["simulate", "--config", cfg, "--out", str(again)]) == 0
        for name in ("train.embeddings", "dev.embeddings", "dev.trials"):
            assert (out / name).read_text() == (again / name).read_text()

    def test_missing_seed_is_user_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "noseed.ini", "[simulate]\nkind = embeddings\n")
        code = run(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 1
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("n_dev_trials, code", [(12, 0), (13, 1), (100, 1)])
    def test_dev_trial_count_bounded(self, tmp_path, n_dev_trials, code):
        # 2 dev speakers x 2 utterances form 4 target and 8 non-target ordered
        # pairs; asking for more must fail at once, not draw forever, so the
        # command runs in a child process under a timeout
        cfg = write_config(tmp_path / "small.ini", SMALL_DEV_CONFIG % n_dev_trials)
        src = os.path.dirname(os.path.dirname(cli.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "svkit.cli", "simulate", "--config", cfg,
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, timeout=30,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == code, proc.stderr
        if code:
            assert "n_dev_trials = %d exceeds the 12 distinct trials" % n_dev_trials in proc.stderr
        else:
            trials = data.read_trials(tmp_path / "out" / "dev.trials")
            assert len({(t.enroll_id, t.test_id) for t in trials}) == 12

    @pytest.mark.parametrize("phi, noise, named", [
        ("1.0 x", "1.0 1.0", "[simulate] phi_scales = 'x'"),
        ("1.0 2.0", "1.0 1e", "[simulate] noise_scales = '1e'"),
    ], ids=["phi", "noise"])
    def test_bad_tier_scale_names_its_key(self, tmp_path, capsys, phi, noise, named):
        tiers = f"phi_scales = {phi}\nnoise_scales = {noise}\n\n[gplda]"
        cfg = write_config(tmp_path / "tiers.ini", EMB_CONFIG.replace("[gplda]", tiers))
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert named in capsys.readouterr().err
        assert not (tmp_path / "o" / "train.embeddings").exists()

    def test_zero_subspace_scores_near_constant(self, tmp_path):
        cfg = write_config(
            tmp_path / "flat.ini",
            EMB_CONFIG.replace("phi_scale = 3.0", "phi_scale = 0.0"),
        )
        out = tmp_path / "flat"
        assert run(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert run([
            "train", "gplda", "--config", cfg,
            "-O", f"data.train_embeddings={out}/train.embeddings",
            "--out", str(tmp_path / "flat.gplda"),
        ]) == 0
        model = gplda.load_model(tmp_path / "flat.gplda")
        dev = data.read_embeddings(out / "dev.embeddings")
        trials = data.read_trials(out / "dev.trials")
        scored = gplda.score_trials(model, trials, dev)
        # labels carry no embedding information: scores are near-constant
        # relative to a real model and the EER sits at chance
        assert np.std(scored.scores) < 0.5
        assert 0.35 <= metrics.eer(scored) <= 0.65


class TestConfig:
    @pytest.mark.parametrize("extra, override, named", [
        ("", "sampler.m_maxx=4", "[sampler] m_maxx"),
        ("\n[samplr]\nm_max = 4\n", "sampler.algo=2", "[samplr] m_max"),
        ("", "sampler.m_max=four", "[sampler] m_max = 'four'"),
    ], ids=["unknown-key", "unknown-section", "non-integer"])
    def test_error_names_its_key(self, emb_workspace, tmp_path, capsys, extra, override, named):
        root, _, out = emb_workspace
        cfg = write_config(tmp_path / "exp.ini", EMB_CONFIG + extra)
        code = run(["sample", "--config", cfg, "-O", override,
                    "--data", str(out / "train.embeddings"), "--out", str(tmp_path / "b.txt")])
        assert code == 1
        assert named in capsys.readouterr().err
        assert not (tmp_path / "b.txt").exists()

    @pytest.mark.parametrize("in_file, override, dataset", [
        ("a%b", None, "a%b"),
        ("synth", "simulate.dataset=x%y", "x%y"),
        ("%(seed)s", None, "%(seed)s"),
    ], ids=["file", "override", "interpolation-syntax"])
    def test_percent_is_literal(self, tmp_path, in_file, override, dataset):
        cfg = write_config(tmp_path / "pct.ini", SMALL_DEV_CONFIG % 12 + f"dataset = {in_file}\n")
        extra = ["-O", override] if override else []
        assert run(["simulate", "--config", cfg, *extra, "--out", str(tmp_path / "o")]) == 0
        train = data.read_embeddings(tmp_path / "o" / "train.embeddings")
        assert {u.dataset_id for u in train} == {dataset}
        resolved = (tmp_path / "o" / "simulate.config.ini").read_text()
        assert f"dataset = {dataset}\n" in resolved

    def test_readme_config_runs(self, tmp_path):
        readme = (Path(cli.__file__).parents[2] / "README.md").read_text()
        cfg = write_config(tmp_path / "readme.ini", readme.split("```ini\n")[1].split("```")[0])
        d = tmp_path / "data"
        paths = ["-O", f"data.train_embeddings={d}/train.embeddings",
                 "-O", f"data.dev_embeddings={d}/dev.embeddings",
                 "-O", f"data.dev_trials={d}/dev.trials", "-O", "optimizer.epochs=1"]
        assert run(["simulate", "--config", cfg, "--out", str(d)]) == 0
        assert run(["train", "gplda", "--config", cfg, *paths,
                    "--out", str(tmp_path / "m.gplda")]) == 0
        assert run(["train", "nplda", "--config", cfg, *paths, "--init", str(tmp_path / "m.gplda"),
                    "--out", str(tmp_path / "m.nplda")]) == 0


class TestLoadTimeErrors:
    @pytest.mark.parametrize("files, argv, named", [
        ({"exp.ini": FEAT_CONFIG.replace("    8 8 0\n", "    8 8\n")},
         "estimate-mem --config {tmp}/exp.ini -N 2 -T 50", "[e2e] layers"),
        ({"exp.ini": EMB_CONFIG.replace("[gplda]", "phi_scales = 1 2\nnoise_scales = 1\n[gplda]")},
         "simulate --config {tmp}/exp.ini --out {tmp}/o", "[simulate] phi_scales"),
        ({"exp.ini": EMB_CONFIG},
         "simulate --config {tmp}/exp.ini -O simulate.kind=audio --out {tmp}/o",
         "[simulate] kind"),
        ({"exp.ini": EMB_CONFIG},
         "simulate --config {tmp}/exp.ini -O simulate.split_genders=ture --out {tmp}/o",
         "[simulate] split_genders = 'ture'"),
        ({"exp.ini": EMB_CONFIG}, "sample --config {tmp}/exp.ini -O sampler.algo=3 "
         "--data {data}/train.embeddings --out {tmp}/b.txt", "[sampler] algo"),
        ({"s.scores": "a b 1.0\nc d 0.5\n", "key.trials": "a b target\nc d\n"},
         "evaluate --scores {tmp}/s.scores --key {tmp}/key.trials",
         "{tmp}/key.trials: trial c d has no label"),
        ({"exp.ini": "seed = 5\n[simulate]\n"},
         "simulate --config {tmp}/exp.ini --out {tmp}/o", "{tmp}/exp.ini:1: "),
        ({"exp.ini": "[simulate]\nseed = 5\n\nseed = 6\n"},
         "simulate --config {tmp}/exp.ini --out {tmp}/o", "{tmp}/exp.ini:4: "),
        ({"s.scores": "a b 1.0\nc d 0.0\ne f 2.0\n",
          "key.trials": "# key\na b target\nc d nontarget\n\ne f target\na b nontarget\n"},
         "evaluate --scores {tmp}/s.scores --key {tmp}/key.trials",
         "{tmp}/key.trials:6: repeated pair a b"),
        ({"s.scores": "a b 1.0\nc d 0.0\nc d 0.0\ne f 2.0\n",
          "key.trials": "a b target\nc d nontarget\ne f target\n"},
         "evaluate --scores {tmp}/s.scores --key {tmp}/key.trials",
         "{tmp}/s.scores:3: repeated pair c d"),
    ], ids=["e2e-layer-fields", "tier-lengths", "simulate-kind", "boolean-word", "sampler-algo",
            "unlabelled-key", "no-section-header", "option-set-twice", "repeated-key-pair",
            "repeated-score-line"])
    def test_error_names_its_key_or_line(self, emb_workspace, tmp_path, capsys, files, argv,
                                         named):
        fill = {"tmp": tmp_path, "data": emb_workspace[2]}
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        assert run(argv.format(**fill).split()) == 1
        assert named.format(**fill) in capsys.readouterr().err

    @pytest.mark.parametrize("word, value", [("1", True), ("Yes", True), ("TRUE", True),
                                             ("on", True), ("0", False), ("No", False),
                                             ("false", False), ("OFF", False)])
    def test_boolean_words(self, word, value):
        cfg = cli.Config(None, [f"loss.learn_theta={word}"])
        assert cfg.getbool("loss", "learn_theta") is value

    def test_misspelt_learn_theta_is_refused(self, trained_gplda, emb_workspace, tmp_path,
                                             capsys):
        _, cfg, out = emb_workspace
        code = run([
            "train", "nplda", "--config", cfg, "-O", "loss.learn_theta=ture",
            "-O", f"data.train_embeddings={out}/train.embeddings",
            "--init", str(trained_gplda), "--out", str(tmp_path / "model.nplda"),
        ])
        assert code == 1
        assert "[loss] learn_theta = 'ture'" in capsys.readouterr().err
        assert not (tmp_path / "model.nplda").exists()

    @pytest.mark.parametrize("key, value, expected", [
        ("lr", "-1", "a finite number > 0"),
        ("lr", "nan", "a finite number > 0"),
        ("lr", "inf", "a finite number > 0"),
        ("epochs", "0", "at least 1"),
        ("epochs", "-1", "at least 1"),
        ("patience", "0", "at least 1"),
        ("patience", "-2", "at least 1"),
    ])
    def test_optimizer_value_is_refused_before_any_write(self, trained_gplda, emb_workspace,
                                                         tmp_path, capsys, key, value, expected):
        _, cfg, out = emb_workspace
        code = run([
            "train", "nplda", "--config", cfg, "-O", f"optimizer.{key}={value}",
            "-O", f"data.train_embeddings={out}/train.embeddings",
            "--init", str(trained_gplda), "--out", str(tmp_path / "model.nplda"),
        ])
        assert code == 1
        assert f"[optimizer] {key} = '{value}': expected {expected}" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []


class TestCheckpointLayout:
    """A checkpoint whose parameters do not fit its kind's layout fails at load, naming the
    file and the parameter."""

    def score(self, ck, out, kind):
        files = "features" if kind == "e2e" else "embeddings"
        return run(["score", "--model", str(ck), "--trials", str(out / "dev.trials"),
                    "--data", str(out / f"dev.{files}"), "--out", str(ck) + ".scores"])

    @pytest.mark.parametrize("change, named", [
        (lambda p: p.pop("q"), "parameter 'q': missing, expected shape (2,)"),
        (lambda p: p.update(W2=np.zeros((2, 4))),
         "parameter 'W2': shape (2, 4), expected shape (2, 3)"),
        (lambda p: p.pop("W1"), "parameters W1 (a matrix) and p (a vector) give the layout"),
    ], ids=["missing-q", "W2-shape", "missing-W1"])
    def test_nplda(self, emb_workspace, tmp_path, capsys, change, named):
        params = nplda.init_random(10, 3, 2, seed=0).to_dict()
        change(params)
        ck = tmp_path / "bad.nplda"
        save_params(ck, params, {"kind": "nplda"})
        assert self.score(ck, emb_workspace[2], "nplda") == 1
        assert f"{ck}: {named}" in capsys.readouterr().err
        assert not (tmp_path / "bad.nplda.scores").exists()

    @pytest.mark.parametrize("change, named", [
        (lambda p: p.update({"tdnn2.W": np.zeros((16, 47))}),
         "parameter 'tdnn2.W': shape (16, 47), expected shape (16, 48)"),
        (lambda p: p.pop("head.theta"), "parameter 'head.theta': missing, expected shape ()"),
        (lambda p: p.update({"tdnn5.W": np.zeros(1)}), "unexpected parameter 'tdnn5.W'"),
    ], ids=["tdnn2-shape", "missing-theta", "extra-layer"])
    def test_e2e(self, feat_workspace, tmp_path, capsys, change, named):
        good = tmp_path / "good.e2e"
        e2e.save_e2e(e2e.init_e2e(e2e.desk_config(4), seed=0), good)
        params, meta = load_params(good)
        assert self.score(good, feat_workspace[2], "e2e") == 0
        change(params)
        ck = tmp_path / "bad.e2e"
        save_params(ck, params, meta)
        assert self.score(ck, feat_workspace[2], "e2e") == 1
        assert f"{ck}: {named}" in capsys.readouterr().err


    @pytest.mark.parametrize("change, named", [
        (lambda p: p.pop("psi"), "parameter 'psi': missing, expected shape (5,)"),
        (lambda p: p.update(p=np.zeros(4)), "parameter 'p': shape (4,), expected shape (5,)"),
        (lambda p: p.pop("lda"), "parameter lda (a matrix) gives the layout"),
    ], ids=["missing-psi", "p-shape", "missing-lda"])
    @pytest.mark.parametrize("command", ["score", "train-nplda"])
    def test_gplda(self, trained_gplda, emb_workspace, tmp_path, capsys, change, named, command):
        _, cfg, out = emb_workspace
        params, meta = load_params(trained_gplda)
        change(params)
        ck = tmp_path / "bad.gplda"
        save_params(ck, params, meta)
        if command == "score":
            code = self.score(ck, out, "gplda")
        else:
            code = run(["train", "nplda", "--config", cfg,
                        "-O", f"data.train_embeddings={out}/train.embeddings",
                        "--init", str(ck), "--out", str(tmp_path / "m.nplda")])
        assert code == 1
        assert f"{ck}: {named}" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == [ck]


@pytest.fixture(scope="module")
def trained_gplda(emb_workspace, tmp_path_factory):
    root, cfg, out = emb_workspace
    ck = tmp_path_factory.mktemp("models") / "model.gplda"
    code = run([
        "train", "gplda", "--config", cfg,
        "-O", f"data.train_embeddings={out}/train.embeddings",
        "-O", f"data.dev_embeddings={out}/dev.embeddings",
        "-O", f"data.dev_trials={out}/dev.trials",
        "--out", str(ck),
    ])
    assert code == 0
    return ck


class TestTrainScoreEvaluate:
    def test_gplda_checkpoint_reusable(self, trained_gplda, emb_workspace):
        root, cfg, out = emb_workspace
        model = gplda.load_model(trained_gplda)
        assert model.chain.out_dim == 5

    def test_score_matches_library(self, trained_gplda, emb_workspace, tmp_path):
        root, cfg, out = emb_workspace
        score_file = tmp_path / "scores.txt"
        assert run([
            "score", "--model", str(trained_gplda),
            "--trials", str(out / "dev.trials"),
            "--data", str(out / "dev.embeddings"),
            "--out", str(score_file),
        ]) == 0
        rows = data.read_scores(score_file)
        model = gplda.load_model(trained_gplda)
        dev = data.read_embeddings(out / "dev.embeddings")
        trials = data.read_trials(out / "dev.trials")
        scored = gplda.score_trials(model, trials, dev)
        assert np.allclose(rows.scores, scored.scores)

    def test_swapped_trial_columns_equal_scores(self, trained_gplda, emb_workspace, tmp_path):
        root, cfg, out = emb_workspace
        trials = data.read_trials(out / "dev.trials")
        swapped = [data.Trial(t.test_id, t.enroll_id, t.label) for t in trials]
        swapped_file = tmp_path / "swapped.trials"
        data.write_trials(swapped, swapped_file)
        a, b = tmp_path / "a.scores", tmp_path / "b.scores"
        run(["score", "--model", str(trained_gplda), "--trials", str(out / "dev.trials"),
             "--data", str(out / "dev.embeddings"), "--out", str(a)])
        run(["score", "--model", str(trained_gplda), "--trials", str(swapped_file),
             "--data", str(out / "dev.embeddings"), "--out", str(b)])
        sa = data.read_scores(a).scores
        sb = data.read_scores(b).scores
        assert np.allclose(sa, sb)

    def test_scoring_deterministic(self, trained_gplda, emb_workspace, tmp_path):
        root, cfg, out = emb_workspace
        a, b = tmp_path / "s1.txt", tmp_path / "s2.txt"
        for f in (a, b):
            run(["score", "--model", str(trained_gplda), "--trials", str(out / "dev.trials"),
                 "--data", str(out / "dev.embeddings"), "--out", str(f)])
        assert a.read_text() == b.read_text()

    def test_evaluate_hand_file(self, tmp_path, capsys):
        scores = tmp_path / "scores.txt"
        key = tmp_path / "key.txt"
        scores.write_text("a b 2.0\nc d 0.0\ne f 1.0\ng h -1.0\n")
        key.write_text("a b target\nc d target\ne f nontarget\ng h nontarget\n")
        assert run(["evaluate", "--scores", str(scores), "--key", str(key),
                    "--p-target", "0.5"]) == 0
        printed = capsys.readouterr().out
        trials = [data.Trial("a", "b", "target"), data.Trial("c", "d", "target"),
                  data.Trial("e", "f", "nontarget"), data.Trial("g", "h", "nontarget")]
        st = data.ScoredTrialSet(trials, np.array([2.0, 0.0, 1.0, -1.0]))
        want_eer = metrics.eer(st)
        want_cost, _ = metrics.min_dcf(st, metrics.DcfWeights(p_target=0.5))
        assert f"eer_percent {100 * want_eer:.4f}" in printed
        assert f"min_dcf {want_cost:.6f}" in printed
        assert (tmp_path / "scores.txt.metrics.csv").exists()

    def test_evaluate_separable(self, tmp_path, capsys):
        scores = tmp_path / "scores.txt"
        key = tmp_path / "key.txt"
        scores.write_text("a b 5.0\nc d -5.0\n")
        key.write_text("a b target\nc d nontarget\n")
        assert run(["evaluate", "--scores", str(scores), "--key", str(key)]) == 0
        printed = capsys.readouterr().out
        assert "eer_percent 0.0000" in printed
        assert "min_dcf 0.000000" in printed

    def test_evaluate_multi_operating_point(self, tmp_path, capsys):
        scores = tmp_path / "scores.txt"
        key = tmp_path / "key.txt"
        scores.write_text("a b 2.0\nc d 0.0\ne f 1.0\ng h -1.0\n")
        key.write_text("a b target\nc d target\ne f nontarget\ng h nontarget\n")
        assert run(["evaluate", "--scores", str(scores), "--key", str(key),
                    "--p-target", "0.5", "--extra-p-target", "0.1"]) == 0
        printed = capsys.readouterr().out
        trials = [data.Trial("a", "b", "target"), data.Trial("c", "d", "target"),
                  data.Trial("e", "f", "nontarget"), data.Trial("g", "h", "nontarget")]
        st = data.ScoredTrialSet(trials, np.array([2.0, 0.0, 1.0, -1.0]))
        want = np.mean([metrics.min_dcf(st, metrics.DcfWeights(p_target=p))[0]
                        for p in (0.5, 0.1)])
        assert f"min_dcf_avg {want:.6f}" in printed

    def test_evaluate_sweeps_once(self, tmp_path, monkeypatch):
        # every operating point and metric comes from one sweep of the scores
        calls = []
        sweep = metrics._sweep
        monkeypatch.setattr(metrics, "_sweep", lambda scored: calls.append(scored) or sweep(scored))
        scores = tmp_path / "scores.txt"
        key = tmp_path / "key.txt"
        scores.write_text("a b 2.0\nc d 0.0\ne f 1.0\ng h -1.0\n")
        key.write_text("a b target\nc d target\ne f nontarget\ng h nontarget\n")
        assert run(["evaluate", "--scores", str(scores), "--key", str(key),
                    "--extra-p-target", "0.1", "--extra-p-target", "0.3"]) == 0
        assert len(calls) == 1

    def test_evaluate_unkeyed_trial_fails(self, tmp_path, capsys):
        scores = tmp_path / "scores.txt"
        key = tmp_path / "key.txt"
        scores.write_text("a b 1.0\nmystery x 0.5\n")
        key.write_text("a b target\n")
        assert run(["evaluate", "--scores", str(scores), "--key", str(key)]) == 1
        assert "missing" in capsys.readouterr().err

    def test_shuffled_score_file_evaluates_the_same(self, trained_gplda, emb_workspace,
                                                    tmp_path, capsys):
        # evaluate matches score lines to key lines by pair, whatever their order
        root, cfg, out = emb_workspace
        ordered, shuffled = tmp_path / "ordered.scores", tmp_path / "shuffled.scores"
        assert run(["score", "--model", str(trained_gplda), "--trials", str(out / "dev.trials"),
                    "--data", str(out / "dev.embeddings"), "--out", str(ordered)]) == 0
        lines = ordered.read_text().splitlines(keepends=True)
        shuffled.write_text("".join(lines[i] for i in np.random.default_rng(0).permutation(
            len(lines))))
        printed = []
        for scores in (ordered, shuffled):
            capsys.readouterr()
            assert run(["evaluate", "--scores", str(scores), "--key", str(out / "dev.trials"),
                        "--extra-p-target", "0.1"]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]
        assert (Path(f"{ordered}.metrics.csv").read_bytes()
                == Path(f"{shuffled}.metrics.csv").read_bytes())

    def test_malformed_scores_exit_one(self, tmp_path):
        scores = tmp_path / "scores.txt"
        key = tmp_path / "key.txt"
        scores.write_text("a b not-a-number\n")
        key.write_text("a b target\n")
        assert run(["evaluate", "--scores", str(scores), "--key", str(key)]) == 1


class TestNpldaAndChain:
    def test_nplda_requires_init(self, emb_workspace, tmp_path):
        root, cfg, out = emb_workspace
        code = run([
            "train", "nplda", "--config", cfg,
            "-O", f"data.train_embeddings={out}/train.embeddings",
            "--out", str(tmp_path / "x.nplda"),
        ])
        assert code == 1

    def test_nplda_trains_from_gplda(self, trained_gplda, emb_workspace, tmp_path):
        root, cfg, out = emb_workspace
        ck = tmp_path / "model.nplda"
        trace = tmp_path / "trace.csv"
        code = run([
            "train", "nplda", "--config", cfg, "--seed", "3",
            "-O", f"data.train_embeddings={out}/train.embeddings",
            "-O", f"data.dev_embeddings={out}/dev.embeddings",
            "-O", f"data.dev_trials={out}/dev.trials",
            "--init", str(trained_gplda),
            "--out", str(ck), "--trace", str(trace),
        ])
        assert code == 0
        params = nplda.load_nplda(ck)
        assert params.W1.shape == (5, 10)
        lines = trace.read_text().splitlines()
        assert lines[0] == "epoch,loss,dev_eer,dev_mindcf"
        assert len(lines) == 3  # header + 2 epochs

    def test_wrong_kind_init_is_user_error(self, emb_workspace, tmp_path, capsys):
        root, cfg, out = emb_workspace
        init = tmp_path / "backend.nplda"
        nplda.save_nplda(nplda.init_random(10, 5, 4, seed=0), init)
        code = run([
            "train", "nplda", "--config", cfg,
            "-O", f"data.train_embeddings={out}/train.embeddings",
            "--init", str(init), "--out", str(tmp_path / "x.nplda"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert str(init) in err and "'nplda'" in err and "'gplda'" in err

    def test_rerun_identical_checkpoint(self, trained_gplda, emb_workspace, tmp_path):
        root, cfg, out = emb_workspace
        outs = []
        for name in ("one", "two"):
            ck = tmp_path / f"{name}.nplda"
            run([
                "train", "nplda", "--config", cfg, "--seed", "3",
                "-O", f"data.train_embeddings={out}/train.embeddings",
                "--init", str(trained_gplda),
                "--out", str(ck),
            ])
            outs.append(ck.read_text())
        assert outs[0] == outs[1]


class TestTrainPipeline:
    @pytest.mark.parametrize("kind, flag", [
        ("gplda", "--trace"), ("gplda", "--init"), ("gplda", "--extractor"),
        ("gplda", "--pooling"), ("nplda", "--extractor"), ("nplda", "--pooling"),
    ])
    def test_flag_of_another_kind_refused(self, emb_workspace, tmp_path, kind, flag):
        root, cfg, out = emb_workspace
        value = "variance" if flag == "--pooling" else str(tmp_path / "g.csv")
        with pytest.raises(SystemExit) as exc:
            run(["train", kind, "--config", cfg,
                 "-O", f"data.train_embeddings={out}/train.embeddings",
                 flag, value, "--out", str(tmp_path / "m")])
        assert exc.value.code == 1
        assert list(tmp_path.iterdir()) == []

    def test_gplda_missing_dev_file_writes_nothing(self, emb_workspace, tmp_path, capsys):
        root, cfg, out = emb_workspace
        code = run([
            "train", "gplda", "--config", cfg,
            "-O", f"data.train_embeddings={out}/train.embeddings",
            "-O", f"data.dev_embeddings={tmp_path}/missing.embeddings",
            "-O", f"data.dev_trials={out}/dev.trials",
            "--out", str(tmp_path / "m.gplda"),
        ])
        assert code == 1
        assert "missing.embeddings" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def feat_workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("featwork")
    cfg = write_config(root / "exp.ini", FEAT_CONFIG)
    out = root / "data"
    assert run(["simulate", "--config", cfg, "--out", str(out)]) == 0
    return root, cfg, out


class TestE2ECli:
    def test_train_both_poolings(self, feat_workspace, tmp_path):
        root, cfg, out = feat_workspace
        for pooling in ("stddev", "variance"):
            ck = tmp_path / f"{pooling}.e2e"
            code = run([
                "train", "e2e", "--config", cfg, "--seed", "4",
                "-O", f"data.train_features={out}/train.features",
                "-O", f"data.dev_features={out}/dev.features",
                "-O", f"data.dev_trials={out}/dev.trials",
                "--pooling", pooling,
                "--out", str(ck),
            ])
            assert code == 0
            model = e2e.load_e2e(ck)
            assert model.config.pooling == pooling
            resolved = (str(ck) + ".config.ini")
            assert os.path.exists(resolved)
            assert f"pooling = {pooling}" in open(resolved).read()

    def test_e2e_score_command(self, feat_workspace, tmp_path):
        root, cfg, out = feat_workspace
        ck = tmp_path / "m.e2e"
        assert run([
            "train", "e2e", "--config", cfg, "--seed", "4",
            "-O", f"data.train_features={out}/train.features",
            "--out", str(ck),
        ]) == 0
        score_file = tmp_path / "e2e.scores"
        assert run([
            "score", "--model", str(ck), "--trials", str(out / "dev.trials"),
            "--data", str(out / "dev.features"), "--out", str(score_file),
        ]) == 0
        assert len(data.read_scores(score_file)) == 600

    def test_e2e_head_init_from_nplda_checkpoint(self, feat_workspace, tmp_path):
        # the [e2e] embedding dim is 6, so the head checkpoint must be 6-in; its inner
        # dims 3/2, not the [e2e] 5/4, are what the checkpoint describes
        root, cfg, out = feat_workspace
        head = nplda.init_random(6, 3, 2, seed=9)
        head_path = tmp_path / "head.nplda"
        nplda.save_nplda(head, head_path)
        ck = tmp_path / "warm.e2e"
        assert run([
            "train", "e2e", "--config", cfg, "--seed", "4",
            "-O", f"data.train_features={out}/train.features",
            "--init", str(head_path),
            "--out", str(ck),
        ]) == 0
        model = e2e.load_e2e(ck)
        assert model.head.W1.shape == (3, 6)
        _, meta = load_params(ck)
        assert (meta["head_lda_dim"], meta["head_out_dim"]) == ("3", "2")

    def test_extractor_warm_start(self, feat_workspace, tmp_path, monkeypatch):
        # untrained: the extractor checkpoint passes through, with --init replacing its head
        root, cfg, out = feat_workspace
        base = ["train", "e2e", "--config", cfg, "--seed", "4",
                "-O", f"data.train_features={out}/train.features"]
        extractor = tmp_path / "extractor.e2e"
        assert run(base + ["--out", str(extractor)]) == 0
        pass_through(monkeypatch)
        untouched = tmp_path / "untouched.e2e"
        assert run(base + ["--extractor", str(extractor), "--out", str(untouched)]) == 0
        assert untouched.read_bytes() == extractor.read_bytes()

        head_path = tmp_path / "head.nplda"
        nplda.save_nplda(nplda.init_random(6, 5, 4, seed=9), head_path)
        warm = tmp_path / "warm.e2e"
        assert run(base + ["--extractor", str(extractor), "--init", str(head_path),
                           "--out", str(warm)]) == 0
        got, _ = load_params(warm)
        trained, _ = load_params(extractor)
        head, _ = load_params(head_path)
        assert {n[len("head."):] for n in got if n.startswith("head.")} == set(head)
        for name, value in got.items():
            if name.startswith("head."):
                assert np.array_equal(value, head[name[len("head."):]])
            else:
                assert np.array_equal(value, trained[name])
        assert not np.array_equal(trained["head.W1"], head["W1"])


def _with_short_utterance(src, dst, frames):
    """The feature file ``src`` plus one utterance ``short`` of ``frames`` frames, at ``dst``."""
    utts = list(data.read_features(src))
    u = utts[0]
    utts.append(data.Utterance("short", u.speaker_id, u.gender, u.dataset_id,
                               data.FeatureMatrix(np.ones((frames, u.payload.dim)))))
    data.write_features(utts, dst)
    return str(dst)


class TestE2EModelBuilt:
    """The e2e model is the [e2e] config, or an --extractor of that shape, and
    every utterance fits it."""

    BLANK_LAYERS = FEAT_CONFIG.split("[e2e]")[0]

    def _train(self, cfg, out, ck, *extra):
        return run(["train", "e2e", "--config", cfg, "--seed", "4",
                    "-O", f"data.train_features={out}/train.features",
                    "-O", "optimizer.epochs=1", *extra, "--out", str(ck)])

    @pytest.mark.parametrize("extra, pooling, dims", [
        (["-O", "e2e.pooling=variance", "-O", "e2e.embedding_dim=10",
          "-O", "e2e.head_lda_dim=7", "-O", "e2e.head_out_dim=5"], "variance", (10, 7, 5)),
        (["--pooling", "variance"], "variance", (16, 12, 8)),
        ([], "stddev", (16, 12, 8)),
    ], ids=["overrides", "pooling-flag", "defaults"])
    def test_blank_layers_take_the_e2e_keys(self, feat_workspace, tmp_path, extra, pooling,
                                            dims):
        root, _, out = feat_workspace
        cfg = write_config(tmp_path / "blank.ini", self.BLANK_LAYERS)
        ck = tmp_path / "m.e2e"
        assert self._train(cfg, out, ck, *extra) == 0
        model = e2e.load_e2e(ck)
        assert model.config.layers == e2e.desk_config(4).layers
        assert model.config.pooling == pooling
        assert (model.config.embedding_dim, model.config.head_lda_dim,
                model.config.head_out_dim) == dims
        assert model.head.W1.shape == (dims[1], dims[0])
        assert model.head.W2.shape == (dims[2], dims[1])

    def test_head_dims_must_not_grow(self, feat_workspace, tmp_path, capsys):
        root, _, out = feat_workspace
        cfg = write_config(tmp_path / "blank.ini", self.BLANK_LAYERS)
        assert self._train(cfg, out, tmp_path / "m.e2e", "-O", "e2e.embedding_dim=10") == 1
        assert "head_lda_dim <= embedding_dim, got 8, 12, 10" in capsys.readouterr().err
        assert not (tmp_path / "m.e2e").exists()

    @pytest.fixture(scope="class")
    def extractor(self, feat_workspace, tmp_path_factory):
        root, cfg, out = feat_workspace
        ck = tmp_path_factory.mktemp("extractor") / "extractor.e2e"
        assert self._train(cfg, out, ck) == 0
        return ck

    def test_extractor_checks_the_head(self, feat_workspace, extractor, tmp_path, capsys,
                                       monkeypatch):
        # the [e2e] config says 20, the extractor emits 6: the head is checked against the
        # extractor it will sit on, before any training step
        root, cfg, out = feat_workspace
        head_path = tmp_path / "head.nplda"
        nplda.save_nplda(nplda.init_random(20, 5, 4, seed=9), head_path)
        monkeypatch.setattr(e2e, "batch_loss_and_grads", None)
        code = self._train(cfg, out, tmp_path / "m.e2e", "-O", "e2e.embedding_dim=20",
                           "--extractor", str(extractor), "--init", str(head_path))
        assert code == 1
        assert "head expects dim 20, extractor emits 6" in capsys.readouterr().err
        assert not (tmp_path / "m.e2e").exists()

    def test_init_head_brings_its_own_dims(self, feat_workspace, extractor, tmp_path,
                                           monkeypatch):
        # the [e2e] head dims are 5/4; an --init head of 3/2 replaces the extractor's head
        root, cfg, out = feat_workspace
        head_path = tmp_path / "head.nplda"
        nplda.save_nplda(nplda.init_random(6, 3, 2, seed=9), head_path)
        pass_through(monkeypatch)
        assert self._train(cfg, out, tmp_path / "m.e2e",
                           "--extractor", str(extractor), "--init", str(head_path)) == 0
        model = e2e.load_e2e(tmp_path / "m.e2e")
        assert (model.config.head_lda_dim, model.config.head_out_dim) == (3, 2)

    def test_init_config_matches_the_checkpoint(self, feat_workspace, tmp_path, monkeypatch):
        # [e2e] says 5/4 and the --init head is 3/2: both files give the checkpoint's 3/2
        root, cfg, out = feat_workspace
        head_path, ck = tmp_path / "head.nplda", tmp_path / "m.e2e"
        nplda.save_nplda(nplda.init_random(6, 3, 2, seed=9), head_path)
        pass_through(monkeypatch)
        assert self._train(cfg, out, ck, "--init", str(head_path)) == 0
        _, meta = load_params(ck)
        resolved = cli.Config(f"{ck}.config.ini")
        for key in ("head_lda_dim", "head_out_dim"):
            assert resolved.get("e2e", key) == meta[key]
        assert (meta["head_lda_dim"], meta["head_out_dim"]) == ("3", "2")

    @pytest.mark.parametrize("head, named", [
        (lambda: nplda.init_random(9, 5, 4, seed=9), "head expects dim 9, extractor emits 6"),
        (lambda: nplda.NpldaParams._over(nplda._layout(6, 2, 3)),
         "head needs out_dim <= lda_dim, got out_dim 3 (p) and lda_dim 2 (W1)"),
    ], ids=["input-dim", "out-dim-above-lda-dim"])
    def test_init_head_errors_name_the_file(self, feat_workspace, tmp_path, capsys, monkeypatch,
                                            head, named):
        root, cfg, out = feat_workspace
        head_path = tmp_path / "head.nplda"
        nplda.save_nplda(head(), head_path)
        monkeypatch.setattr(e2e, "batch_loss_and_grads", None)
        assert self._train(cfg, out, tmp_path / "m.e2e", "--init", str(head_path)) == 1
        assert f"{head_path}: {named}" in capsys.readouterr().err
        assert not (tmp_path / "m.e2e").exists()

    @pytest.mark.parametrize("override, named", [
        ("e2e.layers=4 0 0", "[e2e] layers line '4 0 0': TDNN layer dims must be positive"),
        ("e2e.freeze_prefix=9", "[e2e] freeze_prefix = 9: expected 0 to 2"),
        ("e2e.freeze_prefix=-1", "[e2e] freeze_prefix = -1: expected 0 to 2"),
    ], ids=["zero-layer-dim", "freeze-past-the-layers", "negative-freeze"])
    def test_e2e_value_names_its_key(self, feat_workspace, tmp_path, capsys, monkeypatch,
                                     override, named):
        root, cfg, out = feat_workspace
        monkeypatch.setattr(e2e, "batch_loss_and_grads", None)
        assert self._train(cfg, out, tmp_path / "m.e2e", "-O", override) == 1
        assert named in capsys.readouterr().err
        assert not (tmp_path / "m.e2e").exists()

    @pytest.mark.parametrize("extra, named", [
        (["--pooling", "variance"], "pooling"),
        (["-O", "e2e.embedding_dim=5"], "embedding_dim"),
        (["-O", "e2e.layers=4 8 -2 0 2\n8 8 0"], "layers"),
    ], ids=["pooling", "embedding-dim", "layers"])
    def test_extractor_must_match_the_config(self, feat_workspace, extractor, tmp_path, capsys,
                                             extra, named):
        root, cfg, out = feat_workspace
        code = self._train(cfg, out, tmp_path / "m.e2e", "--extractor", str(extractor), *extra)
        assert code == 1
        err = capsys.readouterr().err
        assert f"{extractor}: extractor differs from the [e2e] config in {named}" in err
        assert not (tmp_path / "m.e2e").exists()

    @pytest.mark.parametrize("which", ["train", "dev"])
    def test_short_utterance_fails_before_training(self, feat_workspace, tmp_path, capsys,
                                                   monkeypatch, which):
        # FEAT_CONFIG's extractor needs 2 + 2 = 4 frames
        root, cfg, out = feat_workspace
        short = _with_short_utterance(out / f"{which}.features", tmp_path / "short.features", 3)
        monkeypatch.setattr(e2e, "batch_loss_and_grads", None)
        code = run(["train", "e2e", "--config", cfg,
                    "-O", f"data.train_features={out}/train.features",
                    "-O", f"data.dev_features={out}/dev.features",
                    "-O", f"data.dev_trials={out}/dev.trials",
                    "-O", f"data.{which}_features={short}",
                    "--out", str(tmp_path / "m.e2e")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{short}: utterance short has 3 frames, extractor needs min_frames = 4" in err
        assert not (tmp_path / "m.e2e").exists()

    def test_short_utterance_fails_before_scoring(self, feat_workspace, extractor, tmp_path,
                                                  capsys):
        root, cfg, out = feat_workspace
        short = _with_short_utterance(out / "dev.features", tmp_path / "short.features", 3)
        code = run(["score", "--model", str(extractor), "--trials", str(out / "dev.trials"),
                    "--data", short, "--out", str(tmp_path / "s.txt")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{short}: utterance short has 3 frames, extractor needs min_frames = 4" in err
        assert not (tmp_path / "s.txt").exists()


def _gplda_of_dim(dim, path):
    """A gplda checkpoint whose model takes embeddings of ``dim`` values."""
    chain = gplda.PreprocessChain(np.zeros(dim), np.eye(dim))
    gplda.save_model(gplda.make_model(np.eye(dim), np.eye(dim), chain=chain), path)
    return path


def _truncated_embeddings(src, dst, dim):
    utts = data.read_embeddings(src)
    data.write_embeddings([data.Utterance(u.id, u.speaker_id, u.gender, u.dataset_id,
                                          data.Embedding(u.payload.vector[:dim]))
                           for u in utts], dst)
    return dst


class TestInputChecks:
    """Every data file a command reads must fit the model, and a dev trial list must be
    labelled with both classes; a command that refuses its input writes nothing."""

    @pytest.mark.parametrize("case", ["train-e2e", "score-e2e", "score-gplda", "train-nplda",
                                      "train-gplda-dev"])
    def test_dimension_names_file_and_dims(self, emb_workspace, feat_workspace, tmp_path,
                                           capsys, case):
        _, emb_cfg, emb = emb_workspace
        _, feat_cfg, feat = feat_workspace
        models = tmp_path / "models"
        models.mkdir()
        out = tmp_path / "out"
        if case == "train-e2e":
            bad, dims = feat / "train.features", "dim 4, the model takes dim 6"
            argv = ["train", "e2e", "--config", feat_cfg, "-O", "e2e.layers=6 8 -1 0 1",
                    "-O", f"data.train_features={bad}"]
        elif case == "score-e2e":
            ck = models / "five.e2e"
            e2e.save_e2e(e2e.init_e2e(e2e.desk_config(5), seed=0), ck)
            bad, dims = feat / "dev.features", "dim 4, the model takes dim 5"
            argv = ["score", "--model", str(ck), "--trials", str(feat / "dev.trials"),
                    "--data", str(bad)]
        elif case == "score-gplda":
            ck = _gplda_of_dim(7, models / "seven.gplda")
            bad, dims = emb / "dev.embeddings", "dim 10, the model takes dim 7"
            argv = ["score", "--model", str(ck), "--trials", str(emb / "dev.trials"),
                    "--data", str(bad)]
        elif case == "train-nplda":
            ck = _gplda_of_dim(7, models / "seven.gplda")
            bad, dims = emb / "train.embeddings", "dim 10, the model takes dim 7"
            argv = ["train", "nplda", "--config", emb_cfg, "--init", str(ck),
                    "-O", f"data.train_embeddings={bad}",
                    "-O", f"data.dev_embeddings={emb}/dev.embeddings",
                    "-O", f"data.dev_trials={emb}/dev.trials"]
        else:
            bad = _truncated_embeddings(emb / "dev.embeddings", models / "dev9.embeddings", 9)
            dims = "dim 9, the model takes dim 10"
            argv = ["train", "gplda", "--config", emb_cfg,
                    "-O", f"data.train_embeddings={emb}/train.embeddings",
                    "-O", f"data.dev_embeddings={bad}", "-O", f"data.dev_trials={emb}/dev.trials"]
        assert run(argv + ["--out", str(out)]) == 1
        assert f"{bad}: data has {dims}" in capsys.readouterr().err
        assert not any(p.name.startswith("out") for p in tmp_path.iterdir())

    def test_gplda_needs_a_speaker_with_two_utterances(self, emb_workspace, tmp_path, capsys):
        _, cfg, out = emb_workspace
        firsts = {}
        for u in data.read_embeddings(out / "train.embeddings"):
            firsts.setdefault(u.speaker_id, u)
        single = tmp_path / "single.embeddings"
        data.write_embeddings(firsts.values(), single)
        assert run(["train", "gplda", "--config", cfg, "-O", f"data.train_embeddings={single}",
                    "--out", str(tmp_path / "m.gplda")]) == 1
        assert f"{single}: no speaker has two utterances" in capsys.readouterr().err
        assert not (tmp_path / "m.gplda").exists()

    @pytest.mark.parametrize("lda_dim", [0, -3])
    def test_lda_dim_below_one_names_its_key(self, emb_workspace, tmp_path, capsys, lda_dim):
        _, cfg, out = emb_workspace
        assert run(["train", "gplda", "--config", cfg, "-O", f"gplda.lda_dim={lda_dim}",
                    "-O", f"data.train_embeddings={out / 'train.embeddings'}",
                    "-O", f"data.dev_embeddings={out / 'dev.embeddings'}",
                    "-O", f"data.dev_trials={out / 'dev.trials'}",
                    "--out", str(tmp_path / "m.gplda")]) == 1
        assert f"[gplda] lda_dim = {lda_dim}: expected at least 1" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.fixture(scope="class")
    def checkpoints(self, trained_gplda, tmp_path_factory):
        root = tmp_path_factory.mktemp("empty")
        nplda.save_nplda(nplda.init_random(10, 3, 2, seed=0), root / "model.nplda")
        e2e.save_e2e(e2e.init_e2e(e2e.desk_config(4), seed=0), root / "model.e2e")
        return {"gplda": trained_gplda, "nplda": root / "model.nplda", "e2e": root / "model.e2e"}

    @pytest.mark.parametrize("kind", ["gplda", "nplda", "e2e"])
    def test_empty_list_scores_to_empty_file(self, checkpoints, emb_workspace, feat_workspace,
                                             tmp_path, kind):
        out = (feat_workspace if kind == "e2e" else emb_workspace)[2]
        files = "features" if kind == "e2e" else "embeddings"
        (tmp_path / "empty.trials").write_text("")
        assert run(["score", "--model", str(checkpoints[kind]), "--trials",
                    str(tmp_path / "empty.trials"), "--data", str(out / f"dev.{files}"),
                    "--out", str(tmp_path / "s.scores")]) == 0
        assert (tmp_path / "s.scores").read_text() == ""

    @pytest.mark.parametrize("trials, named", [
        ("", "needs target and nontarget trials, has 0 target and 0 nontarget"),
        ("{a} {b} target\n{a} {c}\n", "trial {a} {c} has no label"),
        ("{a} {b} target\n{b} {a} target\n",
         "needs target and nontarget trials, has 2 target and 0 nontarget"),
        ("{a} {c} nontarget\n", "needs target and nontarget trials, has 0 target and 1 nontarget"),
        ("{a} nosuch-utt target\n{a} {b} nontarget\n", "unresolved utterance id(s): nosuch-utt"),
    ], ids=["empty", "unlabelled", "targets-only", "nontargets-only", "missing-id"])
    @pytest.mark.parametrize("kind", ["gplda", "nplda", "e2e"])
    def test_dev_trials_refused_before_fitting(self, checkpoints, emb_workspace, feat_workspace,
                                               tmp_path, capsys, kind, trials, named):
        _, cfg, out = feat_workspace if kind == "e2e" else emb_workspace
        files = "features" if kind == "e2e" else "embeddings"
        # the check reads labels alone, so any three dev utterances serve
        ids = [u.id for u in cli._KINDS[kind][1](out / f"dev.{files}")]
        fill = dict(zip("abc", ids))
        bad = tmp_path / "dev.trials"
        bad.write_text(trials.format(**fill))
        init = ["--init", str(checkpoints["gplda"])] if kind == "nplda" else []
        code = run(["train", kind, "--config", cfg, *init,
                    "-O", f"data.train_{files}={out}/train.{files}",
                    "-O", f"data.dev_{files}={out}/dev.{files}",
                    "-O", f"data.dev_trials={bad}", "--out", str(tmp_path / "m.out")])
        assert code == 1
        assert f"{bad}: {named.format(**fill)}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [bad]

    @pytest.mark.parametrize("kind", ["gplda", "nplda", "e2e"])
    def test_empty_training_file_refused_before_fitting(self, checkpoints, emb_workspace,
                                                        feat_workspace, tmp_path, capsys, kind):
        _, cfg, out = feat_workspace if kind == "e2e" else emb_workspace
        files = "features" if kind == "e2e" else "embeddings"
        empty = tmp_path / f"train.{files}"
        empty.write_text("")
        init = ["--init", str(checkpoints["gplda"])] if kind == "nplda" else []
        code = run(["train", kind, "--config", cfg, *init,
                    "-O", f"data.train_{files}={empty}",
                    "-O", f"data.dev_{files}={out}/dev.{files}",
                    "-O", f"data.dev_trials={out}/dev.trials", "--out", str(tmp_path / "m.out")])
        assert code == 1
        assert f"{empty}: holds no utterances" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [empty]

    @pytest.mark.parametrize("kind", ["gplda", "nplda", "e2e"])
    def test_score_names_both_files_on_a_missing_id(self, checkpoints, emb_workspace,
                                                    feat_workspace, tmp_path, capsys, kind):
        out = (feat_workspace if kind == "e2e" else emb_workspace)[2]
        dev = out / ("dev.features" if kind == "e2e" else "dev.embeddings")
        first = cli._KINDS[kind][1](dev).utterances[0].id
        bad = tmp_path / "eval.trials"
        bad.write_text(f"{first} nosuch-utt\n")
        assert run(["score", "--model", str(checkpoints[kind]), "--trials", str(bad),
                    "--data", str(dev), "--out", str(tmp_path / "s.scores")]) == 1
        assert (f"{bad}: unresolved utterance id(s): nosuch-utt (not in {dev})"
                in capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == [bad]


class TestSampleAndMem:
    def test_sample_command(self, emb_workspace, tmp_path):
        root, cfg, out = emb_workspace
        batches = tmp_path / "batches.txt"
        assert run([
            "sample", "--config", cfg, "--seed", "2",
            "--data", str(out / "train.embeddings"), "--out", str(batches),
        ]) == 0
        trials = data.read_trials(batches)
        assert len(trials) == 6 * 1024

    def test_sample_algo2_file_is_pinned(self, emb_workspace, tmp_path):
        # cross-product batches derive their trials from their label matrix when
        # written; the file is byte for byte the one per-trial batches wrote
        root, cfg, out = emb_workspace
        batches = tmp_path / "batches.txt"
        assert run(["sample", "--config", cfg, "--seed", "2",
                    "--data", str(out / "train.embeddings"), "--out", str(batches)]) == 0
        assert hashlib.sha256(batches.read_bytes()).hexdigest() == (
            "5c8a72383b8de8dc01914b8691b5c34bbbb4a65fceda79eaedfbc4df64da11e6")

    def test_sample_command_algo1(self, emb_workspace, tmp_path):
        root, cfg, out = emb_workspace
        batches = tmp_path / "pairwise.txt"
        assert run([
            "sample", "--config", cfg, "--seed", "2",
            "-O", "sampler.algo=1", "-O", "sampler.n_trials=100",
            "--data", str(out / "train.embeddings"), "--out", str(batches),
        ]) == 0
        trials = data.read_trials(batches)
        assert len(trials) >= 100
        ids = [i for t in trials for i in (t.enroll_id, t.test_id)]
        assert len(ids) == len(set(ids))

    def test_estimate_mem_hand_case(self, capsys, tmp_path):
        cfg = write_config(
            tmp_path / "mem.ini",
            "[e2e]\nlayers =\n    30 10 -2 -1 0 1 2\nembedding_dim = 4\n"
            "head_lda_dim = 3\nhead_out_dim = 2\n",
        )
        assert run(["estimate-mem", "--config", cfg, "-N", "1", "-T", "100"]) == 0
        out = capsys.readouterr().out
        assert "480000 bytes" in out.replace(",", "")

    def test_estimate_mem_zero_batch(self, capsys):
        assert run(["estimate-mem", "--full-size", "-N", "0", "-T", "2000"]) == 0
        assert "(0.0 GB)" in capsys.readouterr().out

    def test_estimate_mem_paper_shape_band(self, capsys):
        assert run(["estimate-mem", "--full-size", "-N", "2048", "-T", "2000"]) == 0
        total_line = [l for l in capsys.readouterr().out.splitlines() if l.startswith("total")][0]
        bytes_ = int(total_line.split()[1])
        assert 120e9 <= bytes_ <= 480e9

    def test_unknown_checkpoint_kind(self, tmp_path):
        from svkit.checkpoint import save_params

        bad = tmp_path / "weird.ckpt"
        save_params(bad, {"x": np.zeros(1)}, {"kind": "mystery"})
        code = run(["score", "--model", str(bad), "--trials", "x", "--data", "y",
                    "--out", str(tmp_path / "s")])
        assert code == 1


class TestEncoding:
    """Text files are UTF-8 whatever the locale: the same bytes read the same everywhere."""

    LOCALES = {
        # the C locale's encoding is ASCII once the interpreter's UTF-8 mode is off
        "C": {"LC_ALL": "C", "PYTHONUTF8": "0"},
        "C.UTF-8": {"LC_ALL": "C.UTF-8"},
    }

    def _chain(self, tmp_path, env):
        """simulate, score and evaluate under ``env``; their stdout and every file written."""
        tmp_path.mkdir()
        cfg = tmp_path / "exp.ini"
        cfg.write_bytes((SMALL_DEV_CONFIG % 12 + "dataset = données-ü\n").encode("utf-8"))
        nplda.save_nplda(nplda.init_random(16, 12, 8, seed=2), tmp_path / "m.nplda")
        out = tmp_path / "out"
        src = os.path.dirname(os.path.dirname(cli.__file__))
        stdout = []
        for argv in (
            ["simulate", "--config", cfg, "--out", out],
            ["score", "--model", tmp_path / "m.nplda", "--trials", out / "dev.trials",
             "--data", out / "dev.embeddings", "--out", out / "s.scores"],
            ["evaluate", "--scores", out / "s.scores", "--key", out / "dev.trials"],
        ):
            proc = subprocess.run([sys.executable, "-m", "svkit.cli", *map(str, argv)],
                                  capture_output=True, timeout=30,
                                  env={**os.environ, "PYTHONPATH": src, **env})
            assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
            stdout.append(proc.stdout.replace(bytes(tmp_path), b"<dir>"))
        return stdout, {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    def test_non_ascii_ids_read_the_same_under_any_locale(self, tmp_path):
        runs = {name: self._chain(tmp_path / name, env) for name, env in self.LOCALES.items()}
        assert runs["C"] == runs["C.UTF-8"]
        _, files = runs["C"]
        assert "dev-données-üs" in files["s.scores"].decode("utf-8")
        trials = data.read_trials(tmp_path / "C" / "out" / "dev.trials")
        assert {i.split("0")[0] for i in trials.enroll} == {"dev-données-üs"}


class TestAllocator:
    """main raises glibc's malloc thresholds, and runs the same on any other C library."""

    ESTIMATE = ["estimate-mem", "--full-size", "-N", "0", "-T", "2000"]

    def test_glibc_thresholds(self, monkeypatch):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        libc = SimpleNamespace(gnu_get_libc_version=lambda: b"2.99", mallopt=mallopt)
        monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
        assert run(self.ESTIMATE) == 0
        assert calls == [(-1, 64 << 20), (-3, 32 << 20)]

    def _no_library(name):
        raise OSError("no C library")

    @pytest.mark.parametrize("libc", [
        lambda name: SimpleNamespace(),
        lambda name: SimpleNamespace(gnu_get_libc_version=lambda: b"2.99"),
        _no_library,
    ], ids=["not-glibc", "no-mallopt", "no-library"])
    def test_main_runs_without_mallopt(self, monkeypatch, capsys, libc):
        monkeypatch.setattr(ctypes, "CDLL", libc)
        assert run(self.ESTIMATE) == 0
        assert "(0.0 GB)" in capsys.readouterr().out
