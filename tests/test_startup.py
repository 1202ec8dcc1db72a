"""Start-up cost: only `train gplda` loads scipy, and no command imports numpy modules as it runs.

scipy's import takes longer than most commands on small inputs, and
numpy loads some submodules lazily, at first use.  Each command here runs
in a fresh interpreter on a tiny simulated corpus, which compares
``sys.modules`` before and after ``svkit.cli.main``.  The interpreter warns
of every text file opened in the locale's encoding, which no command does.
"""

import json
import os
import subprocess
import sys

import pytest

from svkit import cli, gplda

# runs main on its arguments; the last line of its output reports the modules main imported
CHILD = """
import json, sys
import svkit.cli
scipy_at_import = "scipy" in sys.modules
before = set(sys.modules)
code = svkit.cli.main(sys.argv[1:])
print(json.dumps({"code": code, "scipy_at_import": scipy_at_import,
                  "new": sorted(set(sys.modules) - before)}))
"""

EMB_INI = """
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
n_dev_trials = 400
dev_target_ratio = 0.3

[data]
train_embeddings = {root}/emb/train.embeddings
dev_embeddings = {root}/emb/dev.embeddings
dev_trials = {root}/emb/dev.trials

[gplda]
lda_dim = 5

[sampler]
n_batches = 3

[optimizer]
epochs = 1
lr = 1e-4
"""

FEAT_INI = """
[simulate]
kind = features
seed = 6
n_speakers = 12
utts_per_speaker = 12
n_dev_speakers = 8
dev_utts_per_speaker = 6
feat_dim = 4
frames = 30
n_dev_trials = 200
dev_target_ratio = 0.3

[data]
train_features = {root}/feat/train.features
dev_features = {root}/feat/dev.features
dev_trials = {root}/feat/dev.trials

[sampler]
n_batches = 2

[optimizer]
epochs = 1
lr = 1e-3

[e2e]
layers =
    4 8 -1 0 1
    8 8 0
embedding_dim = 6
head_lda_dim = 5
head_out_dim = 4
"""


def _main_in_fresh_process(args) -> dict:
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run([sys.executable, "-X", "warn_default_encoding", "-c", CHILD,
                           *map(str, args)], capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["code"] == 0, proc.stderr
    return report | {"stderr": proc.stderr}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Each command's report, run in pipeline order on one tiny corpus."""
    root = tmp_path_factory.mktemp("startup")
    emb, feat = root / "emb.ini", root / "feat.ini"
    emb.write_text(EMB_INI.format(root=root))
    feat.write_text(FEAT_INI.format(root=root))
    commands = {
        "simulate embeddings": ["simulate", "--config", emb, "--out", root / "emb"],
        "simulate features": ["simulate", "--config", feat, "--out", root / "feat"],
        "train gplda": ["train", "gplda", "--config", emb, "--out", root / "m.gplda"],
        "train nplda": ["train", "nplda", "--config", emb, "--init", root / "m.gplda",
                        "--out", root / "m.nplda"],
        "train e2e": ["train", "e2e", "--config", feat, "--out", root / "m.e2e"],
        "score gplda": ["score", "--model", root / "m.gplda", "--trials", root / "emb/dev.trials",
                        "--data", root / "emb/dev.embeddings", "--out", root / "gplda.scores"],
        "score nplda": ["score", "--model", root / "m.nplda", "--trials", root / "emb/dev.trials",
                        "--data", root / "emb/dev.embeddings", "--out", root / "nplda.scores"],
        "score e2e": ["score", "--model", root / "m.e2e", "--trials", root / "feat/dev.trials",
                      "--data", root / "feat/dev.features", "--out", root / "e2e.scores"],
        "evaluate": ["evaluate", "--scores", root / "nplda.scores", "--key", root / "emb/dev.trials"],
        "sample": ["sample", "--config", emb, "--data", root / "emb/train.embeddings",
                   "--out", root / "batches.txt"],
        "estimate-mem": ["estimate-mem", "--config", feat, "-N", "2", "-T", "50"],
    }
    reports = {name: _main_in_fresh_process(args) for name, args in commands.items()}
    return root, reports


def test_import_leaves_scipy_out(runs):
    _, reports = runs
    assert not any(report["scipy_at_import"] for report in reports.values())


@pytest.mark.parametrize("command", ["simulate embeddings", "simulate features", "train nplda",
                                     "train e2e", "score gplda", "score nplda", "score e2e",
                                     "evaluate"])
def test_main_imports_neither_scipy_nor_numpy_modules(runs, command):
    _, reports = runs
    loaded = [m for m in reports[command]["new"] if m.split(".")[0] in ("scipy", "numpy")]
    assert loaded == []


def test_main_imports_no_locale(runs):
    _, reports = runs
    assert {name for name, report in reports.items() if "locale" in report["new"]} == set()


def test_no_command_opens_a_file_in_the_locale_encoding(runs):
    _, reports = runs
    assert {name: report["stderr"] for name, report in reports.items()
            if "EncodingWarning" in report["stderr"]} == {}


def test_train_gplda_loads_scipy_and_works(runs):
    root, reports = runs
    assert "scipy.linalg" in reports["train gplda"]["new"]
    model = gplda.load_model(root / "m.gplda")
    assert model.V.shape == (5, 5)
