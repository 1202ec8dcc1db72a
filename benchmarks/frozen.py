"""The frozen acceptance configurations the workloads are derived from.

`BACKEND_INI` and `E2E_INI` are verbatim copies of the constants of the same
names in `tests/test_acceptance.py`.  `drift_problems` re-reads that file
(without importing or editing it) and reports every difference, so the
benchmark refuses to run when the two copies drift apart.
"""

from __future__ import annotations

import ast
import configparser
from pathlib import Path

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

FROZEN = {"BACKEND_INI": BACKEND_INI, "E2E_INI": E2E_INI}
ACCEPTANCE_FILE = Path("tests") / "test_acceptance.py"


def _string_constants(path: Path) -> dict[str, str]:
    """Top-level `NAME = "literal"` assignments of the frozen names in a file."""
    found = {}
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id in FROZEN
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            found[node.targets[0].id] = node.value.value
    return found


def drift_problems(root: Path) -> list[str]:
    """Differences between these copies and the acceptance suite's; empty if none."""
    path = root / ACCEPTANCE_FILE
    if not path.is_file():
        return [f"{ACCEPTANCE_FILE} not found; cannot check the frozen configs"]
    found = _string_constants(path)
    problems = []
    for name, text in FROZEN.items():
        if name not in found:
            problems.append(f"{ACCEPTANCE_FILE} no longer assigns {name} as a string literal")
        elif found[name] != text:
            problems.append(f"{name} in {ACCEPTANCE_FILE} differs from benchmarks/frozen.py")
    return problems


def derive(frozen_text: str, overrides: dict[str, str]) -> configparser.ConfigParser:
    """The frozen config with `section.key` overrides applied; nothing else changes."""
    cfg = configparser.ConfigParser()
    cfg.read_string(frozen_text)
    for dotted, value in overrides.items():
        section, key = dotted.split(".", 1)
        if not cfg.has_section(section):
            cfg.add_section(section)
        cfg[section][key] = str(value)
    return cfg
