"""Where a benchmark result came from: code, machine, libraries and seeds."""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
from importlib import metadata
from pathlib import Path

import numpy as np

THREAD_QUERIES = (
    "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_", "openblas_get_num_threads",
)


def _git_commit(root: Path) -> str:
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_threads() -> dict[str, int]:
    """Thread count of each OpenBLAS library loaded into this process, by file name."""
    found = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return found
    for path in sorted(p for p in libs if ".so" in p):
        lib = ctypes.CDLL(path)
        for symbol in THREAD_QUERIES:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in (root / "src" / "svkit").glob("*.py"))


def provenance(root: Path, workloads: list[str], seed: int) -> dict:
    """The record printed before every result; `src_lines` is metadata, not a metric."""
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS so its threads are reported)

    return {
        "git_commit": _git_commit(root),
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                            if k in os.environ},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "workloads": workloads,
        "seed": seed,
        "src_lines": src_lines(root),
    }
