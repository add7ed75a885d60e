"""Machine and input facts printed with every benchmark run."""
from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from pathlib import Path


def tree_digest(root: Path) -> str:
    """sha256 over the relative paths and bytes of every file under root
    (bytecode caches excluded)."""
    h = hashlib.sha256()
    for path in sorted(p for p in Path(root).rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def git_commit(root: Path) -> str:
    """HEAD of the checkout if it is a git work tree itself, else 'none'."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(Path(root).parent))
    try:
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True,
                              text=True, env=env, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def _blas(module) -> str:
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def machine_facts(root: Path, workload: str, seed: int, dataset: Path, env: dict) -> dict:
    """The facts of one run; env is what its executions add to the environment."""
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(numpy),
        "scipy_blas": _blas(scipy),
        "OPENBLAS_NUM_THREADS": env.get("OPENBLAS_NUM_THREADS", os.environ.get("OPENBLAS_NUM_THREADS", "unset")),
        "OMP_NUM_THREADS": env.get("OMP_NUM_THREADS", os.environ.get("OMP_NUM_THREADS", "unset")),
        "git_commit": git_commit(root),
        "src_sha256": tree_digest(Path(root) / "src" / "ccsplan")[:16],
        "dataset_sha256": tree_digest(dataset)[:16],
    }
