"""Environment stamp printed with every result.

Numbers from different hosts, BLAS builds or thread settings are not
comparable; the stamp records what produced a result so a reader can
tell.  The code identity is the commit when the tree is a git checkout
and, always, a SHA-256 over the program's sources.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any

import numpy as np

#: Environment variables that set BLAS / OpenMP thread counts.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _commit(root: Path) -> str | None:
    """HEAD of this checkout's own ``.git`` — not of a repository that
    happens to enclose an exported checkout."""
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _source_sha256(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _openblas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use (None if not found)."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def stamp(root: Path) -> dict[str, Any]:
    """Commit, host CPU count, BLAS build and threads, Python/NumPy."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get(
        "blas", {}
    )
    return {
        "commit": _commit(root),
        "src_sha256": _source_sha256(root / "src"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "config": blas.get("openblas configuration"),
            "threads": _openblas_threads(),
        },
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }
