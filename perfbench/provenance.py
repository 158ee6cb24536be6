"""The environment a result was measured in.

    python perfbench/provenance.py

prints one JSON object: Python and numpy versions, the BLAS numpy was built
against, the thread count the loaded OpenBLAS uses, the CPU count, the
thread variables in the environment and the margulis version.
:func:`describe` runs it once with BLAS pinned and once with the pins
removed, so every result records the pinned and the default thread count
side by side.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS uses, or None when it cannot be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_revision(root: Path) -> str | None:
    """Commit the checkout's HEAD names, read from .git without running git."""
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def collect() -> dict:
    import numpy
    import margulis

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": blas_threads(),
        "cpu_count": os.cpu_count(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "margulis": margulis.__version__,
    }


def describe(root: Path, env: dict) -> dict:
    """Provenance under ``env`` (pinned), with the unpinned thread count beside it."""
    script = [sys.executable, str(Path(__file__).resolve())]
    pinned = json.loads(subprocess.run(script, cwd=root, env=env, check=True,
                                       capture_output=True, text=True).stdout)
    free_env = {k: v for k, v in env.items() if k not in THREAD_VARS}
    free = json.loads(subprocess.run(script, cwd=root, env=free_env, check=True,
                                     capture_output=True, text=True).stdout)
    pinned["default_blas_threads"] = free["blas_threads"]
    pinned["outer_thread_env"] = {var: os.environ.get(var) for var in THREAD_VARS}
    pinned["git_revision"] = git_revision(root)
    return pinned


if __name__ == "__main__":
    print(json.dumps(collect()))
