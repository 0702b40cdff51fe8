"""Set-up timing, the import-time breakdown and the machine record."""

from __future__ import annotations

import importlib.metadata
import importlib.util
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

IMPORT_CMD = "import graphsynth"


def _child_env(src_dir) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src_dir)
    return env


def time_imports(src_dir, repeats: int) -> list:
    """Wall seconds for a fresh interpreter to ``import graphsynth``, once
    per repeat.  The calling process has already imported graphsynth, so
    bytecode caches are written and the file cache is warm."""
    env = _child_env(src_dir)
    cmd = [sys.executable, "-c", IMPORT_CMD]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return times


def import_breakdown(src_dir) -> dict:
    """Cumulative import seconds of each graphsynth module, parsed from one
    fresh ``python -X importtime -c "import graphsynth"``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", IMPORT_CMD],
                          env=_child_env(src_dir), check=True, timeout=120,
                          capture_output=True, text=True)
    out = {}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].strip()
        if name == "graphsynth" or name.startswith("graphsynth."):
            out[f"setup.{name}.cum_s"] = int(parts[1]) / 1e6
    if "setup.graphsynth.cum_s" not in out:
        raise RuntimeError("importtime output names no graphsynth module")
    return out


SETUP_MODULES = ("graphsynth", "graphsynth.graphons", "graphsynth.agents",
                 "graphsynth.synthesis", "graphsynth.sampling", "graphsynth.netstats",
                 "graphsynth.evaluation", "graphsynth.serialize",
                 "graphsynth.experiments")


def setup_metric_names() -> list:
    return [f"setup.{m}.cum_s" for m in SETUP_MODULES]


def _version(dist):
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def _blas():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return {"name": None, "version": None}
    return {"name": blas.get("name"), "version": blas.get("version"),
            "config": blas.get("openblas configuration")}


def _git_commit(root):
    """HEAD of the checkout, or None when the checkout is not its own git
    repository (an exported tree may sit inside another one)."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                              timeout=30, capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != Path(root):
        return None
    return lines[1]


def machine_record(root) -> dict:
    """Hardware and software the run measured on.  BLAS threads come from
    the environment because threadpoolctl is not a dependency."""
    import numpy as np
    import scipy
    threads = {k: os.environ.get(k) for k in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "blas_threads_env": threads,
        "numba": importlib.util.find_spec("numba") is not None,
        "networkx": _version("networkx"),
        "git_commit": _git_commit(root),
    }

