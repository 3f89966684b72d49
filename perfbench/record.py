"""Run record: what code ran, on which machine, with which libraries."""
from __future__ import annotations

import os
import platform
import subprocess
import sys


def _git(root, *args):
    """Output of a git command in root, or None outside a git work tree."""
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(root), *args], check=True,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def run_record(root, args) -> dict:
    import numpy
    import scipy
    status = _git(root, "status", "--porcelain")
    return {
        "git_commit": _git(root, "rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "load_processes": 1,
        "seed": args.seed,
        "seconds": args.seconds,
    }
