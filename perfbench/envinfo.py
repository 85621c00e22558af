"""Environment record stored with every result: information, not gated metrics."""

from __future__ import annotations

import glob
import os
import platform

import numpy
import scipy

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "AORTAFIT_THREADS")


def git_sha(root):
    """HEAD's commit read from the .git directory; None outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def src_lines(root):
    total = 0
    for path in sorted(glob.glob(os.path.join(root, "src", "**", "*.py"), recursive=True)):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def blas():
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info['name']} {info.get('version', '')}".strip()
    except (TypeError, KeyError):
        return "unknown"


def environment(root):
    return {
        "git_sha": git_sha(root),
        "src_lines": src_lines(root),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas(),
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
    }
