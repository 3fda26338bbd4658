"""Host block: the machine and the numerical stack a run measured."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
from pathlib import Path


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas() -> list[dict]:
    """Version string and thread count of every OpenBLAS loaded in this
    process (numpy and scipy may each bring their own)."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return []
    paths = sorted({ln.split()[-1] for ln in maps if "openblas" in ln.lower()
                    and ln.split()[-1].startswith("/")})
    out = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": Path(path).name}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if get_config is not None and threads is not None:
                    get_config.restype = ctypes.c_char_p
                    threads.restype = ctypes.c_int
                    entry["config"] = get_config().decode()
                    entry["threads"] = threads()
                    break
            if "config" in entry:
                break
        out.append(entry)
    return out


def _git_commit(root: str) -> str | None:
    if not (Path(root) / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def source_digest(root: str) -> str:
    """sha256 over the package sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((Path(root) / "src").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def describe(root: str) -> dict:
    """Call after numpy and scipy.linalg are imported."""
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(root),
    }
