"""Host fingerprint recorded with every benchmark result.

The BLAS vendor, version and live thread count are read through the
``scipy_openblas`` symbols of the libraries numpy and scipy already
loaded (found in ``/proc/self/maps``), with stdlib :mod:`ctypes`; the
benchmark never sets a BLAS thread count itself.
"""
from __future__ import annotations

import ctypes
import os
import platform


def _loaded_openblas() -> list:
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh
                     if "openblas" in line.lower() and "/" in line}
    except OSError:
        return []
    return sorted(paths)


def _blas_info(path: str) -> dict:
    lib = ctypes.CDLL(path)
    info = {"library": os.path.basename(path)}
    for suffix in ("64_", ""):
        get_config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
        get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}",
                              None)
        if get_config is None or get_threads is None:
            continue
        get_config.argtypes = []
        get_config.restype = ctypes.c_char_p
        get_threads.argtypes = []
        get_threads.restype = ctypes.c_int
        config = get_config().decode(errors="replace")
        info["vendor"], _, rest = config.partition(" ")
        info["version"] = rest.split(" ")[0]
        info["config"] = config
        info["threads"] = int(get_threads())
        break
    return info


def _mem_total_mb() -> float:
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    return round(int(line.split()[1]) / 1024.0, 1)
    except OSError:
        pass
    return 0.0


def fingerprint() -> dict:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own BLAS)

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "ram_mb": _mem_total_mb(),
        "blas": [_blas_info(p) for p in _loaded_openblas()],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
