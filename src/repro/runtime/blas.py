"""BLAS thread policy: one OpenBLAS thread per sweep job.

A process pool already gives each core one stream of work; an OpenBLAS
that also threads every GEMM inside each worker oversubscribes the
cores. The OpenBLAS libraries numpy and scipy loaded (found in
``/proc/self/maps``) are driven through their ``scipy_openblas`` thread
symbols with stdlib :mod:`ctypes`. With no OpenBLAS loaded every entry
point is a no-op.

OpenBLAS results depend on its thread count, so bit-identity across
executors holds only at equal counts: sweep jobs (:func:`run_scene`)
therefore always run at one thread, on whichever executor, while a
single scene stepped outside a sweep keeps the host's default. The
setting is process-wide and a forked pool worker inherits it, so
within-scene shards run at the parent's count.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading

__all__ = ["single_blas_thread", "thread_counts"]


@functools.lru_cache(maxsize=1)
def _libraries() -> tuple:
    """``(get, set)`` thread-count functions of every loaded OpenBLAS."""
    import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS next to numpy's)
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and "/" in line})
    except OSError:
        return ()
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                found.append((get, put))
                break
    return tuple(found)


def thread_counts() -> list:
    """Current thread count of each loaded OpenBLAS (empty if none)."""
    return [int(get()) for get, _ in _libraries()]


_LOCK = threading.Lock()
# repro-lint: disable=global-mutable — OpenBLAS's own thread setting is process-wide, so the reference count guarding it must be too
_SCOPE = {"depth": 0, "saved": ()}


def _reset_in_child() -> None:
    # A fork taken while another thread held the scope must not leave
    # the child a locked lock or a count it will never unwind.
    global _LOCK
    _LOCK = threading.Lock()
    _SCOPE.update(depth=0, saved=())


os.register_at_fork(after_in_child=_reset_in_child)


@contextlib.contextmanager
def single_blas_thread():
    """Run the body at one OpenBLAS thread; reentrant and thread-safe.

    The first of any overlapping entries (across threads) saves each
    library's count and sets it to 1; the last exit restores it.
    """
    with _LOCK:
        if _SCOPE["depth"] == 0:
            libs = _libraries()
            _SCOPE["saved"] = tuple((put, get()) for get, put in libs)
            for put, _ in _SCOPE["saved"]:
                put(1)
        _SCOPE["depth"] += 1
    try:
        yield
    finally:
        with _LOCK:
            _SCOPE["depth"] -= 1
            if _SCOPE["depth"] == 0:
                for put, count in _SCOPE["saved"]:
                    put(count)
                _SCOPE["saved"] = ()
