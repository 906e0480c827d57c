"""Pluggable executors for the per-cell stage pipeline.

Every expensive stage of a time step — singular self-interaction
reassembly, the tension/implicit factorize-and-solve, the per-source
interaction sums, force evaluation — is independent across cells, so the
stepper expresses each stage as ``executor.map(task, cells)`` and the
policy of *how* that map runs lives here:

- :class:`SerialExecutor` — a plain in-order loop; the default, and the
  reference semantics every other executor must reproduce.
- :class:`ThreadPoolExecutor` — a persistent worker-thread pool. The
  per-cell tasks are numpy-GEMM-heavy (they release the GIL), so threads
  scale the dense stages on multi-core hosts without any serialization.
- :class:`ProcessPoolExecutor` — a lazy persistent process pool for the
  stages that opt in by mapping a :class:`ProcessTask` (the Morton-
  sharded per-source batches of the interaction backends). Everything
  else — closures, bound methods, anything that mutates parent state —
  runs inline in the parent, so every existing ``map`` call site keeps
  its exact serial semantics. Only coefficients, positions and densities
  cross the process boundary (see :mod:`repro.core.shardwork`); the
  geometry-independent per-order tables are rebuilt inside each worker
  and never pickled, and the shard payload traffic is priced on a
  :class:`repro.runtime.communicator.CommLedger`.
- :class:`CheckedExecutor` — a verifying wrapper around any of the
  above that *enforces* the determinism contract at runtime (see
  below); ``"checked-process"`` composes it with the process pool.

Determinism contract: :meth:`Executor.map` returns results ordered by
input index, tasks touch disjoint per-cell state, and no executor ever
accumulates across tasks — so the threaded schedule is *bit-identical*
to the serial one regardless of worker count or interleaving. Callers
that reduce over cells (e.g. the interaction backends) gather the mapped
results first and fold them in fixed index order themselves.

The contract is checked two ways. Statically, the ``repro_lint``
determinism pass (``python -m repro_lint src/``) walks every
``executor.map`` call site and verifies the task body only writes state
indexed by the mapped item. Dynamically, ``executor="checked"`` wraps
the real executor: during each ``map`` the shared cached tables
(registered by :func:`repro.analysis.guard.freeze`) are flipped
non-writeable so any task scribbling on cross-cell state raises, and a
deterministic sample of the tasks is re-run afterwards to confirm
bit-identical results. Violations raise
:class:`repro.analysis.guard.DeterminismError`.

Select via :class:`repro.config.NumericsOptions` (``executor`` /
``workers``) or construct directly with :func:`make_executor`.
"""
from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
import threading
import weakref
from typing import Callable, ClassVar, Dict, Iterable, List, Optional, Type, TypeVar, Union

import numpy as np

from ..analysis.guard import DeterminismError, tables_frozen
from .communicator import CommLedger, _nbytes

T = TypeVar("T")
R = TypeVar("R")


class Executor:
    """Maps per-cell tasks over cell indices; results ordered by input.

    Subclasses implement :meth:`map`. Tasks must be independent (they
    may mutate only their own cell's state); exceptions raised by any
    task propagate to the caller.
    """

    #: Registry key; subclasses registered via :func:`register_executor`.
    name: ClassVar[str] = ""

    def __init__(self, workers: int = 1):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        raise NotImplementedError

    def close(self) -> None:
        """Release worker resources (idempotent; a no-op when none)."""

    def shard_count(self, n_items: int) -> int:
        """How many Morton shards a caller should split ``n_items``
        source cells into before mapping a :class:`ProcessTask`.

        Zero means "don't shard — run the inline per-item path"; only
        the process executor (and its ``"checked"`` wrapper) ever asks
        for more.
        """
        return 0

    def attach(self, timers=None) -> None:
        """Give the executor the stepper's :class:`ComponentTimers`.

        Only the process executor uses this (to fold worker-side timer
        deltas back into the parent's accumulators); everywhere else the
        tasks already write the parent timers directly.
        """

    def options(self) -> dict:
        """JSON-safe descriptor of this executor (for diagnostics)."""
        return {"executor": self.name, "workers": self.workers}

    def __repr__(self) -> str:
        return f"{type(self).__name__}(workers={self.workers})"


#: Registry of named executors (mirrors the interaction-backend registry).
# repro-lint: disable=global-mutable — class registry written once at import time by @register_executor, read-only afterwards
EXECUTORS: Dict[str, Type[Executor]] = {}


def register_executor(cls: Type[Executor]) -> Type[Executor]:
    """Class decorator adding an executor to the :data:`EXECUTORS` registry."""
    if not cls.name:
        raise ValueError(f"{cls.__name__} must define a non-empty name")
    EXECUTORS[cls.name] = cls
    return cls


def resolve_workers(workers: Union[int, str], n_items: Optional[int] = None) -> int:
    """Resolve the ``workers`` knob to a concrete worker count.

    ``"auto"`` means ``min(cpu_count, n_items)`` (floored at 1): one
    worker per core, but never more workers than there are cells to
    shard — extra pool members would only sit idle while still costing
    fork/teardown. An integer passes through unchanged (it must be
    >= 1). ``n_items`` is the number of independent work items the
    caller will shard (the cell count for the stepper); omit it to cap
    by core count alone.
    """
    if workers == "auto":
        count = os.cpu_count() or 1
        if n_items is not None:
            count = min(count, max(1, n_items))
        return max(1, count)
    count = int(workers)
    if count < 1:
        raise ValueError(f"workers must be >= 1 or 'auto', got {workers!r}")
    return count


def make_executor(name: str, workers: Union[int, str] = 1) -> Executor:
    """Instantiate a registered executor by name.

    ``workers`` accepts the same values as
    :attr:`repro.config.NumericsOptions.workers`, including ``"auto"``
    (resolved against the core count here; callers that know their cell
    count should pre-resolve via :func:`resolve_workers`).
    """
    try:
        cls = EXECUTORS[name]
    except KeyError:
        raise ValueError(f"unknown executor {name!r}; "
                         f"registered: {sorted(EXECUTORS)}") from None
    return cls(workers=resolve_workers(workers))


@register_executor
class SerialExecutor(Executor):
    """In-order single-thread execution (the reference semantics)."""

    name = "serial"

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        return [fn(x) for x in items]


@register_executor
class ThreadPoolExecutor(Executor):
    """Worker-thread pool over a persistent ``concurrent.futures`` pool.

    All tasks are submitted up front and gathered by submission index,
    so results are ordered (and bit-identical to serial) no matter how
    the pool interleaves them. The pool is created lazily on first use
    and its idle threads exit when the executor is garbage collected, so
    short-lived simulations do not leak threads.
    """

    name = "thread"

    def __init__(self, workers: int = 2):
        super().__init__(workers=workers)
        self._pool: concurrent.futures.ThreadPoolExecutor | None = None
        # Guards lazy creation and teardown: concurrent first maps (or a
        # map racing a close) must agree on one pool, never leak a second.
        self._pool_lock = threading.Lock()

    def _ensure_pool(self) -> concurrent.futures.ThreadPoolExecutor:
        """Caller must hold ``_pool_lock``."""
        pool = self._pool
        if pool is None:
            pool = concurrent.futures.ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix="repro-cell")
            self._pool = pool
        return pool

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        items = list(items)
        if len(items) <= 1:
            # Nothing to overlap; skip the submission round-trip.
            return [fn(x) for x in items]
        # Submission happens under the lock so a concurrent close() can
        # never shut the pool down mid-submit: it either runs before (we
        # build a fresh pool) or after (shutdown waits for our futures).
        # Only submission is serialized; the tasks overlap freely.
        with self._pool_lock:
            pool = self._ensure_pool()
            futures = [pool.submit(fn, x) for x in items]
        # result() re-raises task exceptions; gather strictly by index.
        return [f.result() for f in futures]

    def close(self) -> None:
        with self._pool_lock:
            pool = self._pool
            self._pool = None
        if pool is not None:
            pool.shutdown(wait=True)


class ProcessTask:
    """Marker base for callables the process executor may ship to workers.

    The process executor only ever dispatches a ``map`` whose callable
    is a ``ProcessTask`` — everything else (closures, bound methods,
    anything that mutates parent state) runs inline in the parent, which
    is what keeps every existing ``map`` call site on its exact serial
    semantics. Subclasses must therefore be module-level (picklable —
    the ``picklable-task`` lint pass enforces this), hold only picklable
    state, and implement ``__call__(item)`` as a pure function of
    ``(self, item)``: no parent state is visible in the worker, and the
    result must be bit-identical to running the same call inline.
    """

    def __call__(self, item):
        raise NotImplementedError


#: Per-worker-process ComponentTimers scratchpad (created lazily inside
#: each worker; the parent never touches it).
_WORKER_TIMERS = None


def worker_timers():
    """The calling process's private :class:`ComponentTimers`.

    Process tasks open their stage scopes on this object; the executor's
    worker wrapper resets it around each task and ships the per-category
    deltas back to the parent alongside the result. Imported lazily:
    ``repro.core`` imports this module at package init, so a top-level
    import of ``repro.core.timers`` here would be circular.
    """
    global _WORKER_TIMERS
    if _WORKER_TIMERS is None:
        from ..core.timers import ComponentTimers
        _WORKER_TIMERS = ComponentTimers()
    return _WORKER_TIMERS


def _process_invoke(fn: "ProcessTask", item):
    """Worker-side wrapper: run one task, return ``(result, timer deltas)``.

    The timers are reset before the call so the deltas are exactly this
    task's seconds; the parent folds them into its own accumulators and
    strips them off before returning results to the caller (timings
    differ run to run, so they must never reach the ``"checked"``
    executor's bit-identity comparison).
    """
    timers = worker_timers()
    timers.reset()
    result = fn(item)
    return result, dict(timers.seconds)


def _terminate_pool(pool) -> None:
    """GC finalizer target (module-level so it never pins an executor)."""
    pool.terminate()
    pool.join()


@register_executor
class ProcessPoolExecutor(Executor):
    """Process-pool executor: Morton-sharded cell work in worker processes.

    Dispatch policy: a ``map`` goes to the pool only when the callable
    is a :class:`ProcessTask`, there is more than one item, and more
    than one worker — otherwise it runs inline, preserving the serial
    semantics of every closure/bound-method call site in the stepper.
    The interaction backends are the opt-in sites: they ask
    :meth:`shard_count` how many Morton shards to cut, build payload
    objects holding only coefficients/positions/densities (see
    :mod:`repro.core.shardwork`), and map a module-level task over them.
    Workers rebuild surfaces/evaluators from the payloads; the
    geometry-independent per-order tables (circulant mode symbols,
    Legendre/rotation/quadrature) repopulate each worker's own lru
    caches on first use and persist across tasks and steps.

    Results are gathered strictly by submission index and exceptions
    re-raise in the parent, so process == thread == serial bit-identical
    under the determinism contract. Each dispatched map is priced on
    :attr:`ledger` (a :class:`~repro.runtime.communicator.CommLedger`):
    a ``scatter`` for the shipped payload bytes, an ``alltoallv`` for
    the cross-shard far-field ghost targets the payloads carry, and a
    ``gather`` for the returned velocities — so the scaling harness
    reads real traffic, not a model.

    The pool is forked lazily on first dispatch (fork shares the
    parent's warm table caches copy-on-write where the platform allows
    it) and torn down on :meth:`close` or garbage collection.

    BLAS policy: the pool sets no BLAS thread count of its own; a
    forked worker runs OpenBLAS at the count the parent had when the
    pool forked. OpenBLAS results can depend on its thread count, so the
    bit-identity above holds at equal counts in parent and workers.
    Sweep jobs run at one thread on every executor: each job scopes
    itself (:class:`repro.sweep.job.SceneTask`,
    :func:`repro.runtime.blas.single_blas_thread`), not the pool.
    """

    name = "process"

    def __init__(self, workers: int = 2):
        super().__init__(workers=workers)
        self._pool = None
        # Guards lazy creation and teardown, exactly like the thread pool.
        self._pool_lock = threading.Lock()
        #: parent-side ComponentTimers worker deltas fold into (attached
        #: by the stepper; None = deltas are dropped).
        self.timers = None
        #: prices payload scatter / ghost exchange / result gather.
        self.ledger = CommLedger()

    def shard_count(self, n_items: int) -> int:
        if self.workers <= 1 or n_items <= 1:
            return 0
        return min(self.workers, n_items)

    def attach(self, timers=None) -> None:
        self.timers = timers

    def _ensure_pool(self):
        """Caller must hold ``_pool_lock``."""
        pool = self._pool
        if pool is None:
            methods = multiprocessing.get_all_start_methods()
            ctx = multiprocessing.get_context(
                "fork" if "fork" in methods else "spawn")
            pool = ctx.Pool(processes=self.workers)
            self._pool = pool
            weakref.finalize(self, _terminate_pool, pool)
        return pool

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        items = list(items)
        if (not isinstance(fn, ProcessTask) or len(items) <= 1
                or self.workers <= 1):
            # Not marked process-safe (or nothing to overlap): the
            # in-order inline loop is the contract's reference semantics.
            return [fn(x) for x in items]
        phase = getattr(items[0], "phase", None)
        if phase is not None:
            self.ledger.phase = phase
        self.ledger.record("scatter", len(items),
                           sum(_nbytes(x) for x in items))
        ghost = sum(getattr(x, "ghost_nbytes", 0) for x in items)
        if ghost:
            # Far-field target points each shard needs but does not own.
            self.ledger.record("alltoallv", len(items), ghost)
        with self._pool_lock:
            pool = self._ensure_pool()
            handles = [pool.apply_async(_process_invoke, (fn, x))
                       for x in items]
        # get() re-raises task exceptions; gather strictly by index.
        pairs = [h.get() for h in handles]
        self.ledger.record("gather", len(items),
                           sum(_nbytes(r) for r, _ in pairs))
        if self.timers is not None:
            for _, deltas in pairs:
                self.timers.fold(deltas)
        return [r for r, _ in pairs]

    def close(self) -> None:
        with self._pool_lock:
            pool = self._pool
            self._pool = None
        if pool is not None:
            pool.terminate()
            pool.join()


def _bit_identical(a, b) -> bool:
    """Whether two task results are bitwise the same.

    Arrays compare by shape, dtype and raw bytes (NaNs included — the
    contract is *bit* identity, not numeric equality); containers
    recurse; objects without a meaningful equality are skipped (True).
    """
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a = np.asarray(a)
        b = np.asarray(b)
        return (a.shape == b.shape and a.dtype == b.dtype
                and a.tobytes() == b.tobytes())
    if isinstance(a, (tuple, list)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(_bit_identical(x, y) for x, y in zip(a, b)))
    if isinstance(a, dict):
        return (isinstance(b, dict) and a.keys() == b.keys()
                and all(_bit_identical(a[k], b[k]) for k in a))
    if isinstance(a, (bool, int, float, complex, str, bytes, type(None))):
        return a == b or (a != a and b != b)   # NaN floats count as equal
    return True                                 # opaque object: no claim


@register_executor
class CheckedExecutor(Executor):
    """Contract-enforcing wrapper around a real executor.

    Runs every ``map`` through an inner executor (serial for
    ``workers=1``, the thread pool otherwise, or any explicit ``inner``)
    with two runtime checks layered on top:

    1. *Frozen shared tables.* For the duration of the map, every cached
       table registered via :func:`repro.analysis.guard.freeze` is
       flipped non-writeable, so a task that writes shared state through
       a cached array raises immediately instead of silently corrupting
       the other cells. The resulting ``read-only`` ``ValueError`` is
       re-raised as :class:`~repro.analysis.guard.DeterminismError`.
    2. *Rerun sampling.* After the map, a deterministic sample of the
       tasks (first, last, and evenly spaced up to
       :data:`RERUN_SAMPLES`) is executed a second time and the results
       compared bit-for-bit. A task whose repeat diverges depends on
       mutable cross-task state (ordering, accumulation, hidden caches)
       and violates the contract. Only tasks that returned a value are
       re-run: a ``None``-returning task is a stateful mutator (e.g. the
       stepper's refresh stage) whose repeat would advance its own
       amortization counters.

    The overhead is one extra task execution per sampled index — meant
    for validation runs and CI scenes, not production stepping.
    """

    name = "checked"

    #: how many mapped tasks are re-executed per map (deterministic
    #: evenly-spaced sample, capped by the number of eligible tasks).
    RERUN_SAMPLES = 2

    def __init__(self, workers: int = 1, inner: Optional[Executor] = None):
        super().__init__(workers=workers)
        if inner is None:
            inner = (SerialExecutor(workers=1) if workers == 1
                     else ThreadPoolExecutor(workers=workers))
        self.inner = inner

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        items = list(items)
        with tables_frozen():
            try:
                results = self.inner.map(fn, items)
            except ValueError as e:
                if "read-only" in str(e):
                    raise DeterminismError(
                        "task wrote to a frozen shared table during "
                        f"{type(self.inner).__name__}.map — per-cell tasks "
                        "must only write state owned by their own item"
                    ) from e
                raise
            for i in self._sample_indices(results):
                repeat = fn(items[i])
                if not _bit_identical(results[i], repeat):
                    raise DeterminismError(
                        f"task {i} is not deterministic: re-running it "
                        "produced a different result, so the map depends "
                        "on mutable cross-task state")
        return results

    def _sample_indices(self, results: List[R]) -> List[int]:
        eligible = [i for i, r in enumerate(results) if r is not None]
        k = min(self.RERUN_SAMPLES, len(eligible))
        if k == 0:
            return []
        # Evenly spaced over the eligible tasks, endpoints included.
        if k == 1:
            return [eligible[0]]
        pos = [round(j * (len(eligible) - 1) / (k - 1)) for j in range(k)]
        return sorted({eligible[p] for p in pos})

    def shard_count(self, n_items: int) -> int:
        # Forwarded so a wrapped process pool still shards — the rerun
        # sample then re-executes whole shards inline and compares them
        # bit-for-bit against the worker-process results.
        return self.inner.shard_count(n_items)

    def attach(self, timers=None) -> None:
        self.inner.attach(timers)

    def close(self) -> None:
        self.inner.close()

    def options(self) -> dict:
        return {"executor": self.name, "workers": self.workers,
                "inner": self.inner.name}


@register_executor
class CheckedProcessExecutor(CheckedExecutor):
    """``"checked"`` wrapped around the process pool, as one registry name.

    Config-selectable (``NumericsOptions.executor = "checked-process"``)
    so acceptance runs can verify the process executor's contract
    end-to-end: shards execute in worker processes, then the rerun
    sample recomputes a deterministic subset of them inline in the
    parent and requires bit-identical results across the process
    boundary.
    """

    name = "checked-process"

    def __init__(self, workers: int = 2):
        super().__init__(workers=workers,
                         inner=ProcessPoolExecutor(workers=workers))
