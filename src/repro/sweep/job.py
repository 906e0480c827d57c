"""The schedulable scene unit: :class:`SceneJob` -> :func:`run_scene`.

A sweep's unit of work is one independent scene: a serializable
:class:`repro.config.ReproConfig` plus the initial cell state and a
duration. :func:`run_scene` is the pure entry point — build (or resume)
the simulation, step it to the end, checkpoint along the way — and
returns a :class:`SceneResult` instead of raising, so one scene's
failure (a :class:`repro.StepRejectedError`, a solver blow-up, an
injected fault) is data, never a crashed batch. Any executor of the
:mod:`repro.runtime.executor` registry can map it: :class:`SceneTask`
is the module-level :class:`~repro.runtime.executor.ProcessTask`
wrapper the process pool ships to workers.

Jobs and results are deliberately plain (dataclasses of config +
numpy arrays): they pickle across process boundaries, price cleanly on
the communicator ledger, and round-trip to disk for the sweep
manifest's kill/resume story.
"""
from __future__ import annotations

import dataclasses
import json
import os
import time
from typing import Callable, List, Optional

import numpy as np

from ..config import ReproConfig
from ..runtime.blas import single_blas_thread
from ..runtime.caches import warm_caches
from ..runtime.executor import ProcessTask

__all__ = ["SceneJob", "SceneResult", "SceneTask", "run_scene"]


@dataclasses.dataclass
class SceneJob:
    """One independent scene, as a serializable schedulable unit.

    The common case carries the initial cell state inline
    (``positions``/``orders``, one entry per cell — build via
    :meth:`from_cells`); scenes the flat state cannot describe
    (vessel-bounded, recycling) instead name a module-level ``build``
    callable returning a ready :class:`repro.core.Simulation` — it must
    be picklable by reference for the process executor, exactly like a
    :class:`~repro.runtime.executor.ProcessTask`.
    """

    #: unique name within the sweep; keys checkpoints, results, manifest.
    job_id: str
    #: full scene physics/numerics; the per-scene executor should stay
    #: ``"serial"`` — the sweep parallelizes across scenes, not within.
    config: ReproConfig
    #: nominal steps to run (the scene's duration is ``n_steps * dt``).
    n_steps: int
    #: initial per-cell positions, each ``(n_points, 3)`` (grid layout
    #: flattened row-major); ignored when ``build`` is given.
    positions: Optional[List[np.ndarray]] = None
    #: per-cell spherical-harmonic orders, parallel to ``positions``.
    orders: Optional[List[int]] = None
    #: module-level factory for scenes beyond flat cell state;
    #: called as ``build(job)`` and must return a fresh Simulation.
    build: Optional[Callable] = None
    #: where to checkpoint/resume this job (``.npz`` appended); ``None``
    #: disables checkpointing (the job is then never resumable).
    checkpoint_path: Optional[str] = None
    #: steps between periodic checkpoints (plus one at the final step);
    #: 0 saves only the final-step checkpoint.
    checkpoint_interval: int = 1
    #: soft wall-clock budget in seconds, checked between steps; an
    #: over-budget job checkpoints and returns status ``"timeout"``.
    timeout: Optional[float] = None

    @classmethod
    def from_cells(cls, job_id: str, config: ReproConfig, cells,
                   n_steps: int, **kw) -> "SceneJob":
        """Build a job from ready surfaces (copies their positions)."""
        return cls(job_id=job_id, config=config, n_steps=int(n_steps),
                   positions=[np.array(c.X) for c in cells],
                   orders=[int(c.order) for c in cells], **kw)

    def scene_orders(self) -> List[int]:
        """The distinct SH orders this job touches (for cache warm-up);
        empty when unknown (custom ``build`` scenes)."""
        return sorted(set(self.orders)) if self.orders else []

    def make_simulation(self):
        """Fresh simulation at the job's *initial* state (no resume)."""
        from ..core.simulation import Simulation
        from ..surfaces import SpectralSurface
        if self.build is not None:
            return self.build(self)
        if self.positions is None or self.orders is None:
            raise ValueError(
                f"job {self.job_id!r} has neither inline cell state "
                "(positions/orders) nor a build callable")
        cells = [SpectralSurface(np.array(X), int(p))
                 for X, p in zip(self.positions, self.orders)]
        return Simulation(cells, config=self.config)


@dataclasses.dataclass
class SceneResult:
    """Outcome of one :func:`run_scene` call (failure is data, not an
    exception — the sweep's isolation contract)."""

    job_id: str
    #: ``"completed"`` | ``"failed"`` | ``"timeout"``.
    status: str
    #: nominal steps actually accepted (completed => ``n_steps``).
    steps_done: int
    #: simulation time reached.
    t: float
    #: final per-cell positions (at the failure/timeout frontier for
    #: non-completed jobs); ``None`` only if the build itself failed.
    positions: Optional[List[np.ndarray]] = None
    #: exception summary for ``"failed"`` jobs.
    error: Optional[str] = None
    #: whether a resume can continue this job from a checkpoint (False
    #: for non-checkpointable scenes and checkpoint-less jobs).
    resumable: bool = False
    #: the checkpoint actually written (``None`` when none was).
    checkpoint_path: Optional[str] = None
    #: wall-clock seconds this call spent.
    elapsed: float = 0.0

    @property
    def completed(self) -> bool:
        return self.status == "completed"

    def meta_dict(self) -> dict:
        """JSON-safe summary (everything but the position arrays)."""
        return {"job_id": self.job_id, "status": self.status,
                "steps_done": self.steps_done, "t": self.t,
                "error": self.error, "resumable": self.resumable,
                "checkpoint_path": self.checkpoint_path,
                "elapsed": self.elapsed}


def _steps_completed(sim, config: ReproConfig) -> int:
    """Nominal steps a (resumed) simulation has already accepted.

    Accepted trajectories live on exact multiples of the nominal dt
    (the transactional stepper sub-steps back onto the grid), so the
    rounded ratio is exact."""
    return int(round(sim.t / config.dt))


@single_blas_thread()
def run_scene(job: SceneJob) -> SceneResult:
    """Run one scene to completion; the pure function any executor maps.

    Resumes bit-identically from ``job.checkpoint_path`` when that file
    exists (a previous attempt's frontier), steps to ``job.n_steps``,
    checkpoints every ``checkpoint_interval`` accepted steps plus once
    at the end, and converts every scene-level failure — a
    :class:`repro.StepRejectedError`, a solver error, an injected fault
    — into a ``"failed"`` :class:`SceneResult` carrying the rolled-back
    frontier. A scene that cannot be checkpointed
    (``Simulation.checkpointable`` is False: vessel-bounded or recycling
    scenes) runs normally but is marked non-resumable; it never aborts
    the batch. The whole call runs at one BLAS thread
    (:func:`repro.runtime.blas.single_blas_thread`), so a job computes
    the same bits solo and on every sweep executor.
    """
    from ..resilience import load_checkpoint, save_checkpoint

    t_start = time.perf_counter()
    ckpt = job.checkpoint_path
    if ckpt is not None and not str(ckpt).endswith(".npz"):
        ckpt = str(ckpt) + ".npz"

    def result(sim, status, steps_done, error=None, wrote_ckpt=False):
        return SceneResult(
            job_id=job.job_id, status=status, steps_done=steps_done,
            t=0.0 if sim is None else float(sim.t),
            positions=None if sim is None
            else [np.array(c.X) for c in sim.cells],
            error=error,
            resumable=wrote_ckpt,
            checkpoint_path=ckpt if wrote_ckpt else None,
            elapsed=time.perf_counter() - t_start)

    try:
        if ckpt is not None and os.path.exists(ckpt):
            sim = load_checkpoint(ckpt)
            steps_done = _steps_completed(sim, job.config)
            have_ckpt = True
        else:
            sim = job.make_simulation()
            steps_done = _steps_completed(sim, job.config)
            have_ckpt = False
    except Exception as exc:                       # noqa: BLE001 — isolation:
        # a scene whose *build* fails is a failed job, not a dead sweep
        return SceneResult(job_id=job.job_id, status="failed",
                           steps_done=0, t=0.0, positions=None,
                           error=f"{type(exc).__name__}: {exc}",
                           elapsed=time.perf_counter() - t_start)

    can_ckpt = ckpt is not None and sim.checkpointable
    interval = max(0, int(job.checkpoint_interval))

    def maybe_checkpoint(step_no: int, final: bool) -> bool:
        if not can_ckpt:
            return False
        if final or (interval and step_no % interval == 0):
            save_checkpoint(sim, ckpt)
            return True
        return False

    wrote = have_ckpt
    try:
        while steps_done < job.n_steps:
            if (job.timeout is not None
                    and time.perf_counter() - t_start > job.timeout):
                wrote = maybe_checkpoint(steps_done, final=True) or wrote
                return result(sim, "timeout", steps_done, wrote_ckpt=wrote)
            sim.step()
            steps_done += 1
            wrote = maybe_checkpoint(
                steps_done, final=steps_done == job.n_steps) or wrote
    except Exception as exc:                       # noqa: BLE001 — isolation:
        # StepRejectedError (budget exhausted, state already rolled
        # back), solver errors, injected faults: all land as data
        return result(sim, "failed", steps_done,
                      error=f"{type(exc).__name__}: {exc}",
                      wrote_ckpt=wrote)
    return result(sim, "completed", steps_done, wrote_ckpt=wrote)


class SceneTask(ProcessTask):
    """Module-level :class:`ProcessTask` so the process executor ships
    scene jobs to its fork pool (the PR 9 ``executor.map`` contract:
    picklable, pure ``__call__(self, job)``, disjoint state per item).

    Warms the worker's geometry-independent per-order caches before the
    first job touches them — idempotent and build-locked, so on a fork
    pool (parent already warm) it is a cache hit, and on a cold spawn
    worker it fronts the table cost once instead of inside every job.
    Both run at one BLAS thread, so a cold worker builds the tables the
    parent's :class:`~repro.sweep.SweepRunner` warm-up would have.
    """

    def __call__(self, job: SceneJob) -> SceneResult:
        with single_blas_thread():
            orders = job.scene_orders()
            if orders:
                warm_caches(orders)
            return run_scene(job)


def result_to_npz(res: SceneResult, path: str) -> str:
    """Persist a result for the sweep manifest (kill/resume bookkeeping)."""
    arrays = {}
    if res.positions is not None:
        for i, X in enumerate(res.positions):
            arrays[f"c{i}_X"] = X
    path = str(path)
    if not path.endswith(".npz"):
        path += ".npz"
    with open(path, "wb") as fh:
        np.savez(fh, meta=np.array(json.dumps(res.meta_dict())), **arrays)
    return path


def result_from_npz(path: str) -> SceneResult:
    """Inverse of :func:`result_to_npz`."""
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["meta"]))
        ncell = sum(1 for k in data.files if k.endswith("_X"))
        positions = [np.array(data[f"c{i}_X"]) for i in range(ncell)] \
            if ncell else None
    return SceneResult(positions=positions, **meta)
