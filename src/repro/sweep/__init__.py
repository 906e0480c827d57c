"""Many-scene throughput engine: serve sweeps, not steps.

The production workload is thousands of *independent* scenes (parameter
sweeps, per-user configs). This package makes one scene a schedulable,
serializable unit (:class:`SceneJob` -> :func:`run_scene` ->
:class:`SceneResult`) and multiplexes N of them over the executor
registry (:class:`SweepRunner`), with per-job failure isolation,
per-job timeouts, process-wide warm table caches
(:func:`repro.runtime.warm_caches`), and whole-sweep kill/resume on top
of the bit-identical checkpoint layer.

BLAS policy: every job runs at one OpenBLAS thread
(:func:`repro.runtime.blas.single_blas_thread` scopes :func:`run_scene`
and each job a pool worker runs), so N workers use N cores rather than
N times the BLAS threads. OpenBLAS results depend on its thread count,
and executors agree bit for bit only at equal counts; pinning every job
to one thread is what makes a serial, thread and process sweep, and a
solo :func:`run_scene`, bit-identical. A scene stepped outside a sweep
keeps the host's default.

The per-order table caches (:func:`repro.runtime.warm_caches`) are
process-wide and keep the bits of whichever BLAS thread count built
them first: :class:`SweepRunner` builds them at one thread, but a bare
:class:`repro.core.Simulation` run earlier in the same process fills
them at the host's default. For a sweep that must match a resumed run
(a fresh process) bit for bit, run no other scene in its process first.

Quick use::

    from repro import presets
    from repro.surfaces import biconcave_rbc
    from repro.sweep import SceneJob, SweepRunner

    jobs = [SceneJob.from_cells(f"visc{mu}", presets.relaxation(),
                                [biconcave_rbc(order=8)], n_steps=20)
            for mu in (0.5, 1.0, 2.0)]
    report = SweepRunner(jobs, executor="process", workers="auto",
                         workdir="sweep_out").run()
    for res in report.results:
        print(res.job_id, res.status, res.t)
"""
from ..runtime.caches import warm_caches
from .job import SceneJob, SceneResult, SceneTask, run_scene
from .runner import SweepReport, SweepRunner

__all__ = [
    "SceneJob", "SceneResult", "SceneTask", "run_scene",
    "SweepReport", "SweepRunner", "warm_caches",
]
