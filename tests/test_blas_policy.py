"""The BLAS thread policy (:mod:`repro.runtime.blas`): one OpenBLAS
thread inside every sweep job, the host's default everywhere else
(process-pool workers included), and bit-identity across executors
under it."""
import sys
import threading

import numpy as np
import pytest

from repro import presets
from repro.config import NumericsOptions, ReproConfig
from repro.core import Simulation
from repro.fmm.treecode import _fit_operator
from repro.physics.terms import Bending, Gravity, Tension
from repro.runtime import blas
from repro.runtime.executor import ProcessPoolExecutor, ProcessTask
from repro.surfaces import biconcave_rbc
from repro.sweep import SceneJob, SweepRunner, run_scene
from repro.sweep.job import SceneTask
import repro.sweep.job as job_module


def _jobs(n=3, n_steps=3):
    # distinct physics per job so a cross-job mixup cannot cancel out
    return [SceneJob.from_cells(
        f"job{i}",
        presets.relaxation(dt=0.05, bending_modulus=0.03 + 0.01 * i),
        [biconcave_rbc(radius=1.0, order=6)], n_steps=n_steps)
        for i in range(n)]


def _positions_equal(a, b):
    return all(x.shape == y.shape and x.tobytes() == y.tobytes()
               for x, y in zip(a, b))


def _ones():
    return [1] * len(blas.thread_counts())


@pytest.fixture
def current_job(monkeypatch):
    """Thread-local id of the sweep job the calling thread is running."""
    local = threading.local()

    def traced_run_scene(job, _orig=job_module.run_scene):
        local.job_id = job.job_id
        return _orig(job)

    monkeypatch.setattr(job_module, "run_scene", traced_run_scene)
    return local


class _BlasThreads(ProcessTask):
    def __call__(self, item):
        return blas.thread_counts()


def _job_blas_threads(job):
    return blas.thread_counts()


def _map_on_pool(task, items):
    ex = ProcessPoolExecutor(workers=2)
    try:
        return ex.map(task, items)
    finally:
        ex.close()


class TestPoolWorkers:
    def test_plain_worker_keeps_the_parent_count(self):
        """The pool pins nothing: within-scene shards run at the count
        the parent runs the serial reference at."""
        assert _map_on_pool(_BlasThreads(), range(8)) == \
            [blas.thread_counts()] * 8

    def test_every_sweep_job_runs_one_blas_thread(self, monkeypatch):
        # the fork pool inherits the patched module global
        monkeypatch.setattr(job_module, "run_scene", _job_blas_threads)
        assert _map_on_pool(SceneTask(), _jobs(8)) == [_ones()] * 8


class TestScope:
    def test_nested_scope_restores_on_exit_and_on_raise(self):
        before = blas.thread_counts()
        with pytest.raises(RuntimeError):
            with blas.single_blas_thread():
                with blas.single_blas_thread():
                    assert blas.thread_counts() == _ones()
                assert blas.thread_counts() == _ones()
                raise RuntimeError("boom")
        assert blas.thread_counts() == before

    def test_concurrent_entries_keep_the_count_consistent(self):
        """More threads than cores enter and leave the scope at a tiny
        switch interval; a lost depth update would leave the parent at
        one thread or restore the default under a live scope."""
        before = blas.thread_counts()
        inside, errors = _ones(), []

        def churn():
            for _ in range(1000):
                with blas.single_blas_thread():
                    if blas.thread_counts() != inside:
                        errors.append(blas.thread_counts())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert blas.thread_counts() == before

    def test_single_scene_outside_a_sweep_keeps_host_default(self,
                                                             monkeypatch):
        default = blas.thread_counts()
        seen = []
        step = Simulation.step

        def spy(self):
            seen.append(blas.thread_counts())
            return step(self)

        monkeypatch.setattr(Simulation, "step", spy)
        _jobs(1)[0].make_simulation().run(2)
        assert seen == [default] * 2


class TestSweepRestoresParent:
    @pytest.mark.parametrize("executor,workers", [
        ("serial", 1), ("thread", 2), ("process", 2)])
    def test_parent_count_unchanged(self, executor, workers):
        before = blas.thread_counts()
        report = SweepRunner(_jobs(2, n_steps=1), executor=executor,
                             workers=workers).run()
        assert all(r.completed for r in report.results)
        assert blas.thread_counts() == before

    def test_parent_count_unchanged_after_a_job_raises(self, monkeypatch,
                                                        current_job):
        before = blas.thread_counts()
        step = Simulation.step

        def flaky(self):
            if current_job.job_id == "job1":
                raise RuntimeError("injected")
            return step(self)

        monkeypatch.setattr(Simulation, "step", flaky)
        report = SweepRunner(_jobs(2, n_steps=1), executor="serial").run()
        assert [r.status for r in report.results] == ["completed", "failed"]
        assert blas.thread_counts() == before


class TestThreadSweepReferenceCount:
    def test_overlapping_jobs_all_read_one(self, monkeypatch, current_job):
        """job0 finishes (and leaves its scope) while job1 still steps;
        job1 must keep reading one thread until its own exit."""
        before = blas.thread_counts()
        a_done = threading.Event()
        both_started = threading.Barrier(2, timeout=60)
        seen = {"job0": [], "job1": []}

        def finish_job0(job, _traced=job_module.run_scene):
            res = _traced(job)
            if job.job_id == "job0":
                a_done.set()
            return res

        step = Simulation.step

        def spy(self):
            job_id = current_job.job_id
            if not seen[job_id]:
                both_started.wait()
            elif job_id == "job1":
                assert a_done.wait(timeout=60)
            seen[job_id].append(blas.thread_counts())
            return step(self)

        monkeypatch.setattr(job_module, "run_scene", finish_job0)
        monkeypatch.setattr(Simulation, "step", spy)
        jobs = _jobs(2)
        jobs[0] = SceneJob.from_cells("job0", jobs[0].config,
                                      [biconcave_rbc(radius=1.0, order=6)],
                                      n_steps=1)
        report = SweepRunner(jobs, executor="thread", workers=2).run()
        assert all(r.completed for r in report.results)
        assert seen == {"job0": [_ones()], "job1": [_ones()] * 3}
        assert blas.thread_counts() == before


class TestNoOpenBLAS:
    @pytest.mark.parametrize("executor,workers", [
        ("serial", 1), ("thread", 2), ("process", 2)])
    def test_sweep_still_bit_identical(self, monkeypatch, executor, workers):
        monkeypatch.setattr(blas, "_libraries", lambda: ())
        assert blas.thread_counts() == []
        ref = [run_scene(j) for j in _jobs(3)]
        report = SweepRunner(_jobs(3), executor=executor,
                             workers=workers).run()
        assert [r.status for r in report.results] == ["completed"] * 3
        for a, b in zip(ref, report.results):
            assert _positions_equal(a.positions, b.positions)


def _scene(executor="serial", backend="direct"):
    cells = [biconcave_rbc(1.0, center=(2.4 * i, 0.0, 0.15 * (-1.0) ** i),
                           order=8) for i in range(6)]
    cfg = ReproConfig(dt=0.05,
                      forces=[Bending(0.01), Tension(),
                              Gravity(0.5, (0.0, 0.0, -1.0))],
                      backend=backend, with_collisions=True,
                      numerics=NumericsOptions(executor=executor, workers=2))
    return Simulation(cells, config=cfg)


@pytest.mark.slow
@pytest.mark.parametrize("backend", ["direct", "treecode", "fmm"])
@pytest.mark.parametrize("executor", ["process", "checked-process"])
def test_reference_scene_process_workers_match_serial(executor, backend):
    """Forked workers step their shards at the parent's BLAS thread
    count, so the 6-cell order-8 scene stays bit-identical to serial.
    The sharded scene runs first on cold treecode fits, so the workers
    build their own rather than inheriting the serial run's."""
    _fit_operator.cache_clear()
    sharded = _scene(executor=executor, backend=backend)
    serial = _scene(backend=backend)
    sharded.run(3)
    serial.run(3)
    dev = max(float(np.abs(a.X - b.X).max())
              for a, b in zip(serial.cells, sharded.cells))
    assert dev == 0.0
