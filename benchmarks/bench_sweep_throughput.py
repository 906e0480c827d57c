"""Many-scene sweep throughput: N independent jobs vs one-at-a-time.

The production workload (ROADMAP item 2) is thousands of *independent*
scenes, where parallelism across scenes is embarrassingly free — no
ghost exchange, no gather, one pickle of the job in and one result out.
This bench measures what :class:`repro.sweep.SweepRunner` delivers on
this host:

- ``single_job_s``: one warm solo :func:`repro.sweep.run_scene` call —
  the unit of work;
- one sweep row per (executor, workers): elapsed wall clock, jobs/s
  throughput, speedup vs the serial sweep, efficiency vs the ideal
  ``workers``-fold speedup, and the max per-job trajectory deviation vs
  running that job alone (**exactly 0.0** by the sweep contract — this
  is the CI gate);
- ``warm_cache_build_s`` vs ``warm_cache_revisit_s``: the per-order
  shared-table cost the parent fronts once so workers inherit the
  tables copy-on-write instead of rebuilding them per job.

The throughput gate (``> 0.8 * workers`` jobs-per-second scaling) is
meaningful only where cores exist; on a single-core host the process
rows can only show dispatch + pickle overhead, and the committed
numbers must say so honestly — bit-identity, not speedup, is what CI
gates everywhere (same policy as ``BENCH_scaling.json``).

Run:  PYTHONPATH=src python benchmarks/bench_sweep_throughput.py
      [--jobs N] [--steps N] [--order N] [--workers N] [--out FILE]
"""
from __future__ import annotations

import argparse
import json
import os
import time

import numpy as np

from repro.config import NumericsOptions, ReproConfig
from repro.physics.terms import Bending, Tension
from repro.runtime import warm_caches
from repro.runtime.blas import single_blas_thread, thread_counts
from repro.surfaces import biconcave_rbc
from repro.sweep import SceneJob, SweepRunner, run_scene


def sweep_jobs(n: int, order: int, steps: int) -> list:
    """N single-cell relaxation jobs with distinct bending moduli."""
    jobs = []
    for i in range(n):
        cfg = ReproConfig(dt=0.05, viscosity=1.0,
                          forces=[Bending(0.03 + 0.01 * i), Tension()],
                          backend="direct", with_collisions=False,
                          numerics=NumericsOptions())
        jobs.append(SceneJob.from_cells(
            f"job{i}", cfg, [biconcave_rbc(1.0, order=order)],
            n_steps=steps))
    return jobs


def max_deviation(ref_results, sweep_results) -> float:
    dev = 0.0
    for a, b in zip(ref_results, sweep_results):
        for X, Y in zip(a.positions, b.positions):
            dev = max(dev, float(np.abs(X - Y).max()))
    return dev


def measure(args) -> dict:
    # Warm the shared per-order tables once, up front, and price both
    # the cold build and the (cache-hit) revisit. One BLAS thread, as
    # SweepRunner's own warm-up, so every row steps on the same tables.
    with single_blas_thread():
        t0 = time.perf_counter()
        warm_caches([args.order])
        warm_build = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm_caches([args.order])
        warm_revisit = time.perf_counter() - t0

    jobs = sweep_jobs(args.jobs, args.order, args.steps)

    # The unit of work, solo and warm (also the bit-identity reference).
    t0 = time.perf_counter()
    ref = [run_scene(j) for j in jobs]
    solo_elapsed = time.perf_counter() - t0
    single_job_s = solo_elapsed / args.jobs

    rows = []
    serial_elapsed = None
    for executor, workers in [("serial", 1), ("thread", args.workers),
                              ("process", args.workers)]:
        t0 = time.perf_counter()
        report = SweepRunner(jobs, executor=executor,
                             workers=workers).run()
        elapsed = time.perf_counter() - t0
        if executor == "serial":
            serial_elapsed = elapsed
        statuses = [r.status for r in report.results]
        assert statuses == ["completed"] * args.jobs, statuses
        rows.append({
            "executor": executor,
            "workers": workers,
            "jobs": args.jobs,
            "elapsed_s": round(elapsed, 3),
            "jobs_per_s": round(args.jobs / elapsed, 3),
            "speedup_vs_serial_sweep": round(serial_elapsed / elapsed, 3),
            "efficiency": round(serial_elapsed / elapsed / workers, 3),
            "max_traj_deviation_vs_solo": max_deviation(
                ref, report.results),
        })

    ncpu = os.cpu_count() or 1
    with single_blas_thread():  # the scope every sweep job runs in
        job_threads = thread_counts()
    return {
        "host": {
            "nproc": ncpu,
            "blas_threads_parent": thread_counts(),
            "blas_threads_job": job_threads,
            "note": ("single-core container: process/thread sweep rows "
                     "cannot beat the serial sweep (dispatch + pickle "
                     "overhead only); the bit-identity column is the "
                     "gate here, the >0.8*workers throughput gate "
                     "applies only where cores exist"
                     if ncpu < args.workers else
                     f"{ncpu} cores: the >0.8*workers throughput gate "
                     "is measurable on this host"),
        },
        "scene": {"order": args.order, "ncells_per_job": 1,
                  "steps": args.steps, "backend": "direct"},
        "warm_cache_build_s": round(warm_build, 4),
        "warm_cache_revisit_s": round(warm_revisit, 6),
        "single_job_s": round(single_job_s, 3),
        "sweeps": rows,
        "gates": {
            "bit_identity":
                "max_traj_deviation_vs_solo == 0.0 on every row "
                "(enforced by CI sweep-smoke and this script's exit "
                "code everywhere)",
            "throughput":
                "process row jobs_per_s > 0.8 * workers * serial row "
                "jobs_per_s (enforced only when cpu_count >= workers)",
        },
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--jobs", type=int, default=4)
    ap.add_argument("--steps", type=int, default=3)
    ap.add_argument("--order", type=int, default=6)
    ap.add_argument("--workers", type=int, default=2)
    ap.add_argument("--out", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "BENCH_sweep.json"))
    args = ap.parse_args()

    payload = measure(args)
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")

    ok = True
    serial_rate = payload["sweeps"][0]["jobs_per_s"]
    for row in payload["sweeps"]:
        dev = row["max_traj_deviation_vs_solo"]
        print(f"[bench] {row['executor']:>7} x{row['workers']}: "
              f"{row['elapsed_s']:7.2f}s  {row['jobs_per_s']:6.3f} jobs/s"
              f"  speedup {row['speedup_vs_serial_sweep']:5.2f}"
              f"  deviation {dev:.1e}")
        if dev != 0.0:
            print(f"FAIL: {row['executor']} sweep deviates from solo runs")
            ok = False
        if (row["executor"] == "process"
                and (os.cpu_count() or 1) >= row["workers"]
                and row["jobs_per_s"] <= 0.8 * row["workers"] * serial_rate):
            print("FAIL: process sweep below the 0.8*workers "
                  "throughput gate on a multi-core host")
            ok = False
    print(f"[bench] wrote {args.out}")
    raise SystemExit(0 if ok else 1)


if __name__ == "__main__":
    main()
