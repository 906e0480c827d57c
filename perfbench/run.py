"""The repository benchmark: one command per workload and seed.

    python3 perfbench/run.py --workload cells6_o8 --seed 1 --seconds 12 \
        --trace 0

Runs one workload (see ``perfbench/workloads.py``) from the root of a
checkout of this repository, importing the program from ``src/``. Each
workload is a closed loop driven by this one process; the sweep adds
only the program's own 2-worker pool.

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` runs the workload untraced and then again with the layer
wrappers of ``perfbench/tracing.py`` installed, checks that the two
trajectories are bit-identical, and reports the per-layer metrics. The
metric names and units are those of ``BENCHMARK.json``. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it record
the host, the sample counts and a digest of the final positions.

The exit code is 0 whenever a result line is printed (``correct`` tells
whether the outputs passed their checks), and 2 when the program cannot
be imported, e.g. outside a checkout.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: where sweeps write their checkpoints and results, and traced runs
#: their spans; inside the checkout.
WORK = os.path.join(ROOT, ".perfbench_work")

#: the seed the benchmark's reference figures are recorded with.
DEFAULT_SEED = 1
#: cold set-ups per run (this process plus fresh subprocesses); the
#: median is ``setup_s``.
SETUP_REPEATS = 3


def _log(*parts) -> None:
    print(*parts, flush=True)


def _units(kind: str) -> dict:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _median(values) -> float:
    """Median, or 0.0 when a failed run left no samples (the result is
    then marked failed anyway)."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def _rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _volumes_areas(cells) -> tuple:
    return (np.array([c.volume() for c in cells]),
            np.array([c.area() for c in cells]))


def _drift(now: np.ndarray, ref: np.ndarray) -> float:
    return float(np.max(np.abs(now / ref - 1.0))) if len(ref) else 0.0


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for X in arrays:
        h.update(np.ascontiguousarray(X, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def _drift_bounds(break_check: bool) -> tuple:
    """(volume, area) drift bounds: the default ``ResilienceOptions``,
    or zero so that the check must fail (``--break-check``)."""
    from repro.config import ResilienceOptions
    if break_check:
        return 0.0, 0.0
    pol = ResilienceOptions()
    return pol.max_volume_drift, pol.max_area_drift


def _setup_probes(args, n: int) -> list:
    """Cold set-up times from ``n`` fresh interpreters (the per-order
    tables are process-wide caches, so only a new process is cold)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    if args.tiny:
        cmd.append("--tiny")
    out = []
    for _ in range(n):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=170, check=True)
        out.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return out


class Outcome:
    """Operation accounting: every step (or job) is an operation, and so
    is each output check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def op(self, ok: bool, why: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(why)

    def result(self, metrics: dict, units: dict) -> dict:
        for why in self.problems:
            _log(f"# FAILED: {why}")
        _log(f"# failed_frac {self.failed / self.attempted:.4g} "
             f"({self.failed} of {self.attempted} operations)")
        for name, unit in units.items():
            _log(f"# {name} = {metrics[name]:.6g} {unit}")
        return {"correct": self.failed == 0,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {name: {"value": float(metrics[name]),
                                   "unit": unit}
                            for name, unit in units.items()}}


# -- scenes -----------------------------------------------------------------
class SceneRun:
    """One simulation driven step by step, with its output check."""

    def __init__(self, workload, seed: int, tiny: bool, outcome: Outcome,
                 tracer=None):
        self.w = workload
        self.outcome = outcome
        self.tracer = tracer
        self.step_ms: list = []
        self.roots: list = []
        self.window = None
        t0 = time.perf_counter()
        self.sim = workload.build(seed, tiny)
        self.v0, self.a0 = _volumes_areas(self.sim.cells)
        self.alive = self.step()
        self.setup_s = time.perf_counter() - t0

    def step(self) -> bool:
        """One nominal step as one operation; False once the simulation
        cannot continue."""
        from repro.resilience import StepRejectedError
        sim, tr = self.sim, self.tracer
        root = tr.open("step") if tr is not None else None
        t0 = time.perf_counter()
        try:
            rep = sim.step()
        except StepRejectedError as exc:
            self.outcome.op(False, f"step rejected: {exc}")
            return False
        except Exception:
            self.outcome.op(False, traceback.format_exc(limit=3))
            return False
        finally:
            if tr is not None:
                tr.close(root)
        self.last_ms = 1e3 * (time.perf_counter() - t0)
        if tr is not None:
            self.roots.append(root)
            stats = getattr(sim.backend, "stats", None)
            if isinstance(stats, dict):
                for key in ("p2p", "m2l", "m2p", "p2l"):
                    tr.counts[(root, f"fmm.{key}")] += stats.get(key, 0)
            tr.counts[(root, "resilience.retries")] += rep.retries
        resolved = rep.ncp is None or rep.ncp.resolved
        self.outcome.op(rep.retries == 0 and resolved,
                        f"t={sim.t:g}: retries={rep.retries}, "
                        f"ncp resolved={resolved}")
        return True

    def run(self, seconds: float, max_steps: float = math.inf) -> None:
        """Steady steps until ``seconds`` have passed (and at least the
        trajectory window is done), or exactly ``max_steps``."""
        start = time.perf_counter()
        n = 0
        while self.alive and n < max_steps:
            if (max_steps == math.inf and n >= self.w.window
                    and time.perf_counter() - start >= seconds):
                break
            if not self.step():
                self.alive = False
                break
            self.step_ms.append(self.last_ms)
            n += 1
            if n == self.w.window:
                self.window = ([c.X.copy() for c in self.sim.cells],
                               *_volumes_areas(self.sim.cells))

    def check(self, break_check: bool) -> dict:
        """The output check over the trajectory window, counted as one
        operation: finite positions, drift within the bounds."""
        vmax, amax = _drift_bounds(break_check)
        problems = []
        if self.window is None:
            problems.append("trajectory window not reached")
            self.window = ([c.X for c in self.sim.cells],
                           *_volumes_areas(self.sim.cells))
        X, v, a = self.window
        vol, area = _drift(v, self.v0), _drift(a, self.a0)
        if not all(np.isfinite(c.X).all() for c in self.sim.cells):
            problems.append("non-finite positions")
        if vol > vmax:
            problems.append(f"volume drift {vol:.3g} > {vmax}")
        if area > amax:
            problems.append(f"area drift {area:.3g} > {amax}")
        self.outcome.op(not problems, "; ".join(problems))
        return {"vol_drift": vol, "area_drift": area, "digest": _digest(X)}


def scene_untraced(args, w) -> dict:
    outcome = Outcome()
    run = SceneRun(w, args.seed, args.tiny, outcome)
    run.run(args.seconds)
    checked = run.check(args.break_check)
    peak = _rss_mb(resource.RUSAGE_SELF)
    setups = [run.setup_s] + _setup_probes(args, SETUP_REPEATS - 1)
    steady = run.step_ms
    _log(f"# {w.name}: {len(steady)} steady steps (first step excluded); "
         f"setups {[round(s, 3) for s in setups]}")
    _log(f"# step ms: {[round(t, 1) for t in steady]}")
    _log(f"# digest after {w.window} steady steps: {checked['digest']}")
    metrics = {
        "ms_per_step": _median(steady),
        "jobs_per_s": 1e3 * len(steady) / max(sum(steady), 1e-9),
        "setup_s": _median(setups),
        "peak_rss_mb": peak,
        "vol_drift": checked["vol_drift"],
        "area_drift": checked["area_drift"],
    }
    return outcome.result(metrics, _units("end_to_end"))


def scene_traced(args, w) -> dict:
    """An untraced pass gives the reference trajectory; the same number
    of steps then runs on a fresh simulation with the wrappers on, and
    once more with them passing straight through. The overhead compares
    the last two: the first simulation in a process steps measurably
    slower than later ones."""
    import tracing
    units = _units("per_layer")
    outcome = Outcome()
    plain = SceneRun(w, args.seed, args.tiny, outcome)
    plain.run(args.seconds / 3)
    plain.check(args.break_check)
    n = len(plain.step_ms)

    tracer = tracing.Tracer(f"{w.name}-seed{args.seed}")
    tracing.instrument(tracer)
    traced = SceneRun(w, args.seed, args.tiny, outcome, tracer=tracer)
    traced.run(0.0, max_steps=n)
    traced.check(args.break_check)
    deviation = max(float(np.abs(a.X - b.X).max()) for a, b in
                    zip(plain.sim.cells, traced.sim.cells))
    outcome.op(deviation == 0.0 and len(traced.step_ms) == n,
               f"traced trajectory deviates by {deviation:.3g}")
    tracer.stop()
    again = SceneRun(w, args.seed, args.tiny, outcome)
    again.run(0.0, max_steps=n)

    steady = traced.roots[1:]
    metrics = dict.fromkeys(units, 0.0)
    if steady:
        metrics.update(tracer.step_summary(steady))
    metrics["bie.assemble_ms"] = tracer.total_ms("bie.assemble")
    metrics["trace.overhead_frac"] = (
        _median(traced.step_ms) / max(_median(again.step_ms), 1e-9) - 1.0)
    _log(f"# {w.name}: traced {len(steady)} steady steps; deviation vs "
         f"untraced {deviation!r}; spans {len(tracer.spans)}; untraced "
         f"step ms before {_median(plain.step_ms):.1f}, traced "
         f"{_median(traced.step_ms):.1f}, untraced after "
         f"{_median(again.step_ms):.1f}")
    _write_spans(tracer, args)
    return outcome.result(metrics, units)


# -- sweep -----------------------------------------------------------------
def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def _one_sweep(w, jobs, workdir: str):
    from repro.sweep import SweepRunner
    shutil.rmtree(workdir, ignore_errors=True)
    runner = SweepRunner(jobs, executor="process", workers=w.workers,
                         workdir=workdir,
                         checkpoint_interval=w.checkpoint_interval)
    report = runner.run()
    written = _dir_bytes(workdir)
    shutil.rmtree(workdir, ignore_errors=True)
    return report, written


def sweep_run(args, w, tracer=None) -> dict:
    """Parent-side cache warm-up (``setup_s``), then sweeps until
    ``--seconds`` have passed, at least one."""
    import repro.runtime.caches as caches
    from repro.surfaces import SpectralSurface
    outcome = Outcome()
    jobs = w.jobs(args.seed, args.tiny)
    orders = sorted({o for j in jobs for o in j.scene_orders()})
    t0 = time.perf_counter()
    caches.warm_caches(orders)
    setup = time.perf_counter() - t0

    workdir = os.path.join(WORK, f"{w.name}-{os.getpid()}")
    reports, written = [], []
    start = time.perf_counter()
    while not reports or time.perf_counter() - start < args.seconds:
        report, nbytes = _one_sweep(w, jobs, workdir)
        reports.append(report)
        written.append(nbytes)
    peak = max(_rss_mb(resource.RUSAGE_SELF),
               _rss_mb(resource.RUSAGE_CHILDREN))

    def cells(positions, job):
        return [SpectralSurface(np.array(X), int(p))
                for X, p in zip(positions, job.orders)]

    vol = area = 0.0
    for report in reports:
        for job, res in zip(jobs, report.results):
            finite = (res.positions is not None
                      and all(np.isfinite(X).all() for X in res.positions))
            outcome.op(res.completed and finite,
                       f"{res.job_id}: {res.status} {res.error or ''}")
            if report is reports[0] and finite:
                v0, a0 = _volumes_areas(cells(job.positions, job))
                v1, a1 = _volumes_areas(cells(res.positions, job))
                vol = max(vol, _drift(v1, v0))
                area = max(area, _drift(a1, a0))
    vmax, amax = _drift_bounds(args.break_check)
    outcome.op(vol <= vmax and area <= amax,
               f"drift volume {vol:.3g} (bound {vmax}), "
               f"area {area:.3g} (bound {amax})")

    results = [r for rep in reports for r in rep.results if r.completed]
    wall = sum(rep.elapsed for rep in reports)
    digest = _digest(X for r in reports[0].results
                     for X in (r.positions or []))
    _log(f"# {w.name}: {len(reports)} sweep(s) of {len(jobs)} jobs, "
         f"{len(results)} completed in {wall:.2f} s, "
         f"{w.workers} workers; digest {digest}")
    if tracer is not None:
        units = _units("per_layer")
        metrics = dict.fromkeys(units, 0.0)
        metrics.update({
            "runtime.warm_caches_s":
                tracer.total_ms("runtime.warm_caches") / 1e3,
            "runtime.map_ms": tracer.total_ms("runtime.map") / len(reports),
            "runtime.map_calls":
                len(tracer.durations_ms("runtime.map")) / len(reports),
            "runtime.worker_idle_frac":
                1.0 - sum(r.elapsed for r in results) / (w.workers * wall),
            "sweep.job_s_p50": _median(r.elapsed for r in results),
            "sweep.result_write_ms":
                _median(tracer.durations_ms("sweep.result_write")),
            "sweep.bytes_written": sum(written) / len(reports),
        })
        _write_spans(tracer, args)
        return outcome.result(metrics, units)

    setups = [setup] + _setup_probes(args, SETUP_REPEATS - 1)
    _log(f"# setups (warm_caches {orders}) {[round(s, 3) for s in setups]}")
    metrics = {
        "ms_per_step": 1e3 * sum(r.elapsed for r in results)
        / max(1, sum(r.steps_done for r in results)),
        "jobs_per_s": len(results) / wall,
        "setup_s": _median(setups),
        "peak_rss_mb": peak,
        "vol_drift": vol,
        "area_drift": area,
    }
    return outcome.result(metrics, _units("end_to_end"))


def sweep_traced(args, w) -> dict:
    import tracing
    tracer = tracing.Tracer(f"{w.name}-seed{args.seed}")
    tracing.instrument(tracer)
    return sweep_run(args, w, tracer=tracer)


def _write_spans(tracer, args) -> None:
    os.makedirs(WORK, exist_ok=True)
    tracer.write_jsonl(os.path.join(
        WORK, f"spans-{args.workload}-seed{args.seed}.jsonl"))


def setup_probe(args, w) -> None:
    """``--setup-probe``: one cold set-up in this fresh process."""
    if w.kind == "sweep":
        import repro.runtime.caches as caches
        orders = sorted({o for j in w.jobs(args.seed, args.tiny)
                         for o in j.scene_orders()})
        t0 = time.perf_counter()
        caches.warm_caches(orders)
        setup = time.perf_counter() - t0
    else:
        setup = SceneRun(w, args.seed, args.tiny, Outcome()).setup_s
    print(json.dumps({"setup_s": setup}))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="seconds-long versions of the workloads "
                         "(self-test)")
    ap.add_argument("--break-check", action="store_true",
                    help="tighten the drift bounds to zero so the output "
                         "check must fail (self-test)")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no program sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}",
              file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        setup_probe(args, w)
        return 0

    from host import fingerprint
    _log("# host " + json.dumps(fingerprint(), sort_keys=True))
    _log(f"# workload {w.name} seed {args.seed} seconds {args.seconds:g} "
         f"trace {args.trace}")
    if w.kind == "scene":
        result = (scene_traced if args.trace else scene_untraced)(args, w)
    else:
        result = (sweep_traced if args.trace else sweep_run)(args, w)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
