"""Outside-in layer tracing for the benchmark.

Nothing here changes the program: :func:`instrument` replaces public
entry points of the ``repro`` layers (methods on their classes, and
module functions in every ``repro`` module that imported them by name)
with thin wrappers that record a span — name, start, end, parent span,
run id — in a :class:`Tracer` held in memory, plus counts taken from the
call's arguments or result. Spans are written out once, when the run
ends (:meth:`Tracer.write_jsonl`).

Only the tracer's own process and thread record; a forked pool worker
inherits the wrappers but calls straight through, so worker-side work
runs the program's code with no tracing cost.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from collections import defaultdict

#: span names that only structure a step; their self time is the part
#: of a step no layer span covers (``stepper.unattributed_frac``).
STRUCTURAL = ("step", "stepper.step")

#: span-name prefix -> the paper's Sec. 5.2 category (the roll-up that
#: continues the ``breakdown_ms_per_step`` rows of BENCH_step.json,
#: with its Tension/Implicit rows folded into Other). A span's self
#: time goes to the category of its nearest categorized ancestor.
PAPER_CATEGORIES = {
    "collision.": "COL",
    "bie.solve": "BIE-solve",
    "bie.assemble": "BIE-solve",
    "bie.evaluate": "BIE-FMM",
    "interactions.prepare": "Other-FMM",
    "interactions.cell_cell": "Other-FMM",
    "interactions.evaluate_at": "Other-FMM",
}
PAPER_ORDER = ("COL", "BIE-solve", "BIE-FMM", "Other-FMM", "Other")

#: per-step self-time metrics: metric name -> span name(s).
LAYER_MS = {
    "interactions.prepare_ms": "interactions.prepare",
    "interactions.cell_cell_ms": "interactions.cell_cell",
    "interactions.evaluate_at_ms": "interactions.evaluate_at",
    "interactions.refresh_ms": "interactions.refresh",
    "kernels.slp_ms": "kernels.slp",
    "kernels.dlp_ms": "kernels.dlp",
    "vesicle.assemble_selfops_ms": "vesicle.assemble_selfops",
    "vesicle.refresh_ms": "vesicle.refresh",
    "vesicle.apply_ms": "vesicle.apply",
    "physics.implicit_matrix_ms": "physics.implicit_matrix",
    "physics.schur_system_ms": "physics.schur_system",
    "physics.tension_solve_ms": "physics.tension_solve",
    "physics.force_ms": "physics.force",
    "linalg.factorize_lu_ms": "linalg.factorize_lu",
    "linalg.lu_solve_ms": "linalg.lu_solve",
    "linalg.apply_matrices_ms": "linalg.apply_matrices",
    "linalg.gmres_ms": "linalg.gmres",
    "sph.seed_coeffs_ms": "sph.seed_coeffs",
    "collision.project_ms": "collision.project",
    "bie.evaluate_ms": "bie.evaluate",
    "bie.solve_ms": ("bie.solve", "bie.gmres"),
    "resilience.sentinel_ms": "resilience.sentinel",
    "resilience.capture_ms": "resilience.capture",
}

#: per-step counts, each recorded under its metric name.
LAYER_COUNTS = (
    "fmm.p2p",
    "fmm.m2l",
    "fmm.m2p",
    "fmm.p2l",
    "kernels.slp_pairs",
    "kernels.dlp_pairs",
    "vesicle.full_refreshes",
    "linalg.gmres_calls",
    "linalg.gmres_iters",
    "collision.candidates",
    "collision.components",
    "collision.lcp_solves",
    "bie.gmres_iters",
    "resilience.retries",
)


class Tracer:
    """In-memory span and counter recorder for one process."""

    def __init__(self, run_id: str) -> None:
        self.pid = os.getpid()
        self.thread = threading.get_ident()
        self.run_id = run_id
        #: one row per span: [name, start_ns, end_ns, parent, run_id, root]
        self.spans: list = []
        #: (root span index, counter name) -> summed count
        self.counts: dict = defaultdict(float)
        self._stack: list = []

    def active(self) -> bool:
        return (os.getpid() == self.pid
                and threading.get_ident() == self.thread)

    def stop(self) -> None:
        """Record nothing more; the wrappers then call straight through."""
        self.pid = None

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        root = self.spans[parent][5] if parent >= 0 else len(self.spans)
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, parent,
                           self.run_id, root])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def count(self, name: str, value: float) -> None:
        root = self.spans[self._stack[0]][5] if self._stack else -1
        self.counts[(root, name)] += value

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, (name, t0, t1, parent, run_id, _) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start_ns": t0,
                                     "end_ns": t1, "parent": parent,
                                     "run_id": run_id}) + "\n")

    # -- derived per-layer figures ------------------------------------------
    def self_times_ns(self) -> list:
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def step_summary(self, roots: list) -> dict:
        """Per-step averages over the given root ``step`` spans: layer
        self times, counts, the paper roll-up and the unattributed
        share."""
        n = len(roots)
        wanted = set(roots)
        own = self.self_times_ns()
        by_name: dict = defaultdict(int)
        paper: dict = defaultdict(int)
        category = [None] * len(self.spans)
        unattributed = 0
        total = sum(self.spans[r][2] - self.spans[r][1] for r in roots)
        for i, (name, _, _, parent, _, root) in enumerate(self.spans):
            cat = next((c for p, c in PAPER_CATEGORIES.items()
                        if name.startswith(p)), None)
            if cat is None and parent >= 0:
                cat = category[parent]
            category[i] = cat
            if root not in wanted:
                continue
            by_name[name] += own[i]
            paper[cat or "Other"] += own[i]
            if name in STRUCTURAL:
                unattributed += own[i]
        out = {m: sum(by_name[s] for s in _names(spans)) / 1e6 / n
               for m, spans in LAYER_MS.items()}
        for c in LAYER_COUNTS:
            out[c] = sum(v for (root, name), v in self.counts.items()
                         if name == c and root in wanted) / n
        for c in PAPER_ORDER:
            out[f"paper.{c}_ms"] = paper[c] / 1e6 / n
        out["stepper.unattributed_frac"] = unattributed / total
        return out

    def total_ms(self, name: str) -> float:
        return sum(e - s for n, s, e, _, _, _ in self.spans
                   if n == name) / 1e6

    def durations_ms(self, name: str) -> list:
        return [(e - s) / 1e6 for n, s, e, _, _, _ in self.spans
                if n == name]


def _names(spans) -> tuple:
    return (spans,) if isinstance(spans, str) else spans


def _wrap(fn, name, tracer: Tracer, after=None):
    """``name`` is a span name, or a function of the tracer giving one."""
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active():
            return fn(*args, **kwargs)
        idx = tracer.open(name if isinstance(name, str) else name(tracer))
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(tracer, args, out)
        return out
    traced.__perfbench_original__ = fn
    return traced


def _patch_function(module_name: str, attr: str, name: str,
                    tracer: Tracer, after=None) -> None:
    """Replace a module function everywhere ``repro`` bound it by name."""
    original = getattr(sys.modules[module_name], attr)
    wrapper = _wrap(original, name, tracer, after)
    for modname, mod in list(sys.modules.items()):
        if (modname == "repro" or modname.startswith("repro.")) \
                and getattr(mod, attr, None) is original:
            setattr(mod, attr, wrapper)


def _patch_method(cls, attr: str, name: str, tracer: Tracer,
                  after=None) -> None:
    """Wrap ``cls.attr`` where ``cls`` itself defines it."""
    if attr in cls.__dict__:
        setattr(cls, attr, _wrap(cls.__dict__[attr], name, tracer, after))


# -- counters read from arguments and results ---------------------------------
def _slp_pairs(tr, args, out):
    tr.count("kernels.slp_pairs", len(args[0]) * len(args[2]))


def _dlp_pairs(tr, args, out):
    tr.count("kernels.dlp_pairs", len(args[0]) * len(args[3]))


def _gmres_span(tr) -> str:
    # The BIE solve's GMRES belongs to the BIE layer: bie.solve_ms and
    # bie.gmres_iters account for it.
    return "bie.gmres" if tr.inside("bie.solve") else "linalg.gmres"


def _gmres_counts(tr, args, out):
    if not tr.inside("bie.solve"):
        tr.count("linalg.gmres_calls", 1)
        tr.count("linalg.gmres_iters", out.iterations)


def _full_refresh(tr, args, out):
    tr.count("vesicle.full_refreshes", int(bool(out)))


def _ncp_counts(tr, args, out):
    report = out[1]
    tr.count("collision.candidates", report.n_candidates)
    tr.count("collision.components", report.n_components)
    tr.count("collision.lcp_solves", report.lcp_solves)


def _bie_iters(tr, args, out):
    tr.count("bie.gmres_iters", out[1].iterations)


def instrument(tracer: Tracer) -> None:
    """Install the layer wrappers (process-wide, for the rest of the
    process: a traced run is its own phase of the benchmark)."""
    import repro  # noqa: F401  (loads every layer module)
    from repro.bie import BoundarySolver
    from repro.collision import NCPSolver
    from repro.core.cellbatch import CellBatch
    from repro.core.interactions import BACKENDS, InteractionBackend
    from repro.core.simulation import Simulation  # noqa: F401
    from repro.core.stepper import TimeStepper
    from repro.linalg.dense import LUFactorization, StackedLUHandle
    from repro.physics.tension import TensionSolver
    from repro.resilience.health import HealthSentinel
    from repro.runtime.executor import ProcessPoolExecutor
    from repro.vesicle import SingularSelfInteraction
    import repro.physics.bending  # noqa: F401
    import repro.resilience.snapshot  # noqa: F401
    import repro.runtime.caches  # noqa: F401
    import repro.sweep  # noqa: F401

    for cls in {InteractionBackend, *BACKENDS.values()}:
        for attr in ("prepare", "cell_cell", "evaluate_at", "refresh"):
            _patch_method(cls, attr, f"interactions.{attr}", tracer)
    _patch_function("repro.kernels.stokes", "stokes_slp_apply",
                    "kernels.slp", tracer, _slp_pairs)
    _patch_function("repro.kernels.stokes", "stokes_dlp_apply",
                    "kernels.dlp", tracer, _dlp_pairs)

    _patch_method(TimeStepper, "step", "stepper.step", tracer)
    _patch_method(TimeStepper, "interfacial_force", "physics.force", tracer)
    _patch_function("repro.physics.bending", "implicit_operator_matrix",
                    "physics.implicit_matrix", tracer)
    _patch_method(TensionSolver, "schur_system", "physics.schur_system",
                  tracer)
    _patch_method(TensionSolver, "solve_report", "physics.tension_solve",
                  tracer)

    _patch_method(CellBatch, "assemble_selfops", "vesicle.assemble_selfops",
                  tracer)
    _patch_method(SingularSelfInteraction, "refresh", "vesicle.refresh",
                  tracer, _full_refresh)
    _patch_method(SingularSelfInteraction, "apply", "vesicle.apply", tracer)

    _patch_method(CellBatch, "factorize_lu", "linalg.factorize_lu", tracer)
    _patch_method(CellBatch, "apply_matrices", "linalg.apply_matrices",
                  tracer)
    _patch_method(LUFactorization, "solve", "linalg.lu_solve", tracer)
    _patch_method(StackedLUHandle, "solve", "linalg.lu_solve", tracer)
    _patch_function("repro.linalg.gmres", "gmres", _gmres_span, tracer,
                    _gmres_counts)

    _patch_method(CellBatch, "seed_coeffs", "sph.seed_coeffs", tracer)
    _patch_method(NCPSolver, "project", "collision.project", tracer,
                  _ncp_counts)

    _patch_method(BoundarySolver, "evaluate", "bie.evaluate", tracer)
    _patch_method(BoundarySolver, "solve", "bie.solve", tracer, _bie_iters)
    _patch_method(BoundarySolver, "assemble", "bie.assemble", tracer)

    _patch_method(HealthSentinel, "evaluate", "resilience.sentinel", tracer)
    _patch_function("repro.resilience.snapshot", "capture_state",
                    "resilience.capture", tracer)

    _patch_function("repro.runtime.caches", "warm_caches",
                    "runtime.warm_caches", tracer)
    _patch_method(ProcessPoolExecutor, "map", "runtime.map", tracer)
    _patch_function("repro.sweep.job", "result_to_npz",
                    "sweep.result_write", tracer)
