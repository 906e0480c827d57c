"""Pluggable cell-cell interaction backends.

The explicit part of each time step needs the velocity induced by every
cell's single layer on every *other* cell (and on the vessel wall). How
that N-body sum is computed is a performance policy, not physics, so it
lives behind the :class:`InteractionBackend` protocol:

- :class:`DirectBackend` — the near-singular-aware pairwise loop, O(n^2)
  in the number of cells but exact up to quadrature error.
- :class:`TreecodeBackend` — far-field sums routed through one
  kernel-independent treecode *per source cell*; near pairs (and the
  self term removal) fall back to the near-singular evaluators, the
  paper's FMM + near-correction split.
- :class:`FMMBackend` — a single global two-pass KIFMM over all cells'
  sources (:class:`repro.fmm.GlobalKIFMM`), with exact float64 self
  subtraction and near-scheme deltas layered on top; the O(N) choice
  once the suspension outgrows a dozen cells.

All cache one :class:`~repro.vesicle.CellNearEvaluator` per cell across
steps (rebuilding them every step was a measurable hot-path cost) and
transform each cell's force density once per step
(:class:`~repro.vesicle.near_singular.SourceDensity`), reusing it for
every target batch.

The per-source smooth sums, near scans and tree evaluations are
independent tasks mapped over the backend's
:attr:`~InteractionBackend.executor` (assigned by the time stepper,
serial by default). The near-singular values of all sources then go
through one batched call
(:func:`~repro.vesicle.near_singular.near_values`) on the calling
thread: the ``"thread"`` executor does not overlap near work across
sources, because one call over every near target is several times
cheaper than the per-source calls summed. The per-target accumulations
are folded in fixed source order, and a near value does not depend on
which other sources share its batch, so the threaded schedule is
bit-identical to the serial one.

Under the ``"process"`` executor the same fan-out runs across worker
*processes*: the backend asks the executor for a shard count, partitions
the source cells with the Morton partitioner (spatially compact shards
keep each worker's near-zone candidates local), and maps
:data:`repro.core.shardwork.RUN_SHARD` over payloads carrying only
coefficients/positions/densities; each shard makes one batched near call
over its own sources. Results regroup by global source index
(:func:`_regroup`) so the fixed-order fold — and the trajectory — stays
bit-identical to serial.
"""
from __future__ import annotations

from typing import ClassVar, Dict, List, Optional, Sequence, Type

import numpy as np

from ..fmm import GlobalKIFMM, KernelIndependentTreecode
from ..runtime.executor import Executor, SerialExecutor
from ..runtime.partition import partition_by_morton
from ..surfaces import SpectralSurface
from ..vesicle import CellNearEvaluator
from ..vesicle.near_singular import (SourceDensity, evaluate_sources,
                                     near_corrections)
from . import shardwork


def _regroup(ncell: int, shards: Sequence[np.ndarray],
             per_shard: Sequence[list]) -> list:
    """Flatten shard results back to global source order.

    Each shard returns one result per source cell, in the shard's own
    order; the fold that follows must run in ascending global source
    order (the accumulation order is part of the bit-identity contract),
    so results are re-indexed by the shard index arrays first.
    """
    out = [None] * ncell
    for shard, vals in zip(shards, per_shard):
        for j, v in zip(shard, vals):
            out[int(j)] = v
    return out


class InteractionBackend:
    """Computes all-pairs single-layer velocities for the explicit step.

    Lifecycle: :meth:`bind` once to a cell list, :meth:`prepare` once per
    step with that step's force densities, then any number of
    :meth:`cell_cell` / :meth:`evaluate_at` calls; :meth:`refresh` after
    cell ``i`` moves.
    """

    name: ClassVar[str] = ""

    def __init__(self) -> None:
        self.cells: List[SpectralSurface] = []
        self.viscosity = 1.0
        self.farfield_dtype = "float64"
        self.evaluators: List[CellNearEvaluator] = []
        #: executor the per-source tasks are mapped over (the stepper
        #: installs its own, so backend and stages share one policy).
        self.executor: Executor = SerialExecutor()
        self._bound = False
        self._prepared = False
        self._densities: List[Optional[SourceDensity]] = []
        self._forces: List[np.ndarray] = []

    def bind(self, cells: Sequence[SpectralSurface], viscosity: float,
             farfield_dtype: str = "float64") -> "InteractionBackend":
        # Copy: a caller mutating its own list must not desynchronize
        # cells from their evaluators.
        self.cells = list(cells)
        self.viscosity = float(viscosity)
        self.farfield_dtype = str(farfield_dtype)
        self.evaluators = [CellNearEvaluator(
            c, viscosity=self.viscosity,
            farfield_dtype=self.farfield_dtype) for c in self.cells]
        self._bound = True
        self._prepared = False
        return self

    @property
    def bound(self) -> bool:
        return self._bound

    def options(self) -> dict:
        """JSON-safe constructor options (for config serialization)."""
        return {}

    def refresh(self, i: int) -> None:
        """Rebuild the cached evaluator state of cell ``i`` after it moved.

        Also discards any prepared step state: force densities weighted
        on the pre-move geometry would silently misrepresent the new
        configuration, so :meth:`prepare` must be called again before
        the next evaluation.
        """
        self.evaluators[i].refresh()
        self._prepared = False
        self._densities = []
        self._forces = []

    def _require_prepared(self) -> None:
        if not self._prepared:
            raise RuntimeError(
                "backend has no prepared step state; call prepare(forces) "
                "(again after any refresh) before evaluating")

    def refresh_all(self) -> None:
        for i in range(len(self.evaluators)):
            self.refresh(i)

    def prepare(self, forces: Sequence[np.ndarray]) -> None:
        """Cache this step's force densities for reuse across targets.

        Densities are normalized to C-contiguous layout: pickling a
        strided array contiguifies it, and numpy's reductions take
        layout-dependent (ulp-different) paths — so the parent must
        compute on the exact layout a worker process would receive, or
        process != serial at the last bit.
        """
        self._forces = [np.ascontiguousarray(f) for f in forces]
        if len(self._forces) != len(self.evaluators):
            raise ValueError(f"got {len(self._forces)} force densities for "
                             f"{len(self.evaluators)} bound cells")
        self._densities = [None] * len(self._forces)
        self._prepared = True

    def _source(self, j: int) -> SourceDensity:
        """Cell j's force density transformed once per step (SH
        coefficients and the weighted fine density), lazily: a
        single-cell free-space run never needs it."""
        if self._densities[j] is None:
            self._densities[j] = self.evaluators[j].source_density(
                self._forces[j])
        return self._densities[j]

    def _sources(self) -> List[SourceDensity]:
        return [self._source(j) for j in range(len(self.cells))]

    def _velocities(self, targets: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Each source cell's single-layer velocity at its own targets
        (``targets[j]`` for cell j)."""
        raise NotImplementedError

    def _source_shards(self) -> Optional[List[np.ndarray]]:
        """Morton shards of the source-cell indices, or None.

        None means "run the inline per-source path" — the executor did
        not ask for process-level sharding (:meth:`Executor.shard_count`
        returned < 2) or there are too few cells to cut. Otherwise the
        cells are partitioned by the Morton order of their centroids so
        each shard is spatially compact.
        """
        nshard = self.executor.shard_count(len(self.cells))
        if nshard <= 1:
            return None
        centroids = np.array([c.points.mean(axis=0) for c in self.cells])
        shards = [s for s in partition_by_morton(centroids, nshard)
                  if s.size]
        return shards if len(shards) > 1 else None

    def _payload(self, j: int) -> "shardwork.CellPayload":
        """Source cell j snapshotted for shipment to a worker process."""
        return shardwork.payload_for(j, self.evaluators[j], self._source(j))

    def cell_cell(self) -> List[np.ndarray]:
        """``b_i = sum_{j != i} S_j f_j`` at cell i's points, per cell.

        All other cells' points are stacked into one target batch per
        source cell, so the far kernel runs once per source instead of
        once per (source, target-cell) pair, and the near pairs of all
        sources go through one batched call. The accumulation folds in
        fixed source order.
        """
        self._require_prepared()
        cells = self.cells
        ncell = len(cells)
        b = [np.zeros((c.n_points, 3)) for c in cells]
        if ncell <= 1:
            return b
        vals_per_source = self._velocities(
            [np.concatenate([cells[i].points for i in range(ncell) if i != j])
             for j in range(ncell)])
        for j, vals in enumerate(vals_per_source):
            at = 0
            for i in range(ncell):
                if i == j:
                    continue
                n = cells[i].n_points
                b[i] += vals[at:at + n]
                at += n
        return b

    def evaluate_at(self, targets: np.ndarray) -> np.ndarray:
        """``sum_j S_j f_j`` at external targets (e.g. the vessel wall)."""
        self._require_prepared()
        targets = np.atleast_2d(np.asarray(targets, float))
        out = np.zeros((targets.shape[0], 3))
        for v in self._velocities([targets] * len(self.cells)):
            out += v
        return out


# repro-lint: disable=global-mutable — class registry written once at import time by @register_backend, read-only afterwards
BACKENDS: Dict[str, Type[InteractionBackend]] = {}


def register_backend(cls: Type[InteractionBackend]) -> Type[InteractionBackend]:
    """Class decorator adding a backend to the :data:`BACKENDS` registry."""
    if not cls.name:
        raise ValueError(f"{cls.__name__} must define a non-empty name")
    BACKENDS[cls.name] = cls
    return cls


def make_backend(name: str, **options) -> InteractionBackend:
    """Instantiate a registered backend by name."""
    try:
        cls = BACKENDS[name]
    except KeyError:
        raise ValueError(f"unknown interaction backend {name!r}; "
                         f"registered: {sorted(BACKENDS)}") from None
    return cls(**options)


@register_backend
class DirectBackend(InteractionBackend):
    """Exact pairwise near-singular evaluation, O(ncell^2) pairs."""

    name = "direct"

    def _velocities(self, targets: Sequence[np.ndarray]) -> List[np.ndarray]:
        return evaluate_sources(self.evaluators, self._sources(), targets,
                                self.executor.map)

    def cell_cell(self) -> List[np.ndarray]:
        """Shard-aware specialization of the all-pairs sum.

        With a sharding executor the per-source evaluations ship to
        worker processes as :class:`repro.core.shardwork.DirectShard`
        batches; each worker excludes a source's own block from the
        stacked cloud exactly like the inline path stacks "all other
        cells", and the fold runs in ascending source order either way.
        """
        shards = self._source_shards()
        if shards is None:
            return super().cell_cell()
        self._require_prepared()
        cells = self.cells
        ncell = len(cells)
        counts = [c.n_points for c in cells]
        offsets = np.concatenate([[0], np.cumsum(counts)])
        allpts = np.concatenate([c.points for c in cells])
        tasks = [shardwork.DirectShard(
                     sources=[self._payload(j) for j in shard],
                     allpts=allpts,
                     own=[(int(offsets[j]), int(offsets[j + 1]))
                          for j in shard])
                 for shard in shards]
        vals_per_source = _regroup(
            ncell, shards, self.executor.map(shardwork.RUN_SHARD, tasks))
        b = [np.zeros((n, 3)) for n in counts]
        for j, vals in enumerate(vals_per_source):
            at = 0
            for i in range(ncell):
                if i == j:
                    continue
                b[i] += vals[at:at + counts[i]]
                at += counts[i]
        return b


class NearZoneMixin:
    """Conservative bounding-sphere near-zone classification, shared by
    every tree-accelerated backend: a target is *possibly near* source
    cell ``j`` when it falls inside ``j``'s bounding sphere inflated by
    ``near_safety`` times the cell's near-scheme distance. Only those
    targets are handed to the near-singular machinery."""

    near_safety: float
    cells: List[SpectralSurface]
    evaluators: List[CellNearEvaluator]

    def _bounding_spheres(self) -> None:
        centers, radii = [], []
        for c in self.cells:
            pts = c.points
            ctr = pts.mean(axis=0)
            centers.append(ctr)
            radii.append(float(np.linalg.norm(pts - ctr, axis=1).max()))
        self._centers = np.asarray(centers)
        self._radii = np.asarray(radii)

    def _near_cutoffs(self) -> np.ndarray:
        """Per-source near-zone radius (bounding sphere + near distance)."""
        return self._radii + self.near_safety * np.array(
            [ev.near_distance for ev in self.evaluators])

    def _near_mask(self, j: int, targets: np.ndarray) -> np.ndarray:
        """Targets that may fall in source cell j's near-evaluation zone."""
        d = np.linalg.norm(targets - self._centers[j], axis=1)
        return d < self._near_cutoffs()[j]


@register_backend
class TreecodeBackend(NearZoneMixin, InteractionBackend):
    """Far field through the KIFMM treecode, near pairs exact.

    One treecode is built per source cell per step over that cell's fine
    quadrature sources. Targets in a source cell's near zone (by a
    conservative bounding-sphere test) go through the near-singular
    evaluator; all other targets are summed through the tree, whose
    multipole acceptance collapses a far cell to a handful of
    equivalent-density boxes. A cell's own sources never enter its
    right-hand side, so there is no self-term subtraction (the global
    tree of :class:`FMMBackend` needs one, and neutralizes the
    cancellation against the on-surface smooth sum by pairing it with
    an exact float64 subtraction).

    Parameters mirror :class:`repro.fmm.KernelIndependentTreecode`;
    ``near_safety`` scales the bounding-sphere gap below which a pair is
    treated as near.
    """

    name = "treecode"

    def __init__(self, mac: float = 3.0, equiv_points_per_edge: int = 5,
                 max_leaf: int = 64, near_safety: float = 1.5):
        super().__init__()
        self.mac = float(mac)
        self.equiv_points_per_edge = int(equiv_points_per_edge)
        self.max_leaf = int(max_leaf)
        self.near_safety = float(near_safety)
        self._trees: List[KernelIndependentTreecode] = []
        self._centers: Optional[np.ndarray] = None
        self._radii: Optional[np.ndarray] = None

    def options(self) -> dict:
        return {"mac": self.mac,
                "equiv_points_per_edge": self.equiv_points_per_edge,
                "max_leaf": self.max_leaf,
                "near_safety": self.near_safety}

    def prepare(self, forces: Sequence[np.ndarray]) -> None:
        super().prepare(forces)
        self._bounding_spheres()
        self._trees = []
        if self._source_shards() is None:
            # Eager parent-side builds for the inline path. Under
            # process sharding each worker builds its own shard's trees
            # instead (shardwork.TreecodeShard), so building them here
            # too would double the work; evaluate_at falls back to a
            # lazy build when it needs them (see _masked_velocity).
            self._build_trees()

    def _build_trees(self) -> None:
        # Per-source tree builds (upward pass included) are independent
        # tasks; the far-field dtype only affects evaluation, the fits
        # stay float64.
        self._trees = self.executor.map(
            lambda j: KernelIndependentTreecode(
                self.evaluators[j]._fine.points,
                self._source(j).fine_weighted.reshape(-1, 3), "stokes_slp",
                self.viscosity, max_leaf=self.max_leaf,
                equiv_points_per_edge=self.equiv_points_per_edge,
                mac=self.mac, farfield_dtype=self.farfield_dtype),
            range(len(self.cells)))

    def evaluate_at(self, targets: np.ndarray) -> np.ndarray:
        self._require_prepared()
        if not self._trees and self.cells:
            # prepare() skips the eager build under a sharding executor
            # (workers build their own shard's trees); external-target
            # evaluation still needs parent-side trees, so build them
            # here — on the calling thread, never inside a mapped task.
            self._build_trees()
        return super().evaluate_at(targets)

    def _masked_velocities(self, targets: Sequence[np.ndarray],
                           masks: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Each cell's velocity at its targets, near pairs (``masks``)
        through the near-singular evaluators, the rest through the trees."""
        return shardwork.masked_velocities(
            self.evaluators, self._sources(), self._trees, targets, masks,
            self.executor.map)

    def _velocities(self, targets: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Near-aware where needed, treecode elsewhere."""
        return self._masked_velocities(
            targets, [self._near_mask(j, t) for j, t in enumerate(targets)])

    def cell_cell(self) -> List[np.ndarray]:
        """Near-pair-batched specialization of the all-pairs sum.

        All cells' points are stacked once and the near masks of *every*
        source are computed in a single vectorized distance pass against
        the stacked cloud (one (n_points_total, ncell) sweep instead of
        one mask evaluation per source call); each source then runs one
        smooth batch and one treecode batch over its gathered targets,
        exactly like :meth:`DirectBackend.cell_cell` stacks target cells,
        and the near pairs of all sources go through one batched call.
        """
        self._require_prepared()
        cells = self.cells
        ncell = len(cells)
        if ncell <= 1:
            return [np.zeros((c.n_points, 3)) for c in cells]
        counts = [c.n_points for c in cells]
        offsets = np.concatenate([[0], np.cumsum(counts)])
        allpts = np.concatenate([c.points for c in cells])
        # (ntot, ncell) near classification in one pass.
        d = np.linalg.norm(allpts[:, None, :] - self._centers[None, :, :],
                           axis=2)
        near = d < self._near_cutoffs()[None, :]
        b = [np.zeros((n, 3)) for n in counts]

        shards = self._source_shards()
        if shards is not None:
            # Workers rebuild their shard's trees locally; the parent
            # ships the near columns it already classified.
            tasks = [shardwork.TreecodeShard(
                         sources=[self._payload(j) for j in shard],
                         allpts=allpts,
                         own=[(int(offsets[j]), int(offsets[j + 1]))
                              for j in shard],
                         near=[near[:, j].copy() for j in shard],
                         mac=self.mac,
                         equiv_points_per_edge=self.equiv_points_per_edge,
                         max_leaf=self.max_leaf)
                     for shard in shards]
            vals_per_source = _regroup(
                ncell, shards, self.executor.map(shardwork.RUN_SHARD, tasks))
        else:
            keeps = [shardwork.keep_mask(allpts.shape[0], (offsets[j],
                                                           offsets[j + 1]))
                     for j in range(ncell)]   # skip self targets
            vals_per_source = self._masked_velocities(
                [allpts[keep] for keep in keeps],
                [near[keep, j] for j, keep in enumerate(keeps)])
        for j, vals in enumerate(vals_per_source):
            at = 0
            for i in range(ncell):
                if i == j:
                    continue
                b[i] += vals[at:at + counts[i]]
                at += counts[i]
        return b


@register_backend
class FMMBackend(NearZoneMixin, InteractionBackend):
    """One global kernel-independent FMM over *all* cells' sources.

    Where :class:`TreecodeBackend` builds a tree per source cell (O(ncell)
    tree sweeps per target batch), this backend stacks every cell's fine
    quadrature sources into a single :class:`repro.fmm.GlobalKIFMM` per
    step: one upward + downward pass, then each target batch costs one
    O(N) evaluation regardless of cell count — the crossover is around a
    dozen cells (see ``examples/quickstart.py`` for the full table).

    A global tree mixes every cell's contribution, so two corrections
    restore the pairwise semantics:

    - **Self term**: cell ``i``'s own sources are subtracted through the
      *exact float64 smooth* sum at ``i``'s points. The FMM computed those
      same sources through exact float64 P2P (adjacent boxes) plus
      far-field translations, so the difference is far-field FMM error
      only — the catastrophic cancellation that ruled out a global tree
      for a naive smooth-minus-smooth scheme does not occur because both
      sides carry identical singular near terms.
    - **Near pairs**: targets inside another cell's near zone (bounding
      sphere prefilter, then the evaluator's exact near scan) get the
      near-scheme delta of
      :func:`~repro.vesicle.near_singular.near_corrections` added (one
      batched call for all sources) — near-scheme value minus the same
      exact smooth sum the FMM's P2P route already delivered.

    ``equiv_points_per_edge`` is the accuracy knob (defaults match the
    treecode: rel error ~1e-4 vs Direct at 5, ~1e-6 at 8); ``max_leaf``
    trades P2P against translation work — the 400 default keeps leaves
    at roughly one cell's near cluster, which measured ~3x faster than
    the treecode's 64..128 regime on dense suspensions (deep trees over
    lattice-packed cells explode the M2L pair count); ``mac`` only
    steers the fallback descent for targets outside the source cube
    (vessel walls).
    """

    name = "fmm"

    def __init__(self, mac: float = 3.0, equiv_points_per_edge: int = 5,
                 max_leaf: int = 400, near_safety: float = 1.5):
        super().__init__()
        self.mac = float(mac)
        self.equiv_points_per_edge = int(equiv_points_per_edge)
        self.max_leaf = int(max_leaf)
        self.near_safety = float(near_safety)
        self._fmm: Optional[GlobalKIFMM] = None
        self._centers: Optional[np.ndarray] = None
        self._radii: Optional[np.ndarray] = None

    def options(self) -> dict:
        return {"mac": self.mac,
                "equiv_points_per_edge": self.equiv_points_per_edge,
                "max_leaf": self.max_leaf,
                "near_safety": self.near_safety}

    @property
    def stats(self) -> dict:
        """Interaction counters of the current step's tree (see
        :attr:`repro.fmm.GlobalKIFMM.stats`)."""
        return {} if self._fmm is None else dict(self._fmm.stats)

    def prepare(self, forces: Sequence[np.ndarray]) -> None:
        super().prepare(forces)
        self._bounding_spheres()
        # Upsample every cell once (independent tasks), then build the
        # one global tree; its per-box stages fan out over the same
        # executor internally.
        dens = self.executor.map(self._source, range(len(self.cells)))
        src = np.concatenate(
            [ev._fine.points for ev in self.evaluators])
        den = np.concatenate([d.fine_weighted.reshape(-1, 3) for d in dens])
        self._fmm = GlobalKIFMM(
            src, den, "stokes_slp", self.viscosity,
            max_leaf=self.max_leaf,
            equiv_points_per_edge=self.equiv_points_per_edge,
            mac=self.mac, farfield_dtype=self.farfield_dtype,
            executor=self.executor)

    def cell_cell(self) -> List[np.ndarray]:
        """Global-tree specialization: one FMM evaluation at the stacked
        points, then per-source self subtraction and near corrections
        (one batched near call, folded in fixed source order)."""
        self._require_prepared()
        cells = self.cells
        ncell = len(cells)
        counts = [c.n_points for c in cells]
        if ncell <= 1:
            return [np.zeros((n, 3)) for n in counts]
        offsets = np.concatenate([[0], np.cumsum(counts)])
        allpts = np.concatenate([c.points for c in cells])
        u = self._fmm.evaluate(allpts)
        d = np.linalg.norm(allpts[:, None, :] - self._centers[None, :, :],
                           axis=2)
        near = d < self._near_cutoffs()[None, :]

        own_points, cand_idx = [], []
        for j in range(ncell):
            own = slice(offsets[j], offsets[j + 1])
            cand = near[:, j].copy()
            cand[own] = False      # self handled by the subtraction
            own_points.append(allpts[own])
            cand_idx.append(np.nonzero(cand)[0])
        shards = self._source_shards()
        if shards is not None:
            # The global tree evaluation above stays in the parent; the
            # per-source corrections ship out with parent-selected
            # candidate targets (other cells' near-zone points).
            tasks = [shardwork.FMMShard(
                         sources=[self._payload(j) for j in shard],
                         own_points=[own_points[j] for j in shard],
                         cand_idx=[cand_idx[j] for j in shard],
                         cand_points=[allpts[cand_idx[j]] for j in shard])
                     for shard in shards]
            corrections = _regroup(
                ncell, shards, self.executor.map(shardwork.RUN_SHARD, tasks))
        else:
            corrections = shardwork.fmm_corrections(
                self.evaluators, self._sources(), own_points, cand_idx,
                [allpts[c] for c in cand_idx], self.executor.map)
        for j, (self_u, gidx, delta) in enumerate(corrections):
            u[offsets[j]:offsets[j + 1]] -= self_u
            u[gidx] += delta
        return [u[offsets[i]:offsets[i + 1]].copy() for i in range(ncell)]

    def evaluate_at(self, targets: np.ndarray) -> np.ndarray:
        """One FMM evaluation plus near corrections (no self terms:
        external targets belong to no cell)."""
        self._require_prepared()
        targets = np.atleast_2d(np.asarray(targets, float))
        u = self._fmm.evaluate(targets)
        cands = [np.nonzero(self._near_mask(j, targets))[0]
                 for j in range(len(self.cells))]
        deltas = near_corrections(self.evaluators, self._sources(),
                                  [targets[c] for c in cands],
                                  self.executor.map)
        for cand, (idx, delta) in zip(cands, deltas):
            u[cand[idx]] += delta
        return u
