"""Worker-side shard execution for the ``"process"`` executor.

The interaction backends cut their per-source ``cell_cell`` fan-out into
Morton shards (see ``InteractionBackend._source_shards``) and map
:data:`RUN_SHARD` — a module-level :class:`ProcessTask` — over the shard
payloads defined here. The serialization story is deliberately minimal:

- Only coefficients, positions, and densities cross the process
  boundary (:class:`CellPayload`). The expensive per-order machinery —
  circulant mode symbols, Legendre/rotation/quadrature tables, the
  near-evaluator's rotation rule — is *geometry independent*, so each
  worker rebuilds it locally through the same module lru caches the
  parent uses; it is never pickled and persists inside the worker across
  tasks and steps.
- The parent's spherical-harmonic coefficients are shipped and *seeded*
  into the rebuilt surface, never recomputed: the stacked forward SHT of
  :class:`repro.core.cellbatch.CellBatch` agrees with the per-cell
  transform only to roundoff, and the contract is bit-identity, not
  numeric closeness.
- Each shard's result list is ordered by its own source order; the
  backend regroups results by global source index and folds them in
  ascending source order, exactly like the serial loop — so process ==
  thread == serial bit-identical.

Every shard type runs the same function as its backend's inline path
(:func:`~repro.vesicle.near_singular.evaluate_sources`,
:func:`masked_velocities`, :func:`fmm_corrections`) over the shard's own
sources — same target stacking, same masks, same kernel calls, and one
batched near call per shard instead of one per step. A near value does
not depend on which other sources share its batch, which is what makes
process == serial hold bit for bit, and the ``"checked"`` executor's inline
rerun of a shard a meaningful cross-process bit-identity check.
"""
from __future__ import annotations

import dataclasses
from typing import Callable, ClassVar, List, Sequence, Tuple

import numpy as np

from ..fmm import KernelIndependentTreecode
from ..runtime.executor import ProcessTask, worker_timers
from ..surfaces import SpectralSurface
from ..vesicle import CellNearEvaluator
from ..vesicle.near_singular import (SourceDensity, _serial_map,
                                     evaluate_sources, near_corrections)

_FLOAT_BYTES = 8


@dataclasses.dataclass
class CellPayload:
    """Everything a worker needs to rebuild one source cell.

    Grid positions, the parent's SH coefficients and the step's
    transformed force density — a few arrays per cell. The coefficients
    are seeded (not recomputed) in the worker; the density (its SH
    coefficients and quadrature-weighted fine density) is shipped as the
    parent computed it, because the parent needed it anyway, recomputing
    it is the single most expensive per-cell prepare step, and a shipped
    array is bitwise the parent's.
    """

    index: int                  # global source-cell index
    X: np.ndarray               # (nlat, nphi, 3) grid positions
    coeffs: np.ndarray          # (3, p+1, 2p+1) parent-side SH coeffs
    source: SourceDensity       # the step's transformed force density
    viscosity: float
    farfield_dtype: str
    aliasing_factor: int


def payload_for(index: int, evaluator: CellNearEvaluator,
                source: SourceDensity) -> CellPayload:
    """Snapshot one bound cell into a shippable :class:`CellPayload`."""
    surface = evaluator.surface
    return CellPayload(index=int(index), X=surface.X,
                       coeffs=np.asarray(surface.coeffs()),
                       source=source,
                       viscosity=evaluator.viscosity,
                       farfield_dtype=evaluator.farfield_dtype,
                       aliasing_factor=surface.aliasing_factor)


def rebuild_evaluator(payload: CellPayload) -> CellNearEvaluator:
    """Worker-side rebuild of a cell's near evaluator from its payload.

    Same idiom as checkpoint restore: construct the surface from the
    grid positions, seed the parent's coefficients *before* anything
    consumes them (the evaluator's constructor runs ``refresh``, which
    upsamples through the coefficients), then build the evaluator with
    the parent's options. All per-order tables repopulate this process's
    own caches on first use.
    """
    surface = SpectralSurface(payload.X, payload.X.shape[0] - 1,
                              payload.aliasing_factor)
    surface.seed_coeffs(payload.coeffs)
    return CellNearEvaluator(surface, viscosity=payload.viscosity,
                             farfield_dtype=payload.farfield_dtype)


def keep_mask(n_total: int, own: Tuple[int, int]) -> np.ndarray:
    """All of a stacked target cloud but one source's own block."""
    keep = np.ones(n_total, dtype=bool)
    keep[own[0]:own[1]] = False
    return keep


def masked_velocities(evaluators: Sequence[CellNearEvaluator],
                      sources: Sequence[SourceDensity],
                      trees: Sequence[KernelIndependentTreecode],
                      targets: Sequence[np.ndarray],
                      masks: Sequence[np.ndarray],
                      mapper: Callable = _serial_map) -> List[np.ndarray]:
    """:class:`TreecodeBackend`'s per-source velocities: the masked
    (possibly near) targets of every source through the near-aware
    evaluators in one batched call, the rest through each source's tree
    (per-source tasks through ``mapper``)."""
    near = evaluate_sources(evaluators, sources,
                            [t[m] for t, m in zip(targets, masks)], mapper)

    def tree(k: int) -> np.ndarray:
        rest = ~masks[k]
        return (trees[k].evaluate(targets[k][rest]) if rest.any()
                else np.zeros((0, 3)))

    out = []
    for t, m, nv, tv in zip(targets, masks, near,
                            mapper(tree, range(len(trees)))):
        vals = np.empty((t.shape[0], 3))
        vals[m] = nv
        vals[~m] = tv
        out.append(vals)
    return out


def fmm_corrections(evaluators: Sequence[CellNearEvaluator],
                    sources: Sequence[SourceDensity],
                    own_points: Sequence[np.ndarray],
                    cand_idx: Sequence[np.ndarray],
                    cand_points: Sequence[np.ndarray],
                    mapper: Callable = _serial_map) -> List[tuple]:
    """:class:`FMMBackend`'s per-source corrections ``(self_u, global
    indices, deltas)``: the exact float64 self sum at the source's own
    points (per-source tasks through ``mapper``) and the near-scheme
    deltas at its candidate targets (one batched call)."""
    self_u = mapper(lambda k: evaluators[k]._smooth(sources[k], own_points[k]),
                    range(len(evaluators)))
    deltas = near_corrections(evaluators, sources, cand_points, mapper)
    return [(su, cidx[idx], delta)
            for su, cidx, (idx, delta) in zip(self_u, cand_idx, deltas)]


@dataclasses.dataclass
class DirectShard:
    """One Morton shard of :class:`DirectBackend`'s per-source fan-out.

    ``allpts`` is the full stacked target cloud; each source's own block
    (``own`` = its ``(start, stop)`` in ``allpts``) is excluded from its
    targets, mirroring the serial task's "all other cells" stacking
    bit-for-bit. The non-owned part of ``allpts`` is the shard's
    far-field ghost region (:attr:`ghost_nbytes` prices it).
    """

    phase: ClassVar[str] = "Other-FMM"

    sources: List[CellPayload]
    allpts: np.ndarray
    own: List[Tuple[int, int]]

    @property
    def ghost_nbytes(self) -> int:
        owned = sum(hi - lo for lo, hi in self.own)
        return (self.allpts.shape[0] - owned) * 3 * _FLOAT_BYTES

    def run(self) -> List[np.ndarray]:
        return evaluate_sources(
            [rebuild_evaluator(payload) for payload in self.sources],
            [payload.source for payload in self.sources],
            [self.allpts[keep_mask(self.allpts.shape[0], own)]
             for own in self.own])


@dataclasses.dataclass
class TreecodeShard:
    """One Morton shard of :class:`TreecodeBackend`'s per-source fan-out.

    The near classification (one global distance sweep) stays in the
    parent — each source ships its boolean near column over ``allpts`` —
    while the per-source treecode is built inside the worker from the
    rebuilt fine sources, so no tree ever crosses the process boundary.
    """

    phase: ClassVar[str] = "Other-FMM"

    sources: List[CellPayload]
    allpts: np.ndarray
    own: List[Tuple[int, int]]
    near: List[np.ndarray]      # per-source bool near column over allpts
    mac: float
    equiv_points_per_edge: int
    max_leaf: int

    @property
    def ghost_nbytes(self) -> int:
        owned = sum(hi - lo for lo, hi in self.own)
        return (self.allpts.shape[0] - owned) * 3 * _FLOAT_BYTES

    def run(self) -> List[np.ndarray]:
        evaluators = [rebuild_evaluator(payload) for payload in self.sources]
        trees = [KernelIndependentTreecode(
                     ev._fine.points,
                     payload.source.fine_weighted.reshape(-1, 3),
                     "stokes_slp", payload.viscosity,
                     max_leaf=self.max_leaf,
                     equiv_points_per_edge=self.equiv_points_per_edge,
                     mac=self.mac, farfield_dtype=payload.farfield_dtype)
                 for ev, payload in zip(evaluators, self.sources)]
        keeps = [keep_mask(self.allpts.shape[0], own) for own in self.own]
        return masked_velocities(
            evaluators, [payload.source for payload in self.sources], trees,
            [self.allpts[keep] for keep in keeps],
            [near_col[keep] for near_col, keep in zip(self.near, keeps)])


@dataclasses.dataclass
class FMMShard:
    """One Morton shard of :class:`FMMBackend`'s correction fan-out.

    The single global tree evaluation stays in the parent; the shard
    computes each source's exact float64 self subtraction (over its own
    block's points) and its near-scheme deltas (over the parent-selected
    candidate targets), returning ``(self_u, global indices, deltas)``
    per source just like the inline task.
    """

    phase: ClassVar[str] = "Other-FMM"

    sources: List[CellPayload]
    own_points: List[np.ndarray]    # per-source own-block target points
    cand_idx: List[np.ndarray]      # per-source global candidate indices
    cand_points: List[np.ndarray]   # per-source candidate target points

    @property
    def ghost_nbytes(self) -> int:
        # The candidate targets are other cells' points — the only
        # non-owned geometry this shard receives.
        return sum(pts.shape[0] for pts in self.cand_points) * 3 * _FLOAT_BYTES

    def run(self) -> List[tuple]:
        return fmm_corrections(
            [rebuild_evaluator(payload) for payload in self.sources],
            [payload.source for payload in self.sources],
            self.own_points, self.cand_idx, self.cand_points)


class _RunShard(ProcessTask):
    """The one process-safe entry point every shard map uses: executes a
    shard under a worker-side timer scope named by the shard's stage
    category (the deltas travel back with the results and fold into the
    parent's accumulators)."""

    def __call__(self, shard):
        with worker_timers().scope(shard.phase):
            return shard.run()


#: Module-level task instance — picklable by reference, as the
#: ``picklable-task`` lint pass requires.
RUN_SHARD = _RunShard()
