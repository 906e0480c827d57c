"""The benchmark's workloads, generated from a seed.

Each workload turns ``--seed`` into cells and configs and hands only
those to the program's public API (``Simulation``, ``Scenario``,
``SceneJob``/``SweepRunner``). ``tiny=True`` shrinks every workload to
a seconds-long version of itself for the benchmark's self-test.
"""
from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np

#: the lattice pitch of the reference scenes: equatorial radius 1.0, so
#: neighbours sit in each other's near zone with a 0.4 gap.
SPACING = 2.4
#: amplitude of the seeded centre jitter, normal to the lattice sheets.
#: In-plane jitter of this size moves rim points in and out of the
#: neighbours' near zones and changes the cell-cell self time 20x from
#: seed to seed; normal to the sheets it changes the rim gaps by ~1%.
JITTER = 0.05
#: smallest point-to-point gap between two cells allowed at t = 0.
MIN_GAP = 0.1


@dataclasses.dataclass(frozen=True)
class SceneWorkload:
    name: str
    why: str
    build: Callable[[int, bool], object]
    #: steady steps after the first in the trajectory window: drift and
    #: the position digest are taken at its end, so they do not depend
    #: on how many steps fit into the measured seconds.
    window: int
    kind: str = "scene"


@dataclasses.dataclass(frozen=True)
class SweepWorkload:
    name: str
    why: str
    jobs: Callable[[int, bool], list]
    workers: int = 2
    checkpoint_interval: int = 2
    kind: str = "sweep"


def _lattice_physics(backend: str, bending: float = 0.01):
    from repro.config import ReproConfig
    from repro.physics.terms import Bending, Gravity, Tension
    return ReproConfig(dt=0.05, viscosity=1.0,
                       forces=[Bending(bending), Tension(),
                               Gravity(0.5, (0.0, 0.0, -1.0))],
                       backend=backend, with_collisions=True)


def _min_gap(cells) -> float:
    pts = [c.points for c in cells]
    cen = np.array([p.mean(axis=0) for p in pts])
    gap = np.inf
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if np.linalg.norm(cen[i] - cen[j]) > 2 * SPACING:
                continue
            d = pts[i][:, None, :] - pts[j][None, :, :]
            gap = min(gap, float(np.sqrt((d * d).sum(axis=2).min())))
    return gap


def lattice_cells(seed: int, order: int, centres: np.ndarray):
    """Biconcave RBCs at ``centres`` plus a seeded jitter of their
    heights, checked contact-free at t = 0."""
    from repro.surfaces import biconcave_rbc
    rng = np.random.default_rng(seed)
    centres = centres.copy()
    centres[:, 2] += rng.uniform(-JITTER, JITTER, len(centres))
    cells = [biconcave_rbc(1.0, center=tuple(c), order=order)
             for c in centres]
    gap = _min_gap(cells)
    if gap < MIN_GAP:
        raise ValueError(f"seed {seed}: cells {gap:.3f} apart at t = 0")
    return cells


def reference_centres(ncells: int) -> np.ndarray:
    """The 6-cell reference scene's layout (benchmarks/bench_step_
    breakdown.py): a 3 x 2 sheet with alternating 0.15 lifts."""
    return np.array([(SPACING * (k // 2), SPACING * (k % 2),
                      0.15 * (-1.0) ** k) for k in range(ncells)])


def cube_centres(nx: int, ny: int, nz: int) -> np.ndarray:
    n = nx * ny * nz
    return np.array([(SPACING * (k % nx), SPACING * ((k // nx) % ny),
                      SPACING * (k // (nx * ny)) + 0.15 * (-1.0) ** k)
                     for k in range(n)])


def build_cells6(seed: int, tiny: bool):
    from repro.core.simulation import Simulation
    order, n = (4, 2) if tiny else (8, 6)
    cells = lattice_cells(seed, order, reference_centres(n))
    return Simulation(cells, config=_lattice_physics("direct"))


def build_lattice(seed: int, tiny: bool):
    from repro.core.simulation import Simulation
    order, shape = (4, (2, 2, 2)) if tiny else (6, (4, 4, 2))
    cells = lattice_cells(seed, order, cube_centres(*shape))
    return Simulation(cells, config=_lattice_physics("fmm"))


#: the vessel scene of examples/vessel_flow.py.
VESSEL_LENGTH, VESSEL_RADIUS, FILL_SPACING = 8.0, 1.6, 1.5


def _vessel_sd(pts: np.ndarray) -> np.ndarray:
    half = VESSEL_LENGTH / 2 - VESSEL_RADIUS
    z = np.clip(pts[:, 2], -half, half)
    ax = np.column_stack([np.zeros(len(pts)), np.zeros(len(pts)), z])
    return np.linalg.norm(pts - ax, axis=1) - VESSEL_RADIUS


def _vessel_bounds():
    r, h = VESSEL_RADIUS, VESSEL_LENGTH / 2
    return np.array([-r, -r, -h]), np.array([r, r, h])


#: the fill seed of examples/vessel_flow.py: 6 cells that run clean.
EXAMPLE_FILL_SEED = 1
#: cells of that fill the workload keeps (the BIE evaluation at the
#: cell points costs ~1 s per cell and step).
VESSEL_CELLS = 3


#: largest seeded turn of the vessel scene about the tube axis, radians.
VESSEL_TURN = 0.005


def build_vessel(seed: int, tiny: bool):
    """The scene of examples/vessel_flow.py — its tube, boundary data and
    fill, of which the first VESSEL_CELLS cells are kept — turned about
    the tube axis by a small seeded angle.

    The turn keeps every distance between cells and to the axially
    symmetric wall, so the contact state and the work per step stay
    put; what moves is the scene against the wall's patches. Other
    seeded inputs were tried and change too much from seed to seed: a
    free turn of each sphere about its own centre changes the work per
    step by up to 30% (points enter and leave the wall's near zone), a
    free turn about the axis changes the volume drift by 2x, and the
    fill's own seed changes the cell count from 2 to 9 and the first
    step from 8 s to 80 s. A fill without jitter fails its first step
    (contact projection unresolved at the wall)."""
    from repro import Scenario, presets
    from repro.config import NumericsOptions
    from repro.patches import capsule_tube
    from repro.vessel import capsule_inlet_outlet_bc, fill_with_rbcs
    rng = np.random.default_rng(seed)
    opts = NumericsOptions(patch_quad=7, check_order=4, upsample_eta=1,
                           check_r_factor=0.25, gmres_max_iter=20)
    vessel = capsule_tube(length=VESSEL_LENGTH, radius=VESSEL_RADIUS,
                          refine=0, options=opts)
    bc = capsule_inlet_outlet_bc(vessel, axis=2, flux=3.0)
    fill = fill_with_rbcs(_vessel_sd, _vessel_bounds(), spacing=FILL_SPACING,
                          lumen_volume=vessel.volume(),
                          order=4 if tiny else 5, shape="sphere",
                          seed=EXAMPLE_FILL_SEED)
    phi = rng.uniform(-VESSEL_TURN, VESSEL_TURN)
    turn = np.array([[np.cos(phi), -np.sin(phi), 0.0],
                     [np.sin(phi), np.cos(phi), 0.0],
                     [0.0, 0.0, 1.0]])
    cells = []
    for c in fill.cells[:2 if tiny else VESSEL_CELLS]:
        centre = c.centroid()
        cells.append(c.rotated(turn).translated(turn @ centre - centre))
    cfg = dataclasses.replace(presets.vessel_flow(dt=0.05), numerics=opts)
    return (Scenario.builder()
            .config(cfg)
            .vessel(vessel, bc=bc)
            .cells(cells)
            .build())


SWEEP_ORDERS = (6, 8, 10, 12)


def sweep_jobs(seed: int, tiny: bool) -> list:
    """Independent 2-cell scenes, orders cycling through SWEEP_ORDERS,
    bending moduli drawn from the seed."""
    from repro.sweep import SceneJob
    from repro.surfaces import biconcave_rbc
    rng = np.random.default_rng(seed)
    orders, n_jobs, n_steps = (((4, 5), 2, 1) if tiny
                               else (SWEEP_ORDERS, 12, 4))
    jobs = []
    for k in range(n_jobs):
        order = orders[k % len(orders)]
        kappa = float(rng.uniform(0.0095, 0.0105))
        cells = [biconcave_rbc(1.0, center=tuple(c), order=order)
                 for c in reference_centres(2)]
        jobs.append(SceneJob.from_cells(
            f"job{k:02d}_p{order}", _lattice_physics("direct", kappa),
            cells, n_steps=n_steps))
    return jobs


WORKLOADS = {w.name: w for w in (
    SceneWorkload(
        "cells6_o8",
        "reference scene: 6 RBCs at order 8, direct backend; per-cell "
        "self-op, LU, implicit and Schur layers do the work",
        build_cells6, window=6),
    SceneWorkload(
        "lattice32_o6_fmm",
        "32 RBCs at order 6 on a 4x4x2 lattice, fmm backend; the "
        "cell-cell interaction layer and FMM passes do the work",
        build_lattice, window=3),
    SceneWorkload(
        "vessel_o5",
        "examples/vessel_flow.py tube and fill, 3 of its order-5 cells; "
        "the only workload that runs the BIE solve and wall contacts",
        build_vessel, window=2),
    SweepWorkload(
        "sweep_mixed_x2",
        "12 two-cell jobs of orders 6-12 on the 2-worker process pool; "
        "dispatch, checkpoint writes and per-order caches",
        sweep_jobs),
)}

