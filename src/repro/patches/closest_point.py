"""Closest-point search on patch surfaces (paper Sec. 3.3, step d).

Given targets ``x``, minimize ``|x - P_i(u, v)|`` over ``(u, v) in
[-1,1]^2`` with Newton's method plus backtracking line search, seeded from
the nearest sample of an ``n x n`` equispaced parameter grid. Each target
is refined on the few patches whose coarse quadrature nodes lie nearest to
it (or on a caller-given candidate list), and the best of those wins.

All (target, candidate patch) pairs run through one Newton loop at once,
grouped by patch: the nodal derivatives are differentiated once per
patch, and each interpolation of the active pairs is one
``interp_matrix_2d`` call plus one small GEMM per patch. A Newton
iteration makes three such calls (derivatives, full step, remaining
halvings), however many targets there are.
"""
from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

import numpy as np

from ..quadrature.interpolation import interp_matrix_2d
from .patch import ChebPatch, cheb_diff_matrix
from .surface import PatchSurface

#: Distance-matrix entries per block of the coarse-node and seed scans.
_DIST_BUDGET = 1 << 19
#: Candidates within this relative distance of the best count as tied;
#: the lowest patch index among them owns the target.
_TIE_RTOL = 1e-12
#: Line-search step sizes after the full Newton step: 2**-1 ... 2**-24.
_HALVINGS = 0.5 ** np.arange(1, 25)
#: Rows per ``interp_matrix_2d`` block, bounding its memory.
_INTERP_ROWS = 1 << 14


@dataclasses.dataclass
class ClosestPointResult:
    """Result of a closest-point query against one surface."""

    patch_index: int
    uv: np.ndarray
    point: np.ndarray
    distance: float
    normal: np.ndarray
    #: patch size L of the owning patch (sets the check-point scale).
    patch_size: float


@dataclasses.dataclass
class ClosestPoints:
    """Closest points of a batch of targets: the fields of
    :class:`ClosestPointResult` with a leading target axis."""

    patch_index: np.ndarray  # (m,) int
    uv: np.ndarray           # (m, 2)
    point: np.ndarray        # (m, 3)
    distance: np.ndarray     # (m,)
    normal: np.ndarray       # (m, 3)
    patch_size: np.ndarray   # (m,)

    def __len__(self) -> int:
        return self.distance.shape[0]

    def __getitem__(self, i: int) -> ClosestPointResult:
        return ClosestPointResult(patch_index=int(self.patch_index[i]),
                                  uv=self.uv[i], point=self.point[i],
                                  distance=float(self.distance[i]),
                                  normal=self.normal[i],
                                  patch_size=float(self.patch_size[i]))


def _jet_tables(patches: Sequence[ChebPatch], n: int) -> np.ndarray:
    """Nodal values and first/second derivatives of each patch, shape
    (P, n*n, 18): columns X, Xu, Xv, Xuu, Xuv, Xvv (3 each)."""
    D = cheb_diff_matrix(n)
    V = np.stack([p.values for p in patches])
    du = lambda A: np.einsum("ij,pjkl->pikl", D, A)
    dv = lambda A: np.einsum("ij,pkjl->pkil", D, A)
    Vu, Vv = du(V), dv(V)
    jet = np.concatenate([V, Vu, Vv, du(Vu), dv(Vu), dv(Vv)], axis=-1)
    return jet.reshape(len(patches), n * n, 18)


def _interpolate(n: int, tables: np.ndarray, which: np.ndarray,
                 uv: np.ndarray, ncols: int) -> np.ndarray:
    """First ``ncols`` table columns of patch ``which[k]`` at ``uv[k]``.

    ``which`` must be sorted, so each patch's rows form one GEMM block.
    """
    out = np.empty((uv.shape[0], ncols))
    for r0 in range(0, uv.shape[0], _INTERP_ROWS):
        r1 = min(r0 + _INTERP_ROWS, uv.shape[0])
        M = interp_matrix_2d(n, uv[r0:r1])
        w = which[r0:r1]
        cuts = np.flatnonzero(np.diff(w)) + 1
        for a, b in zip(np.r_[0, cuts], np.r_[cuts, w.size]):
            out[r0 + a:r0 + b] = M[a:b] @ tables[w[a], :, :ncols]
    return out


def _objective(n, tables, which, uv, x) -> np.ndarray:
    r = _interpolate(n, tables, which, uv, 3) - x
    return 0.5 * np.sum(r * r, axis=1)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("nk,nk->n", a, b)


def _seeds(n: int, tables: np.ndarray, which: np.ndarray, x: np.ndarray
           ) -> tuple[np.ndarray, np.ndarray]:
    """Nearest sample of the ``linspace(-1, 1, n)`` parameter grid for each
    pair; returns (uv, half squared distance)."""
    t = np.linspace(-1.0, 1.0, n)
    U, V = np.meshgrid(t, t, indexing="ij")
    uv_s = np.column_stack([U.ravel(), V.ravel()])
    samples = interp_matrix_2d(n, uv_s) @ tables[:, :, :3]   # (P, n*n, 3)
    i0 = np.empty(x.shape[0], dtype=int)
    d2min = np.empty(x.shape[0])
    chunk = max(1, _DIST_BUDGET // (n * n))
    for a in range(0, x.shape[0], chunk):
        diff = samples[which[a:a + chunk]] - x[a:a + chunk, None, :]
        d2 = np.einsum("msk,msk->ms", diff, diff)
        best = np.argmin(d2, axis=1)
        i0[a:a + chunk] = best
        d2min[a:a + chunk] = d2[np.arange(best.size), best]
    return uv_s[i0], 0.5 * d2min


def _newton_steps(H: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Newton steps ``H^-1 g``; the gradient ``g`` stands in wherever H is
    singular or the Newton step is not a descent direction."""
    try:
        step = np.linalg.solve(H, g[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        step = np.empty_like(g)
        for k in range(g.shape[0]):
            try:
                step[k] = np.linalg.solve(H[k], g[k])
            except np.linalg.LinAlgError:
                step[k] = g[k]
    uphill = _dot(step, g) <= 0
    step[uphill] = g[uphill]
    return step


def _newton(n: int, tables: np.ndarray, which: np.ndarray, x: np.ndarray,
            uv: np.ndarray, f0: np.ndarray, iters: int, tol: float) -> None:
    """Newton + backtracking on ``0.5 |x - P(u,v)|^2`` for every pair,
    updating ``uv`` and ``f0`` in place.

    The parameters are clamped to [-1, 1]^2 (the minimum may be on the
    patch edge; the neighboring patch then yields the true closest point,
    which the surface-level search accounts for by examining several
    candidate patches). A pair stops when none of its 25 line-search steps
    lowers the objective or its accepted step drops below ``tol``.
    """
    active = np.ones(x.shape[0], dtype=bool)
    for _ in range(iters):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        X, Xu, Xv, Xuu, Xuv, Xvv = np.moveaxis(_interpolate(
            n, tables, which[idx], uv[idx], 18).reshape(-1, 6, 3), 1, 0)
        r = X - x[idx]
        g = np.column_stack([_dot(r, Xu), _dot(r, Xv)])
        H12 = _dot(Xu, Xv) + _dot(r, Xuv)
        H = np.stack([
            np.column_stack([_dot(Xu, Xu) + _dot(r, Xuu), H12]),
            np.column_stack([H12, _dot(Xv, Xv) + _dot(r, Xvv)]),
        ], axis=1)
        step = _newton_steps(H, g)
        t = _backtrack(n, tables, which, x, uv, f0, idx, step)
        small = np.linalg.norm(t[:, None] * step, axis=1) < tol
        active[idx[(t == 0.0) | small]] = False


def _backtrack(n, tables, which, x, uv, f0, idx, step) -> np.ndarray:
    """Backtracking line search along ``-step`` for pairs ``idx``: the
    largest ``t`` in 1, 1/2, ..., 2**-24 whose clamped point lowers the
    objective by more than 1e-16 is taken (``uv``/``f0`` updated in
    place). Returns the accepted ``t`` per pair, 0 where none improved.

    The full step is tried first for every pair; the remaining 24
    halvings of the pairs it does not improve are probed together, and
    each pair takes its first improving one, exactly as probing them in
    sequence would.
    """
    t = np.zeros(idx.size)
    cand = np.clip(uv[idx] - step, -1.0, 1.0)
    fc = _objective(n, tables, which[idx], cand, x[idx])
    ok = fc < f0[idx] - 1e-16
    uv[idx[ok]] = cand[ok]
    f0[idx[ok]] = fc[ok]
    t[ok] = 1.0
    rem = np.flatnonzero(~ok)
    if rem.size == 0:
        return t
    pr = idx[rem]
    cand = np.clip(uv[pr][:, None, :]
                   - _HALVINGS[None, :, None] * step[rem][:, None, :],
                   -1.0, 1.0)
    k = _HALVINGS.size
    fc = _objective(n, tables, np.repeat(which[pr], k), cand.reshape(-1, 2),
                    np.repeat(x[pr], k, axis=0)).reshape(-1, k)
    good = fc < f0[pr][:, None] - 1e-16
    first = np.argmax(good, axis=1)
    hit = np.flatnonzero(good[np.arange(rem.size), first])
    uv[pr[hit]] = cand[hit, first[hit]]
    f0[pr[hit]] = fc[hit, first[hit]]
    t[rem[hit]] = _HALVINGS[first[hit]]
    return t


def _refine_pairs(patches: Sequence[ChebPatch], pid: np.ndarray,
                  x: np.ndarray, uv0: Optional[np.ndarray] = None,
                  iters: int = 30, tol: float = 1e-12):
    """Closest point of target ``x[k]`` on patch ``patches[pid[k]]`` for
    every pair k. Returns (uv, point, distance, normal)."""
    m = pid.shape[0]
    uv = np.empty((m, 2))
    jet = np.empty((m, 9))
    upid, inv = np.unique(pid, return_inverse=True)
    degree = np.array([patches[p].n for p in upid], dtype=int)
    for n in map(int, np.unique(degree)):
        local = np.flatnonzero(degree == n)
        tables = _jet_tables([patches[p] for p in upid[local]], n)
        which = np.searchsorted(local, inv)
        sel = np.flatnonzero(degree[inv] == n)
        sel = sel[np.argsort(which[sel], kind="stable")]
        which = which[sel]
        xs = x[sel]
        if uv0 is None:
            uvs, f0 = _seeds(n, tables, which, xs)
        else:
            uvs = np.array(uv0[sel], dtype=float)
            f0 = _objective(n, tables, which, uvs, xs)
        _newton(n, tables, which, xs, uvs, f0, iters, tol)
        uv[sel] = uvs
        jet[sel] = _interpolate(n, tables, which, uvs, 9)
    point, Xu, Xv = jet[:, :3], jet[:, 3:6], jet[:, 6:]
    nrm = np.cross(Xu, Xv)
    nrm /= np.linalg.norm(nrm, axis=-1, keepdims=True)
    return uv, point, np.linalg.norm(point - x, axis=1), nrm


def closest_point_on_patch(patch: ChebPatch, x: np.ndarray,
                           uv0: Optional[np.ndarray] = None,
                           iters: int = 30, tol: float = 1e-12
                           ) -> tuple[np.ndarray, np.ndarray, float]:
    """Newton + backtracking minimization of |x - P(u,v)| on one patch.

    One-target wrapper around the batched search; the parameters are
    clamped to [-1, 1]^2. Returns (uv, point, distance).
    """
    x = np.asarray(x, float)[None, :]
    if uv0 is not None:
        uv0 = np.asarray(uv0, float)[None, :]
    uv, p, dist, _ = _refine_pairs([patch], np.zeros(1, dtype=int), x, uv0,
                                   iters, tol)
    return uv[0], p[0], float(dist[0])


def _nearest_patches(surface: PatchSurface, x: np.ndarray,
                     n_candidates: int) -> np.ndarray:
    """The ``n_candidates`` patches of each target ordered by their
    nearest coarse node (ties to the lower patch index), shape (m, k)."""
    d = surface.coarse()
    # Coarse nodes are stored patch by patch.
    starts = np.flatnonzero(np.r_[True, d.patch_of[1:] != d.patch_of[:-1]])
    owners = d.patch_of[starts]
    k = min(n_candidates, starts.size)
    out = np.empty((x.shape[0], k), dtype=int)
    chunk = max(1, _DIST_BUDGET // d.points.shape[0])
    for a in range(0, x.shape[0], chunk):
        diff = d.points[None, :, :] - x[a:a + chunk, None, :]
        d2 = np.einsum("tnk,tnk->tn", diff, diff)
        per_patch = np.minimum.reduceat(d2, starts, axis=1)
        out[a:a + chunk] = owners[
            np.argsort(per_patch, axis=1, kind="stable")[:, :k]]
    return out


def surface_closest_points(surface: PatchSurface, X: np.ndarray,
                           candidates: Optional[Sequence[int]] = None,
                           n_candidates: int = 4) -> ClosestPoints:
    """Closest points on a whole patch surface for a batch of targets
    ``X`` (m, 3).

    ``candidates`` restricts every target's search to the given patch
    indices; otherwise each target refines the ``n_candidates`` patches
    whose coarse nodes are nearest to it. Among candidates within a
    relative ``1e-12`` of the best distance (a target on a shared patch
    edge), the lowest patch index owns the target, so the owner does not
    depend on candidate order or roundoff.
    """
    X = np.atleast_2d(np.asarray(X, float))
    m = X.shape[0]
    if candidates is None:
        cand = _nearest_patches(surface, X, n_candidates)
    else:
        cand = np.asarray(list(candidates), dtype=int)
        if cand.size == 0:
            raise RuntimeError(
                "closest-point query had no candidate patches to refine "
                f"(surface has {len(surface.patches)} patches, candidates="
                f"{candidates!r}) — the caller passed an empty candidate "
                "list")
        cand = np.broadcast_to(cand, (m, cand.size))
    k = cand.shape[1]
    uv, point, dist, nrm = _refine_pairs(surface.patches, cand.ravel(),
                                         np.repeat(X, k, axis=0))
    dist = dist.reshape(m, k)
    best = dist.min(axis=1)
    tied = dist <= best[:, None] * (1.0 + _TIE_RTOL)
    col = np.argmin(np.where(tied, cand, np.iinfo(cand.dtype).max), axis=1)
    rows = np.arange(m)
    pair = rows * k + col
    owner = cand[rows, col]
    return ClosestPoints(patch_index=owner, uv=uv[pair], point=point[pair],
                         distance=dist[rows, col], normal=nrm[pair],
                         patch_size=surface.patch_sizes()[owner])


def surface_closest_point(surface: PatchSurface, x: np.ndarray,
                          candidates: Optional[Sequence[int]] = None,
                          n_candidates: int = 4) -> ClosestPointResult:
    """Closest point on a whole patch surface: the one-target form of
    :func:`surface_closest_points`."""
    return surface_closest_points(surface, np.asarray(x, float)[None, :],
                                  candidates, n_candidates)[0]
