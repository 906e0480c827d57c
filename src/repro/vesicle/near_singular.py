"""Near-singular evaluation of a cell's single-layer potential.

For targets close to (but not on) an RBC surface, the smooth quadrature of
the single layer loses accuracy. Following the paper (Sec. 2.2, citing
[28, 43] and the check-point idea of [58]): compute the velocity *on* the
surface at the closest point with the singular rotation quadrature, compute
it at check points placed along the outward normal with upsampled smooth
quadrature, and interpolate between them to the target distance.

Each source cell finds its own near targets (a bounding-sphere prefilter,
then one chunked min-distance sweep whose argmin seeds the closest-point
search). Everything after that runs in :func:`near_values` over the
(source cell, near target) pairs of *all* sources at once, so its cost
follows the number of near targets, not of source cells: one
closest-point Newton solve over every pair, one chunked pass of the
rotation quadrature over every pair's rotated nodes, and per source one
smooth check-point sum and one interpolation. The spherical-harmonic
synthesis is real (``cos(m phi)``, ``sin(m phi)`` against
:func:`real_coeffs`) and builds its ALP tables once per call for all
points. A source's force density is transformed once per step
(:meth:`CellNearEvaluator.source_density`): the one forward SHT feeds both
the upsampled smooth quadrature and the rotation quadrature.

A pair's on-surface value and closest point are bitwise independent of
the other pairs in the call: the tables are elementwise in the points,
the Newton synthesis sums over the coefficients in a fixed order per
point, and the rotation quadrature contracts each pair's rotated nodes
with one GEMM of the same shape in any batch. The check-point sums are
one smooth quadrature per source, so a pair's value depends only on the
targets of its own source. Callers may therefore batch sources any way
(the process executor batches per Morton shard, the serial path per
step) without changing a bit of the trajectory.
"""
from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..analysis.guard import PER_ORDER_CACHE_SIZE, freeze, locked_cache
from ..kernels import stokes_slp_apply
from ..quadrature import gauss_legendre
from ..quadrature.interpolation import barycentric_matrix, barycentric_weights
from ..sph.alp import (normalized_alp, normalized_alp_theta_derivative,
                       normalized_alp_theta_derivative2)
from ..sph.rotation import rotated_sphere_points_batch
from ..surfaces import SpectralSurface
from .self_interaction import _coeff_index, pack_coeffs

_POLE_GUARD = 1e-7
#: chunk sizes bounding transient ALP-table memory in the batched paths.
_DIST_CHUNK = 512
_SYNTH_POINT_BUDGET = 4096
#: closest-point Newton: iteration cap, and backtracking probes per
#: iteration (the full step, then halvings 1/2 ... 1/2**19).
_NEWTON_ITERS = 12
_LINE_SEARCH_PROBES = 20
_TWO_PI = 2.0 * np.pi


def real_coeffs(packed: np.ndarray) -> np.ndarray:
    """Real synthesis coefficients of packed complex SH coefficients.

    ``packed`` is ``(ncoef, k)`` in the ``(l, m)`` order of
    :func:`~repro.vesicle.self_interaction.pack_coeffs`. The result
    pairs with the real basis of :func:`_basis`
    (``Pbar_l^|m| cos(m phi)`` at ``m >= 0``, ``Pbar_l^|m| sin(|m| phi)``
    at ``m < 0``): folding the ``+m`` and ``-m`` terms of each
    ``(l, |m|)`` makes the real synthesis equal to the real part of the
    complex series, whether or not the coefficients are conjugate
    symmetric.
    """
    packed = np.asarray(packed)
    p = int(round(np.sqrt(packed.shape[0]))) - 1
    ls, ms = _coeff_index(p)
    mirror = ls * ls + ls - ms          # packed index of (l, -m)
    s = ((-1.0) ** np.abs(ms))[:, None]
    re, im = packed.real, packed.imag
    out = np.where((ms > 0)[:, None], re + s * re[mirror],
                   s * im - im[mirror])
    out[ms == 0] = re[ms == 0]
    return np.ascontiguousarray(out)


def _basis(p: int, theta: np.ndarray, phi: np.ndarray,
           nderiv: int) -> np.ndarray:
    """Real synthesis basis at sphere points, stacked ``(nb, ncoef, n)``.

    Values, then (``nderiv >= 1``) d/dtheta and d/dphi, then
    (``nderiv == 2``) d2/dtheta2, d2/dtheta dphi and d2/dphi2. The ALP
    tables are built once for all points, and every entry depends on
    its own point only.
    """
    ls, ms = _coeff_index(p)
    am = np.abs(ms)
    theta = np.clip(theta, _POLE_GUARD, np.pi - _POLE_GUARD)
    x = np.cos(theta)
    if nderiv == 0:
        tables = (normalized_alp(p, x),)
    elif nderiv == 1:
        tables = normalized_alp_theta_derivative(p, x)
    else:
        tables = normalized_alp_theta_derivative2(p, x)
    P = [t[ls, am] for t in tables]
    mphi = np.arange(p + 1)[:, None] * phi[None, :]
    trig = np.concatenate([np.cos(mphi), np.sin(mphi)])
    T = trig[am + (p + 1) * (ms < 0)]
    out = np.empty(((1, 3, 6)[nderiv],) + T.shape)
    np.multiply(P[0], T, out=out[0])
    if nderiv >= 1:
        # d/dphi maps cos(m phi) -> -m sin(m phi), sin(m phi) -> m cos(m phi).
        Tp = trig[am + (p + 1) * (ms >= 0)] * np.where(ms < 0, am, -am)[:, None]
        np.multiply(P[1], T, out=out[1])
        np.multiply(P[0], Tp, out=out[2])
    if nderiv == 2:
        np.multiply(P[2], T, out=out[3])
        np.multiply(P[1], Tp, out=out[4])
        np.multiply(out[0], (-(am * am))[:, None], out=out[5])
    return out


def _synthesize(p: int, coeffs: np.ndarray, theta: np.ndarray,
                phi: np.ndarray, nderiv: int = 0) -> np.ndarray:
    """Evaluate real series at sphere points, point ``i`` against its own
    coefficients ``coeffs[i]`` (``(n, ncoef, k)``).

    Returns the value and derivative fields of :func:`_basis` stacked
    ``(nb, n, k)``. The sum over coefficients runs in a fixed order,
    so a point's value does not depend on the other points in the call.
    """
    B = _basis(p, theta, phi, nderiv)
    out = B[:, 0, :, None] * coeffs[None, :, 0, :]
    for c in range(1, coeffs.shape[1]):
        out += B[:, c, :, None] * coeffs[None, :, c, :]
    return out


def _closest_points(p: int, coeffs: np.ndarray, x: np.ndarray,
                    th: np.ndarray, ph: np.ndarray):
    """Closest surface points of a batch of (source, target) pairs.

    ``coeffs[i]`` are the real geometry coefficients ``(ncoef, 3)`` of
    pair ``i``'s source. Newton on the squared distance in parameter
    space from the seeds ``(th, ph)``, with the clamp and backtracking
    of a scalar search: each iteration probes the full step, then all
    remaining halvings of the pairs it does not improve in one call, and
    each pair takes its first improving halving. Every pair's iterates
    depend on that pair only. Returns ``(theta, phi, y, normal,
    distance)``; the outward normal comes from the same synthesis as
    ``y``.
    """
    th, ph = th.copy(), ph.copy()
    active = np.ones(x.shape[0], dtype=bool)
    halvings = 0.5 ** np.arange(1, _LINE_SEARCH_PROBES)
    for _ in range(_NEWTON_ITERS):
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        X, Xt, Xp, Xtt, Xtp, Xpp = _synthesize(p, coeffs[idx], th[idx],
                                               ph[idx], nderiv=2)
        rvec = X - x[idx]
        g1 = np.einsum("nk,nk->n", rvec, Xt)
        g2 = np.einsum("nk,nk->n", rvec, Xp)
        H11 = np.einsum("nk,nk->n", Xt, Xt) + np.einsum("nk,nk->n", rvec, Xtt)
        H12 = np.einsum("nk,nk->n", Xt, Xp) + np.einsum("nk,nk->n", rvec, Xtp)
        H22 = np.einsum("nk,nk->n", Xp, Xp) + np.einsum("nk,nk->n", rvec, Xpp)
        det = H11 * H22 - H12 * H12
        sel = np.abs(det) > 0.0
        active[idx[~sel]] = False
        idx = idx[sel]
        if idx.size == 0:
            break
        step = np.stack([
            (H22[sel] * g1[sel] - H12[sel] * g2[sel]) / det[sel],
            (H11[sel] * g2[sel] - H12[sel] * g1[sel]) / det[sel]], axis=1)
        f0 = 0.5 * np.einsum("nk,nk->n", rvec[sel], rvec[sel])
        t = np.ones(idx.size)
        th_c = np.clip(th[idx] - step[:, 0], _POLE_GUARD, np.pi - _POLE_GUARD)
        ph_c = (ph[idx] - step[:, 1]) % _TWO_PI
        rn = _synthesize(p, coeffs[idx], th_c, ph_c)[0] - x[idx]
        ok = 0.5 * np.einsum("nk,nk->n", rn, rn) <= f0
        th[idx[ok]] = th_c[ok]
        ph[idx[ok]] = ph_c[ok]
        rem = np.nonzero(~ok)[0]
        if rem.size:
            # Every remaining halving of the rejected pairs in one call.
            ir = idx[rem]
            nh = halvings.size
            th_h = np.clip(th[ir][:, None] - halvings[None, :] * step[rem, 0][:, None],
                           _POLE_GUARD, np.pi - _POLE_GUARD)
            ph_h = (ph[ir][:, None] - halvings[None, :] * step[rem, 1][:, None]) % _TWO_PI
            rh = (_synthesize(p, np.repeat(coeffs[ir], nh, axis=0),
                              th_h.ravel(), ph_h.ravel())[0].reshape(rem.size, nh, 3)
                  - x[ir][:, None, :])
            okh = 0.5 * np.einsum("nhk,nhk->nh", rh, rh) <= f0[rem][:, None]
            found = okh.any(axis=1)
            first = np.argmax(okh, axis=1)
            t[rem] = np.where(found, halvings[first], 0.5 * halvings[-1])
            hit = np.nonzero(found)[0]
            th[ir[hit]] = th_h[hit, first[hit]]
            ph[ir[hit]] = ph_h[hit, first[hit]]
        converged = np.linalg.norm(t[:, None] * step, axis=1) < 1e-12
        active[idx[converged]] = False
    y, Yt, Yp = _synthesize(p, coeffs, th, ph, nderiv=1)
    nrm = np.cross(Yt, Yp)
    nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
    return th, ph, y, nrm, np.linalg.norm(y - x, axis=1)


@locked_cache(maxsize=PER_ORDER_CACHE_SIZE)
def _rotation_rule(q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rotation quadrature rule ``(psi, alpha, weight)`` of the
    on-surface singular values on the order-``q`` fine grid."""
    npsi, nalpha = q + 1, 2 * q + 2
    psi, wpsi = gauss_legendre(npsi, 0.0, np.pi)
    wpsi = wpsi * np.sin(psi)
    alpha = _TWO_PI * np.arange(nalpha) / nalpha
    PSI, ALPHA = np.meshgrid(psi, alpha, indexing="ij")
    w = np.outer(wpsi, np.full(nalpha, _TWO_PI / nalpha)).ravel()
    return freeze(PSI.ravel(), ALPHA.ravel(), w)


def _on_surface_values(p: int, q: int, stacks: Sequence[np.ndarray],
                       owner: np.ndarray, th: np.ndarray, ph: np.ndarray,
                       x0: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Rotation-quadrature single-layer values at surface points.

    ``stacks[owner[i]]`` is the ``(6, ncoef)`` real coefficient stack
    (geometry, then density) of point ``i``'s source, ``x0`` the surface
    positions at ``(th, ph)`` and ``scale`` each point's
    ``1 / (8 pi mu)``. Chunks of points build the synthesis basis of all
    their rotated nodes at once; each point's nodes are then contracted
    by GEMMs of the same shapes in any chunk, so a point's value does not
    depend on the other points in the call.
    """
    psi, alpha, w = _rotation_rule(q)
    n, nrot = th.size, psi.size
    out = np.empty((n, 3))
    chunk = max(1, _SYNTH_POINT_BUDGET // nrot)
    for a in range(0, n, chunk):
        sl = slice(a, min(a + chunk, n))
        k = sl.stop - sl.start
        th_r, ph_r = rotated_sphere_points_batch(th[sl], ph[sl], psi, alpha)
        # (k, 3, ncoef, nrot): each point's basis block contiguous.
        B = np.ascontiguousarray(
            _basis(p, th_r.ravel(), ph_r.ravel(), nderiv=1)
            .reshape(3, -1, k, nrot).transpose(2, 0, 1, 3))
        X = np.empty((k, 6, nrot))
        Xt = np.empty((k, 3, nrot))
        Xp = np.empty((k, 3, nrot))
        for i, o in enumerate(owner[sl]):
            X[i] = stacks[o] @ B[i, 0]
            Xt[i] = stacks[o][:3] @ B[i, 1]
            Xp[i] = stacks[o][:3] @ B[i, 2]
        W = np.linalg.norm(np.cross(Xt, Xp, axis=1), axis=1)
        th_rc = np.clip(th_r, _POLE_GUARD, np.pi - _POLE_GUARD)
        wq = w[None, :] * W / np.sin(th_rc)
        r = x0[sl][:, :, None] - X[:, :3]
        inv_r = 1.0 / np.sqrt(np.einsum("tkn,tkn->tn", r, r))
        fw = X[:, 3:] * wq[:, None, :]
        rf = np.einsum("tkn,tkn->tn", r, fw)
        out[sl] = scale[sl, None] * (
            np.einsum("tn,tkn->tk", inv_r, fw)
            + np.einsum("tn,tkn->tk", rf * inv_r ** 3, r))
    return out


@dataclasses.dataclass
class SourceDensity:
    """One source cell's force density, transformed once per step.

    ``coeffs`` are its real synthesis coefficients ``(ncoef, 3)`` (the
    rotation quadrature's density), ``fine_weighted`` the
    quadrature-weighted density on the fine grid ``(fine_nlat,
    fine_nphi, 3)`` (the smooth quadrature's source strengths). Both
    come from one forward SHT.
    """

    coeffs: np.ndarray
    fine_weighted: np.ndarray


class CellNearEvaluator:
    """Evaluates one cell's single-layer velocity anywhere in the fluid.

    Parameters
    ----------
    surface:
        The source cell.
    viscosity:
        Fluid viscosity.
    upsample_order:
        Order of the fine grid used for smooth quadrature (default 2p).
    check_order:
        Number of interpolation nodes (closest point + check points).
    farfield_dtype:
        ``"float32"`` evaluates the smooth *far* quadrature (the bulk
        :func:`stokes_slp_apply` over the fine grid) in single
        precision; the near scheme — singular on-surface values, check
        points, interpolation — always stays float64.
    """

    def __init__(self, surface: SpectralSurface, viscosity: float = 1.0,
                 upsample_order: Optional[int] = None, check_order: int = 6,
                 farfield_dtype: str = "float64"):
        self.surface = surface
        self.viscosity = viscosity
        self.farfield_dtype = str(farfield_dtype)
        self._far_dtype = (None if self.farfield_dtype == "float64"
                           else self.farfield_dtype)
        self.up_order = upsample_order or 2 * surface.order
        self.check_order = check_order
        self.refresh()

    def refresh(self) -> None:
        """Re-evaluate position-dependent caches after the surface moved."""
        surface = self.surface
        self._fine = surface.upsampled(self.up_order)
        self._fine_w = self._fine.quadrature_weights()
        # Characteristic resolution of the *fine* grid: the smooth
        # quadrature is accurate a few fine-grid spacings off the surface.
        self.h = float(np.sqrt(surface.area() / self._fine.n_points))
        #: targets closer than this need the near scheme.
        self.near_distance = 3.0 * self.h
        self._cX = real_coeffs(pack_coeffs(surface.coeffs()).T)
        # Bounding sphere of the fine cloud: the broadphase filter in
        # front of the exact min-distance near test.
        pts = self._fine.points
        self._center = pts.mean(axis=0)
        self._radius = float(np.linalg.norm(pts - self._center, axis=1).max())
        # Interpolation geometry of the check-point scheme. The nodes for
        # an interior target are the mirror image of these; barycentric
        # interpolation is invariant under that reflection, so one weight
        # set serves both sides.
        self._check_ts = np.concatenate(
            [[0.0], self.near_distance + self.h * np.arange(self.check_order)])
        self._check_w = barycentric_weights(self._check_ts)

    def source_density(self, density: np.ndarray) -> SourceDensity:
        """Transform a force density once for every evaluation of a step:
        real SH coefficients for the rotation quadrature and the
        quadrature-weighted fine density for the smooth one."""
        density = np.asarray(density, float).reshape(self.surface.grid.nlat,
                                                     self.surface.grid.nphi, 3)
        T = self.surface.transform
        cf = T.forward(np.moveaxis(density, -1, 0))
        dens_fine = np.moveaxis(T.resample(cf, self.up_order), 0, -1)
        return SourceDensity(
            coeffs=real_coeffs(pack_coeffs(cf).T),
            fine_weighted=np.ascontiguousarray(
                dens_fine * self._fine_w[..., None]))

    def _smooth(self, source: SourceDensity, targets: np.ndarray,
                dtype: Optional[str] = None) -> np.ndarray:
        """Smooth fine-grid quadrature of the single layer at targets."""
        return stokes_slp_apply(self._fine.points,
                                source.fine_weighted.reshape(-1, 3), targets,
                                self.viscosity, dtype=dtype)

    # -- near zone ------------------------------------------------------------
    def _nearest_fine_nodes(self, x: np.ndarray
                            ) -> tuple[np.ndarray, np.ndarray]:
        """Closest fine-grid node to each target: ``(index, squared
        distance)``, computed in chunks."""
        fine_pts = self._fine.points
        i0 = np.empty(x.shape[0], dtype=int)
        dmin2 = np.empty(x.shape[0])
        for a in range(0, x.shape[0], _DIST_CHUNK):
            diff = x[a:a + _DIST_CHUNK, None, :] - fine_pts[None, :, :]
            d2 = np.einsum("tnk,tnk->tn", diff, diff)
            best = np.argmin(d2, axis=1)
            i0[a:a + _DIST_CHUNK] = best
            dmin2[a:a + _DIST_CHUNK] = d2[np.arange(best.size), best]
        return i0, dmin2

    def near_target_indices(self, targets: np.ndarray) -> np.ndarray:
        """Indices of targets inside the near zone of the fine cloud."""
        return self._near_scan(np.atleast_2d(np.asarray(targets, float)))[0]

    def _near_scan(self, targets: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
        """Near-zone filter: ``(near indices, their nearest fine nodes)``.

        A bounding-sphere broadphase rejects the bulk; survivors get the
        exact chunked min-distance test, whose argmin doubles as the
        closest-point Newton seed.
        """
        d_ctr = np.linalg.norm(targets - self._center[None, :], axis=1)
        cand = np.nonzero(d_ctr < self._radius + self.near_distance)[0]
        if cand.size == 0:
            return cand, cand
        seeds, dmin2 = self._nearest_fine_nodes(targets[cand])
        near = dmin2 < self.near_distance ** 2
        return cand[near], seeds[near]

    # -- one-source wrappers over the batched pipeline -------------------------
    def _seed_params(self, seeds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        g = self._fine.grid
        return g.theta[seeds // g.nphi], g.phi[seeds % g.nphi]

    def closest_points(self, x: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Closest surface points to targets ``x`` (n, 3):
        ``(theta, phi, y, distance)``, seeded from the nearest fine-grid
        node."""
        x = np.atleast_2d(np.asarray(x, float))
        th, ph, y, _, d = _closest_points(
            self.surface.order, self._coeff_rows(x.shape[0]), x,
            *self._seed_params(self._nearest_fine_nodes(x)[0]))
        return th, ph, y, d

    def closest_point(self, x: np.ndarray) -> tuple[float, float, np.ndarray, float]:
        """Single-target :meth:`closest_points`."""
        th, ph, y, d = self.closest_points(np.asarray(x, float)[None, :])
        return float(th[0]), float(ph[0]), y[0], float(d[0])

    def _coeff_rows(self, n: int) -> np.ndarray:
        """The geometry coefficients once per point, ``(n, ncoef, 3)``."""
        return np.broadcast_to(self._cX, (n,) + self._cX.shape)

    def _surface_normal_at(self, th: float, ph: float) -> np.ndarray:
        _, Xt, Xp = _synthesize(self.surface.order, self._coeff_rows(1),
                                np.array([th]), np.array([ph]), nderiv=1)
        nrm = np.cross(Xt, Xp)[0]
        return nrm / np.linalg.norm(nrm)

    def on_surface_velocity(self, th: float, ph: float,
                            density: np.ndarray) -> np.ndarray:
        """Rotation-quadrature single-layer value at surface point (th, ph)."""
        stack = np.concatenate(
            [self._cX, self.source_density(density).coeffs], axis=1).T.copy()
        th, ph = np.array([float(th)]), np.array([float(ph)])
        x0 = _synthesize(self.surface.order, self._coeff_rows(1), th, ph)[0]
        scale = np.array([1.0 / (8.0 * np.pi * self.viscosity)])
        return _on_surface_values(self.surface.order, self.up_order, [stack],
                                  np.zeros(1, dtype=int), th, ph, x0,
                                  scale)[0]

    def evaluate(self, density: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Velocity at arbitrary targets due to this cell's single layer."""
        targets = np.atleast_2d(np.asarray(targets, float))
        return evaluate_sources([self], [self.source_density(density)],
                                [targets])[0]

    def near_correction(self, density: np.ndarray, targets: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
        """Near-scheme delta against the float64 smooth quadrature.

        Returns ``(indices, delta)`` where ``indices`` selects the
        targets inside this cell's near zone and ``delta`` is the
        near-scheme velocity minus the *exact double-precision* smooth
        sum at those targets. A caller that already holds a smooth
        all-sources velocity computed in float64 (the global FMM's
        near-field P2P route) turns it into the near-singular-accurate
        value by adding ``delta`` — the large singular contributions
        cancel to roundoff because both sides evaluate them with the
        same exact kernel, which is what makes a global source tree
        viable despite the on-surface smooth sums it contains.
        """
        targets = np.atleast_2d(np.asarray(targets, float))
        return near_corrections([self], [self.source_density(density)],
                                [targets])[0]


# -- the batched pipeline ----------------------------------------------------------
def _serial_map(fn: Callable, items) -> list:
    return [fn(i) for i in items]


def near_values(evaluators: Sequence[CellNearEvaluator],
                sources: Sequence[SourceDensity],
                targets: Sequence[np.ndarray],
                seeds: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Near-scheme velocities of several source cells, each at its own
    near targets, in one batched pass.

    ``targets[k]`` are near targets of ``evaluators[k]`` (density
    ``sources[k]``) and ``seeds[k]`` their nearest fine-grid nodes (as
    returned by the near scan). Sources of equal order form one batch.
    Returns one ``(n_k, 3)`` array per source.
    """
    out = [np.zeros((0, 3)) for _ in evaluators]
    groups: dict = {}
    for k, ev in enumerate(evaluators):
        if targets[k].shape[0]:
            groups.setdefault((ev.surface.order, ev.up_order), []).append(k)
    for (p, q), ks in groups.items():
        evs = [evaluators[k] for k in ks]
        counts = [targets[k].shape[0] for k in ks]
        owner = np.repeat(np.arange(len(ks)), counts)
        x = np.concatenate([targets[k] for k in ks])
        th0, ph0 = evs[0]._seed_params(np.concatenate([seeds[k] for k in ks]))
        th, ph, y, nrm, d = _closest_points(
            p, np.stack([ev._cX for ev in evs])[owner], x, th0, ph0)
        # Signed distance: positive along the outward normal. Cell-cell
        # targets are always exterior; near interior targets (which only
        # occur in diagnostics) mirror to the interior side.
        sgn = np.sign(np.einsum("nk,nk->n", x - y, nrm))
        sgn[sgn == 0.0] = 1.0
        stacks = [np.concatenate([ev._cX, sources[k].coeffs], axis=1).T.copy()
                  for k, ev in zip(ks, evs)]
        scale = np.array([1.0 / (8.0 * np.pi * ev.viscosity)
                          for ev in evs])[owner]
        on_surface = _on_surface_values(p, q, stacks, owner, th, ph, y, scale)
        # Per source: check points from the first trusted distance
        # outward through the smooth quadrature, then interpolation of
        # each target to its (unsigned) distance — barycentric
        # interpolation is reflection-invariant, so the one-sided node
        # set serves interior targets too.
        at = 0
        for k, ev, n in zip(ks, evs, counts):
            rows = slice(at, at + n)
            at += n
            vals = np.empty((n, ev.check_order + 1, 3))
            vals[:, 0, :] = on_surface[rows]
            checks = (y[rows][:, None, :]
                      + (sgn[rows][:, None] * ev._check_ts[None, 1:])[:, :, None]
                      * nrm[rows][:, None, :])
            vals[:, 1:, :] = ev._smooth(
                sources[k], checks.reshape(-1, 3)).reshape(n, ev.check_order, 3)
            M = barycentric_matrix(ev._check_ts, d[rows], ev._check_w)
            out[k] = np.einsum("nc,nck->nk", M, vals)
    return out


def evaluate_sources(evaluators: Sequence[CellNearEvaluator],
                     sources: Sequence[SourceDensity],
                     targets: Sequence[np.ndarray],
                     mapper: Callable = _serial_map) -> List[np.ndarray]:
    """Each source cell's single-layer velocity at its own targets.

    The smooth quadrature (in the evaluator's far-field dtype) and the
    near scan run per source through ``mapper`` (an executor's ``map``);
    the near targets of all sources then go through one
    :func:`near_values` call, which overwrites them.
    """
    def smooth(k: int) -> tuple:
        ev, t = evaluators[k], targets[k]
        if t.shape[0] == 0:
            none = np.zeros(0, dtype=int)
            return np.zeros((0, 3)), none, none
        return (ev._smooth(sources[k], t, ev._far_dtype),) + ev._near_scan(t)

    parts = mapper(smooth, range(len(evaluators)))
    near = near_values(evaluators, sources,
                       [t[idx] for t, (_, idx, _) in zip(targets, parts)],
                       [seeds for _, _, seeds in parts])
    for (vals, idx, _), v in zip(parts, near):
        vals[idx] = v
    return [vals for vals, _, _ in parts]


def near_corrections(evaluators: Sequence[CellNearEvaluator],
                     sources: Sequence[SourceDensity],
                     targets: Sequence[np.ndarray],
                     mapper: Callable = _serial_map) -> list:
    """Near-scheme deltas of several sources (see
    :meth:`CellNearEvaluator.near_correction`): one ``(indices, delta)``
    per source. The near scan and the float64 smooth sums run per source
    through ``mapper``; the near values come from one
    :func:`near_values` call."""
    def scan(k: int) -> tuple:
        ev, t = evaluators[k], targets[k]
        idx, seeds = ev._near_scan(t)
        smooth = (ev._smooth(sources[k], t[idx]) if idx.size
                  else np.zeros((0, 3)))
        return idx, seeds, smooth

    parts = mapper(scan, range(len(evaluators)))
    near = near_values(evaluators, sources,
                       [t[idx] for t, (idx, _, _) in zip(targets, parts)],
                       [seeds for _, seeds, _ in parts])
    return [(idx, v - smooth) for (idx, _, smooth), v in zip(parts, near)]
