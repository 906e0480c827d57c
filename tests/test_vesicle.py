"""Singular self-interaction and near-singular cell evaluation tests."""
import numpy as np
import pytest

from repro.kernels import stokes_slp_apply
from repro.sph import SHTransform
from repro.surfaces import ellipsoid, sphere
from repro.vesicle import CellNearEvaluator, SingularSelfInteraction


class TestSingularSelfInteraction:
    def test_constant_density_sphere_identity(self):
        a, mu = 1.3, 2.0
        s = sphere(a, order=8)
        op = SingularSelfInteraction(s, viscosity=mu)
        c = np.array([0.3, -0.2, 0.7])
        den = np.broadcast_to(c, (s.grid.nlat, s.grid.nphi, 3)).copy()
        u = op.apply(den)
        expect = 2 * a / (3 * mu) * c
        assert np.abs(u - expect).max() < 1e-4

    def test_spectral_convergence_with_order(self):
        # Reference: high-order solve on the same ellipsoid with a smooth
        # non-constant density; coarser orders must converge toward it.
        def dens(s):
            return np.stack([np.sin(s.X[:, :, 0]), s.X[:, :, 1] ** 2,
                             s.X[:, :, 2]], axis=-1)
        ref_s = ellipsoid(1.0, 1.2, 0.9, order=16)
        u_ref = SingularSelfInteraction(ref_s).apply(dens(ref_s))
        Tref = SHTransform(16)
        errs = []
        for p in (6, 10):
            s = ellipsoid(1.0, 1.2, 0.9, order=p)
            u = SingularSelfInteraction(s).apply(dens(s))
            ref_on_p = np.stack([
                Tref.resample(Tref.forward(u_ref[:, :, k]), p)
                for k in range(3)], axis=-1)
            errs.append(np.abs(u - ref_on_p).max())
        assert errs[1] < errs[0] * 0.5

    def test_agreement_across_orders_on_ellipsoid(self):
        def dens(s):
            return np.stack([s.X[:, :, 0] ** 2, s.X[:, :, 1],
                             np.ones_like(s.X[:, :, 0])], axis=-1)
        e8 = ellipsoid(1.0, 1.2, 0.9, order=8)
        e14 = ellipsoid(1.0, 1.2, 0.9, order=14)
        u8 = SingularSelfInteraction(e8).apply(dens(e8))
        u14 = SingularSelfInteraction(e14).apply(dens(e14))
        T = SHTransform(14)
        u14_on8 = np.stack([T.resample(T.forward(u14[:, :, k]), 8)
                            for k in range(3)], axis=-1)
        assert np.abs(u8 - u14_on8).max() < 5e-4

    def test_refresh_tracks_moving_surface(self):
        s = sphere(1.0, order=6)
        op = SingularSelfInteraction(s)
        den = np.broadcast_to([1.0, 0, 0], (7, 14, 3)).copy()
        u1 = op.apply(den)
        s.set_positions(2.0 * s.X)   # radius doubles
        op.refresh()
        u2 = op.apply(den)
        # u = 2a/3: doubles with radius
        assert np.allclose(u2, 2 * u1, atol=1e-3)

    def test_linearity(self, rng):
        s = sphere(1.0, order=6)
        op = SingularSelfInteraction(s)
        f1 = rng.normal(size=(7, 14, 3))
        f2 = rng.normal(size=(7, 14, 3))
        u = op.apply(2.0 * f1 - f2)
        assert np.allclose(u, 2 * op.apply(f1) - op.apply(f2), atol=1e-11)


class TestOperatorMatrix:
    """The assembled dense self-interaction operator vs the seed path."""

    def test_matrix_apply_matches_synthesis_path(self, rng):
        e = ellipsoid(1.0, 1.2, 0.9, order=8)
        op = SingularSelfInteraction(e, viscosity=1.7)
        f = rng.normal(size=(e.grid.nlat, e.grid.nphi, 3))
        assert np.abs(op.apply(f) - op.apply_reference(f)).max() <= 1e-12

    def test_matrix_reassembled_on_refresh(self, rng):
        s = sphere(1.0, order=6)
        op = SingularSelfInteraction(s)
        f = rng.normal(size=(s.grid.nlat, s.grid.nphi, 3))
        s.set_positions(1.5 * s.X)
        op.refresh()
        assert np.abs(op.apply(f) - op.apply_reference(f)).max() <= 1e-12

    def test_matrix_property_is_the_operator(self, rng):
        s = sphere(1.1, order=5)
        op = SingularSelfInteraction(s)
        f = rng.normal(size=(s.grid.nlat, s.grid.nphi, 3))
        u = (op.matrix @ f.ravel()).reshape(f.shape)
        assert np.allclose(u, op.apply(f), atol=1e-14)


class TestBatchedNearPipeline:
    """Batched near evaluation vs per-target evaluation."""

    @pytest.fixture(scope="class")
    def near_contact(self):
        from repro.surfaces import biconcave_rbc
        a = biconcave_rbc(1.0, center=(0.0, 0.0, 0.0), order=8)
        b = biconcave_rbc(1.0, center=(2.25, 0.0, 0.1), order=8)
        rng = np.random.default_rng(7)
        den = rng.normal(size=(a.grid.nlat, a.grid.nphi, 3))
        return a, b, den, CellNearEvaluator(a)

    def test_batch_matches_per_target(self, near_contact):
        a, b, den, ev = near_contact
        targets = b.points
        batched = ev.evaluate(den, targets)
        singles = np.stack([ev.evaluate(den, t[None])[0] for t in targets])
        assert np.abs(batched - singles).max() < 1e-12

    def test_near_targets_detected(self, near_contact):
        a, b, den, ev = near_contact
        near = ev.near_target_indices(b.points)
        assert near.size > 0
        dmin = np.array([np.linalg.norm(ev._fine.points - t, axis=1).min()
                         for t in b.points])
        assert np.array_equal(near, np.nonzero(dmin < ev.near_distance)[0])

    def test_near_value_matches_manual_scheme(self, near_contact):
        # Reconstruct one near target's value from the public pieces:
        # closest point + singular on-surface value + check points +
        # barycentric interpolation (the seed per-target algorithm).
        from repro.quadrature.interpolation import (barycentric_matrix,
                                                    barycentric_weights)
        a, b, den, ev = near_contact
        t = b.points[ev.near_target_indices(b.points)[0]]
        th, ph, y, d = ev.closest_point(t)
        n = ev._surface_normal_at(th, ph)
        sgn = float(np.sign((t - y) @ n)) or 1.0
        ts = np.concatenate(
            [[0.0], sgn * (ev.near_distance + ev.h * np.arange(ev.check_order))])
        vals = np.empty((ts.size, 3))
        vals[0] = ev.on_surface_velocity(th, ph, den)
        checks = y[None, :] + ts[1:, None] * n[None, :]
        fw = ev.source_density(den).fine_weighted
        vals[1:] = stokes_slp_apply(ev._fine.points, fw.reshape(-1, 3),
                                    checks, ev.viscosity)
        M = barycentric_matrix(ts, np.array([sgn * d]),
                               barycentric_weights(ts))
        expect = (M @ vals).ravel()
        got = ev.evaluate(den, t[None])[0]
        assert np.abs(got - expect).max() < 1e-10

    def test_batched_closest_points(self, near_contact):
        a, b, den, ev = near_contact
        targets = b.points[::11]
        th, ph, y, d = ev.closest_points(targets)
        for k, t in enumerate(targets):
            th1, ph1, y1, d1 = ev.closest_point(t)
            assert abs(d[k] - d1) < 1e-10
            assert np.allclose(y[k], y1, atol=1e-8)


class TestCellNearEvaluator:
    @pytest.fixture(scope="class")
    def setup(self):
        a = 1.3
        s = sphere(a, order=8)
        c = np.array([0.3, -0.2, 0.7])
        den = np.broadcast_to(c, (s.grid.nlat, s.grid.nphi, 3)).copy()
        ev = CellNearEvaluator(s)
        # reference: very fine direct quadrature
        fine = s.upsampled(40)
        fw = np.broadcast_to(c, (41, 82, 3)) * fine.quadrature_weights()[..., None]
        return a, s, c, den, ev, (fine.points, fw.reshape(-1, 3))

    def test_far_evaluation_spectral(self, setup):
        a, s, c, den, ev, (fp, fw) = setup
        trg = np.array([[3.0, 1.0, 0.0], [0.0, -4.0, 0.5]])
        ref = stokes_slp_apply(fp, fw, trg)
        assert np.abs(ev.evaluate(den, trg) - ref).max() < 1e-10

    def test_near_exterior_evaluation(self, setup):
        a, s, c, den, ev, (fp, fw) = setup
        trg = np.array([[a + 0.05, 0.0, 0.0], [0.0, 0.0, a + 0.12]])
        ref = stokes_slp_apply(fp, fw, trg)
        err = np.abs(ev.evaluate(den, trg) - ref).max()
        assert err < 5e-3

    def test_on_surface_singular_value(self, setup):
        a, s, c, den, ev, _ = setup
        v = ev.on_surface_velocity(s.grid.theta[3], s.grid.phi[5], den)
        assert np.abs(v - 2 * a / 3 * c).max() < 1e-6

    def test_closest_point_on_sphere(self, setup):
        a, s, c, den, ev, _ = setup
        x = np.array([2.0, 1.0, -0.5])
        th, ph, y, d = ev.closest_point(x)
        assert abs(d - (np.linalg.norm(x) - a)) < 1e-8
        assert np.allclose(y, a * x / np.linalg.norm(x), atol=1e-7)

    def test_interior_center_value(self, setup):
        a, s, c, den, ev, _ = setup
        v = ev.evaluate(den, np.array([[0.0, 0.0, 0.0]]))
        assert np.abs(v[0] - 2 * a / 3 * c).max() < 1e-10


class TestCrossSourceBatch:
    """One near pipeline over the (source, target) pairs of many sources."""

    @pytest.fixture(scope="class")
    def scene(self):
        from repro.core.interactions import FMMBackend
        from repro.surfaces import biconcave_rbc
        rng = np.random.default_rng(3)
        cells = [biconcave_rbc(1.0, center=(2.25 * (i % 4), 2.25 * (i // 4),
                                            0.12 * (-1) ** i), order=6)
                 for i in range(8)]
        forces = [rng.normal(size=(c.grid.nlat, c.grid.nphi, 3))
                  for c in cells]
        be = FMMBackend().bind(cells, 1.0)
        be.prepare(forces)
        xs, seeds = [], []
        for j, ev in enumerate(be.evaluators):
            t = np.concatenate([c.points for i, c in enumerate(cells)
                                if i != j])
            idx, s = ev._near_scan(t)
            # Odd sources keep one near target: a one-row call must give
            # the same bits as the same row inside a larger batch.
            keep = slice(None) if j % 2 == 0 else slice(0, 1)
            xs.append(t[idx][keep])
            seeds.append(s[keep])
        return cells, forces, be, xs, seeds

    def test_batch_invariance(self, scene):
        """A pair's near value does not depend on which other sources
        share its call: all sources at once == each source alone == a
        2-way split, bit for bit (the process executor batches per
        Morton shard, the serial path per step)."""
        from repro.vesicle.near_singular import near_values
        _, _, be, xs, seeds = scene
        evs, srcs = be.evaluators, be._sources()
        assert all(x.shape[0] > 0 for x in xs)
        together = near_values(evs, srcs, xs, seeds)
        for k in range(len(evs)):
            alone = near_values([evs[k]], [srcs[k]], [xs[k]], [seeds[k]])[0]
            assert np.array_equal(together[k], alone)
        h = 3
        split = (near_values(evs[:h], srcs[:h], xs[:h], seeds[:h])
                 + near_values(evs[h:], srcs[h:], xs[h:], seeds[h:]))
        for a, b in zip(together, split):
            assert np.array_equal(a, b)

    def test_alp_evaluations_follow_targets_not_sources(self, scene,
                                                        monkeypatch):
        """Cost guard: the ALP tables of one ``FMMBackend.cell_cell``
        are built per batched pass, so 8 sources with near pairs cost at
        most twice the evaluations of 2."""
        import repro.vesicle.near_singular as ns
        from repro.core.interactions import FMMBackend
        cells, forces, *_ = scene
        calls = []
        for name in ("normalized_alp", "normalized_alp_theta_derivative",
                     "normalized_alp_theta_derivative2"):
            fn = getattr(ns, name)

            def counted(*a, _fn=fn, **kw):
                calls.append(1)
                return _fn(*a, **kw)
            monkeypatch.setattr(ns, name, counted)

        def alp_count(n):
            be = FMMBackend().bind(cells[:n], 1.0)
            be.prepare(forces[:n])
            del calls[:]
            be.cell_cell()
            return len(calls)
        few, many = alp_count(2), alp_count(8)
        assert 0 < few and many <= 2 * few

    def test_closest_points_on_analytic_surfaces(self):
        """Batched closest points of two sphere sources against the
        analytic answer at the one-target tolerances; each row equals
        the one-target search on its own source."""
        from repro.vesicle.near_singular import _closest_points
        rng = np.random.default_rng(11)
        radii, centers = (1.3, 0.8), (np.zeros(3), np.array([3.0, 0.5, 0.0]))
        evs = [CellNearEvaluator(sphere(a, center=tuple(c), order=8))
               for a, c in zip(radii, centers)]
        owner = np.repeat([0, 1], [25, 15])
        dirs = rng.normal(size=(owner.size, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        gap = rng.uniform(0.05, 0.6, owner.size)
        a = np.array(radii)[owner]
        ctr = np.array(centers)[owner]
        x = ctr + (a + gap)[:, None] * dirs
        seeds = np.concatenate([evs[k]._nearest_fine_nodes(x[owner == k])[0]
                                for k in (0, 1)])
        th, ph, y, nrm, d = _closest_points(
            8, np.stack([ev._cX for ev in evs])[owner], x,
            *evs[0]._seed_params(seeds))
        assert np.abs(d - gap).max() < 1e-8
        assert np.abs(y - (ctr + a[:, None] * dirs)).max() < 1e-7
        assert np.abs(nrm - dirs).max() < 1e-6
        for i in range(owner.size):
            th1, ph1, y1, d1 = evs[owner[i]].closest_point(x[i])
            assert abs(d[i] - d1) <= 1e-12
            assert np.abs(y[i] - y1).max() <= 1e-12

    def test_real_synthesis_matches_complex_series(self):
        """The real synthesis equals the real part of the complex SH
        series and its parametric derivatives, for coefficients without
        conjugate symmetry too."""
        from repro.sph.alp import normalized_alp_theta_derivative2
        from repro.vesicle.near_singular import _synthesize, real_coeffs
        from repro.vesicle.self_interaction import _coeff_index
        p, n = 7, 40
        rng = np.random.default_rng(5)
        packed = (rng.normal(size=((p + 1) ** 2, 3))
                  + 1j * rng.normal(size=((p + 1) ** 2, 3)))
        th = rng.uniform(0.05, np.pi - 0.05, n)
        ph = rng.uniform(0.0, 2 * np.pi, n)
        ls, ms = _coeff_index(p)
        P, dP, d2P = normalized_alp_theta_derivative2(p, np.cos(th))
        sign = np.where(ms < 0, (-1.0) ** np.abs(ms), 1.0)
        phase = np.exp(1j * ms[None, :] * ph[:, None]) * sign
        im = 1j * ms
        rows = [T[ls, np.abs(ms)].T * phase for T in (P, dP, d2P)]
        expect = [rows[0], rows[1], rows[0] * im, rows[2], rows[1] * im,
                  rows[0] * im * im]
        got = _synthesize(p, np.broadcast_to(real_coeffs(packed),
                                             (n,) + packed.shape),
                          th, ph, nderiv=2)
        for e, g in zip(expect, got):
            ref = (e @ packed).real
            assert np.abs(g - ref).max() <= 1e-12 * np.abs(ref).max()
