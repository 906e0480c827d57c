"""Polynomial patch, patch surface, closest point and forest tests."""
import numpy as np
import pytest

from repro.config import NumericsOptions
from repro.patches import (
    ChebPatch,
    PatchSurface,
    QuadForest,
    capsule_tube,
    cheb_diff_matrix,
    closest_point_on_patch,
    cube_sphere,
    deformed_sphere,
    surface_closest_point,
    surface_closest_points,
    torus_surface,
)


def _poly_patch(n=8):
    def fn(u, v):
        return np.column_stack([u, v, u ** 2 - 0.5 * v ** 3 + u * v])
    return ChebPatch.from_function(fn, n), fn


class TestChebPatch:
    def test_evaluate_reproduces_polynomial(self):
        patch, fn = _poly_patch()
        uv = np.array([[0.3, -0.7], [0.0, 0.0], [1.0, -1.0]])
        assert np.allclose(patch.evaluate(uv), fn(uv[:, 0], uv[:, 1]),
                           atol=1e-12)

    def test_derivatives_fd(self):
        patch, _ = _poly_patch()
        uv = np.array([[0.2, 0.4]])
        X, Xu, Xv, Xuu, Xuv, Xvv = patch.derivatives(uv, second=True)
        h = 1e-6
        fdu = (patch.evaluate(uv + [h, 0]) - patch.evaluate(uv - [h, 0])) / (2 * h)
        fdv = (patch.evaluate(uv + [0, h]) - patch.evaluate(uv - [0, h])) / (2 * h)
        assert np.allclose(Xu, fdu, atol=1e-6)
        assert np.allclose(Xv, fdv, atol=1e-6)
        # exact second derivative of z = u^2 - 0.5 v^3 + uv
        assert np.isclose(Xuu[0, 2], 2.0, atol=1e-10)
        assert np.isclose(Xvv[0, 2], -3.0 * 0.4, atol=1e-9)
        assert np.isclose(Xuv[0, 2], 1.0, atol=1e-10)

    def test_diff_matrix_exact_on_polynomials(self):
        from repro.quadrature.interpolation import chebyshev_lobatto_nodes
        n = 9
        D = cheb_diff_matrix(n)
        x = chebyshev_lobatto_nodes(n)
        f = x ** 4 - 2 * x
        assert np.allclose(D @ f, 4 * x ** 3 - 2, atol=1e-10)

    def test_quadrature_area_flat(self):
        def fn(u, v):
            return np.column_stack([u, v, np.zeros_like(u)])
        patch = ChebPatch.from_function(fn, 7)
        assert np.isclose(patch.area(), 4.0, rtol=1e-12)
        assert np.isclose(patch.size(), 2.0)

    def test_subdivision_exact(self):
        patch, fn = _poly_patch()
        kids = patch.subdivide(2)
        assert len(kids) == 4
        # child 0 covers [-1,0]x[-1,0]: its center = parent (-0.5, -0.5)
        child_center = kids[0].evaluate(np.array([[0.0, 0.0]]))
        parent_val = patch.evaluate(np.array([[-0.5, -0.5]]))
        assert np.allclose(child_center, parent_val, atol=1e-12)
        assert np.isclose(sum(k.area() for k in kids), patch.area(), rtol=1e-4)

    def test_collision_points_corners(self):
        patch, fn = _poly_patch()
        pts = patch.collision_points(5)
        assert pts.shape == (25, 3)
        assert np.allclose(pts[0], fn(np.array([-1.0]), np.array([-1.0]))[0])

    def test_bounding_box_pad(self):
        patch, _ = _poly_patch()
        lo0, hi0 = patch.bounding_box()
        lo1, hi1 = patch.bounding_box(pad=0.5)
        assert np.allclose(lo1, lo0 - 0.5)
        assert np.allclose(hi1, hi0 + 0.5)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            ChebPatch(np.zeros((3, 4, 3)))


class TestSurfaces:
    def test_cube_sphere_metrics(self, small_opts):
        s = cube_sphere(refine=1, options=small_opts)
        assert s.n_patches == 24
        assert np.isclose(s.area(), 4 * np.pi, rtol=1e-6)
        assert np.isclose(s.volume(), 4 * np.pi / 3, rtol=1e-6)

    def test_torus_metrics(self, small_opts):
        R, r = 2.0, 0.5
        t = torus_surface(R=R, r=r, options=small_opts)
        assert np.isclose(t.area(), 4 * np.pi ** 2 * R * r, rtol=1e-5)
        assert np.isclose(t.volume(), 2 * np.pi ** 2 * R * r ** 2, rtol=1e-5)

    def test_normals_outward(self, small_opts):
        s = cube_sphere(refine=0, options=small_opts)
        d = s.coarse()
        rad = d.points / np.linalg.norm(d.points, axis=1, keepdims=True)
        assert np.einsum("nk,nk->n", d.normals, rad).min() > 0.9

    def test_refined_preserves_geometry(self, small_opts):
        s = cube_sphere(refine=0, options=small_opts)
        s4 = s.refined()
        assert s4.n_patches == 4 * s.n_patches
        assert np.isclose(s4.area(), s.area(), rtol=1e-3)

    def test_fine_discretization_consistent(self, small_opts):
        s = cube_sphere(refine=0, options=small_opts)
        assert np.isclose(s.fine().weights.sum(), s.area(), rtol=1e-3)

    def test_flip_orientation(self, small_opts):
        s = cube_sphere(refine=0, options=small_opts)
        assert np.isclose(s.flip_orientation().volume(), -s.volume())

    def test_capsule_volume_reasonable(self, small_opts):
        # pill of length 8, radius 1: V between cylinder(len 6) + sphere
        cap = capsule_tube(length=8, radius=1, refine=0, options=small_opts)
        assert 15.0 < cap.volume() < 30.0

    def test_patch_sizes_positive(self, small_opts):
        s = deformed_sphere(refine=0, stretch=(1, 1, 2), options=small_opts)
        assert np.all(s.patch_sizes() > 0)

    def test_collision_points_owner(self, small_opts):
        s = cube_sphere(refine=0, options=small_opts)
        pts, owner = s.collision_points(m=5)
        assert pts.shape == (6 * 25, 3)
        assert owner.max() == 5


class TestClosestPoint:
    def test_sphere_analytic(self, small_opts):
        s = cube_sphere(refine=1, options=small_opts)
        for x in ([2.0, 0.3, -0.4], [0.2, 0.1, 0.3], [0.0, -1.7, 0.0]):
            x = np.array(x)
            res = surface_closest_point(s, x)
            expect = abs(np.linalg.norm(x) - 1.0)
            assert abs(res.distance - expect) < 1e-4
            assert np.allclose(res.point, x / np.linalg.norm(x), atol=1e-2)

    def test_torus_analytic(self, small_opts):
        R, r = 2.0, 0.5
        t = torus_surface(R=R, r=r, options=small_opts)
        x = np.array([3.5, 0.0, 0.0])
        res = surface_closest_point(t, x)
        assert abs(res.distance - 1.0) < 1e-8

    def test_patch_level_newton(self):
        patch, _ = _poly_patch()
        # target slightly off an interior surface point along its normal,
        # so the closest point is interior and the gradient vanishes there
        base = patch.evaluate(np.array([[0.25, -0.3]]))[0]
        n = patch.normals(np.array([[0.25, -0.3]]))[0]
        x = base + 0.05 * n
        uv, p, d = closest_point_on_patch(patch, x)
        # gradient orthogonality at an interior minimum
        _, Xu, Xv = patch.derivatives(uv[None, :])
        rvec = p - x
        assert d < 0.051
        assert abs(rvec @ Xu[0]) < 1e-4
        assert abs(rvec @ Xv[0]) < 1e-4

    def test_candidate_restriction(self, small_opts):
        s = cube_sphere(refine=0, options=small_opts)
        x = np.array([2.0, 0.0, 0.0])
        full = surface_closest_point(s, x)
        restricted = surface_closest_point(s, x,
                                           candidates=[full.patch_index])
        assert abs(full.distance - restricted.distance) < 1e-12


class TestBatchedClosestPoints:
    """``surface_closest_points`` against analytic distances, the
    one-target wrapper and the edge-ownership rule."""

    @staticmethod
    def _sphere_targets(rng, m):
        d = rng.normal(size=(m, 3))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        rad = np.where(rng.random(m) < 0.5, rng.uniform(0.3, 0.95, m),
                       rng.uniform(1.05, 2.0, m))
        return d * rad[:, None]

    def test_sphere_batch_analytic(self, small_opts, rng):
        s = cube_sphere(refine=1, options=small_opts)
        X = self._sphere_targets(rng, 240)
        cp = surface_closest_points(s, X)
        r = np.linalg.norm(X, axis=1)
        assert len(cp) == 240
        assert np.abs(cp.distance - np.abs(r - 1.0)).max() < 1e-4
        assert np.abs(cp.point - X / r[:, None]).max() < 1e-2
        assert np.allclose(np.linalg.norm(cp.normal, axis=1), 1.0)
        assert np.allclose(cp.patch_size, s.patch_sizes()[cp.patch_index])

    def test_torus_batch_analytic(self, small_opts, rng):
        # Targets on the analytic normals through the coarse nodes, where
        # the polynomial patches interpolate the torus exactly.
        R, r = 2.0, 0.5
        t = torus_surface(R=R, r=r, options=small_opts)
        d = t.coarse()
        idx = rng.choice(d.points.shape[0], 220, replace=False)
        p = d.points[idx]
        ring = p.copy()
        ring[:, 2] = 0.0
        ring *= (R / np.linalg.norm(ring, axis=1))[:, None]
        nrm = (p - ring) / r
        h = rng.uniform(-0.3, 0.6, idx.size)
        cp = surface_closest_points(t, p + h[:, None] * nrm)
        assert np.abs(cp.distance - np.abs(h)).max() < 1e-8

    def test_batch_gradient_orthogonality(self, rng):
        patch, _ = _poly_patch()
        s = PatchSurface([patch])
        uv = rng.uniform(-0.8, 0.8, size=(50, 2))
        X = (patch.evaluate(uv)
             + rng.uniform(-0.05, 0.05, (50, 1)) * patch.normals(uv))
        cp = surface_closest_points(s, X)
        interior = np.all(np.abs(cp.uv) < 1.0, axis=1)
        assert interior.sum() >= 45
        _, Xu, Xv = patch.derivatives(cp.uv[interior])
        rvec = cp.point[interior] - X[interior]
        assert np.abs(np.einsum("nk,nk->n", rvec, Xu)).max() < 1e-4
        assert np.abs(np.einsum("nk,nk->n", rvec, Xv)).max() < 1e-4

    def test_rows_match_single_target(self, small_opts, rng):
        s = cube_sphere(refine=1, options=small_opts)
        X = self._sphere_targets(rng, 40)
        cp = surface_closest_points(s, X)
        for i, x in enumerate(X):
            one = surface_closest_point(s, x)
            assert one.patch_index == cp.patch_index[i]
            assert abs(one.distance - cp.distance[i]) < 1e-12
            assert np.allclose(one.point, cp.point[i], atol=1e-9)
            assert np.allclose(one.normal, cp.normal[i], atol=1e-9)
            assert one.patch_size == cp.patch_size[i]

    def test_patch_wrapper_matches_batch(self, rng):
        patch, _ = _poly_patch()
        X = patch.evaluate(rng.uniform(-0.9, 0.9, (10, 2))) + [0, 0, 0.03]
        cp = surface_closest_points(PatchSurface([patch]), X)
        for i, x in enumerate(X):
            uv, p, d = closest_point_on_patch(patch, x)
            assert abs(d - cp.distance[i]) < 1e-12
            assert np.allclose(uv, cp.uv[i], atol=1e-8)

    def test_edge_target_owner_is_deterministic(self, small_opts):
        # On the bisector of two cube-sphere faces the closest point lies
        # on their shared edge, and both patches report it at the same
        # distance up to roundoff: the lower patch index owns the target.
        s = cube_sphere(refine=0, options=small_opts)
        x = 0.8 * np.array([1.0, 1.0, 0.3]) / np.linalg.norm([1.0, 1.0, 0.3])
        cp = surface_closest_points(s, np.vstack([x, -x]))
        one = surface_closest_point(s, x)
        assert one.patch_index == cp.patch_index[0]
        d = s.coarse()
        pair = sorted({int(d.patch_of[i]) for i in np.argsort(
            np.linalg.norm(d.points - x, axis=1))[:2]})
        assert len(pair) == 2 and cp.patch_index[0] == pair[0]
        dists = [surface_closest_point(s, x, candidates=[pid]).distance
                 for pid in pair]
        assert abs(dists[0] - dists[1]) < 1e-12
        for cand in (pair, pair[::-1]):
            assert surface_closest_point(
                s, x, candidates=cand).patch_index == pair[0]

    def test_empty_batch(self, small_opts):
        s = cube_sphere(refine=0, options=small_opts)
        cp = surface_closest_points(s, np.empty((0, 3)))
        assert len(cp) == 0 and cp.point.shape == (0, 3)


class TestForest:
    def test_refine_all(self, small_opts):
        F = QuadForest(cube_sphere(refine=0, options=small_opts).patches)
        assert F.n_leaves == 6
        F.refine()
        assert F.n_leaves == 24
        assert set(F.levels()) == {1}

    def test_selective_refine(self, small_opts):
        F = QuadForest(cube_sphere(refine=0, options=small_opts).patches)
        n = F.refine(lambda node: node.tree == 0)
        assert n == 1
        assert F.n_leaves == 9

    def test_refine_coarsen_roundtrip_geometry(self, small_opts):
        s = cube_sphere(refine=0, options=small_opts)
        F = QuadForest(s.patches)
        ref_vals = [p.values.copy() for p in F.patches()]
        F.refine()
        F.coarsen()
        assert F.n_leaves == 6
        for a, b in zip(ref_vals, F.patches()):
            assert np.allclose(a, b.values, atol=1e-10)

    def test_morton_order_stable(self, small_opts):
        F = QuadForest(cube_sphere(refine=0, options=small_opts).patches)
        F.refine()
        keys = [n.morton_key() for n in F.leaves]
        assert keys == sorted(keys)

    def test_partition_balanced_contiguous(self, small_opts):
        F = QuadForest(cube_sphere(refine=0, options=small_opts).patches)
        F.refine()
        parts = F.partition(5)
        sizes = [len(p) for p in parts]
        assert sum(sizes) == 24
        assert max(sizes) - min(sizes) <= 1
        flat = [i for p in parts for i in p]
        assert flat == list(range(24))

    def test_total_area_preserved_under_refinement(self, small_opts):
        s = cube_sphere(refine=0, options=small_opts)
        F = QuadForest(s.patches)
        F.refine()
        area = sum(p.area() for p in F.patches())
        assert np.isclose(area, s.area(), rtol=1e-3)
