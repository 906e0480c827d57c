"""Boundary solver tests (paper Sec. 3): identities, solves, convergence."""
import numpy as np
import pytest

from repro.bie import BoundarySolver
from repro.config import NumericsOptions
from repro.kernels import stokes_slp_apply
from repro.patches import cube_sphere


@pytest.fixture(scope="module")
def opts():
    return NumericsOptions(patch_quad=7, check_order=5, upsample_eta=1,
                           check_r_factor=0.2, gmres_max_iter=40)


@pytest.fixture(scope="module")
def sphere_surface(opts):
    return cube_sphere(refine=0, options=opts)


@pytest.fixture(scope="module")
def laplace_solver(sphere_surface, opts):
    s = BoundarySolver(sphere_surface, kernel="laplace", options=opts)
    s.assemble()
    return s


class TestLaplaceOperator:
    def test_constant_density_identity(self, laplace_solver):
        A1 = laplace_solver.apply(np.ones(laplace_solver.N))
        assert np.abs(A1 - 1.0).max() < 5e-2

    def test_spherical_harmonic_eigenvalues(self, laplace_solver):
        # On the unit sphere A Y_l = (1/2 + 1/(2(2l+1))) Y_l.
        z = laplace_solver.coarse.points[:, 2]
        Az = laplace_solver.apply(z[:, None]).ravel()
        assert np.abs(Az - (2.0 / 3.0) * z).max() < 5e-2

    def test_assembled_matches_matrix_free(self, laplace_solver, rng):
        x = rng.normal(size=laplace_solver.N)
        assert np.abs(laplace_solver._A @ x -
                      laplace_solver.apply(x[:, None]).ravel()).max() < 1e-10

    def test_interior_dirichlet_solve(self, laplace_solver):
        x0 = np.array([2.5, 0.3, 0.1])
        uex = lambda p: 1.0 / np.linalg.norm(p - x0, axis=1)
        g = uex(laplace_solver.coarse.points)
        phi, rep = laplace_solver.solve(g)
        targets = np.array([[0.0, 0.0, 0.0], [0.4, 0.2, -0.1]])
        u = laplace_solver.evaluate(phi, targets)
        assert np.abs(u - uex(targets)).max() < 5e-3

    def test_near_surface_evaluation(self, laplace_solver):
        x0 = np.array([2.5, 0.3, 0.1])
        uex = lambda p: 1.0 / np.linalg.norm(p - x0, axis=1)
        g = uex(laplace_solver.coarse.points)
        phi, _ = laplace_solver.solve(g)
        trg = np.array([[0.0, 0.0, 0.97]])
        u = laplace_solver.evaluate(phi, trg)
        assert np.abs(u - uex(trg)).max() < 2e-2


class TestLaplaceConvergence:
    def test_error_decreases_with_refinement(self):
        # Parameters strong enough for the fine rule to resolve the check
        # distances (see DESIGN.md / bench_fig9 for the full study).
        conv_opts = NumericsOptions(patch_quad=7, check_order=5,
                                    upsample_eta=2, check_r_factor=0.15,
                                    gmres_max_iter=60)
        x0 = np.array([2.5, 0.3, 0.1])
        uex = lambda p: 1.0 / np.linalg.norm(p - x0, axis=1)
        targets = np.array([[0.0, 0.0, 0.0], [0.3, -0.2, 0.4]])
        errs = []
        for refine in (0, 1):
            s = cube_sphere(refine=refine, options=conv_opts)
            solver = BoundarySolver(s, kernel="laplace", options=conv_opts)
            g = uex(solver.coarse.points)
            phi, _ = solver.solve(g)
            u = solver.evaluate(phi, targets)
            errs.append(np.abs(u - uex(targets)).max())
        assert errs[1] < errs[0] / 2.0


class TestStokesSolver:
    @pytest.fixture(scope="class")
    def stokes_solver(self, sphere_surface, opts):
        s = BoundarySolver(sphere_surface, kernel="stokes", options=opts)
        s.assemble()
        return s

    def test_rank_completion_on_by_default(self, stokes_solver):
        assert stokes_solver.rank_completion

    def test_constant_density_identity(self, stokes_solver):
        c = np.array([0.4, -0.1, 0.2])
        phi = np.broadcast_to(c, (stokes_solver.N, 3)).copy()
        out = stokes_solver.apply(phi)
        # A[c] = c + n (int c.n dS) = c since int n dS = 0 on closed Gamma.
        assert np.abs(out - c).max() < 5e-2

    def test_interior_stokes_solve(self, stokes_solver):
        x0 = np.array([2.5, 0.3, 0.1])
        f0 = np.array([1.0, 2.0, -0.5])
        uex = lambda p: stokes_slp_apply(x0[None, :], f0[None, :], p)
        g = uex(stokes_solver.coarse.points)
        phi, rep = stokes_solver.solve(g.ravel())
        targets = np.array([[0.0, 0.0, 0.0], [0.3, 0.2, -0.2]])
        u = stokes_solver.evaluate(phi, targets)
        assert np.abs(u - uex(targets)).max() < 2e-2

    def test_gmres_iteration_cap(self, stokes_solver):
        g = np.zeros((stokes_solver.N, 3))
        g[:, 0] = stokes_solver.coarse.points[:, 2]
        phi, rep = stokes_solver.solve(g.ravel(), max_iter=10)
        assert rep.iterations <= 10

    def test_solve_report_fields(self, stokes_solver):
        g = np.zeros((stokes_solver.N, 3))
        phi, rep = stokes_solver.solve(g.ravel())
        assert rep.converged
        assert np.abs(phi).max() < 1e-12


def _interp_calls(monkeypatch, fn) -> int:
    """Calls of ``interp_matrix_2d`` made by ``fn()``, through every
    ``repro`` module that imported it."""
    import sys
    from repro.quadrature import interpolation
    orig = interpolation.interp_matrix_2d
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return orig(*args, **kwargs)

    with monkeypatch.context() as mp:
        for name, mod in list(sys.modules.items()):
            if (name.startswith("repro")
                    and getattr(mod, "interp_matrix_2d", None) is orig):
                mp.setattr(mod, "interp_matrix_2d", counting)
        fn()
    return len(calls)


class TestBatchedEvaluate:
    """Near-wall evaluation runs as one batched pipeline."""

    @pytest.fixture(scope="class")
    def solved(self, sphere_surface, opts):
        solver = BoundarySolver(sphere_surface, kernel="stokes", options=opts)
        x0 = np.array([2.5, 0.3, 0.1])
        f0 = np.array([1.0, 2.0, -0.5])
        g = stokes_slp_apply(x0[None, :], f0[None, :], solver.coarse.points)
        phi, _ = solver.solve(g.ravel())
        return solver, phi

    @staticmethod
    def _near_targets(m, seed):
        rng = np.random.default_rng(seed)
        d = rng.normal(size=(m, 3))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        return d * rng.uniform(0.85, 0.97, m)[:, None]

    def test_targets_are_near(self, solved):
        solver, _ = solved
        assert solver._near_mask(self._near_targets(200, 1), 1.5).all()

    def test_interp_calls_do_not_grow_with_targets(self, solved, monkeypatch):
        solver, phi = solved
        counts = [_interp_calls(monkeypatch, lambda: solver.evaluate(
            phi, self._near_targets(m, 2))) for m in (20, 200)]
        assert counts[0] > 0
        assert counts[1] <= 2 * counts[0]

    def test_concatenated_targets_match_separate_calls(self, solved):
        solver, phi = solved
        a = self._near_targets(30, 3)
        b = np.vstack([self._near_targets(20, 4), [[0.0, 0.0, 0.0],
                                                  [0.2, -0.1, 0.3]]])
        joint = solver.evaluate(phi, np.vstack([a, b]))
        apart = np.vstack([solver.evaluate(phi, a), solver.evaluate(phi, b)])
        assert np.abs(joint - apart).max() <= 1e-9 * np.abs(apart).max()
