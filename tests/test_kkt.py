"""Multiplier recovery and first-order residual checks."""

import numpy as np
import pytest

from paretocert.certificate import jsonable
from paretocert.kkt import (
    FIXED_POINT_MAX_ITERATIONS,
    H2ViolationError,
    KktWorkspace,
    MultiplierTriple,
)
from paretocert.problem import builtin, load_problem
from paretocert.trajectory import Grid, Trajectory, integrate_state, quad_weights, quadrature

UNIT = (1 / np.sqrt(2), 1 / np.sqrt(2))


def zero_traj(problem, n=100):
    grid = Grid(n)
    return integrate_state(problem, np.zeros((n + 1, problem.l)), grid)


class TestSolveAdjoint:
    def test_zero_point_gives_zero_adjoint(self):
        p = builtin("example_6_1")
        traj = zero_traj(p)
        pa = KktWorkspace(p, traj).solve_adjoint(UNIT, np.zeros(101))
        assert np.max(np.abs(pa)) == 0.0

    def test_zero_source_zero_terminal(self):
        p = builtin("example_6_2")
        traj = zero_traj(p, 60)
        pa = KktWorkspace(p, traj).solve_adjoint((0.6, 0.8), np.zeros(61))
        assert np.max(np.abs(pa)) == 0.0

    def test_linear_growth_closed_form(self):
        # x = (t, t), u = (1, 1), lambda = (1, 0), theta = 0:
        # p1' = -2t, p1(1) = 0  =>  p1(t) = 1 - t^2 (scheme exact on cubics)
        p = builtin("example_6_1")
        grid = Grid(50)
        nodes = grid.nodes
        traj = Trajectory(grid, np.stack([nodes, nodes], axis=1), np.ones((51, 2)))
        pa = KktWorkspace(p, traj).solve_adjoint((1.0, 0.0), np.zeros(51))
        np.testing.assert_allclose(pa[:, 0], 1 - nodes**2, atol=1e-12)
        np.testing.assert_allclose(pa[:, 1], 0.0, atol=1e-15)

    def test_terminal_condition_exact(self):
        p = builtin("damped_pendulum")
        grid = Grid(33)
        u = np.sin(grid.nodes)[:, None]
        traj = integrate_state(p, u, grid)
        pa = KktWorkspace(p, traj).solve_adjoint((0.3, 0.7), np.cos(grid.nodes))
        np.testing.assert_array_equal(pa[-1], np.zeros(2))


class TestRecoverTheta:
    def test_zero_multipliers_at_origin(self):
        p = builtin("example_6_1")
        traj = zero_traj(p)
        theta = KktWorkspace(p, traj).recover_theta(UNIT, np.zeros((101, 2)))
        assert np.max(np.abs(theta)) == 0.0

    def test_division_guard(self):
        doc = {
            "n": 1, "l": 1, "m": 1, "x0": [0.0],
            "L": ["x1^2 + u1^2"], "phi": ["u1"], "g": "x1",
        }
        p = load_problem(doc)
        traj = zero_traj(p, 20)
        with pytest.raises(H2ViolationError):
            KktWorkspace(p, traj).recover_theta((1.0,), np.zeros((21, 1)))

    def test_indefinite_example_direction_fixture(self):
        # at the zero point L_u vanishes, so theta stays zero
        p = builtin("example_6_2")
        traj = zero_traj(p)
        ws = KktWorkspace(p, traj)
        pa = ws.solve_adjoint(UNIT, np.zeros(101))
        theta = ws.recover_theta(UNIT, pa)
        assert np.max(np.abs(theta)) == 0.0

    def test_i0_component_residual_vanishes_by_construction(self):
        p = builtin("example_6_1")
        grid = Grid(80)
        u = np.stack([0.2 + 0.1 * np.sin(grid.nodes), 0.3 * np.ones(81)], axis=1)
        traj = integrate_state(p, u, grid)
        ws = KktWorkspace(p, traj)
        lam = np.asarray(UNIT)
        pa = ws.solve_adjoint(lam, np.zeros(81))
        theta = ws.recover_theta(lam, pa)
        from paretocert.kkt import _stationarity

        stat = _stationarity(ws.fields, lam, pa, theta)
        assert np.max(np.abs(stat[:, ws.i0])) <= 1e-14


class TestSolveKktSystem:
    def test_quadratic_example_origin(self):
        p = builtin("example_6_1")
        traj = zero_traj(p)
        pa, theta, report = KktWorkspace(p, traj).solve(UNIT)
        assert report.passed and report.converged
        assert report.iterations <= 3
        assert np.max(np.abs(pa)) == 0.0 and np.max(np.abs(theta)) == 0.0

    def test_indefinite_example_origin_any_weight(self):
        p = builtin("example_6_2")
        traj = zero_traj(p)
        for lam in [(1.0, 0.0), (0.0, 1.0), UNIT, (0.3, 0.7)]:
            pa, theta, report = KktWorkspace(p, traj).solve(lam)
            assert report.passed and report.iterations <= 3
            assert np.max(np.abs(pa)) == 0.0 and np.max(np.abs(theta)) == 0.0

    def test_strong_coupling_non_convergence_is_flagged(self):
        # a large constraint state-gradient makes the (p, theta) fixed point
        # expansive; the solver must surface that instead of hiding it
        doc = {
            "n": 1, "l": 1, "m": 1, "x0": [0.0],
            "L": ["x1^2 + u1^2"], "phi": ["u1"], "g": "50*x1 - u1 - 1",
        }
        p = load_problem(doc)
        grid = Grid(60)
        u = 0.1 * np.ones((61, 1))
        traj = integrate_state(p, u, grid)
        _, _, report = KktWorkspace(p, traj).solve((1.0,))
        assert not report.converged
        assert not report.passed
        assert report.iterations == FIXED_POINT_MAX_ITERATIONS

    def test_coupled_fixed_point_converges(self):
        # theta couples back into the adjoint through g_x = 0.5, weakly
        # enough that the (p, theta) iteration contracts over several steps
        doc = {
            "n": 1, "l": 1, "m": 1, "x0": [0.0],
            "L": ["x1^2 + u1^2"], "phi": ["u1 - 0.5*x1"], "g": "0.5*x1 - u1 - 1",
        }
        p = load_problem(doc)
        grid = Grid(60)
        traj = integrate_state(p, 0.1 * np.ones((61, 1)), grid)
        ws = KktWorkspace(p, traj)
        lam = np.array([1.0])
        _, theta, report = ws.solve(lam)
        assert report.converged
        assert 1 < report.iterations < 100
        assert report.adjoint_residual <= 1e-10
        assert np.min(theta) > 0  # the coupling is live at every node
        again = ws.recover_theta(lam, ws.solve_adjoint(lam, theta))
        np.testing.assert_allclose(again, theta, rtol=0, atol=1e-9)

    def test_perturbed_control_is_not_kkt(self):
        p = builtin("example_6_1")
        grid = Grid(100)
        u = np.zeros((101, 2))
        u[:, 0] += 0.1  # asymmetric shift off the known multiplier system
        traj = integrate_state(p, u, grid)
        _, _, report = KktWorkspace(p, traj).solve(UNIT)
        assert report.stationarity_residual > 1e-8
        assert not report.passed
        # the solved subsystem still holds when the iteration converged:
        # adjoint defect and terminal value are at solver accuracy
        assert report.converged
        assert report.adjoint_residual <= 1e-10
        assert report.terminal_residual == 0.0


class TestKktResiduals:
    def test_zero_triple_all_residuals_zero(self):
        p = builtin("example_6_1")
        traj = zero_traj(p)
        triple = MultiplierTriple(np.asarray(UNIT), np.zeros((101, 2)), np.zeros(101))
        report = KktWorkspace(p, traj).residuals(triple.lam, triple.p, triple.theta)
        residuals = report.to_dict()
        assert residuals.pop("passed") is True
        assert len(residuals) == 7 and all(v == 0.0 for v in residuals.values())

    def test_negative_theta_flags_sign_violation(self):
        p = builtin("example_6_1")
        traj = zero_traj(p)
        triple = MultiplierTriple(np.asarray(UNIT), np.zeros((101, 2)), -np.ones(101))
        report = KktWorkspace(p, traj).residuals(triple.lam, triple.p, triple.theta)
        assert report.theta_sign_violation == pytest.approx(1.0)
        assert not report.passed

    def test_inactive_constraint_with_positive_theta(self):
        doc = {
            "n": 1, "l": 1, "m": 1, "x0": [0.0],
            "L": ["x1^2 + u1^2"], "phi": ["u1"], "g": "0*u1 - 1",
        }
        p = load_problem(doc)
        traj = zero_traj(p, 40)
        triple = MultiplierTriple(np.array([1.0]), np.zeros((41, 1)), np.ones(41))
        report = KktWorkspace(p, traj).residuals(triple.lam, triple.p, triple.theta)
        assert report.complementarity_residual == pytest.approx(1.0)
        assert not report.passed

    def test_custom_tolerances_flow_through(self):
        # a sign violation of 1e-4 fails the default tolerance, passes 1e-3
        p = builtin("example_6_1")
        traj = zero_traj(p)
        triple = MultiplierTriple(np.asarray(UNIT), np.zeros((101, 2)), -1e-4 * np.ones(101))
        strict = KktWorkspace(p, traj).residuals(triple.lam, triple.p, triple.theta)
        assert not strict.passed
        report = KktWorkspace(p, traj, tol=1e-3).residuals(triple.lam, triple.p, triple.theta)
        assert report.passed

    def test_report_serialises(self):
        import json

        p = builtin("example_6_1")
        traj = zero_traj(p)
        _, _, report = KktWorkspace(p, traj).solve(UNIT)
        json.dumps(jsonable(report))

    def test_lambda_validation(self):
        with pytest.raises(ValueError):
            MultiplierTriple(np.array([-0.5, 0.5]), np.zeros((3, 2)), np.zeros(3))


class TestAdjointGradientConsistency:
    """Stationarity density vs central differences of the scalarized objective.

    The discrete objective is J(u) = sum_j lam_j * trapezoid(L_j along the
    integrated state).  Its exact nodal gradient at interior nodes equals the
    trapezoid weight times the stationarity density from the adjoint solve,
    up to the O(h^2) discretisation mismatch.
    """

    def _scalarized(self, problem, lam, u, grid):
        traj = integrate_state(problem, u, grid)
        from paretocert.problem import node_values

        total = 0.0
        for weight, ast in zip(lam, problem.L):
            total += weight * quadrature(node_values(problem, ast, traj), grid)
        return total

    def test_matches_central_differences(self):
        rng = np.random.default_rng(12)
        grid = Grid(400)
        nodes = grid.nodes
        w = quad_weights(grid)
        for name, lam in [("example_6_1", np.asarray(UNIT)),
                          ("damped_pendulum", np.array([0.8, 0.6]))]:
            problem = builtin(name)
            # smooth control keeping the constraint strictly inactive
            if name == "example_6_1":
                base = np.stack([np.exp(nodes) / 2, np.exp(nodes) / 2], axis=1)
            else:
                base = 0.4 * np.sin(2 * nodes)[:, None]
            u = base + 0.05 * np.sin(3 * nodes)[:, None] * np.ones(problem.l)
            traj = integrate_state(problem, u, grid)
            ws = KktWorkspace(problem, traj)
            assert np.max(ws.fields.g) < -1e-3  # theta = 0 is justified
            pa = ws.solve_adjoint(lam, np.zeros(len(nodes)))
            from paretocert.kkt import _stationarity

            density = _stationarity(ws.fields, lam, pa, np.zeros(len(nodes)))
            for _ in range(6):
                k = int(rng.integers(1, grid.n_intervals))
                comp = int(rng.integers(0, problem.l))
                step = 1e-6
                up = u.copy()
                up[k, comp] += step
                dn = u.copy()
                dn[k, comp] -= step
                fd = (self._scalarized(problem, lam, up, grid)
                      - self._scalarized(problem, lam, dn, grid)) / (2 * step)
                fd_density = fd / w[k]
                assert abs(density[k, comp] - fd_density) <= 1e-5 * (1 + abs(fd_density))
