"""Integration, quadrature, linearized dynamics, and their transposes."""

from array import array

import numpy as np
import pytest

from paretocert import trajectory
from paretocert.problem import builtin, load_problem, node_values
from paretocert.second_order import SecondOrderWorkspace
from paretocert.trajectory import (
    BackwardLinearMap,
    Direction,
    Grid,
    GridMismatchError,
    IntegrationError,
    LinearStateMap,
    Trajectory,
    _AffineScan,
    build_fields,
    hessian_blocks,
    integrate_state,
    quadrature,
    state_residual,
)


def zero_traj(problem, n):
    grid = Grid(n)
    return integrate_state(problem, np.zeros((n + 1, problem.l)), grid)


def reference_states(problem, u, grid):
    """The per-stage numpy loop that integrate_state replaced: every stage
    calls the compiled numpy lambdas on np.float64 scalars."""
    fns = [problem.compiled(a) for a in problem.phi]
    h = grid.h
    t_nodes = grid.nodes
    x = np.empty((grid.n_intervals + 1, problem.n))
    x[0] = problem.x0

    def f(t, xv, uv):
        v = (t, *xv, *uv)
        return np.array([fn(v) for fn in fns], dtype=float)

    with np.errstate(all="ignore"):
        for k in range(grid.n_intervals):
            tk = t_nodes[k]
            uk, ue = u[k], u[k + 1]
            um = 0.5 * (uk + ue)
            xk = x[k]
            k1 = f(tk, xk, uk)
            k2 = f(tk + h / 2, xk + (h / 2) * k1, um)
            k3 = f(tk + h / 2, xk + (h / 2) * k2, um)
            k4 = f(tk + h, xk + h * k3, ue)
            x[k + 1] = xk + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
            if not np.all(np.isfinite(x[k + 1])):
                raise IntegrationError("non-finite state during integration", k + 1)
    return x


def scalar_problem(phi, x0=1.0):
    return load_problem({"n": 1, "l": 1, "m": 1, "x0": [x0], "L": ["x1^2"],
                         "phi": [phi], "g": "u1 - 10"})


# 6-state chain with sin, exp, division and powers; numpy's float64 exp is not
# libm's on every CPU, so this also pins which exp the integrator calls
CHAIN_DOC = {
    "n": 6, "l": 2, "m": 1,
    "x0": [0.3, -0.2, 0.5, 0.1, -0.4, 0.25],
    "L": ["x1^2 + u1^2"],
    "phi": [
        "0.7 * sin(x2) - x1 + u1",
        "0.4 * x1 * x3 + exp(-x2^2) - x2",
        "x2^2 + 1.3 * x4 - x3 + cos(t)",
        "0.9 * sin(x5) - x4^3 / (1 + x4^2)",
        "x4 * x6 + exp(0.5 * x6) - x5",
        "1.1 * x5^2 - x6 + 0.8 * u2",
    ],
    "g": "x1 - u1 - u2",
}


def smooth_controls(grid, l):
    t = grid.nodes
    return np.stack([0.5 * np.sin(3 * t + j) + 0.2 * np.cos(7 * t) for j in range(l)], axis=1)


class TestQuadrature:
    def test_indefinite_cost_integrand(self):
        grid = Grid(1000)
        t = grid.nodes
        value = quadrature(2 * t**2 - 2, grid)
        assert value == pytest.approx(-4.0 / 3.0, abs=1e-6)

    def test_constant_is_exact(self):
        for n in (2, 7, 64):
            assert quadrature(np.full(n + 1, 3.25), Grid(n)) == pytest.approx(3.25, abs=1e-15)

    def test_affine_is_exact(self):
        for n in (2, 5, 100):
            grid = Grid(n)
            assert quadrature(grid.nodes, grid) == pytest.approx(0.5, abs=1e-15)

    def test_sample_count_checked(self):
        with pytest.raises(GridMismatchError):
            quadrature(np.zeros(5), Grid(10))

    def test_second_order_refinement_on_smooth_integrand(self):
        exact = np.exp(1.0) - 1.0
        errors = [abs(quadrature(np.exp(Grid(n).nodes), Grid(n)) - exact)
                  for n in (100, 200, 400)]
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.5 <= coarse / fine <= 4.5


class TestIntegrateState:
    def test_unit_controls_give_linear_state(self):
        p = builtin("example_6_1")
        grid = Grid(100)
        u = np.ones((101, 2))
        traj = integrate_state(p, u, grid)
        expected = np.stack([grid.nodes, grid.nodes], axis=1)
        assert np.max(np.abs(traj.x - expected)) <= 1e-10

    def test_zero_controls_keep_initial_state(self):
        p = builtin("example_6_1")
        traj = zero_traj(p, 40)
        assert np.max(np.abs(traj.x)) == 0.0

    def test_sine_control_matches_antiderivative(self):
        # closed-form oracle: x1(1) = integral of sin = 1 - cos(1)
        p = builtin("example_6_1")
        grid = Grid(200)
        u = np.stack([np.sin(grid.nodes), np.zeros(201)], axis=1)
        traj = integrate_state(p, u, grid)
        assert traj.x[-1, 0] == pytest.approx(1.0 - np.cos(1.0), abs=1e-5)

    def test_initial_state_is_x0(self):
        p = builtin("damped_pendulum")
        traj = zero_traj(p, 16)
        np.testing.assert_array_equal(traj.x[0], p.x0)

    def test_non_finite_reports_node(self):
        doc = {
            "n": 1, "l": 1, "m": 1,
            "x0": [1.0],
            "L": ["x1^2"],
            "phi": ["1/(1 - x1 - t)"],
            "g": "u1 - 10",
        }
        p = load_problem(doc)
        with pytest.raises(IntegrationError) as err:
            integrate_state(p, np.zeros((101, 1)), Grid(100))
        assert err.value.node == 1

    @pytest.mark.parametrize("phi, x0, node", [
        ("1/(0.5 - t)", 1.0, 5),
        ("log(1 - t) + u1", 1.0, 10),
        ("x1^40", 1e9, 1),
        ("exp(x1)", 800.0, 1),
    ])
    def test_failure_node_matches_reference(self, phi, x0, node):
        p = scalar_problem(phi, x0)
        grid = Grid(10)
        u = np.full((11, 1), 0.4)
        with pytest.raises(IntegrationError) as err:
            integrate_state(p, u, grid)
        assert err.value.node == node
        with pytest.raises(IntegrationError) as ref:
            reference_states(p, u, grid)
        assert ref.value.node == node

    def test_inf_inside_a_finite_stage_is_kept(self):
        # -1/x1^2 is -inf at x1 = 0 and exp(-inf) = 0: numpy arithmetic keeps
        # x at zero, while Python float division raises
        p = scalar_problem("exp(-1 / x1^2)", 0.0)
        traj = integrate_state(p, np.zeros((101, 1)), Grid(100))
        assert traj.x.tobytes() == np.zeros((101, 1)).tobytes()

    @pytest.mark.parametrize("case", [
        "example_6_1", "example_6_2", "damped_pendulum", "scalar", "chain"])
    def test_matches_reference_loop(self, case):
        p = {"scalar": lambda: scalar_problem("x1 * cos(t) - x1^3 + log(2 + u1)"),
             "chain": lambda: load_problem(CHAIN_DOC)}.get(case, lambda: builtin(case))()
        for grid in (Grid(50), Grid(300)):
            u = smooth_controls(grid, p.l)
            got = integrate_state(p, u, grid).x
            assert np.abs(got).max() > 0.1
            assert got.tobytes() == reference_states(p, u, grid).tobytes()

    def test_numpy_rerun_matches_fast_path(self):
        p = load_problem(CHAIN_DOC)
        grid = Grid(50)
        u = smooth_controls(grid, p.l)
        fast, exact = p.rk4
        fast_rows, exact_rows = array("d"), array("d")
        with np.errstate(all="ignore"):
            assert fast(grid.nodes.tolist(), u.tolist(), p.x0.tolist(), grid.h, fast_rows) == 0
            assert exact(grid.nodes, u, p.x0, grid.h, exact_rows) == 0
        assert len(fast_rows) == 51 * 6
        assert fast_rows.tobytes() == exact_rows.tobytes()

    def test_shape_checked(self):
        p = builtin("example_6_1")
        with pytest.raises(GridMismatchError):
            integrate_state(p, np.zeros((5, 2)), Grid(100))


class TestStateResidual:
    def test_zero_point_is_exactly_feasible(self):
        p = builtin("example_6_1")
        assert state_residual(p, zero_traj(p, 100)) == 0.0

    def test_injected_defect_is_visible(self):
        p = builtin("example_6_1")
        traj = zero_traj(p, 50)
        x = traj.x.copy()
        x[25, 0] += 1.0
        assert state_residual(p, Trajectory(traj.grid, x, traj.u)) >= 1.0

    def test_refinement_ratio_is_second_order(self):
        # nonlinear dynamics: the trapezoid defect dominates at O(h^2)
        p = builtin("damped_pendulum")
        residuals = []
        for n in (100, 200, 400):
            grid = Grid(n)
            u = np.sin(3 * grid.nodes)[:, None]
            residuals.append(state_residual(p, integrate_state(p, u, grid)))
        for coarse, fine in zip(residuals, residuals[1:]):
            assert 3.5 <= coarse / fine <= 4.5

    def test_integrator_output_residual_small(self):
        p = builtin("damped_pendulum")
        grid = Grid(200)
        u = np.sin(3 * grid.nodes)[:, None]
        assert state_residual(p, integrate_state(p, u, grid)) < 1e-4

    def test_affine_dynamics_refinement_at_least_fourfold(self):
        # phi affine in (x, u): each doubling shrinks the residual by >= 3.5x
        # until the rounding floor
        p = builtin("example_6_1")
        residuals = []
        for n in (50, 100, 200):
            grid = Grid(n)
            u = np.stack([np.sin(3 * grid.nodes), np.cos(2 * grid.nodes)], axis=1)
            residuals.append(state_residual(p, integrate_state(p, u, grid)))
        for coarse, fine in zip(residuals, residuals[1:]):
            assert fine <= 1e-12 or coarse / fine >= 3.5


class TestLinearizedState:
    """The workspace's linear state map: x' = phi_x x + phi_u u along traj."""

    def test_constant_direction_at_origin(self):
        p = builtin("example_6_1")
        traj = zero_traj(p, 64)
        x_dir = SecondOrderWorkspace(p, traj).linmap.apply(np.ones((65, 2)))
        expected = np.stack([traj.grid.nodes, traj.grid.nodes], axis=1)
        assert np.max(np.abs(x_dir - expected)) <= 1e-12

    def test_zero_input_zero_output(self):
        p = builtin("damped_pendulum")
        linmap = SecondOrderWorkspace(p, zero_traj(p, 32)).linmap
        assert np.max(np.abs(linmap.apply(np.zeros((33, 1))))) == 0.0

    def test_superposition(self):
        p = builtin("damped_pendulum")
        grid = Grid(50)
        u_ref = 0.3 * np.cos(2 * grid.nodes)[:, None]
        linmap = SecondOrderWorkspace(p, integrate_state(p, u_ref, grid)).linmap
        rng = np.random.default_rng(1)
        u1 = rng.normal(size=(51, 1))
        u2 = rng.normal(size=(51, 1))
        a, b = 0.7, -1.3
        lhs = linmap.apply(a * u1 + b * u2)
        rhs = a * linmap.apply(u1) + b * linmap.apply(u2)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


class TestLinearMapInternals:
    def _random_map(self, rng, n_nodes=17, n=2, l=2):
        A = 0.5 * rng.normal(size=(n_nodes, n, n))
        B = rng.normal(size=(n_nodes, n, l))
        return LinearStateMap(A, B, Grid(n_nodes - 1))

    def test_scan_matches_sequential_recurrence(self):
        rng = np.random.default_rng(3)
        for count in (1, 2, 3, 8, 13):
            M = 0.3 * rng.normal(size=(count, 2, 2))
            d = rng.normal(size=(count, 2))
            got = _AffineScan(M).run(d)
            y = np.zeros(2)
            for k in range(count):
                y = M[k] @ y + d[k]
                np.testing.assert_allclose(got[k], y, rtol=1e-12, atol=1e-12)

    def test_transposed_scan_matches_sequential_adjoint_recurrence(self):
        # mu_{N-1} = w_{N-1}, mu_k = w_k + M_{k+1}^T mu_{k+1}: weights on y_1..y_N
        rng = np.random.default_rng(8)
        for n in (1, 2, 6):
            for count in (1, 2, 3, 8, 13):
                M = 0.3 * rng.normal(size=(count, n, n))
                w = rng.normal(size=(count, n))
                got = _AffineScan(M).run(w, transpose=True)
                mu = w[-1]
                np.testing.assert_allclose(got[-1], mu, rtol=1e-12, atol=1e-12)
                for k in range(count - 2, -1, -1):
                    mu = w[k] + M[k + 1].T @ mu
                    np.testing.assert_allclose(got[k], mu, rtol=1e-12, atol=1e-12)

    def test_nonzero_lapack_info_raises(self, monkeypatch):
        monkeypatch.setattr(trajectory, "dtbtrs", lambda ab, b, **kw: (b, -2))
        scan = _AffineScan(np.zeros((4, 2, 2)))
        with pytest.raises(np.linalg.LinAlgError):
            scan.run(np.ones((4, 2)))

    def test_apply_matches_stepwise_rk4(self):
        # independent reference: textbook per-step stages on interpolated data
        rng = np.random.default_rng(4)
        n_nodes, n, l = 9, 2, 2
        A = 0.5 * rng.normal(size=(n_nodes, n, n))
        B = rng.normal(size=(n_nodes, n, l))
        u = rng.normal(size=(n_nodes, l))
        grid = Grid(n_nodes - 1)
        h = grid.h
        x = np.zeros((n_nodes, n))
        for k in range(n_nodes - 1):
            am = 0.5 * (A[k] + A[k + 1])
            r0, re = B[k] @ u[k], B[k + 1] @ u[k + 1]
            rm = 0.5 * (r0 + re)
            k1 = A[k] @ x[k] + r0
            k2 = am @ (x[k] + h / 2 * k1) + rm
            k3 = am @ (x[k] + h / 2 * k2) + rm
            k4 = A[k + 1] @ (x[k] + h * k3) + re
            x[k + 1] = x[k] + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        got = LinearStateMap(A, B, grid).apply(u)
        np.testing.assert_allclose(got, x, rtol=1e-11, atol=1e-13)

    def test_transpose_is_exact_adjoint(self):
        rng = np.random.default_rng(5)
        lin = self._random_map(rng, n_nodes=23)
        for _ in range(5):
            u = rng.normal(size=(23, 2))
            v = rng.normal(size=(23, 2))
            lhs = float(np.sum(v * lin.apply(u)))
            rhs = float(np.sum(lin.apply_transpose(v) * u))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestBackwardMap:
    def test_polynomial_source_closed_form(self):
        # p' = -2t, p(1) = 0  =>  p(t) = 1 - t^2; the scheme is exact on cubics
        grid = Grid(40)
        A = np.zeros((41, 1, 1))
        s = (2 * grid.nodes)[:, None]
        p = BackwardLinearMap(A, grid).solve(s)
        np.testing.assert_allclose(p[:, 0], 1 - grid.nodes**2, atol=1e-13)

    def test_terminal_value_is_exactly_zero(self):
        rng = np.random.default_rng(6)
        grid = Grid(30)
        A = rng.normal(size=(31, 2, 2))
        s = rng.normal(size=(31, 2))
        p = BackwardLinearMap(A, grid).solve(s)
        np.testing.assert_array_equal(p[-1], np.zeros(2))

    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_solve_matches_stepwise_rk4(self, n):
        # independent reference: textbook stages of p' = -A^T p - s stepping
        # from t = 1 down to t = 0 (step -h) on linearly interpolated data
        rng = np.random.default_rng(10 + n)
        n_nodes = 9
        A = 0.5 * rng.normal(size=(n_nodes, n, n))
        s = rng.normal(size=(n_nodes, n))
        grid = Grid(n_nodes - 1)
        h = -grid.h

        def f(a, src, p):
            return -a.T @ p - src

        p = np.zeros((n_nodes, n))
        for k in range(n_nodes - 1, 0, -1):
            am, sm = 0.5 * (A[k] + A[k - 1]), 0.5 * (s[k] + s[k - 1])
            k1 = f(A[k], s[k], p[k])
            k2 = f(am, sm, p[k] + h / 2 * k1)
            k3 = f(am, sm, p[k] + h / 2 * k2)
            k4 = f(A[k - 1], s[k - 1], p[k] + h * k3)
            p[k - 1] = p[k] + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        got = BackwardLinearMap(A, grid).solve(s)
        np.testing.assert_allclose(got, p, rtol=1e-11, atol=1e-13)

    def test_defect_vanishes_on_own_solution(self):
        rng = np.random.default_rng(7)
        grid = Grid(25)
        A = 0.4 * rng.normal(size=(26, 2, 2))
        s = rng.normal(size=(26, 2))
        solver = BackwardLinearMap(A, grid)
        p = solver.solve(s)
        assert solver.defect(s, p) <= 1e-14

    def test_defect_detects_perturbation(self):
        grid = Grid(20)
        A = np.zeros((21, 1, 1))
        s = np.zeros((21, 1))
        solver = BackwardLinearMap(A, grid)
        p = solver.solve(s)
        p[10, 0] += 1.0
        assert solver.defect(s, p) >= 0.5


class TestSerialization:
    def test_trajectory_round_trip(self):
        p = builtin("example_6_1")
        traj = zero_traj(p, 10)
        again = Trajectory.from_dict(traj.to_dict())
        np.testing.assert_array_equal(again.x, traj.x)
        np.testing.assert_array_equal(again.u, traj.u)
        assert again.grid.n_intervals == traj.grid.n_intervals

    def test_direction_round_trip(self):
        grid = Grid(4)
        d = Direction(grid, np.zeros((5, 2)), np.ones((5, 2)))
        again = Direction.from_dict(d.to_dict())
        assert isinstance(again, Direction)
        np.testing.assert_array_equal(again.u, d.u)

    def test_shape_validation(self):
        with pytest.raises(GridMismatchError):
            Trajectory(Grid(4), np.zeros((3, 2)), np.zeros((5, 2)))


class TestFields:
    def test_hessians_match_hand_values(self):
        p = builtin("example_6_2")
        traj = zero_traj(p, 8)
        f = build_fields(p, traj)
        h = hessian_blocks(p, traj)
        # running cost 1: x1^2 - u1^2, Hessian diag(2, 0, -2, 0) in (x1,x2,u1,u2)
        np.testing.assert_allclose(h.L[0, 3], np.diag([2.0, 0.0, -2.0, 0.0]))
        np.testing.assert_allclose(f.gx[2], [1.0, 1.0])
        np.testing.assert_allclose(f.gu[2], [-1.0, -1.0])
        np.testing.assert_allclose(h.g, 0.0)

    @pytest.mark.parametrize("L, label", [
        (["x1^2 + u1^2", "0 - 1 / u1"], "L gradients"),  # L2_u overflows
        (["x1^2 + u1^2", "x1^2"], "dynamics jacobian"),  # phi_u overflows
    ])
    def test_nonfinite_entry_names_its_node(self, L, label):
        # u1 = 1e-200 at node 3 only; 1/u1^2 overflows to inf there
        p = load_problem({"n": 1, "l": 1, "m": 2, "L": L, "phi": ["0 - 1 / u1"],
                          "g": "u1 - 10", "x0": [0.0]})
        grid = Grid(6)
        u = np.ones((7, 1))
        u[3] = 1e-200
        with pytest.raises(IntegrationError, match=label) as err:
            build_fields(p, Trajectory(grid, np.zeros((7, 1)), u))
        assert err.value.node == 3

    def test_mirrored_hessian_entries_are_copied(self, monkeypatch):
        p = builtin("example_6_1")
        grid = Grid(12)
        traj = integrate_state(p, smooth_controls(grid, p.l), grid)
        calls = []

        def counted(problem, ast, tr):
            calls.append(ast)
            return node_values(problem, ast, tr)

        monkeypatch.setattr(trajectory, "node_values", counted)
        hessian_blocks(p, traj)
        # 5 blocks (2 costs, 2 dynamics, 1 constraint) of 4 x 4 entries, with
        # the 6 entries below each diagonal copied from their mirrors
        assert len(calls) == 50

    @pytest.mark.parametrize("name", ["example_6_1", "damped_pendulum"])
    def test_hessian_blocks_equal_full_evaluation(self, name):
        p = builtin(name)
        grid = Grid(12)
        traj = integrate_state(p, smooth_controls(grid, p.l), grid)
        h = hessian_blocks(p, traj)
        nl = p.n + p.l

        def full(table):
            return np.stack([np.stack([node_values(p, table.hess[a][b], traj)
                                       for b in range(nl)], axis=1)
                             for a in range(nl)], axis=1)

        np.testing.assert_array_equal(h.L, np.stack([full(t) for t in p.L_derivs]))
        np.testing.assert_array_equal(h.phi, np.stack([full(t) for t in p.phi_derivs]))
        np.testing.assert_array_equal(h.g, full(p.g_derivs))

    def test_jacobians_on_nonlinear_problem(self):
        p = builtin("damped_pendulum")
        traj = zero_traj(p, 8)
        f = build_fields(p, traj)
        A, B = f.phix, f.phiu
        # phi = (x2, sin(x1) - x2 + u1) at x = (0.5, 0)
        np.testing.assert_allclose(A[0], [[0.0, 1.0], [np.cos(0.5), -1.0]])
        np.testing.assert_allclose(B[0], [[0.0], [1.0]])
