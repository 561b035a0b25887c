"""Critical cones, curvature, coercivity, and second-order verdicts."""

import numpy as np
import pytest

from paretocert.certificate import decide_verdict, jsonable
from paretocert.kkt import MultiplierTriple
from paretocert.problem import builtin, load_problem
from paretocert.second_order import (
    CurvatureForm,
    SecondOrderWorkspace,
    coercivity_check,
    random_critical_directions,
    socn_verdict,
    socs_verdict,
    worst_critical_direction,
)
from paretocert.simplex import simplex_grid, unit_weight_grid
from paretocert.trajectory import (
    Direction,
    Grid,
    GridMismatchError,
    integrate_state,
    quad_weights,
    quadrature,
)

UNIT = np.array([1 / np.sqrt(2), 1 / np.sqrt(2)])


def zero_traj(problem, n=200):
    grid = Grid(n)
    return integrate_state(problem, np.zeros((n + 1, problem.l)), grid)


def zero_ws(problem, n=200):
    return SecondOrderWorkspace(problem, zero_traj(problem, n))


def ramp_direction(grid):
    """x = (t, t), u = (1, 1) on the grid."""
    t = grid.nodes
    return Direction(grid, np.stack([t, t], axis=1), np.ones((len(t), 2)))


def zero_triple(problem, grid, lam):
    k = grid.n_intervals + 1
    return MultiplierTriple(np.asarray(lam, dtype=float),
                            np.zeros((k, problem.n)), np.zeros(k))


class TestIsCritical:
    def test_ramp_is_critical_for_indefinite_example(self):
        ws = zero_ws(builtin("example_6_2"))
        grid = ws.traj.grid
        cm = ws.membership(ramp_direction(grid))
        assert cm.passed
        assert cm.c1_residual == 0.0  # cost gradients vanish at the origin
        assert cm.c3_residual == 0.0  # 2t - 2 <= 0 on [0, 1]
        assert len(cm.active_nodes) == grid.n_intervals + 1

    def test_zero_direction_passes(self):
        ws = zero_ws(builtin("example_6_1"))
        grid = ws.traj.grid
        k = grid.n_intervals + 1
        cm = ws.membership(Direction(grid, np.zeros((k, 2)), np.zeros((k, 2))))
        assert cm.passed
        assert (cm.c1_residual, cm.c2_residual, cm.c3_residual) == (0.0, 0.0, 0.0)

    def test_cone_property_under_positive_scaling(self):
        ws = zero_ws(builtin("example_6_1"))
        d = ramp_direction(ws.traj.grid)
        scaled = Direction(ws.traj.grid, 2 * d.x, 2 * d.u)
        assert ws.membership(d).passed
        assert ws.membership(scaled).passed

    def test_residual_scales_linearly(self):
        p = builtin("example_6_2")
        traj = zero_traj(p, 60)
        k = 61
        rng = np.random.default_rng(0)
        u = rng.standard_normal((k, 2))
        ws = SecondOrderWorkspace(p, traj)
        x = ws.linmap.apply(u)
        d = Direction(traj.grid, x, u)
        base = ws.membership(d)
        doubled = ws.membership(Direction(traj.grid, 2 * x, 2 * u))
        assert doubled.c3_residual == pytest.approx(2 * base.c3_residual, rel=1e-12)

    def test_dynamics_defect_detected(self):
        ws = zero_ws(builtin("example_6_1"), 50)
        d = ramp_direction(ws.traj.grid)
        broken = Direction(ws.traj.grid, d.x + 0.5, d.u)
        cm = ws.membership(broken)
        assert cm.c2_residual >= 0.5
        assert not cm.passed

    def test_inactive_nodes_unconstrained(self):
        p = builtin("damped_pendulum")  # g = u1 - 10 stays far from zero
        traj = zero_traj(p, 40)
        k = 41
        u = 5 * np.ones((k, 1))
        ws = SecondOrderWorkspace(p, traj)
        cm = ws.membership(Direction(traj.grid, ws.linmap.apply(u), u))
        assert len(cm.active_nodes) == 0
        assert cm.c3_residual == 0.0

    def test_activity_threshold_is_the_workspaces(self):
        p = builtin("damped_pendulum")  # g = -10 at every node
        traj = zero_traj(p, 40)
        u = 5 * np.ones((41, 1))
        ws = SecondOrderWorkspace(p, traj, tol=1e-6, eps_act=10.0)
        cm = ws.membership(Direction(traj.grid, ws.linmap.apply(u), u))
        assert len(cm.active_nodes) == 41
        assert cm.c3_residual == pytest.approx(5.0)
        assert not cm.passed
        assert (cm.eps_act, cm.tol) == (10.0, 1e-6)

    def test_grid_mismatch(self):
        ws = zero_ws(builtin("example_6_1"), 50)
        with pytest.raises(GridMismatchError):
            ws.membership(ramp_direction(Grid(20)))

    def test_variant_recorded(self):
        ws = zero_ws(builtin("example_6_1"), 20)
        cm = ws.membership(ramp_direction(ws.traj.grid), variant="necessary")
        assert cm.variant == "necessary"
        with pytest.raises(ValueError):
            ws.membership(ramp_direction(ws.traj.grid), variant="bogus")


def q_of(ws, triple, d):
    return CurvatureForm(ws, triple).q_value(d.x, d.u)


class TestQuadraticForm:
    def test_indefinite_example_reference_value(self):
        p = builtin("example_6_2")
        ws = zero_ws(p, 1000)
        d = ramp_direction(ws.traj.grid)
        for lam in [(1.0, 0.0), (0.0, 1.0), tuple(UNIT), (0.5, 0.5)]:
            q = q_of(ws, zero_triple(p, ws.traj.grid, lam), d)
            assert q == pytest.approx(-4.0 / 3.0 * sum(lam), abs=1e-5)

    def test_zero_direction(self):
        p = builtin("example_6_1")
        ws = zero_ws(p, 100)
        k = 101
        d = Direction(ws.traj.grid, np.zeros((k, 2)), np.zeros((k, 2)))
        assert q_of(ws, zero_triple(p, ws.traj.grid, UNIT), d) == 0.0

    def test_quadratic_example_is_pure_cost_integral(self):
        p = builtin("example_6_1")
        traj = zero_traj(p, 150)
        rng = np.random.default_rng(4)
        k = 151
        u = rng.standard_normal((k, 2))
        ws = SecondOrderWorkspace(p, traj)
        x = ws.linmap.apply(u)
        d = Direction(traj.grid, x, u)
        q = q_of(ws, zero_triple(p, traj.grid, (0.5, 0.5)), d)
        # independent evaluation of the integrand
        expected = quadrature((x**2).sum(axis=1) + (u**2).sum(axis=1), traj.grid)
        assert q == pytest.approx(expected, rel=1e-12)
        assert q > 0

    def test_q_value_matches_blockwise_contraction(self):
        p = builtin("damped_pendulum")
        grid = Grid(80)
        u_ref = 0.3 * np.sin(grid.nodes)[:, None]
        traj = integrate_state(p, u_ref, grid)
        rng = np.random.default_rng(5)
        triple = MultiplierTriple(np.array([0.6, 0.8]),
                                  rng.standard_normal((81, 2)),
                                  rng.standard_normal(81) ** 2)
        u = rng.standard_normal((81, 1))
        ws = SecondOrderWorkspace(p, traj)
        x = ws.linmap.apply(u)
        # reference: contract each Hessian block with z, then weight the terms
        h, z = ws.hessians, np.hstack([x, u])
        cost = triple.lam @ np.einsum("ka,jkab,kb->jk", z, h.L, z)
        dyn = np.einsum("ik,ki->k", np.einsum("ka,ikab,kb->ik", z, h.phi, z), triple.p)
        con = triple.theta * np.einsum("ka,kab,kb->k", z, h.g, z)
        expected = (cost + dyn + con) @ quad_weights(grid)
        assert abs(expected) > 1e-3
        assert CurvatureForm(ws, triple).q_value(x, u) == pytest.approx(expected, rel=1e-12)

    def test_homogeneity(self):
        p = builtin("example_6_2")
        traj = zero_traj(p, 120)
        rng = np.random.default_rng(6)
        ws = SecondOrderWorkspace(p, traj)
        form = CurvatureForm(ws, zero_triple(p, traj.grid, UNIT))
        for _ in range(10):
            u = rng.standard_normal((121, 2))
            x = ws.linmap.apply(u)
            base = form.q_value(x, u)
            for alpha in (-1.0, 0.5, 2.0):
                got = form.q_value(alpha * x, alpha * u)
                assert got == pytest.approx(alpha**2 * base, rel=1e-10)


class TestCoercivity:
    def test_quadratic_example_margin_zero(self):
        r = coercivity_check(zero_ws(builtin("example_6_1"), 100), (0.5, 0.5), gamma0=1.0)
        assert r.passed
        assert r.margin == pytest.approx(0.0, abs=1e-12)

    def test_negative_definite_control_hessian(self):
        r = coercivity_check(zero_ws(builtin("example_6_2"), 100), (0.5, 0.5), gamma0=0.1)
        assert not r.passed
        assert r.min_eigenvalue == pytest.approx(-1.0, abs=1e-12)

    def test_degenerate_weight(self):
        r = coercivity_check(zero_ws(builtin("example_6_1"), 100), (1.0, 0.0), gamma0=1.0)
        assert not r.passed
        assert r.margin == pytest.approx(-1.0, abs=1e-12)

    def test_gamma0_validated(self):
        with pytest.raises(ValueError):
            coercivity_check(zero_ws(builtin("example_6_1"), 20), (0.5, 0.5), gamma0=0.0)

    @pytest.mark.parametrize("gamma0", [np.nan, np.inf])
    def test_nonfinite_gamma0_rejected(self, gamma0):
        with pytest.raises(ValueError, match="finite"):
            coercivity_check(zero_ws(builtin("example_6_1"), 20), (0.5, 0.5), gamma0=gamma0)


class TestWorstDirection:
    def test_indefinite_example_finds_negative_curvature(self):
        p = builtin("example_6_2")
        ws = zero_ws(p, 200)
        triple = zero_triple(p, ws.traj.grid, UNIT)
        result = worst_critical_direction(ws, triple, n_restarts=3, seed=1)
        assert result.q_value < 0
        cm = ws.membership(result.direction)
        assert max(cm.c1_residual, cm.c2_residual, cm.c3_residual) <= 1e-6

    def test_quadratic_example_stays_positive(self):
        p = builtin("example_6_1")
        ws = zero_ws(p, 200)
        triple = zero_triple(p, ws.traj.grid, (0.5, 0.5))
        result = worst_critical_direction(ws, triple, n_restarts=5, seed=2)
        assert all(v > 0 for v in result.restart_values)

    def test_no_restarts_is_rejected(self):
        p = builtin("example_6_1")
        ws = zero_ws(p, 20)
        triple = zero_triple(p, ws.traj.grid, (0.5, 0.5))
        with pytest.raises(ValueError, match="n_restarts"):
            worst_critical_direction(ws, triple, n_restarts=0)

    def test_matches_dense_eigensolve_on_coarse_grid(self):
        # unconstrained-at-origin convex fixture; oracle assembles the reduced
        # Hessian column by column through the public linearized-state map and
        # solves the generalized symmetric eigenproblem
        doc = {
            "n": 1, "l": 1, "m": 1, "x0": [0.0],
            "L": ["x1^2 + u1^2"], "phi": ["u1 - 0.5*x1"], "g": "u1 - 10",
        }
        p = load_problem(doc)
        n_grid = 16
        traj = zero_traj(p, n_grid)
        ws = SecondOrderWorkspace(p, traj)
        k = n_grid + 1
        w = quad_weights(traj.grid)
        columns = []
        for j in range(k):
            e = np.zeros((k, 1))
            e[j, 0] = 1.0
            x = ws.linmap.apply(e)
            columns.append(np.hstack([x, e]))
        # bilinear form matrix and control Gram matrix
        M = np.empty((k, k))
        for a in range(k):
            za = columns[a]
            for b in range(k):
                zb = columns[b]
                M[a, b] = np.sum(w * (2 * za[:, 0] * zb[:, 0] + 2 * za[:, 1] * zb[:, 1]))
        M = 0.5 * (M + M.T)
        G = np.diag(w)
        from scipy.linalg import eigh

        lam_min = eigh(M, G, eigvals_only=True)[0]
        triple = zero_triple(p, traj.grid, (1.0,))
        result = worst_critical_direction(ws, triple, n_restarts=4, max_iters=500, seed=3)
        assert result.q_value == pytest.approx(lam_min, abs=1e-6)

    def test_search_gradient_is_exact(self):
        p = builtin("damped_pendulum")
        grid = Grid(30)
        traj = integrate_state(p, 0.2 * np.sin(grid.nodes)[:, None], grid)
        ws = SecondOrderWorkspace(p, traj)
        rng = np.random.default_rng(8)
        triple = MultiplierTriple(np.array([0.6, 0.8]),
                                  rng.standard_normal((31, 2)),
                                  rng.standard_normal(31) ** 2)
        form = CurvatureForm(ws, triple)
        u = rng.standard_normal((31, 1))
        x = ws.linmap.apply(u)
        grad = form.gradient(x, u)
        du = rng.standard_normal((31, 1))
        eps = 1e-6
        xp = ws.linmap.apply(u + eps * du)
        xm = ws.linmap.apply(u - eps * du)
        fd = (form.q_value(xp, u + eps * du) - form.q_value(xm, u - eps * du)) / (2 * eps)
        assert float(np.sum(grad * du)) == pytest.approx(fd, rel=1e-7)


class TestRandomProbes:
    def test_probes_are_critical(self):
        ws = zero_ws(builtin("example_6_1"), 100)
        dirs = random_critical_directions(ws, 10, seed=0)
        assert len(dirs) == 10
        for d in dirs:
            assert ws.membership(d, "sufficient").passed

    def test_probes_have_unit_control_norm(self):
        ws = zero_ws(builtin("example_6_2"), 60)
        dirs = random_critical_directions(ws, 5, seed=1)
        assert dirs
        for d in dirs:
            assert ws.control_dot(d.u, d.u) == pytest.approx(1.0, rel=1e-12)
            # the trapezoid L2 norm of the control samples
            norm_sq = quadrature((d.u**2).sum(axis=1), ws.traj.grid)
            assert norm_sq == pytest.approx(1.0, rel=1e-12)

    def test_project_unit_rejects_zero_control(self):
        ws = zero_ws(builtin("example_6_1"), 20)
        assert ws.project_unit(np.zeros((21, 2)), max_passes=3) is None


class TestSimplexGrids:
    def test_two_objective_grid(self):
        grid = simplex_grid(2, 21)
        assert grid.shape == (21, 2)
        np.testing.assert_allclose(grid.sum(axis=1), 1.0)
        np.testing.assert_allclose(grid[0], [1.0, 0.0])

    def test_unit_norm_grid(self):
        grid = unit_weight_grid(2, 21)
        np.testing.assert_allclose(np.linalg.norm(grid, axis=1), 1.0)
        assert np.all(grid.sum(axis=1) >= 1.0 - 1e-12)

    def test_three_objective_barycentric(self):
        grid = simplex_grid(3, 15)
        assert len(grid) >= 15
        np.testing.assert_allclose(grid.sum(axis=1), 1.0)

    def test_many_objectives_seeded(self):
        a = simplex_grid(5, 40)
        b = simplex_grid(5, 40)
        np.testing.assert_array_equal(a, b)


class TestSocnVerdict:
    def test_indefinite_example_violated_for_every_weight(self):
        ws = zero_ws(builtin("example_6_2"), 400)
        frag = socn_verdict(ws, [ramp_direction(ws.traj.grid)])
        assert frag.verdict == "violated"
        entry = frag.results[0]
        qs = [row["q_value"] for row in entry["q_by_weight"] if row["kkt_passed"]]
        assert len(qs) == 21
        for row in entry["q_by_weight"]:
            lam = row["lambda"]
            assert row["q_value"] == pytest.approx(-4.0 / 3.0 * sum(lam), abs=1e-4)
            assert row["q_value"] < 0
        assert "direction" in entry

    def test_quadratic_example_holds_on_probes(self):
        ws = zero_ws(builtin("example_6_1"), 100)
        dirs = random_critical_directions(ws, 20, seed=5)
        frag = socn_verdict(ws, dirs)
        assert frag.verdict == "holds"
        assert frag.tested == 20

    def test_empty_direction_list_is_vacuous(self):
        frag = socn_verdict(zero_ws(builtin("example_6_1"), 50), [])
        assert frag.verdict == "vacuous"
        assert decide_verdict("check-socn", jsonable({"socn": frag})) == "socn-pass"

    def test_non_critical_directions_skipped(self):
        ws = zero_ws(builtin("example_6_1"), 50)
        k = 51
        bad = Direction(ws.traj.grid, np.ones((k, 2)), np.zeros((k, 2)))
        frag = socn_verdict(ws, [bad])
        assert frag.verdict == "vacuous"
        assert frag.skipped[0]["reason"] == "not critical"


class TestSocsVerdict:
    def test_quadratic_example_passes_with_caveat(self):
        p = builtin("example_6_1")
        ws = zero_ws(p, 200)
        triple = zero_triple(p, ws.traj.grid, (0.5, 0.5))
        frag = socs_verdict(ws, triple, gamma0=1.0, n_probes=8, seed=4)
        assert frag.verdict == "pass-with-caveat"
        assert decide_verdict("check-socs", jsonable({"socs": frag})) == "socs-pass"
        assert "probed directions" in frag.caveat
        assert min(frag.search.restart_values) > 0

    def test_indefinite_example_fails_at_coercivity(self):
        p = builtin("example_6_2")
        ws = zero_ws(p, 100)
        triple = zero_triple(p, ws.traj.grid, (0.5, 0.5))
        frag = socs_verdict(ws, triple, gamma0=0.1, n_probes=4)
        assert frag.verdict == "fail"
        assert frag.failed_stage == "coercivity"

    def test_threshold_above_spectrum_fails_coercivity_kkt_passes(self):
        p = builtin("example_6_1")
        ws = zero_ws(p, 100)
        triple = zero_triple(p, ws.traj.grid, (0.5, 0.5))
        frag = socs_verdict(ws, triple, gamma0=3.0, n_probes=4)
        assert frag.failed_stage == "coercivity"
        assert frag.kkt.passed is True

    def test_bad_triple_fails_at_kkt(self):
        k = 101
        triple = MultiplierTriple(np.array([0.5, 0.5]), np.zeros((k, 2)), -np.ones(k))
        frag = socs_verdict(zero_ws(builtin("example_6_1"), 100), triple, gamma0=1.0,
                            n_probes=2)
        assert frag.failed_stage == "kkt"
