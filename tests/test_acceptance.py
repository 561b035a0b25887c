"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <n> ...: PASS|FAIL` line (visible with
``pytest -v -s tests/test_acceptance.py``) before asserting, so the summary
survives a failing run.
"""

import hashlib
import json
import time

import numpy as np
import pytest

from paretocert import expr as ex
from paretocert.cli import main
from paretocert.findim import (
    FinDimPoint,
    load_findim_problem,
    multiplier_set_sample,
    robinson_check,
    second_order_necessary_check,
    weak_pareto_oracle,
)
from paretocert.kkt import KktWorkspace, MultiplierTriple, _stationarity
from paretocert.problem import builtin, builtin_names, node_values
from paretocert.second_order import CurvatureForm, SecondOrderWorkspace
from paretocert.trajectory import (
    Direction,
    Grid,
    integrate_state,
    quad_weights,
    quadrature,
    state_residual,
)


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {status} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def zero_traj(problem, n):
    grid = Grid(n)
    return integrate_state(problem, np.zeros((n + 1, problem.l)), grid)


def ramp_direction(grid):
    t = grid.nodes
    return Direction(grid, np.stack([t, t], axis=1), np.ones((len(t), 2)))


def test_criterion_1_indefinite_curvature_value():
    """The curvature form reproduces -(4/3)(l1+l2) on the ramp direction."""
    started = time.perf_counter()
    p = builtin("example_6_2")
    traj = zero_traj(p, 1000)
    d = ramp_direction(traj.grid)
    ws = SecondOrderWorkspace(p, traj)
    worst = 0.0
    for lam in [(1.0, 0.0), (0.0, 1.0), (1 / np.sqrt(2), 1 / np.sqrt(2)), (0.5, 0.5)]:
        triple = MultiplierTriple(np.asarray(lam), np.zeros((1001, 2)), np.zeros(1001))
        q = CurvatureForm(ws, triple).q_value(d.x, d.u)
        worst = max(worst, abs(q - (-4.0 / 3.0) * sum(lam)))
    elapsed = time.perf_counter() - started
    _report(1, "indefinite-example curvature value", worst <= 1e-5 and elapsed < 1.0,
            f"(max abs error {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_2_socn_violation_certified(tmp_path, capsys):
    """check-socn exits 2 and certifies Q < 0 for every grid weight."""
    started = time.perf_counter()
    t = Grid(1000).nodes
    doc = {"grid_n": 1000, "x": np.stack([t, t], axis=1).tolist(),
           "u": np.ones((1001, 2)).tolist()}
    path = tmp_path / "ramp.json"
    path.write_text(json.dumps(doc))
    out_path = tmp_path / "cert.json"
    code = main(["check-socn", "builtin:example_6_2", "--grid", "1000",
                 "--directions", str(path), "--out", str(out_path)])
    capsys.readouterr()
    cert = json.loads(out_path.read_text())
    entry = cert["fragments"]["socn"]["results"][0]
    qs = [row["q_value"] for row in entry["q_by_weight"] if row["kkt_passed"]]
    elapsed = time.perf_counter() - started
    ok = (
        code == 2
        and cert["overall_verdict"] == "socn-violated"
        and entry["index"] == 0
        and cert["parameters"]["directions_sha256"]
        == hashlib.sha256(path.read_bytes()).hexdigest()
        and len(qs) == 21
        and all(q < 0 for q in qs)
        and elapsed < 5.0
    )
    _report(2, "necessary-condition violation certified", ok,
            f"(exit {code}, {len(qs)} weights, max Q {max(qs):.3f}, {elapsed:.2f}s)")


def test_criterion_3_socs_full_pipeline(tmp_path, capsys):
    """check-socs on the quadratic example: exit 0 within the time budget."""
    started = time.perf_counter()
    out_path = tmp_path / "cert.json"
    code = main(["check-socs", "builtin:example_6_1", "--lambda", "0.5,0.5",
                 "--gamma0", "1", "--probes", "50", "--grid", "1000",
                 "--out", str(out_path)])
    capsys.readouterr()
    elapsed = time.perf_counter() - started
    cert = json.loads(out_path.read_text())
    socs = cert["fragments"]["socs"]
    kkt_ok = all(
        socs["kkt"][key] <= 1e-8
        for key in ("stationarity_residual", "adjoint_residual", "terminal_residual",
                    "theta_sign_violation", "complementarity_residual",
                    "feasibility_residual", "state_residual")
    )
    margin_ok = socs["coercivity"]["margin"] >= -1e-12
    probes_ok = all(v > 0 for v in socs["search"]["restart_values"])
    ok = code == 0 and kkt_ok and margin_ok and probes_ok and elapsed < 30.0
    _report(3, "sufficient-condition pipeline", ok,
            f"(exit {code}, margin {socs['coercivity']['margin']:.2e}, "
            f"min probe Q {min(socs['search']['restart_values']):.3f}, {elapsed:.1f}s)")


def test_criterion_4_adjoint_gradient_consistency():
    """Stationarity density matches central differences of the scalarized
    objective at interior nodes (boundary nodes carry an O(h) quadrature
    lumping mismatch by construction of the trapezoid weights)."""
    rng = np.random.default_rng(2024)
    grid = Grid(1000)
    nodes = grid.nodes
    w = quad_weights(grid)
    fixtures = [
        ("example_6_1", np.array([1 / np.sqrt(2)] * 2)),
        ("example_6_2", np.array([0.6, 0.8])),
        ("damped_pendulum", np.array([0.8, 0.6])),
    ]
    worst = 0.0

    def scalarized(problem, lam, u):
        traj = integrate_state(problem, u, grid)
        return sum(weight * quadrature(node_values(problem, a, traj), grid)
                   for weight, a in zip(lam, problem.L))

    for name, lam in fixtures:
        problem = builtin(name)
        if problem.l == 2:
            base = np.stack([np.exp(nodes) / 2, np.exp(nodes) / 2], axis=1)
        else:
            base = 0.4 * np.sin(2 * nodes)[:, None]
        u = base + 0.05 * np.sin(3 * nodes)[:, None] * np.ones(problem.l)
        traj = integrate_state(problem, u, grid)
        ws = KktWorkspace(problem, traj)
        assert np.max(ws.fields.g) < -1e-3, "constraint must stay inactive"
        pa = ws.solve_adjoint(lam, np.zeros(len(nodes)))
        density = _stationarity(ws.fields, lam, pa, np.zeros(len(nodes)))
        for _ in range(20):
            k = int(rng.integers(1, grid.n_intervals))
            comp = int(rng.integers(0, problem.l))
            step = 1e-6
            up, dn = u.copy(), u.copy()
            up[k, comp] += step
            dn[k, comp] -= step
            fd = (scalarized(problem, lam, up) - scalarized(problem, lam, dn)) / (2 * step)
            fd_density = fd / w[k]
            rel = abs(density[k, comp] - fd_density) / (1 + abs(fd_density))
            worst = max(worst, rel)
    _report(4, "adjoint-gradient consistency", worst <= 1e-5,
            f"(worst relative error {worst:.2e})")


def test_criterion_5_derivative_correctness():
    """Symbolic first/second partials vs central differences on the registry."""
    rng = np.random.default_rng(7)
    worst_first = 0.0
    worst_second = 0.0
    for name in builtin_names():
        p = builtin(name)
        variables = p.variables
        for ast in (*p.L, *p.phi, p.g):
            firsts = {v: ex.simplify(ex.differentiate(ast, v)) for v in variables}
            seconds = {
                (v, w): ex.simplify(ex.differentiate(firsts[v], w))
                for v in variables for w in variables
            }
            for _ in range(100):
                b = ex.VarBinding(
                    t=float(rng.uniform(0, 1)),
                    x=tuple(rng.uniform(-2, 2, p.n)),
                    u=tuple(rng.uniform(-2, 2, p.l)),
                )
                env = b.to_env()
                for v in variables:
                    h = 1e-6
                    hi, lo = dict(env), dict(env)
                    hi[v] = env[v] + h
                    lo[v] = env[v] - h
                    fd = (ex.evaluate(ast, hi) - ex.evaluate(ast, lo)) / (2 * h)
                    got = ex.evaluate(firsts[v], env)
                    worst_first = max(worst_first, abs(got - fd) / (1 + abs(fd)))
                v = variables[int(rng.integers(0, len(variables)))]
                w2 = variables[int(rng.integers(0, len(variables)))]
                h = 1e-4
                hi, lo = dict(env), dict(env)
                hi[w2] = env[w2] + h
                lo[w2] = env[w2] - h
                fd2 = (ex.evaluate(firsts[v], hi) - ex.evaluate(firsts[v], lo)) / (2 * h)
                got2 = ex.evaluate(seconds[(v, w2)], env)
                worst_second = max(worst_second, abs(got2 - fd2) / (1 + abs(fd2)))
    ok = worst_first <= 1e-6 and worst_second <= 1e-4
    _report(5, "derivative correctness", ok,
            f"(first {worst_first:.2e}, second {worst_second:.2e})")


def test_criterion_6_homogeneity_and_cone_invariants():
    """Q(a z) = a^2 Q(z) and positive scaling preserves cone membership."""
    p = builtin("example_6_2")
    traj = zero_traj(p, 200)
    ws = SecondOrderWorkspace(p, traj)
    triple = MultiplierTriple(np.array([1 / np.sqrt(2)] * 2),
                              np.zeros((201, 2)), np.zeros(201))
    form = CurvatureForm(ws, triple)
    rng = np.random.default_rng(11)
    worst = 0.0
    checked_members = 0
    for _ in range(200):
        u = rng.standard_normal((201, 2))
        x = ws.linmap.apply(u)
        d = Direction(traj.grid, x, u)
        base = form.q_value(x, u)
        for alpha in (-1.0, 0.5, 2.0):
            got = form.q_value(alpha * x, alpha * u)
            worst = max(worst, abs(got - alpha**2 * base) / max(abs(base), 1e-30))
        membership = ws.membership(d)
        for alpha in (0.5, 2.0):
            scaled = Direction(traj.grid, alpha * x, alpha * u)
            scaled_membership = ws.membership(scaled)
            assert scaled_membership.passed == membership.passed
            assert scaled_membership.c3_residual == pytest.approx(
                alpha * membership.c3_residual, rel=1e-9, abs=1e-12)
        checked_members += 1
    _report(6, "homogeneity and cone invariants",
            worst <= 1e-10 and checked_members == 200,
            f"(worst homogeneity error {worst:.2e}, {checked_members} directions)")


FINDIM_FIXTURES = [
    ({"nz": 2, "m": 2, "f": ["z1^2 + z2^2", "(z1 - 1)^2 + z2^2"],
      "G": ["z1 + z2 - 1"]}, (0.0, 0.0), [(0, 1), (0, -1), (1, 0)]),
    ({"nz": 2, "m": 2, "f": ["z1^2 - z2^2", "z1^2 - z2^2"],
      "G": ["z1 + z2 - 1"]}, (0.0, 0.0), [(0, 1)]),
    ({"nz": 2, "m": 2, "f": ["z1", "0 - z1"], "G": ["z1 + z2 - 1"]},
     (0.0, 0.0), [(0, 1), (0, -1)]),
    ({"nz": 2, "m": 2, "f": ["(z1 + 1)^2 + z2^2", "(z1 + 2)^2 + z2^2"],
      "G": ["-z1"]}, (0.0, 0.0), [(0, 1), (0, -1)]),
    ({"nz": 2, "m": 2, "f": ["z2 - z1^2", "z2 - z1^2"], "G": ["-z2"]},
     (0.0, 0.0), [(1, 0), (-1, 0)]),
]


def test_criterion_7_finite_dimensional_soundness_link():
    """Necessary-check failure with exhaustive sampling implies oracle False."""
    started = time.perf_counter()
    counterexamples = 0
    failures_seen = 0
    for doc, zbar, directions in FINDIM_FIXTURES:
        problem = load_findim_problem(doc)
        point = FinDimPoint(problem, np.asarray(zbar, dtype=float))
        assert robinson_check(point).passed
        pairs = multiplier_set_sample(point, n_lambda=21)  # grid step 0.05
        assert pairs
        for d in directions:
            _, verdict = second_order_necessary_check(point, d, pairs)
            if not verdict:
                failures_seen += 1
                if weak_pareto_oracle(point, radius=0.4, steps=12):
                    counterexamples += 1
    elapsed = time.perf_counter() - started
    ok = counterexamples == 0 and failures_seen >= 2 and elapsed < 60.0
    _report(7, "finite-dimensional soundness link", ok,
            f"({failures_seen} necessary failures, {counterexamples} counterexamples, "
            f"{elapsed:.2f}s)")


def test_criterion_8_grid_convergence():
    """State residual and curvature error shrink ~4x per grid doubling."""
    # curvature error on the indefinite example against the exact value
    lam = (1 / np.sqrt(2), 1 / np.sqrt(2))
    exact = -4.0 / 3.0 * sum(lam)
    curvature_errors = []
    for n in (250, 500, 1000):
        p = builtin("example_6_2")
        traj = zero_traj(p, n)
        d = ramp_direction(traj.grid)
        triple = MultiplierTriple(np.asarray(lam), np.zeros((n + 1, 2)), np.zeros(n + 1))
        q = CurvatureForm(SecondOrderWorkspace(p, traj), triple).q_value(d.x, d.u)
        curvature_errors.append(abs(q - exact))
    # state residual on the nonlinear registry problem with a smooth control
    p = builtin("damped_pendulum")
    state_residuals = []
    for n in (250, 500, 1000):
        grid = Grid(n)
        u = np.sin(3 * grid.nodes)[:, None]
        state_residuals.append(state_residual(p, integrate_state(p, u, grid)))
    ratios = [a / b for a, b in zip(curvature_errors, curvature_errors[1:])]
    ratios += [a / b for a, b in zip(state_residuals, state_residuals[1:])]
    ok = all(3.5 <= r <= 4.5 for r in ratios)
    _report(8, "grid convergence", ok,
            "(ratios " + ", ".join(f"{r:.2f}" for r in ratios) + ")")
