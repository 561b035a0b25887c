"""CLI exit codes, certificate schema, determinism, and audit round-trip."""

import collections
import dataclasses
import gc
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import paretocert
from paretocert import expr, second_order, trajectory
from paretocert import problem as problem_module
from paretocert.certificate import recompute_overall_verdict
from paretocert.cli import main
from paretocert.findim import FinDimPoint
from paretocert.kkt import KktWorkspace
from paretocert.problem import builtin, load_problem
from paretocert.trajectory import Grid, integrate_state


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_cert(out):
    cert = json.loads(out)
    assert cert["schema"] == "cert/1"
    return cert


@pytest.fixture
def findim_fixture_file(tmp_path):
    doc = {"nz": 2, "m": 2, "f": ["z1^2 + z2^2", "(z1 - 1)^2 + z2^2"],
           "G": ["z1 + z2 - 1"]}
    path = tmp_path / "convex_pair.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestCheckKkt:
    def test_builtin_zero_trajectory_passes(self, capsys):
        code, out, _ = run_cli(capsys, "check-kkt", "builtin:example_6_1",
                               "--lambda", "0.7071,0.7071", "--grid", "200")
        assert code == 0
        cert = load_cert(out)
        assert cert["overall_verdict"] == "kkt-pass"
        assert cert["fragments"]["kkt"]["passed"] is True

    def test_perturbed_trajectory_fails(self, capsys, tmp_path):
        p = builtin("example_6_1")
        grid = Grid(100)
        traj = integrate_state(p, np.zeros((101, 2)), grid)
        x = traj.x.copy()
        x[50, 0] += 0.5  # breaks the state equation
        doc = {"grid_n": 100, "x": x.tolist(), "u": traj.u.tolist()}
        path = tmp_path / "bad_traj.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "check-kkt", "builtin:example_6_1",
                               "--lambda", "0.7071,0.7071", "--traj", str(path))
        assert code == 2
        cert = load_cert(out)
        assert cert["overall_verdict"] == "fail"
        assert cert["fragments"]["feasibility"]["state_residual"] >= 0.4

    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "check-kkt", "/nonexistent/problem.json",
                               "--lambda", "0.5,0.5")
        assert code == 1
        assert "error" in err

    def test_bad_lambda_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "check-kkt", "builtin:example_6_1",
                               "--lambda", "banana,1")
        assert code == 1

    def test_unknown_builtin(self, capsys):
        code, _, err = run_cli(capsys, "check-kkt", "builtin:nope",
                               "--lambda", "0.5,0.5")
        assert code == 1
        assert "example_6_1" in err

    @pytest.mark.parametrize("g", ["x1 - 1", "0.000000001*u1 - 1"],
                             ids=["no-control", "tiny-control"])
    def test_h2_failure_gives_certificate(self, capsys, tmp_path, g):
        # the H2 gate fails: no multiplier solve, a stub kkt fragment instead
        doc = {"name": "h2_fail", "n": 1, "l": 1, "m": 1, "L": ["x1^2 + u1^2"],
               "phi": ["u1"], "g": g, "x0": [0.0]}
        path = tmp_path / "h2_fail.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "check-kkt", str(path), "--lambda", "1",
                                 "--grid", "20")
        assert code == 2
        assert err == ""
        cert = load_cert(out)
        assert cert["overall_verdict"] == "fail"
        assert cert["fragments"]["h2"]["passed"] is False
        kkt = cert["fragments"]["kkt"]
        assert kkt["passed"] is False
        assert "h2" in kkt["note"]

    def test_nonfinite_constraint_gradient_is_input_error(self, capsys, tmp_path):
        # g = -1/u1 is finite at u1 = 1e-200, but g_u = 1/u1^2 overflows to inf
        doc = {"n": 1, "l": 1, "m": 1, "L": ["x1^2 + u1^2"], "phi": ["u1"],
               "g": "0 - 1 / u1", "x0": [0.0]}
        problem = tmp_path / "gu_overflow.json"
        problem.write_text(json.dumps(doc))
        t = Grid(10).nodes
        traj = tmp_path / "tiny_control.json"
        traj.write_text(json.dumps({"grid_n": 10, "x": (1e-200 * t)[:, None].tolist(),
                                    "u": np.full((11, 1), 1e-200).tolist()}))
        code, out, err = run_cli(capsys, "check-kkt", str(problem), "--traj", str(traj),
                                 "--lambda", "1")
        assert code == 1
        assert out == ""
        assert err == ("error: non-finite constraint gradient values along trajectory"
                       " at node 0\n")

    def test_literal_beyond_double_range_is_input_error(self, capsys, tmp_path):
        doc = {"n": 1, "l": 1, "m": 1, "L": ["x1^2 + u1^2"], "phi": ["u1"],
               "g": "u1 - 1" + "0" * 400, "x0": [0.0]}
        path = tmp_path / "long_literal.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "check-kkt", str(path), "--lambda", "1",
                                 "--grid", "10")
        assert code == 1
        assert out == ""
        assert err == f"error: {path}: g: number too large for a double (byte offset 5)\n"

    def test_certificate_records_no_seed(self, capsys):
        # check-kkt draws no random numbers
        code, out, err = run_cli(capsys, "check-kkt", "builtin:example_6_1",
                                 "--lambda", "0.5,0.5", "--grid", "60")
        assert code == 0, err
        assert load_cert(out)["seed"] is None

    @pytest.mark.parametrize("flag", ["--seed=7", "--eps-act=1e-6"])
    def test_unread_flag_is_usage_error(self, capsys, flag):
        code, out, err = run_cli(capsys, "check-kkt", "builtin:example_6_1",
                                 "--lambda", "0.5,0.5", "--grid", "60", flag)
        assert code == 1
        assert out == ""
        assert flag.split("=")[0] in err


class TestDocumentColumns:
    """Trajectory and direction documents must match the problem's n and l."""

    @pytest.mark.parametrize("x_cols, u_cols, command, field", [
        (1, 2, "--traj", "'x'"),  # too few state columns
        (3, 2, "--traj", "'x'"),  # too many state columns
        (2, 1, "--directions", "'u'"),  # too few control columns
    ], ids=["traj-few-x", "traj-many-x", "directions-few-u"])
    def test_column_mismatch_is_input_error(self, capsys, tmp_path,
                                            x_cols, u_cols, command, field):
        doc = {"grid_n": 100, "x": np.zeros((101, x_cols)).tolist(),
               "u": np.zeros((101, u_cols)).tolist()}
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        argv = ["check-socn", "builtin:example_6_1", "--grid", "100", command, str(path)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert str(path) in err and field in err


class TestCheckSocn:
    def test_indefinite_example_direction_file(self, capsys, tmp_path):
        t = Grid(300).nodes
        doc = {"grid_n": 300, "x": np.stack([t, t], axis=1).tolist(),
               "u": np.ones((301, 2)).tolist()}
        path = tmp_path / "ramp.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "check-socn", "builtin:example_6_2",
                               "--grid", "300", "--directions", str(path))
        assert code == 2
        cert = load_cert(out)
        assert cert["overall_verdict"] == "socn-violated"
        entry = cert["fragments"]["socn"]["results"][0]
        assert "direction" in entry
        qs = [row["q_value"] for row in entry["q_by_weight"]]
        assert all(q < 0 for q in qs)

    def test_quadratic_example_probes_pass(self, capsys):
        code, out, _ = run_cli(capsys, "check-socn", "builtin:example_6_1",
                               "--grid", "120", "--probes", "10")
        assert code == 0
        cert = load_cert(out)
        assert cert["overall_verdict"] == "socn-pass"
        assert cert["fragments"]["socn"]["tested"] == 10

    def test_zero_probes_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "check-socn", "builtin:example_6_1",
                                 "--grid", "60", "--probes", "0")
        assert code == 1
        assert out == ""
        assert "--probes" in err

    def test_zero_lambda_grid_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "check-socn", "builtin:example_6_1",
                                 "--grid", "60", "--probes", "2", "--lambda-grid", "0")
        assert code == 1
        assert out == ""
        assert "--lambda-grid" in err

    @pytest.fixture
    def infeasible_traj(self, tmp_path):
        traj = integrate_state(builtin("example_6_1"), np.zeros((61, 2)), Grid(60))
        x = traj.x.copy()
        x[30, 0] += 0.5  # breaks the state equation, so the gates fail
        path = tmp_path / "bad_traj.json"
        path.write_text(json.dumps({"grid_n": 60, "x": x.tolist(), "u": traj.u.tolist()}))
        return str(path)

    def test_missing_directions_file_is_input_error_before_gates(self, capsys,
                                                                 infeasible_traj):
        code, out, err = run_cli(capsys, "check-socn", "builtin:example_6_1",
                                 "--traj", infeasible_traj,
                                 "--directions", "/nonexistent/dirs.json")
        assert code == 1
        assert out == ""
        assert "cannot read directions file" in err

    def test_directions_path_recorded_when_gated(self, capsys, tmp_path, infeasible_traj):
        path = tmp_path / "dirs.json"
        path.write_text(json.dumps({"grid_n": 60, "x": np.zeros((61, 2)).tolist(),
                                    "u": np.ones((61, 2)).tolist()}))
        code, out, _ = run_cli(capsys, "check-socn", "builtin:example_6_1",
                               "--traj", infeasible_traj, "--directions", str(path))
        assert code == 2
        cert = load_cert(out)
        assert cert["fragments"]["socn"]["verdict"] == "gated"
        assert cert["parameters"]["directions_path"] == str(path)

    def test_non_critical_direction_skipped(self, capsys, tmp_path):
        doc = {"grid_n": 100, "x": np.ones((101, 2)).tolist(),
               "u": np.zeros((101, 2)).tolist()}
        path = tmp_path / "bad_dir.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "check-socn", "builtin:example_6_1",
                               "--grid", "100", "--directions", str(path))
        assert code == 0
        cert = load_cert(out)
        frag = cert["fragments"]["socn"]
        assert frag["verdict"] == "vacuous"
        assert frag["skipped"][0]["reason"] == "not critical"

    def test_nonfinite_constraint_hessian_is_input_error(self, capsys, tmp_path):
        # g = -1/u1 and g_u = 1/u1^2 are finite at u1 = 1e-120, but
        # g_uu = -2/u1^3 is not
        doc = {"n": 1, "l": 1, "m": 1, "L": ["x1^2 + u1^2"], "phi": ["u1"],
               "g": "0 - 1 / u1", "x0": [0.0]}
        problem = tmp_path / "guu_overflow.json"
        problem.write_text(json.dumps(doc))
        t = Grid(10).nodes
        traj = tmp_path / "tiny_control.json"
        traj.write_text(json.dumps({"grid_n": 10, "x": (1e-120 * t)[:, None].tolist(),
                                    "u": np.full((11, 1), 1e-120).tolist()}))
        ramp = tmp_path / "ramp.json"
        ramp.write_text(json.dumps({"grid_n": 10, "x": t[:, None].tolist(),
                                    "u": np.ones((11, 1)).tolist()}))
        code, out, err = run_cli(capsys, "check-socn", str(problem), "--traj", str(traj),
                                 "--directions", str(ramp))
        assert code == 1
        assert out == ""
        assert err == ("error: non-finite constraint Hessian values along trajectory"
                       " at node 0\n")


class TestCheckSocs:
    def test_quadratic_example_passes(self, capsys):
        code, out, _ = run_cli(capsys, "check-socs", "builtin:example_6_1",
                               "--lambda", "0.5,0.5", "--gamma0", "1",
                               "--grid", "150", "--probes", "6")
        assert code == 0
        cert = load_cert(out)
        assert cert["overall_verdict"] == "socs-pass"
        assert "caveat" in cert["fragments"]["socs"]

    def test_indefinite_example_fails_coercivity(self, capsys):
        code, out, _ = run_cli(capsys, "check-socs", "builtin:example_6_2",
                               "--lambda", "0.5,0.5", "--gamma0", "0.1",
                               "--grid", "100", "--probes", "4")
        assert code == 2
        cert = load_cert(out)
        assert cert["fragments"]["socs"]["failed_stage"] == "coercivity"

    def test_nonpositive_gamma0_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "check-socs", "builtin:example_6_1",
                               "--lambda", "0.5,0.5", "--gamma0", "0")
        assert code == 1

    def test_zero_probes_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "check-socs", "builtin:example_6_1",
                                 "--lambda", "0.5,0.5", "--gamma0", "1",
                                 "--grid", "60", "--probes", "0")
        assert code == 1
        assert out == ""
        assert "--probes" in err


class TestFindim:
    def test_convex_fixture_passes(self, capsys, findim_fixture_file):
        code, out, _ = run_cli(capsys, "findim", findim_fixture_file,
                               "--zbar", "0,0", "--dir", "0,1", "--radius", "0.4")
        assert code == 0
        cert = load_cert(out)
        assert cert["overall_verdict"] == "findim-pass"
        assert cert["fragments"]["oracle"]["weak_pareto"] is True
        assert cert["fragments"]["consistency"]["agrees_with_oracle"] is True

    def test_indefinite_fixture_fails_consistently(self, capsys, tmp_path):
        doc = {"nz": 2, "m": 2, "f": ["z1^2 - z2^2", "z1^2 - z2^2"],
               "G": ["z1 + z2 - 1"]}
        path = tmp_path / "shared_indefinite.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "findim", str(path),
                               "--zbar", "0,0", "--dir", "0,1")
        assert code == 2
        cert = load_cert(out)
        assert cert["fragments"]["directions"][0]["verdict"] is False
        assert cert["fragments"]["oracle"]["weak_pareto"] is False
        assert cert["fragments"]["consistency"]["agrees_with_oracle"] is True

    def test_cq_failure_gates_pipeline(self, capsys, tmp_path):
        doc = {"nz": 2, "m": 1, "f": ["z1^2 + z2^2"], "G": ["z1", "-z1"]}
        path = tmp_path / "cq_fail.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "findim", str(path), "--zbar", "0,0.5")
        assert code == 2
        cert = load_cert(out)
        assert cert["fragments"]["robinson"]["passed"] is False
        assert cert["fragments"]["multipliers"]["count"] == 0

    def test_non_critical_direction_noted(self, capsys, findim_fixture_file):
        # negative leading entries need the = form, as usual with argparse
        code, out, _ = run_cli(capsys, "findim", findim_fixture_file,
                               "--zbar", "0,0", "--dir=-1,0")
        assert code == 0  # direction skipped; oracle still decides
        cert = load_cert(out)
        entry = cert["fragments"]["directions"][0]
        assert entry["critical"] is False
        assert "note" in entry

    def test_oracle_dimension_guard_is_clean_error(self, capsys, tmp_path):
        doc = {"nz": 5, "m": 1, "f": ["z1"],
               "G": ["z1 + z2 + z3 + z4 + z5 - 1"]}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "findim", str(path), "--zbar", "0,0,0,0,0")
        assert code == 1
        assert "nz <= 4" in err


    @pytest.mark.parametrize("flag", ["--steps=0", "--radius=-1", "--lambda-grid=0",
                                      "--zbar=nan,0", "--zbar=0,inf", "--dir=nan,1"])
    def test_invalid_oracle_or_grid_flag_is_usage_error(self, capsys, tmp_path,
                                                        findim_fixture_file, flag):
        # rejected before any work, whether or not the regularity gate passes
        gated = tmp_path / "cq_fail.json"
        gated.write_text(json.dumps({"nz": 2, "m": 1, "f": ["z1^2 + z2^2"],
                                     "G": ["z1", "-z1"]}))
        for path, zbar in ((str(gated), "0,0.5"), (findim_fixture_file, "0,0")):
            code, out, err = run_cli(capsys, "findim", path, "--zbar", zbar, flag)
            assert code == 1
            assert out == ""
            assert flag.split("=")[0] in err

    @pytest.mark.parametrize("doc, zbar, message", [
        # G is evaluated at zbar by the regularity check
        ({"nz": 2, "m": 1, "f": ["z1^2 + z2^2"], "G": ["1 / z1"]}, "0,0",
         "division by zero in '1 / z1'"),
        # f is evaluated at zbar before any of its derivatives
        ({"nz": 2, "m": 1, "f": ["1 / z1 + z2^2"], "G": ["z1 + z2 - 1"]}, "0,0",
         "division by zero in '1 / z1'"),
        # finite at zbar, non-positive only on the oracle grid (z3 <= -2)
        ({"nz": 3, "m": 1, "f": ["z1^2 + z2^2 + log(z3 + 2)"], "G": ["z1 + z2 - 1"]},
         "0,0,-1.8", "log of non-positive value in 'log(z3 + 2)'"),
    ], ids=["at-zbar", "f-at-zbar", "on-oracle-grid"])
    def test_domain_error_is_input_error(self, capsys, tmp_path, doc, zbar, message):
        path = tmp_path / "domain.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "findim", str(path), f"--zbar={zbar}",
                                 "--radius", "0.25", "--steps", "4")
        assert code == 1
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("doc, zbar, message", [
        # G and f both fail at zbar; G is evaluated first
        ({"nz": 2, "m": 1, "f": ["log(z1) + z2^2"], "G": ["1 / z2 - 1"]}, "0,0",
         "division by zero in '1 / z2'"),
        # f fails at zbar, but G(zbar) = 1 > 0 is reported first
        ({"nz": 2, "m": 1, "f": ["1 / z1 + z2^2"], "G": ["z2 - 1"]}, "0,2",
         "violates feasibility"),
    ], ids=["g-before-f", "infeasible-before-f"])
    def test_first_error_at_zbar_wins(self, capsys, tmp_path, doc, zbar, message):
        path = tmp_path / "precedence.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "findim", str(path), f"--zbar={zbar}",
                                 "--steps", "4", "--dir=0,1")
        assert code == 1
        assert out == ""
        assert message in err
        assert "log" not in err and "1 / z1" not in err

    def test_certificate_records_program_hash_and_no_seed(self, capsys, tmp_path):
        doc = {"nz": 2, "m": 2, "f": ["z1^2 + z2^2", "(z1 - 1)^2 + z2^2"],
               "G": ["z1 + z2 - 1"]}
        digests = []
        for coefficient in ("1", "2"):
            doc["G"] = [f"z1 + {coefficient}*z2 - 1"]
            path = tmp_path / f"program_{coefficient}.json"
            path.write_text(json.dumps(doc))
            code, out, err = run_cli(capsys, "findim", str(path), "--zbar", "0,0",
                                     "--steps", "4")
            assert code == 0, err
            cert = load_cert(out)
            assert cert["seed"] is None
            assert cert["grid_n"] is None
            assert cert["problem"]["name"] is None
            digests.append(cert["problem"]["sha256"])
        assert all(len(d) == 64 for d in digests)
        assert digests[0] != digests[1]

    def test_seed_is_usage_error(self, capsys, findim_fixture_file):
        code, out, err = run_cli(capsys, "findim", findim_fixture_file, "--zbar", "0,0",
                                 "--seed", "7")
        assert code == 1
        assert out == ""
        assert "--seed" in err


class TestOtherCommands:
    def test_integrate_outputs_trajectory(self, capsys, tmp_path):
        control = {"grid_n": 50, "u": np.ones((51, 2)).tolist()}
        path = tmp_path / "control.json"
        path.write_text(json.dumps(control))
        code, out, _ = run_cli(capsys, "integrate", "builtin:example_6_1",
                               "--control", str(path))
        assert code == 0
        data = json.loads(out)
        assert data["grid_n"] == 50
        assert data["x"][-1][0] == pytest.approx(1.0, abs=1e-10)
        assert data["state_residual"] <= 1e-12

    def test_integrate_default_zero_control(self, capsys):
        code, out, _ = run_cli(capsys, "integrate", "builtin:damped_pendulum",
                               "--grid", "40")
        assert code == 0
        data = json.loads(out)
        assert data["u"] == [[0.0]] * 41
        assert data["x"][0] == [0.5, 0.0]

    def test_show_builtin_round_trips(self, capsys):
        code, out, _ = run_cli(capsys, "show-builtin", "example_6_2")
        assert code == 0
        doc = json.loads(out)
        assert doc["L"] == ["x1^2 - u1^2", "x2^2 - u2^2"]

    def test_show_builtin_unknown(self, capsys):
        code, _, err = run_cli(capsys, "show-builtin", "nope")
        assert code == 1

    def test_out_flag_writes_file(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        code, out, _ = run_cli(capsys, "check-kkt", "builtin:example_6_1",
                               "--lambda", "0.5,0.5", "--grid", "60",
                               "--out", str(path))
        assert code == 0
        assert out == ""
        load_cert(path.read_text())


class TestCertificateProperties:
    def test_deterministic_modulo_wall_time(self, capsys):
        outs = []
        for _ in range(2):
            code, out, _ = run_cli(capsys, "check-socn", "builtin:example_6_1",
                                   "--grid", "80", "--probes", "5", "--seed", "7")
            assert code == 0
            outs.append(json.loads(out))
        for cert in outs:
            cert.pop("wall_time_s")
        assert json.dumps(outs[0], sort_keys=True) == json.dumps(outs[1], sort_keys=True)

    def test_verdict_recomputable_from_fragments(self, capsys, findim_fixture_file):
        runs = [
            ("check-kkt", "builtin:example_6_1", "--lambda", "0.5,0.5",
             "--grid", "60"),
            ("check-socs", "builtin:example_6_2", "--lambda", "0.5,0.5",
             "--gamma0", "0.1", "--grid", "60", "--probes", "2"),
            ("findim", findim_fixture_file, "--zbar", "0,0", "--dir", "0,1"),
        ]
        for argv in runs:
            _, out, _ = run_cli(capsys, *argv)
            cert = load_cert(out)
            assert recompute_overall_verdict(cert) == cert["overall_verdict"]

    def test_seed_recorded(self, capsys):
        _, out, _ = run_cli(capsys, "check-socs", "builtin:example_6_1",
                            "--lambda", "0.5,0.5", "--gamma0", "1", "--grid", "60",
                            "--probes", "2", "--max-iters", "5", "--seed", "99")
        assert load_cert(out)["seed"] == 99


RESIDUAL_KEYS = {"stationarity", "adjoint", "terminal", "sign", "complementarity",
                 "feasibility", "state"}


def recorded_thresholds(node, path=""):
    """(path, value) of every 'tol', 'eps_act' and 'tolerances' entry."""
    if isinstance(node, dict):
        for key, value in node.items():
            here = f"{path}.{key}" if path else key
            if key in ("tol", "eps_act", "tolerances"):
                yield here, value
            else:
                yield from recorded_thresholds(value, here)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from recorded_thresholds(value, f"{path}[{i}]")


class TestThresholds:
    KKT = ("check-kkt", "builtin:damped_pendulum", "--lambda", "0.5,0.5", "--grid", "40")
    SOCN = ("check-socn", "builtin:example_6_1", "--grid", "40", "--probes", "3",
            "--lambda-grid", "3")
    SOCS = ("check-socs", "builtin:example_6_1", "--grid", "40", "--probes", "2",
            "--lambda", "0.5,0.5", "--gamma0", "0.5")

    @pytest.mark.parametrize("argv,required", [
        (SOCN, {"tolerances", "fragments.socn.tol",
                "fragments.socn.results[0].membership.tol",
                "fragments.socn.results[0].membership.eps_act"}),
        (SOCS, {"tolerances", "fragments.socs.kkt.tolerances", "fragments.socs.tol"}),
    ])
    def test_one_value_recorded_everywhere(self, capsys, argv, required):
        code, out, err = run_cli(capsys, *argv, "--tol", "1e-6", "--eps-act", "1e-5")
        assert code == 0, err
        recorded = dict(recorded_thresholds(load_cert(out)))
        assert required <= recorded.keys()
        for path, value in recorded.items():
            if path.endswith("tolerances"):
                assert value == dict.fromkeys(RESIDUAL_KEYS, 1e-6), path
            elif path.endswith("eps_act"):
                assert value == 1e-5, path
            else:
                assert value == 1e-6, path

    @pytest.mark.parametrize("argv,flag,value", [
        (KKT, "--tol", "inf"),
        (KKT, "--tol", "0"),
        (SOCN, "--tol", "nan"),
        (SOCS, "--tol", "-1e-6"),
        (("findim", "unread.json", "--zbar", "0,0"), "--tol", "nan"),
        (SOCN, "--eps-act", "nan"),
        (SOCN, "--eps-act", "-1e-3"),
        (SOCS, "--eps-act", "inf"),
    ])
    def test_invalid_threshold_is_usage_error(self, capsys, argv, flag, value):
        code, out, err = run_cli(capsys, *argv, f"{flag}={value}")
        assert code == 1
        assert out == ""
        assert f"argument {flag}: must be a finite" in err

    @pytest.mark.parametrize("argv,flag,value", [
        (SOCS[:-2], "--gamma0", "nan"),
        (SOCS[:-2], "--gamma0", "inf"),
        (SOCS[:-2], "--gamma0", "0"),
        (("findim", "unread.json", "--zbar", "0,0"), "--radius", "inf"),
        (("findim", "unread.json", "--zbar", "0,0"), "--radius", "nan"),
        (("findim", "unread.json", "--zbar", "0,0"), "--radius", "-0.4"),
    ])
    def test_invalid_gamma0_or_radius_is_usage_error(self, capsys, argv, flag, value):
        code, out, err = run_cli(capsys, *argv, f"{flag}={value}")
        assert code == 1
        assert out == ""
        assert f"argument {flag}: must be a finite positive number" in err

    @pytest.mark.parametrize("argv,flag,value", [
        (KKT, "--lambda", "nan,1"),
        (SOCS, "--lambda", "1,inf"),
        (SOCS, "--max-iters", "-3"),
        (SOCS, "--seed", "-1"),
        (SOCN, "--seed", "-1"),
    ])
    def test_invalid_number_is_usage_error(self, capsys, argv, flag, value):
        code, out, err = run_cli(capsys, *argv, f"{flag}={value}")
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {flag} must be")


class TestConstructionContract:
    """Each request builds one field table and one backward map, and only the
    maps its command uses; check-socs builds one curvature form; a problem
    file's expressions are parsed once, and a findim request evaluates each
    quantity at zbar at most once."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"build_fields": 0, "BackwardLinearMap": 0, "LinearStateMap": 0,
                 "apply_transpose": 0, "hessian_blocks": 0, "compile_rk4": 0, "parse": 0,
                 "differentiate": 0, "CurvatureForm": 0, "solve": [], "zbar": []}

        def count(owner, name, key, record=None):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                if record is None:
                    calls[key] += 1
                else:
                    calls[key].append(record(*args, **kwargs))
                return original(*args, **kwargs)

            if isinstance(owner, type):
                monkeypatch.setattr(owner, name, counted)
                return
            # rebind every copy made by "from .module import name"
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("paretocert"):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counted)

        count(trajectory, "build_fields", "build_fields")
        count(trajectory, "hessian_blocks", "hessian_blocks")
        count(trajectory, "compile_rk4", "compile_rk4")
        count(trajectory.BackwardLinearMap, "__init__", "BackwardLinearMap")
        count(trajectory.LinearStateMap, "__init__", "LinearStateMap")
        count(trajectory.LinearStateMap, "apply_transpose", "apply_transpose")
        count(expr, "parse", "parse")
        count(expr, "differentiate", "differentiate")
        count(second_order.CurvatureForm, "__init__", "CurvatureForm")
        count(KktWorkspace, "solve", "solve",
              record=lambda ws, lam, *a, **k: tuple(float(v) for v in lam))
        count(FinDimPoint, "_evaluate", "zbar", record=self.zbar_quantity)
        return calls

    @staticmethod
    def zbar_quantity(point, trees):
        """Which quantity at zbar a FinDimPoint evaluation computes."""
        p = point.problem
        tables = {"f": p.f, "g": p.G,
                  "f_jacobian": tuple(t.grad for t in p.f_derivs),
                  "g_jacobian": tuple(t.grad for t in p.G_derivs),
                  "f_hessians": tuple(t.hess for t in p.f_derivs),
                  "g_hessians": tuple(t.hess for t in p.G_derivs)}
        names = [name for name, table in tables.items() if table == trees]
        return names[0] if len(names) == 1 else "unknown"

    @pytest.fixture
    def files(self, tmp_path, findim_fixture_file):
        problem = tmp_path / "problem.json"
        problem.write_text(json.dumps({
            "n": 2, "l": 2, "m": 2, "x0": [0.0, 0.0],
            "L": ["x1^2 + u1^2", "x2^2 + u2^2"], "phi": ["u1", "u2"],
            "g": "x1 + x2 - u1 - u2"}))
        t = Grid(100).nodes
        direction = tmp_path / "ramp.json"
        direction.write_text(json.dumps({
            "grid_n": 100, "x": np.stack([t, -t], axis=1).tolist(),
            "u": np.tile([1.0, -1.0], (101, 1)).tolist()}))
        return {"problem": str(problem), "direction": str(direction),
                "findim": findim_fixture_file}

    PARSES = 5  # two costs, two dynamics, one constraint
    CASES = {
        "check-kkt": (["check-kkt", "{problem}", "--lambda", "0.5,0.5", "--grid", "100"],
                      dict(build_fields=1, BackwardLinearMap=1, LinearStateMap=0,
                           apply_transpose=0, hessian_blocks=0, compile_rk4=1,
                           parse=PARSES, CurvatureForm=0)),
        "check-socn-probes": (["check-socn", "{problem}", "--grid", "100", "--probes", "3"],
                              dict(build_fields=1, BackwardLinearMap=1, LinearStateMap=1,
                                   hessian_blocks=1, compile_rk4=1, parse=PARSES)),
        "check-socn-directions": (["check-socn", "{problem}", "--grid", "100",
                                   "--directions", "{direction}"],
                                  dict(build_fields=1, BackwardLinearMap=1,
                                       LinearStateMap=1, apply_transpose=0,
                                       hessian_blocks=1, compile_rk4=1, parse=PARSES)),
        "check-socs": (["check-socs", "{problem}", "--lambda", "0.5,0.5", "--gamma0", "1",
                        "--grid", "100", "--probes", "2", "--max-iters", "5"],
                       dict(build_fields=1, BackwardLinearMap=1, LinearStateMap=1,
                            hessian_blocks=1, compile_rk4=1, parse=PARSES,
                            CurvatureForm=1)),
        "findim": (["findim", "{findim}", "--zbar", "0,0", "--steps", "4"],
                   dict(build_fields=0, BackwardLinearMap=0, LinearStateMap=0,
                        hessian_blocks=0, compile_rk4=0, parse=0, CurvatureForm=0)),
        "integrate": (["integrate", "{problem}", "--grid", "20"],
                      dict(build_fields=0, BackwardLinearMap=0, LinearStateMap=0,
                           hessian_blocks=0, compile_rk4=1, parse=PARSES)),
        "show-builtin": (["show-builtin", "example_6_1"],
                         dict(build_fields=0, BackwardLinearMap=0, LinearStateMap=0,
                              hessian_blocks=0, compile_rk4=0)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_builds_per_request(self, capsys, calls, files, case):
        argv, expected = self.CASES[case]
        code, _, err = run_cli(capsys, *(a.format(**files) for a in argv))
        assert code == 0, err
        assert {key: calls[key] for key in expected} == expected
        # each weight's multipliers are solved at most once per request
        assert len(calls["solve"]) == len(set(calls["solve"]))

    def test_builtin_generates_integrator_once(self, capsys, calls, monkeypatch):
        monkeypatch.setattr(problem_module, "_BUILTIN_CACHE", {})
        counts = []
        for _ in range(2):
            code, _, err = run_cli(capsys, "check-kkt", "builtin:example_6_1",
                                   "--lambda", "0.5,0.5", "--grid", "50")
            assert code == 0, err
            counts.append(calls["compile_rk4"])
        assert counts == [1, 1]

    def test_integrated_problem_is_not_kept_alive(self, files):
        with open(files["problem"], encoding="utf-8") as fh:
            problem = load_problem(fh.read())
        integrate_state(problem, np.zeros((21, problem.l)), Grid(20))
        assert problem.__dict__.get("rk4") is not None
        ref = weakref.ref(problem)
        del problem
        gc.collect()
        assert ref() is None

    def test_field_table_holds_no_hessians(self):
        problem = builtin("example_6_2")
        fields = trajectory.build_fields(problem, integrate_state(
            problem, np.zeros((21, problem.l)), Grid(20)))
        names = [f.name for f in dataclasses.fields(fields)]
        assert "L" in names and "gu" in names
        assert not [name for name in names if "hess" in name.lower()]

    # the quad4_fail program of the findim benchmark workload, unrescaled
    QUAD4_FAIL = {"nz": 4, "m": 3,
                  "f": ["z1^2 + z2^2 - z3^2 + z4^2", "(z1 - 1)^2 + z2^2 - z3^2 + z4^2",
                        "z1^2 + z2^2 - z3^2 + (z4 + 1)^2"],
                  "G": ["z1 + z2 + z3 + z4 - 1", "-z4"]}

    @pytest.mark.parametrize("dirs, critical", [
        (["0,0,1,0", "0,1,0,0", "0,0,0,1"], [True, True, False]),
        ([], []),
    ], ids=["three-dirs", "no-dir"])
    def test_findim_evaluates_zbar_quantities_once(self, capsys, calls, tmp_path,
                                                   dirs, critical):
        path = tmp_path / "quad4_fail.json"
        path.write_text(json.dumps(self.QUAD4_FAIL))
        code, out, err = run_cli(capsys, "findim", str(path), "--zbar", "0,0,0,0",
                                 "--steps", "4", *(f"--dir={d}" for d in dirs))
        assert code == 2, err
        directions = load_cert(out)["fragments"]["directions"]
        assert [e["critical"] for e in directions] == critical
        expected = {"f": 1, "g": 1, "f_jacobian": 1, "g_jacobian": 1}
        if dirs:
            expected.update(f_hessians=1, g_hessians=1)
        assert collections.Counter(calls["zbar"]) == expected

    def test_findim_differentiates_at_load_only(self, capsys, calls, files):
        counts = []
        for dirs in (["0,1"], ["0,1", "0,-1", "1,0"]):
            calls["differentiate"] = 0
            argv = ["findim", files["findim"], "--zbar", "0,0", "--steps", "4"]
            code, out, err = run_cli(capsys, *argv, *(f"--dir={d}" for d in dirs))
            assert code == 0, err
            assert all(e["critical"] for e in load_cert(out)["fragments"]["directions"])
            counts.append(calls["differentiate"])
        assert counts[0] == counts[1] > 0


class TestSubprocessEntry:
    @pytest.fixture
    def env(self):
        """Environment in which ``python -m paretocert`` imports the package
        these tests import, whether or not PYTHONPATH names it."""
        src = str(Path(paretocert.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return env

    def test_module_invocation(self, env):
        proc = subprocess.run(
            [sys.executable, "-m", "paretocert", "check-kkt", "builtin:example_6_1",
             "--lambda", "0.7071,0.7071", "--grid", "80"],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        cert = json.loads(proc.stdout)
        assert cert["overall_verdict"] == "kkt-pass"

    def test_usage_error_exit_code(self, env):
        proc = subprocess.run(
            [sys.executable, "-m", "paretocert", "check-kkt"],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 1
        assert "required: problem" in proc.stderr
