"""Problem loading, builtin registry, and the constraint-sensitivity check."""

import json

import numpy as np
import pytest

from paretocert import expr as ex
from paretocert.certificate import jsonable
from paretocert.problem import (
    ProblemFormatError,
    UnknownBuiltinError,
    builtin,
    builtin_names,
    load_problem,
    serialize,
    validate_h2,
)
from paretocert.trajectory import Grid, integrate_state


def example_6_1_document():
    return {
        "n": 2,
        "l": 2,
        "m": 2,
        "x0": [0.0, 0.0],
        "L": ["x1^2 + u1^2", "x2^2 + u2^2"],
        "phi": ["u1", "u2"],
        "g": "x1 + x2 - u1 - u2",
    }


def zero_trajectory(problem, n_intervals=50):
    grid = Grid(n_intervals)
    u = np.zeros((n_intervals + 1, problem.l))
    return integrate_state(problem, u, grid)


class TestLoadProblem:
    def test_quadratic_two_objective_document(self):
        p = load_problem(json.dumps(example_6_1_document()))
        assert (p.n, p.l, p.m) == (2, 2, 2)
        assert p.g == ex.parse("x1 + x2 - u1 - u2", (2, 2))
        np.testing.assert_array_equal(p.x0, [0.0, 0.0])

    def test_indefinite_variant_document(self):
        doc = example_6_1_document()
        doc["L"] = ["x1^2 - u1^2", "x2^2 - u2^2"]
        p = load_problem(doc)
        assert p.L[0] == ex.parse("x1^2 - u1^2", (2, 2))

    def test_dynamics_dimension_mismatch(self):
        doc = example_6_1_document()
        doc["phi"] = ["u1"]
        with pytest.raises(ProblemFormatError, match="phi"):
            load_problem(doc)

    def test_x0_dimension_mismatch(self):
        doc = example_6_1_document()
        doc["x0"] = [0.0]
        with pytest.raises(ProblemFormatError, match="x0"):
            load_problem(doc)

    def test_unknown_field_rejected(self):
        doc = example_6_1_document()
        doc["horizon"] = 2.0
        with pytest.raises(ProblemFormatError, match="horizon"):
            load_problem(doc)

    def test_expression_error_carries_field_path(self):
        doc = example_6_1_document()
        doc["L"][1] = "x9 + u1"
        with pytest.raises(ProblemFormatError, match=r"L\[1\]"):
            load_problem(doc)

    def test_missing_field(self):
        doc = example_6_1_document()
        del doc["g"]
        with pytest.raises(ProblemFormatError, match="'g'"):
            load_problem(doc)

    def test_invalid_json_text(self):
        with pytest.raises(ProblemFormatError, match="JSON"):
            load_problem("{not json")


class TestBuiltin:
    def test_first_example_constraint(self):
        p = builtin("example_6_1")
        assert p.g == ex.parse("x1 + x2 - u1 - u2", (2, 2))

    def test_variants_differ_only_in_costs(self):
        a = builtin("example_6_1")
        b = builtin("example_6_2")
        assert a.phi == b.phi and a.g == b.g
        assert np.array_equal(a.x0, b.x0)
        assert a.L != b.L

    def test_unknown_name_lists_entries(self):
        with pytest.raises(UnknownBuiltinError, match="example_6_1"):
            builtin("nope")

    def test_registry_has_three_problems(self):
        assert len(builtin_names()) == 3

    def test_round_trip_through_serialize(self):
        for name in builtin_names():
            p = builtin(name)
            again = load_problem(json.dumps(serialize(p)))
            assert again == p

    def test_cached_derivatives_match_fresh_differentiation(self):
        rng = np.random.default_rng(2)
        for name in builtin_names():
            p = builtin(name)
            tables = [*p.L_derivs, *p.phi_derivs, p.g_derivs]
            asts = [*p.L, *p.phi, p.g]
            for ast, table in zip(asts, tables):
                for var, cached in zip(p.xu_variables, table.grad):
                    fresh = ex.differentiate(ast, var)
                    for _ in range(10):
                        b = ex.VarBinding(
                            t=float(rng.uniform(0, 1)),
                            x=tuple(rng.uniform(-2, 2, p.n)),
                            u=tuple(rng.uniform(-2, 2, p.l)),
                        )
                        got = ex.evaluate(cached, b)
                        ref = ex.evaluate(fresh, b)
                        assert abs(got - ref) <= 1e-12 * (1 + abs(ref))


class TestValidateH2:
    def test_quadratic_example_at_origin(self):
        p = builtin("example_6_1")
        report = validate_h2(p, zero_trajectory(p), alpha=0.5)
        assert report.passed
        assert report.alpha_hat == pytest.approx(1.0)
        assert report.i0 == 1  # tie between both controls, lowest index wins

    def test_constraint_without_control_dependence(self):
        doc = example_6_1_document()
        doc["g"] = "x1"
        p = load_problem(doc)
        report = validate_h2(p, zero_trajectory(p), alpha=0.5)
        assert not report.passed
        assert report.alpha_hat == 0.0

    def test_threshold_above_exact_value(self):
        p = builtin("example_6_1")
        report = validate_h2(p, zero_trajectory(p), alpha=2.0)
        assert not report.passed
        assert report.alpha_hat == pytest.approx(1.0)

    def test_tie_break_is_deterministic(self):
        p = builtin("example_6_1")
        traj = zero_trajectory(p)
        picks = {validate_h2(p, traj, alpha=0.5).i0 for _ in range(5)}
        assert picks == {1}

    def test_alpha_must_be_positive(self):
        p = builtin("example_6_1")
        with pytest.raises(ValueError):
            validate_h2(p, zero_trajectory(p), alpha=0.0)

    def test_report_serialises(self):
        p = builtin("example_6_1")
        d = jsonable(validate_h2(p, zero_trajectory(p), alpha=0.5))
        assert d["passed"] is True
        json.dumps(d)
