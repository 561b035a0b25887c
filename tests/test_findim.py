"""Finite-dimensional analyzer: regularity, multipliers, curvature, oracle."""

import itertools
import re
import tracemalloc

import numpy as np
import pytest

from paretocert import expr as ex
from paretocert.findim import (
    FinDimFormatError,
    FinDimPoint,
    InfeasiblePointError,
    MultiplierPair,
    NotCriticalError,
    ORACLE_SLAB_POINTS,
    load_findim_problem,
    multiplier_set_sample,
    robinson_check,
    second_order_necessary_check,
    weak_pareto_oracle,
)

# Fixture problems with hand-solved multiplier systems.  Each entry carries
# the critical directions used by the soundness-link test and the expected
# outcome of the necessary check at zbar.
FIXTURES = {
    "convex_pair": {
        "doc": {"nz": 2, "m": 2, "f": ["z1^2 + z2^2", "(z1 - 1)^2 + z2^2"],
                "G": ["z1 + z2 - 1"]},
        "zbar": (0.0, 0.0),
        "directions": [(0.0, 1.0), (0.0, -1.0), (1.0, 0.0)],
        "necessary_holds": True,
        "oracle": True,
    },
    "shared_indefinite": {
        "doc": {"nz": 2, "m": 2, "f": ["z1^2 - z2^2", "z1^2 - z2^2"],
                "G": ["z1 + z2 - 1"]},
        "zbar": (0.0, 0.0),
        "directions": [(0.0, 1.0)],
        "necessary_holds": False,
        "oracle": False,
    },
    "opposed_linear": {
        "doc": {"nz": 2, "m": 2, "f": ["z1", "0 - z1"], "G": ["z1 + z2 - 1"]},
        "zbar": (0.0, 0.0),
        "directions": [(0.0, 1.0), (0.0, -1.0)],
        "necessary_holds": True,
        "oracle": True,
    },
    "active_bound": {
        "doc": {"nz": 2, "m": 2, "f": ["(z1 + 1)^2 + z2^2", "(z1 + 2)^2 + z2^2"],
                "G": ["-z1"]},
        "zbar": (0.0, 0.0),
        "directions": [(0.0, 1.0), (0.0, -1.0)],
        "necessary_holds": True,
        "oracle": True,
    },
    "active_failing": {
        "doc": {"nz": 2, "m": 2, "f": ["z2 - z1^2", "z2 - z1^2"], "G": ["-z2"]},
        "zbar": (0.0, 0.0),
        "directions": [(1.0, 0.0), (-1.0, 0.0)],
        "necessary_holds": False,
        "oracle": False,
    },
}


def fixture(name):
    data = FIXTURES[name]
    return load_findim_problem(data["doc"]), np.asarray(data["zbar"])


class TestLoader:
    def test_round_trip_fields(self):
        p, _ = fixture("convex_pair")
        assert p.nz == 2 and p.m == 2 and p.nE == 1

    def test_unknown_field(self):
        with pytest.raises(FinDimFormatError, match="extra"):
            load_findim_problem({"nz": 1, "m": 1, "f": ["z1"], "G": ["z1"], "extra": 1})

    def test_dimension_mismatch(self):
        with pytest.raises(FinDimFormatError, match="f"):
            load_findim_problem({"nz": 1, "m": 2, "f": ["z1"], "G": ["z1"]})

    def test_expression_error_path(self):
        with pytest.raises(FinDimFormatError, match=r"G\[0\]"):
            load_findim_problem({"nz": 1, "m": 1, "f": ["z1"], "G": ["z2"]})


# Programs beyond the fixtures, for nz = 1, 2, 3: expressions that use only
# some of the variables, a constant constraint and a constant objective.
EXTRA_PROGRAMS = {
    "one_var": ({"nz": 1, "m": 2, "f": ["z1^2", "(z1 - 1)^2 - 0.5"], "G": ["z1 - 1"]},
                (-0.5,)),
    "one_var_constant_f": ({"nz": 1, "m": 2, "f": ["z1^3 - z1", "2"], "G": ["0 - 1"]},
                           (0.0,)),
    "mixed_product": ({"nz": 2, "m": 2, "f": ["z1 * sin(z2)", "exp(z1) - z2^2"],
                       "G": ["z1^2 + z2^2 - 1", "cos(z1) * z2 - 0.5"]}, (0.1, -0.3)),
    "three_var_partial": ({"nz": 3, "m": 3,
                           "f": ["z1^2 - z3", "z2 * z3 + z1", "(z2 - 0.1)^2 - z3^2"],
                           "G": ["z1 + z2 - 1", "0 - 1", "-z3 - 0.2"]}, (0.0, 0.0, 0.0)),
    "three_var_opposed": ({"nz": 3, "m": 2, "f": ["z1^2 + z2", "z3^2 - z2"],
                           "G": ["z1 - 2", "-z3 - 1"]}, (0.0, 0.0, 0.0)),
    "three_var_log": ({"nz": 3, "m": 2, "f": ["log(z3 + 2) * z1 - z2", "z1^2 / (1 + z2^2)"],
                       "G": ["z1 * z2 * z3 - 0.1"]}, (0.05, 0.0, -0.1)),
}

# The quad4_pass program of the findim benchmark workload, unrescaled.
QUAD4 = {"nz": 4, "m": 3,
         "f": ["z1^2 + z2^2 + z3^2 + z4^2", "(z1 - 1)^2 + z2^2 + z3^2 + z4^2",
               "z1^2 + z2^2 + (z3 + 1)^2 + z4^2"],
         "G": ["z1 + z2 + z3 + z4 - 1", "-z4"]}


def all_programs():
    for name, data in FIXTURES.items():
        yield name, load_findim_problem(data["doc"]), np.asarray(data["zbar"])
    for name, (doc, zbar) in EXTRA_PROGRAMS.items():
        yield name, load_findim_problem(doc), np.asarray(zbar)


class TestDerivativeTables:
    """Jacobians and Hessians read from the load-time tables equal fresh
    symbolic derivatives of the parsed expressions."""

    def test_tables_match_fresh_differentiation(self):
        rng = np.random.default_rng(5)
        for name, p, _ in all_programs():
            for _ in range(5):
                z = rng.uniform(-0.9, 0.9, p.nz)
                env = dict(zip(p.variables, z))
                pt = FinDimPoint(p, z)
                for asts, jac, hess in ((p.f, pt.f_jacobian, pt.f_hessians),
                                        (p.G, pt.g_jacobian, pt.g_hessians)):
                    assert jac.shape == (len(asts), p.nz), name
                    assert hess.shape == (len(asts), p.nz, p.nz), name
                    for k, a in enumerate(asts):
                        for i, vi in enumerate(p.variables):
                            di = ex.differentiate(a, vi)
                            ref = ex.evaluate(di, env)
                            assert jac[k, i] == pytest.approx(ref, rel=1e-12, abs=1e-300)
                            for j, vj in enumerate(p.variables):
                                ref = ex.evaluate(ex.differentiate(di, vj), env)
                                assert hess[k, i, j] == pytest.approx(
                                    ref, rel=1e-12, abs=1e-300), (name, k, i, j)

    def test_index_order_of_mixed_terms(self):
        # f = z1 sin(z2): grad = (sin z2, z1 cos z2), d2f/dz2^2 = -z1 sin z2
        p = load_findim_problem({"nz": 2, "m": 1, "f": ["z1 * sin(z2)"], "G": ["z1 - 5"]})
        z = np.array([0.7, 0.3])
        pt = FinDimPoint(p, z)
        np.testing.assert_allclose(pt.f_jacobian, [[np.sin(0.3), 0.7 * np.cos(0.3)]],
                                   rtol=1e-12)
        np.testing.assert_allclose(
            pt.f_hessians, [[[0.0, np.cos(0.3)], [np.cos(0.3), -0.7 * np.sin(0.3)]]],
            rtol=1e-12)


class TestRobinson:
    def test_inactive_point_passes(self):
        p, z = fixture("convex_pair")
        report = robinson_check(FinDimPoint(p, z))
        assert report.passed
        assert len(report.active) == 0

    def test_opposing_gradients_fail(self):
        p = load_findim_problem(
            {"nz": 2, "m": 1, "f": ["z1^2 + z2^2"], "G": ["z1", "-z1"]})
        report = robinson_check(FinDimPoint(p, (0.0, 0.5)))
        assert not report.passed
        assert report.s_opt == pytest.approx(0.0, abs=1e-9)

    def test_zero_gradient_active_row_fails(self):
        p = load_findim_problem({"nz": 2, "m": 1, "f": ["z1^2 + z2^2"], "G": ["z1^2"]})
        report = robinson_check(FinDimPoint(p, (0.0, 0.3)))
        assert not report.passed
        assert report.s_opt == pytest.approx(0.0, abs=1e-9)

    def test_active_bound_passes_with_witness(self):
        p, z = fixture("active_bound")
        report = robinson_check(FinDimPoint(p, z))
        assert report.passed
        rows = FinDimPoint(p, z).g_jacobian[report.active]
        assert np.all(rows @ report.witness < 0)

    def test_infeasible_point_rejected(self):
        p, _ = fixture("active_bound")
        with pytest.raises(InfeasiblePointError):
            robinson_check(FinDimPoint(p, (-1.0, 0.0)))


class TestMultiplierSampling:
    def test_unique_vertex_pair(self):
        # stationarity forces lambda = (1, 0) with e = 0 at the origin
        p, z = fixture("convex_pair")
        pairs = multiplier_set_sample(FinDimPoint(p, z), n_lambda=21)
        assert len(pairs) == 1
        np.testing.assert_allclose(pairs[0].lam, [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(pairs[0].e, [0.0])

    def test_interior_weight_pair(self):
        # opposing linear gradients cancel only at equal weights
        p, z = fixture("opposed_linear")
        pairs = multiplier_set_sample(FinDimPoint(p, z), n_lambda=21)
        assert len(pairs) == 1
        np.testing.assert_allclose(pairs[0].lam, [1 / np.sqrt(2)] * 2, atol=1e-12)

    def test_zero_gradients_accept_every_weight(self):
        p = load_findim_problem(
            {"nz": 2, "m": 2, "f": ["z1^2", "z2^2"], "G": ["z1 + z2 - 1"]})
        pairs = multiplier_set_sample(FinDimPoint(p, (0.0, 0.0)), n_lambda=21)
        assert len(pairs) == 21
        assert all(np.all(pair.e == 0.0) for pair in pairs)

    def test_pair_invariants(self):
        for name in FIXTURES:
            p, z = fixture(name)
            g = p.g_value(z)
            for pair in multiplier_set_sample(FinDimPoint(p, z), n_lambda=21):
                assert pair.stationarity_residual <= 1e-8
                assert np.all(pair.e >= 0)
                assert abs(np.linalg.norm(pair.lam) - 1.0) <= 1e-12
                assert np.max(np.abs(pair.e * g)) <= 1e-12


class TestSecondOrderNecessary:
    def test_convex_fixture_holds(self):
        p, z = fixture("convex_pair")
        pt = FinDimPoint(p, z)
        pairs = multiplier_set_sample(pt)
        curvature, verdict = second_order_necessary_check(pt, (0.0, 1.0), pairs)
        assert verdict
        assert curvature == pytest.approx(2.0)

    def test_zero_direction_holds(self):
        p, z = fixture("convex_pair")
        pt = FinDimPoint(p, z)
        pairs = multiplier_set_sample(pt)
        curvature, verdict = second_order_necessary_check(pt, (0.0, 0.0), pairs)
        assert verdict
        assert curvature == pytest.approx(0.0)

    def test_shared_indefinite_fails_for_every_pair(self):
        p, z = fixture("shared_indefinite")
        pt = FinDimPoint(p, z)
        pairs = multiplier_set_sample(pt)
        curvature, verdict = second_order_necessary_check(pt, (0.0, 1.0), pairs)
        assert not verdict
        assert curvature == pytest.approx(-2.0)

    def test_non_critical_direction_rejected(self):
        p, z = fixture("convex_pair")
        pt = FinDimPoint(p, z)
        pairs = multiplier_set_sample(pt)
        with pytest.raises(NotCriticalError):
            second_order_necessary_check(pt, (-1.0, 0.0), pairs)  # grad f2 . d > 0

    def test_curvature_linear_in_multipliers(self):
        p, z = fixture("active_bound")
        pt = FinDimPoint(p, z)
        pairs = multiplier_set_sample(pt, n_lambda=5)
        assert len(pairs) >= 2
        a, b = pairs[0], pairs[-1]
        d = (0.0, 1.0)

        def curv(pair):
            value, _ = second_order_necessary_check(pt, d, [pair])
            return value

        for c in (0.25, 0.5, 0.75):
            mixed = MultiplierPair(c * a.lam + (1 - c) * b.lam,
                                   c * a.e + (1 - c) * b.e, 0.0)
            assert curv(mixed) == pytest.approx(c * curv(a) + (1 - c) * curv(b),
                                                rel=1e-12)


class TestWeakParetoOracle:
    def test_convex_fixture_true(self):
        p, z = fixture("convex_pair")
        assert weak_pareto_oracle(FinDimPoint(p, z), radius=0.5, steps=20) is True

    def test_shared_indefinite_false(self):
        p, z = fixture("shared_indefinite")
        assert weak_pareto_oracle(FinDimPoint(p, z), radius=0.5, steps=20) is False

    def test_guards(self):
        p, z = fixture("convex_pair")
        with pytest.raises(ValueError):
            weak_pareto_oracle(FinDimPoint(p, z), radius=0.0, steps=20)
        with pytest.raises(ValueError):
            weak_pareto_oracle(FinDimPoint(p, z), radius=0.5, steps=2)
        big = load_findim_problem(
            {"nz": 5, "m": 1, "f": ["z1"], "G": ["z1 + z2 + z3 + z4 + z5"]})
        with pytest.raises(ValueError):
            weak_pareto_oracle(FinDimPoint(big, np.zeros(5)), radius=0.5, steps=3)

    @pytest.mark.parametrize("radius", [np.nan, np.inf])
    def test_nonfinite_radius_rejected(self, radius):
        p, z = fixture("convex_pair")
        with pytest.raises(ValueError, match="finite"):
            weak_pareto_oracle(FinDimPoint(p, z), radius=radius, steps=4)


    @staticmethod
    def reference(p, z, radius, steps, feas_tol=1e-12):
        """Point-by-point scan of the same grid through f_value/g_value."""
        offsets = np.linspace(-radius, radius, 2 * steps + 1)
        f_ref = p.f_value(z)
        for point in itertools.product(*[z[i] + offsets for i in range(p.nz)]):
            point = np.array(point)
            if (np.all(p.g_value(point) <= feas_tol)
                    and np.all(p.f_value(point) < f_ref - 1e-12)):
                return False
        return True

    def test_matches_point_by_point_reference(self):
        outcomes = set()
        for name, p, z in all_programs():
            for radius, steps in ((0.05, 3), (0.3, 4), (0.5, 5)):
                got = weak_pareto_oracle(FinDimPoint(p, z), radius=radius, steps=steps)
                assert got is self.reference(p, z, radius, steps), (name, radius, steps)
                outcomes.add((p.nz, got))
        # every dimension sees both verdicts, so agreement is not vacuous
        assert outcomes == {(nz, v) for nz in (1, 2, 3) for v in (True, False)}

    def test_domain_error_anywhere_on_grid(self):
        p = load_findim_problem({"nz": 2, "m": 1, "f": ["z1 + log(z2)"], "G": ["z1 - 1"]})
        assert weak_pareto_oracle(FinDimPoint(p, (0.0, 0.5)), radius=0.25, steps=4) is False
        with pytest.raises(ex.EvalDomainError, match="log of non-positive value"):
            weak_pareto_oracle(FinDimPoint(p, (0.0, 0.2)), radius=0.25, steps=4)

    def test_domain_error_after_first_dominating_slab_is_unseen(self):
        # G divides by zero only on the last z1 row (z1 = 0.25), which lies in
        # a later slab than the dominating points z1 < 0
        p = load_findim_problem({"nz": 3, "m": 1, "f": ["z1 + z2^2 + z3^2"],
                                 "G": ["1 / (z1 - 0.25)"]})
        steps = 25
        assert (2 * steps + 1) ** p.nz > ORACLE_SLAB_POINTS
        point = FinDimPoint(p, np.zeros(3))
        assert weak_pareto_oracle(point, radius=0.25, steps=steps) is False

    @pytest.mark.parametrize("doc", [
        {"nz": 2, "m": 2, "f": ["z1 + z2", "exp(1000 * z2)"], "G": ["z1 - 1"]},
        {"nz": 2, "m": 2, "f": ["exp(1000 * z1)", "0 - z1 + z2^2"], "G": ["z2 - 1"]},
        {"nz": 2, "m": 2, "f": ["z1 + z2", "z2 - z1"], "G": ["exp(1000 * z1) - 2"]},
    ], ids=["f-dominated", "f-pareto", "g-overflow"])
    def test_overflowing_grid_matches_reference(self, doc):
        # the compiled slab overflows, so the slab is evaluated again at the
        # caller's error state, where inf is a value
        p = load_findim_problem(doc)
        point = FinDimPoint(p, np.zeros(2))
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            weak_pareto_oracle(point, radius=1.0, steps=4)
        with np.errstate(over="ignore"):
            for radius, steps in ((0.5, 4), (1.0, 5)):
                got = weak_pareto_oracle(point, radius=radius, steps=steps)
                assert got is self.reference(p, point.z, radius, steps), (radius, steps)

    def test_literal_beyond_double_range_matches_reference(self):
        # a 401-digit literal reads inf, which compiled code cannot spell
        big = "1" + "0" * 400
        p = load_findim_problem({"nz": 2, "m": 2, "f": ["z1 + z2", "z2 - z1"],
                                 "G": [f"{big} * (z1 - 2)"]})
        point = FinDimPoint(p, np.zeros(2))
        got = weak_pareto_oracle(point, radius=0.5, steps=4)
        assert got is self.reference(p, point.z, 0.5, 4) is False

    @pytest.mark.parametrize("f, g, divisor", [
        ("z1 + 1 / (z2 + 0.25)", "z1 - 1", "z2 + 0.25"),  # z2 = -0.25 starts every row
        ("z1", "z1 - 1 / (2 - 2)", "2 - 2"),  # compiled: ZeroDivisionError on floats
    ], ids=["on-grid", "constant"])
    def test_division_by_zero_raises_like_reference(self, f, g, divisor):
        p = load_findim_problem({"nz": 2, "m": 1, "f": [f], "G": [g]})
        message = re.escape(f"division by zero in '1 / ({divisor})'")
        with pytest.raises(ex.EvalDomainError, match=message):
            weak_pareto_oracle(FinDimPoint(p, np.zeros(2)), radius=0.25, steps=4)
        with pytest.raises(ex.EvalDomainError, match=message):
            self.reference(p, np.zeros(2), 0.25, 4)

    def test_peak_memory_below_coordinate_grid(self):
        # a few slabs: a float64 temporary takes 1 MB on one slab and 54 MB
        # on the full 51^4 grid
        p = load_findim_problem(QUAD4)
        tracemalloc.start()
        try:
            point = FinDimPoint(p, np.zeros(4))
            assert weak_pareto_oracle(point, radius=0.4, steps=25) is True
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, peak


class TestSoundnessLink:
    def test_necessary_failure_implies_not_weak_pareto(self):
        """Contrapositive audit over all fixtures with exhaustive sampling."""
        for name, data in FIXTURES.items():
            p, z = fixture(name)
            pt = FinDimPoint(p, z)
            assert robinson_check(pt).passed, name
            pairs = multiplier_set_sample(pt, n_lambda=21)
            assert pairs, name
            any_failure = False
            for d in data["directions"]:
                _, verdict = second_order_necessary_check(pt, d, pairs)
                if not verdict:
                    any_failure = True
            oracle = weak_pareto_oracle(pt, radius=0.4, steps=12)
            assert oracle is data["oracle"], name
            assert any_failure is (not data["necessary_holds"]), name
            if any_failure:
                assert oracle is False, f"soundness link broken on {name}"
