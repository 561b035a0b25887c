"""Expression parsing, evaluation, differentiation, and simplification."""

import numpy as np
import pytest

from paretocert.expr import (
    Bin,
    Call,
    Const,
    EvalDomainError,
    ExprSyntaxError,
    Neg,
    NonIntegerExponentError,
    Pow,
    UnknownVariableError,
    Var,
    VarBinding,
    compile_ast,
    control_variables,
    deriv_table,
    differentiate,
    evaluate,
    parse,
    parse_with_variables,
    simplify,
    to_source,
)

# Expressions exercising every operator; parsed against (n, l) = (2, 2).
CORPUS = [
    "x1^2 + u1^2",
    "x2^2 + u2^2",
    "x1^2 - u1^2",
    "u1",
    "u2",
    "x1 + x2 - u1 - u2",
    "t^3",
    "sin(x1) - x2 + u1",
    "cos(t)*x1 + exp(u1/2)",
    "log(x1 + 3) * u2",
    "(x1 - u2)^3 / (t + 2)",
    "-x1^2 + 2*t",
]


def central_fd(expr_ast, var, binding, h=1e-6):
    """Independent first-derivative oracle: central difference in one variable."""
    env = binding.to_env()
    lo, hi = dict(env), dict(env)
    lo[var] = env[var] - h
    hi[var] = env[var] + h
    return (evaluate(expr_ast, hi) - evaluate(expr_ast, lo)) / (2 * h)


def random_binding(rng, n=2, l=2, low=-2.0, high=2.0):
    return VarBinding(
        t=float(rng.uniform(0.0, 1.0)),
        x=tuple(rng.uniform(low, high, size=n)),
        u=tuple(rng.uniform(low, high, size=l)),
    )


class TestParse:
    def test_quadratic_running_cost_shape(self):
        ast = parse("x1^2 + u1^2", (2, 2))
        assert ast == Bin("+", Pow(Var("x1"), 2), Pow(Var("u1"), 2))

    def test_zero_literal(self):
        assert parse("0", (2, 2)) == Const(0.0)

    def test_out_of_range_variable(self):
        with pytest.raises(UnknownVariableError):
            parse("x3", (2, 2))

    def test_precedence_pow_tighter_than_neg(self):
        assert parse("-x1^2", (2, 2)) == Neg(Pow(Var("x1"), 2))

    def test_left_associativity(self):
        ast = parse("x1 - x2 - t", (2, 2))
        assert ast == Bin("-", Bin("-", Var("x1"), Var("x2")), Var("t"))

    def test_parenthesised_subexpression(self):
        ast = parse("x1*(x2 + t)", (2, 2))
        assert ast == Bin("*", Var("x1"), Bin("+", Var("x2"), Var("t")))

    def test_function_call(self):
        assert parse("sin(t)", (1, 1)) == Call("sin", Var("t"))

    def test_non_integer_exponent_rejected(self):
        with pytest.raises(NonIntegerExponentError):
            parse("x1^2.5", (2, 2))

    def test_negative_exponent_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse("x1^-2", (2, 2))

    def test_unknown_function(self):
        with pytest.raises(UnknownVariableError):
            parse("tan(x1)", (2, 2))

    def test_variable_used_as_function(self):
        with pytest.raises(ExprSyntaxError):
            parse("x1(t)", (2, 2))

    def test_bare_function_name(self):
        with pytest.raises(ExprSyntaxError):
            parse("sin + 1", (2, 2))

    def test_syntax_error_reports_offset(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("x1 + + u1", (2, 2))
        assert err.value.offset == 5

    @pytest.mark.parametrize("source, offset", [
        ("x1 + 1" + "0" * 400, 5),  # reads inf as a double
        ("x1^1" + "0" * 400, 3),  # the exponent too
    ], ids=["literal", "exponent"])
    def test_literal_beyond_double_range_rejected(self, source, offset):
        with pytest.raises(ExprSyntaxError, match="number too large for a double") as err:
            parse(source, (2, 2))
        assert err.value.offset == offset

    def test_trailing_garbage(self):
        with pytest.raises(ExprSyntaxError):
            parse("x1 x2", (2, 2))

    def test_double_unary_minus_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse("--x1", (2, 2))

    def test_generic_variable_set(self):
        ast = parse_with_variables("z1^2 - z2^2", ("z1", "z2"))
        assert ast == Bin("-", Pow(Var("z1"), 2), Pow(Var("z2"), 2))


class TestEvaluate:
    def test_linear_combination(self):
        ast = parse("x1 + x2 - u1 - u2", (2, 2))
        assert evaluate(ast, VarBinding(0.0, (1.0, 2.0), (3.0, 4.0))) == -4.0

    def test_indefinite_cost_at_half(self):
        ast = parse("x1^2 - u1^2", (2, 2))
        value = evaluate(ast, VarBinding(0.5, (0.5, 0.5), (1.0, 1.0)))
        assert value == pytest.approx(-0.75, abs=1e-15)

    def test_exp_identity(self):
        assert evaluate(parse("exp(0)", (1, 1)), VarBinding(0.0, (0.0,), (0.0,))) == 1.0

    def test_division_by_zero(self):
        ast = parse("1/(x1 - 1)", (1, 1))
        with pytest.raises(EvalDomainError):
            evaluate(ast, VarBinding(0.0, (1.0,), (0.0,)))

    def test_log_non_positive(self):
        ast = parse("log(x1)", (1, 1))
        with pytest.raises(EvalDomainError):
            evaluate(ast, VarBinding(0.0, (-1.0,), (0.0,)))

    def test_array_broadcast(self):
        ast = parse("x1^2 + t", (1, 1))
        t = np.linspace(0, 1, 5)
        x1 = np.linspace(-1, 1, 5)
        out = evaluate(ast, {"t": t, "x1": x1, "u1": 0.0})
        np.testing.assert_allclose(out, x1**2 + t)


class TestDifferentiate:
    def test_quadratic_control_gradient(self):
        ast = parse("x1^2 + u1^2", (2, 2))
        dd = simplify(differentiate(ast, "u1"))
        rng = np.random.default_rng(0)
        for _ in range(20):
            b = random_binding(rng)
            assert evaluate(dd, b) == pytest.approx(2 * b.u[0], rel=1e-14)

    def test_derivative_of_independent_variable(self):
        assert simplify(differentiate(parse("u1", (2, 2)), "x2")) == Const(0.0)

    def test_second_time_derivative_of_cubic(self):
        ast = parse("t^3", (1, 1))
        first = differentiate(ast, "t")
        second = simplify(differentiate(first, "t"))
        binding = VarBinding(0.7, (0.0,), (0.0,))
        value = evaluate(second, binding)
        assert value == pytest.approx(4.2, abs=1e-12)
        # independent oracle: central difference of the first derivative
        fd = central_fd(first, "t", binding, h=1e-5)
        assert value == pytest.approx(fd, abs=1e-6)

    def test_first_derivatives_match_central_differences(self):
        rng = np.random.default_rng(7)
        for source in CORPUS:
            ast = parse(source, (2, 2))
            derivs = {v: simplify(differentiate(ast, v)) for v in control_variables(2, 2)}
            for _ in range(100):
                b = random_binding(rng)
                for v, dd in derivs.items():
                    fd = central_fd(ast, v, b)
                    got = evaluate(dd, b)
                    assert abs(got - fd) <= 1e-6 * (1.0 + abs(got))

    def test_mixed_partials_commute(self):
        rng = np.random.default_rng(11)
        for source in CORPUS:
            ast = parse(source, (2, 2))
            for v, w in [("x1", "u1"), ("x2", "t"), ("u1", "u2")]:
                vw = simplify(differentiate(differentiate(ast, v), w))
                wv = simplify(differentiate(differentiate(ast, w), v))
                for _ in range(10):
                    b = random_binding(rng)
                    a, c = evaluate(vw, b), evaluate(wv, b)
                    assert abs(a - c) <= 1e-12 * max(1.0, abs(a), abs(c))

    def test_hessian_table_is_symmetric_by_construction(self):
        variables = ("x1", "x2", "u1")
        ast = parse("exp(x1*x2) + x1^3*u1", (2, 1))
        table = deriv_table(ast, variables)
        for i in range(len(variables)):
            for j in range(i, len(variables)):
                assert table.hess[j][i] is table.hess[i][j]
                assert table.hess[i][j] == simplify(differentiate(table.grad[i], variables[j]))


class TestSimplify:
    def test_unit_and_annihilator_rules(self):
        assert simplify(parse("0*u1 + 1*x1", (2, 2))) == Var("x1")

    def test_constant_folding(self):
        assert simplify(parse("2*3", (1, 1))) == Const(6.0)

    def test_pow_rules(self):
        assert simplify(parse("x1^0", (1, 1))) == Const(1.0)
        assert simplify(parse("x1^1", (1, 1))) == Var("x1")

    def test_simplified_derivative_evaluates_identically(self):
        rng = np.random.default_rng(3)
        ast = parse("x1^2", (1, 1))
        raw = differentiate(ast, "x1")
        cooked = simplify(raw)
        for _ in range(100):
            b = VarBinding(0.0, (float(rng.uniform(-2, 2)),), (0.0,))
            assert evaluate(cooked, b) == pytest.approx(evaluate(raw, b), abs=1e-14)

    def test_random_asts_preserve_evaluation(self):
        rng = np.random.default_rng(42)
        variables = control_variables(2, 2)
        for _ in range(200):
            ast = _random_ast(rng, depth=8)
            cooked = simplify(ast)
            for _ in range(5):
                b = random_binding(rng)
                ref = evaluate(ast, b)
                got = evaluate(cooked, b)
                assert abs(got - ref) <= 1e-12 * (1.0 + abs(ref))


def _random_ast(rng, depth):
    """Random AST over a domain-safe operator set (no div/log/exp blowups)."""
    if depth == 0 or rng.uniform() < 0.25:
        if rng.uniform() < 0.5:
            return Const(float(np.round(rng.uniform(-2, 2), 3)))
        return Var(str(rng.choice(["t", "x1", "x2", "u1", "u2"])))
    kind = rng.choice(["bin", "neg", "call", "pow"])
    if kind == "bin":
        op = str(rng.choice(["+", "-", "*"]))
        return Bin(op, _random_ast(rng, depth - 1), _random_ast(rng, depth - 1))
    if kind == "neg":
        return Neg(_random_ast(rng, depth - 1))
    if kind == "call":
        return Call(str(rng.choice(["sin", "cos"])), _random_ast(rng, depth - 1))
    return Pow(_random_ast(rng, depth - 1), int(rng.integers(0, 4)))


class TestRoundTrip:
    def test_parse_print_parse_is_fixed_point_on_corpus(self):
        for source in CORPUS:
            first = parse(source, (2, 2))
            again = parse(to_source(first), (2, 2))
            assert again == first

    def test_printing_is_stable_for_random_asts(self):
        rng = np.random.default_rng(5)
        variables = control_variables(2, 2)
        for _ in range(300):
            ast = _random_ast(rng, depth=6)
            once = parse_with_variables(to_source(ast), variables)
            twice = parse_with_variables(to_source(once), variables)
            assert twice == once

    def test_simplified_asts_round_trip(self):
        for source in CORPUS:
            cooked = simplify(parse(source, (2, 2)))
            once = parse(to_source(cooked), (2, 2))
            twice = parse(to_source(once), (2, 2))
            assert twice == once


class TestCompile:
    def test_compiled_matches_evaluate(self):
        rng = np.random.default_rng(9)
        variables = control_variables(2, 2)
        for source in CORPUS:
            ast = parse(source, (2, 2))
            fn = compile_ast(ast, variables)
            for _ in range(25):
                b = random_binding(rng)
                packed = (b.t, *b.x, *b.u)
                assert fn(packed) == pytest.approx(evaluate(ast, b), rel=1e-14, abs=1e-14)

    def test_compiled_vectorises(self):
        ast = parse("sin(t)*x1 + u1^2", (1, 1))
        fn = compile_ast(ast, control_variables(1, 1))
        t = np.linspace(0, 1, 11)
        x = np.linspace(-1, 1, 11)
        u = np.linspace(0, 2, 11)
        np.testing.assert_allclose(fn((t, x, u)), np.sin(t) * x + u**2)
