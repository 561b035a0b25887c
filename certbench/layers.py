"""Which program functions the traced run wraps, and the per-layer values.

Layers follow the package's modules: trajectory (integrator, field tables,
linear maps and their affine scan), problem/expr (loading, node
evaluation, the compiled-expression cache and the tree interpreter), kkt,
second_order, findim, and certificate/cli.  Every per-layer metric is
normalised per traced request (or per call, for ratios), so runs of
different length compare directly; counts repeat exactly for a seed because
runs replay whole request cycles.
"""

from __future__ import annotations

from tracer import Tracer


def _arg(args, kwargs, position, name):
    return kwargs[name] if name in kwargs else args[position]


def _scan(tracer, args, kwargs, result):
    linear_map = args[0]
    tracer.add_scan(len(linear_map.phi), linear_map.n)


def _kkt_solve(tracer, args, kwargs, result):
    report = result[2]
    tracer.stats["kkt.iterations"] += report.iterations
    tracer.stats["kkt.converged"] += bool(report.converged)


def _random_directions(tracer, args, kwargs, result):
    tracer.stats["random_directions.requested"] += _arg(args, kwargs, 2, "count")
    tracer.stats["random_directions.returned"] += len(result)


def _worst_direction(tracer, args, kwargs, result):
    tracer.stats["worst_direction.converged"] += bool(result.converged)


def _multiplier_sample(tracer, args, kwargs, result):
    from paretocert.simplex import simplex_grid

    problem = args[0]
    n_lambda = kwargs.get("n_lambda", args[2] if len(args) > 2 else 21)
    tracer.stats["multiplier_sample.weights"] += len(simplex_grid(problem.m, n_lambda))
    tracer.stats["multiplier_sample.kept"] += len(result)


def _oracle(tracer, args, kwargs, result):
    steps = _arg(args, kwargs, 3, "steps")
    tracer.stats["oracle.points"] += (2 * steps + 1) ** args[0].nz


def _dumps(tracer, args, kwargs, result):
    tracer.stats["certificate.bytes"] += len(result.encode("utf-8"))
    tracer.stats["certificate.count"] += 1


def targets(t: Tracer) -> list:
    def span(name, after=None):
        return lambda fn: t.span(name, fn, after)

    def counter(name):
        return lambda fn: t.counter(name, fn)

    return [
        ("paretocert.trajectory.LinearStateMap.apply", span("trajectory.linear_apply", _scan)),
        ("paretocert.trajectory.LinearStateMap.apply_transpose",
         span("trajectory.linear_apply", _scan)),
        ("paretocert.trajectory.BackwardLinearMap.solve", span("trajectory.backward_solve", _scan)),
        ("paretocert.trajectory.LinearStateMap.__init__", span("trajectory.map_build")),
        ("paretocert.trajectory.BackwardLinearMap.__init__", span("trajectory.map_build")),
        ("paretocert.trajectory.integrate_state", span("trajectory.integrate_state")),
        ("paretocert.trajectory.build_fields", span("trajectory.build_fields")),
        ("paretocert.problem.load_problem", span("problem.load")),
        ("paretocert.problem.builtin", span("problem.load")),
        ("paretocert.problem.node_values", span("problem.node_values")),
        ("paretocert.problem.validate_h2", span("problem.validate_h2")),
        ("paretocert.problem.Problem.compiled", counter("problem.compiled")),
        ("paretocert.expr.compile_ast", counter("expr.compile_ast")),
        ("paretocert.expr.evaluate", span("expr.evaluate")),
        ("paretocert.kkt.KktWorkspace.solve", span("kkt.solve", _kkt_solve)),
        ("paretocert.second_order.SecondOrderWorkspace.project_cone",
         span("second_order.project_cone")),
        ("paretocert.second_order.SecondOrderWorkspace.membership",
         counter("second_order.membership")),
        ("paretocert.second_order.random_critical_directions",
         span("second_order.random_directions", _random_directions)),
        ("paretocert.second_order.worst_critical_direction",
         span("second_order.worst_direction", _worst_direction)),
        ("paretocert.second_order.socn_verdict", span("second_order.socn_verdict")),
        ("paretocert.findim.robinson_check", span("findim.robinson_check")),
        ("paretocert.findim.multiplier_set_sample",
         span("findim.multiplier_sample", _multiplier_sample)),
        ("paretocert.findim.second_order_necessary_check", span("findim.necessary_check")),
        ("paretocert.findim.weak_pareto_oracle", span("findim.oracle", _oracle)),
        ("paretocert.certificate.assemble", span("certificate.assemble")),
        ("paretocert.certificate.dumps", span("certificate.dumps", _dumps)),
        ("paretocert.cli.main", span("cli.main")),
    ]


def per_layer_values(t: Tracer, requests: int, overhead_frac: float) -> dict:
    """Per-layer values by metric name, including ``<span>.self_s`` for every
    span; a layer the workload never reaches reads 0."""

    def per_request(value):
        return value / requests

    def ratio(num, den):
        return num / den if den else 0.0

    calls, self_time, stats = t.calls, t.self_time, t.stats
    values = {
        "trajectory.linear_apply.calls": per_request(calls["trajectory.linear_apply"]),
        "trajectory.scan.flops_computed": per_request(stats["scan.flops"]),
        "trajectory.scan.bytes_computed": per_request(stats["scan.bytes"]),
        "trajectory.backward_solve.calls": per_request(calls["trajectory.backward_solve"]),
        "problem.node_values.calls": per_request(calls["problem.node_values"]),
        "expr.compile_ast.calls": per_request(calls["expr.compile_ast"]),
        "expr.compile_cache.hit_ratio": ratio(
            calls["problem.compiled"] - calls["expr.compile_ast"], calls["problem.compiled"]),
        "expr.evaluate.calls": per_request(calls["expr.evaluate"]),
        "kkt.solve.calls": per_request(calls["kkt.solve"]),
        "kkt.fixed_point.iterations": ratio(stats["kkt.iterations"], calls["kkt.solve"]),
        "kkt.solve.converged_ratio": ratio(stats["kkt.converged"], calls["kkt.solve"]),
        "second_order.project_cone.calls": per_request(calls["second_order.project_cone"]),
        "second_order.random_directions.accept_ratio": ratio(
            stats["random_directions.returned"], stats["random_directions.requested"]),
        "second_order.worst_direction.converged_ratio": ratio(
            stats["worst_direction.converged"], calls["second_order.worst_direction"]),
        "second_order.membership.calls": per_request(calls["second_order.membership"]),
        "findim.multiplier_sample.kept_ratio": ratio(
            stats["multiplier_sample.kept"], stats["multiplier_sample.weights"]),
        "findim.oracle.points": per_request(stats["oracle.points"]),
        "certificate.bytes": ratio(stats["certificate.bytes"], stats["certificate.count"]),
        "trace.overhead_frac": overhead_frac,
    }
    for name in t.span_names:
        values[f"{name}.self_s"] = per_request(self_time[name])
    return values
