"""Command-line entry point emitting JSON certificates.

Exit codes: 0 = checks passed, 2 = a check failed and the certificate says
why, 1 = usage or input error.  Certificates go to stdout (or --out) and are
byte-deterministic for fixed inputs and --seed, apart from the wall_time_s
field.  Only check-socn and check-socs draw random numbers or read an
activity threshold, so only they take --seed and --eps-act; check-kkt,
findim and check-socn with --directions (which draws none) record seed as
null, and findim records grid_n as null too.  One
--tol bounds every residual of a request (and, for the second-order
commands, cone membership and the curvature signs).  --tol, --gamma0 and
--radius must be positive and finite, --eps-act finite and nonnegative, and
--grid at least 2.  When the constraint-sensitivity (H2) gate fails,
check-kkt records a stub kkt fragment instead of solving for multipliers, as
the second-order commands record a gated fragment.

This module alone records request values, each once per certificate: --tol
(and --eps-act) in the top-level tolerances record, the grid and the seed at
the top level, and every other request input in parameters, findim's --dir
values among them.  The --traj and --directions files are recorded by path
and by the SHA-256 of the bytes that were parsed.  Fragments hold results
only, and name a given direction by its index.  A random probe of
check-socn is generated, not given, so a failing one is a result and is
recorded whole.  Every input file is read under the rules of
paretocert.document, its samples shaped as the request expects: the
problem's n and l columns, and directions on the grid of --traj (or of
--grid when no trajectory file is given).
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from . import certificate as cert
from . import document as doc
from .findim import (
    FinDimPoint,
    NotCriticalError,
    load_findim_problem,
    multiplier_set_sample,
    robinson_check,
    second_order_necessary_check,
    weak_pareto_oracle,
)
from .kkt import KktWorkspace, MultiplierTriple
from .problem import builtin, load_problem, serialize
from .second_order import (
    SecondOrderWorkspace,
    SocnFragment,
    SocsFragment,
    random_critical_directions,
    socn_verdict,
    socs_verdict,
)
from .trajectory import (
    Direction,
    Grid,
    Trajectory,
    integrate_state,
    state_residual,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parse_floats(text: str, label: str) -> np.ndarray:
    message = f"{label} must be a comma-separated list of finite numbers"
    try:
        values = np.array([float(v) for v in text.split(",")], dtype=float)
    except ValueError:
        raise _UsageError(message)
    if not np.isfinite(values).all():
        raise _UsageError(message)
    return values


def _at_least(flag: str, value: int, low: int) -> None:
    if value < low:
        raise _UsageError(f"{flag} must be at least {low}")


def _load_problem_arg(spec: str):
    if spec.startswith("builtin:"):
        return builtin(spec.split(":", 1)[1])
    return doc.read(spec, "problem", load_problem)[0]


def _invalid(kind: str, where: str = ""):
    """The error of a trajectory, direction or control document; where
    names the entry of a list."""
    return lambda message: doc.DocumentError(f"invalid {kind} document ({where}{message})")


def _load_trajectory(args, problem, params: dict) -> Trajectory:
    """The --traj document, recorded in params by path and digest, or the
    zero-control trajectory on the --grid grid."""
    _at_least("--grid", args.grid, 2)
    if args.traj is None:
        grid = Grid(args.grid)
        u = np.zeros((args.grid + 1, problem.l))
        return integrate_state(problem, u, grid)
    traj, params["traj_sha256"] = doc.read(args.traj, "trajectory", lambda data: (
        Trajectory.from_dict(data, (problem.n, problem.l), error=_invalid("trajectory"))))
    params["traj_path"] = args.traj
    return traj


def _load_directions(path: str, problem, grid_n: int) -> tuple[list[Direction], str]:
    """The directions a file holds (an object or a list), each on the
    reference grid, and the SHA-256 of the bytes that were parsed."""
    def schema(data):
        entries = data if isinstance(data, list) else [data]
        return [Direction.from_dict(entry, (problem.n, problem.l), grid_n,
                                    _invalid("direction", f"direction {i}: "))
                for i, entry in enumerate(entries)]

    return doc.read(path, "directions", schema)


def _threshold(allow_zero: bool):
    """argparse type of a finite threshold that is positive, or nonnegative
    when allow_zero."""
    kind = "nonnegative" if allow_zero else "positive"

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = np.nan
        if not (np.isfinite(value) and (value > 0 or (allow_zero and value == 0))):
            raise argparse.ArgumentTypeError(f"must be a finite {kind} number, not {text!r}")
        return value

    return parse


def _lambda_arg(args, m: int) -> np.ndarray:
    if args.lam is None:
        raise _UsageError("--lambda is required for this command")
    lam = _parse_floats(args.lam, "--lambda")
    if len(lam) != m:
        raise _UsageError(f"--lambda needs {m} entries for this problem")
    if np.any(lam < 0) or not np.any(lam > 0):
        raise _UsageError("--lambda entries must be nonnegative and not all zero")
    return lam


def _emit(args, payload: str) -> None:
    if args.out is None:
        sys.stdout.write(payload)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)


def _gate_fragments(ws: KktWorkspace) -> dict:
    res = ws.fields.state_residual
    g_max = ws.fields.g.max()
    feasibility = {
        "state_residual": res,
        "constraint_residual": max(0.0, g_max),
        "passed": res <= ws.tol and g_max <= ws.tol,
    }
    return {"feasibility": feasibility, "h2": ws.h2}


def _finish(args, command, fragments, parameters, started, *,
            name, digest, grid_n, seed):
    request = vars(args)
    tolerances = {key: request[key] for key in ("tol", "eps_act") if key in request}
    certificate = cert.assemble(
        command=command,
        fragments=fragments,
        problem_name=name,
        problem_digest=digest,
        grid_n=grid_n,
        tolerances=tolerances,
        seed=seed,
        parameters=parameters,
        wall_time_s=time.perf_counter() - started,
    )
    _emit(args, cert.dumps(certificate))
    verdict = certificate["overall_verdict"]
    return 0 if verdict in ("kkt-pass", "socn-pass", "socs-pass", "findim-pass") else 2


# ---------------------------------------------------------------------------
# Command handlers


def _cmd_check_kkt(args) -> int:
    started = time.perf_counter()
    problem = _load_problem_arg(args.problem)
    lam = _lambda_arg(args, problem.m)
    params = {"lambda": lam}
    traj = _load_trajectory(args, problem, params)
    ws = KktWorkspace(problem, traj, args.tol)
    fragments = _gate_fragments(ws)
    if ws.h2.passed:
        fragments["kkt"] = ws.solve(lam)[2]
    else:
        fragments["kkt"] = {"passed": False,
                            "note": "h2 gate failed; multipliers not recovered"}
    return _finish(args, "check-kkt", fragments, params, started,
                   name=problem.name, digest=cert.problem_hash(problem),
                   grid_n=traj.grid.n_intervals, seed=None)


def _cmd_check_socn(args) -> int:
    started = time.perf_counter()
    problem = _load_problem_arg(args.problem)
    _at_least("--probes", args.probes, 1)
    _at_least("--lambda-grid", args.lambda_grid, 1)
    _at_least("--seed", args.seed, 0)
    params = {"lambda_grid": args.lambda_grid}
    traj = _load_trajectory(args, problem, params)
    directions = None
    if args.directions is not None:
        directions, params["directions_sha256"] = _load_directions(
            args.directions, problem, traj.grid.n_intervals)
        params["directions_path"] = args.directions
    else:
        params["probes"] = args.probes
    ws = SecondOrderWorkspace(problem, traj, args.tol, args.eps_act)
    fragments = _gate_fragments(ws)
    if fragments["feasibility"]["passed"] and ws.h2.passed:
        probed = directions is None
        if probed:
            directions = random_critical_directions(ws, count=args.probes,
                                                    seed=args.seed)
        socn = socn_verdict(ws, directions, lambda_points=args.lambda_grid)
        # a file-given direction is named by its index and the file's digest;
        # a failing probe was generated, not given, so it is recorded whole
        if probed and socn.verdict in ("violated", "kkt-degenerate"):
            last = socn.results[-1]
            last["direction"] = directions[last["index"]]
        fragments["socn"] = socn
    else:
        fragments["socn"] = SocnFragment("gated", 0, [], [], [],
                                         note="gates failed; sweep not run")
    return _finish(args, "check-socn", fragments, params, started,
                   name=problem.name, digest=cert.problem_hash(problem),
                   grid_n=traj.grid.n_intervals,
                   seed=None if args.directions is not None else args.seed)


def _cmd_check_socs(args) -> int:
    started = time.perf_counter()
    problem = _load_problem_arg(args.problem)
    lam = _lambda_arg(args, problem.m)
    if args.gamma0 is None:
        raise _UsageError("--gamma0 is required")
    _at_least("--probes", args.probes, 1)
    _at_least("--max-iters", args.max_iters, 1)
    _at_least("--seed", args.seed, 0)
    params = {"lambda": lam, "gamma0": args.gamma0, "probes": args.probes,
              "max_iters": args.max_iters}
    traj = _load_trajectory(args, problem, params)
    ws = SecondOrderWorkspace(problem, traj, args.tol, args.eps_act)
    fragments = _gate_fragments(ws)
    if fragments["feasibility"]["passed"] and ws.h2.passed:
        p, theta, _ = ws.solve(lam)
        fragments["socs"] = socs_verdict(ws, MultiplierTriple(lam, p, theta),
                                         gamma0=args.gamma0, n_probes=args.probes,
                                         max_iters=args.max_iters, seed=args.seed)
    else:
        fragments["socs"] = SocsFragment("gated", "gates", None, None, None, "")
    return _finish(args, "check-socs", fragments, params, started,
                   name=problem.name, digest=cert.problem_hash(problem),
                   grid_n=traj.grid.n_intervals, seed=args.seed)


def _cmd_findim(args) -> int:
    started = time.perf_counter()
    _at_least("--steps", args.steps, 3)
    _at_least("--lambda-grid", args.lambda_grid, 1)
    problem = doc.read(args.problem, "problem", load_findim_problem)[0]
    if args.zbar is None:
        raise _UsageError("--zbar is required")
    zbar = _parse_floats(args.zbar, "--zbar")
    if len(zbar) != problem.nz:
        raise _UsageError(f"--zbar needs {problem.nz} entries")
    directions = [_parse_floats(d, "--dir") for d in (args.dir or [])]
    for d in directions:
        if len(d) != problem.nz:
            raise _UsageError(f"--dir needs {problem.nz} entries")

    point = FinDimPoint(problem, zbar, args.tol)
    fragments = {}
    robinson = robinson_check(point)
    fragments["robinson"] = robinson
    pairs = []
    dir_entries = []
    if robinson.passed:
        pairs = multiplier_set_sample(point, n_lambda=args.lambda_grid)
        any_failure = False
        for i, d in enumerate(directions):
            entry = {"index": i}
            try:
                curvature, verdict = second_order_necessary_check(point, d, pairs)
            except NotCriticalError as err:
                entry["critical"] = False
                entry["note"] = str(err)
            else:
                entry["critical"] = True
                entry["max_curvature"] = curvature
                entry["verdict"] = verdict
                any_failure = any_failure or not verdict
            dir_entries.append(entry)
        oracle_value = weak_pareto_oracle(point, radius=args.radius,
                                          steps=args.steps)
        fragments["oracle"] = {"weak_pareto": oracle_value}
        # contrapositive audit: an exhaustive-sample necessary failure at a
        # regular point must coincide with a negative oracle
        fragments["consistency"] = {
            "necessary_failed": any_failure,
            "agrees_with_oracle": not any_failure or not oracle_value,
        }
    else:
        fragments["oracle"] = {"weak_pareto": False, "note": "skipped: gates failed"}
        fragments["consistency"] = {"necessary_failed": None,
                                    "agrees_with_oracle": None}
    fragments["multipliers"] = {"pairs": pairs}
    fragments["directions"] = dir_entries
    params = {"zbar": zbar, "dir": directions, "radius": args.radius,
              "steps": args.steps, "lambda_grid": args.lambda_grid}
    return _finish(args, "findim", fragments, params, started,
                   name=None, digest=cert.findim_hash(problem), grid_n=None, seed=None)


def _cmd_integrate(args) -> int:
    _at_least("--grid", args.grid, 2)
    problem = _load_problem_arg(args.problem)

    def control(data):
        """The grid ('grid_n', or --grid when absent) and the samples 'u' on it."""
        error = _invalid("control")
        doc.mapping(data, ("u",), ("grid_n",), error)
        grid = Grid(doc.integer(data, "grid_n", 2, error) if "grid_n" in data else args.grid)
        return grid, doc.samples(data, "u", (grid.n_intervals + 1, problem.l), error)

    if args.control is None:
        grid, u = Grid(args.grid), np.zeros((args.grid + 1, problem.l))
    else:
        (grid, u), _ = doc.read(args.control, "control", control)
    traj = integrate_state(problem, u, grid)
    payload = {
        **traj.to_dict(),
        "state_residual": state_residual(problem, traj),
    }
    _emit(args, cert.dumps(cert.jsonable(payload)))
    return 0


def _cmd_show_builtin(args) -> int:
    _emit(args, cert.dumps(serialize(builtin(args.name))))
    return 0


# ---------------------------------------------------------------------------
# Parser assembly


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="paretocert",
        description="optimality certificates for multi-objective optimal "
                    "control problems with a mixed pointwise constraint",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p, needs_lambda=False):
        p.add_argument("problem", help="problem file path or builtin:<name>")
        p.add_argument("--traj", help="trajectory JSON (default: zero control)")
        p.add_argument("--grid", type=int, default=1000,
                       help="grid intervals when no trajectory file is given")
        p.add_argument("--tol", type=_threshold(allow_zero=False), default=1e-8,
                       help="tolerance of every residual and of cone membership")
        p.add_argument("--out", help="certificate output path (default stdout)")
        if needs_lambda:
            p.add_argument("--lambda", dest="lam",
                           help="comma-separated objective weights")

    def second_order(p):
        p.add_argument("--eps-act", type=_threshold(allow_zero=True), default=1e-8,
                       dest="eps_act", help="constraint activity threshold")
        p.add_argument("--seed", type=int, default=42)

    p = sub.add_parser("check-kkt", help="first-order (KKT) residual check")
    common(p, needs_lambda=True)
    p.set_defaults(handler=_cmd_check_kkt)

    p = sub.add_parser("check-socn", help="second-order necessary condition sweep")
    common(p)
    second_order(p)
    p.add_argument("--directions", help="direction file (JSON object or list)")
    p.add_argument("--probes", type=int, default=50,
                   help="random critical probes when no direction file is given")
    p.add_argument("--lambda-grid", type=int, default=21, dest="lambda_grid",
                   help="points on the weight simplex")
    p.set_defaults(handler=_cmd_check_socn)

    p = sub.add_parser("check-socs", help="second-order sufficient condition check")
    common(p, needs_lambda=True)
    second_order(p)
    p.add_argument("--gamma0", type=_threshold(allow_zero=False),
                   help="control-coercivity threshold")
    p.add_argument("--probes", type=int, default=50, help="worst-direction restarts")
    p.add_argument("--max-iters", type=int, default=100, dest="max_iters",
                   help="descent iterations per restart")
    p.set_defaults(handler=_cmd_check_socs)

    p = sub.add_parser("findim", help="finite-dimensional vector-program analyzer")
    p.add_argument("problem", help="finite-dimensional problem JSON file")
    p.add_argument("--zbar", help="comma-separated candidate point")
    p.add_argument("--dir", action="append", help="critical direction (repeatable)")
    p.add_argument("--radius", type=_threshold(allow_zero=False), default=0.25,
                   help="oracle ball radius")
    p.add_argument("--steps", type=int, default=12, help="oracle grid steps per side")
    p.add_argument("--lambda-grid", type=int, default=21, dest="lambda_grid")
    p.add_argument("--tol", type=_threshold(allow_zero=False), default=1e-8)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_findim)

    p = sub.add_parser("integrate", help="integrate the state equation")
    p.add_argument("problem")
    p.add_argument("--control", help="control JSON file with a 'u' array")
    p.add_argument("--grid", type=int, default=1000)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_integrate)

    p = sub.add_parser("show-builtin", help="print a registry problem document")
    p.add_argument("name")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_show_builtin)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except SystemExit as err:  # --help
        return int(err.code or 0)
    try:
        return args.handler(args)
    except (_UsageError, OSError, ValueError) as err:
        # ValueError covers the library's typed input failures (DocumentError,
        # UnknownBuiltinError, IntegrationError, GridMismatchError, ...)
        print(f"error: {err}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
