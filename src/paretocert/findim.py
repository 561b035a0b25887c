"""Desk-scale analyzer for smooth vector programs with orthant constraints.

The program is  min_(R^m_+) f(z)  subject to  G(z) <= 0 componentwise, with
f and G given symbolically over variables z1..znz.  Fixing the constraint
cone to the nonpositive orthant makes every ingredient finitely checkable:

* regularity is the Mangasarian-Fromovitz-type condition that some
  direction strictly decreases every active constraint, decided by a small
  linear program;
* normalized multiplier pairs (lambda, e) are sampled over a weight grid,
  solving a nonnegative least-squares problem on the active rows per weight;
* the second-order necessary test asks for a sampled pair with nonnegative
  Lagrangian curvature along a critical direction;
* a brute-force neighborhood oracle decides local weak Pareto optimality by
  grid enumeration, usable up to four variables.

Loading builds one derivative table per expression (``expr.deriv_table``,
as for the control problems).  A request holds one ``FinDimPoint``: zbar
with the request's tolerance, and f, G, the active set and the Jacobians
and Hessians of f and G there, each evaluated on first use.  Every check
takes the point as its first argument, so the regularity check, the
multiplier sample, every direction and the oracle's reference values read
the same numbers, and the first quantity that fails to evaluate names the
expression at fault.  The point's tolerance bounds the multiplier residuals
and the criticality and curvature signs; the activity threshold and the
feasibility margins are module constants.  The oracle scans its grid in
slabs of a bounded number of points, each an open grid (one coordinate
axis per variable), and evaluates f and G there through compiled
expressions, falling back to ``expr.evaluate`` on any slab where the
compiled arithmetic raises.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

import numpy as np
from scipy.optimize import linprog, nnls

from . import expr as ex
from .simplex import unit_weight_grid

__all__ = [
    "FinDimProblem",
    "FinDimPoint",
    "MultiplierPair",
    "RobinsonReport",
    "FinDimFormatError",
    "InfeasiblePointError",
    "NotCriticalError",
    "load_findim_problem",
    "robinson_check",
    "multiplier_set_sample",
    "second_order_necessary_check",
    "weak_pareto_oracle",
]


class FinDimFormatError(ValueError):
    pass


class InfeasiblePointError(ValueError):
    pass


class NotCriticalError(ValueError):
    pass


# Activity threshold of G at zbar, and the feasibility margins of the
# regularity check at zbar and of the oracle's grid points.
ACT_TOL = 1e-10
ROBINSON_FEAS_TOL = 1e-9
ORACLE_FEAS_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class FinDimProblem:
    """min f(z) s.t. G(z) <= 0 over z1..znz.  The derivative tables are built
    at load; ``FinDimPoint`` evaluates them at a point."""

    nz: int
    m: int
    f: tuple[ex.ExprAst, ...]
    G: tuple[ex.ExprAst, ...]
    f_derivs: tuple[ex.DerivTable, ...] = field(repr=False)
    G_derivs: tuple[ex.DerivTable, ...] = field(repr=False)

    @property
    def nE(self) -> int:
        return len(self.G)

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(f"z{i}" for i in range(1, self.nz + 1))

    def f_value(self, z) -> np.ndarray:
        return FinDimPoint(self, z).f

    def g_value(self, z) -> np.ndarray:
        return FinDimPoint(self, z).g


def _at_zbar(trees_of):
    """Cached point property: the values at zbar of ``trees_of(problem)``."""
    return cached_property(lambda point: point._evaluate(trees_of(point.problem)))


class FinDimPoint:
    """A program at one point zbar with the request's tolerance tol, and f,
    G, the active set and the Jacobians and Hessians of f and G there, each
    evaluated on first use and kept; every check of a request reads the same
    point."""

    def __init__(self, problem: FinDimProblem, zbar, tol: float = 1e-8):
        self.problem, self.z = problem, np.asarray(zbar, dtype=float)
        self.m, self.nz = problem.m, problem.nz
        self.tol = tol

    def _evaluate(self, trees) -> np.ndarray:
        """Values at zbar of nested tuples of trees, as an array of that shape."""
        env = dict(zip(self.problem.variables, self.z))

        def walk(node):
            return [walk(t) for t in node] if isinstance(node, tuple) else ex.evaluate(node, env)

        return np.array(walk(trees), dtype=float)

    f = _at_zbar(lambda p: p.f)
    g = _at_zbar(lambda p: p.G)
    f_jacobian = _at_zbar(lambda p: tuple(t.grad for t in p.f_derivs))
    g_jacobian = _at_zbar(lambda p: tuple(t.grad for t in p.G_derivs))
    f_hessians = _at_zbar(lambda p: tuple(t.hess for t in p.f_derivs))
    g_hessians = _at_zbar(lambda p: tuple(t.hess for t in p.G_derivs))

    @cached_property
    def active(self) -> np.ndarray:
        return np.flatnonzero(self.g >= -ACT_TOL)


_SCHEMA_FIELDS = {"nz", "m", "f", "G"}


def load_findim_problem(document) -> FinDimProblem:
    """Load from JSON text or mapping: {"nz": int, "m": int, "f": [...], "G": [...]}."""
    if isinstance(document, (str, bytes)):
        try:
            data = json.loads(document)
        except json.JSONDecodeError as err:
            raise FinDimFormatError(f"invalid JSON: {err}") from None
    else:
        data = document
    if not isinstance(data, Mapping):
        raise FinDimFormatError("document must be a JSON object")
    unknown = set(data) - _SCHEMA_FIELDS
    if unknown:
        raise FinDimFormatError(f"unknown fields: {sorted(unknown)}")
    for key in _SCHEMA_FIELDS:
        if key not in data:
            raise FinDimFormatError(f"missing field '{key}'")
    nz, m = data["nz"], data["m"]
    for key, v in (("nz", nz), ("m", m)):
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise FinDimFormatError(f"'{key}' must be a positive integer")
    for key, expected in (("f", m), ("G", None)):
        v = data[key]
        if not isinstance(v, list) or not all(isinstance(s, str) for s in v) or not v:
            raise FinDimFormatError(f"'{key}' must be a nonempty list of strings")
        if expected is not None and len(v) != expected:
            raise FinDimFormatError(f"dimension mismatch: len({key})={len(v)}, m={expected}")
    variables = tuple(f"z{i}" for i in range(1, nz + 1))

    def parse_list(key):
        out = []
        for i, s in enumerate(data[key]):
            try:
                out.append(ex.parse_with_variables(s, variables))
            except ex.ExprError as err:
                raise FinDimFormatError(f"{key}[{i}]: {err}") from None
        return tuple(out)

    f, G = parse_list("f"), parse_list("G")
    return FinDimProblem(
        nz=nz, m=m, f=f, G=G,
        f_derivs=tuple(ex.deriv_table(a, variables) for a in f),
        G_derivs=tuple(ex.deriv_table(a, variables) for a in G),
    )


# ---------------------------------------------------------------------------
# Regularity


@dataclass
class RobinsonReport:
    passed: bool
    s_opt: float
    witness: np.ndarray | None
    active: np.ndarray

    def to_dict(self) -> dict:
        return {
            "passed": bool(self.passed),
            "s_opt": float(self.s_opt),
            "witness": None if self.witness is None else [float(v) for v in self.witness],
            "active": [int(i) for i in self.active],
        }


def robinson_check(point: FinDimPoint) -> RobinsonReport:
    """Regularity at zbar for the orthant cone.

    Reduces to finding d with grad G_k(zbar) . d < 0 for every active k,
    decided by the LP  max s  s.t.  G_act d <= -s, |d|_inf <= 1; the check
    passes iff the optimum is strictly positive.  A feasible point with no
    active constraints passes trivially.
    """
    g = point.g
    if np.any(g > ROBINSON_FEAS_TOL):
        raise InfeasiblePointError(f"G(zbar) = {g.tolist()} violates feasibility")
    active = point.active
    if len(active) == 0:
        return RobinsonReport(True, np.inf, None, active)
    rows = point.g_jacobian[active]
    nz = point.nz
    # variables (d, s): minimize -s subject to rows @ d + s <= 0
    c = np.zeros(nz + 1)
    c[-1] = -1.0
    a_ub = np.hstack([rows, np.ones((len(active), 1))])
    bounds = [(-1.0, 1.0)] * nz + [(None, None)]
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(len(active)), bounds=bounds,
                  method="highs")
    if not res.success:
        return RobinsonReport(False, 0.0, None, active)
    s_opt = float(res.x[-1])
    passed = s_opt > 1e-9
    witness = res.x[:-1] if passed else None
    return RobinsonReport(passed, s_opt, witness, active)


# ---------------------------------------------------------------------------
# Multiplier sampling


@dataclass
class MultiplierPair:
    """Normalized weight lambda with orthant multipliers e.

    Invariants at construction points: lambda >= 0 with unit Euclidean norm,
    e >= 0 supported on the active set, and stationarity residual
    |lambda^T grad f + grad G^T e| below the sampling tolerance.
    """

    lam: np.ndarray
    e: np.ndarray
    stationarity_residual: float

    def to_dict(self) -> dict:
        return {
            "lambda": [float(v) for v in self.lam],
            "e": [float(v) for v in self.e],
            "stationarity_residual": float(self.stationarity_residual),
        }


def multiplier_set_sample(point: FinDimPoint, n_lambda: int = 21) -> list[MultiplierPair]:
    """Sample the normalized multiplier set on a weight grid.

    For each unit-norm weight, the orthant multipliers on the active rows
    minimize the stationarity residual in the least-squares sense subject to
    e >= 0 (Lawson-Hanson active-set iteration); pairs whose residual exceeds
    the point's tol are discarded.  An empty list is itself diagnostic.
    """
    point.f  # before its derivatives, so that a domain error names f
    fj, gj, active = point.f_jacobian, point.g_jacobian, point.active
    pairs = []
    for lam in unit_weight_grid(point.m, n_lambda):
        b = -(lam @ fj)
        e = np.zeros(point.problem.nE)
        if len(active) > 0:
            sol, _ = nnls(gj[active].T, b)
            e[active] = sol
        residual = float(np.linalg.norm(lam @ fj + e @ gj))
        if residual <= point.tol:
            pairs.append(MultiplierPair(lam.copy(), e, residual))
    return pairs


# ---------------------------------------------------------------------------
# Second-order necessary test and brute-force oracle


def second_order_necessary_check(point: FinDimPoint, d, pairs: list[MultiplierPair]):
    """Max Lagrangian curvature along d over the sampled pairs.

    With tol the point's tolerance, d must be critical: grad f(zbar) d <= tol
    componentwise and grad G_k(zbar) d <= tol for active k.  The curvature is
    linear in (lambda, e), so the supremum over the sampled set is the max
    over the list.  Returns (max_curvature, verdict) with verdict true iff
    some pair gives curvature >= -tol.
    """
    d, tol = np.asarray(d, dtype=float), point.tol
    fj, gj, active = point.f_jacobian, point.g_jacobian, point.active
    f_dir = fj @ d
    if np.any(f_dir > tol):
        raise NotCriticalError(f"objective decrease fails: grad f . d = {f_dir.tolist()}")
    if len(active) > 0:
        g_dir = gj[active] @ d
        if np.any(g_dir > tol):
            raise NotCriticalError(
                f"active constraint rows fail: grad G_act . d = {g_dir.tolist()}"
            )
    if not pairs:
        return -np.inf, False
    f_curv = np.array([d @ h @ d for h in point.f_hessians])
    g_curv = np.array([d @ h @ d for h in point.g_hessians])
    values = [float(pair.lam @ f_curv + pair.e @ g_curv) for pair in pairs]
    max_curvature = max(values)
    return max_curvature, bool(max_curvature >= -tol)


def _literals_finite(node: ex.ExprAst) -> bool:
    """Whether every literal of a tree is finite; a decimal literal too long
    for a double reads inf, which compiled code cannot spell."""
    match node:
        case ex.Const(value):
            return bool(np.isfinite(value))
        case ex.Neg(arg) | ex.Call(_, arg) | ex.Pow(arg, _):
            return _literals_finite(arg)
        case ex.Bin(_, left, right):
            return _literals_finite(left) and _literals_finite(right)
    return True


def _slab_evaluator(tree: ex.ExprAst, variables: tuple[str, ...]):
    """``values(slab)``: the tree on one oracle slab, with the values,
    warnings and ``EvalDomainError`` of ``expr.evaluate``.

    The compiled tree runs with division by zero, invalid operations and
    overflow raised.  The slab's coordinates and the literals are finite, so
    any slab on which ``evaluate`` would raise or return a non-finite value
    raises an ``ArithmeticError`` there first (Python arithmetic on literals
    raises its own), and is evaluated again by ``evaluate`` at the caller's
    error state.
    """
    compiled = ex.compile_ast(tree, variables) if _literals_finite(tree) else None

    def values(slab):
        if compiled is not None:
            try:
                with np.errstate(divide="raise", invalid="raise", over="raise"):
                    return compiled(slab)
            except ArithmeticError:
                pass
        return ex.evaluate(tree, dict(zip(variables, slab)))

    return values


# Grid points per oracle slab.  A slab holds as many whole z1 rows as fit,
# and at least one, so a float64 temporary over it takes about 1 MB unless
# a single row is larger.
ORACLE_SLAB_POINTS = 2**17


def weak_pareto_oracle(point: FinDimPoint, radius: float, steps: int) -> bool:
    """Brute-force local weak-Pareto test by grid enumeration.

    Scans the uniform grid of (2*steps+1)^nz points in the inf-ball of the
    given radius; returns False iff some feasible grid point strictly
    improves every objective by more than 1e-12.

    The scan walks the grid in slabs of whole rows along z1, about
    ``ORACLE_SLAB_POINTS`` points each.  On a slab it evaluates G, then f in
    order, and leaves the slab as soon as no point of it is still feasible
    and dominating; it stops at the first slab that holds a dominating
    point.  A domain error raises ``expr.EvalDomainError`` only if this scan
    order reaches the failing evaluation.  An error in a slab after the
    first dominating one goes unseen, and so does an error in an expression
    that a slab never evaluates because no point of it survived the
    expressions before.
    """
    if not (np.isfinite(radius) and radius > 0):
        raise ValueError("radius must be a finite positive number")
    if steps < 3:
        raise ValueError("steps must be at least 3")
    problem, zbar = point.problem, point.z
    if problem.nz > 4:
        raise ValueError("oracle limited to nz <= 4 (grid blowup)")
    offsets = np.linspace(-radius, radius, 2 * steps + 1)
    axes = [zbar[i] + offsets for i in range(problem.nz)]
    rows = max(1, ORACLE_SLAB_POINTS // len(offsets) ** (problem.nz - 1))
    g_values = [_slab_evaluator(a, problem.variables) for a in problem.G]
    f_values = [_slab_evaluator(a, problem.variables) for a in problem.f]

    def tests(slab):  # one mask per check, in scan order
        for values in g_values:
            yield np.asarray(values(slab)) <= ORACLE_FEAS_TOL
        for values, ref in zip(f_values, point.f):
            yield np.asarray(values(slab)) < ref - 1e-12

    for start in range(0, len(offsets), rows):
        slab = np.ix_(axes[0][start:start + rows], *axes[1:])
        alive = np.ones(np.broadcast_shapes(*(a.shape for a in slab)), dtype=bool)
        for mask in tests(slab):
            alive &= mask
            if not alive.any():
                break
        else:
            return False
    return True
