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
as for the control problems).  The oracle evaluates on an open grid, one
coordinate axis per variable, and broadcasting spans the full grid.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np
from scipy.optimize import linprog, nnls

from . import expr as ex
from .simplex import unit_weight_grid

__all__ = [
    "FinDimProblem",
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


@dataclass(frozen=True, eq=False)
class FinDimProblem:
    """min f(z) s.t. G(z) <= 0 over z1..znz.  The derivative tables are built
    at load; Jacobians and Hessians evaluate their trees at a point."""

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

    def _values(self, asts, z) -> np.ndarray:
        env = dict(zip(self.variables, z))
        return np.array([ex.evaluate(a, env) for a in asts], dtype=float)

    def f_value(self, z) -> np.ndarray:
        return self._values(self.f, z)

    def g_value(self, z) -> np.ndarray:
        return self._values(self.G, z)

    def f_jacobian(self, z) -> np.ndarray:
        return np.array([self._values(t.grad, z) for t in self.f_derivs])

    def g_jacobian(self, z) -> np.ndarray:
        return np.array([self._values(t.grad, z) for t in self.G_derivs])

    def f_hessians(self, z) -> np.ndarray:
        return np.array([[self._values(row, z) for row in t.hess] for t in self.f_derivs])

    def g_hessians(self, z) -> np.ndarray:
        return np.array([[self._values(row, z) for row in t.hess] for t in self.G_derivs])


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


def robinson_check(
    problem: FinDimProblem,
    zbar,
    feas_tol: float = 1e-9,
    act_tol: float = 1e-10,
) -> RobinsonReport:
    """Regularity at zbar for the orthant cone.

    Reduces to finding d with grad G_k(zbar) . d < 0 for every active k,
    decided by the LP  max s  s.t.  G_act d <= -s, |d|_inf <= 1; the check
    passes iff the optimum is strictly positive.  A feasible point with no
    active constraints passes trivially.
    """
    zbar = np.asarray(zbar, dtype=float)
    g = problem.g_value(zbar)
    if np.any(g > feas_tol):
        raise InfeasiblePointError(f"G(zbar) = {g.tolist()} violates feasibility")
    active = np.flatnonzero(g >= -act_tol)
    if len(active) == 0:
        return RobinsonReport(True, np.inf, None, active)
    rows = problem.g_jacobian(zbar)[active]
    nz = problem.nz
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


def multiplier_set_sample(
    problem: FinDimProblem,
    zbar,
    n_lambda: int = 21,
    resid_tol: float = 1e-8,
    act_tol: float = 1e-10,
) -> list[MultiplierPair]:
    """Sample the normalized multiplier set on a weight grid.

    For each unit-norm weight, the orthant multipliers on the active rows
    minimize the stationarity residual in the least-squares sense subject to
    e >= 0 (Lawson-Hanson active-set iteration); pairs whose residual exceeds
    resid_tol are discarded.  An empty list is itself diagnostic.  f is
    evaluated at zbar first, so a domain error there names f itself rather
    than one of its derivatives.
    """
    zbar = np.asarray(zbar, dtype=float)
    problem.f_value(zbar)
    fj = problem.f_jacobian(zbar)
    gj = problem.g_jacobian(zbar)
    g = problem.g_value(zbar)
    active = np.flatnonzero(g >= -act_tol)
    pairs = []
    for lam in unit_weight_grid(problem.m, n_lambda):
        b = -(lam @ fj)
        e = np.zeros(problem.nE)
        if len(active) > 0:
            sol, _ = nnls(gj[active].T, b)
            e[active] = sol
        residual = float(np.linalg.norm(lam @ fj + e @ gj))
        if residual <= resid_tol:
            pairs.append(MultiplierPair(lam.copy(), e, residual))
    return pairs


# ---------------------------------------------------------------------------
# Second-order necessary test and brute-force oracle


def second_order_necessary_check(
    problem: FinDimProblem,
    zbar,
    d,
    pairs: list[MultiplierPair],
    tol: float = 1e-9,
    act_tol: float = 1e-10,
):
    """Max Lagrangian curvature along d over the sampled pairs.

    d must be critical: grad f(zbar) d <= tol componentwise and
    grad G_k(zbar) d <= tol for active k.  The curvature is linear in
    (lambda, e), so the supremum over the sampled set is the max over the
    list.  Returns (max_curvature, verdict) with verdict true iff some pair
    gives curvature >= -tol.
    """
    zbar = np.asarray(zbar, dtype=float)
    d = np.asarray(d, dtype=float)
    fj = problem.f_jacobian(zbar)
    gj = problem.g_jacobian(zbar)
    g = problem.g_value(zbar)
    f_dir = fj @ d
    if np.any(f_dir > tol):
        raise NotCriticalError(f"objective decrease fails: grad f . d = {f_dir.tolist()}")
    active = np.flatnonzero(g >= -act_tol)
    if len(active) > 0:
        g_dir = gj[active] @ d
        if np.any(g_dir > tol):
            raise NotCriticalError(
                f"active constraint rows fail: grad G_act . d = {g_dir.tolist()}"
            )
    if not pairs:
        return -np.inf, False
    fh = problem.f_hessians(zbar)
    gh = problem.g_hessians(zbar)
    f_curv = np.array([d @ h @ d for h in fh])
    g_curv = np.array([d @ h @ d for h in gh])
    values = [float(pair.lam @ f_curv + pair.e @ g_curv) for pair in pairs]
    max_curvature = max(values)
    return max_curvature, bool(max_curvature >= -tol)


def weak_pareto_oracle(
    problem: FinDimProblem,
    zbar,
    radius: float,
    steps: int,
    feas_tol: float = 1e-12,
) -> bool:
    """Brute-force local weak-Pareto test by grid enumeration.

    Scans the uniform grid of (2*steps+1)^nz points in the inf-ball of the
    given radius; returns False iff some feasible grid point strictly
    improves every objective by more than 1e-12.  A domain error at any grid
    point raises ``expr.EvalDomainError``.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if steps < 3:
        raise ValueError("steps must be at least 3")
    if problem.nz > 4:
        raise ValueError("oracle limited to nz <= 4 (grid blowup)")
    zbar = np.asarray(zbar, dtype=float)
    offsets = np.linspace(-radius, radius, 2 * steps + 1)
    axes = np.ix_(*[zbar[i] + offsets for i in range(problem.nz)])
    env = dict(zip(problem.variables, axes))
    feasible = np.ones((len(offsets),) * problem.nz, dtype=bool)
    for a in problem.G:
        feasible &= np.asarray(ex.evaluate(a, env)) <= feas_tol
    if not np.any(feasible):
        return True
    f_ref = problem.f_value(zbar)
    dominates = feasible.copy()
    for a, ref in zip(problem.f, f_ref):
        dominates &= np.asarray(ex.evaluate(a, env)) < ref - 1e-12
        if not np.any(dominates):
            return True
    return not bool(np.any(dominates))
