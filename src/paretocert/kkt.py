"""First-order (KKT) multiplier recovery and residual checks.

Given a weight vector lambda on the objectives, the multiplier triple
(lambda, p, theta) must satisfy, along the reference trajectory,

* the adjoint equation   p' = -lambda^T L_x - phi_x^T p - theta g_x,  p(1) = 0,
* stationarity in u      lambda^T L_u + p^T phi_u + theta g_u = 0,
* the normal-cone condition   theta >= 0 and theta * g = 0.

theta is recovered pointwise from the stationarity component i0 singled out
by the constraint-sensitivity check; p and theta are coupled, so the solver
iterates the pair to a fixed point.  theta lives on grid nodes, the natural
sampling for the trapezoid quadrature used everywhere else.

The command line builds one KktWorkspace per request (a
SecondOrderWorkspace for the second-order commands); the gates, every
weight's solve and every residual report read its field table and backward
map.  The workspace also holds the request's one residual tolerance: every
first-order residual is accepted against it, and the certificate records it
once per residual name.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problem import H2Report, Problem
from .trajectory import (
    BackwardLinearMap,
    Trajectory,
    TrajectoryFields,
    build_fields,
)

__all__ = [
    "MultiplierTriple",
    "KktReport",
    "H2ViolationError",
    "KktWorkspace",
]


class H2ViolationError(ValueError):
    """|g_u| too small at some node to divide the stationarity relation."""


H2_ALPHA = 1e-8  # fixed wellposedness gate for theta recovery
FIXED_POINT_TOL = 1e-10  # max node change of theta that ends the (p, theta) iteration
FIXED_POINT_MAX_ITERATIONS = 100

RESIDUAL_NAMES = ("stationarity", "adjoint", "terminal", "sign",
                  "complementarity", "feasibility", "state")


def tolerance_record(tol: float) -> dict:
    """The certificate's tolerance record: one entry per residual, all tol."""
    return dict.fromkeys(RESIDUAL_NAMES, tol)


@dataclass(frozen=True, eq=False)
class MultiplierTriple:
    """(lambda, p, theta) samples; p is (N+1, n), theta is (N+1,).

    lambda is stored as given.  The existence theory normalises |lambda| = 1;
    sweeps generate unit-norm weights, but all residuals are positively
    homogeneous in (lambda, p, theta), so scaled weights are accepted.
    """

    lam: np.ndarray
    p: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lam, dtype=float)
        if lam.ndim != 1 or np.any(lam < 0) or not np.any(lam > 0):
            raise ValueError("lambda must be a nonnegative, nonzero vector")


@dataclass
class KktReport:
    """Residuals of the first-order conditions at one multiplier triple.

    When theta was recovered from the stationarity component i0, that
    component is zero by construction (asserted <= 1e-14 in the tests), so
    stationarity_residual effectively measures the remaining control
    components.
    """

    stationarity_residual: float
    adjoint_residual: float
    terminal_residual: float
    theta_sign_violation: float
    complementarity_residual: float
    feasibility_residual: float
    state_residual: float
    passed: bool
    tol: float
    lam: np.ndarray
    grid_n: int
    converged: bool | None = None
    iterations: int | None = None

    def residuals(self) -> dict:
        return {
            "stationarity_residual": self.stationarity_residual,
            "adjoint_residual": self.adjoint_residual,
            "terminal_residual": self.terminal_residual,
            "theta_sign_violation": self.theta_sign_violation,
            "complementarity_residual": self.complementarity_residual,
            "feasibility_residual": self.feasibility_residual,
            "state_residual": self.state_residual,
        }

    def to_dict(self) -> dict:
        out = {**self.residuals(), "passed": self.passed,
               "tolerances": tolerance_record(self.tol), "lambda": self.lam,
               "grid_n": self.grid_n}
        if self.converged is not None:
            out.update(converged=self.converged, iterations=self.iterations)
        return out


# ---------------------------------------------------------------------------
# Internal helpers on precomputed fields


def _adjoint_source(fields: TrajectoryFields, lam, theta) -> np.ndarray:
    # s(t) = lambda^T L_x + theta g_x, shape (K, n)
    s = np.einsum("j,jkn->kn", lam, fields.Lx)
    return s + theta[:, None] * fields.gx


def _stationarity(fields: TrajectoryFields, lam, p, theta) -> np.ndarray:
    # lambda^T L_u + p^T phi_u + theta g_u at every node, shape (K, l)
    out = np.einsum("j,jkl->kl", lam, fields.Lu)
    out += np.einsum("knl,kn->kl", fields.phiu, p)
    out += theta[:, None] * fields.gu
    return out


class KktWorkspace:
    """Field table, backward map and H2 gate of one (problem, trajectory),
    shared by the gates and every multiplier solve; theta is recovered from
    the gate's i0.  tol is the acceptance threshold of every residual."""

    def __init__(self, problem: Problem, traj: Trajectory, tol: float = 1e-8):
        self.problem = problem
        self.traj = traj
        self.tol = tol
        self.fields = build_fields(problem, traj)
        self.backward = BackwardLinearMap(self.fields.phix, traj.grid)
        self.h2 = H2Report.from_gradient(self.fields.gu, H2_ALPHA)
        self.i0 = self.h2.i0 - 1

    def solve_adjoint(self, lam, theta) -> np.ndarray:
        """Integrate p' = -lambda^T L_x - phi_x^T p - theta g_x backward, p(1)=0."""
        source = _adjoint_source(self.fields, np.asarray(lam, dtype=float),
                                 np.asarray(theta, dtype=float))
        return self.backward.solve(source)

    def recover_theta(self, lam, p) -> np.ndarray:
        """Solve the stationarity relation for theta via the i0 control component."""
        f = self.fields
        gu_i0 = f.gu[:, self.i0]
        if np.min(np.abs(gu_i0)) < 1e-12:
            raise H2ViolationError(
                "constraint control-derivative vanishes on the grid; "
                "theta recovery is ill-posed"
            )
        num = np.einsum("j,jk->k", np.asarray(lam, dtype=float), f.Lu[:, :, self.i0])
        num += np.einsum("kn,kn->k", f.phiu[:, :, self.i0], np.asarray(p, dtype=float))
        return -num / gu_i0

    def residuals(self, lam, p, theta) -> KktReport:
        """Evaluate every first-order residual at a given multiplier triple.

        The adjoint residual is the maximum one-step reproduction defect of
        the p samples under the same one-step scheme that solve_adjoint uses,
        so solver output passes at solver accuracy by construction.
        """
        f = self.fields
        lam = np.asarray(lam, dtype=float)
        p = np.asarray(p, dtype=float)
        theta = np.asarray(theta, dtype=float)
        stat = float(np.max(np.abs(_stationarity(f, lam, p, theta))))
        adj = self.backward.defect(_adjoint_source(f, lam, theta), p)
        term = float(np.max(np.abs(p[-1])))
        sign = float(max(0.0, -np.min(theta)))
        comp = float(np.max(np.abs(theta * f.g)))
        feas = float(max(0.0, np.max(f.g)))
        passed = all(r <= self.tol for r in (stat, adj, term, sign, comp, feas,
                                             f.state_residual))
        return KktReport(
            stationarity_residual=stat,
            adjoint_residual=adj,
            terminal_residual=term,
            theta_sign_violation=sign,
            complementarity_residual=comp,
            feasibility_residual=feas,
            state_residual=f.state_residual,
            passed=passed,
            tol=self.tol,
            lam=lam,
            grid_n=f.grid.n_intervals,
        )

    def solve(self, lam):
        """Recover (p, theta) for a given lambda by fixed-point iteration.

        Starts from theta = 0, alternates adjoint solve and theta recovery
        until the max node change is <= FIXED_POINT_TOL or
        FIXED_POINT_MAX_ITERATIONS run out; a non-converged result is
        returned with the report flagged, never hidden.  Returns (p, theta, KktReport).
        """
        lam = np.asarray(lam, dtype=float)
        theta = np.zeros(self.fields.grid.n_intervals + 1)
        converged = False
        iterations = 0
        p = np.zeros((len(theta), self.problem.n))
        for iterations in range(1, FIXED_POINT_MAX_ITERATIONS + 1):
            p = self.solve_adjoint(lam, theta)
            theta_next = self.recover_theta(lam, p)
            change = float(np.max(np.abs(theta_next - theta)))
            theta = theta_next
            if change <= FIXED_POINT_TOL:
                converged = True
                break
        report = self.residuals(lam, p, theta)
        report.converged = converged
        report.iterations = iterations
        if not converged:
            report.passed = False
        return p, theta, report
