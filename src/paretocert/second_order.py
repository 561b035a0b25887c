"""Critical-cone membership, curvature evaluation, and second-order verdicts.

A direction z = (x, u) on the grid is critical when

* (c1) every linearized objective change integral is <= 0,
* (c2) x solves the dynamics linearized along the reference trajectory,
* (c3) at every node where the constraint is active (g >= -eps_act), the
  linearized constraint g_x x + g_u u is <= 0; inactive nodes impose nothing.

A request has one SecondOrderWorkspace, and it holds the request's two
thresholds: the residual tolerance tol (KKT acceptance, cone membership,
curvature signs) and the activity threshold eps_act.  The active set is
computed once from eps_act and shared by every membership test and cone
projection.

The necessary-cone and sufficient-cone variants collapse to this same
node-wise test at the discrete level; the variant is recorded in reports so
certificates can carry the "discrete surrogate" caveat for the closure-based
necessary cone.

The curvature of a multiplier triple at a direction is

    Q(z) = integral of z^T W z dt,
    W = sum_j lam_j L_j'' + sum_i p_i phi_i'' + theta g''

with all Hessians in the stacked (x, u) variables.  ``CurvatureForm`` builds
W once per triple and is the only evaluator of Q: the necessary sweep and
the worst-direction search both read it.  The search minimizes Q over the
discrete sufficient cone intersected with the unit L2 sphere of the control
component; it is a heuristic (projected residual descent with exact ratio
line search plus alternating projections) and every verdict that uses it
carries an explicit coverage caveat.  Search iterates and random probes are
put on that sphere by one workspace method, ``project_unit``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .kkt import KktReport, KktWorkspace, MultiplierTriple
from .problem import Problem
from .simplex import unit_weight_grid
from .trajectory import (
    Direction,
    GridMismatchError,
    HessianBlocks,
    LinearStateMap,
    Trajectory,
    hessian_blocks,
)

__all__ = [
    "ConeMembership",
    "CurvatureForm",
    "CoercivityReport",
    "WorstDirectionResult",
    "SocnFragment",
    "SocsFragment",
    "coercivity_check",
    "worst_critical_direction",
    "random_critical_directions",
    "socn_verdict",
    "socs_verdict",
    "SecondOrderWorkspace",
]


@dataclass
class ConeMembership:
    variant: str  # "necessary" or "sufficient"
    c1_residual: float
    c2_residual: float
    c3_residual: float
    active_nodes: np.ndarray
    passed: bool
    eps_act: float
    tol: float
    c1_values: np.ndarray

    def to_dict(self) -> dict:
        out = dict(vars(self), active_node_count=len(self.active_nodes),
                   note="node-wise discrete surrogate of the cone conditions")
        del out["active_nodes"]
        return out


@dataclass
class CoercivityReport:
    passed: bool
    margin: float
    min_eigenvalue: float
    gamma0: float
    argmin_node: int


@dataclass
class WorstDirectionResult:
    direction: Direction
    q_value: float
    restart_values: list
    converged: bool


# ---------------------------------------------------------------------------
# Shared per-(problem, trajectory) machinery


class SecondOrderWorkspace(KktWorkspace):
    """Reference-point data reused across directions, weights, and probes.

    Extends the request's KktWorkspace with the activity threshold eps_act;
    builds the linear state map, the c1 Riesz vectors, the active set and
    the Hessian blocks on first use."""

    def __init__(self, problem: Problem, traj: Trajectory, tol: float = 1e-8,
                 eps_act: float = 1e-8):
        super().__init__(problem, traj, tol)
        self.eps_act = eps_act
        self.w = self.fields.w
        self.gu_sq = np.einsum("kl,kl->k", self.fields.gu, self.fields.gu)

    @cached_property
    def hessians(self) -> HessianBlocks:
        return hessian_blocks(self.problem, self.traj)

    @cached_property
    def linmap(self) -> LinearStateMap:
        f = self.fields
        return LinearStateMap(f.phix, f.phiu, self.traj.grid)

    @cached_property
    def c1_vectors(self) -> list:
        """Exact Riesz vectors of the c1 functionals against nodal controls,
        under x = S u: c1_j(u) = <b_j, u> (flat Euclidean dot)."""
        f = self.fields
        return [
            self.linmap.apply_transpose(f.w[:, None] * f.Lx[j]) + f.w[:, None] * f.Lu[j]
            for j in range(self.problem.m)
        ]

    @cached_property
    def active(self) -> np.ndarray:
        """Nodes where the constraint is active: g >= -eps_act."""
        return self.fields.g >= -self.eps_act

    @cached_property
    def safe(self) -> np.ndarray:
        """Active nodes where g_u is large enough to step along."""
        return self.active & (self.gu_sq > 1e-24)

    def c1_integrals(self, x, u) -> np.ndarray:
        f = self.fields
        vals = np.einsum("jkn,kn->jk", f.Lx, x) + np.einsum("jkl,kl->jk", f.Lu, u)
        return vals @ self.w

    def c3_values(self, x, u) -> np.ndarray:
        f = self.fields
        return np.einsum("kn,kn->k", f.gx, x) + np.einsum("kl,kl->k", f.gu, u)

    def membership(self, direction: Direction, variant: str = "sufficient") -> ConeMembership:
        """Node-wise membership test for the critical cone at the reference point."""
        if direction.grid.n_intervals != self.traj.grid.n_intervals:
            raise GridMismatchError(
                f"direction grid N={direction.grid.n_intervals} does not match "
                f"reference grid N={self.traj.grid.n_intervals}"
            )
        if variant not in ("necessary", "sufficient"):
            raise ValueError("variant must be 'necessary' or 'sufficient'")
        x, u = direction.x, direction.u
        c1_values = self.c1_integrals(x, u)
        c1 = float(max(0.0, np.max(c1_values)))
        c2 = float(np.max(np.abs(x - self.linmap.apply(u))))
        vals = self.c3_values(x, u)
        c3 = float(max(0.0, np.max(vals[self.active], initial=0.0)))
        passed = c1 <= self.tol and c2 <= self.tol and c3 <= self.tol
        return ConeMembership(
            variant=variant,
            c1_residual=c1,
            c2_residual=c2,
            c3_residual=c3,
            active_nodes=np.flatnonzero(self.active),
            passed=passed,
            eps_act=self.eps_act,
            tol=self.tol,
            c1_values=c1_values,
        )

    def control_dot(self, u1, u2) -> float:
        """Trapezoid L2 inner product of two control samples."""
        return float(np.einsum("kl,kl->k", u1, u2) @ self.w)

    # -- projection onto the discrete cone (alternating, heuristic) --------

    def project_cone(self, u: np.ndarray, max_passes: int):
        """Alternating projection of controls onto the c1/c3 inequalities.

        Node-wise half-space steps treat the state response as frozen and
        re-integrate it between passes; the c1 steps are exact half-space
        projections through the Riesz vectors.  Returns (u, x, moved) where
        moved reports whether any correction was applied.
        """
        gu = self.fields.gu
        x = self.linmap.apply(u)
        moved = False
        slack = 0.1 * self.tol
        for _ in range(max_passes):
            vals = self.c3_values(x, u)
            viol = self.safe & (vals > slack)
            c1_vals = self.c1_integrals(x, u)
            if not np.any(viol) and not np.any(c1_vals > slack):
                break
            if np.any(viol):
                moved = True
                u = u.copy()
                u[viol] -= (vals[viol] / self.gu_sq[viol])[:, None] * gu[viol]
            for b in self.c1_vectors:
                bb = float(np.sum(b * b))
                if bb < 1e-28:
                    continue
                c = float(np.sum(b * u))
                if c > slack:
                    moved = True
                    u = u - (c / bb) * b
            x = self.linmap.apply(u)
        return u, x, moved

    def project_unit(self, u: np.ndarray, max_passes: int):
        """project_cone, then scale to unit control norm: (u, x, moved), or
        None when the projection leaves (almost) the zero control."""
        u, x, moved = self.project_cone(u, max_passes)
        nrm = np.sqrt(max(self.control_dot(u, u), 0.0))
        if nrm < 1e-12:
            return None
        return u / nrm, x / nrm, moved


# ---------------------------------------------------------------------------
# Public operations


def coercivity_check(ws: SecondOrderWorkspace, lam, gamma0: float) -> CoercivityReport:
    """Uniform positive-definiteness of lambda^T L_uu along the trajectory."""
    if not (np.isfinite(gamma0) and gamma0 > 0):
        raise ValueError("gamma0 must be a finite positive number")
    n = ws.problem.n
    blocks = np.einsum("j,jkab->kab", np.asarray(lam, dtype=float),
                       ws.hessians.L[:, :, n:, n:])
    blocks = 0.5 * (blocks + np.swapaxes(blocks, 1, 2))
    eigs = np.linalg.eigvalsh(blocks)[:, 0]
    k = int(np.argmin(eigs))
    min_eig = float(eigs[k])
    return CoercivityReport(
        passed=bool(min_eig >= gamma0),
        margin=min_eig - gamma0,
        min_eigenvalue=min_eig,
        gamma0=float(gamma0),
        argmin_node=k,
    )


class CurvatureForm:
    """The curvature Q of one multiplier triple: W at every node, with Q, its
    polar bilinear form and its exact gradient in the controls, and the
    projected descent for min Q(z(u)) over the cone with ||u||_2 = 1."""

    def __init__(self, ws: SecondOrderWorkspace, triple: MultiplierTriple):
        self.ws = ws
        h = ws.hessians
        W = np.einsum("j,jkab->kab", np.asarray(triple.lam, dtype=float), h.L)
        W += np.einsum("ikab,ki->kab", h.phi, np.asarray(triple.p, dtype=float))
        W += np.asarray(triple.theta, dtype=float)[:, None, None] * h.g
        self.W = W
        self.n = ws.problem.n
        self.w = ws.w

    @cached_property
    def Wsum(self) -> np.ndarray:
        """W + W^T; only the bilinear form and the gradient read it."""
        return self.W + np.swapaxes(self.W, 1, 2)

    def q_value(self, x, u) -> float:
        z = np.hstack([x, u])
        return float(np.einsum("ka,kab,kb->k", z, self.W, z) @ self.w)

    def q_bilinear(self, x1, u1, x2, u2) -> float:
        z1 = np.hstack([x1, u1])
        z2 = np.hstack([x2, u2])
        sym = np.einsum("ka,kab,kb->k", z1, self.Wsum, z2)
        return 0.5 * float(sym @ self.w)

    def gradient(self, x, u) -> np.ndarray:
        n = self.n
        gu = np.einsum("kln,kn->kl", self.Wsum[:, n:, :n], x)
        gu += np.einsum("klm,km->kl", self.Wsum[:, n:, n:], u)
        v = np.einsum("knm,km->kn", self.Wsum[:, :n, :n], x)
        v += np.einsum("knl,kl->kn", self.Wsum[:, :n, n:], u)
        return self.w[:, None] * gu + self.ws.linmap.apply_transpose(self.w[:, None] * v)

    def minimize(self, u0: np.ndarray, max_iters: int):
        """Rayleigh-quotient descent: nonlinear CG on the residual direction
        with exact ratio line search; CG memory resets whenever the cone
        projection actually moves the iterate.

        Projection during descent is loose (few alternating passes); the best
        iterate gets a hard projection polish before its value is reported.
        """
        state = self.ws.project_unit(u0, max_passes=30)
        if state is None:
            return None
        u, x, _ = state
        q = self.q_value(x, u)
        best = (q, u, x)
        stall = 0
        converged = False
        residual_prev = None
        direction = None
        for _ in range(max_iters):
            grad = self.gradient(x, u)
            # Rayleigh residual: vanishes at unconstrained stationarity
            residual = grad - 2.0 * q * (self.w[:, None] * u)
            rr = self.ws.control_dot(residual, residual)
            if np.sqrt(rr) <= 1e-12 * (1 + abs(q)):
                converged = True
                break
            if direction is None or residual_prev is None:
                direction = residual
            else:
                beta = max(0.0, (rr - self.ws.control_dot(residual, residual_prev))
                           / max(self.ws.control_dot(residual_prev, residual_prev), 1e-300))
                direction = residual + beta * direction
            residual_prev = residual
            alpha = self._exact_ratio_step(u, x, direction)
            state = self.ws.project_unit(u - alpha * direction, max_passes=3)
            if state is None:
                break
            u, x, moved = state
            if moved:
                direction = None
                residual_prev = None
            q_new = self.q_value(x, u)
            if q_new < best[0]:
                best = (q_new, u, x)
            if abs(q - q_new) <= 1e-13 * (1 + abs(q)):
                stall += 1
                if stall >= 5:
                    converged = True
                    break
            else:
                stall = 0
            q = q_new
        polished = self.ws.project_unit(best[1], max_passes=300)
        if polished is not None:
            u, x, _ = polished
            best = (self.q_value(x, u), u, x)
        return best, converged

    def _exact_ratio_step(self, u, x, d) -> float:
        """Minimizer of the Rayleigh ratio along u - alpha d (pre-projection)."""
        xd = self.ws.linmap.apply(d)
        a0 = self.q_value(x, u)
        a1 = self.q_bilinear(x, u, xd, d)
        a2 = self.q_value(xd, d)
        b0 = self.ws.control_dot(u, u)
        b1 = self.ws.control_dot(u, d)
        b2 = self.ws.control_dot(d, d)
        qa = a1 * b2 - a2 * b1
        qb = a2 * b0 - a0 * b2
        qc = a0 * b1 - a1 * b0
        roots = []
        if abs(qa) > 1e-30:
            disc = qb * qb - 4 * qa * qc
            if disc >= 0:
                r = np.sqrt(disc)
                roots = [(-qb - r) / (2 * qa), (-qb + r) / (2 * qa)]
        elif abs(qb) > 1e-30:
            roots = [-qc / qb]
        best_alpha, best_val = None, None
        for alpha in roots:
            den = b0 - 2 * alpha * b1 + alpha * alpha * b2
            if den <= 1e-16:
                continue
            val = (a0 - 2 * alpha * a1 + alpha * alpha * a2) / den
            if best_val is None or val < best_val:
                best_alpha, best_val = alpha, val
        if best_alpha is None or best_alpha <= 0:
            gn = np.sqrt(max(self.ws.control_dot(d, d), 1e-30))
            return 0.2 / gn
        return float(best_alpha)


def worst_critical_direction(
    ws: SecondOrderWorkspace,
    triple: MultiplierTriple,
    n_restarts: int = 8,
    max_iters: int = 100,
    seed: int = 42,
) -> WorstDirectionResult:
    """Search the discrete sufficient cone for a low-curvature unit direction.

    Projected descent with exact ratio line search, restarted from seeded
    random controls.  The result is a witness (best found), not a global
    minimum; callers embed that caveat in their verdicts.
    """
    if n_restarts < 1:
        raise ValueError("n_restarts must be at least 1")
    form = CurvatureForm(ws, triple)
    rng = np.random.default_rng(seed)
    grid = ws.traj.grid
    k = grid.n_intervals + 1
    best = None
    values = []
    all_converged = True
    for _ in range(n_restarts):
        u0 = rng.standard_normal((k, ws.problem.l))
        out = form.minimize(u0, max_iters)
        if out is None:
            all_converged = False
            continue
        (q, u, x), converged = out
        all_converged = all_converged and converged
        values.append(q)
        if best is None or q < best[0]:
            best = (q, u, x)
    if best is None:
        raise RuntimeError("every restart collapsed to the zero direction")
    q, u, x = best
    return WorstDirectionResult(
        direction=Direction(grid, x, u),
        q_value=q,
        restart_values=values,
        converged=all_converged,
    )


def random_critical_directions(
    ws: SecondOrderWorkspace,
    count: int,
    seed: int = 42,
) -> list[Direction]:
    """Seeded random unit directions projected into the discrete cone.

    Probes that fail the membership test after projection are dropped, so
    fewer than ``count`` directions may be returned.
    """
    rng = np.random.default_rng(seed)
    grid = ws.traj.grid
    k = grid.n_intervals + 1
    out = []
    attempts = 0
    while len(out) < count and attempts < 4 * count:
        attempts += 1
        unit = ws.project_unit(rng.standard_normal((k, ws.problem.l)), max_passes=300)
        if unit is None:
            continue
        u, x, _ = unit
        cand = Direction(grid, x, u)
        if ws.membership(cand, "sufficient").passed:
            out.append(cand)
    return out


# ---------------------------------------------------------------------------
# Verdicts


@dataclass
class SocnFragment:
    """Per-direction sweep over normalized weights for the necessary condition."""

    verdict: str  # "holds", "violated", "vacuous", "kkt-degenerate"
    tested: int
    skipped: list
    results: list
    weight_grid: np.ndarray | list
    tol: float
    note: str = "existence is checked against the sampled weight grid only"


def socn_verdict(
    ws: SecondOrderWorkspace,
    directions: list,
    lambda_points: int = 21,
) -> SocnFragment:
    """For each critical direction, look for a weight whose recovered triple
    has nonnegative curvature; report the first direction where none exists.
    """
    weights = unit_weight_grid(ws.problem.m, lambda_points)
    solved = {}  # weight index -> (p, theta, report)
    skipped = []
    results = []
    verdict = "holds"
    tested = 0
    for idx, direction in enumerate(directions):
        membership = ws.membership(direction, "necessary")
        if not membership.passed:
            skipped.append({
                "index": idx,
                "reason": "not critical",
                "membership": membership,
            })
            continue
        tested += 1
        q_by_weight = []
        found = None
        kkt_valid = 0
        for i, lam in enumerate(weights):
            if i not in solved:
                solved[i] = ws.solve(lam)
            p, theta, report = solved[i]
            if not report.passed:
                q_by_weight.append({"lambda": lam, "kkt_passed": False})
                continue
            kkt_valid += 1
            form = CurvatureForm(ws, MultiplierTriple(lam, p, theta))
            q = form.q_value(direction.x, direction.u)
            q_by_weight.append({"lambda": lam, "kkt_passed": True, "q_value": q})
            if q >= -ws.tol:
                found = {"lambda": lam, "q_value": q}
                break
        entry = {
            "index": idx,
            "membership": membership,
            "q_by_weight": q_by_weight,
        }
        if found is not None:
            entry["witness"] = found
            entry["holds"] = True
        elif kkt_valid == 0:
            entry["holds"] = False
            entry["reason"] = "no weight produced a valid multiplier triple"
            entry["direction"] = direction
            verdict = "kkt-degenerate"
        else:
            entry["holds"] = False
            entry["direction"] = direction
            verdict = "violated"
        results.append(entry)
        if verdict != "holds":
            break
    if tested == 0 and verdict == "holds":
        verdict = "vacuous"
    return SocnFragment(
        verdict=verdict,
        tested=tested,
        skipped=skipped,
        results=results,
        weight_grid=weights,
        tol=ws.tol,
    )


@dataclass
class SocsFragment:
    """Staged sufficient-condition check: KKT residuals, coercivity, probes."""

    verdict: str  # "pass-with-caveat", "fail"
    failed_stage: str | None
    kkt: KktReport | None
    coercivity: CoercivityReport | None
    search: WorstDirectionResult | None
    caveat: str
    tol: float


_SOCS_CAVEAT = (
    "curvature positivity is verified on the probed directions only; the "
    "worst-direction search is a heuristic and does not certify the full cone"
)


def socs_verdict(
    ws: SecondOrderWorkspace,
    triple: MultiplierTriple,
    gamma0: float,
    n_probes: int = 50,
    max_iters: int = 100,
    seed: int = 42,
) -> SocsFragment:
    """Sufficient-condition pipeline at one multiplier triple."""
    tol = ws.tol
    kkt_report = ws.residuals(triple.lam, triple.p, triple.theta)
    if not kkt_report.passed:
        return SocsFragment("fail", "kkt", kkt_report, None, None, _SOCS_CAVEAT, tol)
    coercivity = coercivity_check(ws, triple.lam, gamma0)
    if not coercivity.passed:
        return SocsFragment("fail", "coercivity", kkt_report, coercivity, None,
                            _SOCS_CAVEAT, tol)
    search = worst_critical_direction(ws, triple, n_restarts=n_probes,
                                      max_iters=max_iters, seed=seed)
    min_q = min(search.restart_values) if search.restart_values else search.q_value
    # probes are normalized to unit control norm, so the threshold is plain tol
    if min_q <= tol:
        return SocsFragment("fail", "curvature", kkt_report, coercivity, search,
                            _SOCS_CAVEAT, tol)
    return SocsFragment("pass-with-caveat", None, kkt_report, coercivity, search,
                        _SOCS_CAVEAT, tol)
