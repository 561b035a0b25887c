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
node-wise test at the discrete level; the necessary sweep's note carries the
"discrete surrogate" caveat for the closure-based necessary cone.

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

The search carries the state x = S u of its iterate by linearity: a step
u - alpha d takes the state x - alpha S d, with S d already computed for the
line search, and the projection integrates only after it moves the
controls.  ``membership`` stays the independent check of a result: it reads
c1 from the L gradient fields, not from the Riesz vectors the projection
uses, and measures c2 against a fresh integration of the controls.
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
    c1_residual: float
    c2_residual: float
    c3_residual: float
    active_nodes: np.ndarray
    passed: bool
    c1_values: np.ndarray

    def to_dict(self) -> dict:
        out = dict(vars(self), active_node_count=len(self.active_nodes))
        del out["active_nodes"]
        return out


@dataclass
class CoercivityReport:
    passed: bool
    margin: float
    min_eigenvalue: float
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
    def c1_vectors(self) -> np.ndarray:
        """Exact Riesz vectors of the c1 functionals against nodal controls,
        stacked as rows of an (m, K l) array: under x = S u,
        c1_j(u) = b_j . u.ravel()."""
        f = self.fields
        return np.stack([
            self.linmap.apply_transpose(f.w[:, None] * f.Lx[j]) + f.w[:, None] * f.Lu[j]
            for j in range(self.problem.m)
        ]).reshape(self.problem.m, -1)

    @cached_property
    def c1_norms_sq(self) -> np.ndarray:
        """||b_j||^2 of every c1 Riesz vector."""
        return np.einsum("ja,ja->j", self.c1_vectors, self.c1_vectors)

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

    def membership(self, direction: Direction) -> ConeMembership:
        """Node-wise membership test for the critical cone at the reference point."""
        if direction.grid.n_intervals != self.traj.grid.n_intervals:
            raise GridMismatchError(
                f"direction grid N={direction.grid.n_intervals} does not match "
                f"reference grid N={self.traj.grid.n_intervals}"
            )
        x, u = direction.x, direction.u
        c1_values = self.c1_integrals(x, u)
        c1 = float(max(0.0, np.max(c1_values)))
        c2 = float(np.max(np.abs(x - self.linmap.apply(u))))
        vals = self.c3_values(x, u)
        c3 = float(max(0.0, np.max(vals[self.active], initial=0.0)))
        passed = c1 <= self.tol and c2 <= self.tol and c3 <= self.tol
        return ConeMembership(
            c1_residual=c1,
            c2_residual=c2,
            c3_residual=c3,
            active_nodes=np.flatnonzero(self.active),
            passed=passed,
            c1_values=c1_values,
        )

    def control_dot(self, u1, u2) -> float:
        """Trapezoid L2 inner product of two control samples."""
        return float(np.einsum("kl,kl->k", u1, u2) @ self.w)

    # -- projection onto the discrete cone (alternating, heuristic) --------

    def project_cone(self, u: np.ndarray, max_passes: int, x: np.ndarray | None = None):
        """Alternating projection of controls onto the c1/c3 inequalities.

        x is the state S u when the caller already has it; otherwise it is
        integrated here.  Node-wise half-space steps treat the state response
        as frozen and re-integrate it between passes; the c1 values are read
        through the Riesz vectors, and the c1 steps are exact half-space
        projections along them.  Returns (u, x, moved) where moved reports
        whether any correction was applied.
        """
        gu = self.fields.gu
        if x is None:
            x = self.linmap.apply(u)
        moved = False
        slack = 0.1 * self.tol
        for _ in range(max_passes):
            vals = self.c3_values(x, u)
            viol = self.safe & (vals > slack)
            # einsum rather than @ keeps the products off BLAS's thread pool
            # (see CurvatureForm.q_value)
            c1 = np.einsum("ja,a->j", self.c1_vectors, u.reshape(-1))
            if not np.any(viol) and not np.any(c1 > slack):
                break
            if np.any(viol):
                moved = True
                # a zero step at the other nodes leaves them as they are
                step = np.divide(vals, self.gu_sq, out=np.zeros_like(vals), where=viol)
                u = u - step[:, None] * gu
            for b, bb in zip(self.c1_vectors, self.c1_norms_sq):
                if bb < 1e-28:
                    continue
                c = float(np.einsum("a,a->", b, u.reshape(-1)))
                if c > slack:
                    moved = True
                    u = u - (c / bb) * b.reshape(u.shape)
            x = self.linmap.apply(u)
        return u, x, moved

    def project_unit(self, u: np.ndarray, max_passes: int, x: np.ndarray | None = None):
        """project_cone, then scale to unit control norm: (u, x, moved), or
        None when the projection leaves (almost) the zero control."""
        u, x, moved = self.project_cone(u, max_passes, x)
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
    eigs = np.linalg.eigvalsh(blocks)[:, 0]
    k = int(np.argmin(eigs))
    min_eig = float(eigs[k])
    return CoercivityReport(
        passed=bool(min_eig >= gamma0),
        margin=min_eig - gamma0,
        min_eigenvalue=min_eig,
        argmin_node=k,
    )


class CurvatureForm:
    """The curvature Q of one multiplier triple, with its exact gradient in
    the controls and the projected descent for min Q(z(u)) over the cone
    with ||u||_2 = 1.

    Holds one array, the trapezoid-weighted Ww = w W at every node, so that
    Q(z) = sum_k z_k . (Ww z)_k for the stacked node variables z = (x, u).
    W is symmetric, as every Hessian block is (see hessian_blocks), so the
    gradient of Q in z is 2 Ww z and its polar form at (z, z') is z' . Ww z.
    """

    def __init__(self, ws: SecondOrderWorkspace, triple: MultiplierTriple):
        self.ws = ws
        h = ws.hessians
        W = np.einsum("j,jkab->kab", np.asarray(triple.lam, dtype=float), h.L)
        W += np.einsum("ikab,ki->kab", h.phi, np.asarray(triple.p, dtype=float))
        W += np.asarray(triple.theta, dtype=float)[:, None, None] * h.g
        W *= ws.w[:, None, None]
        self.Ww = W
        self.n = ws.problem.n

    def _times(self, x, u):
        """z = (x, u) and Ww z."""
        z = np.hstack([x, u])
        return z, np.einsum("kab,kb->ka", self.Ww, z)

    def q_value(self, x, u) -> float:
        z, s = self._times(x, u)
        # einsum, not @: numpy's BLAS runs a dot of over 10 000 entries (here
        # K (n+l)) on its thread pool, where one call took 8 ms instead of
        # 8 us on a 2-core machine
        return float(np.einsum("ka,ka->", z, s))

    def gradient(self, x, u) -> np.ndarray:
        return self._gradient(self._times(x, u)[1])

    def _gradient(self, s) -> np.ndarray:
        """Gradient in the controls of Q(S u, u), from s = Ww z."""
        n = self.n
        return 2.0 * (s[:, n:] + self.ws.linmap.apply_transpose(s[:, :n]))

    def minimize(self, u0: np.ndarray, max_iters: int):
        """Rayleigh-quotient descent: nonlinear CG on the residual direction
        with exact ratio line search; CG memory resets whenever the cone
        projection actually moves the iterate.

        The state x = S u is carried by linearity: the trial state of a step
        u - alpha d is x - alpha S d, with S d from the line search, and the
        projection integrates afresh only when it moves the controls.
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
            _, s = self._times(x, u)
            grad = self._gradient(s)
            # Rayleigh residual: vanishes at unconstrained stationarity
            residual = grad - 2.0 * q * (self.ws.w[:, None] * u)
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
            alpha, xd = self._exact_ratio_step(u, q, s, direction)
            state = self.ws.project_unit(u - alpha * direction, max_passes=3,
                                         x=x - alpha * xd)
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
        polished = self.ws.project_unit(best[1], max_passes=300, x=best[2])
        if polished is not None:
            u, x, _ = polished
            best = (self.q_value(x, u), u, x)
        return best, converged

    def _exact_ratio_step(self, u, q, s, d):
        """Minimizer alpha of the Rayleigh ratio along u - alpha d
        (pre-projection), and x_d = S d.  q = Q(z) and s = Ww z at the
        current iterate z = (S u, u)."""
        xd = self.ws.linmap.apply(d)
        a0 = q
        a1 = float(np.einsum("ka,ka->", s, np.hstack([xd, d])))
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
            return 0.2 / gn, xd
        return float(best_alpha), xd


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
        if ws.membership(cand).passed:
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
    note: str = ("membership is the node-wise discrete surrogate of the cone "
                 "conditions; existence is checked against the sampled weight "
                 "grid only")


def socn_verdict(
    ws: SecondOrderWorkspace,
    directions: list,
    lambda_points: int = 21,
) -> SocnFragment:
    """For each critical direction, look for a weight whose recovered triple
    has nonnegative curvature; report the first direction where none exists.

    Each result names its direction by ``index`` into ``directions`` and
    holds no copy of it: the directions are the caller's input, and only
    the caller knows whether they were given or generated.
    """
    weights = unit_weight_grid(ws.problem.m, lambda_points)
    solved = {}  # weight index -> (p, theta, report)
    form = None  # (weight index, CurvatureForm) of the last triple tested
    skipped = []
    results = []
    verdict = "holds"
    tested = 0
    for idx, direction in enumerate(directions):
        membership = ws.membership(direction)
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
            if form is None or form[0] != i:
                form = (i, CurvatureForm(ws, MultiplierTriple(lam, p, theta)))
            q = form[1].q_value(direction.x, direction.u)
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
            verdict = "kkt-degenerate"
        else:
            entry["holds"] = False
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
    kkt_report = ws.residuals(triple.lam, triple.p, triple.theta)
    if not kkt_report.passed:
        return SocsFragment("fail", "kkt", kkt_report, None, None, _SOCS_CAVEAT)
    coercivity = coercivity_check(ws, triple.lam, gamma0)
    if not coercivity.passed:
        return SocsFragment("fail", "coercivity", kkt_report, coercivity, None,
                            _SOCS_CAVEAT)
    search = worst_critical_direction(ws, triple, n_restarts=n_probes,
                                      max_iters=max_iters, seed=seed)
    # probes are normalized to unit control norm, so the threshold is plain tol
    if search.q_value <= ws.tol:
        return SocsFragment("fail", "curvature", kkt_report, coercivity, search,
                            _SOCS_CAVEAT)
    return SocsFragment("pass-with-caveat", None, kkt_report, coercivity, search,
                        _SOCS_CAVEAT)
