"""Time grids, quadrature, state integration, and linearized dynamics.

Discretisation conventions, used consistently everywhere:

* uniform grid t_i = i/N on [0, 1];
* controls live at nodes and are interpolated linearly inside steps;
* integrals use the composite trapezoid rule on node samples;
* ODEs (state, adjoint, linearized state) use one classical 4th-order
  one-step method per interval, with node quantities averaged at the
  midpoint stage; the two linear ones share one builder of the step's
  transition and node source maps.

The nonlinear state equation is integrated by one Python loop generated
from the dynamics expressions (:func:`compile_rk4`) and cached on the
problem.  It runs on Python floats, calling numpy's elementary functions;
where Python float arithmetic raises (division by zero, overflow in a
power) numpy would give inf or nan, so the integration runs again on numpy
scalars.  Either way the states are bit for bit those of numpy arithmetic,
and a non-finite state raises :class:`IntegrationError` at the first node
that has one.  The linear equations run as banded triangular solves.

All operations are pure functions of immutable inputs.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
from scipy.linalg.lapack import dtbtrs
from scipy.sparse import csr_array, get_index_dtype

from . import document as doc
from . import expr as ex
from .problem import Problem, node_values

__all__ = [
    "Grid",
    "Trajectory",
    "Direction",
    "IntegrationError",
    "GridMismatchError",
    "quadrature",
    "quad_weights",
    "compile_rk4",
    "integrate_state",
    "state_residual",
    "LinearStateMap",
    "BackwardLinearMap",
    "TrajectoryFields",
    "build_fields",
    "HessianBlocks",
    "hessian_blocks",
]


class IntegrationError(ValueError):
    def __init__(self, message: str, node: int):
        super().__init__(f"{message} at node {node}")
        self.node = node


class GridMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class Grid:
    """Uniform grid with N >= 2 intervals on [0, 1]."""

    n_intervals: int

    def __post_init__(self):
        if self.n_intervals < 2:
            raise ValueError("grid needs at least 2 intervals")

    @property
    def h(self) -> float:
        return 1.0 / self.n_intervals

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n_intervals + 1)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """State and control samples on a grid; x is (N+1, n), u is (N+1, l)."""

    grid: Grid
    x: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        k = self.grid.n_intervals + 1
        if self.x.ndim != 2 or self.u.ndim != 2 or len(self.x) != k or len(self.u) != k:
            raise GridMismatchError(
                f"expected {k} node rows, got x: {self.x.shape}, u: {self.u.shape}"
            )

    def to_dict(self) -> dict:
        return {
            "grid_n": self.grid.n_intervals,
            "x": self.x,
            "u": self.u,
        }

    @classmethod
    def from_dict(cls, data, columns=(None, None), grid_n=None,
                  error=doc.DocumentError) -> "Trajectory":
        """Read a document under the rules of :mod:`paretocert.document`:
        'grid_n' an integer of at least 2 (equal to grid_n when that is
        given), and 'x' and 'u' grid_n + 1 rows each of finite numbers, with
        the given column counts (None: any).  The 'state_residual' that the
        integrate command writes may be present; it is not read."""
        doc.mapping(data, ("grid_n", "x", "u"), ("state_residual",), error)
        grid = Grid(doc.integer(data, "grid_n", 2, error))
        if grid_n not in (None, grid.n_intervals):
            raise error(f"'grid_n' is {grid.n_intervals}, the request's grid is {grid_n}")
        k = grid.n_intervals + 1
        return cls(grid, doc.samples(data, "x", (k, columns[0]), error),
                   doc.samples(data, "u", (k, columns[1]), error))


class Direction(Trajectory):
    """Candidate critical direction z = (x, u); same sampling as Trajectory."""


# ---------------------------------------------------------------------------
# Quadrature


def quad_weights(grid: Grid) -> np.ndarray:
    w = np.full(grid.n_intervals + 1, grid.h)
    w[0] = w[-1] = grid.h / 2.0
    return w


def quadrature(samples, grid: Grid) -> float:
    """Composite trapezoid value of node samples over [0, 1]."""
    samples = np.asarray(samples, dtype=float)
    if len(samples) != grid.n_intervals + 1:
        raise GridMismatchError(
            f"expected {grid.n_intervals + 1} samples, got {len(samples)}"
        )
    return float(quad_weights(grid) @ samples)


# ---------------------------------------------------------------------------
# State integration


def _float_valued(ufunc):
    return lambda x: float(ufunc(x))


# numpy's own elementary functions, taking and returning Python floats.
# math's are not numpy's on every CPU: where AVX-512 is present numpy's
# float64 exp and log are its own SIMD code, which differs from libm in the
# last bit for up to a few percent of arguments.
_FLOAT_FUNCTIONS = SimpleNamespace(
    isfinite=math.isfinite, **{name: _float_valued(getattr(np, name)) for name in ex.FUNCTIONS})


def compile_rk4(problem: Problem):
    """The whole RK4 loop of :func:`integrate_state`, generated from phi.

    One Python source runs every step over scalars.  Each stage binds t,
    x1..xn and u1..ul to locals and evaluates the phi components, written by
    :func:`expr.to_python`; the step then combines the stages exactly as
    ``x_k + (h/6)(k1 + 2 k2 + 2 k3 + k4)``.  The source is exec'd twice and
    returned as ``(fast, exact)``: ``fast`` runs on Python floats and calls
    numpy's functions through float-valued wrappers, ``exact`` runs on
    ``np.float64`` values and calls the numpy functions directly.  Both have
    the signature ``loop(ts, us, x0, h, rows)``: they extend ``rows`` (an
    ``array("d")``) with the state at every node, node by node, and return
    the first node whose state is not finite, or 0.
    """
    n, l = problem.n, problem.l
    names = {v: v for v in problem.variables}
    slopes = [ex.to_python(a, names, "_f") for a in problem.phi]
    y = [f"y{i}" for i in range(1, n + 1)]
    p = [f"p{j}" for j in range(1, l + 1)]
    q = [f"q{j}" for j in range(1, l + 1)]

    def unpack(targets):  # the trailing comma keeps n = 1 a tuple unpacking
        return ", ".join(targets) + ","

    def stage(s, t, x, u):
        lines = [] if t is None else [f"t = {t}"]
        lines += [f"x{i} = {xi}" for i, xi in enumerate(x, start=1)]
        lines += [f"u{j} = {uj}" for j, uj in enumerate(u, start=1)]
        return lines + [f"k{s}_{i} = {e}" for i, e in enumerate(slopes, start=1)]

    def step_from(s, scale):
        return [f"{yi} + {scale} * k{s}_{i}" for i, yi in enumerate(y, start=1)]

    body = [
        *stage(1, "tk", y, p),
        *stage(2, "tk + h2", step_from(1, "h2"),
               [f"0.5 * ({pj} + {qj})" for pj, qj in zip(p, q)]),
        *stage(3, None, step_from(2, "h2"), []),  # t and u as in stage 2
        *stage(4, "tk + h", step_from(3, "h"), q),
        *(f"{yi} = {yi} + h6 * (k1_{i} + 2 * k2_{i} + 2 * k3_{i} + k4_{i})"
          for i, yi in enumerate(y, start=1)),
        f"if not ({' and '.join(f'_f.isfinite({yi})' for yi in y)}):",
        "    return k",
        f"rows.extend(({unpack(y)}))",
        *(f"{pj} = {qj}" for pj, qj in zip(p, q)),
    ]
    source = "\n".join([
        "def loop(ts, us, x0, h, rows):",
        "    h2 = h / 2",
        "    h6 = h / 6",
        f"    {unpack(y)} = x0",
        f"    rows.extend(({unpack(y)}))",
        f"    {unpack(p)} = us[0]",
        "    for k in range(1, len(ts)):",
        "        tk = ts[k - 1]",
        f"        {unpack(q)} = us[k]",
        *(f"        {line}" for line in body),
        "    return 0",
    ])
    code = compile(source, f"<rk4 {problem.name or 'problem'}>", "exec")
    loops = []
    for functions in (_FLOAT_FUNCTIONS, np):
        scope = {"_f": functions}
        exec(code, scope)
        loops.append(scope["loop"])
    return tuple(loops)


def integrate_state(problem: Problem, u: np.ndarray, grid: Grid) -> Trajectory:
    """Integrate x' = phi(t, x, u(t)) from x(0) = x0 with nodal controls.

    One classical 4th-order step per interval; u is interpolated linearly
    between nodes, so the midpoint stages see the node average.  The loop is
    the problem's generated :func:`compile_rk4` source, run first on Python
    floats.  Python float arithmetic raises ``ZeroDivisionError`` or
    ``OverflowError`` where numpy scalars give inf or nan; then the
    integration runs again on ``np.float64`` values, so the states are
    always those of numpy arithmetic (the arithmetic of
    :func:`problem.node_values`), bit for bit.  Either run checks every
    node, and the first non-finite state raises :class:`IntegrationError`
    naming that node.  A subexpression made only of constants that divides
    by zero raises ``ZeroDivisionError`` on both runs.
    """
    u = np.asarray(u, dtype=float)
    k_nodes = grid.n_intervals + 1
    if u.shape != (k_nodes, problem.l):
        raise GridMismatchError(f"control shape {u.shape} != {(k_nodes, problem.l)}")
    fast, exact = problem.rk4
    t_nodes = grid.nodes
    rows = array("d")
    with np.errstate(all="ignore"):
        try:
            bad = fast(t_nodes.tolist(), u.tolist(), problem.x0.tolist(), grid.h, rows)
        except (ZeroDivisionError, OverflowError):
            rows = array("d")
            bad = exact(t_nodes, u, problem.x0, grid.h, rows)
    if bad:
        raise IntegrationError("non-finite state during integration", bad)
    return Trajectory(grid, np.array(rows).reshape(k_nodes, problem.n), u.copy())


def _phi_nodes(problem: Problem, traj: Trajectory) -> np.ndarray:
    return np.stack([node_values(problem, a, traj) for a in problem.phi], axis=1)


def state_residual(problem: Problem, traj: Trajectory) -> float:
    """Max-norm defect of x(t_i) = x0 + integral of phi, trapezoid quadrature."""
    return _state_defect(problem, traj, _phi_nodes(problem, traj))


def _state_defect(problem: Problem, traj: Trajectory, f: np.ndarray) -> float:
    c = np.zeros_like(f)
    c[1:] = np.cumsum(0.5 * traj.grid.h * (f[:-1] + f[1:]), axis=0)
    return float(np.max(np.abs(traj.x - problem.x0 - c)))


# ---------------------------------------------------------------------------
# Linear propagation machinery
#
# The linearized state equation and the adjoint equation are both
# x' = A(t) x + r(t) with r linear between nodes (the adjoint run backward in
# time, as a forward system in tau = 1 - t).  One RK4 step of it is
# x_{k+1} = Phi_k x_k + G0_k r_k + G1_k r_{k+1}; _stage_maps builds Phi, G0
# and G1 for every interval in batch.  With x_0 = 0 the recurrence over all
# steps is one unit block-lower-bidiagonal linear system, solved as a band by
# a single LAPACK call; the same band solved with trans="T" gives the exact
# discrete transpose.  The forward map, applied at every step of the
# curvature search and every cone projection pass, holds its node source
# maps as one sparse matrix from the stacked controls to the step offsets,
# built once; the backward map, solved a few times per request, applies them
# node by node with _offsets.


class _AffineScan:
    """Banded solve of y_{k+1} = M_k y_k + d_k from y_0 = 0.

    Stacking y_1..y_N gives L y = d with L unit block-lower-bidiagonal:
    identity blocks on the diagonal and -M_k in block row k below it (M_0
    never enters).  L has lower bandwidth 2n - 1, so its (2n, N n) lower
    band is built once from M; ``run`` is one ``dtbtrs`` call in O(N n^2)
    work, and ``transpose=True`` solves L^T mu = w on the same band.
    """

    def __init__(self, M: np.ndarray):
        count, n = M.shape[0], M.shape[-1]
        self.ab = np.zeros((2 * n, count * n), order="F")
        self.ab[0] = 1.0
        a = np.arange(n)[:, None]
        b = np.arange(n)[None, :]
        self.ab[n + a - b, np.arange(count - 1)[:, None, None] * n + b] = -M[1:]

    def run(self, d: np.ndarray, transpose: bool = False) -> np.ndarray:
        """Returns y_1..y_N for offsets d_0..d_{N-1}; with ``transpose``, the
        solution of the transposed system for weights d on y_1..y_N."""
        y, info = dtbtrs(self.ab, d.reshape(-1, 1), uplo="L",
                         trans="T" if transpose else "N", diag="U")
        if info != 0:
            raise np.linalg.LinAlgError(f"banded triangular solve failed (LAPACK info {info})")
        return y.reshape(d.shape)


def _stage_maps(A: np.ndarray, h: float):
    """Transition Phi and node source maps (G0, G1) of every RK4 step.

    For x' = A x + r with A and r linear between nodes (the midpoint stages
    see the node averages), one step is
    x_{k+1} = Phi_k x_k + G0_k r_k + G1_k r_{k+1}.  Each map is the stage
    recursion written out in closed form: Phi takes three batched products,
    G0 two and G1 one.
    """
    eye = np.eye(A.shape[-1])
    half = 0.5 * eye
    a0, ae = A[:-1], A[1:]
    am = 0.5 * (a0 + ae)

    k1 = a0
    k2 = am @ (eye + (h / 2) * k1)
    k3 = am @ (eye + (h / 2) * k2)
    k4 = ae @ (eye + h * k3)
    phi = eye + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)

    # stage sources c2..c4 as maps of r_k (stage 1 sees r_k itself) ...
    c2 = (h / 2) * am + half
    c3 = (h / 2) * (am @ c2) + half
    c4 = h * (ae @ c3)
    g0 = (h / 6) * (eye + 2 * c2 + 2 * c3 + c4)
    # ... and of r_{k+1} (stage 1 does not see it, stage 2 sees half of it)
    c3 = (h / 4) * am + half
    c4 = h * (ae @ c3) + eye
    g1 = (h / 6) * (eye + 2 * c3 + c4)
    return phi, g0, g1


def _offsets(gamma0: np.ndarray, gamma1: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Step offsets gamma0_k r_k + gamma1_k r_{k+1} from node samples r."""
    return np.einsum("kij,kj->ki", gamma0, r[:-1]) + np.einsum("kij,kj->ki", gamma1, r[1:])


class LinearStateMap:
    """Discrete map u -> x for x' = A(t) x + B(t) u, x(0) = 0, plus its transpose.

    The node source maps act on r = B u, so the step offsets are
    gamma0_k u_k + gamma1_k u_{k+1} with gamma0 = G0 B_k and gamma1 = G1 B_{k+1}.
    They are held as one sparse (N n, (N+1) l) matrix Gamma from the stacked
    controls to the stacked offsets, built once: row (k, i) holds the 2l
    entries [gamma0_k[i] | gamma1_k[i]] over the controls u_k, u_{k+1}, which
    are adjacent in the stacking.  ``apply`` is the banded solve of Gamma u,
    and the transpose is Gamma^T applied to the transposed banded solve, so
    it is the exact adjoint of the discrete forward map:
    <v, apply(u)> == <apply_transpose(v), u> to rounding for the flattened
    Euclidean inner products.
    """

    def __init__(self, A: np.ndarray, B: np.ndarray, grid: Grid):
        self.grid = grid
        self.n = n = A.shape[-1]
        self.l = l = B.shape[-1]
        self.phi, g0, g1 = _stage_maps(A, grid.h)
        steps = len(self.phi)
        data = np.concatenate([g0 @ B[:-1], g1 @ B[1:]], axis=2).reshape(-1)
        index = get_index_dtype(maxval=max(data.size, (steps + 1) * l))  # int32 if it fits
        columns = np.broadcast_to(
            np.arange(steps, dtype=index)[:, None, None] * l + np.arange(2 * l, dtype=index),
            (steps, n, 2 * l)).reshape(-1)
        self._gamma = csr_array(
            (data, columns, np.arange(0, data.size + 1, 2 * l, dtype=index)),
            shape=(steps * n, (steps + 1) * l))
        self._gamma_t = self._gamma.T  # a CSC view of the same arrays
        self._scan = _AffineScan(self.phi)

    def apply(self, u: np.ndarray) -> np.ndarray:
        """State response x (N+1, n) to nodal controls u (N+1, l)."""
        x = np.zeros((len(u), self.n))
        x[1:] = self._scan.run(self._gamma @ u.reshape(-1)).reshape(-1, self.n)
        return x

    def apply_transpose(self, v: np.ndarray) -> np.ndarray:
        """Transpose map: node weights on x (N+1, n) -> weights on u (N+1, l)."""
        mu = self._scan.run(v[1:], transpose=True)  # mu[k]: sensitivity to x_{k+1}
        return (self._gamma_t @ mu.reshape(-1)).reshape(len(v), self.l)


class BackwardLinearMap:
    """Backward integrator for p' = -A(t)^T p - s(t) with p(1) = 0.

    Runs the time-reversed system q(tau) = p(1 - tau),
    q' = A(1 - tau)^T q + s(1 - tau), forward: Phi and the node source maps gamma0, gamma1 of that system
    (the stage maps of the reversed, transposed A) and the band of its
    bidiagonal recurrence are built once, so each solve is the step offsets
    of the reversed source plus one banded triangular solve.
    """

    def __init__(self, A: np.ndarray, grid: Grid):
        self.grid = grid
        self.n = A.shape[-1]
        rev = np.swapaxes(A, 1, 2)[::-1]
        self.phi, self.gamma0, self.gamma1 = _stage_maps(rev, grid.h)
        self._scan = _AffineScan(self.phi)

    def solve(self, source: np.ndarray) -> np.ndarray:
        q = np.zeros((len(source), self.n))
        q[1:] = self._scan.run(_offsets(self.gamma0, self.gamma1, source[::-1]))
        return q[::-1].copy()

    def defect(self, source: np.ndarray, p: np.ndarray) -> float:
        """Max one-step reproduction defect of given samples p under the scheme."""
        q = p[::-1]
        d = _offsets(self.gamma0, self.gamma1, source[::-1])
        pred = np.einsum("kij,kj->ki", self.phi, q[:-1]) + d
        return float(np.max(np.abs(q[1:] - pred)))


# ---------------------------------------------------------------------------
# Field tables along a reference trajectory


@dataclass(eq=False)
class TrajectoryFields:
    """Values and first derivatives of L, phi, g sampled along a reference
    point; shapes use K = N+1 nodes.  build_fields raises IntegrationError,
    naming the first node, when any entry is not finite."""

    grid: Grid
    w: np.ndarray  # (K,) trapezoid weights
    L: np.ndarray  # (m, K)
    Lx: np.ndarray  # (m, K, n)
    Lu: np.ndarray  # (m, K, l)
    phi: np.ndarray  # (K, n)
    phix: np.ndarray  # (K, n, n)
    phiu: np.ndarray  # (K, n, l)
    g: np.ndarray  # (K,)
    gx: np.ndarray  # (K, n)
    gu: np.ndarray  # (K, l)
    state_residual: float  # state_residual(problem, traj), from phi above


def _require_finite(arrays) -> None:
    """Raise IntegrationError at the first node where an array holds a
    non-finite entry; ``arrays`` yields (label, array, node axis)."""
    for label, arr, axis in arrays:
        bad = ~np.isfinite(arr)
        if np.any(bad):
            raise IntegrationError(f"non-finite {label} values along trajectory",
                                   int(np.nonzero(bad)[axis].min()))


def build_fields(problem: Problem, traj: Trajectory) -> TrajectoryFields:
    n = problem.n

    def values(ast):
        return node_values(problem, ast, traj)

    def grads(table, part):  # (K, len(part)) partials in the stacked variables
        return np.stack([values(a) for a in table.grad[part]], axis=1)

    L = np.stack([values(a) for a in problem.L])
    Lx = np.stack([grads(t, np.s_[:n]) for t in problem.L_derivs])
    Lu = np.stack([grads(t, np.s_[n:]) for t in problem.L_derivs])

    phi = _phi_nodes(problem, traj)
    phix = np.stack([grads(t, np.s_[:n]) for t in problem.phi_derivs], axis=1)
    phiu = np.stack([grads(t, np.s_[n:]) for t in problem.phi_derivs], axis=1)

    g = values(problem.g)
    gx = grads(problem.g_derivs, np.s_[:n])
    gu = grads(problem.g_derivs, np.s_[n:])

    # every array of the table, with the axis that indexes its nodes
    _require_finite((("L", L, 1), ("L gradients", Lx, 1), ("L gradients", Lu, 1),
                     ("dynamics", phi, 0), ("dynamics jacobian", phix, 0),
                     ("dynamics jacobian", phiu, 0), ("constraint", g, 0),
                     ("constraint gradient", gx, 0), ("constraint gradient", gu, 0)))

    return TrajectoryFields(
        grid=traj.grid,
        w=quad_weights(traj.grid),
        L=L,
        Lx=Lx,
        Lu=Lu,
        phi=phi,
        phix=phix,
        phiu=phiu,
        g=g,
        gx=gx,
        gu=gu,
        state_residual=_state_defect(problem, traj, phi),
    )


@dataclass(frozen=True, eq=False)
class HessianBlocks:
    """Second derivatives of L, phi, g along a reference point, in the
    stacked variables (x1..xn, u1..ul); K = N+1 nodes and nl = n+l."""

    L: np.ndarray  # (m, K, nl, nl)
    phi: np.ndarray  # (n, K, nl, nl)
    g: np.ndarray  # (K, nl, nl)


def hessian_blocks(problem: Problem, traj: Trajectory) -> HessianBlocks:
    """Hessian blocks at every node; only the second-order checks read them.
    Raises IntegrationError, naming the first node, when any entry is not
    finite.

    Derivative tables are symmetric by construction, so each entry below the
    diagonal is copied from its mirror.
    """
    nl = problem.n + problem.l
    k = traj.grid.n_intervals + 1

    def block(table):
        out = np.empty((k, nl, nl))
        for a in range(nl):
            for b in range(nl):
                if b < a:
                    out[:, a, b] = out[:, b, a]
                else:
                    out[:, a, b] = node_values(problem, table.hess[a][b], traj)
        return out

    blocks = HessianBlocks(
        L=np.stack([block(t) for t in problem.L_derivs]),
        phi=np.stack([block(t) for t in problem.phi_derivs]),
        g=block(problem.g_derivs),
    )
    _require_finite((("L Hessian", blocks.L, 1), ("dynamics Hessian", blocks.phi, 1),
                     ("constraint Hessian", blocks.g, 0)))
    return blocks
