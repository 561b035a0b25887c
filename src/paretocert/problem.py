"""Multi-objective optimal control problem instances.

A problem bundles the running costs L_1..L_m, the dynamics phi_1..phi_n, one
mixed pointwise constraint g(t, x, u) <= 0, and the initial state x0, all on
the fixed horizon [0, 1].  Loading precomputes and caches simplified
first/second derivative trees for every expression with respect to every
state and control component; evaluation hot paths use compiled forms.

Two representational limits, by design: Lipschitz/boundedness regularity of
the data is the user's responsibility (undecidable for general expressions;
the loader guarantees twice continuously differentiable symbolics only), and
costs that are merely measurable in t are not representable because the
expression grammar forces continuity in t.

Problems are immutable after loading and safe to share across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Mapping

import numpy as np

from . import expr as ex

if TYPE_CHECKING:  # pragma: no cover
    from .trajectory import Trajectory

__all__ = [
    "Problem",
    "H2Report",
    "ProblemFormatError",
    "UnknownBuiltinError",
    "load_problem",
    "builtin",
    "builtin_names",
    "serialize",
    "validate_h2",
]


class ProblemFormatError(ValueError):
    """Problem document violates the schema (message carries the field path)."""


class UnknownBuiltinError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class Problem:
    n: int
    l: int
    m: int
    x0: np.ndarray
    L: tuple[ex.ExprAst, ...]
    phi: tuple[ex.ExprAst, ...]
    g: ex.ExprAst
    name: str | None = None
    L_derivs: tuple[ex.DerivTable, ...] = field(repr=False, default=())
    phi_derivs: tuple[ex.DerivTable, ...] = field(repr=False, default=())
    g_derivs: ex.DerivTable | None = field(repr=False, default=None)
    _compiled: dict = field(repr=False, default_factory=dict, compare=False)

    @property
    def variables(self) -> tuple[str, ...]:
        return ex.control_variables(self.n, self.l)

    @property
    def xu_variables(self) -> tuple[str, ...]:
        """Differentiation variables, state components first."""
        return self.variables[1:]

    @cached_property
    def rk4(self):
        """The generated integrator loops of :func:`trajectory.compile_rk4`,
        built on first use and dropped with the problem."""
        from .trajectory import compile_rk4

        return compile_rk4(self)

    def compiled(self, ast: ex.ExprAst):
        """Compiled evaluator for an AST, cached per problem.

        Keyed by the (frozen, hashable) node itself: id-based keys would be
        unsafe once temporary ASTs are garbage collected.
        """
        fn = self._compiled.get(ast)
        if fn is None:
            fn = ex.compile_ast(ast, self.variables)
            self._compiled[ast] = fn
        return fn

    def __eq__(self, other) -> bool:
        if not isinstance(other, Problem):
            return NotImplemented
        return (
            (self.n, self.l, self.m) == (other.n, other.l, other.m)
            and np.array_equal(self.x0, other.x0)
            and self.L == other.L
            and self.phi == other.phi
            and self.g == other.g
        )


def _make_problem(n, l, m, x0, L_sources, phi_sources, g_source, name=None) -> Problem:
    dims = (n, l)

    def parse(label, source):
        try:
            return ex.parse(source, dims)
        except ex.ExprError as err:
            raise ProblemFormatError(f"{label}: {err}") from None

    L = tuple(parse(f"L[{i}]", s) for i, s in enumerate(L_sources))
    phi = tuple(parse(f"phi[{i}]", s) for i, s in enumerate(phi_sources))
    g = parse("g", g_source)
    xu = ex.control_variables(n, l)[1:]
    return Problem(
        n=n,
        l=l,
        m=m,
        x0=np.asarray(x0, dtype=float),
        L=L,
        phi=phi,
        g=g,
        name=name,
        L_derivs=tuple(ex.deriv_table(a, xu) for a in L),
        phi_derivs=tuple(ex.deriv_table(a, xu) for a in phi),
        g_derivs=ex.deriv_table(g, xu),
    )


_SCHEMA_FIELDS = {"n", "l", "m", "x0", "L", "phi", "g", "name"}


def load_problem(document) -> Problem:
    """Load a problem from a JSON text or an already-decoded mapping.

    Schema: {"n": int, "l": int, "m": int, "x0": [real...], "L": [str...],
    "phi": [str...], "g": str, "name": str optional}.  Unknown fields are
    rejected; dimension mismatches and expression errors report the field.
    """
    if isinstance(document, (str, bytes)):
        try:
            data = json.loads(document)
        except json.JSONDecodeError as err:
            raise ProblemFormatError(f"invalid JSON: {err}") from None
    else:
        data = document
    if not isinstance(data, Mapping):
        raise ProblemFormatError("problem document must be a JSON object")

    unknown = set(data) - _SCHEMA_FIELDS
    if unknown:
        raise ProblemFormatError(f"unknown fields: {sorted(unknown)}")
    for key in ("n", "l", "m", "x0", "L", "phi", "g"):
        if key not in data:
            raise ProblemFormatError(f"missing field '{key}'")

    def positive_int(key):
        v = data[key]
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise ProblemFormatError(f"'{key}' must be a positive integer")
        return v

    n, l, m = positive_int("n"), positive_int("l"), positive_int("m")

    x0 = data["x0"]
    if not isinstance(x0, list) or not all(isinstance(v, (int, float)) for v in x0):
        raise ProblemFormatError("'x0' must be a list of reals")
    if len(x0) != n:
        raise ProblemFormatError(f"dimension mismatch: len(x0)={len(x0)}, n={n}")

    def string_list(key, expected, dim_name):
        v = data[key]
        if not isinstance(v, list) or not all(isinstance(s, str) for s in v):
            raise ProblemFormatError(f"'{key}' must be a list of strings")
        if len(v) != expected:
            raise ProblemFormatError(
                f"dimension mismatch: len({key})={len(v)}, {dim_name}={expected}"
            )
        return v

    L_sources = string_list("L", m, "m")
    phi_sources = string_list("phi", n, "n")
    if not isinstance(data["g"], str):
        raise ProblemFormatError("'g' must be a string")
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise ProblemFormatError("'name' must be a string")

    return _make_problem(n, l, m, x0, L_sources, phi_sources, data["g"], name)


def serialize(problem: Problem) -> dict:
    """Canonical JSON-ready document; round-trips through load_problem."""
    doc = {
        "n": problem.n,
        "l": problem.l,
        "m": problem.m,
        "x0": [float(v) for v in problem.x0],
        "L": [ex.to_source(a) for a in problem.L],
        "phi": [ex.to_source(a) for a in problem.phi],
        "g": ex.to_source(problem.g),
    }
    if problem.name is not None:
        doc["name"] = problem.name
    return doc


# ---------------------------------------------------------------------------
# Builtin registry

_BUILTIN_SOURCES = {
    "example_6_1": dict(
        n=2,
        l=2,
        m=2,
        x0=(0.0, 0.0),
        L_sources=("x1^2 + u1^2", "x2^2 + u2^2"),
        phi_sources=("u1", "u2"),
        g_source="x1 + x2 - u1 - u2",
    ),
    "example_6_2": dict(
        n=2,
        l=2,
        m=2,
        x0=(0.0, 0.0),
        L_sources=("x1^2 - u1^2", "x2^2 - u2^2"),
        phi_sources=("u1", "u2"),
        g_source="x1 + x2 - u1 - u2",
    ),
    # Nonlinear state-coupled fixture: a damped driven pendulum with a slack
    # control bound.  Exercises x-dependent dynamics (the two quadratic
    # examples above have phi = u, for which several discretisation errors
    # cancel identically).
    "damped_pendulum": dict(
        n=2,
        l=1,
        m=2,
        x0=(0.5, 0.0),
        L_sources=("x1^2 + x2^2 + u1^2", "(x1 - 1)^2 + u1^2"),
        phi_sources=("x2", "sin(x1) - x2 + u1"),
        g_source="u1 - 10",
    ),
}

_BUILTIN_CACHE: dict[str, Problem] = {}


def builtin_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILTIN_SOURCES))


def builtin(name: str) -> Problem:
    """Registry problem by name; raises UnknownBuiltinError listing entries."""
    if name not in _BUILTIN_SOURCES:
        raise UnknownBuiltinError(
            f"unknown builtin problem {name!r}; available: {', '.join(builtin_names())}"
        )
    if name not in _BUILTIN_CACHE:
        _BUILTIN_CACHE[name] = _make_problem(name=name, **_BUILTIN_SOURCES[name])
    return _BUILTIN_CACHE[name]


# ---------------------------------------------------------------------------
# Control-sensitivity check on the constraint


@dataclass
class H2Report:
    """Uniform lower bound on one control derivative of g along a trajectory.

    ``i0`` is the 1-based control index maximising min_t |g_{u_i}[t]| (lowest
    index wins ties); ``passed`` iff that minimum is at least ``alpha``.
    ``argmin_node`` is the first node where |g_{u_{i0}}| equals ``alpha_hat``.
    """

    i0: int
    alpha_hat: float
    alpha: float
    passed: bool
    argmin_node: int
    per_control_min: np.ndarray

    @classmethod
    def from_gradient(cls, gu_nodes: np.ndarray, alpha: float) -> "H2Report":
        """The check on g_u already sampled at the nodes, shape (N+1, l)."""
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        mins = np.abs(gu_nodes).min(axis=0)
        i0 = int(np.argmax(mins))  # np.argmax returns the first maximiser
        return cls(
            i0=i0 + 1,
            alpha_hat=float(mins[i0]),
            alpha=float(alpha),
            passed=bool(mins[i0] >= alpha),
            argmin_node=int(np.argmin(np.abs(gu_nodes[:, i0]))),
            per_control_min=mins,
        )


def validate_h2(problem: Problem, traj: "Trajectory", alpha: float) -> H2Report:
    """Check |g_{u_{i0}}| >= alpha at every grid node of the trajectory."""
    gu = [node_values(problem, a, traj) for a in problem.g_derivs.grad[problem.n:]]
    return H2Report.from_gradient(np.stack(gu, axis=1), alpha)


def node_values(problem: Problem, ast: ex.ExprAst, traj: "Trajectory") -> np.ndarray:
    """Evaluate one expression at every node of a trajectory (compiled path)."""
    t = traj.grid.nodes
    packed = (t, *(traj.x[:, i] for i in range(problem.n)),
              *(traj.u[:, i] for i in range(problem.l)))
    with np.errstate(all="ignore"):
        out = np.asarray(problem.compiled(ast)(packed), dtype=float)
    if out.ndim == 0:
        out = np.full(t.shape, float(out))
    return out

