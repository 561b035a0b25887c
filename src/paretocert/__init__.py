"""Optimality certificates for multi-objective optimal control problems
with a mixed pointwise constraint, plus a finite-dimensional analyzer for
smooth vector programs over the nonpositive orthant.
"""

from .expr import (
    EvalDomainError,
    ExprError,
    ExprSyntaxError,
    VarBinding,
    differentiate,
    evaluate,
    parse,
    simplify,
    to_source,
)
from .findim import (
    FinDimPoint,
    FinDimProblem,
    MultiplierPair,
    load_findim_problem,
    multiplier_set_sample,
    robinson_check,
    second_order_necessary_check,
    weak_pareto_oracle,
)
from .kkt import (
    KktReport,
    KktWorkspace,
    MultiplierTriple,
)
from .problem import (
    H2Report,
    Problem,
    builtin,
    builtin_names,
    load_problem,
    serialize,
    validate_h2,
)
from .second_order import (
    ConeMembership,
    CurvatureForm,
    SecondOrderWorkspace,
    coercivity_check,
    random_critical_directions,
    socn_verdict,
    socs_verdict,
    worst_critical_direction,
)
from .trajectory import (
    Direction,
    Grid,
    Trajectory,
    integrate_state,
    quadrature,
    state_residual,
)

__version__ = "0.1.0"
