"""Runge-Kutta solvers for singularly perturbed initial-value problems on
layer-adapted (Shishkin) meshes."""

from .convergence import (
    ConvergenceTable,
    SweepCell,
    max_error,
    oscillation_count,
    run_sweep,
    shishkin_order,
)
from .mesh import (
    MESH_SHISHKIN,
    MESH_UNIFORM,
    SIGMA_CAP,
    Mesh,
    ShishkinParams,
    build_from_sigma,
    build_shishkin_mesh,
    build_uniform_mesh,
    generating_function_eval,
    transition_point,
    validate_mesh,
)
from .problems import (
    BUILTIN_NAMES,
    EvaluationError,
    Problem,
    exact_eval,
    linear_coeffs_eval,
    make_builtin,
    rhs_eval,
)
from .steppers import (
    SingularStepError,
    StageEvaluationError,
    Trajectory,
    explicit_rk_step,
    gauss2_linear_step,
    integrate,
)
from .tableaux import (
    GAUSS2_GAMMA,
    NOMINAL_ORDER,
    SCHEME_NAMES,
    ButcherTableau,
    OrderCondition,
    named_tableau,
    verify_order_conditions,
)

__version__ = "0.1.0"
