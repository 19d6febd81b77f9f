"""Single Runge-Kutta steps and whole-mesh integration.

Two scalar step kernels are provided: a generic driver for any explicit
tableau, and the closed-form two-stage Gauss step for problems with a
linear right-hand side (the implicit stage system is solved symbolically,
so no iteration is needed).  Nonlinear implicit stepping is out of scope.

On a linear problem y' = p(x)*y + q(x) every step of every tableau is
affine in y, y_{i+1} = y_i + (D_i*y_i + S_i): the variable-coefficient
form of R(z) = 1 + z b^T (I - zA)^{-1} 1 (Hairer & Wanner, Solving ODEs II,
sec. IV.3).  ``integrate`` computes D and S with numpy, block by block,
and runs the recurrence as a float loop whenever it can show that the
scalar driver would give the same values up to rounding; otherwise the
scalar driver, the oracle, runs the whole mesh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mesh import Mesh
from .problems import (
    DOMAIN_TOL,
    EvaluationError,
    Problem,
    array_eval,
    linear_coeffs_eval,
    rhs_eval,
)
from .tableaux import GAUSS2_GAMMA, ButcherTableau, named_tableau

#: Below this magnitude the Gauss-step denominator counts as singular.
SINGULAR_DENOMINATOR_TOL = 1e-14

#: Intervals per block of the affine-step kernel: enough to amortise the
#: numpy calls, few enough to keep the block's temporaries small.
KERNEL_BLOCK = 4096

#: The kernel requires max|y| * max|coefficient| + max|offset| below this,
#: far enough from overflow that the scalar driver's intermediates, which
#: differ by rounding, stay finite too.
KERNEL_HEADROOM = 2.0**1000

GAUSS2 = "gauss2"


class StageEvaluationError(ArithmeticError):
    """A stage evaluation produced a non-finite value."""


class SingularStepError(ArithmeticError):
    """The linear Gauss step hit a (near-)singular stage system."""


@dataclass(frozen=True)
class Trajectory:
    """Numerical solution values at the nodes of a mesh."""

    mesh: Mesh
    values: np.ndarray
    scheme_id: str
    problem_id: str

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != self.mesh.nodes.shape:
            raise ValueError("one value per mesh node required")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def explicit_rk_step(
    tableau: ButcherTableau, problem: Problem, x_i: float, y_i: float, h_i: float
) -> float:
    """One explicit step: k_j = f(x + c_j h, y + h * sum_{q<j} a_jq k_q),
    then y + h * sum_j b_j k_j.  Stages are evaluated in ascending order."""
    if not tableau.explicit:
        raise ValueError(
            f"tableau {tableau.name or '<anonymous>'!r} is implicit; "
            "the generic driver handles explicit schemes only"
        )
    if not h_i > 0.0:
        raise ValueError(f"step size must be positive, got {h_i}")
    if x_i + h_i > problem.domain_end + DOMAIN_TOL:
        raise ValueError(
            f"step from x={x_i} with h={h_i} leaves the domain "
            f"[{problem.x0}, {problem.domain_end}]"
        )
    a, b, c = tableau._a_rows, tableau._b_list, tableau._c_list
    k = [0.0] * tableau.stages
    for j in range(tableau.stages):
        acc = 0.0
        for q in range(j):
            acc += a[j][q] * k[q]
        try:
            k[j] = rhs_eval(problem, x_i + c[j] * h_i, y_i + h_i * acc)
        except EvaluationError as exc:
            raise StageEvaluationError(
                f"stage {j + 1} of {tableau.stages} failed at x={x_i!r}: {exc}"
            ) from exc
    update = 0.0
    for j in range(tableau.stages):
        update += b[j] * k[j]
    return y_i + h_i * update


def _gauss2_determinant(p1, p2, h):
    """The Gauss stage system's determinant (D in gauss2_linear_step), for
    floats or arrays alike, so the scalar step and the kernel test the same
    value for singularity."""
    g = GAUSS2_GAMMA
    return (1.0 - 0.25 * p1 * h) * (1.0 - 0.25 * p2 * h) - p1 * p2 * (
        1.0 / 16.0 - g * g
    ) * h * h


def gauss2_linear_step(
    problem: Problem, x_i: float, y_i: float, h_i: float
) -> float:
    """One two-stage Gauss step for y' = p(x)*y + q(x), in closed form.

    With p1, p2, q1, q2 the coefficients at the stage abscissae
    x + (1/2 -+ gamma)h, the update is

        y + h/2 * [(p1*y + q1)(1 + p2*gamma*h) + (p2*y + q2)(1 - p1*gamma*h)] / D,
        D = (1 - p1*h/4)(1 - p2*h/4) - p1*p2*(1/16 - gamma^2)*h^2.
    """
    if problem.linear is None:
        raise ValueError(
            f"problem {problem.label!r} has no linear form; the closed-form "
            "Gauss step requires y' = p(x)*y + q(x)"
        )
    if h_i < 0.0:
        raise ValueError(f"step size must be nonnegative, got {h_i}")
    g = GAUSS2_GAMMA
    p1, q1 = linear_coeffs_eval(problem, x_i + (0.5 - g) * h_i)
    p2, q2 = linear_coeffs_eval(problem, x_i + (0.5 + g) * h_i)
    denom = _gauss2_determinant(p1, p2, h_i)
    if abs(denom) <= SINGULAR_DENOMINATOR_TOL:
        raise SingularStepError(
            f"singular stage system (|D| = {abs(denom):.3e}) "
            f"at x={x_i!r}, h={h_i!r}"
        )
    numer = (p1 * y_i + q1) * (1.0 + p2 * g * h_i) + (p2 * y_i + q2) * (
        1.0 - p1 * g * h_i
    )
    result = y_i + 0.5 * h_i * numer / denom
    if not math.isfinite(result):
        raise StageEvaluationError(
            f"non-finite Gauss step result at x={x_i!r}, h={h_i!r}"
        )
    return result


def _stage_coefficients(problem: Problem, x: np.ndarray):
    """p and q at the abscissae x, or None when x leaves the domain or
    the coefficient functions do not take arrays."""
    if not (
        problem.x0 - DOMAIN_TOL <= x.min() and x.max() <= problem.domain_end + DOMAIN_TOL
    ):
        return None
    p_fn, q_fn = problem.linear
    p, q = array_eval(p_fn, x), array_eval(q_fn, x)
    if p is None or q is None:
        return None
    return p, q


def _explicit_coefficients(tableau: ButcherTableau, problem: Problem, x, h):
    """Block coefficients (see _affine_integrate) of an explicit tableau,
    by forward substitution of the stage slopes k_j = alpha_j*y + beta_j."""
    if not (h.min() > 0.0 and (x + h).max() <= problem.domain_end + DOMAIN_TOL):
        return None
    a, b, c = tableau._a_rows, tableau._b_list, tableau._c_list
    alphas, betas, ps, qs = [], [], [], []
    for j in range(tableau.stages):
        found = _stage_coefficients(problem, x + c[j] * h)
        if found is None:
            return None
        p, q = found
        # Stage value y + h * sum_k a_jk k_k = (1 + h*acc_a)*y + h*acc_b.
        acc_a = acc_b = 0.0
        for k in range(j):
            if a[j][k]:
                acc_a = acc_a + a[j][k] * alphas[k]
                acc_b = acc_b + a[j][k] * betas[k]
        alphas.append(p * (1.0 + h * acc_a))
        betas.append(p * (h * acc_b) + q)
        ps.append(p)
        qs.append(q)
    d = sum(b_j * alpha for b_j, alpha in zip(b, alphas))
    s = sum(b_j * beta for b_j, beta in zip(b, betas))
    return h * d, h * s, alphas + ps, betas + qs


def _gauss2_coefficients(problem: Problem, x, h):
    """Block coefficients (see _affine_integrate) of the two-stage Gauss
    step, from the batched 2x2 stage solve by Cramer's rule; its
    determinant is gauss2_linear_step's, bit for bit."""
    g = GAUSS2_GAMMA
    if not h.min() >= 0.0:
        return None
    stage1 = _stage_coefficients(problem, x + (0.5 - g) * h)
    stage2 = _stage_coefficients(problem, x + (0.5 + g) * h)
    if stage1 is None or stage2 is None:
        return None
    (p1, q1), (p2, q2) = stage1, stage2
    denom = _gauss2_determinant(p1, p2, h)
    if not np.abs(denom).min() > SINGULAR_DENOMINATOR_TOL:
        return None
    f1 = 1.0 - p1 * g * h
    f2 = 1.0 + p2 * g * h
    alphas = [p1 * f2, p2 * f1]
    betas = [q1 * f2, q2 * f1]
    d = 0.5 * h * (alphas[0] + alphas[1]) / denom
    s = 0.5 * h * (betas[0] + betas[1]) / denom
    return d, s, alphas + [p1, p2], betas + [q1, q2]


def _affine_integrate(tableau: ButcherTableau, problem: Problem, mesh: Mesh):
    """Node values from the affine-step kernel, or None when a block fails
    the gate that integrate documents.

    Per block of intervals the coefficient functions return None (gate
    failed) or (D, S, alphas, betas): the step y + (D*y + S), and the
    affine forms alpha*y + beta of the intermediates the scalar step
    computes from y, which must stay far from overflow.
    """
    nodes, widths = mesh.nodes, mesh.widths
    n = len(widths)
    values = np.empty(n + 1)
    y = values[0] = float(problem.y0)
    with np.errstate(all="ignore"):
        for lo in range(0, n, KERNEL_BLOCK):
            hi = min(lo + KERNEL_BLOCK, n)
            x, h = nodes[lo:hi], widths[lo:hi]
            if tableau.explicit:
                found = _explicit_coefficients(tableau, problem, x, h)
            else:
                found = _gauss2_coefficients(problem, x, h)
            if found is None:
                return None
            d, s, alphas, betas = found
            if not np.abs(1.0 + d).max() <= 1.0:
                return None
            block = []
            append = block.append
            for d_i, s_i in zip(d.tolist(), s.tolist()):
                y = y + (d_i * y + s_i)
                append(y)
            values[lo + 1 : hi + 1] = block
            y_max = np.abs(values[lo : hi + 1]).max()
            a_max = max(np.abs(alpha).max() for alpha in alphas)
            b_max = max(np.abs(beta).max() for beta in betas)
            if not y_max * a_max + b_max <= KERNEL_HEADROOM:
                return None
    return values


def _scalar_integrate(scheme: str, problem: Problem, mesh: Mesh) -> np.ndarray:
    """Node values from the scalar step functions, one step per interval."""
    if scheme == GAUSS2:
        step = lambda x, y, h: gauss2_linear_step(problem, x, y, h)
    else:
        tableau = named_tableau(scheme)
        step = lambda x, y, h: explicit_rk_step(tableau, problem, x, y, h)
    x_list = mesh.nodes.tolist()
    h_list = mesh.widths.tolist()
    values = np.empty(len(x_list))
    y = float(problem.y0)
    values[0] = y
    # An overflowing numpy coefficient surfaces as the step's error, not
    # as a warning.
    with np.errstate(all="ignore"):
        for i, h in enumerate(h_list):
            try:
                y = step(x_list[i], y, h)
            except (StageEvaluationError, SingularStepError) as exc:
                raise type(exc)(f"step {i} failed: {exc}") from exc
            values[i + 1] = y
    return values


def integrate(scheme: str, problem: Problem, mesh: Mesh) -> Trajectory:
    """Advance the problem across every mesh interval with the named scheme.

    Exactly one step per interval, left to right.  The affine-step kernel
    runs when the problem has a linear form whose coefficient functions
    accept arrays (scalar results are broadcast), every width, abscissa,
    coefficient and stage slope is finite and inside the domain, every
    Gauss stage system is nonsingular, and every step is non-expansive,
    |1 + D_i| <= 1, so rounding differences cannot grow.  Its values then
    differ from the scalar driver's by a few ulps per step.  Otherwise the
    scalar driver runs: explicit schemes through ``explicit_rk_step``,
    ``gauss2`` through ``gauss2_linear_step`` (so it requires a linear
    problem), and blow-ups raise with the failing ``step N``.
    """
    nodes = mesh.nodes
    if (
        abs(nodes[0] - problem.x0) > DOMAIN_TOL
        or abs(nodes[-1] - problem.domain_end) > DOMAIN_TOL
    ):
        raise ValueError(
            f"mesh spans [{nodes[0]}, {nodes[-1]}] but problem domain is "
            f"[{problem.x0}, {problem.domain_end}]"
        )
    tableau = named_tableau(scheme)
    values = None
    if problem.linear is not None:
        values = _affine_integrate(tableau, problem, mesh)
    if values is None:
        values = _scalar_integrate(scheme, problem, mesh)
    return Trajectory(
        mesh=mesh,
        values=values,
        scheme_id=scheme,
        problem_id=problem.problem_id,
    )
