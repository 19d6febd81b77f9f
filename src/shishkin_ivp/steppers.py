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

For explicit schemes the scalar driver is ``explicit_rk_step``'s arithmetic
with its checks hoisted out of the loop: numpy checks each block of
intervals, the stages run straight-line, and any step the driver cannot
vouch for is handed to ``explicit_rk_step`` itself, so the values, and
every error, are the per-step function's bit for bit.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .mesh import Mesh
from .problems import (
    DOMAIN_TOL,
    EvaluationError,
    Problem,
    array_eval,
    domain_bounds,
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
    then y + h * sum_j b_j k_j.  Stages are evaluated in ascending order;
    a non-finite stage slope or result raises StageEvaluationError."""
    if not tableau.explicit:
        raise ValueError(
            f"tableau {tableau.name or '<anonymous>'!r} is implicit; "
            "the generic driver handles explicit schemes only"
        )
    if not h_i > 0.0:
        raise ValueError(f"step size must be positive, got {h_i}")
    if x_i + h_i > domain_bounds(problem)[1]:
        raise ValueError(
            f"step from x={x_i} with h={h_i} leaves the domain "
            f"[{problem.x0}, {problem.domain_end}]"
        )
    a, b, c = tableau.a.tolist(), tableau.b.tolist(), tableau.c.tolist()
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
    result = y_i + h_i * update
    if not math.isfinite(result):
        raise StageEvaluationError(
            f"non-finite step result at x={x_i!r}, h={h_i!r}"
        )
    return result


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


def _explicit_checks(problem: Problem, c, x, h):
    """The stage abscissae x + c_j*h of a block of intervals, and per
    interval whether it passes the checks explicit_rk_step and rhs_eval
    make per step: h > 0, and x + h and every stage abscissa inside the
    domain."""
    lo, hi = domain_bounds(problem)
    stage_x = [x + c_j * h for c_j in c]
    passed = (h > 0.0) & (x + h <= hi)
    for x_j in stage_x:
        passed &= (lo <= x_j) & (x_j <= hi)
    return stage_x, passed


def _explicit_coefficients(coefficients, problem: Problem, x, h):
    """Block coefficients (see _affine_integrate) of an explicit tableau
    given as lists (a, b, c), by forward substitution of the stage slopes
    k_j = alpha_j*y + beta_j."""
    a, b, c = coefficients
    stage_x, passed = _explicit_checks(problem, c, x, h)
    if not passed.all():
        return None
    alphas, betas, ps, qs = [], [], [], []
    for j, x_j in enumerate(stage_x):
        p, q = (array_eval(fn, x_j) for fn in problem.linear)
        if p is None or q is None:
            return None
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
    lo, hi = domain_bounds(problem)
    stage_x = x + (0.5 - g) * h, x + (0.5 + g) * h
    inside = all(lo <= x_j.min() and x_j.max() <= hi for x_j in stage_x)
    if not (h.min() >= 0.0 and inside):
        return None
    p1, q1, p2, q2 = (array_eval(fn, x_j) for x_j in stage_x for fn in problem.linear)
    if any(v is None for v in (p1, q1, p2, q2)):
        return None
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
    coefficients = tableau.a.tolist(), tableau.b.tolist(), tableau.c.tolist()
    with np.errstate(all="ignore"):
        for lo in range(0, n, KERNEL_BLOCK):
            hi = min(lo + KERNEL_BLOCK, n)
            x, h = nodes[lo:hi], widths[lo:hi]
            if tableau.explicit:
                found = _explicit_coefficients(coefficients, problem, x, h)
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


def _numbered(i: int, step, *args):
    """``step(*args)`` as the step of interval i: a blow-up is re-raised
    as ``step i failed: ...``, with the same class."""
    try:
        return step(*args)
    except (StageEvaluationError, SingularStepError) as exc:
        raise type(exc)(f"step {i} failed: {exc}") from exc


def _gauss2_scalar_integrate(problem: Problem, mesh: Mesh) -> np.ndarray:
    """Node values from ``gauss2_linear_step``, one step per interval."""
    x_list = mesh.nodes.tolist()
    h_list = mesh.widths.tolist()
    values = np.empty(len(x_list))
    y = float(problem.y0)
    values[0] = y
    # An overflowing numpy coefficient surfaces as the step's error, not
    # as a warning.
    with np.errstate(all="ignore"):
        for i, h in enumerate(h_list):
            y = _numbered(i, gauss2_linear_step, problem, x_list[i], y, h)
            values[i + 1] = y
    return values


# The straight-line steps: explicit_rk_step's arithmetic in its operation
# order (acc and update start at 0.0, so a -0.0 sum becomes +0.0; h is
# finite, so the first stage's y + h*0.0 is y + 0.0), for steps the caller
# has checked.  Each runs the rows (h, x_1, ..., x_s) of widths and stage
# abscissae, appends every result to ``out`` and returns the last y.  It
# stops before a step whose rhs raises or whose result is not finite,
# which it is whenever a stage slope is (b_j*k_j is inf or nan, 0*inf
# included); explicit_rk_step then redoes that step.


def _two_stage_steps(f, a, b, y, rows, out):
    a21 = a[1][0]
    b1, b2 = b
    isfinite = math.isfinite
    try:
        for h, x1, x2 in rows:
            k1 = f(x1, y + 0.0)
            k2 = f(x2, y + h * (0.0 + a21 * k1))
            y_next = y + h * (0.0 + b1 * k1 + b2 * k2)
            if not isfinite(y_next):
                break
            out.append(y_next)
            y = y_next
    except Exception:  # re-raised by explicit_rk_step on hand-off
        pass
    return y


def _three_stage_steps(f, a, b, y, rows, out):
    a21 = a[1][0]
    a31, a32 = a[2][:2]
    b1, b2, b3 = b
    isfinite = math.isfinite
    try:
        for h, x1, x2, x3 in rows:
            k1 = f(x1, y + 0.0)
            k2 = f(x2, y + h * (0.0 + a21 * k1))
            k3 = f(x3, y + h * (0.0 + a31 * k1 + a32 * k2))
            y_next = y + h * (0.0 + b1 * k1 + b2 * k2 + b3 * k3)
            if not isfinite(y_next):
                break
            out.append(y_next)
            y = y_next
    except Exception:  # re-raised by explicit_rk_step on hand-off
        pass
    return y


def _explicit_integrate(tableau: ButcherTableau, problem: Problem, mesh: Mesh):
    """Node values of an explicit scheme, bit for bit those of one
    ``explicit_rk_step`` per interval.

    Per block of intervals, numpy makes the checks explicit_rk_step makes
    per step (_explicit_checks).  Steps that pass run straight-line; a
    step that fails them, or that the straight-line loop stops at, goes to
    explicit_rk_step, and the loop resumes after it.  The named explicit
    tableaux have two or three stages.
    """
    steps = _two_stage_steps if tableau.stages == 2 else _three_stage_steps
    a, b, c = tableau.a.tolist(), tableau.b.tolist(), tableau.c.tolist()
    f = problem.rhs
    nodes, widths = mesh.nodes, mesh.widths
    n = len(widths)
    values = np.empty(n + 1)
    y = values[0] = float(problem.y0)

    def hand_off(i, y):
        x_i, h_i = float(nodes[i]), float(widths[i])
        return _numbered(i, explicit_rk_step, tableau, problem, x_i, y, h_i)

    with np.errstate(all="ignore"):
        for lo in range(0, n, KERNEL_BLOCK):
            hi = min(lo + KERNEL_BLOCK, n)
            stage_x, vouched = _explicit_checks(problem, c, nodes[lo:hi], widths[lo:hi])
            columns = [widths[lo:hi].tolist()] + [x_j.tolist() for x_j in stage_x]
            m = hi - lo
            # A straight-line run ends at the next step that failed the
            # checks, or earlier; that step is handed over.
            stops = np.flatnonzero(~vouched).tolist() + [m]
            block = []
            while len(block) < m:
                end = stops[bisect_left(stops, len(block))]
                rows = islice(zip(*columns), len(block), end)
                y = steps(f, a, b, y, rows, block)
                if len(block) < m:
                    y = hand_off(lo + len(block), y)
                    block.append(y)
            values[lo + 1 : hi + 1] = block
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
    scalar driver runs, with values and errors exactly those of one step
    function call per interval: ``explicit_rk_step`` for explicit schemes
    (a step that fails, or whose result is not finite, is redone by that
    function, which calls ``rhs`` again), ``gauss2_linear_step`` for
    ``gauss2`` (so it requires a linear problem).  Blow-ups raise with the
    failing ``step N``.
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
        if tableau.explicit:
            values = _explicit_integrate(tableau, problem, mesh)
        else:
            values = _gauss2_scalar_integrate(problem, mesh)
    return Trajectory(
        mesh=mesh,
        values=values,
        scheme_id=scheme,
        problem_id=problem.problem_id,
    )
