"""Single Runge-Kutta steps and whole-mesh integration.

Two scalar step kernels are provided: a generic driver for any explicit
tableau, and the closed-form two-stage Gauss step for problems with a
linear right-hand side (the implicit stage system is solved symbolically,
so no iteration is needed).  Nonlinear implicit stepping is out of scope.

On a linear problem y' = p(x)*y + q(x) every step of every tableau is
affine in y, y_{i+1} = y_i + (D_i*y_i + S_i): the variable-coefficient
form of R(z) = 1 + z b^T (I - zA)^{-1} 1 (Hairer & Wanner, Solving ODEs II,
sec. IV.3).  ``integrate`` computes D and S with numpy, a block at a time
and without the generic substitution's no-op work, and runs the
recurrence as a two-level scan (rows of C = ``scan_width(N)`` intervals)
whenever it can show that the scalar driver would give the same values
up to rounding; otherwise the scalar driver, the oracle, runs the mesh.

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
from functools import partial
from itertools import islice

import numpy as np

from .mesh import Mesh, inconsistent_widths
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

#: The kernel requires max|y| * max|coefficient| + max|offset| over the
#: whole run below this, far enough from overflow that the scalar driver's
#: intermediates, which differ by rounding, stay finite too.
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


def _check_step_domain(problem: Problem, x_i: float, h_i: float):
    """Raise ValueError unless the step [x_i, x_i + h_i] lies inside the
    problem's domain."""
    lo, hi = domain_bounds(problem)
    if not (lo <= x_i and x_i + h_i <= hi):
        raise ValueError(
            f"step from x={x_i} with h={h_i} leaves the domain "
            f"[{problem.x0}, {problem.domain_end}]"
        )


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
    _check_step_domain(problem, x_i, h_i)
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
    _check_step_domain(problem, x_i, h_i)
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


def _step_checks(problem: Problem, c, x, h):
    """The stage abscissae x + c_j*h of a block of intervals, and a list of
    the indices of those that fail the one rule for every tableau: h > 0,
    and x, x + h and every stage abscissa inside the domain (the checks of
    the step functions and rhs_eval, with h = 0 left to gauss2_linear_step).
    It relies on 0 <= c_j <= 1, true of every named tableau (README.md)."""
    lo, hi = domain_bounds(problem)
    end = x + h
    stage_x = [x + c_j if c_j == 0.0 else end if c_j == 1.0 else x + c_j * h for c_j in c]
    if h.min() > 0.0 and lo <= x.min() and end.max() <= hi:  # nan fails
        return stage_x, []
    return stage_x, np.flatnonzero(~((h > 0.0) & (lo <= x) & (end <= hi))).tolist()


def _explicit_coefficients(a, b, p_fn, q_fn, stage_x, h):
    """Block coefficients (see _affine_integrate) of an explicit tableau
    given as lists a and b, by forward substitution of the stage slopes
    k_j = alpha_j*y + beta_j for y' = p(x)*y + q(x).  D comes from p alone
    and is tested before q is evaluated.  D, S and the forms' maxima are the
    generic sums' doubles, from only the work that can change them (README)."""
    ps = [array_eval(p_fn, x_j) for x_j in stage_x]
    if any(p is None for p in ps):
        return None
    # Stage value y + h * sum_k a_jk k_k = (1 + h*acc_a)*y + h*acc_b.
    alphas, betas = [], []
    for a_j, p in zip(a, ps):
        acc = [alpha if w == 1.0 else w * alpha for w, alpha in zip(a_j, alphas) if w]
        alphas.append(p * (1.0 + h * sum(acc[1:], acc[0])) if acc else p)
    d = h * sum(b_j * alpha for b_j, alpha in zip(b, alphas))
    if not np.abs(1.0 + d).max() <= 1.0:
        return None
    qs = [array_eval(q_fn, x_j) for x_j in stage_x]
    if any(q is None for q in qs):
        return None
    for a_j, p, q in zip(a, ps, qs):
        acc = [beta if w == 1.0 else w * beta for w, beta in zip(a_j, betas) if w]
        betas.append(p * (h * sum(acc[1:], acc[0])) + q if acc else q)
    s = h * sum(b_j * beta for b_j, beta in zip(b, betas))
    return d, s, ps + alphas[1:], qs + betas[1:]


def _gauss2_coefficients(p_fn, q_fn, stage_x, h):
    """Block coefficients (see _affine_integrate) of the two-stage Gauss
    step, from the batched 2x2 stage solve by Cramer's rule; its
    determinant is gauss2_linear_step's, bit for bit.  D is tested before
    q is evaluated."""
    g = GAUSS2_GAMMA
    p1, p2 = (array_eval(p_fn, x_j) for x_j in stage_x)
    if p1 is None or p2 is None:
        return None
    denom = _gauss2_determinant(p1, p2, h)
    if not np.abs(denom).min() > SINGULAR_DENOMINATOR_TOL:
        return None
    f1 = 1.0 - p1 * g * h
    f2 = 1.0 + p2 * g * h
    alphas = [p1 * f2, p2 * f1]
    d = 0.5 * h * (alphas[0] + alphas[1]) / denom
    if not np.abs(1.0 + d).max() <= 1.0:
        return None
    q1, q2 = (array_eval(q_fn, x_j) for x_j in stage_x)
    if q1 is None or q2 is None:
        return None
    betas = [q1 * f2, q2 * f1]
    s = 0.5 * h * (betas[0] + betas[1]) / denom
    return d, s, alphas + [p1, p2], betas + [q1, q2]


#: Meshes with fewer intervals run the step recurrence as a plain loop
#: (row width 1): below it, the loop beat every wider row in a
#: microbenchmark.
SCAN_MIN_INTERVALS = 2**10


def scan_width(n: int) -> int:
    """Row width C of the two-level scan over n intervals: 1 below
    SCAN_MIN_INTERVALS, else the largest power of two at most sqrt(n)/4
    (8 at n = 2^10, 64 at n = 2^16 and 2^17), capped at KERNEL_BLOCK so
    that every block starts a row.  That balances the scan's ~9C numpy
    calls against its n/C scalar steps; a microbenchmark put the best C
    at 8 (n = 2^10) to 64 (n = 2^17)."""
    if n < SCAN_MIN_INTERVALS:
        return 1
    return min(1 << (n.bit_length() - 1) // 2 - 2, KERNEL_BLOCK)


def _scan(d, s, values):
    """y <- y + (d*y + s) from values[0], over rows of C consecutive
    intervals: d[j, r] and s[j, r] (shape (C, rows)) belong to interval
    r*C + j, whose result goes to values[1 + r*C + j].

    A two-level scan (Blelloch, CMU-CS-90-190; Martin & Cundy,
    arXiv:1709.04057) in increment form: (d1, s1) then (d2, s2) compose
    to ((d1 + d2) + d2*d1, (s1 + s2) + d2*s1), which keeps s = -d exact.
    Pass 1 composes each row's map, a column at a time across all rows;
    pass 2 carries the row ends with a scalar loop; pass 3 reruns the
    other columns from the row starts.  With C = 1 only pass 2 runs."""
    width, rows = d.shape
    row_d, row_s = d[0], s[0]
    if width > 1:
        row_d, row_s, t = row_d.copy(), row_s.copy(), np.empty(rows)
        for d_j, s_j in zip(d[1:], s[1:]):
            np.multiply(d_j, row_d, out=t)
            row_d += d_j
            row_d += t
            np.multiply(d_j, row_s, out=t)
            row_s += s_j
            row_s += t
    y = float(values[0])
    ends = []
    append = ends.append
    for d_r, s_r in zip(row_d.tolist(), row_s.tolist()):
        y = y + (d_r * y + s_r)
        append(y)
    stop = width * rows
    values[width::width] = ends
    for j in range(width - 1):
        prev = values[j : j + stop : width]
        np.multiply(d[j], prev, out=t)
        t += s[j]
        np.add(prev, t, out=values[j + 1 : j + 1 + stop : width])


def _affine_integrate(tableau: ButcherTableau, problem: Problem, mesh: Mesh):
    """Node values from the affine-step kernel, or None when a block fails
    the gate that integrate documents.

    Per block of intervals that pass _step_checks the coefficient
    functions return None (gate failed) or (D, S, alphas, betas): the step
    y + (D*y + S), and the affine forms alpha*y + beta of the intermediates
    the scalar step computes from y, less any whose magnitude another
    repeats.  D and S go into the scan's rows (see _scan; the last row is
    padded with identity steps), and one headroom test follows the scan.
    """
    nodes, widths = mesh.nodes, mesh.widths
    n = len(widths)
    width = scan_width(n)
    rows = -(-n // width)
    d_rows, s_rows = np.zeros((2, width, rows))
    values = np.empty(1 + width * rows)
    values[0] = float(problem.y0)
    if tableau.explicit:
        a, b = tableau.a.tolist(), tableau.b.tolist()
        coefficients = partial(_explicit_coefficients, a, b)
    else:
        coefficients = _gauss2_coefficients
    a_max = b_max = 0.0
    with np.errstate(all="ignore"):
        for lo in range(0, n, KERNEL_BLOCK):
            hi = min(lo + KERNEL_BLOCK, n)
            h = widths[lo:hi]
            stage_x, failed = _step_checks(problem, tableau.c, nodes[lo:hi], h)
            found = None if failed else coefficients(*problem.linear, stage_x, h)
            if found is None:
                return None
            d, s, alphas, betas = found
            row, (full, tail) = lo // width, divmod(hi - lo, width)
            for grid, block in (d_rows, d), (s_rows, s):
                grid[:, row : row + full] = block[: full * width].reshape(full, width).T
                grid[:tail, -1] = block[full * width :]
            a_max = max(a_max, max(np.abs(alpha).max() for alpha in alphas))
            b_max = max(b_max, max(np.abs(beta).max() for beta in betas))
        _scan(d_rows, s_rows, values)
        y_max = max(values.max(), -values.min())
        if not y_max * a_max + b_max <= KERNEL_HEADROOM:
            return None
    return values[: n + 1]


def _numbered(i: int, step, *args):
    """``step(*args)`` as the step of interval i: a blow-up is re-raised
    as ``step i failed: ...``, with the same class."""
    try:
        return step(*args)
    except (StageEvaluationError, SingularStepError) as exc:
        raise type(exc)(f"step {i} failed: {exc}") from exc


def _gauss2_scalar_integrate(problem: Problem, mesh: Mesh) -> np.ndarray:
    """Node values from ``gauss2_linear_step``, one step per interval."""
    values = np.empty(len(mesh.nodes))
    y = values[0] = float(problem.y0)
    # An overflowing numpy coefficient surfaces as the step's error, not
    # as a warning.
    with np.errstate(all="ignore"):
        for i, (x, h) in enumerate(zip(mesh.nodes.tolist(), mesh.widths.tolist())):
            y = _numbered(i, gauss2_linear_step, problem, x, y, h)
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
    per step (_step_checks).  Steps that pass run straight-line; a
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
    with np.errstate(all="ignore"):
        for lo in range(0, n, KERNEL_BLOCK):
            hi = min(lo + KERNEL_BLOCK, n)
            stage_x, failed = _step_checks(problem, c, nodes[lo:hi], widths[lo:hi])
            columns = [widths[lo:hi].tolist()] + [x_j.tolist() for x_j in stage_x]
            m = hi - lo
            # A straight-line run ends at the next failed step, or earlier.
            stops = failed + [m]
            block = []
            while len(block) < m:
                end = stops[bisect_left(stops, len(block))]
                rows = islice(zip(*columns), len(block), end)
                y = steps(f, a, b, y, rows, block)
                if len(block) < m:
                    i = lo + len(block)
                    x_i, h_i = float(nodes[i]), float(widths[i])
                    y = _numbered(i, explicit_rk_step, tableau, problem, x_i, y, h_i)
                    block.append(y)
            values[lo + 1 : hi + 1] = block
    return values


def integrate(scheme: str, problem: Problem, mesh: Mesh) -> Trajectory:
    """Advance the problem across every mesh interval with the named scheme.

    Exactly one step per interval, left to right.  The affine-step kernel
    runs when the problem has a linear form whose coefficient functions
    accept arrays (scalar results are broadcast), every interval passes
    the step functions' rule (h > 0; x, x + h and every stage abscissa
    inside the domain), every coefficient and stage slope is finite, every
    Gauss stage system is nonsingular, every step is non-expansive,
    |1 + D_i| <= 1, so rounding differences cannot grow, and the run stays
    below KERNEL_HEADROOM.  It runs the recurrence y + (D_i*y + S_i) as a
    two-level scan over rows of ``scan_width(N)`` intervals (a plain loop
    when that is 1), and its values differ from the scalar driver's by a
    few ulps per step, the same from run to run.  Otherwise the scalar
    driver runs, with values and errors exactly those of one step function
    call per interval: ``explicit_rk_step`` for explicit schemes (a step
    that fails, or whose result is not finite, is redone by that function,
    which calls ``rhs`` again), ``gauss2_linear_step`` for ``gauss2`` (so
    it requires a linear problem).  Blow-ups raise with the failing
    ``step N``.  A mesh not made by the mesh builders whose widths
    disagree with its node differences (``mesh.inconsistent_widths``)
    raises ValueError, after the scalar driver's own error if any step
    fails the step rule.
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
    scalar_driver = (
        partial(_explicit_integrate, tableau) if tableau.explicit else _gauss2_scalar_integrate
    )
    mismatched = [] if mesh._widths_match_nodes else inconsistent_widths(nodes, mesh.widths)
    if mismatched:
        # A mesh that fails the step rule keeps the scalar driver's error
        # (gauss2's driver accepts h = 0, which the rule does not).
        if _step_checks(problem, (), nodes[:-1], mesh.widths)[1]:
            scalar_driver(problem, mesh)
        i = mismatched[0]
        raise ValueError(
            f"mesh width {float(mesh.widths[i])!r} inconsistent with node "
            f"difference {float(nodes[i + 1] - nodes[i])!r} at index {i}"
        )
    values = None
    if problem.linear is not None:
        values = _affine_integrate(tableau, problem, mesh)
    if values is None:
        values = scalar_driver(problem, mesh)
    return Trajectory(
        mesh=mesh,
        values=values,
        scheme_id=scheme,
        problem_id=problem.problem_id,
    )
