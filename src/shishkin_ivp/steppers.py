"""Single Runge-Kutta steps and whole-mesh integration.

The step functions: a generic one for any explicit tableau, and the
closed-form two-stage Gauss step for a linear right-hand side (nonlinear
implicit stepping is out of scope).  ``integrate`` runs a linear problem
through the affine-step kernel, y_{i+1} = y_i + (D_i*y_i + S_i) (the
variable-coefficient form of R(z); Hairer & Wanner, Solving ODEs II, sec.
IV.3) with D and S from numpy a block at a time and a two-level scan,
whenever it can show that the scalar driver would give the same values up
to rounding; else the scalar driver, the step functions' arithmetic with
their checks hoisted out of the loop, runs the mesh with their values and
errors bit for bit (README: "Linear problems: the affine-step kernel").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .mesh import Mesh, _array
from .problems import (
    EvaluationError,
    Problem,
    _check_domain,
    _trusted_linear,
    _unchecked,
    array_eval,
    domain_bounds,
    domain_slack,
    linear_coeffs_eval,
    rhs_eval,
)
from .tableaux import GAUSS2_GAMMA, ButcherTableau, named_tableau

#: Below this magnitude the Gauss-step denominator counts as singular.
SINGULAR_DENOMINATOR_TOL = 1e-14

#: Block length of the kernel (~55 fixed numpy calls a block), the scalar
#: driver, max_error and the CSV writer. At 16384 a kernel block's freed
#: temporaries are trimmed and faulted back in (README).
KERNEL_BLOCK = 8192

#: Meshes with fewer intervals skip the kernel and run the scalar driver,
#: whose whole run there costs less than the kernel's ~60 fixed numpy calls
#: (the crossover of all six tableaux on layer1, README).
KERNEL_MIN_INTERVALS = 128

#: The kernel requires max|y| * ||coefficient|| + ||offset|| over the whole
#: run below this, far enough from overflow that the scalar driver's
#: intermediates, which differ by rounding, stay finite too.
KERNEL_HEADROOM = 2.0**1000

class StageEvaluationError(ArithmeticError):
    """A stage evaluation produced a non-finite value."""


class SingularStepError(ArithmeticError):
    """The linear Gauss step hit a (near-)singular stage system."""


@dataclass(frozen=True, eq=False)
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
    _check_domain(problem, x_i, h_i)
    a, b, c = tableau._lists
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

    A numpy coefficient or argument that overflows surfaces as the step's
    own error, not as a RuntimeWarning.
    """
    with np.errstate(all="ignore"):
        if problem.linear is None:
            raise ValueError(
                f"problem {problem.label!r} has no linear form; the closed-form "
                "Gauss step requires y' = p(x)*y + q(x)"
            )
        if h_i < 0.0:
            raise ValueError(f"step size must be nonnegative, got {h_i}")
        _check_domain(problem, x_i, h_i)
        g = GAUSS2_GAMMA
        p1, q1 = linear_coeffs_eval(problem, x_i + (0.5 - g) * h_i)
        p2, q2 = linear_coeffs_eval(problem, x_i + (0.5 + g) * h_i)
        denom = _gauss2_determinant(p1, p2, h_i)
        if abs(denom) <= SINGULAR_DENOMINATOR_TOL:
            raise SingularStepError(
                f"singular stage system (|D| = {abs(denom):.3e}) "
                f"at x={x_i!r}, h={h_i!r}"
            )
        numer = (p1 * y_i + q1) * (1.0 + p2 * g * h_i) + (p2 * y_i + q2) * (1.0 - p1 * g * h_i)
        result = y_i + 0.5 * h_i * numer / denom
        if not math.isfinite(result):
            raise StageEvaluationError(
                f"non-finite Gauss step result at x={x_i!r}, h={h_i!r}"
            )
        if math.isinf(denom):  # p1*p2 overflowed: the result would read y_i
            raise StageEvaluationError(f"non-finite Gauss stage determinant at x={x_i!r}, h={h_i!r}")
        return result


def _step_checks(problem: Problem, c, x, h):
    """The stage abscissae of a block of intervals, one (s, n) array whose
    row j is x + c_j*h, and the index of the first interval that fails the
    one rule for every tableau, or None: h > 0, and x, x + h and every
    stage abscissa inside the domain (the checks of the step functions and
    rhs_eval, with h = 0 left to gauss2_linear_step).  It relies on
    0 <= c_j <= 1, true of every named tableau (README.md).  A nan fails."""
    lo, hi = domain_bounds(problem)
    stage_x = np.empty((len(c), len(x)))
    end = None
    for j, c_j in enumerate(c):
        row = stage_x[j]
        if c_j == 0.0:
            np.add(x, c_j, out=row)
        elif c_j == 1.0:
            end = np.add(x, h, out=row)
        else:
            np.multiply(h, c_j, out=row)
            row += x
    if end is None:
        end = x + h
    if np.minimum.reduce(h) > 0.0 and lo <= np.minimum.reduce(x) and np.maximum.reduce(end) <= hi:
        return stage_x, None
    return stage_x, int(np.argmin((h > 0.0) & (lo <= x) & (end <= hi)))


def _on_stages(fn, stage_x):
    """``fn`` called once on every stage abscissa of a block, as the list
    of the s rows of its values, or None if ``fn`` rejects arrays."""
    value = array_eval(fn, stage_x.reshape(-1))
    return None if value is None else list(value.reshape(stage_x.shape))


def _explicit_coefficients(a, b, ps, h):
    """Block algebra (see _affine_integrate) of an explicit tableau given
    as lists a and b, from p's stage values ps, by forward substitution of
    the stage slopes k_j = alpha_j*y + beta_j for y' = p(x)*y + q(x): D,
    the alpha forms, and offsets(qs), which gives S and the beta forms.
    D, S and the forms are the generic sums' doubles, from only the work
    that can change them (README)."""
    # Stage value y + h * sum_k a_jk k_k = (1 + h*acc_a)*y + h*acc_b.
    alphas = []
    for a_j, p in zip(a, ps):
        acc = [alpha if w == 1.0 else w * alpha for w, alpha in zip(a_j, alphas) if w]
        alphas.append(p * (1.0 + h * sum(acc[1:], acc[0])) if acc else p)

    def offsets(qs):
        betas = []
        for a_j, p, q in zip(a, ps, qs):
            acc = [beta if w == 1.0 else w * beta for w, beta in zip(a_j, betas) if w]
            betas.append(p * (h * sum(acc[1:], acc[0])) + q if acc else q)
        return h * sum(b_j * beta for b_j, beta in zip(b, betas)), qs + betas[1:]

    return h * sum(b_j * alpha for b_j, alpha in zip(b, alphas)), ps + alphas[1:], offsets


def _gauss2_coefficients(ps, h):
    """Block algebra (see _affine_integrate) of the two-stage Gauss step,
    as _explicit_coefficients', from the batched 2x2 stage solve by
    Cramer's rule, or None for a singular stage system; its determinant
    is gauss2_linear_step's, bit for bit."""
    p1, p2 = ps
    denom = _gauss2_determinant(p1, p2, h)
    if not np.abs(denom).min() > SINGULAR_DENOMINATOR_TOL:
        return None
    f1 = 1.0 - p1 * GAUSS2_GAMMA * h
    f2 = 1.0 + p2 * GAUSS2_GAMMA * h
    alphas = [p1 * f2, p2 * f1]

    def offsets(qs):
        betas = [qs[0] * f2, qs[1] * f1]
        return 0.5 * h * (betas[0] + betas[1]) / denom, betas + qs

    return 0.5 * h * (alphas[0] + alphas[1]) / denom, alphas + ps, offsets


def scan_width(n: int) -> int:
    """Row width C of the two-level scan over n intervals: the largest
    power of two at most sqrt(n)/4, at least 1 (2 at n = 64, 4 at 256, 8
    at 2^10, 64 at 2^16 and 2^17), capped at KERNEL_BLOCK so that every
    block starts a row.  That balances the scan's ~9C numpy calls against
    its n/C scalar steps (README has the timings)."""
    return min(1 << max((n.bit_length() - 1) // 2 - 2, 0), KERNEL_BLOCK)


def _scan(d, values):
    """y <- y + (d*y + s) from values[0], over rows of C consecutive
    intervals: d[j, r] (shape (C, rows)) belongs to interval r*C + j,
    whose s waits in its result slot values[1 + r*C + j] (no s grid).

    A two-level scan (Blelloch, CMU-CS-90-190; Martin & Cundy,
    arXiv:1709.04057) in increment form: (d1, s1) then (d2, s2) compose
    to ((d1 + d2) + d2*d1, (s1 + s2) + d2*s1), which keeps s = -d exact.
    Pass 1 composes each row's map a column at a time, in three row-length
    arrays; pass 2 carries the row ends, over the last column's s; pass 3
    reruns the others from the row starts, each over its s."""
    width, rows = d.shape
    stop = width * rows
    s = [values[j + 1 : j + 1 + stop : width] for j in range(width)]
    row_d, row_s, t = d[0].copy(), s[0].copy(), np.empty(rows)
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
    for d_r, s_r in zip(memoryview(row_d), memoryview(row_s)):
        y = y + (d_r * y + s_r)
        append(y)
    values[width::width] = ends
    for j in range(width - 1):
        prev = values[j : j + stop : width]
        np.multiply(d[j], prev, out=t)
        t += s[j]
        np.add(prev, t, out=s[j])


def _affine_integrate(tableau: ButcherTableau, problem: Problem, mesh: Mesh):
    """Node values from the affine-step kernel, or None when a block fails
    the gate that integrate documents, whose every clause is tested here:
    per block that passes _step_checks, one p call, D and the alpha forms,
    |1 + D| <= 1; one q call, S and the beta forms.  Their largest squared
    norms A and B (one dot per 1-d form: README) bound the scalar step's
    intermediates alpha*y + beta; after the scan, max|y|*sqrt(A) + sqrt(B)
    is tested.  D goes into the scan's rows and S into its interval's result
    slot (_scan), beside one 8N-byte D grid and block-sized temporaries."""
    nodes, widths = mesh.nodes, mesh.widths
    n = len(widths)
    width = scan_width(n)
    rows = -(-n // width)
    d_rows = _array("d", width * rows).reshape(width, rows)
    values = _array("values", 1 + width * rows)
    d_rows[:, -1] = values[n + 1 :] = 0.0  # padding steps: the headroom test reads them
    values[0] = float(problem.y0)
    a, b, c = tableau._lists
    coefficients = partial(_explicit_coefficients, a, b) if tableau.explicit else _gauss2_coefficients
    p_fn, q_fn = problem.linear
    minimum, maximum = np.minimum.reduce, np.maximum.reduce
    a_sq = b_sq = 0.0
    with np.errstate(all="ignore"):
        for lo in range(0, n, KERNEL_BLOCK):
            hi = min(lo + KERNEL_BLOCK, n)
            h = widths[lo:hi]
            stage_x, failed = _step_checks(problem, c, nodes[lo:hi], h)
            ps = None if failed is not None else _on_stages(p_fn, stage_x)
            found = None if ps is None else coefficients(ps, h)
            # |1 + D| <= 1: 1 + D <= 1 iff D <= 2^-53 (ties to even), >= -1 iff D >= -2
            if found is None or not (minimum(found[0]) >= -2.0 and maximum(found[0]) <= 2.0**-53):
                return None
            d, forms, offsets = found
            a_sq = max(a_sq, *map(np.ndarray.dot, forms, forms))
            del found, forms  # the alpha forms, before q's stage values
            qs = _on_stages(q_fn, stage_x)
            if qs is None:
                return None
            s, forms = offsets(qs)
            b_sq = max(b_sq, *map(np.ndarray.dot, forms, forms))
            del ps, qs, forms, offsets  # before the next block's arrays
            row, (full, tail) = lo // width, divmod(hi - lo, width)
            d_rows[:, row : row + full] = d[: full * width].reshape(full, width).T
            d_rows[:tail, -1] = d[full * width :]
            values[1 + lo : 1 + hi] = s
        _scan(d_rows, values)
        if not max(maximum(values), -minimum(values)) * math.sqrt(a_sq) + math.sqrt(b_sq) <= KERNEL_HEADROOM:
            return None
    return values[: n + 1]


# The straight-line steps: the step functions' arithmetic for checked steps,
# the explicit sums from their first term, not from +0.0 (README).  Each runs
# the rows of _rows, appends every result to ``out``, and returns before a
# step it cannot take: a non-finite result (explicit: whenever a stage slope
# is), y = -0.0 (explicit: the one y the +0.0 can change) or a singular or
# infinite Gauss determinant.  A raising row or callback propagates.


def _two_stage_steps(f, a, b, y, rows, out):
    a21 = a[1][0]
    b1, b2 = b
    isfinite = math.isfinite
    for h, x1, x2 in rows:
        if not y and math.copysign(1.0, y) < 0.0:
            return
        k1 = f(x1, y)
        k2 = f(x2, y + h * (a21 * k1))
        y = y + h * (b1 * k1 + b2 * k2)
        if not isfinite(y):
            return
        out.append(y)


def _three_stage_steps(f, a, b, y, rows, out):
    a21 = a[1][0]
    a31, a32 = a[2][:2]
    b1, b2, b3 = b
    isfinite = math.isfinite
    for h, x1, x2, x3 in rows:
        if not y and math.copysign(1.0, y) < 0.0:
            return
        k1 = f(x1, y)
        k2 = f(x2, y + h * (a21 * k1))
        k3 = f(x3, y + h * (a31 * k1 + a32 * k2))
        y = y + h * (b1 * k1 + b2 * k2 + b3 * k3)
        if not isfinite(y):
            return
        out.append(y)


def _gauss2_steps(y, rows, out):
    g = GAUSS2_GAMMA
    isfinite = math.isfinite
    for h, p1, q1, p2, q2 in rows:
        denom = _gauss2_determinant(p1, p2, h)
        if not SINGULAR_DENOMINATOR_TOL < abs(denom) < math.inf:
            return
        numer = (p1 * y + q1) * (1.0 + p2 * g * h) + (p2 * y + q2) * (1.0 - p1 * g * h)
        y = y + 0.5 * h * numer / denom
        if not isfinite(y):
            return
        out.append(y)


def _rows(tableau: ButcherTableau, problem: Problem, widths, stage_x):
    """Rows of the straight-line steps over the first len(widths) intervals of
    stage_x: (h, x_1, ..., x_s), or (h, p1, q1, p2, q2) for gauss2, from one p
    and one q array call for a _trusted_linear pair, else (or if either raises
    or yields no array) from float calls as rows are read, in gauss2_linear_step's order."""
    p, q = problem.linear or (None, None)  # None: handed over at step 0
    n = len(widths)
    if not tableau.explicit and _trusted_linear(problem):
        checked = stage_x[:, :n].reshape(-1)
        ps = array_eval(p, checked)
        qs = None if ps is None else array_eval(q, checked)
        if qs is not None:
            ps, qs = memoryview(ps), memoryview(qs)
            return zip(memoryview(widths), ps[:n], qs[:n], ps[n:], qs[n:])
    rows = zip(memoryview(widths), *[memoryview(stage_x[j]) for j in range(len(stage_x))])
    if tableau.explicit:
        return rows
    return ((h, float(p(x1)), float(q(x1)), float(p(x2)), float(q(x2))) for h, x1, x2 in rows)


def _scalar_integrate(tableau: ButcherTableau, problem: Problem, mesh: Mesh):
    """Node values bit for bit those of one step function call per
    interval (``explicit_rk_step``, or ``gauss2_linear_step`` for gauss2):
    per block, up to its first interval that fails _step_checks, steps run
    straight-line from one row iterator.  The loop returns before a step it
    cannot take, or raises in it; here, the one place that catches, that step
    goes to the step function, and the loop resumes after it (a failed interval
    raises there, or, at h = 0 for gauss2, leaves the rest of its block to
    the step function).  The named explicit tableaux have 2 or 3 stages."""
    a, b, c = tableau._lists
    if tableau.explicit:
        steps = _two_stage_steps if tableau.stages == 2 else _three_stage_steps
        steps, step = partial(steps, problem.rhs, a, b), partial(explicit_rk_step, tableau)
    else:
        steps, step = _gauss2_steps, gauss2_linear_step
    nodes, widths = mesh.nodes, mesh.widths
    n = len(widths)
    values = _array("values", n + 1)
    y = values[0] = float(problem.y0)
    with np.errstate(all="ignore"):
        for lo in range(0, n, KERNEL_BLOCK):
            hi = min(lo + KERNEL_BLOCK, n)
            stage_x, failed = _step_checks(problem, c, nodes[lo:hi], widths[lo:hi])
            stop = hi if failed is None else lo + failed
            rows = _rows(tableau, problem, widths[lo:stop], stage_x)
            block = []
            while True:
                try:
                    steps(y, rows, block)
                except Exception:  # the step function redoes the step
                    pass
                y = block[-1] if block else y
                if (i := lo + len(block)) == hi:
                    break
                try:
                    y = step(problem, float(nodes[i]), y, float(widths[i]))
                except (StageEvaluationError, SingularStepError) as exc:
                    raise type(exc)(f"step {i} failed: {exc}") from exc
                block.append(y)
            values[lo + 1 : hi + 1] = block
    return values


def integrate(scheme: str, problem: Problem, mesh: Mesh) -> Trajectory:
    """Advance the problem across every mesh interval with the named scheme.

    Exactly one step per interval, left to right.  The affine-step kernel
    runs when the mesh has at least KERNEL_MIN_INTERVALS intervals, the
    problem has a linear form whose coefficient functions accept arrays
    (scalar results are broadcast), every interval passes the step
    functions' rule (h > 0; x, x + h and every stage abscissa inside the
    domain), every coefficient and stage slope is finite, every Gauss
    stage system is nonsingular, every step is non-expansive, |1 + D_i| <= 1,
    so rounding differences cannot grow, and max|y| times the largest
    2-norm of a coefficient form, plus that of an offset form, stays below
    KERNEL_HEADROOM.  It runs the recurrence y + (D_i*y + S_i) as a
    two-level scan over rows of ``scan_width(N)`` intervals, and its
    values differ from the scalar driver's by a few ulps per step, the
    same from run to run.  Otherwise the scalar driver runs, with values
    and errors exactly those of one step function call per interval:
    ``explicit_rk_step`` for explicit schemes, ``gauss2_linear_step`` for
    ``gauss2`` (so it requires a linear problem; make_builtin's p and q
    are called once per block, on arrays, any other pair's on floats); a
    step it hands over is redone by that function, which calls ``rhs``,
    or ``p`` and ``q``, again.  Blow-ups raise with the failing ``step N``.
    """
    nodes = mesh.nodes
    slack = domain_slack(problem)
    if abs(nodes.item(0) - problem.x0) > slack or abs(nodes.item(-1) - problem.domain_end) > slack:
        raise ValueError(
            f"mesh spans [{nodes[0]}, {nodes[-1]}] but problem domain is "
            f"[{problem.x0}, {problem.domain_end}]"
        )
    tableau = named_tableau(scheme)
    values = None
    if problem.linear is not None and len(mesh.widths) >= KERNEL_MIN_INTERVALS:
        values = _affine_integrate(tableau, problem, mesh)
    if values is None:
        values = _scalar_integrate(tableau, problem, mesh)
    values.setflags(write=False)  # integrate's own 1-d float64 array: Trajectory keeps it as it is
    return _unchecked(Trajectory, mesh=mesh, values=values, scheme_id=scheme, problem_id=problem.problem_id)
