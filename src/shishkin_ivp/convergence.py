"""Max-norm errors, convergence-order estimates and sweep tables.

Order estimates use the layer-adapted scale: on meshes whose fine step
carries an ln N factor, the error behaves like (N^-1 ln N)^r, so the rate
r is recovered from a doubling N = 2^k -> 2^(k+1) as
ln(E_N / E_2N) / ln(2k / (k+1)).
"""

from __future__ import annotations

import inspect
import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .mesh import (
    MESH_SHISHKIN,
    MESH_UNIFORM,
    _SWEEP_ARRAYS,
    Mesh,
    ShishkinParams,
    build_shishkin_mesh,
    build_uniform_mesh,
)
from .problems import Problem, exact_eval, make_builtin
from .steppers import KERNEL_BLOCK, Trajectory, integrate

#: Increments at or below this magnitude are treated as roundoff jitter
#: when counting oscillations.
OSCILLATION_DEADBAND = 1e-14


@dataclass(frozen=True)
class SweepCell:
    """One (epsilon, k) cell: max-norm error and optional order estimate."""

    error: float
    order: float | None


@dataclass(frozen=True)
class ConvergenceTable:
    """Errors and order estimates over an (epsilon x N=2^k) grid.

    ``entries`` maps (epsilon, k) to a cell; the largest k of each column
    has no order estimate (it would need the next, uncomputed refinement).
    """

    scheme_id: str
    problem_id: str
    mesh_kind: str
    epsilons: tuple[float, ...]
    k_range: tuple[int, ...]
    entries: dict[tuple[float, int], SweepCell]


def max_error(trajectory: Trajectory, problem: Problem) -> float:
    """Discrete max-norm error max_i |y(x_i) - y_i| against the exact
    solution, evaluated in blocks of nodes.  NaN gaps are skipped."""
    nodes, values = trajectory.mesh.nodes, trajectory.values
    worst = 0.0
    for lo in range(0, len(nodes), KERNEL_BLOCK):
        exact = exact_eval(problem, nodes[lo : lo + KERNEL_BLOCK])
        with np.errstate(invalid="ignore"):
            gap = np.abs(exact - values[lo : lo + KERNEL_BLOCK])
        worst = max(worst, float(np.fmax.reduce(gap, initial=0.0)))
    return worst


def shishkin_order(e_n: float, e_2n: float, k: int) -> float:
    """Order estimate ln(E_N/E_2N) / ln(2k/(k+1)) for N = 2^k, k >= 2."""
    if k < 2:
        raise ValueError(f"k must be >= 2 (k = 1 zeroes the denominator), got {k}")
    if not (e_n > 0.0 and e_2n > 0.0):
        raise ValueError(f"errors must be positive, got {e_n!r}, {e_2n!r}")
    return math.log(e_n / e_2n) / math.log(2.0 * k / (k + 1.0))


def build_mesh(mesh_kind: str, n_intervals: int, epsilon: float | None, **grading) -> Mesh:
    """A uniform mesh, or the Shishkin mesh for epsilon; epsilon and the
    grading, ShishkinParams' keyword fields, apply to Shishkin meshes only."""
    if mesh_kind == MESH_UNIFORM:
        inspect.signature(ShishkinParams).bind(n_intervals, epsilon, **grading)  # the names, not the values
        return build_uniform_mesh(n_intervals)
    if mesh_kind != MESH_SHISHKIN:
        raise ValueError(f"unknown mesh kind {mesh_kind!r}")
    return build_shishkin_mesh(ShishkinParams(n_intervals, epsilon, **grading))


def run_sweep(
    scheme: str,
    problem_name: str,
    epsilons: list[float] | tuple[float, ...],
    k_min: int,
    k_max: int,
    mesh_kind: str = MESH_SHISHKIN,
    **grading,
) -> ConvergenceTable:
    """Integrate over meshes N = 2^k for every (epsilon, k), one cell at a
    time, and tabulate errors with orders from consecutive refinements.
    Every cell's mesh and values are views of one set of arrays of 2^k_max
    + 1 doubles (mesh._array), valid until the next cell is built."""
    epsilons = tuple(epsilons)
    if not epsilons:
        raise ValueError("epsilons must be nonempty")
    if not 2 <= k_min < k_max:
        raise ValueError(f"need 2 <= k_min < k_max, got {k_min}, {k_max}")
    k_range = tuple(range(k_min, k_max + 1))
    errors: dict[tuple[float, int], float] = {}
    token = _SWEEP_ARRAYS.set(defaultdict(lambda: np.empty(2**k_max + 1)))
    try:
        for eps in epsilons:
            problem = make_builtin(problem_name, eps)
            for k in k_range:
                try:
                    mesh = build_mesh(mesh_kind, 2**k, eps, **grading)
                    errors[(eps, k)] = max_error(integrate(scheme, problem, mesh), problem)
                except (ValueError, ArithmeticError) as exc:
                    raise type(exc)(f"sweep cell (eps={eps:.17g}, k={k}) failed: {exc}") from exc
    finally:
        _SWEEP_ARRAYS.reset(token)

    entries = {}
    for (eps, k), error in errors.items():
        order = shishkin_order(error, errors[(eps, k + 1)], k) if k < k_max else None
        entries[(eps, k)] = SweepCell(error=error, order=order)
    return ConvergenceTable(
        scheme_id=scheme,
        problem_id=problem_name,
        mesh_kind=mesh_kind,
        epsilons=epsilons,
        k_range=k_range,
        entries=entries,
    )


def oscillation_count(trajectory: Trajectory) -> int:
    """Number of strict sign changes between successive solution
    increments, ignoring increments within the roundoff dead band."""
    values = trajectory.values
    if len(values) < 3:
        raise ValueError("need at least 3 values to count oscillations")
    increments = np.diff(values)
    signs = np.sign(increments[np.abs(increments) > OSCILLATION_DEADBAND])
    return int(np.sum(signs[1:] != signs[:-1]))
