"""Uniform and layer-adapted (Shishkin) meshes on the unit interval.

A Shishkin mesh condenses half of the nodes inside the boundary/initial
layer of width ``sigma = min(1/2, (n/b) * eps * ln N)`` and spreads the
rest uniformly over the remainder.  Both pieces are uniform, so the mesh
is fully described by the transition point ``sigma`` and the node split
``alpha`` (fraction of intervals placed inside the layer).
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from .problems import _check_epsilon, _unchecked, abscissa_slack

#: Saturation cap of the transition point: the layer piece never covers
#: more than half of the domain.
SIGMA_CAP = 0.5

MESH_UNIFORM = "uniform"
MESH_SHISHKIN = "shishkin"

#: While run_sweep runs: its cells' large arrays (``_array``), by slot, each
#: made when first asked for, at the size of the sweep's largest cell.
_SWEEP_ARRAYS: ContextVar[dict | None] = ContextVar("sweep_arrays", default=None)


@dataclass(frozen=True)
class ShishkinParams:
    """Inputs of the Shishkin mesh construction.

    Attributes
    ----------
    n_intervals:
        Total number of mesh intervals N.  Must be even and >= 4 so the
        split produces an integral number of fine intervals.
    epsilon:
        Perturbation parameter, in (0, 1].
    method_order:
        Mesh grading order n (typically the convergence order of the
        intended scheme), finite and >= 1.
    layer_constant:
        Finite positive constant b scaling the layer width estimate.
    split:
        Fraction alpha of intervals placed inside the layer, in (0, 1).
        alpha * N must be, within 1e-9, an integer m with 0 < m < N.
    """

    n_intervals: int
    epsilon: float
    method_order: int = 2
    layer_constant: float = 1.0
    split: float = 0.5

    def __post_init__(self):
        _check_count(self.n_intervals, 4, even=True)
        _check_epsilon(self.epsilon)
        if not (math.isfinite(self.method_order) and self.method_order >= 1):
            raise ValueError(f"method_order must be finite and >= 1, got {self.method_order}")
        if not (math.isfinite(self.layer_constant) and self.layer_constant > 0.0):
            raise ValueError(
                f"layer_constant must be finite and positive, got {self.layer_constant}"
            )
        _fine_intervals(self.n_intervals, self.split, SIGMA_CAP)  # any sigma in range


@dataclass(frozen=True, eq=False)
class Mesh:
    """Ordered nodes x_0 < ... < x_N with per-interval widths.

    ``widths`` stores the defining interval widths; for the two-piece
    constructions these are the exact per-piece constants.  The node
    differences must agree with them (``inconsistent_widths``): Mesh(...)
    raises ValueError otherwise, and the builders, which skip __init__,
    make them agree to a few ulps of max|x|.
    """

    nodes: np.ndarray
    widths: np.ndarray
    kind: str
    sigma: float | None = None

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        widths = np.asarray(self.widths, dtype=float)
        if nodes.ndim != 1 or widths.ndim != 1 or len(widths) != len(nodes) - 1:
            raise ValueError("mesh needs N+1 nodes and N widths")
        if mismatched := inconsistent_widths(nodes, widths):
            raise ValueError("mesh " + _width_mismatch(nodes, widths, mismatched[0]))
        nodes.setflags(write=False)
        widths.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "widths", widths)

    @property
    def n_intervals(self) -> int:
        return len(self.widths)


def _built(nodes, widths, kind: str, sigma: float | None) -> Mesh:
    nodes.setflags(write=False)  # the builders' 1-d float64 arrays: Mesh keeps them as they are
    widths.setflags(write=False)
    return _unchecked(Mesh, nodes=nodes, widths=widths, kind=kind, sigma=sigma)


def _array(slot: str, size: int, index: bool = False) -> np.ndarray:
    """``size`` doubles, holding the float index 0..size-1 if ``index``:
    inside a sweep the start of its ``slot`` array, else a new array."""
    arrays = _SWEEP_ARRAYS.get()
    if arrays is None or size > len(arrays[slot]):
        return np.arange(size, dtype=float) if index else np.empty(size)
    out = arrays[slot][:size]
    if index:  # np.arange's doubles in place: head + k is exact
        k = min(size, 1024)
        out[:k] = np.arange(k)
        while k < size:
            np.add(out[: min(k, size - k)], k, out=out[k : 2 * k])
            k *= 2
    return out


def _check_count(n_intervals: int, least: int, even: bool = False):
    """The interval-count rule: an int or numpy integer, >= least, even if asked."""
    if isinstance(n_intervals, bool) or not isinstance(n_intervals, (int, np.integer)):
        raise ValueError(f"n_intervals must be an integer, got {n_intervals!r}")
    if n_intervals < least or even and n_intervals % 2:
        raise ValueError(f"n_intervals must be {'even and ' * even}>= {least}, got {n_intervals}")


def _check_map(alpha: float, sigma: float):
    """The two-piece map's ranges: alpha in (0, 1), then sigma in (0, SIGMA_CAP]."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if not 0.0 < sigma <= SIGMA_CAP:
        raise ValueError(f"sigma must be in (0, {SIGMA_CAP}], got {sigma}")


def _fine_intervals(n_intervals: int, alpha: float, sigma: float) -> int:
    """The split rule, after _check_map: m = alpha*N, integral and interior."""
    _check_map(alpha, sigma)
    m = round(alpha * n_intervals)
    if abs(alpha * n_intervals - m) > 1e-9 or not 0 < m < n_intervals:
        raise ValueError(
            f"alpha * n_intervals must be integral and interior, "
            f"got {alpha * n_intervals}"
        )
    return m


def transition_point(params: ShishkinParams) -> float:
    """Transition abscissa sigma = min(1/2, (n/b) * eps * ln N)."""
    n, b, eps = params.method_order, params.layer_constant, params.epsilon
    return min(SIGMA_CAP, (n / b) * eps * math.log(params.n_intervals))


def generating_function_eval(sigma: float, alpha: float, xi: float) -> float:
    """Map a reference coordinate xi in [0, 1] to a physical node.

    Piecewise linear: slope sigma/alpha on [0, alpha], then the unique
    linear continuation through (1, 1).  Continuous at alpha with value
    exactly sigma, and endpoint values exactly 0 and 1.
    """
    _check_map(alpha, sigma)
    if not 0.0 <= xi <= 1.0:
        raise ValueError(f"xi must be in [0, 1], got {xi}")
    if xi <= alpha:
        # sigma * (xi/alpha) rather than (sigma/alpha) * xi: xi/alpha == 1.0
        # exactly at the split, so both branches return sigma bit-for-bit.
        return sigma * (xi / alpha)
    return sigma + (1.0 - sigma) * ((xi - alpha) / (1.0 - alpha))


def build_from_sigma(n_intervals: int, alpha: float, sigma: float) -> Mesh:
    """Two-piece mesh with an explicitly given transition point.

    The fine piece [0, sigma] gets alpha*N intervals of width sigma/m and
    the coarse piece [sigma, 1] the remaining N - m of width (1-sigma)/(N-m).
    Widths are stored as those exact constants; nodes are single-rounding
    multiples of them with the junction pinned to sigma and the endpoints
    to 0 and 1.
    """
    _check_count(n_intervals, 2)
    m = _fine_intervals(n_intervals, alpha, sigma)
    h_fine = sigma / m
    h_coarse = (1.0 - sigma) / (n_intervals - m)
    # Node i is i*h_fine on the fine piece and sigma + (i - m)*h_coarse on
    # the coarse one, written in place from the float indices.
    nodes = _array("nodes", n_intervals + 1, index=True)
    nodes[: m + 1] *= h_fine
    coarse = nodes[m + 1 :]
    coarse -= m
    coarse *= h_coarse
    coarse += sigma
    nodes[m] = sigma
    nodes[-1] = 1.0
    # Within a piece the nodes are rounded multiples of one positive width,
    # so they can only repeat if that width is zero or at the three pinned
    # nodes (sigma, its right neighbour, and 1).
    if not (h_fine > 0.0 and nodes.item(m - 1) < sigma < nodes.item(m + 1) and nodes.item(-2) < 1.0):
        raise ValueError(
            f"sigma = {sigma!r} is too small for {m} fine intervals: "
            "the mesh nodes would repeat"
        )
    widths = _array("widths", n_intervals)
    widths[:m] = h_fine
    widths[m:] = h_coarse
    return _built(nodes, widths, MESH_SHISHKIN, sigma)


def build_shishkin_mesh(params: ShishkinParams) -> Mesh:
    """Shishkin mesh on [0, 1] for the given parameters."""
    return build_from_sigma(params.n_intervals, params.split, transition_point(params))


def build_uniform_mesh(
    n_intervals: int, interval: tuple[float, float] = (0.0, 1.0)
) -> Mesh:
    """Equidistant mesh with h = (x_hi - x_lo) / N, on finite endpoints,
    with a finite positive h and strictly increasing nodes."""
    x_lo, x_hi = interval
    _check_count(n_intervals, 1)
    if not (math.isfinite(x_lo) and math.isfinite(x_hi)):
        raise ValueError(f"interval endpoints must be finite, got [{x_lo}, {x_hi}]")
    if not x_lo < x_hi:
        raise ValueError(f"degenerate interval [{x_lo}, {x_hi}]")
    h = (x_hi - x_lo) / n_intervals
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError(
            f"interval [{x_lo}, {x_hi}] gives width {h} for {n_intervals} intervals"
        )
    nodes = _array("nodes", n_intervals + 1, index=True)
    nodes *= h
    nodes += x_lo
    nodes[-1] = x_hi
    if not (nodes[:-1] < nodes[1:]).all():
        raise ValueError(
            f"interval [{x_lo}, {x_hi}] is too short for {n_intervals} "
            "intervals: the mesh nodes would repeat"
        )
    widths = _array("widths", n_intervals)
    widths.fill(h)
    return _built(nodes, widths, MESH_UNIFORM, None)


def inconsistent_widths(nodes: np.ndarray, widths: np.ndarray) -> list[int]:
    """The indices i at which widths[i] and the node difference
    x_{i+1} - x_i differ by more than ``abscissa_slack(x_0, x_N)``, or by nan."""
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is nan: flagged
        gap = nodes[1:] - nodes[:-1]
        gap -= widths
    np.abs(gap, out=gap)
    tolerance = abscissa_slack(nodes[0], nodes[-1])
    if not gap.size or gap.max() <= tolerance:  # nan fails
        return []
    return np.flatnonzero(~(gap <= tolerance)).tolist()


def _width_mismatch(nodes: np.ndarray, widths: np.ndarray, i: int) -> str:
    """The report on inconsistent width ``i``, for Mesh and validate_mesh."""
    d = nodes.item(i + 1) - nodes.item(i)  # Python floats: inf - inf is nan, not a warning
    return f"width {widths.item(i)!r} inconsistent with node difference {d!r} at index {i}"


def validate_mesh(
    mesh: Mesh, x_start: float = 0.0, x_end: float = 1.0
) -> list[str]:
    """Report structural violations; an empty list means the mesh is valid.

    Checks monotonicity, the expected endpoints (canonical [0, 1] by
    default), width positivity, and per-interval plus total consistency
    between the stored widths and the node differences (Mesh(...) rejects
    a per-interval mismatch, but the builders' meshes skip that check).
    """
    report: list[str] = []
    nodes = mesh.nodes
    widths = mesh.widths
    diffs = np.diff(nodes)
    for i in np.nonzero(diffs <= 0.0)[0]:
        report.append(f"nodes not strictly increasing at index {i + 1}")
    if nodes[0] != x_start:
        report.append(f"left endpoint is {float(nodes[0])!r}, expected {x_start!r}")
    if nodes[-1] != x_end:
        report.append(f"right endpoint is {float(nodes[-1])!r}, expected {x_end!r}")
    for i in np.nonzero(widths <= 0.0)[0]:
        report.append(f"nonpositive width at index {i}")
    report.extend(_width_mismatch(nodes, widths, i) for i in inconsistent_widths(nodes, widths))
    total = abs(float(np.sum(widths)) - (nodes[-1] - nodes[0]))
    if total > abscissa_slack(nodes[0], nodes[-1]):
        report.append(f"sum of widths deviates from node span by {total:.3e}")
    return report
