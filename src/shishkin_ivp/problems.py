"""Singularly perturbed initial-value problems y' = f(x, y), y(x0) = y0.

Right-hand sides are stored already divided by the perturbation parameter
(eps*y' = g(x, y) is represented as f = g/eps), so steppers never see eps;
it is kept on the problem only for mesh construction and exact evaluation.

The built-in problems' linear coefficients and exact solutions accept
numpy arrays as well as floats; their scalar ``rhs`` stays on ``math`` so
the per-step scalar driver pays no numpy call overhead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

#: Names of the built-in test problems.
BUILTIN_NAMES = ("decay", "layer1")

#: Slack of an abscissa on the unit interval: of the domain check and of a
#: mesh's widths against its nodes (see abscissa_slack).
DOMAIN_TOL = 1e-12


class EvaluationError(ArithmeticError):
    """A right-hand side or exact-solution evaluation produced a
    non-finite value."""


@dataclass(frozen=True)
class Problem:
    """An initial-value problem on [x0, domain_end].

    ``linear`` optionally carries coefficient functions (p, q) with
    f(x, y) = p(x)*y + q(x); ``exact`` optionally carries the closed-form
    solution x -> y(x, eps).  The linear-problem kernel calls p once and q
    once per block of intervals, each on a 1-d array of all the block's
    stage abscissae; they must work elementwise and return a fresh array
    on every call: the kernel keeps p's result while it evaluates q, so a
    p and q that fill one shared buffer integrate a different problem.
    """

    epsilon: float
    x0: float
    y0: float
    rhs: Callable[[float, float], float]
    domain_end: float = 1.0
    linear: tuple[Callable[[float], float], Callable[[float], float]] | None = None
    exact: Callable[[float], float] | None = None
    label: str = "custom"

    def __post_init__(self):
        _check_epsilon(self.epsilon)
        if not all(map(math.isfinite, (self.x0, self.y0, self.domain_end))):
            raise ValueError(
                "x0, y0 and domain_end must be finite, got "
                f"{self.x0}, {self.y0}, {self.domain_end}"
            )
        if not self.domain_end > self.x0:
            raise ValueError(
                f"domain_end must exceed x0, got [{self.x0}, {self.domain_end}]"
            )
        # The domain widened by abscissa_slack, computed once: every domain check reads it.
        slack = abscissa_slack(self.x0, self.domain_end)
        object.__setattr__(self, "_bounds", (self.x0 - slack, self.domain_end + slack))
        if self.exact is not None:
            y_start = self.exact(self.x0)
            if not abs(y_start - self.y0) <= 1e-12 * max(1.0, abs(self.y0)):  # a nan disagrees
                raise ValueError(
                    f"exact({self.x0}) = {float(y_start)!r} does not match y0 = {self.y0!r}"
                )
        if self.linear is not None and not _trusted_linear(self):
            # Spot-check the advertised linear form at the domain ends and the
            # midpoint, each at y0 and y0 + 1: equal values (infinities included)
            # agree, others if they differ by at most 1e-12 of the largest of 1,
            # |rhs|, |p*y| and |q|; a nan or an infinite difference disagrees.
            with np.errstate(all="ignore"):
                for x in (self.x0, 0.5 * (self.x0 + self.domain_end), self.domain_end):
                    p, q = linear_coeffs_eval(self, x)
                    for y in (self.y0, self.y0 + 1.0):
                        r = self.rhs(x, y)
                        f, tol = p * y + q, 1e-12 * max(1.0, abs(r), abs(p * y), abs(q))
                        if not (r == f or math.isfinite(r - f) and abs(r - f) <= tol):
                            raise ValueError(
                                f"linear form p(x)*y + q(x) disagrees with rhs at x={x}"
                            )

    @property
    def problem_id(self) -> str:
        return f"{self.label}(eps={self.epsilon:.17g})"


def _trusted_linear(problem: Problem) -> bool:
    """Whether ``linear`` is rhs's own (make_builtin's): trusted to agree
    with rhs and to give the same doubles on floats and on arrays."""
    linear = problem.linear
    return linear is not None and linear is getattr(problem.rhs, "_linear_form", None)


def _unchecked(cls, **attributes):
    """A frozen dataclass made without __init__, from values it would keep as they are."""
    instance = object.__new__(cls)
    instance.__dict__.update(attributes)
    return instance


def _check_epsilon(epsilon: float):
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")


def abscissa_slack(a: float, b: float) -> float:
    """The slack of an abscissa on [a, b]: absolute on the unit interval, relative beyond
    it, where every x + h and node difference carries rounding of the largest magnitude."""
    return DOMAIN_TOL * max(1.0, abs(a), abs(b))


def _check_domain(problem: Problem, x: float, h: float | None = None):
    """The domain rule: the point x, or the step [x, x + h] with h > 0, in ``problem._bounds``."""
    if h is not None and not h > 0.0:  # nan fails
        raise ValueError(f"step size must be positive, got {h}")
    lo, hi = problem._bounds
    if lo <= x and (x if h is None else x + h) <= hi:  # nan fails
        return
    domain = f"[{problem.x0}, {problem.domain_end}]"
    if h is None:
        raise ValueError(f"x = {float(x)!r} outside problem domain {domain}")
    raise ValueError(f"step from x={x} with h={h} leaves the domain {domain}")


def make_builtin(name: str, epsilon: float) -> Problem:
    """Construct one of the built-in closed-form test problems.

    decay:  eps*y' = -y, y(0) = 1, exact solution exp(-x/eps).
    layer1: eps*y' = -x*y + eps + exp(-x/eps) + x*(x - exp(-x/eps) + 1),
            y(0) = 0, exact solution x - exp(-x/eps) + 1.

    The callbacks give the doubles of these formulas as written, bit for
    bit (tests/test_problems.py keeps the plain versions as reference),
    but cost less: ``rhs`` is one frame on ``math``; ``p``, ``q`` and
    ``exact`` take floats or arrays, use x / -eps, which is -x / eps for
    every float x but NaN, and run their later passes in place on the
    fresh array they return.  ``rhs`` carries its linear form, the promise
    that the pair agrees with it and gives the same doubles on floats and
    on arrays (tests/test_problems.py), so the scalar Gauss step calls p
    and q once per block.  ``Problem``'s checks hold by construction (its
    spot check would read nan on both sides at eps near 2^-1074; exact(0)
    is y0 at every eps): the problem is made without them."""
    if name not in BUILTIN_NAMES:
        raise ValueError(f"unknown builtin problem {name!r}; known: {BUILTIN_NAMES}")
    _check_epsilon(epsilon)
    neg_eps = -epsilon
    if name == "decay":
        p_value = -1.0 / epsilon

        def rhs(x, y):
            return -y / epsilon

        def p(x):
            return p_value

        def q(x):
            return 0.0

        def exact(x):
            return np.exp(x / neg_eps)

        y0 = 1.0
    else:
        exp = math.exp

        def rhs(x, y):
            t = -x / epsilon
            e = exp(t)
            return t * y + (epsilon + e + x * (x - e + 1.0)) / epsilon

        def p(x):
            return x / neg_eps

        def q(x):
            # (epsilon + e + x*(x - e + 1)) / epsilon, operand for operand.
            e = np.exp(x / neg_eps)
            t = x - e
            t += 1.0
            t *= x
            e += epsilon
            e += t
            e /= epsilon
            return e

        def exact(x):
            y = x - np.exp(x / neg_eps)
            y += 1.0
            return y

        y0 = 0.0
    rhs._linear_form = linear = (p, q)
    return _unchecked(Problem, epsilon=epsilon, x0=0.0, y0=y0, rhs=rhs, domain_end=1.0, linear=linear,
                      exact=exact, label=name, _bounds=(-DOMAIN_TOL, 1.0 + DOMAIN_TOL))


def rhs_eval(problem: Problem, x: float, y: float) -> float:
    """Evaluate f(x, y), rejecting non-finite results."""
    _check_domain(problem, x)
    try:
        value = problem.rhs(x, y)
    except OverflowError as exc:
        raise EvaluationError(f"rhs overflowed at x={x!r}, y={y!r}") from exc
    if not math.isfinite(value):
        raise EvaluationError(f"rhs returned {value!r} at x={x!r}, y={y!r}")
    return value


def linear_coeffs_eval(problem: Problem, x: float) -> tuple[float, float]:
    """Evaluate the linear coefficients (p(x), q(x)) as Python floats.  A
    numpy coefficient that overflows gives its inf or nan, not a
    RuntimeWarning."""
    if problem.linear is None:
        raise ValueError(f"problem {problem.label!r} carries no linear form")
    with np.errstate(all="ignore"):
        return float(problem.linear[0](x)), float(problem.linear[1](x))


def array_eval(fn: Callable, x: np.ndarray) -> np.ndarray | None:
    """``fn`` on the whole array ``x``, as float64 of its shape (a float64
    result of that shape as it is, not copied: maybe ``x``, never to be
    written; a scalar or other broadcastable result filled into a new
    array); None if ``fn`` raises on the array (any Exception) or gives an
    unbroadcastable shape, so that float calls, as in the step functions,
    decide the result.  ``fn`` must work elementwise and return a fresh
    array per call (see Problem)."""
    try:
        value = np.asarray(fn(x), dtype=float)
        if value.shape == x.shape:
            return value
        if value.ndim > x.ndim:  # np.broadcast_to's rule; assignment would drop 1s
            return None
        filled = np.empty(x.shape)
        filled[...] = value
        return filled
    except Exception:
        return None


def exact_eval(problem: Problem, x):
    """Evaluate the attached exact solution at x, a float or a 1-d array:
    arrays in one call when ``exact`` accepts them, else point by point, in order."""
    if problem.exact is None:
        raise ValueError(f"problem {problem.label!r} carries no exact solution")
    if np.ndim(x) == 0:
        _check_domain(problem, x)
        with np.errstate(all="ignore"):
            return problem.exact(x)
    x = np.asarray(x, dtype=float)
    if x.ndim > 1:
        raise ValueError(f"exact_eval takes a float or a 1-d array, got shape {x.shape}")
    with np.errstate(all="ignore"):
        return _exact_values(problem, x)


def _exact_values(problem: Problem, x: np.ndarray) -> np.ndarray:
    """exact_eval's array path, on a 1-d float64 array, under the caller's np.errstate."""
    lo, hi = problem._bounds
    if len(x) and not (lo <= np.minimum.reduce(x) and np.maximum.reduce(x) <= hi):  # nan fails
        _check_domain(problem, x[np.argmin((lo <= x) & (x <= hi))])
    values = array_eval(problem.exact, x)
    if values is None:
        values = np.fromiter(map(problem.exact, memoryview(x)), float, len(x))
    return values
