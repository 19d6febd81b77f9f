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

#: Slack allowed when checking that an abscissa lies inside the domain.
DOMAIN_TOL = 1e-12


class EvaluationError(ArithmeticError):
    """A right-hand side or exact-solution evaluation produced a
    non-finite value."""


@dataclass(frozen=True)
class Problem:
    """An initial-value problem on [x0, domain_end].

    ``linear`` optionally carries coefficient functions (p, q) with
    f(x, y) = p(x)*y + q(x); ``exact`` optionally carries the closed-form
    solution x -> y(x, eps).
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
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in (0, 1], got {self.epsilon}")
        if not self.domain_end > self.x0:
            raise ValueError(
                f"domain_end must exceed x0, got [{self.x0}, {self.domain_end}]"
            )
        if self.exact is not None:
            y_start = self.exact(self.x0)
            if abs(y_start - self.y0) > 1e-12:
                raise ValueError(
                    f"exact({self.x0}) = {y_start!r} does not match y0 = {self.y0!r}"
                )
        if self.linear is not None:
            # Spot-check the advertised linear form at the domain ends.
            with np.errstate(all="ignore"):
                for x in (self.x0, 0.5 * (self.x0 + self.domain_end)):
                    p, q = linear_coeffs_eval(self, x)
                    r = self.rhs(x, self.y0)
                    if abs(r - (p * self.y0 + q)) > 1e-12 * (1.0 + abs(r)):
                        raise ValueError(
                            f"linear form p(x)*y + q(x) disagrees with rhs at x={x}"
                        )

    @property
    def problem_id(self) -> str:
        return f"{self.label}(eps={self.epsilon:.17g})"


def _check_domain(problem: Problem, x: float):
    if not problem.x0 - DOMAIN_TOL <= x <= problem.domain_end + DOMAIN_TOL:
        raise ValueError(
            f"x = {x!r} outside problem domain "
            f"[{problem.x0}, {problem.domain_end}]"
        )


def make_builtin(name: str, epsilon: float) -> Problem:
    """Construct one of the built-in closed-form test problems.

    decay:  eps*y' = -y, y(0) = 1, exact solution exp(-x/eps).
    layer1: eps*y' = -x*y + eps + exp(-x/eps) + x*(x - exp(-x/eps) + 1),
            y(0) = 0, exact solution x - exp(-x/eps) + 1.
    """
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
    if name == "decay":
        return Problem(
            epsilon=epsilon,
            x0=0.0,
            y0=1.0,
            rhs=lambda x, y: -y / epsilon,
            linear=(lambda x: -1.0 / epsilon, lambda x: 0.0),
            exact=lambda x: np.exp(-x / epsilon),
            label="decay",
        )
    if name == "layer1":

        def source(x, exp):
            e = exp(-x / epsilon)
            return (epsilon + e + x * (x - e + 1.0)) / epsilon

        return Problem(
            epsilon=epsilon,
            x0=0.0,
            y0=0.0,
            rhs=lambda x, y: (-x / epsilon) * y + source(x, math.exp),
            linear=(lambda x: -x / epsilon, lambda x: source(x, np.exp)),
            exact=lambda x: x - np.exp(-x / epsilon) + 1.0,
            label="layer1",
        )
    raise ValueError(f"unknown builtin problem {name!r}; known: {BUILTIN_NAMES}")


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
    """Evaluate the linear coefficients (p(x), q(x)) as Python floats."""
    if problem.linear is None:
        raise ValueError(f"problem {problem.label!r} carries no linear form")
    return float(problem.linear[0](x)), float(problem.linear[1](x))


def array_eval(fn: Callable, x: np.ndarray) -> np.ndarray | None:
    """``fn`` evaluated on the whole array ``x``, a scalar result broadcast
    to its shape; ``None`` when ``fn`` does not accept arrays (it raised
    ``TypeError`` or ``ValueError``, or returned an unbroadcastable shape)."""
    try:
        return np.broadcast_to(np.asarray(fn(x), dtype=float), x.shape)
    except (TypeError, ValueError):
        return None


def exact_eval(problem: Problem, x):
    """Evaluate the attached exact solution at x, a float or a 1-d array.

    Arrays are evaluated in one call when ``exact`` accepts them and point
    by point otherwise."""
    if problem.exact is None:
        raise ValueError(f"problem {problem.label!r} carries no exact solution")
    if np.ndim(x) == 0:
        _check_domain(problem, x)
        with np.errstate(all="ignore"):
            return problem.exact(x)
    x = np.asarray(x, dtype=float)
    if len(x) and not (
        problem.x0 - DOMAIN_TOL <= x.min() and x.max() <= problem.domain_end + DOMAIN_TOL
    ):
        for value in x.tolist():
            _check_domain(problem, value)
    with np.errstate(all="ignore"):
        values = array_eval(problem.exact, x)
        if values is None:
            values = np.array([problem.exact(v) for v in x.tolist()], dtype=float)
    return values
