"""Runge-Kutta coefficient schemes (Butcher tableaux) and order conditions."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Tolerance for the order-condition residuals.
ORDER_CONDITION_TOL = 1e-14

#: Tolerance for the weight sum, sum_j b_j = 1.
TABLEAU_TOL = 1e-15

#: Gauss-Legendre two-stage node offset.
GAUSS2_GAMMA = math.sqrt(3.0) / 6.0


@dataclass(frozen=True, eq=False)
class ButcherTableau:
    """Coefficient arrays (A, b) of an s-stage Runge-Kutta scheme, and what
    they decide (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.1):
    ``stages`` s = len(b), the nodes ``c`` as A's row sums, c_j = sum_q a_jq,
    and ``explicit``, true iff A is strictly lower triangular.

    Construction checks the shapes and that the weights sum to 1.
    """

    a: np.ndarray
    b: np.ndarray
    name: str = ""

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        s = b.size
        if s < 1 or b.shape != (s,) or a.shape != (s, s):
            raise ValueError(f"inconsistent tableau shapes: a {a.shape}, b {b.shape}")
        if abs(float(np.sum(b)) - 1.0) > TABLEAU_TOL:
            raise ValueError(f"weights must sum to 1, got {np.sum(b)!r}")
        c = a.sum(axis=1)
        for name, arr in (("a", a), ("b", b), ("c", c)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "stages", s)
        object.__setattr__(self, "explicit", not np.triu(a).any())
        object.__setattr__(self, "_lists", (a.tolist(), b.tolist(), c.tolist()))  # for the steppers


#: The named schemes in roster order, with the classical order each must satisfy.
_ROSTER = (
    (2, ButcherTableau([[0.0, 0.0], [1.0, 0.0]], [0.5, 0.5], "heun")),
    (2, ButcherTableau([[0.0, 0.0], [2.0 / 3.0, 0.0]], [0.25, 0.75], "rk2_ralston")),
    (2, ButcherTableau([[0.0, 0.0], [0.5, 0.0]], [0.0, 1.0], "rk2_midpoint")),
    (3, ButcherTableau([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.0, 0.75, 0.0]],
                       [2.0 / 9.0, 3.0 / 9.0, 4.0 / 9.0], "rk3_a")),
    (3, ButcherTableau([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [-1.0, 2.0, 0.0]],
                       [1.0 / 6.0, 4.0 / 6.0, 1.0 / 6.0], "rk3_kutta")),
    (3, ButcherTableau([[0.25, 0.25 - GAUSS2_GAMMA], [0.25 + GAUSS2_GAMMA, 0.25]], [0.5, 0.5], "gauss2")),
)
_NAMED = {tableau.name: tableau for _, tableau in _ROSTER}
SCHEME_NAMES = tuple(_NAMED)
EXPLICIT_SCHEMES = tuple(name for name, tableau in _NAMED.items() if tableau.explicit)
NOMINAL_ORDER = {tableau.name: order for order, tableau in _ROSTER}


def named_tableau(name: str) -> ButcherTableau:
    """Look up one of the named schemes."""
    try:
        return _NAMED[name]
    except KeyError:
        raise ValueError(
            f"unknown scheme {name!r}; known: {', '.join(SCHEME_NAMES)}"
        ) from None


@dataclass(frozen=True)
class OrderCondition:
    """One order condition with its residual and verdict."""

    label: str
    residual: float
    passed: bool


def verify_order_conditions(
    tableau: ButcherTableau, target_order: int
) -> list[OrderCondition]:
    """Check the classical order conditions up to ``target_order`` in {1, 2, 3}.

    Returns one entry per condition; all entries pass iff the tableau
    satisfies the requested order with residuals <= 1e-14.
    """
    if target_order not in (1, 2, 3):
        raise ValueError(f"target_order must be 1, 2 or 3, got {target_order}")
    b, c, a = tableau.b, tableau.c, tableau.a
    checks = [("sum(b) = 1", float(np.sum(b)) - 1.0)]
    if target_order >= 2:
        checks.append(("sum(b*c) = 1/2", float(b @ c) - 0.5))
    if target_order >= 3:
        checks.append(("sum(b*c^2) = 1/3", float(b @ (c * c)) - 1.0 / 3.0))
        checks.append(("sum(b*(A@c)) = 1/6", float(b @ (a @ c)) - 1.0 / 6.0))
    return [
        OrderCondition(label, abs(res), abs(res) <= ORDER_CONDITION_TOL)
        for label, res in checks
    ]
