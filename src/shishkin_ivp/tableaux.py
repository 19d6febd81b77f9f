"""Runge-Kutta coefficient schemes (Butcher tableaux) and order conditions."""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass

import numpy as np

#: Tolerance for the order-condition residuals.
ORDER_CONDITION_TOL = 1e-14

#: Tolerance for the structural tableau invariants (weight sum, row sums).
TABLEAU_TOL = 1e-15

#: Gauss-Legendre two-stage node offset.
GAUSS2_GAMMA = math.sqrt(3.0) / 6.0


@dataclass(frozen=True)
class ButcherTableau:
    """Coefficient arrays (A, b, c) of an s-stage Runge-Kutta scheme.

    Construction enforces weight-sum and row-sum consistency; pass
    ``check=False`` to build a deliberately inconsistent tableau, e.g. to
    exercise the order-condition report.
    """

    stages: int
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    explicit: bool
    name: str = ""
    check: InitVar[bool] = True

    def __post_init__(self, check: bool):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        c = np.asarray(self.c, dtype=float)
        s = self.stages
        if s < 1 or a.shape != (s, s) or b.shape != (s,) or c.shape != (s,):
            raise ValueError(f"inconsistent tableau shapes for {s} stages")
        strictly_lower = all(a[j, q] == 0.0 for j in range(s) for q in range(j, s))
        if self.explicit != strictly_lower:
            raise ValueError("explicit flag does not match the coefficient structure")
        for name, arr in (("a", a), ("b", b), ("c", c)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "_lists", (a.tolist(), b.tolist(), c.tolist()))  # for the steppers
        if check:
            if abs(float(np.sum(b)) - 1.0) > TABLEAU_TOL:
                raise ValueError(f"weights must sum to 1, got {np.sum(b)!r}")
            row_gap = np.abs(c - a.sum(axis=1))
            if np.any(row_gap > TABLEAU_TOL):
                raise ValueError(
                    "row-sum consistency c_j = sum_q a_jq violated "
                    f"by {row_gap.max():.3e}"
                )


def _explicit(name: str, a_rows: list[list[float]], b: list[float]) -> ButcherTableau:
    """An explicit tableau from the rows of A below the diagonal; its nodes
    are A's row sums, c_j = sum_q a_jq, the rule construction checks."""
    s = len(b)
    a = np.zeros((s, s))
    for j, row in enumerate(a_rows):
        a[j, : len(row)] = row
    return ButcherTableau(stages=s, a=a, b=np.array(b), c=a.sum(axis=1), explicit=True, name=name)


#: The named schemes in roster order, with the classical order each must satisfy.
_ROSTER = (
    (2, _explicit("heun", [[], [1.0]], [0.5, 0.5])),
    (2, _explicit("rk2_ralston", [[], [2.0 / 3.0]], [0.25, 0.75])),
    (2, _explicit("rk2_midpoint", [[], [0.5]], [0.0, 1.0])),
    (3, _explicit("rk3_a", [[], [0.5], [0.0, 0.75]], [2.0 / 9.0, 3.0 / 9.0, 4.0 / 9.0])),
    (3, _explicit("rk3_kutta", [[], [0.5], [-1.0, 2.0]], [1.0 / 6.0, 4.0 / 6.0, 1.0 / 6.0])),
    (3, ButcherTableau(
        stages=2, a=np.array([[0.25, 0.25 - GAUSS2_GAMMA], [0.25 + GAUSS2_GAMMA, 0.25]]),
        b=np.array([0.5, 0.5]), c=np.array([0.5 - GAUSS2_GAMMA, 0.5 + GAUSS2_GAMMA]),
        explicit=False, name="gauss2",
    )),
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
