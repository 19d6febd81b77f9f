"""Tests for the named Butcher tableaux and the order-condition checker."""

import math

import numpy as np
import pytest

from shishkin_ivp import (
    GAUSS2_GAMMA,
    NOMINAL_ORDER,
    SCHEME_NAMES,
    ButcherTableau,
    explicit_rk_step,
    make_builtin,
    named_tableau,
    verify_order_conditions,
)
from shishkin_ivp.tableaux import EXPLICIT_SCHEMES

TWO_STAGE = ("heun", "rk2_ralston", "rk2_midpoint")


class TestNamedTableaux:
    def test_heun_coefficients(self):
        t = named_tableau("heun")
        assert t.b.tolist() == [0.5, 0.5]
        assert t.c.tolist() == [0.0, 1.0]
        assert t.a[1, 0] == 1.0
        assert t.explicit

    def test_ralston_coefficients(self):
        t = named_tableau("rk2_ralston")
        assert t.b.tolist() == [0.25, 0.75]
        assert t.c[1] == 2.0 / 3.0
        assert t.a[1, 0] == 2.0 / 3.0

    def test_midpoint_coefficients(self):
        t = named_tableau("rk2_midpoint")
        assert t.b.tolist() == [0.0, 1.0]
        assert t.c[1] == 0.5
        assert t.a[1, 0] == 0.5

    def test_rk3_a_coefficients(self):
        t = named_tableau("rk3_a")
        assert t.b.tolist() == [2.0 / 9.0, 3.0 / 9.0, 4.0 / 9.0]
        assert t.c.tolist() == [0.0, 0.5, 0.75]
        assert t.a[1, 0] == 0.5
        assert t.a[2, 0] == 0.0
        assert t.a[2, 1] == 0.75

    def test_kutta_coefficients(self):
        """Weights (1, 4, 1)/6 with the characteristic -k1 + 2k2 stage."""
        t = named_tableau("rk3_kutta")
        assert t.b.tolist() == [1.0 / 6.0, 4.0 / 6.0, 1.0 / 6.0]
        assert t.c.tolist() == [0.0, 0.5, 1.0]
        assert t.a[2, 0] == -1.0
        assert t.a[2, 1] == 2.0

    def test_gauss2_coefficients(self):
        t = named_tableau("gauss2")
        g = math.sqrt(3.0) / 6.0
        assert GAUSS2_GAMMA == g
        assert t.c.tolist() == [0.5 - g, 0.5 + g]
        assert t.b.tolist() == [0.5, 0.5]
        assert t.a[0, 0] == 0.25
        assert t.a[0, 1] == 0.25 - g
        assert t.a[1, 0] == 0.25 + g
        assert t.a[1, 1] == 0.25
        assert not t.explicit

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            named_tableau("rk4")


    def test_roster(self):
        """The schemes, their order, which are explicit and the classical
        order each must satisfy."""
        explicit = ("heun", "rk2_ralston", "rk2_midpoint", "rk3_a", "rk3_kutta")
        assert SCHEME_NAMES == explicit + ("gauss2",)
        assert EXPLICIT_SCHEMES == explicit
        assert EXPLICIT_SCHEMES == tuple(
            name for name in SCHEME_NAMES if named_tableau(name).explicit
        )
        assert list(NOMINAL_ORDER.items()) == [
            ("heun", 2), ("rk2_ralston", 2), ("rk2_midpoint", 2),
            ("rk3_a", 3), ("rk3_kutta", 3), ("gauss2", 3),
        ]


class TestInvariants:
    @pytest.mark.parametrize("name", SCHEME_NAMES)
    def test_weights_sum_to_one(self, name):
        assert abs(float(np.sum(named_tableau(name).b)) - 1.0) <= 1e-15

    @pytest.mark.parametrize("name", SCHEME_NAMES)
    def test_row_sums_exact(self, name):
        t = named_tableau(name)
        assert np.array_equal(t.c, t.a.sum(axis=1))

    @pytest.mark.parametrize("name", SCHEME_NAMES)
    def test_nominal_order_conditions(self, name):
        report = verify_order_conditions(named_tableau(name), NOMINAL_ORDER[name])
        assert all(cond.passed for cond in report)
        assert max(cond.residual for cond in report) <= 1e-14

    @pytest.mark.parametrize("name", TWO_STAGE)
    def test_two_stage_family_system(self, name):
        """b1 + b2 = 1, b2*c2 = 1/2, b2*a21 = 1/2."""
        t = named_tableau(name)
        assert t.b[0] + t.b[1] == 1.0
        assert t.b[1] * t.c[1] == 0.5
        assert t.b[1] * t.a[1, 0] == 0.5

    def test_coefficients_read_only(self):
        t = named_tableau("heun")
        with pytest.raises(ValueError):
            t.b[0] = 0.6


class TestVerifyOrderConditions:
    def test_heun_order_two_report(self):
        report = verify_order_conditions(named_tableau("heun"), 2)
        assert [cond.label for cond in report] == ["sum(b) = 1", "sum(b*c) = 1/2"]
        assert all(cond.passed for cond in report)

    def test_gauss2_satisfies_order_three(self):
        report = verify_order_conditions(named_tableau("gauss2"), 3)
        assert len(report) == 4
        assert all(cond.passed for cond in report)

    def test_second_order_scheme_fails_third_order(self):
        """heun is consistent but only second order: sum(b*c^2) = 1/2 and
        sum(b*(A@c)) = 0 each miss their third-order value by 1/6."""
        report = verify_order_conditions(named_tableau("heun"), 3)
        assert [cond.passed for cond in report] == [True, True, False, False]
        assert report[2].residual == pytest.approx(1.0 / 6.0, rel=1e-12)
        assert report[3].residual == pytest.approx(1.0 / 6.0, rel=1e-12)

    def test_order_out_of_range(self):
        with pytest.raises(ValueError):
            verify_order_conditions(named_tableau("heun"), 4)


class TestConstruction:
    #: Each named scheme's stages, nodes and explicit flag as given before
    #: they were derived from A, to the bit.
    DECLARED = {
        "heun": (2, [0.0, 1.0], True),
        "rk2_ralston": (2, [0.0, 0.6666666666666666], True),
        "rk2_midpoint": (2, [0.0, 0.5], True),
        "rk3_a": (3, [0.0, 0.5, 0.75], True),
        "rk3_kutta": (3, [0.0, 0.5, 1.0], True),
        "gauss2": (2, [0.21132486540518713, 0.7886751345948129], False),
    }

    @pytest.mark.parametrize("name", SCHEME_NAMES)
    def test_derived_fields_are_the_declared_ones(self, name):
        t = named_tableau(name)
        stages, c, explicit = self.DECLARED[name]
        assert (t.stages, t.c.tolist(), t.explicit) == (stages, c, explicit)
        assert t._lists == (t.a.tolist(), t.b.tolist(), c)

    def test_implicit_midpoint(self):
        t = ButcherTableau(a=[[0.5]], b=[1.0])
        assert t.stages == 1
        assert t.c.tolist() == [0.5]
        assert t.explicit is False
        with pytest.raises(ValueError, match="implicit"):
            explicit_rk_step(t, make_builtin("decay", 1.0), 0.0, 1.0, 0.5)

    def test_strictly_lower_three_stage_is_explicit(self):
        t = ButcherTableau(a=[[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [-1.0, 2.0, 0.0]],
                           b=[1.0 / 6.0, 4.0 / 6.0, 1.0 / 6.0])
        assert t.stages == 3
        assert t.c.tolist() == [0.0, 0.5, 1.0]
        assert t.explicit is True

    def test_checked_construction_rejects_bad_weights(self):
        with pytest.raises(ValueError, match="sum to 1"):
            ButcherTableau(a=np.array([[0.0, 0.0], [1.0, 0.0]]), b=np.array([0.6, 0.5]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shapes"):
            ButcherTableau(a=np.zeros((2, 2)), b=np.array([0.25, 0.25, 0.5]))

    @pytest.mark.parametrize("a, b", [
        ([[0.0, 0.0], [1.0, 0.0]], [[0.5, 0.5]]),
        ([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]], [0.5, 0.5]),
        ([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [0.5, 0.5]),
    ], ids=["b-2d", "a-3x2", "a-2x3"])
    def test_bad_shapes(self, a, b):
        with pytest.raises(ValueError, match="shapes"):
            ButcherTableau(a=a, b=b)
