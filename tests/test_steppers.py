"""Tests for the explicit driver, the closed-form Gauss step and integrate."""

import dataclasses
import math
import warnings
from functools import partial

import numpy as np
import pytest

from shishkin_ivp import (
    GAUSS2_GAMMA,
    ButcherTableau,
    Mesh,
    Problem,
    SingularStepError,
    StageEvaluationError,
    Trajectory,
    build_from_sigma,
    build_uniform_mesh,
    explicit_rk_step,
    gauss2_linear_step,
    integrate,
    make_builtin,
    named_tableau,
    rhs_eval,
)

TWO_STAGE = ("heun", "rk2_ralston", "rk2_midpoint")
THREE_STAGE = ("rk3_a", "rk3_kutta")


def constant_coefficient_problem(lam, q=0.0, y0=1.0):
    """y' = lam*y + q with the matching linear form."""
    return Problem(
        epsilon=1.0,
        x0=0.0,
        y0=y0,
        rhs=lambda x, y: lam * y + q,
        linear=(lambda x: lam, lambda x: q),
        label="const",
    )


def stability_poly2(z):
    """One step of any order-2 two-stage scheme on y' = lam*y."""
    return 1.0 + z + z * z / 2.0

def stability_poly3(z):
    return 1.0 + z + z * z / 2.0 + z**3 / 6.0

def gauss2_stability(z):
    """(1 + z/2 + z^2/12) / (1 - z/2 + z^2/12)."""
    return (1.0 + z / 2.0 + z * z / 12.0) / (1.0 - z / 2.0 + z * z / 12.0)


def heun_reference_step(f, x, y, h):
    """Textbook two-stage trapezoidal predictor-corrector."""
    k1 = f(x, y)
    k2 = f(x + h, y + h * k1)
    return y + 0.5 * h * (k1 + k2)


def rk3_a_reference_step(f, x, y, h):
    """Textbook (2k1 + 3k2 + 4k3)/9 three-stage scheme."""
    k1 = f(x, y)
    k2 = f(x + 0.5 * h, y + 0.5 * h * k1)
    k3 = f(x + 0.75 * h, y + 0.75 * h * k2)
    return y + h / 9.0 * (2.0 * k1 + 3.0 * k2 + 4.0 * k3)


class TestExplicitStep:
    def test_heun_decay_hand_values(self):
        """k1 = -1, k2 = -0.9, update 1 - 0.05*1.9."""
        problem = make_builtin("decay", 1.0)
        got = explicit_rk_step(named_tableau("heun"), problem, 0.0, 1.0, 0.1)
        assert got == pytest.approx(0.905, rel=1e-15)

    def test_midpoint_matches_heun_on_linear(self):
        """All order-2 two-stage schemes share 1 + z + z^2/2 on y' = -y."""
        problem = make_builtin("decay", 1.0)
        got = explicit_rk_step(named_tableau("rk2_midpoint"), problem, 0.0, 1.0, 0.1)
        assert got == pytest.approx(0.905, rel=1e-15)

    def test_rk3_hand_value(self):
        """1 - h + h^2/2 - h^3/6 at h = 0.1."""
        problem = make_builtin("decay", 1.0)
        got = explicit_rk_step(named_tableau("rk3_a"), problem, 0.0, 1.0, 0.1)
        assert got == pytest.approx(1.0 - 0.1 + 0.005 - 0.001 / 6.0, rel=1e-15)

    def test_stationary_point_preserved(self):
        """y' = -y + 1 has fixed point 1; every stage slope is exactly 0."""
        problem = constant_coefficient_problem(-1.0, q=1.0)
        for name in TWO_STAGE + THREE_STAGE:
            got = explicit_rk_step(named_tableau(name), problem, 0.2, 1.0, 0.3)
            assert got == 1.0

    def test_rejects_implicit_tableau(self):
        problem = make_builtin("decay", 1.0)
        with pytest.raises(ValueError, match="implicit"):
            explicit_rk_step(named_tableau("gauss2"), problem, 0.0, 1.0, 0.1)

    def test_rejects_nonpositive_step(self):
        problem = make_builtin("decay", 1.0)
        with pytest.raises(ValueError, match="positive"):
            explicit_rk_step(named_tableau("heun"), problem, 0.0, 1.0, 0.0)

    def test_rejects_step_leaving_domain(self):
        problem = make_builtin("decay", 1.0)
        with pytest.raises(ValueError, match="domain"):
            explicit_rk_step(named_tableau("heun"), problem, 0.9, 1.0, 0.2)
        with pytest.raises(ValueError) as raised:
            explicit_rk_step(
                named_tableau("heun"), problem, np.float64(0.9), 1.0, np.float64(0.2)
            )
        assert str(raised.value) == "step from x=0.9 with h=0.2 leaves the domain [0.0, 1.0]"

    def test_non_finite_stage_identified(self):
        exploding = Problem(
            epsilon=1.0,
            x0=0.0,
            y0=1.0,
            rhs=lambda x, y: math.inf if y > 1.5 else 10.0,
            label="explode",
        )
        with pytest.raises(StageEvaluationError, match="stage 2"):
            explicit_rk_step(named_tableau("heun"), exploding, 0.0, 1.0, 0.1)


class TestStabilityIdentities:
    @pytest.mark.parametrize("z", [-0.5, -0.1, 0.1])
    @pytest.mark.parametrize("name", TWO_STAGE)
    def test_two_stage_polynomial(self, name, z):
        problem = constant_coefficient_problem(z)
        got = explicit_rk_step(named_tableau(name), problem, 0.0, 1.0, 1.0)
        expected = stability_poly2(z)
        assert abs(got - expected) <= 1e-15 * abs(expected)

    @pytest.mark.parametrize("z", [-0.5, -0.1, 0.1])
    @pytest.mark.parametrize("name", THREE_STAGE)
    def test_three_stage_polynomial(self, name, z):
        problem = constant_coefficient_problem(z)
        got = explicit_rk_step(named_tableau(name), problem, 0.0, 1.0, 1.0)
        expected = stability_poly3(z)
        assert abs(got - expected) <= 1e-15 * abs(expected)

    @pytest.mark.parametrize("z", [-0.5, -0.1, 0.1])
    def test_gauss2_rational_factor(self, z):
        problem = constant_coefficient_problem(z)
        got = gauss2_linear_step(problem, 0.0, 1.0, 1.0)
        expected = gauss2_stability(z)
        assert abs(got - expected) <= 1e-13 * abs(expected)


class TestGauss2Step:
    def test_decay_single_step(self):
        """Equals the rational stability factor at z = -0.1."""
        problem = make_builtin("decay", 1.0)
        got = gauss2_linear_step(problem, 0.0, 1.0, 0.1)
        assert got == pytest.approx(gauss2_stability(-0.1), rel=1e-14)
        assert got == pytest.approx(0.9048374306106265, rel=1e-14)

    def test_pure_quadrature(self):
        """p = 0 collapses the step to y + h*q."""
        problem = constant_coefficient_problem(0.0, q=1.0, y0=2.0)
        assert gauss2_linear_step(problem, 0.0, 2.0, 0.1) == pytest.approx(
            2.1, rel=1e-15
        )

    def test_zero_step_rejected(self):
        """h = 0 is rejected with explicit_rk_step's ValueError."""
        problem = make_builtin("decay", 0.25)
        for step in gauss2_linear_step, partial(explicit_rk_step, named_tableau("heun")):
            with pytest.raises(ValueError) as raised:
                step(problem, 0.3, 0.7, 0.0)
            assert str(raised.value) == "step size must be positive, got 0.0"

    def test_negative_step_rejected(self):
        """A negative or nan h fails the same rule, with the same message."""
        problem = make_builtin("decay", 0.25)
        for h in -0.1, math.nan:
            with pytest.raises(ValueError) as raised:
                gauss2_linear_step(problem, 0.3, 0.7, h)
            assert str(raised.value) == f"step size must be positive, got {h}"

    @pytest.mark.parametrize(
        "x, h",
        [(5.0, 0.5), (0.9, 0.2), (-0.5, 0.2),
         pytest.param(np.float64(0.9), np.float64(0.2), id="float64")],
    )
    def test_rejects_step_leaving_domain(self, x, h):
        """The same ValueError as explicit_rk_step's, before p or q is
        evaluated outside [0, 1]."""
        problem = make_builtin("layer1", 0.5)
        message = f"step from x={x} with h={h} leaves the domain [0.0, 1.0]"
        with pytest.raises(ValueError) as raised:
            gauss2_linear_step(problem, x, 1.0, h)
        assert str(raised.value) == message
        with pytest.raises(ValueError) as raised:
            explicit_rk_step(named_tableau("heun"), problem, x, 1.0, h)
        assert str(raised.value) == message

    def test_requires_linear_form(self):
        plain = Problem(
            epsilon=1.0, x0=0.0, y0=1.0, rhs=lambda x, y: -y * y, label="sq"
        )
        with pytest.raises(ValueError, match="no linear form"):
            gauss2_linear_step(plain, 0.0, 1.0, 0.1)

    def test_singular_stage_system(self):
        """p interpolating (4/h, 0) at the stage abscissae zeroes D."""
        h = 0.5
        g = GAUSS2_GAMMA
        s1, s2 = (0.5 - g) * h, (0.5 + g) * h

        def p(x):
            return (4.0 / h) * (x - s2) / (s1 - s2)

        problem = Problem(
            epsilon=1.0,
            x0=0.0,
            y0=1.0,
            rhs=lambda x, y: p(x) * y,
            linear=(p, lambda x: 0.0),
            label="singular",
        )
        with pytest.raises(SingularStepError, match="x=0.0"):
            gauss2_linear_step(problem, 0.0, 1.0, h)

    @pytest.mark.parametrize("log2_eps", [-1074, -1030])
    def test_overflowing_coefficient_is_the_step_error(self, log2_eps):
        """layer1's numpy q overflows at eps < 2^-1023; called directly,
        the step raises its own error, not numpy's RuntimeWarning, also
        when warnings are errors."""
        problem = make_builtin("layer1", 2.0**log2_eps)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(StageEvaluationError) as raised:
                gauss2_linear_step(problem, 0.0, 0.0, 0.5)
        assert str(raised.value) == "non-finite Gauss step result at x=0.0, h=0.5"


class TestDriverAgainstReferenceSteps:
    def test_heun_and_rk3_match_hand_coded(self):
        """Generic driver agrees with the written-out formulas to 1e-15."""
        rng = np.random.default_rng(0)
        heun = named_tableau("heun")
        rk3 = named_tableau("rk3_a")
        for name in ("decay", "layer1"):
            problem = make_builtin(name, 0.25)
            f = lambda x, y: rhs_eval(problem, x, y)
            for _ in range(1000):
                x = rng.uniform(0.0, 0.9)
                h = rng.uniform(1e-6, 0.05)
                y = rng.uniform(0.2, 2.0)
                if name == "decay" and rng.random() < 0.5:
                    y = -y
                a = explicit_rk_step(heun, problem, x, y, h)
                b = heun_reference_step(f, x, y, h)
                assert abs(a - b) <= 1e-15 * max(abs(a), abs(b))
                a = explicit_rk_step(rk3, problem, x, y, h)
                b = rk3_a_reference_step(f, x, y, h)
                assert abs(a - b) <= 1e-15 * max(abs(a), abs(b))


class TestIntegrate:
    def test_gauss2_decay_matches_power_oracle(self):
        """N equal steps on y' = -y multiply y0 by R(-h)^N."""
        problem = make_builtin("decay", 1.0)
        mesh = build_uniform_mesh(10)
        trajectory = integrate("gauss2", problem, mesh)
        oracle = 1.0
        for _ in range(10):
            oracle *= gauss2_stability(-0.1)
        assert trajectory.values[-1] == pytest.approx(oracle, rel=1e-13)
        assert trajectory.values[0] == 1.0

    def test_stationary_solution_preserved(self):
        problem = constant_coefficient_problem(-1.0, q=1.0)
        mesh = build_from_sigma(8, 0.5, 0.2)
        trajectory = integrate("heun", problem, mesh)
        assert np.all(trajectory.values == 1.0)

    def test_trajectory_needs_one_value_per_node(self):
        mesh = build_uniform_mesh(8)
        with pytest.raises(ValueError, match="one value per mesh node required"):
            Trajectory(mesh=mesh, values=np.zeros(8), scheme_id="heun", problem_id="p")

    @pytest.mark.parametrize("cls, field", [(ButcherTableau, "name"), (Mesh, "kind"), (Trajectory, "scheme_id")])
    def test_array_holders_compare_by_identity(self, cls, field):
        """Equal but distinct instances of a dataclass that holds arrays
        compare unequal, where comparing their arrays would raise; each
        equals itself, hashes, and dataclasses.replace still makes one."""
        mesh = build_uniform_mesh(4)
        make = {
            ButcherTableau: lambda: ButcherTableau([[0.0, 0.0], [1.0, 0.0]], [0.5, 0.5], "heun"),
            Mesh: lambda: Mesh(nodes=mesh.nodes.copy(), widths=mesh.widths.copy(), kind="uniform"),
            Trajectory: lambda: Trajectory(mesh=mesh, values=np.zeros(5), scheme_id="heun", problem_id="p"),
        }[cls]
        first, second = make(), make()
        assert first == first and not first != first
        assert first != second and not first == second
        assert first in [second, first] and first not in [second]
        assert len({first, second, first}) == 2
        renamed = dataclasses.replace(first, **{field: "renamed"})
        assert type(renamed) is cls and getattr(renamed, field) == "renamed"
        assert renamed != first

    def test_trajectory_metadata(self):
        problem = make_builtin("layer1", 0.25)
        mesh = build_uniform_mesh(8)
        trajectory = integrate("rk3_kutta", problem, mesh)
        assert trajectory.scheme_id == "rk3_kutta"
        assert "layer1" in trajectory.problem_id
        assert len(trajectory.values) == len(mesh.nodes)

    def test_one_step_per_interval_within_domain(self):
        """Exactly N first-stage evaluations, all inside [x0, a] + slack."""
        calls = []
        base = make_builtin("decay", 0.5)

        def recording_rhs(x, y):
            calls.append(x)
            return base.rhs(x, y)

        problem = Problem(
            epsilon=0.5,
            x0=0.0,
            y0=1.0,
            rhs=recording_rhs,
            exact=base.exact,
            label="recorded",
        )
        mesh = build_from_sigma(16, 0.5, 0.31)
        integrate("heun", problem, mesh)
        assert len(calls) == 2 * 16  # two stages per interval
        assert min(calls) >= -1e-12
        assert max(calls) <= 1.0 + 1e-12

    def test_domain_mismatch(self):
        problem = make_builtin("decay", 1.0)
        mesh = build_uniform_mesh(4, (0.0, 2.0))
        with pytest.raises(ValueError, match="domain"):
            integrate("heun", problem, mesh)

    def test_gauss2_needs_linear_problem(self):
        plain = Problem(
            epsilon=1.0, x0=0.0, y0=1.0, rhs=lambda x, y: -y * y, label="sq"
        )
        with pytest.raises(ValueError, match="no linear form"):
            integrate("gauss2", plain, build_uniform_mesh(4))

    def test_blowup_reports_failing_step(self):
        """Explicit scheme on a strongly stiff uniform grid overflows."""
        problem = make_builtin("layer1", 2.0**-30)
        mesh = build_uniform_mesh(64)
        with pytest.raises(StageEvaluationError, match=r"step \d+"):
            integrate("heun", problem, mesh)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            integrate("rk9", make_builtin("decay", 1.0), build_uniform_mesh(4))
