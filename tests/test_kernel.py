"""Differential tests of the affine-step kernel in ``integrate`` against a
scalar oracle written here over the public step functions.

Where the kernel runs, its values may differ from the oracle's by
rounding only: |y_i - oracle_i| <= C * N * 2^-52 * max(1, max|oracle|)
with C = ULP_FACTOR = 4 (the largest ratio seen over 60,000 random
configurations with N <= 2^5 was 1.75, and it falls with N).  Every
run the kernel must not take (a blow-up, an expansive step, a singular
Gauss system, coefficients that reject arrays) must reproduce the oracle
bit for bit, exception class and ``step N`` message included.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shishkin_ivp import (
    GAUSS2_GAMMA,
    Problem,
    SCHEME_NAMES,
    ShishkinParams,
    SingularStepError,
    StageEvaluationError,
    Trajectory,
    build_from_sigma,
    build_shishkin_mesh,
    build_uniform_mesh,
    exact_eval,
    explicit_rk_step,
    gauss2_linear_step,
    integrate,
    make_builtin,
    max_error,
    named_tableau,
)

ULP_FACTOR = 4.0


def scalar_step(scheme, problem):
    if scheme == "gauss2":
        return lambda x, y, h: gauss2_linear_step(problem, x, y, h)
    tableau = named_tableau(scheme)
    return lambda x, y, h: explicit_rk_step(tableau, problem, x, y, h)


def oracle(scheme, problem, mesh):
    """One public scalar step per interval, failures renamed as
    ``integrate`` renames them."""
    step = scalar_step(scheme, problem)
    y = float(problem.y0)
    values = [y]
    for i, (x, h) in enumerate(zip(mesh.nodes.tolist(), mesh.widths.tolist())):
        try:
            y = step(x, y, h)
        except (StageEvaluationError, SingularStepError) as exc:
            raise type(exc)(f"step {i} failed: {exc}") from exc
        values.append(y)
    return np.array(values)


def amplification(scheme, problem, mesh):
    """max_i |1 + D_i|, measured as step(x_i, 1, h_i) - step(x_i, 0, h_i)."""
    step = scalar_step(scheme, problem)
    worst = 0.0
    for x, h in zip(mesh.nodes.tolist(), mesh.widths.tolist()):
        try:
            worst = max(worst, abs(step(x, 1.0, h) - step(x, 0.0, h)))
        except ArithmeticError:
            return math.inf
    return worst


def ulp_bound(expected):
    n = len(expected) - 1
    return ULP_FACTOR * n * 2.0**-52 * max(1.0, float(np.abs(expected).max()))


def check_against_oracle(scheme, problem, mesh):
    """Assert the differential contract; return how the run ended."""
    try:
        expected = oracle(scheme, problem, mesh)
    except ArithmeticError as exc:
        with pytest.raises(type(exc)) as raised:
            integrate(scheme, problem, mesh)
        assert str(raised.value) == str(exc)
        return "raised"
    got = integrate(scheme, problem, mesh).values
    if np.array_equal(got, expected):
        return "identical"
    # The values differ, so the kernel ran: the run must be non-expansive
    # and the difference rounding-sized.
    assert amplification(scheme, problem, mesh) <= 1.0 + 1e-12
    assert np.abs(got - expected).max() <= ulp_bound(expected)
    return "kernel"


def mesh_for(kind, n, eps):
    if kind == "shishkin":
        return build_shishkin_mesh(ShishkinParams(n_intervals=n, epsilon=eps))
    return build_uniform_mesh(n)


@pytest.mark.parametrize("kind", ["shishkin", "uniform"])
@pytest.mark.parametrize("name", ["decay", "layer1"])
@pytest.mark.parametrize("scheme", SCHEME_NAMES)
def test_matrix_against_oracle(scheme, name, kind):
    for eps in (1.0, 2.0**-8, 2.0**-30):
        problem = make_builtin(name, eps)
        for n in (2**4, 2**9, 2**14):
            check_against_oracle(scheme, problem, mesh_for(kind, n, eps))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    scheme=st.sampled_from(SCHEME_NAMES),
    name=st.sampled_from(["decay", "layer1"]),
    kind=st.sampled_from(["shishkin", "uniform"]),
    log2_eps=st.floats(min_value=-40.0, max_value=0.0),
    k=st.integers(min_value=2, max_value=10),
)
def test_property_kernel_agrees_or_both_raise(scheme, name, kind, log2_eps, k):
    eps = 2.0**log2_eps
    check_against_oracle(scheme, make_builtin(name, eps), mesh_for(kind, 2**k, eps))


class TestGate:
    def test_blowup_is_the_oracle_failure(self):
        """heun on a stiff uniform mesh: class and step as the oracle's."""
        problem = make_builtin("layer1", 2.0**-30)
        assert check_against_oracle("heun", problem, build_uniform_mesh(64)) == "raised"

    def test_expansive_run_is_bit_identical(self):
        """heun on eps*y' = -y with h/eps = 4 amplifies by 1 - 4 + 8 = 5
        per step without overflowing."""
        problem = make_builtin("decay", 2.0**-4)
        mesh = build_uniform_mesh(4)
        assert amplification("heun", problem, mesh) == pytest.approx(5.0)
        values = integrate("heun", problem, mesh).values
        assert np.array_equal(values, oracle("heun", problem, mesh))
        assert values[-1] == pytest.approx(625.0)

    def test_singular_gauss_system_is_the_oracle_failure(self):
        """p interpolating (4/h, 0) at the stage abscissae of the first
        interval zeroes the Gauss determinant there."""
        h = 0.5
        s1, s2 = (0.5 - GAUSS2_GAMMA) * h, (0.5 + GAUSS2_GAMMA) * h

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
        mesh = build_uniform_mesh(2)
        assert check_against_oracle("gauss2", problem, mesh) == "raised"
        with pytest.raises(SingularStepError, match="step 0 failed"):
            integrate("gauss2", problem, mesh)

    def test_near_singular_gauss_system_with_zero_step_is_the_oracle_failure(self):
        """p = +-sqrt(12) at the two stage abscissae of h = 1 leaves a
        determinant of 2e-16 but an exactly zero numerator, so D = S = 0
        look harmless; the scalar step rejects the system as singular."""
        root12 = math.sqrt(12.0)

        def p(x):
            return np.where(np.asarray(x) < 0.5, root12, -root12)

        problem = Problem(
            epsilon=1.0,
            x0=0.0,
            y0=1.0,
            rhs=lambda x, y: float(p(x)) * y,
            linear=(p, lambda x: 0.0),
            label="near-singular",
        )
        mesh = build_uniform_mesh(1)
        assert check_against_oracle("gauss2", problem, mesh) == "raised"

    def test_overflow_in_a_zero_weight_stage_is_the_oracle_failure(self):
        """rk2_midpoint gives stage 1 weight 0, so D and S never see its
        slope p*y = 1e300 * 1e10, which overflows in the scalar step."""
        nodes = build_uniform_mesh(4).nodes

        def p(x):
            return np.where(np.isin(x, nodes), 1e300, 0.0)

        problem = Problem(
            epsilon=1.0,
            x0=0.0,
            y0=1e10,
            rhs=lambda x, y: float(p(x)) * y,
            linear=(p, lambda x: 0.0),
            label="hidden-overflow",
        )
        mesh = build_uniform_mesh(4)
        assert check_against_oracle("rk2_midpoint", problem, mesh) == "raised"

    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    def test_math_exp_coefficients_fall_back(self, scheme):
        """Coefficients built on math.exp reject arrays (TypeError), so the
        scalar driver runs and the result is the oracle's exactly."""
        eps = 2.0**-6
        builtin = make_builtin("layer1", eps)

        def q(x):
            e = math.exp(-x / eps)
            return (eps + e + x * (x - e + 1.0)) / eps

        problem = Problem(
            epsilon=eps,
            x0=0.0,
            y0=0.0,
            rhs=builtin.rhs,
            linear=(lambda x: -x / eps, q),
            exact=builtin.exact,
            label="math-exp",
        )
        mesh = mesh_for("shishkin", 2**9, eps)
        expected = oracle(scheme, problem, mesh)
        assert np.array_equal(integrate(scheme, problem, mesh).values, expected)

    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    def test_constant_coefficients_take_the_kernel(self, scheme):
        """Constant lambdas return floats, which are broadcast: the kernel
        runs (p sees an array) and agrees with the oracle."""
        seen = []

        def p(x):
            seen.append(isinstance(x, np.ndarray))
            return -3.0

        problem = Problem(
            epsilon=1.0,
            x0=0.0,
            y0=2.0,
            rhs=lambda x, y: -3.0 * y + 1.5,
            linear=(p, lambda x: 1.5),
            label="const",
        )
        mesh = build_from_sigma(2**10, 0.5, 0.1)
        seen.clear()
        got = integrate(scheme, problem, mesh).values
        assert any(seen)
        expected = oracle(scheme, problem, mesh)
        assert np.abs(got - expected).max() <= ulp_bound(expected)

    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    def test_stationary_solution_exact(self, scheme):
        """y' = -y + 1 from y = 1: the increment form keeps every node at 1."""
        problem = Problem(
            epsilon=1.0,
            x0=0.0,
            y0=1.0,
            rhs=lambda x, y: -y + 1.0,
            linear=(lambda x: -1.0, lambda x: 1.0),
            label="stationary",
        )
        values = integrate(scheme, problem, build_from_sigma(5000, 0.5, 0.2)).values
        assert np.all(values == 1.0)

    def test_out_of_domain_mesh_falls_back(self):
        """A mesh whose interior leaves the domain is the scalar driver's to
        reject, with its ValueError."""
        nodes = np.array([0.0, 1.5, 1.0])
        mesh = build_uniform_mesh(2)
        bad = type(mesh)(nodes=nodes, widths=np.array([1.5, -0.5]), kind="uniform")
        with pytest.raises(ValueError, match="leaves the domain"):
            integrate("heun", make_builtin("decay", 1.0), bad)


class TestMaxError:
    def test_blocked_equals_pointwise(self):
        """Across block boundaries the vectorised error is the pointwise
        maximum exactly."""
        problem = make_builtin("layer1", 2.0**-8)
        mesh = mesh_for("shishkin", 10_000, 2.0**-8)
        trajectory = integrate("heun", problem, mesh)
        pointwise = max(
            abs(exact_eval(problem, x) - y)
            for x, y in zip(mesh.nodes.tolist(), trajectory.values.tolist())
        )
        assert max_error(trajectory, problem) == pointwise

    def test_scalar_only_exact_is_evaluated_pointwise(self):
        mesh = build_uniform_mesh(8)
        problem = Problem(
            epsilon=1.0,
            x0=0.0,
            y0=1.0,
            rhs=lambda x, y: -y,
            exact=lambda x: math.exp(-x),
            label="math-exact",
        )
        values = np.exp(-mesh.nodes) + 1e-3 * mesh.nodes
        trajectory = Trajectory(mesh=mesh, values=values, scheme_id="s", problem_id="p")
        assert max_error(trajectory, problem) == pytest.approx(1e-3, rel=1e-9)
