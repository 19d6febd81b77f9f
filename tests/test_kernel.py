"""Differential tests of ``integrate`` against a scalar oracle written
here over the public step functions.

Where the affine-step kernel runs, its values may differ from the
oracle's by rounding only: |y_i - oracle_i| <= C * N * 2^-52 *
max(1, max|oracle|) with C = ULP_FACTOR = 4 (the largest ratio seen over
60,000 random configurations with N <= 2^5 was 1.75, and it falls with
N).  Every run the kernel must not take (a mesh of fewer than
KERNEL_MIN_INTERVALS intervals, a nonlinear problem, a blow-up,
an expansive step, a singular Gauss system, coefficients that reject
arrays) goes through the scalar driver and must reproduce the oracle bit
for bit, exception class and ``step N`` message included; a run that
ends with finite values must also pass ``rhs`` the same arguments, in the
same order.
"""

import copy
import dataclasses
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from shishkin_ivp import (
    GAUSS2_GAMMA,
    Mesh,
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
    run_sweep,
)
from shishkin_ivp import convergence, steppers
from shishkin_ivp.mesh import inconsistent_widths, width_tolerance
from shishkin_ivp.problems import _unchecked, array_eval, domain_bounds
from shishkin_ivp.steppers import KERNEL_BLOCK, KERNEL_MIN_INTERVALS, scan_width
from shishkin_ivp.tableaux import EXPLICIT_SCHEMES

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
    # As in integrate's scalar driver, a numpy coefficient that overflows
    # surfaces as the step's error, not as a warning.
    with np.errstate(all="ignore"):
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


def kernel_values(scheme, problem, mesh):
    """The kernel's own verdict on a run, whatever the mesh size: its node
    values, or None where its gate rejects the run."""
    return steppers._affine_integrate(named_tableau(scheme), problem, mesh)


def mesh_for(kind, n, eps):
    if kind == "shishkin":
        return build_shishkin_mesh(ShishkinParams(n_intervals=n, epsilon=eps))
    return build_uniform_mesh(n)


def set_block(monkeypatch, size):
    """KERNEL_BLOCK = size for integrate and for max_error, which imports
    the name."""
    for module in (steppers, convergence):
        monkeypatch.setattr(module, "KERNEL_BLOCK", size)


#: The block size that the tests using small_blocks run at: the values do
#: not depend on it (TestBlockSize), and their meshes, which straddle a
#: block edge, and the ids pytest gives them stay put when KERNEL_BLOCK
#: moves.
TEST_BLOCK = 4096


@pytest.fixture
def small_blocks(monkeypatch):
    set_block(monkeypatch, TEST_BLOCK)


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


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    scheme=st.sampled_from(SCHEME_NAMES),
    name=st.sampled_from(["decay", "layer1"]),
    kind=st.sampled_from(["shishkin", "uniform"]),
    log2_eps=st.floats(min_value=-1074.0, max_value=0.0),
    k=st.integers(min_value=2, max_value=12),
)
@example(scheme="gauss2", name="decay", kind="uniform", log2_eps=-1000.0, k=2)
@example(scheme="gauss2", name="decay", kind="uniform", log2_eps=-999.0, k=2)
@example(scheme="gauss2", name="layer1", kind="uniform", log2_eps=-1000.0, k=12)
@example(scheme="gauss2", name="layer1", kind="shishkin", log2_eps=-1000.0, k=12)
@example(scheme="heun", name="decay", kind="shishkin", log2_eps=-1074.0, k=12)
@example(scheme="rk3_a", name="layer1", kind="shishkin", log2_eps=-1074.0, k=2)
@example(scheme="gauss2", name="layer1", kind="uniform", log2_eps=-1074.0, k=2)
@example(scheme="gauss2", name="layer1", kind="shishkin", log2_eps=-1030.0, k=4)
def test_property_extreme_eps_ends_in_one_known_way(scheme, name, kind, log2_eps, k):
    """Over every eps the CLI accepts, down to 2^-1074, a run ends in a
    usage error at construction, in finite values that agree with the
    oracle, or in the oracle's own numerical error; nothing else escapes.
    Near eps = 2^-1000 the coefficients reach |p| ~ 2^1000, where the
    kernel's headroom gate decides."""
    eps = 2.0**log2_eps
    try:
        problem, mesh = make_builtin(name, eps), mesh_for(kind, 2**k, eps)
    except ValueError:
        return
    if check_against_oracle(scheme, problem, mesh) != "raised":
        assert np.isfinite(integrate(scheme, problem, mesh).values).all()


def array_calls_counted(problem, counts):
    """``problem`` with p and q counting, under their names, the calls
    that pass them an array."""

    def counted(name, fn):
        def callback(x):
            if np.ndim(x):
                counts.append(name)
            return fn(x)

        return callback

    p, q = problem.linear
    return dataclasses.replace(problem, linear=(counted("p", p), counted("q", q)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    scheme=st.sampled_from(SCHEME_NAMES),
    name=st.sampled_from(["decay", "layer1"]),
    kind=st.sampled_from(["shishkin", "uniform"]),
    log2_eps=st.floats(min_value=-40.0, max_value=0.0),
    n=st.integers(min_value=1, max_value=KERNEL_MIN_INTERVALS - 1),
)
def test_property_small_meshes_are_the_oracle(scheme, name, kind, log2_eps, n):
    """Below KERNEL_MIN_INTERVALS integrate is the per-step oracle bit for
    bit, or raises its exact error.  The explicit schemes never call p or
    q on an array; gauss2 does so once each, with the pair trusted, and
    not at all with an untrusted copy (check_bit_identical runs both)."""
    assume(kind == "uniform" or (n >= 4 and n % 2 == 0))
    eps = 2.0**log2_eps
    counts = []
    problem = array_calls_counted(make_builtin(name, eps), counts)
    check_bit_identical(scheme, problem, mesh_for(kind, n, eps))
    assert counts == (["p", "q"] if scheme == "gauss2" else [])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data(), scheme=st.sampled_from(SCHEME_NAMES), n=st.integers(1, 40))
def test_property_mesh_rejects_exactly_the_inconsistent_widths(data, scheme, n):
    """Random nodes on [0, 1], each width its node difference except at up
    to three intervals, moved by 0.5 to 2 times width_tolerance either way:
    Mesh(...) raises exactly when inconsistent_widths flags an index, and
    names the first.  Every mesh it accepts integrates as the per-step
    oracle does on the same widths, bit for bit, or raises its exact error
    (a width moved below a tiny node difference is negative)."""
    inner = data.draw(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                               min_size=n - 1, max_size=n - 1, unique=True))
    nodes = np.array([0.0, *sorted(inner), 1.0])
    widths = np.diff(nodes)
    for i in data.draw(st.sets(st.integers(0, n - 1), max_size=3)):
        sign = data.draw(st.sampled_from([-1.0, 1.0]))
        widths[i] += sign * data.draw(st.floats(0.5, 2.0)) * width_tolerance(nodes)
    flagged = inconsistent_widths(nodes, widths)
    if flagged:
        with pytest.raises(ValueError, match=f"^mesh width .* at index {flagged[0]}$"):
            Mesh(nodes=nodes, widths=widths, kind="uniform")
        return
    mesh = Mesh(nodes=nodes, widths=widths, kind="uniform")
    check_bit_identical(scheme, make_builtin("layer1", 2.0**-4), mesh)


@pytest.mark.parametrize("scheme", SCHEME_NAMES)
def test_kernel_runs_from_the_minimum_mesh_size(scheme, monkeypatch):
    """integrate tries the kernel on KERNEL_MIN_INTERVALS intervals, and
    not on one fewer."""
    tried = []
    kernel = steppers._affine_integrate

    def spy(tableau, problem, mesh):
        tried.append(mesh.n_intervals)
        return kernel(tableau, problem, mesh)

    monkeypatch.setattr(steppers, "_affine_integrate", spy)
    problem = make_builtin("layer1", 2.0**-4)
    for n in KERNEL_MIN_INTERVALS - 1, KERNEL_MIN_INTERVALS:
        integrate(scheme, problem, build_uniform_mesh(n))
    assert tried == [KERNEL_MIN_INTERVALS]


class TestGate:
    #: D values at the edges of |1 + D| <= 1 in doubles: 1 + 2^-53 is a
    #: tie that rounds to 1, its successor rounds up; 1 - 2 = -1 exactly.
    GATE_EDGES = {
        "2^-53": 2.0**-53,
        "2^-53+": np.nextafter(2.0**-53, 1.0),
        "-2": -2.0,
        "-2-": np.nextafter(-2.0, -3.0),
        "+0": 0.0,
        "-0": -0.0,
        "inf": math.inf,
        "-inf": -math.inf,
        "nan": math.nan,
        "subnormal": 5e-324,
    }

    @pytest.mark.parametrize("name", sorted(GATE_EDGES))
    def test_gate_is_the_abs_form(self, name, monkeypatch):
        """The kernel's gate on a one-interval mesh whose D is the edge
        value: it passes exactly where the double |1 + D| is at most 1."""
        d = np.array([self.GATE_EDGES[name]])

        def coefficients(ps, h):
            return d.copy(), ps, lambda qs: (np.zeros(len(h)), qs)

        monkeypatch.setattr(steppers, "_gauss2_coefficients", coefficients)
        mesh = build_uniform_mesh(1)
        passed = kernel_values("gauss2", make_builtin("decay", 1.0), mesh) is not None
        assert passed == (np.abs(1.0 + d).max() <= 1.0)
        assert passed == (name in ("2^-53", "-2", "+0", "-0", "subnormal"))

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
        assert kernel_values("heun", problem, mesh) is None
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
        assert kernel_values("gauss2", problem, mesh) is None
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
        assert kernel_values("gauss2", problem, mesh) is None
        assert check_against_oracle("gauss2", problem, mesh) == "raised"

    @pytest.mark.parametrize("n", [64, 128])
    def test_overflowing_gauss_determinant_is_the_oracle_failure(self, n):
        """Constant p = -2^515 on [0, 2^-510]: p*h stays small, but p1*p2
        overflows, so the Gauss determinant is infinite and the step would
        return y unchanged.  The scalar driver (N = 64) and a mesh whose
        block the kernel's headroom declines (N = 128) both raise the
        oracle's error at step 0."""
        p = -(2.0**515)
        problem = Problem(
            epsilon=1.0,
            x0=0.0,
            y0=1.0,
            domain_end=2.0**-510,
            rhs=lambda x, y: p * y,
            linear=(lambda x: p + 0.0 * x, lambda x: 0.0 * x),
            label="overflowing-determinant",
        )
        mesh = build_uniform_mesh(n, (0.0, 2.0**-510))
        assert kernel_values("gauss2", problem, mesh) is None
        assert check_against_oracle("gauss2", problem, mesh) == "raised"
        with pytest.raises(StageEvaluationError) as raised:
            integrate("gauss2", problem, mesh)
        assert str(raised.value).startswith("step 0 failed: non-finite Gauss stage determinant")

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
        assert kernel_values("rk2_midpoint", problem, mesh) is None
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
        """y' = -y + 1 from y = 1: the increment form keeps every node at 1,
        in the scan at C = 4, 16 and 64, whose composed maps keep S = -D
        bit for bit (rounding commutes with negation)."""
        problem = Problem(
            epsilon=1.0,
            x0=0.0,
            y0=1.0,
            rhs=lambda x, y: -y + 1.0,
            linear=(lambda x: -1.0, lambda x: 1.0),
            label="stationary",
        )
        for n, width in (500, 4), (5000, 16), (2**16, 64):
            assert scan_width(n) == width
            values = integrate(scheme, problem, build_from_sigma(n, 0.5, 0.2)).values
            assert np.all(values == 1.0)

    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    def test_out_of_domain_mesh_falls_back(self, scheme):
        """A mesh whose interior leaves the domain, whose last width runs
        past its end, or with a node below its start is the scalar
        driver's to reject, with the oracle's ValueError, for every
        scheme.  Each mesh's widths agree with its nodes, as Mesh
        requires: the last width is 9e-13 longer than its node difference
        and ends past 1 + DOMAIN_TOL, and the node below the start gives
        a negative first width."""
        cases = [
            ("decay", 1.0, [0.0, 1.5, 1.0], [0.0], "leaves the domain"),
            ("layer1", 0.5, [0.0, 0.5, 1.0 + 9e-13], [0.0, 9e-13], "leaves the domain"),
            ("layer1", 0.5, [0.0, -1e-3, 1.0], [0.0], "step size must be"),
        ]
        for name, eps, nodes, longer, message in cases:
            problem = make_builtin(name, eps)
            nodes = np.array(nodes)
            bad = Mesh(nodes=nodes, widths=np.diff(nodes) + longer, kind="uniform")
            assert kernel_values(scheme, problem, bad) is None
            with pytest.raises(ValueError, match=message) as expected:
                oracle(scheme, problem, bad)
            with pytest.raises(ValueError) as raised:
                integrate(scheme, problem, bad)
            assert str(raised.value) == str(expected.value)

    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    def test_inconsistent_widths_raise(self, scheme):
        """Widths that disagree with the node differences are rejected
        when the mesh is made, though every step they would give stays
        inside the domain (the oracle and the kernel's own gate pass
        them), also on a builder's mesh with its widths replaced."""
        nodes, widths = np.array([0.0, 0.5, 1.0]), np.array([0.5, 0.4])
        problem = make_builtin("layer1", 0.5)
        steps_only = _unchecked(Mesh, nodes=nodes, widths=widths, kind="uniform", sigma=None)
        oracle(scheme, problem, steps_only)
        assert kernel_values(scheme, problem, steps_only) is not None
        message = "mesh width 0.4 inconsistent with node difference 0.5 at index 1"
        with pytest.raises(ValueError, match=message):
            Mesh(nodes=nodes, widths=widths, kind="uniform")
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(build_uniform_mesh(2), widths=widths)

    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    @pytest.mark.parametrize("n", [3, 6, 7, 9, 11])
    def test_width_tolerance_scales_with_the_nodes(self, scheme, n):
        """On [0, 1e6] a uniform mesh's widths and node differences differ
        by up to ~1e-10, within the tolerance scaled by 1e6.  Copied by
        hand, so that Mesh checks its widths, such a mesh passes the
        step rule and integrates as the oracle does."""
        built = build_uniform_mesh(n, (0.0, 1e6))
        mesh = Mesh(nodes=built.nodes, widths=built.widths, kind="uniform")
        assert np.abs(mesh.widths - np.diff(mesh.nodes)).max() > 1e-12
        problem = dataclasses.replace(make_builtin("decay", 1.0), domain_end=1e6)
        assert check_against_oracle(scheme, problem, mesh) == "identical"
        assert np.array_equal(integrate(scheme, problem, mesh).values,
                              integrate(scheme, problem, built).values)
        # h/eps ~ 1e5: the explicit schemes are expansive, gauss2 is not.
        kernel = kernel_values(scheme, problem, mesh)
        assert (kernel is None) == (scheme != "gauss2")
        if kernel is not None:
            expected = oracle(scheme, problem, mesh)
            assert np.abs(kernel - expected).max() <= ulp_bound(expected)

    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    def test_step_rule_error_comes_first(self, scheme):
        """Widths 1e-3 too long on the 7-interval uniform mesh on [0, 1e6]
        would end its last step past 1e6 (the builder's own widths already
        do, by 1.2e-10, beyond the absolute DOMAIN_TOL), which the oracle
        rejects; Mesh(...) and dataclasses.replace reject the widths
        first, at construction, so no step runs."""
        built = build_uniform_mesh(7, (0.0, 1e6))
        widths = built.widths + 1e-3
        problem = dataclasses.replace(make_builtin("decay", 1.0), domain_end=1e6)
        steps_only = _unchecked(Mesh, nodes=built.nodes, widths=widths, kind="uniform", sigma=None)
        assert kernel_values(scheme, problem, steps_only) is None
        with pytest.raises(ValueError, match="leaves the domain"):
            oracle(scheme, problem, steps_only)
        message = "mesh width 142857.14385714286 inconsistent with node difference 142857.14285714287 at index 0"
        with pytest.raises(ValueError, match=message):
            Mesh(nodes=built.nodes, widths=widths, kind="uniform")
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(built, widths=widths)


def kernel_forms(tableau, problem, x, h):
    """The kernel's coefficient layer on one block, with the gate that
    _affine_integrate runs on it: the stage abscissae, then None (gate
    failed) or D, S and the block's alpha and beta forms."""
    stage_x, failed = steppers._step_checks(problem, tableau.c, x, h)
    assert failed is None
    p_fn, q_fn = problem.linear
    ps = steppers._on_stages(p_fn, stage_x)
    if tableau.explicit:
        found = steppers._explicit_coefficients(tableau.a.tolist(), tableau.b.tolist(), ps, h)
    else:
        found = steppers._gauss2_coefficients(ps, h)
    if found is None or not np.abs(1.0 + found[0]).max() <= 1.0:
        return stage_x, None
    d, alpha_forms, offsets = found
    s, beta_forms = offsets(steppers._on_stages(q_fn, stage_x))
    return stage_x, (d, s, alpha_forms, beta_forms)


def kernel_block(tableau, problem, x, h):
    """``kernel_forms`` with the block's headroom terms, the largest
    squared norms of its alpha and of its beta forms, for the forms."""
    stage_x, found = kernel_forms(tableau, problem, x, h)
    if found is None:
        return stage_x, None
    d, s, *forms = found
    return stage_x, (d, s, *(max(np.vdot(f, f) for f in side) for side in forms))


def kernel_coefficients(scheme, problem, mesh):
    """The kernel's D and S for a mesh, a block at a time as the kernel
    computes them."""
    tableau = named_tableau(scheme)
    n = len(mesh.widths)
    d, s = [], []
    for lo in range(0, n, KERNEL_BLOCK):
        hi = min(lo + KERNEL_BLOCK, n)
        _, found = kernel_block(tableau, problem, mesh.nodes[lo:hi], mesh.widths[lo:hi])
        d.append(found[0])
        s.append(found[1])
    return np.concatenate(d), np.concatenate(s)


def reference_block(tableau, problem, x, h):
    """The coefficient layer written generically, as the kernel's bits are
    defined: every stage abscissa x + c_j*h, every coefficient converted
    and broadcast, forward-substitution sums over the nonzero a_jk and
    over all b_j from Python's int 0 (so p*(h*0) + q for a first stage),
    the Gauss step by Cramer's rule, and the largest squared norm over
    every alpha and p, and over every beta and q, each stage's on its own.
    Returns what ``kernel_block`` returns."""
    p_fn, q_fn = problem.linear
    stage_x = [x + c_j * h for c_j in tableau.c.tolist()]

    def on_stages(fn):
        return [np.broadcast_to(np.asarray(fn(x_j), dtype=float), x_j.shape) for x_j in stage_x]

    ps = on_stages(p_fn)
    if tableau.explicit:
        a, b = tableau.a.tolist(), tableau.b.tolist()
        alphas, betas = [], []
        for j, p in enumerate(ps):
            acc_a = sum(a[j][k] * alphas[k] for k in range(j) if a[j][k])
            alphas.append(p * (1.0 + h * acc_a))
        d = h * sum(b_j * alpha for b_j, alpha in zip(b, alphas))
        if not np.abs(1.0 + d).max() <= 1.0:
            return stage_x, None
        qs = on_stages(q_fn)
        for j, (p, q) in enumerate(zip(ps, qs)):
            acc_b = sum(a[j][k] * betas[k] for k in range(j) if a[j][k])
            betas.append(p * (h * acc_b) + q)
        s = h * sum(b_j * beta for b_j, beta in zip(b, betas))
    else:
        g = GAUSS2_GAMMA
        p1, p2 = ps
        det = (1.0 - 0.25 * p1 * h) * (1.0 - 0.25 * p2 * h) - p1 * p2 * (
            1.0 / 16.0 - g * g
        ) * h * h
        if not np.abs(det).min() > steppers.SINGULAR_DENOMINATOR_TOL:
            return stage_x, None
        f1, f2 = 1.0 - p1 * g * h, 1.0 + p2 * g * h
        alphas = [p1 * f2, p2 * f1]
        d = 0.5 * h * (alphas[0] + alphas[1]) / det
        if not np.abs(1.0 + d).max() <= 1.0:
            return stage_x, None
        qs = on_stages(q_fn)
        betas = [qs[0] * f2, qs[1] * f1]
        s = 0.5 * h * (betas[0] + betas[1]) / det
    a_sq = max(np.vdot(f, f) for f in alphas + ps)
    return stage_x, (d, s, a_sq, max(np.vdot(f, f) for f in betas + qs))


#: Coefficient callbacks for the bit-level test: float64 arrays with
#: +-0.0 among their values (p = +0.0 beside q = -0.0 makes the generic
#: first-stage beta p*(h*0) + q differ from q in sign), scalars, a 0-d
#: array, int arrays and float32 arrays.  p is mostly <= 0, so most
#: blocks pass the gate; 2x^2 - 1.5 > 0 near x = -1 makes some fail it.
P_CALLBACKS = [
    lambda x: np.minimum(-3.0 * x, 0.0),
    lambda x: 2.0 * x * x - 1.5,
    lambda x: -0.0,
    lambda x: np.asarray(-2.0),
    lambda x: np.floor(-3.0 * x * x).astype(np.int64),
    lambda x: np.asarray(-2.0 * x * x - 0.25, dtype=np.float32),
]
Q_CALLBACKS = [
    lambda x: -0.0 * x,
    lambda x: np.where(x < 0.0, 1.5, -0.0),
    lambda x: -0.0,
    lambda x: np.floor(2.0 * x).astype(np.int32),
    lambda x: np.sin(5.0 * x).astype(np.float32),
    lambda x: x * x - 0.125,
]


def random_block(rng, m=64):
    """Nodes in [-1, 0.75] with +-0.0 among them, widths in (0, 1/4] with
    a few tiny and subnormal ones."""
    x = rng.uniform(-1.0, 0.75, m)
    x[rng.integers(0, m, 8)] = -0.0
    x[rng.integers(0, m, 4)] = 0.0
    h = rng.uniform(0.0, 0.25, m)
    h[h == 0.0] = 0.125
    h[rng.integers(0, m, 4)] = rng.choice([2.0**-60, 5e-324, 1e-310])
    return x, h


def same_bits(got, expected):
    """Equal bytes as float64, so the sign bits of zeros must agree too."""
    return np.asarray(got, dtype=float).tobytes() == np.asarray(expected, dtype=float).tobytes()


class TestCoefficientLayer:
    """The kernel's coefficient layer leaves out work that changes no
    value; what it returns is the generic layer's, bit for bit."""

    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    def test_named_tableaux_keep_stages_inside_the_step(self, scheme):
        """_step_checks tests no stage abscissa: it relies on
        0 <= c_j <= 1, so that x <= x + c_j*h <= x + h."""
        c = named_tableau(scheme).c
        assert np.all((0.0 <= c) & (c <= 1.0))

    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    def test_failed_intervals_are_the_generic_rule(self, scheme):
        """_step_checks reports the first interval that fails h > 0 with
        x, x + h and every x + c_j*h inside the domain, or None, on blocks
        that all pass and on blocks with zero, negative, nan and inf
        widths, nan nodes and nodes outside the domain; where an interval
        passes, its stage abscissae are x + c_j*h bit for bit."""
        c = named_tableau(scheme).c
        problem = make_builtin("decay", 1.0)
        lo, hi = steppers.domain_bounds(problem)
        rng = np.random.default_rng(11)
        for trial in range(40):
            x, h = rng.uniform(0.0, 0.5, 64), rng.uniform(0.0, 0.5, 64)
            x[rng.integers(0, 64, 4)] = -0.0
            bad = rng.integers(0, 64, 3)
            if trial % 4 == 1:
                x[bad] = rng.choice([-0.25, -2e-12, np.nan], 3)
            elif trial % 4 == 2:
                h[bad] = rng.choice([0.0, -0.0, -0.125, np.nan], 3)
            elif trial % 4 == 3:
                x[bad], h[bad] = rng.uniform(0.5, 1.0, 3), rng.choice([0.75, np.inf], 3)
            with np.errstate(invalid="ignore"):
                stage = [x + c_j * h for c_j in c]
                ok = (h > 0.0) & (lo <= x) & (x + h <= hi)
                for x_j in stage:
                    ok &= (lo <= x_j) & (x_j <= hi)
                got_stage, failed = steppers._step_checks(problem, c, x, h)
            bad_intervals = np.flatnonzero(~ok).tolist()
            assert failed == (bad_intervals[0] if bad_intervals else None)
            assert type(failed) is (int if bad_intervals else type(None))
            assert (failed is None) == (trial % 4 == 0)
            assert all(map(same_bits, [g[ok] for g in got_stage], [e[ok] for e in stage]))

    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    def test_bits_equal_the_generic_layer(self, scheme):
        """Stage abscissae, D, S and the per-block headroom terms, sign
        bits included (byte comparison), on random blocks of 64 intervals
        and of a full KERNEL_BLOCK with +-0.0 nodes, -0.0 coefficients and
        every kind of callback result; the gate's verdict is the same too."""
        tableau = named_tableau(scheme)
        rng = np.random.default_rng(list(SCHEME_NAMES).index(scheme))
        verdicts = []
        for p_fn in P_CALLBACKS:
            for q_fn in Q_CALLBACKS:
                problem = Problem(
                    epsilon=1.0,
                    x0=-1.0,
                    y0=0.0,
                    rhs=lambda x, y, p=p_fn, q=q_fn: float(p(x)) * y + float(q(x)),
                    linear=(p_fn, q_fn),
                    label="bits",
                )
                for m in (64, 64, 64, KERNEL_BLOCK):
                    x, h = random_block(rng, m)
                    with np.errstate(all="ignore"):
                        got_x, got = kernel_block(tableau, problem, x, h)
                        want_x, want = reference_block(tableau, problem, x, h)
                    assert all(map(same_bits, got_x, want_x))
                    verdicts.append(want is None)
                    assert (got is None) == (want is None)
                    if want is not None:
                        assert all(map(same_bits, got, want))
        assert 0 < sum(verdicts) < len(verdicts) / 2


def counted_linear_problem(calls, p=lambda x: -1.0 - x, q=lambda x: x, end=1.0):
    """y' = p(x)*y + q(x) on [0, end] from y = 1, by default (-1 - x)*y + x
    on [0, 1], its p and q appending the shape of every argument to
    ``calls`` under their names."""

    def counted(name, fn):
        def callback(x):
            calls.append((name, np.shape(x)))
            return fn(x)

        return callback

    return Problem(
        epsilon=1.0,
        x0=0.0,
        y0=1.0,
        domain_end=end,
        rhs=lambda x, y: p(x) * y + q(x),
        linear=(counted("p", p), counted("q", q)),
        label="counted",
    )


class TestOneCallPerBlock:
    """The coefficient layer calls p once and q once per block, on a 1-d
    array of the block's s*n stage abscissae.  Below KERNEL_MIN_INTERVALS
    the kernel does not run: no array call, and the oracle's bytes (the
    scalar gauss2 step calls this untrusted p and q on floats, twice each
    per step)."""

    @pytest.mark.usefixtures("small_blocks")
    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    @pytest.mark.parametrize("n", [16, 64, 2**13])
    def test_call_counts(self, scheme, n):
        calls = []
        problem = counted_linear_problem(calls)
        mesh = build_uniform_mesh(n)
        stages = named_tableau(scheme).stages
        calls.clear()  # the spot-check of Problem's linear form
        got = integrate(scheme, problem, mesh).values
        seen = calls.copy()
        want = oracle(scheme, problem, mesh)
        if n < KERNEL_MIN_INTERVALS:
            assert seen == ([("p", ()), ("q", ())] * 2 * n if scheme == "gauss2" else [])
            assert got.tobytes() == want.tobytes()
            return
        blocks = [min(TEST_BLOCK, n - lo) for lo in range(0, n, TEST_BLOCK)]
        expected = []
        for m in blocks:
            expected += [("p", (stages * m,)), ("q", (stages * m,))]
        assert seen == expected
        assert np.abs(got - want).max() <= ulp_bound(want)

    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    def test_rejecting_the_stage_array_falls_back(self, scheme):
        """A coefficient that takes one block's n points but not its s*n
        stage abscissae sends the run to the scalar driver: the values
        are the oracle's bit for bit."""
        mesh = build_uniform_mesh(64)
        n = len(mesh.widths)

        def p(x):
            if np.ndim(x) and np.size(x) != n:
                raise ValueError("expects one value per interval")
            return -1.0 - x

        problem = Problem(
            epsilon=1.0,
            x0=0.0,
            y0=1.0,
            rhs=lambda x, y: (-1.0 - x) * y + x,
            linear=(p, lambda x: x),
            label="per-interval",
        )
        got = integrate(scheme, problem, mesh).values
        assert got.tobytes() == oracle(scheme, problem, mesh).tobytes()


class TestGateOrder:
    """_affine_integrate tests a block's p before it calls q: a block that
    fails |1 + D| <= 1, or whose Gauss stage system is singular, ends the
    kernel's run after one p array call, with no q call."""

    N = 2**13

    @pytest.mark.parametrize("scheme", EXPLICIT_SCHEMES)
    def test_expansive_block_makes_no_q_call(self, scheme):
        """decay's p = -1/eps at h/eps = 16 on a uniform mesh, where every
        explicit step is expansive."""
        calls = []
        problem = counted_linear_problem(calls, p=lambda x: -16.0 * self.N, q=lambda x: 0.0)
        calls.clear()  # the spot-check of Problem's linear form
        tableau = named_tableau(scheme)
        assert steppers._affine_integrate(tableau, problem, build_uniform_mesh(self.N)) is None
        assert calls == [("p", (tableau.stages * KERNEL_BLOCK,))]

    def test_singular_gauss2_block_makes_no_q_call(self):
        """p = (4/h)(1 - 2^-50) at the first stage abscissa of step 11 and 0
        elsewhere: that step's stage system is singular (the scalar driver
        raises there)."""
        mesh = build_uniform_mesh(self.N)
        i = 11
        h = float(mesh.widths[i])
        x1 = float(mesh.nodes[i]) + (0.5 - GAUSS2_GAMMA) * h
        p_bad = 4.0 / h * (1.0 - 2.0**-50)
        calls = []
        problem = counted_linear_problem(calls, p=lambda x: np.where(x == x1, p_bad, 0.0))
        calls.clear()
        assert steppers._affine_integrate(named_tableau("gauss2"), problem, mesh) is None
        assert calls == [("p", (2 * KERNEL_BLOCK,))]
        with pytest.raises(SingularStepError, match=f"^step {i} failed: singular stage system"):
            integrate("gauss2", problem, mesh)


def old_headroom_admits(y_max, blocks):
    """The headroom clause as the kernel wrote it before it took squared
    norms: one max and one min per form, the largest |value| of the alpha
    forms (a_max) and of the beta forms (b_max) over the run, accumulated
    as the kernel did (Python's max keeps its first argument against a
    nan), and max|y| * a_max + b_max <= KERNEL_HEADROOM."""
    a_max = b_max = 0.0
    with np.errstate(all="ignore"):
        for alpha_forms, beta_forms in blocks:
            a_max = max(a_max, *(max(np.maximum.reduce(f, None), -np.minimum.reduce(f, None)) for f in alpha_forms))
            b_max = max(b_max, *(max(np.maximum.reduce(f, None), -np.minimum.reduce(f, None)) for f in beta_forms))
        return y_max * a_max + b_max <= steppers.KERNEL_HEADROOM


#: Form values at the edges of the squared-norm bound: signed zeros,
#: subnormals (whose squares underflow), magnitudes in [2^500, 2^520]
#: (whose squares reach past 2^1000 and overflow from 2^512), infinities
#: and nan, beside a few ordinary values.
FORM_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -0.75, 5e-324, -5e-324, 2.0**-1022, 2.0**-600, math.inf, -math.inf, math.nan]),
    st.floats(min_value=5e-324, max_value=2.0**-1022, exclude_max=True),
    st.builds(lambda sign, m: sign * m, st.sampled_from([1.0, -1.0]), st.floats(2.0**500, 2.0**520)),
)
FORMS = st.lists(st.lists(FORM_VALUES, min_size=1, max_size=6).map(np.array), min_size=1, max_size=4)
#: Starting values, so every node value: beside fixed edges, magnitudes
#: in [2^480, 2^500], whose products with the large forms straddle the
#: headroom 2^1000.
Y_MAX = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1.0, -3.0, 2.0**-600, 2.0**300, 2.0**500, 2.0**520, 1e308]),
    st.builds(lambda sign, m: sign * m, st.sampled_from([1.0, -1.0]), st.floats(2.0**480, 2.0**500)),
)


@settings(max_examples=400, deadline=None)
@given(blocks=st.lists(st.tuples(FORMS, FORMS), min_size=1, max_size=3), y0=Y_MAX)
@example(blocks=[([np.array([2.0**500])], [np.array([0.0])])], y0=2.0**500)
@example(blocks=[([np.array([2.0**500, 5e-324])], [np.array([-0.0])])], y0=-2.0**500)
@example(blocks=[([np.array([2.0**511])], [np.array([2.0**-600])])], y0=2.0**489)
@example(blocks=[([np.array([2.0**512])], [np.array([1.0])])], y0=0.0)
@example(blocks=[([np.array([math.nan]), np.array([2.0**520])], [np.array([1.0])])], y0=1.0)
@example(blocks=[([np.array([-0.0]), np.array([1.5 * 2.0**500])], [np.array([1.0])])], y0=2.0**500)
@example(blocks=[([np.array([1.0])], [np.array([0.0])]), ([np.array([1.0])], [np.array([-1.5 * 2.0**500, 1.0])])],
         y0=2.0**500 * 1.5)
def test_property_squared_norms_admit_only_what_the_extrema_admitted(blocks, y0):
    """The kernel's headroom clause, max|y| * sqrt(A) + sqrt(B), A and B the
    largest squared norms of the alpha and of the beta forms, on hand-made
    forms behind D = S = 0 (so every node value is y0), one block per
    interval: it admits a run only where the clause of max and min per
    form admitted it, and admits every run whose forms and y0 are finite
    and small enough that nothing squares or multiplies near overflow."""
    problem = Problem(epsilon=1.0, x0=0.0, y0=y0, rhs=lambda x, y: 0.0,
                      linear=(lambda x: 0.0, lambda x: 0.0), label="zero")
    pending = list(blocks)

    def coefficients(ps, h):
        alpha_forms, beta_forms = pending.pop(0)
        return np.zeros(len(h)), alpha_forms, lambda qs: (np.zeros(len(h)), beta_forms)

    with mock.patch.object(steppers, "_gauss2_coefficients", coefficients), \
            mock.patch.object(steppers, "KERNEL_BLOCK", 1):
        admitted = kernel_values("gauss2", problem, build_uniform_mesh(len(blocks))) is not None
    assert not pending
    if admitted:
        assert old_headroom_admits(abs(y0), blocks)
    values = np.concatenate([f for forms in blocks for part in forms for f in part])
    if np.all(np.abs(values) < 2.0**500) and abs(y0) <= 2.0**480:
        assert admitted


class TestHeadroom:
    """Runs at the edge of the squared-norm clause, on a uniform mesh of
    KERNEL_MIN_INTERVALS = 128 intervals with constant p and q = 1 (scalar
    results, which the kernel broadcasts).  Where a form's
    squared norm overflows (|p| = 2^515 with h*p = -1/4, or gauss2's alpha
    forms at |p| = 2^500 with h*p = -2^14, about 2^512.2), the clause of
    max and min per form had admitted the run by a wide margin; now the
    scalar driver runs it, bit for bit the oracle.  At |p| = 2^300 the
    kernel still runs, with one p and one q array call per block."""

    N = 128

    @pytest.mark.parametrize("scheme, p, end", [
        ("heun", -2.0**515, 2.0**-510),
        ("rk3_a", -2.0**515, 2.0**-510),
        ("gauss2", -2.0**500, 2.0**-479),
    ], ids=["heun", "rk3_a", "gauss2"])
    def test_forms_that_square_past_the_largest_double_take_the_scalar_driver(self, scheme, p, end):
        problem = counted_linear_problem([], p=lambda x: p, q=lambda x: 1.0, end=end)
        mesh = build_uniform_mesh(self.N, (0.0, end))
        want = oracle(scheme, problem, mesh)
        tableau = named_tableau(scheme)
        _, (_, _, alpha_forms, beta_forms) = kernel_forms(tableau, problem, mesh.nodes[:-1], mesh.widths)
        assert max(np.vdot(f, f) for f in alpha_forms) == math.inf
        assert old_headroom_admits(np.abs(want).max() * 2.0, [(alpha_forms, beta_forms)])
        assert kernel_values(scheme, problem, mesh) is None
        assert integrate(scheme, problem, mesh).values.tobytes() == want.tobytes()

    @pytest.mark.parametrize("scheme, end", [("heun", 2.0**-295), ("gauss2", 2.0**-279)], ids=["heun", "gauss2"])
    def test_forms_below_the_square_root_of_the_largest_double_take_the_kernel(self, scheme, end):
        calls = []
        problem = counted_linear_problem(calls, p=lambda x: -2.0**300, q=lambda x: 1.0, end=end)
        mesh = build_uniform_mesh(self.N, (0.0, end))
        calls.clear()  # the spot-check of Problem's linear form
        got = integrate(scheme, problem, mesh).values
        stages = named_tableau(scheme).stages
        assert calls == [("p", (stages * self.N,)), ("q", (stages * self.N,))]
        assert kernel_values(scheme, problem, mesh) is not None
        want = oracle(scheme, problem, mesh)
        assert np.abs(got - want).max() <= ulp_bound(want)


class TestScan:
    """The two-level scan of the step recurrence: the plain loop at row
    width C = 1, its own plain-Python form at C > 1, bit for bit, and
    within the oracle's ulp bound on both sides of every change of C."""

    def test_width_rule(self):
        """C is the largest power of two at most sqrt(N)/4, at least 1; it
        changes only at even powers of two."""
        widths = {k: scan_width(2**k) for k in range(2, 23)}
        assert widths == {k: 2 ** max(0, k // 2 - 2) for k in range(2, 23)}
        changes = [k for k in range(3, 23) if scan_width(2**k - 1) != widths[k]]
        assert changes == list(range(6, 23, 2))
        assert all(scan_width(2**k + 1) == widths[k] for k in range(2, 23))
        assert scan_width(2**40) == KERNEL_BLOCK

    @pytest.mark.parametrize("n", [16, 32, 48, 62])
    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    def test_width_one_is_the_plain_loop(self, scheme, n):
        """Below 64 intervals the kernel's values are the plain loop over its
        D and S; integrate returns them from KERNEL_MIN_INTERVALS on, and
        the oracle's below."""
        assert scan_width(n) == 1
        eps = 2.0**-4
        problem = make_builtin("layer1", eps)
        mesh = mesh_for("shishkin", n, eps)
        d, s = kernel_coefficients(scheme, problem, mesh)
        y = float(problem.y0)
        expected = [y]
        for d_i, s_i in zip(d.tolist(), s.tolist()):
            y = y + (d_i * y + s_i)
            expected.append(y)
        assert kernel_values(scheme, problem, mesh).tobytes() == np.array(expected).tobytes()
        if n < KERNEL_MIN_INTERVALS:
            expected = oracle(scheme, problem, mesh)
        got = integrate(scheme, problem, mesh).values
        assert got.tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize(
        "scheme, kind, n",
        [(scheme, "shishkin", n) for n in (64, 128, 256, 1000, 2**10) for scheme in SCHEME_NAMES]
        + [(scheme, "uniform", n) for n in (127, 255, 1023, 3001, 5000) for scheme in SCHEME_NAMES]
        + [("heun", "shishkin", 2**16)],
    )
    def test_two_level_scan_is_its_plain_python(self, scheme, kind, n):
        """For C > 1 the kernel's values are, bit for bit, the scan written
        out over its D and S: each row composed left to right in increment
        form, the row ends carried from values[0], then every row rerun
        from its start, its last value being the carried end.  The last
        row of a ragged mesh is padded with identity steps (0, 0)."""
        width = scan_width(n)
        assert width > 1
        eps = 2.0**-4
        problem = make_builtin("layer1", eps)
        mesh = mesh_for(kind, n, eps)
        d, s = (part.tolist() for part in kernel_coefficients(scheme, problem, mesh))
        rows = -(-n // width)
        d += [0.0] * (rows * width - n)
        s += [0.0] * (rows * width - n)
        y = float(problem.y0)
        expected = [y]
        for r in range(rows):
            cols = range(r * width, (r + 1) * width)
            row_d, row_s = d[cols[0]], s[cols[0]]
            for i in cols[1:]:
                row_d, row_s = (row_d + d[i]) + d[i] * row_d, (row_s + s[i]) + d[i] * row_s
            x, y = y, y + (row_d * y + row_s)
            for i in cols[:-1]:
                x = x + (d[i] * x + s[i])
                expected.append(x)
            expected.append(y)
        got = kernel_values(scheme, problem, mesh)
        assert got.tobytes() == np.array(expected[: n + 1]).tobytes()

    @pytest.mark.parametrize(
        "scheme, n",
        [(scheme, n) for n in (64, 127, 128, 255, 256, 1000, 1023) for scheme in SCHEME_NAMES]
        + [(scheme, 2**k + dn) for k in (10, 12, 14) for dn in (-2, 0) for scheme in SCHEME_NAMES]
        + [("heun", 2**16 - 2), ("heun", 2**16)],
    )
    def test_both_sides_of_each_width_change(self, scheme, n):
        """Meshes just below and at each change of C up to 2^16: Shishkin,
        uniform for odd N (a ragged last row), at eps = 2^-8 from 1000
        intervals and 2^-4 below, where the explicit schemes' coarse steps
        at 2^-8 are expansive.  The values are the same from run to run.
        Below KERNEL_MIN_INTERVALS integrate runs the scalar driver, and
        the kernel's own values keep to the oracle's ulp bound."""
        eps = 2.0 ** (-8 if n >= 1000 else -4)
        problem = make_builtin("layer1", eps)
        mesh = mesh_for("uniform" if n % 2 else "shishkin", n, eps)
        if n < KERNEL_MIN_INTERVALS:
            expected = oracle(scheme, problem, mesh)
            assert np.abs(kernel_values(scheme, problem, mesh) - expected).max() <= ulp_bound(expected)
        path = "identical" if n < KERNEL_MIN_INTERVALS else "kernel"
        assert check_against_oracle(scheme, problem, mesh) == path
        first = integrate(scheme, problem, mesh).values
        assert first.tobytes() == integrate(scheme, problem, mesh).values.tobytes()

    @pytest.mark.usefixtures("small_blocks")
    @pytest.mark.parametrize("n", [3001, TEST_BLOCK + 32, 5000])
    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    def test_ragged_and_straddling_uniform_meshes(self, scheme, n):
        """A last row shorter than C (3001 = 375*8 + 1), a mesh straddling
        TEST_BLOCK in whole rows (4128 = 258*16), and both (5000)."""
        assert (n % scan_width(n) != 0) == (n != TEST_BLOCK + 32)
        problem = make_builtin("layer1", 2.0**-4)
        assert check_against_oracle(scheme, problem, build_uniform_mesh(n)) == "kernel"

    @pytest.mark.usefixtures("small_blocks")
    @pytest.mark.parametrize("width", [2, 128, 512, TEST_BLOCK])
    @pytest.mark.parametrize("scheme", ["heun", "rk3_a", "gauss2"])
    def test_other_widths(self, scheme, width, monkeypatch):
        """Widths the rule picks only on larger meshes (or never), on a
        ragged mesh straddling TEST_BLOCK: down to two rows."""
        monkeypatch.setattr(steppers, "scan_width", lambda n: width)
        problem = make_builtin("layer1", 2.0**-4)
        assert check_against_oracle(scheme, problem, build_uniform_mesh(5000)) == "kernel"


def logistic_with_exact(eps):
    """logistic(eps) from 1/2, with its exact solution e/(1 + e), e =
    exp(-x/eps), on floats only."""

    def exact(x):
        e = math.exp(-x / eps)
        return e / (1.0 + e)

    return dataclasses.replace(logistic(eps), exact=exact)


class TestBlockSize:
    """KERNEL_BLOCK is a performance parameter only: at 4096 and at 8192,
    integrate's values and errors and max_error's results are the same,
    byte for byte, on meshes on both sides of both block edges.  The
    scan's rows do not move with it: scan_width(N) <= 512 < 4096."""

    @staticmethod
    def outcome(scheme, problem, mesh):
        try:
            trajectory = integrate(scheme, problem, mesh)
        except (ValueError, ArithmeticError) as exc:
            return type(exc), str(exc)
        return trajectory.values.tobytes(), repr(max_error(trajectory, problem))

    @pytest.mark.parametrize("kind", ["shishkin", "uniform"])
    @pytest.mark.parametrize("name", ["decay", "layer1", "logistic"])
    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    def test_values_do_not_depend_on_the_block(self, scheme, name, kind, monkeypatch):
        """eps = 2^-20 makes the uniform meshes' explicit runs blow up;
        gauss2 raises on the logistic problem, which has no linear form."""
        for eps in (2.0**-6, 2.0**-20):
            problem = logistic_with_exact(eps) if name == "logistic" else make_builtin(name, eps)
            for n in (8190, 8194, 20000, 2**17):
                assert scan_width(n) <= 512
                mesh = mesh_for(kind, n, eps)
                runs = []
                for size in (4096, 8192):
                    set_block(monkeypatch, size)
                    runs.append(self.outcome(scheme, problem, mesh))
                assert runs[0] == runs[1]


def traced_peak(fn):
    """Peak bytes that numpy and Python allocate while ``fn()`` runs, over
    what was allocated when it started."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestMemory:
    """The memory rule at N = 2^17 (8N bytes per array of one double per
    interval).  A linear integrate holds its output, one D grid and
    temporaries bounded by KERNEL_BLOCK; run_sweep holds one cell at a
    time."""

    N = 2**17
    EPS = 2.0**-8

    #: Temporaries of integrate, in block-length arrays (8*KERNEL_BLOCK
    #: bytes each): a block's stage abscissae, p and q at every stage, and
    #: the affine forms with their intermediates.  Measured over 2*8N:
    #: 13.1 (heun), 19.1 (rk3_a), 17.1 (gauss2), with the alpha forms
    #: reduced before q is evaluated (20.2, 30.2 and 27.1 when every form
    #: outlived the block); the bound is kept at a third more than 30.2.
    #: The S half of the former (2, C, rows) grid was 32.
    BLOCK_ARRAYS = 40

    @pytest.mark.parametrize("scheme", ["heun", "rk3_a", "gauss2"])
    def test_integrate_holds_output_and_one_grid(self, scheme):
        problem = make_builtin("layer1", self.EPS)
        mesh = mesh_for("shishkin", self.N, self.EPS)
        assert scan_width(self.N) > 1 and kernel_values(scheme, problem, mesh) is not None
        peak = traced_peak(lambda: integrate(scheme, problem, mesh))
        assert peak <= 2 * 8 * self.N + self.BLOCK_ARRAYS * 8 * KERNEL_BLOCK

    def test_sweep_holds_one_cell_at_a_time(self):
        """Two cells, k = 16 then 17, peak no higher than a lone k = 17
        cell (mesh build, integrate, max_error), give or take 4 KiB of
        table and problem; holding on to the k = 16 cell's mesh and values
        while the next is built adds about 1.5 * 8N."""

        def cell():
            problem = make_builtin("layer1", self.EPS)
            max_error(integrate("heun", problem, mesh_for("shishkin", self.N, self.EPS)), problem)

        lone = traced_peak(cell)
        sweep = traced_peak(lambda: run_sweep("heun", "layer1", [self.EPS], 16, 17))
        assert sweep <= lone + 4096

    @pytest.mark.parametrize("scheme", ["heun", "rk3_a"])
    def test_scalar_driver_streams_its_rows(self, scheme):
        """The scalar driver reads a block's widths and stage abscissae as
        it steps: over its output it holds the block's arrays and results,
        518 KiB (heun) and 710 KiB (rk3_a) at N = 2^16, where lists of
        the block's doubles took 1,667 and 2,243 KiB."""
        n = 2**16
        problem, mesh = logistic(self.EPS), mesh_for("shishkin", n, self.EPS)
        peak = traced_peak(lambda: integrate(scheme, problem, mesh))
        assert peak - 8 * (n + 1) <= 96 * KERNEL_BLOCK

    def test_non_contiguous_mesh_arrays(self):
        """A mesh whose nodes and widths are strided views gives the bits
        of its contiguous copy: on the scalar driver, with the explicit
        rows, a trusted gauss2 pair's rows and float-call rows, on the
        kernel, and through exact_eval's pointwise path."""
        base = mesh_for("shishkin", KERNEL_BLOCK + 40, self.EPS)
        nodes, widths = (np.repeat(array, 2)[::2] for array in (base.nodes, base.widths))
        strided = Mesh(nodes=nodes, widths=widths, kind="hand-built")
        assert not strided.nodes.flags.contiguous and not strided.widths.flags.contiguous
        layer1 = make_builtin("layer1", self.EPS)
        scalar_runs = [
            ("heun", logistic(self.EPS)),
            ("rk3_a", logistic(self.EPS)),
            ("gauss2", layer1),
            ("gauss2", scalar_only_builtin("layer1", self.EPS)),
        ]

        def bits(mesh):
            got = [steppers._scalar_integrate(named_tableau(s), p, mesh) for s, p in scalar_runs]
            got.append(integrate("heun", layer1, mesh).values)
            got.append(exact_eval(logistic_with_exact(self.EPS), mesh.nodes))
            return [array.tobytes() for array in got]

        assert bits(strided) == bits(base)


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

    #: Scalar-only exact solutions with y(0) = 1: a float, an int and a
    #: numpy scalar per point.
    SCALAR_EXACTS = {
        "float": lambda x: math.exp(-x),
        "int": lambda x: 1 + int(7.0 * x),
        "numpy": lambda x: np.float32(math.exp(-x)),
    }

    @staticmethod
    def scalar_only(value, calls, fail_at=None, failure=None):
        """``value`` as an exact that rejects arrays, records its floats in
        ``calls`` and raises ``failure`` at ``fail_at``."""

        def exact(x):
            if isinstance(x, np.ndarray):
                raise TypeError("scalars only")
            calls.append(x)
            if x == fail_at:
                raise failure
            return value(x)

        return exact

    @pytest.mark.parametrize("kind", sorted(SCALAR_EXACTS))
    def test_pointwise_path_is_a_per_point_loop(self, kind):
        """Across a KERNEL_BLOCK boundary the pointwise path calls exact
        once per node, in order, and gives the loop's doubles byte for
        byte; max_error reduces them like the blocked path."""
        value = self.SCALAR_EXACTS[kind]
        mesh = build_uniform_mesh(KERNEL_BLOCK + 37)
        nodes = mesh.nodes.tolist()
        calls = []
        exact = self.scalar_only(value, calls)
        problem = dataclasses.replace(custom(lambda x, y: -y), exact=exact)
        loop = np.array([float(value(x)) for x in nodes])
        calls.clear()
        assert exact_eval(problem, mesh.nodes).tobytes() == loop.tobytes()
        assert calls == nodes
        values = np.cos(mesh.nodes)
        trajectory = Trajectory(mesh=mesh, values=values, scheme_id="s", problem_id="p")
        assert max_error(trajectory, problem) == np.abs(loop - values).max()

    @pytest.mark.parametrize("via", ["exact_eval", "max_error"])
    def test_exact_raising_mid_block_raises_the_same(self, via):
        """The exception exact raises at a node inside the second block
        propagates as it is, after the calls before it and no other."""
        mesh = build_uniform_mesh(KERNEL_BLOCK + 37)
        nodes = mesh.nodes.tolist()
        bad = KERNEL_BLOCK + 5
        calls, failure = [], ZeroDivisionError("exact failed")
        exact = self.scalar_only(self.SCALAR_EXACTS["float"], calls, nodes[bad], failure)
        problem = dataclasses.replace(custom(lambda x, y: -y), exact=exact)
        trajectory = Trajectory(mesh=mesh, values=np.cos(mesh.nodes), scheme_id="s", problem_id="p")
        calls.clear()
        with pytest.raises(ZeroDivisionError) as raised:
            if via == "exact_eval":
                exact_eval(problem, mesh.nodes)
            else:
                max_error(trajectory, problem)
        assert raised.value is failure
        assert calls == nodes[: bad + 1]


def check_bit_identical(scheme, problem, mesh):
    """Assert that integrate is the oracle bit for bit: the same values,
    from the same callback arguments, in the same order, when every value
    is finite (a step with a non-finite result is redone by the oracle),
    or the same exception class and message.  Return how the run ended.

    The callbacks logged are rhs for an explicit scheme, p and q for
    gauss2, whose pair is run twice.  Untrusted (rhs does not carry it as
    its linear form) it makes only the oracle's float calls.  Trusted (rhs
    carries it, as make_builtin's does) it makes one p and one q array
    call per block over the stage abscissae up to the block's first
    failing interval, q only if p's gives an array, and float calls only
    where the oracle's come from a hand-off: from that interval on, or in
    the whole block if either array call gives no array.  The kernel's
    array calls, made before its gate rejects a run, are not logged."""
    calls, arrays, in_kernel = [], [], []

    def rhs(x, y):
        calls.append((x, y))
        return problem.rhs(x, y)

    def logged(tag, fn):
        def coefficient(x):
            if not isinstance(x, np.ndarray):
                calls.append((tag, x))
                return fn(x)
            entry = [tag, x.copy(), False]
            if not in_kernel:
                arrays.append(entry)
            value = fn(x)
            entry[2] = array_eval(lambda _: value, x) is not None
            return value

        return coefficient

    def kernel(*args):
        in_kernel.append(True)
        try:
            return affine_integrate(*args)
        finally:
            in_kernel.pop()

    affine_integrate = steppers._affine_integrate
    trusted = None
    if scheme == "gauss2" and problem.linear is not None:
        # rhs carries the logged pair as its linear form, so Problem makes
        # no spot-check calls; the untrusted copy skips them too.
        rhs._linear_form = linear = (logged(0.0, problem.linear[0]), logged(1.0, problem.linear[1]))
        trusted = dataclasses.replace(problem, rhs=rhs, linear=linear)
        untrusted = copy.copy(trusted)
        object.__setattr__(untrusted, "rhs", lambda x, y: rhs(x, y))
        runs = [untrusted, trusted]
    else:
        runs = [dataclasses.replace(problem, rhs=rhs)]
    for run in runs:
        calls.clear()
        try:
            expected = oracle(scheme, run, mesh)
        except Exception as exc:
            with pytest.raises(Exception) as raised:
                integrate(scheme, run, mesh)
            assert type(raised.value) is type(exc)
            assert str(raised.value) == str(exc)
            outcome = "raised"
            continue
        expected_calls = calls.copy()
        calls.clear()
        arrays.clear()
        with mock.patch.object(steppers, "_affine_integrate", kernel):
            got = integrate(scheme, run, mesh).values
        assert got.tobytes() == expected.tobytes()
        if np.isfinite(expected).all():
            if run is trusted:
                expected_calls = trusted_calls(run, mesh, expected_calls, arrays)
            assert arrays == []
            assert np.array(calls).tobytes() == np.array(expected_calls).tobytes()
        outcome = "identical"
    return outcome


def trusted_calls(problem, mesh, oracle_calls, arrays):
    """Check and consume from ``arrays`` the array calls of a trusted
    gauss2 pair (see check_bit_identical); return the float calls the run
    may make, the oracle's four per hand-off interval."""
    nodes, widths = mesh.nodes[:-1], mesh.widths
    stage_x = nodes + np.outer(named_tableau("gauss2").c, widths)
    lo_x, hi_x = domain_bounds(problem)
    checked = (widths > 0.0) & (lo_x <= nodes) & (nodes + widths <= hi_x)
    handed, block = [], steppers.KERNEL_BLOCK  # small_blocks may have set it
    for lo in range(0, len(widths), block):
        hi = min(lo + block, len(widths))
        stop = lo + int(np.argmin(checked[lo:hi])) if not checked[lo:hi].all() else hi
        points = stage_x[:, lo:stop].reshape(-1).tobytes()
        tag, x, gives_array = arrays.pop(0)
        assert (tag, x.tobytes()) == (0.0, points)
        if gives_array:
            tag, x, gives_array = arrays.pop(0)
            assert (tag, x.tobytes()) == (1.0, points)
        handed += range(stop if gives_array else lo, hi)
    return [call for i in handed for call in oracle_calls[4 * i : 4 * i + 4]]


def logistic(eps, y0=0.5):
    """eps*y' = y^2 - y with no linear form; it blows up from y0 > 1."""
    return Problem(
        epsilon=eps,
        x0=0.0,
        y0=y0,
        rhs=lambda x, y: (y * y - y) / eps,
        label="logistic",
    )


def custom(rhs, y0=1.0):
    return Problem(epsilon=1.0, x0=0.0, y0=y0, rhs=rhs, label="custom")


def scalar_only(fn):
    """``fn`` rejecting arrays, so that the kernel cannot take a run."""

    def on_floats(x):
        if isinstance(x, np.ndarray):
            raise TypeError("scalars only")
        return fn(x)

    return on_floats


def scalar_only_builtin(name, eps):
    """make_builtin's problem with p and q rejecting arrays; its rhs
    carries that pair, so Problem does not spot-check it."""
    builtin = make_builtin(name, eps)

    def rhs(x, y):
        return builtin.rhs(x, y)

    rhs._linear_form = form = tuple(map(scalar_only, builtin.linear))
    return dataclasses.replace(builtin, rhs=rhs, linear=form)


def linear(p, q, y0=1.0):
    """y' = p(x)*y + q(x) on [0, 1]; its rhs carries the pair as its linear
    form, as make_builtin's does, so Problem does not spot-check it."""

    def rhs(x, y):
        return p(x) * y + q(x)

    rhs._linear_form = form = (p, q)
    return Problem(epsilon=1.0, x0=0.0, y0=y0, rhs=rhs, linear=form, label="linear")


#: Starts at the edges of the doubles: signed zeros, subnormals and
#: magnitudes a few steps from overflow.
SIGNED_STARTS = (0.0, -0.0, 5e-324, -5e-324, 1e-320, -1e-320, 1e308, -1e308)

#: Right-hand sides for those starts: signed zero slopes, slopes whose
#: products with h underflow, decay, and two overflows (an infinite slope
#: and math's OverflowError).
EDGE_RHS = {
    "+0": lambda x, y: 0.0,
    "-0": lambda x, y: -0.0,
    "-0*y": lambda x, y: -0.0 * y,
    "-y": lambda x, y: -y,
    "tiny-": lambda x, y: -5e-324,
    "tiny+": lambda x, y: 5e-324,
    "tiny*x": lambda x, y: -1e-320 * x,
    "4y": lambda x, y: 4.0 * y,
    "exp": lambda x, y: math.exp(y),
}


class TestScalarDriver:
    """The scalar driver against one step function call per interval, bit
    for bit: explicit_rk_step for the explicit schemes, gauss2_linear_step
    for gauss2."""

    @pytest.mark.parametrize("kind", ["shishkin", "uniform"])
    @pytest.mark.parametrize("scheme", EXPLICIT_SCHEMES)
    def test_logistic_matrix(self, scheme, kind):
        """N = 2 * KERNEL_BLOCK spans two kernel blocks; eps = 2^-20 on the
        uniform mesh blows up."""
        outcomes = set()
        for eps in (1.0, 2.0**-4, 2.0**-8, 2.0**-20):
            for n in (2**4, 2**9, 2 * KERNEL_BLOCK):
                outcomes.add(check_bit_identical(scheme, logistic(eps), mesh_for(kind, n, eps)))
        assert "identical" in outcomes

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        scheme=st.sampled_from(EXPLICIT_SCHEMES),
        kind=st.sampled_from(["shishkin", "uniform"]),
        log2_eps=st.floats(min_value=-30.0, max_value=0.0),
        k=st.integers(min_value=2, max_value=13),
        y0=st.floats(min_value=-2.0, max_value=2.0),
    )
    def test_logistic_property(self, scheme, kind, log2_eps, k, y0):
        eps = 2.0**log2_eps
        check_bit_identical(scheme, logistic(eps, y0), mesh_for(kind, 2**k, eps))

    @pytest.mark.parametrize("scheme", EXPLICIT_SCHEMES)
    def test_gate_rejected_linear_runs(self, scheme):
        """Expansive runs that finish and runs that blow up leave the
        kernel; the scalar driver then matches the oracle exactly."""
        expansive = make_builtin("decay", 2.0**-4), build_uniform_mesh(4)
        assert amplification(scheme, *expansive) > 1.0
        assert check_bit_identical(scheme, *expansive) == "identical"
        blowup = make_builtin("layer1", 2.0**-30), build_uniform_mesh(64)
        assert check_bit_identical(scheme, *blowup) == "raised"
        for eps, n in ((2.0**-12, 2**10), (2.0**-14, 2**12)):
            problem = make_builtin("layer1", eps)
            mesh = mesh_for("shishkin", n, eps)
            check_bit_identical(scheme, problem, mesh)

    @pytest.mark.parametrize("scheme", EXPLICIT_SCHEMES)
    def test_signed_zeros_subnormals_and_overflow(self, scheme):
        """Every start in SIGNED_STARTS against every rhs in EDGE_RHS, on
        meshes of 8 and 100 intervals: the same values, rhs arguments
        (sign bits included) and errors as the oracle, whose sums start at
        +0.0 where the straight-line steps start at their first term."""
        outcomes = []
        for y0 in SIGNED_STARTS:
            for rhs in EDGE_RHS.values():
                for n in (8, 100):
                    outcomes.append(check_bit_identical(scheme, custom(rhs, y0), build_uniform_mesh(n)))
        assert 0 < outcomes.count("raised") < len(outcomes) / 2

    @pytest.mark.parametrize("scheme", ["heun", "rk3_kutta"])
    def test_negative_zero_start_and_an_underflowing_sum(self, scheme):
        """From y = -0.0 with rhs = -5e-324, the oracle passes a stage -0.0
        (a nonzero a_jk*k sum whose product with h underflows); the driver
        hands that step to explicit_rk_step and matches it."""
        calls = []
        problem = custom(lambda x, y: calls.append(y) or -5e-324, y0=-0.0)
        tableau = named_tableau(scheme)
        explicit_rk_step(tableau, problem, 0.0, -0.0, 0.125)
        assert [math.copysign(1.0, y) for y in calls[1:]].count(-1.0) == 1
        assert check_bit_identical(scheme, problem, build_uniform_mesh(8)) == "identical"

    @pytest.mark.usefixtures("small_blocks")
    @pytest.mark.parametrize("scheme", EXPLICIT_SCHEMES)
    def test_negative_zero_run_across_a_block_boundary(self, scheme):
        """rhs = -1e-320 from y = -0.0: h*update underflows to -0.0 at every
        step, so y stays -0.0 and every step is handed over, in both
        blocks."""
        problem = custom(lambda x, y: -1e-320, y0=-0.0)
        mesh = build_uniform_mesh(TEST_BLOCK + 8)
        assert check_bit_identical(scheme, problem, mesh) == "identical"
        values = integrate(scheme, problem, mesh).values
        assert not values.any() and np.signbit(values).all()

    @pytest.mark.parametrize("scheme", EXPLICIT_SCHEMES)
    def test_negative_zero_keeps_its_sign(self, scheme):
        """From y0 = -0.0 the oracle's sums, which start at +0.0, turn
        every stage value and result into +0.0; a stage slope of -0.0
        must not leak a -0.0 through."""
        problem = custom(lambda x, y: -0.0 * y - 0.0, y0=-0.0)
        assert check_bit_identical(scheme, problem, build_uniform_mesh(8)) == "identical"
        values = integrate(scheme, problem, build_uniform_mesh(8)).values
        assert [math.copysign(1.0, v) for v in values] == [-1.0] + [1.0] * 8

    @pytest.mark.parametrize(
        "bad",
        [
            lambda: math.nan,
            lambda: math.inf,
            lambda: (_ for _ in ()).throw(OverflowError("math range error")),
        ],
        ids=["nan", "inf", "overflow"],
    )
    @pytest.mark.usefixtures("small_blocks")
    @pytest.mark.parametrize("scheme", EXPLICIT_SCHEMES)
    def test_failing_rhs_at_a_chosen_step(self, scheme, bad):
        """rhs fails from the second stage of step 5 on (in the second
        kernel block): StageEvaluationError, with the oracle's message."""
        mesh = build_uniform_mesh(TEST_BLOCK + 16)
        c2 = named_tableau(scheme).c[1]
        i = TEST_BLOCK + 5
        x_bad = mesh.nodes[i] + c2 * mesh.widths[i]
        problem = custom(lambda x, y: bad() if x >= x_bad else -y)
        assert check_bit_identical(scheme, problem, mesh) == "raised"
        with pytest.raises(StageEvaluationError, match=f"^step {i} failed: stage 2 "):
            integrate(scheme, problem, mesh)

    @pytest.mark.parametrize("scheme", EXPLICIT_SCHEMES)
    def test_other_exceptions_propagate_unchanged(self, scheme):
        def rhs(x, y):
            if x > 0.5:
                raise ZeroDivisionError("custom division")
            return -y

        problem = custom(rhs)
        assert check_bit_identical(scheme, problem, build_uniform_mesh(64)) == "raised"
        with pytest.raises(ZeroDivisionError, match="^custom division$"):
            integrate(scheme, problem, build_uniform_mesh(64))

    def test_overflow_only_in_the_result(self):
        """heun on y' = y from 1.15e308 with h = 1/2: the stage values
        y and 1.5y are finite, but y + h*update = 1.625y overflows.  The
        oracle raises at that step; the driver hands the step over, so
        rhs runs twice, and raises the same."""
        problem = custom(lambda x, y: y, y0=1.15e308)
        tableau = named_tableau("heun")
        message = "non-finite step result at x=0.0, h=0.5"
        with pytest.raises(StageEvaluationError) as raised:
            explicit_rk_step(tableau, problem, 0.0, 1.15e308, 0.5)
        assert str(raised.value) == message
        one_step = dataclasses.replace(problem, domain_end=0.5), build_uniform_mesh(1, (0.0, 0.5))
        assert check_bit_identical("heun", *one_step) == "raised"
        calls = []
        counted = dataclasses.replace(one_step[0], rhs=lambda x, y: calls.append(x) or y)
        for run in (counted, one_step[1]), (problem, build_uniform_mesh(2)):
            with pytest.raises(StageEvaluationError) as raised:
                integrate("heun", *run)
            assert type(raised.value) is StageEvaluationError
            assert str(raised.value) == f"step 0 failed: {message}"
        assert calls == [0.0, 0.5] * 2
        assert check_bit_identical("heun", problem, build_uniform_mesh(2)) == "raised"


    @pytest.mark.usefixtures("small_blocks")
    @pytest.mark.parametrize("kind", ["shishkin", "uniform"])
    @pytest.mark.parametrize("name", ["decay", "layer1"])
    def test_gauss2_scalar_only_builtins_across_a_block_boundary(self, name, kind):
        """Scalar-only p and q keep the kernel out, so TEST_BLOCK + 8
        intervals run the driver across a block boundary: values, p and q
        arguments and errors are the oracle's from eps = 1 to 2^-1074
        (where the mesh can be built; p = -1/eps overflows below ~2^-1023)."""
        outcomes = {}
        for eps in (1.0, 2.0**-4, 2.0**-12, 2.0**-40, 2.0**-1000, 2.0**-1074):
            try:
                mesh = mesh_for(kind, TEST_BLOCK + 8, eps)
            except ValueError:  # the Shishkin nodes would repeat
                continue
            outcomes[eps] = check_bit_identical("gauss2", scalar_only_builtin(name, eps), mesh)
        assert outcomes[1.0] == outcomes[2.0**-40] == "identical"

    @pytest.mark.usefixtures("small_blocks")
    @pytest.mark.parametrize("zero_at", [20, 100, TEST_BLOCK + 3])
    def test_gauss2_zero_width_interval(self, zero_at):
        """gauss2_linear_step accepts h = 0, which fails the block checks:
        it takes that interval and the rest of its block, and a later
        block runs straight-line again."""
        base = build_uniform_mesh(TEST_BLOCK + 8)
        nodes = np.insert(base.nodes, zero_at, base.nodes[zero_at])
        widths = np.insert(base.widths, zero_at, 0.0)
        mesh = Mesh(nodes=nodes, widths=widths, kind="hand-built")
        problem = scalar_only_builtin("layer1", 2.0**-4)
        assert check_bit_identical("gauss2", problem, mesh) == "identical"
        values = integrate("gauss2", problem, mesh).values
        assert values[zero_at + 1] == values[zero_at]

    @pytest.mark.usefixtures("small_blocks")
    @pytest.mark.parametrize("n", [40, TEST_BLOCK + 16])
    def test_gauss2_singular_stage_system_at_a_chosen_step(self, n):
        """p = (4/h)(1 - 2^-50) at the first stage abscissa of one step and
        0 elsewhere makes that step's determinant tiny but not zero, so
        only the singularity test stops the straight-line step there."""
        mesh = build_uniform_mesh(n)
        i = n - 11
        h = float(mesh.widths[i])
        x1 = float(mesh.nodes[i]) + (0.5 - GAUSS2_GAMMA) * h
        p_bad = 4.0 / h * (1.0 - 2.0**-50)
        assert 0.0 < abs(steppers._gauss2_determinant(p_bad, 0.0, h)) <= 1e-14
        problem = linear(scalar_only(lambda x: p_bad if x == x1 else 0.0), lambda x: 1.0)
        assert check_bit_identical("gauss2", problem, mesh) == "raised"
        with pytest.raises(SingularStepError, match=f"^step {i} failed: singular stage system"):
            integrate("gauss2", problem, mesh)

    @pytest.mark.parametrize(
        "bad",
        [lambda: math.nan, lambda: math.inf, lambda: np.float64(1e300) * np.float64(1e300)],
        ids=["nan", "inf", "numpy-overflow"],
    )
    @pytest.mark.usefixtures("small_blocks")
    @pytest.mark.parametrize("n", [40, TEST_BLOCK + 16])
    def test_gauss2_non_finite_result(self, n, bad):
        """q turns non-finite from step n - 11 on: StageEvaluationError,
        with the oracle's message."""
        mesh = build_uniform_mesh(n)
        i = n - 11
        x_bad = float(mesh.nodes[i])
        problem = linear(scalar_only(lambda x: -1.0), scalar_only(lambda x: bad() if x > x_bad else x))
        assert check_bit_identical("gauss2", problem, mesh) == "raised"
        with pytest.raises(StageEvaluationError, match=f"^step {i} failed: non-finite Gauss"):
            integrate("gauss2", problem, mesh)

    @pytest.mark.usefixtures("small_blocks")
    @pytest.mark.parametrize("n", [40, TEST_BLOCK + 16])
    def test_gauss2_raising_p_at_a_chosen_step(self, n):
        """An exception from p propagates unchanged, class and message."""
        mesh = build_uniform_mesh(n)
        x_bad = float(mesh.nodes[n - 11])

        def p(x):
            if x > x_bad:
                raise ZeroDivisionError(f"custom division at {x!r}")
            return -1.0

        problem = linear(scalar_only(p), scalar_only(lambda x: x))
        assert check_bit_identical("gauss2", problem, mesh) == "raised"
        with pytest.raises(ZeroDivisionError, match="^custom division at "):
            integrate("gauss2", problem, mesh)

    @pytest.mark.parametrize("p_value", [0.0, -1.0])
    @pytest.mark.usefixtures("small_blocks")
    @pytest.mark.parametrize("n", [8, TEST_BLOCK + 8])
    def test_gauss2_negative_zero_start(self, n, p_value):
        """From y0 = -0.0 with q = -0.0: p = 0 keeps every value -0.0 and
        p = -1 turns the first step's result into +0.0, as in the oracle."""
        problem = linear(scalar_only(lambda x: p_value), scalar_only(lambda x: -0.0), y0=-0.0)
        mesh = build_uniform_mesh(n)
        assert check_bit_identical("gauss2", problem, mesh) == "identical"
        values = integrate("gauss2", problem, mesh).values
        assert not values.any()
        assert np.signbit(values).tolist() == [True] + [p_value == 0.0] * n

    @pytest.mark.usefixtures("small_blocks")
    @pytest.mark.parametrize("n", [8, TEST_BLOCK + 8])
    def test_gauss2_without_a_linear_form(self, n):
        """gauss2 on a problem with no linear form raises the step
        function's ValueError at step 0."""
        problem = custom(lambda x, y: -y)
        assert check_bit_identical("gauss2", problem, build_uniform_mesh(n)) == "raised"
        message = (
            "problem 'custom' has no linear form; the closed-form Gauss step "
            "requires y' = p(x)*y + q(x)"
        )
        with pytest.raises(ValueError) as raised:
            integrate("gauss2", problem, build_uniform_mesh(n))
        assert str(raised.value) == message

    @pytest.mark.usefixtures("small_blocks")
    @pytest.mark.parametrize("zero_at", [20, TEST_BLOCK + 3])
    def test_gauss2_trusted_builtin_with_a_zero_width_interval(self, zero_at):
        """make_builtin's trusted pair on a mesh with h = 0 at one interval:
        p and q are called on arrays up to that interval, the step function
        takes it and the rest of its block on floats, and the other block
        runs from arrays again."""
        base = build_uniform_mesh(TEST_BLOCK + 8)
        nodes = np.insert(base.nodes, zero_at, base.nodes[zero_at])
        widths = np.insert(base.widths, zero_at, 0.0)
        mesh = Mesh(nodes=nodes, widths=widths, kind="hand-built")
        assert check_bit_identical("gauss2", make_builtin("layer1", 2.0**-4), mesh) == "identical"

    @pytest.mark.usefixtures("small_blocks")
    @pytest.mark.parametrize("failure", [None, "nan q", "raising p"])
    @pytest.mark.parametrize(
        "n, array_call",
        [
            (40, "raises"),
            (40, "wrong shape"),
            (TEST_BLOCK + 16, "raises"),
            (TEST_BLOCK + 16, "wrong shape"),
        ],
    )
    def test_gauss2_trusted_pair_whose_array_call_fails(self, n, array_call, failure):
        """A trusted pair whose p raises ZeroDivisionError on an array, or
        returns an array of the wrong shape, runs on float calls: the
        values, or the class, message and step of the failure from step
        n - 11 on, are the oracle's.  (From KERNEL_MIN_INTERVALS on, the
        kernel's gate rejects the run first: array_eval takes any exception
        from an array call as a rejection.)"""
        mesh = build_uniform_mesh(n)
        i = n - 11
        x_bad = float(mesh.nodes[i])

        def p(x):
            if isinstance(x, np.ndarray):
                if array_call == "raises":
                    raise ZeroDivisionError("array division")
                return np.zeros(3)
            if failure == "raising p" and x > x_bad:
                raise ZeroDivisionError(f"custom division at {x!r}")
            return -1.0

        def q(x):
            return math.nan if failure == "nan q" and x > x_bad else x

        problem = linear(p, q)
        outcome = check_bit_identical("gauss2", problem, mesh)
        assert outcome == ("identical" if failure is None else "raised")
        if failure == "nan q":
            with pytest.raises(StageEvaluationError, match=f"^step {i} failed: non-finite Gauss"):
                integrate("gauss2", problem, mesh)
        elif failure == "raising p":
            with pytest.raises(ZeroDivisionError, match="^custom division at "):
                integrate("gauss2", problem, mesh)

    @pytest.mark.parametrize("scheme", ["heun", "gauss2"])
    @pytest.mark.parametrize("n", [KERNEL_MIN_INTERVALS - 1, KERNEL_MIN_INTERVALS])
    def test_linear_pair_raising_on_arrays_across_the_crossover(self, scheme, n):
        """A p that raises ZeroDivisionError on arrays and returns -1.0 on
        floats integrates as the oracle does on both sides of
        KERNEL_MIN_INTERVALS: the float calls decide the result, as the
        oracle's do, and the kernel's array call only rejects the run."""

        def p(x):
            if isinstance(x, np.ndarray):
                raise ZeroDivisionError("array division")
            return -1.0

        problem = linear(p, lambda x: x)
        assert check_bit_identical(scheme, problem, build_uniform_mesh(n)) == "identical"
        assert check_against_oracle(scheme, problem, build_uniform_mesh(n)) == "identical"


#: |R(z)| <= 1 on [-bound, 0] of the real axis: 2 for the two-stage
#: schemes, the real root of 1 + z + z^2/2 + z^3/6 = -1 for the
#: three-stage ones; gauss2 is A-stable, and 2 only sets its z scale.
REAL_AXIS_BOUND = {2: 2.0, 3: 2.5127453266183286}


@pytest.mark.parametrize("scheme", SCHEME_NAMES)
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(fraction=st.floats(min_value=1.0 / 8.0, max_value=4.0))
@example(fraction=0.9)
@example(fraction=1.1)
def test_first_step_is_the_stability_function(scheme, fraction):
    """On eps*y' = -y from y = 1, one step is R(z) = 1 + z b^T (I - zA)^-1 1
    with z = -h/eps, within 4 ulps of max(1, |z|)^s.  On
    KERNEL_MIN_INTERVALS intervals, below the real-axis bound (fraction
    < 1), the kernel runs; above it the explicit schemes are expansive and
    the scalar driver runs, as it does at every fraction on 16 intervals."""
    tableau = named_tableau(scheme)
    for n in 16, KERNEL_MIN_INTERVALS:
        mesh = build_uniform_mesh(n)
        h = float(mesh.widths[0])
        eps = h / (fraction * REAL_AXIS_BOUND.get(tableau.stages, 2.0))
        z = -h / eps
        ones = np.ones(tableau.stages)
        r = 1.0 + z * tableau.b @ np.linalg.solve(np.eye(tableau.stages) - z * tableau.a, ones)
        got = integrate(scheme, make_builtin("decay", eps), mesh).values[1]
        assert abs(got - r) <= 4.0 * 2.0**-52 * max(1.0, abs(z)) ** tableau.stages
