"""Tests for the built-in problems and their evaluation helpers."""

import dataclasses
import importlib.util
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shishkin_ivp import problems
from shishkin_ivp import (
    SCHEME_NAMES,
    EvaluationError,
    Problem,
    build_uniform_mesh,
    exact_eval,
    integrate,
    linear_coeffs_eval,
    make_builtin,
    rhs_eval,
)
from shishkin_ivp.problems import (
    BUILTIN_NAMES,
    DOMAIN_TOL,
    array_eval,
    domain_bounds,
    domain_slack,
)
from shishkin_ivp.steppers import KERNEL_MIN_INTERVALS


class TestMakeBuiltin:
    def test_decay_initial_value(self):
        problem = make_builtin("decay", 2.0**-4)
        assert exact_eval(problem, 0.0) == 1.0
        assert problem.y0 == 1.0

    def test_layer1_initial_value(self):
        """x - exp(-x/eps) + 1 vanishes at x = 0."""
        for eps in (1.0, 2.0**-7, 2.0**-20):
            assert exact_eval(make_builtin("layer1", eps), 0.0) == 0.0

    def test_layer1_rhs_at_origin(self):
        """(eps + 1)/eps with eps = 1/4."""
        assert rhs_eval(make_builtin("layer1", 0.25), 0.0, 0.0) == 5.0

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown builtin"):
            make_builtin("oscillator", 0.5)

    @pytest.mark.parametrize("eps", [0.0, -0.5, 1.5])
    def test_epsilon_domain(self, eps):
        with pytest.raises(ValueError):
            make_builtin("decay", eps)

    @pytest.mark.parametrize("name", ["decay", "layer1"])
    @pytest.mark.parametrize("eps", [0.0, math.nan, 1.5])
    def test_epsilon_domain_message(self, name, eps):
        with pytest.raises(ValueError, match=r"^epsilon must be in \(0, 1\], got "):
            make_builtin(name, eps)


def reference_callbacks(name, epsilon):
    """(rhs, p, q, exact) of make_builtin as the plain formulas, kept
    verbatim from the first version as the bit-identity reference."""
    if name == "decay":
        return (
            lambda x, y: -y / epsilon,
            lambda x: -1.0 / epsilon,
            lambda x: 0.0,
            lambda x: np.exp(-x / epsilon),
        )

    def source(x, exp):
        e = exp(-x / epsilon)
        return (epsilon + e + x * (x - e + 1.0)) / epsilon

    return (
        lambda x, y: (-x / epsilon) * y + source(x, math.exp),
        lambda x: -x / epsilon,
        lambda x: source(x, np.exp),
        lambda x: x - np.exp(-x / epsilon) + 1.0,
    )


def outcome(fn, *args):
    """fn(*args) as its type, dtype and bytes, or as the class and message
    of what it raised."""
    try:
        with np.errstate(all="ignore"):
            value = fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return type(value), np.asarray(value).dtype, np.asarray(value).tobytes()


#: Abscissae in [0, 1]: both ends, the smallest subnormal, tiny values
#: whose x/eps is finite for small eps, and a grid.
BIT_X = np.unique(
    np.concatenate(([0.0, 5e-324, 1e-300, 2.0**-30, 1.0], np.linspace(0.0, 1.0, 129)))
)
BIT_Y = (0.0, -0.0, 1.0, -1.0, 1e308, -1e308)


def assert_builtin_bits(name, epsilon):
    problem = make_builtin(name, epsilon)
    rhs, *coefficients = reference_callbacks(name, epsilon)
    for got, expected in zip((*problem.linear, problem.exact), coefficients):
        assert outcome(got, BIT_X) == outcome(expected, BIT_X)
        for x in BIT_X.tolist():
            assert outcome(got, x) == outcome(expected, x), x
    for y in BIT_Y:
        assert outcome(problem.rhs, BIT_X, y) == outcome(rhs, BIT_X, y)
        for x in BIT_X.tolist():
            assert outcome(problem.rhs, x, y) == outcome(rhs, x, y), (x, y)
    ys = np.array(BIT_Y)
    assert outcome(problem.rhs, 0.5, ys) == outcome(rhs, 0.5, ys)


class TestBuiltinBits:
    """make_builtin's callbacks give the plain formulas' doubles, and
    raise what they raise (math.exp rejects an array x in rhs)."""

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    @pytest.mark.parametrize("log2_eps", [0, -8, -30, -1000, -1030, -1074])
    def test_pinned_eps(self, name, log2_eps):
        assert_builtin_bits(name, 2.0**log2_eps)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(log2_eps=st.floats(min_value=-1074.0, max_value=0.0))
    def test_property_over_every_eps(self, log2_eps):
        for name in BUILTIN_NAMES:
            assert_builtin_bits(name, 2.0**log2_eps)


def on_floats_and_on_an_array(fn, xs):
    """fn on each float of xs, and fn on xs as one array (a scalar result
    broadcast), as the bytes of two float64 arrays."""
    with np.errstate(all="ignore"):
        one_by_one = np.array([fn(x) for x in xs], dtype=float)
        array = np.array(xs)
        at_once = np.broadcast_to(np.asarray(fn(array), dtype=float), array.shape)
    return one_by_one.tobytes(), at_once.tobytes()


class TestBuiltinFloatArrayIdentity:
    """The builtins' p and q give the same doubles on a float as on an
    array, sign bits included, over the whole eps range and domain: the
    scalar Gauss step evaluates them on floats, the kernel on arrays."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        log2_eps=st.floats(min_value=-1074.0, max_value=0.0),
        xs=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=48),
    )
    def test_property(self, log2_eps, xs):
        eps = 2.0**log2_eps
        for name in BUILTIN_NAMES:
            for fn in make_builtin(name, eps).linear:
                for points in xs, BIT_X.tolist():
                    one_by_one, at_once = on_floats_and_on_an_array(fn, points)
                    assert one_by_one == at_once, (name, eps)


class TestSpotCheck:
    """Problem spot-checks a linear form against rhs at x0, the midpoint
    and domain_end, each at y0 and y0 + 1; make_builtin's problems skip it."""

    @pytest.fixture
    def spot_points(self, monkeypatch):
        seen = []
        original = problems.linear_coeffs_eval

        def counted(problem, x):
            seen.append(x)
            return original(problem, x)

        monkeypatch.setattr(problems, "linear_coeffs_eval", counted)
        return seen

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtins_make_no_call(self, spot_points, name):
        for eps in (1.0, 0.25, 2.0**-1074):
            make_builtin(name, eps)
        assert spot_points == []

    def test_custom_linear_problem_makes_three(self, spot_points):
        Problem(
            epsilon=1.0,
            x0=0.0,
            y0=1.0,
            rhs=lambda x, y: -y,
            linear=(lambda x: -1.0, lambda x: 0.0),
        )
        assert spot_points == [0.0, 0.5, 1.0]

    def test_replaced_rhs_is_checked_again(self):
        with pytest.raises(ValueError, match="disagrees"):
            dataclasses.replace(make_builtin("layer1", 0.25), rhs=lambda x, y: -y)

    def test_swapped_pair_is_checked_again(self):
        decay, layer1 = make_builtin("decay", 0.25), make_builtin("layer1", 0.25)
        with pytest.raises(ValueError, match="disagrees"):
            dataclasses.replace(decay, linear=layer1.linear)

    def test_builtin_pair_survives_a_replace_of_other_fields(self, spot_points):
        """The skip is tied to rhs and linear, the two fields the check
        compares."""
        problem = dataclasses.replace(make_builtin("layer1", 0.25), label="renamed")
        assert spot_points == [] and problem.label == "renamed"

    def test_extreme_builtin_would_fail_the_nan_rule(self):
        """layer1 at eps = 2^-1074 forms -inf*0 + inf = nan at x = 0.5, and
        its rhs (-inf)*0 + inf = nan too.  The builtin skips the check; the
        same callbacks in a custom Problem are rejected."""
        builtin = make_builtin("layer1", 2.0**-1074)
        p, q = builtin.linear
        with pytest.raises(ValueError, match="disagrees with rhs at x=0.5"):
            Problem(
                epsilon=builtin.epsilon,
                x0=0.0,
                y0=0.0,
                rhs=lambda x, y: builtin.rhs(x, y),
                linear=(p, q),
            )

    def test_nan_form_at_the_domain_end_disagrees(self):
        with pytest.raises(ValueError, match="disagrees with rhs at x=1.0"):
            Problem(
                epsilon=1.0,
                x0=0.0,
                y0=1.0,
                rhs=lambda x, y: -y,
                linear=(lambda x: math.nan if x == 1.0 else -1.0, lambda x: 0.0),
            )

    def test_nan_rhs_at_the_midpoint_disagrees(self):
        with pytest.raises(ValueError, match="disagrees with rhs at x=0.5"):
            Problem(
                epsilon=1.0,
                x0=0.0,
                y0=1.0,
                rhs=lambda x, y: math.nan if x == 0.5 else -y,
                linear=(lambda x: -1.0, lambda x: 0.0),
            )

    def test_equal_infinities_agree(self):
        problem = Problem(
            epsilon=1.0,
            x0=0.0,
            y0=1.0,
            rhs=lambda x, y: math.inf * y,
            linear=(lambda x: math.inf, lambda x: 0.0),
        )
        assert problem.linear is not None

    def test_wrong_p_at_a_zero_y0_disagrees(self):
        """At y0 = 0 the rhs and this form agree whatever p is; the check
        at y0 + 1 sees that p is -2 where rhs has -1."""
        message = r"linear form p\(x\)\*y \+ q\(x\) disagrees with rhs at x=0.0"
        with pytest.raises(ValueError, match=message):
            Problem(
                epsilon=1.0,
                x0=0.0,
                y0=0.0,
                rhs=lambda x, y: -y + 1.0,
                linear=(lambda x: -2.0, lambda x: 1.0),
            )

    def test_infinite_rhs_against_a_finite_form_disagrees(self):
        with pytest.raises(ValueError, match="disagrees with rhs at x=0.0"):
            Problem(
                epsilon=1.0,
                x0=0.0,
                y0=1.0,
                rhs=lambda x, y: math.inf,
                linear=(lambda x: -1.0, lambda x: 0.0),
            )

    def test_cancelling_rhs_agrees_with_its_form(self):
        """rhs reads 0 at (0, y0), where p*y0 and q are 2.3e9 in size and
        p*y0 + q rounds to ~1e-7: the tolerance scales with |p*y| and |q|."""
        eps = 3e-10
        problem = Problem(
            epsilon=eps,
            x0=0.0,
            y0=0.7,
            rhs=lambda x, y: (0.7 * math.exp(-x) - y) / eps,
            linear=(lambda x: -1 / eps, lambda x: 0.7 * math.exp(-x) / eps),
        )
        assert problem.linear is not None

    def test_finite_rhs_against_an_infinite_p_disagrees(self):
        """|p*y| = inf makes the tolerance infinite; the infinite difference
        still disagrees."""
        with pytest.raises(ValueError, match="disagrees with rhs at x=1.0"):
            Problem(
                epsilon=1.0,
                x0=0.0,
                y0=1.0,
                rhs=lambda x, y: -y,
                linear=(lambda x: -math.inf if x == 1.0 else -1.0, lambda x: 0.0),
            )


def load_perfbench_spans():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "scheme, n, calls",
    [
        ("gauss2", 16, 4 * 16),
        ("gauss2", 64, 4 * 64),
        ("gauss2", KERNEL_MIN_INTERVALS, 2),
        ("heun", 16, 2 * 16),
        ("heun", 64, 2 * 64),
        ("heun", KERNEL_MIN_INTERVALS, 1 + 2 * KERNEL_MIN_INTERVALS),
    ],
)
def test_instrumented_builtin_counts_and_keeps_values(scheme, n, calls):
    """perfbench's instrument_problem swaps a builtin's callbacks after
    construction, which drops the pair's trust: the run counts its
    callback calls and returns the same values.  At h/eps = 4 on
    KERNEL_MIN_INTERVALS intervals the kernel runs: gauss2 calls p and q
    once over 2*N points; heun calls p, which the gate rejects, then rhs
    twice per step.  Below it the scalar driver runs from the start: gauss2
    calls the untrusted p and q twice per step, heun rhs twice."""
    spans = load_perfbench_spans()
    tracer = spans.Tracer()
    mesh = build_uniform_mesh(n)
    eps = 1.0 / (4 * n)  # h/eps = 4
    expected = integrate(scheme, make_builtin("decay", eps), mesh).values
    problem = spans.instrument_problem(tracer, make_builtin("decay", eps))
    with tracer.span("run") as counters:
        values = integrate(scheme, problem, mesh).values
    assert values.tobytes() == expected.tobytes()
    assert counters["cb_calls"] == calls


class TestRhsEval:
    def test_decay_unit_epsilon(self):
        assert rhs_eval(make_builtin("decay", 1.0), 0.3, 2.0) == -2.0

    def test_decay_scaled(self):
        assert rhs_eval(make_builtin("decay", 0.25), 0.0, 1.0) == -4.0

    def test_layer1_unit_epsilon(self):
        """(1 + e^0 + 0)/1 = 2."""
        assert rhs_eval(make_builtin("layer1", 1.0), 0.0, 0.0) == 2.0

    def test_outside_domain(self):
        with pytest.raises(ValueError, match="outside problem domain"):
            rhs_eval(make_builtin("decay", 1.0), 1.5, 1.0)

    @pytest.mark.parametrize("x", [1.5, pytest.param(np.float64(1.5), id="float64")])
    def test_outside_domain_message(self, x):
        """The point prints as a Python float, not as a numpy repr."""
        with pytest.raises(ValueError) as raised:
            rhs_eval(make_builtin("decay", 1.0), x, 1.0)
        assert str(raised.value) == "x = 1.5 outside problem domain [0.0, 1.0]"

    def test_non_finite_rejected(self):
        bad = Problem(
            epsilon=1.0, x0=0.0, y0=0.0, rhs=lambda x, y: math.nan, label="nan"
        )
        with pytest.raises(EvaluationError):
            rhs_eval(bad, 0.5, 0.0)

    def test_overflow_rejected(self):
        bad = Problem(
            epsilon=1.0,
            x0=0.0,
            y0=0.0,
            rhs=lambda x, y: math.exp(1000.0 + x),
            label="overflow",
        )
        with pytest.raises(EvaluationError):
            rhs_eval(bad, 0.5, 0.0)


class TestLinearCoeffs:
    def test_decay_constant_coefficients(self):
        assert linear_coeffs_eval(make_builtin("decay", 0.25), 0.7) == (-4.0, 0.0)

    def test_layer1_at_origin(self):
        """p(0) = 0, q(0) = (eps + 1)/eps = 2 at eps = 1."""
        p, q = linear_coeffs_eval(make_builtin("layer1", 1.0), 0.0)
        assert p == 0.0
        assert q == 2.0

    @pytest.mark.parametrize("eps", [1.0, 2.0**-5, 2.0**-12])
    def test_layer1_p_vanishes_at_origin(self, eps):
        p, _ = linear_coeffs_eval(make_builtin("layer1", eps), 0.0)
        assert p == 0.0

    def test_missing_linear_form(self):
        plain = Problem(
            epsilon=1.0, x0=0.0, y0=0.0, rhs=lambda x, y: y * y, label="sq"
        )
        with pytest.raises(ValueError, match="no linear form"):
            linear_coeffs_eval(plain, 0.5)

    @pytest.mark.parametrize("eps", [2.0**-1074, 2.0**-1030])
    def test_overflowing_coefficients_are_values_not_warnings(self, eps):
        """layer1's scalar q divides a numpy scalar by eps, which overflows
        below eps = 2^-1023; the helper returns the infinities, also under
        the project's error::RuntimeWarning filter."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            p, q = linear_coeffs_eval(make_builtin("layer1", eps), 0.5)
        assert (p, q) == (-math.inf, math.inf)
        assert type(p) is float and type(q) is float


def scalars_only(x):
    if np.ndim(x):
        raise ValueError("scalar x required")
    return x


class TestArrayEval:
    """array_eval's contract: float64 of x's shape, or None."""

    x = np.linspace(0.0, 1.0, 4)

    def test_float64_array_of_the_shape_is_returned_as_it_is(self):
        result = np.array([1.0, -0.0, 2.5, 3.0])
        assert array_eval(lambda x: result, self.x) is result
        assert array_eval(lambda x: x, self.x) is self.x

    @pytest.mark.parametrize(
        "result",
        [
            -0.0,
            3,
            np.asarray(-0.5),
            np.ones(1),
            np.arange(4),
            np.arange(4, dtype=np.float32) / 3,
        ],
        ids=["float", "int", "0-d", "length-1", "int-array", "float32-array"],
    )
    def test_other_results_become_float64_of_the_shape(self, result):
        got = array_eval(lambda x: result, self.x)
        assert got.dtype == np.float64 and got.shape == self.x.shape
        expected = np.broadcast_to(np.asarray(result, dtype=float), self.x.shape)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "fn",
        [
            lambda x: np.ones(3),
            lambda x: np.ones((4, 2)),
            lambda x: np.ones((1, 4)),
            math.exp,
            scalars_only,
            lambda x: 1.0 / 0,
        ],
        ids=["short", "two-d", "leading-unit-axis", "type-error", "value-error", "zero-division"],
    )
    def test_rejection_is_none(self, fn):
        assert array_eval(fn, self.x) is None

    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    def test_identity_coefficient_leaves_the_mesh_alone(self, scheme):
        """p = lambda x: x hands the kernel its own stage abscissae back
        unconverted; integrate must not write through them."""
        seen = []

        def p(x):
            seen.append(isinstance(x, np.ndarray))
            return x

        problem = Problem(
            epsilon=1.0,
            x0=-1.0,
            y0=1.0,
            rhs=lambda x, y: x * y + 1.0,
            domain_end=0.0,
            linear=(p, lambda x: 1.0),
            label="identity",
        )
        mesh = build_uniform_mesh(2**11, (-1.0, 0.0))
        nodes = mesh.nodes.copy()
        seen.clear()
        values = integrate(scheme, problem, mesh).values
        assert any(seen)
        assert mesh.nodes.tobytes() == nodes.tobytes()
        assert np.isfinite(values).all()


class TestExactEval:
    def test_decay_value(self):
        assert exact_eval(make_builtin("decay", 0.5), 0.5) == pytest.approx(
            0.36787944117144233, rel=1e-15
        )

    def test_layer1_right_end_limit(self):
        """x - e^(-x/eps) + 1 -> 2 at x = 1 as eps -> 0."""
        assert exact_eval(make_builtin("layer1", 2.0**-20), 1.0) == pytest.approx(
            2.0, abs=1e-12
        )

    def test_missing_exact(self):
        plain = Problem(
            epsilon=1.0, x0=0.0, y0=0.0, rhs=lambda x, y: -y, label="plain"
        )
        with pytest.raises(ValueError, match="no exact solution"):
            exact_eval(plain, 0.5)

    @pytest.mark.parametrize(
        "x, shown",
        [
            (1.5, "1.5"),
            pytest.param(np.float64(1.5), "1.5", id="float64"),
            (math.nan, "nan"),
            (np.array([0.0, 0.5, 1.5, -1.0]), "1.5"),  # the first bad node
            (np.array([0.0, math.nan, 2.0]), "nan"),
            ([0.25, -0.5], "-0.5"),
        ],
    )
    def test_outside_domain_message(self, x, shown):
        with pytest.raises(ValueError) as raised:
            exact_eval(make_builtin("decay", 1.0), x)
        assert str(raised.value) == f"x = {shown} outside problem domain [0.0, 1.0]"

    def test_domain_slack_and_empty_array_pass(self):
        problem = make_builtin("layer1", 0.5)
        assert math.isfinite(exact_eval(problem, 1 + 1e-12))
        assert np.isfinite(exact_eval(problem, np.array([0.0, 1 + 1e-12]))).all()
        assert exact_eval(problem, np.array([])).shape == (0,)


class TestDomainBounds:
    def test_unit_interval_is_unchanged(self):
        """On [0, 1] the slack is DOMAIN_TOL itself, bit for bit."""
        assert domain_bounds(make_builtin("decay", 1.0)) == (-DOMAIN_TOL, 1.0 + DOMAIN_TOL)

    @pytest.mark.parametrize(
        "x0, end, slack", [(0.0, 1e6, 1e-6), (-4e3, 2.0, 4e-9), (0.25, 0.5, DOMAIN_TOL)]
    )
    def test_slack_scales_with_the_domain(self, x0, end, slack):
        problem = Problem(epsilon=1.0, x0=x0, y0=1.0, rhs=lambda x, y: -y, domain_end=end)
        assert domain_slack(problem) == slack
        assert domain_bounds(problem) == (x0 - slack, end + slack)

    @pytest.mark.parametrize("n", [7, 11])
    def test_builder_meshes_on_a_long_domain_integrate(self, n):
        """The last x + h of these uniform meshes on [0, 1e6] rounds
        ~1.2e-10 past 1e6: inside the scaled slack, for every scheme."""
        mesh = build_uniform_mesh(n, (0.0, 1e6))
        assert (mesh.nodes[:-1] + mesh.widths).max() > 1e6 + DOMAIN_TOL
        problem = Problem(
            epsilon=1.0,
            x0=0.0,
            y0=1.0,
            rhs=lambda x, y: -1e-6 * y,
            domain_end=1e6,
            linear=(lambda x: -1e-6, lambda x: 0.0),
        )
        for scheme in SCHEME_NAMES:
            assert np.isfinite(integrate(scheme, problem, mesh).values).all()

    def test_span_test_uses_the_slack(self):
        """integrate's span test accepts a mesh end within the scaled
        slack of domain_end and rejects one beyond it."""
        problem = Problem(epsilon=1.0, x0=0.0, y0=1.0, rhs=lambda x, y: -y, domain_end=1e6)
        inside = build_uniform_mesh(4, (0.0, 1e6 + 5e-7))
        assert np.isfinite(integrate("heun", problem, inside).values).all()
        outside = build_uniform_mesh(4, (0.0, 1e6 + 2e-6))
        with pytest.raises(ValueError, match="mesh spans"):
            integrate("heun", problem, outside)


class TestProblemValidation:
    def test_exact_within_an_ulp_of_a_large_y0_matches(self):
        """exact(0.01) is one ulp (1.2e-10) above y0: the tolerance is
        relative to |y0|."""
        problem = Problem(
            epsilon=1.0,
            x0=0.01,
            y0=1e6 * math.exp(-0.01),
            rhs=lambda x, y: -y,
            exact=lambda x: 1e6 / np.exp(x),
        )
        assert problem.exact is not None

    def test_exact_off_a_large_y0_prints_a_python_float(self):
        y0 = 1e6 * math.exp(-0.01) * (1 + 1e-11)
        message = rf"exact\(0.01\) = 990049.8337491682 does not match y0 = {y0!r}$"
        with pytest.raises(ValueError, match=message):
            Problem(
                epsilon=1.0,
                x0=0.01,
                y0=y0,
                rhs=lambda x, y: -y,
                exact=lambda x: 1e6 / np.exp(x),
            )

    def test_exact_must_match_y0(self):
        with pytest.raises(ValueError, match="does not match y0"):
            Problem(
                epsilon=1.0,
                x0=0.0,
                y0=0.0,
                rhs=lambda x, y: -y,
                exact=lambda x: math.exp(-x),
            )

    def test_exact_that_is_nan_at_x0_does_not_match(self):
        """A nan is no match for y0 (abs(nan - y0) > tol is False): kept, it
        would make max_error skip every gap and report 0.0."""
        with pytest.raises(ValueError, match="does not match y0"):
            Problem(
                epsilon=0.5,
                x0=0.0,
                y0=1.0,
                rhs=lambda x, y: -y / 0.5,
                exact=lambda x: float("nan"),
            )

    @pytest.mark.parametrize(
        "field, value",
        [("x0", math.nan), ("x0", -math.inf), ("y0", math.nan), ("y0", math.inf),
         ("y0", -math.inf), ("domain_end", math.inf), ("domain_end", math.nan)],
    )
    def test_endpoints_and_initial_value_must_be_finite(self, field, value):
        fields = {"epsilon": 1.0, "x0": 0.0, "y0": 0.0, "rhs": lambda x, y: 0.0}
        with pytest.raises(ValueError, match="x0, y0 and domain_end must be finite"):
            Problem(**{**fields, field: value})

    def test_domain_must_be_nonempty(self):
        with pytest.raises(ValueError, match="domain_end"):
            Problem(epsilon=1.0, x0=1.0, y0=0.0, rhs=lambda x, y: 0.0, domain_end=1.0)

    def test_linear_form_must_match_rhs(self):
        with pytest.raises(ValueError, match="linear form"):
            Problem(
                epsilon=1.0,
                x0=0.0,
                y0=1.0,
                rhs=lambda x, y: -y,
                linear=(lambda x: -1.0, lambda x: 3.0),
            )

    def test_linear_form_is_checked_at_the_domain_end(self):
        """A form that agrees with rhs at x0 and the midpoint only."""
        with pytest.raises(ValueError, match="disagrees with rhs at x=1.0"):
            Problem(
                epsilon=1.0,
                x0=0.0,
                y0=1.0,
                rhs=lambda x, y: -y + (5.0 if x > 0.9 else 0.0),
                linear=(lambda x: -1.0, lambda x: 0.0),
            )


@pytest.mark.parametrize("name", ["decay", "layer1"])
@pytest.mark.parametrize("eps", [1.0, 2.0**-3, 2.0**-8])
class TestAnalyticConsistency:
    def test_exact_satisfies_ode(self, name, eps):
        """Central difference of the exact solution tracks the rhs."""
        problem = make_builtin(name, eps)
        delta = 1e-6 * max(eps, 1e-3)
        xs = np.linspace(delta, 1.0 - delta, 100)
        for x in xs:
            slope = (exact_eval(problem, x + delta) - exact_eval(problem, x - delta)) / (
                2.0 * delta
            )
            assert abs(slope - rhs_eval(problem, x, exact_eval(problem, x))) <= 1e-6

    def test_rhs_matches_linear_form(self, name, eps):
        problem = make_builtin(name, eps)
        rng = np.random.default_rng(7)
        for _ in range(200):
            x = rng.uniform(0.0, 1.0)
            y = rng.uniform(-3.0, 3.0)
            p, q = linear_coeffs_eval(problem, x)
            r = rhs_eval(problem, x, y)
            assert abs(r - (p * y + q)) <= 1e-12 * (1.0 + abs(r))

    def test_initial_condition_exact(self, name, eps):
        problem = make_builtin(name, eps)
        assert exact_eval(problem, problem.x0) == problem.y0
