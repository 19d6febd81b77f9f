"""Tests for transition points, generating functions and mesh builders."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shishkin_ivp import (
    Mesh,
    ShishkinParams,
    build_from_sigma,
    build_shishkin_mesh,
    build_uniform_mesh,
    generating_function_eval,
    transition_point,
    validate_mesh,
)
from shishkin_ivp.mesh import inconsistent_widths
from shishkin_ivp.problems import DOMAIN_TOL, _unchecked


def without_init(nodes, widths):
    """A Mesh made as the builders make theirs, without __init__ and so
    without its width check: what validate_mesh reports on such a mesh."""
    return _unchecked(Mesh, nodes=nodes, widths=widths, kind="uniform", sigma=None)


def params(n=2**10, eps=2.0**-10, order=2, b=1.0, alpha=0.5):
    return ShishkinParams(
        n_intervals=n,
        epsilon=eps,
        method_order=order,
        layer_constant=b,
        split=alpha,
    )


class TestIntervalCount:
    """One interval-count rule for ShishkinParams, build_from_sigma and
    build_uniform_mesh: an integer, numpy's included, rejected at
    construction with a ValueError naming n_intervals otherwise."""

    BUILDERS = {
        "ShishkinParams": lambda n: ShishkinParams(n_intervals=n, epsilon=0.5),
        "build_from_sigma": lambda n: build_from_sigma(n, 0.5, 0.25),
        "build_uniform_mesh": build_uniform_mesh,
    }

    @pytest.mark.parametrize(
        "n, text",
        [(8.0, "8.0"), (True, "True"), (False, "False"), ("8", "'8'"), (None, "None"),
         (np.float64(8.0), "np.float64(8.0)"), (np.bool_(True), "np.True_")],
    )
    @pytest.mark.parametrize("builder", sorted(BUILDERS))
    def test_non_integers_rejected_by_name(self, builder, n, text):
        with pytest.raises(ValueError) as raised:
            self.BUILDERS[builder](n)
        assert str(raised.value) == f"n_intervals must be an integer, got {text}"

    @pytest.mark.parametrize(
        "builder, n, message",
        [("ShishkinParams", 2, "n_intervals must be even and >= 4, got 2"),
         ("ShishkinParams", 9, "n_intervals must be even and >= 4, got 9"),
         ("build_from_sigma", 1, "n_intervals must be >= 2, got 1"),
         ("build_uniform_mesh", 0, "n_intervals must be >= 1, got 0"),
         ("build_uniform_mesh", np.int64(-3), "n_intervals must be >= 1, got -3")],
    )
    def test_range_messages(self, builder, n, message):
        with pytest.raises(ValueError) as raised:
            self.BUILDERS[builder](n)
        assert str(raised.value) == message

    @pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint16])
    def test_numpy_integers_build_the_int_mesh(self, kind):
        for builder, n in (("ShishkinParams", 8), ("build_from_sigma", 8), ("build_uniform_mesh", 7)):
            found, want = self.BUILDERS[builder](kind(n)), self.BUILDERS[builder](n)
            if builder == "ShishkinParams":
                found, want = build_shishkin_mesh(found), build_shishkin_mesh(want)
            assert found.nodes.tobytes() == want.nodes.tobytes()
            assert found.widths.tobytes() == want.widths.tobytes()


class TestTransitionPoint:
    def test_layer_regime(self):
        """sigma = (n/b) * eps * ln N = 2 * 2^-10 * ln 1024."""
        assert transition_point(params()) == pytest.approx(
            0.013538030870311432, rel=1e-15
        )

    def test_saturates_at_half(self):
        """2 * 0.25 * ln 1024 > 1/2, so the cap binds."""
        assert transition_point(params(eps=0.25)) == 0.5

    def test_small_mesh(self):
        assert transition_point(params(n=16, eps=0.01)) == pytest.approx(
            0.055451774444795626, rel=1e-15
        )

    @pytest.mark.parametrize("k", [2, 5, 10, 17])
    @pytest.mark.parametrize("ee", [-1, -10, -20, -30])
    def test_always_in_half_open_interval(self, k, ee):
        sigma = transition_point(params(n=2**k, eps=2.0**ee))
        assert 0.0 < sigma <= 0.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=2),
            dict(n=5),
            dict(n=0),
            dict(eps=0.0),
            dict(eps=1.5),
            dict(eps=-0.1),
            dict(order=0),
            dict(b=0.0),
            dict(b=-1.0),
            dict(alpha=0.0),
            dict(alpha=1.0),
            dict(n=10, alpha=0.15),  # alpha * N not integral
            dict(order=math.nan),
            dict(order=math.inf),
            dict(n=4, alpha=1e-12),  # alpha * N rounds to 0 fine intervals
            dict(n=4, alpha=1 - 1e-12),  # ... or to all N of them
        ],
    )
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            params(**kwargs)

    @pytest.mark.parametrize("order", [math.nan, math.inf])
    def test_method_order_must_be_finite(self, order):
        """A nan or infinite n would give sigma = 1/2 silently."""
        with pytest.raises(ValueError, match="method_order must be finite"):
            params(n=8, eps=0.01, order=order)

    @pytest.mark.parametrize(
        "n, alpha", [(4, 1e-12), (4, 1 - 1e-12), (10, 0.15), (8, 0.0), (8, math.nan)]
    )
    def test_split_messages_are_the_builders(self, n, alpha):
        """ShishkinParams rejects a split with build_from_sigma's text, at
        construction rather than when the mesh is built."""
        with pytest.raises(ValueError) as built:
            build_from_sigma(n, alpha, 0.25)
        with pytest.raises(ValueError) as constructed:
            params(n=n, alpha=alpha)
        assert str(constructed.value) == str(built.value)

    @pytest.mark.parametrize("b", [float("inf"), float("nan")])
    def test_layer_constant_must_be_finite(self, b):
        """An infinite b would give sigma = 0 and fail later with a
        message about sigma; it is rejected here, by name."""
        with pytest.raises(ValueError, match="layer_constant must be finite"):
            params(b=b)


class TestGeneratingFunction:
    def test_endpoints_exact(self):
        assert generating_function_eval(0.25, 0.5, 0.0) == 0.0
        assert generating_function_eval(0.25, 0.5, 1.0) == 1.0

    def test_value_at_split_is_sigma(self):
        assert generating_function_eval(0.25, 0.5, 0.5) == 0.25

    def test_outer_branch(self):
        """sigma + (1 - sigma) * (xi - alpha)/(1 - alpha) at xi = 3/4."""
        assert generating_function_eval(0.25, 0.5, 0.75) == 0.625

    @pytest.mark.parametrize("sigma", [0.013538030870311432, 0.3, 0.5])
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.75])
    def test_continuous_at_split(self, sigma, alpha):
        """Both branches give exactly sigma at xi = alpha."""
        left = generating_function_eval(sigma, alpha, alpha)
        right = sigma + (1.0 - sigma) * ((alpha - alpha) / (1.0 - alpha))
        assert left == sigma
        assert right == sigma

    def test_nondecreasing(self):
        xs = np.linspace(0.0, 1.0, 501)
        vals = [generating_function_eval(0.1, 0.5, x) for x in xs]
        assert np.all(np.diff(vals) >= 0.0)
        assert vals[-1] == 1.0

    @pytest.mark.parametrize("xi", [-0.1, 1.1])
    def test_xi_domain(self, xi):
        with pytest.raises(ValueError):
            generating_function_eval(0.25, 0.5, xi)

    @pytest.mark.parametrize("sigma,alpha", [(0.0, 0.5), (0.6, 0.5), (0.25, 1.0)])
    def test_parameter_domain(self, sigma, alpha):
        with pytest.raises(ValueError):
            generating_function_eval(sigma, alpha, 0.5)


class TestBuildFromSigma:
    def test_hand_example(self):
        """phi at xi = 0, 1/4, 1/2, 3/4, 1 with sigma = 1/4."""
        mesh = build_from_sigma(4, 0.5, 0.25)
        assert mesh.nodes.tolist() == [0.0, 0.125, 0.25, 0.625, 1.0]
        assert mesh.widths.tolist() == [0.125, 0.125, 0.375, 0.375]
        assert mesh.sigma == 0.25

    def test_matches_generating_function(self):
        n = 2**10
        sigma = 0.013538030870311432
        mesh = build_from_sigma(n, 0.5, sigma)
        direct = np.array(
            [generating_function_eval(sigma, 0.5, i / n) for i in range(n + 1)]
        )
        np.testing.assert_allclose(mesh.nodes, direct, rtol=1e-14, atol=0.0)

    def test_split_node_equals_sigma(self):
        p = params()
        mesh = build_shishkin_mesh(p)
        sigma = transition_point(p)
        assert mesh.nodes[p.n_intervals // 2] == sigma
        assert sigma == pytest.approx(0.0135380, rel=1e-5)

    def test_saturated_equals_uniform(self):
        """With sigma = alpha = 1/2 both branches have unit slope."""
        mesh = build_shishkin_mesh(params(eps=0.25, n=64))
        uniform = build_uniform_mesh(64)
        assert np.array_equal(mesh.nodes, uniform.nodes)
        assert np.all(mesh.widths == 1.0 / 64)

    @pytest.mark.parametrize("k", [2, 6, 11, 17])
    @pytest.mark.parametrize("ee", [-1, -8, -19, -30])
    def test_piecewise_widths_match_closed_form(self, k, ee):
        """First half widths 2*sigma/N, second half 2*(1-sigma)/N."""
        n = 2**k
        p = params(n=n, eps=2.0**ee)
        sigma = transition_point(p)
        mesh = build_shishkin_mesh(p)
        h_fine = 2.0 * sigma / n
        h_coarse = 2.0 * (1.0 - sigma) / n
        assert np.all(np.abs(mesh.widths[: n // 2] - h_fine) <= 1e-15 * h_fine)
        assert np.all(np.abs(mesh.widths[n // 2 :] - h_coarse) <= 1e-15 * h_coarse)

    @pytest.mark.parametrize("k", range(2, 18))
    def test_roundtrip_validation(self, k):
        """validate_mesh stays empty over the whole (N, eps) grid."""
        for ee in range(1, 31):
            mesh = build_shishkin_mesh(params(n=2**k, eps=2.0**-ee))
            assert validate_mesh(mesh) == [], (k, ee)

    def test_non_power_of_two_even_n(self):
        mesh = build_from_sigma(12, 0.5, 0.2)
        assert validate_mesh(mesh) == []
        assert mesh.nodes[6] == 0.2

    def test_sigma_out_of_range(self):
        with pytest.raises(ValueError):
            build_from_sigma(8, 0.5, 0.75)
        with pytest.raises(ValueError):
            build_from_sigma(8, 0.5, 0.0)

    def test_subnormal_epsilon_zero_fine_width_rejected(self):
        """eps = 2^-1074, N = 2^20: sigma / m rounds to a zero width."""
        with pytest.raises(ValueError, match="repeat"):
            build_shishkin_mesh(params(n=2**20, eps=2.0**-1074))

    def test_repeated_node_at_sigma_rejected(self):
        """sigma = 14 subnormal units over 8 intervals rounds the width up
        to 2 units, so the eighth fine node lands on sigma itself."""
        with pytest.raises(ValueError, match="repeat"):
            build_from_sigma(16, 0.5, 14 * 2.0**-1074)

    @pytest.mark.parametrize("units", range(1, 80))
    def test_subnormal_sigma_built_or_rejected(self, units):
        """Every mesh that is built has strictly increasing nodes."""
        try:
            mesh = build_from_sigma(16, 0.5, units * 2.0**-1074)
        except ValueError:
            return
        assert np.all(np.diff(mesh.nodes) > 0.0)
        assert validate_mesh(mesh) == []


class TestUniformMesh:
    def test_canonical(self):
        mesh = build_uniform_mesh(4)
        assert mesh.nodes.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert mesh.kind == "uniform"
        assert mesh.sigma is None

    def test_single_interval(self):
        assert build_uniform_mesh(1).nodes.tolist() == [0.0, 1.0]

    def test_general_interval(self):
        mesh = build_uniform_mesh(10, (0.0, 2.0))
        assert np.all(mesh.widths == 0.2)
        assert mesh.nodes[-1] == 2.0

    def test_degenerate_interval(self):
        with pytest.raises(ValueError):
            build_uniform_mesh(4, (1.0, 1.0))
        with pytest.raises(ValueError):
            build_uniform_mesh(0)

    @pytest.mark.parametrize(
        "n, interval, message",
        [
            (4, (0.0, math.inf), "must be finite"),
            (4, (-math.inf, 0.0), "must be finite"),
            (4, (math.nan, 1.0), "must be finite"),
            (2, (-1e308, 1e308), "gives width inf"),
            (4, (0.0, 5e-324), "gives width 0.0"),
            (4, (1.0, 1.0 + 4e-16), "nodes would repeat"),
        ],
        ids=[
            "inf-end", "inf-start", "nan-start", "overflowing-width", "zero-width",
            "repeated-nodes",
        ],
    )
    def test_broken_span_rejected(self, n, interval, message):
        """Spans that would give non-finite nodes, zero widths or repeated
        nodes raise instead of building a broken mesh."""
        with pytest.raises(ValueError, match=message):
            build_uniform_mesh(n, interval)

    def test_span_of_one_ulp_per_interval(self):
        """The shortest span that still gives distinct nodes builds."""
        x_hi = 1.0 + 3 * 2.0**-52
        mesh = build_uniform_mesh(3, (1.0, x_hi))
        assert np.all(np.diff(mesh.nodes) > 0.0)
        assert mesh.nodes[-1] == x_hi


class TestValidateMesh:
    def test_widths_must_number_one_less_than_nodes(self):
        nodes = np.array([0.0, 0.5, 1.0])
        with pytest.raises(ValueError, match=r"mesh needs N\+1 nodes and N widths"):
            Mesh(nodes=nodes, widths=np.full(3, 0.5), kind="uniform")

    def test_monotonicity_violation(self):
        nodes = np.array([0.0, 0.5, 0.4, 1.0])
        mesh = Mesh(nodes=nodes, widths=np.diff(nodes), kind="uniform")
        report = validate_mesh(mesh)
        assert any("index 2" in line for line in report)
        assert any("increasing" in line for line in report)

    def test_left_endpoint_violation(self):
        nodes = np.array([0.1, 0.6, 1.0])
        mesh = Mesh(nodes=nodes, widths=np.diff(nodes), kind="uniform")
        assert validate_mesh(mesh) == ["left endpoint is 0.1, expected 0.0"]

    def test_right_endpoint_violation(self):
        nodes = np.array([0.0, 0.6, 1.5])
        mesh = Mesh(nodes=nodes, widths=np.diff(nodes), kind="uniform")
        assert validate_mesh(mesh) == ["right endpoint is 1.5, expected 1.0"]

    def test_width_inconsistency(self):
        nodes, widths = np.array([0.0, 0.5, 1.0]), np.array([0.5, 0.499])
        assert inconsistent_widths(nodes, widths) == [1]
        with pytest.raises(ValueError, match="inconsistent"):
            Mesh(nodes=nodes, widths=widths, kind="uniform")
        report = validate_mesh(without_init(nodes, widths))
        assert any("inconsistent" in line for line in report)

    def test_messages_print_python_floats(self):
        """The values read as Python floats, not as numpy scalar reprs, in
        Mesh's width error and in validate_mesh's report."""
        nodes, widths = np.array([0.0, 0.5, 1.0]), np.array([0.5, 0.4])
        with pytest.raises(ValueError) as raised:
            Mesh(nodes=nodes, widths=widths, kind="uniform")
        assert str(raised.value) == "mesh width 0.4 inconsistent with node difference 0.5 at index 1"
        assert validate_mesh(without_init(nodes, widths)) == [
            "width 0.4 inconsistent with node difference 0.5 at index 1",
            "sum of widths deviates from node span by 1.000e-01",
        ]
        # Each width 0.9e-12 longer than its node difference passes Mesh's
        # per-interval rule; together they deviate from the span.
        nodes = np.array([0.0, 0.25, 0.5, 1.0])
        mesh = Mesh(nodes=nodes, widths=np.diff(nodes) + 0.9e-12, kind="uniform")
        assert validate_mesh(mesh) == ["sum of widths deviates from node span by 2.700e-12"]

    def test_width_tolerance_on_the_unit_interval(self):
        """For |x| <= 1 the tolerance is DOMAIN_TOL itself."""
        nodes = np.array([0.0, 0.5, 1.0])
        for offset, flagged in [(0.5e-12, []), (2e-12, [1])]:
            widths = np.array([0.5, 0.5 + offset])
            assert inconsistent_widths(nodes, widths) == flagged
        assert np.abs(0.5 + 2e-12 - 0.5) > DOMAIN_TOL

    def test_width_tolerance_scales_with_the_nodes(self):
        """Node differences on [0, 1e6] carry ~1e-10 of rounding, within
        DOMAIN_TOL * 1e6; a width off by 1e-3 is not."""
        mesh = build_uniform_mesh(6, (0.0, 1e6))
        assert np.abs(mesh.widths - np.diff(mesh.nodes)).max() > DOMAIN_TOL
        assert validate_mesh(mesh, 0.0, 1e6) == []
        widths = mesh.widths.copy()
        widths[2] += 1e-3
        assert inconsistent_widths(mesh.nodes, widths) == [2]
        with pytest.raises(ValueError, match="at index 2$"):
            Mesh(nodes=mesh.nodes, widths=widths, kind="uniform")

    @pytest.mark.parametrize(
        "span", [(0.0, 1.0), (0.0, 1e6), (-3.7e5, 2.1e8), (1e-300, 3e-300), (-1e300, 1e300)]
    )
    def test_uniform_builder_widths_match_nodes(self, span):
        """The builders skip Mesh's width check: their nodes are
        single-rounding multiples of the stored widths."""
        for n in (1, 3, 7, 1000, 2**12 + 1):
            mesh = build_uniform_mesh(n, span)
            assert inconsistent_widths(mesh.nodes, mesh.widths) == [], n

    def test_nan_node_is_inconsistent(self):
        nodes, widths = np.array([0.0, np.nan, 1.0]), np.array([0.5, 0.5])
        assert inconsistent_widths(nodes, widths) == [0, 1]
        with pytest.raises(ValueError) as raised:
            Mesh(nodes=nodes, widths=widths, kind="uniform")
        assert str(raised.value) == "mesh width 0.5 inconsistent with node difference nan at index 0"
        report = validate_mesh(without_init(nodes, widths))
        assert sum("inconsistent" in line for line in report) == 2

    @pytest.mark.parametrize("nodes", [[0.0, np.inf, np.inf], [0.0, 1e308, -1e308]])
    def test_nonfinite_node_difference_is_inconsistent(self, nodes):
        """inf - inf and an overflowing difference are flagged, with no
        RuntimeWarning (an error under this suite's filter)."""
        with pytest.raises(ValueError, match="^mesh width 1.0 inconsistent with node difference"):
            Mesh(nodes=np.array(nodes), widths=np.array([1.0, 1.0]), kind="uniform")

    def test_valid_is_empty(self):
        assert validate_mesh(build_uniform_mesh(4)) == []

    def test_nodes_are_read_only(self):
        mesh = build_uniform_mesh(4)
        with pytest.raises(ValueError):
            mesh.nodes[0] = 0.5


@st.composite
def shishkin_inputs(draw):
    """Any even N in [4, 2^14], eps in [2^-1074, 1] (subnormals included),
    grading n in 1..4, b in (0, 8] and an alpha with alpha * N integral."""
    n = 2 * draw(st.integers(2, 2**13))
    return dict(
        n=n,
        eps=draw(st.floats(2.0**-1074, 1.0)),
        order=draw(st.integers(1, 4)),
        b=draw(st.floats(0.0, 8.0, exclude_min=True)),
        alpha=draw(st.integers(1, n - 1)) / n,
    )


class TestMeshInvariantProperty:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(shishkin_inputs())
    def test_built_or_rejected(self, kwargs):
        """Every input either raises ValueError or gives a valid mesh."""
        try:
            mesh = build_shishkin_mesh(params(**kwargs))
        except ValueError:
            return
        assert np.all(np.diff(mesh.nodes) > 0.0)
        assert np.all(mesh.widths > 0.0)
        assert mesh.nodes[0] == 0.0
        assert mesh.nodes[-1] == 1.0
        assert abs(np.sum(mesh.widths) - 1.0) <= DOMAIN_TOL


def concatenated_shishkin(n_intervals, alpha, sigma):
    """build_from_sigma's nodes and widths as they were built from
    concatenated temporaries, with its checks and messages."""
    if n_intervals < 2:
        raise ValueError(f"n_intervals must be >= 2, got {n_intervals}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if not 0.0 < sigma <= 0.5:
        raise ValueError(f"sigma must be in (0, 0.5], got {sigma}")
    m = round(alpha * n_intervals)
    if abs(alpha * n_intervals - m) > 1e-9 or not 0 < m < n_intervals:
        raise ValueError(
            f"alpha * n_intervals must be integral and interior, "
            f"got {alpha * n_intervals}"
        )
    h_fine = sigma / m
    h_coarse = (1.0 - sigma) / (n_intervals - m)
    fine = h_fine * np.arange(m + 1)
    fine[m] = sigma
    coarse = sigma + h_coarse * np.arange(1, n_intervals - m + 1)
    coarse[-1] = 1.0
    nodes = np.concatenate([fine, coarse])
    pinned = np.array([m - 1, m, n_intervals - 1])
    if not (h_fine > 0.0 and np.all(nodes[pinned] < nodes[pinned + 1])):
        raise ValueError(
            f"sigma = {sigma!r} is too small for {m} fine intervals: "
            "the mesh nodes would repeat"
        )
    widths = np.concatenate([np.full(m, h_fine), np.full(n_intervals - m, h_coarse)])
    return nodes, widths


def concatenated_uniform(n_intervals, interval=(0.0, 1.0)):
    """build_uniform_mesh's nodes and widths as they were built from
    temporaries, with its checks and messages."""
    x_lo, x_hi = interval
    if n_intervals < 1:
        raise ValueError(f"n_intervals must be >= 1, got {n_intervals}")
    if not (math.isfinite(x_lo) and math.isfinite(x_hi)):
        raise ValueError(f"interval endpoints must be finite, got [{x_lo}, {x_hi}]")
    if not x_lo < x_hi:
        raise ValueError(f"degenerate interval [{x_lo}, {x_hi}]")
    h = (x_hi - x_lo) / n_intervals
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError(
            f"interval [{x_lo}, {x_hi}] gives width {h} for {n_intervals} intervals"
        )
    nodes = x_lo + h * np.arange(n_intervals + 1)
    nodes[-1] = x_hi
    if not np.all(nodes[:-1] < nodes[1:]):
        raise ValueError(
            f"interval [{x_lo}, {x_hi}] is too short for {n_intervals} "
            "intervals: the mesh nodes would repeat"
        )
    return nodes, np.full(n_intervals, h)


def built_bytes(build, *args):
    """The bytes of the nodes and widths ``build`` gives, or its error's
    class and message."""
    try:
        found = build(*args)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    nodes, widths = (found.nodes, found.widths) if isinstance(found, Mesh) else found
    assert nodes.dtype == widths.dtype == np.float64
    return nodes.tobytes(), widths.tobytes()


class TestBuildersInPlace:
    """The builders write nodes and widths into their two output arrays;
    the doubles, and every error message, are those of the construction
    from temporaries."""

    @pytest.mark.parametrize("n", [4, 6, 2**10, 2**17 + 2])
    @pytest.mark.parametrize("eps", [1.0, 2.0**-8, 2.0**-30, 2.0**-1000])
    def test_shishkin_bytes(self, n, eps):
        sigma = transition_point(params(n=n, eps=eps))
        for alpha in (0.5, 0.25) if n % 4 == 0 else (0.5,):
            assert built_bytes(build_from_sigma, n, alpha, sigma) == built_bytes(
                concatenated_shishkin, n, alpha, sigma
            )

    @pytest.mark.parametrize("n", [4, 6, 2**10, 2**17 + 2])
    @pytest.mark.parametrize(
        "span", [(0.0, 1.0), (-0.0, 1.0), (0.0, 1e6), (-3.7e5, 2.1e8), (1e-300, 3e-300)]
    )
    def test_uniform_bytes(self, n, span):
        assert built_bytes(build_uniform_mesh, n, span) == built_bytes(
            concatenated_uniform, n, span
        )

    @pytest.mark.parametrize(
        "args",
        [(16, 0.5, 14 * 2.0**-1074), (16, 0.5, 3 * 2.0**-1074), (2**20, 0.5, 2.0**-1074),
         (8, 0.5, 0.75), (8, 0.5, 0.0), (10, 0.15, 0.2), (1, 0.5, 0.2)],
    )
    def test_shishkin_messages(self, args):
        found = built_bytes(build_from_sigma, *args)
        assert found[0] == "ValueError"
        assert found == built_bytes(concatenated_shishkin, *args)

    @pytest.mark.parametrize(
        "args",
        [(4, (0.0, math.inf)), (2, (-1e308, 1e308)), (4, (0.0, 5e-324)),
         (4, (1.0, 1.0 + 4e-16)), (0, (0.0, 1.0)), (4, (1.0, 1.0))],
    )
    def test_uniform_messages(self, args):
        found = built_bytes(build_uniform_mesh, *args)
        assert found[0] == "ValueError"
        assert found == built_bytes(concatenated_uniform, *args)
