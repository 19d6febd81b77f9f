"""Tests for transition points, generating functions and mesh builders."""

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
from shishkin_ivp.mesh import WIDTH_CONSISTENCY_ATOL


def params(n=2**10, eps=2.0**-10, order=2, b=1.0, alpha=0.5):
    return ShishkinParams(
        n_intervals=n,
        epsilon=eps,
        method_order=order,
        layer_constant=b,
        split=alpha,
    )


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
        ],
    )
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            params(**kwargs)

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


class TestValidateMesh:
    def test_monotonicity_violation(self):
        nodes = np.array([0.0, 0.5, 0.4, 1.0])
        mesh = Mesh(nodes=nodes, widths=np.diff(nodes), kind="uniform")
        report = validate_mesh(mesh)
        assert any("index 2" in line for line in report)
        assert any("increasing" in line for line in report)

    def test_left_endpoint_violation(self):
        nodes = np.array([0.1, 0.6, 1.0])
        mesh = Mesh(nodes=nodes, widths=np.diff(nodes), kind="uniform")
        report = validate_mesh(mesh)
        assert any("left endpoint" in line for line in report)

    def test_width_inconsistency(self):
        nodes = np.array([0.0, 0.5, 1.0])
        mesh = Mesh(nodes=nodes, widths=np.array([0.5, 0.499]), kind="uniform")
        report = validate_mesh(mesh)
        assert any("inconsistent" in line for line in report)

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
        assert abs(np.sum(mesh.widths) - 1.0) <= WIDTH_CONSISTENCY_ATOL
