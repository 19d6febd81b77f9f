"""Differential tests of ``integrate`` against a scalar oracle written
here over the public step functions.

Where the affine-step kernel runs, its values may differ from the
oracle's by rounding only: |y_i - oracle_i| <= C * N * 2^-52 *
max(1, max|oracle|) with C = ULP_FACTOR = 4 (the largest ratio seen over
60,000 random configurations with N <= 2^5 was 1.75, and it falls with
N).  Every run the kernel must not take (a nonlinear problem, a blow-up,
an expansive step, a singular Gauss system, coefficients that reject
arrays) goes through the scalar driver and must reproduce the oracle bit
for bit, exception class and ``step N`` message included; a run that
ends with finite values must also pass ``rhs`` the same arguments, in the
same order.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
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
)
from shishkin_ivp import steppers
from shishkin_ivp.steppers import KERNEL_BLOCK, SCAN_MIN_INTERVALS, scan_width
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
        """y' = -y + 1 from y = 1: the increment form keeps every node at 1,
        in the plain loop (N = 500) and in the scan (C = 16 and 64), whose
        composed maps keep S = -D bit for bit (rounding commutes with
        negation)."""
        problem = Problem(
            epsilon=1.0,
            x0=0.0,
            y0=1.0,
            rhs=lambda x, y: -y + 1.0,
            linear=(lambda x: -1.0, lambda x: 1.0),
            label="stationary",
        )
        for n, width in (500, 1), (5000, 16), (2**16, 64):
            assert scan_width(n) == width
            values = integrate(scheme, problem, build_from_sigma(n, 0.5, 0.2)).values
            assert np.all(values == 1.0)

    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    def test_out_of_domain_mesh_falls_back(self, scheme):
        """A mesh whose interior leaves the domain, whose last width runs
        past its end, or with a node below its start is the scalar
        driver's to reject, with the oracle's ValueError, for every
        scheme."""
        cases = [
            ("decay", 1.0, [0.0, 1.5, 1.0], [1.5, -0.5]),
            ("layer1", 0.5, [0.0, 0.5, 1.0], [0.5, 0.6]),
            ("layer1", 0.5, [0.0, -1e-3, 1.0], [0.5, 0.5]),
        ]
        for name, eps, nodes, widths in cases:
            problem = make_builtin(name, eps)
            bad = Mesh(nodes=np.array(nodes), widths=np.array(widths), kind="uniform")
            with pytest.raises(ValueError, match="leaves the domain") as expected:
                oracle(scheme, problem, bad)
            with pytest.raises(ValueError) as raised:
                integrate(scheme, problem, bad)
            assert str(raised.value) == str(expected.value)

    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    def test_inconsistent_widths_raise(self, scheme):
        """Widths that disagree with the node differences are rejected,
        though every step they give stays inside the domain, also on a
        builder's mesh with its widths replaced."""
        bad = Mesh(nodes=np.array([0.0, 0.5, 1.0]), widths=np.array([0.5, 0.4]), kind="uniform")
        replaced = dataclasses.replace(build_uniform_mesh(2), widths=bad.widths)
        for mesh in bad, replaced:
            oracle(scheme, make_builtin("layer1", 0.5), mesh)  # the steps themselves pass
            with pytest.raises(ValueError, match="width 0.4 inconsistent with node difference 0.5 at index 1"):
                integrate(scheme, make_builtin("layer1", 0.5), mesh)

    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    @pytest.mark.parametrize("n", [3, 6, 9])
    def test_width_tolerance_scales_with_the_nodes(self, scheme, n):
        """On [0, 1e6] a uniform mesh's widths and node differences differ
        by up to ~1e-10, within the tolerance scaled by 1e6.  Copied by
        hand, so that integrate checks its widths, such a mesh passes the
        step rule and integrates as the oracle does."""
        built = build_uniform_mesh(n, (0.0, 1e6))
        mesh = Mesh(nodes=built.nodes, widths=built.widths, kind="uniform")
        assert np.abs(mesh.widths - np.diff(mesh.nodes)).max() > 1e-12
        problem = dataclasses.replace(make_builtin("decay", 1.0), domain_end=1e6)
        assert check_against_oracle(scheme, problem, mesh) != "raised"
        assert np.array_equal(integrate(scheme, problem, mesh).values,
                              integrate(scheme, problem, built).values)

    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    def test_step_rule_error_comes_first(self, scheme):
        """Widths 1e-3 too long on the 7-interval uniform mesh on [0, 1e6]
        end its last step past 1e6 (the builder's own widths already do,
        by 1.2e-10, beyond the absolute DOMAIN_TOL): the step's error, not
        a width error."""
        built = build_uniform_mesh(7, (0.0, 1e6))
        mesh = Mesh(nodes=built.nodes, widths=built.widths + 1e-3, kind="uniform")
        problem = dataclasses.replace(make_builtin("decay", 1.0), domain_end=1e6)
        with pytest.raises(ValueError, match="leaves the domain") as expected:
            oracle(scheme, problem, mesh)
        with pytest.raises(ValueError) as raised:
            integrate(scheme, problem, mesh)
        assert str(raised.value) == str(expected.value)


def kernel_block(tableau, problem, x, h):
    """The kernel's coefficient layer on one block: the stage abscissae,
    then None (gate failed) or D, S and the headroom maxima as
    ``_affine_integrate`` reduces them."""
    stage_x, failed = steppers._step_checks(problem, tableau.c, x, h)
    assert not failed
    if tableau.explicit:
        lists = tableau.a.tolist(), tableau.b.tolist()
        found = steppers._explicit_coefficients(*lists, *problem.linear, stage_x, h)
    else:
        found = steppers._gauss2_coefficients(*problem.linear, stage_x, h)
    if found is None:
        return stage_x, None
    d, s, alphas, betas = found
    a_max = max(np.abs(alpha).max() for alpha in alphas)
    return stage_x, (d, s, a_max, max(np.abs(beta).max() for beta in betas))


def kernel_coefficients(scheme, problem, mesh):
    """The kernel's D and S for a mesh of one block."""
    assert len(mesh.widths) <= KERNEL_BLOCK
    tableau = named_tableau(scheme)
    _, found = kernel_block(tableau, problem, mesh.nodes[:-1], mesh.widths)
    return found[0], found[1]


def reference_block(tableau, problem, x, h):
    """The coefficient layer written generically, as the kernel's bits are
    defined: every stage abscissa x + c_j*h, every coefficient converted
    and broadcast, forward-substitution sums over the nonzero a_jk and
    over all b_j from Python's int 0 (so p*(h*0) + q for a first stage),
    the Gauss step by Cramer's rule, and maxima over every alpha, beta, p
    and q.  Returns what ``kernel_block`` returns."""
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
    a_max = max(np.abs(f).max() for f in alphas + ps)
    return stage_x, (d, s, a_max, max(np.abs(f).max() for f in betas + qs))


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
        """_step_checks reports exactly the intervals that fail h > 0 with
        x, x + h and every x + c_j*h inside the domain, on blocks that all
        pass and on blocks with zero, negative, nan and inf widths, nan
        nodes and nodes outside the domain; where an interval passes, its
        stage abscissae are x + c_j*h bit for bit."""
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
            assert failed == np.flatnonzero(~ok).tolist()
            assert (failed == []) == (trial % 4 == 0)
            assert all(map(same_bits, [g[ok] for g in got_stage], [e[ok] for e in stage]))

    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    def test_bits_equal_the_generic_layer(self, scheme):
        """Stage abscissae, D, S and the per-block headroom maxima, sign
        bits included (byte comparison), on random blocks with +-0.0
        nodes, -0.0 coefficients and every kind of callback result; the
        gate's verdict is the same too."""
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
                for _ in range(3):
                    x, h = random_block(rng)
                    with np.errstate(all="ignore"):
                        got_x, got = kernel_block(tableau, problem, x, h)
                        want_x, want = reference_block(tableau, problem, x, h)
                    assert all(map(same_bits, got_x, want_x))
                    verdicts.append(want is None)
                    assert (got is None) == (want is None)
                    if want is not None:
                        assert all(map(same_bits, got, want))
        assert 0 < sum(verdicts) < len(verdicts) / 2


class TestScan:
    """The two-level scan of the step recurrence: the plain loop at row
    width C = 1, and within the oracle's ulp bound on both sides of every
    change of C."""

    def test_width_rule(self):
        """C is 1 below SCAN_MIN_INTERVALS, then the largest power of two
        at most sqrt(N)/4; it changes only at even powers of two."""
        assert SCAN_MIN_INTERVALS == 2**10
        widths = {k: scan_width(2**k) for k in range(2, 23)}
        assert widths == {k: 1 if k < 10 else 2 ** (k // 2 - 2) for k in range(2, 23)}
        changes = [k for k in range(3, 23) if scan_width(2**k - 1) != widths[k]]
        assert changes == list(range(10, 23, 2))
        assert all(scan_width(2**k + 1) == widths[k] for k in range(2, 23))
        assert scan_width(2**40) == KERNEL_BLOCK

    @pytest.mark.parametrize("n", [2**4, 2**9, SCAN_MIN_INTERVALS - 2])
    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    def test_width_one_is_the_plain_loop(self, scheme, n):
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
        got = integrate(scheme, problem, mesh).values
        assert got.tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize(
        "scheme, n",
        [(scheme, 2**k + dn) for k in (10, 12, 14) for dn in (-2, 0) for scheme in SCHEME_NAMES]
        + [("heun", 2**16 - 2), ("heun", 2**16)],
    )
    def test_both_sides_of_each_width_change(self, scheme, n):
        """Shishkin meshes just below and at each change of C up to 2^16;
        the values are the same from run to run."""
        eps = 2.0**-8
        problem = make_builtin("layer1", eps)
        mesh = mesh_for("shishkin", n, eps)
        assert check_against_oracle(scheme, problem, mesh) == "kernel"
        first = integrate(scheme, problem, mesh).values
        assert first.tobytes() == integrate(scheme, problem, mesh).values.tobytes()

    @pytest.mark.parametrize("n", [3001, KERNEL_BLOCK + 32, 5000])
    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    def test_ragged_and_straddling_uniform_meshes(self, scheme, n):
        """A last row shorter than C (3001 = 375*8 + 1), a mesh straddling
        KERNEL_BLOCK in whole rows (4128 = 258*16), and both (5000)."""
        assert (n % scan_width(n) != 0) == (n != KERNEL_BLOCK + 32)
        problem = make_builtin("layer1", 2.0**-4)
        assert check_against_oracle(scheme, problem, build_uniform_mesh(n)) == "kernel"

    @pytest.mark.parametrize("width", [2, 128, 512, KERNEL_BLOCK])
    @pytest.mark.parametrize("scheme", ["heun", "rk3_a", "gauss2"])
    def test_other_widths(self, scheme, width, monkeypatch):
        """Widths the rule picks only on larger meshes (or never), on a
        ragged mesh straddling KERNEL_BLOCK: down to two rows."""
        monkeypatch.setattr(steppers, "scan_width", lambda n: width)
        problem = make_builtin("layer1", 2.0**-4)
        assert check_against_oracle(scheme, problem, build_uniform_mesh(5000)) == "kernel"


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


def check_bit_identical(scheme, problem, mesh):
    """Assert that integrate is the oracle bit for bit: the same values,
    from the same rhs arguments when every value is finite (a step with a
    non-finite result is redone by the oracle), or the same exception
    class and message.  Return how the run ended."""
    calls = []

    def rhs(x, y):
        calls.append((x, y))
        return problem.rhs(x, y)

    counted = dataclasses.replace(problem, rhs=rhs)
    calls.clear()
    try:
        expected = oracle(scheme, counted, mesh)
    except Exception as exc:
        with pytest.raises(Exception) as raised:
            integrate(scheme, counted, mesh)
        assert type(raised.value) is type(exc)
        assert str(raised.value) == str(exc)
        return "raised"
    expected_calls = np.array(calls)
    calls.clear()
    got = integrate(scheme, counted, mesh).values
    assert got.tobytes() == expected.tobytes()
    if np.isfinite(expected).all():
        assert np.array(calls).tobytes() == expected_calls.tobytes()
    return "identical"


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


class TestScalarDriver:
    """The explicit scalar driver against one explicit_rk_step per
    interval, bit for bit."""

    @pytest.mark.parametrize("kind", ["shishkin", "uniform"])
    @pytest.mark.parametrize("scheme", EXPLICIT_SCHEMES)
    def test_logistic_matrix(self, scheme, kind):
        """N = 2^13 spans two kernel blocks; eps = 2^-20 on the uniform
        mesh blows up."""
        assert 2**13 > KERNEL_BLOCK
        outcomes = set()
        for eps in (1.0, 2.0**-4, 2.0**-8, 2.0**-20):
            for n in (2**4, 2**9, 2**13):
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
    @pytest.mark.parametrize("scheme", EXPLICIT_SCHEMES)
    def test_failing_rhs_at_a_chosen_step(self, scheme, bad):
        """rhs fails from the second stage of step 5 on (in the second
        kernel block): StageEvaluationError, with the oracle's message."""
        mesh = build_uniform_mesh(KERNEL_BLOCK + 16)
        c2 = named_tableau(scheme).c[1]
        i = KERNEL_BLOCK + 5
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
    with z = -h/eps, within 4 ulps of max(1, |z|)^s.  Below the real-axis
    bound (fraction < 1) the kernel runs; above it the explicit schemes
    are expansive and the scalar driver runs."""
    tableau = named_tableau(scheme)
    mesh = build_uniform_mesh(16)
    h = float(mesh.widths[0])
    eps = h / (fraction * REAL_AXIS_BOUND.get(tableau.stages, 2.0))
    z = -h / eps
    ones = np.ones(tableau.stages)
    r = 1.0 + z * tableau.b @ np.linalg.solve(np.eye(tableau.stages) - z * tableau.a, ones)
    got = integrate(scheme, make_builtin("decay", eps), mesh).values[1]
    assert abs(got - r) <= 4.0 * 2.0**-52 * max(1.0, abs(z)) ** tableau.stages
