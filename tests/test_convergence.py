"""Tests for error measurement, order estimation and sweep tables."""

import dataclasses
import math
import threading

import numpy as np
import pytest
from mpmath import mp, mpf

from shishkin_ivp import (
    Mesh,
    Problem,
    ShishkinParams,
    Trajectory,
    build_shishkin_mesh,
    build_uniform_mesh,
    exact_eval,
    integrate,
    make_builtin,
    max_error,
    oscillation_count,
    run_sweep,
    shishkin_order,
)
from shishkin_ivp import SCHEME_NAMES, convergence, mesh as mesh_module, named_tableau, steppers
from shishkin_ivp.tableaux import EXPLICIT_SCHEMES

from reference_tables import (
    REFERENCE_HEUN_ERRORS,
    REFERENCE_HEUN_ORDERS,
    SUSPECT_CELLS,
)


def trajectory_from_values(values, exact=None):
    mesh = build_uniform_mesh(len(values) - 1)
    problem = Problem(
        epsilon=1.0,
        x0=0.0,
        y0=float(values[0]),
        rhs=lambda x, y: 0.0,
        exact=exact,
        label="synthetic",
    )
    return (
        Trajectory(
            mesh=mesh,
            values=np.asarray(values, dtype=float),
            scheme_id="synthetic",
            problem_id="synthetic",
        ),
        problem,
    )


class TestMaxError:
    def test_zero_for_exact_trajectory(self):
        problem = make_builtin("decay", 0.5)
        mesh = build_uniform_mesh(16)
        values = np.array([problem.exact(x) for x in mesh.nodes])
        trajectory = Trajectory(
            mesh=mesh, values=values, scheme_id="exact", problem_id="decay"
        )
        assert max_error(trajectory, problem) == 0.0

    def test_two_node_synthetic(self):
        trajectory, problem = trajectory_from_values(
            [0.0, 0.5], exact=lambda x: 0.4 * x
        )
        assert max_error(trajectory, problem) == pytest.approx(0.1, rel=1e-12)

    def test_requires_exact_solution(self):
        trajectory, problem = trajectory_from_values([0.0, 0.5])
        with pytest.raises(ValueError, match="no exact solution"):
            max_error(trajectory, problem)


@pytest.mark.parametrize("n", [4, 16, 64, 128, 512])
@pytest.mark.parametrize("scheme", SCHEME_NAMES)
class TestSolveChecks:
    """The checks around a small solve, for every scheme on the scalar
    driver (N < 128) and the kernel: each fires with its class and
    message, or gives the value it gave before it was trimmed."""

    EPS = 2.0**-4

    def solve(self, scheme, n):
        problem = make_builtin("layer1", self.EPS)
        mesh = build_shishkin_mesh(ShishkinParams(n_intervals=n, epsilon=self.EPS))
        return problem, integrate(scheme, problem, mesh)

    @pytest.mark.parametrize("interval", [(0.0, 2.0), (-0.5, 1.0), (0.0, 0.5)])
    def test_mesh_off_the_domain(self, scheme, n, interval):
        with pytest.raises(ValueError) as raised:
            integrate(scheme, make_builtin("layer1", self.EPS), build_uniform_mesh(n, interval))
        assert str(raised.value) == (
            f"mesh spans [{interval[0]}, {interval[1]}] but problem domain is [0.0, 1.0]"
        )

    def test_node_outside_the_domain(self, scheme, n):
        problem, trajectory = self.solve(scheme, n)
        nodes = trajectory.mesh.nodes.copy()
        nodes[n // 2] = 1.5
        mesh = Mesh(nodes=nodes, widths=np.diff(nodes), kind="hand-built")
        moved = Trajectory(mesh=mesh, values=trajectory.values, scheme_id=scheme, problem_id="p")
        with pytest.raises(ValueError) as raised:
            max_error(moved, problem)
        assert str(raised.value) == "x = 1.5 outside problem domain [0.0, 1.0]"

    def test_scalar_only_exact_is_the_array_path(self, scheme, n):
        problem, trajectory = self.solve(scheme, n)

        def exact(x):
            if isinstance(x, np.ndarray):
                raise TypeError("floats only")
            return problem.exact(x)

        scalar_only = dataclasses.replace(problem, exact=exact)
        nodes = trajectory.mesh.nodes
        assert exact_eval(scalar_only, nodes).tobytes() == exact_eval(problem, nodes).tobytes()
        assert max_error(trajectory, scalar_only) == max_error(trajectory, problem)

    def test_nan_value_is_skipped(self, scheme, n):
        problem, trajectory = self.solve(scheme, n)
        values = trajectory.values.copy()
        values[n // 2] = np.nan
        gaps = np.abs(exact_eval(problem, trajectory.mesh.nodes) - values)
        holed = Trajectory(mesh=trajectory.mesh, values=values, scheme_id=scheme, problem_id="p")
        assert max_error(holed, problem) == np.nanmax(gaps) > 0.0


class TestShishkinOrder:
    def test_reference_pair(self):
        """First reference row: 1.49e-06 -> 4.51e-07 at k = 10."""
        assert shishkin_order(1.49e-06, 4.51e-07, 10) == pytest.approx(2.00, abs=0.005)

    def test_equal_errors_give_zero(self):
        assert shishkin_order(3.7e-5, 3.7e-5, 6) == 0.0

    def test_direct_evaluation(self):
        """ln 8 / ln(6/4)."""
        assert shishkin_order(8e-3, 1e-3, 3) == pytest.approx(
            5.128533874054364, rel=1e-14
        )

    def test_scale_invariance_exact_for_binary_factors(self):
        e1, e2 = 3.1e-6, 7.7e-7
        base = shishkin_order(e1, e2, 9)
        for c in (2.0**-8, 2.0**13):
            assert shishkin_order(c * e1, c * e2, 9) == base

    def test_scale_invariance_general_factor(self):
        e1, e2 = 3.1e-6, 7.7e-7
        assert shishkin_order(3.0 * e1, 3.0 * e2, 9) == pytest.approx(
            shishkin_order(e1, e2, 9), rel=1e-12
        )

    def test_k_domain(self):
        with pytest.raises(ValueError, match="k must be >= 2"):
            shishkin_order(1e-3, 1e-4, 1)

    @pytest.mark.parametrize("pair", [(0.0, 1e-4), (1e-3, 0.0), (-1e-3, 1e-4)])
    def test_positive_errors_required(self, pair):
        with pytest.raises(ValueError, match="positive"):
            shishkin_order(pair[0], pair[1], 5)


class TestRunSweep:
    def test_table_structure(self):
        table = run_sweep("heun", "layer1", [0.25], 3, 5)
        assert table.k_range == (3, 4, 5)
        assert table.epsilons == (0.25,)
        assert table.scheme_id == "heun"
        assert table.mesh_kind == "shishkin"
        for k in (3, 4):
            assert table.entries[(0.25, k)].order is not None
        assert table.entries[(0.25, 5)].order is None
        for cell in table.entries.values():
            assert cell.error > 0.0 and math.isfinite(cell.error)

    def test_orders_chain_consecutive_errors(self):
        table = run_sweep("heun", "layer1", [2.0**-6], 10, 12)
        e10 = table.entries[(2.0**-6, 10)].error
        e11 = table.entries[(2.0**-6, 11)].error
        assert table.entries[(2.0**-6, 10)].order == shishkin_order(e10, e11, 10)

    def test_empty_epsilons_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            run_sweep("heun", "layer1", [], 3, 5)

    def test_numpy_epsilons(self):
        """A numpy array of epsilons gives the list's table, and an empty
        one the list's error, not numpy's ambiguous truth value."""
        table = run_sweep("heun", "layer1", np.array([0.5, 0.25]), 4, 5)
        assert table == run_sweep("heun", "layer1", [0.5, 0.25], 4, 5)
        with pytest.raises(ValueError, match="epsilons must be nonempty"):
            run_sweep("heun", "layer1", np.array([]), 4, 5)

    def test_bad_k_range_rejected(self):
        with pytest.raises(ValueError, match="k_min"):
            run_sweep("heun", "layer1", [0.25], 5, 5)
        with pytest.raises(ValueError, match="k_min"):
            run_sweep("heun", "layer1", [0.25], 1, 5)

    def test_failure_annotated_with_cell(self):
        """Uniform meshes this coarse blow up for tiny epsilon."""
        with pytest.raises(ArithmeticError, match=r"eps=.*k=6"):
            run_sweep("heun", "layer1", [2.0**-30], 6, 7, mesh_kind="uniform")

    def test_uniform_kind(self):
        table = run_sweep("heun", "decay", [0.5], 3, 4, mesh_kind="uniform")
        assert table.mesh_kind == "uniform"


class TestGrading:
    """build_mesh and run_sweep hand the grading keywords to ShishkinParams,
    whose fields and defaults are the only ones."""

    def test_unknown_mesh_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown mesh kind 'bogus'"):
            convergence.build_mesh("bogus", 8, 0.5)

    def test_grading_reaches_the_shishkin_mesh(self):
        grading = {"method_order": 1, "layer_constant": 2.0, "split": 0.25}
        got = convergence.build_mesh("shishkin", 16, 2.0**-6, **grading)
        want = build_shishkin_mesh(ShishkinParams(16, 2.0**-6, **grading))
        assert np.array_equal(got.nodes, want.nodes) and got.sigma == want.sigma

    def test_grading_ignored_on_a_uniform_mesh(self):
        got = convergence.build_mesh("uniform", 8, None, method_order=-3, split=7.0)
        assert np.array_equal(got.nodes, build_uniform_mesh(8).nodes)

    def test_sweep_passes_the_grading_on(self):
        eps, problem = 2.0**-6, make_builtin("layer1", 2.0**-6)
        graded = run_sweep("heun", "layer1", [eps], 10, 11, method_order=1)
        plain = run_sweep("heun", "layer1", [eps], 10, 11)
        mesh = build_shishkin_mesh(ShishkinParams(2**10, eps, method_order=1))
        error = max_error(integrate("heun", problem, mesh), problem)
        assert graded.entries[(eps, 10)].error == error != plain.entries[(eps, 10)].error

    def test_misspelled_grading_keyword_raises(self):
        with pytest.raises(TypeError, match="layer_const"):
            run_sweep("heun", "layer1", [0.25], 3, 4, layer_const=2.0)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: convergence.build_mesh("uniform", 8, None, layer_const=2.0),
            lambda: run_sweep("heun", "decay", [0.5], 3, 4, mesh_kind="uniform", layer_const=2.0),
        ],
        ids=["build_mesh", "run_sweep"],
    )
    def test_misspelled_grading_keyword_raises_on_a_uniform_mesh(self, call):
        """The grading's values are ignored on a uniform mesh, its names are
        not: a keyword ShishkinParams lacks raises as on a Shishkin mesh."""
        with pytest.raises(TypeError, match="layer_const"):
            call()


def cells_seen(monkeypatch):
    """Hook convergence.max_error, as a harness would, and list each
    cell's (nodes, widths, values) as run_sweep hands them over."""
    seen = []
    original = convergence.max_error

    def hooked(trajectory, problem):
        seen.append((trajectory.mesh.nodes, trajectory.mesh.widths, trajectory.values))
        return original(trajectory, problem)

    monkeypatch.setattr(convergence, "max_error", hooked)
    return seen


def public_cells(scheme, problem_name, epsilons, k_min, k_max, kind):
    """The cells of run_sweep from public calls, one fresh mesh and
    trajectory per cell, outside any sweep."""
    errors = {}
    for eps in epsilons:
        problem = make_builtin(problem_name, eps)
        for k in range(k_min, k_max + 1):
            if kind == "shishkin":
                mesh = build_shishkin_mesh(ShishkinParams(n_intervals=2**k, epsilon=eps))
            else:
                mesh = build_uniform_mesh(2**k)
            errors[(eps, k)] = max_error(integrate(scheme, problem, mesh), problem)
    return {
        (eps, k): (error, shishkin_order(error, errors[(eps, k + 1)], k) if k < k_max else None)
        for (eps, k), error in errors.items()
    }


class TestSweepArrays:
    """run_sweep's cells take their meshes' nodes and widths, the kernel's
    D grid and their node values from one set of arrays sized for the
    largest cell; nothing else does."""

    def test_cells_share_the_first_cells_arrays(self, monkeypatch):
        """Both eps rows, scalar-driver cells (N < 128) and kernel cells."""
        seen = cells_seen(monkeypatch)
        run_sweep("heun", "layer1", [2.0**-4, 2.0**-8], 4, 11)
        assert len(seen) == 16
        first = seen[0]
        for cell in seen:
            for array, first_array in zip(cell, first):
                assert np.shares_memory(array, first_array)
        nodes, widths, values = first
        assert not np.shares_memory(nodes, widths)
        assert not np.shares_memory(nodes, values)
        assert not np.shares_memory(widths, values)

    def test_fresh_arrays_outside_a_sweep(self, monkeypatch):
        seen = cells_seen(monkeypatch)
        run_sweep("heun", "layer1", [2.0**-4], 6, 8)
        assert mesh_module._SWEEP_ARRAYS.get() is None
        problem = make_builtin("layer1", 2.0**-4)
        runs = []
        for _ in range(2):
            for mesh in (
                build_shishkin_mesh(ShishkinParams(n_intervals=2**8, epsilon=2.0**-4)),
                build_uniform_mesh(2**8),
            ):
                trajectory = integrate("heun", problem, mesh)
                runs.append((mesh.nodes, mesh.widths, trajectory.values))
        swept = [array for cell in seen[:1] for array in cell]
        fresh = [array for run in runs for array in run]
        for i, array in enumerate(fresh):
            assert not any(np.shares_memory(array, other) for other in swept + fresh[:i])

    def test_failing_sweep_releases_its_arrays(self):
        with pytest.raises(ArithmeticError):
            run_sweep("heun", "layer1", [2.0**-30], 6, 7, mesh_kind="uniform")
        assert mesh_module._SWEEP_ARRAYS.get() is None

    def test_another_thread_gets_fresh_arrays(self, monkeypatch):
        """An integrate in another thread, run while a sweep's first cell is
        open, neither takes the sweep's arrays nor writes to them."""
        original = convergence.max_error
        swept, found = [], []

        def other_thread():
            problem = make_builtin("layer1", 2.0**-6)
            mesh = build_shishkin_mesh(ShishkinParams(n_intervals=2**9, epsilon=2.0**-6))
            found.extend([mesh.nodes, mesh.widths, integrate("gauss2", problem, mesh).values])

        def hooked(trajectory, problem):
            if not swept:
                swept.extend([trajectory.mesh.nodes, trajectory.mesh.widths, trajectory.values])
                before = [array.copy() for array in swept]
                thread = threading.Thread(target=other_thread)
                thread.start()
                thread.join()
                assert [array.tobytes() for array in swept] == [a.tobytes() for a in before]
            return original(trajectory, problem)

        monkeypatch.setattr(convergence, "max_error", hooked)
        run_sweep("heun", "layer1", [2.0**-6], 9, 10)
        assert len(found) == 3
        for array in found:
            assert not any(np.shares_memory(array, other) for other in swept)

    @pytest.mark.parametrize("n", [1, 2, 1023, 1024, 1025, 2049, 3 * 1024 + 3, 8191, 8193, 16387])
    def test_swept_index_is_arange(self, n):
        """A sweep's float index, written over nan from a 1024-node head
        that doubles in place, has np.arange's doubles and ends at n."""
        slot = np.full(2**15, np.nan)
        token = mesh_module._SWEEP_ARRAYS.set({"nodes": slot})
        try:
            index = mesh_module._array("nodes", n, index=True)
            assert np.shares_memory(index, slot)
        finally:
            mesh_module._SWEEP_ARRAYS.reset(token)
        assert index.tobytes() == np.arange(n, dtype=float).tobytes()
        assert np.isnan(slot[n:]).all()

    @pytest.mark.parametrize("n", [1000, 5000, 2**12 + 3])
    @pytest.mark.parametrize("scheme", ["heun", "rk3_a", "gauss2"])
    def test_stale_arrays_leave_no_trace(self, scheme, n):
        """Sweep arrays full of nan, as a cell could leave them, under a
        ragged mesh whose last scan row ends in padding steps: the kernel
        runs and its values are those of fresh arrays."""
        problem = make_builtin("layer1", 2.0**-6)
        mesh = build_uniform_mesh(n)
        fresh = steppers._affine_integrate(named_tableau(scheme), problem, mesh)
        slots = ("nodes", "widths", "d", "values")
        token = mesh_module._SWEEP_ARRAYS.set({slot: np.full(2**13 + 1, np.nan) for slot in slots})
        try:
            got = steppers._affine_integrate(named_tableau(scheme), problem, mesh)
            stale = mesh_module._SWEEP_ARRAYS.get()["values"]
        finally:
            mesh_module._SWEEP_ARRAYS.reset(token)
        assert fresh is not None and got is not None and np.shares_memory(got, stale)
        assert got.tobytes() == fresh.tobytes()

    @pytest.mark.parametrize("kind", ["shishkin", "uniform"])
    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    def test_cells_are_the_public_calls(self, scheme, kind):
        """Bit for bit, every cell after one that left longer arrays behind:
        k = 4..6 on the scalar driver, 7..11 on the kernel."""
        epsilons = [1.0, 2.0**-4, 2.0**-10]
        table = run_sweep(scheme, "layer1", epsilons, 4, 11, mesh_kind=kind)
        got = {key: (cell.error, cell.order) for key, cell in table.entries.items()}
        assert got == public_cells(scheme, "layer1", epsilons, 4, 11, kind)

    @pytest.mark.parametrize("scheme", EXPLICIT_SCHEMES)
    def test_gate_rejected_and_failing_cells(self, scheme):
        """decay at eps = 2^-9 on 128 uniform intervals (h/eps = 4) is
        expansive: the kernel's gate rejects it and the scalar driver runs
        the cell.  layer1 at eps = 2^-30 blows up on 128 intervals, with the
        public call's message behind the cell's."""
        rejected = make_builtin("decay", 2.0**-9), build_uniform_mesh(2**7)
        assert steppers._affine_integrate(named_tableau(scheme), *rejected) is None
        table = run_sweep(scheme, "decay", [2.0**-9], 7, 8, mesh_kind="uniform")
        got = {key: (cell.error, cell.order) for key, cell in table.entries.items()}
        assert got == public_cells(scheme, "decay", [2.0**-9], 7, 8, "uniform")
        eps = 2.0**-30
        with pytest.raises(ArithmeticError) as lone:
            integrate(scheme, make_builtin("layer1", eps), build_uniform_mesh(2**7))
        with pytest.raises(ArithmeticError) as swept:
            run_sweep(scheme, "layer1", [eps], 7, 8, mesh_kind="uniform")
        assert type(swept.value) is type(lone.value)
        assert str(swept.value) == f"sweep cell (eps={eps:.17g}, k=7) failed: {lone.value}"


class TestReferenceTableReproduction:
    """The published heun/layer1 error table is reproduced by this code on
    the unsaturated columns once the transition point is read as
    eps * ln N, i.e. grading ratio n/b = 1.  (With the documented n = 2,
    b = 1 the computed errors are exactly 4x larger in the asymptotic
    regime; the acceptance suite records that discrepancy.)
    """

    @pytest.mark.parametrize("ee", [-6, -8, -10])
    def test_unsaturated_columns_match(self, ee):
        table = run_sweep(
            "heun", "layer1", [2.0**ee], 10, 14, method_order=1, layer_constant=1.0
        )
        for k in range(10, 14):
            if (ee, k) in SUSPECT_CELLS:
                continue
            got = table.entries[(2.0**ee, k)].error
            ref = REFERENCE_HEUN_ERRORS[(ee, k)]
            assert got == pytest.approx(ref, rel=0.05), (ee, k)

    @pytest.mark.parametrize("ee", [-6, -8, -10])
    def test_unsaturated_orders_match(self, ee):
        table = run_sweep(
            "heun", "layer1", [2.0**ee], 10, 14, method_order=1, layer_constant=1.0
        )
        for k in range(10, 13):
            if (ee, k) in SUSPECT_CELLS or (ee, k + 1) in SUSPECT_CELLS:
                continue
            got = table.entries[(2.0**ee, k)].order
            assert got == pytest.approx(REFERENCE_HEUN_ORDERS[(ee, k)], abs=0.05), (
                ee,
                k,
            )

    def test_suspect_cell_follows_order_column_not_error_column(self):
        """The printed 1.81e-06 contradicts the printed 2.00 orders around
        it; the computed value matches the transposed digits 1.18e-06."""
        table = run_sweep(
            "heun", "layer1", [2.0**-6], 11, 13, method_order=1, layer_constant=1.0
        )
        got = table.entries[(2.0**-6, 12)].error
        assert got == pytest.approx(1.18e-06, rel=0.05)
        assert got != pytest.approx(1.81e-06, rel=0.05)


class TestAsymptoticOrders:
    def test_heun_unsaturated_orders_near_two(self):
        """Layer-resolving regime: ord within [1.9, 2.1] for eps = 2^-6."""
        table = run_sweep("heun", "layer1", [2.0**-6], 11, 15)
        for k in range(11, 15):
            assert 1.9 <= table.entries[(2.0**-6, k)].order <= 2.1

    def test_heun_saturated_column_is_classical(self):
        """eps = 2^-4 saturates sigma, the mesh degenerates to uniform and
        the error quarters per doubling (classical second order)."""
        table = run_sweep("heun", "layer1", [2.0**-4], 10, 12)
        for k in (10, 11):
            ratio = (
                table.entries[(2.0**-4, k)].error
                / table.entries[(2.0**-4, k + 1)].error
            )
            assert math.log2(ratio) == pytest.approx(2.0, abs=0.05)

    def test_gauss2_errors_fall_to_roundoff(self):
        """Monotone decrease until the 1e-12 floor."""
        table = run_sweep("gauss2", "layer1", [2.0**-6], 10, 12)
        errors = [table.entries[(2.0**-6, k)].error for k in (10, 11, 12)]
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] <= 1e-12

    def test_epsilon_uniformity_at_4096(self):
        table = run_sweep(
            "heun", "layer1", [2.0**e for e in range(-2, -11, -2)], 12, 13
        )
        worst = max(table.entries[(eps, 12)].error for eps in table.epsilons)
        assert worst <= 1e-5


def gauss2_layer1_recurrence(eps, mesh):
    """gauss2_linear_step's closed form on layer1, run in mpmath at 50
    digits over the float mesh's own nodes and widths: the node values
    and the exact solution there."""
    with mp.workdps(50):
        e_mp = mpf(eps)
        g = mp.sqrt(3) / 6
        c1, c2 = mpf(1) / 2 - g, mpf(1) / 2 + g

        def coefficients(x):
            e = mp.exp(-x / e_mp)
            return -x / e_mp, (e_mp + e + x * (x - e + 1)) / e_mp

        y = mpf(0)
        values = [y]
        for x, h in zip(mesh.nodes.tolist(), mesh.widths.tolist()):
            x, h = mpf(x), mpf(h)
            p1, q1 = coefficients(x + c1 * h)
            p2, q2 = coefficients(x + c2 * h)
            denom = (1 - p1 * h / 4) * (1 - p2 * h / 4) - p1 * p2 * (
                mpf(1) / 16 - g * g
            ) * h * h
            numer = (p1 * y + q1) * (1 + p2 * g * h) + (p2 * y + q2) * (1 - p1 * g * h)
            y = y + h / 2 * numer / denom
            values.append(y)
        exact = [mpf(x) - mp.exp(-mpf(x) / e_mp) + 1 for x in mesh.nodes.tolist()]
        return values, exact


class TestGauss2ErrorLevel:
    @pytest.mark.parametrize("log2_eps, level", [(-20, 5.217e-8), (-30, 5.178e-8)])
    def test_error_is_truncation_not_rounding(self, log2_eps, level):
        """gauss2 on layer1 at N = 2^12 errs by ~5.2e-8 at eps = 2^-20 and
        2^-30.  The same recurrence at 50 digits on the same float mesh
        has the same error, and the float run stays within 1e-5 of the
        error of it (measured: 6.7e-15 and 1.35e-13): the error is the
        scheme's truncation, not rounding from q's division by eps."""
        eps = 2.0**log2_eps
        problem = make_builtin("layer1", eps)
        mesh = build_shishkin_mesh(ShishkinParams(n_intervals=2**12, epsilon=eps))
        trajectory = integrate("gauss2", problem, mesh)
        values, exact = gauss2_layer1_recurrence(eps, mesh)
        error = float(max(abs(y - e) for y, e in zip(values, exact)))
        rounding = np.abs(trajectory.values - np.array(values, dtype=float)).max()
        assert error == pytest.approx(level, rel=1e-3)
        assert max_error(trajectory, problem) == pytest.approx(error, rel=1e-5)
        assert rounding <= 1e-5 * error


class TestUniformConvergence:
    """A Shishkin mesh makes the error bound hold uniformly in epsilon
    (Roos, Stynes & Tobiska, 2008, section I.2).  For gauss2 with grading
    order n, r_N = sup_eps max_error / rate(N), over eps = 2^-1..2^-40,
    2^-60 and 2^-100, stays in a band for N = 2^6..2^10, with rate N^-2
    for n = 2 and (ln N / N)^4 for n = 4: the uniform rate is min(4, n).
    Measured: n = 2, r_N = 1.0000-1.0001 on decay and 1.0001-1.0043 on
    layer1, the sup at eps = 2^-60 or 2^-100; n = 4, 2.0925-2.1250 on
    decay (the sup at 2^-6) and 0.9434-0.9486 on layer1.  The explicit
    schemes are uniform only where they are stable, so they need a
    per-run ``stable`` flag before a test can cover them."""

    EPSILONS = [2.0**-e for e in (*range(1, 41), 60, 100)]

    @pytest.mark.parametrize(
        "name, n, band",
        [("decay", 2, (0.99, 1.01)), ("layer1", 2, (0.99, 1.01)),
         ("decay", 4, (2.0, 2.2)), ("layer1", 4, (0.9, 1.0))],
    )
    def test_gauss2_sup_over_eps_follows_the_uniform_rate(self, name, n, band):
        ratios = []
        for k in range(6, 11):
            N = 2**k
            rate = N**-2.0 if n == 2 else (math.log(N) / N) ** 4
            sup = 0.0
            for eps in self.EPSILONS:
                problem = make_builtin(name, eps)
                mesh = build_shishkin_mesh(ShishkinParams(N, eps, method_order=n))
                sup = max(sup, max_error(integrate("gauss2", problem, mesh), problem))
            ratios.append(sup / rate)
        assert all(band[0] <= r <= band[1] for r in ratios), ratios
        assert max(ratios) / min(ratios) <= 1.05, ratios


class TestOscillationCount:
    def test_monotone_is_zero(self):
        trajectory, _ = trajectory_from_values([0.0, 0.1, 0.3, 0.6, 1.0])
        assert oscillation_count(trajectory) == 0

    def test_alternating_increments(self):
        trajectory, _ = trajectory_from_values([1.0, -0.5, 0.25, -0.125])
        assert oscillation_count(trajectory) == 2

    def test_deadband_filters_jitter(self):
        trajectory, _ = trajectory_from_values([0.0, 1e-16, 0.0, 1e-16, 0.0, 0.5])
        assert oscillation_count(trajectory) == 0

    def test_constant_is_zero(self):
        """No increment leaves the dead band, so there are no signs at all."""
        trajectory, _ = trajectory_from_values([0.5, 0.5, 0.5, 0.5])
        assert oscillation_count(trajectory) == 0

    def test_requires_three_values(self):
        trajectory, _ = trajectory_from_values([0.0, 1.0])
        with pytest.raises(ValueError, match="at least 3"):
            oscillation_count(trajectory)

    def test_stiff_uniform_run_counts(self):
        """At eps = 2^-7.225 on a uniform 32-interval mesh the two-stage
        scheme blows up monotonically after the initial layer overshoot
        (its stability polynomial is positive on the real axis), while the
        three-stage scheme's polynomial turns negative and oscillates and
        the A-stable Gauss step stays clean."""
        problem = make_builtin("layer1", 2.0**-7.225)
        mesh = build_uniform_mesh(32)
        heun_traj = integrate("heun", problem, mesh)
        rk3_traj = integrate("rk3_a", problem, mesh)
        gauss_traj = integrate("gauss2", problem, mesh)
        assert oscillation_count(heun_traj) == 2
        assert oscillation_count(rk3_traj) >= 3
        assert oscillation_count(gauss_traj) == 0
        assert max_error(gauss_traj, problem) < 1.0
        assert max_error(heun_traj, problem) > 1e4
