"""Self-tests of the benchmark: the seeded generator and the golden check.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

import golden
import run
import workloads as w

LIB = run.load_library(run.ROOT)
API = run.library_api(LIB)


def test_many_small_mix_is_a_function_of_the_seed():
    ops = w.ops_for("many_small", 7)
    assert ops == w.ops_for("many_small", 7)
    assert ops != w.ops_for("many_small", 8)
    strata = Counter(op[:4] for op in ops)
    assert len(strata) == 6 * 6 * 2 * 2
    assert set(strata.values()) == {w.SMALL_REPEATS}
    pool = golden.load("many_small")
    assert all(w.small_key(*op) in pool for op in ops)


@pytest.mark.parametrize("workload", ["cli_solve", "nonlinear"])
def test_operation_order_is_a_function_of_the_seed(workload):
    assert w.ops_for(workload, 3) == w.ops_for(workload, 3)
    assert sorted(w.ops_for(workload, 3)) == sorted(w.ops_for(workload, 4))


def _outcome(problem, mesh, values):
    trajectory = LIB.Trajectory(mesh=mesh, values=values, scheme_id="heun", problem_id="p")
    return ("ok", LIB.max_error(trajectory, problem), float(np.sum(values)))


def test_trajectory_off_by_1e6_fails_and_ulp_shifts_pass():
    eps = w.NONLINEAR_EPSILONS[1]
    problem = w.logistic_problem(API, eps)
    mesh = API.build_shishkin_mesh(API.ShishkinParams(n_intervals=w.NONLINEAR_N, epsilon=eps))
    values = API.integrate("heun", problem, mesh).values
    gold = golden.load("nonlinear")[f"heun/{eps!r}"]
    assert golden.check_library(_outcome(problem, mesh, values), gold) is None

    shifted = values + 4e-14 * np.where(np.arange(len(values)) % 3 == 0, 1.0, -1.0)
    assert golden.check_library(_outcome(problem, mesh, shifted), gold) is None

    for node in (1, len(values) // 2, len(values) - 1):
        perturbed = values.copy()
        perturbed[node] += 1e-6
        assert golden.check_library(_outcome(problem, mesh, perturbed), gold) is not None


def test_expected_exceptions_must_match():
    pool = golden.load("many_small")
    gold = next(v for v in pool.values() if v[0] == "raised")
    assert golden.check_library(tuple(gold), gold) is None
    assert golden.check_library((gold[0], gold[1], gold[2] + 1), gold) is not None
    assert golden.check_library(("ok", 1.0, 1.0), gold) is not None
    ok_gold = next(v for v in pool.values() if v[0] == "ok")
    assert golden.check_library(("raised", "StageEvaluationError", 3), ok_gold) is not None


def _cli(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "shishkin_ivp.cli", *argv],
        cwd=run.ROOT, env=w.child_env(run.ROOT), capture_output=True, check=True,
    )
    return proc.stdout


def _rewrite_column(stdout: bytes, column: int, rows, change) -> bytes:
    lines = stdout.decode().split("\n")
    for row in rows:
        fields = lines[row + 1].split(",")
        fields[column] = f"{change(float(fields[column])):.17g}"
        lines[row + 1] = ",".join(fields)
    return "\n".join(lines).encode()


def test_cli_output_off_by_1e6_fails_and_ulp_shifts_pass():
    argv = next(op for op in w.CLI_OPS if op[4] == "gauss2" and op[6] == str(2**15))
    gold = golden.load("cli_solve")[" ".join(argv)]
    stdout = _cli(argv)
    assert golden.check_cli((0, stdout), gold) is None

    n_rows = stdout.count(b"\n") - 1
    third = range(0, n_rows, 3)
    ulps = _rewrite_column(stdout, 1, third, lambda y: np.nextafter(np.nextafter(y, 3.0), 3.0))
    assert ulps != stdout
    assert golden.check_cli((0, ulps), gold) is None

    off = _rewrite_column(stdout, 1, [n_rows // 2], lambda y: y + 1e-6)
    assert golden.check_cli((0, off), gold) is not None
    assert golden.check_cli((1, stdout), gold) is not None


def test_markdown_numbers_may_move_one_printed_unit():
    argv = next(op for op in w.CLI_OPS if op[0] == "sweep")
    gold = golden.load("cli_solve")[" ".join(argv)]
    stdout = _cli(argv)
    assert golden.check_cli((0, stdout), gold) is None
    token = gold["summary"]["numbers"][-3]  # an error printed as %.2e
    mantissa, exponent = token.split("e")
    for units, verdict in ((1, True), (3, False)):
        moved = f"{float(mantissa) + units * 0.01:.2f}e{exponent}"
        text = stdout.decode().replace(token, moved, 1).encode()
        assert (golden.check_cli((0, text), gold) is None) is verdict
