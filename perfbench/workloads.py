"""The four benchmark workloads: their operations and one pass over them.

Every workload is a closed loop: one caller in one process runs the
operations one after another, each as soon as the previous one returns.

* ``ref_sweep``: the ROADMAP reference sweep, one ``run_sweep`` call of
  40 cells.  Long integrations; the time goes to ``steppers``, the
  ``problems`` callbacks and ``convergence.max_error``.
* ``cli_solve``: 15 fresh ``python -m shishkin_ivp.cli`` processes with
  stdout read through a pipe.  Import and CSV formatting dominate.
* ``many_small``: seeded library solves at N = 2^4..2^9, so per-call
  overhead and validation dominate; about 2 % blow up, as the golden
  expects.
* ``nonlinear``: a logistic problem with no linear form, so a kernel for
  linear problems must leave it unchanged.

A pass returns one ``Op`` per operation.  Its ``outcome`` is what the
golden check compares; the check itself runs after the pass, outside
every timed region.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from spans import step_index

clock = time.perf_counter

SCHEMES = ("heun", "rk2_ralston", "rk2_midpoint", "rk3_a", "rk3_kutta", "gauss2")
EXPLICIT_SCHEMES = SCHEMES[:5]

REF_EPSILONS = tuple(2.0**-e for e in (2, 4, 6, 8, 10))
REF_K_MIN, REF_K_MAX = 10, 17

NONLINEAR_N = 2**16
NONLINEAR_EPSILONS = (2.0**-4, 2.0**-8)

#: many_small draws each configuration from this pool; the golden holds
#: every member, so any seed can be checked.  eps = 2^(-j/4) for j in
#: 4..48 is log-uniform on [2^-12, 2^-1] at quarter-octave resolution.
SMALL_K = tuple(range(4, 10))
SMALL_PROBLEMS = ("decay", "layer1")
SMALL_MESHES = ("shishkin", "uniform")
SMALL_EPS_QUARTERS = tuple(range(4, 49))
#: Each (scheme, k, problem, mesh) stratum appears this many times per
#: pass, so the per-pass work varies with the seed only through eps.
SMALL_REPEATS = 10

CLI_EPS = "2^-8"
CLI_OPS = tuple(
    [
        ("solve", "--problem", "layer1", "--scheme", scheme,
         "--n-intervals", str(2**k), "--eps", CLI_EPS)
        for scheme in ("heun", "rk3_a", "gauss2")
        for k in (15, 16, 17)
    ]
    + [
        ("mesh", "--mesh", "shishkin", "--n-intervals", str(2**k), "--eps", CLI_EPS)
        for k in (15, 16, 17)
    ]
    # An odd number of invocations puts the median inside one invocation's
    # samples rather than between two.
    + [("mesh", "--mesh", "uniform", "--n-intervals", str(2**16))]
    + [
        ("sweep", "--problem", "layer1", "--scheme", "heun",
         "--eps", "2^-4,2^-6,2^-8", "--kmin", "8", "--kmax", "12", "--format", "md"),
        ("stability", "--problem", "layer1", "--scheme", "gauss2",
         "--mesh", "uniform", "--n-intervals", "32", "--eps", "2^-7.225"),
    ]
)

@dataclass
class Op:
    """One completed operation: its identity, when it ran, the mesh
    intervals it advanced (plus, for the CLI, rows written) and its
    outcome."""

    key: str
    start: float
    end: float
    steps: int
    outcome: tuple

    @property
    def seconds(self) -> float:
        return self.end - self.start


def small_eps(j: int) -> float:
    return 2.0 ** (-j / 4.0)


def small_key(scheme: str, k: int, problem: str, mesh: str, j: int) -> str:
    return f"{scheme}/{k}/{problem}/{mesh}/{j}"


def small_pool():
    """Every configuration many_small can draw."""
    return [
        (scheme, k, problem, mesh, j)
        for scheme in SCHEMES
        for k in SMALL_K
        for problem in SMALL_PROBLEMS
        for mesh in SMALL_MESHES
        for j in SMALL_EPS_QUARTERS
    ]


def many_small_ops(seed: int):
    """The seeded mix: every stratum SMALL_REPEATS times, eps drawn
    uniformly from the quarter-octave grid, order shuffled."""
    rng = random.Random(seed)
    ops = [
        (scheme, k, problem, mesh, rng.choice(SMALL_EPS_QUARTERS))
        for scheme in SCHEMES
        for k in SMALL_K
        for problem in SMALL_PROBLEMS
        for mesh in SMALL_MESHES
        for _ in range(SMALL_REPEATS)
    ]
    rng.shuffle(ops)
    return ops


def nonlinear_ops(seed: int):
    ops = [(scheme, eps) for scheme in EXPLICIT_SCHEMES for eps in NONLINEAR_EPSILONS]
    random.Random(seed).shuffle(ops)
    return ops


def cli_ops(seed: int):
    ops = list(CLI_OPS)
    random.Random(seed).shuffle(ops)
    return ops


def ops_for(workload: str, seed: int):
    if workload == "ref_sweep":
        return [(eps, k) for eps in REF_EPSILONS for k in range(REF_K_MIN, REF_K_MAX + 1)]
    if workload == "cli_solve":
        return cli_ops(seed)
    if workload == "many_small":
        return many_small_ops(seed)
    if workload == "nonlinear":
        return nonlinear_ops(seed)
    raise ValueError(f"unknown workload {workload!r}")


def _failure(exc: Exception) -> tuple:
    return ("raised", type(exc).__name__, step_index(exc))


def _timed_solve(api, key: str, build, scheme: str) -> Op:
    """One operation: ``build()`` -> (problem, mesh), then integrate and
    max_error, timed together.  The trajectory sum the golden also
    checks is taken after the clock stops."""
    t0 = clock()
    try:
        problem, mesh = build()
        trajectory = api.integrate(scheme, problem, mesh)
        error = api.max_error(trajectory, problem)
    except Exception as exc:  # an unexpected failure is a result to check
        t1 = clock()
        outcome = _failure(exc)
        return Op(key, t0, t1, outcome[2] or 0, outcome)
    t1 = clock()
    outcome = ("ok", error, float(np.sum(trajectory.values)))
    return Op(key, t0, t1, mesh.n_intervals, outcome)


def _each(ops, between, run_one) -> list[Op]:
    done = []
    for op in ops:
        between()
        done.append(run_one(op))
    return done


def logistic_problem(api, eps: float):
    """eps*y' = y^2 - y, y(0) = 1/2, exact e/(1+e) with e = exp(-x/eps);
    built through the public Problem with no linear form."""

    def rhs(x, y):
        return (y * y - y) / eps

    def exact(x):
        e = math.exp(-x / eps)
        return e / (1.0 + e)

    return api.Problem(
        epsilon=eps, x0=0.0, y0=0.5, rhs=rhs, exact=exact, label="logistic"
    )


def run_many_small(api, ops, between) -> list[Op]:
    def run_one(op):
        scheme, k, name, mesh_kind, j = op
        eps = small_eps(j)

        def build():
            problem = api.make_builtin(name, eps)
            if mesh_kind == "shishkin":
                params = api.ShishkinParams(n_intervals=2**k, epsilon=eps)
                return problem, api.build_shishkin_mesh(params)
            return problem, api.build_uniform_mesh(2**k)

        return _timed_solve(api, small_key(*op), build, scheme)

    return _each(ops, between, run_one)


def run_nonlinear(api, ops, between) -> list[Op]:
    def run_one(op):
        scheme, eps = op

        def build():
            params = api.ShishkinParams(n_intervals=NONLINEAR_N, epsilon=eps)
            return logistic_problem(api, eps), api.build_shishkin_mesh(params)

        return _timed_solve(api, f"{scheme}/{eps!r}", build, scheme)

    return _each(ops, between, run_one)


def run_ref_sweep(api, conv, ops, between) -> list[Op]:
    """One run_sweep call.  A cell ends when its max_error returns: a
    hook on ``conv.max_error`` notes the instant, calls ``between`` and
    notes when the next cell starts, so probes fall outside every cell.
    If a sweep stops calling max_error once per cell, the cells share
    the sweep's wall equally."""
    bounds: list[tuple[float, float]] = []
    original = conv.max_error

    def hooked(*args, **kwargs):
        result = original(*args, **kwargs)
        t_end = clock()
        between()
        bounds.append((t_end, clock()))
        return result

    between()
    conv.max_error = hooked
    try:
        t0 = clock()
        table = api.run_sweep("heun", "layer1", REF_EPSILONS, REF_K_MIN, REF_K_MAX)
        t1 = clock()
    finally:
        conv.max_error = original
    if len(bounds) == len(ops):
        starts = [t0] + [resume for _, resume in bounds[:-1]]
        # The table is assembled after the last cell: charge it there.
        ends = [end for end, _ in bounds[:-1]] + [t1 - (bounds[-1][1] - bounds[-1][0])]
    else:
        share = (t1 - t0) / len(ops)
        starts = [t0 + i * share for i in range(len(ops))]
        ends = [t + share for t in starts]
    done = []
    for (eps, k), start, end in zip(ops, starts, ends):
        cell = table.entries[(eps, k)]
        done.append(Op(f"{eps!r}/{k}", start, end, 2**k, ("ok", cell.error, cell.order)))
    return done


def cli_work(argv) -> int:
    """Mesh intervals a CLI invocation integrates."""
    args = dict(zip(argv[1::2], argv[2::2]))
    if argv[0] in ("solve", "stability"):
        return int(args["--n-intervals"])
    if argv[0] == "sweep":
        n_eps = len(args["--eps"].split(","))
        return n_eps * sum(2**k for k in range(int(args["--kmin"]), int(args["--kmax"]) + 1))
    return 0


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(root: Path, ops, traced: bool, between) -> tuple[list[Op], list]:
    """Each op is one fresh process.  Untraced it is the real entry point;
    traced it is ``cli_child.py``, which wraps the same ``main`` and
    reports its spans on stderr."""
    env = child_env(root)
    if traced:
        prefix = [sys.executable, str(Path(__file__).with_name("cli_child.py"))]
    else:
        prefix = [sys.executable, "-m", "shishkin_ivp.cli"]
    stderrs = []

    def run_one(argv):
        t0 = clock()
        proc = subprocess.run(
            prefix + list(argv), cwd=root, env=env, capture_output=True, timeout=150
        )
        t1 = clock()
        stderrs.append((t0, t1, proc.stderr))
        rows = proc.stdout.count(b"\n")
        return Op(" ".join(argv), t0, t1, cli_work(argv) + rows, (proc.returncode, proc.stdout))

    return _each(ops, between, run_one), stderrs
