"""Command-line front end: mesh dumps, single solves, convergence sweeps
and the uniform-mesh stability demonstration.

Output is deterministic text: CSV with 17-significant-digit numerics
(binary64 round-trip), or Markdown tables with 3-significant-digit errors
and 2-decimal orders.  Exit codes: 0 success, 1 numerical failure,
2 usage error.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass

import numpy as np

from . import convergence
from .mesh import (
    MESH_SHISHKIN,
    MESH_UNIFORM,
    Mesh,
    ShishkinParams,
    build_shishkin_mesh,
    build_uniform_mesh,
)
from .problems import BUILTIN_NAMES, Problem, exact_eval, make_builtin
from .steppers import Trajectory, integrate
from .tableaux import SCHEME_NAMES

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_USAGE = 2

_POWER_FORM = re.compile(r"^2\^([+-]?\d+(?:\.\d+)?)$")


class UsageError(ValueError):
    """Invalid command-line input."""


def parse_epsilon(text: str) -> float:
    """Parse a perturbation parameter: decimal (``0.25``) or power form
    (``2^-7.225``).  The value must land in (0, 1]."""
    text = text.strip()
    m = _POWER_FORM.match(text)
    if m:
        value = 2.0 ** float(m.group(1))
    else:
        try:
            value = float(text)
        except ValueError:
            raise UsageError(
                f"cannot parse epsilon {text!r}; use e.g. 0.25 or 2^-7.225"
            ) from None
    if not 0.0 < value <= 1.0:
        raise UsageError(f"epsilon must be in (0, 1], got {text!r} = {value!r}")
    return value


@dataclass(frozen=True)
class RunConfig:
    """A fully validated CLI invocation."""

    command: str
    problem: str = "layer1"
    scheme: str = "heun"
    mesh_kind: str = MESH_SHISHKIN
    n_intervals: int | None = None
    k_min: int | None = None
    k_max: int | None = None
    epsilons: tuple[float, ...] = ()
    eps_labels: tuple[str, ...] = ()
    method_order: int = 2
    layer_constant: float = 1.0
    split: float = 0.5
    fmt: str = "csv"
    out: str | None = None


def _fmt17(x: float) -> str:
    return f"{x:.17g}"


def format_mesh_csv(mesh: Mesh) -> str:
    """Rows ``i,xi,x,h`` with the width column empty on the last row."""
    n = mesh.n_intervals
    lines = ["i,xi,x,h"]
    for i, x in enumerate(mesh.nodes):
        h = _fmt17(mesh.widths[i]) if i < n else ""
        lines.append(f"{i},{_fmt17(i / n)},{_fmt17(x)},{h}")
    return "\n".join(lines) + "\n"


def format_solution_csv(trajectory: Trajectory, problem: Problem) -> str:
    """Rows ``x,y_numeric,y_exact,abs_error``; exact columns are empty when
    the problem has no closed-form solution."""
    lines = ["x,y_numeric,y_exact,abs_error"]
    nodes, values = trajectory.mesh.nodes, trajectory.values
    if problem.exact is not None:
        exact = exact_eval(problem, nodes)
        with np.errstate(invalid="ignore"):
            gaps = np.abs(exact - values)
        for x, y, y_ref, gap in zip(
            nodes.tolist(), values.tolist(), exact.tolist(), gaps.tolist()
        ):
            lines.append(f"{_fmt17(x)},{_fmt17(y)},{_fmt17(y_ref)},{_fmt17(gap)}")
    else:
        for x, y in zip(nodes.tolist(), values.tolist()):
            lines.append(f"{_fmt17(x)},{_fmt17(y)},,")
    return "\n".join(lines) + "\n"


def format_sweep_csv(table: convergence.ConvergenceTable) -> str:
    """Rows ``epsilon,k,N,E_N,ord`` (ord empty on each column's last k)."""
    lines = ["epsilon,k,N,E_N,ord"]
    for eps in table.epsilons:
        for k in table.k_range:
            cell = table.entries[(eps, k)]
            order = "" if cell.order is None else _fmt17(cell.order)
            lines.append(
                f"{_fmt17(eps)},{k},{2 ** k},{_fmt17(cell.error)},{order}"
            )
    return "\n".join(lines) + "\n"


def format_sweep_markdown(
    table: convergence.ConvergenceTable, labels: tuple[str, ...] = ()
) -> str:
    """Markdown table with one N = 2^k row and an (E_N, ord) column pair
    per epsilon; the last row prints ``-`` for ord."""
    if len(labels) != len(table.epsilons):
        labels = tuple(f"{eps:.6g}" for eps in table.epsilons)
    header = ["N"]
    for label in labels:
        header += [f"E_N (eps={label})", "ord"]
    lines = [
        "| " + " | ".join(header) + " |",
        "|" + "---|" * len(header),
    ]
    for k in table.k_range:
        row = [f"2^{k}"]
        for eps in table.epsilons:
            cell = table.entries[(eps, k)]
            row.append(f"{cell.error:.2e}")
            row.append("-" if cell.order is None else f"{cell.order:.2f}")
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"


def format_stability_line(
    scheme: str, epsilon: float, n_intervals: int, oscillations: int, error: float
) -> str:
    return (
        f"scheme={scheme} epsilon={_fmt17(epsilon)} N={n_intervals} "
        f"oscillations={oscillations} max_error={_fmt17(error)}\n"
    )


def _build_mesh(config: RunConfig, epsilon: float | None) -> Mesh:
    if config.n_intervals is None:
        raise UsageError("--n-intervals is required for this command")
    if config.mesh_kind == MESH_UNIFORM:
        return build_uniform_mesh(config.n_intervals)
    if epsilon is None:
        raise UsageError("--eps is required for a shishkin mesh")
    return build_shishkin_mesh(
        ShishkinParams(
            n_intervals=config.n_intervals,
            epsilon=epsilon,
            method_order=config.method_order,
            layer_constant=config.layer_constant,
            split=config.split,
        )
    )


def _single_epsilon(config: RunConfig) -> float | None:
    if not config.epsilons:
        return None
    if len(config.epsilons) > 1:
        raise UsageError("this command takes a single --eps value")
    return config.epsilons[0]


def run(config: RunConfig) -> str:
    """Execute a validated config and return the output text."""
    if config.command == "mesh":
        return format_mesh_csv(_build_mesh(config, _single_epsilon(config)))

    if config.command == "solve":
        eps = _single_epsilon(config)
        if eps is None:
            raise UsageError("--eps is required for solve")
        problem = make_builtin(config.problem, eps)
        mesh = _build_mesh(config, eps)
        return format_solution_csv(integrate(config.scheme, problem, mesh), problem)

    if config.command == "sweep":
        if not config.epsilons:
            raise UsageError("--eps is required for sweep")
        if config.k_min is None or config.k_max is None:
            raise UsageError("--kmin and --kmax are required for sweep")
        table = convergence.run_sweep(
            config.scheme,
            config.problem,
            config.epsilons,
            config.k_min,
            config.k_max,
            mesh_kind=config.mesh_kind,
            method_order=config.method_order,
            layer_constant=config.layer_constant,
            split=config.split,
        )
        if config.fmt == "md":
            return format_sweep_markdown(table, config.eps_labels)
        return format_sweep_csv(table)

    if config.command == "stability":
        eps = _single_epsilon(config)
        if eps is None:
            raise UsageError("--eps is required for stability")
        problem = make_builtin(config.problem, eps)
        mesh = _build_mesh(config, eps)
        trajectory = integrate(config.scheme, problem, mesh)
        return format_stability_line(
            config.scheme,
            eps,
            mesh.n_intervals,
            convergence.oscillation_count(trajectory),
            convergence.max_error(trajectory, problem),
        )

    raise UsageError(f"unknown command {config.command!r}")


def _add_common(sub: argparse.ArgumentParser, *, with_scheme: bool = True):
    if with_scheme:
        sub.add_argument("--problem", choices=BUILTIN_NAMES, default="layer1")
        sub.add_argument("--scheme", choices=SCHEME_NAMES, default="heun")
    sub.add_argument(
        "--mesh", "--type", dest="mesh", choices=(MESH_UNIFORM, MESH_SHISHKIN),
        default=MESH_SHISHKIN, help="mesh kind (default: shishkin)",
    )
    sub.add_argument(
        "--eps", "--epsilon", dest="eps", default=None,
        help="perturbation parameter(s), comma-separated; decimal or 2^-k form",
    )
    sub.add_argument("--mesh-order", type=int, default=2, metavar="N",
                     help="mesh grading order n (default: 2)")
    sub.add_argument("--mesh-b", type=float, default=1.0, metavar="B",
                     help="layer constant b (default: 1)")
    sub.add_argument("--alpha", type=float, default=0.5,
                     help="node split alpha (default: 0.5)")
    sub.add_argument("--out", default=None, help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shishkin-ivp",
        description=(
            "Solve singularly perturbed initial-value problems with "
            "Runge-Kutta schemes on layer-adapted meshes."
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)

    mesh = subs.add_parser("mesh", help="dump mesh nodes as CSV")
    _add_common(mesh, with_scheme=False)
    mesh.add_argument("--n-intervals", type=int, required=True)

    solve = subs.add_parser("solve", help="solve once and dump the solution")
    _add_common(solve)
    solve.add_argument("--n-intervals", type=int, required=True)

    sweep = subs.add_parser("sweep", help="error/order table over N = 2^k")
    _add_common(sweep)
    sweep.add_argument("--kmin", type=int, required=True)
    sweep.add_argument("--kmax", type=int, required=True)
    sweep.add_argument("--format", choices=("csv", "md"), default="csv")

    stability = subs.add_parser(
        "stability", help="oscillation diagnostic for one configuration"
    )
    _add_common(stability)
    stability.add_argument("--n-intervals", type=int, required=True)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    labels: tuple[str, ...] = ()
    epsilons: tuple[float, ...] = ()
    if args.eps:
        labels = tuple(part.strip() for part in args.eps.split(","))
        epsilons = tuple(parse_epsilon(part) for part in labels)
    return RunConfig(
        command=args.command,
        problem=getattr(args, "problem", "layer1"),
        scheme=getattr(args, "scheme", "heun"),
        mesh_kind=args.mesh,
        n_intervals=getattr(args, "n_intervals", None),
        k_min=getattr(args, "kmin", None),
        k_max=getattr(args, "kmax", None),
        epsilons=epsilons,
        eps_labels=labels,
        method_order=args.mesh_order,
        layer_constant=args.mesh_b,
        split=args.alpha,
        fmt=getattr(args, "format", "csv"),
        out=args.out,
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        text = run(config)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
