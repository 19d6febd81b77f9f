"""Command-line front end: mesh dumps, single solves, convergence sweeps
and the uniform-mesh stability demonstration.

Output is deterministic text, written as UTF-8 bytes: CSV with
17-significant-digit numerics (binary64 round-trip), streamed a block of
rows at a time, or Markdown tables with 3-significant-digit errors and
2-decimal orders.  Exit codes: 0 success, 1 numerical failure,
2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import gc
import re
import select
import sys
from typing import Iterable, Iterator

import numpy as np

from . import convergence
from .mesh import MESH_SHISHKIN, MESH_UNIFORM, Mesh, ShishkinParams
from .problems import BUILTIN_NAMES, Problem, _check_epsilon, exact_eval, make_builtin
from .steppers import KERNEL_BLOCK, Trajectory, integrate
from .tableaux import SCHEME_NAMES

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_USAGE = 2

#: Largest mesh the CLI builds, 2^MAX_LOG2_INTERVALS intervals; larger
#: --n-intervals or --kmax values are usage errors, rejected before any
#: array is allocated.
MAX_LOG2_INTERVALS = 22
MAX_INTERVALS = 2**MAX_LOG2_INTERVALS

#: The Shishkin grading flags: flag, ShishkinParams field (the dest), type,
#: metavar and help.  run() passes the fields on as one dict.
_GRADING_FLAGS = (
    ("--mesh-order", "method_order", int, "N", "Shishkin mesh grading order n"),
    ("--mesh-b", "layer_constant", float, "B", "Shishkin layer constant b"),
    ("--alpha", "split", float, "ALPHA", "Shishkin node split alpha"),
)

_POWER_FORM = re.compile(r"^2\^([+-]?\d+(?:\.\d+)?)$")


def parse_epsilon(text: str) -> float:
    """Parse a perturbation parameter: decimal (``0.25``) or power form
    (``2^-7.225``).  The value must land in (0, 1]: Problem's epsilon rule."""
    text = text.strip()
    m = _POWER_FORM.match(text)
    if m:
        exponent = float(m.group(1))
        value = 2.0**exponent if exponent < 1024 else np.inf  # 2.0**1024 overflows
    else:
        try:
            value = float(text)
        except ValueError:
            raise ValueError(
                f"cannot parse epsilon {text!r}; use e.g. 0.25 or 2^-7.225"
            ) from None
    _check_epsilon(value)
    return value


def _fmt17(x: float) -> str:
    return f"{x:.17g}"


#: Longest '%.17g' text of a double, as in -1.2345678901234567e-308.
_CELL_WIDTH = 24

#: The column formatter handles |x| in this range itself, where every
#: intermediate of its double-double product stays normal and finite.
_FAST_RANGE = (1e-270, 1e270)

#: Decimal exponents E = floor(log10 |x|) the pow10 table covers: those of
#: ``_FAST_RANGE``, with a decade to spare for log10's rounding at each end.
_DECADES = (-272, 271)

#: A value whose digits beyond the 17th lie this close to one half is left
#: to ``_fmt17``: the double-double product is good to ~1e-14 of the 17th
#: digit, so every value outside the margin rounds the same either way.
_TIE_MARGIN = 1e-6


@functools.cache
def _quad_tables() -> tuple[np.ndarray, np.ndarray]:
    """For each of 0000..9999: its four ASCII digits packed into a uint32,
    and its count of trailing zeros (4 for 0000)."""
    quads = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    text = (48 + quads).astype(np.uint8).view(np.uint32).ravel()
    return text, np.cumprod(quads[:, ::-1] == 0, axis=1).sum(axis=1).astype(np.uint8)


@functools.cache
def _pow10_table() -> tuple[np.ndarray, np.ndarray]:
    """10**(16 - E) as the unevaluated sum hi + lo of two doubles (106
    bits), for each E in ``_DECADES``, indexed by E - ``_DECADES[0]``."""
    pairs = []
    for k in range(16 - _DECADES[0], 15 - _DECADES[1], -1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        hi = num / den  # int / int is correctly rounded
        a, b = hi.as_integer_ratio()
        pairs.append((hi, (num * b - a * den) / (den * b)))
    hi, lo = np.array(pairs).T
    return hi, lo


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split of a into two 26-bit halves with a = high + low."""
    c = 134217729.0 * a  # 2**27 + 1
    high = c - (c - a)
    return high, a - high


def _digits17(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(ok, exponent, digits)`` with |x| = digits * 10**(exponent - 16)
    rounded to 17 significant digits, wherever ``ok``.

    The digits come from the double-double product |x| * 10**(16 - E), E
    estimated by log10.  Not ok: 0, non-finite and subnormal values,
    anything outside ``_FAST_RANGE``, remainders within ``_TIE_MARGIN`` of
    one half, and digits outside [10**16, 10**17), which is how a wrong
    decade estimate, or rounding up into the next decade, shows."""
    mag = np.abs(x)
    ok = (mag >= _FAST_RANGE[0]) & (mag <= _FAST_RANGE[1])
    mag[~ok] = 1.0
    exponent = np.floor(np.log10(mag)).astype(np.int64)
    table_hi, table_lo = _pow10_table()
    hi, lo = table_hi[exponent - _DECADES[0]], table_lo[exponent - _DECADES[0]]
    head = mag * hi
    m1, m2 = _split(mag)
    h1, h2 = _split(hi)
    tail = (((m1 * h1 - head) + m1 * h2) + m2 * h1) + m2 * h2 + mag * lo
    total = head + tail  # an integer: it is at least 2**53 where ok
    tail -= total - head
    whole = np.floor(tail)
    frac = tail - whole
    digits = total.astype(np.int64) + whole.astype(np.int64)
    ok &= (digits >= 10**16) & (np.abs(frac - 0.5) > _TIE_MARGIN)
    digits += frac > 0.5
    ok &= digits < 10**17
    digits[~ok] = 10**16
    return ok, exponent, digits


def _ascii17(digits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ASCII text of 17-digit integers, in bytes 3..19 of each row of
    an (n, 5) uint32 matrix, and how many of the 17 digits are left once
    trailing zeros are dropped."""
    quad_text, quad_zeros = _quad_tables()
    words = np.empty((len(digits), 5), np.uint32)
    upper = digits // 10**8
    lead = upper // 10**8
    quads = []
    for half in (upper - lead * 10**8, digits - upper * 10**8):
        high = half // 10**4
        quads += [high, half - high * 10**4]
    for col, quad in enumerate(quads, 1):
        words[:, col] = quad_text[quad]
    words.view(np.uint8)[:, 3] = 48 + lead
    zeros = quad_zeros[quads[3]]
    for seen, quad in zip((4, 8, 12), quads[2::-1]):
        zeros += (zeros == seen) * quad_zeros[quad]
    return words, 17 - zeros


def _digit_runs(text: str, n_digits: int) -> list[list[int]]:
    """Where the n_digits significant digits of a '%.17g' text sit, as
    ``[offset in text, offset in digits, length]`` runs."""
    mantissa = text.partition("e")[0]
    first = next((i for i, c in enumerate(mantissa) if c in "123456789"), len(mantissa))
    slots = [i for i in range(first, len(mantissa)) if mantissa[i].isdigit()]
    runs: list[list[int]] = []
    for j, i in enumerate(slots[:n_digits]):
        if runs and runs[-1][0] + runs[-1][2] == i:
            runs[-1][2] += 1
        else:
            runs.append([i, j, 1])
    return runs


def _format17_cells(values: np.ndarray, out: np.ndarray, layouts: dict) -> None:
    """Write ``format(x, '.17g')`` of each value, zero-padded to
    ``_CELL_WIDTH`` bytes, into the elements of ``out``, a 1-d array of
    that many bytes per element.

    Values sharing sign, decimal exponent and significant-digit count
    share a layout: Python's own text of the first value met with that
    key, as bytes, and where its digits sit.  ``layouts`` keeps them by
    key across calls; the other values get their digits copied in.
    Zeros have two layouts of their own, '0' and '-0', with no digits.
    Values ``_digits17`` cannot decide are formatted one by one with
    ``_fmt17``."""
    x = np.asarray(values, dtype=float)
    ok, exponent, digits = _digits17(x)
    words, n_digits = _ascii17(digits)
    zero = x == 0
    n_digits[zero] = 0
    key = ((exponent + 300) * 18 + n_digits) * 2 + np.signbit(x)
    key[~(ok | zero)] = -1
    key = key.astype(np.int16)
    # Sort rows by layout, so each layout fills one contiguous slice.
    order = np.argsort(key, kind="stable")
    key = key[order]
    text = words.view("V20")[order].view(np.uint8)[:, 3:]
    cells = np.zeros((len(x), _CELL_WIDTH), np.uint8)
    starts = [0, *(np.flatnonzero(key[1:] != key[:-1]) + 1).tolist()]
    for start, stop in zip(starts, starts[1:] + [len(x)]):
        if key[start] < 0:
            for row, value in enumerate(x[order[start:stop]].tolist(), start):
                fallback = _fmt17(value).encode()
                cells[row, : len(fallback)] = list(fallback)
            continue
        layout = layouts.get(int(key[start]))
        if layout is None:
            sample = _fmt17(x[order[start]].item())
            layout = np.frombuffer(sample.encode(), np.uint8), _digit_runs(sample, key[start] // 2 % 18)
            layouts[int(key[start])] = layout
        chars, runs = layout
        cells[start:stop, : len(chars)] = chars
        for col, first, length in runs:
            cells[start:stop, col : col + length] = text[start:stop, first : first + length]
    out[order] = cells.view(out.dtype)[:, 0]


def _csv_blocks(header: str, columns: list[np.ndarray]) -> Iterator[bytes]:
    """The header line, then one row per entry of ``columns[0]``, of the
    columns' values as ``format(x, '.17g')``, as ASCII bytes: the header,
    then one block of ``KERNEL_BLOCK`` rows at a time, each formatted as it
    is asked for.  A shorter column leaves its last cells empty.  Written
    column by column, with every number byte-identical to ``_fmt17``;
    the blocks and columns share their layouts."""
    layouts: dict[int, tuple[np.ndarray, list[list[int]]]] = {}
    yield header.encode() + b"\n"
    n_rows = len(columns[0])
    for start in range(0, n_rows, KERNEL_BLOCK):
        block = np.zeros((min(KERNEL_BLOCK, n_rows - start), len(columns), _CELL_WIDTH + 1), np.uint8)
        block[:, :, -1] = ord(",")
        block[:, -1, -1] = ord("\n")
        # Each cell's bytes as one element, so rows move as single copies.
        cells = block[..., :-1].view(f"V{_CELL_WIDTH}")[..., 0]
        for j, column in enumerate(columns):
            values = column[start : start + KERNEL_BLOCK]
            if len(values):
                _format17_cells(values, cells[: len(values), j], layouts)
        flat = block.reshape(-1)
        yield flat[flat != 0].tobytes()


def _csv_text(header: str, columns: list[np.ndarray]) -> str:
    """``_csv_blocks`` joined into one string."""
    return b"".join(_csv_blocks(header, columns)).decode("ascii")


def _mesh_table(mesh: Mesh) -> tuple[str, list[np.ndarray]]:
    n = mesh.n_intervals
    index = np.arange(n + 1, dtype=float)  # '%.17g' prints these as str(i)
    return "i,xi,x,h", [index, index / n, mesh.nodes, mesh.widths]


def _solution_table(trajectory: Trajectory, problem: Problem) -> tuple[str, list[np.ndarray]]:
    nodes, values = trajectory.mesh.nodes, trajectory.values
    if problem.exact is None:
        exact = gaps = np.empty(0)
    else:
        exact = exact_eval(problem, nodes)
        with np.errstate(invalid="ignore"):
            gaps = np.abs(exact - values)
    return "x,y_numeric,y_exact,abs_error", [nodes, values, exact, gaps]


def format_mesh_csv(mesh: Mesh) -> str:
    """Rows ``i,xi,x,h`` with the width column empty on the last row."""
    return _csv_text(*_mesh_table(mesh))


def format_solution_csv(trajectory: Trajectory, problem: Problem) -> str:
    """Rows ``x,y_numeric,y_exact,abs_error``; exact columns are empty when
    the problem has no closed-form solution."""
    return _csv_text(*_solution_table(trajectory, problem))


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


def run(args: argparse.Namespace) -> Iterable[bytes]:
    """Execute a parsed command line and return its output as blocks of
    UTF-8 bytes.  Every usage or numerical error is raised here: the
    blocks, formatted as they are read, only print values already
    computed."""
    labels = tuple(part.strip() for part in args.eps.split(",")) if args.eps else ()
    epsilons = tuple(parse_epsilon(part) for part in labels)
    grading = {field: getattr(args, field) for _, field, *_ in _GRADING_FLAGS}
    if not epsilons and not (args.command == "mesh" and args.mesh == MESH_UNIFORM):
        what = "a shishkin mesh" if args.command == "mesh" else args.command
        raise ValueError(f"--eps is required for {what}")

    if args.command == "sweep":
        if args.kmax > MAX_LOG2_INTERVALS:
            raise ValueError(f"--kmax must be at most {MAX_LOG2_INTERVALS}, got {args.kmax}")
        table = convergence.run_sweep(
            args.scheme, args.problem, epsilons, args.kmin, args.kmax, args.mesh, **grading
        )
        if args.format == "md":
            return [format_sweep_markdown(table, labels).encode()]
        return [format_sweep_csv(table).encode()]

    if len(epsilons) > 1:
        raise ValueError("this command takes a single --eps value")
    eps = epsilons[0] if epsilons else None
    if args.n_intervals > MAX_INTERVALS:
        raise ValueError(f"--n-intervals must be at most {MAX_INTERVALS}, got {args.n_intervals}")
    mesh = convergence.build_mesh(args.mesh, args.n_intervals, eps, **grading)
    if args.command == "mesh":
        return _csv_blocks(*_mesh_table(mesh))
    problem = make_builtin(args.problem, eps)
    trajectory = integrate(args.scheme, problem, mesh)
    if args.command == "solve":
        return _csv_blocks(*_solution_table(trajectory, problem))
    line = format_stability_line(
        args.scheme,
        eps,
        mesh.n_intervals,
        convergence.oscillation_count(trajectory),
        convergence.max_error(trajectory, problem),
    )
    return [line.encode()]


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
    for flag, field, kind, metavar, text in _GRADING_FLAGS:
        sub.add_argument(flag, dest=field, type=kind, metavar=metavar,
                         default=getattr(ShishkinParams, field),
                         help=f"{text} (default: %(default)s); ignored with --mesh uniform")
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
    for name, help_text in (
        ("mesh", "dump mesh nodes as CSV"),
        ("solve", "solve once and dump the solution"),
        ("sweep", "error/order table over N = 2^k"),
        ("stability", "oscillation diagnostic for one configuration"),
    ):
        sub = subs.add_parser(name, help=help_text)
        _add_common(sub, with_scheme=name != "mesh")
        if name != "sweep":
            sub.add_argument("--n-intervals", type=int, required=True)
            continue
        sub.add_argument("--kmin", type=int, required=True)
        sub.add_argument("--kmax", type=int, required=True)
        sub.add_argument("--format", choices=("csv", "md"), default="csv")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        blocks = run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    try:
        if args.out:
            with open(args.out, "wb") as fh:
                _write_blocks(fh, blocks)
        elif hasattr(sys.stdout, "buffer"):
            sys.stdout.flush()  # text written before stays ahead of these bytes
            _write_blocks(sys.stdout.buffer, blocks)
        else:  # a text-only stream, such as io.StringIO
            for block in blocks:
                sys.stdout.write(block.decode())
    except OSError as exc:
        where = repr(args.out) if args.out else "stdout"
        print(f"error: cannot write {where}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def _write_blocks(stream, blocks: Iterable[bytes]) -> None:
    """Write each block as it comes to a binary stream's raw file (to the
    stream itself if it has none), after flushing the stream, until every
    byte is written: a raw write may take part of a block, or on a
    non-blocking file none (it returns None), and select then waits until
    the file takes more.  No byte is left in a buffer for a later flush."""
    stream.flush()
    raw = getattr(stream, "raw", stream)
    for block in blocks:
        view = memoryview(block)
        while view:
            written = raw.write(view)
            if written is None:
                select.select([], [raw], [])
            view = view[written or 0 :]


def process_main() -> int:
    """``main()`` as the entry point of ``python -m shishkin_ivp.cli`` and
    of the installed ``shishkin-ivp``: ``gc.freeze()`` first moves the
    ~21,000 objects alive after import into the permanent generation, so
    no collection walks them again, interpreter shutdown's included."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(process_main())
