"""Golden results and the tolerance every later run is checked against.

Run ``python3 perfbench/golden.py`` to record the golden files under
``perfbench/golden/`` from the code in ``src/``.  They were recorded once,
at the commit that added the benchmark; re-record only when a change is
meant to alter results, and say so.

Tolerance.  Every value is compared with

    |value - golden| <= TAU * n * max(1, scale)

where ``scale`` bounds the magnitude of what is compared and ``n`` is 1
for a pointwise quantity (a max error, one printed number, a column's
largest magnitude) and the number of terms for a sum.  TAU = 1e-12 is 25
times the largest deviation (4e-14, heun at N = 2^17) that the planned
affine-step kernel produced against the current scalar loop, and the
observed deviation grows like sqrt(N) ulps, so the few-ulp shifts in
about a third of the 17-digit CLI strings pass.  A trajectory off by
1e-6 at a single node moves the trajectory sum by 1e-6, while the sum's
tolerance at the largest N used here (2^17 + 1 terms, |y| <= 2) is
2.6e-7, so it fails; ``test_perfbench.py`` checks both cases.

Numbers printed with fewer digits (the Markdown sweep table's "%.2e" and
"%.2f") may also differ by one unit in their last printed digit, since a
few-ulp shift can cross a rounding boundary.  Integers compare exactly.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

TAU = 1e-12

#: Largest |exact solution| of the problems used (layer1 reaches 2), so a
#: trajectory with max error E has |y_i| <= EXACT_BOUND + E.
EXACT_BOUND = 2.0

GOLDEN_DIR = Path(__file__).with_name("golden")

_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")
_EMPTY_FIELD = re.compile(r"(?<=,)(?=,|\n)")


def close(value: float, golden: float, n: float = 1.0, scale: float | None = None) -> bool:
    scale = abs(golden) if scale is None else scale
    return abs(value - golden) <= TAU * n * max(1.0, scale)


# --- library operations -------------------------------------------------


def check_library(outcome: tuple, golden: list) -> str | None:
    """Compare an operation outcome with its golden entry; ``None`` when
    it passes, else the reason it fails.

    ("ok", max_error, sum of y) for a trajectory, ("ok", error, order)
    for a sweep cell, ("raised", exception class, step index) for a
    failure.
    """
    if outcome[0] != golden[0]:
        return f"expected {golden[0]} {golden[1:]}, got {outcome[0]} {outcome[1:]}"
    if outcome[0] == "raised":
        if list(outcome[1:]) != golden[1:]:
            return f"expected {golden[1]} at step {golden[2]}, got {outcome[1]} at step {outcome[2]}"
        return None
    _, error, third = outcome
    if not close(error, golden[1]):
        return f"max error {float(error)!r} != golden {golden[1]!r}"
    kind = golden[3]
    if kind == "sum":
        n_values = golden[4] + 1
        if not close(third, golden[2], n_values, EXACT_BOUND + abs(golden[1])):
            return f"trajectory sum {third!r} != golden {golden[2]!r}"
    elif kind == "order":
        if (third is None) != (golden[2] is None) or (
            third is not None and abs(third - golden[2]) > golden[4]
        ):
            return f"order {third!r} != golden {golden[2]!r}"
    return None


def trajectory_golden(outcome: tuple, n_intervals: int) -> list:
    if outcome[0] == "raised":
        return list(outcome)
    return ["ok", outcome[1], outcome[2], "sum", n_intervals]


def sweep_golden(table, eps: float, k: int) -> list:
    """A cell's error and order; the order's tolerance follows from the
    errors' tolerance through ord = ln(E_N/E_2N) / ln(2k/(k+1))."""
    cell = table.entries[(eps, k)]
    tol = None
    if cell.order is not None:
        e_n, e_2n = cell.error, table.entries[(eps, k + 1)].error
        rel = TAU * (max(1.0, e_n) / e_n + max(1.0, e_2n) / e_2n)
        tol = rel / math.log(2.0 * k / (k + 1.0))
    return ["ok", cell.error, cell.order, "order", tol]


# --- CLI output ----------------------------------------------------------


def summarize_cli(stdout: bytes) -> dict:
    """CSV output: header, row count and per-column sum / largest
    magnitude / empty-field count.  Other text: the text with its numbers
    replaced by ``#`` and the numbers as printed."""
    text = stdout.decode("utf-8")
    header, _, body = text.partition("\n")
    if "," in header and not header.startswith("|"):
        body = _EMPTY_FIELD.sub("nan", body)
        table = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
        return {
            "header": header,
            "rows": int(table.shape[0]),
            "empty": [int(c) for c in np.isnan(table).sum(axis=0)],
            "sum": [float(c) for c in np.nansum(table, axis=0)],
            "maxabs": [float(c) for c in np.nanmax(np.abs(table), axis=0)],
        }
    return {"skeleton": _NUMBER.sub("#", text), "numbers": _NUMBER.findall(text)}


def _printed_unit(token: str) -> float:
    """One unit in the last printed digit of a decimal token; 0 for an
    integer, which must match exactly."""
    mantissa, _, exponent = token.lower().partition("e")
    if "." not in mantissa and not exponent:
        return 0.0
    decimals = len(mantissa.partition(".")[2])
    return 10.0 ** (int(exponent or 0) - decimals)


def check_cli(outcome: tuple, golden: dict) -> str | None:
    returncode, stdout = outcome
    if returncode != golden["returncode"]:
        return f"exit code {returncode}, golden {golden['returncode']}"
    try:
        got = summarize_cli(stdout)
    except ValueError as exc:
        return f"unparseable output: {exc}"
    want = golden["summary"]
    if got.keys() != want.keys():
        return "output kind differs from golden"
    if "header" in want:
        for key in ("header", "rows", "empty"):
            if got[key] != want[key]:
                return f"{key} {got[key]!r} != golden {want[key]!r}"
        for col, (s, g_s, m, g_m) in enumerate(
            zip(got["sum"], want["sum"], got["maxabs"], want["maxabs"])
        ):
            if not close(m, g_m):
                return f"column {col} max |value| {m!r} != golden {g_m!r}"
            if not close(s, g_s, want["rows"], g_m):
                return f"column {col} sum {s!r} != golden {g_s!r}"
        return None
    if got["skeleton"] != want["skeleton"] or len(got["numbers"]) != len(want["numbers"]):
        return "text differs from golden outside its numbers"
    for token, g_token in zip(got["numbers"], want["numbers"]):
        value, g_value = float(token), float(g_token)
        unit = _printed_unit(g_token)
        if unit == 0.0:
            if token != g_token:
                return f"integer {token} != golden {g_token}"
        # Printed values differ by whole units: 1.5 admits one, not two.
        elif abs(value - g_value) > max(1.5 * unit, TAU * max(1.0, abs(g_value))):
            return f"number {token} != golden {g_token}"
    return None


def cli_golden(outcome: tuple) -> dict:
    returncode, stdout = outcome
    return {
        "returncode": returncode,
        "sha256": hashlib.sha256(stdout).hexdigest(),
        "bytes": len(stdout),
        "summary": summarize_cli(stdout),
    }


# --- files ---------------------------------------------------------------


def path_for(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.json"


def load(workload: str) -> dict:
    with open(path_for(workload), encoding="utf-8") as fh:
        return json.load(fh)["results"]


def _nothing() -> None:
    pass


def record() -> None:
    """Recompute every golden result from ``src/`` and write the files."""
    import run
    import workloads as w

    lib = run.load_library(run.ROOT)
    api = run.library_api(lib)
    provenance = run.provenance(run.ROOT, lib)
    results = {
        "ref_sweep": {},
        "nonlinear": {},
        "many_small": {},
        "cli_solve": {},
    }

    table = lib.run_sweep("heun", "layer1", w.REF_EPSILONS, w.REF_K_MIN, w.REF_K_MAX)
    for eps, k in w.ops_for("ref_sweep", 0):
        results["ref_sweep"][f"{eps!r}/{k}"] = sweep_golden(table, eps, k)
    for op in w.run_nonlinear(api, w.nonlinear_ops(0), _nothing):
        results["nonlinear"][op.key] = trajectory_golden(op.outcome, w.NONLINEAR_N)
    for op, (_, k, *_rest) in zip(w.run_many_small(api, w.small_pool(), _nothing), w.small_pool()):
        results["many_small"][op.key] = trajectory_golden(op.outcome, 2**k)
    cli_done, _ = w.run_cli(run.ROOT, w.CLI_OPS, False, _nothing)
    for op in cli_done:
        results["cli_solve"][op.key] = cli_golden(op.outcome)

    GOLDEN_DIR.mkdir(exist_ok=True)
    for workload, entries in results.items():
        # One result per line, so a re-recording diffs line by line.
        lines = ",\n".join(
            f"{json.dumps(key)}: {json.dumps(value, separators=(',', ':'))}"
            for key, value in entries.items()
        )
        with open(path_for(workload), "w", encoding="utf-8") as fh:
            fh.write(f'{{"provenance": {json.dumps(provenance)},\n"tau": {TAU!r},\n')
            fh.write(f'"results": {{\n{lines}\n}}}}\n')
        print(f"wrote {path_for(workload)}: {len(entries)} entries")


if __name__ == "__main__":
    if sys.argv[1:] != []:
        sys.exit("usage: python3 perfbench/golden.py   (re-records every golden file)")
    record()
