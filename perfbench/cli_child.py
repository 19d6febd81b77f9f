"""Traced stand-in for ``python -m shishkin_ivp.cli`` used by the traced
cli_solve pass.

    python3 perfbench/cli_child.py solve --scheme heun --n-intervals 256 --eps 2^-8
    python3 perfbench/cli_child.py --import-only

It times the import (numpy's share as its own span), wraps the CLI's
public functions and the library functions as bound in ``cli`` and
``convergence``, times every write to stdout, runs ``cli.main`` and
prints its spans as one JSON line on stderr.  Stdout carries exactly
what the CLI printed.
"""

import json
import sys
from pathlib import Path

import spans as sp

tracer = sp.Tracer()
with tracer.span("cli.import"):
    with tracer.span("numpy.import"):
        import numpy  # noqa: F401
    import shishkin_ivp
    from shishkin_ivp import cli, convergence

_EXPECTED = Path(__file__).resolve().parents[1] / "src" / "shishkin_ivp" / "__init__.py"

CLI_FUNCTIONS = (
    "build_parser",
    "parse_epsilon",
    "run",
    "format_mesh_csv",
    "format_solution_csv",
    "format_sweep_csv",
    "format_sweep_markdown",
    "format_stability_line",
)


class TimedStdout:
    """stdout whose writes, flushed through the pipe, are ``cli.write``
    spans."""

    def __init__(self, stream):
        self._stream = stream

    def write(self, text):
        with tracer.span("cli.write"):
            written = self._stream.write(text)
            self._stream.flush()
        return written

    def __getattr__(self, name):
        return getattr(self._stream, name)


def main(argv) -> int:
    if Path(shishkin_ivp.__file__).resolve() != _EXPECTED:
        print(f"shishkin_ivp resolved to {shishkin_ivp.__file__}", file=sys.stderr)
        return 3
    if argv == ["--import-only"]:
        return 0
    replacements = [
        (cli, name, tracer.wrap(getattr(cli, name), f"cli.{name}")) for name in CLI_FUNCTIONS
    ]
    replacements += sp.library_wrappers(tracer, shishkin_ivp, cli)
    replacements += sp.library_wrappers(tracer, shishkin_ivp, convergence)
    replacements.append((sys, "stdout", TimedStdout(sys.stdout)))
    with sp.patched(replacements):
        return tracer.wrap(cli.main, "cli.main")(argv)


if __name__ == "__main__":
    code = main(sys.argv[1:])
    sys.stdout.flush()
    sys.stderr.write("\n" + json.dumps(tracer.spans) + "\n")
    sys.exit(code)
