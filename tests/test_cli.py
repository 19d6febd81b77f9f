"""Tests for the command-line interface: parsing, formats, exit codes."""

import contextlib
import csv
import gc
import hashlib
import importlib.util
import io
import os
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from shishkin_ivp import (
    build_shishkin_mesh,
    integrate,
    make_builtin,
    run_sweep,
    ShishkinParams,
)
from shishkin_ivp import cli
from shishkin_ivp.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, main, parse_epsilon


def _perfbench_golden():
    """The benchmark's golden-file module, loaded from its path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "golden.py"
    spec = importlib.util.spec_from_file_location("perfbench_golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden = _perfbench_golden()
CLI_GOLDENS = golden.load("cli_solve")


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParseEpsilon:
    def test_plain_decimal(self):
        assert parse_epsilon("0.5") == 0.5
        assert parse_epsilon("1") == 1.0

    def test_integer_power(self):
        assert parse_epsilon("2^-4") == 0.0625

    def test_fractional_power(self):
        assert parse_epsilon("2^-7.225") == pytest.approx(
            0.006684336138145331, rel=1e-15
        )

    @pytest.mark.parametrize("text", ["", "abc", "2^", "2^-", "1e", "2**-4"])
    def test_malformed(self, text):
        with pytest.raises(ValueError):
            parse_epsilon(text)

    @pytest.mark.parametrize("text", ["0", "0.0", "-0.25", "2^1", "1.5", "2^1024", "2^5000"])
    def test_out_of_range(self, text):
        with pytest.raises(ValueError, match="in \\(0, 1\\]"):
            parse_epsilon(text)

    def test_overflowing_power_is_usage_error(self, capsys):
        """2.0**1024 overflows: out of range, as inf is, not a numerical failure."""
        assert run_cli(["solve", "--n-intervals", "4", "--eps", "2^1024"], capsys) == (
            EXIT_USAGE, "", "error: epsilon must be in (0, 1], got inf\n"
        )


class TestMeshCommand:
    def test_uniform_nodes(self, capsys):
        code, out, _ = run_cli(
            ["mesh", "--type", "uniform", "--n-intervals", "4"], capsys
        )
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [float(r["x"]) for r in rows] == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert rows[-1]["h"] == ""
        assert rows[0]["h"] == "0.25"

    def test_shishkin_roundtrip_17_digits(self, capsys):
        code, out, _ = run_cli(
            ["mesh", "--mesh", "shishkin", "--n-intervals", "8", "--eps", "2^-6"],
            capsys,
        )
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out)))
        mesh = build_shishkin_mesh(ShishkinParams(n_intervals=8, epsilon=2.0**-6))
        for row, node, xi in zip(rows, mesh.nodes, range(9)):
            assert float(row["x"]) == node  # 17 significant digits round-trip
            assert float(row["xi"]) == xi / 8

    def test_shishkin_options_ignored_on_uniform_mesh(self, capsys):
        args = ["mesh", "--mesh", "uniform", "--n-intervals", "4"]
        plain = run_cli(args, capsys)
        assert run_cli(args + ["--alpha", "7", "--mesh-order", "-3"], capsys) == plain

    def test_shishkin_requires_eps(self, capsys):
        code, _, err = run_cli(["mesh", "--n-intervals", "8"], capsys)
        assert code == EXIT_USAGE
        assert "eps" in err

    def test_grading_options_reach_the_mesh(self, capsys):
        code, out, _ = run_cli(
            ["mesh", "--n-intervals", "16", "--eps", "2^-6",
             "--mesh-order", "1", "--mesh-b", "2", "--alpha", "0.25"],
            capsys,
        )
        params = ShishkinParams(16, 2.0**-6, method_order=1, layer_constant=2.0, split=0.25)
        assert (code, out) == (EXIT_OK, cli.format_mesh_csv(build_shishkin_mesh(params)))

    def test_grading_help_shows_the_params_defaults(self, capsys):
        with pytest.raises(SystemExit):
            main(["mesh", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        for flag, field in (
            ("--mesh-order N", "method_order"),
            ("--mesh-b B", "layer_constant"),
            ("--alpha ALPHA", "split"),
        ):
            assert flag in text
            assert f"(default: {getattr(ShishkinParams, field)})" in text


class TestEpsRequired:
    """One rule: every command needs --eps except mesh --mesh uniform."""

    @pytest.mark.parametrize(
        "args, what",
        [
            (["mesh", "--n-intervals", "8"], "a shishkin mesh"),
            (["solve", "--n-intervals", "8"], "solve"),
            (["stability", "--n-intervals", "8", "--mesh", "uniform"], "stability"),
            (["sweep", "--kmin", "3", "--kmax", "4"], "sweep"),
        ],
    )
    def test_missing_eps_is_usage_error(self, args, what, capsys):
        assert run_cli(args, capsys) == (EXIT_USAGE, "", f"error: --eps is required for {what}\n")

    def test_solve_takes_a_single_eps(self, capsys):
        message = "error: this command takes a single --eps value\n"
        assert run_cli(["solve", "--n-intervals", "8", "--eps", "0.1,0.2"], capsys) == (
            EXIT_USAGE, "", message
        )


class TestDegenerateMesh:
    """eps = 2^-1074 with N = 2^20 would give a zero fine width: a usage
    error when the mesh is built, never a numerical failure later."""

    ARGS = ["--eps", "2^-1074", "--n-intervals", str(2**20)]

    def test_solve_is_usage_error(self, capsys):
        code, out, err = run_cli(["solve", "--scheme", "gauss2"] + self.ARGS, capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert "repeat" in err

    def test_mesh_is_usage_error(self, capsys):
        code, out, err = run_cli(["mesh"] + self.ARGS, capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert "repeat" in err


class TestSizeCap:
    """Meshes above MAX_INTERVALS are usage errors, raised before any
    array is allocated."""

    @pytest.mark.parametrize(
        "args",
        [
            ["mesh", "--mesh", "uniform", "--n-intervals", str(2**40)],
            ["solve", "--n-intervals", str(2**40), "--eps", "0.5"],
            ["sweep", "--eps", "0.5", "--kmin", "38", "--kmax", "40"],
        ],
    )
    def test_too_large_is_usage_error(self, args, capsys):
        code, out, err = run_cli(args, capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: --") and "must be at most" in err


class TestSolveCommand:
    def test_solution_columns(self, capsys):
        code, out, _ = run_cli(
            [
                "solve", "--problem", "decay", "--scheme", "gauss2",
                "--mesh", "uniform", "--n-intervals", "10", "--eps", "1",
            ],
            capsys,
        )
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 11
        problem = make_builtin("decay", 1.0)
        for row in rows:
            x = float(row["x"])
            assert float(row["y_exact"]) == problem.exact(x)
            assert float(row["abs_error"]) == abs(
                float(row["y_exact"]) - float(row["y_numeric"])
            )
        assert float(rows[0]["y_numeric"]) == 1.0

    def test_numerical_failure_exit_code(self, capsys):
        code, _, err = run_cli(
            [
                "solve", "--problem", "layer1", "--scheme", "heun",
                "--mesh", "uniform", "--n-intervals", "64", "--eps", "2^-30",
            ],
            capsys,
        )
        assert code == EXIT_NUMERICAL
        assert "numerical failure" in err


class TestSweepCommand:
    def test_csv_matches_library(self, capsys):
        code, out, _ = run_cli(
            [
                "sweep", "--problem", "layer1", "--scheme", "heun",
                "--eps", "2^-6", "--kmin", "10", "--kmax", "11",
            ],
            capsys,
        )
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out)))
        table = run_sweep("heun", "layer1", [2.0**-6], 10, 11)
        assert [int(r["k"]) for r in rows] == [10, 11]
        assert [int(r["N"]) for r in rows] == [1024, 2048]
        for row in rows:
            cell = table.entries[(2.0**-6, int(row["k"]))]
            assert float(row["E_N"]) == cell.error
        assert float(rows[0]["ord"]) == table.entries[(2.0**-6, 10)].order
        assert rows[1]["ord"] == ""

    def test_markdown_layout(self, capsys):
        code, out, _ = run_cli(
            [
                "sweep", "--problem", "layer1", "--scheme", "heun",
                "--eps", "2^-6,2^-8", "--kmin", "10", "--kmax", "11",
                "--format", "md",
            ],
            capsys,
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0].startswith("| N | E_N (eps=2^-6) | ord | E_N (eps=2^-8) | ord |")
        assert lines[2].startswith("| 2^10 |")
        # last refinement row prints '-' for both ord columns
        assert lines[3].count(" - |") == 2
        # errors in 3-significant-digit scientific notation
        cells = [c.strip() for c in lines[2].split("|")[2::2]]
        for cell in cells[:1]:
            float(cell)
            assert "e-" in cell

    def test_markdown_labels_default_to_the_epsilons(self):
        table = run_sweep("heun", "layer1", [2.0**-6], 3, 4)
        header = cli.format_sweep_markdown(table).splitlines()[0]
        assert header == "| N | E_N (eps=0.015625) | ord |"

    def test_requires_k_range(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--problem", "layer1", "--eps", "2^-6", "--kmin", "10"])


class TestStabilityCommand:
    def test_report_line(self, capsys):
        code, out, _ = run_cli(
            [
                "stability", "--problem", "layer1", "--scheme", "gauss2",
                "--mesh", "uniform", "--n-intervals", "32",
                "--epsilon", "2^-7.225",
            ],
            capsys,
        )
        assert code == EXIT_OK
        assert out.startswith("scheme=gauss2 epsilon=")
        assert "N=32" in out
        assert "oscillations=0" in out
        assert "max_error=" in out

    def test_explicit_scheme_oscillation_fields(self, capsys):
        code, out, _ = run_cli(
            [
                "stability", "--problem", "layer1", "--scheme", "rk3_a",
                "--mesh", "uniform", "--n-intervals", "32", "--eps", "2^-7.225",
            ],
            capsys,
        )
        assert code == EXIT_OK
        fields = dict(part.split("=") for part in out.split())
        assert int(fields["oscillations"]) >= 3
        assert float(fields["max_error"]) > float("1e-3")

    def test_overflowing_gauss_determinant_fails_loudly(self, capsys):
        """At eps = 2^-515 layer1's p1*p2 overflows in the Gauss stage
        determinant, which would leave y unchanged and read a finite
        max_error; the run fails instead, and prints no report line."""
        args = ["stability", "--problem", "layer1", "--scheme", "gauss2",
                "--mesh", "shishkin", "--n-intervals", "1024"]
        code, out, err = run_cli(args + ["--eps", "2^-515"], capsys)
        assert (code, out) == (EXIT_NUMERICAL, "")
        assert err.startswith("numerical failure: step 576 failed: non-finite Gauss stage determinant")
        code, out, _ = run_cli(args + ["--eps", "2^-500"], capsys)
        assert code == EXIT_OK
        assert out.split()[-1] == "max_error=9.5379887743440861e-07"


class TestOutputHandling:
    def test_deterministic_output(self, capsys):
        args = [
            "sweep", "--problem", "layer1", "--scheme", "rk2_ralston",
            "--eps", "2^-5", "--kmin", "4", "--kmax", "6",
        ]
        _, first, _ = run_cli(args, capsys)
        _, second, _ = run_cli(args, capsys)
        assert first == second

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "mesh.csv"
        code, out, _ = run_cli(
            ["mesh", "--type", "uniform", "--n-intervals", "4", "--out", str(target)],
            capsys,
        )
        assert code == EXIT_OK
        assert out == ""
        assert target.read_text().startswith("i,xi,x,h\n")

    def test_out_in_missing_directory_is_usage_error(self, tmp_path, capsys):
        target = tmp_path / "missing" / "mesh.csv"
        code, out, err = run_cli(
            ["mesh", "--mesh", "uniform", "--n-intervals", "4", "--out", str(target)],
            capsys,
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: cannot write")
        assert not target.exists()

    def test_out_naming_a_directory_is_usage_error(self, tmp_path, capsys):
        code, out, err = run_cli(
            ["mesh", "--mesh", "uniform", "--n-intervals", "4", "--out", str(tmp_path)],
            capsys,
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: cannot write")

    def test_infinite_layer_constant_is_usage_error(self, capsys):
        code, out, err = run_cli(
            ["mesh", "--n-intervals", "8", "--eps", "2^-4", "--mesh-b", "inf"], capsys
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "layer_constant" in err

    def test_usage_error_on_bad_eps(self, capsys):
        code, _, err = run_cli(
            ["mesh", "--n-intervals", "8", "--eps", "2**-4"], capsys
        )
        assert code == EXIT_USAGE
        assert "error:" in err

    @pytest.mark.parametrize("text, value", [("2^1", 2.0), ("0", 0.0), ("-0.25", -0.25)])
    def test_usage_error_on_eps_out_of_range(self, text, value, capsys):
        """The CLI's epsilon range is the library's one rule, message and all."""
        code, out, err = run_cli(["solve", "--n-intervals", "8", "--eps", text], capsys)
        with pytest.raises(ValueError) as raised:
            make_builtin("layer1", value)
        assert (code, out, err) == (EXIT_USAGE, "", f"error: {raised.value}\n")

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "shishkin_ivp.cli", "mesh", "--type", "uniform",
             "--n-intervals", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "i,xi,x,h"


class TestStreamedOutput:
    """``mesh`` and ``solve`` write their CSV as bytes, a block at a time:
    the same bytes as the ``format_*`` functions, to stdout or ``--out``,
    and nothing at all when the run fails."""

    EPS = 2.0**-8
    N = 2**12

    def expected(self, command):
        mesh = build_shishkin_mesh(ShishkinParams(n_intervals=self.N, epsilon=self.EPS))
        if command == "mesh":
            return cli.format_mesh_csv(mesh).encode()
        problem = make_builtin("layer1", self.EPS)
        trajectory = integrate("gauss2", problem, mesh)
        return cli.format_solution_csv(trajectory, problem).encode()

    def args(self, command):
        args = [command, "--n-intervals", str(self.N), "--eps", "2^-8"]
        return args + (["--scheme", "gauss2"] if command == "solve" else [])

    @pytest.mark.parametrize("block", [16384, 1000])
    @pytest.mark.parametrize("command", ["mesh", "solve"])
    def test_bytes_match_the_format_functions(
        self, command, block, monkeypatch, tmp_path, capsysbinary
    ):
        monkeypatch.setattr(cli, "KERNEL_BLOCK", block)
        expected = self.expected(command)
        assert main(self.args(command)) == EXIT_OK
        captured = capsysbinary.readouterr()
        assert captured.out == expected and captured.err == b""
        target = tmp_path / "out.csv"
        assert main(self.args(command) + ["--out", str(target)]) == EXIT_OK
        assert capsysbinary.readouterr().out == b""
        assert target.read_bytes() == expected

    @pytest.mark.parametrize(
        "args, code",
        [
            (["solve", "--scheme", "heun", "--mesh", "uniform", "--n-intervals", "64",
              "--eps", "2^-30"], EXIT_NUMERICAL),
            (["solve", "--scheme", "gauss2", "--eps", "2^-1074", "--n-intervals",
              str(2**20)], EXIT_USAGE),
            (["mesh", "--n-intervals", "8", "--eps", "2^-4", "--mesh-b", "inf"],
             EXIT_USAGE),
        ],
    )
    def test_failing_run_writes_nothing(self, args, code, tmp_path, capsysbinary):
        assert main(args) == code
        assert capsysbinary.readouterr().out == b""
        target = tmp_path / "out.csv"
        assert main(args + ["--out", str(target)]) == code
        assert capsysbinary.readouterr().out == b""
        assert not target.exists()

    def test_short_writes_are_repeated(self, monkeypatch):
        class ShortWrites(io.RawIOBase):
            """A raw stream that takes at most 1000 bytes per write."""

            def __init__(self):
                self.data = bytearray()

            def writable(self):
                return True

            def write(self, data):
                taken = bytes(data[:1000])
                self.data += taken
                return len(taken)

        class Stdout:
            buffer = ShortWrites()

            def flush(self):
                pass

        monkeypatch.setattr(sys, "stdout", Stdout())
        assert main(self.args("solve")) == EXIT_OK
        assert bytes(Stdout.buffer.data) == self.expected("solve")

    @pytest.mark.parametrize("command", ["mesh", "solve"])
    def test_text_only_stdout(self, command):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(self.args(command)) == EXIT_OK
        assert out.getvalue() == self.expected(command).decode()


def _child_env():
    """The environment for a child process that imports this package's source."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


# Runs the CLI in a fresh process, as ``python -m shishkin_ivp.cli`` does
# (``runpy``) or as a console script calling "module:function" does, and
# reports the exit code and the collector's freeze count on stderr's last
# line.
_ENTRY_RUNNER = """
import gc, importlib, runpy, sys
how, sys.argv = sys.argv[1], ["shishkin-ivp", *sys.argv[2:]]
try:
    if how == "runpy":
        runpy.run_module("shishkin_ivp.cli", run_name="__main__", alter_sys=True)
        code = 0
    else:
        module, _, name = how.partition(":")
        code = getattr(importlib.import_module(module), name)()
except SystemExit as exc:
    code = exc.code
print(code or 0, gc.get_freeze_count(), file=sys.stderr)
"""


class TestProcessEntry:
    """Both process entry paths call the function that freezes the
    import-time heap; ``main`` itself leaves the collector alone, and all
    three give the same stdout bytes and exit code."""

    CASES = [
        ["solve", "--scheme", "gauss2", "--n-intervals", "256", "--eps", "2^-8"],
        ["mesh", "--n-intervals", "8", "--eps", "2^-4", "--mesh-b", "inf"],
        ["solve", "--scheme", "heun", "--mesh", "uniform", "--n-intervals", "64",
         "--eps", "2^-30"],
    ]

    @staticmethod
    def script_target():
        """The "module:function" that [project.scripts] installs as
        shishkin-ivp, read as text (Python 3.10 has no tomllib)."""
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        return re.search(r'^shishkin-ivp\s*=\s*"([\w.]+:\w+)"', text, re.M).group(1)

    @pytest.mark.parametrize("args", CASES)
    def test_main_does_not_freeze(self, args, capsysbinary):
        before = gc.get_freeze_count()
        main(args)
        assert gc.get_freeze_count() == before

    @pytest.mark.parametrize("how", ["runpy", "script"])
    @pytest.mark.parametrize("args", CASES)
    def test_process_entry_freezes_and_prints_the_same(self, how, args, capsysbinary):
        expected_code = main(args)
        expected_out = capsysbinary.readouterr().out
        target = "runpy" if how == "runpy" else self.script_target()
        proc = subprocess.run(
            [sys.executable, "-c", _ENTRY_RUNNER, target, *args],
            capture_output=True, env=_child_env(),
        )
        code, frozen = map(int, proc.stderr.split(b"\n")[-2].split())
        assert (code, proc.stdout) == (expected_code, expected_out)
        assert frozen > 0


class TestUnwritableStdout:
    """A stdout that cannot be written is a usage error, as an unwritable
    ``--out`` path is: exit 2 and one ``error:`` line on stderr, with no
    traceback from the run or from the interpreter's final flush."""

    @staticmethod
    def spawn(args, stdout):
        return subprocess.Popen([sys.executable, "-m", "shishkin_ivp.cli", *args],
                                stdout=stdout, stderr=subprocess.PIPE, env=_child_env())

    def test_closed_pipe(self):
        proc = self.spawn(["solve", "--problem", "layer1", "--n-intervals", "131072",
                           "--eps", "2^-8"], subprocess.PIPE)
        assert proc.stdout.readline() == b"x,y_numeric,y_exact,abs_error\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(), err) == (EXIT_USAGE, b"error: cannot write stdout: Broken pipe\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_device(self):
        with open("/dev/full", "wb") as full:
            proc = self.spawn(["mesh", "--mesh", "uniform", "--n-intervals", "4"], full)
        _, err = proc.communicate()
        assert (proc.returncode, err) == (
            EXIT_USAGE, b"error: cannot write stdout: No space left on device\n"
        )


@pytest.mark.skipif(not (hasattr(os, "posix_spawn") and hasattr(os, "wait4")),
                    reason="needs os.posix_spawn and os.wait4")
class TestNonBlockingStdout:
    """A stdout pipe opened O_NONBLOCK whose reader starts late: a write
    that would block waits until the pipe takes more, neither failing
    (exit 2, "write could not complete without blocking") nor retrying at
    once.  In both stdout modes, buffered and PYTHONUNBUFFERED's raw file,
    the CLI exits 0 with the bytes a blocking pipe carries, and its CPU
    time stays well below the time it waits for the reader."""

    ARGS = ["mesh", "--mesh", "uniform", "--n-intervals", "200000"]  # 13.4 MB, ~200 pipe buffers
    DELAY = 2.0

    @classmethod
    def run(cls, unbuffered, blocking, delay, err_path):
        """Exit code, stdout bytes, stderr bytes and CPU seconds of one CLI
        process whose stdout pipe is read from ``delay`` seconds on."""
        env = _child_env()
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.set_blocking(write_end, blocking)
        try:
            pid = os.posix_spawn(
                sys.executable, [sys.executable, "-m", "shishkin_ivp.cli", *cls.ARGS], env,
                file_actions=[(os.POSIX_SPAWN_DUP2, write_end, 1),
                              (os.POSIX_SPAWN_OPEN, 2, str(err_path), os.O_WRONLY | os.O_CREAT, 0o600)],
            )
        finally:
            os.close(write_end)
        time.sleep(delay)
        chunks, deadline = [], time.monotonic() + 60.0
        with open(read_end, "rb", buffering=0) as reader:
            while select.select([reader], [], [], max(deadline - time.monotonic(), 0.0))[0]:
                if not (chunk := reader.read(1 << 20)):
                    break
                chunks.append(chunk)
            else:  # no end of file within the deadline: a hung child fails the test
                os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        return (os.waitstatus_to_exitcode(status), b"".join(chunks), err_path.read_bytes(),
                usage.ru_utime + usage.ru_stime)

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_late_reader(self, unbuffered, tmp_path):
        code, expected, err, blocking_cpu = self.run(unbuffered, True, 0.0, tmp_path / "blocking.err")
        assert (code, err, len(expected)) == (EXIT_OK, b"", 13388241)
        code, out, err, cpu = self.run(unbuffered, False, self.DELAY, tmp_path / "late.err")
        assert (code, err) == (EXIT_OK, b"")
        assert out == expected
        assert cpu < blocking_cpu + self.DELAY / 4


@pytest.mark.parametrize("key", list(CLI_GOLDENS))
def test_matches_benchmark_golden(key, capsys):
    """Each benchmark CLI invocation, run in-process, agrees with its
    golden summary at the benchmark's tolerance."""
    code, out, err = run_cli(key.split(), capsys)
    assert err == ""
    assert golden.check_cli((code, out.encode()), CLI_GOLDENS[key]) is None


class TestByteContract:
    """The stdout bytes of fifteen CLI runs (solve and mesh at N = 2^15..2^17,
    a sweep, a stability line), each in a fresh ``python -m`` process, by
    their sha256: a change that moves one byte of any of them fails here."""

    CASES = [
        (["solve", "--problem", "layer1", "--scheme", scheme, "--n-intervals", str(2**k),
          "--eps", "2^-8"], digest)
        for scheme, digests in (
            ("heun", ("906b8224ede69e0a9d31db562fcaf800b4c145a64d36c86620250c23e3a05768",
                      "761864abc28b9666ca5e0cb0fe846db62623cf5398652957e549fb4ebbe29831",
                      "9aa9aa11f48d3cf51e9f145689efa18d329dffbe9b6d94f7847637734fd2d0f5")),
            ("rk3_a", ("42c82bce8ffae5ae6a9a8c1311cd34816ea7556803afcc412eba30cfddd73b09",
                       "cfbeab3e33c723207f2dd9f5a93a51571208b9fa6c9a16bf8c4d1958a3b021d7",
                       "59526417f153018b0f0275ae661391e8e4abe83dadfa3a8517d26e469155a83b")),
            ("gauss2", ("859b0d5093e1efb87d3c8881778689e0a9861bb9da495e04038a268708dde142",
                        "7493f06816b2fa6c28c3b4ebc65bc6186fcf5f2276b97b047f6a3c0d3db6ca9e",
                        "20a530525ba2bcceec7331df9677662bc48cbca3821e20dd92103a766580a540")),
        )
        for k, digest in zip((15, 16, 17), digests)
    ] + [
        (["mesh", "--mesh", "shishkin", "--n-intervals", str(2**k), "--eps", "2^-8"], digest)
        for k, digest in zip((15, 16, 17), (
            "be09fb0284fcb5d0b599215c2f3dd54a9900e9f06dd945c1cdc82bf3bb476c39",
            "1e7c40ae7d6be9f1dd9c812b78a2b62b6dbe192977442a67a0dca77ee43b93cd",
            "ba70aa7df4955f4b612f5193e437bb9f62dc6e8f84a3d6068214af6e4b8c561d",
        ))
    ] + [
        (["mesh", "--mesh", "uniform", "--n-intervals", str(2**16)],
         "fb4b576c5cda0de7e0f1c10dfa07657bddbff9e4469f0ebad618225d640ff4e5"),
        (["sweep", "--problem", "layer1", "--scheme", "heun", "--eps", "2^-4,2^-6,2^-8",
          "--kmin", "8", "--kmax", "12", "--format", "md"],
         "f42c46e170da7be0d99ab85a2e810d8af9f967358892a9ab9346489ff0f16164"),
        (["stability", "--problem", "layer1", "--scheme", "gauss2", "--mesh", "uniform",
          "--n-intervals", "32", "--eps", "2^-7.225"],
         "1f9fd96bf5f21615e076c683723050159cd3822c912aa4a5fa9224d926f4135d"),
    ]

    IDS = ["-".join(arg for arg in args if not arg.startswith("--")) for args, _ in CASES]

    @pytest.mark.parametrize("args, digest", CASES, ids=IDS)
    def test_stdout_sha256(self, args, digest):
        proc = subprocess.run([sys.executable, "-m", "shishkin_ivp.cli", *args],
                              capture_output=True, env=_child_env())
        assert proc.returncode == EXIT_OK, proc.stderr
        assert hashlib.sha256(proc.stdout).hexdigest() == digest
