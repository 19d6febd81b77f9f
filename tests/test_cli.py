"""Tests for the command-line interface: parsing, formats, exit codes."""

import csv
import io
import subprocess
import sys

import pytest

from shishkin_ivp import (
    build_shishkin_mesh,
    make_builtin,
    run_sweep,
    ShishkinParams,
)
from shishkin_ivp.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, main, parse_epsilon


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

    @pytest.mark.parametrize("text", ["0", "0.0", "-0.25", "2^1", "1.5"])
    def test_out_of_range(self, text):
        with pytest.raises(ValueError, match="in \\(0, 1\\]"):
            parse_epsilon(text)


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

    def test_shishkin_requires_eps(self, capsys):
        code, _, err = run_cli(["mesh", "--n-intervals", "8"], capsys)
        assert code == EXIT_USAGE
        assert "eps" in err


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

    def test_usage_error_on_bad_eps(self, capsys):
        code, _, err = run_cli(
            ["mesh", "--n-intervals", "8", "--eps", "2**-4"], capsys
        )
        assert code == EXIT_USAGE
        assert "error:" in err

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "shishkin_ivp.cli", "mesh", "--type", "uniform",
             "--n-intervals", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "i,xi,x,h"
