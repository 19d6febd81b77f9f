"""Differential tests of the CLI's column-at-a-time CSV writer against
``format(x, '.17g')``: byte for byte, with no tolerance.

The writer computes 17 digits from a double-double product, gives zeros
their own layouts, and leaves to the scalar formatter every value it
cannot decide (non-finite, subnormal or extreme magnitudes, a wrong
decade estimate, remainders near one half).  The curated arrays aim at
each of those boundaries.
"""

import collections
import dataclasses
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shishkin_ivp import (
    ShishkinParams,
    build_shishkin_mesh,
    build_uniform_mesh,
    integrate,
    make_builtin,
)
from shishkin_ivp import cli
from shishkin_ivp.cli import _csv_text, format_mesh_csv, format_solution_csv


def assert_formats_like_python(values):
    x = np.asarray(values, dtype=float)
    got = _csv_text("v", [x]).split("\n")
    assert got[0] == "v" and got[-1] == ""
    expected = [format(v, ".17g") for v in x.tolist()]
    mismatches = [
        (v, g, e) for v, g, e in zip(x.tolist(), got[1:-1], expected) if g != e
    ]
    assert len(got) == len(x) + 2
    assert not mismatches, mismatches[:10]


def signed(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, -values])


def neighbours(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate(
        [values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)]
    )


def exact_ties():
    """Doubles m * 2^-j whose exact decimal expansion has 18 significant
    digits ending in 5: the 17-digit rounding is an exact tie, broken to
    even.  m * 5^j must have 18 digits, so j <= 25 (2^-25 is one)."""
    ties = []
    for j in range(2, 26):
        smallest_odd = -(-(10**17) // 5**j) | 1
        for m in range(smallest_odd, min((10**18 - 1) // 5**j, 2**53), 2)[:40]:
            ties.append(m * 2.0**-j)
    return np.array(ties)


def _reduced_basis(u, v):
    """Lagrange-Gauss reduction of a 2-D integer lattice basis."""

    def dot(a, b):
        return a[0] * b[0] + a[1] * b[1]

    if dot(u, u) > dot(v, v):
        u, v = v, u
    while True:
        q = round(Fraction(dot(u, v), dot(u, u)))
        v = (v[0] - q * u[0], v[1] - q * u[1])
        if dot(v, v) >= dot(u, u):
            return u, v
        u, v = v, u


def near_ties_at(e):
    """Doubles M * 2^e whose digits past the 17th lie within 2^-47 of one
    half without being a tie.

    With 2^e * 10^k = A/Q in lowest terms (k = 16 minus the decade), the
    remainder is (M * A mod Q) / Q.  M = M0 + t with M * A = Q/2 + small
    (mod Q) is a closest-vector problem in the lattice spanned by
    (A * S, W) and (Q * S, 0), weighted so |t| ~ 2^51 and the residual
    weigh alike; Babai rounding in a reduced basis solves it."""
    m0 = 3 * 2**51
    ratio = Fraction(2) ** e * Fraction(10) ** (16 - math.floor(math.log10(m0 * 2.0**e)))
    a, q = ratio.numerator, ratio.denominator
    target = (q // 2 - m0 * a) % q
    if target > q // 2:
        target -= q
    scale, weight = max(1, -(-(2**104) // q)), max(1, -(-q // 2**104))
    u, v = _reduced_basis(((a % q) * scale, weight), (q * scale, 0))
    det = u[0] * v[1] - u[1] * v[0]
    cu = round(Fraction(target * scale * v[1], det))
    cv = round(Fraction(-target * scale * u[1], det))
    out = []
    for du, dv in itertools.product((-1, 0, 1), repeat=2):
        m = m0 + ((cu + du) * u[1] + (cv + dv) * v[1]) // weight
        scaled = m * ratio
        whole = scaled.numerator // scaled.denominator
        gap = abs(scaled - whole - Fraction(1, 2))
        if 2**52 <= m < 2**53 and 10**16 <= whole < 10**17 and 0 < gap < 2.0**-47:
            out.append(m * 2.0**e)
    return out


def below_powers_of_ten():
    """For each k, the largest double below 10^k.  Where its distance to
    10^k is under half a unit of the 17th digit it rounds up to a new
    decade."""
    out = []
    for k in range(-300, 300):
        v = float(Fraction(10) ** k)
        if v >= Fraction(10) ** k:
            v = float(np.nextafter(v, 0.0))
        out.append(v)
    return np.array(out)


class TestCuratedValues:
    def test_powers_of_two(self):
        assert_formats_like_python(signed(2.0 ** np.arange(-1074, 1024)))

    def test_powers_of_ten_and_neighbours(self):
        tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
        assert_formats_like_python(signed(neighbours(tens)))

    def test_exact_ties(self):
        ties = exact_ties()
        assert 2.0**-25 in ties
        assert_formats_like_python(signed(neighbours(ties)))

    def test_near_ties(self):
        """Without a margin around one half, the fast path rounds some of
        these the wrong way."""
        values = [v for e in range(-950, 970) for v in near_ties_at(e)]
        assert len(values) > 1000
        assert_formats_like_python(signed(values))

    def test_rounding_up_to_a_new_decade(self):
        values = below_powers_of_ten()
        carried = [v for v in values.tolist() if format(v, ".17g")[0] == "1"]
        assert len(carried) >= 10
        assert_formats_like_python(signed(values))

    def test_integers(self):
        ints = np.concatenate(
            [
                np.arange(0.0, 70000.0),
                2.0**53 - np.arange(1000.0),
                2.0**53 + 2.0 * np.arange(1000.0),
                np.random.default_rng(3).integers(0, 2**53, 5000).astype(float),
            ]
        )
        assert_formats_like_python(signed(ints))

    def test_zeros_and_non_finite(self):
        assert_formats_like_python(
            [0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, 0.0, -0.0, np.nan, 0.5]
        )

    def test_subnormals_and_range_edges(self):
        edges = [1e-320, 2.2250738585072014e-308, 1e-271, 1e-270, 1e-269,
                 1e269, 1e270, 1e271, 1e308]
        extremes = [5e-324, 1.7976931348623157e308]
        assert_formats_like_python(signed(np.append(neighbours(edges), extremes)))

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(11).integers(0, 2**64, 2**16, dtype=np.uint64)
        assert_formats_like_python(bits.view(np.float64))


class TestFastPathEdges:
    """Zeros, the layout cache and the ends of the pow10 table."""

    def test_signed_zeros_among_values_across_blocks(self, monkeypatch):
        monkeypatch.setattr(cli, "KERNEL_BLOCK", 1000)
        rng = np.random.default_rng(5)
        values = rng.normal(size=4500) * 10.0 ** rng.integers(-20, 20, 4500)
        values[rng.random(4500) < 0.2] = 0.0
        values[rng.random(4500) < 0.2] = -0.0
        values[:4] = [0.0, -0.0, -0.0, 0.0]
        assert np.signbit(values[values == 0]).sum() > 500
        calls = []
        monkeypatch.setattr(cli, "_fmt17", lambda x: calls.append(x) or format(x, ".17g"))
        assert_formats_like_python(values)
        # Zeros take the fast path: '0' and '-0' are two layouts, not
        # hundreds of one-value fallbacks.
        assert sum(1 for x in calls if x == 0) <= 2

    def test_cached_layouts_reused_from_other_members(self, monkeypatch):
        """One table holds a column, the column reversed, an unrelated
        column and the column again, across several blocks: the later
        columns take every layout of the first from the shared cache,
        built from other members of each group."""
        monkeypatch.setattr(cli, "KERNEL_BLOCK", 700)
        rng = np.random.default_rng(6)
        column = signed(rng.random(1500) * 10.0 ** rng.integers(-6, 18, 1500))
        column = np.append(column, [0.0, -0.0, 1.5, 1e16, 123456.0])
        column = column[cli._digits17(column)[0] | (column == 0)]  # no fallbacks
        other = rng.normal(size=len(column)) * 1e-9
        calls = []
        monkeypatch.setattr(cli, "_fmt17", lambda x: calls.append(x) or format(x, ".17g"))
        alone = cli._csv_text("a", [column])
        n_layouts = len(calls)
        calls.clear()
        columns = [column, column[::-1], other, column]
        text = cli._csv_text("a,b,c,d", columns)
        expected = ["a,b,c,d"] + [
            ",".join(format(v, ".17g") for v in row) for row in zip(*(c.tolist() for c in columns))
        ]
        assert text == "\n".join(expected) + "\n"
        assert alone == "\n".join(["a"] + [format(v, ".17g") for v in column.tolist()]) + "\n"
        assert 0 < n_layouts < len(column) // 10
        assert len([x for x in calls if x in set(column.tolist())]) == n_layouts

    def test_ends_of_the_pow10_table(self):
        """The extreme decades of the fast range take their powers from
        the table's first and last used rows, exactly like Python."""
        edges = np.array([1e-270, 1e270])
        steps = np.arange(1, 9) * 1e-9
        fast = np.concatenate([edges, 1e-270 * (1 + steps), 1e270 * (1 - steps)])
        ok, exponent, _ = cli._digits17(fast)
        assert ok.all()
        assert exponent.min() == -270 and exponent.max() == 270
        assert cli._DECADES[0] < -270 and 270 < cli._DECADES[1]
        assert_formats_like_python(signed(neighbours(fast)))
        hi, lo = cli._pow10_table()
        assert len(hi) == cli._DECADES[1] - cli._DECADES[0] + 1
        for index in (0, 1, len(hi) - 2, len(hi) - 1):
            power = Fraction(10) ** (16 - cli._DECADES[0] - index)
            pair = Fraction(hi[index]) + Fraction(lo[index])
            assert abs(pair - power) <= power * Fraction(1, 2**104)


class TestProperties:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.floats(), min_size=1, max_size=64))
    def test_any_doubles(self, values):
        assert_formats_like_python(values)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
    def test_any_bit_patterns(self, words):
        assert_formats_like_python(np.array(words, dtype=np.uint64).view(np.float64))


def mesh_oracle(mesh):
    n = mesh.n_intervals
    lines = ["i,xi,x,h"]
    for i, x in enumerate(mesh.nodes.tolist()):
        h = cli._fmt17(float(mesh.widths[i])) if i < n else ""
        lines.append(f"{i},{cli._fmt17(i / n)},{cli._fmt17(x)},{h}")
    return "\n".join(lines) + "\n"


def solution_oracle(trajectory, problem):
    lines = ["x,y_numeric,y_exact,abs_error"]
    for x, y in zip(trajectory.mesh.nodes.tolist(), trajectory.values.tolist()):
        if problem.exact is None:
            lines.append(f"{cli._fmt17(x)},{cli._fmt17(y)},,")
        else:
            y_ref = float(problem.exact(x))
            gap = abs(y_ref - y)
            lines.append(
                f"{cli._fmt17(x)},{cli._fmt17(y)},{cli._fmt17(y_ref)},{cli._fmt17(gap)}"
            )
    return "\n".join(lines) + "\n"


N = 2**12
EPS = 2.0**-8


@pytest.fixture(params=[cli.KERNEL_BLOCK, 1000], ids=["one_block", "many_blocks"])
def block(request, monkeypatch):
    monkeypatch.setattr(cli, "KERNEL_BLOCK", request.param)


class TestWritersAgainstRowOracle:
    @pytest.mark.parametrize("kind", ["shishkin", "uniform"])
    def test_mesh_csv(self, kind, block):
        if kind == "uniform":
            mesh = build_uniform_mesh(N)
        else:
            mesh = build_shishkin_mesh(ShishkinParams(n_intervals=N, epsilon=EPS))
        assert format_mesh_csv(mesh) == mesh_oracle(mesh)

    @pytest.mark.parametrize("scheme", ["heun", "gauss2"])
    def test_solution_csv(self, scheme, block):
        problem = make_builtin("layer1", EPS)
        mesh = build_shishkin_mesh(ShishkinParams(n_intervals=N, epsilon=EPS))
        trajectory = integrate(scheme, problem, mesh)
        assert format_solution_csv(trajectory, problem) == solution_oracle(
            trajectory, problem
        )

    def test_solution_csv_without_exact(self, block):
        problem = dataclasses.replace(make_builtin("decay", 1.0), exact=None)
        trajectory = integrate("heun", problem, build_uniform_mesh(N))
        text = format_solution_csv(trajectory, problem)
        assert text == solution_oracle(trajectory, problem)
        assert text.splitlines()[1].endswith(",,")


class TestWriterMemory:
    def test_streaming_holds_one_block(self):
        """Streamed with each block dropped as it is read, a 2^17-row
        layer1 solve table costs the writer about 334 bytes per row of a
        block: 2.6 MiB at 8192 rows, 5.3 MiB at 16384.  The table itself
        is built before tracing starts."""
        problem = make_builtin("layer1", EPS)
        mesh = build_shishkin_mesh(ShishkinParams(n_intervals=2**17, epsilon=EPS))
        table = cli._solution_table(integrate("heun", problem, mesh), problem)
        tracemalloc.start()
        try:
            collections.deque(cli._csv_blocks(*table), maxlen=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 400 * cli.KERNEL_BLOCK
