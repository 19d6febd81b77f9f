"""Benchmark of shishkin_ivp: end-to-end metrics per workload, or, with
``--trace 1``, per-layer metrics from a separate traced pass.

    python3 perfbench/run.py --workload ref_sweep --seed 1 --seconds 12 --trace 0

Workloads (see workloads.py): ref_sweep, cli_solve, many_small,
nonlinear; ``--workload all`` runs the four one after another.  The
program is driven only through its public functions and ``python -m
shishkin_ivp.cli``, imported from this checkout's ``src/``.  Every
operation is checked against the golden results in ``perfbench/golden/``
(tolerances in golden.py).  Times are rescaled by reference-loop probes
taken between operations (speed.py), because a small shared VM drifts in
speed by 2x and more within a run; raw times are printed and recorded
beside them.  A human-readable report goes to stdout; its last line is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full record, with provenance and, when traced, every
span, is written under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import types
from array import array
from pathlib import Path

import numpy as np

import golden
import spans as sp
import workloads as w
from speed import NOMINAL_S, SpeedProbe

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench"

WORKLOADS = ("ref_sweep", "cli_solve", "many_small", "nonlinear")

#: Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_REPEATS = 7

#: Passes a run makes at least, even past --seconds.  The tail percentile
#: is fixed from the samples these guarantee, so it is the same on every
#: run of a workload.
MIN_PASSES = {"ref_sweep": 3, "cli_solve": 2, "many_small": 1, "nonlinear": 4}

#: Tail samples required beyond the reported tail percentile.
TAIL_SAMPLES = 10


class ProvenanceError(RuntimeError):
    """shishkin_ivp did not resolve to this checkout's src/."""


def load_library(root: Path):
    """Import shishkin_ivp from ``root/src`` and nowhere else."""
    src = root / "src"
    sys.path.insert(0, str(src))
    try:
        import shishkin_ivp
    except ImportError as exc:
        raise ProvenanceError(f"cannot import shishkin_ivp from {src}: {exc}") from exc
    _require_in_src(root, shishkin_ivp.__file__)
    return shishkin_ivp


def _require_in_src(root: Path, module_file: str) -> None:
    expected = (root / "src" / "shishkin_ivp" / "__init__.py").resolve()
    if Path(module_file).resolve() != expected:
        raise ProvenanceError(
            f"shishkin_ivp resolved to {module_file}, not {expected}; "
            "the benchmark measures this checkout's src/ only"
        )


def library_api(lib) -> types.SimpleNamespace:
    """The public names the library workloads call, bound in one place so
    the traced pass can substitute wrapped ones."""
    names = (
        "Problem", "ShishkinParams", "make_builtin", "build_shishkin_mesh",
        "build_uniform_mesh", "integrate", "max_error", "run_sweep",
    )
    return types.SimpleNamespace(**{name: getattr(lib, name) for name in names})


def provenance(root: Path, lib) -> dict:
    """What a result was measured on: the code, the interpreter, the CPU."""
    src_hash = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src_hash.update(path.relative_to(root).as_posix().encode() + b"\0")
        src_hash.update(path.read_bytes())
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "library_file": str(Path(lib.__file__).relative_to(root)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


# --- set-up ---------------------------------------------------------------


def measure_setup(workload: str, probe: SpeedProbe) -> list[tuple[float, float]]:
    """(raw, scaled) wall times of fresh interpreters importing the
    package (the CLI for cli_solve), each also reporting where the import
    resolved."""
    module = "shishkin_ivp.cli" if workload == "cli_solve" else "shishkin_ivp"
    code = f"import sys, {module}, shishkin_ivp; sys.stdout.write(shishkin_ivp.__file__)"
    env = w.child_env(ROOT)
    spans = []
    for _ in range(SETUP_REPEATS):
        probe.probe()
        t0 = w.clock()
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=60,
        )
        spans.append((t0, w.clock()))
        if proc.returncode != 0:
            raise ProvenanceError(f"fresh import failed: {proc.stderr.strip()}")
        _require_in_src(ROOT, proc.stdout)
    probe.probe()
    return [(t1 - t0, (t1 - t0) * probe.scale(t0, t1)) for t0, t1 in spans]


# --- passes ---------------------------------------------------------------


def _no_probe() -> None:
    pass


def run_pass(workload: str, ops, api, conv, traced: bool, between=_no_probe):
    """One pass over the operations: (ops done, pass wall, CLI stderrs).
    ``between`` runs between operations, outside their timing."""
    t0 = w.clock()
    stderrs = []
    if workload == "ref_sweep":
        done = w.run_ref_sweep(api, conv, ops, between)
    elif workload == "cli_solve":
        done, stderrs = w.run_cli(ROOT, ops, traced, between)
    elif workload == "many_small":
        done = w.run_many_small(api, ops, between)
    else:
        done = w.run_nonlinear(api, ops, between)
    return done, w.clock() - t0, stderrs


def check_pass(workload: str, done, gold: dict, digests: dict) -> list[str]:
    """Failure reasons, one per failed operation.  CLI output must also be
    byte-identical to the same invocation's output in earlier passes."""
    failures = []
    for op in done:
        entry = gold.get(op.key)
        if entry is None:
            failures.append(f"{op.key}: no golden result")
            continue
        if workload == "cli_solve":
            reason = golden.check_cli(op.outcome, entry)
            digest = hashlib.sha256(op.outcome[1]).hexdigest()
            if reason is None and digests.setdefault(op.key, digest) != digest:
                reason = "output bytes differ from an earlier pass of the same code"
        else:
            reason = golden.check_library(op.outcome, entry)
        if reason is not None:
            failures.append(f"{op.key}: {reason}")
    return failures


def tail_percentile(guaranteed: int) -> int:
    """Highest whole percentile with at least TAIL_SAMPLES of
    ``guaranteed`` samples beyond it."""
    return max(50, math.floor(100.0 * (1.0 - TAIL_SAMPLES / guaranteed)))


def percentile(values: list[float], p: int) -> float:
    """Harrell-Davis estimate: a beta-weighted mean of all order
    statistics.  Latencies come in clusters (the sweep's eight cell sizes,
    the CLI's fifteen invocations), and an estimate from the one or two
    order statistics at a cluster edge moves with every outlier."""
    # Imported late: peak_rss_mb is read before, so scipy's memory does
    # not count toward the workload's.
    from scipy.stats import beta

    ordered = np.sort(values)
    n, q = len(ordered), p / 100.0
    edges = beta.cdf(np.arange(n + 1) / n, q * (n + 1), (1.0 - q) * (n + 1))
    return float(np.diff(edges) @ ordered)


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli_solve" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# --- small-mix report -------------------------------------------------------


def mix_report(ops, done) -> dict:
    """Shares of the generated many_small mix, blow-ups included."""

    def shares(values):
        counts = {}
        for value in values:
            counts[value] = counts.get(value, 0) + 1
        return {str(k): round(v / len(values), 4) for k, v in sorted(counts.items())}

    return {
        "ops": len(ops),
        "scheme": shares([op[0] for op in ops]),
        "N": shares([2 ** op[1] for op in ops]),
        "problem": shares([op[2] for op in ops]),
        "mesh": shares([op[3] for op in ops]),
        "eps_log2": {
            "min": -max(op[4] for op in ops) / 4,
            "median": -statistics.median(op[4] for op in ops) / 4,
            "max": -min(op[4] for op in ops) / 4,
        },
        "blow_up": round(sum(op.outcome[0] == "raised" for op in done) / len(done), 4),
    }


# --- traced pass ------------------------------------------------------------


def layer_metrics(tracer: sp.Tracer) -> tuple[dict, dict]:
    """Per-layer metrics and per-layer self time from the recorded spans.

    A span's self time is its duration minus its child spans and the
    problem callbacks counted on it; callbacks are the problems layer.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    self_by_layer: dict[str, float] = {}
    sums: dict[str, float] = dict.fromkeys({**LAYER_UNITS, **REPORT_ONLY_UNITS}, 0)

    def add(key, amount):
        sums[key] += amount

    for i, (name, start, end, parent, counters) in enumerate(spans):
        layer = name.split(".", 1)[0]
        cb_s = counters.get("cb_s", 0.0)
        own = end - start - child_time[i] - cb_s
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + own
        self_by_layer["problems"] = self_by_layer.get("problems", 0.0) + cb_s
        add("problems.calls", counters.get("cb_calls", 0))
        add("problems.points", counters.get("cb_points", 0))
        add("problems.eval_s", cb_s)
        if layer == "mesh":
            add("mesh.build_s", end - start)
            add("mesh.calls", 1)
        elif name == "steppers.integrate":
            add("steppers.integrate_s", end - start)
            add("steppers.self_s", own)
            add("steppers.steps", counters.get("steps", 0))
            add("steppers.raised", counters.get("raised", 0))
        elif name == "convergence.max_error":
            add("convergence.max_error_s", end - start)
        elif name == "convergence.run_sweep":
            add("convergence.sweep_self_s", own)
        if layer == "convergence":
            add("convergence.self_s", own)
        if name in ("cli.main", "cli.build_parser", "cli.parse_epsilon"):
            add("cli.parse_s", own)
        elif name.startswith("cli.format_"):
            add("cli.format_s", own)
        elif name == "cli.write":
            add("cli.write_s", end - start)
    steps = sums["steppers.steps"]
    sums["steppers.ns_per_step"] = 1e9 * sums["steppers.integrate_s"] / steps if steps else 0.0
    imports = [end - start for name, start, end, _, _ in spans if name == "cli.import"]
    numpy_imports = [end - start for name, start, end, _, _ in spans if name == "numpy.import"]
    sums["cli.import_s"] = statistics.median(imports) if imports else 0.0
    sums["cli.numpy_import_s"] = statistics.median(numpy_imports) if numpy_imports else 0.0
    return sums, self_by_layer


def import_probes() -> sp.Tracer:
    """Spans of fresh ``cli_child.py --import-only`` interpreters: the
    CLI's import time and its numpy share, for workloads that never start
    the CLI themselves."""
    tracer = sp.Tracer()
    child = [sys.executable, str(Path(__file__).with_name("cli_child.py")), "--import-only"]
    for _ in range(3):
        proc = subprocess.run(
            child, cwd=ROOT, env=w.child_env(ROOT), capture_output=True, timeout=60
        )
        if proc.returncode != 0:
            raise ProvenanceError(proc.stderr.decode(errors="replace").strip())
        tracer.adopt(json.loads(proc.stderr.splitlines()[-1]), None)
    return tracer


def traced_run(workload: str, ops, lib, api, conv) -> tuple[dict, list, list, dict]:
    """An untraced pass, then a traced one; per-layer metrics come from
    the traced pass and the difference of the two walls is the tracing
    overhead."""
    done_plain, wall_plain, _ = run_pass(workload, ops, api, conv, traced=False)
    tracer = sp.Tracer()
    traced_api = types.SimpleNamespace(**vars(api))
    replacements = sp.library_wrappers(tracer, lib, traced_api)
    replacements += sp.library_wrappers(tracer, lib, conv)
    with sp.patched(replacements):
        pass_index = tracer.open("bench.pass")
        done_traced, _, child_spans = run_pass(workload, ops, traced_api, conv, traced=True)
        tracer.close(pass_index)
    for t0, t1, stderr in child_spans:
        tracer.spans.append(["python.process", t0, t1, pass_index, {}])
        lines = stderr.splitlines()
        if lines:
            tracer.adopt(json.loads(lines[-1]), len(tracer.spans) - 1)
    wall_traced = tracer.spans[pass_index][sp.END] - tracer.spans[pass_index][sp.START]
    metrics, self_by_layer = layer_metrics(tracer)
    if workload != "cli_solve":
        probe_metrics, _ = layer_metrics(import_probes())
        metrics["cli.import_s"] = probe_metrics["cli.import_s"]
        metrics["cli.numpy_import_s"] = probe_metrics["cli.numpy_import_s"]
    metrics["cli.out_bytes"] = sum(len(op.outcome[1]) for op in done_traced) if workload == "cli_solve" else 0
    metrics["trace.overhead_s"] = wall_traced - wall_plain
    metrics["trace.spans"] = len(tracer.spans)
    accounting = {
        "untraced_pass_s": wall_plain,
        "traced_pass_s": wall_traced,
        "self_s": self_by_layer,
    }
    return metrics, [done_plain, done_traced], tracer.spans, accounting


# --- reporting ----------------------------------------------------------------

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "steps_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Declared per-layer metrics: measured, and for times nonzero, on every
#: workload.  The report also prints the workload-specific ones
#: (cli.parse_s, cli.format_s, cli.write_s, convergence.sweep_self_s).
LAYER_UNITS = {
    "mesh.build_s": "s",
    "mesh.calls": "count",
    "problems.calls": "count",
    "problems.points": "count",
    "problems.eval_s": "s",
    "steppers.integrate_s": "s",
    "steppers.self_s": "s",
    "steppers.steps": "count",
    "steppers.ns_per_step": "ns",
    "steppers.raised": "count",
    "convergence.max_error_s": "s",
    "convergence.self_s": "s",
    "cli.import_s": "s",
    "cli.numpy_import_s": "s",
    "cli.out_bytes": "bytes",
    "trace.overhead_s": "s",
}
REPORT_ONLY_UNITS = {
    "convergence.sweep_self_s": "s",
    "cli.parse_s": "s",
    "cli.format_s": "s",
    "cli.write_s": "s",
    "trace.spans": "count",
}


def end_to_end(workload: str, rss_mb: float, steps: list[int], setup: list[float], times) -> dict:
    """End-to-end metrics from per-operation times (``times[p][i]`` for
    operation i of pass p), the steps of each pass and set-up samples."""
    walls = [sum(t) for t in times]
    latencies = [t for pass_times in times for t in pass_times]
    p_tail = tail_percentile(MIN_PASSES[workload] * len(times[0]))
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "steps_per_s": statistics.median(s / t for s, t in zip(steps, walls)),
        "op_p50_ms": 1e3 * percentile(latencies, 50),
        "op_tail_ms": 1e3 * percentile(latencies, p_tail),
        "peak_rss_mb": rss_mb,
    }


def write_record(name: str, record: dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / name
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, default=str)
    return path


def report_traced(workload: str, seed: int, ops, lib, api, conv, gold):
    """The traced run: per-layer metrics, self time per layer, spans."""
    metrics, passes, spans, accounting = traced_run(workload, ops, lib, api, conv)
    digests: dict[str, str] = {}
    failures = [reason for done in passes for reason in check_pass(workload, done, gold, digests)]
    spans_path = write_record(
        f"spans-{workload}-seed{seed}.json",
        {"fields": ["name", "start", "end", "parent", "counters"], "spans": spans},
    )
    print(f"spans: {len(spans)} written to {spans_path.relative_to(ROOT)}")
    print(f"{'per-layer metric':28s} {'value':>16s}  unit")
    for key, unit in {**LAYER_UNITS, **REPORT_ONLY_UNITS}.items():
        print(f"{key:28s} {metrics[key]:16.6g}  {unit}")
    print("self time by layer (traced pass):")
    for layer, seconds in sorted(accounting["self_s"].items()):
        print(f"  {layer:12s} {seconds:10.4f} s")
    program = sum(s for layer, s in accounting["self_s"].items() if layer != "bench")
    gap = program - accounting["untraced_pass_s"]
    overhead = metrics["trace.overhead_s"]
    print(
        f"accounting: program layers {program:.4f} s vs untraced pass "
        f"{accounting['untraced_pass_s']:.4f} s (gap {gap:+.4f} s); tracing overhead "
        f"{overhead:.4f} s; {'within' if abs(gap) <= abs(overhead) else 'NOT within'} overhead"
    )
    out = {key: {"value": metrics[key], "unit": unit} for key, unit in LAYER_UNITS.items()}
    record = {"per_layer": metrics, "accounting": accounting}
    return out, record, sum(len(done) for done in passes), failures


def first_pass_notes(workload: str, ops, done, gold) -> None:
    if workload == "many_small":
        print("many_small mix " + json.dumps(mix_report(ops, done)))
    if workload == "cli_solve":
        same = sum(
            hashlib.sha256(op.outcome[1]).hexdigest() == gold[op.key]["sha256"] for op in done
        )
        print(f"cli outputs byte-identical to golden: {same} of {len(ops)}")


def report_untraced(workload: str, seconds: float, ops, api, conv, gold, probe, setup_samples):
    """The end-to-end run: passes until ``seconds`` have elapsed (and at
    least MIN_PASSES), every operation checked and rescaled."""
    digests: dict[str, str] = {}
    failures: list[str] = []
    raw_times, scaled_times, steps = [], [], []
    start = w.clock()
    while len(raw_times) < MIN_PASSES[workload] or w.clock() - start < seconds:
        done, _, _ = run_pass(workload, ops, api, conv, False, probe.between)
        probe.probe()
        failures += check_pass(workload, done, gold, digests)
        if not raw_times:
            first_pass_notes(workload, ops, done, gold)
            keys = [op.key for op in done]
        # Only the times are kept, so that memory does not grow with the
        # number of passes, which depends on the machine's speed.
        raw_times.append(array("d", (op.seconds for op in done)))
        scaled_times.append(array("d", (op.seconds * probe.scale(op.start, op.end) for op in done)))
        steps.append(sum(op.steps for op in done))
        del done
    rss_mb = peak_rss_mb(workload)
    metrics = end_to_end(workload, rss_mb, steps, [s for _, s in setup_samples], scaled_times)
    raw = end_to_end(workload, rss_mb, steps, [r for r, _ in setup_samples], raw_times)

    n_samples = sum(len(times) for times in raw_times)
    print(f"passes {len(raw_times)}  raw pass walls {[round(sum(t), 4) for t in raw_times]}")
    print(
        f"op_tail_ms is p{tail_percentile(MIN_PASSES[workload] * len(ops))} over "
        f"{n_samples} operation samples; setup_s is the median of "
        f"{len(setup_samples)} fresh interpreters"
    )
    probes = probe.samples
    print(
        f"speed probes: {len(probes)}, reference loop {1e3 * min(probes):.3f} .. "
        f"{1e3 * max(probes):.3f} ms (nominal {1e3 * NOMINAL_S:.3f} ms); "
        "metrics are scaled to the nominal speed, raw values beside them"
    )
    print(f"{'end-to-end metric':20s} {'scaled':>14s} {'raw':>14s}  unit")
    for key, unit in E2E_UNITS.items():
        print(f"{key:20s} {metrics[key]:14.6g} {raw[key]:14.6g}  {unit}")
    out = {key: {"value": metrics[key], "unit": unit} for key, unit in E2E_UNITS.items()}
    record = {
        "end_to_end": metrics,
        "end_to_end_raw": raw,
        "setup_samples": setup_samples,
        "probes": probes,
        "ops": keys,
        "op_seconds_raw": [list(t) for t in raw_times],
        "op_seconds_scaled": [list(t) for t in scaled_times],
    }
    return out, record, n_samples, failures


def run_all(args) -> int:
    """Every workload in its own process (so peak RSS stays per workload);
    the last line merges their results, metrics prefixed by workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{workload}.{key}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    try:
        lib = load_library(ROOT)
        prov = provenance(ROOT, lib)
        # Probes, the benchmark and its children share one CPU, so the
        # probes see the speed the measured work gets.
        prov["pinned_cpu"] = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {prov["pinned_cpu"]})
        probe = SpeedProbe()
        setup_samples = measure_setup(args.workload, probe)
    except ProvenanceError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from shishkin_ivp import convergence as conv

    api = library_api(lib)
    gold = golden.load(args.workload)
    ops = w.ops_for(args.workload, args.seed)
    print(f"workload {args.workload}  seed {args.seed}  ops/pass {len(ops)}  trace {args.trace}")
    print("provenance " + json.dumps(prov))
    print(
        "closed loop: one caller, one process, no extra threads; no layer "
        "queues or waits for another, so no wait-time metric is reported"
    )
    if args.trace:
        out, record, attempted, failures = report_traced(
            args.workload, args.seed, ops, lib, api, conv, gold
        )
    else:
        out, record, attempted, failures = report_untraced(
            args.workload, args.seconds, ops, api, conv, gold, probe, setup_samples
        )
    print(
        f"fail_ratio {len(failures) / attempted:.6g} "
        f"({len(failures)} failed of {attempted} attempted)"
    )
    for reason in failures[:20]:
        print(f"  FAILED {reason}")
    record.update(
        provenance=prov, args=vars(args), attempted=attempted,
        failed=len(failures), failures=failures,
    )
    write_record(f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", record)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
