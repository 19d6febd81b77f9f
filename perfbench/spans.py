"""In-memory spans for the traced benchmark run.

A span is one call into a layer's public function: name, start, end,
parent and a few counters.  Problem callbacks (rhs, p, q, exact) run far
too often for one span each, so they are aggregated into counters on the
span that is open when they run: calls, abscissae evaluated and seconds.

Span names are ``<layer>.<function>``; the layer is the module name in
``shishkin_ivp`` (``mesh``, ``problems``, ``steppers``, ``convergence``,
``cli``) or one of the benchmark's own pseudo-layers (``bench`` for the
benchmark's loop, ``python`` for interpreter start-up and exit of a CLI
child, ``numpy`` for importing numpy).
"""

from __future__ import annotations

import contextlib
import re
import time

_STEP_INDEX = re.compile(r"step (\d+) failed")


def step_index(exc: Exception) -> int | None:
    """The step a StageEvaluationError or SingularStepError names."""
    found = _STEP_INDEX.search(str(exc))
    return int(found.group(1)) if found else None


#: Index of each field in a span record.
NAME, START, END, PARENT, COUNTERS = range(5)


class Tracer:
    """Collects spans in memory; ``spans`` is written out by the caller."""

    def __init__(self):
        self.clock = time.perf_counter
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent, {}])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][END] = self.clock()
        popped = self._stack.pop()
        assert popped == index, "spans closed out of order"

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield self.spans[index][COUNTERS]
        finally:
            self.close(index)

    def wrap(self, fn, name: str, on_result=None):
        """``fn`` timed as a span; ``on_result(counters, args, result)``
        records counts.  Step errors are counted with the steps advanced."""

        def traced(*args, **kwargs):
            index = self.open(name)
            counters = self.spans[index][COUNTERS]
            try:
                result = fn(*args, **kwargs)
            except ArithmeticError as exc:
                counters["raised"] = 1
                counters["steps"] = step_index(exc) or 0
                raise
            finally:
                self.close(index)
            if on_result is not None:
                on_result(counters, args, result)
            return result

        return traced

    def callback(self, fn):
        """``fn`` with calls, abscissae and seconds added to the open span."""
        clock = self.clock
        spans, stack = self.spans, self._stack

        def counted(x, *rest):
            t0 = clock()
            try:
                return fn(x, *rest)
            finally:
                dt = clock() - t0
                counters = spans[stack[-1]][COUNTERS]
                counters["cb_calls"] = counters.get("cb_calls", 0) + 1
                size = getattr(x, "size", 1)
                counters["cb_points"] = counters.get("cb_points", 0) + size
                counters["cb_s"] = counters.get("cb_s", 0.0) + dt

        return counted

    def adopt(self, child_spans: list[list], parent: int) -> None:
        """Append spans recorded by another process (same monotonic clock)
        under ``parent``."""
        offset = len(self.spans)
        for name, start, end, child_parent, counters in child_spans:
            self.spans.append(
                [
                    name,
                    start,
                    end,
                    parent if child_parent is None else child_parent + offset,
                    counters,
                ]
            )


@contextlib.contextmanager
def patched(replacements):
    """Temporarily set ``(module, attribute, value)`` triples."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in replacements]
    try:
        for mod, attr, value in replacements:
            setattr(mod, attr, value)
        yield
    finally:
        for mod, attr, value in reversed(saved):
            setattr(mod, attr, value)


def instrument_problem(tracer: Tracer, problem):
    """Route a problem's callbacks through ``tracer.callback``.

    The problem is a frozen dataclass built for this call only, so its
    fields are swapped in place; re-running its validation would count
    callbacks the untraced run never makes.
    """
    object.__setattr__(problem, "rhs", tracer.callback(problem.rhs))
    if problem.exact is not None:
        object.__setattr__(problem, "exact", tracer.callback(problem.exact))
    if problem.linear is not None:
        p, q = problem.linear
        object.__setattr__(
            problem, "linear", (tracer.callback(p), tracer.callback(q))
        )
    return problem


def library_wrappers(tracer: Tracer, lib, module):
    """Traced replacements for the library functions ``module`` calls.

    ``module`` is the calling module (``shishkin_ivp.convergence``,
    ``shishkin_ivp.cli`` or a namespace the benchmark calls through); each
    of its bindings that names a public function of ``lib`` is wrapped,
    so the span sits at the boundary between the caller and the layer.
    """

    def made_problem(counters, args, problem):
        instrument_problem(tracer, problem)

    def integrated(counters, args, trajectory):
        counters["steps"] = trajectory.mesh.n_intervals

    specs = {
        "Problem": ("problems.Problem", made_problem),
        "make_builtin": ("problems.make_builtin", made_problem),
        "build_shishkin_mesh": ("mesh.build_shishkin_mesh", None),
        "build_uniform_mesh": ("mesh.build_uniform_mesh", None),
        "integrate": ("steppers.integrate", integrated),
        "max_error": ("convergence.max_error", None),
        "shishkin_order": ("convergence.shishkin_order", None),
        "oscillation_count": ("convergence.oscillation_count", None),
        "run_sweep": ("convergence.run_sweep", None),
    }
    return [
        (module, attr, tracer.wrap(getattr(lib, attr), name, on_result))
        for attr, (name, on_result) in specs.items()
        if hasattr(module, attr)
    ]
