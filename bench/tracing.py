"""In-memory span tracer for the benchmark's traced runs.

`Tracer.install(package)` wraps every public function of the package at
every module attribute the package calls it through (for example both
`linkanom.linalg.sym_eig` and `linkanom.detectors.sym_eig`), so calls
between modules and within one module both open a span. No package file
changes; `restore()` puts the original functions back.

A span records its name, start, end, parent, thread and op id, plus the
thread CPU time it used and a work amount for the layers that have one
(GFLOP of a projection, MB of a CSV file, candidate count of a
selection, 1 for a degenerate Q-statistic spectrum).
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import threading
import time
import types
from collections import defaultdict
from typing import Any, Callable, NamedTuple

# Called once per matrix entry when a CSV is written (about half a million
# times per scenario): a span per call would cost more than the work it
# measures, so its time stays in the calling writer's self time.
UNWRAPPED = frozenset({"storage.format_float"})


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


def _project_gflop(args, kwargs, error):
    model, y = _arg(args, kwargs, 0, "model"), _arg(args, kwargs, 1, "y")
    # p.T @ work and p @ (p.T @ work), 2 * m * rank * t flops each
    return 4.0 * model.m * model.rank * y.shape[1] / 1e9


def _file_mb(index: int, name: str):
    def amount(args, kwargs, error):
        return 0.0 if error else os.path.getsize(_arg(args, kwargs, index, name)) / 1e6
    return amount


WORK: dict[str, Callable[[tuple, dict, BaseException | None], float]] = {
    "detectors.project": _project_gflop,
    "detectors.q_threshold": lambda args, kwargs, error: float(
        type(error).__name__ == "DegenerateSpectrumError"
    ),
    "detectors.sspbad_select": lambda args, kwargs, error: float(
        len(_arg(args, kwargs, 0, "reports"))
    ),
    "storage.read_matrix_csv": _file_mb(0, "path"),
    "storage.write_matrix_csv": _file_mb(1, "path"),
}


class Span(NamedTuple):
    sid: int
    parent: int  # 0 for a span opened outside every other span
    name: str
    thread: int
    op: int
    start: float
    end: float
    cpu: float  # thread CPU seconds spent inside the span
    work: float


class Tracer:
    """Collects spans in memory; one tracer serves one traced pass."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op = 0
        self._op_stack: list[int] | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_op(self, op: int) -> None:
        """Spans opened until end_op belong to `op`; the calling thread is
        the op's root thread."""
        self._op = op
        self._op_stack = self._stack()

    def end_op(self) -> None:
        self._op_stack = None

    def wrap(self, name: str, fn: Callable) -> Callable:
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif self._op_stack:
                # a pool thread: its first span is caused by the span the
                # op's root thread is blocked in (sweep_rank)
                parent = self._op_stack[-1]
            else:
                parent = 0
            sid = next(self._ids)
            stack.append(sid)
            error = None
            cpu0 = time.thread_time()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = time.perf_counter()
                cpu = time.thread_time() - cpu0
                stack.pop()
                amount = work(args, kwargs, error) if work else 0.0
                self.spans.append(
                    Span(sid, parent, name, threading.get_ident(), self._op,
                         start, end, cpu, amount)
                )

        return traced

    def install(self, package: types.ModuleType) -> Callable[[], None]:
        """Wrap the package's public functions wherever the package holds
        them; returns a function that restores the originals."""
        prefix = package.__name__ + "."
        modules = [package] + [
            module for key, module in sorted(sys.modules.items()) if key.startswith(prefix)
        ]
        wrappers: dict[Callable, Callable] = {}
        patched = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not isinstance(value, types.FunctionType)
                    or not value.__module__.startswith(prefix)
                ):
                    continue
                name = value.__module__[len(prefix):] + "." + value.__name__
                if name in UNWRAPPED:
                    continue
                if value not in wrappers:
                    wrappers[value] = self.wrap(name, value)
                setattr(module, attr, wrappers[value])
                patched.append((module, attr, value))

        def restore() -> None:
            for module, attr, value in patched:
                setattr(module, attr, value)

        return restore


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


class LayerStats(NamedTuple):
    self_s: float
    calls: int
    work: float


def layer_stats(spans: list[Span]) -> dict[str, LayerStats]:
    """Per span name: summed self time (duration minus the time its child
    spans cover, in any thread), call count and summed work."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        children[span.parent].append((span.start, span.end))
    totals: dict[str, list[float]] = defaultdict(lambda: [0.0, 0, 0.0])
    for span in spans:
        own = span.end - span.start - covered(children[span.sid], span.start, span.end)
        entry = totals[span.name]
        entry[0] += own
        entry[1] += 1
        entry[2] += span.work
    return {name: LayerStats(*entry) for name, entry in totals.items()}


def pool_efficiency(spans: list[Span], root: str, workers: int) -> float:
    """Thread CPU time of the spans directly under each `root` span,
    divided by workers x the root span's wall time; 0 when `root` never
    ran."""
    roots = {span.sid: span for span in spans if span.name == root}
    busy = sum(span.cpu for span in spans if span.parent in roots)
    wall = sum(span.end - span.start for span in roots.values())
    return busy / (workers * wall) if wall > 0 else 0.0


def coverage(spans: list[Span], op_walls: dict[int, float], entry: str) -> float:
    """Share of the ops' wall time covered by layer spans below the entry
    point `entry` (whose own self time is argument parsing and output
    formatting)."""
    by_op: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.name != entry:
            by_op[span.op].append((span.start, span.end))
    inside = sum(covered(by_op[op], float("-inf"), float("inf")) for op in op_walls)
    return inside / sum(op_walls.values())
