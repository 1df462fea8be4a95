"""Per-layer attribution for the traced run.

The engine is instrumented from outside: :class:`LayerTracer` replaces the
public entry point of each layer with a wrapper that records a span (name,
start, end, parent, statement id) into memory, and restores the originals
on :meth:`LayerTracer.uninstall`.  Nothing inside ``src/`` changes.

Spans are recorded only while the calling thread is inside a statement that
the workload loop opened with :meth:`LayerTracer.statement`; calls outside a
traced statement pass straight through.  ``CardinalityEstimator.join_cardinality``
runs hundreds of times per statement, so it is counted and timed at the
boundary instead of getting one span per call.
"""

from __future__ import annotations

import json
import math
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import repro.engine.database as database_module
import repro.engine.server as server_module
from repro.engine.database import Database
from repro.exec.pipeline import PipelineExecutor
from repro.optimizer.cardinality import CardinalityEstimator

#: Wrapped module-level functions: (module, attribute, span name).  The
#: engine imports these names into its own modules, so the wrapper replaces
#: the module attribute the engine actually calls.
_FUNCTIONS = (
    (database_module, "compile_statement", "sql.compile"),
    (server_module, "compile_statement", "sql.compile"),
    (database_module, "largest_root", "core.schedule"),
    (database_module, "schedule_from_tree", "core.schedule"),
    (database_module, "compile_execution", "plan.compile"),
)

#: Wrapped methods: (class, attribute, span name).
_METHODS = (
    (Database, "join_graph", "engine.join_graph"),
    (Database, "optimizer_plan", "optimizer.plan"),
    (PipelineExecutor, "run", "exec.run"),
)


@dataclass
class Span:
    """One recorded interval; ``parent`` indexes the statement's span list."""

    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None


@dataclass
class StatementTrace:
    """Everything recorded for one traced statement."""

    statement_id: str
    spans: List[Span] = field(default_factory=list)
    card_calls: int = 0
    card_seconds: float = 0.0
    stack: List[int] = field(default_factory=list)
    card_depth: int = 0


class LayerTracer:
    """Installs the layer wrappers and keeps every span in memory."""

    def __init__(self) -> None:
        self.statements: List[StatementTrace] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._originals: list = []

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        for owner, attribute, name in _FUNCTIONS + _METHODS:
            original = owner.__dict__[attribute]
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, self._span_wrapper(original, name))
        original = CardinalityEstimator.__dict__["join_cardinality"]
        self._originals.append((CardinalityEstimator, "join_cardinality", original))
        CardinalityEstimator.join_cardinality = self._card_wrapper(original)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._originals):
            setattr(owner, attribute, original)
        self._originals.clear()

    def _span_wrapper(self, original, name: str):
        local = self._local

        def wrapper(*args, **kwargs):
            trace = getattr(local, "trace", None)
            if trace is None:
                return original(*args, **kwargs)
            span = Span(name, 0.0, parent=trace.stack[-1])
            trace.spans.append(span)
            index = len(trace.spans) - 1
            trace.stack.append(index)
            span.start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                trace.stack.pop()

        return wrapper

    def _card_wrapper(self, original):
        local = self._local

        def wrapper(*args, **kwargs):
            trace = getattr(local, "trace", None)
            if trace is None:
                return original(*args, **kwargs)
            trace.card_calls += 1
            # Only the outermost call is timed: the estimator may recurse.
            trace.card_depth += 1
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                trace.card_depth -= 1
                if trace.card_depth == 0:
                    trace.card_seconds += time.perf_counter() - start

        return wrapper

    # -- statements ----------------------------------------------------------
    @contextmanager
    def statement(self, statement_id: str):
        """Trace the calls this thread makes inside the ``with`` block.

        The root span (index 0) is the public call the workload times.
        """
        trace = StatementTrace(statement_id, spans=[Span("statement", time.perf_counter())])
        trace.stack.append(0)
        self._local.trace = trace
        try:
            yield trace
        finally:
            trace.spans[0].end = time.perf_counter()
            self._local.trace = None
            with self._lock:
                self.statements.append(trace)

    def write(self, path) -> None:
        """Write every recorded span as JSON (one object per statement)."""
        payload = [
            {
                "statement": trace.statement_id,
                "card_calls": trace.card_calls,
                "card_seconds": trace.card_seconds,
                "spans": [
                    {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent}
                    for s in trace.spans
                ],
            }
            for trace in self.statements
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))


def span_seconds(trace: StatementTrace) -> Dict[str, float]:
    """Seconds per span name, counting only each name's outermost spans."""
    totals: Dict[str, float] = {}
    spans = trace.spans
    for span in spans[1:]:
        parent = span.parent
        nested = False
        while parent is not None:
            if spans[parent].name == span.name:
                nested = True
                break
            parent = spans[parent].parent
        if not nested:
            totals[span.name] = totals.get(span.name, 0.0) + (span.end - span.start)
    return totals


def attributed_seconds(trace: StatementTrace, prepare_filter_seconds: float) -> float:
    """Wall time covered by the named layers: the statement's direct child
    spans plus the base-filter evaluation the planner runs before the
    executor (timed by the engine into ``stats.timings.scan_filter``)."""
    direct = sum(s.end - s.start for s in trace.spans[1:] if s.parent == 0)
    return direct + prepare_filter_seconds


def geomean(values) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))
