"""Workloads, the timed loop and the metrics of the end-to-end benchmark.

Every workload drives the engine through its public API with default
``ExecutionOptions``.  A run sets the workload up ``SETUP_REPEATS`` times
(generate, load, one warm pass) and reports the median, computes reference
results through a different code path, then runs closed-loop clients in
whole passes over the statements until the requested seconds have passed,
and checks every result against the reference.

Why these workloads:

* ``tpch-exec`` -- TPC-H through ``Database.sql``: executor-bound, so kernel,
  Bloom and transfer changes show here and planner changes do not.
* ``serve-mix`` -- two ``Session`` clients on one ``Server`` over both
  databases, with a table replace beside the reads: the only workload where
  admission, the plan cache and catalog snapshots do work.
* ``job-plan`` -- JOB through ``Database.sql``: planner-bound; the prediction
  for executor changes is "no change".
* ``random-orders`` -- every acyclic TPC-H and JOB query through
  ``Database.execute`` under seeded random left-deep plans: the paper's
  robustness claim, with the optimizer bypassed.

``BENCHMARK.json`` gates only ``tpch-exec`` and ``serve-mix``, which
together exercise every layer; the other two run by name.  On the 2-core
host it was tuned on, speed drifts by 20-35% over tens of seconds, so only
two workloads with 40 s timed phases fit the benchmark's time budget, and
the pure-Python planner of ``job-plan`` drifted most: its medians moved by
25-37% between two sets of ten runs of the same code.  ``random-orders``
also spreads across seeds by itself, because its work depends on the
orders drawn.
"""

from __future__ import annotations

import random
import resource
import statistics
import sys
import threading
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro import Database, ExecutionMode, Server
from repro.optimizer.random_plans import generate_left_deep_plans
from repro.sql import compile_statement
from repro.workloads import job, sqlfiles, tpch

from perfbench.layers import (
    LayerTracer,
    StatementTrace,
    attributed_seconds,
    geomean,
    span_seconds,
)
from perfbench.metrics import OP_KINDS

WORKLOADS = ("tpch-exec", "job-plan", "random-orders", "serve-mix")

#: Generator scales per workload.  TPC-H scale 15 is 900K ``lineitem`` rows,
#: enough that planning stays under 5% of ``tpch-exec``; JOB scale 1 is 36K
#: ``cast_info`` rows.  The workloads that load both databases use TPC-H
#: scale 10.  Larger scales would not fit three set-ups per run into the
#: benchmark's time budget on a 2-core host.
SCALES = {
    "tpch-exec": {"tpch": 15.0},
    "job-plan": {"job": 1.0},
    "random-orders": {"tpch": 10.0, "job": 1.0},
    "serve-mix": {"tpch": 10.0, "job": 1.0},
}
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Random left-deep orders per query on ``random-orders``.
ORDERS_PER_QUERY = 5
#: Closed-loop clients on ``serve-mix``, and the replace cadence of client 1.
SERVE_CLIENTS = 2
REPLACE_EVERY = 10
REPLACED_TABLE = "nation"
#: Failed statements whose traceback is printed to stderr.
MAX_REPORTED_FAILURES = 3


@dataclass
class Statement:
    """One unit of work the loop times: a public call and its reference key."""

    statement_id: str
    stem: str
    call: Callable[[], Any]


@dataclass
class Sample:
    """The outcome of one timed statement."""

    statement_id: str
    stem: str
    seconds: float
    ok: bool
    tuples: int = 0
    stats: Any = None
    trace: Optional[StatementTrace] = None


@dataclass
class State:
    """A workload after set-up: its databases, statements and server."""

    databases: List[Database]
    statements: List[Statement]
    server: Optional[Server] = None

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
        for db in self.databases:
            db.close()


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, float]
    failures: List[str] = field(default_factory=list)
    tracer: Optional[LayerTracer] = None


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------
def _load(kind: str, seed: int, scales: Dict[str, float], db: Database) -> None:
    if kind == "tpch":
        tpch.load(db, scale=scales["tpch"], seed=seed)
    else:
        job.load(db, scale=scales["job"], seed=seed)


def _sql_statements(db: Database, stems: List[str], run=None) -> List[Statement]:
    run = run or db.sql
    statements = []
    for stem in stems:
        text = sqlfiles.sql_text(stem)
        statements.append(Statement(stem, stem, lambda text=text: run(text)))
    return statements


def _random_order_statements(db: Database, stems: List[str], seed: int) -> List[Statement]:
    statements = []
    for index, stem in enumerate(stems):
        spec = compile_statement(sqlfiles.sql_text(stem), db.catalog).query
        if not db.is_acyclic(spec):
            continue
        plans = generate_left_deep_plans(
            db.join_graph(spec), ORDERS_PER_QUERY, seed=seed * 1009 + index, unique=True
        )
        for k, plan in enumerate(plans):
            statements.append(
                Statement(
                    f"{stem}#{k}",
                    stem,
                    lambda spec=spec, plan=plan: db.execute(
                        spec, mode=ExecutionMode.RPT, plan=plan
                    ),
                )
            )
    return statements


def build(workload: str, seed: int, scales: Dict[str, float]) -> tuple[State, float]:
    """Generate and load the workload's data; returns (state, generate seconds)."""
    tpch_stems = sqlfiles.stems_for("tpch")
    job_stems = sqlfiles.stems_for("job")
    started = time.perf_counter()
    if workload in ("tpch-exec", "job-plan"):
        kind = "tpch" if workload == "tpch-exec" else "job"
        db = Database()
        _load(kind, seed, scales, db)
        generate = time.perf_counter() - started
        stems = tpch_stems if kind == "tpch" else job_stems
        return State([db], _sql_statements(db, stems)), generate
    if workload == "random-orders":
        tdb, jdb = Database(), Database()
        _load("tpch", seed, scales, tdb)
        _load("job", seed, scales, jdb)
        generate = time.perf_counter() - started
        statements = _random_order_statements(tdb, tpch_stems, seed)
        statements += _random_order_statements(jdb, job_stems, seed)
        return State([tdb, jdb], statements), generate
    if workload == "serve-mix":
        db = Database()
        _load("tpch", seed, scales, db)
        _load("job", seed, scales, db)
        generate = time.perf_counter() - started
        server = Server(db)
        return State([db], _sql_statements(db, tpch_stems + job_stems), server=server), generate
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def warm(state: State, workload: str) -> Dict[str, Any]:
    """One untimed pass; returns stem -> the first result per stem."""
    results: Dict[str, Any] = {}
    if workload == "serve-mix":
        with state.server.session(name="warm") as session:
            for statement in state.statements:
                results[statement.stem] = session.sql(sqlfiles.sql_text(statement.stem))
        return results
    for statement in state.statements:
        if statement.stem not in results:
            results[statement.stem] = statement.call()
    return results


def reference(state: State, workload: str, warm_results: Dict[str, Any]) -> Dict[str, Dict[str, float]]:
    """stem -> aggregates of the hand-built spec under BASELINE with the
    optimizer's plan: a different front end and a different join algorithm
    from the statements being checked."""
    specs = sqlfiles.handbuilt_specs()
    expected: Dict[str, Dict[str, float]] = {}
    for stem in {s.stem for s in state.statements}:
        spec = specs[stem]
        db = _owner(state, stem)
        if workload == "random-orders":
            plan = db.optimizer_plan(spec)
        else:
            plan = warm_results[stem].plan
        expected[stem] = db.execute(spec, mode=ExecutionMode.BASELINE, plan=plan).aggregates
    return expected


def _owner(state: State, stem: str) -> Database:
    if len(state.databases) == 1:
        return state.databases[0]
    return state.databases[0] if stem.startswith("tpch_") else state.databases[1]


# ---------------------------------------------------------------------------
# Timed loop
# ---------------------------------------------------------------------------
def _execute(statement: Statement, expected, tracer: Optional[LayerTracer], failures: List[str]) -> Sample:
    context = tracer.statement(statement.statement_id) if tracer is not None else nullcontext()
    with context as trace:
        started = time.perf_counter()
        try:
            result = statement.call()
        except Exception:  # a failed statement is counted; the run goes on
            seconds = time.perf_counter() - started
            if len(failures) < MAX_REPORTED_FAILURES:
                failures.append(f"{statement.statement_id}: {traceback.format_exc()}")
            return Sample(statement.statement_id, statement.stem, seconds, False, trace=trace)
        seconds = time.perf_counter() - started
    ok = result.aggregates == expected[statement.stem]
    if not ok and len(failures) < MAX_REPORTED_FAILURES:
        failures.append(
            f"{statement.statement_id}: aggregates {result.aggregates} != reference "
            f"{expected[statement.stem]}"
        )
    return Sample(
        statement.statement_id,
        statement.stem,
        seconds,
        ok,
        tuples=result.stats.total_tuples_processed,
        stats=result.stats if trace is not None else None,
        trace=trace,
    )


def _passes(rng: random.Random, statements: List[Statement], tracer: Optional[LayerTracer], deadline: float):
    """Seeded shuffled passes over ``statements``; yields (statement, tracer).

    Only whole passes run -- at least one, and none started after
    ``deadline`` -- so every run times each statement equally often and the
    percentiles do not depend on where the clock stopped within a pass.
    With a tracer, every other statement is traced, shifted by one each
    pass, so that each statement runs both ways close together in time and
    host drift cancels out of ``trace.overhead_ratio``.
    """
    index = 0
    while index == 0 or time.perf_counter() < deadline:
        order = list(statements)
        rng.shuffle(order)
        for position, statement in enumerate(order):
            traced = tracer is not None and (index + position) % 2 == 1
            yield statement, tracer if traced else None
        index += 1


def run_single(state, expected, seconds, seed, tracer, failures) -> tuple[List[Sample], float]:
    """One closed-loop client."""
    samples: List[Sample] = []
    started = time.perf_counter()
    passes = _passes(random.Random(seed), state.statements, tracer, started + seconds)
    for statement, traced in passes:
        samples.append(_execute(statement, expected, traced, failures))
    return samples, time.perf_counter() - started


@dataclass
class ServeOutcome:
    samples: List[Sample] = field(default_factory=list)
    replace_seconds: List[float] = field(default_factory=list)
    error: Optional[BaseException] = None


def run_serve(state, expected, seconds, seed, tracer, failures) -> tuple[List[Sample], float, List[float]]:
    """``SERVE_CLIENTS`` closed-loop session threads.  Before every
    ``REPLACE_EVERY``-th statement, client 1 replaces ``REPLACED_TABLE``
    with identical contents (the write beside the reads; an extra op, so
    that the statement mix stays whole passes)."""
    db = state.databases[0]
    table = db.table(REPLACED_TABLE)
    outcomes = [ServeOutcome() for _ in range(SERVE_CLIENTS)]
    started = time.perf_counter()
    deadline = started + seconds

    def client(number: int) -> None:
        outcome = outcomes[number]
        try:
            with state.server.session(name=f"client-{number + 1}") as session:
                statements = _sql_statements(db, [s.stem for s in state.statements], session.sql)
                ops = 0
                rng = random.Random(seed * 31 + number)
                for statement, traced in _passes(rng, statements, tracer, deadline):
                    ops += 1
                    if number == 0 and ops % REPLACE_EVERY == 0:
                        replace_started = time.perf_counter()
                        db.register_table(table, replace=True)
                        outcome.replace_seconds.append(time.perf_counter() - replace_started)
                    outcome.samples.append(_execute(statement, expected, traced, failures))
        except BaseException as error:  # re-raised in the main thread
            outcome.error = error

    threads = [threading.Thread(target=client, args=(n,), daemon=True) for n in range(SERVE_CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 120)
        if thread.is_alive():
            raise RuntimeError("a serve-mix client did not finish")
    elapsed = time.perf_counter() - started
    for outcome in outcomes:
        if outcome.error is not None:
            raise outcome.error
    samples = [s for o in outcomes for s in o.samples]
    replaces = [r for o in outcomes for r in o.replace_seconds]
    return samples, elapsed, replaces


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------
def end_to_end(samples: List[Sample], elapsed: float, setup_seconds: float) -> Dict[str, float]:
    latencies_ms = [s.seconds * 1000.0 for s in samples]
    ok = sum(1 for s in samples if s.ok)
    return {
        "setup_s": setup_seconds,
        "qps": ok / elapsed,
        "latency_p50_ms": statistics.median(latencies_ms),
        "latency_p90_ms": statistics.quantiles(latencies_ms, n=10)[-1]
        if len(latencies_ms) > 1
        else latencies_ms[0],
        "latency_geomean_ms": geomean(latencies_ms),
        "ok_ratio": ok / len(samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def order_spread(samples: List[Sample]) -> float:
    """Max over queries of max/min join tuples across that query's orders
    (1.0 where every statement runs under one plan)."""
    tuples: Dict[str, Dict[str, int]] = {}
    for sample in samples:
        if sample.ok:
            tuples.setdefault(sample.stem, {})[sample.statement_id] = sample.tuples
    spread = 1.0
    for per_order in tuples.values():
        values = list(per_order.values())
        if max(values) > 0:
            spread = max(spread, max(values) / max(min(values), 1))
    return spread


def per_layer(samples, setups, server_stats, replaces) -> Dict[str, float]:
    traced = [s for s in samples if s.trace is not None and s.stats is not None]
    untraced = [s for s in samples if s.trace is None]
    n = max(len(traced), 1)
    sums: Dict[str, float] = {}

    def add(name: str, value: float) -> None:
        sums[name] = sums.get(name, 0.0) + value

    transfer_in = transfer_out = wall = residue = 0.0
    peak_reserved = 0
    for sample in traced:
        stats, trace = sample.stats, sample.trace
        layers = span_seconds(trace)
        for metric, span in (
            ("sql.compile_ms", "sql.compile"),
            ("optimizer.plan_ms", "optimizer.plan"),
            ("engine.join_graph_ms", "engine.join_graph"),
            ("core.schedule_ms", "core.schedule"),
            ("plan.compile_ms", "plan.compile"),
            ("exec.run_ms", "exec.run"),
        ):
            add(metric, layers.get(span, 0.0) * 1000.0)
        add("optimizer.card_calls", trace.card_calls)
        add("optimizer.card_ms", trace.card_seconds * 1000.0)
        timings = stats.timings
        add("exec.scan_filter_ms", timings.scan_filter * 1000.0)
        add("exec.transfer_ms", timings.transfer * 1000.0)
        add("exec.join_ms", timings.join * 1000.0)
        add("exec.aggregate_ms", timings.aggregate * 1000.0)
        by_kind = stats.op_seconds_by_kind()
        for kind in OP_KINDS:
            add(f"exec.op.{kind}_ms", by_kind.get(kind, 0.0) * 1000.0)
        step_in = sum(step.rows_before for step in stats.transfer_steps)
        transfer_in += step_in
        transfer_out += stats.total_transfer_rows_eliminated
        add("exec.transfer_rows_in", step_in)
        add("exec.transfer_rows_eliminated", stats.total_transfer_rows_eliminated)
        add("exec.bloom_bytes", stats.bloom_bytes)
        add("exec.join_tuples", stats.total_tuples_processed)
        add("exec.intermediate_rows", stats.total_intermediate_rows)
        peak_reserved = max(peak_reserved, stats.peak_memory_bytes)
        # The planner evaluates base filters before the executor runs; the
        # executor's own scan ops add to the same phase counter.
        in_run_scan = by_kind.get("scan", 0.0) + by_kind.get("filter_push", 0.0)
        prepare_filter = max(timings.scan_filter - in_run_scan, 0.0)
        wall += sample.seconds
        residue += sample.seconds - attributed_seconds(trace, prepare_filter)

    metrics = {name: value / n for name, value in sums.items()}
    metrics["exec.transfer_yield"] = transfer_out / transfer_in if transfer_in else 0.0
    metrics["exec.peak_reserved_bytes"] = float(peak_reserved)
    metrics["exec.order_spread"] = order_spread(samples)
    metrics["engine.residue_ms"] = residue * 1000.0 / n
    metrics["engine.residue_share"] = residue / wall if wall else 0.0
    metrics["trace.wall_ms"] = wall * 1000.0 / n
    metrics["trace.overhead_ratio"] = overhead_ratio(traced, untraced)
    metrics["workloads.generate_s"] = statistics.median(g for g, _ in setups)
    metrics["setup.warm_s"] = statistics.median(w for _, w in setups)
    metrics["engine.plancache_hit_ratio"] = server_stats.get("hit_ratio", 0.0)
    metrics["engine.admission_wait_ms"] = server_stats.get("admission_wait_ms", 0.0)
    metrics["storage.replace_ms"] = statistics.mean(replaces) * 1000.0 if replaces else 0.0
    metrics["storage.replaces"] = float(len(replaces))
    return metrics


def overhead_ratio(traced: List[Sample], untraced: List[Sample]) -> float:
    """Geometric mean over statements seen both ways of traced ÷ untraced
    mean wall time (the mix differs between passes, so totals would not)."""

    def means(samples):
        grouped: Dict[str, List[float]] = {}
        for sample in samples:
            grouped.setdefault(sample.statement_id, []).append(sample.seconds)
        return {key: statistics.mean(values) for key, values in grouped.items()}

    with_trace, without = means(traced), means(untraced)
    ratios = [with_trace[key] / without[key] for key in with_trace if key in without and without[key] > 0]
    return geomean(ratios) if ratios else 1.0


def _server_counters(server: Server) -> Dict[str, float]:
    stats = server.stats()
    metrics = stats.metrics
    return {
        "hits": stats.plan_cache_hits,
        "misses": stats.plan_cache_misses,
        "wait_sum": metrics.get("repro_server_admission_wait_seconds_sum", 0.0),
        "wait_count": metrics.get("repro_server_admission_wait_seconds_count", 0.0),
    }


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------
def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    scales: Optional[Dict[str, float]] = None,
    import_seconds: float = 0.0,
) -> RunResult:
    """Set up ``workload``, run whole passes for ``seconds``, and compute its metrics.

    ``trace`` selects the per-layer metrics (wrappers installed, every other
    statement traced) instead of the end-to-end ones.  ``import_seconds`` is the
    caller's one-off import time, added to ``setup_s`` so that set-up counts
    from an empty process.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    scales = {**SCALES[workload], **(scales or {})}
    setups: List[tuple[float, float]] = []
    setup_totals: List[float] = []
    state: Optional[State] = None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            state.close()
        started = time.perf_counter()
        state, generate = build(workload, seed, scales)
        warm_started = time.perf_counter()
        warm_results = warm(state, workload)
        now = time.perf_counter()
        setups.append((generate, now - warm_started))
        setup_totals.append(now - started)
    try:
        expected = reference(state, workload, warm_results)
        del warm_results
        tracer = LayerTracer() if trace else None
        failures: List[str] = []
        server_before = _server_counters(state.server) if state.server is not None else None
        replaces: List[float] = []
        if tracer is not None:
            tracer.install()
        try:
            if workload == "serve-mix":
                samples, elapsed, replaces = run_serve(state, expected, seconds, seed, tracer, failures)
            else:
                samples, elapsed = run_single(state, expected, seconds, seed, tracer, failures)
        finally:
            if tracer is not None:
                tracer.uninstall()
        server_stats: Dict[str, float] = {}
        if state.server is not None:
            after = _server_counters(state.server)
            hits = after["hits"] - server_before["hits"]
            lookups = hits + after["misses"] - server_before["misses"]
            waits = after["wait_count"] - server_before["wait_count"]
            server_stats = {
                "hit_ratio": hits / lookups if lookups else 0.0,
                "admission_wait_ms": (after["wait_sum"] - server_before["wait_sum"]) * 1000.0 / waits
                if waits
                else 0.0,
            }
    finally:
        state.close()

    failed = sum(1 for s in samples if not s.ok)
    if trace:
        metrics = per_layer(samples, setups, server_stats, replaces)
    else:
        setup_seconds = import_seconds + statistics.median(setup_totals)
        metrics = end_to_end(samples, elapsed, setup_seconds)
    return RunResult(
        correct=failed == 0,
        attempted=len(samples),
        failed=failed,
        metrics=metrics,
        failures=failures,
        tracer=tracer,
    )


def report_failures(result: RunResult, stream=sys.stderr) -> None:
    for failure in result.failures:
        print(f"perfbench: failed statement {failure}", file=stream)
    if result.failed > len(result.failures):
        print(f"perfbench: ... {result.failed - len(result.failures)} more", file=stream)
