"""Deadline/cancellation check overhead on a 1M-row star-probe query.

Records the measurement as ``BENCH_scaling.json`` at the repo root.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.bench import (
    format_deadline_overhead_microbench,
    print_report,
    run_deadline_overhead_microbench,
    write_bench_json,
)

#: Where the perf-trajectory record lands (repo root, next to ROADMAP.md).
BENCH_JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_scaling.json"


@pytest.mark.benchmark(group="scaling")
def test_deadline_check_overhead_gate_on_star_probe(benchmark, tmp_path):
    """Deadline/cancellation checks must cost <2% on the 1M-row star probe.

    Installing a deadline switches serial kernels to chunked execution with
    a monotonic-clock check per chunk; this gate keeps that machinery
    effectively free.  A small absolute slack (10ms) absorbs timer noise on
    sub-second runs where 2% is single-digit milliseconds.
    """
    cores = os.cpu_count() or 1

    def run():
        return run_deadline_overhead_microbench(
            fact_rows=1 << 20,
            num_dims=2,
            repeats=3,
        )

    measurement = benchmark.pedantic(run, rounds=1, iterations=1)
    print_report(format_deadline_overhead_microbench(measurement))

    # Refresh the committed perf-trajectory record only when explicitly
    # recording (REPRO_BENCH_RECORD=1); a plain test run writes to tmp so
    # running the suite never dirties the working tree.
    target = (
        BENCH_JSON_PATH
        if os.environ.get("REPRO_BENCH_RECORD")
        else tmp_path / "BENCH_scaling.json"
    )
    written = write_bench_json(
        target,
        name="scaling_microbench",
        measurements=[measurement.as_dict()],
        metadata={"cores": cores},
    )
    recorded = json.loads(written.read_text())["measurements"]
    deadline_entries = [m for m in recorded if m.get("kind") == "deadline_overhead"]
    assert len(deadline_entries) == 1
    for field in (
        "baseline_seconds",
        "deadline_seconds",
        "overhead_seconds",
        "overhead_fraction",
    ):
        assert field in deadline_entries[0]

    allowed = max(0.02 * measurement.baseline_seconds, 0.010)
    assert measurement.overhead_seconds <= allowed, (
        f"deadline checks cost {measurement.overhead_seconds * 1e3:.2f}ms "
        f"({measurement.overhead_fraction * 100:.2f}%) on a "
        f"{measurement.baseline_seconds * 1e3:.0f}ms probe; allowed "
        f"{allowed * 1e3:.2f}ms"
    )
