"""Block-encoded scans vs the raw paths.

The tentpole claims of block-encoded execution, measured on 1M rows:

* selective ordered string comparisons run in dictionary code space
  instead of materializing every string;
* selective ranges over clustered data skip ~99% of blocks via zone maps.

The measurement records to ``BENCH_encoding.json`` at the repo root and
asserts >=3x on both scans.  Every compared pair is asserted bit-identical
inside the runner before timing.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.bench import (
    format_encoding_microbench,
    print_report,
    run_encoding_microbench,
    write_bench_json,
)

#: Where the perf-trajectory record lands (repo root, next to ROADMAP.md).
BENCH_JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_encoding.json"


@pytest.mark.benchmark(group="encoding")
def test_encoded_scans(benchmark, tmp_path):
    cores = os.cpu_count() or 1

    def run():
        return run_encoding_microbench(rows=1 << 20, repeats=3)

    measurement = benchmark.pedantic(run, rounds=1, iterations=1)
    print_report(format_encoding_microbench(measurement))

    # Refresh the committed perf-trajectory record only when explicitly
    # recording (REPRO_BENCH_RECORD=1); a plain test run writes to tmp so
    # running the suite never dirties the working tree.
    target = (
        BENCH_JSON_PATH
        if os.environ.get("REPRO_BENCH_RECORD")
        else tmp_path / "BENCH_encoding.json"
    )
    written = write_bench_json(
        target,
        name="encoding_microbench",
        measurements=[measurement.as_dict()],
        metadata={"cores": cores},
    )
    assert written.exists()

    # The sorted timestamp column prunes all but the blocks overlapping the
    # 1% range; the skip count is exact, not approximate.
    assert measurement.range_blocks_total > 0
    assert measurement.range_blocks_skipped >= int(measurement.range_blocks_total * 0.9)

    # Both selective scans must beat the raw paths by >=3x: the string scan
    # by staying in code space, the range scan by skipping blocks.
    assert measurement.string_scan_speedup >= 3.0, (
        f"string scan below 3x: {measurement.string_scan_speedup:.2f}x"
    )
    assert measurement.range_scan_speedup >= 3.0, (
        f"range scan below 3x: {measurement.range_scan_speedup:.2f}x"
    )
