"""Smoke tests of the benchmark at a tiny scale.

Run with ``python -m pytest perfbench`` from the root of a checkout.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import compare, harness
from perfbench.run import declared_metrics
from repro import Database

ROOT = Path(__file__).resolve().parent.parent
TINY = {"tpch": 0.05, "job": 0.1}


@pytest.mark.parametrize("workload", harness.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_emitted_with_a_unit(workload, trace):
    result = harness.run(workload, seed=3, seconds=0.2, trace=bool(trace), scales=TINY)
    assert result.correct and result.failed == 0 and result.attempted > 0
    units = declared_metrics(trace)
    assert set(result.metrics) == set(units)
    assert all(units.values())
    assert all(math.isfinite(value) for value in result.metrics.values())


def test_traced_run_restores_the_engine():
    originals = (Database.sql, Database.optimizer_plan, Database.join_graph)
    harness.run("job-plan", seed=3, seconds=0.1, trace=True, scales=TINY)
    assert (Database.sql, Database.optimizer_plan, Database.join_graph) == originals


def test_seed_changes_the_generated_data():
    def quantities(seed):
        state, _ = harness.build("tpch-exec", seed, TINY)
        try:
            return np.asarray(state.databases[0].table("lineitem").column("l_quantity").data)
        finally:
            state.close()

    assert np.array_equal(quantities(1), quantities(1))
    assert not np.array_equal(quantities(1), quantities(2))


def test_corrupted_aggregate_counts_as_failed(monkeypatch):
    sql = Database.sql

    def corrupt_q3(self, text, *args, **kwargs):
        result = sql(self, text, *args, **kwargs)
        if text.startswith("-- name: tpch_q3\n"):
            result.aggregates = {k: v + 1 for k, v in result.aggregates.items()}
        return result

    monkeypatch.setattr(Database, "sql", corrupt_q3)
    result = harness.run("tpch-exec", seed=3, seconds=0.2, trace=False, scales=TINY)
    assert not result.correct
    assert result.failed >= 1
    assert result.metrics["ok_ratio"] == pytest.approx(1 - result.failed / result.attempted)
    assert any(failure.startswith("tpch_q3") for failure in result.failures)


def _cli(args, cwd, env):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_cli_refuses_repro_environment():
    env = {**os.environ, "REPRO_BACKEND": "parallel"}
    done = _cli(["--workload", "tpch-exec", "--seed", "1", "--seconds", "1"], ROOT, env)
    assert done.returncode != 0
    assert done.stdout == ""
    assert "REPRO_BACKEND" in done.stderr


def test_cli_fails_without_the_engine_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_") and k != "PYTHONPATH"}
    done = _cli(["--workload", "tpch-exec", "--seed", "1", "--seconds", "1"], tmp_path, env)
    assert done.returncode != 0
    assert done.stdout == ""


def _record(workload, trace, metrics):
    return {
        "fingerprint": {"workload": workload, "trace": trace},
        "metrics": {name: {"value": value, "unit": ""} for name, value in metrics.items()},
    }


def test_compare_verdicts(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    steady = {m["name"]: 10.0 for m in spec["end_to_end"]}
    base = [_record("job-plan", 0, {**steady, "qps": q, "latency_p50_ms": 10.0 + i % 2 * 0.1})
            for i, q in enumerate([10.0, 10.1, 9.9, 10.0])]
    new = [_record("job-plan", 0, {**steady, "qps": q, "latency_p50_ms": 5.0 + 6.0 * (i % 2)})
           for i, q in enumerate([12.0, 12.1, 11.9, 12.0])]
    new[0]["metrics"]["setup_s"]["value"] = 20.0
    for side, runs in (("base", base), ("new", new)):
        runs = runs + [_record("job-plan", 1, {"exec.run_ms": 5.0 if side == "base" else 2.0, "sql.compile_ms": 1.0})]
        (tmp_path / f"{side}.jsonl").write_text("".join(json.dumps(r) + "\n" for r in runs))
    out = tmp_path / "report.txt"
    with out.open("w") as stream:
        verdicts = compare.compare(tmp_path / "base.jsonl", tmp_path / "new.jsonl", out=stream)
    assert verdicts[("job-plan", "qps")] == "better"
    assert verdicts[("job-plan", "latency_p50_ms")] == "unresolved"
    assert verdicts[("job-plan", "latency_p90_ms")] == "same"
    assert "exec.run_ms" in out.read_text()
    worse = [_record("job-plan", 0, {**steady, "latency_p90_ms": 20.0})]
    (tmp_path / "worse.jsonl").write_text(json.dumps(worse[0]) + "\n")
    with out.open("w") as stream:
        verdicts = compare.compare(tmp_path / "base.jsonl", tmp_path / "worse.jsonl", out=stream)
    assert verdicts[("job-plan", "latency_p90_ms")] == "worse"
