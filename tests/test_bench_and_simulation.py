"""Tests for the benchmark harness, report printers, microbenchmarks, and the
simulated parallel / spill models."""

from __future__ import annotations

import pytest

from repro import Database, ExecutionMode
from repro.bench import (
    WorkloadContext,
    average_speedups,
    format_case_study,
    format_distribution_series,
    format_probe_microbenchmark,
    format_robustness_factors,
    format_robustness_table,
    format_speedup_table,
    robustness_table,
    run_probe_microbenchmark,
    run_random_plan_experiment,
    run_speedup_experiment,
)
from repro.core import robustness_factor
from repro.errors import BenchmarkError
from repro.exec.chunk import num_chunks
from repro.exec.parallel import ParallelismModel, simulate_parallel_cost
from repro.exec.spill import SpillConfig, peak_materialized_bytes, simulate_spill
from repro.workloads import synthetic, tpch


@pytest.fixture(scope="module")
def tpch_small() -> Database:
    db = Database()
    tpch.load(db, scale=0.05, seed=3)
    return db


class TestHarness:
    def test_random_plan_experiment(self, tpch_small):
        query = tpch.query(10)
        experiment = run_random_plan_experiment(
            tpch_small, query,
            modes=(ExecutionMode.BASELINE, ExecutionMode.RPT),
            num_plans=5, seed=1,
        )
        assert set(experiment.costs) == {ExecutionMode.BASELINE, ExecutionMode.RPT}
        assert len(experiment.costs[ExecutionMode.RPT]) == 5
        rf_base = experiment.robustness(ExecutionMode.BASELINE)
        rf_rpt = experiment.robustness(ExecutionMode.RPT)
        assert rf_base.factor >= 1.0 and rf_rpt.factor >= 1.0

    def test_random_plan_experiment_bushy(self, tpch_small):
        experiment = run_random_plan_experiment(
            tpch_small, tpch.query(3), modes=(ExecutionMode.RPT,), num_plans=4,
            plan_type="bushy", seed=2,
        )
        assert len(experiment.costs[ExecutionMode.RPT]) == 4

    def test_invalid_plan_type(self, tpch_small):
        with pytest.raises(BenchmarkError):
            run_random_plan_experiment(tpch_small, tpch.query(3), plan_type="zigzag", num_plans=2)

    def test_normalized_costs(self, tpch_small):
        experiment = run_random_plan_experiment(
            tpch_small, tpch.query(3), modes=(ExecutionMode.RPT,), num_plans=3, seed=0
        )
        normalized = experiment.normalized_costs(ExecutionMode.RPT, baseline_cost=100.0)
        assert len(normalized) == 3
        with pytest.raises(BenchmarkError):
            experiment.normalized_costs(ExecutionMode.RPT, baseline_cost=0.0)

    def test_speedup_experiment_and_table(self, tpch_small):
        queries = {f"q{n}": tpch.query(n) for n in (3, 10, 11)}
        results = run_speedup_experiment(tpch_small, queries)
        assert set(results) == set(queries)
        speedups = average_speedups(results)
        assert speedups[ExecutionMode.BASELINE] == pytest.approx(1.0)
        assert all(v > 0 for v in speedups.values())

    def test_robustness_table_and_exclusions(self, tpch_small):
        experiments = [
            run_random_plan_experiment(
                tpch_small, tpch.query(n), modes=(ExecutionMode.BASELINE, ExecutionMode.RPT),
                num_plans=4, seed=n,
            )
            for n in (3, 10)
        ]
        table = robustness_table(experiments, "TPC-H", (ExecutionMode.BASELINE, ExecutionMode.RPT))
        assert table[ExecutionMode.RPT].num_queries == 2
        with pytest.raises(BenchmarkError):
            robustness_table(experiments, "TPC-H", (ExecutionMode.RPT,),
                             exclude_queries=[e.query_name for e in experiments])

    def test_workload_context_caches(self):
        context = WorkloadContext(scale=0.05)
        db1 = context.database("tpch")
        db2 = context.database("tpch")
        assert db1 is db2
        assert len(context.queries("tpch")) == 20
        with pytest.raises(BenchmarkError):
            context.database("unknown")


class TestReporting:
    def test_robustness_table_format(self, tpch_small):
        experiment = run_random_plan_experiment(
            tpch_small, tpch.query(3), modes=(ExecutionMode.BASELINE, ExecutionMode.RPT),
            num_plans=3, seed=0,
        )
        table = robustness_table([experiment], "TPC-H", (ExecutionMode.BASELINE, ExecutionMode.RPT))
        text = format_robustness_table("Table 1", {"TPC-H": table},
                                       (ExecutionMode.BASELINE, ExecutionMode.RPT))
        assert "Table 1" in text and "DuckDB" in text and "RPT" in text

    def test_speedup_table_format(self):
        rows = {"TPC-H": {ExecutionMode.RPT: 1.5, ExecutionMode.PT: 1.4, ExecutionMode.BASELINE: 1.0}}
        text = format_speedup_table("Table 3", rows, (ExecutionMode.BASELINE, ExecutionMode.PT, ExecutionMode.RPT))
        assert "1.50x" in text and "RPT" in text

    def test_distribution_series_format(self):
        text = format_distribution_series("Fig 6", {"q3": {"DuckDB": [1.0, 2.0, 3.0], "RPT": [0.5, 0.6]}})
        assert "q3" in text and "DuckDB" in text

    def test_robustness_factors_format(self):
        text = format_robustness_factors("factors", [robustness_factor("q1", "rpt", [1.0, 1.2])])
        assert "q1" in text

    def test_case_study_format(self):
        text = format_case_study("Fig 11", {"best": {"intermediate": 10.0}, "worst": {"intermediate": 100.0}})
        assert "Fig 11" in text and "worst" in text


class TestMicrobenchmark:
    def test_probe_microbenchmark_runs(self):
        measurements = run_probe_microbenchmark(
            build_sizes=(128, 1024, 8192), probe_rows=50_000, repeats=1
        )
        assert len(measurements) == 3
        for m in measurements:
            assert m.hash_probe_seconds > 0
            assert m.bloom_probe_seconds > 0
            assert m.bloom_filter_bytes > 0
        text = format_probe_microbenchmark(measurements)
        assert "Figure 16" in text

    def test_bloom_probe_faster_for_large_build_sides(self):
        measurements = run_probe_microbenchmark(
            build_sizes=(65_536,), probe_rows=200_000, repeats=2
        )
        assert measurements[0].bloom_advantage > 1.0


class TestParallelSimulation:
    def test_num_chunks(self):
        assert num_chunks(10, 4) == 3
        assert num_chunks(0, 4) == 0
        assert num_chunks(1) == 1

    def test_more_threads_never_slower(self, tpch_small):
        result = tpch_small.execute(tpch.query(10), mode=ExecutionMode.RPT)
        one = simulate_parallel_cost(result.stats, ParallelismModel(num_threads=1))
        many = simulate_parallel_cost(result.stats, ParallelismModel(num_threads=32))
        assert many <= one

    def test_small_probe_sides_limit_scaling(self):
        """A tiny query cannot use 32 threads: speedup is far below 32x."""
        instance = synthetic.figure2_instance(base_size=50)
        result = instance.database.execute(instance.query, mode=ExecutionMode.RPT)
        one = simulate_parallel_cost(result.stats, ParallelismModel(num_threads=1, pipeline_overhead=0.0))
        many = simulate_parallel_cost(result.stats, ParallelismModel(num_threads=32, pipeline_overhead=0.0))
        assert one / max(many, 1e-9) < 32.0

    def test_baseline_variance_grows_with_threads(self, tpch_small):
        """Figure 14's observation also holds in the model: parallel costs still differ across plans."""
        from repro.optimizer import generate_left_deep_plans

        query = tpch.query(10)
        graph = tpch_small.join_graph(query)
        plans = generate_left_deep_plans(graph, 6, seed=4)
        costs = [
            simulate_parallel_cost(
                tpch_small.execute(query, mode=ExecutionMode.BASELINE, plan=p).stats,
                ParallelismModel(num_threads=32),
            )
            for p in plans
        ]
        assert max(costs) > min(costs)


class TestSpillSimulation:
    def test_spill_adds_io_time(self, tpch_small):
        result = tpch_small.execute(tpch.query(3), mode=ExecutionMode.RPT)
        added = simulate_spill(result.stats, result.relations, SpillConfig())
        assert added >= 0.0
        assert result.stats.timings.simulated_io == pytest.approx(added)

    def test_tighter_budget_more_io(self, tpch_small):
        r1 = tpch_small.execute(tpch.query(3), mode=ExecutionMode.RPT)
        r2 = tpch_small.execute(tpch.query(3), mode=ExecutionMode.RPT)
        loose = simulate_spill(r1.stats, r1.relations, SpillConfig(memory_budget_fraction=None))
        tight = simulate_spill(r2.stats, r2.relations, SpillConfig(memory_budget_fraction=0.2))
        assert tight >= loose

    def test_peak_bytes_positive(self, tpch_small):
        result = tpch_small.execute(tpch.query(3), mode=ExecutionMode.RPT)
        assert peak_materialized_bytes(result.stats, result.relations) > 0


class TestSyntheticInstances:
    def test_figure2_rpt_reduces_more_than_pt(self):
        instance = synthetic.figure2_instance(base_size=120)
        db, query = instance.database, instance.query
        pt = db.execute(query, mode=ExecutionMode.PT)
        rpt = db.execute(query, mode=ExecutionMode.RPT)
        assert pt.aggregates == rpt.aggregates
        # RPT's full reduction shrinks T at least as much as PT's incomplete one.
        assert rpt.stats.reduced_rows["t"] <= pt.stats.reduced_rows["t"]

    def test_figure12_quadratic_blowup_only_without_rpt(self):
        instance = synthetic.figure12_instance(n=400)
        db, query = instance.database, instance.query
        from repro.plan.join_plan import JoinPlan

        bad_plan = JoinPlan.from_left_deep(("r", "s", "t"))
        baseline = db.execute(query, mode=ExecutionMode.BASELINE, plan=bad_plan)
        rpt = db.execute(query, mode=ExecutionMode.RPT, plan=bad_plan)
        assert baseline.stats.output_rows == 0 and rpt.stats.output_rows == 0
        assert baseline.stats.total_intermediate_rows >= (400 // 2) ** 2 // 2
        assert rpt.stats.total_intermediate_rows == 0

    def test_unsafe_subjoin_instance_classification(self):
        from repro.core import is_alpha_acyclic, is_gamma_acyclic

        instance = synthetic.unsafe_subjoin_instance(n=100)
        graph = instance.database.join_graph(instance.query)
        assert is_alpha_acyclic(graph)
        assert not is_gamma_acyclic(graph)
