"""Encoded execution is bit-identical to raw across modes, backends, workloads.

``ExecutionConfig.encodings`` swaps the base-filter path to code-space
kernels with zone-map block skipping and feeds zone-map row bounds to the
optimizer — both of which must leave every query result bit-for-bit
unchanged.  The matrix below runs synthetic (IMDB-shaped), TPC-H and JOB
queries under all five execution modes and two backends and compares aggregates against the
raw serial baseline.  The satellites are covered alongside: plans are
unchanged when encodings are off, zone bounds drop impossible predicates
to a zero estimate (past the 1-row floor), EXPLAIN carries the
``[zm skip]`` marker, fused kernels count skipped blocks exactly, and the
artifact cache never aliases raw and encoded passes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Database, ExecutionMode, ExecutionOptions
from repro.engine.modes import ExecutionConfig
from repro.expr import between, eq, lt
from repro.optimizer.cardinality import CardinalityEstimator
from repro.query import JoinCondition, QuerySpec, RelationRef
from repro.workloads import job, tpch

BACKENDS = ("serial", "chunked")


def _options(backend: str, *, encodings: bool, **kwargs) -> ExecutionOptions:
    return ExecutionOptions(
        execution=ExecutionConfig(backend=backend, encodings=encodings, **kwargs)
    )


def _sorted_star_db(fact_rows: int = 20_000, dim_rows: int = 2_000, seed: int = 13):
    """A star join whose fact table has a sorted (zone-map friendly) column."""
    rng = np.random.default_rng(seed)
    db = Database()
    db.register_dataframe(
        "dim",
        {
            "id": np.arange(dim_rows, dtype=np.int64),
            "attr": rng.integers(0, 100, size=dim_rows, dtype=np.int64),
        },
        primary_key=["id"],
    )
    db.register_dataframe(
        "fact",
        {
            "ts": np.arange(fact_rows, dtype=np.int64),
            "d_id": rng.integers(0, dim_rows, size=fact_rows, dtype=np.int64),
        },
    )
    query = QuerySpec(
        name="sorted_star",
        relations=(
            RelationRef("f", "fact", between("ts", 1_000, 2_999)),
            RelationRef("d", "dim", lt("attr", 50)),
        ),
        joins=(JoinCondition("f", "d_id", "d", "id"),),
    )
    return db, query


# ---------------------------------------------------------------------------
# Bit-identity matrix: modes x backends x workloads
# ---------------------------------------------------------------------------
class TestBitIdentityMatrix:
    def _assert_matrix(self, db, query, all_modes):
        baseline = db.execute(
            query, mode=ExecutionMode.BASELINE, options=_options("serial", encodings=False)
        )
        for mode in all_modes:
            for backend in BACKENDS:
                result = db.execute(query, mode=mode, options=_options(backend, encodings=True))
                assert result.aggregates == baseline.aggregates, (
                    f"{query.name} diverged under {mode.name}/{backend} with encodings on"
                )
                assert result.stats.output_rows == baseline.stats.output_rows

    def test_synthetic_star_and_chain(self, imdb_db, star_query, chain_query, all_modes):
        self._assert_matrix(imdb_db, star_query, all_modes)
        self._assert_matrix(imdb_db, chain_query, all_modes)

    def test_tpch(self, tpch_db, all_modes):
        self._assert_matrix(tpch_db, tpch.all_queries()["q3"], all_modes)

    def test_job(self, job_db, all_modes):
        name, query = sorted(job.all_queries().items())[0]
        self._assert_matrix(job_db, query, all_modes)

    def test_tpch_serial_sweep_stays_identical(self, tpch_db, all_modes):
        # A wider query sweep on the serial backend only (cheap): every mode,
        # encodings on vs off, per query.
        for qname in ("q5", "q10"):
            query = tpch.all_queries()[qname]
            baseline = tpch_db.execute(
                query, mode=ExecutionMode.BASELINE, options=_options("serial", encodings=False)
            )
            for mode in all_modes:
                result = tpch_db.execute(
                    query, mode=mode, options=_options("serial", encodings=True)
                )
                assert result.aggregates == baseline.aggregates, f"{qname} under {mode.name}"


# ---------------------------------------------------------------------------
# Optimizer integration: zone-map row bounds
# ---------------------------------------------------------------------------
class TestZoneBoundCardinality:
    def test_plans_identical_when_encodings_off(self, tpch_db):
        for qname, query in tpch.all_queries().items():
            default_plan = tpch_db.optimizer_plan(query)
            off_plan = tpch_db.optimizer_plan(
                query, options=ExecutionOptions(execution=ExecutionConfig(encodings=False))
            )
            assert default_plan.describe() == off_plan.describe(), qname

    def test_impossible_predicate_estimates_zero(self):
        db, _ = _sorted_star_db()
        try:
            query = QuerySpec(
                name="impossible",
                relations=(
                    RelationRef("f", "fact", between("ts", -500, -1)),
                    RelationRef("d", "dim"),
                ),
                joins=(JoinCondition("f", "d_id", "d", "id"),),
            )
            bounds = db._zone_row_bounds(query)
            assert bounds["f"] == 0
            graph = db.join_graph(query)
            floored = CardinalityEstimator(db.catalog, query, graph)
            assert floored.base_cardinality("f") >= 1.0  # the textbook floor
            bounded = CardinalityEstimator(
                db.catalog, query, graph, rows_upper_bounds=bounds
            )
            assert bounded.base_cardinality("f") == 0.0  # zone maps beat the floor
            # The end-to-end result is still exact: zero rows come out.
            result = db.execute(query, options=_options("serial", encodings=True))
            baseline = db.execute(query, options=_options("serial", encodings=False))
            assert result.aggregates == baseline.aggregates
        finally:
            db.close()

    def test_bound_caps_but_never_raises_estimates(self):
        db, query = _sorted_star_db()
        try:
            bounds = db._zone_row_bounds(query)
            # between("ts", 1000, 2999) on sorted data: the surviving-block
            # bound must cover all 2000 matching rows but stay far below the
            # 20000-row table.
            assert 2_000 <= bounds["f"] <= 4_096 * 2
            graph = db.join_graph(query)
            plain = CardinalityEstimator(db.catalog, query, graph)
            bounded = CardinalityEstimator(db.catalog, query, graph, rows_upper_bounds=bounds)
            for alias in ("f", "d"):
                assert bounded.base_cardinality(alias) <= plain.base_cardinality(alias)
        finally:
            db.close()


# ---------------------------------------------------------------------------
# EXPLAIN and trace markers
# ---------------------------------------------------------------------------
class TestTraceMarkers:
    def test_explain_and_execute_carry_zone_skip_marker(self):
        db, query = _sorted_star_db()
        try:
            explained = db.explain(query, options=_options("serial", encodings=True))
            assert "[zm skip" in explained.stats.op_trace()
            raw_explained = db.explain(query, options=_options("serial", encodings=False))
            assert "[zm skip" not in raw_explained.stats.op_trace()

            result = db.execute(query, options=_options("serial", encodings=True))
            assert "[zm skip" in result.stats.op_trace()
            assert result.stats.zone_blocks_skipped > 0
            assert result.stats.zone_blocks_skipped < result.stats.zone_blocks_total
        finally:
            db.close()


# ---------------------------------------------------------------------------
# Fused kernels under block selections
# ---------------------------------------------------------------------------
class TestFusedWithEncodings:
    def test_skipped_blocks_counted_exactly(self):
        n = 8 * 4_096
        db = Database()
        try:
            db.register_dataframe(
                "t",
                {"ts": np.arange(n, dtype=np.int64), "flag": np.ones(n, dtype=np.int64)},
            )
            query = QuerySpec(
                name="fused",
                relations=(RelationRef("t", "t", between("ts", 0, 4_095) & eq("flag", 1)),),
                joins=(),
            )
            fused_raw = db.execute(
                query, options=_options("serial", encodings=False, fuse_filters=True)
            )
            fused_enc = db.execute(
                query, options=_options("serial", encodings=True, fuse_filters=True)
            )
            assert fused_enc.aggregates == fused_raw.aggregates
            # Only the first block survives pruning, so the encoded fused run
            # short-circuits exactly the 7 skipped blocks' rows on top of the
            # raw fused run's progressive-selection savings.
            skipped_rows = n - 4_096
            assert (
                fused_enc.stats.fused_rows_short_circuited
                - fused_raw.stats.fused_rows_short_circuited
                == skipped_rows
            )
            assert fused_enc.stats.zone_blocks_skipped == 7
            assert fused_enc.stats.zone_blocks_total == 8
        finally:
            db.close()


# ---------------------------------------------------------------------------
# Cache keying across encoding toggles
# ---------------------------------------------------------------------------
class TestCacheKeying:
    def test_artifact_cache_never_aliases_raw_and_encoded(self):
        db, query = _sorted_star_db()
        try:
            def run(encodings: bool):
                return db.execute(
                    query,
                    mode=ExecutionMode.RPT,
                    options=_options("serial", encodings=encodings, artifact_cache=True),
                )

            cold = run(False)
            warm_raw = run(True)  # encoded keys must not serve the raw artifacts
            warm_enc = run(True)
            warm_raw_again = run(False)  # raw keys must still be warm
            for result in (warm_raw, warm_enc, warm_raw_again):
                assert result.aggregates == cold.aggregates
            assert warm_enc.stats.artifact_cache_hits > 0
            assert warm_raw_again.stats.artifact_cache_hits > 0
        finally:
            db.close()


# ---------------------------------------------------------------------------
# Environment knob
# ---------------------------------------------------------------------------
class TestEnvKnob:
    def test_repro_encodings_env_flag(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENCODINGS", raising=False)
        assert ExecutionConfig().resolved().encodings is False
        monkeypatch.setenv("REPRO_ENCODINGS", "1")
        assert ExecutionConfig().resolved().encodings is True
        monkeypatch.setenv("REPRO_ENCODINGS", "0")
        assert ExecutionConfig().resolved().encodings is False
        # An explicit config wins over the environment.
        monkeypatch.setenv("REPRO_ENCODINGS", "1")
        assert ExecutionConfig(encodings=False).resolved().encodings is False
