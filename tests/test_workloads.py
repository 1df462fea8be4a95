"""Tests for the TPC-H / JOB / TPC-DS / DSB workload generators and query sets."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import Database, ExecutionMode
from repro.core import is_alpha_acyclic
from repro.errors import WorkloadError
from repro.workloads import dsb, job, tpcds, tpch
from repro.workloads.generator import WorkloadScale, foreign_keys, zipf_weights


class TestGeneratorUtilities:
    def test_workload_scale_rows(self):
        ws = WorkloadScale(scale=0.5)
        assert ws.rows(1000) == 500
        assert ws.rows(1, minimum=3) == 3

    def test_rng_deterministic(self):
        ws = WorkloadScale(seed=7)
        a = ws.rng("x").integers(0, 100, 10)
        b = ws.rng("x").integers(0, 100, 10)
        assert (a == b).all()
        c = ws.rng("y").integers(0, 100, 10)
        assert not (a == c).all()

    def test_generated_data_is_independent_of_the_string_hash_seed(self):
        # Fresh interpreters with different PYTHONHASHSEEDs must generate
        # identical tables from the same seed.
        script = (
            "import hashlib\n"
            "from repro import Database\n"
            "from repro.workloads import job, tpch\n"
            "digest = hashlib.sha256()\n"
            "for module in (tpch, job):\n"
            "    db = Database()\n"
            "    module.load(db, scale=0.02, seed=5)\n"
            "    for name in sorted(db.catalog.table_names()):\n"
            "        table = db.table(name)\n"
            "        for column in table.column_names:\n"
            "            digest.update(f'{name}.{column}'.encode())\n"
            "            digest.update(repr(table.column(column).data.tolist()).encode())\n"
            "print(digest.hexdigest())\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        digests = []
        for hash_seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed}
            env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
            done = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
            )
            assert done.returncode == 0, done.stderr[-2000:]
            digests.append(done.stdout.strip())
        assert digests[0] == digests[1]

    def test_foreign_keys_range(self):
        ws = WorkloadScale(seed=1)
        keys = foreign_keys(ws.rng("fk"), 1000, 50)
        assert keys.min() >= 1 and keys.max() <= 50

    def test_foreign_keys_skew_concentrates(self):
        import numpy as np

        ws = WorkloadScale(seed=1)
        uniform = foreign_keys(ws.rng("a"), 5000, 100, skew=0.0)
        skewed = foreign_keys(ws.rng("b"), 5000, 100, skew=1.2)
        top_uniform = (uniform == np.bincount(uniform).argmax()).mean()
        top_skewed = (skewed == np.bincount(skewed).argmax()).mean()
        assert top_skewed > top_uniform

    def test_foreign_keys_null_fraction(self):
        ws = WorkloadScale(seed=1)
        keys = foreign_keys(ws.rng("n"), 2000, 10, null_fraction=0.5)
        dangling = (keys == -1).mean()
        assert 0.3 < dangling < 0.7

    def test_foreign_keys_invalid_ref_size(self):
        ws = WorkloadScale(seed=1)
        with pytest.raises(WorkloadError):
            foreign_keys(ws.rng("x"), 10, 0)

    def test_zipf_weights_normalized(self):
        weights = zipf_weights(100, 1.0)
        assert weights.sum() == pytest.approx(1.0)
        assert weights[0] > weights[-1]
        uniform = zipf_weights(10, 0.0)
        assert uniform[0] == pytest.approx(uniform[-1])


class TestTpch:
    def test_load_counts_and_fk_integrity(self, tpch_db):
        lineitem = tpch_db.table("lineitem")
        orders = tpch_db.table("orders")
        assert lineitem.num_rows > orders.num_rows > 0
        order_keys = set(orders.column("o_orderkey").to_list())
        assert set(lineitem.column("l_orderkey").to_list()) <= order_keys

    def test_query_set_complete(self):
        queries = tpch.all_queries()
        assert len(queries) == 20
        assert set(tpch.FIGURE6_QUERIES) <= set(tpch.query_numbers())

    def test_q1_q6_excluded(self):
        with pytest.raises(WorkloadError):
            tpch.query(1)
        with pytest.raises(WorkloadError):
            tpch.query(6)

    def test_q5_is_cyclic_others_in_figure6_acyclic(self, tpch_db):
        for number in tpch.FIGURE6_QUERIES:
            graph = tpch_db.join_graph(tpch.query(number), use_filtered_sizes=False)
            if number in tpch.CYCLIC_QUERIES:
                assert not is_alpha_acyclic(graph), f"Q{number} should be cyclic"
            else:
                assert is_alpha_acyclic(graph), f"Q{number} should be acyclic"

    def test_queries_execute_consistently(self, tpch_db):
        for number in (3, 5, 10, 11):
            query = tpch.query(number)
            base = tpch_db.execute(query, mode=ExecutionMode.BASELINE)
            rpt = tpch_db.execute(query, mode=ExecutionMode.RPT)
            assert base.aggregates == rpt.aggregates


class TestJob:
    def test_load_and_fk_integrity(self, job_db):
        mk = job_db.table("movie_keyword")
        titles = set(job_db.table("title").column("id").to_list())
        assert set(mk.column("movie_id").to_list()) <= titles

    def test_all_33_templates_exist_and_are_acyclic(self, job_db):
        queries = job.all_queries()
        assert len(queries) == 33
        for name, query in queries.items():
            graph = job_db.join_graph(query, use_filtered_sizes=False)
            assert query.is_connected(), name
            assert is_alpha_acyclic(graph), f"{name} should be acyclic"

    def test_invalid_template_rejected(self):
        with pytest.raises(WorkloadError):
            job.query(34)

    def test_template_sizes_grow(self):
        assert job.query(29).num_joins > job.query(3).num_joins

    def test_queries_execute_consistently(self, job_db):
        for number in (2, 3, 17, 32):
            query = job.query(number)
            base = job_db.execute(query, mode=ExecutionMode.BASELINE)
            rpt = job_db.execute(query, mode=ExecutionMode.RPT)
            assert base.aggregates == rpt.aggregates


class TestTpcds:
    @pytest.fixture(scope="class")
    def tpcds_db(self):
        db = Database()
        tpcds.load(db, scale=0.1, seed=2)
        return db

    def test_query_subset_contains_discussed_queries(self):
        numbers = set(tpcds.query_numbers())
        assert set(tpcds.CYCLIC_QUERIES) <= numbers
        assert set(tpcds.SPECIAL_CASE_QUERIES) <= numbers
        assert set(tpcds.FIGURE8_QUERIES) <= numbers
        assert len(numbers) >= 30

    def test_cyclic_classification(self, tpcds_db):
        for number in tpcds.query_numbers():
            graph = tpcds_db.join_graph(tpcds.query(number), use_filtered_sizes=False)
            if number in tpcds.CYCLIC_QUERIES:
                assert not is_alpha_acyclic(graph), f"Q{number} should be cyclic"
            else:
                assert is_alpha_acyclic(graph), f"Q{number} should be acyclic"

    def test_q29_acyclic_with_composite_key_join(self, tpcds_db):
        """The paper singles out Q29 as acyclic but not γ-acyclic.

        The reproduction preserves the acyclic + composite-key-join structure
        (ss ⋈ sr on item_sk and ticket_number), so the *practical* γ-acyclicity
        check the paper proposes — "no two relations joined on more than one
        attribute" — fails and the engine must fall back to SafeSubjoin
        supervision for this query.
        """
        from repro.core import has_composite_edges

        graph = tpcds_db.join_graph(tpcds.query(29), use_filtered_sizes=False)
        assert tpcds_db.is_acyclic(tpcds.query(29))
        assert has_composite_edges(graph)

    def test_post_join_predicates_present_for_q13_q48(self):
        assert tpcds.query(13).post_join_predicates
        assert tpcds.query(48).post_join_predicates

    def test_unknown_query_rejected(self):
        with pytest.raises(WorkloadError):
            tpcds.query(1)

    def test_queries_execute_consistently(self, tpcds_db):
        for number in (3, 13, 19, 54, 83):
            query = tpcds.query(number)
            base = tpcds_db.execute(query, mode=ExecutionMode.BASELINE)
            rpt = tpcds_db.execute(query, mode=ExecutionMode.RPT)
            assert base.aggregates == rpt.aggregates, number


class TestDsb:
    def test_dsb_reuses_tpcds_structures_with_skew(self):
        db = Database()
        dsb.load(db, scale=0.1)
        query = dsb.query(3)
        assert query.name.startswith("dsb_")
        assert query.num_joins == tpcds.query(3).num_joins
        result_base = db.execute(query, mode=ExecutionMode.BASELINE)
        result_rpt = db.execute(query, mode=ExecutionMode.RPT)
        assert result_base.aggregates == result_rpt.aggregates

    def test_dsb_data_is_skewed(self):
        import numpy as np

        plain_db, skew_db = Database(), Database()
        tpcds.load(plain_db, scale=0.1, seed=9, skew=0.0)
        tpcds.load(skew_db, scale=0.1, seed=9, skew=1.0)
        plain = plain_db.table("store_sales").column("ss_item_sk").data
        skewed = skew_db.table("store_sales").column("ss_item_sk").data
        top_plain = np.bincount(plain).max() / plain.shape[0]
        top_skew = np.bincount(skewed).max() / skewed.shape[0]
        assert top_skew > top_plain

    def test_query_numbers_match(self):
        assert dsb.query_numbers() == tpcds.query_numbers()
