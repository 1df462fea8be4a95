"""Names of the per-layer metrics and the end-to-end metric each should move.

Kept free of engine imports so that ``compare.py`` runs without ``src/``.
"""

#: Physical-op kinds of the compiled plan (``repro.plan.physical``); each
#: gets an ``exec.op.<kind>_ms`` metric, 0 where a workload never runs it.
OP_KINDS = (
    "scan",
    "filter_push",
    "bloom_build",
    "bloom_probe",
    "semi_join_reduce",
    "partition",
    "partitioned_hash_build",
    "partitioned_hash_probe",
    "hash_build",
    "hash_probe",
    "aggregate",
)

#: Which end-to-end metric each per-layer metric should move, and where.
#: ``BENCHMARK.json`` has no field for this, so it lives here and
#: ``compare.py`` prints it beside the layer that moved most.
MOVES = {
    "sql.compile_ms": "latency on every workload (under 2% of wall time)",
    "optimizer.plan_ms": "qps and latencies on job-plan; serve-mix only on plan-cache misses; 0 on random-orders",
    "optimizer.card_calls": "qps and latencies on job-plan",
    "optimizer.card_ms": "qps and latencies on job-plan",
    "engine.join_graph_ms": "latency everywhere (under 1% today)",
    "core.schedule_ms": "latency everywhere (under 1% today)",
    "plan.compile_ms": "latency everywhere (under 1% today)",
    "exec.run_ms": "qps and latency_p90_ms on serve-mix, tpch-exec and random-orders",
    "exec.scan_filter_ms": "qps and latency_p90_ms on serve-mix, tpch-exec and random-orders",
    "exec.transfer_ms": "qps and latency_p90_ms on serve-mix, tpch-exec and random-orders",
    "exec.join_ms": "qps and latency_p90_ms on serve-mix, tpch-exec and random-orders",
    "exec.aggregate_ms": "qps and latency_p90_ms on serve-mix, tpch-exec and random-orders",
    "exec.transfer_rows_in": "qps on serve-mix, tpch-exec and random-orders",
    "exec.transfer_rows_eliminated": "qps on serve-mix, tpch-exec and random-orders",
    "exec.transfer_yield": "qps on serve-mix, tpch-exec and random-orders",
    "exec.bloom_bytes": "peak_rss_mb and qps on serve-mix and tpch-exec",
    "exec.join_tuples": "latency_p90_ms on serve-mix, tpch-exec and random-orders",
    "exec.intermediate_rows": "latency_p90_ms on serve-mix, tpch-exec and random-orders",
    "exec.peak_reserved_bytes": "peak_rss_mb on every workload",
    "exec.order_spread": "latency_p90_ms on random-orders (the paper's robustness claim); 1.0 under one plan",
    "engine.plancache_hit_ratio": "qps, latency_p50_ms and latency_p90_ms on serve-mix",
    "engine.admission_wait_ms": "latency_p50_ms and latency_p90_ms on serve-mix",
    "storage.replace_ms": "qps and latency_p90_ms on serve-mix",
    "storage.replaces": "qps on serve-mix",
    "workloads.generate_s": "setup_s on every workload",
    "setup.warm_s": "setup_s on every workload",
    "engine.residue_ms": "latency on every workload (work outside the named layers)",
    "engine.residue_share": "latency on every workload (work outside the named layers)",
    "trace.wall_ms": "the traced twin of the latency metrics",
    "trace.overhead_ratio": "none: the cost of the traced run itself",
}
for _kind in OP_KINDS:
    MOVES[f"exec.op.{_kind}_ms"] = "qps and latency_p90_ms on serve-mix, tpch-exec and random-orders"
