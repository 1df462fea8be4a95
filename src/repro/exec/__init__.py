"""Vectorized execution layer: kernels, executors, backends, statistics."""

from repro.exec.adaptive import DEFAULT_MIN_YIELD, AdaptiveTransferController
from repro.exec.chunk import DEFAULT_CHUNK_SIZE, num_chunks
from repro.exec.hashcache import HashCache
from repro.exec.join_phase import JoinPhaseExecutor, JoinPhaseOptions
from repro.exec.kernels import (
    DEFAULT_PARTITION_BITS,
    HashIndex,
    JoinMatches,
    KeyPartitions,
    PartitionedHashIndex,
    as_hash_index,
    bloom_probe_cost,
    combine_key_columns,
    combine_key_columns_pair,
    hash_probe_cost,
    match_keys,
    radix_hash,
    radix_partition,
    radix_partition_ids,
    semi_join_mask,
)
from repro.exec.parallel import ParallelismModel, simulate_parallel_cost
from repro.exec.pipeline import (
    DEFAULT_MORSEL_SIZE,
    ChunkedBackend,
    ExecutionBackend,
    ParallelBackend,
    PipelineExecutor,
    PipelineOptions,
    PipelineResult,
    SerialBackend,
    compute_aggregates,
    make_backend,
)
from repro.exec.relation import BoundRelation, IntermediateResult, bind_relations
from repro.exec.spill import SpillConfig, SpillManager, simulate_spill
from repro.exec.statistics import (
    ExecutionStats,
    JoinStepStats,
    OpStats,
    PhaseTimings,
    TransferStepStats,
    merge_reduced_rows,
)
from repro.exec.transfer import TransferExecutor, TransferOptions

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "DEFAULT_MIN_YIELD",
    "DEFAULT_MORSEL_SIZE",
    "DEFAULT_PARTITION_BITS",
    "AdaptiveTransferController",
    "BoundRelation",
    "ChunkedBackend",
    "ExecutionBackend",
    "ExecutionStats",
    "HashCache",
    "HashIndex",
    "IntermediateResult",
    "JoinMatches",
    "JoinPhaseExecutor",
    "JoinPhaseOptions",
    "JoinStepStats",
    "KeyPartitions",
    "OpStats",
    "ParallelBackend",
    "PartitionedHashIndex",
    "ParallelismModel",
    "PhaseTimings",
    "PipelineExecutor",
    "PipelineOptions",
    "PipelineResult",
    "SerialBackend",
    "SpillConfig",
    "SpillManager",
    "TransferExecutor",
    "TransferOptions",
    "TransferStepStats",
    "as_hash_index",
    "bind_relations",
    "bloom_probe_cost",
    "combine_key_columns",
    "combine_key_columns_pair",
    "compute_aggregates",
    "hash_probe_cost",
    "make_backend",
    "match_keys",
    "merge_reduced_rows",
    "num_chunks",
    "radix_hash",
    "radix_partition",
    "radix_partition_ids",
    "semi_join_mask",
    "simulate_parallel_cost",
    "simulate_spill",
]
