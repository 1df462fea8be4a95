"""Backend-pluggable pipeline executor for compiled :class:`PhysicalPlan` ops.

This is the single runtime behind every execution mode: the engine compiles
``(QuerySpec, JoinPlan, TransferSchedule)`` into one flat op list
(:mod:`repro.plan.physical`) and the :class:`PipelineExecutor` here runs it.
Transfer-phase ops (``BloomBuild``/``BloomProbe``/``SemiJoinReduce``) reduce
:class:`~repro.exec.relation.BoundRelation` objects in place; join-phase ops
(``HashBuild``/``HashProbe``) flow through late-materialized intermediate
*slots*; ``Aggregate`` finishes the query.  Each op is timed individually,
producing the uniform per-op trace (``ExecutionStats.op_stats``) shared by
all five modes.

Three backends implement the probe/match hot loops:

* :class:`SerialBackend` — whole-column NumPy kernels (the default);
* :class:`ChunkedBackend` — morsel-driven: probe inputs are processed in
  :data:`~repro.exec.chunk.DEFAULT_CHUNK_SIZE`-row chunks and a
  :class:`~repro.exec.parallel.ParallelismModel` accrues the simulated
  multi-threaded cost of each probe pipeline
  (``ExecutionStats.simulated_parallel_cost``).  Results are bit-identical
  to the serial backend.
* :class:`ParallelBackend` — a *real* morsel-driven scheduler over a
  ``ThreadPoolExecutor``: probe inputs are cut into chunk-granularity
  morsels dispatched to worker threads (the NumPy kernels release the GIL
  on large inputs), per-partition hash builds run as concurrent partial
  builds merged at the pipeline breaker, and results are gathered in
  dispatch order so they stay bit-identical to the serial backend.

Radix-partitioned joins (``Partition`` / ``PartitionedHashBuild`` /
``PartitionedHashProbe`` ops) execute on any backend; under the parallel
backend each partition is an independent task.  A
:class:`~repro.storage.buffer.MemoryGovernor`, when configured, is consulted
*during* execution: build sides and partitions reserve budget before
materializing, over-budget reservations spill through the
:class:`~repro.exec.spill.SpillManager` callback, and probing spilled state
charges the reload — surfaced per op in ``ExecutionStats.op_stats``.

The executor also owns the cross-pipeline :class:`~repro.exec.kernels.HashIndex`
cache: a build side probed by multiple pipelines (e.g. a join-tree node that
reduces several children during the backward transfer pass) is sorted once
and the sorted index is reused until the relation is reduced again.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.bloom.bloom_filter import (
    DEFAULT_FPR,
    BloomFilter,
    filter_bytes_for,
    hash_keys,
    key_patterns,
)
from repro.bloom.registry import BloomFilterRegistry, FilterKey
from repro.core.join_graph import JoinGraph
from repro.errors import BackendUnavailable, CatalogError, ExecutionError, MemoryExhausted
from repro.exec import faults
from repro.exec.adaptive import DEFAULT_MIN_YIELD, AdaptiveTransferController
from repro.exec.chunk import DEFAULT_CHUNK_SIZE
from repro.exec.faults import CancelToken
from repro.exec.kernels import (
    HashIndex,
    JoinMatches,
    PartitionedHashIndex,
    bloom_probe_cost,
    combine_key_columns_pair,
    hash_probe_cost,
)
from repro.exec.hashcache import HashCache
from repro.exec.parallel import ParallelismModel, gather_in_order
from repro.exec.relation import BoundRelation, IntermediateResult
from repro.obs.trace import Span
from repro.exec.statistics import ExecutionStats, JoinStepStats, OpStats, TransferStepStats
from repro.plan.physical import (
    SCOPE_JOIN,
    Aggregate,
    BloomBuild,
    BloomProbe,
    FilterPush,
    HashBuild,
    HashProbe,
    Operand,
    Partition,
    PartitionedHashBuild,
    PartitionedHashProbe,
    PhysicalPlan,
    Scan,
    SemiJoinReduce,
)
from repro.optimizer.cardinality import KMVSketch
from repro.query import PostJoinPredicate, QuerySpec
from repro.storage.artifacts import (
    FINGERPRINT_COLUMN,
    KIND_BLOOM,
    KIND_BLOOM_PASS,
    KIND_HASH_INDEX,
    KIND_NDV_SKETCH,
    ArtifactCache,
    ArtifactKey,
)
from repro.storage.buffer import MemoryGovernor

#: Threads the parallel backend uses when not configured explicitly: one per
#: CPU, capped at the paper testbed's 32.
MAX_DEFAULT_THREADS = 32

#: Morsel granularity of the parallel backend.  Larger than the chunked
#: backend's simulation granularity: each morsel must carry enough work to
#: amortize task dispatch in pure Python.
DEFAULT_MORSEL_SIZE = 32_768


#: A probe input: one key array, or a tuple of equal-length per-row arrays
#: (e.g. a precomputed (hashes, patterns) pair).  Backends slice every
#: component identically when cutting morsels, so a probe function receives
#: aligned slices.
ProbeInput = Union[np.ndarray, Tuple[np.ndarray, ...]]


def _as_probe_input(keys: ProbeInput) -> ProbeInput:
    if isinstance(keys, tuple):
        return tuple(np.asarray(part) for part in keys)
    return np.asarray(keys)


def _probe_rows(keys: ProbeInput) -> int:
    if isinstance(keys, tuple):
        return int(keys[0].shape[0])
    return int(keys.shape[0])


def _slice_probe_input(keys: ProbeInput, lo: int, hi: int) -> ProbeInput:
    if isinstance(keys, tuple):
        return tuple(part[lo:hi] for part in keys)
    return keys[lo:hi]


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------
class ExecutionBackend:
    """Strategy object for the probe/match hot loops of the pipeline executor.

    ``tasks_dispatched`` counts the morsels / partition tasks the backend has
    processed; the executor samples it around each op to surface per-op
    parallelism counters in ``ExecutionStats.op_stats``.
    """

    name = "backend"

    def __init__(self) -> None:
        self.tasks_dispatched = 0
        #: Cooperative cancellation token installed by the engine for the
        #: current query (None: no deadline, no cancel).  Checked at morsel
        #: gather barriers and at chunk granularity inside long kernels.
        self.cancel: Optional[CancelToken] = None

    def ensure_ready(self) -> None:
        """Bring up backend resources (worker pools) before the first op.

        Raises :class:`~repro.errors.BackendUnavailable` when the backend
        cannot start — the engine's degradation ladder catches that and
        falls back to the next backend down.  The default backend needs no
        resources.
        """

    def _check_cancel(self) -> None:
        if self.cancel is not None:
            self.cancel.check()

    def probe_mask(self, keys: ProbeInput, probe_fn, prepare=None) -> np.ndarray:
        """Evaluate ``probe_fn`` (probe input -> boolean mask) over ``keys``.

        ``keys`` is a key array or a tuple of aligned per-row arrays (a
        precomputed hash/pattern pass); morsel backends slice every component
        identically.  ``prepare`` (optional thunk) freezes lazily-built probe
        structures for concurrent read-only access; only fan-out backends
        invoke it.
        """
        raise NotImplementedError

    def match(self, probe_keys: np.ndarray, index: HashIndex) -> JoinMatches:
        """Match probe keys against a build-side index."""
        raise NotImplementedError

    def map_tasks(self, tasks: Sequence[Callable[[], object]]) -> List[object]:
        """Run independent thunks and return their results in order."""
        self.tasks_dispatched += len(tasks)
        return [task() for task in tasks]

    def account_probe(self, probe_rows: int) -> None:
        """Accrue simulated-parallelism cost for a probe pipeline that bypasses
        :meth:`probe_mask`/:meth:`match` (the partitioned join path).  Only the
        chunked backend's Figure 14 model does anything here."""

    def close(self) -> None:
        """Release backend resources (worker pools); idempotent."""


#: Rows per cancellation check inside the serial backend's kernels when a
#: cancel token is installed.  Large enough that the chunking cost is noise
#: (the probe kernels are elementwise, so results stay bit-identical), small
#: enough that a deadline is honored promptly on big columns.
SERIAL_CANCEL_CHUNK = 1 << 18


class SerialBackend(ExecutionBackend):
    """Whole-column execution: one vectorized kernel call per probe.

    With a cancel token installed, long kernels run at
    :data:`SERIAL_CANCEL_CHUNK` granularity with the token checked between
    chunks — the probe kernels are elementwise and the match chunking applies
    the chunked backend's offset correction, so results are bit-identical to
    the single-call path.
    """

    name = "serial"

    def probe_mask(self, keys: ProbeInput, probe_fn, prepare=None) -> np.ndarray:
        if self.cancel is None:
            return probe_fn(keys)
        keys = _as_probe_input(keys)
        total = _probe_rows(keys)
        self._check_cancel()
        if total <= SERIAL_CANCEL_CHUNK:
            return probe_fn(keys)
        parts = []
        for start in range(0, total, SERIAL_CANCEL_CHUNK):
            self._check_cancel()
            parts.append(probe_fn(_slice_probe_input(keys, start, start + SERIAL_CANCEL_CHUNK)))
        return np.concatenate(parts)

    def match(self, probe_keys: np.ndarray, index: HashIndex) -> JoinMatches:
        if self.cancel is None:
            return index.match(probe_keys)
        probe_keys = np.asarray(probe_keys)
        self._check_cancel()
        if probe_keys.shape[0] <= SERIAL_CANCEL_CHUNK:
            return index.match(probe_keys)
        probe_parts: List[np.ndarray] = []
        build_parts: List[np.ndarray] = []
        for start in range(0, probe_keys.shape[0], SERIAL_CANCEL_CHUNK):
            self._check_cancel()
            matches = index.match(probe_keys[start : start + SERIAL_CANCEL_CHUNK])
            probe_parts.append(matches.probe_indices + start)
            build_parts.append(matches.build_indices)
        return JoinMatches(
            probe_indices=np.concatenate(probe_parts),
            build_indices=np.concatenate(build_parts),
        )


class ChunkedBackend(ExecutionBackend):
    """Morsel-driven execution: probe inputs are processed chunk at a time.

    Produces results identical to :class:`SerialBackend` while exercising the
    chunked granularity of the original push-based engine, and accrues the
    simulated multi-threaded cost of every probe pipeline through a
    :class:`~repro.exec.parallel.ParallelismModel` (the Figure 14 model: a
    probe side with few chunks cannot keep all threads busy).
    """

    name = "chunked"

    def __init__(
        self,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        parallelism: Optional[ParallelismModel] = None,
    ) -> None:
        super().__init__()
        if chunk_size <= 0:
            raise ExecutionError("chunk size must be positive")
        self.chunk_size = chunk_size
        self.parallelism = parallelism or ParallelismModel(chunk_size=chunk_size)
        self.simulated_cost = 0.0

    def _account(self, probe_rows: int) -> None:
        effective = self.parallelism.effective_parallelism(probe_rows)
        self.simulated_cost += float(probe_rows) / effective + self.parallelism.pipeline_overhead

    def account_probe(self, probe_rows: int) -> None:
        self._account(probe_rows)

    def probe_mask(self, keys: ProbeInput, probe_fn, prepare=None) -> np.ndarray:
        keys = _as_probe_input(keys)
        total = _probe_rows(keys)
        self._account(total)
        self._check_cancel()
        if total <= self.chunk_size:
            self.tasks_dispatched += 1
            return probe_fn(keys)
        parts = []
        for start in range(0, total, self.chunk_size):
            self._check_cancel()
            parts.append(probe_fn(_slice_probe_input(keys, start, start + self.chunk_size)))
        self.tasks_dispatched += len(parts)
        return np.concatenate(parts)

    def match(self, probe_keys: np.ndarray, index: HashIndex) -> JoinMatches:
        probe_keys = np.asarray(probe_keys)
        self._account(int(probe_keys.shape[0]))
        self._check_cancel()
        if probe_keys.shape[0] <= self.chunk_size:
            self.tasks_dispatched += 1
            return index.match(probe_keys)
        probe_parts: List[np.ndarray] = []
        build_parts: List[np.ndarray] = []
        for start in range(0, probe_keys.shape[0], self.chunk_size):
            self._check_cancel()
            matches = index.match(probe_keys[start : start + self.chunk_size])
            probe_parts.append(matches.probe_indices + start)
            build_parts.append(matches.build_indices)
        self.tasks_dispatched += len(probe_parts)
        return JoinMatches(
            probe_indices=np.concatenate(probe_parts),
            build_indices=np.concatenate(build_parts),
        )


class ParallelBackend(ExecutionBackend):
    """Morsel-parallel execution over a real thread pool.

    Probe inputs are cut into ``morsel_size``-row morsels dispatched to a
    ``ThreadPoolExecutor``; the NumPy probe kernels (Bloom probes, bitmap /
    binary-search membership, ``searchsorted`` matching) release the GIL on
    large arrays, so morsels genuinely overlap.  Futures are gathered in
    dispatch order and concatenated, which makes every result bit-identical
    to the serial backend regardless of thread scheduling.  Lazily-built
    probe structures are frozen (``HashIndex.prepare``/``prepare_match``)
    before fan-out so worker threads only read shared state.

    The pool is created on first use and must be released with
    :meth:`close` (the engine does this per execution).
    """

    name = "parallel"

    def __init__(
        self,
        num_threads: Optional[int] = None,
        morsel_size: int = DEFAULT_MORSEL_SIZE,
    ) -> None:
        super().__init__()
        if num_threads is not None and num_threads <= 0:
            raise ExecutionError("parallel backend needs at least one thread")
        if morsel_size <= 0:
            raise ExecutionError("morsel size must be positive")
        self.num_threads = num_threads or min(MAX_DEFAULT_THREADS, os.cpu_count() or 1)
        self.morsel_size = morsel_size
        self._pool: Optional[ThreadPoolExecutor] = None

    def _pool_instance(self) -> ThreadPoolExecutor:
        if self._pool is None:
            faults.fire("parallel.pool", "injected thread-pool start failure")
            self._pool = ThreadPoolExecutor(
                max_workers=self.num_threads, thread_name_prefix="repro-morsel"
            )
        return self._pool

    def ensure_ready(self) -> None:
        try:
            self._pool_instance()
        except Exception as error:
            raise BackendUnavailable(f"thread pool unavailable: {error}") from error

    def map_tasks(self, tasks: Sequence[Callable[[], object]]) -> List[object]:
        tasks = list(tasks)
        self.tasks_dispatched += len(tasks)
        if len(tasks) <= 1 or self.num_threads == 1:
            results = []
            for task in tasks:
                self._check_cancel()
                results.append(task())
            return results
        pool = self._pool_instance()
        futures = [pool.submit(task) for task in tasks]
        return gather_in_order(futures, self.cancel)

    def _morsels(self, total_rows: int) -> List[Tuple[int, int]]:
        return [
            (start, min(start + self.morsel_size, total_rows))
            for start in range(0, total_rows, self.morsel_size)
        ]

    def probe_mask(self, keys: ProbeInput, probe_fn, prepare=None) -> np.ndarray:
        keys = _as_probe_input(keys)
        total = _probe_rows(keys)
        if total <= self.morsel_size:
            self.tasks_dispatched += 1
            return probe_fn(keys)
        if prepare is not None:
            prepare()
        parts = self.map_tasks(
            [
                (lambda lo=lo, hi=hi: probe_fn(_slice_probe_input(keys, lo, hi)))
                for lo, hi in self._morsels(total)
            ]
        )
        return np.concatenate(parts)

    def match(self, probe_keys: np.ndarray, index: HashIndex) -> JoinMatches:
        probe_keys = np.asarray(probe_keys)
        if probe_keys.shape[0] <= self.morsel_size:
            self.tasks_dispatched += 1
            return index.match(probe_keys)
        index.prepare_match(int(probe_keys.shape[0]))
        morsels = self._morsels(int(probe_keys.shape[0]))
        results = self.map_tasks(
            [(lambda lo=lo, hi=hi: index.match(probe_keys[lo:hi])) for lo, hi in morsels]
        )
        probe_parts = [m.probe_indices + lo for m, (lo, _) in zip(results, morsels)]
        return JoinMatches(
            probe_indices=np.concatenate(probe_parts),
            build_indices=np.concatenate([m.build_indices for m in results]),
        )

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


def make_backend(
    name: str,
    chunk_size: Optional[int] = None,
    num_threads: Optional[int] = None,
) -> ExecutionBackend:
    """Instantiate a backend by name (``"serial"``, ``"chunked"``, or ``"parallel"``).

    ``chunk_size=None`` takes each backend's own default granularity
    (:data:`~repro.exec.chunk.DEFAULT_CHUNK_SIZE` for the chunked backend,
    the larger :data:`DEFAULT_MORSEL_SIZE` for the parallel one).
    ``num_threads`` configures the thread backend.
    """
    if name == "serial":
        return SerialBackend()
    if name == "chunked":
        return ChunkedBackend(
            chunk_size=DEFAULT_CHUNK_SIZE if chunk_size is None else chunk_size
        )
    if name == "parallel":
        return ParallelBackend(
            num_threads=num_threads,
            morsel_size=DEFAULT_MORSEL_SIZE if chunk_size is None else chunk_size,
        )
    raise ExecutionError(
        f"unknown pipeline backend {name!r}; expected 'serial', 'chunked', or 'parallel'"
    )


# ---------------------------------------------------------------------------
# Options / result
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class PipelineOptions:
    """Runtime knobs of the pipeline executor (compiled plans carry no data params)."""

    transfer_fpr: float = DEFAULT_FPR
    join_fpr: float = DEFAULT_FPR
    prune_trivial_semijoins: bool = True
    allow_cartesian_products: bool = False


@dataclass
class PipelineResult:
    """Outcome of one :meth:`PipelineExecutor.run` call."""

    relations: Dict[str, BoundRelation]
    final: Optional[IntermediateResult] = None
    aggregates: Optional[Dict[str, float]] = None


#: Execution phase each op kind is accounted under (join-scoped Bloom ops override).
_PHASE_BY_KIND = {
    "scan": "scan_filter",
    "filter_push": "scan_filter",
    "bloom_build": "transfer",
    "bloom_probe": "transfer",
    "semi_join_reduce": "transfer",
    "hash_build": "join",
    "hash_probe": "join",
    "partition": "join",
    "partitioned_hash_build": "join",
    "partitioned_hash_probe": "join",
    "aggregate": "aggregate",
}


@dataclass
class _TransferStage:
    """Build-side state handed from a transfer ``BloomBuild`` to its ``BloomProbe``.

    The build side is either a Bloom filter (``bloom``) or — when the
    adaptive exact-bitmap downgrade fired — a prepared
    :class:`~repro.exec.kernels.HashIndex` whose bitmap membership table
    replaces the filter entirely (``exact_index``; no false positives).

    Exactly one probe-side representation is populated: ``target_keys``
    (an eagerly materialized key array — the historical path),
    ``target_pass`` (an eagerly gathered precomputed hash/pattern pair), or
    ``target_column`` (the selection-vector path: the probe op gathers that
    column of ``op.target`` over the immutable base table by the relation's
    current row ids, materializing nothing in between).
    """

    build_rows: int
    bloom: Optional[BloomFilter] = None
    exact_index: Optional[HashIndex] = None
    target_keys: Optional[np.ndarray] = None
    target_pass: Optional[Tuple[np.ndarray, np.ndarray]] = None
    target_column: Optional[str] = None


@dataclass
class _JoinBloomStage:
    """State handed from a join-scoped ``BloomBuild`` to its ``BloomProbe``."""

    bloom: BloomFilter
    probe_keys: np.ndarray
    build_keys: np.ndarray
    probe_pass: Optional[Tuple[np.ndarray, np.ndarray]] = None


@dataclass
class _BuildStage:
    """Materialized build side handed from ``HashBuild`` to ``HashProbe``."""

    result: IntermediateResult
    index: Optional[HashIndex] = None
    keys: Optional[np.ndarray] = None
    partitioned: Optional[PartitionedHashIndex] = None


class PipelineExecutor:
    """Runs a compiled :class:`~repro.plan.physical.PhysicalPlan` op list.

    One executor instance serves one query execution (it owns the run's
    Bloom-filter registry, hash-index cache, and pending post-join
    predicates); the backend decides how the probe hot loops run.
    """

    def __init__(
        self,
        query: QuerySpec,
        graph: JoinGraph,
        catalog=None,
        options: Optional[PipelineOptions] = None,
        backend: Optional[ExecutionBackend] = None,
        registry: Optional[BloomFilterRegistry] = None,
        governor: Optional[MemoryGovernor] = None,
        hash_cache: Optional[HashCache] = None,
        selection_vectors: bool = True,
        artifact_cache: Optional[ArtifactCache] = None,
        table_versions: Optional[Mapping[str, int]] = None,
        fingerprints: Optional[Mapping[str, str]] = None,
        adaptive_transfer: bool = False,
        adaptive_min_yield: float = DEFAULT_MIN_YIELD,
        ndv_sizing: bool = False,
        bitmap_downgrade: bool = False,
        encodings: bool = False,
        tracer=None,
    ) -> None:
        self.query = query
        self.graph = graph
        self.catalog = catalog
        self.options = options or PipelineOptions()
        self.backend = backend or SerialBackend()
        self.registry = registry or BloomFilterRegistry()
        self.governor = governor
        #: Query-lifetime hash cache (None disables hash reuse).
        self.hash_cache = hash_cache
        #: Late-materialized transfer probes (bit-identical re-ordering of
        #: the same gathers; off restores eager key materialization).
        self.selection_vectors = selection_vectors
        #: Cross-query artifact cache + the identity context needed to key
        #: it (catalog table versions and base-filter fingerprints, both
        #: supplied by the engine; fragments run without them).
        self.artifact_cache = artifact_cache
        self._table_versions = dict(table_versions or {})
        self._fingerprints = dict(fingerprints or {})
        #: Adaptive transfer execution: yield-driven pass skipping
        #: (controller built per run from the compiled plan), KMV/NDV-based
        #: Bloom sizing, and the exact-bitmap downgrade.
        self.adaptive_transfer = adaptive_transfer
        self.adaptive_min_yield = adaptive_min_yield
        self.ndv_sizing = ndv_sizing
        self.bitmap_downgrade = bitmap_downgrade
        #: id(column data) -> KMVSketch, memoized for the executor lifetime
        #: (the cross-query ArtifactCache persists sketches beyond it).
        self._ndv_memo: Dict[int, Tuple[np.ndarray, KMVSketch]] = {}
        #: Block-encoded execution: every cache key (hash cache, artifact
        #: cache) carries the column's encoding token so encoded and raw
        #: artifacts never alias at the same catalog version.
        self.encodings = encodings
        #: Optional :class:`~repro.obs.trace.Tracer`: when set, the run
        #: loop records one ``op`` span per dispatched op (grouped under
        #: ``phase`` spans) with a ``batch`` child summarizing morsel
        #: fan-out.  Purely observational — results are bit-identical.
        self.tracer = tracer
        self._refs = {ref.alias: ref for ref in query.relations}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(
        self,
        plan: PhysicalPlan,
        stats: ExecutionStats,
        relations: Optional[Dict[str, BoundRelation]] = None,
        masks: Optional[Mapping[str, Optional[np.ndarray]]] = None,
        finalize_root: Optional[Operand] = None,
        fused_filters: Optional[Mapping[str, int]] = None,
        zone_stats: Optional[Mapping[str, Tuple[int, int, int]]] = None,
    ) -> PipelineResult:
        """Execute every op of ``plan`` in order.

        ``relations`` supplies pre-bound relations for plan *fragments* that
        carry no ``Scan`` ops (the transfer / join compilers); ``masks``
        supplies precomputed base-filter masks so predicates evaluated during
        planning are not evaluated again by ``FilterPush``.  With
        ``finalize_root`` (fragments without an ``Aggregate`` op) the root
        operand is materialized, remaining post-join predicates are applied,
        and ``stats.output_rows`` is set.  ``fused_filters`` maps aliases
        whose pushed-down predicate was evaluated by a fused kernel to the
        rows the kernel short-circuited, for the op trace; ``zone_stats``
        maps aliases whose predicate ran with zone-map block skipping to a
        ``(blocks_skipped, blocks_total, encoded_bytes)`` triple, folded
        into the alias's ``FilterPush`` entry the same way.
        """
        self._relations: Dict[str, BoundRelation] = relations if relations is not None else {}
        self._masks = masks
        self._fused_filters = dict(fused_filters or {})
        self._zone_stats = dict(zone_stats or {})
        self._slots: Dict[int, IntermediateResult] = {}
        self._materialized: Dict[Operand, IntermediateResult] = {}
        self._transfer_stages: Dict[int, _TransferStage] = {}
        self._join_bloom_stages: Dict[int, _JoinBloomStage] = {}
        self._build_stages: Dict[int, _BuildStage] = {}
        self._skipped_steps: set[int] = set()
        self._join_bloom_eliminated: Dict[int, int] = {}
        self._join_probe_keys: Dict[int, np.ndarray] = {}
        self._index_cache: Dict[Tuple[str, Tuple[str, ...]], Tuple[int, HashIndex]] = {}
        self._filtered: Optional[set[str]] = None
        self._pending_predicates: List[PostJoinPredicate] = list(self.query.post_join_predicates)
        self._aggregates: Optional[Dict[str, float]] = None
        self._final: Optional[IntermediateResult] = None
        # Artifact eligibility: a relation's artifacts are keyed by its
        # *base* state (scan + pushed-down filter, before any transfer
        # reduction), identified by the version snapshot taken here and
        # refreshed by Scan / FilterPush ops.
        self._base_versions: Dict[str, int] = {
            alias: relation.version for alias, relation in self._relations.items()
        }
        self._artifact_reserved: List[str] = []
        self._artifact_hits = 0
        self._artifact_misses = 0
        self._selvec_rows = 0
        # Adaptive transfer: one controller per run, built over this plan's
        # op list.  Per-op decision fields are reset before each dispatch and
        # folded into the op's stats entry after it.
        self._adaptive: Optional[AdaptiveTransferController] = (
            AdaptiveTransferController(plan, self.adaptive_min_yield)
            if self.adaptive_transfer
            else None
        )
        self._adaptive_skipped_steps: set[int] = set()
        self._op_index = -1
        self._op_adaptive_skip = False
        self._op_bytes_saved = 0
        self._op_downgraded = False
        self._op_blocks_skipped = 0
        self._op_blocks_total = 0
        self._op_encoded_bytes = 0
        self._op_degraded = ""
        self._stats = stats

        base_simulated = getattr(self.backend, "simulated_cost", 0.0)
        base_hash_hits = self.hash_cache.hits if self.hash_cache is not None else 0
        base_hash_misses = self.hash_cache.misses if self.hash_cache is not None else 0
        governor = self.governor
        if governor is not None:
            base_spill_events = governor.spill_events
            base_spilled = governor.spilled_bytes
            base_reloaded = governor.reloaded_bytes
            base_spill_failures = governor.spill_failures
        cancel = getattr(self.backend, "cancel", None)
        tracer = self.tracer
        trace_phase_span = None
        trace_phase_name = None
        try:
            for index, op in enumerate(plan):
                if cancel is not None:
                    cancel.check()
                delay = faults.injected_latency()
                if delay:
                    # Injected operator latency: deterministic wall-time
                    # inflation, the lever the timeout tests pull.
                    time.sleep(delay)
                phase = _PHASE_BY_KIND.get(op.kind, "join")
                if getattr(op, "scope", None) == SCOPE_JOIN:
                    phase = "join"
                tasks_before = self.backend.tasks_dispatched
                spilled_before = governor.spilled_bytes if governor is not None else 0
                hash_hits_before = self.hash_cache.hits if self.hash_cache is not None else 0
                hash_misses_before = self.hash_cache.misses if self.hash_cache is not None else 0
                selvec_before = self._selvec_rows
                artifact_hits_before = self._artifact_hits
                artifact_misses_before = self._artifact_misses
                self._op_index = index
                self._op_adaptive_skip = False
                self._op_bytes_saved = 0
                self._op_downgraded = False
                self._op_fused_rows = -1
                self._op_blocks_skipped = 0
                self._op_blocks_total = 0
                self._op_encoded_bytes = 0
                self._op_degraded = ""
                if tracer is not None:
                    if phase != trace_phase_name:
                        if trace_phase_span is not None:
                            tracer.finish(trace_phase_span)
                        trace_phase_span = tracer.start(phase, "phase")
                        trace_phase_name = phase
                    op_span = tracer.start(op.kind, "op", index=index)
                start = time.perf_counter()
                rows_in, rows_out, skipped = self._dispatch(op, stats)
                elapsed = time.perf_counter() - start
                setattr(stats.timings, phase, getattr(stats.timings, phase) + elapsed)
                if governor is not None and self.hash_cache is not None:
                    # The cached hash/pattern arrays are real memory; keep their
                    # reservation current — inside this op's spill-sampling
                    # window, so spills it forces are attributed to the op that
                    # grew the cache.  Non-evictable: the cache cannot be
                    # spilled, only released at the end of the run.
                    self._governed_reserve("hash_cache", self.hash_cache.nbytes, evictable=False)
                stats.op_stats.append(
                    OpStats(
                        index=index,
                        kind=op.kind,
                        detail=op.describe(),
                        rows_in=rows_in,
                        rows_out=rows_out,
                        seconds=elapsed,
                        skipped=skipped,
                        morsels=self.backend.tasks_dispatched - tasks_before,
                        spilled_bytes=(
                            governor.spilled_bytes - spilled_before if governor is not None else 0
                        ),
                        hash_hits=(
                            self.hash_cache.hits - hash_hits_before
                            if self.hash_cache is not None
                            else 0
                        ),
                        hash_misses=(
                            self.hash_cache.misses - hash_misses_before
                            if self.hash_cache is not None
                            else 0
                        ),
                        selvec_rows=self._selvec_rows - selvec_before,
                        artifact_hits=self._artifact_hits - artifact_hits_before,
                        artifact_misses=self._artifact_misses - artifact_misses_before,
                        adaptive_skipped=self._op_adaptive_skip,
                        filter_bytes_saved=self._op_bytes_saved,
                        downgraded_exact=self._op_downgraded,
                        fused_expr=self._op_fused_rows >= 0,
                        fused_rows_short_circuited=max(self._op_fused_rows, 0),
                        blocks_skipped=self._op_blocks_skipped,
                        blocks_total=self._op_blocks_total,
                        encoded_bytes=self._op_encoded_bytes,
                        degraded=self._op_degraded,
                    )
                )
                if self._op_bytes_saved:
                    stats.adaptive_filter_bytes_saved += self._op_bytes_saved
                if self._op_blocks_total:
                    stats.zone_blocks_skipped += self._op_blocks_skipped
                    stats.zone_blocks_total += self._op_blocks_total
                if self._op_encoded_bytes:
                    stats.encoded_bytes_touched += self._op_encoded_bytes
                if tracer is not None:
                    entry = stats.op_stats[-1]
                    if entry.morsels:
                        # One summary child per fanned-out op.
                        batch = Span(
                            name="morsels",
                            kind="batch",
                            start=op_span.start,
                            end=op_span.start + elapsed,
                            attrs={"count": entry.morsels},
                        )
                        op_span.children.append(batch)
                    if entry.adaptive_skipped:
                        tracer.event("adaptive:skip")
                    if entry.downgraded_exact:
                        tracer.event("adaptive:exact-bitmap")
                    if entry.spilled_bytes:
                        tracer.event("governor:spill", bytes=entry.spilled_bytes)
                    if entry.degraded:
                        tracer.event("degraded", rung=entry.degraded)
                    tracer.finish(
                        op_span,
                        rows_in=rows_in,
                        rows_out=rows_out,
                        skipped=skipped,
                        detail=entry.detail,
                    )

            if tracer is not None and trace_phase_span is not None:
                tracer.finish(trace_phase_span)
                trace_phase_span = None
            if finalize_root is not None and self._final is None:
                if cancel is not None:
                    cancel.check()
                finalize_span = (
                    tracer.start("finalize", "phase") if tracer is not None else None
                )
                with stats.time_phase("join"):
                    final = self._materialize(finalize_root)
                    final = self._apply_ready_predicates(final, force_all=True)
                if finalize_span is not None:
                    tracer.finish(finalize_span, rows=final.num_rows)
                stats.output_rows = final.num_rows
                self._final = final
        except BaseException:
            # Any exit path — injected fault, timeout, cancellation, genuine
            # error — must leave zero outstanding reservations: the governor
            # outlives this run only inside Database.execute's accounting,
            # and the leak guard asserts it is empty afterwards.
            if governor is not None:
                stats.peak_memory_bytes = max(
                    stats.peak_memory_bytes, governor.peak_reserved_bytes
                )
                governor.release_all()
            self._artifact_reserved.clear()
            raise

        simulated = getattr(self.backend, "simulated_cost", 0.0) - base_simulated
        if simulated:
            stats.simulated_parallel_cost += simulated
        if governor is not None:
            stats.peak_memory_bytes = max(stats.peak_memory_bytes, governor.peak_reserved_bytes)
            stats.spill_events += governor.spill_events - base_spill_events
            stats.spilled_bytes += governor.spilled_bytes - base_spilled
            stats.reloaded_bytes += governor.reloaded_bytes - base_reloaded
            stats.spill_failures += governor.spill_failures - base_spill_failures
        if self.hash_cache is not None:
            stats.hash_reuse_hits += self.hash_cache.hits - base_hash_hits
            stats.hash_reuse_misses += self.hash_cache.misses - base_hash_misses
        stats.selection_vector_rows += self._selvec_rows
        stats.artifact_cache_hits += self._artifact_hits
        stats.artifact_cache_misses += self._artifact_misses
        # Artifact residency was charged for this run's accounting only; the
        # artifacts themselves stay alive in the cross-query cache.  The
        # query-lifetime hash cache dies with the executor, so its
        # reservation is released the same way.
        if governor is not None:
            for reservation in self._artifact_reserved:
                governor.release(reservation)
            governor.release("hash_cache")
        self._artifact_reserved.clear()

        return PipelineResult(
            relations=self._relations,
            final=self._final,
            aggregates=self._aggregates,
        )

    # ------------------------------------------------------------------
    # Op dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, op, stats: ExecutionStats) -> Tuple[int, int, bool]:
        if isinstance(op, Scan):
            return self._exec_scan(op, stats)
        if isinstance(op, FilterPush):
            return self._exec_filter_push(op, stats)
        if isinstance(op, BloomBuild):
            if op.scope == SCOPE_JOIN:
                return self._exec_join_bloom_build(op, stats)
            return self._exec_transfer_bloom_build(op, stats)
        if isinstance(op, BloomProbe):
            if op.scope == SCOPE_JOIN:
                return self._exec_join_bloom_probe(op, stats)
            return self._exec_transfer_bloom_probe(op, stats)
        if isinstance(op, SemiJoinReduce):
            return self._exec_semi_join_reduce(op, stats)
        if isinstance(op, HashBuild):
            return self._exec_hash_build(op, stats)
        if isinstance(op, HashProbe):
            return self._exec_hash_probe(op, stats)
        if isinstance(op, Partition):
            return self._exec_partition(op, stats)
        if isinstance(op, PartitionedHashBuild):
            return self._exec_partitioned_hash_build(op, stats)
        if isinstance(op, PartitionedHashProbe):
            return self._exec_partitioned_hash_probe(op, stats)
        if isinstance(op, Aggregate):
            return self._exec_aggregate(op, stats)
        raise ExecutionError(f"pipeline executor cannot run op {op!r}")

    # -- scan / filter --------------------------------------------------
    def _exec_scan(self, op: Scan, stats: ExecutionStats) -> Tuple[int, int, bool]:
        if self.catalog is None:
            raise ExecutionError("pipeline plans with Scan ops require a catalog")
        table = self.catalog.table(op.table)
        self._relations[op.alias] = BoundRelation.from_table(op.alias, table)
        self._base_versions[op.alias] = self._relations[op.alias].version
        stats.base_rows[op.alias] = table.num_rows
        stats.filtered_rows[op.alias] = table.num_rows
        return table.num_rows, table.num_rows, False

    def _exec_filter_push(self, op: FilterPush, stats: ExecutionStats) -> Tuple[int, int, bool]:
        relation = self._relations[op.alias]
        rows_in = relation.num_rows
        if self._masks is not None and op.alias in self._masks and self._masks[op.alias] is not None:
            mask = np.asarray(self._masks[op.alias], dtype=bool)
            if op.alias in self._fused_filters:
                self._op_fused_rows = int(self._fused_filters[op.alias])
            zone = self._zone_stats.get(op.alias)
            if zone is not None:
                self._op_blocks_skipped, self._op_blocks_total, self._op_encoded_bytes = zone
        else:
            ref = self._refs.get(op.alias)
            if ref is None or ref.filter is None:
                return rows_in, rows_in, True
            mask = np.asarray(ref.filter.evaluate(relation.table), dtype=bool)
        relation.keep(mask)
        self._base_versions[op.alias] = relation.version
        stats.filtered_rows[op.alias] = relation.num_rows
        return rows_in, relation.num_rows, False

    # -- transfer phase -------------------------------------------------
    def _exec_transfer_bloom_build(self, op: BloomBuild, stats: ExecutionStats) -> Tuple[int, int, bool]:
        source = self._relations[op.source.alias]
        target = self._relations[op.target.alias]
        if self._should_prune(op.prunable, op.source.alias):
            self._skip_transfer_step(op, target, stats)
            return source.num_rows, source.num_rows, True
        if self._adaptive is not None and self._adaptive.should_skip(self._op_index, op):
            self._skip_transfer_step(op, target, stats, adaptive=True)
            self._op_adaptive_skip = True
            return source.num_rows, source.num_rows, True

        bloom: Optional[BloomFilter] = None
        if len(op.attributes) == 1:
            attr_class = self.graph.attribute_classes[op.attributes[0]]
            source_column = attr_class.column_of(op.source.alias)
            target_column = attr_class.column_of(op.target.alias)
            exact_index = None
            if self.bitmap_downgrade:
                exact_index = self._bitmap_downgrade_index(op, source, source_column, target)
            if exact_index is None:
                bloom = self._transfer_bloom(op, source, source_column)
            else:
                self._op_downgraded = True
            if self.selection_vectors or (exact_index is not None and self.hash_cache is not None):
                # Late materialization: the probe op gathers over the
                # immutable base column by the target's row ids; nothing is
                # staged for the probe side here.  (Exact probes consume raw
                # keys, so a downgraded step never stages a hash pass.)
                stage = _TransferStage(
                    bloom=bloom,
                    exact_index=exact_index,
                    build_rows=source.num_rows,
                    target_column=target_column,
                )
            elif bloom is not None and self.hash_cache is not None:
                stage = _TransferStage(
                    bloom=bloom,
                    build_rows=source.num_rows,
                    target_pass=self._bloom_pass_for_relation(target, target_column),
                )
            else:
                stage = _TransferStage(
                    bloom=bloom,
                    exact_index=exact_index,
                    build_rows=source.num_rows,
                    target_keys=target.key_values(target_column),
                )
        else:
            # Composite keys are densified jointly with the probe side, so
            # neither hashing pass nor gather can be cached or deferred.
            source_keys, target_keys = self._step_keys(op, source, target)
            bloom = BloomFilter(expected_keys=source.num_rows, fpr=self.options.transfer_fpr)
            bloom.insert(source_keys)
            stage = _TransferStage(
                bloom=bloom, build_rows=source.num_rows, target_keys=target_keys
            )

        if bloom is not None:
            key = FilterKey(
                relation=op.source.alias,
                attribute="+".join(op.attributes),
                pass_id=op.pass_,
            )
            self.registry.publish(key, bloom, replace=True)
        self._transfer_stages[op.step_id] = stage
        return source.num_rows, source.num_rows, False

    def _transfer_bloom(self, op: BloomBuild, source: BoundRelation, column: str) -> BloomFilter:
        """Build (or fetch from the artifact cache) one transfer-phase filter."""
        param = f"fpr={self.options.transfer_fpr}"
        if self.ndv_sizing:
            # NDV-sized filters differ in geometry from row-count-sized
            # ones, so they must never share an artifact slot.
            param += ",ndv"
        artifact_key = self._artifact_key(op.source.alias, column, kind=KIND_BLOOM, param=param)
        if artifact_key is not None:
            cached = self.artifact_cache.get(artifact_key)
            if cached is not None:
                self._artifact_hits += 1
                self._charge_artifact(artifact_key, cached.size_bytes)
                return cached
            self._artifact_misses += 1
        expected = self._bloom_expected_keys(source, column)
        bloom = BloomFilter(expected_keys=expected, fpr=self.options.transfer_fpr)
        if expected < source.num_rows:
            self._op_bytes_saved += max(
                filter_bytes_for(source.num_rows, self.options.transfer_fpr)
                - bloom.size_bytes,
                0,
            )
        if self.hash_cache is not None:
            hashes, patterns = self._bloom_pass_for_relation(source, column)
            bloom.insert(hashes=hashes, patterns=patterns)
        else:
            bloom.insert(source.key_values(column))
        if artifact_key is not None:
            self.artifact_cache.put(artifact_key, bloom, bloom.size_bytes)
            self._charge_artifact(artifact_key, bloom.size_bytes)
        return bloom

    def _bloom_expected_keys(self, source: BoundRelation, column: str) -> int:
        """Keys to size a transfer filter for: rows, tightened by NDV sizing.

        The build side's distinct-key count can never exceed either its
        surviving row count or the full column's distinct count, so with
        ``ndv_sizing`` the filter is sized by the smaller of the two — a
        KMV-sketch estimate per ``(table version, column)``, memoized for
        the query and persisted in the cross-query artifact cache.  An
        undersized filter only raises the false-positive rate (never false
        negatives), so results are unchanged — the join phase eliminates
        whatever extra rows slip through.
        """
        expected = source.num_rows
        if not self.ndv_sizing or expected == 0:
            return expected
        sketch = self._column_ndv_sketch(source, column)
        if sketch is None:
            return expected
        # The estimator's ~1/sqrt(k) relative error cuts both ways; a small
        # headroom factor keeps the realized FPR near the configured one.
        estimate = int(math.ceil(sketch.estimate * 1.1))
        return max(min(expected, estimate), 1)

    def _column_ndv_sketch(self, relation: BoundRelation, column: str) -> Optional[KMVSketch]:
        """The KMV distinct-count sketch of one full base column.

        Lookup order: the executor-lifetime memo, then the cross-query
        artifact cache (keyed by table version only — like full-column hash
        passes, the sketch depends solely on the immutable column data), and
        finally one vectorized build whose result feeds both caches.
        """
        table = relation.table
        col = table.column(column)
        if not col.dtype.is_integer_backed:
            return None
        data = col.data
        memo = self._ndv_memo.get(id(data))
        if memo is not None and memo[0] is data:
            return memo[1]
        artifact_key = None
        if self.artifact_cache is not None:
            table_version = self._snapshot_version(relation.alias, table.name)
            if table_version is not None:
                artifact_key = ArtifactKey(
                    table=table.name,
                    table_version=table_version,
                    column=column,
                    fingerprint=FINGERPRINT_COLUMN,
                    kind=KIND_NDV_SKETCH,
                    encoding=self._encoding_token(table, column),
                )
                artifact = self.artifact_cache.get(artifact_key)
                if artifact is not None:
                    self._artifact_hits += 1
                    self._ndv_memo[id(data)] = (data, artifact)
                    return artifact
                self._artifact_misses += 1
        # A cached full-column hashing pass (computed for the Bloom inserts
        # anyway) lets the sketch skip its own hashing pass entirely.
        cached_pass = (
            self.hash_cache.peek_bloom_pass(
                table, column, encoding=self._encoding_token(table, column)
            )
            if self.hash_cache is not None
            else None
        )
        if cached_pass is not None:
            sketch = KMVSketch.from_hashes(cached_pass[0])
        else:
            sketch = KMVSketch.from_values(data)
        self._ndv_memo[id(data)] = (data, sketch)
        if artifact_key is not None:
            self.artifact_cache.put(artifact_key, sketch, sketch.nbytes)
        return sketch

    def _bitmap_downgrade_index(
        self,
        op: BloomBuild,
        source: BoundRelation,
        column: str,
        target: BoundRelation,
    ) -> Optional[HashIndex]:
        """Exact-bitmap downgrade: a prepared bitmap index, or None to keep Bloom.

        When the build side's observed key domain is dense enough that a
        boolean membership table costs no more than the probe work it saves
        (the same economics as :meth:`HashIndex._ensure_table`), the step is
        executed as an exact bitmap semi-join: probes become one in-range
        test plus one table gather, and — unlike a Bloom filter — zero false
        positives survive into the downstream passes and the join phase.
        """
        if source.num_rows == 0:
            return None
        probe_rows = target.num_rows
        index = self._relation_index(
            op.source.alias,
            op.attributes,
            source,
            lambda: source.key_values(column),
            expected_probe_rows=probe_rows,
        )
        if not index.bitmap_worthwhile(probe_rows):
            return None
        index.prepare(probe_rows)
        return index if index.has_bitmap else None

    def _exec_transfer_bloom_probe(self, op: BloomProbe, stats: ExecutionStats) -> Tuple[int, int, bool]:
        target = self._relations[op.target.alias]
        if self._adaptive is not None and self._adaptive.should_skip(self._op_index, op):
            # Cancelled after its build already ran (or alongside it);
            # discard any staged state and record the skip once per step.
            self._transfer_stages.pop(op.step_id, None)
            self._skip_transfer_step(op, target, stats, adaptive=True)
            self._op_adaptive_skip = True
            return target.num_rows, target.num_rows, True
        if op.step_id in self._skipped_steps:
            if op.step_id in self._adaptive_skipped_steps:
                self._op_adaptive_skip = True
            return target.num_rows, target.num_rows, True
        stage = self._transfer_stages.pop(op.step_id)
        rows_before = target.num_rows
        bloom = stage.bloom
        if stage.exact_index is not None:
            # Adaptive exact-bitmap downgrade: one in-range test + table
            # gather per probe key, and no false positives downstream.
            index = stage.exact_index
            self._op_downgraded = True
            if stage.target_keys is not None:
                probe_keys = stage.target_keys
            else:
                if self.selection_vectors:
                    self._selvec_rows += target.num_rows
                probe_keys = target.key_values(stage.target_column)
            probe_rows = _probe_rows(probe_keys)
            mask = self.backend.probe_mask(
                probe_keys,
                index.contains,
                prepare=lambda: index.prepare(probe_rows),
            )
            filter_bytes = index.index_bytes()
        elif stage.target_keys is not None:
            mask = self.backend.probe_mask(stage.target_keys, bloom.probe)
            filter_bytes = bloom.size_bytes
        elif stage.target_pass is not None:
            mask = self.backend.probe_mask(
                stage.target_pass, lambda hp: bloom.probe(hashes=hp[0], patterns=hp[1])
            )
            filter_bytes = bloom.size_bytes
        elif self.hash_cache is not None:
            self._selvec_rows += target.num_rows
            probe_pass = self._bloom_pass_for_relation(target, stage.target_column)
            mask = self.backend.probe_mask(
                probe_pass, lambda hp: bloom.probe(hashes=hp[0], patterns=hp[1])
            )
            filter_bytes = bloom.size_bytes
        else:
            self._selvec_rows += target.num_rows
            mask = self.backend.probe_mask(
                target.key_values(stage.target_column), bloom.probe
            )
            filter_bytes = bloom.size_bytes
        target.keep(mask)
        self._record_transfer_step(
            op,
            rows_before=rows_before,
            rows_after=target.num_rows,
            filter_bytes=filter_bytes,
            build_rows=stage.build_rows,
            stats=stats,
            downgraded_exact=stage.exact_index is not None,
        )
        if self._adaptive is not None:
            self._adaptive.observe(self._op_index, op, rows_before, target.num_rows)
        return rows_before, target.num_rows, False

    def _exec_semi_join_reduce(self, op: SemiJoinReduce, stats: ExecutionStats) -> Tuple[int, int, bool]:
        source = self._relations[op.source.alias]
        target = self._relations[op.target.alias]
        if self._should_prune(op.prunable, op.source.alias):
            self._skip_transfer_step(op, target, stats)
            return target.num_rows, target.num_rows, True
        if self._adaptive is not None and self._adaptive.should_skip(self._op_index, op):
            self._skip_transfer_step(op, target, stats, adaptive=True)
            self._op_adaptive_skip = True
            return target.num_rows, target.num_rows, True
        if len(op.attributes) == 1:
            # Single-attribute keys are side-independent: resolve the target
            # side and check the index caches before gathering source keys —
            # a hit (forward + backward pass probing the same source, or a
            # prior query's frozen artifact) skips the source-side gather
            # and sort entirely.
            attr_class = self.graph.attribute_classes[op.attributes[0]]
            target_keys = target.key_values(attr_class.column_of(op.target.alias))
            source_column = attr_class.column_of(op.source.alias)
            index = self._relation_index(
                op.source.alias,
                op.attributes,
                source,
                lambda: source.key_values(source_column),
                expected_probe_rows=_probe_rows(target_keys),
            )
        else:
            source_keys, target_keys = self._step_keys(op, source, target)
            index = HashIndex(source_keys)
        rows_before = target.num_rows
        probe_rows = _probe_rows(target_keys)
        mask = self.backend.probe_mask(
            target_keys,
            index.contains,
            prepare=lambda: index.prepare(probe_rows),
        )
        target.keep(mask)
        self._record_transfer_step(
            op,
            rows_before=rows_before,
            rows_after=target.num_rows,
            filter_bytes=int(index.keys.nbytes),
            build_rows=source.num_rows,
            stats=stats,
        )
        if self._adaptive is not None:
            self._adaptive.observe(self._op_index, op, rows_before, target.num_rows)
        return rows_before, target.num_rows, False

    def _should_prune(self, prunable: bool, source_alias: str) -> bool:
        if not (self.options.prune_trivial_semijoins and prunable):
            return False
        if self._filtered is None:
            self._filtered = self._initially_filtered()
        return source_alias not in self._filtered

    def _initially_filtered(self) -> set[str]:
        """Relations whose base predicate eliminated at least one row (§4.3)."""
        filtered: set[str] = set()
        for ref in self.query.relations:
            relation = self._relations.get(ref.alias)
            if relation is None:
                continue
            if ref.filter is not None and relation.num_rows < relation.table.num_rows:
                filtered.add(ref.alias)
        return filtered

    def _skip_transfer_step(
        self, op, target: BoundRelation, stats: ExecutionStats, adaptive: bool = False
    ) -> None:
        if op.step_id in self._skipped_steps:
            return
        self._skipped_steps.add(op.step_id)
        if adaptive:
            self._adaptive_skipped_steps.add(op.step_id)
            stats.adaptive_steps_skipped += 1
        stats.transfer_steps.append(
            TransferStepStats(
                source=op.source.alias,
                target=op.target.alias,
                pass_=op.pass_,
                rows_before=target.num_rows,
                rows_after=target.num_rows,
                skipped=True,
                adaptive_skipped=adaptive,
            )
        )

    def _record_transfer_step(
        self,
        op,
        rows_before: int,
        rows_after: int,
        filter_bytes: int,
        build_rows: int,
        stats: ExecutionStats,
        downgraded_exact: bool = False,
    ) -> None:
        if downgraded_exact:
            stats.adaptive_exact_downgrades += 1
        stats.transfer_steps.append(
            TransferStepStats(
                source=op.source.alias,
                target=op.target.alias,
                pass_=op.pass_,
                rows_before=rows_before,
                rows_after=rows_after,
                filter_bytes=filter_bytes,
                build_rows=build_rows,
                downgraded_exact=downgraded_exact,
            )
        )
        stats.bloom_bytes += filter_bytes
        stats.abstract_cost += bloom_probe_cost(rows_before, max(filter_bytes, 1))
        if rows_after < rows_before:
            if self._filtered is None:
                self._filtered = self._initially_filtered()
            self._filtered.add(op.target.alias)

    def _step_keys(self, op, source: BoundRelation, target: BoundRelation):
        """Resolve a transfer step's attribute classes to concrete key arrays."""
        source_columns = []
        target_columns = []
        for attribute in op.attributes:
            attr_class = self.graph.attribute_classes[attribute]
            source_columns.append(source.key_values(attr_class.column_of(op.source.alias)))
            target_columns.append(target.key_values(attr_class.column_of(op.target.alias)))
        if not source_columns:
            raise ExecutionError(f"transfer op {op.describe()} has no join attributes")
        return combine_key_columns_pair(source_columns, target_columns)

    # -- hash reuse / artifact caching ----------------------------------
    def _bloom_pass_for_relation(
        self, relation: BoundRelation, column: str
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The relation's surviving rows of a (cached) column hashing pass.

        Strategy, cheapest first: an unreduced relation computes/reuses the
        zero-gather full-column pass; a reduced one reuses the pass cached
        for exactly its current selection (a build and probe over the same
        relation state share one pass); failing that it gathers from an
        already-paid full-column pass; and only as a last resort hashes its
        gathered keys — caching the result for the next step over the same
        state.  Every branch is bit-identical to hashing the gathered keys
        directly.
        """
        cache = self.hash_cache
        table = relation.table
        token = self._encoding_token(table, column)
        if relation.num_rows == table.num_rows:
            return self._full_bloom_pass(relation, column, compute=True)
        cached = cache.selection_pass(table, column, relation.row_indices, encoding=token)
        if cached is not None:
            return cached
        # With the cross-query artifact cache on, a selection covering a
        # sizable fraction of the column promotes to the full-column pass:
        # one-time extra hashing that every later query replays for free.
        promote = (
            self.artifact_cache is not None
            and relation.alias in self._table_versions
            and relation.num_rows * 4 >= table.num_rows
        )
        full = self._full_bloom_pass(relation, column, compute=promote)
        if full is not None:
            selection = relation.row_indices
            result = (full[0][selection], full[1][selection])
            cache.store_selection_pass(table, column, selection, result, encoding=token)
            return result
        cache.misses += 1
        hashes = hash_keys(relation.key_values(column))
        result = (hashes, key_patterns(hashes))
        cache.store_selection_pass(table, column, relation.row_indices, result, encoding=token)
        return result

    def _full_bloom_pass(
        self, relation: BoundRelation, column: str, compute: bool
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """A full-column hashing pass, through both the query and artifact caches.

        The pass depends only on the immutable column data, so — unlike
        Bloom filters and hash indexes — its artifact is keyed purely by
        table version, never by a filter fingerprint.  With ``compute=False``
        only already-paid passes (this query's or a prior query's artifact)
        are returned.
        """
        cache = self.hash_cache
        table = relation.table
        token = self._encoding_token(table, column)
        existing = cache.peek_bloom_pass(table, column, encoding=token)
        if existing is not None:
            cache.hits += 1
            return existing
        artifact_key = None
        table_version = (
            self._snapshot_version(relation.alias, table.name)
            if self.artifact_cache is not None
            else None
        )
        if table_version is not None:
            artifact_key = ArtifactKey(
                table=table.name,
                table_version=table_version,
                column=column,
                fingerprint=FINGERPRINT_COLUMN,
                kind=KIND_BLOOM_PASS,
                encoding=token,
            )
            artifact = self.artifact_cache.get(artifact_key)
            if artifact is not None:
                self._artifact_hits += 1
                self._charge_artifact(
                    artifact_key, int(artifact[0].nbytes + artifact[1].nbytes)
                )
                cache.adopt_full_pass(table, column, artifact, encoding=token)
                return artifact
        if not compute:
            return None
        full = cache.bloom_pass(table, column, encoding=token)
        if artifact_key is not None:
            self._artifact_misses += 1
            nbytes = int(full[0].nbytes + full[1].nbytes)
            self.artifact_cache.put(artifact_key, full, nbytes)
            self._charge_artifact(artifact_key, nbytes)
        return full

    def _artifact_key(
        self, alias: str, column: str, kind: str, param: str = ""
    ) -> Optional[ArtifactKey]:
        """Cross-query cache key for an artifact over ``alias``'s base state.

        ``None`` (no caching) unless the artifact cache is configured, the
        engine supplied this alias's catalog version and filter fingerprint,
        and the relation is still in its base (scan + pushed-down filter)
        state — an artifact over a transfer-reduced relation would depend on
        this query's other predicates and must not be shared.
        """
        if self.artifact_cache is None:
            return None
        relation = self._relations.get(alias)
        fingerprint = self._fingerprints.get(alias)
        if relation is None or fingerprint is None:
            return None
        table_version = self._snapshot_version(alias, relation.table.name)
        if table_version is None:
            return None
        if relation.version != self._base_versions.get(alias, -1):
            return None
        return ArtifactKey(
            table=relation.table.name,
            table_version=table_version,
            column=column,
            fingerprint=fingerprint,
            kind=kind,
            param=param,
            encoding=self._encoding_token(relation.table, column),
        )

    def _encoding_token(self, table, column: str) -> str:
        """The column's encoding identity for cache keys.

        ``"raw"`` whenever block encodings are off — every key is then
        byte-identical to the pre-encoding ones, so artifacts persist
        across the flag being toggled off.  With encodings on, the token
        (e.g. ``"pack:u16:b0"``) keeps artifacts recorded over an encoded
        representation from aliasing raw ones at the same catalog version.
        """
        if not self.encodings or self.catalog is None:
            return "raw"
        store = getattr(self.catalog, "encodings", None)
        if store is None:
            return "raw"
        return store.token(table, column)

    def _snapshot_version(self, alias: str, table_name: str) -> Optional[int]:
        """The engine's table-version snapshot — only while it is still live.

        Guards the race between the snapshot (taken at ``Database.execute``
        start) and a concurrent table replace: once the live catalog version
        moves past the snapshot, this execution may be reading the *new*
        table's data, so caching anything under the snapshot key could
        poison the cache.  Artifact use is simply disabled for that alias.
        """
        version = self._table_versions.get(alias)
        if version is None:
            return None
        if self.catalog is not None:
            try:
                if self.catalog.version(table_name) != version:
                    return None
            except CatalogError:
                return None
        return version

    def _governed_reserve(self, key: str, size_bytes: int, evictable: bool = True) -> None:
        """Reserve through the governor with the spill-then-retry rung.

        A failed reservation (:class:`~repro.errors.MemoryExhausted`, genuine
        or injected) no longer aborts the op: every evictable reservation is
        synchronously spilled and the reservation retried once — recorded as
        the ``governor:spill-retry`` degradation.  Only a retry failure
        propagates.
        """
        if self.governor is None:
            return
        try:
            self.governor.reserve(key, size_bytes, evictable=evictable)
        except MemoryExhausted:
            self.governor.spill_evictables()
            self.governor.reserve(key, size_bytes, evictable=evictable, inject=False)
            if not self._op_degraded:
                self._op_degraded = "governor:spill-retry"
            stats = getattr(self, "_stats", None)
            if stats is not None:
                stats.record_degradation("governor:spill-retry")
            if self.tracer is not None:
                self.tracer.event("governor:spill-retry", key=key)

    def _charge_artifact(self, key: ArtifactKey, size_bytes: int) -> None:
        """Account a touched artifact's residency against the run's governor."""
        if self.governor is None:
            return
        reservation = f"artifact:{key.kind}:{key.table}:{key.column}:{key.fingerprint[:12]}"
        if reservation not in self._artifact_reserved:
            self._governed_reserve(reservation, size_bytes, evictable=False)
            self._artifact_reserved.append(reservation)

    def _indexed_keys(
        self,
        alias: str,
        attributes: Tuple[str, ...],
        relation: BoundRelation,
        keys: np.ndarray,
    ) -> HashIndex:
        """Build (or reuse) the sorted index over one side's key array.

        Single-attribute keys are side-independent, so their sorted index can
        be cached per ``(alias, attributes)`` and reused until the relation
        is reduced again — the forward and backward transfer passes probing
        the same source then sort once.  Composite keys are densified jointly
        with the probe side and cannot be cached across steps.
        """
        if len(attributes) != 1:
            return HashIndex(keys)
        return self._relation_index(alias, attributes, relation, lambda: keys)

    def _relation_index(
        self,
        alias: str,
        attributes: Tuple[str, ...],
        relation: BoundRelation,
        gather_keys: Callable[[], np.ndarray],
        expected_probe_rows: int = 0,
    ) -> HashIndex:
        """The index over a relation's single-attribute keys, through both caches.

        Lookup order: the query-lifetime index cache (keyed by relation
        version — the forward/backward pass and join-phase reuse), then the
        cross-query artifact cache (keyed by table version + filter
        fingerprint; only consulted while the relation is in its base
        state).  A freshly built index headed for the artifact cache is
        frozen first so later queries — possibly on morsel worker threads —
        only ever read it.
        """
        cache_key = (alias, attributes)
        cached = self._index_cache.get(cache_key)
        if cached is not None and cached[0] == relation.version:
            return cached[1]
        # Artifacts are keyed by the physical column, not the query-local
        # attribute-class name, so different queries share them.
        column = self.graph.attribute_classes[attributes[0]].column_of(alias)
        artifact_key = self._artifact_key(alias, column, kind=KIND_HASH_INDEX)
        index: Optional[HashIndex] = None
        if artifact_key is not None:
            artifact = self.artifact_cache.get(artifact_key)
            if artifact is not None:
                self._artifact_hits += 1
                self._charge_artifact(artifact_key, artifact.index_bytes())
                index = artifact
            else:
                self._artifact_misses += 1
        if index is None:
            index = HashIndex(gather_keys())
            if artifact_key is not None:
                index.prepare(expected_probe_rows or index.num_keys)
                index.prepare_match(expected_probe_rows or index.num_keys)
                self.artifact_cache.put(artifact_key, index, index.index_bytes())
                self._charge_artifact(artifact_key, index.index_bytes())
        self._index_cache[cache_key] = (relation.version, index)
        return index

    # -- join phase -----------------------------------------------------
    def _materialize(self, operand: Operand) -> IntermediateResult:
        if not operand.is_relation:
            try:
                return self._slots[operand.slot]
            except KeyError:
                raise ExecutionError(f"pipeline slot ${operand.slot} was never produced") from None
        cached = self._materialized.get(operand)
        if cached is None:
            if operand.alias not in self._relations:
                raise ExecutionError(f"plan references unknown relation {operand.alias!r}")
            cached = IntermediateResult.from_relation(self._relations[operand.alias])
            self._materialized[operand] = cached
        return cached

    def _set_operand(self, operand: Operand, result: IntermediateResult) -> None:
        if operand.is_relation:
            self._materialized[operand] = result
        else:
            self._slots[operand.slot] = result

    def _exec_join_bloom_build(self, op: BloomBuild, stats: ExecutionStats) -> Tuple[int, int, bool]:
        build = self._materialize(op.source)
        probe = self._materialize(op.target)
        if build.num_rows == 0:
            return build.num_rows, build.num_rows, True
        # The raw pair keys are needed either way — the upcoming hash join
        # consumes them — but with a hash cache the SIP filter's insert and
        # probe replay the cached column pass instead of re-hashing them.
        probe_keys, build_keys = self._pair_keys(op.attributes, probe, build)
        expected = build.num_rows
        if self.ndv_sizing and len(op.attributes) == 1:
            attr_class = self.graph.attribute_classes[op.attributes[0]]
            alias = _representative_alias(attr_class, build.aliases)
            sketch = self._column_ndv_sketch(self._relations[alias], attr_class.column_of(alias))
            if sketch is not None:
                expected = max(min(expected, int(math.ceil(sketch.estimate * 1.1))), 1)
        bloom = BloomFilter(expected_keys=expected, fpr=self.options.join_fpr)
        if expected < build.num_rows:
            self._op_bytes_saved += max(
                filter_bytes_for(build.num_rows, self.options.join_fpr) - bloom.size_bytes, 0
            )
        probe_pass = None
        if self.hash_cache is not None and len(op.attributes) == 1:
            build_hashes, build_patterns = self._result_bloom_pass(
                op.attributes[0], build, build_keys
            )
            bloom.insert(hashes=build_hashes, patterns=build_patterns)
            probe_pass = self._result_bloom_pass(op.attributes[0], probe, probe_keys)
        else:
            bloom.insert(build_keys)
        self._join_bloom_stages[op.step_id] = _JoinBloomStage(
            bloom=bloom, probe_keys=probe_keys, build_keys=build_keys, probe_pass=probe_pass
        )
        return build.num_rows, build.num_rows, False

    def _exec_join_bloom_probe(self, op: BloomProbe, stats: ExecutionStats) -> Tuple[int, int, bool]:
        probe = self._materialize(op.target)
        stage = self._join_bloom_stages.pop(op.step_id, None)
        if stage is None:
            return probe.num_rows, probe.num_rows, True
        rows_before = probe.num_rows
        if stage.probe_pass is not None:
            bloom = stage.bloom
            hits = self.backend.probe_mask(
                stage.probe_pass, lambda hp: bloom.probe(hashes=hp[0], patterns=hp[1])
            )
        else:
            hits = self.backend.probe_mask(stage.probe_keys, stage.bloom.probe)
        keep = np.nonzero(hits)[0]
        reduced = probe.take(keep)
        self._set_operand(op.target, reduced)
        self._join_bloom_eliminated[op.step_id] = rows_before - int(hits.sum())
        # Hand the already-filtered pair keys to the upcoming hash join.
        self._build_stages[op.step_id] = _BuildStage(
            result=self._materialize(op.source),
            keys=stage.build_keys,
        )
        self._join_probe_keys[op.step_id] = stage.probe_keys[keep]
        stats.abstract_cost += bloom_probe_cost(int(hits.shape[0]), stage.bloom.size_bytes)
        return rows_before, reduced.num_rows, False

    def _exec_hash_build(self, op: HashBuild, stats: ExecutionStats) -> Tuple[int, int, bool]:
        build = self._materialize(op.input)
        stage = self._build_stages.get(op.build_id)
        if stage is None:
            stage = _BuildStage(result=build)
            self._build_stages[op.build_id] = stage
        else:
            stage.result = build
        if stage.keys is None and len(op.attributes) == 1:
            # Single-attribute keys are side-independent: gather and sort now
            # so the probe op only probes.  When the build side is the whole
            # (un-reduced-since) relation, the lookup goes through both index
            # caches — an index built by the transfer phase, or a prior
            # query's frozen artifact, skips the gather and sort entirely
            # (the gather thunk only runs on a full miss).
            if op.input.is_relation and build.num_rows == self._relations[op.input.alias].num_rows:
                stage.index = self._relation_index(
                    op.input.alias,
                    op.attributes,
                    self._relations[op.input.alias],
                    lambda: self._single_attribute_keys(op.attributes[0], build),
                )
            else:
                stage.keys = self._single_attribute_keys(op.attributes[0], build)
                stage.index = self._build_index(op, stage.keys)
        elif stage.keys is not None:
            stage.index = self._build_index(op, stage.keys)
        self._reserve_build(op.build_id, stage)
        return build.num_rows, build.num_rows, False

    # -- memory governance ----------------------------------------------
    def _stage_bytes(self, stage: _BuildStage) -> int:
        """Approximate bytes materialized by one build stage."""
        total = sum(int(arr.nbytes) for arr in stage.result.positions.values())
        if stage.keys is not None:
            total += int(stage.keys.nbytes)
        elif stage.index is not None:
            total += int(stage.index.keys.nbytes)
        return total

    def _reserve_build(self, build_id: int, stage: _BuildStage) -> None:
        if self.governor is not None:
            self._governed_reserve(f"build:{build_id}", self._stage_bytes(stage))

    def _touch_build(self, build_id: int) -> None:
        if self.governor is not None:
            self.governor.touch(f"build:{build_id}")

    def _release_build(self, build_id: int, stage: _BuildStage) -> None:
        if self.governor is None:
            return
        self.governor.release(f"build:{build_id}")
        if stage.partitioned is not None:
            for p in range(stage.partitioned.num_partitions):
                self.governor.release(f"partition:{build_id}:{p}")

    def _build_index(self, op: HashBuild, keys: np.ndarray) -> HashIndex:
        if op.input.is_relation and len(op.attributes) == 1:
            relation = self._relations[op.input.alias]
            # Publish the index for reuse when the build side is the whole
            # (un-reduced-since) relation.
            materialized = self._materialized.get(op.input)
            if materialized is None or materialized.num_rows == relation.num_rows:
                return self._indexed_keys(op.input.alias, op.attributes, relation, keys)
        return HashIndex(keys)

    def _single_attribute_keys(self, attribute: str, result: IntermediateResult) -> np.ndarray:
        attr_class = self.graph.attribute_classes[attribute]
        alias = _representative_alias(attr_class, result.aliases)
        values = result.column_values(self._relations, alias, attr_class.column_of(alias))
        return np.asarray(values).astype(np.int64, copy=False)

    def _result_bloom_pass(
        self, attribute: str, result: IntermediateResult, keys: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """An intermediate result's rows of a (cached) column hashing pass.

        When a full-column pass is available — some earlier step already
        paid for it, or the backing relation is unreduced and the result
        covers a sizable fraction of it (so the one-time full pass is near
        the work a direct hash would do anyway, and later steps reuse it) —
        the pass is gathered by the result's composed row ids instead of
        re-hashing.  Otherwise the already-gathered ``keys`` are hashed
        directly (no worse than the uncached path).
        """
        attr_class = self.graph.attribute_classes[attribute]
        alias = _representative_alias(attr_class, result.aliases)
        relation = self._relations[alias]
        cache = self.hash_cache
        column = attr_class.column_of(alias)
        unreduced = relation.num_rows == relation.table.num_rows
        compute = unreduced and result.num_rows * 4 >= relation.table.num_rows
        full = self._full_bloom_pass(relation, column, compute=compute)
        if full is not None:
            positions = result.positions[alias]
            row_ids = positions if unreduced else relation.row_indices[positions]
            return full[0][row_ids], full[1][row_ids]
        cache.misses += 1
        hashes = hash_keys(keys)
        return hashes, key_patterns(hashes)

    def _pair_keys(
        self,
        attributes: Tuple[str, ...],
        probe: IntermediateResult,
        build: IntermediateResult,
    ) -> Tuple[np.ndarray, np.ndarray]:
        probe_columns = []
        build_columns = []
        for attribute in attributes:
            attr_class = self.graph.attribute_classes[attribute]
            probe_alias = _representative_alias(attr_class, probe.aliases)
            build_alias = _representative_alias(attr_class, build.aliases)
            probe_columns.append(
                probe.column_values(self._relations, probe_alias, attr_class.column_of(probe_alias))
            )
            build_columns.append(
                build.column_values(self._relations, build_alias, attr_class.column_of(build_alias))
            )
        return combine_key_columns_pair(probe_columns, build_columns)

    def _exec_hash_probe(self, op: HashProbe, stats: ExecutionStats) -> Tuple[int, int, bool]:
        stage = self._build_stages.pop(op.build_id)
        build = stage.result
        probe = self._materialize(op.probe)
        self._touch_build(op.build_id)

        if not op.attributes:
            joined = self._cartesian_product(probe, build, stats)
            self._slots[op.output_slot] = self._apply_ready_predicates(joined)
            self._release_build(op.build_id, stage)
            return probe.num_rows, joined.num_rows, False

        staged_probe_keys = self._join_probe_keys.pop(op.build_id, None)
        if staged_probe_keys is not None:
            probe_keys = staged_probe_keys
            index = stage.index or HashIndex(stage.keys)
        elif len(op.attributes) == 1:
            probe_keys = self._single_attribute_keys(op.attributes[0], probe)
            index = stage.index if stage.index is not None else HashIndex(
                stage.keys
                if stage.keys is not None
                else self._single_attribute_keys(op.attributes[0], build)
            )
        else:
            probe_keys, build_keys = self._pair_keys(op.attributes, probe, build)
            index = HashIndex(build_keys)

        matches = self.backend.match(probe_keys, index)
        joined = probe.merge(build, matches.probe_indices, matches.build_indices)

        stats.join_steps.append(
            JoinStepStats(
                left_aliases=tuple(sorted(probe.aliases)),
                right_aliases=tuple(sorted(build.aliases)),
                probe_rows=probe.num_rows,
                build_rows=build.num_rows,
                output_rows=joined.num_rows,
                bloom_prefiltered_rows=self._join_bloom_eliminated.pop(op.build_id, 0),
            )
        )
        stats.abstract_cost += (
            hash_probe_cost(probe.num_rows, build.num_rows)
            + float(build.num_rows)
            + float(joined.num_rows)
        )
        self._slots[op.output_slot] = self._apply_ready_predicates(joined)
        self._release_build(op.build_id, stage)
        return probe.num_rows, joined.num_rows, False

    # -- radix-partitioned join phase -----------------------------------
    def _exec_partition(self, op: Partition, stats: ExecutionStats) -> Tuple[int, int, bool]:
        build = self._materialize(op.input)
        stage = self._build_stages.get(op.build_id)
        if stage is None:
            stage = _BuildStage(result=build)
            self._build_stages[op.build_id] = stage
        else:
            # A join-scoped Bloom pair already staged the (filtered) pair keys.
            stage.result = build
        if stage.keys is None:
            stage.keys = self._single_attribute_keys(op.attributes[0], build)
        stage.partitioned = PartitionedHashIndex(stage.keys, bits=op.bits)
        # The build side's materialized rows are reserved like the monolithic
        # path's; the partitioned key/order copies are reserved per partition
        # (the granularity the governor spills at).
        self._reserve_build(op.build_id, stage)
        if self.governor is not None:
            partitioned = stage.partitioned
            for p in range(partitioned.num_partitions):
                nbytes = partitioned.partition_bytes(p)
                if nbytes:
                    self._governed_reserve(f"partition:{op.build_id}:{p}", nbytes)
        return build.num_rows, build.num_rows, False

    def _exec_partitioned_hash_build(
        self, op: PartitionedHashBuild, stats: ExecutionStats
    ) -> Tuple[int, int, bool]:
        stage = self._build_stages[op.build_id]
        assert stage.partitioned is not None, "Partition op must precede PartitionedHashBuild"
        # Per-partition index builds are independent partial builds; map_tasks
        # is the pipeline breaker that merges them (parallel backends fan out).
        stage.partitioned.build(run_tasks=self.backend.map_tasks)
        rows = stage.partitioned.num_keys
        return rows, rows, False

    def _exec_partitioned_hash_probe(
        self, op: PartitionedHashProbe, stats: ExecutionStats
    ) -> Tuple[int, int, bool]:
        stage = self._build_stages.pop(op.build_id)
        assert stage.partitioned is not None, "Partition op must precede PartitionedHashProbe"
        build = stage.result
        probe = self._materialize(op.probe)
        self._touch_build(op.build_id)

        staged_probe_keys = self._join_probe_keys.pop(op.build_id, None)
        if staged_probe_keys is not None:
            probe_keys = staged_probe_keys
        else:
            probe_keys = self._single_attribute_keys(op.attributes[0], probe)
        self.backend.account_probe(int(np.asarray(probe_keys).shape[0]))
        # Only the partitions the probe actually visits are touched, so a
        # spilled partition is charged a reload iff the join reads it.
        on_partition = None
        if self.governor is not None:
            governor = self.governor
            on_partition = lambda p: governor.touch(f"partition:{op.build_id}:{p}")  # noqa: E731
        matches = stage.partitioned.match(
            probe_keys, run_tasks=self.backend.map_tasks, on_partition=on_partition
        )
        joined = probe.merge(build, matches.probe_indices, matches.build_indices)

        stats.join_steps.append(
            JoinStepStats(
                left_aliases=tuple(sorted(probe.aliases)),
                right_aliases=tuple(sorted(build.aliases)),
                probe_rows=probe.num_rows,
                build_rows=build.num_rows,
                output_rows=joined.num_rows,
                bloom_prefiltered_rows=self._join_bloom_eliminated.pop(op.build_id, 0),
            )
        )
        # Partitioned probes search cache-resident segments: charge the hash
        # probe cost at partition granularity rather than the full build size.
        per_partition = max(build.num_rows >> stage.partitioned.bits, 1)
        stats.abstract_cost += (
            hash_probe_cost(probe.num_rows, per_partition)
            + float(build.num_rows)
            + float(joined.num_rows)
        )
        self._slots[op.output_slot] = self._apply_ready_predicates(joined)
        self._release_build(op.build_id, stage)
        return probe.num_rows, joined.num_rows, False

    def _cartesian_product(
        self,
        left: IntermediateResult,
        right: IntermediateResult,
        stats: ExecutionStats,
    ) -> IntermediateResult:
        if not self.options.allow_cartesian_products:
            raise ExecutionError(
                "join plan contains a Cartesian product between "
                f"{sorted(left.aliases)} and {sorted(right.aliases)}"
            )
        left_idx = np.repeat(np.arange(left.num_rows, dtype=np.int64), right.num_rows)
        right_idx = np.tile(np.arange(right.num_rows, dtype=np.int64), left.num_rows)
        joined = left.merge(right, left_idx, right_idx)
        stats.join_steps.append(
            JoinStepStats(
                left_aliases=tuple(sorted(left.aliases)),
                right_aliases=tuple(sorted(right.aliases)),
                probe_rows=left.num_rows,
                build_rows=right.num_rows,
                output_rows=joined.num_rows,
            )
        )
        stats.abstract_cost += float(joined.num_rows)
        return joined

    # -- aggregation ----------------------------------------------------
    def _exec_aggregate(self, op: Aggregate, stats: ExecutionStats) -> Tuple[int, int, bool]:
        final = self._materialize(op.input)
        rows_in = final.num_rows
        final = self._apply_ready_predicates(final, force_all=True)
        stats.output_rows = final.num_rows
        self._final = final
        self._aggregates = compute_aggregates(self.query, self._relations, final)
        return rows_in, final.num_rows, False

    # -- post-join predicates -------------------------------------------
    def _apply_ready_predicates(
        self, result: IntermediateResult, force_all: bool = False
    ) -> IntermediateResult:
        if not self._pending_predicates:
            return result
        still_pending: List[PostJoinPredicate] = []
        for predicate in self._pending_predicates:
            ready = predicate.required_aliases() <= result.aliases
            if ready:
                result = self._apply_predicate(result, predicate)
            elif force_all:
                raise ExecutionError(
                    "post-join predicate references relations missing from the final result: "
                    f"{sorted(predicate.required_aliases() - result.aliases)}"
                )
            else:
                still_pending.append(predicate)
        self._pending_predicates = still_pending
        return result

    def _apply_predicate(
        self, result: IntermediateResult, predicate: PostJoinPredicate
    ) -> IntermediateResult:
        if result.num_rows == 0:
            return result
        overall = np.zeros(result.num_rows, dtype=bool)
        for conjunct in predicate.disjuncts:
            conjunct_mask = np.ones(result.num_rows, dtype=bool)
            for term in conjunct:
                conjunct_mask &= result.evaluate_qualified_comparison(self._relations, term)
            overall |= conjunct_mask
        return result.take(np.nonzero(overall)[0])


# ---------------------------------------------------------------------------
# Aggregation (shared by the pipeline executor and the join-phase façade)
# ---------------------------------------------------------------------------
def compute_aggregates(
    query: QuerySpec,
    relations: Dict[str, BoundRelation],
    result: IntermediateResult,
) -> Dict[str, float]:
    """Compute a query's aggregates over the final joined result."""
    values: Dict[str, float] = {}
    for index, spec in enumerate(query.aggregates):
        name = spec.output_name or f"agg_{index}"
        if spec.function == "count":
            values[name] = float(result.num_rows)
            continue
        assert spec.alias is not None and spec.column is not None
        column_values = result.column_values(relations, spec.alias, spec.column)
        values[name] = _apply_aggregate(spec.function, column_values)
    return values


def _apply_aggregate(function: str, values: np.ndarray) -> float:
    if values.size == 0:
        return 0.0
    if function == "sum":
        return float(values.sum())
    if function == "min":
        return float(values.min())
    if function == "max":
        return float(values.max())
    if function == "avg":
        return float(values.mean())
    raise ExecutionError(f"unsupported aggregate function {function!r}")


def _representative_alias(attr_class, aliases: frozenset) -> str:
    for alias in sorted(aliases):
        if attr_class.touches(alias):
            return alias
    raise ExecutionError(
        f"attribute class {attr_class.name!r} has no member among aliases {sorted(aliases)}"
    )
