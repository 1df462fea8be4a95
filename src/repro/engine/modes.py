"""Execution modes: the systems compared throughout the paper's evaluation.

* ``BASELINE``   — plain binary hash joins in the chosen join order
  (vanilla DuckDB in the paper).
* ``BLOOM_JOIN`` — baseline plus a per-join Bloom filter passed from the
  build side to the probe side (classic sideways information passing).
* ``PT``         — the original Predicate Transfer: Small2Large transfer
  graph, Bloom-filter transfer phase, then the join phase.
* ``RPT``        — Robust Predicate Transfer: LargestRoot join tree,
  Bloom-filter transfer phase, then the join phase.  The paper's
  contribution.
* ``YANNAKAKIS`` — exact (hash-based) semi-join reduction over the
  LargestRoot join tree; the classical algorithm PT/RPT approximate.

Every mode compiles into the same :class:`~repro.plan.physical.PhysicalPlan`
op vocabulary; the property flags below drive that compilation:

==============  ==============  ============  ===============  =============
mode            transfer phase  Bloom xfer    exact semi-join  per-join SIP
==============  ==============  ============  ===============  =============
``BASELINE``    no              no            no               no
``BLOOM_JOIN``  no              no            no               yes
``PT``          yes             yes           no               no
``RPT``         yes             yes           no               no
``YANNAKAKIS``  yes             no            yes              no
==============  ==============  ============  ===============  =============
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass
from typing import Optional

from repro.exec.adaptive import DEFAULT_MIN_YIELD as DEFAULT_ADAPTIVE_MIN_YIELD
from repro.exec.kernels import DEFAULT_PARTITION_BITS


class ExecutionMode(enum.Enum):
    """Which join-processing strategy the engine uses for a query."""

    BASELINE = "baseline"
    BLOOM_JOIN = "bloom_join"
    PT = "pt"
    RPT = "rpt"
    YANNAKAKIS = "yannakakis"

    @property
    def uses_transfer_phase(self) -> bool:
        """True for modes that run a semi-join / Bloom transfer phase."""
        return self in (ExecutionMode.PT, ExecutionMode.RPT, ExecutionMode.YANNAKAKIS)

    @property
    def uses_bloom_filters(self) -> bool:
        """True for modes whose transfer phase uses Bloom filters (not exact semi-joins)."""
        return self in (ExecutionMode.PT, ExecutionMode.RPT)

    @property
    def uses_exact_semijoins(self) -> bool:
        """True for modes whose transfer phase is exact (no false positives)."""
        return self is ExecutionMode.YANNAKAKIS

    @property
    def uses_per_join_bloom(self) -> bool:
        """True for the Bloom Join baseline (per-join SIP filters)."""
        return self is ExecutionMode.BLOOM_JOIN

    @property
    def label(self) -> str:
        """Display label used in reports (matches the paper's legend)."""
        return {
            ExecutionMode.BASELINE: "DuckDB",
            ExecutionMode.BLOOM_JOIN: "Bloom Join",
            ExecutionMode.PT: "PT",
            ExecutionMode.RPT: "RPT",
            ExecutionMode.YANNAKAKIS: "Yannakakis",
        }[self]


#: Estimated build rows at which the compiler switches a hash join to the
#: radix-partitioned form.  Below this a monolithic sort fits the caches and
#: the partitioning pass is pure overhead.
DEFAULT_PARTITION_THRESHOLD = 1 << 17

#: Environment variables consulted when an :class:`ExecutionConfig` knob is
#: left unset — the CI backend matrix runs the whole suite under
#: ``REPRO_BACKEND=parallel`` without touching any call site.
ENV_BACKEND = "REPRO_BACKEND"
ENV_NUM_THREADS = "REPRO_NUM_THREADS"
ENV_FUSE_FILTERS = "REPRO_FUSE_FILTERS"
ENV_MEMORY_BUDGET = "REPRO_MEMORY_BUDGET"
ENV_PARTITION_BITS = "REPRO_PARTITION_BITS"
ENV_HASH_CACHE = "REPRO_HASH_CACHE"
ENV_SELECTION_VECTORS = "REPRO_SELECTION_VECTORS"
ENV_ARTIFACT_CACHE = "REPRO_ARTIFACT_CACHE"
ENV_ARTIFACT_CACHE_BUDGET = "REPRO_ARTIFACT_CACHE_BUDGET"
ENV_ADAPTIVE_TRANSFER = "REPRO_ADAPTIVE_TRANSFER"
ENV_ADAPTIVE_MIN_YIELD = "REPRO_ADAPTIVE_MIN_YIELD"
ENV_NDV_SIZING = "REPRO_NDV_SIZING"
ENV_BITMAP_DOWNGRADE = "REPRO_BITMAP_DOWNGRADE"
ENV_ENCODINGS = "REPRO_ENCODINGS"
ENV_TIMEOUT_SECONDS = "REPRO_TIMEOUT_SECONDS"
ENV_FAULTS = "REPRO_FAULTS"
ENV_TRACE = "REPRO_TRACE"


def _env_flag(name: str) -> Optional[bool]:
    """Parse a boolean ``REPRO_*`` environment variable (None when unset)."""
    value = os.environ.get(name)
    if value is None or value == "":
        return None
    return value.strip().lower() not in ("0", "false", "no", "off")


@dataclass(frozen=True)
class ExecutionConfig:
    """Runtime configuration of the execution stack (backend and resources).

    One object carries every knob the runtime layers consult so the bench
    harness can compare backends uniformly:

    * ``backend`` — ``"serial"`` (whole-column kernels), ``"chunked"``
      (morsel-granular with the Figure 14 simulated-parallelism model),
      or ``"parallel"`` (a real morsel-driven scheduler over a thread pool,
      bit-identical to serial).
    * ``num_threads`` — worker threads of the parallel backend (``None``:
      one per CPU, capped at 32 like the paper's testbed).
    * ``chunk_size`` — morsel granularity of the chunked/parallel backends
      (``None``: each backend's own default — 2048-row chunks for the
      chunked simulation, larger morsels for the real parallel scheduler).
    * ``memory_budget_bytes`` — the :class:`~repro.storage.buffer.MemoryGovernor`
      budget; ``None`` means ungoverned (peak footprint still tracked).
    * ``partition_bits`` / ``partition_threshold`` — radix-partitioned hash
      join configuration; ``partition_threshold=None`` disables partitioning.
    * ``hash_cache`` — the query-lifetime
      :class:`~repro.exec.hashcache.HashCache`: hash each key column with
      splitmix64 exactly once per query and replay the pass across every
      Bloom insert/probe (default on; bit-identical either way).
    * ``selection_vectors`` — late-materialized transfer: Bloom probes carry
      row-id selection vectors over the immutable base columns and gather at
      the probe itself rather than materializing filtered key arrays at every
      step (default on; bit-identical either way).
    * ``artifact_cache`` / ``artifact_cache_budget_bytes`` — the cross-query
      :class:`~repro.storage.artifacts.ArtifactCache` memoizing built Bloom
      filters and frozen hash indexes across ``Database.execute`` calls
      (default off; keyed by table version + filter fingerprint, LRU within
      the byte budget).
    * ``adaptive_transfer`` / ``adaptive_min_yield`` — the
      :class:`~repro.exec.adaptive.AdaptiveTransferController`: observe each
      transfer step's pruning yield at runtime and cancel a relation's
      remaining passes (plus the builds that only feed them, plus the whole
      backward pass when the forward pass reduced nothing) once the yield
      falls below ``adaptive_min_yield`` (default off / 1%).  Purely
      reductive passes mean skipping never changes final results — only
      their speed.
    * ``ndv_sizing`` — size each transfer Bloom filter from a KMV
      distinct-count estimate of its build column instead of the build row
      count, shrinking filter bytes on duplicate-heavy keys.  Defaults to
      the resolved ``adaptive_transfer`` value.
    * ``bitmap_downgrade`` — downgrade a Bloom step whose build-side key
      domain is small/dense to an exact bitmap semi-join (no false
      positives, cheaper probes).  Defaults to the resolved
      ``adaptive_transfer`` value.
    * ``fuse_filters`` — compile conjunctive base-table predicates into one
      fused kernel that short-circuits later conjuncts through progressive
      selection vectors instead of materializing a boolean mask per node
      (default off; bit-identical either way).
    * ``encodings`` — block-encoded columnar execution: columns carry
      dictionary / run-length / bit-packed encodings chosen at registration
      time, base filters consult per-block min/max zone maps to skip whole
      blocks, and string predicates are rewritten into dictionary code
      space (default off; bit-identical either way).
    * ``timeout_seconds`` — query deadline: a
      :class:`~repro.exec.faults.CancelToken` is checked at morsel-gather
      barriers and at chunk granularity inside long kernels; expiry raises
      :class:`~repro.errors.QueryTimeout` carrying the partial stats
      (``None``: no deadline).
    * ``faults`` — deterministic fault-injection spec
      (``"seed:1234,rate:0.05[,sites:a|b][,latency:s]"``), see
      ``exec/faults.py``; ``None`` leaves the ``REPRO_FAULTS`` environment
      configuration in place.
    * ``tracing`` — record a hierarchical :class:`~repro.obs.trace.Span`
      tree (query → phase → physical op → morsel batch) on the
      :class:`~repro.engine.database.QueryResult` (default off; results
      are bit-identical either way, overhead is gated under 2% by the
      observability microbench).

    Unset knobs (``backend=None`` etc.) resolve from ``REPRO_*`` environment
    variables, then defaults — see :meth:`resolved`.
    """

    backend: Optional[str] = None
    num_threads: Optional[int] = None
    chunk_size: Optional[int] = None
    memory_budget_bytes: Optional[int] = None
    partition_bits: Optional[int] = None
    partition_threshold: Optional[int] = DEFAULT_PARTITION_THRESHOLD
    hash_cache: Optional[bool] = None
    selection_vectors: Optional[bool] = None
    artifact_cache: Optional[bool] = None
    artifact_cache_budget_bytes: Optional[int] = None
    adaptive_transfer: Optional[bool] = None
    adaptive_min_yield: Optional[float] = None
    ndv_sizing: Optional[bool] = None
    bitmap_downgrade: Optional[bool] = None
    fuse_filters: Optional[bool] = None
    encodings: Optional[bool] = None
    timeout_seconds: Optional[float] = None
    faults: Optional[str] = None
    tracing: Optional[bool] = None

    def resolved(self) -> "ExecutionConfig":
        """This config with unset knobs filled from the environment / defaults."""
        backend = self.backend or os.environ.get(ENV_BACKEND) or "serial"
        num_threads = self.num_threads
        if num_threads is None and os.environ.get(ENV_NUM_THREADS):
            num_threads = int(os.environ[ENV_NUM_THREADS])
        memory_budget = self.memory_budget_bytes
        if memory_budget is None and os.environ.get(ENV_MEMORY_BUDGET):
            memory_budget = int(os.environ[ENV_MEMORY_BUDGET])
        partition_bits = self.partition_bits
        if partition_bits is None and os.environ.get(ENV_PARTITION_BITS):
            partition_bits = int(os.environ[ENV_PARTITION_BITS])
        if partition_bits is None:
            partition_bits = DEFAULT_PARTITION_BITS
        hash_cache = self.hash_cache
        if hash_cache is None:
            hash_cache = _env_flag(ENV_HASH_CACHE)
        if hash_cache is None:
            hash_cache = True
        selection_vectors = self.selection_vectors
        if selection_vectors is None:
            selection_vectors = _env_flag(ENV_SELECTION_VECTORS)
        if selection_vectors is None:
            selection_vectors = True
        artifact_cache = self.artifact_cache
        if artifact_cache is None:
            artifact_cache = _env_flag(ENV_ARTIFACT_CACHE)
        if artifact_cache is None:
            artifact_cache = False
        artifact_budget = self.artifact_cache_budget_bytes
        if artifact_budget is None and os.environ.get(ENV_ARTIFACT_CACHE_BUDGET):
            artifact_budget = int(os.environ[ENV_ARTIFACT_CACHE_BUDGET])
        adaptive_transfer = self.adaptive_transfer
        if adaptive_transfer is None:
            adaptive_transfer = _env_flag(ENV_ADAPTIVE_TRANSFER)
        if adaptive_transfer is None:
            adaptive_transfer = False
        adaptive_min_yield = self.adaptive_min_yield
        if adaptive_min_yield is None and os.environ.get(ENV_ADAPTIVE_MIN_YIELD):
            adaptive_min_yield = float(os.environ[ENV_ADAPTIVE_MIN_YIELD])
        if adaptive_min_yield is None:
            adaptive_min_yield = DEFAULT_ADAPTIVE_MIN_YIELD
        # NDV sizing and the exact-bitmap downgrade ride along with the
        # adaptive master switch unless configured individually.
        ndv_sizing = self.ndv_sizing
        if ndv_sizing is None:
            ndv_sizing = _env_flag(ENV_NDV_SIZING)
        if ndv_sizing is None:
            ndv_sizing = adaptive_transfer
        bitmap_downgrade = self.bitmap_downgrade
        if bitmap_downgrade is None:
            bitmap_downgrade = _env_flag(ENV_BITMAP_DOWNGRADE)
        if bitmap_downgrade is None:
            bitmap_downgrade = adaptive_transfer
        fuse_filters = self.fuse_filters
        if fuse_filters is None:
            fuse_filters = _env_flag(ENV_FUSE_FILTERS)
        if fuse_filters is None:
            fuse_filters = False
        encodings = self.encodings
        if encodings is None:
            encodings = _env_flag(ENV_ENCODINGS)
        if encodings is None:
            encodings = False
        timeout_seconds = self.timeout_seconds
        if timeout_seconds is None and os.environ.get(ENV_TIMEOUT_SECONDS):
            timeout_seconds = float(os.environ[ENV_TIMEOUT_SECONDS])
        tracing = self.tracing
        if tracing is None:
            tracing = _env_flag(ENV_TRACE)
        if tracing is None:
            tracing = False
        # ``faults`` stays None unless set explicitly: the injector consults
        # REPRO_FAULTS itself, and None means "don't override it".
        return ExecutionConfig(
            backend=backend,
            num_threads=num_threads,
            chunk_size=self.chunk_size,
            memory_budget_bytes=memory_budget,
            partition_bits=partition_bits,
            partition_threshold=self.partition_threshold,
            hash_cache=hash_cache,
            selection_vectors=selection_vectors,
            artifact_cache=artifact_cache,
            artifact_cache_budget_bytes=artifact_budget,
            adaptive_transfer=adaptive_transfer,
            adaptive_min_yield=adaptive_min_yield,
            ndv_sizing=ndv_sizing,
            bitmap_downgrade=bitmap_downgrade,
            fuse_filters=fuse_filters,
            encodings=encodings,
            timeout_seconds=timeout_seconds,
            faults=self.faults,
            tracing=tracing,
        )
