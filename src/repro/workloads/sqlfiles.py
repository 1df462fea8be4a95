"""Checked-in SQL workload files and their loader.

``src/repro/workloads/sql/`` holds one ``.sql`` file per workload query —
the synthetic adversarial instances, all TPC-H join queries, and all 33 JOB
templates — generated from the hand-built :class:`~repro.query.QuerySpec`
definitions by :func:`regenerate` via the ``QuerySpec → SQL`` formatter.
Each file starts with a ``-- name:`` directive, so running it through
:meth:`Database.sql <repro.engine.database.Database.sql>` produces the same
query name (and, as the test suite proves, bit-identical results) as the
hand-built spec.

The loader is deliberately text-first: :func:`sql_text` returns raw SQL, and
binding happens against whatever database the caller supplies — the same
contract a real benchmark harness has when it feeds ``.sql`` files to an
engine under test.

:func:`run_all` executes every checked-in file end to end (used by the CI
SQL-workload leg): it loads/constructs the owning workload's database,
compiles each file through the SQL front end, executes it, and cross-checks
the aggregates against the hand-built spec executed under the same plan.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.engine.database import Database, ExecutionOptions
from repro.engine.modes import ExecutionConfig, ExecutionMode
from repro.errors import ReproError, WorkloadError
from repro.query import QuerySpec
from repro.sql import to_sql
from repro.workloads import job, synthetic, tpch

#: Directory of the checked-in ``.sql`` files.
SQL_DIR = Path(__file__).resolve().parent / "sql"

#: Workload key → filename prefix of its ``.sql`` files.
_PREFIXES = {"synthetic": "synthetic_", "tpch": "tpch_", "job": "job_"}


def available() -> Dict[str, Path]:
    """All checked-in ``.sql`` files, keyed by file stem, in sorted order."""
    return {path.stem: path for path in sorted(SQL_DIR.glob("*.sql"))}


def sql_path(stem: str) -> Path:
    """Path of one checked-in ``.sql`` file (e.g. ``"tpch_q5"``, ``"job_2a"``)."""
    path = SQL_DIR / f"{stem}.sql"
    if not path.is_file():
        known = ", ".join(sorted(available())) or "(none)"
        raise WorkloadError(f"no checked-in SQL file {stem!r} (available: {known})")
    return path


def sql_text(stem: str) -> str:
    """Raw SQL text of one checked-in file."""
    return sql_path(stem).read_text()


def workload_of(stem: str) -> str:
    """Which workload a file stem belongs to (by filename prefix)."""
    for workload, prefix in _PREFIXES.items():
        if stem.startswith(prefix):
            return workload
    raise WorkloadError(
        f"SQL file stem {stem!r} matches no workload prefix {sorted(_PREFIXES.values())}"
    )


def stems_for(workload: str) -> List[str]:
    """File stems of one workload's checked-in queries, sorted."""
    if workload not in _PREFIXES:
        raise WorkloadError(
            f"unknown workload {workload!r}; expected one of {sorted(_PREFIXES)}"
        )
    prefix = _PREFIXES[workload]
    return [stem for stem in available() if stem.startswith(prefix)]


# ---------------------------------------------------------------------------
# Hand-built counterparts (for generation and bit-identity checks)
# ---------------------------------------------------------------------------
def handbuilt_specs() -> Dict[str, QuerySpec]:
    """File stem → the hand-built ``QuerySpec`` the checked-in file mirrors."""
    specs: Dict[str, QuerySpec] = {}
    for instance in _synthetic_instances().values():
        specs[f"synthetic_{instance.query.name}"] = instance.query
    for number in tpch.query_numbers():
        spec = tpch.query(number)
        specs[spec.name] = spec  # names are already "tpch_qN"
    for number in job.template_numbers():
        spec = job.query(number)
        specs[spec.name] = spec  # names are already "job_Na"
    return specs


def _synthetic_instances() -> Dict[str, synthetic.SyntheticInstance]:
    """Query name → freshly built synthetic instance (each owns its database)."""
    instances = (
        synthetic.figure2_instance(),
        synthetic.figure12_instance(),
        synthetic.unsafe_subjoin_instance(),
    )
    return {instance.query.name: instance for instance in instances}


def database_for(
    workload: str,
    scale: float = 0.1,
    seed: int = 1,
    synthetic_query: Optional[str] = None,
) -> Database:
    """Build the database a workload's SQL files bind against.

    For ``"synthetic"``, each query owns its own instance, so
    ``synthetic_query`` (the query name, e.g. ``"figure2"``) is required.
    """
    if workload == "tpch":
        db = Database()
        tpch.load(db, scale=scale, seed=seed)
        return db
    if workload == "job":
        db = Database()
        job.load(db, scale=scale, seed=seed)
        return db
    if workload == "synthetic":
        instances = _synthetic_instances()
        if synthetic_query not in instances:
            raise WorkloadError(
                f"unknown synthetic query {synthetic_query!r} "
                f"(expected one of {sorted(instances)})"
            )
        return instances[synthetic_query].database
    raise WorkloadError(f"unknown workload {workload!r}; expected one of {sorted(_PREFIXES)}")


# ---------------------------------------------------------------------------
# Generation (kept runnable so the files can never drift from the specs)
# ---------------------------------------------------------------------------
def rendered_files() -> Dict[str, str]:
    """File stem → the SQL text :func:`regenerate` would write."""
    return {stem: to_sql(spec) for stem, spec in handbuilt_specs().items()}


def regenerate(directory: Optional[Path] = None) -> List[Path]:
    """(Re)write every workload ``.sql`` file from the hand-built specs.

    The test suite asserts the checked-in files equal :func:`rendered_files`,
    so after changing a workload query definition, run::

        PYTHONPATH=src python -c "from repro.workloads import sqlfiles; sqlfiles.regenerate()"
    """
    directory = directory or SQL_DIR
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for stem, text in sorted(rendered_files().items()):
        path = directory / f"{stem}.sql"
        path.write_text(text)
        written.append(path)
    return written


# ---------------------------------------------------------------------------
# Execution harness (the CI SQL-workload leg)
# ---------------------------------------------------------------------------
def run_all(
    mode: ExecutionMode = ExecutionMode.RPT,
    options: Optional[ExecutionOptions] = None,
    scale: float = 0.1,
    seed: int = 1,
    verify_against_handbuilt: bool = True,
    database_cache: Optional[Dict[str, Database]] = None,
) -> List[Dict[str, object]]:
    """Execute every checked-in ``.sql`` file through ``Database.sql``.

    Returns one record per file: ``{"stem", "name", "workload",
    "aggregates", "matches_handbuilt"}``.  With
    ``verify_against_handbuilt`` (the default), each SQL execution is
    compared against the hand-built spec executed with the same plan and
    options; a mismatch raises :class:`WorkloadError` — this is the
    bit-identity contract CI enforces.
    """
    specs = handbuilt_specs()
    databases: Dict[str, Database] = database_cache if database_cache is not None else {}
    records: List[Dict[str, object]] = []
    for stem, path in available().items():
        workload = workload_of(stem)
        if workload == "synthetic":
            query_name = stem[len("synthetic_") :]
            cache_key = f"synthetic:{query_name}"
            if cache_key not in databases:
                databases[cache_key] = database_for("synthetic", synthetic_query=query_name)
            db = databases[cache_key]
        else:
            if workload not in databases:
                databases[workload] = database_for(workload, scale=scale, seed=seed)
            db = databases[workload]
        result = db.sql(path.read_text(), mode=mode, options=options)
        record: Dict[str, object] = {
            "stem": stem,
            "name": result.query.name,
            "workload": workload,
            "aggregates": dict(result.aggregates),
        }
        if verify_against_handbuilt:
            if stem not in specs:
                raise WorkloadError(f"SQL file {stem!r} has no hand-built counterpart")
            expected = db.execute(specs[stem], mode=mode, plan=result.plan, options=options)
            matches = expected.aggregates == result.aggregates
            record["matches_handbuilt"] = matches
            if not matches:
                raise WorkloadError(
                    f"SQL file {stem!r} diverged from its hand-built spec under "
                    f"{mode.value}: {result.aggregates} != {expected.aggregates}"
                )
        records.append(record)
    return records


def run_fault_sweep(
    fault_spec: str,
    backend: str = "serial",
    mode: ExecutionMode = ExecutionMode.RPT,
    scale: float = 0.1,
    seed: int = 1,
    timeout_seconds: Optional[float] = None,
    database_cache: Optional[Dict[str, Database]] = None,
    stems: Optional[List[str]] = None,
) -> List[Dict[str, object]]:
    """Run every checked-in ``.sql`` workload under deterministic fault injection.

    This is the fault-tolerance acceptance contract (used by the CI
    fault-injection leg and ``tests/test_faults.py``): under any
    :class:`~repro.exec.faults.FaultPlan`, every query must either complete
    with aggregates **bit-identical** to a fault-free serial execution or
    raise a typed :class:`~repro.errors.ReproError` subclass — and either
    way leave no outstanding memory-governor reservation behind.  Any other
    outcome raises :class:`WorkloadError`.

    Returns one record per file: ``{"stem", "workload", "outcome"}`` where
    ``outcome`` is ``"completed"`` (bit-identical) or the name of the typed
    error class that was raised.  ``stems`` restricts the sweep to a subset
    of files (the full set when ``None``).
    """
    import gc

    from repro.exec import faults
    from repro.storage import buffer

    selected = {
        stem: path
        for stem, path in available().items()
        if stems is None or stem in stems
    }
    databases: Dict[str, Database] = database_cache if database_cache is not None else {}

    def database_of(stem: str, workload: str) -> Database:
        if workload == "synthetic":
            query_name = stem[len("synthetic_") :]
            cache_key = f"synthetic:{query_name}"
            if cache_key not in databases:
                databases[cache_key] = database_for("synthetic", synthetic_query=query_name)
            return databases[cache_key]
        if workload not in databases:
            databases[workload] = database_for(workload, scale=scale, seed=seed)
        return databases[workload]

    # Fault-free serial baselines, computed with injection disabled.
    faults.clear()
    serial_options = ExecutionOptions(execution=ExecutionConfig(backend="serial"))
    baselines: Dict[str, Dict[str, float]] = {}
    for stem, path in selected.items():
        db = database_of(stem, workload_of(stem))
        baselines[stem] = dict(db.sql(path.read_text(), mode=mode, options=serial_options).aggregates)

    options = ExecutionOptions(
        execution=ExecutionConfig(
            backend=backend, faults=fault_spec, timeout_seconds=timeout_seconds
        )
    )
    records: List[Dict[str, object]] = []
    for stem, path in selected.items():
        workload = workload_of(stem)
        db = database_of(stem, workload)
        try:
            result = db.sql(path.read_text(), mode=mode, options=options)
        except ReproError as error:
            outcome = type(error).__name__
        else:
            if dict(result.aggregates) != baselines[stem]:
                raise WorkloadError(
                    f"SQL file {stem!r} diverged from its fault-free serial baseline "
                    f"under faults {fault_spec!r} on backend {backend!r}: "
                    f"{dict(result.aggregates)} != {baselines[stem]}"
                )
            outcome = "completed"
        # The no-leak invariant, checked after *every* query: no governor
        # holds a reservation.
        gc.collect()
        outstanding = buffer.outstanding_reservations()
        if outstanding:
            raise WorkloadError(
                f"SQL file {stem!r} leaked governor reservations under faults "
                f"{fault_spec!r}: {outstanding}"
            )
        records.append({"stem": stem, "workload": workload, "outcome": outcome})
    faults.clear()
    return records
