"""End-to-end benchmark of the repro engine, with a traced per-layer split.

Run from the root of a checkout::

    python3 perfbench/run.py --workload job-plan --seed 1 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` prints its per-layer metrics and writes the recorded spans to
``perfbench/results/``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it is the environment fingerprint.  Every run is also appended to
``--out`` (default ``perfbench/results/runs.jsonl``), the input of
``perfbench/compare.py``.

The engine runs from ``src/`` of the same checkout; nothing is installed.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"

#: The workload generators seed NumPy from ``hash((seed, table))``, which
#: depends on the interpreter's string-hash seed; pinning it makes the same
#: ``--seed`` generate the same data in every process.
HASH_SEED = "0"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=RESULTS / "runs.jsonl")
    return parser.parse_args(argv)


def refuse_environment() -> None:
    """Exit when a ``REPRO_*`` variable would change what is measured."""
    knobs = sorted(name for name in os.environ if name.startswith("REPRO_"))
    if knobs:
        sys.exit(f"perfbench: refusing to run with {', '.join(knobs)} set; unset them first")


def source_digest(src: Path) -> str:
    """SHA-256 over the engine's source files (the checkout may not be a git repo)."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.suffix in (".py", ".sql") and path.is_file():
            digest.update(str(path.relative_to(src)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def fingerprint(args, scales) -> dict:
    import numpy

    from repro import ExecutionOptions

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "source_sha256": source_digest(ROOT / "src"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scales": scales,
        "execution_config": dataclasses.asdict(ExecutionOptions().resolved_execution()),
    }


def declared_metrics(trace: int) -> dict:
    """name -> unit of the metrics ``BENCHMARK.json`` declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {metric["name"]: metric["unit"] for metric in section}


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    refuse_environment()
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(
            sys.executable,
            [sys.executable, *sys.argv],
            {**os.environ, "PYTHONHASHSEED": HASH_SEED},
        )
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no engine source at {src}/repro; run from a full checkout")
    units = declared_metrics(args.trace)

    started = time.perf_counter()
    sys.path[:0] = [str(src), str(ROOT)]
    from perfbench import harness

    import_seconds = time.perf_counter() - started

    result = harness.run(
        args.workload, args.seed, args.seconds, bool(args.trace), import_seconds=import_seconds
    )
    harness.report_failures(result)
    if set(result.metrics) != set(units):
        sys.exit(
            "perfbench: emitted metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(units) - set(result.metrics))}, "
            f"extra {sorted(set(result.metrics) - set(units))}"
        )
    metrics = {name: {"value": result.metrics[name], "unit": unit} for name, unit in units.items()}
    env = fingerprint(args, harness.SCALES[args.workload])
    record = {
        "fingerprint": env,
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "failed_ratio": result.failed / result.attempted,
        "metrics": metrics,
    }
    if result.tracer is not None:
        spans = RESULTS / f"spans-{args.workload}-seed{args.seed}.json"
        result.tracer.write(spans)
        record["spans"] = str(spans.relative_to(ROOT))
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with args.out.open("a") as out:
        out.write(json.dumps(record) + "\n")
    print(json.dumps({"fingerprint": env}))
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
