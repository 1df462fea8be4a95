"""Compare two sets of benchmark runs under the bounds of ``BENCHMARK.json``.

Usage, from the root of a checkout::

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds run records as ``perfbench/run.py`` appends them to its
``--out`` file (one JSON object per line; several seeds and workloads may
share a file).  For every end-to-end metric on every workload the verdict
is one of:

* ``better`` -- the new runs win at least 90% of all (base, new) pairs and
  the medians differ by more than the base runs' own spread (or every new
  run beats every base run);
* ``worse`` -- the new median is worse than the base median by more than the
  metric's bound (or every new run is worse than every base run);
* ``unresolved`` -- the run-to-run spread, as the distance between quartiles
  over the median, is wider than the bound;
* ``same`` -- none of the above.

Each ratio is printed with its base.  From the traced runs it also names the
per-layer metric whose median moved most, and what it should move.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.metrics import MOVES  # noqa: E402


def load(path: Path) -> Dict[tuple, Dict[str, List[float]]]:
    """(workload, trace) -> metric -> values across the file's runs."""
    grouped: Dict[tuple, Dict[str, List[float]]] = {}
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        env = record["fingerprint"]
        key = (env["workload"], env["trace"])
        for name, metric in record["metrics"].items():
            grouped.setdefault(key, {}).setdefault(name, []).append(metric["value"])
    return grouped


def spread(values: List[float]) -> float:
    """Distance between the quartiles as a share of the median (0 below 2 runs)."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)


def verdict(base: List[float], new: List[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    base_median, new_median = statistics.median(base), statistics.median(new)
    worse_by = sign * (new_median - base_median) / abs(base_median) if base_median else 0.0
    pairs = [sign * (b - n) for b in base for n in new]
    wins = sum(1 for p in pairs if p > 0)
    losses = sum(1 for p in pairs if p < 0)
    if wins == len(pairs) and worse_by < 0:
        return "better"
    if losses == len(pairs) and worse_by > bound:
        return "worse"
    if max(spread(base), spread(new)) > bound:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if wins >= 0.9 * len(pairs) and -worse_by > spread(base):
        return "better"
    return "same"


def compare(base_path: Path, new_path: Path, out=sys.stdout) -> Dict[tuple, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = load(base_path), load(new_path)
    verdicts: Dict[tuple, str] = {}
    for workload in sorted({w for w, _ in base} | {w for w, _ in new}):
        b, n = base.get((workload, 0)), new.get((workload, 0))
        if not b or not n:
            print(f"{workload}: no untraced runs on both sides", file=out)
            continue
        print(f"{workload} (base runs {len(b['setup_s'])}, new runs {len(n['setup_s'])})", file=out)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            result = verdict(b[name], n[name], metric["better"], metric["bound"])
            verdicts[(workload, name)] = result
            base_median, new_median = statistics.median(b[name]), statistics.median(n[name])
            ratio = new_median / base_median if base_median else math.nan
            print(
                f"  {name:20s} {result:10s} new/base {ratio:.3f} "
                f"(base {base_median:.4g}, new {new_median:.4g} {metric['unit']}; "
                f"bound {metric['bound']}, spread base {spread(b[name]):.3f} new {spread(n[name]):.3f})",
                file=out,
            )
        moved = most_moved(base.get((workload, 1)), new.get((workload, 1)))
        if moved:
            name, base_median, new_median = moved
            print(
                f"  per-layer metric that moved most: {name} "
                f"(base {base_median:.4g}, new {new_median:.4g}); it should move {MOVES.get(name, '?')}",
                file=out,
            )
    return verdicts


def most_moved(base, new):
    """(name, base median, new median) of the largest relative move, or None."""
    if not base or not new:
        return None
    best, best_size = None, 0.0
    for name in sorted(set(base) & set(new)):
        b, n = statistics.median(base[name]), statistics.median(new[name])
        if b == n:
            continue
        size = abs(math.log(n / b)) if b > 0 and n > 0 else math.inf
        if best is None or size > best_size:
            best, best_size = (name, b, n), size
    return best


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    compare(Path(argv[0]), Path(argv[1]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
