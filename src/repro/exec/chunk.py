"""Data-chunk granularity.

DuckDB's push-based engine processes data in fixed-size *data chunks*
(default 2048 tuples).  The chunked backend and the simulated parallel
model cut probe inputs at the same granularity as the original system.
"""

from __future__ import annotations

#: Default tuples per chunk, matching DuckDB's vector size.
DEFAULT_CHUNK_SIZE = 2048


def num_chunks(total_rows: int, chunk_size: int = DEFAULT_CHUNK_SIZE) -> int:
    """Number of chunks needed for ``total_rows`` rows."""
    if total_rows <= 0:
        return 0
    return (total_rows + chunk_size - 1) // chunk_size
