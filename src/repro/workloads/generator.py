"""Shared synthetic-data generation utilities for the benchmark workloads.

The paper evaluates against TPC-H SF100, JOB on the real IMDB dataset,
TPC-DS SF100, and DSB SF100 — hundreds of gigabytes that are neither
available offline nor tractable for a pure-Python engine.  The workload
modules therefore generate *scaled-down synthetic* datasets that preserve
what drives join-order (non-)robustness:

* the schema and its key/foreign-key structure (which determines the join
  graph topology of every query),
* realistic fan-outs between fact and dimension tables,
* value skew where the original data is skewed (DSB; IMDB's long-tailed
  fan-outs), and
* selective dimension predicates.

All generators are deterministic given a seed.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.errors import WorkloadError


@dataclass(frozen=True)
class WorkloadScale:
    """Scale parameters shared by the workload generators.

    Attributes
    ----------
    scale:
        Scale factor relative to the workload's built-in base cardinalities
        (1.0 reproduces the module's "full" synthetic size, which is already
        thousands of times smaller than SF100).
    seed:
        Seed of the deterministic generator.
    """

    scale: float = 1.0
    seed: int = 42

    def rows(self, base: int, minimum: int = 1) -> int:
        """Scaled row count, never below ``minimum``."""
        return max(int(round(base * self.scale)), minimum)

    def rng(self, salt: str = "") -> np.random.Generator:
        """A NumPy generator seeded deterministically from the scale seed and a salt.

        The salt enters through a CRC-32 digest rather than ``hash()``, whose
        value for strings changes with ``PYTHONHASHSEED``: the same seed must
        generate the same data in every process.
        """
        return np.random.default_rng(
            np.random.SeedSequence([self.seed, zlib.crc32(salt.encode())])
        )


def primary_keys(n: int) -> np.ndarray:
    """Dense primary keys ``1..n`` (matching the TPC generators' convention)."""
    return np.arange(1, n + 1, dtype=np.int64)


def foreign_keys(
    rng: np.random.Generator,
    n: int,
    ref_size: int,
    skew: float = 0.0,
    null_fraction: float = 0.0,
) -> np.ndarray:
    """Foreign-key column referencing a table with ``ref_size`` rows.

    Parameters
    ----------
    rng:
        Random generator.
    n:
        Number of rows to produce.
    ref_size:
        Cardinality of the referenced table (keys are drawn from ``1..ref_size``).
    skew:
        0.0 = uniform; larger values produce a Zipf-like concentration on a
        few referenced keys, mimicking skewed fact tables (DSB) and IMDB's
        long-tailed relationships.
    null_fraction:
        Fraction of rows whose reference is replaced by ``-1`` (a dangling
        key that matches nothing), modelling optional relationships.
    """
    if ref_size <= 0:
        raise WorkloadError("foreign_keys requires a positive referenced-table size")
    if n <= 0:
        return np.zeros(0, dtype=np.int64)
    if skew <= 0.0:
        keys = rng.integers(1, ref_size + 1, size=n, dtype=np.int64)
    else:
        # Zipf-like: rank r gets probability proportional to 1 / r^skew.
        ranks = np.arange(1, ref_size + 1, dtype=np.float64)
        probabilities = 1.0 / np.power(ranks, skew)
        probabilities /= probabilities.sum()
        keys = rng.choice(np.arange(1, ref_size + 1, dtype=np.int64), size=n, p=probabilities)
    if null_fraction > 0.0:
        dangling = rng.random(n) < null_fraction
        keys = np.where(dangling, np.int64(-1), keys)
    return keys


def numeric_column(
    rng: np.random.Generator,
    n: int,
    low: float,
    high: float,
    integer: bool = False,
) -> np.ndarray:
    """A numeric measure column uniformly distributed in ``[low, high]``."""
    if integer:
        return rng.integers(int(low), int(high) + 1, size=n, dtype=np.int64)
    return rng.uniform(low, high, size=n)


def date_column(
    rng: np.random.Generator,
    n: int,
    start_day: int = 0,
    end_day: int = 2557,
) -> np.ndarray:
    """A date column as integer days within ``[start_day, end_day]`` (~7 years)."""
    return rng.integers(start_day, end_day + 1, size=n, dtype=np.int64)


def categorical_column(
    rng: np.random.Generator,
    n: int,
    categories: Sequence[str],
    weights: Optional[Sequence[float]] = None,
) -> list[str]:
    """A string column drawn from a fixed set of categories."""
    if not categories:
        raise WorkloadError("categorical_column requires at least one category")
    if weights is not None:
        probabilities = np.asarray(weights, dtype=np.float64)
        probabilities = probabilities / probabilities.sum()
    else:
        probabilities = None
    choices = rng.choice(len(categories), size=n, p=probabilities)
    return [categories[int(i)] for i in choices]


def names_column(prefix: str, n: int) -> list[str]:
    """Deterministic synthetic names (``prefix#000001`` ...)."""
    return [f"{prefix}#{i:06d}" for i in range(1, n + 1)]


def zipf_weights(n: int, skew: float) -> np.ndarray:
    """Normalized Zipf weights over ``n`` items (skew=0 gives a uniform vector)."""
    ranks = np.arange(1, n + 1, dtype=np.float64)
    if skew <= 0.0:
        weights = np.ones(n, dtype=np.float64)
    else:
        weights = 1.0 / np.power(ranks, skew)
    return weights / weights.sum()
