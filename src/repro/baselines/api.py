"""Uniform runner and registry for all partitioners.

Every partitioner has the numpy signature ``fn(edges, k, **kw) ->
per-edge partition array``; the registry maps the names used in the
paper's tables onto them. :func:`run_partitioner` adds wall-clock and
peak-memory measurement (tracemalloc) — the Time/Mem columns of
Table 4 — and the Spark wrapper returns an assignment DataFrame.
"""
from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass
from typing import Callable

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.core.s5p import s5p_partition_np
from repro.core.stream import assign_to_df, df_to_edges
from .clugp import clugp_partition
from .gamebased import cvsp_partition, mdsgp_partition, rmgp_partition
from .greedy import greedy_partition
from .hashing import dbh_partition, grid_partition, random_partition
from .hdrf import hdrf_partition
from .ne import ne_partition
from .twops import twops_partition


def _s5p(edges: np.ndarray, k: int, **kw) -> np.ndarray:
    part, _ = s5p_partition_np(edges, k, **kw)
    return part


PARTITIONERS: dict[str, Callable[..., np.ndarray]] = {
    "Random": random_partition,
    "DBH": dbh_partition,
    "Grid": grid_partition,
    "Greedy": greedy_partition,
    "HDRF": hdrf_partition,
    "2PS-L": twops_partition,
    "CLUGP": clugp_partition,
    "NE": ne_partition,
    "RMGP": rmgp_partition,
    "MDSGP": mdsgp_partition,
    "CVSP": cvsp_partition,
    "S5P": _s5p,
}


@dataclass
class RunStats:
    """Measured cost of one partitioner run (Table 4 columns)."""

    name: str
    k: int
    wall_s: float
    peak_mem_mb: float


def run_partitioner(
    edges: np.ndarray, name: str, k: int, **kwargs
) -> tuple[np.ndarray, RunStats]:
    """Run a registered partitioner with timing + peak-memory tracking."""
    fn = PARTITIONERS[name]
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        part = fn(edges, k, **kwargs)
    finally:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    wall = time.perf_counter() - t0
    return part, RunStats(name=name, k=k, wall_s=wall, peak_mem_mb=peak / 2**20)


def run_partitioner_spark(
    spark: SparkSession, edges_df: DataFrame, name: str, k: int, **kwargs
) -> tuple[DataFrame, RunStats]:
    """Spark wrapper: stream DataFrame in, assignment DataFrame out."""
    edges = df_to_edges(edges_df)
    part, stats = run_partitioner(edges, name, k, **kwargs)
    return assign_to_df(spark, part), stats
