"""Partitioning-quality metrics: replication factor and load balance.

RF (Eq. 1) = Σ_v |P(v)| / |V| where P(v) is the set of partitions that
hold an edge incident to v. Load balance (Eq. 2) = k·max_i |p_i| / |E|.

Spark DataFrame implementations are the source of truth for experiments
(and are DuckDB-oracle-tested); the numpy twins exist for the inner
loops of jobs that evaluate hundreds of partitionings. The Spark RF
reads the ``edges ⋈ assign`` join once, explodes each edge into its two
``(v, partition)`` ends, and shuffles once, hash-partitioned by ``v``;
the distinct-partition count per vertex then needs no further exchange.

Every metric raises ``ValueError`` on an empty assignment, where RF and
balance are undefined (0/0).
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def replication_df(edges_df: DataFrame, assign_df: DataFrame) -> DataFrame:
    """Per-vertex replication counts ``(v, n_replicas)`` via Spark.

    One scan of the join and one exchange: the explicit ``repartition``
    by ``v`` already satisfies the grouping, so the aggregation (and the
    distinct inside it) runs without a second shuffle.
    """
    n_parts = edges_df.sparkSession.sparkContext.defaultParallelism
    return (
        edges_df.join(assign_df, "eid")
        .select(F.explode(F.array("src", "dst")).alias("v"), "partition")
        .repartition(n_parts, "v")
        .groupBy("v")
        .agg(F.countDistinct("partition").alias("n_replicas"))
    )


def _require_edges(n_edges: int | None) -> None:
    if not n_edges:
        raise ValueError("empty assignment: RF and balance need at least one edge")


def replication_factor(edges_df: DataFrame, assign_df: DataFrame) -> float:
    """Replication factor of an assignment, computed in Spark."""
    row = (
        replication_df(edges_df, assign_df)
        .agg(F.sum("n_replicas").alias("s"), F.count("*").alias("n"))
        .collect()[0]
    )
    _require_edges(row["n"])
    return float(row["s"]) / float(row["n"])


def load_balance(assign_df: DataFrame, k: int) -> float:
    """Relative load balance k·max|p_i|/|E| (lower is better, ≥ 1)."""
    sizes = assign_df.groupBy("partition").agg(F.count("*").alias("sz"))
    row = sizes.agg(F.max("sz").alias("mx"), F.sum("sz").alias("tot")).collect()[0]
    _require_edges(row["tot"])
    return float(k * row["mx"]) / float(row["tot"])


def replication_factor_np(edges: np.ndarray, part: np.ndarray, k: int) -> float:
    """Fast numpy RF: distinct (vertex, partition) pairs over |V|."""
    _require_edges(len(part))
    v = np.concatenate([edges[:, 0], edges[:, 1]])
    p = np.concatenate([part, part]).astype(np.int64)
    pairs = v.astype(np.int64) * np.int64(k) + p
    n_pairs = len(np.unique(pairs))
    n_v = len(np.unique(v))
    return n_pairs / n_v


def load_balance_np(part: np.ndarray, k: int) -> float:
    """Numpy twin of :func:`load_balance`."""
    _require_edges(len(part))
    sizes = np.bincount(part, minlength=k)
    return float(k * sizes.max()) / float(len(part))


def partition_sizes_np(part: np.ndarray, k: int) -> np.ndarray:
    """Edge count per partition."""
    return np.bincount(part, minlength=k).astype(np.int64)
