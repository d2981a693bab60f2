"""Edge-stream model S_G = {e_1, ..., e_|E|} (Section 2.1).

The stream is a Spark DataFrame ``(eid, src, dst)`` where ``eid`` is the
arrival order. Bulk dataflow (degrees, counts) is expressed in the
DataFrame API; the sequential single-pass algorithms consume the stream
as ordered numpy arrays on the driver (DESIGN.md §6), and their per-edge
partition array returns to Spark as the assignment DataFrame
``(eid, partition)``.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F


def edges_to_df(spark: SparkSession, edges: np.ndarray) -> DataFrame:
    """Materialize a numpy ``(m, 2)`` edge list as a stream DataFrame."""
    pdf = pd.DataFrame(
        {
            "eid": np.arange(len(edges), dtype=np.int64),
            "src": edges[:, 0].astype(np.int64),
            "dst": edges[:, 1].astype(np.int64),
        }
    )
    # An explicit schema, because an empty stream has none to infer.
    return spark.createDataFrame(pdf, "eid long, src long, dst long")


def assign_to_df(spark: SparkSession, part: np.ndarray) -> DataFrame:
    """The assignment DataFrame ``(eid, partition)`` of a per-edge
    partition array, where ``eid`` is the arrival order."""
    pdf = pd.DataFrame(
        {
            "eid": np.arange(len(part), dtype=np.int64),
            "partition": np.asarray(part, dtype=np.int64),
        }
    )
    # An explicit schema, because an empty assignment has none to infer.
    return spark.createDataFrame(pdf, "eid long, partition long")


def df_to_edges(edges_df: DataFrame) -> np.ndarray:
    """Collect a stream DataFrame back to an arrival-ordered numpy array."""
    pdf = edges_df.select("eid", "src", "dst").toPandas().sort_values("eid")
    return pdf[["src", "dst"]].to_numpy(dtype=np.int64)


def degrees_df(edges_df: DataFrame) -> DataFrame:
    """Undirected degree of every vertex, as ``(v, degree)``.

    Parallel edges count once per occurrence (the stream model has no
    dedup pass), matching the sequential algorithms' degree counters.
    """
    ends = edges_df.select(F.explode(F.array("src", "dst")).alias("v"))
    return ends.groupBy("v").agg(F.count("*").alias("degree"))


def degrees_np(edges: np.ndarray, n_vertices: int | None = None) -> np.ndarray:
    """Driver-side degree array (index = vertex id), same semantics."""
    if n_vertices is None:
        n_vertices = int(edges.max()) + 1 if len(edges) else 0
    return np.bincount(edges.ravel(), minlength=n_vertices).astype(np.int64)


def relabel_dense(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Relabel vertex ids to a dense 0..n-1 range.

    Returns ``(relabeled_edges, original_ids)`` with original ids sorted
    so the mapping is deterministic. Sequential algorithms index O(|V|)
    state arrays by vertex id, which requires density.
    """
    ids = np.unique(edges)
    pos = np.searchsorted(ids, edges)
    return pos.astype(np.int64), ids
