"""Workloads, the operation each one repeats, and the output checks.

An operation starts from the cached stream DataFrame ``edges_df`` and, for
every partitioner of the workload, produces a cached and counted
assignment DataFrame, then computes the Spark RF and balance. The
untraced operation calls the program's entry points as the jobs do, but
never through ``baselines.api.run_partitioner``/``run_partitioner_spark``,
which turn on ``tracemalloc``:

* S5P: ``core.s5p.s5p_partition``;
* a baseline: ``df_to_edges`` → ``PARTITIONERS[name]`` → ``createDataFrame``.

The traced operation makes the same calls layer by layer inside spans.
"""
from __future__ import annotations

import gc
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

import repro.baselines.clugp as clugp
from repro.baselines.api import PARTITIONERS
from repro.core.bounds import tau_bound
from repro.core.clustering import skewness_aware_clustering
from repro.core.game import stackelberg_game
from repro.core.postprocess import assign_edges, max_load
from repro.core.s5p import s5p_partition
from repro.core.stream import df_to_edges
from repro.core.theta import CMSTheta, ExactTheta
from repro.metrics import load_balance, replication_factor, replication_factor_np
from repro.oracle import assert_equivalent

from memprobe import digest
from tracer import Tracer


@dataclass(frozen=True)
class Workload:
    graph: str  # catalog stand-in, at the ``full`` preset
    k: int
    methods: tuple[str, ...]  # partitioners run by one operation, in order


#: Why each workload exists is in perfbench/README.md.
WORKLOADS = {
    "s5p-social-k256": Workload("OK", 256, ("S5P",)),
    "table3-cell-lj-k64": Workload("LJ", 64, ("CLUGP", "2PS-L", "HDRF", "S5P")),
}


@dataclass
class MethodResult:
    method: str
    rf: float
    balance: float
    assign: DataFrame
    partition_s: float
    evaluate_s: float


@dataclass
class OpResult:
    methods: list[MethodResult]

    @property
    def partition_s(self) -> float:
        return sum(r.partition_s for r in self.methods)

    @property
    def evaluate_s(self) -> float:
        return sum(r.evaluate_s for r in self.methods)

    @property
    def e2e_s(self) -> float:
        return self.partition_s + self.evaluate_s


def to_assign_df(spark: SparkSession, part: np.ndarray) -> DataFrame:
    """Cached and counted ``(eid, partition)`` DataFrame, built the way
    ``baselines.api.run_partitioner_spark`` builds it."""
    pdf = pd.DataFrame({"eid": np.arange(len(part), dtype=np.int64), "partition": part})
    df = spark.createDataFrame(pdf).cache()
    df.count()
    return df


def run_op(spark: SparkSession, edges_df: DataFrame, k: int, methods) -> OpResult:
    """One untraced operation."""
    gc.collect()
    res = OpResult([])
    for m in methods:
        t0 = time.perf_counter()
        if m == "S5P":
            assign, _ = s5p_partition(spark, edges_df, k)
            assign = assign.cache()
            assign.count()
        else:
            part = PARTITIONERS[m](df_to_edges(edges_df), k)
            assign = to_assign_df(spark, part)
        t1 = time.perf_counter()
        rf = replication_factor(edges_df, assign)
        balance = load_balance(assign, k)
        t2 = time.perf_counter()
        res.methods.append(MethodResult(m, rf, balance, assign, t1 - t0, t2 - t1))
    return res


class OutputChecker:
    """Checks every operation's outputs. Remembers the first assignment of
    each partitioner, which later operations must reproduce, and checks
    that first one's partition sizes against DuckDB as well."""

    def __init__(self, edges: np.ndarray, k: int) -> None:
        self.edges = edges
        self.k = k
        n = len(edges)
        self.balance_bound = tau_bound(k, max_load(n, k, 1.0), n)
        self.reference: dict[str, str] = {}

    def same_as_reference(self, method: str, part_digest: str) -> bool:
        return self.reference.setdefault(method, part_digest) == part_digest

    def check(self, r: MethodResult) -> list[str]:
        """Problems found in one partitioner's output (empty when correct)."""
        n, k = len(self.edges), self.k
        pdf = r.assign.select("eid", "partition").toPandas()
        eid = pdf["eid"].to_numpy(dtype=np.int64)
        p = pdf["partition"].to_numpy(dtype=np.int64)
        if len(eid) != n or eid.min() < 0 or eid.max() >= n or (np.bincount(eid) != 1).any():
            return [f"{r.method}: eids are not 0..{n - 1} exactly once"]
        part = np.empty(n, dtype=np.int64)
        part[eid] = p
        first = r.method not in self.reference
        problems = []
        if (p < 0).any() or (p >= k).any():
            problems.append(f"{r.method}: partition outside [0, {k})")
        if not r.balance <= self.balance_bound:
            problems.append(f"{r.method}: balance {r.balance} > bound {self.balance_bound}")
        rf_np = replication_factor_np(self.edges, part, k)
        if r.rf != rf_np:
            problems.append(f"{r.method}: Spark RF {r.rf} != numpy RF {rf_np}")
        if not self.same_as_reference(r.method, digest(part)):
            problems.append(f"{r.method}: assignment differs from the run's first")
        if first:
            sizes = r.assign.groupBy("partition").agg(F.count("*").alias("sz"))
            try:
                assert_equivalent(
                    sizes,
                    'SELECT "partition", COUNT(*) AS sz FROM assign GROUP BY "partition"',
                    assign=pdf,
                )
            except AssertionError as e:
                problems.append(f"{r.method}: partition sizes differ from DuckDB: {e}")
        return problems


# --- traced operation -------------------------------------------------------


def traced_game(tr: Tracer, n_clusters, sizes, cluster_is_head, theta_pairs, k, **kw):
    """``stackelberg_game`` in a span, with counts taken from its inputs and result."""
    with tr.span("game"):
        g = stackelberg_game(n_clusters, sizes, cluster_is_head, theta_pairs, k, **kw)
    active = int(live_clusters(n_clusters, sizes, theta_pairs).sum())
    tr.count("game.calls", 1)
    tr.count("game.converged_calls", int(g.converged))
    tr.count("game.rounds", g.rounds)
    tr.count("game.active_clusters", active)
    tr.count("game.best_responses", g.rounds * active)
    return g


def traced_assign_edges(tr: Tracer, edge_cu, edge_cv, edge_is_head, c2p, k, **kw):
    """``assign_edges`` in a span. An edge overflowed when it landed on
    neither endpoint cluster's partition: the overflow scan never picks a
    full partition, so this count is exact."""
    with tr.span("postprocess"):
        part = assign_edges(edge_cu, edge_cv, edge_is_head, c2p, k, **kw)
    overflow = (part != c2p[edge_cu]) & (part != c2p[edge_cv])
    tr.count("postprocess.edges", len(part))
    tr.count("postprocess.overflow_edges", int(overflow.sum()))
    return part


def live_clusters(n_clusters: int, sizes: np.ndarray, theta_pairs) -> np.ndarray:
    """Clusters that own an edge or share Θ mass with another (sizes>0 or W>0)."""
    lo, hi, w = theta_pairs
    wf = np.asarray(w, dtype=np.float64)
    W = np.bincount(lo, wf, n_clusters) + np.bincount(hi, wf, n_clusters)
    return (np.asarray(sizes) > 0) | (W > 0)


def theta_store(cu: np.ndarray, cv: np.ndarray) -> tuple[CMSTheta, tuple]:
    """The Θ store as ``s5p_partition_np`` builds it by default."""
    theta = CMSTheta()
    theta.add_pairs(cu, cv)
    return theta, theta.pairs()


def s5p_layers(tr: Tracer, edges: np.ndarray, k: int) -> np.ndarray:
    """``s5p_partition_np`` at its defaults, one span per layer."""
    with tr.span("clustering"):
        cl = skewness_aware_clustering(edges, k)
    tr.count("clustering.edges", cl.n_edges)
    tr.count("clustering.head_edges", int(cl.edge_is_head.sum()))
    tr.count("clustering.clusters_minted", cl.n_clusters)
    with tr.span("theta.cut_pairs"):
        cu, cv = cl.cut_pairs
    with tr.span("theta.store"):
        theta, pairs = theta_store(cu, cv)
    tr.count("theta.cut_pairs_rows", len(cu))
    tr.count("theta.distinct_pairs", len(pairs[0]))
    tr.count("theta.cms_bytes", theta.nbytes)
    # CMSTheta.nbytes leaves out the exact seen-pair set (one int64 code
    # per distinct pair) that it keeps beside the sketch.
    tr.count("theta.seen_bytes", len(pairs[0]) * np.dtype(np.int64).itemsize)
    live = live_clusters(cl.n_clusters, cl.cluster_sizes, pairs)
    tr.count("clustering.clusters_live", int(live.sum()))
    g = traced_game(tr, cl.n_clusters, cl.cluster_sizes, cl.cluster_is_head, pairs, k)
    return traced_assign_edges(tr, cl.edge_cu, cl.edge_cv, cl.edge_is_head, g.c2p, k)


@contextmanager
def clugp_spans(tr: Tracer):
    """Route CLUGP's calls into the game and postprocess through spans."""
    saved = clugp.stackelberg_game, clugp.assign_edges
    clugp.stackelberg_game = lambda *a, **kw: traced_game(tr, *a, **kw)
    clugp.assign_edges = lambda *a, **kw: traced_assign_edges(tr, *a, **kw)
    try:
        yield
    finally:
        clugp.stackelberg_game, clugp.assign_edges = saved


def run_traced_op(
    tr: Tracer, spark: SparkSession, edges_df: DataFrame, k: int, methods
) -> tuple[int, dict[str, np.ndarray]]:
    """One traced operation; returns its id and each partitioner's assignment."""
    gc.collect()
    parts = {}
    with tr.operation() as op, clugp_spans(tr):
        for m in methods:
            with tr.span("stream.collect", spark=True):
                edges = df_to_edges(edges_df)
            with tr.span(f"baselines.{m}"):
                part = s5p_layers(tr, edges, k) if m == "S5P" else PARTITIONERS[m](edges, k)
            with tr.span("s5p.to_df", spark=True):
                assign = to_assign_df(spark, part)
            with tr.span("metrics.rf_spark", spark=True):
                replication_factor(edges_df, assign)
            with tr.span("metrics.balance_spark", spark=True):
                load_balance(assign, k)
            with tr.span("metrics.rf_np"):
                replication_factor_np(edges, part, k)
            assign.unpersist()
            parts[m] = part
    return op, parts


def traced_peak_mb(fn):
    """(result, tracemalloc peak in MiB) of ``fn()``; slow, so never timed."""
    tracemalloc.start()
    try:
        out = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak / 2**20


def s5p_layer_memory(edges: np.ndarray, k: int) -> tuple[dict[str, float], list[str]]:
    """Per-layer tracemalloc peaks of S5P, and the CMS-versus-exact Θ check.

    Returns the layer metrics and the problems found (empty when the CMS
    estimate is ≥ the exact count for every intersecting pair).
    """
    cl = skewness_aware_clustering(edges, k)
    (_, pairs), theta_mb = traced_peak_mb(lambda: theta_store(*cl.cut_pairs))
    g, game_mb = traced_peak_mb(
        lambda: stackelberg_game(cl.n_clusters, cl.cluster_sizes, cl.cluster_is_head, pairs, k)
    )
    _, post_mb = traced_peak_mb(
        lambda: assign_edges(cl.edge_cu, cl.edge_cv, cl.edge_is_head, g.c2p, k)
    )
    exact = ExactTheta()
    exact.add_pairs(*cl.cut_pairs)
    elo, ehi, ew = exact.pairs()
    lo, hi, est = pairs
    problems = []
    if not (np.array_equal(lo, elo) and np.array_equal(hi, ehi)):
        problems.append("CMSTheta and ExactTheta hold different pair sets")
        over = np.zeros(1, dtype=np.int64)
    else:
        over = est - ew
        if (over < 0).any():
            problems.append(f"CMSTheta underestimates {int((over < 0).sum())} pairs")
    metrics = {
        "theta.peak_mb": theta_mb,
        "game.peak_mb": game_mb,
        "postprocess.peak_mb": post_mb,
        "theta.cms_overestimate_max": float(over.max(initial=0)),
    }
    return metrics, problems
