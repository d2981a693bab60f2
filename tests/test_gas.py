"""Tests for the GAS/PowerGraph substrate (communication cost + PageRank)."""
import numpy as np
import pytest

from repro.baselines.api import run_partitioner_spark
from repro.core.stream import assign_to_df, edges_to_df
from repro.gas.pagerank import communication_cost, pagerank_np, pagerank_spark
from repro.graphgen.catalog import standin_edges
from repro.metrics import replication_factor


@pytest.fixture(scope="module")
def edges_np():
    return standin_edges("IN", "test")


@pytest.fixture(scope="module")
def edges(spark, edges_np):
    df = edges_to_df(spark, edges_np)
    df.cache().count()
    return df


class TestPagerank:
    def test_spark_matches_numpy(self, spark, edges, edges_np):
        got = pagerank_spark(edges, n_iters=5).toPandas().set_index("v")["rank"]
        ref = pagerank_np(edges_np, n_iters=5)
        for v, r in got.items():
            assert r == pytest.approx(ref[int(v)], rel=1e-6)

    def test_ranks_sum_to_one(self, edges):
        total = pagerank_spark(edges, n_iters=3).toPandas()["rank"].sum()
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_numpy_ranks_sum_to_one(self, edges_np):
        assert pagerank_np(edges_np, 5).sum() == pytest.approx(1.0, abs=1e-9)

    def test_hub_outranks_leaf(self, edges_np):
        # PageRank flows along in-edges: compare by in-degree
        ranks = pagerank_np(edges_np, 10)
        in_deg = np.bincount(edges_np[:, 1], minlength=int(edges_np.max()) + 1)
        from repro.core.stream import degrees_np

        present = degrees_np(edges_np) > 0
        hub = int(np.argmax(in_deg))
        leaf_rank = ranks[present & (in_deg <= 1)].mean()
        assert ranks[hub] > leaf_rank


class TestCommunication:
    def test_comm_cost_formula(self, spark, edges, edges_np):
        # 2·Σ(|P(v)|−1) per iteration
        assign, _ = run_partitioner_spark(spark, edges, "Random", 8)
        rf = replication_factor(edges, assign)
        n_v = len(np.unique(edges_np))
        expect = 2 * (rf * n_v - n_v)
        assert communication_cost(edges, assign) == pytest.approx(expect, abs=2)

    def test_iterations_scale_linearly(self, spark, edges):
        assign, _ = run_partitioner_spark(spark, edges, "DBH", 8)
        one = communication_cost(edges, assign, n_iters=1)
        five = communication_cost(edges, assign, n_iters=5)
        assert five == 5 * one

    def test_lower_rf_lower_communication(self, spark, edges):
        # the paper's Q5 mechanism: S5P's lower RF → fewer messages
        a_s5p, _ = run_partitioner_spark(spark, edges, "S5P", 8)
        a_rnd, _ = run_partitioner_spark(spark, edges, "Random", 8)
        assert communication_cost(edges, a_s5p) < communication_cost(edges, a_rnd)

    def test_single_partition_no_communication(self, spark, edges, edges_np):
        one = assign_to_df(spark, np.zeros(len(edges_np), dtype=np.int64))
        assert communication_cost(edges, one) == 0
