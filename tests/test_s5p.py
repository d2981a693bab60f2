"""End-to-end tests for the S5P pipeline (numpy core + Spark entry)."""
import numpy as np
import pytest

from repro.baselines.api import run_partitioner_spark
from repro.core.clustering import skewness_aware_clustering
from repro.core.postprocess import max_load
from repro.core.s5p import s5p_partition, s5p_partition_np
from repro.core.stream import edges_to_df
from repro.core.theta import CMSTheta, ExactTheta
from repro.graphgen.catalog import standin_edges
from repro.metrics import (
    load_balance,
    load_balance_np,
    replication_factor,
    replication_factor_np,
)


@pytest.fixture(scope="module")
def lj():
    return standin_edges("LJ", "test")


class TestPipeline:
    @pytest.mark.parametrize("name", ["LJ", "IN", "OK", "G1", "G4"])
    @pytest.mark.parametrize("k", [4, 16])
    def test_valid_partitioning(self, name, k):
        e = standin_edges(name, "test")
        part, stats = s5p_partition_np(e, k)
        assert len(part) == len(e)
        assert 0 <= part.min() and part.max() < k
        assert stats.n_clusters > 0

    @pytest.mark.parametrize("k", [4, 8, 16])
    def test_balance_constraint(self, lj, k):
        part, _ = s5p_partition_np(lj, k)
        cap = max_load(len(lj), k)
        assert np.bincount(part, minlength=k).max() <= cap

    def test_deterministic(self, lj):
        a, _ = s5p_partition_np(lj, 8)
        b, _ = s5p_partition_np(lj, 8)
        np.testing.assert_array_equal(a, b)

    def test_stats_populated(self, lj):
        _, st = s5p_partition_np(lj, 8)
        assert st.n_vertices > 0
        assert st.n_edges == len(lj)
        assert st.n_head_clusters > 0
        assert st.game_converged
        assert st.delta > 0
        assert set(st.timings) == {"clustering", "theta", "game", "postprocess"}

    @pytest.mark.parametrize("use_cms", [True, False])
    def test_theta_seen_bytes(self, lj, use_cms):
        _, st = s5p_partition_np(lj, 8, use_cms=use_cms)
        cl = skewness_aware_clustering(lj, 8)
        theta = CMSTheta() if use_cms else ExactTheta()
        theta.add_pairs(*cl.cut_pairs)
        assert st.theta_seen_bytes == len(theta.pairs()[0]) * 8 > 0

    def test_cms_close_to_exact(self, lj):
        # Figure 9 flavor: the CMS trades ~nothing in RF
        p_cms, _ = s5p_partition_np(lj, 8, use_cms=True)
        p_exact, _ = s5p_partition_np(lj, 8, use_cms=False)
        rf_cms = replication_factor_np(lj, p_cms, 8)
        rf_exact = replication_factor_np(lj, p_exact, 8)
        assert abs(rf_cms - rf_exact) / rf_exact < 0.25

    def test_two_stage_at_least_as_good_on_web(self):
        # Figure 7(d): two-stage ≤ one-stage RF (allow small noise)
        e = standin_edges("IN", "test")
        p2, _ = s5p_partition_np(e, 16)
        p1, _ = s5p_partition_np(e, 16, one_stage=True)
        rf2 = replication_factor_np(e, p2, 16)
        rf1 = replication_factor_np(e, p1, 16)
        assert rf2 <= rf1 * 1.1

    def test_bounded_variant_runs(self, lj):
        part, st = s5p_partition_np(lj, 8, bounded=True)
        assert len(part) == len(lj)
        # S5P-B has no maxLoad → balance may exceed τ=1
        assert replication_factor_np(lj, part, 8) >= 1.0

    def test_beta_sensitivity_direction(self, lj):
        # Figure 12(a): RF is not wildly sensitive to β around 1
        rfs = []
        for beta in (0.5, 1.0, 2.0):
            p, _ = s5p_partition_np(lj, 8, beta=beta)
            rfs.append(replication_factor_np(lj, p, 8))
        assert max(rfs) / min(rfs) < 1.5

    def test_batch_parallel_quality_close(self, lj):
        p_seq, _ = s5p_partition_np(lj, 8, batch_size=1)
        p_par, _ = s5p_partition_np(lj, 8, batch_size=256)
        rf_seq = replication_factor_np(lj, p_seq, 8)
        rf_par = replication_factor_np(lj, p_par, 8)
        assert abs(rf_par - rf_seq) / rf_seq < 0.35

    def test_empty_rounds_cap(self, lj):
        _, st = s5p_partition_np(lj, 8, max_rounds=2)
        assert st.game_rounds <= 2


class TestSparkEntry:
    def test_assignment_dataframe(self, spark, lj):
        edges_df = edges_to_df(spark, lj)
        assign, stats = s5p_partition(spark, edges_df, 8)
        assert assign.columns == ["eid", "partition"]
        assert assign.count() == len(lj)
        assert stats.n_edges == len(lj)

    def test_spark_metrics_match_numpy(self, spark, lj):
        edges_df = edges_to_df(spark, lj)
        assign, _ = s5p_partition(spark, edges_df, 8)
        part = assign.toPandas().sort_values("eid")["partition"].to_numpy()
        assert replication_factor(edges_df, assign) == pytest.approx(
            replication_factor_np(lj, part, 8)
        )
        assert load_balance(assign, 8) == pytest.approx(load_balance_np(part, 8))

    @pytest.mark.parametrize(
        "entry",
        [
            lambda spark, df: s5p_partition(spark, df, 4),
            lambda spark, df: run_partitioner_spark(spark, df, "S5P", 4),
            lambda spark, df: run_partitioner_spark(spark, df, "HDRF", 4),
        ],
        ids=["s5p_partition", "run_partitioner_spark-S5P", "run_partitioner_spark-HDRF"],
    )
    def test_empty_stream(self, spark, entry):
        edges_df = edges_to_df(spark, np.zeros((0, 2), dtype=np.int64))
        assign, _ = entry(spark, edges_df)
        assert assign.schema.simpleString() == "struct<eid:bigint,partition:bigint>"
        assert assign.count() == 0
