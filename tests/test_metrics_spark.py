"""Spark metric implementations, oracle-checked against DuckDB.

Every query-shaped result (degrees, RF, balance) is validated with
``repro.oracle.assert_equivalent`` so a broken join or aggregation is
caught as a wrong *result*, not just a crash.
"""
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.core.stream import assign_to_df, degrees_df, df_to_edges, edges_to_df
from repro.graphgen.catalog import standin_edges
from repro.metrics import (
    load_balance,
    load_balance_np,
    replication_df,
    replication_factor,
    replication_factor_np,
)
from repro.oracle import assert_equivalent
from repro.baselines.api import PARTITIONERS
from repro.baselines.hashing import random_partition


@pytest.fixture(scope="module")
def edges_np():
    return standin_edges("LJ", "test")


@pytest.fixture(scope="module")
def edges(spark, edges_np):
    df = edges_to_df(spark, edges_np)
    df.cache().count()
    return df


@pytest.fixture(scope="module")
def assign(spark, edges_np):
    df = assign_to_df(spark, random_partition(edges_np, 8, seed=3))
    df.cache().count()
    return df


_DEGREES_SQL = """
    SELECT v, COUNT(*) AS degree FROM (
        SELECT src AS v FROM edges
        UNION ALL
        SELECT dst AS v FROM edges
    ) GROUP BY v
"""


class TestStream:
    def test_roundtrip(self, spark, edges_np, edges):
        back = df_to_edges(edges)
        np.testing.assert_array_equal(back, edges_np)

    def test_degrees_oracle(self, edges):
        assert_equivalent(degrees_df(edges), _DEGREES_SQL, edges=edges)

    def test_oracle_catches_wrong_degrees(self, edges):
        wrong = degrees_df(edges).withColumn("degree", F.col("degree") + 1)
        with pytest.raises(AssertionError):
            assert_equivalent(wrong, _DEGREES_SQL, edges=edges)

    def test_degrees_match_numpy(self, edges, edges_np):
        from repro.core.stream import degrees_np

        pdf = degrees_df(edges).toPandas().set_index("v").sort_index()
        d = degrees_np(edges_np)
        np.testing.assert_array_equal(
            pdf["degree"].to_numpy(), d[pdf.index.to_numpy()]
        )


class TestReplication:
    def test_replication_df_oracle(self, edges, assign):
        rep = replication_df(edges, assign)
        assert_equivalent(
            rep,
            """
            SELECT v, COUNT(*) AS n_replicas FROM (
                SELECT DISTINCT v, partition FROM (
                    SELECT e.src AS v, a.partition
                    FROM edges e JOIN assign a ON e.eid = a.eid
                    UNION ALL
                    SELECT e.dst AS v, a.partition
                    FROM edges e JOIN assign a ON e.eid = a.eid
                )
            ) GROUP BY v
            """,
            edges=edges,
            assign=assign,
        )

    def test_rf_spark_equals_numpy(self, edges, assign, edges_np):
        part = (
            assign.toPandas().sort_values("eid")["partition"].to_numpy()
        )
        rf_spark = replication_factor(edges, assign)
        rf_np = replication_factor_np(edges_np, part, 8)
        assert rf_spark == pytest.approx(rf_np, rel=1e-9)

    def test_rf_lower_bound(self, edges, assign):
        assert replication_factor(edges, assign) >= 1.0

    def test_single_partition_rf_is_one(self, spark, edges, edges_np):
        one = assign_to_df(spark, np.zeros(len(edges_np), dtype=np.int64))
        assert replication_factor(edges, one) == pytest.approx(1.0)


class TestReplicationExact:
    """Spark RF == numpy RF bit for bit, on inputs where the exploded
    ``(v, partition)`` ends repeat or pile onto one vertex."""

    def _check(self, spark, edges_np, part, k):
        edges_np = np.asarray(edges_np, dtype=np.int64)
        rf = replication_factor(edges_to_df(spark, edges_np), assign_to_df(spark, part))
        assert rf == replication_factor_np(edges_np, np.asarray(part), k)
        return rf

    def test_self_loops(self, spark):
        e = [[0, 0], [0, 1], [1, 1], [2, 2], [2, 2]]
        # v0: {0, 1}; v1: {1, 2}; v2: {3, 0}
        assert self._check(spark, e, [0, 1, 2, 3, 0], 4) == 2.0

    def test_parallel_edges(self, spark):
        e = [[0, 1], [0, 1], [1, 0], [0, 1], [2, 3]]
        # v0, v1: {0, 1}; v2, v3: {2}
        assert self._check(spark, e, [0, 0, 1, 1, 2], 4) == 6 / 4

    def test_vertex_on_all_partitions(self, spark):
        k = 16
        e = np.stack([np.zeros(k, dtype=np.int64), np.arange(1, k + 1)], axis=1)
        assert self._check(spark, e, np.arange(k), k) == (k + k) / (k + 1)

    @pytest.mark.parametrize("name", ["S5P", "HDRF"])
    def test_standin_assignment(self, spark, edges_np, name):
        k = 16
        self._check(spark, edges_np, PARTITIONERS[name](edges_np, k), k)


class TestReplicationPlan:
    def test_one_scan_one_vertex_shuffle(self, spark, edges, assign):
        rf_query = replication_df(edges, assign).agg(
            F.sum("n_replicas"), F.count("*")
        )
        plan = rf_query._jdf.queryExecution().executedPlan().toString()
        # The test session disables broadcast joins, so the plan this
        # pins is the sort-merge one, whose inputs are shuffled by eid.
        assert "SortMergeJoin" in plan
        assert "Union" not in plan
        assert plan.count("hashpartitioning(v#") == 1


class TestEmpty:
    @pytest.fixture(scope="class")
    def empty(self, spark):
        e = np.zeros((0, 2), dtype=np.int64)
        return edges_to_df(spark, e), assign_to_df(spark, [])

    def test_rf_spark(self, empty):
        with pytest.raises(ValueError, match="empty assignment"):
            replication_factor(*empty)

    def test_rf_numpy(self):
        e = np.zeros((0, 2), dtype=np.int64)
        with pytest.raises(ValueError, match="empty assignment"):
            replication_factor_np(e, np.zeros(0, dtype=np.int64), 4)

    def test_balance_spark(self, empty):
        with pytest.raises(ValueError, match="empty assignment"):
            load_balance(empty[1], 4)

    def test_balance_numpy(self):
        with pytest.raises(ValueError, match="empty assignment"):
            load_balance_np(np.zeros(0, dtype=np.int64), 4)


class TestBalance:
    def test_balance_spark_equals_numpy(self, edges, assign, edges_np):
        part = assign.toPandas().sort_values("eid")["partition"].to_numpy()
        assert load_balance(assign, 8) == pytest.approx(
            load_balance_np(part, 8), rel=1e-9
        )

    def test_balance_at_least_one(self, assign):
        assert load_balance(assign, 8) >= 1.0

    def test_perfect_balance(self, spark):
        assign = assign_to_df(spark, np.arange(80) % 8)
        assert load_balance(assign, 8) == pytest.approx(1.0)
