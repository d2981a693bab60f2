"""Tests for postprocessing (Algorithm 3) and Theorem 1."""
import numpy as np
import pytest

from repro.core.bounds import tau_bound
from repro.core.clustering import skewness_aware_clustering
from repro.core.game import stackelberg_game
from repro.core.postprocess import assign_edges, max_load
from repro.core.theta import ExactTheta
from repro.graphgen.catalog import standin_edges
from repro.metrics import load_balance_np, partition_sizes_np


def _scan_oracle(edge_cu, edge_cv, edge_is_head, c2p, k, *, tau=1.0, cap=None):
    """Algorithm 3 with the literal O(k) overflow scan (test oracle).

    ``assign_edges`` replaces the scans by monotone pointers; this is
    the direct transcription they must agree with.
    """
    n_e = len(edge_cu)
    if cap is None:
        cap = max_load(n_e, k, tau) if np.isfinite(tau) else n_e + 1
    pu = c2p[edge_cu]
    pv = c2p[edge_cv]
    loads = np.zeros(k, dtype=np.int64)
    out = np.empty(n_e, dtype=np.int64)
    for i in range(n_e):
        a = pu[i]; b = pv[i]
        if loads[a] >= cap and loads[b] >= cap:
            rng = range(k) if edge_is_head[i] else range(k - 1, -1, -1)
            for p in rng:
                if loads[p] < cap:
                    break
            else:
                p = int(np.argmin(loads))
        elif loads[a] > loads[b]:
            p = b
        else:
            p = a
        out[i] = p
        loads[p] += 1
    return out


def _random_stream(n_e, n_clusters, k, head, seed=0):
    """Random per-edge clusters and c2p skewed onto few partitions.

    ``head`` is True/False for an all-head/all-tail stream, or None for
    a random mix. Clusters crowd onto the lowest partitions so that many
    edges overflow.
    """
    g = np.random.default_rng(seed)
    cu = g.integers(0, n_clusters, n_e)
    cv = g.integers(0, n_clusters, n_e)
    c2p = np.minimum(g.geometric(0.5, n_clusters) - 1, k - 1)
    if head is None:
        is_head = g.random(n_e) < 0.3
    else:
        is_head = np.full(n_e, head)
    return cu, cv, is_head, c2p


def _pipeline(name, k, tau=1.0):
    e = standin_edges(name, "test")
    cl = skewness_aware_clustering(e, k)
    th = ExactTheta()
    cu, cv = cl.cut_pairs
    th.add_pairs(cu, cv)
    gr = stackelberg_game(
        cl.n_clusters, cl.cluster_sizes, cl.cluster_is_head, th.pairs(), k
    )
    part = assign_edges(
        cl.edge_cu, cl.edge_cv, cl.edge_is_head, gr.c2p, k, tau=tau
    )
    return e, cl, gr, part


class TestMaxLoad:
    def test_formula(self):
        assert max_load(100, 8) == 13  # ceil(100/8)
        assert max_load(100, 8, tau=1.2) == 15

    def test_theorem1_tau_bound(self):
        # Theorem 1: τ ≤ k·L/|E|; with L = ⌈t|E|/k⌉ the realized balance
        # is bounded by the target t (plus the ceiling's rounding)
        for n_e, k, t in [(1000, 8, 1.0), (997, 16, 1.1), (40, 7, 1.5)]:
            bound = tau_bound(k, max_load(n_e, k, t), n_e)
            assert bound >= t - 1e-9
            assert bound <= t + k / n_e + 1e-9


class TestAssignEdges:
    @pytest.mark.parametrize("name,k", [("LJ", 8), ("IN", 4), ("OK", 16), ("G1", 8)])
    def test_all_edges_assigned_in_range(self, name, k):
        e, _, _, part = _pipeline(name, k)
        assert len(part) == len(e)
        assert part.min() >= 0 and part.max() < k

    @pytest.mark.parametrize("name,k", [("LJ", 8), ("IN", 4), ("OK", 16)])
    def test_load_cap_respected(self, name, k):
        e, _, _, part = _pipeline(name, k)
        cap = max_load(len(e), k, 1.0)
        assert partition_sizes_np(part, k).max() <= cap

    @pytest.mark.parametrize("name,k", [("LJ", 8), ("IN", 4)])
    def test_balance_within_tau(self, name, k):
        e, _, _, part = _pipeline(name, k)
        # paper: "no partition contains more than ⌈τ|E|/k⌉ edges"
        assert load_balance_np(part, k) <= tau_bound(k, max_load(len(e), k), len(e))

    def test_looser_tau_gives_more_slack(self):
        e, _, _, part_tight = _pipeline("LJ", 8, tau=1.0)
        _, _, _, part_loose = _pipeline("LJ", 8, tau=2.0)
        cap_loose = max_load(len(e), 8, 2.0)
        assert partition_sizes_np(part_loose, 8).max() <= cap_loose

    def test_infinite_tau_no_cap(self):
        e, cl, gr, _ = _pipeline("LJ", 8)
        part = assign_edges(
            cl.edge_cu, cl.edge_cv, cl.edge_is_head, gr.c2p, 8, tau=np.inf
        )
        # without a cap every edge lands at one of its endpoint partitions
        pu = gr.c2p[cl.edge_cu]
        pv = gr.c2p[cl.edge_cv]
        assert ((part == pu) | (part == pv)).all()

    def test_same_partition_edges_stay(self):
        e, cl, gr, part = _pipeline("IN", 4)
        pu = gr.c2p[cl.edge_cu]
        pv = gr.c2p[cl.edge_cv]
        cap = max_load(len(e), 4)
        same = pu == pv
        # when both endpoint clusters agree and the partition had room,
        # the edge must be there or the partition was full at that time;
        # globally the overwhelming majority must land on agreement
        frac = (part[same] == pu[same]).mean()
        assert frac > 0.5

    def test_deterministic(self):
        _, _, _, a = _pipeline("LJ", 8)
        _, _, _, b = _pipeline("LJ", 8)
        np.testing.assert_array_equal(a, b)

    def test_overflow_scan_direction(self):
        # head overflow scans low partitions first, tail high first
        cu = np.zeros(10, dtype=np.int64)
        cv = np.zeros(10, dtype=np.int64)
        c2p = np.array([0], dtype=np.int64)
        head = np.array([True] * 5 + [False] * 5)
        part = assign_edges(cu, cv, head, c2p, 4, cap=2)
        # partition 0 takes the first 2; overflow: heads → 1,2 low-first;
        # tails → 3,2 high-first
        assert (part[:2] == 0).all()
        assert set(part[2:5]) <= {1, 2}
        assert 3 in set(part[5:])


class TestOverflowOracle:
    """``assign_edges`` (monotone pointers) equals the O(k) scan oracle."""

    def _check(self, cu, cv, is_head, c2p, k, **kw):
        got = assign_edges(cu, cv, is_head, c2p, k, **kw)
        want = _scan_oracle(cu, cv, is_head, c2p, k, **kw)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)
        return got

    @pytest.mark.parametrize("head", [None, True, False])
    @pytest.mark.parametrize("k", [3, 7, 64])
    def test_overflow_streams(self, head, k):
        cu, cv, is_head, c2p = _random_stream(3000, 50, k, head, seed=k)
        part = self._check(cu, cv, is_head, c2p, k)
        overflow = (part != c2p[cu]) & (part != c2p[cv])
        assert overflow.any()

    @pytest.mark.parametrize("tau", [0.5, 0.9])
    def test_spill_when_cap_binds(self, tau):
        # τ < 1: every partition fills before the stream ends
        cu, cv, is_head, c2p = _random_stream(1000, 30, 8, None, seed=1)
        part = self._check(cu, cv, is_head, c2p, 8, tau=tau)
        assert np.bincount(part, minlength=8).max() > max_load(1000, 8, tau)

    @pytest.mark.parametrize("cap", [1, 3, 10])
    def test_small_cap(self, cap):
        cu, cv, is_head, c2p = _random_stream(200, 20, 6, None, seed=cap)
        self._check(cu, cv, is_head, c2p, 6, cap=cap)

    def test_pipeline_tau_below_one(self):
        _, cl, gr, _ = _pipeline("LJ", 8)
        self._check(cl.edge_cu, cl.edge_cv, cl.edge_is_head, gr.c2p, 8, tau=0.5)

    def test_unbounded(self):
        # S5P-B: tau=inf, no edge ever overflows
        cu, cv, is_head, c2p = _random_stream(2000, 40, 16, None, seed=2)
        part = self._check(cu, cv, is_head, c2p, 16, tau=np.inf)
        assert ((part == c2p[cu]) | (part == c2p[cv])).all()

    @pytest.mark.parametrize("head", [True, False])
    def test_k_above_edge_count(self, head):
        cu, cv, is_head, c2p = _random_stream(5, 3, 12, head, seed=3)
        part = self._check(cu, cv, is_head, c2p, 12)
        assert np.bincount(part, minlength=12).max() == 1  # cap is 1

    def test_empty_stream(self):
        empty = np.zeros(0, dtype=np.int64)
        part = self._check(empty, empty, np.zeros(0, dtype=bool), np.array([0]), 4)
        assert len(part) == 0
