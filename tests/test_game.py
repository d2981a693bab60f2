"""Tests for the Stackelberg game (Algorithm 2) and its theory (Section 5.4)."""
import numpy as np
import pytest

from repro.core.clustering import skewness_aware_clustering
from repro.core.game import (
    ClusterGraph,
    delta_max,
    initial_assignment,
    social_welfare,
    stackelberg_game,
    stackelberg_initial_assignment,
    synchronous_round,
    total_individual_cost,
)
from repro.core.bounds import poa_bound
from repro.core.theta import ExactTheta
from repro.graphgen.catalog import standin_edges


def _setup(name="LJ", k=8):
    e = standin_edges(name, "test")
    cl = skewness_aware_clustering(e, k)
    th = ExactTheta()
    cu, cv = cl.cut_pairs
    th.add_pairs(cu, cv)
    return cl, th


@pytest.fixture(scope="module")
def lj_setup():
    return _setup()


class TestClusterGraph:
    def test_adjacency_symmetric(self, lj_setup):
        cl, th = lj_setup
        g = ClusterGraph(cl.n_clusters, cl.cluster_sizes, th.pairs())
        nbrs, w = g.neighbors(int(th.pairs()[0][0]))
        assert len(nbrs) == len(w)

    def test_total_weight_consistency(self, lj_setup):
        cl, th = lj_setup
        g = ClusterGraph(cl.n_clusters, cl.cluster_sizes, th.pairs())
        _, _, w = th.pairs()
        assert g.W.sum() == pytest.approx(2 * w.sum())

    def test_cut_weight_bounds(self, lj_setup):
        cl, th = lj_setup
        g = ClusterGraph(cl.n_clusters, cl.cluster_sizes, th.pairs())
        _, _, w = th.pairs()
        same = np.zeros(cl.n_clusters, dtype=np.int64)  # all in one partition
        assert g.cut_weight(same) == 0.0
        spread = np.arange(cl.n_clusters) % 8
        assert 0 <= g.cut_weight(spread) <= w.sum()


class TestDelta:
    def test_delta_max_positive(self, lj_setup):
        cl, th = lj_setup
        g = ClusterGraph(cl.n_clusters, cl.cluster_sizes, th.pairs())
        assert delta_max(g, 8) > 0

    def test_delta_in_eq11_range(self, lj_setup):
        # Eq. 11: 1/Σ|c| ≤ δ ≤ k·Σ(F+|c|)/(Σ|c|)²
        cl, th = lj_setup
        g = ClusterGraph(cl.n_clusters, cl.cluster_sizes, th.pairs())
        d = delta_max(g, 8)
        total = g.sizes.sum()
        assert d >= 1.0 / total

    def test_empty_graph_delta(self):
        g = ClusterGraph(0, np.zeros(0), (np.zeros(0, np.int64),) * 3)
        assert delta_max(g, 4) == 1.0


def _init_oracle(g, cluster_is_head, k, *, one_stage):
    """Both initial assignments with a turn for every cluster id,
    dead ones included (test oracle)."""
    c2p = np.full(g.n, -1, dtype=np.int64)
    loads = np.zeros(k)
    classes = [np.arange(g.n)] if one_stage else [
        np.flatnonzero(cluster_is_head), np.flatnonzero(~cluster_is_head)
    ]
    for i, ids in enumerate(classes):
        for c in ids[np.argsort(-g.sizes[ids], kind="stable")]:
            nbrs, w = g.neighbors(int(c))
            placed = c2p[nbrs] >= 0
            if i == 1 and placed.any():
                mass = np.bincount(c2p[nbrs[placed]], weights=w[placed], minlength=k)
                p = int(np.argmax(mass))
            else:
                p = int(np.argmin(loads))
            c2p[c] = p
            loads[p] += g.sizes[c]
    return c2p


def _sparse_cluster_graph(n, seed):
    """Most ids empty; some empty ids still have Θ neighbours."""
    rng = np.random.default_rng(seed)
    sizes = np.where(rng.random(n) < 0.3, rng.integers(1, 50, n), 0).astype(float)
    lo = rng.integers(0, n, 3 * n)
    hi = rng.integers(0, n, 3 * n)
    keep = lo < hi
    pairs = (lo[keep], hi[keep], rng.integers(1, 9, keep.sum()))
    return ClusterGraph(n, sizes, pairs), rng.random(n) < 0.2


class TestInitialAssignment:
    @pytest.mark.parametrize("k", [3, 16])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_dead_ids_match_oracle(self, k, seed):
        g, is_head = _sparse_cluster_graph(200, seed)
        dead = (g.sizes == 0) & (g.W == 0)
        assert dead.any() and ((g.sizes == 0) & (g.W > 0)).any()
        np.testing.assert_array_equal(
            initial_assignment(g.sizes, k), _init_oracle(g, is_head, k, one_stage=True)
        )
        np.testing.assert_array_equal(
            stackelberg_initial_assignment(g, is_head, k),
            _init_oracle(g, is_head, k, one_stage=False),
        )

    def test_balanced(self):
        sizes = np.ones(100)
        c2p = initial_assignment(sizes, 4)
        loads = np.bincount(c2p, weights=sizes, minlength=4)
        assert loads.max() - loads.min() <= 1

    def test_within_range(self):
        c2p = initial_assignment(np.arange(50, dtype=float), 8)
        assert c2p.min() >= 0 and c2p.max() < 8


class TestTheorem4:
    """Social welfare equals the sum of individual costs (Theorem 4)."""

    @pytest.mark.parametrize("name,k", [("LJ", 4), ("LJ", 8), ("IN", 8), ("OK", 16)])
    def test_welfare_equals_total_cost(self, name, k):
        cl, th = _setup(name, k)
        g = ClusterGraph(cl.n_clusters, cl.cluster_sizes, th.pairs())
        delta = delta_max(g, k)
        rng = np.random.default_rng(0)
        c2p = rng.integers(0, k, cl.n_clusters)
        assert social_welfare(g, c2p, k, delta) == pytest.approx(
            total_individual_cost(g, c2p, k, delta), rel=1e-9
        )


class TestConvergence:
    def test_sequential_converges(self, lj_setup):
        cl, th = lj_setup
        r = stackelberg_game(
            cl.n_clusters, cl.cluster_sizes, cl.cluster_is_head, th.pairs(), 8
        )
        assert r.converged
        assert r.rounds <= 64

    def test_equilibrium_is_stable(self, lj_setup):
        # one more synchronous round from an equilibrium changes nothing
        cl, th = lj_setup
        r = stackelberg_game(
            cl.n_clusters, cl.cluster_sizes, cl.cluster_is_head, th.pairs(), 8
        )
        g = ClusterGraph(cl.n_clusters, cl.cluster_sizes, th.pairs())
        after = synchronous_round(g, r.c2p, 8, r.delta)
        np.testing.assert_array_equal(after, r.c2p)

    def test_welfare_improves_over_initial(self, lj_setup):
        cl, th = lj_setup
        g = ClusterGraph(cl.n_clusters, cl.cluster_sizes, th.pairs())
        k = 8
        delta = delta_max(g, k)
        init = initial_assignment(g.sizes, k)
        r = stackelberg_game(
            cl.n_clusters, cl.cluster_sizes, cl.cluster_is_head, th.pairs(), k
        )
        assert r.welfare <= social_welfare(g, init, k, delta) + 1e-9

    def test_batch_mode_runs(self, lj_setup):
        cl, th = lj_setup
        r = stackelberg_game(
            cl.n_clusters, cl.cluster_sizes, cl.cluster_is_head, th.pairs(), 8,
            batch_size=256,
        )
        assert r.c2p.max() < 8

    def test_one_stage_mode(self, lj_setup):
        cl, th = lj_setup
        r = stackelberg_game(
            cl.n_clusters, cl.cluster_sizes, cl.cluster_is_head, th.pairs(), 8,
            one_stage=True,
        )
        assert r.converged

    def test_max_rounds_respected(self, lj_setup):
        cl, th = lj_setup
        r = stackelberg_game(
            cl.n_clusters, cl.cluster_sizes, cl.cluster_is_head, th.pairs(), 8,
            max_rounds=1,
        )
        assert r.rounds == 1


class TestTheorem5:
    """Price of anarchy ≤ k+1 (checked against the Eq. 15 lower bound)."""

    @pytest.mark.parametrize("name", ["LJ", "IN", "OK"])
    @pytest.mark.parametrize("k", [4, 8, 16, 32])
    def test_poa_bound(self, name, k):
        cl, th = _setup(name, k)
        g = ClusterGraph(cl.n_clusters, cl.cluster_sizes, th.pairs())
        r = stackelberg_game(
            cl.n_clusters, cl.cluster_sizes, cl.cluster_is_head, th.pairs(), k
        )
        # Eq. 15: OPT ≥ δ·(Σ|c|/k)² + Σ|c|/k
        tot = g.sizes.sum()
        opt_lb = r.delta * (tot / k) ** 2 + tot / k
        assert r.welfare / opt_lb <= poa_bound(k)

    def test_poa_formula(self):
        assert poa_bound(32) == 33.0
