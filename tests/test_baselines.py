"""Tests for every baseline partitioner and the uniform runner."""
import numpy as np
import pytest

from repro.baselines.api import PARTITIONERS, run_partitioner
from repro.baselines.gamebased import BudgetExceeded, rmgp_partition
from repro.baselines.greedy import greedy_partition
from repro.baselines.hashing import grid_partition
from repro.baselines.hdrf import hdrf_partition
from repro.baselines.twops import pack_clusters
from repro.core.postprocess import max_load
from repro.graphgen.catalog import standin_edges
from repro.metrics import load_balance_np, replication_factor_np

STREAMING = ["Random", "DBH", "Grid", "Greedy", "HDRF", "2PS-L", "CLUGP", "S5P"]
ALL = list(PARTITIONERS)


def _hdrf_oracle(edges, k, *, lam=1.1, eps=1e-3, tau=1.0):
    """HDRF scoring all k partitions per edge in numpy (test oracle).

    ``hdrf_partition`` scores only the candidate partitions; this is the
    direct transcription it must agree with.
    """
    n_v = int(edges.max()) + 1 if len(edges) else 0
    n_e = len(edges)
    cap = max_load(n_e, k, tau)
    replicas = np.zeros((n_v, k), dtype=bool)
    pdeg = np.zeros(n_v, dtype=np.int64)
    loads = np.zeros(k, dtype=np.int64)
    out = np.empty(n_e, dtype=np.int64)
    src, dst = edges[:, 0], edges[:, 1]
    for i in range(n_e):
        u = int(src[i]); v = int(dst[i])
        pdeg[u] += 1; pdeg[v] += 1
        du, dv = pdeg[u], pdeg[v]
        theta_u = du / (du + dv)
        theta_v = 1.0 - theta_u
        g_u = np.where(replicas[u], 2.0 - theta_u, 0.0)
        g_v = np.where(replicas[v], 2.0 - theta_v, 0.0)
        max_l = loads.max(); min_l = loads.min()
        bal = lam * (max_l - loads) / (eps + max_l - min_l)
        score = g_u + g_v + bal
        score[loads >= cap] = -np.inf
        p = int(np.argmax(score))
        out[i] = p
        replicas[u, p] = True
        replicas[v, p] = True
        loads[p] += 1
    return out


def _greedy_oracle(edges, k, *, tau=1.0):
    """PowerGraph Greedy on boolean replica rows (test oracle)."""
    n_v = int(edges.max()) + 1 if len(edges) else 0
    n_e = len(edges)
    cap = max_load(n_e, k, tau)
    replicas = np.zeros((n_v, k), dtype=bool)
    pdeg = np.zeros(n_v, dtype=np.int64)
    loads = np.zeros(k, dtype=np.int64)
    out = np.empty(n_e, dtype=np.int64)
    src, dst = edges[:, 0], edges[:, 1]

    def pick_least_loaded(mask):
        cand = np.flatnonzero(mask & (loads < cap))
        if len(cand) == 0:
            cand = np.flatnonzero(loads < cap)
        if len(cand) == 0:
            return int(np.argmin(loads))
        return int(cand[np.argmin(loads[cand])])

    for i in range(n_e):
        u = int(src[i]); v = int(dst[i])
        pdeg[u] += 1; pdeg[v] += 1
        ru, rv = replicas[u], replicas[v]
        both = ru & rv
        if both.any():
            p = pick_least_loaded(both)
        elif ru.any() and rv.any():
            keep = u if pdeg[u] >= pdeg[v] else v
            p = pick_least_loaded(replicas[keep])
        elif ru.any() or rv.any():
            p = pick_least_loaded(ru | rv)
        else:
            p = pick_least_loaded(np.ones(k, dtype=bool))
        out[i] = p
        replicas[u, p] = True
        replicas[v, p] = True
        loads[p] += 1
    return out


def _random_edges(n_e, n_v, seed):
    """Skewed random stream with self-loops and parallel edges."""
    g = np.random.default_rng(seed)
    e = np.minimum(g.zipf(1.6, (n_e, 2)) - 1, n_v - 1)
    loops = g.random(n_e) < 0.05
    e[loops, 1] = e[loops, 0]
    dup = np.flatnonzero(g.random(n_e) < 0.1)
    e[dup[1:]] = e[dup[:-1]]  # repeat earlier edges later in the stream
    return e.astype(np.int64)


@pytest.fixture(scope="module")
def lj():
    return standin_edges("LJ", "test")


@pytest.fixture(scope="module")
def web():
    return standin_edges("IN", "test")


class TestValidity:
    @pytest.mark.parametrize("name", ALL)
    def test_assigns_every_edge_in_range(self, name, lj):
        part, _ = run_partitioner(lj, name, 8)
        assert len(part) == len(lj)
        assert part.min() >= 0 and part.max() < 8

    @pytest.mark.parametrize("name", ALL)
    def test_deterministic(self, name, lj):
        a, _ = run_partitioner(lj, name, 8)
        b, _ = run_partitioner(lj, name, 8)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("name", ["Greedy", "HDRF", "2PS-L", "CLUGP", "S5P"])
    def test_capped_methods_respect_balance(self, name, lj):
        part, _ = run_partitioner(lj, name, 8)
        assert np.bincount(part, minlength=8).max() <= max_load(len(lj), 8)

    @pytest.mark.parametrize("name", ALL)
    def test_rf_at_least_one(self, name, lj):
        part, _ = run_partitioner(lj, name, 8)
        assert replication_factor_np(lj, part, 8) >= 1.0

    def test_run_stats(self, lj):
        _, st = run_partitioner(lj, "DBH", 8)
        assert st.name == "DBH" and st.k == 8
        assert st.wall_s >= 0 and st.peak_mem_mb > 0


class TestHashing:
    def test_random_roughly_uniform(self, lj):
        part, _ = run_partitioner(lj, "Random", 8)
        sizes = np.bincount(part, minlength=8)
        assert sizes.min() > 0.7 * len(lj) / 8

    def test_dbh_beats_random_on_powerlaw(self, lj):
        dbh, _ = run_partitioner(lj, "DBH", 8)
        rnd, _ = run_partitioner(lj, "Random", 8)
        assert replication_factor_np(lj, dbh, 8) < replication_factor_np(lj, rnd, 8)

    def test_grid_uses_square(self, lj):
        part = grid_partition(lj, 9)
        assert part.max() < 9
        part16 = grid_partition(lj, 16)
        assert part16.max() < 16

    def test_grid_bounds_replicas(self, lj):
        # each vertex appears in ≤ 2√k−1 partitions
        part = grid_partition(lj, 16)
        s = 4
        reps = {}
        for (u, v), p in zip(lj, part):
            reps.setdefault(u, set()).add(p)
            reps.setdefault(v, set()).add(p)
        assert max(len(x) for x in reps.values()) <= 2 * s - 1


class TestCandidateOracles:
    """HDRF and Greedy (candidate partitions only) equal their numpy
    all-k oracles edge for edge."""

    FNS = {"HDRF": (hdrf_partition, _hdrf_oracle), "Greedy": (greedy_partition, _greedy_oracle)}

    def _check(self, name, edges, k, **kw):
        fn, oracle = self.FNS[name]
        got = fn(edges, k, **kw)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, oracle(edges, k, **kw))
        return got

    @pytest.mark.parametrize("name", list(FNS))
    @pytest.mark.parametrize("k", [2, 5, 16, 64])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_streams(self, name, k, seed):
        e = _random_edges(1500, 120, seed)
        assert (e[:, 0] == e[:, 1]).any()
        assert len(np.unique(e, axis=0)) < len(e)
        self._check(name, e, k)

    @pytest.mark.parametrize("name", list(FNS))
    @pytest.mark.parametrize("tau", [0.5, 0.9])
    def test_spill_when_cap_binds(self, name, tau):
        # τ < 1: every partition fills; HDRF's all -inf argmax is 0
        e = _random_edges(800, 60, 2)
        part = self._check(name, e, 8, tau=tau)
        cap = max_load(len(e), 8, tau)
        sizes = np.bincount(part, minlength=8)
        assert sizes.max() > cap
        if name == "HDRF":
            assert sizes[0] == len(e) - 7 * cap

    @pytest.mark.parametrize("name", list(FNS))
    def test_lj_stream(self, name, lj):
        self._check(name, lj[:3000], 32)

    @pytest.mark.parametrize("name", list(FNS))
    def test_k_above_edge_count(self, name):
        e = _random_edges(6, 5, 3)
        part = self._check(name, e, 16)
        assert np.bincount(part, minlength=16).max() == 1  # cap is 1

    @pytest.mark.parametrize("name", list(FNS))
    def test_empty_stream(self, name):
        part = self._check(name, np.zeros((0, 2), dtype=np.int64), 4)
        assert len(part) == 0


class TestClusteringBaselines:
    def test_pack_clusters_balanced(self):
        vols = np.ones(64)
        c2p = pack_clusters(vols, 4)
        loads = np.bincount(c2p, weights=vols, minlength=4)
        assert loads.max() - loads.min() <= 1

    def test_twops_linear_in_k(self, lj):
        # scoring is k-independent: candidate set is only the endpoints'
        # cluster partitions; just verify output validity across k
        for k in (4, 16, 64):
            part, _ = run_partitioner(lj, "2PS-L", k)
            assert part.max() < k

    def test_clugp_beats_hashing_on_web(self, web):
        clugp, _ = run_partitioner(web, "CLUGP", 8)
        rnd, _ = run_partitioner(web, "Random", 8)
        assert replication_factor_np(web, clugp, 8) < replication_factor_np(
            web, rnd, 8
        )


class TestGamebased:
    def test_rmgp_memory_budget(self, lj):
        with pytest.raises(BudgetExceeded):
            rmgp_partition(lj, 8, max_vertices=10)

    def test_rmgp_time_budget(self, lj):
        with pytest.raises(BudgetExceeded):
            rmgp_partition(lj, 8, time_budget_s=0.0)

    @pytest.mark.parametrize("name", ["RMGP", "MDSGP", "CVSP"])
    def test_gamebased_validity(self, name, web):
        part, _ = run_partitioner(web, name, 8)
        assert part.max() < 8 and len(part) == len(web)

    def test_mdsgp_beats_random(self, web):
        m, _ = run_partitioner(web, "MDSGP", 8)
        r, _ = run_partitioner(web, "Random", 8)
        assert replication_factor_np(web, m, 8) < replication_factor_np(web, r, 8)


class TestOffline:
    def test_ne_quality_on_web(self, web):
        # offline NE should beat the hashing family on a web graph
        ne, _ = run_partitioner(web, "NE", 8)
        rnd, _ = run_partitioner(web, "Random", 8)
        assert replication_factor_np(web, ne, 8) < replication_factor_np(
            web, rnd, 8
        )


class TestPaperShape:
    """The Table 3 ordering claims, at test scale (seeded, deterministic)."""

    def test_s5p_beats_hashing_everywhere(self):
        for name in ["LJ", "IN", "OK"]:
            e = standin_edges(name, "test")
            s5p, _ = run_partitioner(e, "S5P", 16)
            rnd, _ = run_partitioner(e, "Random", 16)
            assert replication_factor_np(e, s5p, 16) < replication_factor_np(
                e, rnd, 16
            )

    def test_clustering_methods_beat_hdrf_on_web(self):
        # the Table 3 web crossover: clustering-refinement ≪ HDRF
        e = standin_edges("IN", "test")
        s5p, _ = run_partitioner(e, "S5P", 16)
        hdrf, _ = run_partitioner(e, "HDRF", 16)
        assert replication_factor_np(e, s5p, 16) < replication_factor_np(
            e, hdrf, 16
        ) * 1.05

    def test_s5p_beats_clugp_on_social(self):
        e = standin_edges("OK", "test")
        s5p, _ = run_partitioner(e, "S5P", 16)
        clugp, _ = run_partitioner(e, "CLUGP", 16)
        assert replication_factor_np(e, s5p, 16) < replication_factor_np(
            e, clugp, 16
        )
