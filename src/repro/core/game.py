"""Two-stage Stackelberg game for cluster-to-partition assignment (Alg. 2).

Clusters are players: head clusters are leaders (Stage 1), tail clusters
followers (Stage 2). Each player best-responds under the cost function
of Eq. (6),

    S_c(p) = (δ/k)·|c|·|p| + (F(c) + |c|)/k,
    F(c)   = Σ_j Θ(c, c_j)·1[P(c) ≠ P(c_j)],

until no player moves (pure Nash equilibrium via best-response
dynamics). δ is the normalization factor, set to its Eq.-(12) maximum.

Batch parallelism (Section 4.4) is modeled faithfully: moves within a
batch are computed against a frozen snapshot of loads and strategies,
then applied together; ``batch_size=1`` recovers fully sequential best
response (which carries the potential-function convergence guarantee).
:func:`synchronous_round` applies every player's best response against
one snapshot; it is the test oracle for "no player wants to move" at an
equilibrium.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class GameResult:
    """Equilibrium strategies and convergence diagnostics."""

    c2p: np.ndarray  # cluster -> partition
    rounds: int
    converged: bool
    delta: float
    welfare: float


class ClusterGraph:
    """CSR adjacency over clusters built from a Θ store's pair list."""

    def __init__(
        self,
        n_clusters: int,
        sizes: np.ndarray,
        theta_pairs: tuple[np.ndarray, np.ndarray, np.ndarray],
    ):
        lo, hi, w = theta_pairs
        self.n = n_clusters
        self.sizes = sizes.astype(np.float64)
        src = np.concatenate([lo, hi])
        dst = np.concatenate([hi, lo])
        wt = np.concatenate([w, w]).astype(np.float64)
        order = np.argsort(src, kind="stable")
        self._src = src[order]
        self._nbr = dst[order]
        self._wt = wt[order]
        self._ptr = np.searchsorted(self._src, np.arange(n_clusters + 1))
        self.W = np.zeros(n_clusters)  # Σ_j Θ(c, c_j): max possible F(c)
        np.add.at(self.W, src, wt)

    def neighbors(self, c: int) -> tuple[np.ndarray, np.ndarray]:
        """(neighbor cluster ids, Θ weights) of cluster ``c``."""
        s, e = self._ptr[c], self._ptr[c + 1]
        return self._nbr[s:e], self._wt[s:e]

    def cut_weight(self, c2p: np.ndarray) -> float:
        """Total Θ mass of cluster pairs placed in different partitions.

        Each undirected pair appears twice in the CSR arrays; halve.
        """
        cut = self._wt[c2p[self._src] != c2p[self._nbr]].sum()
        return float(cut) / 2.0


def delta_max(cluster_graph: ClusterGraph, k: int) -> float:
    """δ upper bound of Eq. (12): k·Σ(F(c)+|c|) / (Σ|c|)²,
    with F(c) at its maximum Σ_j Θ(c, c_j) (everything cut)."""
    total = float(cluster_graph.sizes.sum())
    if total == 0:
        return 1.0
    return k * float((cluster_graph.W + cluster_graph.sizes).sum()) / total**2


def initial_assignment(sizes: np.ndarray, k: int) -> np.ndarray:
    """Greedy least-loaded initial C2P (deterministic)."""
    order = np.argsort(-sizes, kind="stable")
    loads = np.zeros(k)
    c2p = np.zeros(len(sizes), dtype=np.int64)
    for c in order:
        p = int(np.argmin(loads))
        c2p[c] = p
        loads[p] += sizes[c]
    return c2p


def stackelberg_initial_assignment(
    g: ClusterGraph, cluster_is_head: np.ndarray, k: int
) -> np.ndarray:
    """Leader-first initialization for the two-stage game.

    Leaders (head clusters) are packed least-loaded-first, exactly like
    :func:`initial_assignment`. Followers then *respond*: each tail
    cluster starts in the partition holding the largest Θ mass of
    already-placed neighbors (leaders and earlier followers), falling
    back to least-loaded. This encodes the first-mover advantage of
    Section 2.2 — the one-stage game cannot use it because it has no
    leader set.
    """
    n = g.n
    c2p = np.full(n, -1, dtype=np.int64)
    loads = np.zeros(k)
    heads = np.flatnonzero(cluster_is_head)
    for c in heads[np.argsort(-g.sizes[heads], kind="stable")]:
        p = int(np.argmin(loads))
        c2p[c] = p
        loads[p] += g.sizes[c]
    tails = np.flatnonzero(~cluster_is_head)
    for c in tails[np.argsort(-g.sizes[tails], kind="stable")]:
        nbrs, w = g.neighbors(int(c))
        placed = c2p[nbrs] >= 0
        if placed.any():
            mass = np.bincount(c2p[nbrs[placed]], weights=w[placed], minlength=k)
            p = int(np.argmax(mass))
        else:
            p = int(np.argmin(loads))
        c2p[c] = p
        loads[p] += g.sizes[c]
    return c2p


def individual_cost(
    g: ClusterGraph, c2p: np.ndarray, loads: np.ndarray, c: int, k: int, delta: float
) -> float:
    """Eq. (6) cost of cluster ``c`` under the current profile."""
    nbrs, w = g.neighbors(c)
    f = float(w[c2p[nbrs] != c2p[c]].sum())
    return delta / k * g.sizes[c] * loads[c2p[c]] + (f + g.sizes[c]) / k


def social_welfare(g: ClusterGraph, c2p: np.ndarray, k: int, delta: float) -> float:
    """Eq. (5): δ·Σ|p|²/k + Σ Θ(p_i, V)/k with Θ(p,V)=Θ(p,V−p)+|p|.

    Σ_i Θ(p_i, V−p_i) counts each cut pair from both sides, i.e. equals
    2 × the one-sided cut weight.
    """
    loads = np.bincount(c2p, weights=g.sizes, minlength=k)
    cut = g.cut_weight(c2p)
    return delta * float((loads**2).sum()) / k + (2 * cut + float(loads.sum())) / k


def total_individual_cost(g: ClusterGraph, c2p: np.ndarray, k: int, delta: float) -> float:
    """Σ_c S_c(P(c)) — equals :func:`social_welfare` by Theorem 4."""
    loads = np.bincount(c2p, weights=g.sizes, minlength=k)
    return sum(individual_cost(g, c2p, loads, c, k, delta) for c in range(g.n))


def _best_response(
    g: ClusterGraph,
    c: int,
    c2p_snapshot: np.ndarray,
    loads_snapshot: np.ndarray,
    k: int,
    delta: float,
) -> int:
    """argmin_p S_c(p) against a frozen profile; ties keep the current p."""
    cur = c2p_snapshot[c]
    size_c = g.sizes[c]
    nbrs, w = g.neighbors(c)
    w_in_p = np.bincount(c2p_snapshot[nbrs], weights=w, minlength=k)
    cut_cost = (w_in_p.sum() - w_in_p) / k
    loads_wo = loads_snapshot.copy()
    loads_wo[cur] -= size_c
    load_cost = delta / k * size_c * (loads_wo + size_c)
    cost = load_cost + cut_cost
    cost[cur] -= 1e-9  # strict-improvement tie-break → convergence
    return int(np.argmin(cost))


def synchronous_round(
    g: ClusterGraph, c2p: np.ndarray, k: int, delta: float
) -> np.ndarray:
    """One fully synchronous best-response round (all clusters, frozen
    snapshot). At a pure Nash equilibrium it returns ``c2p`` unchanged,
    which is how the tests check the game's fixed point."""
    loads = np.bincount(c2p, weights=g.sizes, minlength=k).astype(np.float64)
    out = c2p.copy()
    for c in range(g.n):
        out[c] = _best_response(g, c, c2p, loads, k, delta)
    return out


def stackelberg_game(
    n_clusters: int,
    sizes: np.ndarray,
    cluster_is_head: np.ndarray,
    theta_pairs: tuple[np.ndarray, np.ndarray, np.ndarray],
    k: int,
    *,
    delta: float | None = None,
    batch_size: int = 1,
    max_rounds: int = 64,
    one_stage: bool = False,
) -> GameResult:
    """Run best-response dynamics to a (pure) Nash equilibrium.

    ``one_stage=True`` removes the leader/follower distinction (all
    clusters move in id order each round) — the ablation of Fig. 7(d)
    and the CLUGP-style static game.

    ``batch_size=1`` is fully sequential best response (potential-
    function convergence guarantee). Larger batches model the paper's
    thread-pool parallelism: best responses within a batch are computed
    against a frozen snapshot, then applied together — faster rounds,
    but simultaneous pair-swaps can oscillate, which is why the paper
    (and we) cap the number of rounds.
    """
    g = ClusterGraph(n_clusters, sizes, theta_pairs)
    if delta is None:
        delta = delta_max(g, k)
    if one_stage:
        c2p = initial_assignment(g.sizes, k)
    else:
        c2p = stackelberg_initial_assignment(g, cluster_is_head, k)
    loads = np.bincount(c2p, weights=g.sizes, minlength=k).astype(np.float64)

    # Dead ids (empty clusters abandoned by migration) have constant-0
    # cost everywhere; skipping them changes nothing but round time.
    active = (g.sizes > 0) | (g.W > 0)
    if one_stage:
        stages = [np.flatnonzero(active)]
    else:
        stages = [
            np.flatnonzero(active & cluster_is_head),   # Stage 1: leaders
            np.flatnonzero(active & ~cluster_is_head),  # Stage 2: followers
        ]

    rounds = 0
    converged = False
    for rounds in range(1, max_rounds + 1):
        changed = False
        for stage in stages:
            for start in range(0, len(stage), batch_size):
                batch = stage[start : start + batch_size]
                if batch_size > 1:
                    snap_c2p = c2p.copy()
                    snap_loads = loads.copy()
                else:  # sequential: respond to the live profile
                    snap_c2p = c2p
                    snap_loads = loads
                for c in batch:
                    p = _best_response(g, int(c), snap_c2p, snap_loads, k, delta)
                    if p != c2p[c]:
                        loads[c2p[c]] -= g.sizes[c]
                        loads[p] += g.sizes[c]
                        c2p[c] = p
                        changed = True
        if not changed:
            converged = True
            break
    welfare = social_welfare(g, c2p, k, delta)
    return GameResult(c2p=c2p, rounds=rounds, converged=converged, delta=delta, welfare=welfare)
