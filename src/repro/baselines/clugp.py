"""CLUGP (Kong, Xie, Zhang — ICDE'22): clustering + static game.

The strongest published competitor and the paper's closest relative.
Differences from S5P that this implementation preserves (Section 3):

* clustering is **skewness-oblivious**: one vertex-to-cluster table,
  volumes tracked with *local* degrees, plus a *splitting* operation
  when a cluster overflows (Table 1 row "CLUGP-Clustering");
* the refinement game is **static** (simultaneous-move, one player
  class) rather than a sequential Stackelberg game — we reuse the game
  engine in ``one_stage`` mode with no leader set;
* postprocessing maps edges through cluster partitions under the same
  load cap (no skew-aware overflow direction).
"""
from __future__ import annotations

import numpy as np

from repro.core.clustering import cluster_capacity
from repro.core.game import stackelberg_game
from repro.core.postprocess import assign_edges
from repro.core.theta import ExactTheta


def clugp_cluster(
    edges: np.ndarray, kappa: float
) -> tuple[np.ndarray, np.ndarray, int]:
    """CLUGP streaming clustering (local degrees + splitting)."""
    n_v = int(edges.max()) + 1 if len(edges) else 0
    # Plain lists; splitting mints an unbounded number of cluster ids,
    # each as len(vol) with its volume appended.
    v2c = [-1] * n_v
    vol: list[float] = []
    ld = [0] * n_v
    for u, v in zip(edges[:, 0].tolist(), edges[:, 1].tolist()):
        if v2c[u] < 0:
            v2c[u] = len(vol); vol.append(0.0)
        if v2c[v] < 0:
            v2c[v] = len(vol); vol.append(0.0)
        ld[u] += 1; ld[v] += 1
        cu, cv = v2c[u], v2c[v]
        vol[cu] += 1; vol[cv] += 1
        if cu != cv and vol[cu] < kappa and vol[cv] < kappa:
            # local-degree migration: lighter cluster's vertex moves
            if vol[cu] <= vol[cv]:
                i, ci, cj = u, cu, cv
            else:
                i, ci, cj = v, cv, cu
            vol[cj] += ld[i]; vol[ci] -= ld[i]
            v2c[i] = cj
        else:
            # splitting: an overflowing vertex restarts in a new cluster
            for z in (u, v):
                if vol[v2c[z]] >= kappa and ld[z] < kappa:
                    v2c[z] = len(vol)
                    vol.append(float(ld[z]))
    return np.array(v2c, dtype=np.int64), np.array(vol, dtype=np.float64), len(vol)


def clugp_partition(edges: np.ndarray, k: int, *, tau: float = 1.0) -> np.ndarray:
    """Run CLUGP (clustering → static game → postprocess)."""
    n_e = len(edges)
    kappa = cluster_capacity(n_e, k)
    v2c, vol, n_clusters = clugp_cluster(edges, kappa)
    edge_cu = v2c[edges[:, 0]]
    edge_cv = v2c[edges[:, 1]]
    sizes = np.bincount(edge_cu, minlength=n_clusters).astype(np.int64)
    theta = ExactTheta()
    cross = edge_cu != edge_cv
    theta.add_pairs(edge_cu[cross], edge_cv[cross])
    game = stackelberg_game(
        n_clusters,
        sizes,
        np.zeros(n_clusters, dtype=bool),  # no leaders: static game
        theta.pairs(),
        k,
        one_stage=True,
    )
    return assign_edges(
        edge_cu,
        edge_cv,
        np.zeros(n_e, dtype=bool),
        game.c2p,
        k,
        tau=tau,
    )
