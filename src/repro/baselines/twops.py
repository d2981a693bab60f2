"""2PS-L: Two-Phase Streaming with Linear run-time (Mayer et al., ICDE'22).

Phase 1 — streaming clustering à la Hollocou with **precomputed global
degrees** (Table 1 row "2PS-L-Clustering": allocation + global
migration), cluster volumes capped.

Phase 2 — linear-time partitioning: clusters are packed onto partitions
by first-fit decreasing volume; each edge then chooses between only the
two partitions of its endpoints' clusters (degree-based preference for
co-locating the lower-degree endpoint), falling back to the least-loaded
partition when both are at the cap. Per-edge cost is O(1) in k — the
linear-run-time property the paper contrasts with HDRF.
"""
from __future__ import annotations

import numpy as np

from repro.core.clustering import cluster_capacity
from repro.core.game import initial_assignment
from repro.core.postprocess import max_load
from repro.core.stream import degrees_np


def twops_cluster(
    edges: np.ndarray, kappa: float, degrees: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Phase-1 clustering; returns (v2c, cluster volumes)."""
    n_v = len(degrees)
    v2c = [-1] * n_v
    vol: list[float] = []  # cluster ids are minted as len(vol)
    d = degrees.astype(np.float64).tolist()
    for u, v in zip(edges[:, 0].tolist(), edges[:, 1].tolist()):
        if v2c[u] < 0:
            v2c[u] = len(vol); vol.append(d[u])
        if v2c[v] < 0:
            v2c[v] = len(vol); vol.append(d[v])
        cu, cv = v2c[u], v2c[v]
        if cu == cv:
            continue
        # migrate the vertex in the lighter cluster if the target fits
        if vol[cu] - d[u] <= vol[cv] - d[v]:
            i, ci, cj = u, cu, cv
        else:
            i, ci, cj = v, cv, cu
        if vol[cj] + d[i] <= kappa:
            vol[cj] += d[i]; vol[ci] -= d[i]
            v2c[i] = cj
    return np.array(v2c, dtype=np.int64), np.array(vol, dtype=np.float64)


#: First-fit-decreasing packing of clusters onto k partitions by volume:
#: the game's greedy least-loaded initial assignment, which packs only
#: non-empty clusters one at a time (most ids are empty after migration).
pack_clusters = initial_assignment


def twops_partition(edges: np.ndarray, k: int, *, tau: float = 1.0) -> np.ndarray:
    """Run both 2PS-L phases; returns the per-edge partition array."""
    n_e = len(edges)
    n_v = int(edges.max()) + 1 if n_e else 0
    degrees = degrees_np(edges, n_v)
    kappa = cluster_capacity(n_e, k)
    v2c, vol = twops_cluster(edges, kappa, degrees)
    c2p = pack_clusters(vol, k)
    cap = max_load(n_e, k, tau)
    src, dst = edges[:, 0], edges[:, 1]
    # prefer the partition of the lower-degree endpoint's cluster
    u_first = degrees[src] <= degrees[dst]
    loads = [0] * k
    out = []
    for pu, pv, uf in zip(
        c2p[v2c[src]].tolist(), c2p[v2c[dst]].tolist(), u_first.tolist()
    ):
        if pu == pv and loads[pu] < cap:
            p = pu
        else:
            first, second = (pu, pv) if uf else (pv, pu)
            if loads[first] < cap:
                p = first
            elif loads[second] < cap:
                p = second
            else:
                p = min(range(k), key=loads.__getitem__)
        out.append(p)
        loads[p] += 1
    return np.array(out, dtype=np.int64)
