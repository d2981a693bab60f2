"""Skewness-aware streaming graph clustering (Algorithm 1).

A single sequential pass over the edge stream. Edges are classified as
*head* (both endpoints have global degree > ξ) or *tail*; head edges are
clustered with **global**-degree volumes, tail edges with **local**
(running) degree volumes, both capped at κ via an allocation–migration
scheme. Head vertices may appear in both tables (Definition 1).

The bounded variant S5P-B (Section 5.3) uses global degrees everywhere
and drops the κ constraint (pass ``kappa=inf, use_local_degrees=False``).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .stream import degrees_np


@dataclass
class ClusteringResult:
    """Output of Algorithm 1 plus the per-edge cluster views the game needs."""

    n_vertices: int
    n_edges: int
    xi: float
    kappa: float
    v2c_head: np.ndarray  # vertex -> head-cluster id, -1 if none
    v2c_tail: np.ndarray  # vertex -> tail-cluster id, -1 if none
    edge_is_head: np.ndarray  # bool per edge
    edge_cu: np.ndarray  # per-edge cluster of src (type-matched table)
    edge_cv: np.ndarray  # per-edge cluster of dst
    n_clusters: int
    cluster_is_head: np.ndarray  # bool per cluster id
    cluster_volume: np.ndarray  # final vol(·) per cluster id
    edges_src: np.ndarray  # the stream's src column (arrival order)
    edges_dst: np.ndarray  # the stream's dst column

    # Derived: each edge is *owned* by its src endpoint's cluster, which
    # partitions E exactly (Σ|c_i| = |E|) as the cost functions require.
    owner: np.ndarray = field(init=False)
    cluster_sizes: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.owner = self.edge_cu
        self.cluster_sizes = np.bincount(
            self.owner, minlength=self.n_clusters
        ).astype(np.int64)

    @property
    def cut_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """All cluster pairs spanned by edges, under *vertex membership*.

        Θ(c_i, c_j) (Eq. 7) counts edges with one endpoint in c_i and
        the other in c_j, where a head vertex is a member of both its
        head cluster and its tail cluster (Definition 1). The
        head×tail pairs this produces are the coupling through which
        leaders' (head clusters') moves steer followers — without
        them the two game stages would be independent games.
        """
        hu = self.v2c_head[self.edges_src]
        tu = self.v2c_tail[self.edges_src]
        hv = self.v2c_head[self.edges_dst]
        tv = self.v2c_tail[self.edges_dst]
        pairs_u = np.concatenate([hu, hu, tu, tu])
        pairs_v = np.concatenate([hv, tv, hv, tv])
        valid = (pairs_u >= 0) & (pairs_v >= 0) & (pairs_u != pairs_v)
        return pairs_u[valid], pairs_v[valid]


def head_threshold(n_vertices: int, n_edges: int, beta: float = 1.0) -> float:
    """ξ = β · 2|E|/|V| — β times the average degree (footnote 2)."""
    return beta * 2.0 * n_edges / max(n_vertices, 1)


def cluster_capacity(n_edges: int, k: int) -> float:
    """κ = 2|E|/k (footnote 2)."""
    return 2.0 * n_edges / k


def skewness_aware_clustering(
    edges: np.ndarray,
    k: int,
    *,
    beta: float = 1.0,
    degrees: np.ndarray | None = None,
    kappa: float | None = None,
    use_local_degrees: bool = True,
) -> ClusteringResult:
    """Run Algorithm 1 over an arrival-ordered ``(m, 2)`` edge array.

    ``degrees`` are global degrees (precomputed in one pass, as in
    2PS-L); ``use_local_degrees=False`` selects the S5P-B variant for
    tail volumes. Returns per-vertex tables and per-edge cluster views.
    """
    n_v = int(edges.max()) + 1 if len(edges) else 0
    n_e = len(edges)
    if degrees is None:
        degrees = degrees_np(edges, n_v)
    xi = head_threshold(n_v, n_e, beta)
    if kappa is None:
        kappa = cluster_capacity(n_e, k)

    head_v = degrees > xi
    src, dst = edges[:, 0], edges[:, 1]
    eh = head_v[src] & head_v[dst]

    # Plain lists: the loop indexes one element at a time, which is far
    # cheaper on a list than on a numpy array. Cluster ids are minted as
    # len(vol), so vol and is_head_c grow by one entry per new cluster.
    v2c_h = [-1] * n_v
    v2c_t = [-1] * n_v
    vol: list[float] = []
    is_head_c: list[bool] = []
    ld = [0] * n_v
    d = degrees.astype(np.float64).tolist()
    ldeg = ld if use_local_degrees else d

    for u, v, head in zip(src.tolist(), dst.tolist(), eh.tolist()):
        if head:
            # --- head edge: global-degree-aware (lines 2-11) ---
            cu = v2c_h[u]
            if cu < 0:
                cu = v2c_h[u] = len(vol)
                vol.append(d[u]); is_head_c.append(True)
            cv = v2c_h[v]
            if cv < 0:
                cv = v2c_h[v] = len(vol)
                vol.append(d[v]); is_head_c.append(True)
            if cu != cv and vol[cu] < kappa and vol[cv] < kappa:
                # i: endpoint whose cluster is lighter without it (line 6)
                if vol[cu] - d[u] <= vol[cv] - d[v]:
                    i, ci, cj = u, cu, cv
                else:
                    i, ci, cj = v, cv, cu
                if vol[cj] + d[i] < kappa:  # line 8
                    vol[cj] += d[i]; vol[ci] -= d[i]
                    v2c_h[i] = cj
        else:
            # --- tail edge: local-degree-aware (lines 12-21) ---
            cu = v2c_t[u]
            if cu < 0:
                cu = v2c_t[u] = len(vol)
                vol.append(0.0); is_head_c.append(False)
            cv = v2c_t[v]
            if cv < 0:
                cv = v2c_t[v] = len(vol)
                vol.append(0.0); is_head_c.append(False)
            ld[u] += 1; ld[v] += 1
            vol[cu] += 1; vol[cv] += 1
            if cu != cv and vol[cu] < kappa and vol[cv] < kappa:
                if vol[cu] <= vol[cv]:  # line 17: argmin volume
                    i, ci, cj = u, cu, cv
                else:
                    i, ci, cj = v, cv, cu
                vol[cj] += ldeg[i]; vol[ci] -= ldeg[i]  # lines 19-21
                v2c_t[i] = cj

    v2c_h = np.array(v2c_h, dtype=np.int64)
    v2c_t = np.array(v2c_t, dtype=np.int64)
    edge_cu = np.where(eh, v2c_h[src], v2c_t[src])
    edge_cv = np.where(eh, v2c_h[dst], v2c_t[dst])
    return ClusteringResult(
        n_vertices=n_v,
        n_edges=n_e,
        xi=xi,
        kappa=kappa,
        v2c_head=v2c_h,
        v2c_tail=v2c_t,
        edge_is_head=eh,
        edge_cu=edge_cu.astype(np.int64),
        edge_cv=edge_cv.astype(np.int64),
        n_clusters=len(vol),
        cluster_is_head=np.array(is_head_c, dtype=bool),
        cluster_volume=np.array(vol, dtype=np.float64),
        edges_src=src.copy(),
        edges_dst=dst.copy(),
    )
