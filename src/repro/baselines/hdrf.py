"""HDRF: High-Degree (are) Replicated First (Petroni et al., CIKM'15).

Sequential scoring partitioner: for each edge, pick the partition
maximizing a replication score that prefers partitions already holding
the endpoints (cutting the higher-partial-degree endpoint first) plus a
load-balance term:

    C(p) = g(u, p) + g(v, p) + λ·(maxL − load_p)/(ε + maxL − minL)
    g(x, p) = (1 + (1 − θ_x))·1[x has a replica in p],
    θ_u = δ(u)/(δ(u)+δ(v))   (partial degrees)

As in the paper's experiments we use the improved 2PS-L-repo version's
convention of exact degrees being unnecessary — partial degrees are
accumulated online.

Each edge scores at most four partitions. The partitions fall into
four classes by which endpoints they hold replicas of: both, only u,
only v, neither. Within a class the replica terms are constant and the
balance term falls as the load grows — strictly, in floating point too,
while |E| < 2^49 — so the lowest-index least-loaded partition of each
class scores highest in it, and ties across classes go to the lowest
index, as with ``argmax``. For the class "neither" it is enough to score
``pmin``, the lowest-index least-loaded partition overall: when ``pmin``
holds a replica, it outscores every partition of that class anyway.
Finding the three replica winners scans R(u) ∪ R(v) (int bitmasks, set
bits ascending), so an edge costs O(|R(u)| + |R(v)|), plus O(k) when
``pmin`` itself takes the edge and is recomputed.
"""
from __future__ import annotations

import numpy as np

from repro.core.postprocess import max_load
from .greedy import least_loaded


def hdrf_partition(
    edges: np.ndarray,
    k: int,
    *,
    lam: float = 1.1,
    eps: float = 1e-3,
    tau: float = 1.0,
) -> np.ndarray:
    """Run HDRF over the stream; returns the per-edge partition array."""
    n_v = int(edges.max()) + 1 if len(edges) else 0
    n_e = len(edges)
    cap = max_load(n_e, k, tau)
    replicas = [0] * n_v  # bit p set: the vertex has a replica on p
    pdeg = [0] * n_v  # partial degrees
    loads = [0] * k
    max_l = 0
    pmin = 0  # lowest-index least-loaded partition
    out = []
    for u, v in zip(edges[:, 0].tolist(), edges[:, 1].tolist()):
        pdeg[u] += 1; pdeg[v] += 1
        du, dv = pdeg[u], pdeg[v]
        theta_u = du / (du + dv)
        g_u = 2.0 - theta_u
        g_v = 2.0 - (1.0 - theta_u)
        ru, rv = replicas[u], replicas[v]
        both = ru & rv
        denom = eps + max_l - loads[pmin]
        p, best = 0, -np.inf  # every partition full: argmax over -inf is 0
        for mask, g in ((both, g_u + g_v), (ru ^ both, g_u), (rv ^ both, g_v), (1 << pmin, 0.0)):
            q = least_loaded(mask, loads, cap, pmin)  # same cap as S5P
            if q < 0:
                continue
            score = g + lam * (max_l - loads[q]) / denom
            if score > best or (score == best and q < p):
                p, best = q, score
        out.append(p)
        replicas[u] |= 1 << p
        replicas[v] |= 1 << p
        loads[p] += 1
        if loads[p] > max_l:
            max_l = loads[p]
        if p == pmin:
            pmin = min(range(k), key=loads.__getitem__)
    return np.array(out, dtype=np.int64)
