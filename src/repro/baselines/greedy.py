"""Greedy streaming vertex-cut partitioner (PowerGraph, OSDI'12).

The classic replica-aware greedy rules, per edge (u, v):

1. both endpoints share partitions → least-loaded shared partition;
2. both have replicas but disjoint → least-loaded among the replicas of
   the endpoint with the higher partial degree (its remaining edges are
   the ones worth co-locating);
3. exactly one endpoint has replicas → least-loaded of those;
4. neither placed yet → least-loaded partition overall.

Runs under the same load cap as every other competitor.

Replica sets are int bitmasks, so each rule scans only its candidate
partitions (:func:`least_loaded`, shared with HDRF). Every fallback — no
candidate with room, rule 4, and the spill when all partitions are full
— is the lowest-index least-loaded partition ``pmin``, recomputed in
O(k) only when it takes an edge itself.
"""
from __future__ import annotations

import numpy as np

from repro.core.postprocess import max_load


def least_loaded(mask: int, loads: list[int], cap: int, pmin: int) -> int:
    """Lowest-index least-loaded partition with room among the set bits
    of ``mask``, or -1 if none has room.

    ``pmin`` is the lowest-index least-loaded partition overall, so it
    answers at once when it is in ``mask``, and a scan (set bits ascend)
    stops at the first partition as light as it.
    """
    if mask >> pmin & 1:
        return pmin if loads[pmin] < cap else -1
    floor = loads[pmin]
    p, best = -1, cap
    while mask:
        bit = mask & -mask
        mask ^= bit
        q = bit.bit_length() - 1
        if loads[q] < best:  # strict: the lowest index wins ties
            p, best = q, loads[q]
            if best == floor:
                break
    return p


def greedy_partition(edges: np.ndarray, k: int, *, tau: float = 1.0) -> np.ndarray:
    """Run PowerGraph Greedy over the stream."""
    n_v = int(edges.max()) + 1 if len(edges) else 0
    n_e = len(edges)
    cap = max_load(n_e, k, tau)
    replicas = [0] * n_v  # bit p set: the vertex has a replica on p
    pdeg = [0] * n_v
    loads = [0] * k
    pmin = 0  # lowest-index least-loaded partition
    out = []
    for u, v in zip(edges[:, 0].tolist(), edges[:, 1].tolist()):
        pdeg[u] += 1; pdeg[v] += 1
        ru, rv = replicas[u], replicas[v]
        both = ru & rv
        if both:
            mask = both
        elif ru and rv:
            mask = ru if pdeg[u] >= pdeg[v] else rv
        else:
            mask = ru | rv  # 0 when neither is placed yet: rule 4
        p = least_loaded(mask, loads, cap, pmin)
        if p < 0:
            # no candidate has room (or none exists): the least-loaded
            # partition overall, also the spill when all are full
            p = pmin
        out.append(p)
        replicas[u] |= 1 << p
        replicas[v] |= 1 << p
        loads[p] += 1
        if p == pmin:
            pmin = min(range(k), key=loads.__getitem__)
    return np.array(out, dtype=np.int64)
