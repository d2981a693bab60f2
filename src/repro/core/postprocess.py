"""Postprocessing: cluster-level → edge-level assignment (Algorithm 3).

A final sequential pass over the stream. Each edge looks up the
partitions of its endpoints' clusters (head table for head edges, tail
table otherwise) and goes to the less-loaded of the two; if both are
over the cap L = ⌈τ|E|/k⌉, head edges scan partitions first→last and
tail edges last→first for free space (the skew-aware overflow rule that
concentrates head and tail overflow at opposite ends).

The pass runs on Python lists, and the two overflow scans are monotone
pointers: ``lo`` is the first partition with room and ``hi`` the last.
Loads only grow, so a full partition stays full and the pointers only
move inward — at most k steps each over the whole stream, so the work
per edge is O(1) in k. Only when no partition has room (the cap can
bind when τ < 1) does an edge spill to the least-loaded partition in
O(k).
"""
from __future__ import annotations

import math

import numpy as np


def max_load(n_edges: int, k: int, tau: float = 1.0) -> int:
    """L = ⌈τ·|E|/k⌉ (Theorem 1: relative balance is then ≤ kL/|E|)."""
    return math.ceil(tau * n_edges / k)


def assign_edges(
    edge_cu: np.ndarray,
    edge_cv: np.ndarray,
    edge_is_head: np.ndarray,
    c2p: np.ndarray,
    k: int,
    *,
    tau: float = 1.0,
    cap: int | None = None,
) -> np.ndarray:
    """Run Algorithm 3; returns the per-edge partition array.

    Inputs are per-edge endpoint-cluster ids (in arrival order), the
    head/tail flag per edge, and the game's cluster→partition map.
    ``tau=inf`` disables the load cap (the S5P-B variant removes
    maxLoad).
    """
    n_e = len(edge_cu)
    if cap is None:
        cap = max_load(n_e, k, tau) if math.isfinite(tau) else n_e + 1
    loads = [0] * k
    out = []
    lo, hi = 0, k - 1  # first / last partition that may still have room
    for a, b, head in zip(
        c2p[edge_cu].tolist(), c2p[edge_cv].tolist(), edge_is_head.tolist()
    ):
        if loads[a] >= cap and loads[b] >= cap:
            # overflow: skew-aware scan for any partition with space
            while lo < k and loads[lo] >= cap:
                lo += 1
            while hi >= 0 and loads[hi] >= cap:
                hi -= 1
            if lo < k:
                p = lo if head else hi
            else:  # cap can momentarily bind if τ·|E|/k < |E|/k; spill anyway
                p = min(range(k), key=loads.__getitem__)
        elif loads[a] > loads[b]:
            p = b
        else:
            p = a
        out.append(p)
        loads[p] += 1
    return np.array(out, dtype=np.int64)
