"""Count-Min Sketch (Cormode & Muthukrishnan) for inter-cluster counts.

Parameterized exactly as the paper (Section 4.4): w = ceil(e/ε) columns,
d = ceil(ln(1/ν)) rows; a point query overestimates the true count by at
most ε·N with probability ≥ 1-ν, where N is the total inserted mass.
With the paper's ε=0.1, ν=0.01: w=28 (the paper rounds to 27), d=5.

Keys are int64 (cluster-pair codes). Hashing is 2-universal
multiply-shift with per-row odd multipliers drawn from a seeded RNG, and
both single-key and vectorized batch operations are provided (Alg. 1/2
insert per edge; the game queries in batches).
"""
from __future__ import annotations

import math

import numpy as np

_PRIME = np.uint64((1 << 61) - 1)


class CountMinSketch:
    """CMS over int64 keys with conservative point queries (min over rows)."""

    def __init__(self, eps: float = 0.1, nu: float = 0.01, seed: int = 7):
        if not (0 < eps < 1 and 0 < nu < 1):
            raise ValueError("eps and nu must be in (0, 1)")
        self.eps = eps
        self.nu = nu
        self.width = math.ceil(math.e / eps)
        self.depth = math.ceil(math.log(1 / nu))
        g = np.random.default_rng(seed)
        # Odd multipliers for multiply-shift hashing, one per row.
        self._a = (g.integers(1, 1 << 61, self.depth, dtype=np.uint64) * 2 + 1) % _PRIME
        self._b = g.integers(0, 1 << 61, self.depth, dtype=np.uint64) % _PRIME
        self.table = np.zeros((self.depth, self.width), dtype=np.int64)
        self.total = 0

    def _cols(self, keys: np.ndarray, r: int, out: np.ndarray) -> np.ndarray:
        """Row-``r`` column indices of uint64 ``keys``, computed into ``out``.

        One row at a time, in place: a batch needs the keys and one
        N-sized buffer, not d×N temporaries.
        """
        np.multiply(keys, self._a[r], out=out)  # uint64 wraps mod 2^64
        out += self._b[r]
        out %= _PRIME
        out %= np.uint64(self.width)
        return out.view(np.int64)  # values < width: reinterpret, no copy

    def add(self, key: int, count: int = 1) -> None:
        """Insert ``count`` occurrences of ``key``."""
        self.add_batch(np.array([key], dtype=np.int64), np.array([count], dtype=np.int64))

    def add_batch(self, keys: np.ndarray, counts: np.ndarray | None = None) -> None:
        """Vectorized insert of many keys (with optional per-key counts)."""
        if len(keys) == 0:
            return
        keys = keys.astype(np.uint64)
        buf = np.empty_like(keys)
        for r in range(self.depth):
            cols = self._cols(keys, r, buf)
            if counts is None:
                self.table[r] += np.bincount(cols, minlength=self.width)
            else:
                np.add.at(self.table[r], cols, counts)
        self.total += len(keys) if counts is None else int(counts.sum())

    def query(self, key: int) -> int:
        """Point estimate: never underestimates the true count."""
        return int(self.query_batch(np.array([key], dtype=np.int64))[0])

    def query_batch(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized point estimates for an array of keys."""
        keys = keys.astype(np.uint64)
        buf = np.empty_like(keys)
        est = np.full(len(keys), np.iinfo(np.int64).max, dtype=np.int64)
        for r in range(self.depth):
            np.minimum(est, self.table[r][self._cols(keys, r, buf)], out=est)
        return est

    @property
    def nbytes(self) -> int:
        """Memory footprint of the count table (the paper's w×d units)."""
        return self.table.nbytes
