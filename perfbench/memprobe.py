"""Peak memory of one driver-side partitioner call, in a fresh process.

Usage: ``python3 perfbench/memprobe.py METHOD K`` with the ``(m, 2)`` int64
edge array as raw bytes on stdin and ``src`` on ``PYTHONPATH``. Prints one
JSON object: the growth of the resident set from just before the call to
its high-water mark (MiB), and a digest of the assignment.

A fresh process is used because the benchmark's own process has held
Spark and Arrow buffers, which would hide the call's peak. Resident-set
growth costs nothing while the call runs; ``tracemalloc`` would make
the call 15-25 times slower.
"""
from __future__ import annotations

import hashlib
import json
import sys

import numpy as np

from repro.baselines.api import PARTITIONERS


def digest(part: np.ndarray) -> str:
    """Content hash of an assignment, to compare runs of one partitioner."""
    return hashlib.sha256(np.ascontiguousarray(part, dtype=np.int64).tobytes()).hexdigest()


def memory_kib(field: str) -> int:
    """``VmRSS`` (resident now) or ``VmHWM`` (its high-water mark) in KiB.

    Not ``ru_maxrss``: that survives ``exec`` and so starts at the
    parent's resident size.
    """
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise KeyError(field)


def main() -> None:
    method, k = sys.argv[1], int(sys.argv[2])
    edges = np.frombuffer(sys.stdin.buffer.read(), dtype=np.int64).reshape(-1, 2).copy()
    before = memory_kib("VmRSS")
    part = PARTITIONERS[method](edges, k)
    peak = memory_kib("VmHWM")
    print(
        json.dumps(
            {
                "peak_mb": max(peak - before, 0) / 1024,
                "digest": digest(part),
            }
        )
    )


if __name__ == "__main__":
    main()
