"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent, op): one call into a layer, the span
that caused it, and the operation it belongs to. Spans are kept in memory
and written out once, at the end of the run. A span marked ``spark=True``
also gets its own Spark job group, so the Spark jobs a layer launches are
counted from the status tracker instead of from inside the program.
"""
from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

#: Job group for Spark work outside any traced span (output checks).
IDLE_GROUP = "perfbench-untraced"

#: The root span of one operation; its self time is reported as ``other``.
OP = "op"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans
    op: int
    job_group: str | None


class Tracer:
    """Spans and per-operation counters of one traced run."""

    def __init__(self, spark_context) -> None:
        self.sc = spark_context
        self.spans: list[Span] = []
        self.counters: dict[int, Counter] = defaultdict(Counter)
        self.op = -1
        self._stack: list[int] = []

    @contextmanager
    def operation(self):
        """Root span of one operation; spans opened inside belong to it."""
        self.op += 1
        with self.span(OP):
            yield self.op

    @contextmanager
    def span(self, name: str, *, spark: bool = False):
        idx = len(self.spans)
        group = f"perfbench-{idx}" if spark else None
        if group:
            self.sc.setJobGroup(group, name)
        parent = self._stack[-1] if self._stack else None
        s = Span(name, time.perf_counter(), 0.0, parent, self.op, group)
        self.spans.append(s)
        self._stack.append(idx)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            if group:
                self.sc.setJobGroup(IDLE_GROUP, "")

    def count(self, name: str, value: float) -> None:
        """Add ``value`` to counter ``name`` of the current operation."""
        self.counters[self.op][name] += value

    def self_times(self, op: int) -> dict[str, float]:
        """Per-layer self time of one operation: each span's duration
        minus the part its child spans cover, summed by layer name."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s.op == op]
        child_time: Counter = Counter()
        for _, s in spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out: Counter = Counter()
        for i, s in spans:
            out[s.name] += (s.end - s.start) - child_time[i]
        return dict(out)

    def op_seconds(self, op: int, exclude: tuple[str, ...] = ()) -> float:
        """Duration of the operation's root span, less the listed layers."""
        root = next(s for s in self.spans if s.op == op and s.name == OP)
        skipped = sum(
            s.end - s.start for s in self.spans if s.op == op and s.name in exclude
        )
        return (root.end - root.start) - skipped

    def spark_jobs(self, op: int) -> dict[str, int]:
        """Spark jobs launched inside each layer of one operation.

        Read after the operations end: the status tracker is fed by an
        asynchronous listener and may lag the action that started a job.
        """
        tracker = self.sc.statusTracker()
        out: Counter = Counter()
        for s in self.spans:
            if s.op == op and s.job_group:
                out[s.name] += len(tracker.getJobIdsForGroup(s.job_group))
        return dict(out)

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(asdict(s)) + "\n")
