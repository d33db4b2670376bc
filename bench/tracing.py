"""Spans the benchmark records around its own library calls.

A traced run records one span per layer call, nested workload -> item
(field, pair or group) -> layer call.  Spans stay in memory and are
written out once, at the end of the run.  An untraced run uses
`NullTracer`, whose spans cost one method call each.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import nullcontext

_NULL = nullcontext()


class NullTracer:
    def span(self, name):
        return _NULL


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer, index):
        self.tracer = tracer
        self.index = index

    def __enter__(self):
        tracer = self.tracer
        tracer.stack.append(self.index)
        tracer.starts[self.index] = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        tracer = self.tracer
        tracer.ends[self.index] = time.perf_counter_ns()
        tracer.stack.pop()
        return False


class Tracer:
    """In-memory span recorder: name, start, end, parent and run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.parents: list[int | None] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.stack: list[int] = []

    def span(self, name: str) -> _Span:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else None)
        self.starts.append(0)
        self.ends.append(0)
        return _Span(self, index)

    def spans(self):
        """(name, start_ns, end_ns, parent) for every recorded span."""
        return list(zip(self.names, self.starts, self.ends, self.parents))

    def write(self, path):
        with open(path, "w", encoding="utf-8") as out:
            for i, (name, start, end, parent) in enumerate(self.spans()):
                out.write(json.dumps({"run": self.run_id, "id": i, "name": name,
                                      "start_ns": start, "end_ns": end,
                                      "parent": parent}) + "\n")


def covered(intervals) -> int:
    """Length of the union of (start, end) intervals."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans) -> list[int]:
    """Per span: its duration minus the part of its interval that its
    child spans cover (overlapping children are counted once)."""
    children: dict[int, list] = {}
    for name, start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, parent) in enumerate(spans):
        kids = [(max(s, start), min(e, end)) for s, e in children.get(i, ())]
        out.append(end - start - covered((s, e) for s, e in kids if s < e))
    return out


def self_seconds_by_name(spans) -> Counter:
    totals: Counter = Counter()
    for (name, *_), ns in zip(spans, self_times(spans)):
        totals[name] += ns
    return Counter({name: ns / 1e9 for name, ns in totals.items()})
