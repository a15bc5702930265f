"""In-memory span recording with self-time accounting.

A span is one timed call into a layer: name, start, end, the span that
caused it (its parent on the call stack) and the run key of the unit it
belongs to. Self time is a span's duration minus the time its child
spans cover; because spans nest on one thread, the children of a span
never overlap each other, so that is the duration minus the sum of the
children's durations.

Fine-grained spans (one per kernel call or cost-model call, hundreds of
thousands per run) are folded into per-name totals as they close, so a
traced 512-rank run stays within a few megabytes. Spans whose name is
in ``keep`` are also kept as rows; all of it stays in memory until
:meth:`SpanRecorder.dump` writes it once, when the benchmark ends.
"""

from __future__ import annotations

import json
import time


class SpanRecorder:
    """Stack of open spans plus per-name totals of closed ones."""

    def __init__(self, keep=(), clock=time.perf_counter):
        self.clock = clock
        self.keep = frozenset(keep)
        #: kept rows: (name, start, end, parent name or None, key)
        self.rows: list = []
        self.self_s: dict = {}
        self.total_s: dict = {}
        self.calls: dict = {}
        #: plain counts read at layer boundaries (messages, steps, ...)
        self.counts: dict = {}
        #: (start, end) of every span with no parent: what the layers cover
        self.top_level: list = []
        #: the shared id stamped on spans: the current unit's run key
        self.key = None
        self._stack: list = []

    def open(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def close(self) -> None:
        name, start, children = self._stack.pop()
        self._closed(name, start, self.clock(), children)

    def _closed(self, name, start, end, children) -> None:
        duration = end - start
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - children
        self.total_s[name] = self.total_s.get(name, 0.0) + duration
        self.calls[name] = self.calls.get(name, 0) + 1
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            parent_name = parent[0]
        else:
            parent_name = None
            self.top_level.append((start, end))
        if name in self.keep:
            self.rows.append((name, start, end, parent_name, self.key))

    def interval(self, name: str, start: float, end: float, key=None):
        """Record a span measured outside the stack (a unit's window as
        the parent process saw it); it counts as top level."""
        self.top_level.append((start, end))
        self.rows.append((name, start, end, None, key))

    def count(self, name: str, amount=1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def totals(self) -> dict:
        """Self seconds, inclusive seconds, calls and counts by name."""
        return {"self_s": dict(self.self_s), "total_s": dict(self.total_s),
                "calls": dict(self.calls), "counts": dict(self.counts)}

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": [list(row) for row in self.rows],
                       "totals": self.totals()}, handle)


def covered_seconds(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def merge_totals(into: dict, other: dict) -> dict:
    """Add one :meth:`SpanRecorder.totals` dict into another."""
    for section, values in other.items():
        target = into.setdefault(section, {})
        for name, value in values.items():
            target[name] = target.get(name, 0) + value
    return into


def median(values):
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def tail_percentile(values, fraction: float):
    """The ``fraction`` quantile (nearest rank), or None when fewer than
    ten samples lie above it: a tail read off fewer samples is noise."""
    ordered = sorted(values)
    n = len(ordered)
    rank = max(0, min(n - 1, int(round(fraction * (n - 1)))))
    if n - 1 - rank < 10:
        return None
    return ordered[rank]
