"""Campaign plugin that traces layers inside spawned worker processes.

A traced ``campaign_jobs2`` pass lists this module in
``Campaign.plugins``, so every worker imports it before running its
unit. In a worker it wraps the layers (see :mod:`layers`) and
``execute_unit``; when the unit ends it adds the worker's span totals
and its PID to the metrics registry, whose per-attempt snapshot the
engine already ships back to the parent through the result pipe.

The driving process imports plugins too; there (no parent process)
the module does nothing, because the benchmark traces the parent
itself.
"""

from __future__ import annotations

import multiprocessing
import os

SECONDS = "perfbench_span_seconds"
CALLS = "perfbench_span_calls"
COUNTS = "perfbench_counts"
WORKERS = "perfbench_worker_units"


def _ship(recorder) -> None:
    """Add this worker's span totals and PID to the registry; the
    process runs one unit, so its totals are that unit's."""
    from repro.obs.metrics import REGISTRY

    seconds = REGISTRY.counter(SECONDS, "benchmark span seconds")
    calls = REGISTRY.counter(CALLS, "benchmark span calls")
    counts = REGISTRY.counter(COUNTS, "benchmark layer counts")
    for name, value in recorder.self_s.items():
        seconds.inc(max(0.0, value), span=name, kind="self")
    for name, value in recorder.total_s.items():
        seconds.inc(value, span=name, kind="total")
    for name, value in recorder.calls.items():
        calls.inc(value, span=name)
    for name, value in recorder.counts.items():
        counts.inc(value, name=name)
    REGISTRY.counter(WORKERS, "units per worker pid").inc(
        pid=str(os.getpid()))


def totals_from_snapshot(snapshot: dict) -> tuple:
    """``(span totals, worker pids)`` carried by a registry snapshot,
    in the shape of :meth:`spans.SpanRecorder.totals`."""
    totals: dict = {"self_s": {}, "total_s": {}, "calls": {}, "counts": {}}
    for sample in snapshot.get(SECONDS, {}).get("samples", ()):
        labels = sample["labels"]
        section = "self_s" if labels["kind"] == "self" else "total_s"
        totals[section][labels["span"]] = sample["value"]
    for sample in snapshot.get(CALLS, {}).get("samples", ()):
        totals["calls"][sample["labels"]["span"]] = sample["value"]
    for sample in snapshot.get(COUNTS, {}).get("samples", ()):
        totals["counts"][sample["labels"]["name"]] = sample["value"]
    pids = {sample["labels"]["pid"]
            for sample in snapshot.get(WORKERS, {}).get("samples", ())}
    return totals, pids


if multiprocessing.parent_process() is not None:
    import layers
    from spans import SpanRecorder

    layers.install(SpanRecorder(), after_unit=_ship)
