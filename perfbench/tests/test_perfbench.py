"""Self-tests of the benchmark's own machinery (no timed runs)."""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

import layers  # noqa: E402
import workloads  # noqa: E402
from spans import (  # noqa: E402
    SpanRecorder,
    covered_seconds,
    median,
    tail_percentile,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_span_minus_children():
    clock = FakeClock()
    rec = SpanRecorder(keep=("outer", "inner"), clock=clock)
    rec.open("outer")
    clock.now = 1.0
    rec.open("inner")
    clock.now = 3.0
    rec.close()
    clock.now = 3.5
    rec.open("inner")
    clock.now = 4.0
    rec.close()
    clock.now = 6.0
    rec.close()
    assert rec.total_s["outer"] == 6.0
    assert rec.total_s["inner"] == 2.5
    assert rec.self_s["outer"] == 6.0 - 2.5
    assert rec.self_s["inner"] == 2.5
    assert rec.calls == {"outer": 1, "inner": 2}
    # only the outer span is top level; children name their parent
    assert rec.top_level == [(0.0, 6.0)]
    assert [(row[0], row[3]) for row in rec.rows] == [
        ("inner", "outer"), ("inner", "outer"), ("outer", None)]


def test_covered_seconds_is_the_union():
    assert covered_seconds([]) == 0.0
    assert covered_seconds([(0, 2), (1, 3), (5, 6)]) == 4.0
    assert covered_seconds([(0, 10), (2, 3)]) == 10.0


def test_percentile_needs_ten_samples_beyond_it():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 2.0, 3.0]) == 2.5
    # nearest rank: p99 of 1000 samples is index 989, 10 samples above
    assert tail_percentile(list(range(1000)), 0.99) == 989
    assert tail_percentile(list(range(900)), 0.99) is None
    assert tail_percentile(list(range(21)), 0.5) == 10
    assert tail_percentile(list(range(19)), 0.5) is None


def test_sliced_generator_keeps_yield_from_semantics():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)

    def worker(n):
        got = yield "first"
        try:
            yield got * n
        except KeyError:
            return "recovered"
        return "finished"

    wrapped = layers._timed_generator(rec, "gen", worker)

    def delegator():
        return (yield from wrapped(2))

    gen = delegator()
    assert next(gen) == "first"
    assert gen.send(21) == 42
    with pytest.raises(StopIteration) as stop:
        gen.throw(KeyError("x"))
    assert stop.value.value == "recovered"
    # three resumptions, three spans, none left open
    assert rec.calls["gen"] == 3
    assert rec._stack == []


def test_patcher_restores_everything():
    import repro.apps.hpccg as hpccg
    import repro.apps.kernels.stencil as stencil

    original = stencil.apply_27pt
    rec = SpanRecorder()
    patch = layers.install(rec)
    try:
        assert hpccg.apply_27pt is not original
        assert hpccg.apply_27pt.__wrapped__ is original
    finally:
        patch.restore()
    assert hpccg.apply_27pt is original
    assert stencil.apply_27pt is original


def _run_result():
    from repro.core.breakdown import RunResult, TimeBreakdown

    return RunResult(
        config_label="x", breakdown=TimeBreakdown(total_seconds=1.5),
        verified=True, details={"runtime_stats": {"p2p_messages": 3}})


def test_matching_fingerprint_passes():
    result = _run_result()
    reference = {"k": workloads.fingerprint_digest(result)}
    assert workloads.result_ok(reference, "k", result)


def test_corrupted_fingerprint_is_a_failed_op_not_an_error():
    result = _run_result()
    reference = {"k": workloads.fingerprint_digest(result)}
    drifted = _run_result()
    drifted.breakdown.total_seconds = 1.5000000000000002
    assert not workloads.result_ok(reference, "k", drifted)
    # a record that cannot even be fingerprinted
    broken = _run_result()
    broken.details = {}
    assert not workloads.result_ok(reference, "k", broken)
    broken.breakdown = None
    assert not workloads.result_ok(reference, "k", broken)
    # an unverified run, and a run the reference does not know
    unverified = _run_result()
    unverified.verified = False
    assert not workloads.result_ok(
        {"k": workloads.fingerprint_digest(unverified)}, "k", unverified)
    assert not workloads.result_ok({}, "k", result)


def test_request_stream_is_seeded():
    first = workloads.RequestStream(7).block()
    again = workloads.RequestStream(7).block()
    other = workloads.RequestStream(8).block()
    assert first == again
    assert first != other
    kinds = [kind for kind, _ in first]
    assert kinds.count("GET") == workloads.BLOCK_GETS
    assert kinds.count("BATCH") == workloads.BLOCK_BATCHES


class _Pass:
    def __init__(self, wall):
        self.wall = wall


def test_passes_alternate_and_overhead_is_the_median_pair_ratio(
        monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(workloads, "clock", clock)
    order = []

    def run(kind, wall):
        def one(index):
            order.append((kind, index))
            clock.now += wall
            return _Pass(wall)
        return one

    plain, traced = workloads.paired(run("plain", 1.0), run("traced", 1.5),
                                     6.0)
    # a pair takes 2.5 s: a third would end at 7.5 s, further from 6 s
    # than stopping at 5 s
    assert order == [("plain", 0), ("traced", 1), ("plain", 2),
                     ("traced", 3)]
    assert workloads.overhead_pct(plain, traced) == 50.0
    # a host spell slows one whole pair; the median pair ratio holds
    plain = [_Pass(1.0), _Pass(2.0), _Pass(1.0)]
    traced = [_Pass(1.1), _Pass(2.2), _Pass(1.1)]
    assert round(workloads.overhead_pct(plain, traced), 9) == 10.0
