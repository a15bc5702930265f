"""Exact-time injection during recovery (regression).

Iteration-indexed plans can only kill at ITER_MARK boundaries, so a
second fault scheduled while a repair is in flight used to be deferred
to the victim's next application iteration — after the recovery had
already completed, which is precisely the moment an adversarial
schedule is *not* aiming at. Timed plans are consulted by the scheduler
before every resume, so the kill lands inside the repair protocol step.
"""

from __future__ import annotations

import pytest

from repro.core.configs import ExperimentConfig
from repro.core.engine import run_config
from repro.explore.timeline import PhaseRecorder, probe_timeline
from repro.faults.plans import TimedFault, TimedFaultPlan
from repro.simmpi.runtime import Runtime


def _config():
    return ExperimentConfig(app="hpccg", nprocs=8, design="ulfm-fti",
                            faults="none")


def _run_with_kill_trace(config, plan):
    """Run the job recording every (rank, actual kill time)."""
    kills = []
    original = Runtime.kill

    def traced(self, rank, iteration=-1):
        if self._ranks[rank].status.name != "DEAD":
            kills.append((rank, self.clock.now(rank)))
        return original(self, rank, iteration)

    Runtime.kill = traced
    try:
        result = run_config(config, plan, "trace")
    finally:
        Runtime.kill = original
    return result, kills


class TestSecondEventInsideRepair:
    def test_delivered_to_the_repair_step_not_the_next_iteration(self):
        config = _config()
        clean, _ = probe_timeline(config)
        ckpt = clean.resolve("ckpt.L1.write", 1)
        first = TimedFault(time=ckpt.start + 0.05, rank=3)
        # where does the repair provoked by the first kill live?
        repaired, _ = probe_timeline(config, (first,))
        shrink = repaired.resolve("ulfm.shrink", 0)
        agree = repaired.resolve("ulfm.agree", 0)
        second = TimedFault(time=shrink.start + 0.1, rank=5)

        recorder = PhaseRecorder()
        plan = TimedFaultPlan(events=(first, second),
                              phase_hook=recorder)
        result, kills = _run_with_kill_trace(config, plan)

        assert result.verified  # structurally recovered, no hang
        killed = dict(kills)
        assert set(killed) == {3, 5}
        # the second kill must land inside the in-flight repair window
        # (between the survivors entering repair and agreement), not be
        # deferred past recovery to rank 5's next application iteration
        assert shrink.start <= killed[5] <= agree.end
        # both scheduled events actually fired, once each
        assert [entry[2] for entry in plan.fired_log] == [3, 5]

    def test_overshoot_clamps_forward_never_backwards(self):
        # a victim blocked in a long op overshoots the scheduled time;
        # the kill fires at its current clock (signal-between-
        # instructions), which must not move any clock backwards
        config = _config()
        clean, _ = probe_timeline(config)
        ckpt = clean.resolve("ckpt.L1.write", 0)
        plan = TimedFaultPlan(events=(
            TimedFault(time=ckpt.start + 0.01, rank=0),))
        result, kills = _run_with_kill_trace(config, plan)
        assert result.verified
        (rank, when), = kills[:1]
        assert rank == 0
        assert when >= ckpt.start + 0.01

    def test_distinct_placements_change_the_outcome(self):
        # mid-repair placement is a genuinely different experiment from
        # post-recovery placement: the makespans differ
        config = _config()
        clean, _ = probe_timeline(config)
        ckpt = clean.resolve("ckpt.L1.write", 1)
        first = TimedFault(time=ckpt.start + 0.05, rank=3)
        repaired, _ = probe_timeline(config, (first,))
        spawn = repaired.resolve("ulfm.spawn", 0)
        read = repaired.resolve("ckpt.L1.read", 0)

        def makespan(second_time):
            plan = TimedFaultPlan(events=(
                first, TimedFault(time=second_time, rank=4)))
            result = run_config(config, plan, "placement")
            assert result.verified
            return result.breakdown.total_seconds

        mid_spawn = makespan(spawn.start + 0.5)
        post_recovery = makespan(read.end + 0.5)
        assert mid_spawn != pytest.approx(post_recovery)
