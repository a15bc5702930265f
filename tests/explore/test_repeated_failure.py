"""Repeated failure *during recovery*, across all three designs.

The adversarial case the paper's measurement harness never exercises:
a second fault landing while the first one's recovery is still in
flight. Each design must terminate structurally — recovered and
verified, or a typed error — in bounded steps, without tripping the
scheduler watchdog.
"""

from __future__ import annotations

import pytest

from repro.core.configs import ExperimentConfig
from repro.core.engine import RunUnit, execute_unit, run_config
from repro.explore.timeline import probe_timeline
from repro.faults.plans import TimedFault, TimedFaultPlan


class TestUlfmMidRepair:
    def test_fault_during_revoke_shrink_terminates(self):
        config = ExperimentConfig(
            app="hpccg", nprocs=8, design="ulfm-fti",
            faults="at-phase:ckpt.L1.write~1+0.05@r3;ulfm.shrink+0.1@r5")
        result = execute_unit(RunUnit(config, 0))
        assert result.verified
        assert result.recovery_episodes >= 1
        assert len(result.fault_events) == 2

    @pytest.mark.parametrize("second", [
        "ulfm.spawn+0.5@r4",   # dies while replacements spawn
        "ulfm.agree+0.01@r0",  # dies during agreement
        "ckpt.L1.read+0.05@r2",  # dies restoring the checkpoint
    ])
    def test_every_repair_phase_survives_a_second_kill(self, second):
        config = ExperimentConfig(
            app="hpccg", nprocs=8, design="ulfm-fti",
            faults="at-phase:ckpt.L1.write~1+0.05@r3;" + second)
        result = execute_unit(RunUnit(config, 0))
        assert result.verified
        assert result.recovery_episodes >= 1

    def test_fault_during_the_second_recovery_too(self):
        # the acceptance chain: fault -> fault during its repair ->
        # fault during *that* recovery; three events, still structural
        config = ExperimentConfig(
            app="hpccg", nprocs=8, design="ulfm-fti",
            faults="at-phase:ckpt.L1.write~1+0.05@r3;"
                   "ulfm.shrink+0.1@r5;ulfm.agree+0.01@r1")
        result = execute_unit(RunUnit(config, 0))
        assert result.verified
        assert result.recovery_episodes == 2
        assert len(result.fault_events) == 3

    def test_replay_is_bit_identical(self):
        config = ExperimentConfig(
            app="hpccg", nprocs=8, design="ulfm-fti",
            faults="at-phase:ckpt.L1.write~1+0.05@r3;ulfm.agree+0.01@r0")
        first = execute_unit(RunUnit(config, 0))
        second = execute_unit(RunUnit(config, 0))
        assert first.breakdown.total_seconds == second.breakdown.total_seconds
        assert first.fault_events == second.fault_events


class TestReinitMidRollback:
    def test_fault_during_global_rollback_terminates(self):
        config = ExperimentConfig(
            app="hpccg", nprocs=8, design="reinit-fti",
            faults="at-phase:ckpt.L1.write~1+0.05@r3;reinit.rollback+0.1@r5")
        result = execute_unit(RunUnit(config, 0))
        assert result.verified
        assert result.recovery_episodes >= 2  # the rollback itself re-fails

    def test_rollback_window_is_probeable(self):
        config = ExperimentConfig(app="hpccg", nprocs=8,
                                  design="reinit-fti", faults="none")
        clean, _ = probe_timeline(config)
        kill = TimedFault(
            time=clean.resolve("ckpt.L1.write", 1).start + 0.05, rank=3)
        probed, _ = probe_timeline(config, (kill,))
        window = probed.resolve("reinit.rollback", 0)
        assert window.ranks == (-1,)
        assert window.end > window.start


class TestRestartMidRedeploy:
    def test_fault_in_the_relaunched_incarnation_terminates(self):
        # no ranks exist during the redeploy itself, so the adversarial
        # equivalent is an epoch-1 event: kill the *relaunched* job
        # almost immediately, forcing a second abort + redeploy
        config = ExperimentConfig(app="hpccg", nprocs=8,
                                  design="restart-fti", faults="none")
        plan = TimedFaultPlan(events=(
            TimedFault(time=2.0, rank=3, epoch=0),
            TimedFault(time=0.5, rank=5, epoch=1),
        ))
        result = run_config(config, plan, "restart-twice")
        assert result.verified
        assert result.relaunches == 2
        assert result.recovery_episodes == 2

    def test_epoch_scoping_keeps_events_apart(self):
        # the epoch-1 event must NOT fire during the first incarnation
        # even though its time comes first
        config = ExperimentConfig(app="hpccg", nprocs=8,
                                  design="restart-fti", faults="none")
        plan = TimedFaultPlan(events=(
            TimedFault(time=2.0, rank=3, epoch=0),
            TimedFault(time=0.5, rank=5, epoch=1),
        ))
        run_config(config, plan, "epoch-order")
        epochs = [entry[0] for entry in plan.fired_log]
        assert epochs == sorted(epochs) == [0, 1]
