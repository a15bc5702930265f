"""ProgressGuard: livelock detection and hook forwarding."""

from __future__ import annotations

import pytest

from repro.errors import LivelockError, SimulationError
from repro.explore.guards import ProgressGuard
from repro.explore.timeline import PhaseRecorder


class TestGuardUnit:
    def test_repeated_revoke_without_progress_raises(self):
        guard = ProgressGuard(limit=3)
        for _ in range(3):
            guard.enter(0, "ulfm.revoke", 1.0)
        with pytest.raises(LivelockError) as err:
            guard.enter(0, "ulfm.revoke", 1.0)
        assert err.value.cycle == ("ulfm.revoke",)

    def test_iteration_resets_the_counts(self):
        guard = ProgressGuard(limit=3)
        for i in range(20):
            guard.enter(0, "ulfm.revoke", float(i))
            guard.iteration(0, i, float(i))  # progress between repairs

    def test_counts_are_per_rank(self):
        guard = ProgressGuard(limit=3)
        for rank in range(8):  # one repair wave: every survivor enters
            guard.enter(rank, "ulfm.revoke", 1.0)

    def test_global_spans_counted_across_epochs(self):
        guard = ProgressGuard(limit=3)
        for n in range(3):
            guard.span(-1, "restart.redeploy", float(n), float(n) + 1)
        with pytest.raises(LivelockError) as err:
            guard.span(-1, "restart.redeploy", 4.0, 5.0)
        assert err.value.cycle == ("restart.redeploy",)

    def test_error_names_stuck_iteration(self):
        guard = ProgressGuard(limit=1)
        guard.iteration(0, 17, 1.0)
        guard.enter(0, "ulfm.revoke", 2.0)
        with pytest.raises(LivelockError) as err:
            guard.enter(0, "ulfm.revoke", 3.0)
        assert err.value.iterations_stuck_at == 17
        assert "17" in str(err.value)

    def test_livelock_is_a_simulation_error(self):
        # SimulationError is deterministic: the engine must never
        # classify a livelock as transient and retry it
        assert issubclass(LivelockError, SimulationError)

    def test_forwards_to_inner_hook(self):
        inner = PhaseRecorder()
        guard = ProgressGuard(limit=8, inner=inner)
        guard.epoch(1)
        guard.enter(3, "ckpt.L1.write", 1.0)
        guard.exit(3, "ckpt.L1.write", 1.5)
        guard.iteration(3, 5, 1.6)
        guard.span(-1, "reinit.rollback", 2.0, 2.5)
        assert len(inner.spans) == 2
        assert inner.last_iteration == 5
        assert {s.epoch for s in inner.spans} == {1}


class TestGuardIntegration:
    def test_endless_kill_becomes_structured_livelock(self):
        """A plan that re-kills the victim after every respawn would
        historically burn the watchdog; the guard converts it into a
        LivelockError naming the repeating phase."""
        from repro.core.configs import ExperimentConfig
        from repro.core.engine import run_config
        from repro.faults.plans import TimedFault, TimedFaultPlan

        class EndlessKill(TimedFaultPlan):
            def due_event(self, rank, now):
                if rank == 3 and now > 4.7:
                    return TimedFault(time=now, rank=3)
                return None

        config = ExperimentConfig(app="hpccg", nprocs=8,
                                  design="ulfm-fti", faults="none")
        plan = EndlessKill(phase_hook=ProgressGuard(limit=6))
        with pytest.raises(LivelockError) as err:
            run_config(config, plan, "livelock")
        assert "ulfm.revoke" in err.value.cycle

    def test_error_record_resurrects(self):
        from repro.errors import describe_error, resurrect_error

        original = LivelockError(cycle=("ulfm.revoke",),
                                 iterations_stuck_at=20)
        record = describe_error(original)
        back = resurrect_error(record)
        assert isinstance(back, LivelockError)
        assert str(back) == str(original)
