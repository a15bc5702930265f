"""Multiple failures in one job: each design recovers repeatedly.

The paper injects a single failure per run; a benchmark suite meant as a
foundation for future designs (§V-E) must also survive repeated
failures, so this is covered as an extension.
"""

import pytest

from repro.apps import APP_REGISTRY
from repro.cluster import Cluster
from repro.core.designs import DESIGNS
from repro.faults import FaultEvent, FaultPlan
from repro.fti import FtiConfig

NPROCS = 8


def run_with_two_faults(design_name, first=5, second=11):
    app = APP_REGISTRY["hpccg"].from_input(NPROCS, "small")
    app.niters = 15
    design = DESIGNS[design_name](Cluster(nnodes=4))
    plan = FaultPlan(events=(FaultEvent(rank=1, iteration=first),
                             FaultEvent(rank=6, iteration=second)))
    return design.run_job(app, FtiConfig(ckpt_stride=3), plan,
                          label="two-faults")


@pytest.mark.parametrize("design_name", sorted(DESIGNS))
def test_two_failures_recovered(design_name):
    result = run_with_two_faults(design_name)
    assert result.verified
    assert result.recovery_episodes == 2
    assert result.breakdown.recovery_seconds > 0


def test_two_restarts_counted():
    result = run_with_two_faults("restart-fti")
    assert result.relaunches == 2


def test_two_reinit_rollbacks_counted():
    result = run_with_two_faults("reinit-fti")
    assert result.details["runtime_stats"]["reinit_rollbacks"] == 2


def test_two_ulfm_spawns_counted():
    result = run_with_two_faults("ulfm-fti")
    assert result.details["runtime_stats"]["spawns"] == 2


def test_back_to_back_failures_same_iteration_window():
    """Two failures within one checkpoint stride of each other."""
    for design_name in sorted(DESIGNS):
        result = run_with_two_faults(design_name, first=7, second=8)
        assert result.verified, design_name
        assert result.recovery_episodes == 2


def run_with_events(design_name, events, level=1, niters=15):
    app = APP_REGISTRY["hpccg"].from_input(NPROCS, "small")
    app.niters = niters
    design = DESIGNS[design_name](Cluster(nnodes=4))
    plan = FaultPlan(events=tuple(events))
    return design.run_job(app, FtiConfig(ckpt_stride=3, level=level),
                          plan, label="multi")


@pytest.mark.parametrize("design_name", sorted(DESIGNS))
def test_overlapping_failures_same_iteration(design_name):
    """Two ranks die in the SAME iteration: the second death lands while
    the first failure's recovery is already in flight, so one repair
    episode must absorb both victims."""
    result = run_with_events(design_name,
                             [FaultEvent(1, 5), FaultEvent(6, 5)])
    assert result.verified
    assert result.recovery_episodes == 1
    assert result.breakdown.recovery_seconds > 0


@pytest.mark.parametrize("design_name", sorted(DESIGNS))
def test_overlapping_node_and_process_failure(design_name):
    """A whole node dies in the same iteration as an unrelated process
    kill; FTI L2 partner copies keep every design recoverable."""
    result = run_with_events(
        design_name,
        [FaultEvent(2, 6, kind="node"), FaultEvent(7, 6)], level=2)
    assert result.verified
    assert result.recovery_episodes == 1


@pytest.mark.parametrize("design_name", sorted(DESIGNS))
def test_second_kill_during_recovery_window(design_name):
    """The second failure hits one iteration after the first, i.e.
    within the rollback-and-re-execute window of the first recovery."""
    result = run_with_events(design_name,
                             [FaultEvent(1, 5), FaultEvent(5, 6)])
    assert result.verified
    assert result.recovery_episodes == 2


@pytest.mark.parametrize("design_name", sorted(DESIGNS))
def test_node_scenario_needs_redundant_fti_level(design_name):
    """kind="node" events wipe the victim node's RAMFS, so L1-only
    checkpoints cannot recover — FTI level >= 2 is required."""
    from repro.errors import CheckpointError, NoCheckpointError

    events = [FaultEvent(2, 8, kind="node")]
    with pytest.raises((CheckpointError, NoCheckpointError)):
        run_with_events(design_name, events, level=1)
    result = run_with_events(design_name, events, level=2)
    assert result.verified


# -- scenario-driven acceptance runs ----------------------------------------
@pytest.mark.parametrize("design_name", sorted(DESIGNS))
def test_three_fault_scenario_with_node_failure_at_64_ranks(design_name):
    """ISSUE 3 acceptance: each design completes and verifies a 3-fault
    independent scenario including one whole-node failure at 64 ranks."""
    from repro.core.configs import ExperimentConfig
    from repro.api import run_single

    cfg = ExperimentConfig(app="hpccg", design=design_name, nprocs=64,
                           seed=5, faults="independent:3:node=1",
                           fti=FtiConfig(level=2))
    result = run_single(cfg)
    assert result.verified
    assert len(result.fault_events) == 3
    assert sum(1 for e in result.fault_events if e.kind == "node") == 1
    assert result.recovery_episodes >= 1


@pytest.mark.parametrize("design_name", sorted(DESIGNS))
def test_poisson_scenario_end_to_end(design_name):
    from repro.core.configs import ExperimentConfig
    from repro.api import run_single

    cfg = ExperimentConfig(app="minivite", design=design_name, nprocs=8,
                           nnodes=4, seed=4, faults="poisson:10")
    result = run_single(cfg)
    assert result.verified
