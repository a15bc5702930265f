"""The experiment harness: run configurations, average repetitions.

The paper runs each configuration five times with a fresh random fault
location per run and reports the average (§V-B). Repetitions without
fault injection are deterministic in this simulator, so a single run is
exact; with faults, each repetition draws its (rank, iteration) from a
distinct seed.

Execution itself lives in :func:`repro.core.engine.execute_unit` — the
single run path shared with parallel/sharded campaigns — and callers
reach it through the :mod:`repro.api` facade (:func:`~repro.api.run_single`,
:func:`~repro.api.run_averaged`, :class:`~repro.api.Campaign`); this
module keeps the cluster, seed-derivation and averaging conventions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .breakdown import TimeBreakdown
from .configs import ExperimentConfig
from ..cluster.machine import Cluster
from ..faults.plans import FaultPlan


def build_cluster(config: ExperimentConfig) -> Cluster:
    """A fresh 32-node cluster (the paper's fixed node pool)."""
    return Cluster(nnodes=config.nnodes)


def make_fault_plan(config: ExperimentConfig, app, rep: int) -> FaultPlan:
    """Draw the repetition's fault plan from the config's scenario.

    The per-repetition seed derivation (``seed * 1000003 + rep * 101 +
    17``) predates scenarios and is shared by every kind, so the legacy
    single-kill scenario reproduces the paper-era draws bit-for-bit.

    Kinds whose lowering needs the *whole* config — phase-anchored
    schedules must probe a fault-free run of this exact configuration to
    locate their anchors — declare a ``lower_plan`` hook and get it
    instead of the context-free ``make_plan`` protocol.
    """
    from ..faults.scenarios import SCENARIOS

    seed = config.seed * 1000003 + rep * 101 + 17
    handler = SCENARIOS.resolve(config.faults.kind)
    lower = getattr(handler, "lower_plan", None)
    if lower is not None:
        return lower(config.faults, config, app, rep, seed)
    return config.faults.make_plan(
        nprocs=config.nprocs, niters=app.niters,
        seed=seed, nnodes=config.nnodes)


@dataclass
class AveragedResult:
    """Mean breakdown over repetitions plus per-rep detail."""

    config_label: str
    breakdown: TimeBreakdown
    repetitions: int
    runs: list = field(default_factory=list)

    @property
    def verified(self) -> bool:
        return all(r.verified for r in self.runs)

    @property
    def recovery_seconds(self) -> float:
        return self.breakdown.recovery_seconds
