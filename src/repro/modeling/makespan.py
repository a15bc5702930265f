"""Expected-makespan prediction: E[T(design, level, interval, P, MTBF)].

Composes the per-design cost models (:mod:`repro.modeling.costs`) and
the interval analysis (:mod:`repro.modeling.interval`) into the quantity
the paper's figures plot — total execution time split into application
work, checkpoint writes, MPI recovery and rollback rework::

    E[T] = W + n_ckpt * C + N_f * (R + rework)

where ``W`` is the failure-free work (niters iterations at the modeled
per-iteration time, including the design's always-on overhead tax),
``n_ckpt`` the checkpoints the stride schedules, ``C`` the per-checkpoint
cost at the FTI level, ``N_f`` the expected failure count (the
scenario's expected events, or ``W/MTBF`` for a seconds-denominated
failure process), ``R`` the design's per-failure repair cost and
``rework`` the expected re-execution back to the last checkpoint
(half a stride of iterations, plus the checkpoint restore read).

The prediction is pure arithmetic — microseconds per cell — which is
what lets the advisor sweep MTBF × design × level × interval spaces the
simulator would take hours to cover. :mod:`repro.modeling.validate`
cross-checks it against simulated campaigns under an error budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .costs import resolve_model
from ..apps import APP_REGISTRY
from ..core.configs import NNODES
from ..errors import ConfigurationError
from ..fti.config import FtiConfig


@dataclass(frozen=True)
class MakespanPrediction:
    """One cell's predicted execution-time breakdown."""

    app: str
    design: str
    nprocs: int
    fti_level: int
    interval: int
    #: failure-free application seconds (includes the design's tax)
    app_seconds: float
    #: total checkpoint-write seconds across the run
    ckpt_write_seconds: float
    #: total MPI repair seconds (expected_failures × per-failure cost)
    recovery_seconds: float
    #: expected rollback re-execution seconds
    rework_seconds: float
    #: expected number of fault events over the run
    expected_failures: float
    total_seconds: float

    @property
    def efficiency(self) -> float:
        """Fraction of the makespan doing application work."""
        if self.total_seconds <= 0:
            return 0.0
        return self.app_seconds / self.total_seconds

    def as_dict(self) -> dict:
        return {
            "app": self.app, "design": self.design, "nprocs": self.nprocs,
            "fti_level": self.fti_level, "interval": self.interval,
            "app_seconds": self.app_seconds,
            "ckpt_write_seconds": self.ckpt_write_seconds,
            "recovery_seconds": self.recovery_seconds,
            "rework_seconds": self.rework_seconds,
            "expected_failures": self.expected_failures,
            "total_seconds": self.total_seconds,
            "efficiency": self.efficiency,
        }

    def __str__(self):
        return ("E[T]=%.2fs app=%.2fs ckpt=%.2fs recovery=%.2fs "
                "rework=%.2fs (%.1f%% efficient, %.2f failures)"
                % (self.total_seconds, self.app_seconds,
                   self.ckpt_write_seconds, self.recovery_seconds,
                   self.rework_seconds, 100.0 * self.efficiency,
                   self.expected_failures))

    @classmethod
    def from_dict(cls, data: dict) -> "MakespanPrediction":
        """Inverse of :meth:`as_dict` (the derived ``efficiency`` entry
        is recomputed, not read). JSON round-trips exactly: Python's
        ``json`` serializes floats via ``repr``, which is lossless for
        doubles, so ``from_dict(json.loads(json.dumps(p.as_dict())))``
        equals ``p`` field-for-field."""
        try:
            return cls(
                app=data["app"], design=data["design"],
                nprocs=int(data["nprocs"]),
                fti_level=int(data["fti_level"]),
                interval=int(data["interval"]),
                app_seconds=float(data["app_seconds"]),
                ckpt_write_seconds=float(data["ckpt_write_seconds"]),
                recovery_seconds=float(data["recovery_seconds"]),
                rework_seconds=float(data["rework_seconds"]),
                expected_failures=float(data["expected_failures"]),
                total_seconds=float(data["total_seconds"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                "malformed makespan-prediction dict: %s" % (exc,)) \
                from exc


def predict_cell(*, app: str, design: str, nprocs: int = 64,
                 input_size: str = "small", nnodes: int = NNODES,
                 level: int = 1, stride: int = 10,
                 mtbf_seconds: float = math.inf,
                 expected_failures: float | None = None,
                 model="analytic", app_obj=None, iter_seconds=None,
                 ckpt_cost=None) -> MakespanPrediction:
    """Predict one (app, design, level, stride) cell.

    ``expected_failures`` pins the failure count directly (the fixed
    per-run regimes: single, independent:K); otherwise it is derived
    from ``mtbf_seconds`` against the failure-free work time (Young/
    Daly's convention). Sweep callers that already priced the cell
    (the advisor derives the Daly stride from the same numbers) pass
    ``app_obj``/``iter_seconds``/``ckpt_cost`` to avoid re-pricing.
    """
    model = resolve_model(model)
    if app_obj is None:
        app_obj = APP_REGISTRY.resolve(app).from_input(nprocs, input_size)
    niters = app_obj.niters
    if not 1 <= stride <= niters:
        raise ConfigurationError(
            "stride must be in [1, %d] for %s (got %r)"
            % (niters, app, stride))
    if iter_seconds is None:
        iter_seconds = model.iteration_seconds(app_obj, design, nprocs,
                                               nnodes)
    work = niters * iter_seconds
    fti = FtiConfig(level=level, ckpt_stride=stride)
    nbytes = app_obj.nominal_ckpt_bytes()
    if ckpt_cost is None:
        ckpt_cost = model.ckpt_write_seconds(fti, nbytes, nprocs, nnodes,
                                             design=design)
    n_ckpt = (niters - 1) // stride
    if expected_failures is None:
        if mtbf_seconds <= 0:
            raise ConfigurationError("MTBF must be positive")
        expected_failures = (0.0 if math.isinf(mtbf_seconds)
                             else work / mtbf_seconds)
    elif expected_failures < 0:
        raise ConfigurationError("expected failures must be >= 0")
    repair = model.recovery_seconds(design, nprocs, nnodes) \
        if expected_failures > 0 else 0.0
    read = model.ckpt_read_seconds(fti, nbytes, nprocs, nnodes,
                                   design=design) \
        if expected_failures > 0 else 0.0
    # rollback rework: a failure lands uniformly within a checkpoint
    # segment, so on average half a stride of iterations (capped by the
    # run) is re-executed, and the restore read is paid once
    lost_iters = 0.5 * min(stride, niters)
    rework_per_failure = lost_iters * iter_seconds + read
    recovery_total = expected_failures * repair
    rework_total = expected_failures * rework_per_failure
    total = work + n_ckpt * ckpt_cost + recovery_total + rework_total
    return MakespanPrediction(
        app=app_obj.name, design=design, nprocs=nprocs, fti_level=level,
        interval=stride, app_seconds=work,
        ckpt_write_seconds=n_ckpt * ckpt_cost,
        recovery_seconds=recovery_total, rework_seconds=rework_total,
        expected_failures=expected_failures, total_seconds=total)


def predict(config, model="analytic") -> MakespanPrediction:
    """Predict one :class:`~repro.core.configs.ExperimentConfig` cell.

    The failure count comes from the config's own fault scenario via
    its :meth:`~repro.faults.scenarios.FaultScenario.expected_events`
    hook, and the checkpoint level/stride from its ``fti`` — i.e. this
    predicts exactly the run the simulator would execute, which is what
    :mod:`repro.modeling.validate` holds it accountable to.
    """
    app_obj = config.make_app()
    return predict_cell(
        app=config.app, design=config.design, nprocs=config.nprocs,
        input_size=config.input_size, nnodes=config.nnodes,
        level=config.fti.level, stride=min(config.fti.ckpt_stride,
                                           app_obj.niters),
        expected_failures=config.faults.expected_events(app_obj.niters)
        if config.faults.injects else 0.0,
        model=model, app_obj=app_obj)


def suggest_timeout(configs, slack: float = 5.0,
                    floor: float = 30.0) -> float:
    """A per-unit wall-clock timeout (seconds) for a sweep's configs.

    ``--timeout auto`` resolves through here: the slowest cell's
    predicted makespan, times a generous ``slack`` factor, floored at
    ``floor`` seconds. Predicted makespan is *simulated* seconds, but it
    scales with the work the scheduler must replay (iterations,
    failures, recoveries), so it is a usable proxy for relative harness
    wall-clock — the slack factor absorbs the absolute offset. The
    point of an auto timeout is catching *hung* workers (a wedged run
    sits forever, not 5× too long), so generous is correct: a timeout
    that occasionally kills a slow healthy run would break campaign
    completeness, while a generous one still converts every livelock
    into a contained, retryable :class:`~repro.errors.UnitTimeoutError`.
    """
    configs = list(configs)
    if not configs:
        return floor
    if slack <= 0:
        raise ConfigurationError("timeout slack must be > 0")
    worst = max(predict(config).total_seconds for config in configs)
    return max(float(floor), worst * float(slack))


__all__ = [
    "MakespanPrediction",
    "predict",
    "predict_cell",
    "suggest_timeout",
]
