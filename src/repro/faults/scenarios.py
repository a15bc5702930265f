"""Fault scenarios: serializable specs that generate multi-event plans.

The paper (§IV-D) injects exactly one SIGTERM per run; real HPC failure
traces are multi-fault and temporally clustered, which is the regime the
heartbeat-ring detector we ship (Bosilca et al., IJHPCA 2018 — see
:mod:`repro.simmpi.failures`) was built for. A :class:`FaultScenario`
is the experiment-level description of *what class of failures* a run
faces; :meth:`FaultScenario.make_plan` turns it into a concrete,
deterministic :class:`~repro.faults.plans.FaultPlan` for one
``(config, repetition)`` run.

Scenario *kinds* are registry-driven: each is a :class:`ScenarioKind`
in the ``scenario`` :class:`repro.registry.Registry` (``SCENARIOS``),
which owns the kind's validation, label, spec grammar, hazard rate and
plan draw. A new failure regime is a self-registering class — no core
edits::

    from repro.faults.plans import FaultEvent
    from repro.faults.scenarios import SCENARIOS, ScenarioKind

    @SCENARIOS.register("stride")
    class StrideKind(ScenarioKind):
        spec_positional = "count"          # "stride:4" sets count=4
        uses = frozenset({"count", "min_iteration"})

        def draw(self, scenario, rng, nprocs, niters, nnodes):
            step = max(1, (niters - scenario.min_iteration)
                       // scenario.count)
            return [FaultEvent(rng.randrange(nprocs), i)
                    for i in range(scenario.min_iteration, niters, step)
                    ][:scenario.count]

Built-in kinds:

``none``
    No injection (the clean baseline).
``single``
    The paper's injection: one SIGTERM at a uniformly random
    ``(rank, iteration)``. Draws are bit-identical to the historical
    :meth:`FaultPlan.single_random` path, so every paper-era
    single-fault result is reproduced exactly.
``independent``
    ``count`` independent kills at distinct uniformly random
    ``(rank, iteration)`` coordinates; the first ``node_count`` of them
    fail the victim's whole node (surviving a node loss additionally
    requires FTI level >= 2, because the node's volatile storage — and
    thus any L1 checkpoints — is wiped).
``correlated``
    A spatially and temporally clustered burst of ``count`` whole-node
    failures: distinct victim nodes whose failure iterations all land
    within ``window`` iterations of a random anchor (the classic
    cascading-hardware-fault trace shape).
``poisson``
    A Poisson arrival process mapped onto main-loop iterations: kill
    arrivals with exponential inter-arrival times of mean
    ``mtbf_iters`` iterations, each hitting a uniformly random rank,
    until the run's iteration budget is exhausted. A draw may legally
    produce zero events (the job outlives its MTBF).

Scenarios are frozen, hashable and JSON-serializable (``to_dict`` /
``from_dict``), so they participate in canonical configs, run keys and
campaign result stores like every other config field. Custom kinds
reuse the same generic parameter fields (``count``, ``window``, ...)
so serialization and run keys need no per-kind code; a field the kind
does not list in :attr:`ScenarioKind.uses` must stay at its default
(silently accepting it would mint distinct run keys for identical
runs).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, fields

from .plans import FaultEvent, FaultPlan
from ..errors import ConfigurationError
from ..registry import Registry


class ScenarioKind:
    """Behaviour of one scenario kind (one ``scenario`` registry entry).

    Subclasses override :meth:`draw` (and usually :attr:`uses`,
    :attr:`spec_positional`, :meth:`label`); kinds with a bespoke draw
    procedure (``single``'s legacy-identical path) override
    :meth:`make_plan` wholesale.
    """

    #: whether runs under this kind inject any failures at all
    injects = True
    #: FaultScenario field the spec grammar's positional argument maps
    #: to (``"independent:3"`` -> ``count=3``); None = no positional
    spec_positional = None
    #: generic FaultScenario fields this kind consumes; any *other*
    #: field passed with a non-default value is rejected for run-key
    #: hygiene
    uses = frozenset()

    def validate(self, scenario: "FaultScenario") -> None:
        """Kind-specific checks beyond the generic bounds."""

    def label(self, scenario: "FaultScenario") -> str:
        """Compact human label used in config labels and reports."""
        return scenario.kind

    def rate(self, scenario: "FaultScenario", niters: int) -> float:
        """Hazard rate: expected fault events per main-loop iteration.

        The analytic models (:mod:`repro.modeling`) consume this instead
        of reaching into kind internals, so a custom kind only has to
        describe its own arrival process. The default covers every
        fixed-count kind: ``count`` events spread uniformly over the
        targetable ``[min_iteration, niters)`` window. Kinds with a true
        arrival process (``poisson``) override it; *deterministic* kinds
        (the phase-anchored schedules of :mod:`repro.explore`) override
        it to 0.0 — a fixed schedule is not a renewal process, so it
        contributes no memoryless hazard for ``interval="auto"`` to
        optimise against.
        """
        span = niters - scenario.min_iteration
        if span <= 0:
            raise ConfigurationError(
                "hazard rate needs niters > min_iteration")
        if not self.injects:
            return 0.0
        return scenario.count / span

    def expected_events(self, scenario: "FaultScenario",
                        niters: int) -> float:
        """Expected fault events over one whole run.

        Default: the hazard rate integrated over the targetable window —
        exact for every renewal-process kind. Kinds whose event count is
        fixed by construction (phase-anchored schedules) override this
        with the exact count, because their ``rate`` is legitimately
        zero yet their runs do inject.
        """
        return self.rate(scenario, niters) * (niters - scenario.min_iteration)

    def make_plan(self, scenario: "FaultScenario", nprocs: int,
                  niters: int, seed: int, nnodes: int) -> FaultPlan:
        """Default draw protocol: one seeded RNG, events sorted into
        the runtime's (iteration, rank) injection order."""
        rng = random.Random(seed)
        events = self.draw(scenario, rng, nprocs, niters, nnodes)
        return FaultPlan(events=tuple(
            sorted(events, key=lambda e: (e.iteration, e.rank))))

    def draw(self, scenario: "FaultScenario", rng: random.Random,
             nprocs: int, niters: int, nnodes: int) -> list:
        """Produce the kind's :class:`FaultEvent` list for one run."""
        raise NotImplementedError(
            "scenario kind %r must implement draw() or make_plan()"
            % (scenario.kind,))


#: the ``scenario`` registry: kind name -> ScenarioKind instance
SCENARIOS = Registry("scenario", instantiate=True, noun="scenario kind")

#: the built-in scenario kinds, in documentation order (the registry
#: may hold more once plugins are imported); the phase-anchored kinds
#: register from :mod:`repro.explore.kinds` at the bottom of this module
SCENARIO_KINDS = ("none", "single", "independent", "correlated", "poisson",
                  "at-phase", "worst-of")


#: FaultScenario fields serialized unconditionally: the exact field set
#: run-key schema 2 hashed. Fields added later serialize only when they
#: leave their default, keeping old run keys bit-identical.
_SCHEMA_FROZEN_FIELDS = frozenset(
    {"kind", "count", "node_count", "mtbf_iters", "window",
     "min_iteration"})


@dataclass(frozen=True)
class FaultScenario:
    """A serializable description of one run's failure regime."""

    kind: str = "none"
    #: number of kills (``independent``) / failed nodes (``correlated``)
    count: int = 1
    #: how many of an ``independent`` scenario's kills are node failures
    node_count: int = 0
    #: ``poisson``: mean iterations between kill arrivals
    mtbf_iters: float = 0.0
    #: ``correlated``: burst width in iterations (0 = ``niters // 8``)
    window: int = 0
    #: earliest iteration any event may target (the job always survives
    #: at least ``min_iteration`` iterations, matching the paper's loop)
    min_iteration: int = 1
    #: phase-anchored kinds (``at-phase``): the serialized
    #: :class:`repro.explore.schedule.FaultSchedule` spec, e.g.
    #: ``"ckpt.L1.write~1+0.5@r3;ulfm.shrink"`` (colon-free by design —
    #: the CLI scenario grammar splits on ``:``)
    schedule: str = ""

    def __post_init__(self):
        handler = SCENARIOS.resolve(self.kind)
        if self.count < 1:
            raise ConfigurationError("scenario count must be >= 1")
        if not 0 <= self.node_count <= self.count:
            raise ConfigurationError(
                "node_count must be between 0 and count")
        if self.min_iteration < 0:
            raise ConfigurationError("min_iteration must be >= 0")
        if self.window < 0:
            raise ConfigurationError("window must be >= 0")
        # a field the kind ignores must stay at its default: silently
        # accepting it would mint distinct run keys for identical runs
        for spec in fields(self):
            if spec.name == "kind" or spec.name in handler.uses:
                continue
            if getattr(self, spec.name) != spec.default:
                raise ConfigurationError(
                    "scenario field %r does not apply to the %r kind "
                    "(it must stay at its default, %r, so identical "
                    "runs share one run key)"
                    % (spec.name, self.kind, spec.default))
        handler.validate(self)

    # -- queries -----------------------------------------------------------
    @property
    def injects(self) -> bool:
        """Whether this scenario injects any failures at all."""
        return SCENARIOS.resolve(self.kind).injects

    def label(self) -> str:
        """Compact human label used in config labels and reports."""
        return SCENARIOS.resolve(self.kind).label(self)

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe dict; the canonical run-key form.

        Fields added after the run-key schema froze (anything not in
        :data:`_SCHEMA_FROZEN_FIELDS`) are omitted while at their
        defaults, so every pre-existing scenario keeps the exact payload
        — and therefore the exact run key — it always had.
        """
        data = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name not in _SCHEMA_FROZEN_FIELDS and value == f.default:
                continue
            data[f.name] = value
        return data

    @classmethod
    def from_dict(cls, data) -> "FaultScenario":
        if isinstance(data, cls):
            return data
        if not isinstance(data, dict):
            raise ConfigurationError(
                "scenario must be a dict or FaultScenario, got %r"
                % (data,))
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigurationError(
                "scenario dict has unknown fields %s" % sorted(unknown))
        return cls(**data)

    # -- constructors ------------------------------------------------------
    @classmethod
    def none(cls) -> "FaultScenario":
        return cls(kind="none")

    @classmethod
    def single(cls, min_iteration: int = 1) -> "FaultScenario":
        return cls(kind="single", min_iteration=min_iteration)

    @classmethod
    def independent(cls, count: int, node_count: int = 0,
                    min_iteration: int = 1) -> "FaultScenario":
        return cls(kind="independent", count=count, node_count=node_count,
                   min_iteration=min_iteration)

    @classmethod
    def correlated_nodes(cls, count: int, window: int = 0,
                         min_iteration: int = 1) -> "FaultScenario":
        return cls(kind="correlated", count=count, window=window,
                   min_iteration=min_iteration)

    @classmethod
    def poisson(cls, mtbf_iters: float,
                min_iteration: int = 1) -> "FaultScenario":
        return cls(kind="poisson", mtbf_iters=mtbf_iters,
                   min_iteration=min_iteration)

    # -- hazard ------------------------------------------------------------
    def rate(self, niters: int) -> float:
        """Expected fault events per main-loop iteration of a run of
        ``niters`` iterations (the kind's :meth:`ScenarioKind.rate`)."""
        return SCENARIOS.resolve(self.kind).rate(self, niters)

    def expected_events(self, niters: int) -> float:
        """Expected fault events over one whole run (the kind's
        :meth:`ScenarioKind.expected_events`; for renewal-process kinds
        this is the hazard rate integrated over the targetable window,
        for fixed-schedule kinds the exact event count)."""
        return SCENARIOS.resolve(self.kind).expected_events(self, niters)

    # -- plan generation ---------------------------------------------------
    def make_plan(self, nprocs: int, niters: int, seed: int,
                  nnodes: int = 1) -> FaultPlan:
        """Draw one concrete :class:`FaultPlan` for a run.

        ``seed`` is the fully derived per-repetition seed (the harness
        owns the ``config.seed``/``rep`` mixing); the same seed always
        produces the same plan. ``nnodes`` is needed to resolve node
        targets under the cluster's block placement.
        """
        handler = SCENARIOS.resolve(self.kind)
        if not handler.injects:
            return FaultPlan.none()
        if nprocs <= 0 or niters <= self.min_iteration:
            raise ConfigurationError(
                "need nprocs > 0 and niters > min_iteration")
        return handler.make_plan(self, nprocs, niters, seed, nnodes)

    @staticmethod
    def _placement(nprocs: int, nnodes: int) -> tuple:
        # the same arithmetic Cluster.place_job uses, so node draws
        # target the nodes the runtime actually kills
        from ..cluster.machine import block_placement

        return block_placement(nprocs, max(1, nnodes))


# -- built-in kinds ---------------------------------------------------------
@SCENARIOS.register("none")
class NoneKind(ScenarioKind):
    """No injection: the clean baseline (no field applies, not even
    ``min_iteration`` — it is meaningless without injection)."""

    injects = False

    def make_plan(self, scenario, nprocs, niters, seed, nnodes):
        return FaultPlan.none()


@SCENARIOS.register("single")
class SingleKind(ScenarioKind):
    """The paper's single SIGTERM; draws delegate to the historical
    :meth:`FaultPlan.single_random` path so every paper-era
    single-fault result stays bit-identical."""

    uses = frozenset({"min_iteration"})

    def label(self, scenario):
        return "single"

    def make_plan(self, scenario, nprocs, niters, seed, nnodes):
        return FaultPlan.single_random(
            nprocs, niters, seed, min_iteration=scenario.min_iteration)


@SCENARIOS.register("independent")
class IndependentKind(ScenarioKind):
    """``count`` independent kills at distinct coordinates; the first
    ``node_count`` of them take out the victim's whole node."""

    spec_positional = "count"
    uses = frozenset({"count", "node_count", "min_iteration"})

    def label(self, scenario):
        suffix = "+n%d" % scenario.node_count if scenario.node_count \
            else ""
        return "kx%d%s" % (scenario.count, suffix)

    # note: independent node-kind events pick a uniformly random victim
    # rank; only the correlated kind consults placement (to draw
    # *distinct* nodes), which is why it alone uses nnodes
    def draw(self, scenario, rng, nprocs, niters, nnodes):
        events = []
        taken = set()
        for i in range(scenario.count):
            for _ in range(64 * nprocs):
                rank = rng.randrange(nprocs)
                iteration = rng.randrange(scenario.min_iteration, niters)
                if (rank, iteration) not in taken:
                    break
            else:
                raise ConfigurationError(
                    "cannot draw %d distinct (rank, iteration) pairs "
                    "from a %dx%d space"
                    % (scenario.count, nprocs,
                       niters - scenario.min_iteration))
            taken.add((rank, iteration))
            kind = "node" if i < scenario.node_count else "process"
            events.append(FaultEvent(rank, iteration, kind=kind))
        return events


@SCENARIOS.register("correlated")
class CorrelatedKind(ScenarioKind):
    """A clustered burst of ``count`` whole-node failures within
    ``window`` iterations of a random anchor."""

    spec_positional = "count"
    uses = frozenset({"count", "window", "min_iteration"})

    def label(self, scenario):
        return "nodes%d" % scenario.count

    def draw(self, scenario, rng, nprocs, niters, nnodes):
        per_node, used_nodes = FaultScenario._placement(nprocs, nnodes)
        if scenario.count > used_nodes:
            raise ConfigurationError(
                "correlated scenario wants %d distinct nodes but the job "
                "only occupies %d" % (scenario.count, used_nodes))
        window = scenario.window or max(1, niters // 8)
        anchor = rng.randrange(scenario.min_iteration, niters)
        victims = rng.sample(range(used_nodes), scenario.count)
        events = []
        for node in victims:
            iteration = min(niters - 1, anchor + rng.randrange(window))
            # the node's first rank; the runtime expands a node-kind
            # event to every co-located rank and wipes the node storage
            events.append(FaultEvent(node * per_node, iteration,
                                     kind="node"))
        return events


@SCENARIOS.register("poisson")
class PoissonKind(ScenarioKind):
    """Exponential inter-arrival kills with mean ``mtbf_iters``."""

    spec_positional = "mtbf_iters"
    uses = frozenset({"mtbf_iters", "min_iteration"})

    def label(self, scenario):
        return "poisson%g" % scenario.mtbf_iters

    def validate(self, scenario):
        # the draw loop makes O(niters / mtbf) arrivals, so the MTBF
        # must be finite and not degenerate-small (0.01 iterations
        # already means ~100 kill arrivals per loop iteration)
        if not math.isfinite(scenario.mtbf_iters) \
                or scenario.mtbf_iters < 0.01:
            raise ConfigurationError(
                "poisson scenario needs a finite mtbf_iters >= 0.01")

    def rate(self, scenario, niters):
        # exact for the arrival process itself; the draw's collapse of
        # same-(rank, iteration) arrivals only bites when mtbf_iters
        # approaches 1/nprocs
        if niters <= scenario.min_iteration:
            raise ConfigurationError(
                "hazard rate needs niters > min_iteration")
        return 1.0 / scenario.mtbf_iters

    def draw(self, scenario, rng, nprocs, niters, nnodes):
        events = []
        taken = set()
        t = float(scenario.min_iteration)
        while True:
            t += rng.expovariate(1.0 / scenario.mtbf_iters)
            iteration = int(math.floor(t))
            if iteration >= niters:
                break
            rank = rng.randrange(nprocs)
            if (rank, iteration) in taken:
                continue  # arrivals collapse onto one kill per coordinate
            taken.add((rank, iteration))
            events.append(FaultEvent(rank, iteration))
        return events


# -- CLI spec grammar -------------------------------------------------------
#: per-field coercion applied to key=value spec options (custom kinds
#: reuse the same generic fields, so the grammar needs no per-kind code)
_FIELD_COERCIONS = {"count": int, "node_count": int, "window": int,
                    "min_iteration": int, "mtbf_iters": float,
                    "schedule": str}


def parse_scenario_spec(text: str) -> FaultScenario:
    """Parse a CLI scenario spec into a :class:`FaultScenario`.

    Grammar: ``kind[:arg][:key=value ...]`` where the optional positional
    ``arg`` is the kind's salient parameter (declared by the kind's
    :attr:`ScenarioKind.spec_positional`)::

        none | single
        independent:3            three independent process kills
        independent:3:node=1     ... one of them a whole-node failure
        correlated:2             burst of two node failures
        correlated:2:window=4    ... within four iterations of each other
        poisson:12               kill arrivals with MTBF of 12 iterations

    ``min_iteration=N`` is accepted by every kind. Registered plugin
    kinds parse with the same grammar.
    """
    parts = [p.strip() for p in str(text).split(":") if p.strip()]
    if not parts:
        raise ConfigurationError("empty fault scenario spec")
    kind = parts[0]
    handler = SCENARIOS.resolve(kind)
    kwargs = {"kind": kind}
    rest = parts[1:]
    if rest and "=" not in rest[0]:
        name = handler.spec_positional
        if name is None:
            raise ConfigurationError(
                "scenario kind %r takes no positional argument" % kind)
        kwargs[name] = rest[0]
        rest = rest[1:]
    aliases = {"node": "node_count", "nodes": "node_count",
               "mtbf": "mtbf_iters", "min_iter": "min_iteration"}
    for item in rest:
        if "=" not in item:
            raise ConfigurationError(
                "scenario spec options must look like key=value "
                "(got %r)" % item)
        key, value = item.split("=", 1)
        key = aliases.get(key, key)
        valid = {f.name for f in fields(FaultScenario)} - {"kind"}
        if key not in valid:
            raise ConfigurationError(
                "unknown scenario option %r (have %s)"
                % (key, sorted(valid)))
        if key in kwargs:
            raise ConfigurationError(
                "scenario option %r given twice (positional and "
                "key=value)" % key)
        kwargs[key] = value
    for key, coerce in _FIELD_COERCIONS.items():
        if key in kwargs:
            try:
                kwargs[key] = coerce(kwargs[key])
            except ValueError:
                raise ConfigurationError(
                    "scenario option %s needs %s (got %r)"
                    % (key, "an integer" if coerce is int else "a number",
                       kwargs[key]))
    return FaultScenario(**kwargs)


# The phase-anchored kinds ("at-phase", "worst-of") live with the rest of
# the exploration machinery but must register whenever this module loads:
# the registry's lazy import maps the "scenario" kind to *this* module, so
# a spec like ``at-phase:...`` resolves only if registration happens here.
from ..explore import kinds as _explore_kinds  # noqa: E402,F401
