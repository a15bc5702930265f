"""Experiment configurations — the paper's Table I, §V-B defaults.

Default scaling size: 64 processes. Default input problem: small.
Checkpoints every ten iterations, FTI L1 to RAMFS, five repetitions
averaged. LULESH only runs on cube process counts (64, 512).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field, replace

from ..apps import APP_REGISTRY, LULESH_PROC_COUNTS
from ..errors import ConfigurationError
from ..faults.scenarios import FaultScenario, parse_scenario_spec
from ..fti.config import FtiConfig

#: the paper's evaluated designs (§V-B) — the canonical trio; custom
#: designs registered in the ``design`` registry are equally valid in
#: configs, they just are not part of the default matrices
DESIGN_NAMES = ("restart-fti", "reinit-fti", "ulfm-fti")

#: the evaluated scaling sizes, all on 32 nodes (§V-B)
SCALING_SIZES = (64, 128, 256, 512)

#: the evaluated input problem sizes
INPUT_SIZES = ("small", "medium", "large")

#: nodes in every experiment (§V-B: "on 32 nodes")
NNODES = 32

#: repetitions per configuration (§V-B: "five times ... average")
DEFAULT_REPETITIONS = 5


@dataclass(frozen=True)
class AppConfigRow:
    """One row of Table I."""

    app: str
    small: str
    medium: str
    large: str
    nprocs: tuple

    def cmdline(self, input_size: str) -> str:
        return {"small": self.small, "medium": self.medium,
                "large": self.large}[input_size]


#: Table I verbatim
TABLE1 = (
    AppConfigRow("amg", "-problem 2 -n 20 20 20", "-problem 2 -n 40 40 40",
                 "-problem 2 -n 60 60 60", (64, 128, 256, 512)),
    AppConfigRow("comd", "-nx 128 -ny 128 -nz 128", "-nx 256 -ny 256 -nz 256",
                 "-nx 512 -ny 512 -nz 512", (64, 128, 256, 512)),
    AppConfigRow("hpccg", "64 64 64", "128 128 128", "192 192 192",
                 (64, 128, 256, 512)),
    AppConfigRow("lulesh", "-s 30 -p", "-s 40 -p", "-s 50 -p", (64, 512)),
    AppConfigRow("minife", "-nx 20 -ny 20 -nz 20", "-nx 40 -ny 40 -nz 40",
                 "-nx 60 -ny 60 -nz 60", (64, 128, 256, 512)),
    AppConfigRow("minivite", "-p 3 -l -n 128000", "-p 3 -l -n 256000",
                 "-p 3 -l -n 512000", (64, 128, 256, 512)),
)

TABLE1_BY_APP = {row.app: row for row in TABLE1}


@dataclass(frozen=True)
class ExperimentConfig:
    """One cell of the paper's evaluation matrix.

    The failure regime is a first-class :class:`FaultScenario` in
    ``faults`` (default: no faults). It accepts a
    :class:`FaultScenario`, a serialized scenario dict, or a CLI spec
    string like ``"independent:3:node=1"``; the paper's single SIGTERM
    is ``faults="single"``.

    The checkpoint interval has one canonical home —
    ``fti.ckpt_stride`` — and ``interval`` is the config-level way to
    set it: an ``int`` overrides the stride, the string ``"auto"``
    resolves the Young/Daly-optimal stride for this config's scenario
    through the ``model`` registry (:mod:`repro.modeling`), and
    ``None`` (the default) keeps whatever ``fti`` says. After
    construction ``interval`` always equals ``fti.ckpt_stride``, and it
    never enters the run-key payload (the stride inside ``fti``
    already does), so the legacy implicit interval and an explicit
    ``interval=10`` produce bit-identical run keys.
    """

    app: str
    design: str
    nprocs: int = 64
    input_size: str = "small"
    seed: int = 0
    fti: FtiConfig = field(default_factory=FtiConfig)
    nnodes: int = NNODES
    faults: FaultScenario = None
    #: canonical checkpoint interval: None (keep ``fti.ckpt_stride``),
    #: an int stride, or ``"auto"`` (Young/Daly via the model registry);
    #: always an int equal to ``fti.ckpt_stride`` after construction
    interval: int | str | None = None

    def __post_init__(self):
        # registry lookups (not membership in the paper's tuples) so a
        # plugin-registered app or design is a first-class config value;
        # .resolve raises ConfigurationError naming the known entries
        APP_REGISTRY.resolve(self.app)
        from .designs import DESIGNS

        DESIGNS.resolve(self.design)
        if self.input_size not in INPUT_SIZES:
            raise ConfigurationError("unknown input size %r"
                                     % (self.input_size,))
        if self.nprocs < 2:
            raise ConfigurationError("need at least two processes")
        if self.app == "lulesh" and self.nprocs not in LULESH_PROC_COUNTS:
            raise ConfigurationError(
                "LULESH runs only on cube process counts %s"
                % (LULESH_PROC_COUNTS,))
        faults = self.faults
        if isinstance(faults, str):
            faults = parse_scenario_spec(faults)
        elif isinstance(faults, dict):
            faults = FaultScenario.from_dict(faults)
        if faults is None:
            faults = FaultScenario.none()
        elif not isinstance(faults, FaultScenario):
            raise ConfigurationError(
                "faults must be a FaultScenario, scenario dict or spec "
                "string (got %r)" % (faults,))
        object.__setattr__(self, "faults", faults)
        self._resolve_interval()

    def _resolve_interval(self) -> None:
        """Normalise ``interval`` into ``fti.ckpt_stride`` (see the
        class docstring): afterwards the two always agree, so the run
        key — which hashes only ``fti`` — is identical however the
        stride was spelled."""
        interval = self.interval
        if interval is None:
            object.__setattr__(self, "interval", self.fti.ckpt_stride)
            return
        if interval == "auto":
            from ..modeling.interval import auto_stride

            interval = auto_stride(self)
        elif isinstance(interval, bool) or not isinstance(interval, int):
            raise ConfigurationError(
                "interval must be None, an int stride or 'auto' "
                "(got %r)" % (interval,))
        if interval < 1:
            raise ConfigurationError("interval must be >= 1")
        default_stride = FtiConfig().ckpt_stride
        if self.fti.ckpt_stride not in (default_stride, interval):
            raise ConfigurationError(
                "interval=%d contradicts fti.ckpt_stride=%d; set the "
                "stride through one of the two" % (interval,
                                                   self.fti.ckpt_stride))
        object.__setattr__(self, "fti",
                           replace(self.fti, ckpt_stride=interval))
        object.__setattr__(self, "interval", interval)

    def with_seed(self, seed: int) -> "ExperimentConfig":
        return replace(self, seed=seed)

    def with_faults(self, faults) -> "ExperimentConfig":
        """A copy running under a different fault scenario."""
        return replace(self, faults=faults)

    def with_interval(self, interval) -> "ExperimentConfig":
        """A copy checkpointing at a different interval (int or
        ``"auto"``); the stride inside ``fti`` follows along.

        ``None`` is rejected rather than treated as "keep": the stride
        reset below would silently turn it into the default stride,
        and a caller plumbing an unset optional through here should
        hear about it."""
        if interval is None:
            raise ConfigurationError(
                "with_interval needs an int stride or 'auto' (to keep "
                "the current interval, keep the config)")
        return replace(
            self, interval=interval,
            fti=replace(self.fti, ckpt_stride=FtiConfig().ckpt_stride))

    def make_app(self):
        return APP_REGISTRY[self.app].from_input(self.nprocs,
                                                 self.input_size)

    def label(self) -> str:
        if not self.faults.injects:
            suffix = ""
        elif self.faults.kind == "single":
            suffix = "/fault"  # the legacy label, kept stable
        else:
            suffix = "/fault=%s" % self.faults.label()
        return "%s/%s/p%d/%s%s" % (
            self.app, self.design.upper(), self.nprocs, self.input_size,
            suffix)


#: bump when the run-key payload layout changes (invalidates old stores)
#: — schema 2: configs carry a canonical ``faults`` scenario. The
#: ``interval`` field deliberately did NOT bump it: the stride it sets
#: already lives in the payload as ``fti.ckpt_stride``, so the field is
#: dropped from the payload and schema-2 keys stay valid.
RUN_KEY_SCHEMA = 2


def config_to_dict(config: "ExperimentConfig") -> dict:
    """A JSON-safe dict capturing every field that affects a run.

    The inverse of :func:`config_from_dict`; the pair is how configs
    cross process boundaries (campaign workers) and land in result
    stores. ``interval`` is omitted: after construction it always
    equals ``fti.ckpt_stride`` (which *is* in the payload), so keeping
    it out makes the legacy implicit interval, ``interval=N`` and a
    resolved ``interval="auto"`` map to the same run keys — and legacy
    payloads without the key round-trip unchanged. ``inject_fault`` is
    added: the 1.x config field is gone, but schema-2 payloads (and so
    every stored run key) carry it as ``faults.injects``.
    """
    data = dataclasses.asdict(config)
    del data["interval"]
    data["inject_fault"] = config.faults.injects
    # route faults through its own to_dict: fields added to FaultScenario
    # after schema 2 serialize only when non-default, so legacy payloads
    # (and their run keys) stay byte-identical
    data["faults"] = config.faults.to_dict()
    return data


def config_from_dict(data: dict) -> "ExperimentConfig":
    """Rebuild an :class:`ExperimentConfig` from `config_to_dict` output.

    Also reads schema-1 payloads, which carry the legacy
    ``inject_fault`` bool and no ``faults``: the scenario is derived
    from the bool. When both are present they must agree.
    """
    data = dict(data)
    fti = data.pop("fti", None)
    inject_fault = data.pop("inject_fault", None)
    unknown = set(data) - {f.name for f in
                           dataclasses.fields(ExperimentConfig)}
    if unknown:
        raise ConfigurationError(
            "config dict has unknown fields %s" % sorted(unknown))
    if data.get("faults") is None and inject_fault:
        data["faults"] = FaultScenario.single()
    # `faults` may be a serialized dict; __post_init__ normalises it
    config = ExperimentConfig(
        fti=FtiConfig(**fti) if fti is not None else FtiConfig(), **data)
    if inject_fault is not None \
            and bool(inject_fault) != config.faults.injects:
        raise ConfigurationError(
            "inject_fault=%s contradicts the %r fault scenario; "
            "drop one of the two" % (inject_fault, config.faults.kind))
    return config


def run_key(config: "ExperimentConfig", rep: int) -> str:
    """Stable content key for one ``(config, repetition)`` run.

    A sha256 prefix over the canonical JSON of the config plus the
    repetition index. Independent of ``PYTHONHASHSEED``, process,
    platform and dict ordering, so a resumed or sharded sweep agrees
    with the sweep that wrote the store about which runs are done.
    """
    payload = {"schema": RUN_KEY_SCHEMA, "rep": int(rep),
               "config": config_to_dict(config)}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def campaign_matrix(apps, designs=DESIGN_NAMES, nprocs: int = 64,
                    input_size: str = "small", seed: int = 0,
                    nnodes: int = NNODES, faults=None, fti=None):
    """Fault-injection configs for a campaign sweep, in stable order.

    Enumeration order (apps outer, designs inner) is part of the shard
    contract: ``--shard K/N`` slices this ordering, so the same flags
    always produce the same shard membership. ``faults`` selects the
    scenario every cell runs under (scenario, dict or spec string;
    default: the paper's single kill); ``fti`` overrides the checkpoint
    policy (node-failure scenarios need ``FtiConfig(level=2)`` or
    higher to stay recoverable).
    """
    if faults is None:
        faults = FaultScenario.single()
    configs = []
    for app in apps:
        for design in designs:
            configs.append(ExperimentConfig(
                app=app, design=design, nprocs=nprocs,
                input_size=input_size, seed=seed, nnodes=nnodes,
                faults=faults, fti=fti if fti is not None else FtiConfig()))
    labels = [c.label() for c in configs]
    if len(set(labels)) != len(labels):
        raise ConfigurationError("campaign matrix has duplicate cells")
    return configs


def valid_proc_counts(app: str) -> tuple:
    """The scaling sizes Table I runs this app at."""
    return TABLE1_BY_APP[app].nprocs


def scaling_matrix(designs=DESIGN_NAMES, faults=None):
    """Every (app, design, nprocs) cell of Figures 5-7 (small input)."""
    cells = []
    for row in TABLE1:
        for nprocs in row.nprocs:
            for design in designs:
                cells.append(ExperimentConfig(
                    app=row.app, design=design, nprocs=nprocs,
                    input_size="small", faults=faults))
    return cells


def input_matrix(designs=DESIGN_NAMES, faults=None):
    """Every (app, design, input) cell of Figures 8-10 (64 processes)."""
    cells = []
    for row in TABLE1:
        for input_size in INPUT_SIZES:
            for design in designs:
                cells.append(ExperimentConfig(
                    app=row.app, design=design, nprocs=64,
                    input_size=input_size, faults=faults))
    return cells
