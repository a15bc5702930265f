"""The checked contract manifests: what the rules compare the tree to.

These are the *deliberate-decision records* behind the SCHEMA, EXC and
REG rules. Changing a contracted surface (the run-key payload, the
retryable-error taxonomy, a registry protocol) fails the lint until the
matching manifest here is updated in the same change — which is
exactly the review conversation the rules exist to force.
"""

from __future__ import annotations

from dataclasses import dataclass

# -- SCHEMA-RUN-KEY ----------------------------------------------------------
#: Per RUN_KEY_SCHEMA version: the exact run-key payload shape minted by
#: ``repro.core.configs.run_key``. ``top`` is the payload's literal key
#: set; ``config`` the keys of ``config_to_dict``'s output (dataclass
#: fields minus the deliberately-dropped ones, plus the literal keys it
#: adds). Adding a config field without bumping the schema *and* adding
#: a manifest entry — or bumping without changing the payload — is a
#: lint failure.
RUN_KEY_MANIFEST: dict[int, dict[str, tuple[str, ...]]] = {
    1: {
        "top": ("schema", "rep", "config"),
        "config": ("app", "design", "nprocs", "input_size",
                   "inject_fault", "seed", "fti", "nnodes"),
    },
    # schema 2 (PR 3): configs carry a canonical ``faults`` scenario.
    # PR 5's ``interval`` field deliberately did NOT bump it — the
    # field is dropped from the payload (the stride already lives in
    # fti.ckpt_stride), which the ``config`` tuple below records by
    # not listing it. 2.0 removed the legacy fault bool from the
    # dataclass; its key stays, added by config_to_dict as
    # ``faults.injects``.
    2: {
        "top": ("schema", "rep", "config"),
        "config": ("app", "design", "nprocs", "input_size",
                   "inject_fault", "seed", "fti", "nnodes", "faults"),
    },
}

# -- EXC-RETRY ---------------------------------------------------------------
#: The engine's retryable-error taxonomy (``repro.errors.TRANSIENT_ERRORS``)
#: — harness failures only, never simulation outcomes: retrying a
#: deterministic failure burns time to fail identically, and retrying a
#: *successful* run's transient infrastructure hiccups is what keeps
#: results bit-identical. Widening this tuple is a reliability-semantics
#: change and must touch this manifest too.
TRANSIENT_MANIFEST: tuple[str, ...] = ("WorkerLostError", "UnitTimeoutError",
                             "CorruptResultError", "OSError")

# -- DET-ENV -----------------------------------------------------------------
#: Environment variables library code may consult. Everything else read
#: from ``os.environ`` is hidden config: it changes behaviour without
#: entering the run key, so two "identical" runs can diverge.
#: The first two are usually referenced via their constants
#: (``repro.errors.WATCHDOG_ENV`` / ``repro.core.chaos.CHAOS_ENV``),
#: which DET-ENV equally accepts by name.
ENV_ALLOWLIST: frozenset[str] = frozenset({
    "MATCH_SIM_WATCHDOG",   # simulator step budget (WATCHDOG_ENV)
    "MATCH_CHAOS",          # chaos-injection spec (CHAOS_ENV)
    "REPRO_NO_NATIVE",      # force the numpy kernel fallback
    # telemetry defaults (repro.obs.env): sanctioned because they only
    # steer *observation* of a run — snapshot/trace output paths and the
    # metrics kill switch — never the run itself, so they cannot enter
    # the run key or perturb results.
    "MATCH_OBS",            # metrics snapshot path / "off" (OBS_ENV)
    "MATCH_TRACE",          # default trace output path (TRACE_ENV)
})

#: Names of module-level constants that hold allowlisted variables;
#: ``os.environ.get(WATCHDOG_ENV)`` is as sanctioned as the literal.
ENV_CONSTANT_NAMES: frozenset[str] = frozenset({
    "WATCHDOG_ENV", "CHAOS_ENV", "OBS_ENV", "TRACE_ENV"})

# -- DET-WALLCLOCK -----------------------------------------------------------
#: Subtrees where wall-clock reads are banned outright: the simulator,
#: checkpoint layer and fault drawing must be pure functions of
#: (config, seed) — any real-time dependence breaks replay and the
#: serial/parallel/resumed bit-identity contract. (The campaign engine
#: and service layers legitimately use monotonic clocks for timeouts
#: and latency stats; they are out of scope by construction.)
WALLCLOCK_DIRS: tuple[str, ...] = ("simmpi", "fti", "faults")
#: The deliberate *exception* subtrees, recorded so the boundary is a
#: decision and not an accident: all telemetry wall-clock reads live in
#: ``repro.obs`` (trace timestamps, latency histograms, progress ETA).
#: Nothing under WALLCLOCK_DIRS may import a clock — it reports *virtual*
#: sim time and lets repro.obs anchor it to the wall. Moving a clock
#: read out of ``obs`` into a banned subtree fails DET-WALLCLOCK; this
#: constant documents where it is supposed to go instead.
WALLCLOCK_SANCTIONED_DIRS: tuple[str, ...] = ("obs",)
#: Files on the run-key path held to the same standard wherever they live.
WALLCLOCK_FILES: tuple[str, ...] = ("configs.py",)
#: The banned calls (dotted-name suffix match, both import spellings).
WALLCLOCK_CALLS: frozenset[str] = frozenset({
    "time.time", "time.time_ns", "time.localtime", "time.ctime",
    "datetime.now", "datetime.datetime.now",
    "datetime.utcnow", "datetime.datetime.utcnow",
    "datetime.today", "datetime.datetime.today",
    "date.today", "datetime.date.today",
})

# -- DET-RANDOM --------------------------------------------------------------
#: ``random.X`` attributes that construct independent seeded generators
#: (allowed) rather than driving the hidden module-level RNG (banned).
RANDOM_ALLOWED: frozenset[str] = frozenset({"Random", "SystemRandom"})
#: ``np.random.X`` constructors of the modern seeded Generator API;
#: ``default_rng`` additionally requires an explicit seed argument.
NP_RANDOM_ALLOWED: frozenset[str] = frozenset({
    "default_rng", "Generator", "PCG64", "MT19937", "Philox",
    "SFC64", "SeedSequence", "BitGenerator",
})


# -- REG-PROTOCOL ------------------------------------------------------------
@dataclass(frozen=True)
class MethodSpec:
    """One required protocol method: the registrant must define it
    (directly or via a base class in the same module) accepting
    ``call_args`` positional arguments after self/cls."""

    name: str
    call_args: int


@dataclass(frozen=True)
class RegistryContract:
    """The statically-checkable protocol of one registry kind.

    ``required`` lists method groups: each group is a tuple of
    alternative :class:`MethodSpec` — defining *any* member satisfies
    the group (scenario kinds may ship ``draw`` or override
    ``make_plan`` wholesale). ``callable_args`` (non-None) means the
    registrant is a plain callable taking that many positional args
    (the renderer protocol).
    """

    kind: str
    required: tuple[tuple[MethodSpec, ...], ...] = ()
    callable_args: int | None = None


#: registry *variable name* (as it appears at the registration site)
#: -> contract. Keyed by name because the rule is static: it sees
#: ``@DESIGNS.register("x")``, not the registry object.
REGISTRY_CONTRACTS: dict[str, RegistryContract] = {
    "APP_REGISTRY": RegistryContract(
        kind="app",
        required=((MethodSpec("from_input", 2),),)),
    "DESIGNS": RegistryContract(
        kind="design",
        required=((MethodSpec("run_job", 3),),)),
    "SCENARIOS": RegistryContract(
        kind="scenario",
        required=((MethodSpec("draw", 5), MethodSpec("make_plan", 5)),)),
    "STORES": RegistryContract(
        kind="store",
        required=((MethodSpec("append", 4),),
                  (MethodSpec("load_completed", 0),))),
    "MODELS": RegistryContract(
        kind="model",
        required=((MethodSpec("iteration_seconds", 4),),
                  (MethodSpec("ckpt_write_seconds", 4),),
                  (MethodSpec("ckpt_read_seconds", 4),),
                  (MethodSpec("recovery_seconds", 3),))),
    "RENDERERS": RegistryContract(kind="renderer", callable_args=1),
    "LINT_RULES": RegistryContract(kind="lint-rule", required=()),
    "STRATEGIES": RegistryContract(
        kind="strategy",
        required=((MethodSpec("run", 1),),)),
}

#: ``@register("kind", ...)`` top-level form: kind literal -> contract
REGISTRY_CONTRACTS_BY_KIND: dict[str, RegistryContract] = {
    contract.kind: contract for contract in REGISTRY_CONTRACTS.values()
}

# -- EVT-EXPORT --------------------------------------------------------------
#: the facade module and document every public event class must reach
EVT_FACADE_SUFFIX = "api.py"
EVT_DOC_RELPATH = "docs/API.md"
