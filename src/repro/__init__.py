"""MATCH: an MPI fault tolerance benchmark suite — Python reproduction.

Reproduces Guo et al., *MATCH: An MPI Fault Tolerance Benchmark Suite*
(IISWC 2020) on a fully simulated HPC substrate: a deterministic MPI
runtime, an FTI-style multi-level checkpoint library, ULFM / Reinit /
Restart recovery, six proxy applications and the paper's complete
evaluation harness.

Quickstart — build a campaign fluently, execute it streaming::

    from repro import Campaign

    session = (Campaign()
               .apps("hpccg")
               .designs("reinit-fti", "ulfm-fti")
               .nprocs(64)
               .faults("single")
               .reps(5)
               .session())
    for event in session.stream():
        print(event)                       # live typed progress events
    for label, summary in session.campaigns().items():
        print(summary.report())

One-off runs stay one-liners::

    from repro import Campaign, ExperimentConfig
    from repro.api import run_single

    cfg = ExperimentConfig(app="hpccg", design="reinit-fti", nprocs=64,
                           input_size="small", faults="single")
    print(run_single(cfg).breakdown)

Extension points (apps, recovery designs, fault-scenario kinds, result
stores, report renderers) are registries — see :mod:`repro.registry`
and docs/API.md for the recipe. The 1.x entry points were removed in
2.0; docs/API.md maps each to its facade replacement.

Top-level convenience names are loaded lazily (PEP 562) so that low-level
subpackages (``repro.simmpi``, ``repro.fti``, ...) can be imported without
pulling in the whole application stack.
"""

__version__ = "2.0.0"

_LAZY = {
    "Campaign": ("repro.api", "Campaign"),
    "Session": ("repro.api", "Session"),
    "ExperimentConfig": ("repro.core.configs", "ExperimentConfig"),
    "FaultScenario": ("repro.faults", "FaultScenario"),
    "TABLE1": ("repro.core.configs", "TABLE1"),
    "DESIGNS": ("repro.core.designs", "DESIGNS"),
    # NOTE: the registry() accessor is deliberately NOT aliased here —
    # the `repro.registry` submodule shadows any same-named package
    # attribute once imported, so the alias would unpredictably resolve
    # to the module. Use `from repro.registry import registry`.
    "register": ("repro.registry", "register"),
}

__all__ = sorted(_LAZY) + ["__version__"]


def __getattr__(name):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name)) from None
    import importlib

    module = importlib.import_module(module_name)
    return getattr(module, attr)


def __dir__():
    return __all__
