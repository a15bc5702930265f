"""Span wrappers around each layer's public entry points.

The benchmark changes nothing under ``src/``: for a traced run it
replaces layer functions with timed wrappers and puts the originals
back afterwards. A function imported by name into other modules (the
apps import their kernels with ``from .kernels.stencil import
apply_27pt``) is replaced in every ``repro`` module that holds it.

Generator entry points (simulated rank code such as ULFM
``survivor_repair`` or ``Fti.checkpoint``) run in slices between the
simulator's resumptions, so each slice is its own span: the time a rank
spends parked in the scheduler is not charged to the layer.
"""

from __future__ import annotations

import sys

#: spans kept as individual rows in the trace file (the rest are folded
#: into totals): a handful per unit, never one per kernel call
KEPT_SPANS = ("engine.exec", "simmpi.run", "recovery.ulfm",
              "recovery.reinit", "recovery.restart", "store.append",
              "store.load")


def _timed(recorder, name, fn):
    def wrapper(*args, **kwargs):
        recorder.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.close()

    wrapper.__wrapped__ = fn
    return wrapper


def _sliced(recorder, name, gen):
    """Drive ``gen`` like ``yield from`` would, timing each slice."""
    send, error = None, None
    while True:
        recorder.open(name)
        try:
            if error is not None:
                item = gen.throw(error)
            else:
                item = gen.send(send)
        except StopIteration as stop:
            return stop.value
        finally:
            recorder.close()
        send, error = None, None
        try:
            send = yield item
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:  # delivered into the wrapped gen
            error = exc


def _timed_generator(recorder, name, fn):
    def wrapper(*args, **kwargs):
        return _sliced(recorder, name, fn(*args, **kwargs))

    wrapper.__wrapped__ = fn
    return wrapper


class Patcher:
    """Attribute replacements that :meth:`restore` undoes."""

    def __init__(self):
        self._undo: list = []

    def set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def everywhere(self, fn, wrapper) -> None:
        """Replace ``fn`` in every loaded ``repro`` module holding it."""
        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.set(module, attr, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def install(recorder, after_unit=None) -> Patcher:
    """Wrap every layer's entry points; returns the patcher to undo it.

    Spans opened while a unit runs carry its run key. ``after_unit``,
    if given, is called with the recorder when each unit ends (a worker
    process uses it to ship its totals home).
    """
    from repro.apps.kernels import _accel, cg, graph, sparse, stencil
    from repro.cluster.network import Network
    from repro.cluster.storage import ByteStore, ParallelFileSystem
    from repro.core import engine as engine_mod
    from repro.core.store import ResultStore
    from repro.fti.api import Fti
    from repro.fti.rs_encoding import ReedSolomonCode
    from repro.fti.serializer import ProtectedSet
    from repro.recovery.reinit import ReinitRecovery
    from repro.recovery.restart import RestartRecovery
    from repro.recovery.ulfm import UlfmRecovery
    from repro.simmpi.runtime import Runtime

    patch = Patcher()
    execute = engine_mod.execute_unit

    def execute_unit(unit):
        recorder.key = unit.key
        recorder.open("engine.exec")
        try:
            return execute(unit)
        finally:
            recorder.close()
            recorder.key = None
            if after_unit is not None:
                after_unit(recorder)

    patch.everywhere(execute, execute_unit)

    run = Runtime.run

    def runtime_run(self, *args, **kwargs):
        recorder.open("simmpi.run")
        try:
            return run(self, *args, **kwargs)
        finally:
            recorder.close()
            recorder.count("simmpi.steps", self.watchdog_steps)
            for name, value in self.stats.items():
                recorder.count("simmpi." + name, value)

    patch.set(Runtime, "run", runtime_run)

    for module, span, names in (
            (stencil, "apps.stencil",
             ("apply_27pt", "apply_7pt", "jacobi_smooth",
              "restrict_full_weight", "prolong_inject", "residual_norm")),
            (_accel, "apps.native", ("native_apply",)),
            (sparse, "apps.sparse", ("assemble_poisson_27pt", "rhs_for")),
            (graph, "apps.graph",
             ("planted_partition", "modularity", "louvain_sweep"))):
        for name in names:
            fn = getattr(module, name)
            patch.everywhere(fn, _timed(recorder, span, fn))
    patch.everywhere(cg.cg_step,
                     _timed_generator(recorder, "apps.cg", cg.cg_step))

    for name in ("checkpoint", "recover"):
        patch.set(Fti, name, _timed_generator(recorder, "fti.api",
                                              getattr(Fti, name)))
    serialize = ProtectedSet.serialize

    def protected_serialize(self):
        recorder.open("fti.serialize")
        try:
            blob = serialize(self)
        finally:
            recorder.close()
        recorder.count("fti.serialize_bytes", len(blob))
        return blob

    patch.set(ProtectedSet, "serialize", protected_serialize)
    for name in ("encode", "decode"):
        patch.set(ReedSolomonCode, name,
                  _timed(recorder, "fti.rs", getattr(ReedSolomonCode, name)))

    for name in ("survivor_repair", "shrinking_repair", "replacement_join"):
        patch.set(UlfmRecovery, name,
                  _timed_generator(recorder, "recovery.ulfm",
                                   getattr(UlfmRecovery, name)))
    patch.set(ReinitRecovery, "on_global_failure",
              _timed(recorder, "recovery.reinit",
                     ReinitRecovery.on_global_failure))
    patch.set(RestartRecovery, "on_abort",
              _timed(recorder, "recovery.restart", RestartRecovery.on_abort))

    for name, fn in list(vars(Network).items()):
        if name.endswith("_time") and callable(fn):
            patch.set(Network, name, _timed(recorder, "cluster.cost", fn))
    for owner, names in ((ByteStore, ("write", "read")),
                         (ParallelFileSystem,
                          ("write_shared", "read_shared"))):
        for name in names:
            patch.set(owner, name, _timed(recorder, "cluster.cost",
                                          getattr(owner, name)))

    patch.set(ResultStore, "append",
              _timed(recorder, "store.append", ResultStore.append))
    patch.set(ResultStore, "load_completed",
              _timed(recorder, "store.load", ResultStore.load_completed))
    return patch
