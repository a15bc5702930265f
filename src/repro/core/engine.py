"""Parallel, resumable, fault-tolerant campaign execution engine.

The paper's figures come from sweeping designs × apps × scales with
repeated random fault injections. This engine fans the individual
``(config, repetition)`` runs of such a sweep across worker processes
while keeping four guarantees:

* **Determinism** — each run derives its fault seed exactly as the
  serial harness does (:func:`repro.core.harness.make_fault_plan` with
  ``rep`` as the repetition index), and the simulator itself is
  deterministic, so a run's result is a pure function of its
  :class:`RunUnit`. Parallel, serial, sharded, resumed and *retried*
  sweeps are bit-identical.
* **Isolation** — every run executes in its own freshly-``spawn``-ed
  worker process, so no module-level state (caches, RNG, accelerator
  handles) leaks between runs or differs from a standalone serial run —
  and a crashing, hanging or OOM-killed run cannot take the campaign
  down with it.
* **Resumability** — with a :class:`~repro.core.store.ResultStore`
  attached, every completed run is flushed to disk immediately and a
  restarted sweep skips all content-keyed runs already present.
* **Failure containment** — the harness practices what the paper
  preaches. ``on_error`` picks the fail-soft policy (``abort`` re-raises
  on the first failure, today's historical behaviour; ``continue``
  records a structured failure record and finishes the sweep;
  ``retry:N`` is ``continue`` plus up to N retries), transient errors
  (dead worker, blown ``timeout`` deadline, store I/O) retry with capped
  exponential backoff while deterministic ones
  (:class:`~repro.errors.ConfigurationError`,
  :class:`~repro.errors.SimulationError`) never do, and SIGINT/SIGTERM
  drain in-flight results into the store before aborting so ``--resume``
  picks up cleanly.

Workers never ship exception objects across the process boundary —
exception classes with non-trivial ``__init__`` signatures can fail to
*unpickle* in the parent, crashing the pool far from the culprit unit —
only structured :class:`~repro.errors.ErrorRecord` payloads.

Sharding (``--shard K/N``) slices the deterministic unit ordering
round-robin (``units[K-1::N]``), so the N shards are disjoint and their
union is exactly the full matrix.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import signal
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from heapq import heappop, heappush
from multiprocessing import connection as mp_connection

from .breakdown import (
    RunResult,
    run_result_from_dict,
    run_result_to_dict,
    try_run_result_from_dict,
)
from .configs import (
    ExperimentConfig,
    config_from_dict,
    config_to_dict,
    run_key,
)
from .events import (
    CampaignAborted,
    CampaignFinished,
    CampaignStarted,
    UnitCompleted,
    UnitFailed,
    UnitRetrying,
    UnitSkipped,
    UnitStarted,
)
from .store import open_store
from ..obs.metrics import REGISTRY as OBS_REGISTRY
from ..errors import (
    WATCHDOG_ENV,
    ConfigurationError,
    CorruptResultError,
    ErrorRecord,
    UnitTimeoutError,
    WorkerLostError,
    describe_error,
    resurrect_error,
)

#: dispatcher poll granularity (seconds): deadline and signal checks
#: happen at least this often while workers are busy
DISPATCH_TICK = 0.1

#: how long a SIGINT/SIGTERM shutdown waits for in-flight results
#: before killing the stragglers
DRAIN_GRACE = 30.0

ON_ERROR_POLICIES = ("abort", "continue", "retry")

#: campaign-level instruments (metric catalog: docs/OBSERVABILITY.md).
#: Worker processes accumulate into their own fresh registry and ship
#: the deltas back through the result pipe (see ``_proc_worker``), so
#: these totals are campaign-wide even under the spawn pool.
_UNITS_TOTAL = OBS_REGISTRY.counter(
    "match_campaign_units_total",
    "Campaign units by outcome (completed/failed/skipped/retried)")
_QUEUE_DEPTH = OBS_REGISTRY.gauge(
    "match_campaign_queue_depth",
    "Units waiting for a worker slot (parallel dispatch only)")


def parse_on_error(policy):
    """``"abort" | "continue" | "retry[:N]"`` → ``(mode, retries)``.

    ``retry:N`` is sugar for ``continue`` with N transient retries per
    unit; bare ``retry`` means ``retry:1``.
    """
    if policy is None:
        return "abort", 0
    text = str(policy)
    name, _, count = text.partition(":")
    if name not in ON_ERROR_POLICIES or (count and name != "retry"):
        raise ConfigurationError(
            "--on-error must be abort, continue or retry:N (got %r)"
            % (policy,))
    if name != "retry":
        return name, 0
    try:
        retries = int(count) if count else 1
    except ValueError:
        retries = -1
    if retries < 1:
        raise ConfigurationError(
            "retry policy needs a positive count (got %r)" % (policy,))
    return "continue", retries


def import_plugins(modules) -> None:
    """Import self-registering extension modules by name.

    Registrations live in module state, so a plugin must be imported in
    every process that resolves registry names — the engine calls this
    in each spawned worker (and :class:`repro.api.Session` calls it in
    the driving process) with the campaign's ``plugins`` list.
    """
    import importlib

    for module in modules:
        try:
            importlib.import_module(module)
        except ImportError as exc:
            # chain the original failure: plugin authors need the real
            # ImportError (a missing transitive dep, a syntax error in
            # their module), not just its one-line summary
            raise ConfigurationError(
                "cannot import plugin module %r: %s" % (module, exc)) from exc


@dataclass(frozen=True)
class RunUnit:
    """One schedulable run: a configuration plus a repetition index."""

    config: ExperimentConfig
    rep: int

    @property
    def key(self) -> str:
        # memoised: engine + summarisation consult the key several times
        # per unit, and each computation canonicalises the whole config
        key = self.__dict__.get("_key")
        if key is None:
            key = run_key(self.config, self.rep)
            object.__setattr__(self, "_key", key)
        return key

    def describe(self) -> str:
        """The chaos/progress description: ``"<label>#rep<rep>"``."""
        return "%s#rep%d" % (self.config.label(), self.rep)


def campaign_units(configs, runs: int):
    """The full unit list of a sweep, in stable (config, rep) order."""
    if runs < 1:
        raise ConfigurationError("a sweep needs at least one run per cell")
    return [RunUnit(config, rep) for config in configs
            for rep in range(runs)]


def parse_shard(spec: str):
    """``"K/N"`` → ``(K, N)`` with 1 <= K <= N."""
    try:
        k_text, n_text = spec.split("/")
        k, n = int(k_text), int(n_text)
    except (ValueError, AttributeError):
        raise ConfigurationError(
            "shard spec must look like K/N (got %r)" % (spec,))
    if n < 1 or not 1 <= k <= n:
        raise ConfigurationError(
            "shard spec needs 1 <= K <= N (got %r)" % (spec,))
    return k, n


def shard_units(units, k: int, n: int):
    """Round-robin slice K of N over the stable unit ordering."""
    return list(units)[k - 1::n]


def run_config(config, plan, label: str, app=None) -> RunResult:
    """Run ``config``'s app under its design on a fresh cluster, with
    the given fault ``plan``; ``app`` defaults to a fresh
    ``config.make_app()``.

    The one build-and-run sequence behind :func:`execute_unit` and the
    explorer's probe runs.
    """
    from .designs import DESIGNS
    from .harness import build_cluster

    design = DESIGNS[config.design](build_cluster(config))
    if app is None:
        app = config.make_app()
    return design.run_job(app, config.fti, plan, label=label)


def execute_unit(unit: RunUnit) -> RunResult:
    """Run one unit exactly as the serial harness would.

    This is the single execution path: the serial loop, the pool
    workers, and :func:`repro.api.run_single` one-offs all come
    through here, which is what makes the parallel/serial equivalence
    a structural property instead of a test-only promise.
    """
    from .harness import make_fault_plan

    config = unit.config
    app = config.make_app()
    plan = make_fault_plan(config, app, unit.rep)
    # phase capture rides the plan's hook slot; consulting sys.modules
    # (not importing) keeps the untraced path at one dict lookup
    trace_mod = sys.modules.get("repro.obs.trace")
    if trace_mod is not None:
        trace_mod.attach_phase_hook(plan)
    return run_config(config, plan, config.label(), app=app)


def _observed_execute(unit: RunUnit, trace: bool, profile_dir, attempt: int):
    """``execute_unit`` plus telemetry capture.

    Returns ``(result, obs)`` where ``obs`` may carry ``phases`` (wire
    rows of the run's phase spans, virtual time). Both telemetry paths
    are strictly observational: the simulation result is bit-identical
    with them on, off, or profiled (the determinism pins enforce this).
    """
    if profile_dir:
        from ..obs.profiling import maybe_profile

        profiled = maybe_profile(profile_dir, unit.key, attempt)
    else:
        profiled = nullcontext()
    obs: dict = {}
    with profiled:
        if trace:
            from ..obs import trace as obs_trace

            with obs_trace.capture_phases() as recorder:
                result = execute_unit(unit)
            obs["phases"] = obs_trace.spans_to_wire(recorder)
        else:
            result = execute_unit(unit)
    return result, obs


def _proc_worker(payload: dict, conn) -> None:
    """Top-level (spawn-picklable) worker: payload in, a status-tagged
    message out through ``conn``.

    Exceptions are caught and shipped back as ``("error", record_dict)``
    — a structured, always-picklable description — never as exception
    objects, so an exception class with a non-trivial ``__init__`` can
    no longer crash the *parent* during unpickling. A worker that dies
    without sending anything (crash, OOM kill, chaos) is detected by the
    parent through the pipe's EOF.
    """
    try:
        # a terminal Ctrl-C signals the whole foreground process group;
        # ignoring it here lets the parent's graceful shutdown drain
        # this worker's (bounded) in-flight result instead of losing it
        try:
            signal.signal(signal.SIGINT, signal.SIG_IGN)
        except (ValueError, OSError):
            pass
        import_plugins(payload.get("plugins", ()))
        watchdog = payload.get("sim_watchdog")
        if watchdog:
            os.environ[WATCHDOG_ENV] = str(watchdog)
        config = config_from_dict(payload["config"])
        unit = RunUnit(config, payload["rep"])
        chaos = _load_chaos()
        if chaos is not None:
            chaos.fire(unit.describe())
        result, obs = _observed_execute(
            unit, payload.get("trace", False), payload.get("profile_dir"),
            payload.get("attempt", 1))
        outcome = run_result_to_dict(result)
        if chaos is not None:
            outcome = chaos.corrupt(unit.describe(), outcome)
        # this process dies after one unit (maxtasksperchild=1), so its
        # fresh registry's snapshot *is* the per-attempt metric delta;
        # shipping it on the result envelope is what keeps worker-side
        # counts (checkpoint writes/reads, plugin metrics) alive past
        # the spawn-pool boundary
        deltas = OBS_REGISTRY.snapshot()
        if deltas:
            obs["metrics"] = deltas
        conn.send(("ok", {"result": outcome, "obs": obs}))
    except Exception as exc:
        try:
            conn.send(("error", describe_error(exc).to_dict()))
        except (OSError, ValueError):
            pass  # parent already gone; EOF detection covers us
    finally:
        conn.close()


def _split_envelope(data):
    """Worker wire payload -> ``(result_dict, obs_dict)``.

    Our workers always send the ``{"result", "obs"}`` envelope; anything
    else (a chaos-mangled or foreign payload) flows through whole so the
    existing corrupt-result handling judges it.
    """
    if isinstance(data, dict) and "result" in data and "obs" in data:
        return data["result"], data["obs"]
    return data, {}


def _absorb_obs(obs):
    """Fold a worker attempt's telemetry deltas into this process.

    Returns the attempt's phase-span rows (for the UnitCompleted event).
    """
    if not obs:
        return ()
    metrics = obs.get("metrics")
    if metrics:
        OBS_REGISTRY.merge(metrics)
    return tuple(tuple(row) for row in obs.get("phases", ()))


def _load_chaos():
    """The ``$MATCH_CHAOS`` injector, or None (workers only)."""
    from .chaos import ChaosInjector

    return ChaosInjector.from_env()


@dataclass
class _InFlight:
    """One dispatched unit attempt and the process running it."""

    unit: RunUnit
    attempt: int
    process: object
    conn: object
    deadline: float | None = None
    outcome: tuple = field(default=None)

    def kill(self) -> None:
        try:
            if self.process.is_alive():
                self.process.terminate()
                self.process.join(2.0)
                if self.process.is_alive():
                    self.process.kill()
                    self.process.join(2.0)
        finally:
            self.conn.close()


class CampaignEngine:
    """Executes a list of :class:`RunUnit` with optional parallelism,
    shard selection, a resumable on-disk store, and a configurable
    failure policy.

    After :meth:`run`, :attr:`executed` / :attr:`skipped` say how many
    units were attempted versus satisfied from the store, and
    :attr:`failed` / :attr:`failures` describe the units whose failures
    were contained by ``on_error="continue"``.
    """

    def __init__(self, jobs: int = 1, store_path=None, resume: bool = False,
                 shard=None, plugins=(), on_error="abort", retries: int = 0,
                 timeout=None, sim_watchdog=None,
                 backoff_base: float = 0.5, backoff_cap: float = 30.0,
                 trace_phases: bool = False, profile_dir=None):
        if jobs < 1:
            raise ConfigurationError("--jobs must be >= 1")
        if resume and store_path is None:
            raise ConfigurationError(
                "--resume needs a result store (--store PATH) to resume "
                "from")
        self.jobs = jobs
        # store_path may be a path, a "backend:location" spec, or an
        # already-built store object (see repro.core.store.open_store)
        self.store = open_store(store_path)
        self.resume = resume
        self.plugins = tuple(plugins)
        mode, policy_retries = parse_on_error(on_error)
        self.on_error = mode
        if retries is None:
            retries = 0
        retries = int(retries)
        if retries < 0:
            raise ConfigurationError("--retries must be >= 0")
        self.retries = max(retries, policy_retries)
        if timeout is not None:
            timeout = float(timeout)
            if timeout <= 0:
                raise ConfigurationError("--timeout must be > 0 seconds")
        self.timeout = timeout
        if sim_watchdog is not None:
            sim_watchdog = int(sim_watchdog)
            if sim_watchdog < 1:
                raise ConfigurationError("--sim-watchdog must be >= 1")
        self.sim_watchdog = sim_watchdog
        if backoff_base <= 0 or backoff_cap < backoff_base:
            raise ConfigurationError(
                "backoff needs 0 < base <= cap (got %r, %r)"
                % (backoff_base, backoff_cap))
        self.backoff_base = float(backoff_base)
        self.backoff_cap = float(backoff_cap)
        if shard is None:
            self.shard = None
        else:
            # pre-parsed (K, N) pairs go through the same bounds check
            # as "K/N" strings — a 0-based index must raise, not
            # silently select the wrong slice
            if not isinstance(shard, str):
                try:
                    k, n = shard
                except (TypeError, ValueError):
                    raise ConfigurationError(
                        "shard must be a 'K/N' string or a (K, N) pair")
                shard = "%s/%s" % (k, n)
            self.shard = parse_shard(shard)
        self.trace_phases = bool(trace_phases)
        self.profile_dir = str(profile_dir) if profile_dir else None
        self.executed = 0
        self.skipped = 0
        self.failed = 0
        self.retried = 0
        #: run key -> ErrorRecord for units that failed for good
        self.failures: dict = {}
        self._interrupt_reason = None

    # -- internals ----------------------------------------------------------
    def _record(self, unit: RunUnit, result_dict: dict) -> None:
        if self.store is not None:
            self.store.append(unit.key, config_to_dict(unit.config),
                              unit.rep, result_dict)

    def _record_failure(self, unit: RunUnit, record: ErrorRecord) -> None:
        self.failed += 1
        self.failures[unit.key] = record
        if self.store is not None:
            # failure records are an optional backend capability: a
            # third-party store without the hook degrades to in-memory
            # failure tracking only
            append_failure = getattr(self.store, "append_failure", None)
            if append_failure is not None:
                append_failure(unit.key, config_to_dict(unit.config),
                               unit.rep, record.to_dict())

    def _retry_delay(self, record: ErrorRecord, attempt: int):
        """Backoff before the next attempt, or None for no retry.

        Only transient (harness-level) errors retry — deterministic
        simulation outcomes would fail identically — with capped
        exponential backoff: base, 2·base, 4·base, … up to cap.
        """
        if not record.transient or attempt > self.retries:
            return None
        return min(self.backoff_cap,
                   self.backoff_base * (2.0 ** (attempt - 1)))

    def _completed(self, units) -> dict:
        """Deserialized results for exactly the units this sweep needs.

        Records the sweep doesn't reference (other configs, old
        run-key schemas, foreign tools sharing the store) are never
        deserialized, so they cannot break a resume; a referenced
        record whose payload won't deserialize is treated as not-done
        and simply re-executed — runs are deterministic, so re-running
        is always safe. Failure records never count as done (the store
        skips them), so a fixed bug re-runs the failed units.
        """
        if self.store is None or not self.resume:
            return {}
        records = self.store.load_completed()
        done = {}
        for unit in units:
            record = records.get(unit.key)
            if record is None:
                continue
            result = try_run_result_from_dict(record["result"])
            if result is not None:
                done[unit.key] = result
        return done

    @contextmanager
    def _signal_guard(self, raise_immediately: bool):
        """Turn SIGINT/SIGTERM into a graceful shutdown request.

        Serial mode raises KeyboardInterrupt straight from the handler
        (the signal must preempt the in-process simulation); the
        parallel dispatch loop instead polls the recorded reason every
        tick — its workers are separate processes, and raising into an
        arbitrary frame (possibly the *consumer's*, mid-yield) would
        bypass the drain. Installed only around execution, and only in
        the main thread — elsewhere default handling applies.
        """
        self._interrupt_reason = None
        self._interrupt_count = 0

        def handler(signum, frame):
            self._interrupt_reason = signal.Signals(signum).name
            self._interrupt_count += 1
            if raise_immediately:
                raise KeyboardInterrupt

        previous = {}
        try:
            for sig in (signal.SIGINT, signal.SIGTERM):
                previous[sig] = signal.signal(sig, handler)
        except ValueError:
            previous = {}
        try:
            yield
        finally:
            for sig, old in previous.items():
                signal.signal(sig, old)

    @contextmanager
    def _watchdog_env(self):
        """Expose the per-run sim-event budget to in-process execution."""
        if self.sim_watchdog is None:
            yield
            return
        old = os.environ.get(WATCHDOG_ENV)
        os.environ[WATCHDOG_ENV] = str(self.sim_watchdog)
        try:
            yield
        finally:
            if old is None:
                os.environ.pop(WATCHDOG_ENV, None)
            else:
                os.environ[WATCHDOG_ENV] = old

    # -- driver -------------------------------------------------------------
    def stream(self, units):
        """Execute ``units`` (minus shard filter and resumed runs) as a
        generator of typed :mod:`repro.core.events`.

        This is the single execution driver; :meth:`run` is just a
        consumer that drains it. Failure semantics follow ``on_error``
        — see the module docstring and :class:`repro.core.events`.
        """
        units = list(units)
        if self.shard is not None:
            sharded = shard_units(units, *self.shard)
            if units and not sharded:
                # a mistyped shard must not let a CI job pass green
                # having run nothing
                raise ConfigurationError(
                    "shard %d/%d selects zero of the sweep's %d runs"
                    % (self.shard[0], self.shard[1], len(units)))
            units = sharded
        keys = [u.key for u in units]
        if len(set(keys)) != len(keys):
            raise ConfigurationError("duplicate run units in sweep")
        done = self._completed(units)
        pending = [u for u in units if u.key not in done]
        self.skipped = len(units) - len(pending)
        self.executed = len(pending)
        self.failed = 0
        self.retried = 0
        self.failures = {}
        total = len(units)
        yield CampaignStarted(total=total, pending=len(pending),
                              resumed=self.skipped, jobs=self.jobs)
        results = {}
        completed = 0
        for unit in units:
            if unit.key in done:
                results[unit.key] = done[unit.key]
                completed += 1
                _UNITS_TOTAL.inc(outcome="skipped")
                yield UnitSkipped(unit=unit, result=done[unit.key],
                                  completed=completed, total=total)
        serial = ((self.jobs == 1 or len(pending) <= 1)
                  and self.timeout is None)
        with self._signal_guard(raise_immediately=serial):
            if serial:
                driver = self._stream_serial(pending, results,
                                             completed, total)
            else:
                driver = self._stream_dispatch(pending, results,
                                               completed, total)
            for event in driver:
                if isinstance(event, (UnitCompleted, UnitSkipped)):
                    completed = event.completed
                # one counting site for both drivers (and the shutdown
                # drain): every unit event flows through this loop
                if isinstance(event, UnitCompleted):
                    _UNITS_TOTAL.inc(outcome="completed")
                elif isinstance(event, UnitFailed):
                    _UNITS_TOTAL.inc(outcome="failed")
                elif isinstance(event, UnitRetrying):
                    _UNITS_TOTAL.inc(outcome="retried")
                yield event
        yield CampaignFinished(results=results, executed=self.executed,
                               skipped=self.skipped, failed=self.failed,
                               failures=dict(self.failures))

    # -- serial in-process execution ----------------------------------------
    def _stream_serial(self, pending, results, completed, total):
        for unit in pending:
            yield UnitStarted(unit=unit, completed=completed, total=total)
            attempt = 1
            while True:
                try:
                    with self._watchdog_env():
                        result, obs = _observed_execute(
                            unit, self.trace_phases, self.profile_dir,
                            attempt)
                except KeyboardInterrupt:
                    # graceful shutdown: everything completed so far is
                    # already flushed (the store fsyncs per record), so
                    # --resume picks up exactly past it
                    yield CampaignAborted(
                        completed=completed, total=total,
                        reason=self._interrupt_reason or "interrupted")
                    raise
                except Exception as exc:
                    record = describe_error(exc)
                    delay = self._retry_delay(record, attempt)
                    if delay is not None:
                        self.retried += 1
                        yield UnitRetrying(unit=unit, error=record,
                                           attempt=attempt, delay=delay,
                                           completed=completed, total=total)
                        time.sleep(delay)
                        attempt += 1
                        continue
                    yield UnitFailed(unit=unit, error=record.summary(),
                                     record=record, attempt=attempt,
                                     completed=completed, total=total)
                    if self.on_error == "abort":
                        raise
                    self._record_failure(unit, record)
                    break
                self._record(unit, run_result_to_dict(result))
                results[unit.key] = result
                completed += 1
                yield UnitCompleted(unit=unit, result=result,
                                    completed=completed, total=total,
                                    phases=tuple(obs.get("phases", ())))
                break

    # -- parallel dispatch loop ---------------------------------------------
    def _payload(self, unit: RunUnit, attempt: int = 1) -> dict:
        payload = {"key": unit.key, "rep": unit.rep,
                   "config": config_to_dict(unit.config),
                   "plugins": list(self.plugins)}
        if self.sim_watchdog is not None:
            payload["sim_watchdog"] = self.sim_watchdog
        if self.trace_phases:
            payload["trace"] = True
        if self.profile_dir is not None:
            payload["profile_dir"] = self.profile_dir
            payload["attempt"] = attempt
        return payload

    def _launch(self, ctx, unit: RunUnit, attempt: int) -> _InFlight:
        recv_conn, send_conn = ctx.Pipe(duplex=False)
        process = ctx.Process(target=_proc_worker,
                              args=(self._payload(unit, attempt), send_conn))
        process.daemon = True
        process.start()
        send_conn.close()
        deadline = (time.monotonic() + self.timeout
                    if self.timeout is not None else None)
        return _InFlight(unit=unit, attempt=attempt, process=process,
                         conn=recv_conn, deadline=deadline)

    @staticmethod
    def _collect(flight: _InFlight) -> tuple:
        """``("ok", dict) | ("error", ErrorRecord)`` for a flight whose
        pipe signalled (result sent, or EOF from a dead worker)."""
        try:
            status, data = flight.conn.recv()
        except (EOFError, OSError):
            flight.process.join(5.0)
            code = flight.process.exitcode
            return ("error", describe_error(WorkerLostError(
                "worker process died without a result (exit code %s) "
                "while running %s" % (code, flight.unit.describe()))))
        finally:
            flight.conn.close()
        flight.process.join(5.0)
        if status == "error":
            return ("error", ErrorRecord.from_dict(data))
        return ("ok", data)

    def _expire(self, flight: _InFlight) -> tuple:
        """Kill a flight past its deadline; a timeout error outcome."""
        flight.kill()
        return ("error", describe_error(UnitTimeoutError(self.timeout)))

    def _stream_dispatch(self, pending, results, completed, total):
        """The async dispatch loop: at most ``jobs`` worker processes in
        flight, each watched for results, death and blown deadlines.

        Replaces the historical blind ``Pool.imap_unordered`` — which
        emitted every ``UnitStarted`` up front and blocked forever on a
        hung or OOM-killed worker — with per-unit processes (the
        ``maxtasksperchild=1`` isolation contract, kept) whose pipes
        double as both the result channel and the death detector.
        """
        ctx = multiprocessing.get_context("spawn")
        nworkers = min(self.jobs, max(1, len(pending)))
        queue = list((unit, 1) for unit in pending)
        queue.reverse()  # pop() from the tail preserves unit order
        retry_heap = []  # (ready_at, seq, unit, attempt)
        seq = itertools.count()
        in_flight = []
        abort_record = None
        interrupted = False
        try:
            while queue or retry_heap or in_flight:
                if self._interrupt_reason is not None:
                    interrupted = True
                if abort_record is not None or interrupted:
                    break
                now = time.monotonic()
                while retry_heap and retry_heap[0][0] <= now:
                    _, _, unit, attempt = heappop(retry_heap)
                    queue.append((unit, attempt))
                _QUEUE_DEPTH.set(len(queue) + len(retry_heap))
                while len(in_flight) < nworkers and queue:
                    unit, attempt = queue.pop()
                    in_flight.append(self._launch(ctx, unit, attempt))
                    if attempt == 1:
                        # started = actually dispatched, not merely
                        # queued: progress UIs see at most `jobs`
                        # in-flight units, in dispatch order
                        yield UnitStarted(unit=unit, completed=completed,
                                          total=total)
                if not in_flight:
                    # only backoff waits remain: sleep until the next
                    # retry matures (in ticks, to notice signals)
                    try:
                        wait = retry_heap[0][0] - time.monotonic()
                        time.sleep(min(max(wait, 0.0), DISPATCH_TICK))
                    except KeyboardInterrupt:
                        interrupted = True
                    continue
                wait_timeout = DISPATCH_TICK
                for flight in in_flight:
                    if flight.deadline is not None:
                        wait_timeout = min(wait_timeout,
                                           max(flight.deadline - now, 0.0))
                try:
                    ready = mp_connection.wait(
                        [f.conn for f in in_flight], timeout=wait_timeout)
                except KeyboardInterrupt:
                    interrupted = True
                    continue
                ready = set(ready)
                finished = []
                now = time.monotonic()
                for flight in in_flight:
                    if flight.conn in ready:
                        flight.outcome = self._collect(flight)
                        finished.append(flight)
                    elif flight.deadline is not None \
                            and now >= flight.deadline:
                        flight.outcome = self._expire(flight)
                        finished.append(flight)
                for flight in finished:
                    in_flight.remove(flight)
                    status, data = flight.outcome
                    if status == "ok":
                        result_dict, obs = _split_envelope(data)
                        phases = _absorb_obs(obs)
                        result = try_run_result_from_dict(result_dict)
                        if result is None:
                            status, data = "error", describe_error(
                                CorruptResultError(
                                    "worker returned an undecodable "
                                    "result payload for %s"
                                    % flight.unit.describe()))
                        else:
                            self._record(flight.unit, result_dict)
                            results[flight.unit.key] = result
                            completed += 1
                            yield UnitCompleted(unit=flight.unit,
                                                result=result,
                                                completed=completed,
                                                total=total,
                                                phases=phases)
                            continue
                    record = data
                    delay = self._retry_delay(record, flight.attempt)
                    if delay is not None:
                        self.retried += 1
                        yield UnitRetrying(unit=flight.unit, error=record,
                                           attempt=flight.attempt,
                                           delay=delay, completed=completed,
                                           total=total)
                        heappush(retry_heap,
                                 (time.monotonic() + delay, next(seq),
                                  flight.unit, flight.attempt + 1))
                        continue
                    yield UnitFailed(unit=flight.unit,
                                     error=record.summary(), record=record,
                                     attempt=flight.attempt,
                                     completed=completed, total=total)
                    if self.on_error == "abort":
                        abort_record = record
                        break
                    self._record_failure(flight.unit, record)
            if interrupted:
                # graceful shutdown: drain in-flight results into the
                # store (bounded), kill the stragglers, then surface the
                # interruption
                for event in self._drain(in_flight, results, completed,
                                         total):
                    if isinstance(event, UnitCompleted):
                        completed = event.completed
                    yield event
                yield CampaignAborted(
                    completed=completed, total=total,
                    reason=self._interrupt_reason or "interrupted")
                raise KeyboardInterrupt
        finally:
            _QUEUE_DEPTH.set(0)
            for flight in in_flight:
                flight.kill()
        if abort_record is not None:
            raise resurrect_error(abort_record)

    def _drain(self, in_flight, results, completed, total):
        """Wait (bounded) for in-flight workers, recording what lands."""
        grace = DRAIN_GRACE if self.timeout is None \
            else min(self.timeout, DRAIN_GRACE)
        deadline = time.monotonic() + grace
        signals_seen = self._interrupt_count
        while in_flight and time.monotonic() < deadline:
            if self._interrupt_count > signals_seen:
                break  # a second interrupt: stop waiting, kill them all
            try:
                ready = mp_connection.wait([f.conn for f in in_flight],
                                           timeout=DISPATCH_TICK)
            except KeyboardInterrupt:
                break
            for flight in list(in_flight):
                if flight.conn not in ready:
                    continue
                in_flight.remove(flight)
                status, data = self._collect(flight)
                if status == "ok":
                    result_dict, obs = _split_envelope(data)
                    phases = _absorb_obs(obs)
                    result = try_run_result_from_dict(result_dict)
                    if result is not None:
                        self._record(flight.unit, result_dict)
                        results[flight.unit.key] = result
                        completed += 1
                        yield UnitCompleted(unit=flight.unit, result=result,
                                            completed=completed, total=total,
                                            phases=phases)
                        continue
                if self.on_error != "abort":
                    record = data if isinstance(data, ErrorRecord) \
                        else describe_error(CorruptResultError(
                            "undecodable result payload during shutdown"))
                    self._record_failure(flight.unit, record)

    def run(self, units) -> dict:
        """Execute ``units``; returns ``{key: RunResult}`` for every
        selected unit (drains :meth:`stream`, discarding the events)."""
        results = {}
        for event in self.stream(units):
            if isinstance(event, CampaignFinished):
                results = event.results
        return results
