"""The perf-regression microbenchmark suite.

Measures host wall-clock throughput of the simulator's hot paths and the
end-to-end experiment harness, and emits ``BENCH_perf.json`` so every
change has a perf trajectory to regress against::

    PYTHONPATH=src python benchmarks/perf/run_bench.py [--out PATH]

Series (all host wall-clock; simulated seconds are a separate,
determinism-checked contract):

* ``scheduler_steps_per_sec``        — dense round throughput, 512 ranks
* ``scheduler_sparse_steps_per_sec`` — 1 runnable rank among 512 blocked
  (the event-driven scheduler's O(active) case)
* ``p2p_match_per_sec``              — point-to-point match+complete rate
* ``p2p_any_source_per_sec``         — wildcard receives over many senders
* ``collective_per_sec``             — allreduce rendezvous rate, 256 ranks
* ``rs_encode_MB_per_sec``           — Reed-Solomon RS(8,8) encode
* ``rs_decode_MB_per_sec``           — RS decode, half the shards lost
* ``serializer_MB_per_sec``          — checkpoint blob serialize
* ``campaign_runs_per_sec``          — campaign-engine end-to-end run rate
* ``events_overhead_pct``            — telemetry tax on the campaign path
  (metrics registry enabled vs disabled; asserted <=1% in the harness)
* ``faults_scenario_runs_per_sec``   — multi-fault scenario run rate
  (scenario generation + multi-event plans + repeated node/process
  recovery under ULFM)
* ``worst_case_search_runs_per_sec`` — adversarial timing search probe
  rate (phase probe + schedule lowering + at-phase runs, repro.explore)
* ``advise_queries_per_sec``         — analytic design-advisor query rate
  (full design × level ranking per query, repro.modeling)
* ``advise_batch_queries_per_sec``   — vectorized batch-advisor rate on
  the same query stream (repro.service.vector.advise_batch)
* ``e2e_hpccg_makespan_sim_sec``     — simulated makespan (must not drift)
* ``e2e_hpccg_wallclock_sec``        — end-to-end wall-clock of that run

Environment knobs: ``MATCH_SCALES`` (last entry = end-to-end process
count, default 512), ``MATCH_APPS`` (first entry = end-to-end app,
default hpccg) — the same knobs the figure benchmarks honour, so CI can
run a small smoke (``MATCH_SCALES=64 MATCH_APPS=hpccg``).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.cluster.machine import Cluster  # noqa: E402
from repro.core.configs import ExperimentConfig  # noqa: E402
from repro.api import run_single  # noqa: E402
from repro.fti.rs_encoding import ReedSolomonCode, pad_to_equal_length  # noqa: E402
from repro.fti.serializer import ProtectedSet, ScalarRef  # noqa: E402
from repro.simmpi import ops  # noqa: E402
from repro.simmpi.runtime import Runtime  # noqa: E402


def _cluster(nprocs: int) -> Cluster:
    cluster = Cluster(nnodes=32)
    return cluster


def _run(nprocs: int, entry) -> tuple:
    """Build and drive a runtime; returns (runtime, wall seconds)."""
    runtime = Runtime(_cluster(nprocs), nprocs, entry)
    t0 = time.perf_counter()
    runtime.run()
    return runtime, time.perf_counter() - t0


# -- scheduler -------------------------------------------------------------
def bench_scheduler_dense(nprocs: int = 512, iters: int = 40) -> float:
    """Every rank runnable every round: steps/sec of the dense case."""
    def entry(mpi):
        for _ in range(iters):
            yield from mpi.compute(seconds=1e-6)

    _, wall = _run(nprocs, entry)
    return nprocs * iters / wall


def bench_scheduler_sparse(nprocs: int = 512, iters: int = 2000) -> float:
    """One active rank, everyone else blocked in a receive: the
    event-driven scheduler pays nothing for the blocked world."""
    def entry(mpi):
        if mpi.rank == 0:
            for _ in range(iters):
                yield from mpi.compute(seconds=1e-6)
            for peer in range(1, mpi.size):
                yield from mpi.send(peer, b"done", nbytes=8)
            return None
        yield from mpi.recv(0)
        return None

    _, wall = _run(nprocs, entry)
    return iters / wall


# -- matching --------------------------------------------------------------
def bench_p2p(nprocs: int = 64, rounds: int = 400) -> float:
    """Neighbour ping-pong: messages matched and completed per second."""
    def entry(mpi):
        peer = mpi.rank ^ 1
        if peer >= mpi.size:
            return None
        for i in range(rounds):
            if mpi.rank < peer:
                yield from mpi.send(peer, i, tag=i % 7, nbytes=64)
                yield from mpi.recv(peer, tag=i % 7)
            else:
                yield from mpi.recv(peer, tag=i % 7)
                yield from mpi.send(peer, i, tag=i % 7, nbytes=64)

    runtime, wall = _run(nprocs, entry)
    return runtime.stats["p2p_messages"] / wall


def bench_p2p_any_source(nsenders: int = 63, per_sender: int = 60) -> float:
    """Wildcard receives draining a deep unexpected queue."""
    nprocs = nsenders + 1

    def entry(mpi):
        if mpi.rank == 0:
            total = nsenders * per_sender
            for _ in range(total):
                yield from mpi.recv(None, tag=None)
            return None
        for i in range(per_sender):
            yield from mpi.send(0, i, tag=mpi.rank, nbytes=32)
        return None

    runtime, wall = _run(nprocs, entry)
    return runtime.stats["p2p_messages"] / wall


# -- collectives -----------------------------------------------------------
def bench_collectives(nprocs: int = 256, rounds: int = 30) -> float:
    def entry(mpi):
        total = 0.0
        for _ in range(rounds):
            total = yield from mpi.allreduce(1.0, op=ops.SUM, nbytes=8)
        return total

    runtime, wall = _run(nprocs, entry)
    return runtime.stats["collectives"] / wall


# -- Reed-Solomon ----------------------------------------------------------
def bench_rs(k: int = 8, shard_mb: float = 2.0) -> tuple:
    rng = np.random.default_rng(11)
    shard_len = int(shard_mb * 1e6)
    blobs = [rng.integers(0, 256, size=shard_len - 1 - i,
                          dtype=np.uint8).tobytes() for i in range(k)]
    padded, _ = pad_to_equal_length(blobs)
    code = ReedSolomonCode(k, k)
    data_mb = k * len(padded[0]) / 1e6

    t0 = time.perf_counter()
    parity = code.encode(padded)
    encode_rate = data_mb / (time.perf_counter() - t0)

    # lose every data shard of the first half of the group (worst case
    # short of unrecoverable): decode from mixed data/parity survivors
    shards = {i: padded[i] for i in range(k // 2, k)}
    shards.update({k + i: parity[i] for i in range(0, k // 2)})
    t0 = time.perf_counter()
    decoded = code.decode(shards, len(padded[0]))
    decode_rate = data_mb / (time.perf_counter() - t0)
    assert decoded[0] == padded[0], "RS decode produced wrong bytes"
    return encode_rate, decode_rate


# -- serializer ------------------------------------------------------------
def bench_serializer(cells: int = 32, cell_kb: int = 256,
                     reps: int = 20) -> float:
    rng = np.random.default_rng(7)
    pset = ProtectedSet()
    pset.protect(0, ScalarRef(3), "iteration")
    for i in range(cells):
        pset.protect(i + 1, rng.random(cell_kb * 128), "cell%d" % i)
    blob = pset.serialize()
    t0 = time.perf_counter()
    for _ in range(reps):
        blob = pset.serialize()
    wall = time.perf_counter() - t0
    return len(blob) * reps / wall / 1e6


# -- campaign engine -------------------------------------------------------
def bench_campaign(runs: int = 6) -> float:
    """End-to-end campaign throughput (runs/s) through the engine's
    serial path: harness + design + store-free engine overhead on a
    small fault-injection matrix."""
    from repro.api import Campaign

    config = ExperimentConfig(app="minivite", design="reinit-fti",
                              nprocs=8, nnodes=4, faults="single")
    t0 = time.perf_counter()
    session = Campaign.from_configs([config]).reps(runs).run()
    [result] = session.campaigns().values()
    wall = time.perf_counter() - t0
    assert result.all_verified, "campaign bench runs must verify"
    return runs / wall


def bench_events_overhead(runs: int = 4, rounds: int = 3) -> float:
    """Telemetry overhead (%) on campaign throughput: the same sweep
    timed with the metrics registry enabled vs disabled, interleaved
    pairs, min-of-pair per side to shed scheduler noise. This series is
    informational in the regression gate (unit ``%`` classifies as
    unknown) — the hard ceiling is asserted *here*: enabling the
    registry may cost <=1% over the disabled path, or repro.obs broke
    its hot-path promise (one dict update behind one lock)."""
    from repro.api import Campaign
    from repro.obs.metrics import REGISTRY

    config = ExperimentConfig(app="minivite", design="reinit-fti",
                              nprocs=8, nnodes=4, faults="single")

    def timed(enabled: bool) -> float:
        REGISTRY.set_enabled(enabled)
        try:
            t0 = time.perf_counter()
            Campaign.from_configs([config]).reps(runs).run()
            return time.perf_counter() - t0
        finally:
            REGISTRY.set_enabled(True)

    timed(True)  # warm both code paths outside the clock
    overhead = None
    for _ in range(rounds):
        on = min(timed(True), timed(True))
        off = min(timed(False), timed(False))
        overhead = 100.0 * (on - off) / off
        if overhead <= 1.0:
            break  # a clean round beats averaging in a noisy one
    assert overhead is not None and overhead <= 1.0, \
        "metrics-enabled campaign path exceeds the 1%% overhead " \
        "budget (measured %.2f%%)" % overhead
    return max(0.0, overhead)


# -- fault scenarios -------------------------------------------------------
def bench_faults_scenario(runs: int = 6) -> float:
    """Multi-fault scenario throughput (runs/s): the scenario-generation
    + multi-event plan consultation + repeated-recovery path, so the
    perf gate covers the fault-scenario engine end to end."""
    from repro.api import Campaign
    from repro.fti.config import FtiConfig

    config = ExperimentConfig(app="minivite", design="ulfm-fti",
                              nprocs=8, nnodes=4,
                              faults="independent:2:node=1",
                              fti=FtiConfig(level=2))
    t0 = time.perf_counter()
    session = Campaign.from_configs([config]).reps(runs).run()
    [result] = session.campaigns().values()
    wall = time.perf_counter() - t0
    assert result.all_verified, "scenario bench runs must verify"
    assert result.node_fault_count() == runs, \
        "every scenario bench run injects one node failure"
    return runs / wall


# -- worst-case timing search ----------------------------------------------
def bench_worst_case_search() -> float:
    """Adversarial search throughput (probe runs/s): one exhaustive
    `repro.explore` sweep end to end — the fault-free phase probe,
    per-candidate schedule lowering and every at-phase probe run — so
    the perf gate covers the exploration engine's whole hot path."""
    from repro.explore.engine import _PROBE_CACHE, explore

    config = ExperimentConfig(app="hpccg", design="ulfm-fti",
                              nprocs=8, nnodes=4, faults="none")
    _PROBE_CACHE.clear()  # measure the probe too, not a warm cache
    t0 = time.perf_counter()
    outcome = explore(config, strategy="exhaustive")
    wall = time.perf_counter() - t0
    assert outcome.best > outcome.baseline, \
        "worst-case search bench must find a slowdown"
    return (outcome.probes + 1) / wall  # +1: the fault-free probe run


# -- design advisor --------------------------------------------------------
def bench_advise(queries: int = 200) -> float:
    """Advisor throughput (queries/s): each query prices and ranks the
    full designs × levels matrix for a workload/MTBF — the modeling hot
    path behind `match-bench advise` and ``interval="auto"``."""
    from repro.modeling.advisor import advise

    mtbfs = ("30m", "1h", "4h", "1d")
    advise("hpccg", 512, "4h")  # warm the registries outside the clock
    t0 = time.perf_counter()
    for i in range(queries):
        rows = advise("hpccg", 512, mtbfs[i % len(mtbfs)])
        assert rows, "advise produced no ranking"
    return queries / (time.perf_counter() - t0)


def bench_advise_batch(queries: int = 20000) -> float:
    """Vectorized advisor throughput (queries/s): the same query stream
    as ``bench_advise`` — hpccg@512 cycling four MTBFs — answered in one
    ``repro.service.vector.advise_batch`` call, so the two series stay
    directly comparable. Query objects are pre-built outside the clock
    (a service parses requests once, then advises many times)."""
    from repro.modeling.advisor import advise
    from repro.service.query import AdviceQuery
    from repro.service.vector import advise_batch

    mtbfs = ("30m", "1h", "4h", "1d")
    stream = [AdviceQuery.make("hpccg", 512, mtbfs[i % len(mtbfs)])
              for i in range(queries)]
    advise_batch(stream[: len(mtbfs)])  # warm registries outside the clock
    t0 = time.perf_counter()
    answers = advise_batch(stream)
    rate = queries / (time.perf_counter() - t0)
    assert len(answers) == queries, "advise_batch dropped answers"
    for i, mtbf in enumerate(mtbfs):  # parity with the scalar path
        assert answers[i] == advise("hpccg", 512, mtbf)[0], \
            "advise_batch diverged from scalar advise"
    return rate


# -- end to end ------------------------------------------------------------
def e2e_scale() -> int:
    raw = os.environ.get("MATCH_SCALES", "512")
    return int(raw.split(",")[-1])


def e2e_app() -> str:
    raw = os.environ.get("MATCH_APPS", "hpccg")
    return raw.split(",")[0]


def bench_end_to_end() -> tuple:
    config = ExperimentConfig(app=e2e_app(), design="restart-fti",
                              nprocs=e2e_scale(), faults="none")
    t0 = time.perf_counter()
    result = run_single(config)
    wall = time.perf_counter() - t0
    return result.breakdown.total_seconds, wall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_perf.json"))
    args = parser.parse_args(argv)

    series = {}

    def record(name, value, unit):
        series[name] = {"value": round(float(value), 6), "unit": unit}
        print("%-34s %14.3f %s" % (name, value, unit))

    record("scheduler_steps_per_sec", bench_scheduler_dense(), "steps/s")
    record("scheduler_sparse_steps_per_sec", bench_scheduler_sparse(),
           "steps/s")
    record("p2p_match_per_sec", bench_p2p(), "msgs/s")
    record("p2p_any_source_per_sec", bench_p2p_any_source(), "msgs/s")
    record("collective_per_sec", bench_collectives(), "collectives/s")
    encode_rate, decode_rate = bench_rs()
    record("rs_encode_MB_per_sec", encode_rate, "MB/s")
    record("rs_decode_MB_per_sec", decode_rate, "MB/s")
    record("serializer_MB_per_sec", bench_serializer(), "MB/s")
    record("campaign_runs_per_sec", bench_campaign(), "runs/s")
    record("events_overhead_pct", bench_events_overhead(), "%")
    record("faults_scenario_runs_per_sec", bench_faults_scenario(),
           "runs/s")
    record("worst_case_search_runs_per_sec", bench_worst_case_search(),
           "runs/s")
    record("advise_queries_per_sec", bench_advise(), "queries/s")
    record("advise_batch_queries_per_sec", bench_advise_batch(),
           "queries/s")
    makespan, wall = bench_end_to_end()
    record("e2e_%s_makespan_sim_sec" % e2e_app(), makespan, "sim s")
    record("e2e_%s_wallclock_sec" % e2e_app(), wall, "s")

    payload = {
        "suite": "match-perf",
        "nprocs_end_to_end": e2e_scale(),
        "app_end_to_end": e2e_app(),
        "series": series,
    }
    out = pathlib.Path(args.out)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print("wrote %s" % out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
