"""The workload process: set up, print READY, measure, check, report.

``run.py`` starts this script (possibly several times, to sample
set-up time) with ``PYTHONPATH`` pointing at the checkout's ``src``.
Module level stays import-light: campaign workers are spawned
interpreters that re-import this file as their main module.

Usage (normally through run.py)::

    python3 perfbench/workloads.py --workload NAME --seed N \\
        --seconds S --trace 0|1 [--setup-only]
    python3 perfbench/workloads.py --prepare
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import platform
import random
import resource
import socket
import subprocess
import sys
import time
from urllib.parse import urlencode

from spans import (
    SpanRecorder,
    covered_seconds,
    median,
    merge_totals,
    tail_percentile,
)

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")
BUILD_DIR = ".bench_build"
#: written by the build step; run.py skips the build once it exists
PREPARED = os.path.join(BUILD_DIR, "prepared")
clock = time.perf_counter

#: fingerprints are recorded for workload seeds 0..SEED_POOL-1; a
#: benchmark seed maps onto that pool, so every run is checkable
SEED_POOL = 16
DESIGNS = ("restart-fti", "reinit-fti", "ulfm-fti")
STEP_COUNTING_BUDGET = 10 ** 15
SIM_WORKLOADS = ("scale512_nofail", "faults128_multi", "campaign_jobs2")
WORKLOADS = SIM_WORKLOADS + ("advisor_http",)

#: advisor workloads the server precomputes grids for; every query
#: targets one of them, so no grid is built while measuring
ADVISOR_WARM = ("hpccg:64", "hpccg:512", "minife:128", "minivite:256",
                "comd:64", "amg:256", "lulesh:512")
#: GET requests and /advise/batch posts per measured block; a block has
#: more GETs than the server's 1024-request latency window, so after a
#: traced block that window holds traced requests only
BLOCK_GETS = 1200
BLOCK_BATCHES = 5
BATCH_SIZE = 256
#: requests sent before READY (a batch among them)
WARMUP = 300
#: every VERIFY_EVERY-th GET (and the first answer of each batch) is
#: compared against the in-process advisor
VERIFY_EVERY = 150


def workload_seed(seed: int) -> int:
    return seed % SEED_POOL


def env_record() -> dict:
    """What a result must be stored with so environments never mix."""
    return {"REPRO_NO_NATIVE": os.environ.get("REPRO_NO_NATIVE", ""),
            "nproc": os.cpu_count(),
            "python": platform.python_version()}


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest of its waited-for
    children (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def fingerprint_digest(result) -> str:
    from repro.core.breakdown import result_fingerprint

    blob = json.dumps(result_fingerprint(result), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def result_ok(reference: dict, key: str, result) -> bool:
    """The run verified and its fingerprint equals the reference's
    exactly. A result that cannot be fingerprinted (a corrupted or
    foreign record) is a failed op, never an exception."""
    try:
        digest = fingerprint_digest(result)
    except (AttributeError, KeyError, TypeError, ValueError):
        return False
    return result.verified is True and reference.get(key) == digest


def load_reference() -> dict:
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)["fingerprints"]


def counter_total(snapshot: dict, name: str) -> float:
    family = snapshot.get(name, {})
    return sum(sample["value"] for sample in family.get("samples", ()))


# -- simulator workloads ----------------------------------------------------

def sim_campaigns(name: str, wseed: int, store_path: str) -> list:
    """The campaigns one pass of a simulator workload runs, in order."""
    from repro.api import Campaign
    from repro.core.configs import ExperimentConfig
    from repro.fti.config import FtiConfig

    if name == "scale512_nofail":
        return [Campaign().apps("hpccg").designs(*DESIGNS).nprocs(512)
                .faults("none").seed(wseed).reps(1).jobs(1)
                .on_error("continue")]
    if name == "faults128_multi":
        # faults are drawn from (seed, rep): under one seed every cell of
        # a rep would fail at the same moments, and the pass's rework
        # would swing with the seed; a seed per cell gives each of the
        # 12 units its own draw
        cells = [(app, design) for app in ("hpccg", "minife")
                 for design in DESIGNS]
        configs = [ExperimentConfig(
            app=app, design=design, nprocs=128,
            faults="independent:2:node=1", fti=FtiConfig(level=2),
            seed=wseed * len(cells) + index)
            for index, (app, design) in enumerate(cells)]
        return [Campaign.from_configs(configs).reps(2).jobs(1)
                .on_error("continue")]
    if name == "campaign_jobs2":
        fresh = (Campaign().apps("hpccg", "minivite").designs(*DESIGNS)
                 .nprocs(8).nnodes(4).faults("single").seed(wseed).reps(4)
                 .jobs(2).store(store_path).on_error("continue"))
        return [fresh, fresh.resume()]
    raise ValueError("not a simulator workload: %r" % (name,))


def warm_simulator(name: str) -> None:
    """Native kernels built and loaded, apps imported, and one
    throwaway unit per app of the workload run, all off the clock."""
    from repro.api import Campaign
    from repro.apps.kernels._accel import native_kernels

    native_kernels()
    apps = {"scale512_nofail": ("hpccg",),
            "faults128_multi": ("hpccg", "minife"),
            "campaign_jobs2": ("hpccg", "minivite")}[name]
    (Campaign().apps(*apps).designs("reinit-fti").nprocs(8)
     .faults("single").reps(1).jobs(1).run())


class SimPass:
    """What one pass over a simulator workload's matrix observed."""

    def __init__(self):
        self.wall = 0.0
        self.op_seconds: list = []
        self.windows: list = []
        self.checked: list = []
        self.attempted = 0
        self.failed = 0
        self.retries = 0
        self.episodes = 0
        self.relaunches = 0


def run_sim_pass(name, wseed, index, reference, recorder=None):
    """Run one pass; unit results are checked after the clock stops.

    With a ``recorder`` (traced pass) the runtime counts its steps and
    campaign workers load the tracing plugin."""
    from repro.core.events import (
        UnitCompleted,
        UnitFailed,
        UnitRetrying,
        UnitSkipped,
        UnitStarted,
    )

    store = os.path.join(BUILD_DIR, "stores",
                         "%d-%d.jsonl" % (os.getpid(), index))
    os.makedirs(os.path.dirname(store), exist_ok=True)
    if os.path.exists(store):
        os.remove(store)
    out = SimPass()
    started: dict = {}
    executed: list = []
    start = clock()
    for campaign in sim_campaigns(name, wseed, store):
        if recorder is not None:
            # the runtime counts scheduler steps only under a watchdog
            # budget; this one is never reached
            campaign = (campaign.sim_watchdog(STEP_COUNTING_BUDGET)
                        .plugins("perfbench_probe"))
        for event in campaign.session().stream():
            now = clock()
            if isinstance(event, UnitStarted):
                started[event.unit.key] = now
            elif isinstance(event, UnitCompleted):
                began = started.pop(event.unit.key)
                out.windows.append((began, now, event.unit.key))
                executed.append((event.unit, event.result))
            elif isinstance(event, UnitSkipped):
                out.checked.append((event.unit, event.result))
            elif isinstance(event, UnitFailed):
                started.pop(event.unit.key, None)
                out.attempted += 1
                out.failed += 1
            elif isinstance(event, UnitRetrying):
                out.retries += 1
    out.wall = clock() - start
    if os.path.exists(store):
        os.remove(store)
    out.checked.extend(executed)
    out.op_seconds = [end - began for began, end, _ in out.windows]
    for unit, result in out.checked:
        out.attempted += 1
        if not result_ok(reference, unit.key, result):
            out.failed += 1
    for _, result in executed:
        out.episodes += result.recovery_episodes
        out.relaunches += result.relaunches
    if recorder is not None:
        for began, end, key in out.windows:
            recorder.interval("engine.dispatch", began, end, key)
    return out


def measure(run_pass, seconds: float) -> list:
    """Passes while one more would end nearer to ``seconds`` than
    stopping now does, so a run measures about ``seconds`` whatever its
    pass time (at least one pass). Pass ``i`` always sees the same
    inputs for a given seed."""
    passes = []
    start = clock()
    while True:
        result = run_pass(len(passes))
        passes.append(result)
        if clock() - start + result.wall / 2 > seconds:
            return passes


def paired(run_plain, run_traced, seconds: float) -> tuple:
    """Untraced and traced passes, alternating, while one more pair
    would end nearer to ``seconds`` than stopping now does (at least one
    pair); ``(plain, traced)``. The last pass is always a traced one."""
    plain, traced = [], []
    start = clock()
    while True:
        plain.append(run_plain(len(plain) + len(traced)))
        traced.append(run_traced(len(plain) + len(traced)))
        pair = plain[-1].wall + traced[-1].wall
        if clock() - start + pair / 2 > seconds:
            return plain, traced


def overhead_pct(plain, traced) -> float:
    """Tracing overhead: the median over pairs of the traced pass time
    against the untraced one. The two passes of a pair run back to
    back, so a slow spell of the host slows both."""
    return 100.0 * (median([t.wall / p.wall
                            for p, t in zip(plain, traced)]) - 1.0)


def end_to_end(passes) -> dict:
    """The timed end-to-end metrics over all of a run's passes."""
    return {
        "wall_s": median([p.wall for p in passes]),
        "ops_per_s": (sum(p.attempted for p in passes)
                      / sum(p.wall for p in passes)),
        "op_p50_ms": median([s for p in passes for s in p.op_seconds]) * 1e3,
    }


def sim_layers(totals, passes, pids, deltas) -> dict:
    """The per-layer table of a traced simulator pass."""
    self_s, total_s = totals["self_s"], totals["total_s"]
    calls, counts = totals["calls"], totals["counts"]

    def own(*names):
        return sum(self_s.get(name, 0.0) for name in names)

    kernels = ("apps.stencil", "apps.native", "apps.cg", "apps.sparse",
               "apps.graph")
    exec_s = total_s.get("engine.exec", 0.0)
    steps = counts.get("simmpi.steps", 0)
    simmpi_s = own("simmpi.run")
    apps_s = own(*kernels)
    window_s = sum(end - began for p in passes for began, end, _
                   in p.windows)
    return {
        "simmpi.self_s": simmpi_s,
        "simmpi.share_pct": 100.0 * simmpi_s / exec_s if exec_s else 0.0,
        "simmpi.steps": steps,
        "simmpi.us_per_step": 1e6 * simmpi_s / steps if steps else 0.0,
        "simmpi.events_per_s": (
            (counts.get("simmpi.p2p_messages", 0)
             + counts.get("simmpi.collectives", 0)) / exec_s
            if exec_s else 0.0),
        "simmpi.p2p_messages": counts.get("simmpi.p2p_messages", 0),
        "simmpi.collectives": counts.get("simmpi.collectives", 0),
        "simmpi.spawns": counts.get("simmpi.spawns", 0),
        "simmpi.reinit_rollbacks": counts.get("simmpi.reinit_rollbacks", 0),
        "apps.kernel_s": apps_s,
        "apps.share_pct": 100.0 * apps_s / exec_s if exec_s else 0.0,
        "apps.kernel_calls": sum(calls.get(name, 0) for name in kernels
                                 if name != "apps.native"),
        "apps.stencil_s": own("apps.stencil"),
        "apps.native_s": own("apps.native"),
        "apps.cg_s": own("apps.cg"),
        "apps.sparse_s": own("apps.sparse"),
        "apps.graph_s": own("apps.graph"),
        "fti.ckpt_writes": deltas["match_fti_ckpt_writes_total"],
        "fti.ckpt_reads": deltas["match_fti_ckpt_reads_total"],
        "fti.api_s": own("fti.api"),
        "fti.serialize_s": own("fti.serialize"),
        "fti.serialize_mb": counts.get("fti.serialize_bytes", 0) / 1e6,
        "fti.rs_s": own("fti.rs"),
        "recovery.episodes": sum(p.episodes for p in passes),
        "recovery.relaunches": sum(p.relaunches for p in passes),
        "recovery.repair_s": own("recovery.ulfm", "recovery.reinit",
                                 "recovery.restart"),
        "cluster.s": own("cluster.cost"),
        "engine.units": sum(len(p.windows) for p in passes),
        "engine.exec_s": exec_s,
        "engine.self_s": own("engine.exec"),
        "engine.dispatch_s": window_s - exec_s,
        "engine.worker_procs": len(pids),
        "engine.retries": sum(p.retries for p in passes),
        "store.appends": calls.get("store.append", 0),
        "store.append_s": own("store.append"),
        "store.records_loaded": deltas["match_store_records_loaded_total"],
        "store.load_s": own("store.load"),
    }


def sim_workload(args, reference) -> dict:
    """Measure (and for --trace 1, trace) one simulator workload."""
    from repro.obs.metrics import REGISTRY

    import layers
    import perfbench_probe

    wseed = workload_seed(args.seed)
    name = args.workload

    def untraced(index):
        return run_sim_pass(name, wseed, index, reference)

    if not args.trace:
        passes = measure(untraced, args.seconds)
        metrics = end_to_end(passes)
        return {"passes": passes, "metrics": metrics}

    recorder = SpanRecorder(keep=layers.KEPT_SPANS)
    deltas = dict.fromkeys(("match_fti_ckpt_writes_total",
                            "match_fti_ckpt_reads_total",
                            "match_store_records_loaded_total"), 0.0)

    def traced_pass(index):
        before = REGISTRY.snapshot()
        patch = layers.install(recorder)
        try:
            result = run_sim_pass(name, wseed, index, reference, recorder)
        finally:
            patch.restore()
        after = REGISTRY.snapshot()
        for family in deltas:
            deltas[family] += (counter_total(after, family)
                               - counter_total(before, family))
        return result

    plain, traced = paired(untraced, traced_pass, args.seconds)
    # only traced passes load the probe plugin, so its counters hold
    # traced units only
    worker_totals, pids = perfbench_probe.totals_from_snapshot(
        REGISTRY.snapshot())
    totals = merge_totals(recorder.totals(), worker_totals)
    metrics = sim_layers(totals, traced, pids, deltas)
    metrics["trace.wall_s"] = median([p.wall for p in traced])
    metrics["trace.overhead_pct"] = overhead_pct(plain, traced)
    metrics["trace.unattributed_s"] = (
        sum(p.wall for p in traced) - covered_seconds(recorder.top_level))
    return {"passes": plain + traced, "metrics": metrics,
            "recorder": recorder}


# -- advisor over HTTP ------------------------------------------------------

class RequestStream:
    """Seeded, endless advisor traffic, handed out in fixed blocks.

    GETs mix three key populations: a small hot set (repeats), the
    warmed workloads at the grid's MTBF buckets, and off-bucket MTBFs
    drawn from a key space far larger than the server's LRU. The split
    (half hot, a quarter each bucket and off-bucket) and the 32-key hot
    set are assumptions, not measured traffic. Batches draw from the
    same mix.
    """

    def __init__(self, seed: int):
        from repro.service.grid import DEFAULT_MTBF_BUCKETS

        self.rng = random.Random(seed)
        self.workloads = [(spec.split(":")[0], int(spec.split(":")[1]))
                          for spec in ADVISOR_WARM]
        self.buckets = DEFAULT_MTBF_BUCKETS
        self.hot = [self._cold() for _ in range(32)]

    def _cold(self) -> dict:
        app, nprocs = self.rng.choice(self.workloads)
        # whole seconds off every bucket: 2M values per workload
        mtbf = self.rng.randrange(600, 2_000_000)
        if float(mtbf) in self.buckets:
            mtbf += 1
        return {"app": app, "nprocs": nprocs, "mtbf": mtbf}

    def query(self) -> dict:
        draw = self.rng.random()
        if draw < 0.5:
            return dict(self.rng.choice(self.hot))
        if draw < 0.75:
            app, nprocs = self.rng.choice(self.workloads)
            return {"app": app, "nprocs": nprocs,
                    "mtbf": self.rng.choice(self.buckets)}
        return self._cold()

    def block(self) -> list:
        """BLOCK_GETS GETs with BLOCK_BATCHES batches spread among them."""
        requests = [("GET", self.query()) for _ in range(BLOCK_GETS)]
        step = BLOCK_GETS // BLOCK_BATCHES
        for index in range(BLOCK_BATCHES):
            batch = [self.query() for _ in range(BATCH_SIZE)]
            requests.insert(index * (step + 1) + step // 2, ("BATCH", batch))
        return requests


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class AdvisorClient:
    """One keep-alive connection to a ``match-bench serve`` child."""

    def __init__(self):
        self.port = free_port()
        log = open(os.path.join(BUILD_DIR, "serve-%d.log" % os.getpid()),
                   "w")
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--host",
             "127.0.0.1", "--port", str(self.port), "--warm",
             *ADVISOR_WARM], stdout=log, stderr=subprocess.STDOUT)
        log.close()
        self.conn = None
        deadline = time.monotonic() + 60.0
        while True:
            if self.server.poll() is not None:
                raise RuntimeError("advisor server exited with code %s"
                                   % self.server.returncode)
            self.conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=30)
            try:
                if self.get("/healthz")[0] == 200:
                    return
            except OSError:
                pass
            self.conn.close()
            if time.monotonic() > deadline:
                self.close()
                raise RuntimeError("advisor server never became healthy")
            time.sleep(0.02)

    def get(self, path: str) -> tuple:
        self.conn.request("GET", path)
        response = self.conn.getresponse()
        return response.status, response.read()

    def post(self, path: str, payload) -> tuple:
        self.conn.request("POST", path, body=json.dumps(payload),
                          headers={"Content-Type": "application/json"})
        response = self.conn.getresponse()
        return response.status, response.read()

    def metrics(self) -> dict:
        status, body = self.get("/metrics.json")
        if status != 200:
            raise RuntimeError("/metrics.json returned %d" % status)
        return json.loads(body)

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
        if self.server.poll() is None:
            self.server.terminate()
            try:
                self.server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()


class AdvisorPass:
    """One block of requests: timings and outcome counts."""

    def __init__(self):
        self.wall = 0.0
        self.op_seconds: list = []
        self.get_seconds: list = []
        self.batch_seconds: list = []
        self.attempted = 0
        self.failed = 0
        self.work = 0


def run_advisor_block(client, requests, recorder=None) -> AdvisorPass:
    """Send one block; sampled answers are checked after its clock stops
    (a wrong answer counts as a failed request)."""
    out = AdvisorPass()
    samples = []
    start = clock()
    for index, (kind, query) in enumerate(requests):
        began = clock()
        if recorder is not None:
            recorder.key = index
            recorder.open("client.request")
        if kind == "GET":
            status, body = client.get("/advise?" + urlencode(query))
        else:
            status, body = client.post("/advise/batch", {"queries": query})
        if recorder is not None:
            recorder.close()
        elapsed = clock() - began
        out.attempted += 1
        out.op_seconds.append(elapsed)
        if status != 200:
            out.failed += 1
            continue
        if kind == "GET":
            out.get_seconds.append(elapsed)
            out.work += 1
            if index % VERIFY_EVERY == 0:
                samples.append((kind, query, body))
        else:
            out.batch_seconds.append(elapsed)
            out.work += len(query)
            samples.append((kind, query, body))
    out.wall = clock() - start
    out.failed += sum(1 for sample in samples if not advice_ok(*sample))
    return out


def advice_ok(kind, query, body) -> bool:
    """The served answer equals in-process ``advise`` (bit-identical by
    contract): the full ranking for a GET, the top row of a batch's
    first query."""
    from repro.modeling.advisor import advise

    def expected(one, top_only):
        rows = [row.to_dict() for row in advise(
            one["app"], one["nprocs"], one["mtbf"])]
        return json.loads(json.dumps(rows[0] if top_only else rows))

    answer = json.loads(body)["advice"]
    if kind == "GET":
        return answer == expected(query, False)
    return len(answer) == len(query) and answer[0] == expected(query[0], True)


def advisor_workload(args, client) -> dict:
    stream = RequestStream(args.seed)

    def untraced(_index):
        return run_advisor_block(client, stream.block())

    if not args.trace:
        passes = measure(untraced, args.seconds)
        metrics = end_to_end(passes)
        return {"passes": passes, "metrics": metrics}

    recorder = SpanRecorder()
    deltas: dict = {}
    last: list = []

    def traced_block(_index):
        before = client.metrics()
        result = run_advisor_block(client, stream.block(), recorder)
        after = client.metrics()
        for stat in CACHE_STATS:
            deltas[stat] = (deltas.get(stat, 0)
                            + after[stat[0]][stat[1]]
                            - before[stat[0]][stat[1]])
        last[:] = [after]
        return result

    plain, traced = paired(untraced, traced_block, args.seconds)
    metrics = advisor_layers(traced, deltas, last[0])
    metrics["trace.wall_s"] = median([p.wall for p in traced])
    metrics["trace.overhead_pct"] = overhead_pct(plain, traced)
    metrics["trace.unattributed_s"] = (
        sum(p.wall for p in traced) - covered_seconds(recorder.top_level))
    return {"passes": plain + traced, "metrics": metrics,
            "recorder": recorder}


#: ``/metrics.json`` counters summed over the traced blocks
CACHE_STATS = (("query_cache", "hits"), ("query_cache", "misses"),
               ("grid_cache", "hits"), ("grid_cache", "misses"),
               ("grid_cache", "grid_builds"))


def advisor_layers(passes, deltas, last) -> dict:
    """The per-layer table of the traced blocks. ``deltas`` sums the
    cache counters over them; ``last`` is ``/metrics.json`` right after
    the last one, whose latency window then holds its requests only."""
    def ratio(cache):
        hits = deltas[(cache, "hits")]
        misses = deltas[(cache, "misses")]
        return hits / (hits + misses) if hits + misses else 0.0

    gets = [s for p in passes for s in p.get_seconds]
    batches = [s for p in passes for s in p.batch_seconds]
    handler = last["endpoints"]["/advise"]["latency_p50_seconds"] * 1000.0
    client_p50 = median(gets) * 1000.0
    p99 = tail_percentile(gets, 0.99)
    batch_answers = BATCH_SIZE * len(batches)
    return {
        "client.advise_p50_ms": client_p50,
        "client.advise_p99_ms": p99 * 1000.0 if p99 is not None else 0.0,
        "client.batch_p50_ms": median(batches) * 1000.0,
        "client.batch_queries_per_s": batch_answers / sum(batches),
        "client.answers_per_s": (sum(p.work for p in passes)
                                 / sum(p.wall for p in passes)),
        "service.handler_p50_ms": handler,
        "service.http_overhead_ms": client_p50 - handler,
        "service.lru_hit_ratio": ratio("query_cache"),
        "service.grid_hit_ratio": ratio("grid_cache"),
        "service.grid_builds": deltas[("grid_cache", "grid_builds")],
    }


# -- entry point ------------------------------------------------------------

def prepare() -> None:
    """Build step: compile the native kernels and byte-compile the
    package once, so set-up is measured on a warm cache."""
    from repro.apps.kernels._accel import native_kernels

    import repro.api  # noqa: F401
    import repro.service  # noqa: F401

    native_kernels()
    with open(PREPARED, "w") as handle:
        handle.write("ok\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--prepare", action="store_true")
    args = parser.parse_args(argv)
    os.makedirs(BUILD_DIR, exist_ok=True)
    if args.prepare:
        prepare()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    client = None
    try:
        if args.workload == "advisor_http":
            client = AdvisorClient()
            # warm-up traffic from a different stream than the measured one
            run_advisor_block(
                client, RequestStream(args.seed + 1).block()[:WARMUP])
            reference = None
        else:
            reference = load_reference()
            warm_simulator(args.workload)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        if client is not None:
            outcome = advisor_workload(args, client)
        else:
            outcome = sim_workload(args, reference)
    finally:
        if client is not None:
            client.close()

    passes = outcome["passes"]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    metrics = outcome["metrics"]
    if not args.trace:
        metrics["peak_rss_mb"] = peak_rss_mb()
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "passes": len(passes),
              "env": env_record(), "metrics": metrics}
    results = os.path.join(BUILD_DIR, "results")
    os.makedirs(results, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    with open(os.path.join(results, stem + ".json"), "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    if "recorder" in outcome:
        outcome["recorder"].dump(os.path.join(results, stem + ".spans.json"))
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics, "env": env_record()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
