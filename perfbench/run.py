"""Benchmark entry point: one workload, one seed, one JSON line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload scale512_nofail --seed 1 \\
        --seconds 25 --trace 0

``--trace 0`` prints every end-to-end metric of BENCHMARK.json;
``--trace 1`` is a separate, traced run that prints the per-layer
metrics. The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; a readable table and
the environment go to standard error.

The script uses only the standard library. It builds first (native
kernels compiled into ``.bench_build``), then runs the measured
workload process once and samples set-up time by starting the
workload process several more times, before and after it. Every file it writes stays under
``.bench_build`` in the checkout (``TMPDIR`` points there too).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import threading
import time

from spans import median

HERE = os.path.dirname(os.path.abspath(__file__))
#: set-up is sampled this many times in a run (probes + the measured
#: process) and reported as the median; half of the probes start before
#: the measured process and half after it, so the samples span the run
#: rather than one moment of the host
SETUP_SAMPLES = 5
#: a run must end within this many seconds; the build gets longer
RUN_DEADLINE = 175.0
BUILD_DEADLINE = 600.0


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    tmp = os.path.join(root, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    # one string-hash layout for every run, so two runs of the same
    # code differ only by the host, not by dict and set memory layout
    env["PYTHONHASHSEED"] = "0"
    return env


def workload_cmd(args, *extra) -> list:
    return [sys.executable, os.path.join(HERE, "workloads.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            *extra]


def run_child(cmd, env, deadline: float) -> tuple:
    """Start ``cmd``; returns ``(seconds to READY, stdout lines)``.

    The child leads its own process group, so on a blown deadline the
    group (the child, its campaign workers and its advisor server) is
    killed together; the child is always waited for.
    """
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    ready: list = []
    lines: list = []

    def read():
        for line in proc.stdout:
            if not ready and line.strip() == "READY":
                ready.append(time.perf_counter() - started)
            else:
                lines.append(line.rstrip("\n"))

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    try:
        code = proc.wait(timeout=max(0.1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError("workload process exceeded the deadline")
    finally:
        reader.join(timeout=10.0)
        proc.stdout.close()
    if code != 0:
        raise BenchError("workload process exited with code %d" % code)
    if not ready:
        raise BenchError("workload process never became ready")
    return ready[0], lines


def run(args, root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise BenchError("unknown workload %r" % args.workload)
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        raise BenchError("no program to benchmark: src/repro is missing")
    env = child_env(root)
    if not os.path.exists(os.path.join(root, ".bench_build", "prepared")):
        build = subprocess.run(
            [sys.executable, os.path.join(HERE, "workloads.py"),
             "--prepare"], env=env, timeout=BUILD_DEADLINE)
        if build.returncode != 0:
            raise BenchError("build step failed")
    # the build is slow once per checkout; the run's deadline follows it
    deadline = time.monotonic() + RUN_DEADLINE

    setups = []

    def sample_setup(count):
        for _ in range(count):
            ready, _ = run_child(workload_cmd(args, "--setup-only"), env,
                                 deadline)
            setups.append(ready)

    probes = 0 if args.trace else SETUP_SAMPLES - 1
    sample_setup(probes // 2)
    ready, lines = run_child(workload_cmd(args), env, deadline)
    if not args.trace:
        setups.append(ready)
    sample_setup(probes - probes // 2)
    if not lines:
        raise BenchError("workload process printed no result")
    result = json.loads(lines[-1])

    section = "per_layer" if args.trace else "end_to_end"
    produced = result["metrics"]
    if setups:
        produced["setup_s"] = median(setups)
    unknown = set(produced) - {entry["name"] for entry in spec[section]}
    if unknown:
        raise BenchError("workload reported unlisted metrics %s"
                         % sorted(unknown))
    metrics = {}
    for entry in spec[section]:
        name = entry["name"]
        if name in produced:
            value = produced[name]
        elif args.trace:
            # a layer this workload does not exercise reads zero
            value = 0
        else:
            raise BenchError("workload did not report %r" % name)
        metrics[name] = {"value": value, "unit": entry["unit"]}
    sys.stderr.write("env: %s\n" % json.dumps(result.get("env", {})))
    for name, metric in metrics.items():
        sys.stderr.write("  %-28s %14.6g %s\n"
                         % (name, metric["value"], metric["unit"]))
    return {"correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        outcome = run(args, os.getcwd())
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as exc:
        sys.stderr.write("perfbench: %s\n" % (exc,))
        return 1
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
