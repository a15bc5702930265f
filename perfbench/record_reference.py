"""Record the correctness reference for the simulator workloads.

For every workload seed in the pool (0..SEED_POOL-1) this runs each
simulator workload's matrix serially, in process, and stores the
SHA-256 of each run's ``repro.core.breakdown.result_fingerprint`` under
its run key in ``perfbench/reference.json``. The benchmark compares
every run (and every run read back by the resume pass) against it
exactly; a run with no entry counts as failed.

Re-record only after a deliberate behaviour change of the simulator,
from the root of a checkout::

    PYTHONPATH=src python3 perfbench/record_reference.py [WORKLOAD ...]
"""

from __future__ import annotations

import json
import os
import sys

import workloads


def record(name: str, wseed: int) -> dict:
    from repro.core.engine import execute_unit

    digests = {}
    for campaign in workloads.sim_campaigns(name, wseed, store_path=None):
        session = campaign.resume(False).session()
        for unit in session.units:
            digests[unit.key] = workloads.fingerprint_digest(
                execute_unit(unit))
    return digests


def current_keys() -> set:
    """Run keys of every workload and pool seed (nothing is run)."""
    return {unit.key for name in workloads.SIM_WORKLOADS
            for wseed in range(workloads.SEED_POOL)
            for campaign in workloads.sim_campaigns(name, wseed, None)
            for unit in campaign.resume(False).session().units}


def main(argv) -> int:
    names = argv or list(workloads.SIM_WORKLOADS)
    data = {"fingerprints": {}}
    if os.path.exists(workloads.REFERENCE_PATH):
        with open(workloads.REFERENCE_PATH) as handle:
            data = json.load(handle)
    for name in names:
        for wseed in range(workloads.SEED_POOL):
            data["fingerprints"].update(record(name, wseed))
            print("%s seed %d: %d runs" % (name, wseed,
                                           len(data["fingerprints"])),
                  flush=True)
    # entries of runs no workload makes any more
    keep = current_keys()
    data["fingerprints"] = {key: digest for key, digest
                            in data["fingerprints"].items() if key in keep}
    with open(workloads.REFERENCE_PATH, "w") as handle:
        json.dump(data, handle, indent=0, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
