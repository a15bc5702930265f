"""Determinism regression tests — the safety net for scheduler rewrites.

Two layers:

1. **Run-twice identity**: the same configuration executed twice in one
   process yields bit-identical makespans, breakdowns and runtime stats.
2. **Pinned seed values**: a recorded reference
   (``tests/data/determinism_seed.json``, captured with
   ``tests/data/capture_seed.py``) pins the exact simulated outcomes a
   known-good tree produced — for the paper-era single-kill configs
   *and* for multi-fault scenario configs. Any change to scheduling
   order, message matching, cost arithmetic or the fault draws that
   shifts a single float fails here; in particular, the legacy
   ``inject_fault=True`` draws must stay bit-identical across fault-model
   refactors.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.core.breakdown import result_fingerprint
from repro.core.configs import ExperimentConfig, config_from_dict
from repro.api import run_single

SEED_FILE = pathlib.Path(__file__).parent / "data" / "determinism_seed.json"


def _outcome(config: ExperimentConfig) -> dict:
    # the same fingerprint builder the capture script records with, so
    # the two sides cannot drift apart field-by-field
    return result_fingerprint(run_single(config))


@pytest.mark.parametrize("faults", ["none", "single"],
                         ids=["nofault", "fault"])
def test_identical_config_runs_twice_identically(faults):
    config = ExperimentConfig(app="hpccg", design="ulfm-fti", nprocs=64,
                              seed=3, faults=faults)
    assert _outcome(config) == _outcome(config)


def test_scenario_config_runs_twice_identically():
    config = ExperimentConfig(app="minivite", design="ulfm-fti", nprocs=8,
                              nnodes=4, seed=3, faults="independent:2")
    assert _outcome(config) == _outcome(config)


def _pinned_keys():
    reference = json.loads(SEED_FILE.read_text())
    return sorted(reference)


@pytest.mark.parametrize("key", _pinned_keys())
def test_outcome_matches_recorded_seed(key):
    entry = json.loads(SEED_FILE.read_text())[key]
    config = config_from_dict(entry["config"])
    assert config.label() == key
    assert _outcome(config) == entry["outcome"]
