"""The at-phase / worst-of scenario kinds: registration, hygiene,
run-key stability."""

from __future__ import annotations

import pytest

from repro.core.configs import ExperimentConfig, config_to_dict, run_key
from repro.core.engine import RunUnit
from repro.errors import ConfigurationError
from repro.faults.scenarios import (
    SCENARIO_KINDS,
    SCENARIOS,
    FaultScenario,
    parse_scenario_spec,
)


class TestRegistration:
    def test_phase_kinds_are_built_ins(self):
        assert "at-phase" in SCENARIO_KINDS
        assert "worst-of" in SCENARIO_KINDS
        assert "at-phase" in SCENARIOS
        assert "worst-of" in SCENARIOS

    def test_spec_parses_positionally(self):
        scenario = parse_scenario_spec("at-phase:ckpt.L1.write~1+0.5@r3")
        assert scenario.kind == "at-phase"
        assert scenario.schedule == "ckpt.L1.write~1+0.5@r3"
        scenario = parse_scenario_spec("worst-of:32")
        assert scenario.kind == "worst-of" and scenario.count == 32

    def test_labels(self):
        assert parse_scenario_spec(
            "at-phase:ulfm.shrink").label() == "at-phase[ulfm.shrink]"
        assert parse_scenario_spec("worst-of:8").label() == "worst-of8"


class TestValidation:
    def test_at_phase_needs_a_parseable_schedule(self):
        with pytest.raises(ConfigurationError):
            FaultScenario(kind="at-phase")  # empty schedule
        with pytest.raises(ConfigurationError):
            FaultScenario(kind="at-phase", schedule="bad atom!")

    def test_field_hygiene_rejects_unused_fields(self):
        with pytest.raises(ConfigurationError):
            FaultScenario(kind="at-phase", schedule="ulfm.shrink",
                          count=3)
        with pytest.raises(ConfigurationError):
            FaultScenario(kind="worst-of", count=8,
                          schedule="ulfm.shrink")
        with pytest.raises(ConfigurationError):
            FaultScenario(kind="single", schedule="ulfm.shrink")

    def test_make_plan_points_at_the_harness(self):
        scenario = FaultScenario(kind="at-phase", schedule="ulfm.shrink")
        with pytest.raises(ConfigurationError, match="harness"):
            scenario.make_plan(nprocs=8, niters=60, seed=1, nnodes=4)


class TestHazardSemantics:
    def test_deterministic_kinds_have_zero_rate(self):
        scenario = FaultScenario(kind="at-phase",
                                 schedule="ckpt.L1.write;ulfm.shrink")
        assert scenario.rate(60) == 0.0
        assert FaultScenario(kind="worst-of", count=8).rate(60) == 0.0

    def test_expected_events_is_the_exact_count(self):
        scenario = FaultScenario(kind="at-phase",
                                 schedule="ckpt.L1.write;ulfm.shrink")
        assert scenario.expected_events(60) == 2.0
        assert FaultScenario(kind="worst-of",
                             count=8).expected_events(60) == 1.0

    def test_renewal_kinds_unchanged(self):
        single = FaultScenario(kind="single")
        assert single.expected_events(60) == pytest.approx(
            single.rate(60) * (60 - single.min_iteration))


class TestRunKeyStability:
    def test_legacy_payload_has_no_schedule_field(self):
        # the schedule field serializes only when non-default, so every
        # pre-existing run key survives the field's addition
        config = ExperimentConfig(app="hpccg", nprocs=8,
                                  design="ulfm-fti", faults="single")
        faults = config_to_dict(config)["faults"]
        assert "schedule" not in faults
        assert set(faults) == {"kind", "count", "node_count",
                               "mtbf_iters", "window", "min_iteration"}

    def test_at_phase_payload_carries_the_schedule(self):
        config = ExperimentConfig(app="hpccg", nprocs=8,
                                  design="ulfm-fti",
                                  faults="at-phase:ulfm.shrink@r3")
        faults = config_to_dict(config)["faults"]
        assert faults["schedule"] == "ulfm.shrink@r3"

    def test_distinct_schedules_mint_distinct_keys(self):
        def key(spec):
            config = ExperimentConfig(app="hpccg", nprocs=8,
                                      design="ulfm-fti", faults=spec)
            return run_key(config, 0)

        assert key("at-phase:ulfm.shrink@r3") \
            != key("at-phase:ulfm.shrink@r4")
        assert key("at-phase:ulfm.shrink@r3") \
            == key("at-phase:ulfm.shrink@r3")

    def test_scenario_dict_roundtrip(self):
        scenario = FaultScenario(kind="at-phase",
                                 schedule="ckpt.L1.write~1+0.5@r3")
        assert FaultScenario.from_dict(scenario.to_dict()) == scenario


class TestUnitExecution:
    def test_at_phase_unit_runs_and_replays_bit_identically(self):
        config = ExperimentConfig(
            app="hpccg", nprocs=8, design="ulfm-fti",
            faults="at-phase:ckpt.L1.write~1+0.05@r3")
        from repro.core.engine import execute_unit

        first = execute_unit(RunUnit(config, 0))
        second = execute_unit(RunUnit(config, 0))
        assert first.verified
        assert first.recovery_episodes >= 1
        assert first.breakdown.total_seconds \
            == second.breakdown.total_seconds
        assert first.fault_events == second.fault_events

    def test_timed_events_survive_store_serialization(self):
        config = ExperimentConfig(
            app="hpccg", nprocs=8, design="ulfm-fti",
            faults="at-phase:ckpt.L1.write~1+0.05@r3")
        from repro.core.breakdown import (
            run_result_to_dict,
            try_run_result_from_dict,
        )
        from repro.core.engine import execute_unit

        result = execute_unit(RunUnit(config, 0))
        back = try_run_result_from_dict(run_result_to_dict(result))
        assert back.breakdown.total_seconds \
            == result.breakdown.total_seconds
