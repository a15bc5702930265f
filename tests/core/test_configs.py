"""Experiment configurations and the Table I encoding."""

import pytest

from repro.core.configs import (
    DESIGN_NAMES,
    INPUT_SIZES,
    NNODES,
    SCALING_SIZES,
    TABLE1,
    TABLE1_BY_APP,
    ExperimentConfig,
    input_matrix,
    scaling_matrix,
    valid_proc_counts,
)
from repro.errors import ConfigurationError


def test_paper_constants():
    assert SCALING_SIZES == (64, 128, 256, 512)
    assert INPUT_SIZES == ("small", "medium", "large")
    assert NNODES == 32
    assert set(DESIGN_NAMES) == {"restart-fti", "reinit-fti", "ulfm-fti"}


def test_table1_has_six_apps():
    assert len(TABLE1) == 6
    assert set(TABLE1_BY_APP) == {"amg", "comd", "hpccg", "lulesh",
                                  "minife", "minivite"}


def test_table1_lulesh_runs_two_scales_only():
    assert TABLE1_BY_APP["lulesh"].nprocs == (64, 512)
    assert valid_proc_counts("amg") == (64, 128, 256, 512)


def test_table1_cmdline_lookup():
    row = TABLE1_BY_APP["comd"]
    assert row.cmdline("small") == "-nx 128 -ny 128 -nz 128"
    assert row.cmdline("large") == "-nx 512 -ny 512 -nz 512"


def test_config_defaults_match_paper():
    cfg = ExperimentConfig(app="hpccg", design="reinit-fti")
    assert cfg.nprocs == 64            # default scaling size
    assert cfg.input_size == "small"   # default input problem
    assert cfg.fti.level == 1          # FTI L1 mode
    assert cfg.fti.ckpt_stride == 10   # every ten iterations
    assert not cfg.faults.injects      # clean runs by default


def test_config_validation():
    with pytest.raises(ConfigurationError):
        ExperimentConfig(app="nope", design="reinit-fti")
    with pytest.raises(ConfigurationError):
        ExperimentConfig(app="hpccg", design="nope")
    with pytest.raises(ConfigurationError):
        ExperimentConfig(app="hpccg", design="reinit-fti", input_size="big")
    with pytest.raises(ConfigurationError):
        ExperimentConfig(app="lulesh", design="reinit-fti", nprocs=128)


def test_config_label_and_seed():
    cfg = ExperimentConfig(app="amg", design="ulfm-fti", nprocs=256,
                           faults="single")
    assert "amg" in cfg.label() and "256" in cfg.label()
    assert "fault" in cfg.label()
    assert cfg.with_seed(5).seed == 5
    assert cfg.seed == 0  # frozen original


def test_make_app_builds_right_type():
    from repro.apps import Hpccg

    cfg = ExperimentConfig(app="hpccg", design="reinit-fti", nprocs=128,
                           input_size="medium")
    app = cfg.make_app()
    assert isinstance(app, Hpccg)
    assert app.nprocs == 128
    assert app.params.nx == 128


def test_scaling_matrix_covers_figure5():
    cells = scaling_matrix()
    # 5 apps x 4 scales x 3 designs + lulesh x 2 scales x 3 designs
    assert len(cells) == 5 * 4 * 3 + 2 * 3
    assert all(c.input_size == "small" for c in cells)
    assert not any(c.faults.injects for c in cells)


def test_input_matrix_covers_figure8():
    cells = input_matrix(faults="single")
    assert len(cells) == 6 * 3 * 3
    assert all(c.nprocs == 64 for c in cells)
    assert all(c.faults.kind == "single" for c in cells)


# -- fault scenarios on configs ---------------------------------------------
def test_single_spec_normalises_to_single_scenario():
    from repro.faults import FaultScenario

    cfg = ExperimentConfig(app="hpccg", design="reinit-fti",
                           faults="single")
    assert cfg.faults == FaultScenario.single()
    clean = ExperimentConfig(app="hpccg", design="reinit-fti")
    assert clean.faults == FaultScenario.none()
    assert not clean.faults.injects


def test_scenario_injects():
    cfg = ExperimentConfig(app="hpccg", design="reinit-fti",
                           faults="poisson:10")
    assert cfg.faults.injects
    assert cfg.faults.kind == "poisson"


def test_scenario_accepts_dict_and_spec_string():
    from repro.faults import FaultScenario

    by_spec = ExperimentConfig(app="hpccg", design="ulfm-fti",
                               faults="independent:2:node=1")
    by_dict = ExperimentConfig(
        app="hpccg", design="ulfm-fti",
        faults=FaultScenario.independent(2, node_count=1).to_dict())
    assert by_spec == by_dict


def test_scenario_labels_distinguish_cells():
    base = dict(app="hpccg", design="reinit-fti")
    legacy = ExperimentConfig(faults="single", **base)
    multi = ExperimentConfig(faults="independent:3", **base)
    assert legacy.label().endswith("/fault")  # the historical label
    assert "kx3" in multi.label()
    assert legacy.label() != multi.label()


def test_config_dict_round_trip_with_scenario():
    from repro.core.configs import config_from_dict, config_to_dict

    cfg = ExperimentConfig(app="hpccg", design="ulfm-fti",
                           faults="correlated:2:window=5")
    assert config_from_dict(config_to_dict(cfg)) == cfg


def test_run_keys_differ_per_scenario():
    from repro.core.configs import run_key

    base = dict(app="hpccg", design="reinit-fti")
    keys = {run_key(ExperimentConfig(faults=spec, **base), 0)
            for spec in ("none", "single", "independent:2", "poisson:9")}
    assert len(keys) == 4


# -- serialization round-trips (the store/worker boundary contract) ---------
def _round_trip_config(**kwargs):
    from repro.core.configs import config_from_dict, config_to_dict

    cfg = ExperimentConfig(**kwargs)
    rebuilt = config_from_dict(config_to_dict(cfg))
    assert rebuilt == cfg
    # and the dict itself is stable across one more cycle
    assert config_to_dict(rebuilt) == config_to_dict(cfg)
    return cfg


def test_config_round_trip_every_scenario_kind():
    base = dict(app="hpccg", design="reinit-fti", nprocs=8, nnodes=4)
    for spec in ("none", "single", "independent:3:node=1",
                 "correlated:2:window=5", "poisson:9.5"):
        _round_trip_config(faults=spec, **base)


def test_config_round_trip_nondefault_fields():
    from repro.fti.config import FtiConfig

    _round_trip_config(app="lulesh", design="ulfm-fti", nprocs=512,
                      input_size="large", seed=42, nnodes=16,
                      fti=FtiConfig(level=3), faults="single")


def test_config_from_dict_rejects_unknown_keys():
    from repro.core.configs import config_from_dict, config_to_dict

    data = config_to_dict(ExperimentConfig(app="hpccg",
                                           design="reinit-fti"))
    data["colour"] = "red"
    with pytest.raises(ConfigurationError) as err:
        config_from_dict(data)
    assert "colour" in str(err.value)
    # several unknown keys are all named, not just the first
    data["flavour"] = "sour"
    with pytest.raises(ConfigurationError) as err:
        config_from_dict(data)
    assert "colour" in str(err.value) and "flavour" in str(err.value)


def test_config_from_dict_rejects_malformed_scenario_dicts():
    from repro.core.configs import config_from_dict, config_to_dict

    base = config_to_dict(ExperimentConfig(app="hpccg",
                                           design="reinit-fti"))
    for bad_faults in (
            {"kind": "meteor"},              # unregistered kind
            {"kind": "single", "colour": 1},  # unknown scenario field
            {"kind": "poisson"},             # missing required mtbf
            {"kind": "independent", "count": 0},  # out-of-range value
            17,                              # not a dict at all
            ["single"],
    ):
        data = dict(base)
        data["faults"] = bad_faults
        with pytest.raises(ConfigurationError):
            config_from_dict(data)


#: a schema-2 config payload as 1.x wrote it: the ``inject_fault`` bool
#: next to the ``faults`` scenario, no ``interval``
LEGACY_PAYLOAD = {
    "app": "hpccg", "design": "reinit-fti", "nprocs": 8,
    "input_size": "small", "inject_fault": True, "seed": 0, "nnodes": 4,
    "fti": {"ckpt_stride": 10, "diff_block_bytes": 65536,
            "differential": True, "group_size": 4, "keep_last": 1,
            "level": 1, "use_ssd": False},
    "faults": {"kind": "single", "count": 1, "node_count": 0,
               "mtbf_iters": 0.0, "window": 0, "min_iteration": 1},
}


def test_config_from_dict_accepts_legacy_payload_without_faults():
    """Schema-1 payloads (no ``faults`` key) must still deserialize:
    the scenario derives from the legacy ``inject_fault`` key."""
    from repro.core.configs import config_from_dict
    from repro.faults import FaultScenario

    data = dict(LEGACY_PAYLOAD)
    del data["faults"]
    rebuilt = config_from_dict(data)
    assert rebuilt.faults == FaultScenario.single()
    data["inject_fault"] = False
    assert config_from_dict(data).faults == FaultScenario.none()


def test_config_from_dict_rejects_contradictory_legacy_flag():
    from repro.core.configs import config_from_dict

    data = dict(LEGACY_PAYLOAD)
    data["faults"] = {"kind": "none"}
    with pytest.raises(ConfigurationError, match="contradicts"):
        config_from_dict(data)
    data["inject_fault"] = False
    data["faults"] = {"kind": "poisson", "mtbf_iters": 10.0}
    with pytest.raises(ConfigurationError, match="contradicts"):
        config_from_dict(data)


def test_legacy_record_summarises_under_its_run_key():
    """A record a 1.x sweep stored reads back through
    campaign_results_from_records, and the config it rebuilds mints
    the record's own (pinned) run key — so 2.0 resumes 1.x stores."""
    from repro.core.campaign import campaign_results_from_records
    from repro.core.configs import config_from_dict, config_to_dict, run_key

    # the payload itself survives a load/dump cycle byte-identically
    assert config_to_dict(config_from_dict(LEGACY_PAYLOAD)) \
        == LEGACY_PAYLOAD

    records = {}
    for rep, key in enumerate(("149ec4c1350d77f1", "c361c7f6f6eb7c07")):
        records[key] = {
            "key": key, "rep": rep, "config": dict(LEGACY_PAYLOAD),
            "result": {"config_label": "hpccg/REINIT-FTI/p8/small/fault",
                       "breakdown": {"total_seconds": 1.0 + rep},
                       "verified": True}}
        assert run_key(config_from_dict(LEGACY_PAYLOAD), rep) == key
    summaries = campaign_results_from_records(records)
    assert list(summaries) == ["hpccg/REINIT-FTI/p8/small/fault"]
    result = summaries["hpccg/REINIT-FTI/p8/small/fault"]
    assert [r.breakdown.total_seconds for r in result.runs] == [1.0, 2.0]
    assert result.all_verified


def test_with_faults_returns_rescoped_copy():
    cfg = ExperimentConfig(app="hpccg", design="reinit-fti",
                           faults="single")
    poisson = cfg.with_faults("poisson:7")
    assert poisson.faults.kind == "poisson"
    assert cfg.faults.kind == "single"  # frozen original
    clean = cfg.with_faults("none")
    assert not clean.faults.injects


# -- the canonical checkpoint-interval field --------------------------------
def test_interval_defaults_to_fti_stride():
    cfg = ExperimentConfig(app="hpccg", design="reinit-fti")
    assert cfg.interval == cfg.fti.ckpt_stride == 10


def test_interval_int_sets_the_stride():
    cfg = ExperimentConfig(app="hpccg", design="reinit-fti", interval=7)
    assert cfg.fti.ckpt_stride == 7
    assert cfg.interval == 7


def test_interval_and_legacy_stride_mint_identical_run_keys():
    """The canonical field is sugar over fti.ckpt_stride: however the
    stride is spelled, the run key — and therefore resumability against
    pre-interval stores — is bit-identical."""
    from repro.core.configs import run_key
    from repro.fti.config import FtiConfig

    base = dict(app="hpccg", design="reinit-fti", faults="single")
    legacy = ExperimentConfig(fti=FtiConfig(ckpt_stride=7), **base)
    canonical = ExperimentConfig(interval=7, **base)
    assert run_key(legacy, 0) == run_key(canonical, 0)
    # and the implicit default interval changes nothing at all
    assert run_key(ExperimentConfig(**base), 0) \
        == run_key(ExperimentConfig(interval=10, **base), 0)


def test_interval_never_enters_the_config_payload():
    from repro.core.configs import config_from_dict, config_to_dict

    cfg = ExperimentConfig(app="hpccg", design="reinit-fti", interval=5)
    data = config_to_dict(cfg)
    assert "interval" not in data
    assert data["fti"]["ckpt_stride"] == 5
    rebuilt = config_from_dict(data)
    assert rebuilt == cfg
    assert rebuilt.interval == 5


def test_interval_tolerated_in_incoming_payloads():
    """A payload that *does* carry the key (a forward-compatible tool)
    still loads, as long as it agrees with the stride."""
    from repro.core.configs import config_from_dict, config_to_dict

    cfg = ExperimentConfig(app="hpccg", design="reinit-fti", interval=5)
    data = config_to_dict(cfg)
    data["interval"] = 5
    assert config_from_dict(data) == cfg


def test_interval_contradicting_explicit_stride_raises():
    from repro.fti.config import FtiConfig

    with pytest.raises(ConfigurationError, match="contradicts"):
        ExperimentConfig(app="hpccg", design="reinit-fti", interval=5,
                         fti=FtiConfig(ckpt_stride=20))
    # agreement (or the untouched default) is fine
    ExperimentConfig(app="hpccg", design="reinit-fti", interval=20,
                     fti=FtiConfig(ckpt_stride=20))


def test_interval_rejects_junk():
    for bad in (0, -3, "fast", 2.5, True):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(app="hpccg", design="reinit-fti",
                             interval=bad)


def test_interval_auto_resolves_via_the_model():
    cfg = ExperimentConfig(app="hpccg", design="reinit-fti",
                           faults="poisson:5", interval="auto")
    assert isinstance(cfg.interval, int)
    assert 1 <= cfg.interval <= 60
    assert cfg.fti.ckpt_stride == cfg.interval
    # deterministic: auto is sugar for the resolved stride, run keys
    # and labels included
    from repro.core.configs import run_key

    again = ExperimentConfig(app="hpccg", design="reinit-fti",
                             faults="poisson:5", interval="auto")
    explicit = ExperimentConfig(app="hpccg", design="reinit-fti",
                                faults="poisson:5", interval=cfg.interval)
    assert run_key(cfg, 0) == run_key(again, 0) == run_key(explicit, 0)


def test_with_interval_rescopes_a_copy():
    cfg = ExperimentConfig(app="hpccg", design="reinit-fti", interval=5)
    recut = cfg.with_interval(15)
    assert recut.interval == recut.fti.ckpt_stride == 15
    assert cfg.interval == 5  # original untouched
    assert cfg.with_interval("auto").interval >= 1


def test_with_interval_rejects_none():
    """None must not silently reset an explicit stride to the default
    (the unset-optional-plumbed-through footgun)."""
    cfg = ExperimentConfig(app="hpccg", design="reinit-fti", interval=7)
    with pytest.raises(ConfigurationError, match="with_interval"):
        cfg.with_interval(None)
