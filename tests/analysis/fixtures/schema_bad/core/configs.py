"""Tripping fixture: SCHEMA-RUN-KEY (field and key added, no bump)."""
import dataclasses

RUN_KEY_SCHEMA = 2


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    app: str
    design: str
    nprocs: int
    input_size: str
    seed: int
    fti: object
    nnodes: int
    faults: object
    extra_knob: int = 0
    interval: float = 0.0


def config_to_dict(config):
    data = dataclasses.asdict(config)
    del data["interval"]
    data["inject_fault"] = bool(config.faults)
    data["extra_key"] = config.nprocs * 2
    return data


def run_key(config, rep):
    payload = {"schema": RUN_KEY_SCHEMA, "rep": rep,
               "config": config_to_dict(config)}
    return repr(payload)
