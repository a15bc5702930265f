"""Clean fixture: SCHEMA-RUN-KEY (payload matches manifest v2)."""
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
    interval: float = 0.0


def config_to_dict(config):
    data = dataclasses.asdict(config)
    del data["interval"]
    data["inject_fault"] = bool(config.faults)
    return data


def run_key(config, rep):
    payload = {"schema": RUN_KEY_SCHEMA, "rep": rep,
               "config": config_to_dict(config)}
    return repr(payload)
