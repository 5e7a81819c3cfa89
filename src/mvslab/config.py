"""Run configuration: the two settings a JSON key-value file may set, the
training epoch and the optimizer's iteration count. The seed comes from
`--seed`; the loss weights, norm, view count, sweep sharpness and fusion
thresholds are the library defaults."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

from .depthopt import OptimizerConfig, OptimizerConfigError
from .fileio import FileFormatError
from .sampling import SamplingError, curriculum


@dataclass(frozen=True)
class RunConfig:
    epoch: int = 0
    iterations: int = OptimizerConfig().iterations

    def __post_init__(self):
        # a bad value fails here, in every command, not mid-run
        curriculum(self.epoch)
        OptimizerConfig(iterations=self.iterations)


def load_config(path) -> RunConfig:
    try:
        data = json.loads(Path(path).read_text())
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise FileFormatError(f"config file {path} is not JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise FileFormatError(f"RunConfig must be a JSON object, got {type(data).__name__}")
    keys = {f.name for f in dataclasses.fields(RunConfig)}
    for key, value in data.items():
        if key not in keys:
            raise FileFormatError(f"unknown config key {key!r} for RunConfig")
        if type(value) is not int:  # neither a bool nor a float
            raise FileFormatError(f"config key {key!r} takes an int, got {value!r}")
    try:
        return RunConfig(**data)
    except (SamplingError, OptimizerConfigError) as exc:
        raise FileFormatError(f"invalid RunConfig: {exc}") from exc
