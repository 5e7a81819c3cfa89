"""Run configuration: one dataclass tree with the published defaults, loadable
from a JSON key-value file."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

from .fusion import FusionConfig
from .losses import LossWeights, NormKind
from .planesweep import SweepConfig


@dataclass
class RunConfig:
    n_views: int = 5
    norm_exponent: float = 0.5
    eps_grad: float = 1e-4
    weights: LossWeights = field(default_factory=LossWeights)
    total_epochs: int = 16
    epoch: int = 0
    iterations: int = 50
    seed: int = 0
    sweep: SweepConfig = field(default_factory=SweepConfig)
    fusion: FusionConfig = field(default_factory=FusionConfig)

    def norm(self) -> NormKind:
        return NormKind(self.norm_exponent, self.eps_grad)


def _build(cls, data: dict):
    kwargs = {}
    fields = {f.name: f for f in dataclasses.fields(cls)}
    for key, value in data.items():
        if key not in fields:
            raise ValueError(f"unknown config key {key!r} for {cls.__name__}")
        if isinstance(value, dict):
            sub = {"weights": LossWeights, "sweep": SweepConfig,
                   "fusion": FusionConfig}.get(key)
            if sub is None:
                raise ValueError(f"config key {key!r} does not take a table")
            value = _build(sub, value)
        elif isinstance(value, list):
            value = tuple(value)
        kwargs[key] = value
    return cls(**kwargs)


def load_config(path) -> RunConfig:
    data = json.loads(Path(path).read_text())
    return _build(RunConfig, data)
