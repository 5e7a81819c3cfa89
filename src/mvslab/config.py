"""Run configuration: one dataclass tree with the published defaults, loadable
from a JSON key-value file."""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .depthopt import OptimizerConfig
from .fileio import FileFormatError
from .fusion import FusionConfig, FusionError
from .losses import LossError, LossWeights, NormKind
from .planesweep import PlaneSweepError, SweepConfig


@dataclass
class RunConfig:
    n_views: int = 5
    norm_exponent: float = NormKind().exponent
    eps_grad: float = NormKind().eps_grad
    weights: LossWeights = field(default_factory=LossWeights)
    total_epochs: int = 16
    epoch: int = 0
    iterations: int = OptimizerConfig().iterations
    seed: int = 0
    sweep: SweepConfig = field(default_factory=SweepConfig)
    fusion: FusionConfig = field(default_factory=FusionConfig)

    def __post_init__(self):
        self.norm()  # a bad norm_exponent or eps_grad fails here, not mid-run

    def norm(self) -> NormKind:
        return NormKind(self.norm_exponent, self.eps_grad)


_COUNTS = ("n_views", "total_epochs", "epoch", "iterations")


def _typed(name: str, value, default):
    """value, checked against the type of the field's default: an int field
    takes neither a bool nor a float, and a float field takes a finite float or
    an int as a float."""
    if isinstance(default, float) and type(value) is int and abs(value) < 1e308:
        value = float(value)
    if type(value) is not type(default):
        raise FileFormatError(f"config key {name!r} takes a {type(default).__name__}, "
                              f"got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise FileFormatError(f"config key {name!r} takes a finite number, got {value!r}")
    return value


def _build(cls, data: dict):
    if not isinstance(data, dict):
        raise FileFormatError(f"{cls.__name__} must be a JSON object, "
                              f"got {type(data).__name__}")
    kwargs = {}
    fields = {f.name: f for f in dataclasses.fields(cls)}
    defaults = cls()
    for key, value in data.items():
        if key not in fields:
            raise FileFormatError(f"unknown config key {key!r} for {cls.__name__}")
        if isinstance(value, dict):
            sub = {"weights": LossWeights, "sweep": SweepConfig,
                   "fusion": FusionConfig}.get(key)
            if sub is None:
                raise FileFormatError(f"config key {key!r} does not take a table")
            value = _build(sub, value)
        else:
            value = _typed(key, value, getattr(defaults, key))
            if key in _COUNTS and value < 0:
                raise FileFormatError(f"config key {key!r} must not be negative, got {value}")
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except (FusionError, LossError, PlaneSweepError) as exc:
        raise FileFormatError(f"invalid {cls.__name__}: {exc}") from exc


def load_config(path) -> RunConfig:
    try:
        data = json.loads(Path(path).read_text())
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise FileFormatError(f"config file {path} is not JSON: {exc}") from exc
    return _build(RunConfig, data)
