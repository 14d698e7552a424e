"""Learning-rate schedules: linear warmup then linear decay to zero
(fairseq's ``polynomial_decay`` at its defaults, power 1 and end 0), and
cosine warmup/decay parameterized by epoch fraction."""

from __future__ import annotations

import math
from dataclasses import dataclass

KINDS = ("polynomial_decay", "cosine_warmup_decay")


@dataclass(frozen=True)
class ScheduleConfig:
    kind: str
    peak_lr: float
    warmup_steps: int = 0
    total_steps: int = 0
    warmup_epochs: float = 4.0
    decay_epochs: float = 10.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.peak_lr <= 0:
            raise ValueError("peak_lr must be positive")
        if self.kind == "polynomial_decay" and self.warmup_steps > self.total_steps:
            raise ValueError("warmup_steps must not exceed total_steps")


def schedule_lr(config: ScheduleConfig, step: float) -> float:
    """Learning rate at ``step`` (for the cosine kind, an epoch fraction)."""
    if step < 0:
        raise ValueError("step must be >= 0")
    if config.kind == "polynomial_decay":
        if config.warmup_steps > 0 and step <= config.warmup_steps:
            return config.peak_lr * step / config.warmup_steps
        if step >= config.total_steps:
            return 0.0
        remaining = (config.total_steps - step) / (config.total_steps - config.warmup_steps)
        return config.peak_lr * remaining

    # cosine_warmup_decay, by epoch fraction
    epoch = step
    if epoch <= config.warmup_epochs:
        return config.peak_lr * (1.0 - math.cos(math.pi * epoch / config.warmup_epochs)) / 2.0
    if epoch <= config.warmup_epochs + config.decay_epochs:
        offset = epoch - config.warmup_epochs
        return config.peak_lr * (1.0 + math.cos(math.pi * offset / config.decay_epochs)) / 2.0
    return 0.0
