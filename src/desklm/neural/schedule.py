"""Learning-rate schedules: a warmup phase up to ``warmup_steps`` and a
decay phase down to zero at ``total_steps``.  ``kind`` picks the curve of
both phases: ``polynomial_decay`` is linear (fairseq's at its defaults,
power 1 and end 0), ``cosine_warmup_decay`` is a half cosine.  The lengths
mean the same for both kinds; a caller that counts in epoch fractions
passes epochs."""

from __future__ import annotations

import math
from dataclasses import dataclass

KINDS = ("polynomial_decay", "cosine_warmup_decay")


@dataclass(frozen=True)
class ScheduleConfig:
    kind: str
    peak_lr: float
    warmup_steps: float
    total_steps: float

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.peak_lr <= 0:
            raise ValueError("peak_lr must be positive")
        for key in ("warmup_steps", "total_steps"):
            if getattr(self, key) < 0:
                raise ValueError(f"{key} must be >= 0, got {getattr(self, key)}")
        if self.warmup_steps > self.total_steps:
            raise ValueError("warmup_steps must not exceed total_steps")


def schedule_lr(config: ScheduleConfig, step: float) -> float:
    """Learning rate at ``step``: the phase first, then the kind's curve."""
    if step < 0:
        raise ValueError("step must be >= 0")
    peak, warmup, total = config.peak_lr, config.warmup_steps, config.total_steps
    linear = config.kind == "polynomial_decay"
    if warmup > 0 and step <= warmup:
        if linear:
            return peak * step / warmup
        return peak * (1.0 - math.cos(math.pi * step / warmup)) / 2.0
    if step >= total:
        return 0.0
    if linear:
        return peak * ((total - step) / (total - warmup))
    return peak * (1.0 + math.cos(math.pi * (step - warmup) / (total - warmup))) / 2.0
