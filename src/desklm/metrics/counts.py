"""Precision/recall/F1 counting triple shared by all metrics."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PrfCounts:
    """Correct/system/gold counts; ratios with zero denominators are 0."""

    correct: int
    system_total: int
    gold_total: int

    def __post_init__(self):
        if min(self.correct, self.system_total, self.gold_total) < 0:
            raise ValueError("counts must be non-negative")
        if self.correct > min(self.system_total, self.gold_total):
            raise ValueError(
                f"correct={self.correct} exceeds totals "
                f"({self.system_total}, {self.gold_total})"
            )

    @property
    def precision(self) -> float:
        return self.correct / self.system_total if self.system_total else 0.0

    @property
    def recall(self) -> float:
        return self.correct / self.gold_total if self.gold_total else 0.0

    @property
    def f1(self) -> float:
        denominator = self.system_total + self.gold_total
        return 2.0 * self.correct / denominator if denominator else 0.0

    @property
    def f1_percent(self) -> float:
        return 100.0 * self.f1

    def __add__(self, other: "PrfCounts") -> "PrfCounts":
        return PrfCounts(
            self.correct + other.correct,
            self.system_total + other.system_total,
            self.gold_total + other.gold_total,
        )
