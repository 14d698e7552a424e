"""Tests for the learning-rate schedules and their pinned constants."""

import pytest

from desklm.config import ExperimentConfig
from desklm.neural.schedule import ScheduleConfig, schedule_lr

#: The pretraining recipe: the config default that carries it.
RECIPE = ExperimentConfig().schedule


class TestPolynomialDecay:
    def test_peak_exactly_at_warmup_end(self):
        config = RECIPE
        assert schedule_lr(config, 10_000) == 7e-4

    def test_zero_at_step_zero(self):
        assert schedule_lr(RECIPE, 0) == 0.0

    def test_linear_interpolation_midpoint(self):
        config = RECIPE
        expected = 7e-4 * (91_075 - 50_538) / (91_075 - 10_000)
        assert schedule_lr(config, 50_538) == pytest.approx(expected, rel=1e-12)

    def test_clamps_to_end_value_beyond_total(self):
        config = ScheduleConfig(
            kind="polynomial_decay", peak_lr=1e-3, warmup_steps=10, total_steps=100,
        )
        assert schedule_lr(config, 100) == 0.0
        assert schedule_lr(config, 10_000) == 0.0

    def test_continuity_at_warmup_boundary(self):
        config = RECIPE
        left = schedule_lr(config, 10_000 - 1e-9)
        right = schedule_lr(config, 10_000 + 1e-9)
        assert abs(left - right) < 1e-12

    def test_warmup_beyond_total_rejected(self):
        for kind in ("polynomial_decay", "cosine_warmup_decay"):
            with pytest.raises(ValueError, match="^warmup_steps must not exceed total_steps$"):
                ScheduleConfig(kind=kind, peak_lr=1.0, warmup_steps=10, total_steps=5)


class TestCosineWarmupDecay:
    """The sentiment protocol's shape: 4 warmup and 10 decay epochs."""

    def test_pinned_epoch_values(self):
        config = ScheduleConfig("cosine_warmup_decay", 3e-5, 4.0, 14.0)
        assert schedule_lr(config, 0.0) == 0.0
        assert schedule_lr(config, 4.0) == pytest.approx(3e-5, rel=1e-12)
        assert schedule_lr(config, 14.0) == pytest.approx(0.0, abs=1e-20)

    def test_halfway_points(self):
        config = ScheduleConfig("cosine_warmup_decay", 1.0, 4.0, 14.0)
        assert schedule_lr(config, 2.0) == pytest.approx(0.5, rel=1e-12)
        assert schedule_lr(config, 9.0) == pytest.approx(0.5, rel=1e-12)

    def test_continuity_at_peak(self):
        config = ScheduleConfig("cosine_warmup_decay", 2e-5, 4.0, 14.0)
        left = schedule_lr(config, 4.0 - 1e-9)
        right = schedule_lr(config, 4.0 + 1e-9)
        assert abs(left - right) < 1e-12

    def test_zero_after_decay(self):
        assert schedule_lr(ScheduleConfig("cosine_warmup_decay", 1.0, 4.0, 14.0), 15.0) == 0.0


class TestValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ScheduleConfig(kind="linear", peak_lr=1.0, warmup_steps=0, total_steps=1)

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            schedule_lr(RECIPE, -1)

    def test_nonpositive_peak_rejected(self):
        with pytest.raises(ValueError, match="peak_lr"):
            ScheduleConfig("cosine_warmup_decay", 0.0, 4.0, 14.0)

    @pytest.mark.parametrize("key", ["warmup_steps", "total_steps"])
    def test_negative_length_rejected_by_name(self, key):
        lengths = {"warmup_steps": 0, "total_steps": 0, key: -1}
        with pytest.raises(ValueError, match=f"^{key} must be >= 0, got -1$"):
            ScheduleConfig("cosine_warmup_decay", peak_lr=1.0, **lengths)


class TestZeroLengthPhases:
    def test_cosine_without_warmup_starts_at_peak(self):
        config = ScheduleConfig("cosine_warmup_decay", 1e-3, 0.0, 10.0)
        assert schedule_lr(config, 0) == 1e-3
        assert schedule_lr(config, 5.0) == pytest.approx(5e-4, rel=1e-12)

    def test_cosine_without_warmup_or_decay_is_zero(self):
        config = ScheduleConfig("cosine_warmup_decay", 1e-3, 0.0, 0.0)
        assert schedule_lr(config, 0) == 0.0
        assert schedule_lr(config, 1.0) == 0.0
