"""Finite-difference gradient checking at 64-bit precision.

Central differences with step h compare analytic reverse-mode gradients
element by element; the per-parameter maximum relative error is reported
(relative to max(|analytic|, |numeric|, 1)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from desklm.neural.tensor import Tensor


@dataclass
class GradCheckReport:
    errors: dict[str, float]
    tolerance: float

    @property
    def max_error(self) -> float:
        return max(self.errors.values()) if self.errors else 0.0

    @property
    def passed(self) -> bool:
        return self.max_error < self.tolerance

    def failing(self) -> dict[str, float]:
        return {k: e for k, e in self.errors.items() if e >= self.tolerance}


def gradient_check(
    function: Callable[[], Tensor],
    params: dict[str, Tensor],
    tolerance: float = 1e-3,
    h: float = 1e-5,
    analytic: dict[str, np.ndarray] | None = None,
) -> GradCheckReport:
    """Compare reverse-mode gradients of the scalar ``function()`` against
    central finite differences for every element of ``params``.

    Parameters must hold float64 data.  ``analytic`` overrides the
    backward-pass gradients (useful for verifying a corrupted gradient is
    detected).
    """
    for name, p in params.items():
        if p.data.dtype != np.float64:
            raise ValueError(f"parameter {name!r} must be float64 for checking")

    if analytic is None:
        for p in params.values():
            p.zero_grad()
        loss = function()
        if not np.isfinite(loss.data).all():
            raise FloatingPointError("loss is not finite")
        loss.backward()
        analytic = {
            name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
            for name, p in params.items()
        }

    errors: dict[str, float] = {}
    for name, p in params.items():
        flat = p.data.reshape(-1)
        numeric = np.zeros_like(flat)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + h
            f_plus = float(function().data)
            flat[i] = original - h
            f_minus = float(function().data)
            flat[i] = original
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise FloatingPointError(f"non-finite loss while perturbing {name!r}")
            numeric[i] = (f_plus - f_minus) / (2.0 * h)
        a = analytic[name].reshape(-1)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(numeric)), 1.0)
        errors[name] = float(np.max(np.abs(a - numeric) / denom)) if flat.size else 0.0
    return GradCheckReport(errors=errors, tolerance=tolerance)
