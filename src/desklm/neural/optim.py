"""Adam optimizer, plain and lazy.

Gradients are read from the parameters themselves (``Tensor.grad``); a
parameter whose ``grad`` is ``None`` has a zero gradient.  Plain Adam
still decays such a parameter's moments.  The lazy variant leaves
parameter rows whose gradient rows are entirely zero untouched: values,
both moments and the per-row step counters used for bias correction all
stay bit-identical, so a parameter with no gradient is left as it was.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor


@dataclass(frozen=True)
class AdamConfig:
    beta1: float = 0.9
    beta2: float = 0.98
    eps: float = 1e-8
    lazy: bool = False

    def __post_init__(self):
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("betas must lie in [0, 1)")
        if not self.eps > 0.0:
            raise ValueError("eps must be positive")


class AdamState:
    """Per-parameter first/second moments and step counters.

    In lazy mode the counter is a per-row array; in plain mode a scalar.
    """

    def __init__(self):
        self.moments: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self.steps: dict[str, np.ndarray | int] = {}

    def ensure(self, name: str, value: np.ndarray, lazy: bool) -> None:
        if name in self.moments:
            return
        self.moments[name] = (
            np.zeros_like(value, dtype=np.float64),
            np.zeros_like(value, dtype=np.float64),
        )
        self.steps[name] = np.zeros(value.shape[0], dtype=np.int64) if lazy and value.ndim > 0 else 0


def adam_step(
    params: dict[str, Tensor],
    state: AdamState,
    config: AdamConfig,
    lr: float,
) -> None:
    """Apply one bias-corrected Adam update in place, reading each
    parameter's gradient from ``p.grad`` (``None`` counts as zero).

    Plain Adam updates every element; lazy Adam only the rows (along the
    first axis) whose gradient is nonzero somewhere, each with its own
    step counter.  A 0-dim parameter is always updated plainly.  Raises
    on non-finite gradients, naming the offending parameter.
    """
    for name in sorted(params):
        param = params[name]
        if param.grad is None:
            grad = np.zeros(param.data.shape)
        else:
            grad = np.asarray(param.grad, dtype=np.float64)
            if not np.isfinite(grad).all():
                raise FloatingPointError(f"non-finite gradient for parameter {name!r}")
        state.ensure(name, param.data, config.lazy)
        m, v = state.moments[name]

        if config.lazy and param.data.ndim > 0:
            rows = np.nonzero(grad.reshape(grad.shape[0], -1).any(axis=1))[0]
            state.steps[name][rows] += 1
            t = state.steps[name][rows].reshape((-1,) + (1,) * (grad.ndim - 1))
        else:
            rows = ...
            t = state.steps[name] = state.steps[name] + 1
        g = grad[rows]
        m[rows] *= config.beta1
        m[rows] += (1 - config.beta1) * g
        v[rows] *= config.beta2
        v[rows] += (1 - config.beta2) * g**2
        m_hat = m[rows] / (1 - config.beta1**t)
        v_hat = v[rows] / (1 - config.beta2**t)
        param.data[rows] -= (lr * m_hat / (np.sqrt(v_hat) + config.eps)).astype(param.data.dtype)


def zero_grads(params: dict[str, Tensor]) -> None:
    for p in params.values():
        p.zero_grad()
