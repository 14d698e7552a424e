"""Tests for plain and lazy Adam."""

import numpy as np
import pytest

from desklm.neural.optim import AdamConfig, AdamState, adam_step
from desklm.neural.tensor import Tensor


def _setup(values, lazy=False):
    params = {"w": Tensor(np.array(values, dtype=np.float64), requires_grad=True)}
    return params, AdamState(), AdamConfig(lazy=lazy)


def _step(params, grad, state, config, lr):
    params["w"].grad = grad
    adam_step(params, state, config, lr)


class TestPlainAdam:
    def test_zero_gradient_from_fresh_state_changes_nothing(self):
        params, state, config = _setup([[1.0, 2.0], [3.0, 4.0]])
        before = params["w"].data.copy()
        _step(params, np.zeros((2, 2)), state, config, lr=0.1)
        assert np.array_equal(params["w"].data, before)
        m, v = state.moments["w"]
        assert np.all(m == 0.0) and np.all(v == 0.0)

    @pytest.mark.parametrize("no_grad", ["zeros", "none"])
    def test_moments_decay_by_beta_factors_on_zero_gradient(self, no_grad):
        # A parameter with no gradient (grad is None) counts as a zero one.
        params, state, config = _setup([[1.0, 2.0]])
        g = np.array([[0.5, -0.25]])
        _step(params, g, state, config, lr=0.1)
        m1, v1 = (a.copy() for a in state.moments["w"])
        _step(params, np.zeros_like(g) if no_grad == "zeros" else None, state, config, lr=0.1)
        m2, v2 = state.moments["w"]
        assert np.array_equal(m2, config.beta1 * m1)
        assert np.array_equal(v2, config.beta2 * v1)
        assert state.steps["w"] == 2

    @pytest.mark.parametrize(
        "start, g",
        [([0.0, 0.0, 0.0], [0.3, -2.0, 5.0]), (0.0, -2.0)],
        ids=["vector", "scalar"],
    )
    def test_first_step_is_signed_lr(self, start, g):
        # Closed form: m_hat = g, v_hat = g^2, update = -lr * g / (|g| + eps).
        params, state, config = _setup(start)
        g = np.array(g)
        _step(params, g, state, config, lr=1e-2)
        assert params["w"].data.shape == g.shape
        assert np.allclose(params["w"].data, -1e-2 * np.sign(g), atol=1e-6)

    @pytest.mark.parametrize("lazy", [False, True], ids=["plain", "lazy"])
    def test_non_finite_gradient_names_parameter(self, lazy):
        # "a" sorts before "w" and has a finite gradient: the raise must
        # come before "a" is stepped.
        params, state, config = _setup([1.0, 2.0], lazy=lazy)
        params["a"] = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        params["a"].grad = np.array([0.5, -0.5])
        _step(params, np.array([0.5, -0.5]), state, config, lr=0.1)
        values = {name: p.data.copy() for name, p in params.items()}
        moments = {name: (m.copy(), v.copy()) for name, (m, v) in state.moments.items()}
        steps = {name: np.copy(t) for name, t in state.steps.items()}
        with pytest.raises(FloatingPointError, match="'w'"):
            _step(params, np.array([0.0, np.nan]), state, config, lr=0.1)
        for name, p in params.items():
            assert np.array_equal(p.data, values[name])
            assert np.array_equal(state.moments[name][0], moments[name][0])
            assert np.array_equal(state.moments[name][1], moments[name][1])
            assert np.array_equal(state.steps[name], steps[name])


class TestLazyAdam:
    def test_zero_rows_untouched_bitwise(self):
        params, state, config = _setup(np.arange(12.0).reshape(4, 3), lazy=True)
        # Take one real step so moments become nonzero, then a step with
        # rows 1 and 3 inactive.
        _step(params, np.ones((4, 3)), state, config, lr=0.05)
        before = params["w"].data.copy()
        m_before, v_before = (a.copy() for a in state.moments["w"])
        t_before = state.steps["w"].copy()

        grad = np.ones((4, 3))
        grad[1] = 0.0
        grad[3] = 0.0
        _step(params, grad, state, config, lr=0.05)

        for row in (1, 3):
            assert np.array_equal(params["w"].data[row], before[row])
            assert np.array_equal(state.moments["w"][0][row], m_before[row])
            assert np.array_equal(state.moments["w"][1][row], v_before[row])
            assert state.steps["w"][row] == t_before[row]
        for row in (0, 2):
            assert not np.array_equal(params["w"].data[row], before[row])
            assert state.steps["w"][row] == t_before[row] + 1

    def test_no_gradient_untouched_bitwise(self):
        # grad None is a zero gradient: every row is inactive, as above.
        params, state, config = _setup(np.arange(12.0).reshape(4, 3), lazy=True)
        _step(params, np.ones((4, 3)), state, config, lr=0.05)
        before = params["w"].data.copy()
        m_before, v_before = (a.copy() for a in state.moments["w"])
        t_before = state.steps["w"].copy()

        _step(params, None, state, config, lr=0.05)

        assert np.array_equal(params["w"].data, before)
        assert np.array_equal(state.moments["w"][0], m_before)
        assert np.array_equal(state.moments["w"][1], v_before)
        assert np.array_equal(state.steps["w"], t_before)

    def test_coincides_with_plain_when_all_rows_active(self):
        rng = np.random.RandomState(0)
        start = rng.randn(5, 4)
        plain_params, plain_state, plain_cfg = _setup(start.copy())
        lazy_params, lazy_state, lazy_cfg = _setup(start.copy(), lazy=True)
        for step in range(10):
            g = rng.randn(5, 4)
            g[np.abs(g) < 0.05] = 0.05  # keep every row nonzero
            _step(plain_params, g, plain_state, plain_cfg, lr=0.01)
            _step(lazy_params, g, lazy_state, lazy_cfg, lr=0.01)
        assert np.allclose(plain_params["w"].data, lazy_params["w"].data, atol=1e-12)

    def test_per_row_bias_correction_matches_dense_replay(self):
        # A row active at steps 1 and 3 must behave as if those were its
        # only steps (its own t counts 1, 2).
        config = AdamConfig(lazy=True)
        params, state, _ = _setup(np.zeros((2, 1)), lazy=True)
        g1 = np.array([[1.0], [1.0]])
        g2 = np.array([[1.0], [0.0]])
        g3 = np.array([[1.0], [1.0]])
        for g in (g1, g2, g3):
            _step(params, g, state, config, lr=0.01)

        ref_params, ref_state, _ = _setup(np.zeros((1, 1)), lazy=True)
        for g in (np.array([[1.0]]), np.array([[1.0]])):
            _step(ref_params, g, ref_state, config, lr=0.01)
        assert np.allclose(params["w"].data[1], ref_params["w"].data[0], atol=1e-15)


class TestAdamConfig:
    def test_beta_bounds_validated(self):
        with pytest.raises(ValueError):
            AdamConfig(beta1=1.0)
        with pytest.raises(ValueError):
            AdamConfig(beta2=-0.1)

    def test_eps_must_be_positive(self):
        # eps = 0 turns a zero first gradient into 0/0 = NaN.
        for eps in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="eps"):
                AdamConfig(eps=eps)
