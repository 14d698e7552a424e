"""Tests for the autodiff core and the finite-difference checker."""

import numpy as np
import pytest

from desklm.neural.layers import attention, layer_norm
from desklm.neural.tensor import Tensor, concat, log_softmax, logsumexp, softmax

from gradcheck import gradient_check


def _param(values):
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)


class TestBasicOps:
    def test_quadratic_gradient_matches_closed_form(self):
        x = _param(3.0)
        report = gradient_check(lambda: x * x, {"x": x}, tolerance=1e-8)
        x.zero_grad()
        loss = x * x
        loss.backward()
        assert x.grad == pytest.approx(6.0)
        assert report.passed
        assert report.max_error < 1e-8

    def test_corrupted_gradient_is_detected(self):
        x = _param(3.0)
        report = gradient_check(
            lambda: x * x,
            {"x": x},
            tolerance=1e-3,
            analytic={"x": np.asarray(5.0)},
        )
        assert not report.passed
        assert report.errors["x"] > 1e-3

    def test_broadcast_add_backward(self):
        a = _param(np.ones((2, 3)))
        b = _param(np.ones(3))
        (a + b).sum().backward()
        assert a.grad.shape == (2, 3)
        assert np.array_equal(b.grad, np.full(3, 2.0))

    def test_matmul_backward(self):
        a = _param(np.arange(6.0).reshape(2, 3))
        b = _param(np.arange(12.0).reshape(3, 4))
        (a @ b).sum().backward()
        assert np.allclose(a.grad, b.data.sum(axis=1))
        assert np.allclose(b.grad, a.data.sum(axis=0)[:, None])

    @pytest.mark.parametrize(
        "key",
        [2, (slice(1, 3),), (slice(None), 0), (Ellipsis, slice(0, 2)), (1, None),
         np.array([0, 2, 2]), (np.array([1, 3]), np.array([0, 1])),
         np.array([True, False, True, False])],
    )
    def test_getitem_backward_matches_a_scatter_add(self, key):
        w = _param(np.arange(8.0).reshape(4, 2))
        # Integer values keep every sum exact, whatever the order.
        weights = np.random.RandomState(5).randint(-5, 6, size=w.data[key].shape) * 1.0
        # Two selections, so at least one adds into an existing gradient.
        picked = (w[key] * Tensor(weights)).sum() + (w[key] * Tensor(weights)).sum()
        (picked + (w * w).sum()).backward()
        expected = 2 * w.data
        np.add.at(expected, key, 2 * weights)
        assert np.array_equal(w.grad, expected)

    def test_getitem_scatter_accumulates_duplicates(self):
        w = _param(np.zeros((4, 2)))
        idx = np.array([1, 1, 3])
        w[idx].sum().backward()
        assert np.array_equal(w.grad[:, 0], np.array([0.0, 2.0, 0.0, 1.0]))

    def test_elementwise_composite_gradients(self):
        x = _param(np.array([-1.2, 0.3, 2.0]))

        def f():
            return (x.tanh() + x.sigmoid() + x.gelu() + x.exp()).sum()

        assert gradient_check(f, {"x": x}).passed

    def test_reshape_transpose_concat(self):
        a = _param(np.arange(6.0).reshape(2, 3))
        b = _param(np.arange(6.0, 12.0).reshape(2, 3))

        def f():
            joined = concat([a, b], axis=0)
            flat = joined.reshape(12)
            return (joined.transpose(1, 0) @ joined).sum() + (flat * flat).sum()

        assert gradient_check(f, {"a": a, "b": b}).passed

    def test_backward_requires_scalar(self):
        x = _param(np.ones(3))
        with pytest.raises(ValueError):
            (x * 2).backward()


class TestMean:
    def test_tuple_and_negative_axis_values(self):
        data = np.arange(24.0).reshape(2, 3, 4)
        x = Tensor(data)
        assert np.allclose(x.mean(axis=(0, 1)).data, data.mean(axis=(0, 1)))
        assert np.allclose(x.mean(axis=(0, -1), keepdims=True).data,
                           data.mean(axis=(0, -1), keepdims=True))
        assert np.allclose(x.mean(axis=-2).data, data.mean(axis=-2))
        assert x.mean().data == pytest.approx(data.mean())

    @pytest.mark.parametrize("axis", [(0, 1), (-1, 0), -1, -2])
    def test_gradient(self, axis):
        x = _param(np.random.RandomState(3).randn(2, 3, 4))
        weights = Tensor(np.random.RandomState(4).randn(2, 3, 4))

        def f():
            mean = (x * weights).mean(axis=axis)
            return (mean * mean).sum()

        report = gradient_check(f, {"x": x}, tolerance=1e-6)
        assert report.passed


class TestSoftmaxFamily:
    def test_softmax_rows_sum_to_one(self):
        x = Tensor(np.random.RandomState(0).randn(5, 7) * 20)
        result = softmax(x, axis=-1)
        assert np.allclose(result.data.sum(axis=-1), 1.0, atol=1e-6)

    def test_log_softmax_matches_reference(self):
        data = np.random.RandomState(1).randn(4, 6)
        ours = log_softmax(Tensor(data), axis=-1).data
        reference = data - np.log(np.exp(data).sum(axis=-1, keepdims=True))
        assert np.allclose(ours, reference, atol=1e-12)

    def test_logsumexp_is_stable(self):
        data = np.array([[1000.0, 1000.0]])
        value = logsumexp(Tensor(data), axis=-1)
        assert np.allclose(value.data, 1000.0 + np.log(2.0))

    def test_softmax_gradient(self):
        x = _param(np.random.RandomState(2).randn(3, 4))
        weights = Tensor(np.random.RandomState(3).randn(3, 4))
        assert gradient_check(lambda: (softmax(x, axis=-1) * weights).sum(), {"x": x}).passed

    def test_gradient_through_logsumexp(self):
        x = _param(np.random.RandomState(4).randn(5))
        assert gradient_check(lambda: logsumexp(x, axis=-1), {"x": x}).passed


class TestGraphMechanics:
    def test_grad_accumulates_across_uses(self):
        x = _param(2.0)
        y = x * 3 + x * 4
        y.backward()
        assert x.grad == pytest.approx(7.0)

    def test_constant_view_blocks_gradient(self):
        x = _param(2.0)
        (Tensor(x.data) * x).backward()
        assert x.grad == pytest.approx(2.0)

    def test_non_finite_loss_raises(self):
        x = _param(np.inf)
        with pytest.raises(FloatingPointError):
            gradient_check(lambda: x * 1.0, {"x": x})


GRAPH_OPS = {
    "add": lambda x: x + x,
    "neg": lambda x: -x,
    "mul": lambda x: x * x,
    "matmul": lambda x: x @ x,
    "exp": lambda x: x.exp(),
    "log": lambda x: x.log(),
    "tanh": lambda x: x.tanh(),
    "sigmoid": lambda x: x.sigmoid(),
    "gelu": lambda x: x.gelu(),
    "reshape": lambda x: x.reshape(4),
    "transpose": lambda x: x.transpose(),
    "getitem": lambda x: x[0],
    "sum": lambda x: x.sum(),
    "concat": lambda x: concat([x, x]),
    "softmax": lambda x: softmax(x),
    "layer_norm": lambda x: layer_norm(x, x[0], x[1]),
    "attention": lambda x: attention(*[x.reshape(1, 1, 2, 2)] * 3, bias=np.zeros(2)),
}


class TestGraphNodes:
    @pytest.mark.parametrize("op", GRAPH_OPS.values(), ids=GRAPH_OPS.keys())
    def test_node_over_constants_keeps_no_closure(self, op):
        out = op(Tensor(np.array([[1.0, 2.0], [3.0, 5.0]])))
        assert not out.requires_grad
        assert out._parents == ()
        assert out._backward is None
