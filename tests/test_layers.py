"""Tests for transformer, layer norm, scalar mix, pooling and BiGRU."""

import math

import numpy as np
import pytest

from desklm.neural.gradcheck import gradient_check
from desklm.neural.layers import (
    TransformerConfig,
    birnn_layer,
    forward_transformer,
    init_birnn_params,
    init_transformer_params,
    layer_norm,
    mlm_logits,
    mlm_loss,
    pool_subwords,
    scalar_mix,
)
from desklm.neural.tensor import Tensor, softmax

import reference_ops


TINY = TransformerConfig(
    layers=2, hidden=16, heads=2, ff_dim=32, vocab_size=50, max_positions=16
)


def _params64(config, seed=0):
    return init_transformer_params(config, seed=seed, dtype=np.float64)


class TestTransformerForward:
    def test_float32_parameters_give_float32_outputs(self):
        params = init_transformer_params(TINY, seed=0, dtype=np.float32)
        ids = np.array([[1, 4, 9, 2], [3, 3, 0, 2]])
        outputs = forward_transformer(TINY, params, ids, pad_mask=ids != 0)
        assert [o.data.dtype for o in outputs] == [np.float32] * (TINY.layers + 1)
        assert mlm_logits(TINY, params, outputs[-1]).data.dtype == np.float32

    def test_returns_all_layer_outputs_with_shape(self):
        params = _params64(TINY)
        ids = np.array([[1, 4, 9, 2], [3, 3, 0, 2]])
        outputs = forward_transformer(TINY, params, ids)
        assert len(outputs) == TINY.layers + 1
        assert all(o.shape == (2, 4, TINY.hidden) for o in outputs)

    def test_attention_rows_sum_to_one(self):
        params = _params64(TINY)
        ids = np.array([[5, 6, 7, 8, 9]])
        sink = []
        forward_transformer(TINY, params, ids, attention_sink=sink)
        assert len(sink) == TINY.layers
        for attn in sink:
            assert np.allclose(attn.data.sum(axis=-1), 1.0, atol=1e-6)

    def test_padding_mask_blocks_attention(self):
        params = _params64(TINY)
        ids = np.array([[5, 6, 7, 2, 2]])
        mask = np.array([[True, True, True, False, False]])
        sink = []
        forward_transformer(TINY, params, ids, pad_mask=mask, attention_sink=sink)
        for attn in sink:
            assert np.all(attn.data[0, :, :, 3:] < 1e-6)

    def test_bounds_errors(self):
        params = _params64(TINY)
        with pytest.raises(ValueError, match="vocabulary"):
            forward_transformer(TINY, params, np.array([[TINY.vocab_size]]))
        with pytest.raises(ValueError, match="max positions"):
            forward_transformer(TINY, params, np.zeros((1, 17), dtype=int))

    def test_full_mlm_gradient_check(self):
        config = TransformerConfig(
            layers=1, hidden=8, heads=2, ff_dim=12, vocab_size=11, max_positions=6
        )
        params = _params64(config, seed=3)
        ids = np.array([[1, 5, 7, 9], [2, 4, 6, 8]])
        targets = np.array([[5, -100, 9, -100], [-100, 6, -100, 1]])

        def loss_fn():
            hidden = forward_transformer(config, params, ids)
            return mlm_loss(mlm_logits(config, params, hidden[-1]), targets)

        report = gradient_check(loss_fn, params, tolerance=1e-3)
        assert report.passed, report.failing()


class TestMlmLoss:
    def test_one_hot_correct_logits_drive_loss_to_zero(self):
        targets = np.array([[0, 1, 2]])
        logits = np.full((1, 3, 4), -1000.0)
        for position, target in enumerate(targets[0]):
            logits[0, position, target] = 1000.0
        loss = mlm_loss(Tensor(logits), targets)
        assert float(loss.data) == pytest.approx(0.0, abs=1e-9)

    def test_uniform_logits_give_log_vocab(self):
        vocab = 37
        logits = Tensor(np.zeros((2, 5, vocab)))
        targets = np.random.RandomState(0).randint(0, vocab, size=(2, 5))
        loss = mlm_loss(logits, targets)
        assert float(loss.data) == pytest.approx(math.log(vocab), rel=1e-12)

    def test_matches_independent_log_sum_exp(self):
        # Independent oracle: per-position cross entropy via plain floats.
        rng = np.random.RandomState(7)
        logits = rng.randn(2, 4, 9)
        targets = rng.randint(0, 9, size=(2, 4))
        targets[0, 1] = -100
        expected_terms = []
        for b in range(2):
            for s in range(4):
                if targets[b, s] == -100:
                    continue
                row = [float(v) for v in logits[b, s]]
                m = max(row)
                lse = m + math.log(sum(math.exp(v - m) for v in row))
                expected_terms.append(lse - row[targets[b, s]])
        expected = sum(expected_terms) / len(expected_terms)
        loss = mlm_loss(Tensor(logits), targets)
        assert float(loss.data) == pytest.approx(expected, abs=1e-10)

    def test_no_targets_is_zero_with_zero_gradient(self):
        logits = Tensor(np.random.RandomState(1).randn(1, 3, 5), requires_grad=True)
        loss = mlm_loss(logits, np.full((1, 3), -100))
        assert float(loss.data) == 0.0
        loss.backward()
        assert np.all(logits.grad == 0.0)


class TestLayerNorm:
    def test_constant_input_maps_to_zero(self):
        x = Tensor(np.full((2, 3, 8), 3.7))
        gain, bias = Tensor(np.ones(8)), Tensor(np.zeros(8))
        out = layer_norm(x, gain, bias, eps=1e-5)
        assert np.allclose(out.data, 0.0, atol=1e-6)

    def test_standardizes_last_dimension(self):
        x = Tensor(np.random.RandomState(0).randn(4, 32) * 5 + 2)
        out = layer_norm(x, Tensor(np.ones(32)), Tensor(np.zeros(32)), eps=1e-12)
        assert np.allclose(out.data.mean(axis=-1), 0.0, atol=1e-6)
        assert np.allclose(out.data.var(axis=-1), 1.0, atol=1e-6)

    def test_gradient_check(self):
        x = Tensor(np.random.RandomState(1).randn(3, 6), requires_grad=True)
        gain = Tensor(np.random.RandomState(2).randn(6), requires_grad=True)
        bias = Tensor(np.random.RandomState(3).randn(6), requires_grad=True)
        weights = Tensor(np.random.RandomState(4).randn(3, 6))

        def f():
            return (layer_norm(x, gain, bias, eps=1e-5) * weights).sum()

        assert gradient_check(f, {"x": x, "gain": gain, "bias": bias}).passed


class TestFusedOps:
    """The fused ops against finite differences and against the unfused
    reference compositions, in float64."""

    @staticmethod
    def _forward_and_grads(op, inputs, weights):
        for t in inputs.values():
            t.zero_grad()
        out = op()
        (out * weights).sum().backward()
        return out.data, {name: t.grad for name, t in inputs.items()}

    def _check(self, fused, reference, inputs):
        shape = fused().shape
        weights = Tensor(np.random.RandomState(9).randn(*shape))
        value, grads = self._forward_and_grads(fused, inputs, weights)
        expected, expected_grads = self._forward_and_grads(reference, inputs, weights)
        assert np.max(np.abs(value - expected)) <= 1e-12
        for name in inputs:
            assert np.max(np.abs(grads[name] - expected_grads[name])) <= 1e-12, name
        report = gradient_check(lambda: (fused() * weights).sum(), inputs, tolerance=1e-6)
        assert report.passed, report.failing()

    def test_layer_norm(self):
        rng = np.random.RandomState(1)
        x = Tensor(rng.randn(2, 3, 6) * 3 + 1, requires_grad=True)
        gain = Tensor(rng.randn(6), requires_grad=True)
        bias = Tensor(rng.randn(6), requires_grad=True)
        self._check(
            lambda: layer_norm(x, gain, bias, eps=1e-5),
            lambda: reference_ops.layer_norm(x, gain, bias, eps=1e-5),
            {"x": x, "gain": gain, "bias": bias},
        )

    def test_softmax_with_a_padded_column(self):
        rng = np.random.RandomState(2)
        x = Tensor(rng.randn(2, 3, 5), requires_grad=True)
        pad = Tensor(np.where(np.arange(5) == 4, -1e9, 0.0))
        self._check(
            lambda: softmax(x + pad, axis=-1),
            lambda: reference_ops.softmax(x + pad, axis=-1),
            {"x": x},
        )
        assert np.all(softmax(x + pad, axis=-1).data[..., 4] == 0.0)

    def test_gelu(self):
        x = Tensor(np.random.RandomState(3).randn(4, 7) * 2, requires_grad=True)
        self._check(lambda: x.gelu(), lambda: reference_ops.gelu(x), {"x": x})


class TestScalarMix:
    def _layers(self, count=3, shape=(2, 4)):
        rng = np.random.RandomState(0)
        return [Tensor(rng.randn(*shape)) for _ in range(count)]

    def test_equal_logits_give_arithmetic_mean(self):
        layers = self._layers()
        logits = Tensor(np.zeros(3))
        out = scalar_mix(layers, logits, gamma=1.0)
        mean = sum(l.data for l in layers) / 3
        assert np.allclose(out.data, mean, atol=1e-12)

    def test_saturated_logits_select_first_layer(self):
        layers = self._layers()
        logits = Tensor(np.array([1000.0, -1000.0, -1000.0]))
        out = scalar_mix(layers, logits, gamma=1.0)
        assert np.allclose(out.data, layers[0].data, atol=1e-6)

    def test_gradient_flows_to_logits(self):
        layers = self._layers()
        logits = Tensor(np.array([0.1, -0.2, 0.3]), requires_grad=True)
        gamma = Tensor(np.array(1.5), requires_grad=True)
        weights = Tensor(np.random.RandomState(5).randn(2, 4))

        def f():
            return (scalar_mix(layers, logits, gamma) * weights).sum()

        assert gradient_check(f, {"logits": logits, "gamma": gamma}).passed

    def test_shape_mismatch_rejected(self):
        layers = [Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4)))]
        with pytest.raises(ValueError):
            scalar_mix(layers, Tensor(np.zeros(2)), 1.0)


class TestPoolSubwords:
    def test_singleton_is_identity(self):
        emb = Tensor(np.random.RandomState(0).randn(3, 5))
        out = pool_subwords(emb, [[0], [1], [2]])
        assert np.allclose(out.data, emb.data)

    def test_two_equal_subwords_double(self):
        v = np.random.RandomState(1).randn(4)
        emb = Tensor(np.stack([v, v]))
        out = pool_subwords(emb, [[0, 1]])
        assert np.allclose(out.data, 2 * v)

    def test_permutation_invariance(self):
        emb = Tensor(np.random.RandomState(2).randn(4, 6))
        a = pool_subwords(emb, [[0, 1, 2], [3]])
        b = pool_subwords(emb, [[2, 0, 1], [3]])
        assert np.allclose(a.data, b.data)

    def test_empty_token_rejected(self):
        with pytest.raises(ValueError):
            pool_subwords(Tensor(np.zeros((2, 3))), [[0], []])

    def test_gradient_check(self):
        emb = Tensor(np.random.RandomState(3).randn(4, 3), requires_grad=True)
        weights = Tensor(np.random.RandomState(4).randn(2, 3))

        def f():
            return (pool_subwords(emb, [[0, 2], [1, 3]]) * weights).sum()

        assert gradient_check(f, {"emb": emb}).passed


class TestBirnn:
    def test_output_dimension_doubles_cell(self):
        params = init_birnn_params("rnn", 5, 7, seed=0, dtype=np.float64)
        inputs = Tensor(np.random.RandomState(0).randn(4, 5))
        out = birnn_layer(inputs, params, "rnn")
        assert out.shape == (4, 14)

    def test_length_one_directions_agree_with_shared_params(self):
        params = init_birnn_params("rnn", 5, 7, seed=1, dtype=np.float64)
        for key in list(params):
            if key.startswith("rnn.bwd."):
                params[key] = params["rnn.fwd." + key[len("rnn.bwd.") :]]
        inputs = Tensor(np.random.RandomState(1).randn(1, 5))
        out = birnn_layer(inputs, params, "rnn")
        assert np.allclose(out.data[0, :7], out.data[0, 7:], atol=1e-12)

    def test_gradient_check(self):
        params = init_birnn_params("rnn", 3, 4, seed=2, dtype=np.float64)
        inputs = Tensor(np.random.RandomState(2).randn(5, 3), requires_grad=True)
        weights = Tensor(np.random.RandomState(3).randn(5, 8))

        def f():
            return (birnn_layer(inputs, params, "rnn") * weights).sum()

        checked = dict(params)
        checked["inputs"] = inputs
        assert gradient_check(f, checked).passed
