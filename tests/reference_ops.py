"""Unfused reference compositions of ``gelu``, ``layer_norm``, ``softmax``
and ``attention``, and the full-row masked-LM head.

Each builds the same graph, node for node and in the same arithmetic, as
the transformer's ops did before they were fused, so patching them in
with ``install`` reproduces the goldens recorded before the fusion
exactly.  ``_power`` and ``_divide`` are the generic power and division
nodes these compositions were built from.  ``full_row_logits`` stands in
for ``mlm._masked_logits``: it scores every row of a last layer run at
every position and leaves the selection of the targeted ones to
``mlm_loss``.
"""

import math

import numpy as np

from desklm.neural import layers, mlm
from desklm.neural.tensor import Tensor, _unbroadcast


def _power(x: Tensor, exponent: float) -> Tensor:
    out = Tensor(x.data**exponent, parents=(x,))
    out._backward = lambda g: x._accumulate(g * exponent * x.data ** (exponent - 1))
    return out


def _divide(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data / b.data, parents=(a, b))

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g / b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g * a.data / (b.data**2), b.shape))

    out._backward = backward
    return out


def gelu(self: Tensor) -> Tensor:
    """Tanh-approximation GELU with the cube taken by ``x**3``."""
    x = self.data
    c, a = x.dtype.type(np.sqrt(2.0 / np.pi)), x.dtype.type(0.044715)
    inner = c * (x + a * x**3)
    t = np.tanh(inner)
    out = Tensor(0.5 * x * (1.0 + t), parents=(self,))

    def backward(g):
        dinner = c * (1.0 + 3 * a * x**2)
        local = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * dinner
        self._accumulate(g * local)

    out._backward = backward
    return out


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = _power(centered, 2).mean(axis=-1, keepdims=True)
    return centered * _power(var + eps, -0.5) * gain + bias


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shift = Tensor(np.max(x.data, axis=axis, keepdims=True))
    e = (x - shift).exp()
    return _divide(e, e.sum(axis=axis, keepdims=True))


def attention(q: Tensor, k: Tensor, v: Tensor, bias) -> Tensor:
    """Matmul, scale, bias and ``layers.softmax`` (looked up at call time,
    so ``install`` reaches the reference softmax), then matmul."""
    scores = (q @ k.transpose(0, 1, 3, 2)) * (1.0 / math.sqrt(q.shape[-1])) + Tensor(bias)
    return layers.softmax(scores, axis=-1) @ v


def full_row_logits(params, hidden, target_ids, rows):
    """MLM-head logits of every last-layer row, with every target."""
    return layers.mlm_logits(params, hidden[-1]), target_ids


def install_full_row_head(monkeypatch) -> None:
    """Run ``train_mlm``'s last layer at every row (no ``rows``) and score
    them all through ``full_row_logits``.  Not for ``eval_masked_accuracy``,
    which counts every row the head returns."""
    monkeypatch.setattr(mlm, "_target_rows", lambda target_ids: None)
    monkeypatch.setattr(mlm, "_masked_logits", full_row_logits)


def install(monkeypatch) -> None:
    """Route every caller of the four ops through the reference copies."""
    monkeypatch.setattr(Tensor, "gelu", gelu)
    monkeypatch.setattr(layers, "layer_norm", layer_norm)
    monkeypatch.setattr(layers, "softmax", softmax)
    monkeypatch.setattr(layers, "attention", attention)
