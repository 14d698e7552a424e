"""Model layers: pre-norm transformer encoder with MLM head, layer
normalization, scalar mix, subword pooling and bidirectional GRU layers.

All layers are pure functions of (params, inputs); parameters live in flat
``dict[str, Tensor]`` maps so the optimizer and checkpoints can treat them
uniformly.  Weight matrices are initialized uniformly at +-1/sqrt(fan_in).

The transformer runs on four fused ops, each one graph node with a
hand-written backward pass: ``layer_norm`` and ``attention`` here, and
``tensor.softmax`` and ``Tensor.gelu``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from ..batching import IGNORE_INDEX
from ..bbpe import ByteVocab
from .tensor import Tensor, _unbroadcast, concat, log_softmax, softmax


@dataclass(frozen=True)
class TransformerConfig:
    """Encoder dimensions; hidden must divide evenly into heads."""

    layers: int
    hidden: int
    heads: int
    ff_dim: int
    vocab_size: int
    max_positions: int

    def __post_init__(self):
        if self.hidden % self.heads != 0:
            raise ValueError("hidden must be divisible by heads")
        for name in ("layers", "hidden", "heads", "ff_dim", "vocab_size", "max_positions"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

    @property
    def head_dim(self) -> int:
        return self.hidden // self.heads

    def to_dict(self) -> dict:
        return asdict(self)


def uniform_param(rng: np.random.Generator, shape, fan_in: int, dtype) -> Tensor:
    scale = 1.0 / math.sqrt(fan_in)
    return Tensor(rng.uniform(-scale, scale, size=shape).astype(dtype), requires_grad=True)


def zeros_param(shape, dtype) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)


def ones_param(shape, dtype) -> Tensor:
    return Tensor(np.ones(shape, dtype=dtype), requires_grad=True)


def init_transformer_params(
    config: TransformerConfig, seed: int = 0, dtype=np.float32
) -> dict[str, Tensor]:
    rng = np.random.Generator(np.random.PCG64(seed))
    d, f, v = config.hidden, config.ff_dim, config.vocab_size
    params: dict[str, Tensor] = {
        "tok_emb": uniform_param(rng, (v, d), d, dtype),
        "pos_emb": uniform_param(rng, (config.max_positions, d), d, dtype),
    }
    for i in range(config.layers):
        prefix = f"layer{i}"
        for name in ("wq", "wk", "wv", "wo"):
            params[f"{prefix}.attn.{name}"] = uniform_param(rng, (d, d), d, dtype)
            params[f"{prefix}.attn.b{name[1]}"] = zeros_param((d,), dtype)
        params[f"{prefix}.ln1.gain"] = ones_param((d,), dtype)
        params[f"{prefix}.ln1.bias"] = zeros_param((d,), dtype)
        params[f"{prefix}.ln2.gain"] = ones_param((d,), dtype)
        params[f"{prefix}.ln2.bias"] = zeros_param((d,), dtype)
        params[f"{prefix}.ff.w1"] = uniform_param(rng, (d, f), d, dtype)
        params[f"{prefix}.ff.b1"] = zeros_param((f,), dtype)
        params[f"{prefix}.ff.w2"] = uniform_param(rng, (f, d), f, dtype)
        params[f"{prefix}.ff.b2"] = zeros_param((d,), dtype)
    params["mlm.ln.gain"] = ones_param((d,), dtype)
    params["mlm.ln.bias"] = zeros_param((d,), dtype)
    params["mlm.w"] = uniform_param(rng, (d, v), d, dtype)
    params["mlm.b"] = zeros_param((v,), dtype)
    return params


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Standardize over the last dimension (population variance), then
    apply the learned affine transform; one graph node.

    The backward pass keeps ``normed`` and ``inv = 1/sigma`` and gives
    ``inv * (gh - mean(gh) - normed * mean(gh * normed))`` with
    ``gh = g * gain``.
    """
    centered = x.data - x.data.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + eps)
    normed = centered * inv

    def backward(g):
        if gain.requires_grad:
            gain._accumulate(_unbroadcast(g * normed, gain.shape))
        if bias.requires_grad:
            bias._accumulate(_unbroadcast(g, bias.shape))
        if x.requires_grad:
            gh = g * gain.data
            x._accumulate(
                inv
                * (
                    gh
                    - gh.mean(axis=-1, keepdims=True)
                    - normed * (gh * normed).mean(axis=-1, keepdims=True)
                )
            )

    return Tensor(normed * gain.data + bias.data, parents=(x, gain, bias), backward=backward)


def attention(q: Tensor, k: Tensor, v: Tensor, bias: np.ndarray) -> Tensor:
    """Scaled dot-product attention over (B, heads, S, head_dim) inputs,
    ``softmax(q k^T / sqrt(head_dim) + bias) v``; one graph node.

    ``bias`` is a plain array added to the scores (-1e9 at padded keys).
    The backward pass keeps the attention weights ``y`` and the output
    ``o = y v``: the row sum ``sum(ga * y)`` with ``ga = g v^T`` equals
    ``sum(g * o)`` (FlashAttention's backward, arXiv:2205.14135), so the
    scores get ``gs = y * (ga - sum(g * o)) * scale`` with no second
    (S, S) product, ``q`` gets ``gs k``, ``k`` gets ``gs^T q`` and ``v``
    gets ``y^T g``.
    """
    scale = np.asarray(1.0 / math.sqrt(q.shape[-1]), dtype=q.data.dtype)
    # The unfused graph's arithmetic in its order, so results match it bit for bit.
    y = q.data @ k.data.transpose(0, 1, 3, 2)
    y *= scale
    y += bias
    y -= np.max(y, axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)

    # The node's own value, so keeping it for the backward pass costs nothing.
    out = y @ v.data

    def backward(g):
        if v.requires_grad:
            v._accumulate(y.swapaxes(-1, -2) @ g)
        if q.requires_grad or k.requires_grad:
            # gs is built in place in the g v^T product.
            gs = g @ v.data.swapaxes(-1, -2)
            gs -= (g * out).sum(axis=-1, keepdims=True)
            gs *= y
            gs *= scale
            if q.requires_grad:
                q._accumulate(gs @ k.data)
            if k.requires_grad:
                k._accumulate(gs.swapaxes(-1, -2) @ q.data)

    return Tensor(out, parents=(q, k, v), backward=backward)


def forward_transformer(
    config: TransformerConfig, params: dict[str, Tensor], input_ids: np.ndarray
) -> list[Tensor]:
    """Run the pre-norm encoder stack over a (B, S) id matrix; returns all
    layer outputs (embeddings first, so ``layers + 1`` tensors of shape
    (B, S, hidden)).

    Keys that hold the pad id (``ByteVocab.special_tokens.pad``) are
    excluded from attention.
    """
    ids = np.asarray(input_ids)
    if ids.ndim != 2:
        raise ValueError(f"input ids must be a (batch, seq) matrix, got shape {ids.shape}")
    batch, seq = ids.shape
    if seq > config.max_positions:
        raise ValueError(f"sequence length {seq} exceeds max positions {config.max_positions}")
    if ids.min() < 0 or ids.max() >= config.vocab_size:
        raise ValueError("input id out of vocabulary range")

    x = params["tok_emb"][ids] + params["pos_emb"][:seq]
    outputs = [x]

    pad = ByteVocab.special_tokens.pad
    bias = np.where(ids != pad, 0.0, -1e9).astype(x.data.dtype)[:, None, None, :]

    nh, dh = config.heads, config.head_dim
    for i in range(config.layers):
        p = f"layer{i}"
        h = layer_norm(x, params[f"{p}.ln1.gain"], params[f"{p}.ln1.bias"])

        def split_heads(t: Tensor) -> Tensor:
            return t.reshape(batch, seq, nh, dh).transpose(0, 2, 1, 3)

        q = split_heads(h @ params[f"{p}.attn.wq"] + params[f"{p}.attn.bq"])
        k = split_heads(h @ params[f"{p}.attn.wk"] + params[f"{p}.attn.bk"])
        v = split_heads(h @ params[f"{p}.attn.wv"] + params[f"{p}.attn.bv"])

        context = attention(q, k, v, bias).transpose(0, 2, 1, 3).reshape(batch, seq, config.hidden)
        x = x + (context @ params[f"{p}.attn.wo"] + params[f"{p}.attn.bo"])

        h2 = layer_norm(x, params[f"{p}.ln2.gain"], params[f"{p}.ln2.bias"])
        ff = (h2 @ params[f"{p}.ff.w1"] + params[f"{p}.ff.b1"]).gelu()
        x = x + (ff @ params[f"{p}.ff.w2"] + params[f"{p}.ff.b2"])
        outputs.append(x)
    return outputs


def mlm_logits(params: dict[str, Tensor], hidden: Tensor) -> Tensor:
    normed = layer_norm(hidden, params["mlm.ln.gain"], params["mlm.ln.bias"])
    return normed @ params["mlm.w"] + params["mlm.b"]


def mlm_loss(logits: Tensor, target_ids: np.ndarray) -> Tensor:
    """Mean cross-entropy over positions whose target is not ignored;
    defined as 0 (with zero gradient) when nothing is targeted."""
    targets = np.asarray(target_ids)
    vocab = logits.shape[-1]
    flat_logits = logits.reshape(-1, vocab)
    flat_targets = targets.reshape(-1)
    keep = np.nonzero(flat_targets != IGNORE_INDEX)[0]
    if keep.size == 0:
        return logits.sum() * 0.0
    # With nothing ignored the selection is the identity: skip its node.
    selected = flat_logits if keep.size == flat_targets.size else flat_logits[keep]
    log_probs = log_softmax(selected, axis=-1)
    chosen = log_probs[np.arange(keep.size), flat_targets[keep]]
    return -chosen.mean()


def scalar_mix(layer_outputs: Sequence[Tensor], mixing_logits: Tensor, gamma) -> Tensor:
    """Softmax-weighted sum of equally shaped layer outputs, scaled by gamma."""
    layers = list(layer_outputs)
    if len(layers) != mixing_logits.shape[0]:
        raise ValueError("one mixing logit per layer is required")
    shapes = {t.shape for t in layers}
    if len(shapes) != 1:
        raise ValueError(f"layer outputs disagree on shape: {shapes}")
    weights = softmax(mixing_logits, axis=-1)
    mixed = weights[0] * layers[0]
    for i in range(1, len(layers)):
        mixed = mixed + weights[i] * layers[i]
    return mixed * gamma


def pool_subwords(subword_embeddings: Tensor, token_to_subwords: Sequence[Sequence[int]]) -> Tensor:
    """Per-token elementwise sum of its subword vectors."""
    n_subwords = subword_embeddings.shape[0]
    pooling = np.zeros((len(token_to_subwords), n_subwords), dtype=subword_embeddings.data.dtype)
    for row, indices in enumerate(token_to_subwords):
        if len(indices) == 0:
            raise ValueError(f"token {row} has no subwords")
        for index in indices:
            if not 0 <= index < n_subwords:
                raise ValueError(f"subword index {index} out of range")
            pooling[row, index] += 1.0
    return Tensor(pooling) @ subword_embeddings


def init_birnn_params(
    prefix: str, input_dim: int, hidden_dim: int, seed: int = 0, dtype=np.float32
) -> dict[str, Tensor]:
    """Parameters for one bidirectional GRU layer, named
    ``{prefix}.{fwd|bwd}.{w|u|b}{z|r|n}``."""
    rng = np.random.Generator(np.random.PCG64(seed))
    d, h = input_dim, hidden_dim
    params = {}
    for direction in ("fwd", "bwd"):
        name = f"{prefix}.{direction}"
        for gate in ("z", "r", "n"):
            params[f"{name}.w{gate}"] = uniform_param(rng, (d, h), d, dtype)
            params[f"{name}.u{gate}"] = uniform_param(rng, (h, h), h, dtype)
            params[f"{name}.b{gate}"] = zeros_param((h,), dtype)
    return params


def _gru_pass(inputs: Tensor, params: dict[str, Tensor], prefix: str, reverse: bool) -> list[Tensor]:
    length = inputs.shape[0]
    hidden_dim = params[f"{prefix}.uz"].shape[0]
    state = Tensor(np.zeros((1, hidden_dim), dtype=inputs.data.dtype))
    outputs: list[Tensor | None] = [None] * length
    order = range(length - 1, -1, -1) if reverse else range(length)
    wz, uz, bz = params[f"{prefix}.wz"], params[f"{prefix}.uz"], params[f"{prefix}.bz"]
    wr, ur, br = params[f"{prefix}.wr"], params[f"{prefix}.ur"], params[f"{prefix}.br"]
    wn, un, bn = params[f"{prefix}.wn"], params[f"{prefix}.un"], params[f"{prefix}.bn"]
    for t in order:
        x = inputs[t : t + 1]
        z = (x @ wz + state @ uz + bz).sigmoid()
        r = (x @ wr + state @ ur + br).sigmoid()
        n = (x @ wn + (r * state) @ un + bn).tanh()
        state = (1.0 - z) * n + z * state
        outputs[t] = state
    return outputs  # type: ignore[return-value]


def birnn_layer(inputs: Tensor, params: dict[str, Tensor], prefix: str) -> Tensor:
    """Bidirectional GRU over a (T, D) sequence with the ``prefix``
    parameters of :func:`init_birnn_params`; output is (T, 2H) with the
    forward and backward states concatenated per position."""
    if inputs.shape[0] < 1:
        raise ValueError("sequence must have length >= 1")
    forward = _gru_pass(inputs, params, f"{prefix}.fwd", reverse=False)
    backward = _gru_pass(inputs, params, f"{prefix}.bwd", reverse=True)
    per_step = [concat([f, b], axis=1) for f, b in zip(forward, backward)]
    return concat(per_step, axis=0)
