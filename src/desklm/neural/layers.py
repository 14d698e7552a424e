"""Model layers: pre-norm transformer encoder with MLM head, layer
normalization, scalar mix, subword pooling and bidirectional GRU layers.

All layers are pure functions of (params, inputs); parameters live in flat
``dict[str, Tensor]`` maps so the optimizer and checkpoints can treat them
uniformly.  Weight matrices are initialized uniformly at +-1/sqrt(fan_in).

The transformer runs on three fused ops, each one graph node with a
hand-written backward pass: ``layer_norm`` here, and ``tensor.softmax``
and ``Tensor.gelu``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from ..batching import IGNORE_INDEX
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
    ln_eps: float = 1e-5

    def __post_init__(self):
        if self.hidden % self.heads != 0:
            raise ValueError("hidden must be divisible by heads")
        if self.ln_eps <= 0:
            raise ValueError("ln_eps must be positive")
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
    out = Tensor(normed * gain.data + bias.data, parents=(x, gain, bias))

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

    out._backward = backward
    return out


def forward_transformer(
    config: TransformerConfig,
    params: dict[str, Tensor],
    input_ids: np.ndarray,
    pad_mask: np.ndarray | None = None,
    attention_sink: list[Tensor] | None = None,
) -> list[Tensor]:
    """Run the pre-norm encoder stack; returns all layer outputs
    (embeddings first, so ``layers + 1`` tensors of shape (B, S, hidden)).

    ``pad_mask`` marks real positions with True; padded keys are excluded
    from attention.  ``attention_sink``, when given, collects per-layer
    attention tensors of shape (B, heads, S, S).
    """
    ids = np.asarray(input_ids)
    if ids.ndim == 1:
        ids = ids[None, :]
    batch, seq = ids.shape
    if seq > config.max_positions:
        raise ValueError(f"sequence length {seq} exceeds max positions {config.max_positions}")
    if ids.min() < 0 or ids.max() >= config.vocab_size:
        raise ValueError("input id out of vocabulary range")

    x = params["tok_emb"][ids] + params["pos_emb"][np.arange(seq)]
    outputs = [x]

    bias = None
    if pad_mask is not None:
        mask = np.asarray(pad_mask, dtype=bool).reshape(batch, seq)
        bias = Tensor(
            np.where(mask, 0.0, -1e9).astype(x.data.dtype)[:, None, None, :]
        )

    nh, dh = config.heads, config.head_dim
    scale = 1.0 / math.sqrt(dh)
    for i in range(config.layers):
        p = f"layer{i}"
        h = layer_norm(x, params[f"{p}.ln1.gain"], params[f"{p}.ln1.bias"], config.ln_eps)

        def split_heads(t: Tensor) -> Tensor:
            return t.reshape(batch, seq, nh, dh).transpose(0, 2, 1, 3)

        q = split_heads(h @ params[f"{p}.attn.wq"] + params[f"{p}.attn.bq"])
        k = split_heads(h @ params[f"{p}.attn.wk"] + params[f"{p}.attn.bk"])
        v = split_heads(h @ params[f"{p}.attn.wv"] + params[f"{p}.attn.bv"])

        scores = (q @ k.transpose(0, 1, 3, 2)) * scale
        if bias is not None:
            scores = scores + bias
        attn = softmax(scores, axis=-1)
        if attention_sink is not None:
            attention_sink.append(attn)
        context = (attn @ v).transpose(0, 2, 1, 3).reshape(batch, seq, config.hidden)
        x = x + (context @ params[f"{p}.attn.wo"] + params[f"{p}.attn.bo"])

        h2 = layer_norm(x, params[f"{p}.ln2.gain"], params[f"{p}.ln2.bias"], config.ln_eps)
        ff = (h2 @ params[f"{p}.ff.w1"] + params[f"{p}.ff.b1"]).gelu()
        x = x + (ff @ params[f"{p}.ff.w2"] + params[f"{p}.ff.b2"])
        outputs.append(x)
    return outputs


def mlm_logits(config: TransformerConfig, params: dict[str, Tensor], hidden: Tensor) -> Tensor:
    normed = layer_norm(hidden, params["mlm.ln.gain"], params["mlm.ln.bias"], config.ln_eps)
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
    selected = flat_logits[keep]
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


def init_gru_params(
    input_dim: int, hidden_dim: int, rng: np.random.Generator, dtype=np.float32
) -> dict[str, Tensor]:
    params = {}
    for gate in ("z", "r", "n"):
        params[f"w{gate}"] = uniform_param(rng, (input_dim, hidden_dim), input_dim, dtype)
        params[f"u{gate}"] = uniform_param(rng, (hidden_dim, hidden_dim), hidden_dim, dtype)
        params[f"b{gate}"] = zeros_param((hidden_dim,), dtype)
    return params


def init_birnn_params(
    input_dim: int, hidden_dim: int, seed: int = 0, dtype=np.float32
) -> dict[str, Tensor]:
    """Parameters for one bidirectional GRU layer, flat-keyed by direction."""
    rng = np.random.Generator(np.random.PCG64(seed))
    params = {}
    for direction in ("fwd", "bwd"):
        for key, value in init_gru_params(input_dim, hidden_dim, rng, dtype).items():
            params[f"{direction}.{key}"] = value
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


def birnn_layer(inputs: Tensor, params: dict[str, Tensor]) -> Tensor:
    """Bidirectional GRU over a (T, D) sequence; output is (T, 2H) with the
    forward and backward states concatenated per position."""
    if inputs.shape[0] < 1:
        raise ValueError("sequence must have length >= 1")
    forward = _gru_pass(inputs, params, "fwd", reverse=False)
    backward = _gru_pass(inputs, params, "bwd", reverse=True)
    per_step = [concat([f, b], axis=1) for f, b in zip(forward, backward)]
    return concat(per_step, axis=0)
