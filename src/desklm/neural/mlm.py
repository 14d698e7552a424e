"""Masked-language-model training loop over packed samples."""

from __future__ import annotations

from typing import IO, Sequence

import numpy as np

from ..batching import IGNORE_INDEX, Sample, build_mlm_batch
from ..bbpe import ByteVocab
from .checkpoint import format_log_line
from .layers import (
    TransformerConfig,
    forward_transformer,
    init_transformer_params,
    mlm_logits,
    mlm_loss,
)
from .optim import AdamConfig, AdamState, adam_step, zero_grads
from .schedule import ScheduleConfig, schedule_lr
from .tensor import Tensor, constants


def train_mlm(
    samples: Sequence[Sample],
    vocab: ByteVocab,
    model_config: TransformerConfig,
    schedule_config: ScheduleConfig,
    steps: int,
    batch_size: int = 32,
    seed: int = 0,
    adam_config: AdamConfig = AdamConfig(),
    mask_prob: float = 0.15,
    params: dict[str, Tensor] | None = None,
    log_stream: IO[str] | None = None,
    dtype=np.float32,
) -> tuple[dict[str, Tensor], list[float]]:
    """Run ``steps`` optimization steps; returns (params, per-step losses).

    Batches are drawn with replacement from ``samples`` and re-masked each
    step (dynamic masking); all randomness derives from ``seed``.
    """
    if not samples:
        raise ValueError("no samples to train on")
    if params is None:
        params = init_transformer_params(model_config, seed=seed, dtype=dtype)
    state = AdamState()
    rng = np.random.Generator(np.random.PCG64(seed + 1))
    max_len = min(model_config.max_positions, max(len(s.ids) for s in samples))
    pad = vocab.special_tokens.pad

    losses: list[float] = []
    for step in range(steps):
        picks = rng.integers(0, len(samples), size=batch_size)
        batch = build_mlm_batch(
            [samples[i] for i in picks],
            vocab,
            max_len=max_len,
            mask_prob=mask_prob,
            seed=seed + 7919 * (step + 1),
        )
        zero_grads(params)
        hidden = forward_transformer(
            model_config, params, batch.input_ids, pad_mask=batch.input_ids != pad
        )
        loss = mlm_loss(mlm_logits(model_config, params, hidden[-1]), batch.target_ids)
        loss.backward()
        lr = schedule_lr(schedule_config, step + 1)
        adam_step(params, state, config=adam_config, lr=lr)
        value = float(loss.data)
        losses.append(value)
        if log_stream is not None:
            log_stream.write(format_log_line(step + 1, lr, value) + "\n")
    return params, losses


def eval_masked_accuracy(
    model_config: TransformerConfig,
    params: dict[str, Tensor],
    samples: Sequence[Sample],
    vocab: ByteVocab,
    seed: int = 0,
    mask_prob: float = 0.15,
    batch_size: int = 32,
) -> float:
    """Fraction of masked positions whose argmax prediction recovers the
    original id, under a fixed masking seed."""
    pad = vocab.special_tokens.pad
    max_len = min(model_config.max_positions, max(len(s.ids) for s in samples))
    frozen = constants(params)
    correct = total = 0
    for start in range(0, len(samples), batch_size):
        chunk = samples[start : start + batch_size]
        batch = build_mlm_batch(chunk, vocab, max_len=max_len, mask_prob=mask_prob, seed=seed + start)
        hidden = forward_transformer(
            model_config, frozen, batch.input_ids, pad_mask=batch.input_ids != pad
        )
        logits = mlm_logits(model_config, frozen, hidden[-1])
        predictions = np.argmax(logits.data, axis=-1)
        targeted = batch.target_ids != IGNORE_INDEX
        correct += int((predictions[targeted] == batch.target_ids[targeted]).sum())
        total += int(targeted.sum())
    return correct / total if total else 0.0
