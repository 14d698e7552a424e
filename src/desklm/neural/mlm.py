"""Masked-language-model training loop over packed samples, the one
training step that it, the task heads and the sentiment folds share, and
``encode_texts``, the one path from raw text to the transformer's layers.

Only the masked rows reach the loss, so only they are computed where
nothing else needs them: the last transformer layer runs its queries,
attention output and FFN at the targeted positions only (its keys and
values still come from every position), and the MLM head scores only
those rows, never the ~85% of positions whose target is ignored (as in
RoBERTa's reference implementation)."""

from __future__ import annotations

from typing import IO, Sequence

import numpy as np

from ..batching import IGNORE_INDEX, Sample, build_mlm_batch
from ..bbpe import ByteVocab, encode
from .layers import (
    TransformerConfig,
    forward_transformer,
    init_transformer_params,
    mlm_logits,
    mlm_loss,
)
from .optim import AdamConfig, AdamState, adam_step
from .schedule import ScheduleConfig, schedule_lr
from .tensor import Tensor, constants


def format_log_line(step: int, lr: float, loss: float) -> str:
    """One training-log line: ``step<TAB>lr<TAB>loss``."""
    return f"{step}\t{lr:.12g}\t{loss:.12g}"


# Here, not in optim.py: every Adam update then goes through mlm.adam_step, which perfbench wraps.
def train_step(
    params: dict[str, Tensor], state: AdamState, adam: AdamConfig, loss: Tensor, lr: float
) -> float:
    """One optimization step: backpropagate ``loss``, update ``params``
    with Adam at ``lr``, then clear every gradient; returns the loss value."""
    loss.backward()
    adam_step(params, state, config=adam, lr=lr)
    for p in params.values():
        p.zero_grad()
    return float(loss.data)


def _longest(model_config: TransformerConfig, samples: Sequence[Sample]) -> int:
    """Length of the longest sample; no samples, or one longer than the
    model's positions, is an error that names it."""
    if not samples:
        raise ValueError("no samples")
    for index, sample in enumerate(samples):
        if len(sample.ids) > model_config.max_positions:
            raise ValueError(
                f"sample {index} has {len(sample.ids)} ids, more than the model's "
                f"max_positions {model_config.max_positions}"
            )
    return max(len(s.ids) for s in samples)


def _target_rows(target_ids: np.ndarray) -> np.ndarray:
    """The ``rows`` of ``forward_transformer`` for a (B, S) target matrix:
    each sample's targeted positions in order, padded to the batch's
    largest target count M with its first untargeted positions, whose
    outputs are dropped; (B, M), with M = 0 when nothing is targeted."""
    untargeted = target_ids == IGNORE_INDEX
    most = int((~untargeted).sum(axis=1).max(initial=0))
    return np.argsort(untargeted, axis=1, kind="stable")[:, :most]


def _masked_logits(
    params: dict[str, Tensor], hidden: list[Tensor], target_ids: np.ndarray, rows: np.ndarray
) -> tuple[Tensor, np.ndarray]:
    """MLM-head logits of the targeted rows only, with their targets:
    (n, vocab) logits and n ids, none of them ignored.  ``hidden`` is the
    forward pass at ``rows``, the positions ``_target_rows`` picked."""
    targets = np.take_along_axis(target_ids, rows, axis=1)
    targeted = np.nonzero(targets != IGNORE_INDEX)
    return mlm_logits(params, hidden[-1][targeted]), targets[targeted]


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
    max_len = _longest(model_config, samples)
    if params is None:
        params = init_transformer_params(model_config, seed=seed, dtype=dtype)
    state = AdamState()
    rng = np.random.Generator(np.random.PCG64(seed + 1))

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
        rows = _target_rows(batch.target_ids)
        hidden = forward_transformer(model_config, params, batch.input_ids, rows=rows)
        loss = mlm_loss(*_masked_logits(params, hidden, batch.target_ids, rows))
        lr = schedule_lr(schedule_config, step + 1)
        value = train_step(params, state, adam_config, loss, lr)
        losses.append(value)
        if log_stream is not None:
            log_stream.write(format_log_line(step + 1, lr, value) + "\n")
        # Free this step's graph before the next forward pass builds one.
        del hidden, loss
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
    max_len = _longest(model_config, samples)
    frozen = constants(params)
    correct = total = 0
    for start in range(0, len(samples), batch_size):
        chunk = samples[start : start + batch_size]
        batch = build_mlm_batch(chunk, vocab, max_len=max_len, mask_prob=mask_prob, seed=seed + start)
        rows = _target_rows(batch.target_ids)
        hidden = forward_transformer(model_config, frozen, batch.input_ids, rows=rows)
        logits, targets = _masked_logits(frozen, hidden, batch.target_ids, rows)
        correct += int((np.argmax(logits.data, axis=-1) == targets).sum())
        total += targets.size
    return correct / total if total else 0.0


def encode_texts(
    config: TransformerConfig, params: dict[str, Tensor], vocab: ByteVocab, texts: Sequence[str]
) -> list[Tensor]:
    """Every layer of the transformer over ``texts``, one row per text:
    ``<s> ids </s>`` with the ids cut to ``max_positions - 2``, padded to
    the longest row.  A caller that must build no graph passes
    ``constants(params)``."""
    if not texts:
        raise ValueError("no texts to encode")
    specials = vocab.special_tokens
    rows = [encode(vocab, text).ids[: config.max_positions - 2] for text in texts]
    input_ids = np.full((len(rows), max(map(len, rows)) + 2), specials.pad, dtype=np.int64)
    for i, ids in enumerate(rows):
        input_ids[i, : len(ids) + 2] = (specials.bos, *ids, specials.eos)
    return forward_transformer(config, params, input_ids)
