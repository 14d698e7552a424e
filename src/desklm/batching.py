"""FULL-SENTENCES sample packing and dynamic masking.

Sentences are encoded and appended contiguously in corpus order, crossing
document boundaries, until the next sentence would exceed the length cap.
Masking is re-drawn per invocation (dynamic), with targets carrying the
original ids only at selected positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bbpe import ByteVocab, encode
from .corpus import Corpus

#: Marker in target matrices for positions that do not contribute to the loss.
IGNORE_INDEX = -100

#: Shares of selected positions that become the mask id, a random id, or
#: stay unchanged (RoBERTa's 80/10/10).
MASK_POLICY = (0.8, 0.1, 0.1)


@dataclass(frozen=True)
class Sample:
    """One packed training sample: ``<s> ids... </s>`` of length <= max_len."""

    ids: tuple[int, ...]
    truncated: bool = False


@dataclass(eq=False)
class MlmBatch:
    """Padded id matrix with corruption targets.

    ``target_ids`` is ``IGNORE_INDEX`` everywhere except the selected
    positions, where it holds the original (pre-corruption) id.
    """

    input_ids: np.ndarray
    target_ids: np.ndarray


def pack_full_sentences(
    corpus: Corpus, vocab: ByteVocab, max_len: int = 512
) -> list[Sample]:
    """Pack encoded sentences into samples of at most ``max_len`` ids.

    Sentences run on across document boundaries: only the length cap
    closes a sample.  A single sentence longer than ``max_len - 2`` is
    truncated and flagged.
    """
    if max_len < 8:
        raise ValueError("max_len must be >= 8")
    bos, eos = vocab.special_tokens.bos, vocab.special_tokens.eos
    budget = max_len - 2

    samples: list[Sample] = []
    content: list[int] = []

    def close():
        if content:
            samples.append(Sample(ids=(bos, *content, eos)))
            content.clear()

    for sentence in corpus.sentences():
        ids = encode(vocab, sentence.text).ids
        if len(ids) > budget:
            close()
            samples.append(Sample(ids=(bos, *ids[:budget], eos), truncated=True))
            continue
        if len(content) + len(ids) > budget:
            close()
        content.extend(ids)
    close()
    return samples


def apply_dynamic_masking(
    sample: Sample,
    vocab: ByteVocab,
    mask_prob: float = 0.15,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Corrupt one sample; returns (input_ids, target_ids).

    Each non-special position is selected independently with probability
    ``mask_prob``; a selected position becomes the mask id, a uniform
    random non-special id, or stays unchanged per ``MASK_POLICY``.
    """
    if not sample.ids:
        raise ValueError("sample is empty")
    specials = set(vocab.special_tokens)
    rng = np.random.Generator(np.random.PCG64(seed))

    input_ids = np.array(sample.ids, dtype=np.int64)
    target_ids = np.full(len(sample.ids), IGNORE_INDEX, dtype=np.int64)
    n_specials = len(vocab.special_tokens)
    for pos, original in enumerate(sample.ids):
        if original in specials:
            continue
        if rng.random() >= mask_prob:
            continue
        target_ids[pos] = original
        roll = rng.random()
        if roll < MASK_POLICY[0]:
            input_ids[pos] = vocab.special_tokens.mask
        elif roll < MASK_POLICY[0] + MASK_POLICY[1]:
            input_ids[pos] = rng.integers(n_specials, len(vocab.tokens))
        # else: keep the original id.
    return input_ids, target_ids


def build_mlm_batch(
    samples: Sequence[Sample],
    vocab: ByteVocab,
    max_len: int,
    mask_prob: float = 0.15,
    seed: int = 0,
) -> MlmBatch:
    """Mask each sample (seeds ``seed``, ``seed+1``, ...) and pad into a batch."""
    pad = vocab.special_tokens.pad
    input_ids = np.full((len(samples), max_len), pad, dtype=np.int64)
    target_ids = np.full((len(samples), max_len), IGNORE_INDEX, dtype=np.int64)
    for row, sample in enumerate(samples):
        ids, targets = apply_dynamic_masking(sample, vocab, mask_prob, seed=seed + row)
        input_ids[row, : len(ids)] = ids
        target_ids[row, : len(ids)] = targets
    return MlmBatch(input_ids, target_ids)
