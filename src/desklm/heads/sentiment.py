"""Sentiment fine-tuning protocol.

A pretrained encoder is wrapped with a softmax classifier over the
first-position (begin-of-sequence) vector of the final layer.  Training
follows a freeze-then-finetune recipe with lazy Adam and batch size 64:
epoch 1 trains the classifier alone at learning rate 1e-3 with the
encoder frozen; epochs 2-15 train everything under a cosine schedule
(4 epochs warmup from zero, 10 epochs decay back to zero) peaking at a
grid learning rate.  The peak is selected by the 10-fold mean of the
development macro-F1; test macro-F1 mean and standard deviation are
reported for the selected peak.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..bbpe import ByteVocab, encode
from ..corpus import kfold_split
from ..metrics.aggregate import aggregate_folds, macro_f1
from ..neural.layers import TransformerConfig, forward_transformer, mlm_loss
from ..neural.mlm import train_step
from ..neural.optim import AdamConfig, AdamState
from ..neural.schedule import ScheduleConfig, schedule_lr
from ..neural.tensor import Tensor, constants

LABELS = ("negative", "neutral", "positive")
LABEL_ALIASES = {"n": "negative", "0": "neutral", "p": "positive"}

DEFAULT_LR_GRID = (1e-5, 2e-5, 3e-5, 5e-5)


class SentimentError(Exception):
    pass


@dataclass(frozen=True)
class SentimentItem:
    label: str
    text: str

    def __post_init__(self):
        if self.label not in LABELS:
            raise SentimentError(f"unknown label {self.label!r}; expected one of {LABELS}")


def read_sentiment_tsv(text: str) -> list[SentimentItem]:
    """Parse ``label<TAB>text`` lines; labels p/n/0 map to
    positive/negative/neutral."""
    items = []
    for number, line in enumerate(text.splitlines(), start=1):
        if not line:
            continue
        label, sep, body = line.partition("\t")
        if not sep:
            raise SentimentError(f"line {number}: expected label<TAB>text")
        label = LABEL_ALIASES.get(label, label)
        try:
            items.append(SentimentItem(label=label, text=body))
        except SentimentError as exc:
            raise SentimentError(f"line {number}: {exc}") from None
    return items


@dataclass
class SentimentEncoder:
    """Pretrained transformer bundle used as the document encoder."""

    config: TransformerConfig
    params: dict[str, Tensor]
    vocab: ByteVocab

    def copy_params(self) -> dict[str, Tensor]:
        """Trainable copies of the transformer weights, without the
        masked-LM head (``mlm.*``), which no fold reads."""
        return {
            name: Tensor(p.data.copy(), requires_grad=True)
            for name, p in self.params.items()
            if not name.startswith("mlm.")
        }

    def item_ids(self, text: str, max_len: int | None = None) -> list[int]:
        cap = (max_len or self.config.max_positions) - 2
        ids = list(encode(self.vocab, text).ids)[:cap]
        return [self.vocab.special_tokens.bos, *ids, self.vocab.special_tokens.eos]


def _pad_batch(id_lists: Sequence[Sequence[int]], pad: int) -> tuple[np.ndarray, np.ndarray]:
    width = max(len(ids) for ids in id_lists)
    batch = np.full((len(id_lists), width), pad, dtype=np.int64)
    for row, ids in enumerate(id_lists):
        batch[row, : len(ids)] = ids
    return batch, batch != pad


def _document_embeddings(
    config: TransformerConfig,
    params: dict[str, Tensor],
    vocab: ByteVocab,
    id_lists: Sequence[Sequence[int]],
    frozen: bool,
) -> Tensor:
    """First-position vectors of the final layer; with ``frozen`` the
    encoder runs on constant views of ``params`` and builds no graph."""
    if frozen:
        params = constants(params)
    input_ids, mask = _pad_batch(id_lists, vocab.special_tokens.pad)
    layers = forward_transformer(config, params, input_ids, pad_mask=mask)
    return layers[-1][:, 0, :]


def _classifier_loss(embeddings: Tensor, params: dict[str, Tensor], targets: np.ndarray) -> Tensor:
    return mlm_loss(embeddings @ params["cls.w"] + params["cls.b"], targets)


def _predict(
    config: TransformerConfig,
    params: dict[str, Tensor],
    vocab: ByteVocab,
    id_lists: Sequence[Sequence[int]],
    batch_size: int,
) -> list[int]:
    out: list[int] = []
    for start in range(0, len(id_lists), batch_size):
        chunk = id_lists[start : start + batch_size]
        embeddings = _document_embeddings(config, params, vocab, chunk, frozen=True)
        logits = embeddings.data @ params["cls.w"].data + params["cls.b"].data
        out.extend(int(i) for i in np.argmax(logits, axis=-1))
    return out


def _macro_f1_on(
    gold: Sequence[int], predicted: Sequence[int], label_count: int = len(LABELS)
) -> float:
    confusion = np.zeros((label_count, label_count))
    for g, p in zip(gold, predicted):
        confusion[g, p] += 1
    return macro_f1(confusion)


@dataclass
class FoldOutcome:
    fold_index: int
    dev_f1: float
    test_f1: float


@dataclass
class SentimentProtocolResult:
    selected_lr: float
    dev_means: dict[float, float]
    fold_outcomes: list[FoldOutcome] = field(default_factory=list)
    test_mean: float = 0.0
    test_std: float = 0.0


def _train_one_fold(
    encoder: SentimentEncoder,
    id_lists: Sequence[Sequence[int]],
    targets: np.ndarray,
    train_indices: list[int],
    peak_lr: float,
    seed: int,
    batch_size: int,
    classifier_lr: float,
    warmup_epochs: float,
    decay_epochs: float,
) -> dict[str, Tensor]:
    d = encoder.config.hidden
    params = encoder.copy_params()
    # Zero-initialized probing head: epoch-1 behavior then depends only on
    # the frozen features.
    dtype = next(iter(params.values())).data.dtype
    params["cls.w"] = Tensor(np.zeros((d, len(LABELS)), dtype=dtype), requires_grad=True)
    params["cls.b"] = Tensor(np.zeros(len(LABELS), dtype=dtype), requires_grad=True)

    adam = AdamConfig(lazy=True)
    state = AdamState()
    rng = np.random.Generator(np.random.PCG64(seed))
    schedule = ScheduleConfig(
        "cosine_warmup_decay", peak_lr, warmup_epochs=warmup_epochs, decay_epochs=decay_epochs
    )
    steps_per_epoch = max(1, math.ceil(len(train_indices) / batch_size))
    total_epochs = int(warmup_epochs + decay_epochs) + 1

    for epoch in range(1, total_epochs + 1):
        order = [train_indices[i] for i in rng.permutation(len(train_indices))]
        for step, start in enumerate(range(0, len(order), batch_size)):
            chunk = order[start : start + batch_size]
            frozen = epoch == 1
            embeddings = _document_embeddings(
                encoder.config, params, encoder.vocab,
                [id_lists[i] for i in chunk], frozen=frozen,
            )
            if frozen:
                lr = classifier_lr
            else:
                lr = schedule_lr(schedule, (epoch - 2) + (step + 1) / steps_per_epoch)
            train_step(params, state, adam, _classifier_loss(embeddings, params, targets[chunk]), lr)
            # Free this step's graph before the next forward pass builds one.
            del embeddings
    return params


def run_sentiment_protocol(
    items: Sequence[SentimentItem],
    encoder: SentimentEncoder,
    lr_grid: Sequence[float] = DEFAULT_LR_GRID,
    k: int = 10,
    seed: int = 0,
    batch_size: int = 64,
    classifier_lr: float = 1e-3,
    dev_fraction: float = 0.10,
    warmup_epochs: float = 4.0,
    decay_epochs: float = 10.0,
    max_len: int | None = None,
) -> SentimentProtocolResult:
    """Full grid / k-fold protocol; returns the selected peak learning
    rate and the fold statistics at that peak."""
    if not items:
        raise SentimentError("empty dataset")
    id_lists = [encoder.item_ids(item.text, max_len) for item in items]
    targets = np.array([LABELS.index(item.label) for item in items], dtype=np.int64)

    folds = kfold_split(
        [str(i) for i in range(len(items))], k=k, dev_fraction=dev_fraction, seed=seed
    )
    for fold in folds:
        if not fold.train_ids or not fold.dev_ids or not fold.test_ids:
            raise SentimentError(f"fold {fold.fold_index} has an empty role")

    dev_scores: dict[float, list[float]] = {lr: [] for lr in lr_grid}
    test_scores: dict[float, list[float]] = {lr: [] for lr in lr_grid}
    for lr_index, lr in enumerate(lr_grid):
        for fold in folds:
            train_indices = [int(x) for x in fold.train_ids]
            dev_indices = [int(x) for x in fold.dev_ids]
            test_indices = [int(x) for x in fold.test_ids]
            fold_seed = seed * 1_000_003 + lr_index * 1009 + fold.fold_index
            params = _train_one_fold(
                encoder, id_lists, targets, train_indices, lr, fold_seed,
                batch_size, classifier_lr, warmup_epochs, decay_epochs,
            )

            def evaluate(indices: list[int]) -> float:
                predicted = _predict(
                    encoder.config, params, encoder.vocab,
                    [id_lists[i] for i in indices], batch_size,
                )
                return _macro_f1_on(targets[indices], predicted)

            dev_scores[lr].append(evaluate(dev_indices))
            test_scores[lr].append(evaluate(test_indices))

    dev_means = {lr: sum(v) / len(v) for lr, v in dev_scores.items()}
    selected = max(lr_grid, key=lambda lr: dev_means[lr])  # ties keep grid order
    test_mean, test_std = aggregate_folds(test_scores[selected])
    outcomes = [
        FoldOutcome(fold.fold_index, dev_scores[selected][i], test_scores[selected][i])
        for i, fold in enumerate(folds)
    ]
    return SentimentProtocolResult(
        selected_lr=selected,
        dev_means=dev_means,
        fold_outcomes=outcomes,
        test_mean=test_mean,
        test_std=test_std,
    )
