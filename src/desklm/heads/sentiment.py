"""Sentiment fine-tuning protocol.

Each document goes through ``mlm.encode_texts`` with a copy of the
pretrained transformer's weights; a softmax classifier reads the
first-position (begin-of-sequence) vector of the final layer.  Training
follows a freeze-then-finetune recipe with lazy Adam and batch size 64:
epoch 1 trains the classifier alone at learning rate 1e-3 on constant
views of the transformer; epochs 2-15 train everything under a cosine
schedule (4 epochs warmup from zero, 10 epochs decay back to zero)
peaking at a grid learning rate.  The peak is selected by the 10-fold
mean of the development macro-F1; test macro-F1 mean and standard
deviation are reported for the selected peak.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..bbpe import ByteVocab
from ..corpus import kfold_split
from ..metrics.aggregate import aggregate_folds, macro_f1
from ..neural.layers import TransformerConfig, mlm_loss
from ..neural.mlm import encode_texts, train_step
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


def _document_embeddings(
    config: TransformerConfig,
    params: dict[str, Tensor],
    vocab: ByteVocab,
    texts: Sequence[str],
) -> Tensor:
    """First-position vectors of the final layer."""
    return encode_texts(config, params, vocab, texts)[-1][:, 0, :]


def _classifier_loss(embeddings: Tensor, params: dict[str, Tensor], targets: np.ndarray) -> Tensor:
    return mlm_loss(embeddings @ params["cls.w"] + params["cls.b"], targets)


def _predict(
    config: TransformerConfig,
    params: dict[str, Tensor],
    vocab: ByteVocab,
    texts: Sequence[str],
    batch_size: int,
) -> list[int]:
    frozen = constants(params)
    out: list[int] = []
    for start in range(0, len(texts), batch_size):
        chunk = texts[start : start + batch_size]
        embeddings = _document_embeddings(config, frozen, vocab, chunk)
        logits = embeddings.data @ params["cls.w"].data + params["cls.b"].data
        out.extend(int(i) for i in np.argmax(logits, axis=-1))
    return out


def _macro_f1_on(gold: Sequence[int], predicted: Sequence[int]) -> float:
    confusion = np.zeros((len(LABELS), len(LABELS)))
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
    config: TransformerConfig,
    pretrained: dict[str, Tensor],
    vocab: ByteVocab,
    texts: Sequence[str],
    targets: np.ndarray,
    train_indices: list[int],
    peak_lr: float,
    seed: int,
    batch_size: int,
    classifier_lr: float,
    warmup_epochs: float,
    decay_epochs: float,
) -> dict[str, Tensor]:
    # Trainable copies without the masked-LM head (``mlm.*``), which no fold reads.
    params = {
        name: Tensor(p.data.copy(), requires_grad=True)
        for name, p in pretrained.items()
        if not name.startswith("mlm.")
    }
    # Zero-initialized probing head: epoch-1 behavior then depends only on
    # the frozen features.
    dtype = next(iter(params.values())).data.dtype
    params["cls.w"] = Tensor(np.zeros((config.hidden, len(LABELS)), dtype=dtype), requires_grad=True)
    params["cls.b"] = Tensor(np.zeros(len(LABELS), dtype=dtype), requires_grad=True)

    adam = AdamConfig(lazy=True)
    state = AdamState()
    rng = np.random.Generator(np.random.PCG64(seed))
    schedule = ScheduleConfig(
        "cosine_warmup_decay", peak_lr, warmup_epochs, warmup_epochs + decay_epochs
    )
    steps_per_epoch = max(1, math.ceil(len(train_indices) / batch_size))
    total_epochs = int(schedule.total_steps) + 1
    # Views of the same arrays: they see every in-place Adam update.
    frozen = constants(params)

    for epoch in range(1, total_epochs + 1):
        order = [train_indices[i] for i in rng.permutation(len(train_indices))]
        for step, start in enumerate(range(0, len(order), batch_size)):
            chunk = order[start : start + batch_size]
            embeddings = _document_embeddings(
                config, frozen if epoch == 1 else params, vocab, [texts[i] for i in chunk]
            )
            if epoch == 1:
                lr = classifier_lr
            else:
                lr = schedule_lr(schedule, (epoch - 2) + (step + 1) / steps_per_epoch)
            train_step(params, state, adam, _classifier_loss(embeddings, params, targets[chunk]), lr)
            # Free this step's graph before the next forward pass builds one.
            del embeddings
    return params


def run_sentiment_protocol(
    items: Sequence[SentimentItem],
    config: TransformerConfig,
    params: dict[str, Tensor],
    vocab: ByteVocab,
    lr_grid: Sequence[float] = DEFAULT_LR_GRID,
    k: int = 10,
    seed: int = 0,
    batch_size: int = 64,
    classifier_lr: float = 1e-3,
    dev_fraction: float = 0.10,
    warmup_epochs: float = 4.0,
    decay_epochs: float = 10.0,
) -> SentimentProtocolResult:
    """Full grid / k-fold protocol; returns the selected peak learning
    rate and the fold statistics at that peak."""
    if not items:
        raise SentimentError("empty dataset")
    texts = [item.text for item in items]
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
            trained = _train_one_fold(
                config, params, vocab, texts, targets, train_indices, lr, fold_seed,
                batch_size, classifier_lr, warmup_epochs, decay_epochs,
            )

            def evaluate(indices: list[int]) -> float:
                predicted = _predict(
                    config, trained, vocab, [texts[i] for i in indices], batch_size
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
