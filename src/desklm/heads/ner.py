"""Flat and nested named-entity machinery.

Flat NER uses a linear-chain CRF over BIO tags: the log partition comes
from the forward algorithm in log space, decoding from Viterbi, and BIO
validity is enforced by large negative transition penalties (finite so
gradients stay well defined).  Nested NER linearizes the per-token stack
of covering entities, outermost first, into composite labels that invert
exactly on well-nested span sets.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..corpus import EntitySpan, spans_cross
from ..neural.tensor import Tensor, logsumexp

#: Finite stand-in for forbidden transitions; -inf would poison gradients.
FORBIDDEN = -1e4


# ---------------------------------------------------------------------------
# Linear-chain CRF


def crf_log_partition(emissions: Tensor, transitions: Tensor, start: Tensor) -> Tensor:
    """Log of the summed exponentiated path scores (forward algorithm)."""
    length, num_labels = emissions.shape
    if transitions.shape != (num_labels, num_labels):
        raise ValueError("transition matrix shape mismatch")
    alpha = emissions[0] + start
    for t in range(1, length):
        step = alpha.reshape(num_labels, 1) + transitions + emissions[t].reshape(1, num_labels)
        alpha = logsumexp(step, axis=0)
    return logsumexp(alpha, axis=0)


def crf_path_score(
    emissions: Tensor, transitions: Tensor, tags: Sequence[int], start: Tensor
) -> Tensor:
    length = emissions.shape[0]
    if len(tags) != length:
        raise ValueError(f"expected {length} tags, got {len(tags)}")
    score = emissions[0, tags[0]] + start[tags[0]]
    for t in range(1, length):
        score = score + transitions[tags[t - 1], tags[t]] + emissions[t, tags[t]]
    return score


def crf_loss(
    emissions: Tensor, transitions: Tensor, tags: Sequence[int], start: Tensor
) -> Tensor:
    """Negative log-likelihood of the gold tag sequence."""
    return crf_log_partition(emissions, transitions, start) - crf_path_score(
        emissions, transitions, tags, start
    )


def crf_decode(emissions: np.ndarray, transitions: np.ndarray, start: np.ndarray) -> list[int]:
    """Viterbi decoding; ties resolve to the smaller label id."""
    emissions = np.asarray(emissions, dtype=np.float64)
    transitions = np.asarray(transitions, dtype=np.float64)
    length, num_labels = emissions.shape
    delta = emissions[0] + np.asarray(start, dtype=np.float64)
    backpointers = np.zeros((length, num_labels), dtype=np.int64)
    for t in range(1, length):
        candidate = delta[:, None] + transitions
        backpointers[t] = np.argmax(candidate, axis=0)
        delta = candidate[backpointers[t], np.arange(num_labels)] + emissions[t]
    best_last = int(np.argmax(delta))
    path = [best_last]
    for t in range(length - 1, 0, -1):
        path.append(int(backpointers[t, path[-1]]))
    return path[::-1]


# ---------------------------------------------------------------------------
# BIO tag algebra


def bio_label_set(entity_types: Sequence[str]) -> list[str]:
    """["O", "B-X", "I-X", ...] in a stable order."""
    labels = ["O"]
    for entity_type in sorted(set(entity_types)):
        labels.extend([f"B-{entity_type}", f"I-{entity_type}"])
    return labels


def bio_constraint_penalties(labels: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """(transition, start) additive penalties enforcing BIO validity."""
    count = len(labels)
    transition = np.zeros((count, count))
    start = np.zeros(count)
    for j, to_label in enumerate(labels):
        if not to_label.startswith("I-"):
            continue
        entity = to_label[2:]
        start[j] = FORBIDDEN
        for i, from_label in enumerate(labels):
            if from_label not in (f"B-{entity}", f"I-{entity}"):
                transition[i, j] = FORBIDDEN
    return transition, start


def spans_to_bio(spans: Sequence[EntitySpan], length: int) -> list[str]:
    """Flat (non-nested) spans to BIO tags; overlaps are rejected."""
    tags = ["O"] * length
    for start, end, label in sorted(spans):
        for position in range(start, end + 1):
            if tags[position - 1] != "O":
                raise ValueError(f"span ({start},{end},{label}) overlaps another span")
            tags[position - 1] = ("B-" if position == start else "I-") + label
    return tags


def bio_to_spans(tags: Sequence[str]) -> list[EntitySpan]:
    """Greedy inverse of :func:`spans_to_bio`, tolerant of orphan I tags."""
    spans: list[EntitySpan] = []
    open_start, open_label = None, None
    for position, tag in enumerate(tags, start=1):
        if tag.startswith("I-") and open_label == tag[2:]:
            continue
        if open_start is not None:
            spans.append((open_start, position - 1, open_label))
            open_start, open_label = None, None
        if tag != "O":
            open_start, open_label = position, tag[2:]
    if open_start is not None:
        spans.append((open_start, len(tags), open_label))
    return spans


# ---------------------------------------------------------------------------
# Nested label linearization

#: Per-token stacks of BIO tags, outermost entity first; () encodes "O".
NestedLabelSequence = list[tuple[str, ...]]


def encode_nested(spans: Sequence[EntitySpan], length: int) -> NestedLabelSequence:
    """Per token, the BIO tags of all covering entities, outermost first."""
    unique = sorted(set(spans), key=lambda s: (s[0], -s[1], s[2]))
    for start, end, label in unique:
        if not (1 <= start <= end <= length):
            raise ValueError(f"span ({start},{end},{label}) out of range")
    for i, a in enumerate(unique):
        for b in unique[i + 1 :]:
            if spans_cross(a, b):
                raise ValueError(f"spans {a} and {b} cross")
    stacks: NestedLabelSequence = []
    for token in range(1, length + 1):
        covering = [s for s in unique if s[0] <= token <= s[1]]
        stacks.append(
            tuple(
                ("B-" if token == start else "I-") + label
                for start, end, label in covering
            )
        )
    return stacks


def decode_nested(stacks: NestedLabelSequence) -> list[EntitySpan]:
    """Invert :func:`encode_nested` exactly on well-nested encodings."""
    spans: list[EntitySpan] = []
    active: list[tuple[int, str]] = []
    for token, stack in enumerate(stacks, start=1):
        keep = 0
        while keep < min(len(active), len(stack)):
            tag = stack[keep]
            if tag.startswith("I-") and active[keep][1] == tag[2:]:
                keep += 1
            else:
                break
        for start, label in reversed(active[keep:]):
            spans.append((start, token - 1, label))
        del active[keep:]
        for tag in stack[keep:]:
            label = tag[2:] if tag.startswith(("B-", "I-")) else tag
            active.append((token, label))
    final = len(stacks)
    for start, label in reversed(active):
        spans.append((start, final, label))
    return sorted(spans, key=lambda s: (s[0], -s[1], s[2]))


def render_stack(stack: tuple[str, ...]) -> str:
    """File form of one token's stack: tags joined by '|', or 'O'."""
    return "|".join(stack) if stack else "O"


def parse_stack(raw: str) -> tuple[str, ...]:
    return () if raw == "O" else tuple(raw.split("|"))
