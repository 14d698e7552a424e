"""Biaffine arc/label scoring and maximum-spanning-arborescence decoding.

Arc score(i, j) = Hi' U Dj + u'Hi + v'Dj + b over head representations H
(artificial root prepended, n+1 rows) and dependent representations D
(n rows).

``decode_tree`` runs Chu-Liu/Edmonds once over a dense (n+1, n+1) score
matrix.  Each column's argmax is its greedy head; a greedy cycle becomes
one node, whose entering arcs (score minus the cycle arc they displace)
and leaving arcs are chosen by vectorised argmaxes; this repeats until
the greedy heads form a tree, which is expanded back through the
contractions.  The single-root constraint (Zmigrod, Vieira and Cotterell
2020, arXiv:2010.02550) is applied in the same pass: root arcs stay out
of the greedy choice while more than one node remains, so contraction
goes on until all tokens are one node, which then takes the best root
arc.  That is Chu-Liu/Edmonds under the lexicographic weight (-root
arcs, score), so the result is exact with no re-decode per root child.
At most n contractions of O(n^2) vectorised work each: O(n^3) in all.
Score ties go to the smaller head: every argmax breaks ties by the tokens
behind the (possibly contracted) arcs, toward the smaller head token, or
the smaller dependent token when choosing where an arc enters a cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..neural.layers import uniform_param, zeros_param
from ..neural.tensor import Tensor

NEG_INF = float("-inf")


@dataclass(eq=False)
class DepArcScores:
    """Arc scores (n+1, n) and per-relation label scores (n+1, n, R)."""

    arc: Tensor
    label: Tensor | None = None

    @property
    def sentence_length(self) -> int:
        return self.arc.shape[1]


def init_biaffine_params(
    repr_dim: int, num_relations: int, seed: int = 0, dtype=np.float32
) -> dict[str, Tensor]:
    rng = np.random.Generator(np.random.PCG64(seed))

    def uniform(shape):
        return uniform_param(rng, shape, repr_dim, dtype)

    return {
        "arc.U": uniform((repr_dim, repr_dim)),
        "arc.u": uniform((repr_dim, 1)),
        "arc.v": uniform((repr_dim, 1)),
        "arc.b": zeros_param((), dtype),
        "label.U": uniform((num_relations, repr_dim, repr_dim)),
        "label.u": uniform((repr_dim, num_relations)),
        "label.v": uniform((repr_dim, num_relations)),
        "label.b": zeros_param(num_relations, dtype),
    }


def biaffine_scores(heads: Tensor, dependents: Tensor, params: dict[str, Tensor]) -> DepArcScores:
    """Score all (head candidate, dependent) pairs.

    ``heads`` has n+1 rows (root first), ``dependents`` n rows.
    """
    if heads.shape[1] != dependents.shape[1]:
        raise ValueError(
            f"representation dims disagree: {heads.shape[1]} vs {dependents.shape[1]}"
        )
    arc = (
        (heads @ params["arc.U"]) @ dependents.transpose(1, 0)
        + heads @ params["arc.u"]
        + (dependents @ params["arc.v"]).transpose(1, 0)
        + params["arc.b"]
    )
    label = None
    if "label.U" in params:
        # (R, n+1, d) @ (d, n) -> (R, n+1, n) -> (n+1, n, R)
        bilinear = ((heads @ params["label.U"]) @ dependents.transpose(1, 0)).transpose(1, 2, 0)
        label = (
            bilinear
            + (heads @ params["label.u"]).reshape(heads.shape[0], 1, -1)
            + (dependents @ params["label.v"]).reshape(1, dependents.shape[0], -1)
            + params["label.b"]
        )
    return DepArcScores(arc=arc, label=label)


def _greedy_cycle(greedy: list[int]) -> list[int] | None:
    """The first cycle of node -> greedy[node] met walking from node 1 up;
    node 0 (the root) has no head."""
    state = [0] * len(greedy)  # 0 unseen, 1 on the current walk, 2 done
    state[0] = 2
    for start in range(1, len(greedy)):
        path, node = [], start
        while state[node] == 0:
            state[node] = 1
            path.append(node)
            node = greedy[node]
        if state[node] == 1:
            return path[path.index(node) :]
        for visited in path:
            state[visited] = 2
    return None


def _argmax(values: np.ndarray, token: np.ndarray, axis: int) -> np.ndarray:
    """Argmax along ``axis``; ties go to the smallest ``token``."""
    tied = values == values.max(axis=axis, keepdims=True)
    return np.where(tied, token, np.iinfo(token.dtype).max).argmin(axis=axis)


def _append_node(matrix: np.ndarray, rest: np.ndarray, column, row, corner) -> np.ndarray:
    """Keep the ``rest`` rows and columns, then add a last column and row."""
    out = np.empty((len(rest) + 1,) * 2, dtype=matrix.dtype)
    out[:-1, :-1] = matrix[rest][:, rest]
    out[:-1, -1], out[-1, :-1], out[-1, -1] = column, row, corner
    return out


def _max_arborescence(weight: np.ndarray, single_root: bool) -> np.ndarray:
    """Heads of nodes 1..n in the best arborescence of ``weight[head, dep]``
    ((n+1, n+1), root 0, -inf where an arc is absent)."""
    n = weight.shape[0] - 1
    labels = np.arange(n + 1)  # label of each row/column; contractions get n+1, n+2, ...
    src, dst = np.indices(weight.shape)  # original arc behind each contracted arc
    absorbed_by = np.full(2 * n + 1, -1)
    contractions = []
    while True:
        # Under single_root, root arcs compete only once one node is left.
        first = 1 if single_root and len(labels) > 2 else 0
        greedy = _argmax(weight[first:], src[first:], axis=0) + first
        cycle = _greedy_cycle(greedy.tolist())
        if cycle is None:
            break
        cycle = np.sort(cycle)
        outside = np.ones(len(labels), dtype=bool)
        outside[cycle] = False
        rest = np.flatnonzero(outside)
        inside = greedy[cycle]
        # Entering arc per outside head (ties: smaller dependent token),
        # leaving arc per outside dependent (ties: smaller head token).
        entering = weight[rest][:, cycle] - weight[inside, cycle]
        enter = cycle[_argmax(entering, dst[rest][:, cycle], axis=1)]
        leave = cycle[_argmax(weight[cycle][:, rest], src[cycle][:, rest], axis=0)]
        label = n + 1 + len(contractions)
        contractions.append((label, labels[cycle], src[inside, cycle], dst[inside, cycle]))
        absorbed_by[labels[cycle]] = label
        weight = _append_node(weight, rest, entering.max(axis=1), weight[leave, rest], NEG_INF)
        src = _append_node(src, rest, src[rest, enter], src[leave, rest], 0)
        dst = _append_node(dst, rest, dst[rest, enter], dst[leave, rest], 0)
        labels = np.append(labels[rest], label)

    # Expand: each contraction's entering arc replaces the cycle arc of the
    # member holding its dependent; the other members keep their cycle arcs.
    head_of = np.zeros(2 * n + 1, dtype=np.intp)
    target = np.zeros(2 * n + 1, dtype=np.intp)
    head_of[labels[1:]] = src[greedy[1:], np.arange(1, len(labels))]
    target[labels[1:]] = dst[greedy[1:], np.arange(1, len(labels))]
    for label, members, cycle_heads, cycle_targets in reversed(contractions):
        member = target[label]
        while absorbed_by[member] != label:
            member = absorbed_by[member]
        entered = head_of[label], target[label]
        head_of[members], target[members] = cycle_heads, cycle_targets
        head_of[member], target[member] = entered
    return head_of[1 : n + 1]


def decode_tree(
    scores: DepArcScores, single_root: bool = True
) -> tuple[list[int], list[int] | None]:
    """Decode the maximum-sum arborescence; returns (heads, labels).

    ``heads[i]`` is the head of token i+1 (0 = artificial root); labels
    are per-token relation ids (argmax over the selected arc) or None
    when label scores are absent.
    """
    arc = np.asarray(scores.arc.data, dtype=np.float64)
    if not np.isfinite(arc).all():
        raise ValueError("arc scores must be finite")
    n = arc.shape[1]
    if n == 0:
        return [], [] if scores.label is not None else None

    weight = np.full((n + 1, n + 1), NEG_INF)
    weight[:, 1:] = arc
    np.fill_diagonal(weight[1:, 1:], NEG_INF)
    heads = _max_arborescence(weight, single_root)
    labels = None
    if scores.label is not None:
        labels = np.asarray(scores.label.data)[heads, np.arange(n)].argmax(axis=-1).tolist()
    return heads.tolist(), labels
