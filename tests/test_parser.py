"""Tests for biaffine scoring and arborescence decoding."""

import functools
import itertools
import re

import numpy as np
import pytest

from desklm.heads import parser
from desklm.heads.parser import (
    DepArcScores,
    biaffine_scores,
    decode_tree,
    init_biaffine_params,
)
from desklm.neural.tensor import Tensor

from gradcheck import gradient_check


@functools.lru_cache(maxsize=None)
def _valid_head_assignments(n: int, single_root: bool) -> np.ndarray:
    """All arborescences over tokens 1..n, one row of heads each (0 = root)."""
    valid = []
    for heads in itertools.product(*(range(n + 1) for _ in range(n))):
        if any(heads[d] == d + 1 for d in range(n)):
            continue
        if single_root and sum(1 for h in heads if h == 0) != 1:
            continue
        ok = True
        for d in range(1, n + 1):
            seen = set()
            node = d
            while node != 0:
                if node in seen:
                    ok = False
                    break
                seen.add(node)
                node = heads[node - 1]
            if not ok:
                break
        if ok:
            valid.append(heads)
    valid = np.array(valid, dtype=np.intp).reshape(-1, n)
    valid.flags.writeable = False
    return valid


def _brute_force_best(arc: np.ndarray, single_root: bool = True) -> float:
    n = arc.shape[1]
    return arc[_valid_head_assignments(n, single_root), np.arange(n)].sum(axis=1).max()


def _tree_score(arc: np.ndarray, heads: list[int]) -> float:
    return sum(arc[h, d] for d, h in enumerate(heads))


def _planted_arc(rng: np.random.RandomState, n: int, ambiguous: bool) -> np.ndarray:
    """Noisy scores around a random tree with one root child; when
    ``ambiguous``, a second token scores highest from the root, so the
    unconstrained optimum has two root children."""
    gold_heads = [0] + [int(rng.randint(1, d)) for d in range(2, n + 1)]
    order = rng.permutation(n) + 1
    relabel = dict(zip(range(1, n + 1), order))
    arc = rng.randn(n + 1, n)
    arc[0] -= 3.0
    for d, h in enumerate(gold_heads, start=1):
        arc[relabel.get(h, 0), relabel[d] - 1] += 3.0
    arc[0, relabel[1] - 1] += 6.0
    if ambiguous:
        other = relabel[2]
        arc[0, other - 1] = arc.max() + 3.0
    return arc


def _weight(arc: np.ndarray) -> np.ndarray:
    """The (n+1, n+1) matrix that ``decode_tree`` hands to the search."""
    n = arc.shape[1]
    weight = np.full((n + 1, n + 1), -np.inf)
    weight[:, 1:] = arc
    np.fill_diagonal(weight[1:, 1:], -np.inf)
    return weight


def _is_valid_arborescence(heads: list[int], single_root: bool = True) -> bool:
    n = len(heads)
    if single_root and sum(1 for h in heads if h == 0) != 1:
        return False
    for d in range(1, n + 1):
        node, seen = d, set()
        while node != 0:
            if node in seen or not (0 <= heads[node - 1] <= n):
                return False
            seen.add(node)
            node = heads[node - 1]
    return True


class TestBiaffineScores:
    def test_constant_bias_case(self):
        heads = Tensor(np.random.RandomState(0).randn(3, 4))
        deps = Tensor(np.random.RandomState(1).randn(2, 4))
        params = {
            "arc.U": Tensor(np.zeros((4, 4))),
            "arc.u": Tensor(np.zeros((4, 1))),
            "arc.v": Tensor(np.zeros((4, 1))),
            "arc.b": Tensor(np.asarray(3.0)),
        }
        scores = biaffine_scores(heads, deps, params)
        assert np.allclose(scores.arc.data, 3.0)

    def test_hand_matrix_algebra(self):
        # H rows e1, e2; D row (1, 1); U = diag(2, 5): bilinear terms 2 and 5.
        heads = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        deps = Tensor(np.array([[1.0, 1.0]]))
        u = np.array([[0.25], [0.5]])
        v = np.array([[1.0], [2.0]])
        params = {
            "arc.U": Tensor(np.array([[2.0, 0.0], [0.0, 5.0]])),
            "arc.u": Tensor(u),
            "arc.v": Tensor(v),
            "arc.b": Tensor(np.asarray(0.125)),
        }
        scores = biaffine_scores(heads, deps, params).arc.data
        # score(i, 0) = H_i U D_0 + u' H_i + v' D_0 + b
        assert scores[0, 0] == pytest.approx(2.0 + 0.25 + 3.0 + 0.125)
        assert scores[1, 0] == pytest.approx(5.0 + 0.5 + 3.0 + 0.125)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            biaffine_scores(
                Tensor(np.zeros((3, 4))),
                Tensor(np.zeros((2, 5))),
                init_biaffine_params(4, 2, seed=0, dtype=np.float64),
            )

    def test_label_scores_shape(self):
        params = init_biaffine_params(4, 3, seed=1, dtype=np.float64)
        scores = biaffine_scores(
            Tensor(np.random.RandomState(2).randn(5, 4)),
            Tensor(np.random.RandomState(3).randn(4, 4)),
            params,
        )
        assert scores.arc.shape == (5, 4)
        assert scores.label.shape == (5, 4, 3)

    def test_gradient_check(self):
        params = init_biaffine_params(3, 2, seed=4, dtype=np.float64)
        heads = Tensor(np.random.RandomState(5).randn(3, 3), requires_grad=True)
        deps = Tensor(np.random.RandomState(6).randn(2, 3), requires_grad=True)
        weights_arc = Tensor(np.random.RandomState(7).randn(3, 2))
        weights_label = Tensor(np.random.RandomState(8).randn(3, 2, 2))

        def f():
            scores = biaffine_scores(heads, deps, params)
            return (scores.arc * weights_arc).sum() + (scores.label * weights_label).sum()

        checked = dict(params)
        checked.update({"H": heads, "D": deps})
        assert gradient_check(f, checked).passed


class TestDecodeTree:
    def test_single_token_attaches_to_root(self):
        scores = DepArcScores(arc=Tensor(np.array([[1.0], [0.0]])))
        heads, labels = decode_tree(scores)
        assert heads == [0]
        assert labels is None

    def test_greedy_cycle_is_avoided(self):
        # Token 1 prefers token 2 and vice versa; greedy argmax forms a
        # cycle, the decoder must return the acyclic optimum.
        arc = np.array(
            [
                [1.0, 1.0],   # root -> 1, root -> 2
                [0.0, 10.0],  # 1 -> 2
                [10.0, 0.0],  # 2 -> 1
            ]
        )
        heads, _ = decode_tree(DepArcScores(arc=Tensor(arc)))
        assert _is_valid_arborescence(heads)
        assert _tree_score(arc, heads) == pytest.approx(_brute_force_best(arc))
        assert heads in ([2, 0], [0, 1])  # 11 = best = 1 + 10

    def test_labels_argmax_per_selected_arc(self):
        arc = np.array([[5.0, 0.0], [0.0, 5.0], [0.0, 0.0]])
        label = np.zeros((3, 2, 3))
        label[0, 0, 2] = 9.0
        label[1, 1, 1] = 9.0
        scores = DepArcScores(arc=Tensor(arc), label=Tensor(label))
        heads, labels = decode_tree(scores, single_root=False)
        assert heads == [0, 1]
        assert labels == [2, 1]

    def test_non_finite_scores_rejected(self):
        with pytest.raises(ValueError):
            decode_tree(DepArcScores(arc=Tensor(np.array([[np.inf], [0.0]]))))

    @pytest.mark.parametrize(
        "arc_shape, label_shape, expected",
        [
            ((3, 3), None, "(n+1, n)"),
            ((3,), None, "(n+1, n)"),
            ((2, 3, 1), None, "(n+1, n)"),
            ((0, 0), None, "(n+1, n)"),
            # The root row is missing: labels would be read one row off.
            ((4, 3), (3, 3, 2), "(n+1, n, R) = (4, 3, R)"),
            ((4, 3), (4, 3), "(n+1, n, R) = (4, 3, R)"),
            ((4, 3), (4, 3, 0), "(n+1, n, R) = (4, 3, R)"),
            ((1, 0), (1, 1, 2), "(n+1, n, R) = (1, 0, R)"),
        ],
    )
    def test_misshaped_scores_rejected(self, arc_shape, label_shape, expected):
        label = None if label_shape is None else Tensor(np.zeros(label_shape))
        named = "arc" if label is None else "label"
        message = f"{named} scores have shape {label_shape or arc_shape}, expected {expected}"
        with pytest.raises(ValueError, match=re.escape(message)):
            decode_tree(DepArcScores(arc=Tensor(np.zeros(arc_shape)), label=label))

    @pytest.mark.parametrize("single_root", [True, False])
    def test_random_instances_match_brute_force(self, single_root):
        rng = np.random.RandomState(42)
        for trial in range(300):
            n = rng.randint(1, 7)
            arc = rng.randn(n + 1, n) * 3
            heads, _ = decode_tree(DepArcScores(arc=Tensor(arc)), single_root=single_root)
            assert _is_valid_arborescence(heads, single_root)
            assert _tree_score(arc, heads) == pytest.approx(
                _brute_force_best(arc, single_root), abs=1e-9
            ), (trial, n, heads)

    def test_same_heads_as_the_single_root_search(self):
        rng = np.random.RandomState(29)
        free_single_rooted = 0
        for n in range(1, 61):
            for arc in (rng.randn(n + 1, n), _planted_arc(rng, n, ambiguous=False)):
                heads, _ = decode_tree(DepArcScores(arc=Tensor(arc)))
                assert heads == parser._max_arborescence(_weight(arc), True).tolist(), n
                free = parser._max_arborescence(_weight(arc), False)
                free_single_rooted += np.count_nonzero(free == 0) == 1
        # Both paths of decode_tree ran.
        assert 60 <= free_single_rooted < 120

    @pytest.mark.parametrize("single_root", [True, False])
    def test_integer_ties_reach_the_brute_force_optimum(self, single_root):
        rng = np.random.RandomState(7)
        for trial in range(300):
            n = rng.randint(1, 7)
            arc = rng.randint(0, 3, size=(n + 1, n)).astype(np.float64)
            heads, _ = decode_tree(DepArcScores(arc=Tensor(arc)), single_root=single_root)
            assert _is_valid_arborescence(heads, single_root)
            assert _tree_score(arc, heads) == _brute_force_best(arc, single_root), (trial, arc)

    @pytest.mark.parametrize("ambiguous, passes", [(False, [False]), (True, [False, True])])
    def test_single_root_pass_runs_only_on_several_root_children(
        self, monkeypatch, ambiguous, passes
    ):
        calls = []
        search = parser._max_arborescence

        def counted(weight, single_root):
            calls.append(single_root)
            return search(weight, single_root)

        monkeypatch.setattr(parser, "_max_arborescence", counted)
        arc = _planted_arc(np.random.RandomState(100), 100, ambiguous)
        heads, _ = decode_tree(DepArcScores(arc=Tensor(arc)))
        assert calls == passes
        assert heads.count(0) == 1

    def test_tie_scores_still_valid(self):
        arc = np.zeros((4, 3))
        heads, _ = decode_tree(DepArcScores(arc=Tensor(arc)))
        assert _is_valid_arborescence(heads)

    @pytest.mark.parametrize(
        "arc, single_root, expected",
        [
            # All scores equal.
            (np.zeros((5, 4)), True, [0, 1, 1, 1]),
            (np.zeros((5, 4)), False, [0, 0, 0, 0]),
            # Token 3 scores 4 from token 1 and from token 2.
            ([[5, 0, 0], [0, 5, 4], [0, 0, 4], [0, 0, 0]], True, [0, 1, 1]),
            ([[5, 0, 0], [0, 5, 4], [0, 0, 4], [0, 0, 0]], False, [0, 1, 1]),
            # Token 2 scores 3 from the root and from token 1.
            ([[5, 3], [0, 3], [0, 0]], False, [0, 0]),
            # A symmetric cycle: the root enters it at token 1, which then
            # heads token 2, rather than at token 2.
            ([[1, 1], [0, 10], [10, 0]], True, [0, 1]),
            # Tokens 1 and 2 form a cycle; token 3 scores 5 from either.
            ([[1, 0, 0], [0, 10, 5], [10, 0, 5], [0, 0, 0]], True, [0, 1, 1]),
        ],
    )
    def test_score_ties_go_to_the_smaller_head(self, arc, single_root, expected):
        arc = np.array(arc, dtype=np.float64)
        heads, _ = decode_tree(DepArcScores(arc=Tensor(arc)), single_root=single_root)
        assert heads == expected

    def test_float32_scores(self):
        rng = np.random.RandomState(7)
        arc = rng.randn(13, 12).astype(np.float32)
        label = rng.randn(13, 12, 5).astype(np.float32)
        heads, labels = decode_tree(DepArcScores(arc=Tensor(arc), label=Tensor(label)))
        heads64, labels64 = decode_tree(
            DepArcScores(arc=Tensor(arc.astype(np.float64)), label=Tensor(label.astype(np.float64)))
        )
        assert _is_valid_arborescence(heads)
        assert (heads, labels) == (heads64, labels64)
        assert labels == [int(np.argmax(label[h, d])) for d, h in enumerate(heads)]

    @pytest.mark.parametrize("n", [100, 120, 150])
    def test_ambiguous_root_worst_case(self, n):
        arc = _planted_arc(np.random.RandomState(n), n, ambiguous=True)
        heads, _ = decode_tree(DepArcScores(arc=Tensor(arc)))
        assert _is_valid_arborescence(heads)
        unconstrained, _ = decode_tree(DepArcScores(arc=Tensor(arc)), single_root=False)
        assert unconstrained.count(0) > 1

        # Oracle: forbid all root arcs but one, decode without the root
        # constraint, keep the best over all allowed root children.
        best = -np.inf
        for child in range(n):
            masked = arc.copy()
            masked[0] = -1e6
            masked[0, child] = arc[0, child]
            forced, _ = decode_tree(DepArcScores(arc=Tensor(masked)), single_root=False)
            assert forced[child] == 0 and forced.count(0) == 1
            best = max(best, _tree_score(arc, forced))
        assert _tree_score(arc, heads) == pytest.approx(best, abs=1e-9)
