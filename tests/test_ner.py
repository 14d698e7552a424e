"""Tests for the linear-chain CRF and nested label linearization."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from desklm.heads.ner import (
    bio_constraint_penalties,
    bio_label_set,
    bio_to_spans,
    crf_decode,
    crf_log_partition,
    crf_loss,
    crf_path_score,
    decode_nested,
    encode_nested,
    parse_stack,
    render_stack,
    spans_to_bio,
)
from desklm.neural.tensor import Tensor

from gradcheck import gradient_check


def _enumerate_log_partition(emissions, transitions, start):
    """Oracle: log-sum-exp over all L^n paths, enumerated explicitly."""
    length, labels = emissions.shape
    scores = []
    for path in itertools.product(range(labels), repeat=length):
        score = emissions[0][path[0]] + start[path[0]]
        for t in range(1, length):
            score += transitions[path[t - 1]][path[t]] + emissions[t][path[t]]
        scores.append(score)
    m = max(scores)
    return m + math.log(sum(math.exp(s - m) for s in scores))


def _enumerate_best_path(emissions, transitions, start):
    length, labels = emissions.shape
    best_path, best_score = None, -math.inf
    for path in itertools.product(range(labels), repeat=length):
        score = emissions[0][path[0]] + start[path[0]]
        for t in range(1, length):
            score += transitions[path[t - 1]][path[t]] + emissions[t][path[t]]
        if score > best_score:
            best_path, best_score = path, score
    return list(best_path), best_score


class TestCrf:
    def test_all_zero_scores_partition_is_n_log_l(self):
        for n, labels in [(1, 2), (3, 3), (5, 4)]:
            value = crf_log_partition(
                Tensor(np.zeros((n, labels))),
                Tensor(np.zeros((labels, labels))),
                Tensor(np.zeros(labels)),
            )
            assert float(value.data) == pytest.approx(n * math.log(labels), rel=1e-12)

    def test_hand_instance_matches_enumeration(self):
        rng = np.random.RandomState(0)
        emissions = rng.randn(3, 3)
        transitions = rng.randn(3, 3)
        start = rng.randn(3)
        ours = crf_log_partition(Tensor(emissions), Tensor(transitions), Tensor(start))
        oracle = _enumerate_log_partition(emissions, transitions, start)
        assert float(ours.data) == pytest.approx(oracle, abs=1e-10)

    def test_decode_matches_enumeration(self):
        rng = np.random.RandomState(1)
        emissions = rng.randn(3, 3)
        transitions = rng.randn(3, 3)
        start = rng.randn(3)
        path = crf_decode(emissions, transitions, start)
        oracle_path, oracle_score = _enumerate_best_path(emissions, transitions, start)
        score = float(
            crf_path_score(Tensor(emissions), Tensor(transitions), path, Tensor(start)).data
        )
        assert score == pytest.approx(oracle_score, abs=1e-10)
        assert path == oracle_path

    def test_random_instances_match_enumeration(self):
        rng = np.random.RandomState(2)
        for _ in range(200):
            n, labels = rng.randint(1, 6), rng.randint(1, 5)
            emissions = rng.randn(n, labels) * 2
            transitions = rng.randn(labels, labels) * 2
            start = rng.randn(labels)
            partition = crf_log_partition(
                Tensor(emissions), Tensor(transitions), Tensor(start)
            )
            assert float(partition.data) == pytest.approx(
                _enumerate_log_partition(emissions, transitions, start), abs=1e-8
            )
            decoded = crf_decode(emissions, transitions, start)
            _, best = _enumerate_best_path(emissions, transitions, start)
            score = float(
                crf_path_score(
                    Tensor(emissions), Tensor(transitions), decoded, Tensor(start)
                ).data
            )
            assert score == pytest.approx(best, abs=1e-8)

    def test_partition_dominates_any_path(self):
        rng = np.random.RandomState(3)
        for _ in range(50):
            n, labels = rng.randint(1, 5), rng.randint(2, 4)
            emissions = rng.randn(n, labels)
            transitions = rng.randn(labels, labels)
            start = Tensor(rng.randn(labels))
            partition = float(
                crf_log_partition(Tensor(emissions), Tensor(transitions), start).data
            )
            for path in itertools.product(range(labels), repeat=n):
                score = float(
                    crf_path_score(
                        Tensor(emissions), Tensor(transitions), list(path), start
                    ).data
                )
                assert partition >= score - 1e-9

    def test_loss_gradient_check(self):
        rng = np.random.RandomState(4)
        emissions = Tensor(rng.randn(4, 3), requires_grad=True)
        transitions = Tensor(rng.randn(3, 3), requires_grad=True)
        start = Tensor(rng.randn(3), requires_grad=True)
        tags = [0, 2, 1, 1]

        def f():
            return crf_loss(emissions, transitions, tags, start)

        report = gradient_check(
            f, {"emissions": emissions, "transitions": transitions, "start": start}
        )
        assert report.passed, report.failing()

    def test_gold_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            crf_loss(
                Tensor(np.zeros((3, 2))), Tensor(np.zeros((2, 2))), [0], Tensor(np.zeros(2))
            )


class TestBio:
    def test_constraints_forbid_invalid_transitions(self):
        labels = bio_label_set(["PER", "LOC"])
        transition, start = bio_constraint_penalties(labels)
        i_per = labels.index("I-PER")
        assert start[i_per] < -1e3
        assert transition[labels.index("O"), i_per] < -1e3
        assert transition[labels.index("B-PER"), i_per] == 0.0
        assert transition[labels.index("I-PER"), i_per] == 0.0
        assert transition[labels.index("B-LOC"), i_per] < -1e3

    def test_bio_span_round_trip(self):
        spans = [(1, 2, "PER"), (4, 4, "LOC")]
        tags = spans_to_bio(spans, 5)
        assert tags == ["B-PER", "I-PER", "O", "B-LOC", "O"]
        assert bio_to_spans(tags) == spans

    def test_adjacent_same_type_spans_preserved(self):
        spans = [(1, 1, "PER"), (2, 2, "PER")]
        assert bio_to_spans(spans_to_bio(spans, 2)) == spans


def _random_well_nested(rng: random.Random, length: int, types=("PER", "ORG", "LOC")):
    spans = set()

    def fill(lo, hi, depth):
        if lo > hi or depth > 3 or rng.random() < 0.3:
            return
        start = rng.randint(lo, hi)
        end = rng.randint(start, hi)
        spans.add((start, end, rng.choice(types)))
        # Recurse strictly inside and strictly outside to stay well-nested.
        fill(start, end, depth + 1)
        if start - 1 >= lo:
            fill(lo, start - 1, depth)
        if end + 1 <= hi:
            fill(end + 1, hi, depth)

    fill(1, length, 0)
    return spans


class TestNestedLinearization:
    def test_hand_example_stack_order(self):
        stacks = encode_nested([(1, 3, "ORG"), (3, 3, "LOC")], 3)
        assert stacks == [("B-ORG",), ("I-ORG",), ("I-ORG", "B-LOC")]

    def test_no_entities_all_empty(self):
        assert encode_nested([], 4) == [(), (), (), ()]
        assert render_stack(()) == "O"

    def test_crossing_spans_rejected(self):
        with pytest.raises(ValueError, match="cross"):
            encode_nested([(1, 3, "A"), (2, 4, "B")], 4)

    def test_round_trip_hand_cases(self):
        cases = [
            {(1, 3, "ORG"), (3, 3, "LOC")},
            {(1, 2, "A"), (1, 2, "B")},
            {(1, 3, "A"), (2, 2, "A")},
            {(1, 1, "PER"), (2, 2, "PER")},
            {(1, 2, "A"), (1, 1, "B")},
            {(1, 3, "A"), (2, 3, "B"), (3, 3, "C")},
            set(),
        ]
        for spans in cases:
            stacks = encode_nested(sorted(spans), 4)
            assert set(decode_nested(stacks)) == spans

    def test_round_trip_fuzz(self):
        rng = random.Random(99)
        for _ in range(2000):
            length = rng.randint(1, 12)
            spans = _random_well_nested(rng, length)
            stacks = encode_nested(sorted(spans), length)
            assert set(decode_nested(stacks)) == spans

    def test_stack_string_round_trip(self):
        stacks = encode_nested([(1, 2, "ORG"), (2, 2, "LOC")], 2)
        rendered = [render_stack(s) for s in stacks]
        assert rendered == ["B-ORG", "I-ORG|B-LOC"]
        assert [parse_stack(r) for r in rendered] == stacks

    @given(st.integers(0, 10_000))
    @settings(max_examples=50)
    def test_round_trip_property(self, seed):
        rng = random.Random(seed)
        length = rng.randint(1, 10)
        spans = _random_well_nested(rng, length)
        assert set(decode_nested(encode_nested(sorted(spans), length))) == spans
