"""The MCES searches as they were before they moved onto index tables.

``Problem`` keys its terms by node id in dicts, and ``local_score`` scores
a set of changed nodes against a mapping dict; ``exact_search``,
``greedy_start`` and ``hill_climb`` drive it in the same order as the
searches of ``desklm.metrics.mrp``, so both must return the same mapping
for every pair.  ``exact_alignment`` and ``hill_climb_alignment`` run a
search and score its mapping.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from desklm.metrics.mrp import (
    McesAlignment,
    MrpGraph,
    _FacetIndex,
    _mapping_score,
)


@dataclass(frozen=True)
class Problem:
    gold_ids: list[int]
    system_ids: list[int]
    pair: dict[int, dict[int, int]]
    groups: list[tuple[int, int, int, int]]
    incident: dict[int, list[tuple[int, dict[tuple[int, int], int], bool]]]

    @classmethod
    def build(
        cls, gold_graph: MrpGraph, gold: _FacetIndex, system_graph: MrpGraph, system: _FacetIndex
    ) -> "Problem":
        gold_ids = [n.id for n in gold_graph.nodes]
        system_ids = [n.id for n in system_graph.nodes]
        gold_props = _properties_by_node(gold)
        system_props = _properties_by_node(system)
        pair: dict[int, dict[int, int]] = {}
        for g in gold_ids:
            label = gold.labels.get(g)
            anchors = gold.anchors.get(g)
            props = gold_props.get(g, {})
            top = g in gold.tops
            pair[g] = {
                s: (top and s in system.tops)
                + (label is not None and label == system.labels.get(s))
                + (anchors is not None and anchors == system.anchors.get(s))
                + sum(
                    min(count, system_props.get(s, {}).get(key, 0))
                    for key, count in props.items()
                )
                for s in system_ids
            }

        gold_attributes: dict[tuple, list[tuple[str, str, int]]] = {}
        for (src, tgt, label, name, value), count in gold.attributes.items():
            gold_attributes.setdefault((src, tgt, label), []).append((name, value, count))
        system_edges: dict[str | None, list[tuple[int, int, int]]] = {}
        for (a, b, label), count in system.edges.items():
            system_edges.setdefault(label, []).append((a, b, count))
        groups = []
        incident: dict[int, list] = {g: [] for g in gold_ids}
        for (src, tgt, label), count in gold.edges.items():
            attributes = gold_attributes.get((src, tgt, label), [])
            terms = {
                (a, b): min(count, system_count)
                + sum(
                    min(c, system.attributes.get((a, b, label, name, value), 0))
                    for name, value, c in attributes
                )
                for a, b, system_count in system_edges.get(label, [])
            }
            weight = count + sum(c for _, _, c in attributes)
            groups.append((src, tgt, weight, max(terms.values(), default=0)))
            incident[src].append((tgt, terms, True))
            if tgt != src:
                incident[tgt].append((src, terms, False))
        return cls(gold_ids, system_ids, pair, groups, incident)

    def local_score(self, mapping: dict[int, int], changed: dict[int, int | None]) -> int:
        total = 0
        done: tuple[int, ...] = ()
        for node, image in changed.items():
            if image is not None:
                total += self.pair[node][image]
                for other, terms, forward in self.incident[node]:
                    if other in done:
                        continue
                    t = changed[other] if other in changed else mapping.get(other)
                    total += terms.get((image, t) if forward else (t, image), 0)
            done += (node,)
        return total


def _properties_by_node(index: _FacetIndex) -> dict[int, dict[tuple[str, str], int]]:
    by_node: dict[int, dict[tuple[str, str], int]] = {}
    for (node, name, value), count in index.properties.items():
        by_node.setdefault(node, {})[(name, value)] = count
    return by_node


def exact_search(problem: Problem) -> dict[int, int]:
    pair = problem.pair
    gold_ids = list(problem.gold_ids)
    best_pair = {g: max(pair[g].values(), default=0) for g in gold_ids}
    edge_weight: dict[int, int] = dict.fromkeys(gold_ids, 0)
    for src, tgt, weight, _ in problem.groups:
        edge_weight[src] += weight
        if tgt != src:
            edge_weight[tgt] += weight
    gold_ids.sort(key=lambda g: -(best_pair[g] + edge_weight[g]))
    position = {g: i for i, g in enumerate(gold_ids)}
    closing = [0] * len(gold_ids)
    for src, tgt, _, cap in problem.groups:
        closing[max(position[src], position[tgt])] += cap
    suffix_bound = [0] * (len(gold_ids) + 1)
    for i in range(len(gold_ids) - 1, -1, -1):
        suffix_bound[i] = suffix_bound[i + 1] + best_pair[gold_ids[i]] + closing[i]
    candidates = {g: sorted(problem.system_ids, key=lambda s: -pair[g][s]) for g in gold_ids}

    best_mapping: dict[int, int] = {}
    best_score = 0

    def recurse(index: int, current: int, mapping: dict[int, int], used: set[int]):
        nonlocal best_mapping, best_score
        if current + suffix_bound[index] <= best_score:
            return
        if index == len(gold_ids):
            best_score = current
            best_mapping = dict(mapping)
            return
        g = gold_ids[index]
        for s in candidates[g]:
            if s in used:
                continue
            gain = problem.local_score(mapping, {g: s})
            mapping[g] = s
            used.add(s)
            recurse(index + 1, current + gain, mapping, used)
            del mapping[g]
            used.remove(s)
        recurse(index + 1, current, mapping, used)

    recurse(0, 0, {}, set())
    return best_mapping


def greedy_start(problem: Problem, rng: random.Random) -> tuple[dict[int, int], int]:
    order = list(problem.gold_ids)
    rng.shuffle(order)
    available = set(problem.system_ids)
    mapping: dict[int, int] = {}
    score = 0
    for g in order:
        if not available:
            break
        scores = problem.pair[g]
        best_s = max(sorted(available), key=lambda s: (scores[s], -s))
        score += problem.local_score(mapping, {g: best_s})
        mapping[g] = best_s
        available.remove(best_s)
    return mapping, score


def hill_climb(problem: Problem, restarts: int, seed: int) -> dict[int, int]:
    moves = problem.system_ids + [None]
    best_mapping: dict[int, int] = {}
    best_score = 0
    for restart in range(restarts):
        rng = random.Random(seed * 1_000_003 + restart)
        mapping, score = greedy_start(problem, rng)
        owner = {s: g for g, s in mapping.items()}
        improved = True
        while improved:
            improved = False
            for g in problem.gold_ids:
                current_s = mapping.get(g)
                for s in moves:
                    if s == current_s:
                        continue
                    changed = {g: s}
                    displaced = owner.get(s)
                    if displaced is not None:
                        changed[displaced] = current_s
                    gain = problem.local_score(mapping, changed) - problem.local_score(
                        mapping, {node: mapping.get(node) for node in changed}
                    )
                    if gain > 0:
                        for node in changed:
                            owner.pop(mapping.get(node), None)
                        for node, image in changed.items():
                            if image is None:
                                del mapping[node]
                            else:
                                mapping[node] = image
                                owner[image] = node
                        score += gain
                        improved = True
                        break
                if improved:
                    break
        if score > best_score:
            best_mapping, best_score = mapping, score
    return best_mapping


def _alignment(gold: MrpGraph, system: MrpGraph, search, exact: bool) -> McesAlignment:
    gold_index, system_index = _FacetIndex.build(gold), _FacetIndex.build(system)
    mapping = search(Problem.build(gold, gold_index, system, system_index))
    return McesAlignment(mapping, _mapping_score(gold_index, system_index, mapping), exact)


def exact_alignment(gold: MrpGraph, system: MrpGraph) -> McesAlignment:
    return _alignment(gold, system, exact_search, True)


def hill_climb_alignment(
    gold: MrpGraph, system: MrpGraph, restarts: int, seed: int
) -> McesAlignment:
    return _alignment(gold, system, lambda problem: hill_climb(problem, restarts, seed), False)
