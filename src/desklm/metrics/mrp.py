"""Semantic graph scoring via maximum common edge subgraph alignment.

Graphs carry optional node labels, property/value pairs, character-range
anchors, directed labeled edges with optional attributes, and a top-node
set.  Scoring first searches for the partial injective node mapping that
maximizes the total number of matched items across all six facets (tops,
labels, properties, anchors, edges, attributes), then reports per-facet
precision/recall/F1 plus a pooled micro-average.

The search is exact (branch and bound over injective mappings) when the
larger graph has at most ``NODE_LIMIT`` nodes, and hill-climbing from
``RESTARTS`` greedy starts seeded by ``SEED`` beyond it; the result
records which method produced it.  Input size alone picks the method: a
branch and bound cut off after a step budget, in place of the
hill-climber, found fewer matched items on most 11-16-node pairs.

Both searches score moves incrementally.  Under an injective mapping the
matched-item count is a sum of independent terms: one per mapped gold
node (tops, label, anchors, properties against its image) and one per
group of gold edges sharing a (source, target, label) key (edges and
their attributes against the edges between the endpoints' images).
These terms are precomputed once per pair (``_Problem``).  Branch and
bound carries the running score down the recursion, adding a node's pair
term and the terms of its edges to already-mapped nodes; the bound
charges each edge group once, at its later endpoint in the search order,
the largest of its terms: the most it can match in this system graph.
The hill-climber scores a trial move from the terms of the moved node
and the node it displaces only.  ``_mapping_score`` re-scores a whole
mapping and is the reference the tests compare against.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .counts import PrfCounts

FACETS = ("tops", "labels", "properties", "anchors", "edges", "attributes")

#: Pairs whose larger graph has at most this many nodes are searched exactly.
NODE_LIMIT = 10
#: Greedy restarts of the hill-climber above ``NODE_LIMIT``, and its seed.
RESTARTS = 16
SEED = 0


class MrpError(Exception):
    """Malformed graph or alignment."""


@dataclass(frozen=True)
class MrpNode:
    id: int
    label: str | None = None
    properties: tuple[tuple[str, str], ...] = ()
    anchors: tuple[tuple[int, int], ...] = ()


@dataclass(frozen=True)
class MrpEdge:
    source: int
    target: int
    label: str | None = None
    attributes: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class MrpGraph:
    id: str
    nodes: tuple[MrpNode, ...] = ()
    edges: tuple[MrpEdge, ...] = ()
    tops: frozenset[int] = frozenset()
    input: str | None = None

    def __post_init__(self):
        ids = [n.id for n in self.nodes]
        if len(set(ids)) != len(ids):
            raise MrpError(f"graph {self.id}: duplicate node ids")
        known = set(ids)
        for edge in self.edges:
            if edge.source not in known or edge.target not in known:
                raise MrpError(
                    f"graph {self.id}: edge {edge.source}->{edge.target} "
                    "references unknown node"
                )
        for top in self.tops:
            if top not in known:
                raise MrpError(f"graph {self.id}: top {top} references unknown node")
        if self.input is not None:
            for node in self.nodes:
                for start, end in node.anchors:
                    if not (0 <= start <= end <= len(self.input)):
                        raise MrpError(
                            f"graph {self.id}: anchor ({start},{end}) outside input"
                        )


# ---------------------------------------------------------------------------
# JSON-lines interchange


def _pairs_from_parallel(names, values) -> tuple[tuple[str, str], ...]:
    names = names or []
    values = values or []
    if len(names) != len(values):
        raise MrpError(f"properties/values length mismatch: {names} vs {values}")
    return tuple((str(n), str(v)) for n, v in zip(names, values))


def _integer(value) -> int:
    """A node id, edge endpoint, anchor offset or top: an int or a string
    of one.  ``int()`` alone would truncate 1.5 and accept ``true``."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def read_mrp_jsonl(text: str) -> list[MrpGraph]:
    """Parse JSON-lines graphs (one object per line)."""
    graphs = []
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MrpError(f"line {number}: invalid JSON: {exc}") from None
        if not isinstance(obj, dict):
            raise MrpError(f"line {number}: expected a JSON object")
        try:
            nodes = tuple(
                MrpNode(
                    id=_integer(n["id"]),
                    label=n.get("label"),
                    properties=_pairs_from_parallel(n.get("properties"), n.get("values")),
                    anchors=tuple(
                        (_integer(a["from"]), _integer(a["to"])) for a in n.get("anchors") or []
                    ),
                )
                for n in obj.get("nodes") or []
            )
            edges = tuple(
                MrpEdge(
                    source=_integer(e["source"]),
                    target=_integer(e["target"]),
                    label=e.get("label"),
                    attributes=_pairs_from_parallel(e.get("attributes"), e.get("values")),
                )
                for e in obj.get("edges") or []
            )
            graphs.append(
                MrpGraph(
                    id=str(obj.get("id", number)),
                    nodes=nodes,
                    edges=edges,
                    tops=frozenset(_integer(t) for t in obj.get("tops") or []),
                    input=obj.get("input"),
                )
            )
        except KeyError as exc:
            raise MrpError(f"line {number}: missing field {exc}") from None
        except (TypeError, ValueError) as exc:
            raise MrpError(f"line {number}: malformed value: {exc}") from None
        except MrpError as exc:
            raise MrpError(f"line {number}: {exc}") from None
    return graphs


def write_mrp_jsonl(graphs: Iterable[MrpGraph]) -> str:
    lines = []
    for graph in graphs:
        obj = {
            "id": graph.id,
            "input": graph.input,
            "tops": sorted(graph.tops),
            "nodes": [
                {
                    "id": n.id,
                    "label": n.label,
                    "properties": [p for p, _ in n.properties],
                    "values": [v for _, v in n.properties],
                    "anchors": [{"from": a, "to": b} for a, b in n.anchors],
                }
                for n in graph.nodes
            ],
            "edges": [
                {
                    "source": e.source,
                    "target": e.target,
                    "label": e.label,
                    "attributes": [a for a, _ in e.attributes],
                    "values": [v for _, v in e.attributes],
                }
                for e in graph.edges
            ],
        }
        lines.append(json.dumps(obj, ensure_ascii=False, sort_keys=True))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Facet items


@dataclass(frozen=True)
class _FacetIndex:
    tops: frozenset[int]
    labels: dict
    properties: Counter
    anchors: dict
    edges: Counter
    attributes: Counter

    @classmethod
    def build(cls, graph: MrpGraph) -> "_FacetIndex":
        labels = {n.id: n.label for n in graph.nodes if n.label is not None}
        anchors = {n.id: frozenset(n.anchors) for n in graph.nodes if n.anchors}
        properties: Counter = Counter()
        for n in graph.nodes:
            for name, value in n.properties:
                properties[(n.id, name, value)] += 1
        edges: Counter = Counter()
        attributes: Counter = Counter()
        for e in graph.edges:
            edges[(e.source, e.target, e.label)] += 1
            for name, value in e.attributes:
                attributes[(e.source, e.target, e.label, name, value)] += 1
        return cls(frozenset(graph.tops), labels, properties, anchors, edges, attributes)

    def totals(self) -> dict[str, int]:
        return {
            "tops": len(self.tops),
            "labels": len(self.labels),
            "properties": sum(self.properties.values()),
            "anchors": len(self.anchors),
            "edges": sum(self.edges.values()),
            "attributes": sum(self.attributes.values()),
        }


def _facet_correct(
    gold: _FacetIndex, system: _FacetIndex, mapping: dict[int, int]
) -> dict[str, int]:
    correct = dict.fromkeys(FACETS, 0)
    for g, s in mapping.items():
        if g in gold.tops and s in system.tops:
            correct["tops"] += 1
        if g in gold.labels and gold.labels[g] == system.labels.get(s):
            correct["labels"] += 1
        if g in gold.anchors and gold.anchors[g] == system.anchors.get(s):
            correct["anchors"] += 1
    mapped_properties = Counter(
        {
            (mapping[node], name, value): count
            for (node, name, value), count in gold.properties.items()
            if node in mapping
        }
    )
    correct["properties"] = sum((mapped_properties & system.properties).values())
    mapped_edges = Counter(
        {
            (mapping[src], mapping[tgt], label): count
            for (src, tgt, label), count in gold.edges.items()
            if src in mapping and tgt in mapping
        }
    )
    correct["edges"] = sum((mapped_edges & system.edges).values())
    mapped_attributes = Counter(
        {
            (mapping[src], mapping[tgt], label, name, value): count
            for (src, tgt, label, name, value), count in gold.attributes.items()
            if src in mapping and tgt in mapping
        }
    )
    correct["attributes"] = sum((mapped_attributes & system.attributes).values())
    return correct


def _mapping_score(gold: _FacetIndex, system: _FacetIndex, mapping: dict[int, int]) -> int:
    return sum(_facet_correct(gold, system, mapping).values())


# ---------------------------------------------------------------------------
# Alignment search


@dataclass(frozen=True)
class McesAlignment:
    """Partial injective gold-to-system node correspondence."""

    mapping: dict[int, int] = field(default_factory=dict)
    matched_items: int = 0
    exact: bool = True


@dataclass(frozen=True)
class _Problem:
    """One gold/system pair, precomputed once for both searches.

    Under an injective mapping distinct gold nodes, and so distinct gold
    edge keys, have distinct images, and the counter intersections of
    ``_facet_correct`` split into independent terms:

    - ``pair[g][s]``: the tops, label, anchors and properties matched by
      mapping gold node ``g`` to system node ``s``;
    - for each group of gold edges sharing the key ``(src, tgt, label)``,
      ``terms[(a, b)]``: the edges and attributes it matches once ``src``
      maps to ``a`` and ``tgt`` to ``b`` (0 for any pair not in ``terms``).

    ``groups`` holds each group's ``(src, tgt, weight, cap)``, where
    ``weight`` counts its gold edges and attributes and ``cap``, the largest
    value in ``terms``, is the most it can match in this system graph;
    ``incident[g]`` holds ``(other endpoint, terms, g is the source)`` for
    each group touching gold node ``g``.
    """

    gold_ids: list[int]
    system_ids: list[int]
    pair: dict[int, dict[int, int]]
    groups: list[tuple[int, int, int, int]]
    incident: dict[int, list[tuple[int, dict[tuple[int, int], int], bool]]]

    @classmethod
    def build(
        cls, gold_graph: MrpGraph, gold: _FacetIndex, system_graph: MrpGraph, system: _FacetIndex
    ) -> "_Problem":
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
        """Pair terms of the nodes in ``changed`` plus the terms of every edge
        group touching one of them, under ``mapping`` overridden by
        ``changed`` (``None`` leaves a node unmapped).

        For a node ``g`` missing from ``mapping``, ``local_score(mapping,
        {g: s})`` is the gain of adding ``g -> s``; a move's gain is the
        difference of this score after and before it.
        """
        total = 0
        done: tuple[int, ...] = ()
        for node, image in changed.items():
            # An unmapped node's groups all score 0.
            if image is not None:
                total += self.pair[node][image]
                for other, terms, forward in self.incident[node]:
                    # A group between two changed nodes counts once.
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


def _exact_search(problem: _Problem) -> dict[int, int]:
    pair = problem.pair
    gold_ids = list(problem.gold_ids)
    best_pair = {g: max(pair[g].values(), default=0) for g in gold_ids}
    edge_weight: dict[int, int] = dict.fromkeys(gold_ids, 0)
    for src, tgt, weight, _ in problem.groups:
        edge_weight[src] += weight
        if tgt != src:
            edge_weight[tgt] += weight

    # Order gold nodes by optimistic contribution, largest first, so good
    # assignments surface early and the bound prunes aggressively.
    gold_ids.sort(key=lambda g: -(best_pair[g] + edge_weight[g]))
    # Optimistic remaining gain from suffix [i:]: its best pair scores plus
    # the cap of every edge group whose later endpoint in this order lies
    # in it (a group with both endpoints in the prefix is already in
    # ``current``).
    position = {g: i for i, g in enumerate(gold_ids)}
    closing = [0] * len(gold_ids)
    for src, tgt, _, cap in problem.groups:
        closing[max(position[src], position[tgt])] += cap
    suffix_bound = [0] * (len(gold_ids) + 1)
    for i in range(len(gold_ids) - 1, -1, -1):
        suffix_bound[i] = suffix_bound[i + 1] + best_pair[gold_ids[i]] + closing[i]
    # Filtering this stable order by ``used`` gives the same order as
    # sorting the unused candidates.
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


def _greedy_start(problem: _Problem, rng: random.Random) -> tuple[dict[int, int], int]:
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


def _hill_climb(problem: _Problem, restarts: int, seed: int) -> dict[int, int]:
    moves = problem.system_ids + [None]
    best_mapping: dict[int, int] = {}
    best_score = 0
    for restart in range(restarts):
        rng = random.Random(seed * 1_000_003 + restart)
        mapping, score = _greedy_start(problem, rng)
        owner = {s: g for g, s in mapping.items()}
        improved = True
        while improved:
            improved = False
            for g in problem.gold_ids:
                current_s = mapping.get(g)
                for s in moves:
                    if s == current_s:
                        continue
                    # Move g to s; whoever held s takes g's old image.
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


def mces_align(gold: MrpGraph, system: MrpGraph) -> McesAlignment:
    """Find the injective node mapping maximizing total matched items.

    Branch and bound, certified optimal (``exact=True``), when the larger
    graph has at most ``NODE_LIMIT`` nodes; above that, hill-climbing from
    ``RESTARTS`` greedy starts seeded by ``SEED`` (``exact=False``).
    """
    gold_index = _FacetIndex.build(gold)
    system_index = _FacetIndex.build(system)
    problem = _Problem.build(gold, gold_index, system, system_index)
    exact = max(len(gold.nodes), len(system.nodes)) <= NODE_LIMIT
    if exact:
        mapping = _exact_search(problem)
    else:
        mapping = _hill_climb(problem, RESTARTS, SEED)
    return McesAlignment(
        mapping=mapping,
        matched_items=_mapping_score(gold_index, system_index, mapping),
        exact=exact,
    )


# ---------------------------------------------------------------------------
# Scoring


@dataclass(frozen=True)
class MrpScore:
    """Per-facet counts plus the pooled micro-average."""

    tops: PrfCounts
    labels: PrfCounts
    properties: PrfCounts
    anchors: PrfCounts
    edges: PrfCounts
    attributes: PrfCounts

    @property
    def average(self) -> PrfCounts:
        total = PrfCounts(0, 0, 0)
        for facet in FACETS:
            total = total + getattr(self, facet)
        return total

    def __add__(self, other: "MrpScore") -> "MrpScore":
        return MrpScore(
            *(getattr(self, facet) + getattr(other, facet) for facet in FACETS)
        )


def mrp_score(gold: MrpGraph, system: MrpGraph, alignment: McesAlignment) -> MrpScore:
    """Count matched items per facet under ``alignment``."""
    gold_ids = {n.id for n in gold.nodes}
    system_ids = {n.id for n in system.nodes}
    for g, s in alignment.mapping.items():
        if g not in gold_ids or s not in system_ids:
            raise MrpError(f"alignment references unknown nodes ({g} -> {s})")
    values = list(alignment.mapping.values())
    if len(set(values)) != len(values):
        raise MrpError("alignment is not injective")
    gold_index = _FacetIndex.build(gold)
    system_index = _FacetIndex.build(system)
    correct = _facet_correct(gold_index, system_index, alignment.mapping)
    gold_totals = gold_index.totals()
    system_totals = system_index.totals()
    return MrpScore(
        **{
            facet: PrfCounts(correct[facet], system_totals[facet], gold_totals[facet])
            for facet in FACETS
        }
    )


def mrp_score_corpus(pairs: Sequence[tuple[MrpGraph, MrpGraph]]) -> MrpScore:
    """Pool per-graph counts across a corpus of (gold, system) pairs."""
    if not pairs:
        raise MrpError("no graph pairs to score")
    total: MrpScore | None = None
    for gold, system in pairs:
        alignment = mces_align(gold, system)
        score = mrp_score(gold, system, alignment)
        total = score if total is None else total + score
    return total
