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

Both searches score moves incrementally, on tables indexed by node
position (``_Problem``), one position past the last system node standing
for "unmapped" and scoring 0.  Under an injective mapping the
matched-item count is a sum of independent terms: a row per gold node
(tops, label, anchors, properties and self-loops against each image)
and a table per pair of linked gold nodes (the edges between them and
their attributes against the edges between each pair of images).  Branch
and bound carries the running score down the recursion, adding a node's
row entry and its tables' entries at the images of already-mapped
nodes; the bound charges each group of gold edges sharing a (source,
target, label) key once, at its later endpoint in the search order, the
largest of its terms: the most it can match in this system graph.  The
hill-climber keeps, for each gold node, its row plus its tables at its
neighbours' images (``_Assignment``), so a trial move's gain reads the
rows of the moved node and the node it displaces, and a move updates the
rows of their neighbours only.  ``_mapping_score`` re-scores a whole
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
    """One gold/system pair as tables indexed by node position, built once
    for both searches.

    Gold node ``i`` is ``gold_ids[i]`` and system node ``a`` is
    ``system_ids[a]``; position ``m = len(system_ids)`` means "unmapped",
    and every table is 0 there.  Under an injective mapping distinct gold
    nodes, and so distinct gold edge keys, have distinct images, and the
    counter intersections of ``_facet_correct`` split into independent
    terms:

    - ``pair[i][a]``: the tops, label, anchors and properties matched by
      mapping ``i`` to ``a``; ``own[i][a]`` adds the self-loops of ``i``;
    - ``links[i][k][a][b]``: the edges between ``i`` and another node
      ``k``, and their attributes, matched once ``i`` maps to ``a`` and
      ``k`` to ``b``; ``links[k][i]`` holds the same terms transposed.

    ``groups`` holds ``(src, tgt, weight, cap)`` for each group of gold
    edges sharing a ``(src, tgt, label)`` key: its endpoints' positions,
    its count of gold edges and attributes, and the largest of its terms,
    the most it can match in this system graph.  ``gold_items`` is the gold
    graph's item count, which no mapping's score exceeds, and ``graphs``
    names the pair.
    """

    gold_ids: list[int]
    system_ids: list[int]
    pair: list[list[int]]
    own: list[list[int]]
    links: list[dict[int, list[list[int]]]]
    groups: list[tuple[int, int, int, int]]
    gold_items: int
    graphs: str

    @classmethod
    def build(
        cls, gold_graph: MrpGraph, gold: _FacetIndex, system_graph: MrpGraph, system: _FacetIndex
    ) -> "_Problem":
        gold_ids = [n.id for n in gold_graph.nodes]
        system_ids = [n.id for n in system_graph.nodes]
        m = len(system_ids)
        gold_at = {g: i for i, g in enumerate(gold_ids)}
        system_at = {s: a for a, s in enumerate(system_ids)}
        gold_props = _properties_by_node(gold)
        system_props = _properties_by_node(system)
        pair = []
        for g in gold_ids:
            label = gold.labels.get(g)
            anchors = gold.anchors.get(g)
            props = gold_props.get(g, {})
            top = g in gold.tops
            pair.append([
                (top and s in system.tops)
                + (label is not None and label == system.labels.get(s))
                + (anchors is not None and anchors == system.anchors.get(s))
                + sum(
                    min(count, system_props.get(s, {}).get(key, 0))
                    for key, count in props.items()
                )
                for s in system_ids
            ] + [0])
        own = [list(row) for row in pair]

        gold_attributes: dict[tuple, list[tuple[str, str, int]]] = {}
        for (src, tgt, label, name, value), count in gold.attributes.items():
            gold_attributes.setdefault((src, tgt, label), []).append((name, value, count))
        system_edges: dict[str | None, list[tuple[int, int, int]]] = {}
        for (a, b, label), count in system.edges.items():
            system_edges.setdefault(label, []).append((a, b, count))
        groups = []
        links: list[dict[int, list[list[int]]]] = [{} for _ in gold_ids]
        for (src, tgt, label), count in gold.edges.items():
            i, k = gold_at[src], gold_at[tgt]
            if k != i and k not in links[i]:
                links[i][k] = [[0] * (m + 1) for _ in range(m + 1)]
                links[k][i] = [[0] * (m + 1) for _ in range(m + 1)]
            attributes = gold_attributes.get((src, tgt, label), [])
            cap = 0
            for a, b, system_count in system_edges.get(label, []):
                term = min(count, system_count) + sum(
                    min(c, system.attributes.get((a, b, label, name, value), 0))
                    for name, value, c in attributes
                )
                cap = max(cap, term)
                x, y = system_at[a], system_at[b]
                if k != i:
                    links[i][k][x][y] += term
                    links[k][i][y][x] += term
                elif x == y:
                    own[i][x] += term
            weight = count + sum(c for _, _, c in attributes)
            groups.append((i, k, weight, cap))
        graphs = f"gold graph {gold_graph.id!r} and system graph {system_graph.id!r}"
        return cls(gold_ids, system_ids, pair, own, links, groups,
                   sum(gold.totals().values()), graphs)

    def mapping(self, image: list[int]) -> dict[int, int]:
        """Gold id to system id for each mapped position in ``image``."""
        m = len(self.system_ids)
        return {self.gold_ids[i]: self.system_ids[a] for i, a in enumerate(image) if a < m}


class _Assignment:
    """A partial injective mapping of a ``_Problem``'s gold nodes.

    ``image[i]`` is the system position of gold node ``i`` (``m``:
    unmapped) and ``owner[a]`` the gold node at system position ``a``
    (-1: none, always at ``m``).  ``rows[i][a]`` is what ``i`` matches at
    ``a`` with every other node where it is: ``own[i][a]`` plus, for each
    linked node ``k``, ``links[i][k][a][image[k]]``.  A move of ``k``
    changes only the rows of the nodes linked to it.
    """

    def __init__(self, problem: _Problem):
        m = len(problem.system_ids)
        self.links = problem.links
        self.image = [m] * len(problem.gold_ids)
        self.owner = [-1] * (m + 1)
        self.rows = [list(row) for row in problem.own]

    def gains(self, i: int) -> list[int]:
        """The change in matched items of moving gold node ``i`` to each
        system position, ``m`` last; the node at the new position, if any,
        takes the old one of ``i``."""
        x = self.image[i]
        rows, links = self.rows, self.links[i]
        row = rows[i]
        here = row[x]
        gains = []
        for y, displaced in enumerate(self.owner):
            gain = row[y] - here
            if displaced >= 0:
                other = rows[displaced]
                gain += other[x] - other[y]
                table = links.get(displaced)
                if table is not None:
                    # Both rows read the pair's terms at its positions before
                    # the move: swap them for its terms after it.
                    gain += table[y][x] + table[x][y] - table[y][y] - table[x][x]
            gains.append(gain)
        return gains

    def move(self, i: int, y: int) -> None:
        """Move gold node ``i`` to position ``y``; the node there, if any,
        takes the old position of ``i``."""
        x, displaced = self.image[i], self.owner[y]
        self._place(i, y)
        if displaced >= 0:
            self._place(displaced, x)
        self.owner[x], self.owner[y] = displaced, i
        self.owner[-1] = -1

    def _place(self, k: int, b: int) -> None:
        a, self.image[k] = self.image[k], b
        for i, table in self.links[k].items():
            self.rows[i] = [r + new - old for r, new, old in zip(self.rows[i], table[b], table[a])]


def _properties_by_node(index: _FacetIndex) -> dict[int, dict[tuple[str, str], int]]:
    by_node: dict[int, dict[tuple[str, str], int]] = {}
    for (node, name, value), count in index.properties.items():
        by_node.setdefault(node, {})[(name, value)] = count
    return by_node


def _exact_search(problem: _Problem) -> dict[int, int]:
    pair, own, links = problem.pair, problem.own, problem.links
    n, m = len(problem.gold_ids), len(problem.system_ids)
    best_pair = [max(row) for row in pair]
    edge_weight = [0] * n
    for i, k, weight, _ in problem.groups:
        edge_weight[i] += weight
        if k != i:
            edge_weight[k] += weight

    # Order gold nodes by optimistic contribution, largest first, so good
    # assignments surface early and the bound prunes aggressively.
    order = sorted(range(n), key=lambda i: -(best_pair[i] + edge_weight[i]))
    # Optimistic remaining gain from suffix [d:]: its best pair scores plus
    # the cap of every edge group whose later endpoint in this order lies
    # in it (a group with both endpoints in the prefix is already in
    # ``current``).
    depth_of = [0] * n
    for depth, i in enumerate(order):
        depth_of[i] = depth
    closing = [0] * n
    for i, k, _, cap in problem.groups:
        closing[max(depth_of[i], depth_of[k])] += cap
    suffix_bound = [0] * (n + 1)
    for depth in range(n - 1, -1, -1):
        suffix_bound[depth] = suffix_bound[depth + 1] + best_pair[order[depth]] + closing[depth]
    # Filtering this stable order by ``used`` gives the same order as
    # sorting the unused candidates.
    candidates = [sorted(range(m), key=lambda a: -pair[i][a]) for i in order]

    image = [m] * n
    used = [False] * m
    best_image = list(image)
    best_score = 0

    def recurse(depth: int, current: int):
        nonlocal best_image, best_score
        if current + suffix_bound[depth] <= best_score:
            return
        if depth == n:
            best_score = current
            best_image = list(image)
            return
        i = order[depth]
        row, linked = own[i], links[i].items()
        for a in candidates[depth]:
            if used[a]:
                continue
            # Nodes not yet mapped sit at ``m``, where every table is 0.
            gain = row[a]
            for k, table in linked:
                gain += table[a][image[k]]
            image[i] = a
            used[a] = True
            recurse(depth + 1, current + gain)
            used[a] = False
        image[i] = m
        recurse(depth + 1, current)

    recurse(0, 0)
    return problem.mapping(best_image)


def _greedy_start(problem: _Problem, rng: random.Random) -> tuple[_Assignment, int]:
    order = list(range(len(problem.gold_ids)))
    rng.shuffle(order)
    # ``max`` takes the first best of the free positions in id order: the
    # smallest system id.
    free = sorted(range(len(problem.system_ids)), key=problem.system_ids.__getitem__)
    assignment = _Assignment(problem)
    score = 0
    for i in order:
        if not free:
            break
        a = max(free, key=problem.pair[i].__getitem__)
        free.remove(a)
        score += assignment.rows[i][a]
        assignment.move(i, a)
    return assignment, score


def _hill_climb(problem: _Problem, restarts: int, seed: int) -> dict[int, int]:
    n = len(problem.gold_ids)
    best_image: list[int] = []
    best_score = 0
    for restart in range(restarts):
        rng = random.Random(seed * 1_000_003 + restart)
        assignment, score = _greedy_start(problem, rng)
        # Take the first improving move, gold nodes in order and each one's
        # targets in system order then unmapped, and scan again from the
        # first gold node.
        while True:
            improving = ((i, y, gain) for i in range(n)
                         for y, gain in enumerate(assignment.gains(i)) if gain > 0)
            move = next(improving, None)
            if move is None:
                break
            i, y, gain = move
            assignment.move(i, y)
            score += gain
            # Each accepted move gains at least one item, so a score past the
            # most any mapping matches means a gain overstates, and the climb
            # would never end.
            if score > problem.gold_items:
                raise RuntimeError(
                    f"hill-climber on {problem.graphs} reached {score} matched items, "
                    f"more than the gold graph's {problem.gold_items}: a move gain overstates"
                )
        if score > best_score:
            best_image, best_score = assignment.image, score
    return problem.mapping(best_image)


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
