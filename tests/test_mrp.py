"""Tests for semantic graph alignment and scoring."""

import itertools
import random

import pytest

from desklm.metrics.mrp import (
    FACETS,
    NODE_LIMIT,
    RESTARTS,
    McesAlignment,
    MrpEdge,
    MrpError,
    MrpGraph,
    MrpNode,
    _Assignment,
    _FacetIndex,
    _hill_climb,
    _mapping_score,
    _Problem,
    mces_align,
    mrp_score,
    mrp_score_corpus,
    read_mrp_jsonl,
    write_mrp_jsonl,
)

import reference_mrp


def _brute_force_best(gold: MrpGraph, system: MrpGraph) -> int:
    """Exhaustive search over all injective total mappings of the smaller
    side (partial mappings never beat a maximal extension)."""
    gold_index = _FacetIndex.build(gold)
    system_index = _FacetIndex.build(system)
    gold_ids = [n.id for n in gold.nodes]
    system_ids = [n.id for n in system.nodes]
    best = 0
    k = min(len(gold_ids), len(system_ids))
    for chosen in itertools.combinations(gold_ids, k):
        for image in itertools.permutations(system_ids, k):
            mapping = dict(zip(chosen, image))
            best = max(best, _mapping_score(gold_index, system_index, mapping))
    return best


def _hill_climb_alignment(
    gold: MrpGraph, system: MrpGraph, seed: int, restarts: int = RESTARTS
) -> McesAlignment:
    """The hill-climber's alignment of any pair, under ``seed``."""
    gold_index, system_index = _FacetIndex.build(gold), _FacetIndex.build(system)
    problem = _Problem.build(gold, gold_index, system, system_index)
    mapping = _hill_climb(problem, restarts, seed)
    return McesAlignment(mapping, _mapping_score(gold_index, system_index, mapping), exact=False)


def _random_graph(rng: random.Random, graph_id: str, max_nodes: int = 5) -> MrpGraph:
    n = rng.randint(1, max_nodes)
    labels = ["want", "go", "dog", "cat", None]
    properties = [("pos", "NN"), ("pos", "VB"), ("frame", "x1")]
    nodes = []
    for i in range(n):
        node_properties = tuple(
            rng.sample(properties, rng.randint(0, 2))
        )
        anchors = tuple(
            sorted((rng.randint(0, 5), rng.randint(6, 12)) for _ in range(rng.randint(0, 2)))
        )
        nodes.append(
            MrpNode(
                id=i,
                label=rng.choice(labels),
                properties=node_properties,
                anchors=anchors,
            )
        )
    edge_labels = ["ARG1", "ARG2", "mod"]
    edges = []
    for _ in range(rng.randint(0, min(6, n * 2))):
        src, tgt = rng.randrange(n), rng.randrange(n)
        attributes = (("remote", "true"),) if rng.random() < 0.3 else ()
        edges.append(
            MrpEdge(src, tgt, rng.choice(edge_labels), attributes)
        )
    tops = frozenset(rng.sample(range(n), rng.randint(0, min(2, n))))
    return MrpGraph(id=graph_id, nodes=tuple(nodes), edges=tuple(edges), tops=tops)


def _dense_graph(rng: random.Random, graph_id: str, n: int) -> MrpGraph:
    """Exactly ``n`` nodes with scattered ids, duplicate edges, self-loops,
    repeated properties and attributes, and tops."""
    ids = rng.sample(range(4 * n), n)
    properties = [("pos", "NN"), ("pos", "VB"), ("frame", "x1")]
    nodes = tuple(
        MrpNode(
            id=i,
            label=rng.choice(["want", "go", "dog", None]),
            properties=tuple(rng.choice(properties) for _ in range(rng.randint(0, 3))),
            anchors=((0, rng.randint(1, 3)),) if rng.random() < 0.5 else (),
        )
        for i in ids
    )
    edges = []
    for _ in range(rng.randint(n, 2 * n)):
        src = rng.choice(ids)
        tgt = src if rng.random() < 0.15 else rng.choice(ids)
        attributes = tuple(
            rng.choice([("remote", "true"), ("remote", "false")])
            for _ in range(rng.randint(0, 2))
        )
        edge = MrpEdge(src, tgt, rng.choice(["ARG1", "ARG2", None]), attributes)
        edges.extend([edge] * rng.choice([1, 1, 1, 2]))
    tops = frozenset(rng.sample(ids, rng.randint(0, min(2, n))))
    return MrpGraph(id=graph_id, nodes=nodes, edges=tuple(edges), tops=tops)


def _triangle(graph_id="g") -> MrpGraph:
    nodes = (
        MrpNode(0, label="want", properties=(("pos", "VB"),), anchors=((0, 4),)),
        MrpNode(1, label="dog", anchors=((5, 8),)),
        MrpNode(2, label="go"),
    )
    edges = (
        MrpEdge(0, 1, "ARG1"),
        MrpEdge(0, 2, "ARG2", (("remote", "true"),)),
    )
    return MrpGraph(id=graph_id, nodes=nodes, edges=edges, tops=frozenset({0}))


class TestGraphModel:
    def test_edge_endpoint_validation(self):
        with pytest.raises(MrpError, match="unknown node"):
            MrpGraph(id="g", nodes=(MrpNode(0),), edges=(MrpEdge(0, 1),))

    def test_anchor_range_validation(self):
        with pytest.raises(MrpError, match="anchor"):
            MrpGraph(id="g", nodes=(MrpNode(0, anchors=((0, 99),)),), input="short")

    def test_jsonl_round_trip(self):
        graphs = [_triangle("a"), _random_graph(random.Random(3), "b")]
        text = write_mrp_jsonl(graphs)
        loaded = read_mrp_jsonl(text)
        assert loaded == graphs
        assert write_mrp_jsonl(loaded) == text

    @pytest.mark.parametrize(
        "line, message",
        [
            ('{"nodes": [{"label": "a"}]}', "line 2: missing field 'id'"),
            ('{"nodes": [{"id": 0}], "edges": [{"source": 0}]}', "line 2: missing field 'target'"),
            ('{"nodes": [{"id": 0, "anchors": [{"to": 1}]}]}', "line 2: missing field 'from'"),
            ('{"nodes": [{"id": "zero"}]}', "line 2: malformed value"),
            ('{"nodes": [{"id": 1.5}]}', "line 2: malformed value: expected an integer, got 1.5"),
            ('{"nodes": [{"id": 0}], "edges": [{"source": 0, "target": true}]}',
             "line 2: malformed value: expected an integer, got True"),
            ('{"nodes": [{"id": 0, "anchors": [{"from": 0, "to": null}]}]}', "line 2: malformed value"),
            ('{"nodes": [{"id": 0}], "tops": [[0]]}', "line 2: malformed value"),
            ('[{"id": 0}]', "line 2: expected a JSON object"),
            ('{"id": "x", "nodes": [{"id": 0}, {"id": 0}]}', "line 2: graph x: duplicate node ids"),
            ('{"id": "x", "nodes": [{"id": 0}], "edges": [{"source": 0, "target": 1}]}',
             "line 2: graph x: edge 0->1 references unknown node"),
            ('{"id": "x", "input": "ab", "nodes": [{"id": 0, "anchors": [{"from": 0, "to": 5}]}]}',
             r"line 2: graph x: anchor \(0,5\) outside input"),
        ],
    )
    def test_jsonl_errors_name_the_line(self, line, message):
        text = '{"id": "ok", "nodes": [{"id": 0}]}\n' + line + "\n"
        with pytest.raises(MrpError, match=message):
            read_mrp_jsonl(text)

    def test_jsonl_field_names(self):
        parsed = read_mrp_jsonl(
            '{"id": "x", "input": "ab", "tops": [0], '
            '"nodes": [{"id": 0, "label": "L", "properties": ["p"], '
            '"values": ["v"], "anchors": [{"from": 0, "to": 2}]}], '
            '"edges": [{"source": 0, "target": 0, "label": "self", '
            '"attributes": ["a"], "values": ["1"]}]}\n'
        )
        graph = parsed[0]
        assert graph.nodes[0].properties == (("p", "v"),)
        assert graph.nodes[0].anchors == ((0, 2),)
        assert graph.edges[0].attributes == (("a", "1"),)


class TestMcesAlign:
    def test_identical_graphs_align_fully_and_exactly(self):
        gold = _triangle()
        alignment = mces_align(gold, gold)
        assert alignment.exact
        assert alignment.mapping == {0: 0, 1: 1, 2: 2}
        score = mrp_score(gold, gold, alignment)
        assert score.average.f1 == pytest.approx(1.0)
        assert all(
            getattr(score, facet).f1 in (0.0, 1.0) for facet in FACETS
        )  # facets with no items score 0/0 -> 0

    def test_extra_isolated_node_keeps_edge_match(self):
        gold = MrpGraph(
            id="g",
            nodes=(MrpNode(0, label="a"), MrpNode(1, label="b")),
            edges=(MrpEdge(0, 1, "rel"),),
        )
        system = MrpGraph(
            id="s",
            nodes=(MrpNode(0, label="a"), MrpNode(1, label="b"), MrpNode(2, label="z")),
            edges=(MrpEdge(0, 1, "rel"),),
        )
        alignment = mces_align(gold, system)
        assert alignment.mapping[0] == 0 and alignment.mapping[1] == 1
        score = mrp_score(gold, system, alignment)
        assert score.edges.correct == 1
        assert score.labels.correct == 2
        # Oracle: exhaustive mapping enumeration agrees.
        assert alignment.matched_items == _brute_force_best(gold, system)

    def test_random_pairs_match_brute_force(self):
        rng = random.Random(7)
        for trial in range(150):
            gold = _random_graph(rng, f"g{trial}")
            system = _random_graph(rng, f"s{trial}")
            alignment = mces_align(gold, system)
            assert alignment.exact
            assert alignment.matched_items == _brute_force_best(gold, system), trial

    @pytest.mark.parametrize("seed", [0, 1, 3])
    def test_edgeless_system_graph_at_the_node_limit(self, seed):
        # Ten gold nodes with edges against ten system nodes without any:
        # no edge group can match, so the optimum is the best assignment
        # of single-node scores, found by dynamic programming over the set
        # of system nodes used.
        rng = random.Random(seed)
        gold = _dense_graph(rng, "g", NODE_LIMIT)
        dense = _dense_graph(rng, "s", NODE_LIMIT)
        system = MrpGraph("s", dense.nodes, (), dense.tops)
        gold_index, system_index = _FacetIndex.build(gold), _FacetIndex.build(system)
        best = {0: 0}
        for g in (n.id for n in gold.nodes):
            scores = [_mapping_score(gold_index, system_index, {g: n.id}) for n in system.nodes]
            step = dict(best)
            for used, score in best.items():
                for bit, value in enumerate(scores):
                    key = used | 1 << bit
                    if key != used:
                        step[key] = max(step.get(key, 0), score + value)
            best = step
        alignment = mces_align(gold, system)
        assert alignment.exact
        assert alignment.matched_items == max(best.values())

    def test_label_permutation_recovered(self):
        gold = MrpGraph(
            id="g",
            nodes=(MrpNode(0, label="x"), MrpNode(1, label="y")),
        )
        system = MrpGraph(
            id="s",
            nodes=(MrpNode(0, label="y"), MrpNode(1, label="x")),
        )
        alignment = mces_align(gold, system)
        assert alignment.mapping == {0: 1, 1: 0}

    def test_beyond_limit_uses_hill_climbing(self):
        rng = random.Random(11)
        gold = _dense_graph(rng, "g", NODE_LIMIT + 1)
        alignment = mces_align(gold, gold)
        assert not alignment.exact
        # Identity is optimal for a self-comparison; hill climbing must find
        # a mapping matching every item.
        index = _FacetIndex.build(gold)
        assert alignment.matched_items == sum(index.totals().values())

    def test_overstated_gain_raises_instead_of_spinning(self, monkeypatch):
        # Staying put reported as a gain of one item is accepted again and
        # again: the climb must stop once its score passes the gold graph's
        # item count.
        gains = _Assignment.gains
        monkeypatch.setattr(_Assignment, "gains", lambda self, i: [
            gain + (y == self.image[i]) for y, gain in enumerate(gains(self, i))
        ])
        rng = random.Random(11)
        gold = _dense_graph(rng, "g", NODE_LIMIT + 1)
        system = _dense_graph(rng, "s", NODE_LIMIT + 1)
        with pytest.raises(RuntimeError, match="gold graph 'g' and system graph 's'"):
            mces_align(gold, system)

    def test_hill_climbing_deterministic(self):
        rng = random.Random(13)
        gold = _random_graph(rng, "g")
        system = _random_graph(rng, "s")
        assert _hill_climb_alignment(gold, system, 5) == _hill_climb_alignment(gold, system, 5)


class TestIncrementalScore:
    def test_local_score_matches_full_rescoring(self):
        # The hill-climber's move gains and row updates (``_Assignment``)
        # against a full re-score after every move.
        rng = random.Random(29)
        for trial in range(200):
            gold = _dense_graph(rng, f"g{trial}", rng.randint(1, 7))
            system = _dense_graph(rng, f"s{trial}", rng.randint(1, 7))
            gold_index, system_index = _FacetIndex.build(gold), _FacetIndex.build(system)
            problem = _Problem.build(gold, gold_index, system, system_index)
            n, m = len(problem.gold_ids), len(problem.system_ids)
            assignment, score = _Assignment(problem), 0

            def check():
                image, owner = assignment.image, assignment.owner
                assert owner == [image.index(a) if a in image else -1 for a in range(m)] + [-1]
                mapping = problem.mapping(image)
                assert score == _mapping_score(gold_index, system_index, mapping), trial

            # A random partial injective mapping, built one node at a time.
            images = rng.sample(range(m), m)
            for i in rng.sample(range(n), n):
                if images and rng.random() < 0.7:
                    a = images.pop()
                    score += assignment.gains(i)[a]
                    assignment.move(i, a)
                    check()
            # Random moves: to a free image, to an image another node holds
            # (which takes the old image of i), or to no image (position m).
            for _ in range(20):
                i = rng.randrange(n)
                a = rng.randrange(m + 1)
                if a == assignment.image[i]:
                    continue
                score += assignment.gains(i)[a]
                assignment.move(i, a)
                check()


class TestReferenceSearches:
    """The searches on index tables return the same mappings as the
    dict-keyed searches they replaced, frozen in ``reference_mrp``."""

    @staticmethod
    def _pair(rng: random.Random, trial: int, most: int) -> tuple[MrpGraph, MrpGraph]:
        n = rng.randint(1, most)
        m = rng.choice([k for k in range(1, most + 1) if k != n])
        return _dense_graph(rng, f"g{trial}", n), _dense_graph(rng, f"s{trial}", m)

    def test_hill_climb_matches_reference(self):
        # Four restarts under a seed per pair keep the reference's time
        # down; every restart still starts from its own greedy mapping.
        rng = random.Random(41)
        for trial in range(300):
            gold, system = self._pair(rng, trial, 16)
            expected = reference_mrp.hill_climb_alignment(gold, system, 4, trial)
            assert _hill_climb_alignment(gold, system, trial, 4) == expected, trial

    def test_exact_search_matches_reference(self):
        rng = random.Random(43)
        for trial in range(300):
            gold, system = self._pair(rng, trial, 8)
            assert mces_align(gold, system) == reference_mrp.exact_alignment(gold, system), trial


class TestGoldenMappings:
    """Mappings recorded from the search that re-scored the whole mapping
    with ``_mapping_score`` at every node and trial move."""

    def test_exact_independent_nine_node_pair(self):
        rng = random.Random(0)
        gold = _dense_graph(rng, "g", 9)
        system = _dense_graph(rng, "s", 9)
        assert mces_align(gold, system) == McesAlignment(
            mapping={34: 22, 25: 23, 24: 1, 26: 6, 31: 5, 16: 3, 12: 35, 2: 7, 29: 2},
            matched_items=18,
            exact=True,
        )

    def test_seeded_hill_climb(self):
        rng = random.Random(21)
        gold = _dense_graph(rng, "g", 12)
        system = _dense_graph(rng, "s", 11)
        assert _hill_climb_alignment(gold, system, 3) == McesAlignment(
            mapping={41: 26, 38: 9, 26: 40, 30: 1, 11: 16, 44: 8, 10: 37, 13: 6, 18: 11,
                     32: 41, 46: 25},
            matched_items=22,
            exact=False,
        )


class TestMrpScore:
    def test_wrong_labels_right_structure(self):
        gold = _triangle()
        wrong = MrpGraph(
            id="w",
            nodes=tuple(
                MrpNode(n.id, label=(n.label or "") + "_bad", properties=n.properties,
                        anchors=n.anchors)
                for n in gold.nodes
            ),
            edges=gold.edges,
            tops=gold.tops,
        )
        alignment = mces_align(gold, wrong)
        score = mrp_score(gold, wrong, alignment)
        assert score.labels.f1 == 0.0
        assert score.edges.f1 == pytest.approx(1.0)

    def test_hand_three_node_example_vs_brute_force(self):
        gold = _triangle("g")
        system = MrpGraph(
            id="s",
            nodes=(
                MrpNode(0, label="want", properties=(("pos", "VB"),), anchors=((0, 4),)),
                MrpNode(1, label="cat", anchors=((5, 8),)),
                MrpNode(2, label="go"),
            ),
            edges=(
                MrpEdge(0, 1, "ARG1"),
                MrpEdge(0, 2, "ARG3", (("remote", "true"),)),
            ),
            tops=frozenset({0}),
        )
        alignment = mces_align(gold, system)
        assert alignment.matched_items == _brute_force_best(gold, system)
        score = mrp_score(gold, system, alignment)
        # Hand count, identity mapping: top 1; labels want+go; property
        # (pos, VB); anchors of nodes 0 and 1; edge ARG1.  The ARG2/ARG3
        # mismatch loses the edge and the attribute riding on it.
        assert score.tops.correct == 1
        assert score.labels.correct == 2
        assert score.properties.correct == 1
        assert score.anchors.correct == 2
        assert score.edges.correct == 1
        assert score.attributes.correct == 0

    def test_alignment_validation(self):
        gold = _triangle()
        with pytest.raises(MrpError, match="unknown"):
            mrp_score(gold, gold, McesAlignment(mapping={9: 0}))
        with pytest.raises(MrpError, match="injective"):
            mrp_score(gold, gold, McesAlignment(mapping={0: 0, 1: 0}))

    def test_corpus_pooling(self):
        gold = _triangle("a")
        total = mrp_score_corpus([(gold, gold), (gold, gold)])
        assert total.average.f1 == pytest.approx(1.0)
        assert total.edges.gold_total == 4

    def test_average_pools_counts_not_f1(self):
        gold = MrpGraph(id="g", nodes=(MrpNode(0, label="a"),), tops=frozenset({0}))
        system = MrpGraph(id="s", nodes=(MrpNode(0, label="b"),), tops=frozenset({0}))
        score = mrp_score(gold, system, mces_align(gold, system))
        # tops 1/1/1, labels 0/1/1 -> pooled F1 = 2*1/(2+2) = 0.5.
        assert score.average.f1 == pytest.approx(0.5)
