import itertools
import json
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EnumerationBudgetExceeded, exact_lopsided_cut, random_graph
from lnme.cut import (
    Cut,
    Objective,
    crossing_channels,
    cut_to_json,
    cut_value,
    curve_to_csv,
    greedy_lopsided_cut,
    read_cut_json,
    value_vs_k_curve,
)
import lnme.cut as cut_module
from lnme.graph import Channel, LnGraph, generate_scale_free, parse_edge_list


def brute_force_best(graph, k, objective):
    """Independent oracle: evaluate every k-subset with a fresh cut_value."""
    best = -1
    for combo in itertools.combinations(range(graph.node_count), k):
        edges, cap = cut_value(graph, combo)
        value = edges if objective is Objective.EDGE_COUNT else cap
        best = max(best, value)
    return best


def triangle():
    return parse_edge_list("a,b,1\nb,c,1\nc,a,1")


def star6():
    return parse_edge_list("c,l1,1\nc,l2,1\nc,l3,1\nc,l4,1\nc,l5,1")


class TestCutValue:
    def test_empty_coalition(self):
        assert cut_value(triangle(), []) == (0, 0)

    def test_full_coalition(self):
        g = triangle()
        assert cut_value(g, range(g.node_count)) == (0, 0)

    def test_triangle_single_vertex(self):
        assert cut_value(triangle(), [0]) == (2, 2)

    def test_unknown_node(self):
        with pytest.raises(ValueError, match="unknown node"):
            cut_value(triangle(), [7])

    def test_complement_symmetry(self, rng):
        for _ in range(20):
            g = random_graph(rng, 12, 0.3)
            size = rng.randint(0, 12)
            coalition = rng.sample(range(12), size)
            complement = [v for v in range(12) if v not in coalition]
            assert cut_value(g, coalition) == cut_value(g, complement)


class TestGreedy:
    def test_k1_is_max_degree(self):
        g = star6()
        cut, trace = greedy_lopsided_cut(g, 1, Objective.EDGE_COUNT)
        assert cut.coalition == (0,)  # the hub
        assert cut.edge_count == 5
        assert trace.steps[0].gain == 5

    def test_star_k2(self):
        # center first (gain 5), then any leaf at gain -1; optimum is also 4
        g = star6()
        cut, trace = greedy_lopsided_cut(g, 2, Objective.EDGE_COUNT)
        assert [s.gain for s in trace.steps] == [5, -1]
        assert cut.edge_count == 4
        assert brute_force_best(g, 2, Objective.EDGE_COUNT) == 4

    def test_negative_gain_moves_keep_size(self):
        g = star6()
        cut, _ = greedy_lopsided_cut(g, 6, Objective.EDGE_COUNT)
        assert len(cut.coalition) == 6
        assert cut.edge_count == 0

    def test_k_out_of_range(self):
        g = triangle()
        with pytest.raises(ValueError):
            greedy_lopsided_cut(g, 0)
        with pytest.raises(ValueError):
            greedy_lopsided_cut(g, 4)

    def test_tie_break_smallest_index(self):
        g = parse_edge_list("a,b,1\nc,d,1")  # two disjoint unit edges
        cut, _ = greedy_lopsided_cut(g, 1, Objective.EDGE_COUNT)
        assert cut.coalition == (0,)

    def test_trace_is_cumulative(self, rng):
        g = random_graph(rng, 40, 0.15)
        _, trace = greedy_lopsided_cut(g, 10, Objective.CAPACITY)
        running = 0
        for step in trace.steps:
            running += step.gain
            assert step.value == running
            assert step.cut_capacity == running

    def test_gain_consistency_with_fresh_recompute(self, rng):
        # incrementally-maintained values equal cut_value from scratch at every step
        for _ in range(5):
            g = random_graph(rng, 50, 0.1)
            for objective in Objective:
                _, trace = greedy_lopsided_cut(g, 12, objective)
                prefix = []
                for step in trace.steps:
                    prefix.append(step.node)
                    edges, cap = cut_value(g, prefix)
                    assert (step.edge_count, step.cut_capacity) == (edges, cap)

    def test_unit_capacity_equivalence(self, rng):
        for _ in range(10):
            g = random_graph(rng, 25, 0.2, unit_capacity=True)
            if g.channel_count == 0:
                continue
            by_edges, _ = greedy_lopsided_cut(g, 8, Objective.EDGE_COUNT)
            by_capacity, _ = greedy_lopsided_cut(g, 8, Objective.CAPACITY)
            assert by_edges.coalition == by_capacity.coalition

    def test_parallel_channels_counted(self):
        g = parse_edge_list("a,b,5\na,b,7")
        cut, _ = greedy_lopsided_cut(g, 1, Objective.CAPACITY)
        assert cut.edge_count == 2
        assert cut.cut_capacity == 12


class TestExact:
    def test_four_cycle_k2(self):
        g = parse_edge_list("a,b,1\nb,c,1\nc,d,1\nd,a,1")
        cut = exact_lopsided_cut(g, 2, Objective.EDGE_COUNT)
        assert cut.edge_count == 4
        assert cut.coalition == (0, 2)  # opposite vertices, lexicographically first

    def test_k1_matches_greedy(self, rng):
        for _ in range(20):
            g = random_graph(rng, 10, 0.3)
            for objective in Objective:
                greedy, _ = greedy_lopsided_cut(g, 1, objective)
                exact = exact_lopsided_cut(g, 1, objective)
                assert greedy.value() == exact.value()

    def test_budget_refused(self):
        g = random_graph(random.Random(1), 40, 0.1)
        with pytest.raises(EnumerationBudgetExceeded):
            exact_lopsided_cut(g, 20, budget=1000)

    def test_matches_independent_brute_force(self, rng):
        for _ in range(10):
            g = random_graph(rng, 9, 0.35)
            k = rng.randint(1, 4)
            for objective in Objective:
                cut = exact_lopsided_cut(g, k, objective)
                assert cut.value() == brute_force_best(g, k, objective)

    def test_dominates_greedy(self, rng):
        for _ in range(30):
            g = random_graph(rng, 11, 0.25)
            k = rng.randint(1, 4)
            for objective in Objective:
                greedy, _ = greedy_lopsided_cut(g, k, objective)
                exact = exact_lopsided_cut(g, k, objective)
                assert exact.value() >= greedy.value()


class TestCutTotals:
    def test_totals_equal_a_fresh_count(self, rng):
        # the solvers keep their own running totals; a cut's totals must equal a recount
        for _ in range(10):
            g = random_graph(rng, 10, 0.3)
            for objective in Objective:
                for k in (1, 2, 4, 10):
                    greedy, _ = greedy_lopsided_cut(g, k, objective)
                    for cut in (greedy, exact_lopsided_cut(g, k, objective)):
                        assert (cut.k, cut.objective, len(cut.coalition)) == (k, objective, k)
                        assert (cut.edge_count, cut.cut_capacity) == cut_value(g, cut.coalition)


class TestCurve:
    def test_empty_for_kmax_zero(self):
        assert value_vs_k_curve(triangle(), 0) == []

    def test_prefix_property(self, rng):
        g = random_graph(rng, 30, 0.2)
        curve = value_vs_k_curve(g, 10, Objective.EDGE_COUNT)
        assert [k for k, _, _ in curve] == list(range(1, 11))
        for k, edges, _ in curve:
            cut, _ = greedy_lopsided_cut(g, k, Objective.EDGE_COUNT)
            assert cut.edge_count == edges

    def test_beats_random_orders(self, rng):
        # greedy prefix values dominate any fixed random selection order
        g = random_graph(rng, 25, 0.25)
        k_max = 12
        curve = value_vs_k_curve(g, k_max, Objective.EDGE_COUNT)
        for seed in range(10):
            order = random.Random(seed).sample(range(g.node_count), k_max)
            for k, edges, _ in curve:
                random_edges, _ = cut_value(g, order[:k])
                assert edges >= random_edges

    def test_csv_format(self):
        text = curve_to_csv([(1, 2, 300), (2, 3, 400)])
        assert text == "k,edge_count,cut_capacity_sat\n1,2,300\n2,3,400\n"


class TestExport:
    def test_json_roundtrip(self):
        g = parse_edge_list("a,b,100\nb,c,250\nc,a,50")
        cut, _ = greedy_lopsided_cut(g, 1, Objective.CAPACITY)
        loaded = read_cut_json(cut_to_json(g, cut))
        assert loaded.k == 1
        assert loaded.objective == "capacity"
        assert loaded.edge_count == cut.edge_count
        assert loaded.cut_capacity == cut.cut_capacity
        crossing = crossing_channels(g, cut.coalition)
        assert loaded.ids == tuple(g.ids[ci] for ci in crossing)
        assert loaded.node1 == tuple(g.labels[g.node1[ci]] for ci in crossing)
        assert loaded.node2 == tuple(g.labels[g.node2[ci]] for ci in crossing)
        assert loaded.capacity == tuple(g.capacity[ci] for ci in crossing)

    @pytest.mark.parametrize("doc, message", [
        ("[1, 2]", "not an object"),
        ('{"k": 1}', "missing 'edge_count'"),
        ('{"k": 1, "edge_count": 1, "cut_capacity_sat": 5,'
         ' "cut_channels": [{"id": "x", "node2": "b", "capacity_sat": 5}]}', "missing 'node1'"),
        ('{"k": 1, "edge_count": 1, "cut_capacity_sat": 5, "cut_channels": [7]}',
         "cut_channels entry 0 is not an object"),
        ('{"k": 1, "edge_count": 1, "cut_capacity_sat": 5, "cut_channels": 7}', "cut_channels is not a list"),
        ('{"k": 1, "edge_count": 1, "cut_capacity_sat": 3,'
         ' "cut_channels": [{"id": "x", "node1": "a", "node2": "b", "capacity_sat": 3.7}]}',
         "non-integer capacity"),
        ('{"k": 1, "edge_count": 1, "cut_capacity_sat": -5,'
         ' "cut_channels": [{"id": "x", "node1": "a", "node2": "b", "capacity_sat": -5}]}',
         "negative capacity"),
        ('{"k": 1, "edge_count": 1.9, "cut_capacity_sat": 5, "cut_channels": []}',
         "non-integer edge_count 1.9"),
        ('{"k": 1, "edge_count": true, "cut_capacity_sat": 5, "cut_channels": []}',
         "non-integer edge_count True"),
        ('{"k": 1, "edge_count": 0, "cut_capacity_sat": 100.5, "cut_channels": []}',
         "non-integer cut_capacity_sat 100.5"),
        ('{"k": -3, "edge_count": 0, "cut_capacity_sat": 0, "cut_channels": []}', "negative k"),
        ('{"k": 1, "edge_count": 0, "cut_capacity_sat": 0, "cut_channels": [], "coalition": "abc"}',
         "coalition is not a list of strings"),
        ('{"k": 1, "edge_count": 0, "cut_capacity_sat": 0, "cut_channels": [], "coalition": ["a", 7]}',
         "coalition is not a list of strings"),
        ('{"k": 1, "edge_count": 0, "cut_capacity_sat": 0, "cut_channels": [], "objective": 5}',
         "non-string objective 5"),
        ('{"k": 1, "edge_count": 1, "cut_capacity_sat": 5,'
         ' "cut_channels": [{"id": {"x": 1}, "node1": "a", "node2": "b", "capacity_sat": 5}]}',
         "non-string id {'x': 1} in cut_channels entry 0"),
        ('{"k": 1, "edge_count": 2, "cut_capacity_sat": 10,'
         ' "cut_channels": [{"id": "x", "node1": "a", "node2": "b", "capacity_sat": 5},'
         ' {"id": "y", "node1": 7, "node2": "b", "capacity_sat": 5}]}',
         "non-string node1 7 in cut_channels entry 1"),
        ('{"k": 1, "edge_count": 1, "cut_capacity_sat": 5,'
         ' "cut_channels": [{"id": "x", "node1": "a", "node2": null, "capacity_sat": 5}]}',
         "non-string node2 None in cut_channels entry 0"),
        ('{"k": 1, "edge_count": 1, "cut_capacity_sat": 1,'
         ' "cut_channels": [{"id": "x", "node1": "a", "node2": "b", "capacity_sat": true}]}',
         "non-integer capacity True on channel 'x'"),
        # the column read fails on entry 1's missing key; entry 0 is named
        ('{"k": 1, "edge_count": 2, "cut_capacity_sat": 10,'
         ' "cut_channels": [{"id": 5, "node1": "a", "node2": "b", "capacity_sat": 5},'
         ' {"id": "y", "node2": "b", "capacity_sat": 5}]}',
         "non-string id 5 in cut_channels entry 0"),
        ('{"k": 1, "edge_count": 0, "cut_capacity_sat": 0, "cut_channels": "ab"}', "cut_channels is not a list"),
        ('{"k": 1, "edge_count": 0, "cut_capacity_sat": 0, "cut_channels": {"a": 1}}',
         "cut_channels is not a list"),
        ('{"k": 1, "edge_count": 0, "cut_capacity_sat": 0, "cut_channels": {}}', "cut_channels is not a list"),
        ('{"k": 1, "edge_count": 0, "cut_capacity_sat": 0, "cut_channels": null}', "cut_channels is not a list"),
        ('{"k": 1, "edge_count": 1, "cut_capacity_sat": 5, "cut_channels": [5]}',
         "cut_channels entry 0 is not an object"),
        ('{"k": 1, "edge_count": 1, "cut_capacity_sat": 5, "cut_channels": [null]}',
         "cut_channels entry 0 is not an object"),
        ('{"k": 1, "edge_count": 1, "cut_capacity_sat": 5, "cut_channels": [[1, 2, 3, 4]]}',
         "cut_channels entry 0 is not an object"),
        ('{"k": 1, "edge_count": 2, "cut_capacity_sat": 10, "cut_channels":'
         ' [{"id": "x", "node1": "a", "node2": "b", "capacity_sat": 5}, 7]}',
         "cut_channels entry 1 is not an object"),
    ])
    def test_malformed_shape(self, doc, message):
        with pytest.raises(ValueError, match=f"malformed cut JSON: .*{message}"):
            read_cut_json(doc)

    def test_capacities_off_the_export_shape_read_the_same(self):
        # an integral float or a decimal string capacity is read entry by entry
        channels = [{"id": "x", "node1": "a", "node2": "b", "capacity_sat": 5},
                    {"id": "y", "node1": "c", "node2": "a", "capacity_sat": 7}]
        doc = {"k": 1, "objective": "edges", "coalition": ["a"], "edge_count": 2, "cut_capacity_sat": 12}
        exported = read_cut_json(json.dumps({**doc, "cut_channels": channels}))
        channels[0]["capacity_sat"], channels[1]["capacity_sat"] = 5.0, "7"
        assert read_cut_json(json.dumps({**doc, "cut_channels": channels})) == exported
        assert (exported.ids, exported.node1, exported.node2) == (("x", "y"), ("a", "c"), ("b", "a"))
        assert exported.capacity == (5, 7)

    @pytest.mark.parametrize("coalition", [(0, 3), (4,)])
    def test_export_is_the_stdlib_dump(self, coalition):
        # node 4 has no channel, so its cut crosses none
        g = LnGraph(
            ["a", "b\u00e9", 'c"', "d", "e"], ["x", "y", "z"], [0, 1, 2], [1, 2, 3], [5, 2**70, 0]
        )
        cut = Cut(len(coalition), Objective.CAPACITY, coalition, *cut_value(g, coalition))
        crossing = crossing_channels(g, coalition)
        doc = {
            "k": cut.k,
            "objective": "capacity",
            "coalition": [g.labels[v] for v in coalition],
            "cut_channels": [
                {
                    "id": g.ids[ci],
                    "node1": g.labels[g.node1[ci]],
                    "node2": g.labels[g.node2[ci]],
                    "capacity_sat": g.capacity[ci],
                }
                for ci in crossing
            ],
            "edge_count": cut.edge_count,
            "cut_capacity_sat": cut.cut_capacity,
            "manifest": "sol.manifest.json",
        }
        text = cut_to_json(g, cut, manifest="sol.manifest.json")
        assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_empty_cut_reads(self):
        cut = read_cut_json('{"k": 1, "edge_count": 0, "cut_capacity_sat": 0, "cut_channels": []}')
        assert (cut.ids, cut.node1, cut.node2, cut.capacity) == ((), (), (), ())
        assert (cut.edge_count, cut.cut_capacity) == (0, 0)

    def test_export_takes_the_column_read(self):
        g = generate_scale_free(60, 2, seed=3)
        cut, _ = greedy_lopsided_cut(g, 4, Objective.CAPACITY)
        document = cut_to_json(g, cut)
        with mock.patch.object(cut_module, "_read_cut_channels", side_effect=AssertionError("entry by entry")):
            fast = read_cut_json(document)
        with mock.patch.object(cut_module, "_read_cut_channels_bulk", side_effect=ValueError("bulk off")):
            slow = read_cut_json(document)
        assert fast == slow
        assert len(fast.ids) == cut.edge_count

    @pytest.mark.parametrize("edge_count, capacity, channels", [
        (5, 100, 1), (1, 0, 1), (1, 101, 1), (5, 0, 0),
    ])
    def test_totals_must_match_channels(self, edge_count, capacity, channels):
        doc = {
            "k": 1,
            "edge_count": edge_count,
            "cut_capacity_sat": capacity,
            "cut_channels": [{"id": "x", "node1": "a", "node2": "b", "capacity_sat": 100}] * channels,
        }
        with pytest.raises(ValueError, match=f"do not match the {channels} cut_channels of {100 * channels} sat"):
            read_cut_json(json.dumps(doc))

    def test_crossing_channels_consistency(self, rng):
        g = random_graph(rng, 15, 0.3)
        coalition = [1, 3, 5]
        crossing = crossing_channels(g, coalition)
        inside = set(coalition)
        assert crossing == [ci for ci, ch in enumerate(g.channels) if (ch.node1 in inside) != (ch.node2 in inside)]
        assert (len(crossing), sum(g.capacity[ci] for ci in crossing)) == cut_value(g, coalition)

    def test_crossing_channels_rejects_unknown_node(self):
        with pytest.raises(ValueError, match="unknown node index -1"):
            crossing_channels(triangle(), [0, -1])

    @pytest.mark.parametrize("objective", list(Objective))
    def test_solve_builds_only_crossing_channels(self, monkeypatch, objective):
        # the crossing channels are now indices, so no Channel is built at all
        g = generate_scale_free(300, 2, seed=4)
        small = generate_scale_free(12, 2, seed=4)
        built = []
        init = Channel.__init__
        monkeypatch.setattr(Channel, "__init__", lambda self, *fields: built.append(fields) or init(self, *fields))
        cut, _ = greedy_lopsided_cut(g, 5, objective)
        value_vs_k_curve(g, 20, objective)
        exact = exact_lopsided_cut(small, 3, objective)
        assert len(crossing_channels(g, cut.coalition)) == cut.edge_count
        assert len(crossing_channels(small, exact.coalition)) == exact.edge_count
        assert built == []
        assert "channels" not in vars(g)
        assert "channels" not in vars(small)
        assert len(small.channels) == len(built) == small.channel_count  # the count sees graph.channels


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_complement_symmetry_property(seed):
    rng = random.Random(seed)
    g = random_graph(rng, 10, 0.3)
    coalition = [v for v in range(10) if rng.random() < 0.5]
    complement = [v for v in range(10) if v not in coalition]
    assert cut_value(g, coalition) == cut_value(g, complement)
