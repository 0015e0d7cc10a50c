import json
import random
import statistics
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lnme.graph import (
    GraphError,
    UniformCapacity,
    degree_histogram,
    generate_scale_free,
    parse_edge_list,
    parse_lnd_graph,
    to_edge_list,
)


def lnd_doc(nodes, edges):
    return json.dumps(
        {
            "nodes": [{"pub_key": n, "alias": "ignored"} for n in nodes],
            "edges": [
                {
                    "channel_id": cid,
                    "node1_pub": a,
                    "node2_pub": b,
                    "capacity": cap,
                    "last_update": 0,
                }
                for cid, a, b, cap in edges
            ],
        }
    )


class TestParseLndGraph:
    def test_minimal_document(self):
        g = parse_lnd_graph(lnd_doc(["A", "B"], [("42", "A", "B", "4500000")]))
        assert g.node_count == 2
        assert g.channel_count == 1
        assert g.channels[0].capacity == 4_500_000

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self-loop"):
            parse_lnd_graph(lnd_doc(["A"], [("1", "A", "A", "5")]))

    def test_unknown_pubkey_names_channel(self):
        with pytest.raises(GraphError, match="chan9"):
            parse_lnd_graph(lnd_doc(["A"], [("chan9", "A", "GHOST", "5")]))

    def test_malformed_json(self):
        with pytest.raises(GraphError, match="malformed JSON"):
            parse_lnd_graph("{nope")

    def test_bad_capacity(self):
        for capacity in ("lots", 3.7, float("inf"), None, True, [5]):
            with pytest.raises(GraphError, match="capacity"):
                parse_lnd_graph(lnd_doc(["A", "B"], [("1", "A", "B", capacity)]))
        with pytest.raises(GraphError, match="negative"):
            parse_lnd_graph(lnd_doc(["A", "B"], [("1", "A", "B", "-3")]))
        assert parse_lnd_graph(lnd_doc(["A", "B"], [("1", "A", "B", 3.0)])).channels[0].capacity == 3

    def test_non_object_edge(self):
        doc = json.dumps({"nodes": [{"pub_key": "A"}, {"pub_key": "B"}], "edges": [5]})
        with pytest.raises(GraphError, match="edge entry 0 is not an object"):
            parse_lnd_graph(doc)

    def test_pub_keys_must_be_strings(self):
        with pytest.raises(GraphError, match="string pub_key"):
            parse_lnd_graph(lnd_doc([["A"]], []))
        with pytest.raises(GraphError, match="string pub_key"):
            parse_lnd_graph(lnd_doc([7], []))
        with pytest.raises(GraphError, match="unknown pub_key"):
            parse_lnd_graph(lnd_doc(["A", "B"], [("1", ["A"], "B", "5")]))
        with pytest.raises(GraphError, match="unknown pub_key"):
            parse_lnd_graph(lnd_doc(["A", "B"], [("1", "A", {"B": 1}, "5")]))

    def test_isolated_nodes_retained(self):
        g = parse_lnd_graph(lnd_doc(["A", "B", "C"], [("1", "A", "B", "100")]))
        assert g.node_count == 3
        assert g.degree(g.index["C"]) == 0

    def test_parallel_channels_kept_distinct(self):
        g = parse_lnd_graph(
            lnd_doc(["A", "B"], [("1", "A", "B", "100"), ("2", "A", "B", "200")])
        )
        assert g.channel_count == 2
        assert {ch.id for ch in g.channels} == {"1", "2"}


class TestParseEdgeList:
    def test_basic(self):
        g = parse_edge_list("a,b,100\nb,c,200")
        assert g.node_count == 3
        assert g.channel_count == 2

    def test_empty_document(self):
        g = parse_edge_list("")
        assert g.node_count == 0
        assert g.channel_count == 0

    def test_self_loop(self):
        with pytest.raises(GraphError, match="self-loop"):
            parse_edge_list("a,a,100")

    def test_header_optional(self):
        with_header = parse_edge_list("node_a,node_b,capacity_sat\na,b,100")
        without = parse_edge_list("a,b,100")
        assert with_header.channel_count == without.channel_count == 1

    def test_bad_arity(self):
        with pytest.raises(GraphError, match="expected 3 fields"):
            parse_edge_list("a,b")

    def test_non_integer_capacity(self):
        with pytest.raises(GraphError, match="non-integer"):
            parse_edge_list("a,b,1.5e3")

    def test_oversized_field_names_its_line(self):
        with pytest.raises(GraphError, match="line 2: field larger than field limit"):
            parse_edge_list("a,b,1\nc,d," + "9" * 200_000 + "\n")

    def test_duplicate_rows_are_parallel_channels(self):
        g = parse_edge_list("a,b,100\na,b,100")
        assert g.channel_count == 2
        assert len({ch.id for ch in g.channels}) == 2


def edge_multiset(graph):
    return Counter(
        (frozenset((graph.labels[ch.node1], graph.labels[ch.node2])), ch.capacity)
        for ch in graph.channels
    )


class TestRoundTrip:
    def test_simple_roundtrip(self):
        g = parse_edge_list("a,b,100\nb,c,200\na,b,100")
        g2 = parse_edge_list(to_edge_list(g))
        assert sorted(g2.labels) == sorted(g.labels)
        assert edge_multiset(g2) == edge_multiset(g)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 8), st.integers(0, 8), st.integers(0, 10_000)
            ).filter(lambda t: t[0] != t[1]),
            max_size=25,
        )
    )
    def test_roundtrip_property(self, rows):
        text = "\n".join(f"n{a},n{b},{c}" for a, b, c in rows)
        g = parse_edge_list(text)
        g2 = parse_edge_list(to_edge_list(g))
        assert sorted(g2.labels) == sorted(g.labels)
        assert edge_multiset(g2) == edge_multiset(g)


class TestGenerateScaleFree:
    def test_m1_yields_tree(self):
        g = generate_scale_free(5, 1, seed=7)
        assert g.channel_count == 4

    def test_edge_count_formula(self):
        # seed adds m channels, each later node adds m more
        g = generate_scale_free(1000, 3, seed=1)
        assert g.channel_count == 3 + 3 * (1000 - 4) == 2991

    def test_deterministic(self):
        a = generate_scale_free(200, 2, seed=55)
        b = generate_scale_free(200, 2, seed=55)
        assert [(c.node1, c.node2, c.capacity) for c in a.channels] == [
            (c.node1, c.node2, c.capacity) for c in b.channels
        ]

    def test_seed_changes_structure(self):
        a = generate_scale_free(200, 2, seed=1)
        b = generate_scale_free(200, 2, seed=2)
        assert [(c.node1, c.node2) for c in a.channels] != [
            (c.node1, c.node2) for c in b.channels
        ]

    def test_n_le_m_rejected(self):
        with pytest.raises(GraphError):
            generate_scale_free(3, 3, seed=0)
        with pytest.raises(GraphError):
            generate_scale_free(5, 0, seed=0)

    def test_constant_capacity_default(self):
        g = generate_scale_free(50, 2, seed=3)
        assert {ch.capacity for ch in g.channels} == {4_500_000}

    def test_uniform_capacity(self):
        g = generate_scale_free(50, 2, seed=3, capacity_dist=UniformCapacity(10, 20))
        assert all(10 <= ch.capacity <= 20 for ch in g.channels)
        assert len({ch.capacity for ch in g.channels}) > 1

    def test_heavy_tail(self):
        # max degree well above the median, averaged over seeds
        ratios = []
        for seed in range(10):
            g = generate_scale_free(300, 2, seed=seed)
            degrees = sorted(g.degree(v) for v in range(g.node_count))
            ratios.append(max(degrees) / statistics.median(degrees))
        assert statistics.mean(ratios) > 5


class TestDegreeHistogram:
    def test_path(self):
        assert degree_histogram(parse_edge_list("a,b,1\nb,c,1")) == {1: 2, 2: 1}

    def test_empty(self):
        assert degree_histogram(parse_edge_list("")) == {}

    def test_star(self):
        g = parse_edge_list("c,l1,1\nc,l2,1\nc,l3,1\nc,l4,1")
        assert degree_histogram(g) == {1: 4, 4: 1}

    @pytest.mark.parametrize("seed", range(5))
    def test_identities(self, seed):
        rng = random.Random(seed)
        from conftest import random_graph

        g = random_graph(rng, 30, 0.2)
        hist = degree_histogram(g)
        assert sum(hist.values()) == g.node_count
        assert sum(d * c for d, c in hist.items()) == 2 * g.channel_count
