import json
import random
import statistics
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lnme import graph as graph_module
from lnme.graph import (
    Channel,
    GraphError,
    LnGraph,
    UniformCapacity,
    degree_histogram,
    dumps_with_records,
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
        assert len(g.adjacency[g.index["C"]]) == 0

    def test_parallel_channels_kept_distinct(self):
        g = parse_lnd_graph(
            lnd_doc(["A", "B"], [("1", "A", "B", "100"), ("2", "A", "B", "200")])
        )
        assert g.channel_count == 2
        assert {ch.id for ch in g.channels} == {"1", "2"}


def lnd_outcome(document):
    """What parse_lnd_graph makes of document: the graph's columns and
    adjacency, or the GraphError message."""
    try:
        g = parse_lnd_graph(document)
    except GraphError as exc:
        return f"GraphError: {exc}"
    assert all(type(c) is int for c in g.capacity)
    return g.labels, g.ids, g.node1, g.node2, g.capacity, g.adjacency


def both_lnd_reads(document):
    """lnd_outcome of document with the bulk read, then with the edge-by-edge
    read alone."""
    fast = lnd_outcome(document)
    with mock.patch.object(graph_module, "_read_lnd_edges_bulk", side_effect=ValueError("bulk off")):
        slow = lnd_outcome(document)
    return fast, slow


MISSING = object()
GOOD_EDGE = {"channel_id": "7", "node1_pub": "A", "node2_pub": "B", "capacity": "5"}


def edges_doc(*edges, nodes=("A", "B", "C")):
    """An lnd document over nodes whose edges are GOOD_EDGE with the given
    fields replaced (MISSING drops a field); a non-dict edge is kept as is."""
    entries = [
        {k: v for k, v in {**GOOD_EDGE, **edge}.items() if v is not MISSING}
        if isinstance(edge, dict) else edge
        for edge in edges
    ]
    return json.dumps({"nodes": [{"pub_key": n} for n in nodes], "edges": entries})


@st.composite
def lnd_documents(draw):
    """lnd documents whose edges are mostly GOOD_EDGE-like, with hostile
    channel ids, end points, capacities and non-object edges mixed in."""
    def field(valid, hostile):
        return draw(hostile) if draw(st.integers(0, 5)) == 0 else valid

    pub = st.sampled_from(["A", "B", "C", "GHOST", "", ["A"], None, 5, MISSING])
    capacity = st.one_of(
        st.sampled_from([5, 5.0, 3.7, True, None, "+5", " 7 ", "1_000", "\u0665", "\u00b2",
                         "-3", "", "9" * 4301, MISSING]),
        st.integers(-5, 10**20),
        st.text("0123456789+-_. ", max_size=6),
    )
    channel_id = st.sampled_from([MISSING, None, 7, "", "x"])
    edges = []
    for i in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 15)) == 0:
            edges.append(draw(st.sampled_from([5, "edge", None, [], [GOOD_EDGE]])))
            continue
        a, b = draw(st.permutations(["A", "B", "C"]))[:2]
        edges.append({
            "channel_id": field(str(i), channel_id),
            "node1_pub": field(a, pub),
            "node2_pub": field(b, pub),
            "capacity": field(str(draw(st.integers(0, 10**9))), capacity),
        })
    return edges_doc(*edges)


class TestLndReadPathsAgree:
    """The bulk read of lnd edges against the edge-by-edge reference: equal
    columns and adjacency, or GraphErrors with equal messages."""

    @pytest.mark.parametrize(
        "document",
        [
            # capacities
            *[
                edges_doc({"capacity": capacity}, {"channel_id": "8", "node2_pub": "C"})
                for capacity in [
                    5, 5.0, "+5", " 7 ", "1_000", "\u0665", "\u00b2", "\uff15", "9" * 4301, "-3",
                    "", "3.7", 3.7, True, None, [5], "0", "007", 10**30, str(10**30),
                ]
            ],
            edges_doc({"capacity": MISSING}),
            # channel ids
            edges_doc({"channel_id": MISSING}),
            edges_doc({"channel_id": None}),
            edges_doc({"channel_id": 7}),
            edges_doc({"channel_id": MISSING}, {"channel_id": MISSING, "node1_pub": "C"}),
            # edge shape and end points
            edges_doc(5),
            edges_doc(GOOD_EDGE, [GOOD_EDGE]),
            edges_doc(GOOD_EDGE, "edge"),
            edges_doc(GOOD_EDGE, None),
            edges_doc({"node1_pub": ["A"]}),
            edges_doc({"node2_pub": {"B": 1}}),
            edges_doc({"node1_pub": "GHOST"}),
            edges_doc({"node2_pub": MISSING}),
            edges_doc({"node1_pub": "B"}),
            edges_doc(GOOD_EDGE, {"channel_id": "9", "node1_pub": "C", "node2_pub": "C"}),
            # two faults: the later one is of a kind the bulk read meets first
            edges_doc({"capacity": "lots"}, 5),
            edges_doc({"node2_pub": "A"}, {"node1_pub": "GHOST"}),
            edges_doc({"capacity": "-3"}, {"node2_pub": ["B"]}),
            edges_doc({"node2_pub": "A"}, {"capacity": "\u00b2"}),
            edges_doc({"capacity": 3.7}, {"node1_pub": "C", "node2_pub": "C"}),
            # well-formed documents
            edges_doc(),
            edges_doc(GOOD_EDGE, GOOD_EDGE, {"channel_id": "8", "node1_pub": "C", "capacity": "0"}),
            edges_doc({"node1_pub": "B", "node2_pub": "A", "capacity": "4500000", "extra": [1]}),
        ],
    )
    def test_documents(self, document):
        fast, slow = both_lnd_reads(document)
        assert fast == slow

    @settings(max_examples=400, deadline=None)
    @given(lnd_documents())
    def test_generated_documents(self, document):
        fast, slow = both_lnd_reads(document)
        assert fast == slow

    def test_lnd_shaped_document_takes_the_bulk_read(self):
        pubs = [f"02{i:064x}" for i in range(4)]
        ends = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 1)]
        document = json.dumps({
            "nodes": [{"pub_key": pub, "alias": f"node-{i}"} for i, pub in enumerate(pubs)],
            "edges": [
                {"channel_id": str(600_000 << 40 | i << 16), "node1_pub": pubs[a],
                 "node2_pub": pubs[b], "capacity": str(1_000_000 + i)}
                for i, (a, b) in enumerate(ends)
            ],
        })
        with mock.patch.object(graph_module, "_read_lnd_edges", side_effect=AssertionError("edge by edge")):
            g = parse_lnd_graph(document)
        assert g.ids == [str(600_000 << 40 | i << 16) for i in range(5)]
        assert list(zip(g.node1, g.node2)) == ends
        assert g.capacity == [1_000_000 + i for i in range(5)]
        assert g.adjacency == [[0, 3, 4], [0, 1, 4], [1, 2], [2, 3]]


class TestLnGraphValidation:
    LABELS = ["A", "B", "C"]

    @pytest.mark.parametrize(
        "bad, message",
        [
            (("x", 0, 3, 5), "channel 'x' references an unknown node"),
            (("x", -1, 1, 5), "channel 'x' references an unknown node"),
            (("x", 1, -2, 5), "channel 'x' references an unknown node"),
            (("x", 2, 2, 5), "self-loop channel 'x'"),
            (("x", 0, 1, -1), "negative capacity on channel 'x'"),
        ],
    )
    def test_first_bad_channel_is_named(self, bad, message):
        rows = [("ok", 0, 1, 5), bad, ("y", 0, 9, 5), ("z", 1, 1, -5)]
        with pytest.raises(GraphError) as exc:
            LnGraph(self.LABELS, *zip(*rows))
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "columns, lengths",
        [
            ((["a", "b", "c"], ["x"], [0, 1], [1, 2], [5]), "ids 1, node1 2, node2 2, capacity 1"),
            ((["a", "b"], ["x", "y"], [0], [1], [5, 6]), "ids 2, node1 1, node2 1, capacity 2"),
            ((["a", "b"], [], [], [], [5]), "ids 0, node1 0, node2 0, capacity 1"),
        ],
    )
    def test_columns_of_unequal_length_are_refused(self, columns, lengths):
        # a short column would otherwise drop channels from the count, the
        # adjacency or the Channel rows without a word
        with pytest.raises(GraphError) as exc:
            LnGraph(*columns)
        assert str(exc.value) == f"channel columns of unequal length: {lengths}"

    def test_duplicate_label(self):
        with pytest.raises(GraphError, match="duplicate node label"):
            LnGraph(["A", "A"], [], [], [], [])

    @pytest.mark.parametrize("seed", range(3))
    def test_constructors_agree(self, seed):
        from conftest import random_graph

        g = random_graph(random.Random(seed), 25, 0.2)
        # rebuilt from its own Channel rows, the columns given as iterators
        rows = [(ch.id, ch.node1, ch.node2, ch.capacity) for ch in g.channels]
        h = LnGraph(iter(g.labels), *(iter(column) for column in zip(*rows)))
        assert h.channels == g.channels
        assert h.adjacency == g.adjacency
        assert (h.ids, h.node1, h.node2, h.capacity) == (g.ids, g.node1, g.node2, g.capacity)
        assert (h.labels, h.index) == (g.labels, g.index)

    def test_channels_built_on_first_access(self):
        g = parse_edge_list("a,b,100\nb,c,200")
        assert "channels" not in vars(g)
        assert g.channels == [Channel("e0", 0, 1, 100), Channel("e1", 1, 2, 200)]
        assert g.channels is g.channels


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
            degrees = sorted(len(adj) for adj in g.adjacency)
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


# names with the characters a row template or a JSON string must escape
NAMES = st.text(alphabet='ab%"\\\n\u00e9\u2603', max_size=4)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**200), 2**200),
    st.floats(),
    st.sampled_from([-0.0, float("nan"), float("inf"), float("-inf"), 1.0]),
    st.text(max_size=4),
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(NAMES, inner, max_size=3)),
    max_leaves=6,
)


@st.composite
def record_docs(draw):
    """(doc, key, columns, lazy): a document, the key of its record list,
    that list's columns, of one length that may be 0, and whether to pass
    the columns as iterators."""
    n = draw(st.integers(0, 4))
    column = st.one_of(
        *[
            st.lists(values, min_size=n, max_size=n)
            for values in (
                st.integers(-(2**200), 2**200),
                st.none() | st.integers(0, 10**6),  # a height not yet reached
                st.text(max_size=4),
                st.booleans() | st.integers(-1, 2),
                JSON_VALUES,
            )
        ]
    )
    columns = draw(st.dictionaries(NAMES, column, min_size=1, max_size=4))
    return draw(st.dictionaries(NAMES, JSON_VALUES, max_size=4)), draw(NAMES), columns, draw(st.booleans())


class TestDumpsWithRecords:
    """The column writer against the stdlib's indented dump of the same
    document with its records as dicts."""

    @settings(max_examples=200, deadline=None)
    @given(record_docs())
    def test_is_the_stdlib_dump(self, case):
        doc, key, columns, lazy = case
        records = [dict(zip(columns, row)) for row in zip(*columns.values())]
        expected = json.dumps({**doc, key: records}, indent=2, sort_keys=True)
        if lazy:
            columns = {name: iter(values) for name, values in columns.items()}
        assert dumps_with_records(doc, key, columns) == expected

    def test_columns_of_unequal_length_are_refused(self):
        with pytest.raises(ValueError):
            dumps_with_records({}, "rows", {"a": [1, 2], "b": [3]})
