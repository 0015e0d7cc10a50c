"""k-lopsided max-cut: pick a coalition of exactly k nodes maximizing the
channels (or total capacity) crossing to the rest of the network.

The greedy solver maintains per-node gains in a lazy max-heap so large
graphs (tens of thousands of channels) solve in O((n + m) log n)-style
time. The tests check it against an exhaustive solver on small instances.
"""

from __future__ import annotations

import heapq
import itertools
import json
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter

from .graph import LnGraph, dumps_with_records, parse_capacity, parse_count

class Objective(Enum):
    """What a cut maximizes: crossing channel count or crossing capacity."""

    EDGE_COUNT = "edges"
    CAPACITY = "capacity"

    def weights(self, graph: LnGraph) -> list[int]:
        """Each channel's weight, by channel index."""
        return [1] * graph.channel_count if self is Objective.EDGE_COUNT else graph.capacity


@dataclass(frozen=True)
class GreedyStep:
    step: int           # 1-based move index
    node: int
    gain: int           # objective gain of this move
    value: int          # cumulative objective value after the move
    edge_count: int     # crossing channels after the move
    cut_capacity: int   # crossing capacity (sat) after the move


@dataclass(frozen=True)
class GreedyTrace:
    steps: tuple[GreedyStep, ...]


@dataclass(frozen=True)
class Cut:
    """A coalition and the totals of its crossing channels; the channels'
    indices are ``crossing_channels(graph, cut.coalition)``."""

    k: int
    objective: Objective
    coalition: tuple[int, ...]
    edge_count: int
    cut_capacity: int

    def value(self) -> int:
        return self.edge_count if self.objective is Objective.EDGE_COUNT else self.cut_capacity


def crossing_channels(graph: LnGraph, coalition) -> list[int]:
    """Indices of the channels with exactly one endpoint in coalition, in
    channel order."""
    inside = bytearray(graph.node_count)
    for v in coalition:
        if not 0 <= v < graph.node_count:
            raise ValueError(f"unknown node index {v}")
        inside[v] = 1
    node1, node2 = graph.node1, graph.node2
    return [ci for ci in range(graph.channel_count) if inside[node1[ci]] != inside[node2[ci]]]


def cut_value(graph: LnGraph, coalition) -> tuple[int, int]:
    """(crossing channel count, crossing capacity) of a coalition.

    A channel crosses when exactly one endpoint is in the coalition; the
    value is therefore symmetric under complementing the coalition.
    """
    crossing = crossing_channels(graph, coalition)
    return len(crossing), sum(map(graph.capacity.__getitem__, crossing))


def greedy_lopsided_cut(
    graph: LnGraph, k: int, objective: Objective = Objective.EDGE_COUNT
) -> tuple[Cut, GreedyTrace]:
    """Grow the coalition one vertex at a time, always moving the vertex
    with maximum gain; ties go to the smallest node index.

    gain(v) = weight of v's channels to the outside minus weight of v's
    channels into the coalition. Negative-gain moves are still performed so
    the coalition size is exactly k.
    """
    n = graph.node_count
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    node1, node2, capacity = graph.node1, graph.node2, graph.capacity
    weights = objective.weights(graph)
    gain = [0] * n
    for a, b, w in zip(node1, node2, weights):
        gain[a] += w
        gain[b] += w
    heap = [(-g, v) for v, g in enumerate(gain)]
    heapq.heapify(heap)
    in_coalition = bytearray(n)
    coalition: list[int] = []
    steps: list[GreedyStep] = []
    value = edges = cut_capacity = 0
    while len(coalition) < k:
        neg, v = heapq.heappop(heap)
        if in_coalition[v]:
            continue
        if -neg != gain[v]:
            heapq.heappush(heap, (-gain[v], v))  # stale entry: refresh and retry
            continue
        in_coalition[v] = 1
        coalition.append(v)
        value += gain[v]
        for ci in graph.adjacency[v]:
            u = node2[ci] if node1[ci] == v else node1[ci]
            if in_coalition[u]:
                edges -= 1
                cut_capacity -= capacity[ci]
            else:
                edges += 1
                cut_capacity += capacity[ci]
                gain[u] -= 2 * weights[ci]
        steps.append(GreedyStep(len(coalition), v, gain[v], value, edges, cut_capacity))
    return Cut(k, objective, tuple(coalition), edges, cut_capacity), GreedyTrace(tuple(steps))


def value_vs_k_curve(
    graph: LnGraph, k_max: int, objective: Objective = Objective.EDGE_COUNT
) -> list[tuple[int, int, int]]:
    """Greedy solution value at every k <= k_max from a single run.

    The greedy coalition at k is a prefix of the coalition at k_max, so one
    run yields the whole curve. Rows are (k, edge_count, cut_capacity).
    """
    if k_max == 0:
        return []
    _, trace = greedy_lopsided_cut(graph, k_max, objective)
    return [(s.step, s.edge_count, s.cut_capacity) for s in trace.steps]


def cut_to_json(graph: LnGraph, cut: Cut, manifest: str | None = None) -> str:
    """Cut export consumed by the simulators and the CLI: the stdlib's
    indented dump, written by ``dumps_with_records`` from the graph's
    columns, with no dict per crossing channel."""
    labels = graph.labels
    crossing = crossing_channels(graph, cut.coalition)
    doc = {
        "k": cut.k,
        "objective": cut.objective.value,
        "coalition": [labels[v] for v in cut.coalition],
        "edge_count": cut.edge_count,
        "cut_capacity_sat": cut.cut_capacity,
    }
    if manifest:
        doc["manifest"] = manifest
    channels = {
        "id": map(graph.ids.__getitem__, crossing),
        "node1": map(labels.__getitem__, map(graph.node1.__getitem__, crossing)),
        "node2": map(labels.__getitem__, map(graph.node2.__getitem__, crossing)),
        "capacity_sat": map(graph.capacity.__getitem__, crossing),
    }
    return dumps_with_records(doc, "cut_channels", channels) + "\n"


@dataclass(frozen=True)
class CutFile:
    """A cut export re-read from JSON. Its crossing channel i is ``ids[i]``,
    between the nodes labelled ``node1[i]`` and ``node2[i]``, of
    ``capacity[i]`` sat."""

    k: int
    objective: str
    coalition: tuple[str, ...]
    ids: tuple[str, ...]
    node1: tuple[str, ...]
    node2: tuple[str, ...]
    capacity: tuple[int, ...]
    edge_count: int
    cut_capacity: int


def read_cut_json(document: str) -> CutFile:
    """Re-read a ``cut_to_json`` export. A document of another shape raises
    ``ValueError("malformed cut JSON: ...")``: one with a missing total, a
    ``cut_channels`` that is not a list of objects, an entry whose ``id``,
    ``node1`` or ``node2`` is not a string, a non-string ``objective``, a
    ``coalition`` that is not a list of strings, a negative or non-integer
    capacity, ``k``, ``edge_count`` or ``cut_capacity_sat``, or an
    ``edge_count`` or ``cut_capacity_sat`` that disagrees with its
    ``cut_channels``."""
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed cut JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError("malformed cut JSON: the document is not an object")
    try:
        entries = doc.get("cut_channels", [])
        if type(entries) is not list:
            raise ValueError("cut_channels is not a list")
        try:
            columns = _read_cut_channels_bulk(entries)
        except (KeyError, TypeError, ValueError):
            columns = _read_cut_channels(entries)
        ids, node1, node2, capacity = map(tuple, columns)
        objective = doc.get("objective", "")
        if type(objective) is not str:
            raise ValueError(f"non-string objective {objective!r}")
        coalition = doc.get("coalition", [])
        if type(coalition) is not list or not all(type(label) is str for label in coalition):
            raise ValueError("coalition is not a list of strings")
        cut = CutFile(
            k=parse_count(doc["k"], "k"),
            objective=objective,
            coalition=tuple(coalition),
            ids=ids,
            node1=node1,
            node2=node2,
            capacity=capacity,
            edge_count=parse_count(doc["edge_count"], "edge_count"),
            cut_capacity=parse_count(doc["cut_capacity_sat"], "cut_capacity_sat"),
        )
    except KeyError as exc:
        raise ValueError(f"malformed cut JSON: missing {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed cut JSON: {exc}") from None
    total = sum(capacity)
    if (cut.edge_count, cut.cut_capacity) != (len(ids), total):
        raise ValueError(
            f"malformed cut JSON: edge_count {cut.edge_count} and cut_capacity_sat {cut.cut_capacity} "
            f"do not match the {len(ids)} cut_channels of {total} sat"
        )
    return cut


CHANNEL_FIELDS = ("id", "node1", "node2")
_CUT_CHANNEL_KEYS = itemgetter(*CHANNEL_FIELDS, "capacity_sat")


def _read_cut_channels_bulk(entries: list):
    """The columns of cut_channels as ``cut_to_json`` writes them: string
    ids and ends and non-negative int capacities. Anything else raises
    KeyError, TypeError or ValueError, naming no entry."""
    columns = tuple(zip(*map(_CUT_CHANNEL_KEYS, entries))) or ((), (), (), ())
    ids, ends1, ends2, capacity = columns
    if not set(map(type, itertools.chain(ids, ends1, ends2))) <= {str}:
        raise ValueError("non-string id or node")
    if not set(map(type, capacity)) <= {int} or min(capacity, default=0) < 0:
        raise ValueError("capacity not a non-negative int")
    return columns


def _read_cut_channels(entries: list):
    """The columns of cut_channels read one entry at a time, where the bulk
    read fails: the first bad entry raises KeyError, TypeError or ValueError
    naming it, and a capacity is read by ``parse_capacity``."""
    ids: list[str] = []
    ends1: list[str] = []
    ends2: list[str] = []
    capacity: list[int] = []
    for pos, entry in enumerate(entries):
        if type(entry) is not dict:
            raise ValueError(f"cut_channels entry {pos} is not an object")
        fields = [entry[name] for name in CHANNEL_FIELDS]
        for name, value in zip(CHANNEL_FIELDS, fields):
            if type(value) is not str:
                raise ValueError(f"non-string {name} {value!r} in cut_channels entry {pos}")
        cid, end1, end2 = fields
        ids.append(cid)
        ends1.append(end1)
        ends2.append(end2)
        capacity.append(parse_capacity(entry["capacity_sat"], cid))
    return ids, ends1, ends2, capacity


def curve_to_csv(curve) -> str:
    lines = ["k,edge_count,cut_capacity_sat"]
    lines += [f"{k},{e},{c}" for k, e, c in curve]
    return "\n".join(lines) + "\n"
