"""Shared builders for synthetic graphs, timelines, and block traces."""

import functools
import itertools
import math
import random
from typing import NamedTuple

import pytest

from lnme.cut import Cut, Objective, cut_value
from lnme.graph import LnGraph
from lnme.mempool import BlockEntry, BlockTrace, FeeHistogram, FeeRate, MempoolTimeline, ReplayEngine
from lnme.scenario import Scenario

T0 = 1_600_000_000
BLOCK_INTERVAL = 600
DEFAULT_ENUMERATION_BUDGET = 10_000_000


class EnumerationBudgetExceeded(RuntimeError):
    """Exact enumeration would scan more subsets than the budget allows."""


def fee(sat) -> FeeRate:
    return FeeRate.from_sat(sat)


def make_timeline(band_edges_sat, rows, start=T0, interval=60) -> MempoolTimeline:
    """Timeline from band edges in sat/vByte and per-snapshot count rows."""
    edges = tuple(FeeRate.from_sat(e) for e in band_edges_sat)
    timestamps = [start + i * interval for i in range(len(rows))]
    return MempoolTimeline(edges, timestamps, rows)


def constant_timeline(band_edges_sat, counts, snapshots, start=T0, interval=BLOCK_INTERVAL):
    return make_timeline(band_edges_sat, [list(counts)] * snapshots, start, interval)


def make_blocks(count, txs, start_height=1, start=T0, interval=BLOCK_INTERVAL) -> BlockTrace:
    return BlockTrace(
        [BlockEntry(start_height + i, start + i * interval, txs) for i in range(count)]
    )


class Tx(NamedTuple):
    """One transaction as a ``Ledger`` reads it."""

    id: object
    fee: FeeRate
    band: int
    status: str  # "pending", "confirmed" or "withdrawn"
    confirmed_height: int | None
    queued_at: int


class Ledger(ReplayEngine):
    """A replay engine that keeps a test's account of its transactions.

    The engine keeps no id map, so the account is read off what the engine
    hands out: the group each ``submit`` returns, and the ids each
    ``apply_block`` returns. A pending id's fee, band, instant and queue
    position are its group's; an id that left keeps those of its group at
    the moment it left. ``tx`` checks that a pending id is still among its
    group's pending members."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.group = {}  # id -> the group submit returned for it
        self.left = {}  # id -> its Tx at the moment it confirmed or was withdrawn

    def submit(self, tx_id, fee, at):
        group = super().submit(tx_id, fee, at)
        self.group[tx_id] = group
        return group

    def apply_block(self, entry):
        confirmed = super().apply_block(entry)
        for tx_id in confirmed:
            self.left[tx_id] = self._tx(tx_id, "confirmed", entry.height)
        return confirmed

    def withdraw(self, group, tx_id):
        super().withdraw(group, tx_id)
        self.left[tx_id] = self._tx(tx_id, "withdrawn", None)

    def withdraw_id(self, tx_id):
        """Withdraw an id from the group that submit returned for it."""
        self.withdraw(self.group[tx_id], tx_id)

    def _tx(self, tx_id, status, height):
        group = self.group[tx_id]
        return Tx(tx_id, group.fee, group.band, status, height, group.queued_at)

    def tx(self, tx_id):
        if tx_id in self.left:
            return self.left[tx_id]
        group = self.group[tx_id]
        assert tx_id in group.members[group.head:], f"{tx_id!r} left its group unseen"
        return self._tx(tx_id, "pending", None)

    def status(self, tx_id):
        return self.tx(tx_id).status

    def ahead(self, tx_id):
        """A pending id's queue position: the historical transactions of
        its band still queued before its group."""
        assert self.status(tx_id) == "pending"
        return self.group[tx_id].ahead(self._outflow)


def constant_scenario(band_edges_sat, counts, blocks, txs, capacity_mode=None) -> Scenario:
    """Constant congestion with one snapshot per block interval."""
    timeline = constant_timeline(band_edges_sat, counts, blocks + 1)
    trace = make_blocks(blocks, txs)
    if capacity_mode is None:
        return Scenario(timeline, trace)
    return Scenario(timeline, trace, capacity_mode)


def random_graph(rng: random.Random, n: int, p: float, unit_capacity=False) -> LnGraph:
    """Erdos-Renyi style graph; capacities 1 or random sat amounts."""
    node1, node2, capacity = [], [], []
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < p:
                node1.append(a)
                node2.append(b)
                capacity.append(1 if unit_capacity else rng.randint(1, 10_000_000))
    ids = [f"e{i}" for i in range(len(capacity))]
    return LnGraph([str(i) for i in range(n)], ids, node1, node2, capacity)


def uniform_attachment_graph(n: int, m: int, seed: int) -> LnGraph:
    """Degree-homogeneous null model for ``generate_scale_free``.

    Same (m+1)-node star seed and channel count m + m*(n-m-1), but each new
    node attaches to m distinct earlier nodes chosen uniformly at random
    rather than in proportion to degree. Unit capacities.
    """
    rng = random.Random(seed)
    node1, node2 = [0] * m, list(range(1, m + 1))
    for source in range(m + 1, n):
        for target in sorted(rng.sample(range(source), m)):
            node1.append(source)
            node2.append(target)
    ids = [f"u{i}" for i in range(len(node1))]
    return LnGraph([str(i) for i in range(n)], ids, node1, node2, [1] * len(node1))


def exact_lopsided_cut(
    graph: LnGraph,
    k: int,
    objective: Objective = Objective.EDGE_COUNT,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> Cut:
    """The greedy solver's oracle: an exhaustive maximizer over all k-subsets
    that refuses jobs whose subset count exceeds the budget. Ties resolve to
    the lexicographically smallest coalition index set."""
    n = graph.node_count
    if not 0 <= k <= n:
        raise ValueError(f"k must be in [0, {n}], got {k}")
    total = math.comb(n, k)
    if total > budget:
        raise EnumerationBudgetExceeded(
            f"C({n},{k}) = {total} subsets exceeds enumeration budget {budget}"
        )
    channels = list(zip(graph.node1, graph.node2, objective.weights(graph)))
    inside = bytearray(n)
    best_value = -1
    best: tuple[int, ...] = ()
    for combo in itertools.combinations(range(n), k):
        for v in combo:
            inside[v] = 1
        value = 0
        for a, b, w in channels:
            if inside[a] != inside[b]:
                value += w
        if value > best_value:
            best_value = value
            best = combo
        for v in combo:
            inside[v] = 0
    return Cut(k, objective, best, *cut_value(graph, best))


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture
def histogram_work(monkeypatch):
    """Lists of the ``FeeHistogram``s built and of those whose average was
    computed, one entry per build and per computation."""
    built, averaged = [], []
    post_init, average = FeeHistogram.__post_init__, FeeHistogram.average.func

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    def counting_average(self):
        averaged.append(self)
        return average(self)

    cached = functools.cached_property(counting_average)
    cached.__set_name__(FeeHistogram, "average")
    monkeypatch.setattr(FeeHistogram, "__post_init__", counting_post_init)
    monkeypatch.setattr(FeeHistogram, "average", cached)
    return built, averaged
