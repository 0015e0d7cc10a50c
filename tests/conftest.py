"""Shared builders for synthetic graphs, timelines, and block traces."""

import functools
import random

import pytest

from lnme.graph import Channel, LnGraph
from lnme.mempool import BlockEntry, BlockTrace, FeeHistogram, FeeRate, MempoolTimeline
from lnme.scenario import Scenario

T0 = 1_600_000_000
BLOCK_INTERVAL = 600


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


def constant_scenario(band_edges_sat, counts, blocks, txs, capacity_mode=None) -> Scenario:
    """Constant congestion with one snapshot per block interval."""
    timeline = constant_timeline(band_edges_sat, counts, blocks + 1)
    trace = make_blocks(blocks, txs)
    if capacity_mode is None:
        return Scenario(timeline, trace)
    return Scenario(timeline, trace, capacity_mode)


def random_graph(rng: random.Random, n: int, p: float, unit_capacity=False) -> LnGraph:
    """Erdos-Renyi style graph; capacities 1 or random sat amounts."""
    labels = [str(i) for i in range(n)]
    channels = []
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < p:
                cap = 1 if unit_capacity else rng.randint(1, 10_000_000)
                channels.append(Channel(f"e{len(channels)}", a, b, cap))
    return LnGraph(labels, channels)


def uniform_attachment_graph(n: int, m: int, seed: int) -> LnGraph:
    """Degree-homogeneous null model for ``generate_scale_free``.

    Same (m+1)-node star seed and channel count m + m*(n-m-1), but each new
    node attaches to m distinct earlier nodes chosen uniformly at random
    rather than in proportion to degree. Unit capacities.
    """
    rng = random.Random(seed)
    channels = [Channel(f"u{leaf - 1}", 0, leaf, 1) for leaf in range(1, m + 1)]
    for source in range(m + 1, n):
        for target in sorted(rng.sample(range(source), m)):
            channels.append(Channel(f"u{len(channels)}", source, target, 1))
    return LnGraph([str(i) for i in range(n)], channels)


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
