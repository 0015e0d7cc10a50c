"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE <name>: PASS`` line on success (run with
``pytest -v -s`` to see them; a failing criterion shows up as a pytest
failure). The dataset-conditional tests at the bottom run only when the
operator supplies the historical inputs via environment variables:

  LNME_SNAPSHOT_JSON  lnd describegraph JSON (May-2022 network snapshot)
  LNME_TIMELINE_CSV   per-minute mempool timeline CSV (Dec 2017 window)
  LNME_BLOCKS_CSV     block trace CSV starting at height 498084

Without them the suite rests on the synthetic criteria alone, which is the
expected substitution.
"""

import json
import math
import os
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import (
    T0,
    constant_scenario,
    constant_timeline,
    exact_lopsided_cut,
    fee,
    random_graph,
    uniform_attachment_graph,
)
from lnme.cut import (
    Objective,
    crossing_channels,
    cut_value,
    greedy_lopsided_cut,
    value_vs_k_curve,
)
from lnme.doublespend import (
    AttackerStrategy,
    AverageCapacity,
    CapacityScaled,
    ChannelAttack,
    DoubleSpendReport,
    Fixed,
    Outcome,
    PenaltyPolicy,
    PerChannel,
    expected_profit,
    realized_profit,
    simulate_double_spend,
    to_self_delay,
)
from lnme.graph import generate_scale_free, parse_lnd_graph
from lnme.mempool import BlockEntry, ReplayEngine, load_block_trace, load_timeline
from lnme.scenario import SCENARIO1_START, Scenario
from lnme.strategies import Dynamic, Static
from lnme.zombie import ZombieConfig, simulate_zombie, sweep_csv, sweep_zombie

BANDS = [0, 10, 50]
SAT_PER_BTC = 100_000_000


def ok(name):
    print(f"ACCEPTANCE {name}: PASS")


# ---------------------------------------------------------------------------
# Cut solver, property suite (no external data)
# ---------------------------------------------------------------------------


def test_cut_oracle_dominance():
    started = time.monotonic()
    rng = random.Random(20170)
    for instance in range(200):
        n = rng.randint(4, 12)
        unit = instance % 2 == 0
        graph = random_graph(rng, n, rng.uniform(0.15, 0.5), unit_capacity=unit)
        k = rng.randint(1, min(4, n))
        objective = Objective.EDGE_COUNT if unit else Objective.CAPACITY
        greedy, _ = greedy_lopsided_cut(graph, k, objective)
        exact = exact_lopsided_cut(graph, k, objective)
        assert exact.value() >= greedy.value(), f"instance {instance}: oracle beaten"
        greedy1, _ = greedy_lopsided_cut(graph, 1, objective)
        exact1 = exact_lopsided_cut(graph, 1, objective)
        assert greedy1.value() == exact1.value(), f"instance {instance}: k=1 not optimal"
    elapsed = time.monotonic() - started
    assert elapsed < 60, f"oracle dominance took {elapsed:.1f}s"
    ok(f"cut oracle dominance, 200 instances in {elapsed:.1f}s")


def test_cut_gain_consistency():
    rng = random.Random(411)
    for instance in range(50):
        n = rng.choice([20, 50, 120, 400, 2000])
        graph = generate_scale_free(n, rng.randint(1, 4), seed=rng.randint(0, 10**6))
        k = min(n, 25)
        objective = Objective.CAPACITY if instance % 2 else Objective.EDGE_COUNT
        _, trace = greedy_lopsided_cut(graph, k, objective)
        prefix = []
        for step in trace.steps:
            prefix.append(step.node)
            edges, cap = cut_value(graph, prefix)
            assert step.edge_count == edges
            assert step.cut_capacity == cap
            assert step.value == (edges if objective is Objective.EDGE_COUNT else cap)
    ok("cut gain consistency, 50 graphs, every step exact")


# No k=20 coalition cuts more channels than D20, the sum of the 20 largest
# degrees, so the k=20/k=600 ratio is measured against quantities of the
# same graphs rather than a fixed floor (D20 / greedy(600) itself averages
# only 0.287 on these seeds). Mean-field, the i-th oldest node has degree
# m*sqrt(n/i) under preferential attachment and m*(1 + ln(n/i)) under
# uniform attachment: D20 is about 1360 against 520 at n=2000, m=4, a 2.6x
# gap. Both k=600 greedy cuts take most channels (they differ by under
# 10%), so the scale-free ratio should sit near 2.4x the null's; 2x leaves
# room for the seed-to-seed spread of the few largest hubs.
CONCENTRATION_FACTOR = 2.0
# The 20 largest hubs are essentially the 20 oldest nodes, which share at
# most m + m*(20-m-1) = 64 channels, so the hubs alone cut at least
# D20 - 128, i.e. 0.906 of the mean-field D20. A coalition below 0.9 of D20
# does worse than taking the hubs.
SOLVER_QUALITY = 0.9


def test_cut_scale_free_concentration():
    started = time.monotonic()
    rows = []
    for seed in range(10):
        graph = generate_scale_free(2000, 4, seed=seed)
        curve = value_vs_k_curve(graph, 600, Objective.EDGE_COUNT)
        at_20 = curve[19][1]
        at_600 = curve[599][1]
        top_20 = sum(sorted(map(len, graph.adjacency), reverse=True)[:20])
        null = value_vs_k_curve(uniform_attachment_graph(2000, 4, seed), 600, Objective.EDGE_COUNT)
        null_ratio = null[19][1] / null[599][1]
        rows.append((seed, at_20 / at_600, top_20 / at_600, null_ratio, at_20 / top_20))
    mean_ratio, mean_ceiling, mean_null, mean_quality = (
        sum(column) / len(rows) for column in list(zip(*rows))[1:]
    )
    elapsed = time.monotonic() - started
    detail = "; ".join(
        f"seed {seed}: ratio {ratio:.3f} ceiling {ceiling:.3f} null {null:.3f}"
        for seed, ratio, ceiling, null, _ in rows
    )
    assert mean_ratio >= CONCENTRATION_FACTOR * mean_null, (
        f"k=20/k=600 ratio {mean_ratio:.3f} is under {CONCENTRATION_FACTOR}x the "
        f"uniform-attachment {mean_null:.3f} ({detail})"
    )
    assert mean_quality >= SOLVER_QUALITY, (
        f"greedy k=20 reaches {mean_quality:.3f} of the top-20 degree sum, "
        f"under {SOLVER_QUALITY} (ceiling mean {mean_ceiling:.3f}; {detail})"
    )
    assert elapsed < 30, f"concentration sweep took {elapsed:.1f}s"
    ok(
        f"scale-free concentration, mean k=20/k=600 ratio {mean_ratio:.2%} = "
        f"{mean_ratio / mean_null:.2f}x uniform attachment, {mean_quality:.1%} of the "
        f"top-20 degree sum, in {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# Replay engine, analytic limits (synthetic timelines)
# ---------------------------------------------------------------------------


def test_engine_empty_mempool_limit():
    for n in (1, 1999, 2000, 2001, 10911):
        timeline = constant_timeline(BANDS, [0, 0, 0], 12)
        engine = ReplayEngine(timeline)
        for i in range(n):
            engine.submit(f"t{i:05d}", fee(70), T0)
        blocks = 0
        while engine.pending():
            blocks += 1
            engine.apply_block(BlockEntry(blocks, T0 + 600 * (blocks - 1), 2000))
        assert blocks == math.ceil(n / 2000), f"n={n}: {blocks} blocks"
    ok("engine empty-mempool limit, exact ceil(n/2000) for all n")


def test_engine_saturation_limit():
    scenario = constant_scenario(BANDS, [0, 0, 10**6], 500, 2500)
    report = simulate_zombie(ZombieConfig(100, Static(fee(20)), scenario))
    assert report.horizon_exhausted
    assert report.blocks_to_close_all is None
    assert all(remaining == 100 for _, remaining in report.series)
    assert len(report.series) == 500
    ok("engine saturation limit, zero confirmations over 500 blocks")


def test_engine_determinism_across_threads_and_reruns(monkeypatch):
    scenario = constant_scenario(BANDS, [3000, 1500, 0], 120, 800)
    configs = [ZombieConfig(400, Static(fee(f)), scenario) for f in range(10, 90, 10)]
    ds_channels = [(f"c{i}", 2_000_000 + i) for i in range(150)]
    ds_scenario = constant_scenario(BANDS, [0, 40_000, 0], 120, 2500)

    def render() -> bytes:
        sweep = sweep_csv(sweep_zombie(configs))
        report = simulate_double_spend(
            ds_channels,
            PenaltyPolicy(dynamic=True, step=3, beta=1.25),
            AttackerStrategy(fee(70), sweep=Dynamic(fee(100), 5, 1.2)),
            Fixed(8),
            ds_scenario,
        )
        blob = sweep + report.series_csv() + report.to_json(
            profit_mode="per-channel",
            profit_sat=realized_profit(report, PerChannel(), exclude_undecided=True),
        )
        return blob.encode()

    outputs = []
    for threads in ("1", "8", "1"):
        monkeypatch.setenv("LNME_THREADS", threads)
        outputs.append(render())
    assert outputs[0] == outputs[1] == outputs[2]
    ok("engine determinism, byte-identical across 3 reruns and LNME_THREADS in {1,8}")


# ---------------------------------------------------------------------------
# Zombie simulator (synthetic)
# ---------------------------------------------------------------------------


def test_zombie_fee_monotone_and_beta_limit():
    scenario = constant_scenario(BANDS, [5000, 300, 50], 300, 500)
    closures = []
    for f in range(5, 105, 10):
        report = simulate_zombie(ZombieConfig(300, Static(fee(f)), scenario))
        closures.append(
            report.blocks_to_close_all if report.blocks_to_close_all is not None else 10**9
        )
    assert all(a >= b for a, b in zip(closures, closures[1:])), closures
    static = simulate_zombie(ZombieConfig(300, Static(fee(15)), scenario))
    near_one = simulate_zombie(
        ZombieConfig(300, Dynamic(fee(15), step=2, beta=1 + 1e-9), scenario)
    )
    assert near_one.series == static.series
    assert near_one.blocks_to_close_all == static.blocks_to_close_all
    ok("zombie fee sweep monotone over 10 points; beta->1 run equals static exactly")


# ---------------------------------------------------------------------------
# Double-spend simulator (synthetic)
# ---------------------------------------------------------------------------


def test_doublespend_zero_congestion_safety():
    scenario = constant_scenario(BANDS, [0, 0, 0], 80, 10**6)
    channels = [(f"c{i}", 4_500_000) for i in range(1000)]
    for delay in (2, 3, 10, 50):
        report = simulate_double_spend(
            channels, PenaltyPolicy(), AttackerStrategy(fee(50)), Fixed(delay), scenario
        )
        assert report.compromised == 0, f"delay={delay}"
        assert report.defended == 1000
    ok("double-spend zero-congestion safety, compromised=0 for all delays >= 2")


def test_doublespend_delay_beyond_horizon_safety():
    horizon = 120
    heavy = constant_scenario(BANDS, [50_000, 50_000, 50_000], horizon, 2500)
    empty = constant_scenario(BANDS, [0, 0, 0], horizon, 10**6)
    channels = [(f"c{i}", 4_500_000) for i in range(200)]
    for scenario in (heavy, empty):
        report = simulate_double_spend(
            channels,
            PenaltyPolicy(),
            AttackerStrategy(fee(70)),
            Fixed(horizon + 1),
            scenario,
        )
        assert report.compromised == 0
        assert all(a.sweep_submit_height is None for a in report.attacks)
    ok("double-spend delay-beyond-horizon safety on empty and saturated timelines")


def _synthetic_report(n, defended, undecided=0, capacity=0):
    attacks = []
    for i in range(n):
        attacks.append(
            ChannelAttack(f"w{i}", capacity, 1, f"w{i}", outcome=Outcome.COMPROMISED)
        )
    for i in range(defended):
        attacks.append(
            ChannelAttack(f"l{i}", capacity, 1, f"l{i}", outcome=Outcome.DEFENDED)
        )
    for i in range(undecided):
        attacks.append(ChannelAttack(f"u{i}", capacity, 1, f"u{i}"))
    return DoubleSpendReport(attacks, [], undecided > 0)


def test_doublespend_profit_identities():
    rng = random.Random(52)
    for _ in range(20):
        a = rng.randint(1, 1000)
        n = rng.randint(0, a)
        c = rng.randint(1, 20_000_000)
        report = _synthetic_report(n, a - n)
        exact = Fraction(c, 2) * n - Fraction(c, 2) * (a - n)
        got = realized_profit(report, AverageCapacity(c))
        if exact.denominator == 1:
            assert got == exact
        else:
            assert abs(exact - got) == Fraction(1, 2)  # truncated half satoshi
    graph = generate_scale_free(50, 2, seed=9)
    for k in (1, 5, 20):
        cut, _ = greedy_lopsided_cut(graph, k, Objective.CAPACITY)
        assert expected_profit(cut, 0.5) == 0
    for _ in range(30):
        caps = [rng.randint(1, 10**7) for _ in range(rng.randint(1, 60))]
        split = rng.randint(0, len(caps))
        attacks = [
            ChannelAttack(f"x{i}", cap, 1, f"x{i}",
                          outcome=Outcome.COMPROMISED if i < split else Outcome.DEFENDED)
            for i, cap in enumerate(caps)
        ]
        report = DoubleSpendReport(attacks, [], False)
        profit = realized_profit(report, PerChannel())
        half_total = Fraction(sum(caps), 2)
        assert -half_total <= profit <= half_total
    ok("double-spend profit identities: average formula, p=1/2 zero, per-channel bounds")


def test_doublespend_delay_scaling_anchor():
    delay = to_self_delay(4_500_000, CapacityScaled())
    assert 536 <= delay <= 544, f"delay {delay} outside [536, 544]"
    ok(f"to_self_delay(4.5M sat, scaled defaults) = {delay}, inside [536, 544]")


# ---------------------------------------------------------------------------
# Dataset-conditional: historical-number reproduction (requires data)
# ---------------------------------------------------------------------------

SNAPSHOT = os.environ.get("LNME_SNAPSHOT_JSON")
TIMELINE = os.environ.get("LNME_TIMELINE_CSV")
BLOCKS = os.environ.get("LNME_BLOCKS_CSV")

needs_snapshot = pytest.mark.skipif(
    not SNAPSHOT, reason="historical snapshot not supplied (LNME_SNAPSHOT_JSON)"
)
needs_history = pytest.mark.skipif(
    not (TIMELINE and BLOCKS),
    reason="historical mempool data not supplied (LNME_TIMELINE_CSV, LNME_BLOCKS_CSV)",
)

SNAPSHOT_EDGE_COUNTS = {10: 10911, 30: 20084, 100: 35447, 300: 44522}
SNAPSHOT_CAPACITY_BTC = {10: 1199.89, 30: 1685.13, 100: 2107.70, 300: 2312.47}


@pytest.fixture(scope="module")
def snapshot_graph():
    return parse_lnd_graph(Path(SNAPSHOT).read_text())


@pytest.fixture(scope="module")
def scenario1():
    timeline = load_timeline(Path(TIMELINE).read_text())
    trace = load_block_trace(Path(BLOCKS).read_text())
    return Scenario(timeline, trace, start_timestamp=SCENARIO1_START)


@needs_snapshot
def test_dataset_snapshot_shape(snapshot_graph):
    assert snapshot_graph.node_count == 17813
    assert snapshot_graph.channel_count == 84927
    ok("dataset snapshot shape: 17813 nodes, 84927 channels")


@needs_snapshot
def test_dataset_curve_reproduction(snapshot_graph):
    started = time.monotonic()
    edge_curve = dict(
        (k, e) for k, e, _ in value_vs_k_curve(snapshot_graph, 300, Objective.EDGE_COUNT)
    )
    cap_curve = dict(
        (k, c) for k, _, c in value_vs_k_curve(snapshot_graph, 300, Objective.CAPACITY)
    )
    for k, expected in SNAPSHOT_EDGE_COUNTS.items():
        assert abs(edge_curve[k] - expected) <= 0.01 * expected, f"k={k}: {edge_curve[k]}"
    for k, expected_btc in SNAPSHOT_CAPACITY_BTC.items():
        got_btc = cap_curve[k] / SAT_PER_BTC
        assert abs(got_btc - expected_btc) <= 0.01 * expected_btc, f"k={k}: {got_btc}"
    elapsed = time.monotonic() - started
    assert elapsed < 300, f"curve reproduction took {elapsed:.0f}s"
    ok(f"dataset greedy curves within 1% of recorded values in {elapsed:.0f}s")


@needs_history
def test_dataset_zombie_scenario1():
    started = time.monotonic()
    timeline = load_timeline(Path(TIMELINE).read_text())
    trace = load_block_trace(Path(BLOCKS).read_text())
    scenario = Scenario(timeline, trace, start_timestamp=SCENARIO1_START)
    low_fee = simulate_zombie(ZombieConfig(10911, Static(fee(40)), scenario))
    assert low_fee.blocks_to_close_all is not None
    assert abs(low_fee.blocks_to_close_all - 8000) <= 0.15 * 8000, low_fee.blocks_to_close_all
    high_fee = simulate_zombie(ZombieConfig(10911, Static(fee(70)), scenario))
    assert high_fee.blocks_to_close_all is not None
    assert abs(high_fee.blocks_to_close_all - 2000) <= 0.15 * 2000, high_fee.blocks_to_close_all
    elapsed = time.monotonic() - started
    assert elapsed < 1200, f"zombie runs took {elapsed:.0f}s"
    ok(f"dataset zombie closures near 8000 (fee 40) and 2000 (fee 70) blocks in {elapsed:.0f}s")


@needs_snapshot
@needs_history
def test_dataset_doublespend_profit(snapshot_graph, scenario1):
    started = time.monotonic()
    cut, _ = greedy_lopsided_cut(snapshot_graph, 30, Objective.CAPACITY)
    crossing = crossing_channels(snapshot_graph, cut.coalition)
    report = simulate_double_spend(
        [(snapshot_graph.ids[ci], snapshot_graph.capacity[ci]) for ci in crossing],
        PenaltyPolicy(dynamic=True, step=7, beta=1.1),
        AttackerStrategy(fee(50), sweep=Dynamic(fee(100), 7, 1.1)),
        CapacityScaled(),
        scenario1,
    )
    profit = realized_profit(report, PerChannel(), exclude_undecided=True)
    assert profit > 600 * SAT_PER_BTC, f"profit {profit / SAT_PER_BTC:.2f} BTC"
    elapsed = time.monotonic() - started
    assert elapsed < 600, f"double-spend run took {elapsed:.0f}s"
    ok(f"dataset double-spend profit {profit / SAT_PER_BTC:.0f} BTC (> 600) in {elapsed:.0f}s")
