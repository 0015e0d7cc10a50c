import json
import math
import random
from fractions import Fraction

import pytest

from conftest import BLOCK_INTERVAL, constant_scenario, fee, make_blocks, make_timeline
from lnme import doublespend
from lnme.doublespend import (
    MAX_FUNDING_SAT,
    PENALTY,
    SWEEP,
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
    profit_vs_k,
    realized_profit,
    simulate_double_spend,
    to_self_delay,
    tx_name,
)
from lnme.cut import Cut, Objective, crossing_channels, cut_to_json, greedy_lopsided_cut, read_cut_json
from lnme.graph import UniformCapacity, generate_scale_free
from lnme.mempool import ReplayEngine
from lnme.scenario import Scenario
from lnme.strategies import Dynamic, Static

BANDS = [0, 10, 50]
SAT_PER_BTC = 100_000_000


def channels(count, capacity=4_500_000):
    return [(f"c{i}", capacity) for i in range(count)]


def empty_scenario(blocks=60, txs=10**6):
    return constant_scenario(BANDS, [0, 0, 0], blocks, txs)


def congested_scenario(blocks=80, txs=2500, backlog=10**5):
    # the middle band is jammed; penalties at the average fee land in it
    return constant_scenario(BANDS, [0, backlog, 0], blocks, txs)


class TestToSelfDelay:
    def test_fixed(self):
        assert to_self_delay(123, Fixed(500)) == 500

    def test_scaled_average_channel(self):
        # arithmetic oracle: round(4.5e6 / 16777215 * 2016) = 541
        exact = Fraction(4_500_000 * 2016, 16_777_215)
        oracle = int(exact) + (1 if exact - int(exact) >= Fraction(1, 2) else 0)
        assert oracle == 541
        assert to_self_delay(4_500_000, CapacityScaled()) == oracle

    def test_scaled_clamps_low(self):
        # 100000 / 16777215 * 2016 is about 12, below the floor
        assert to_self_delay(100_000, CapacityScaled()) == 144

    def test_scaled_clamps_high(self):
        assert to_self_delay(10**9, CapacityScaled()) == 2016

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            to_self_delay(-1, Fixed(10))

    @pytest.mark.parametrize(
        "policy,kwargs",
        [
            (Fixed, {"blocks": -1}),
            (CapacityScaled, {"min_delay": -1}),
            (CapacityScaled, {"min_delay": 10, "max_delay": 5}),
            (CapacityScaled, {"max_funding": 0}),
        ],
    )
    def test_bad_policy_rejected(self, policy, kwargs):
        with pytest.raises(ValueError):
            policy(**kwargs)


@pytest.mark.parametrize("beta", [1, 0.5, math.nan, math.inf])
def test_dynamic_penalty_beta_must_be_finite_and_above_one(beta):
    with pytest.raises(ValueError, match="beta must be finite and > 1"):
        PenaltyPolicy(dynamic=True, beta=beta)


class TestSimulate:
    def test_reads_each_snapshot_histogram_once(self, histogram_work, monkeypatch):
        # every snapshot's counts differ, so a snapshot built twice would show
        # as a repeated count tuple
        calls = []
        average_fee = doublespend.average_fee
        monkeypatch.setattr(doublespend, "average_fee", lambda hist: calls.append(hist) or average_fee(hist))
        blocks = 40
        timeline = make_timeline(BANDS, [[0, 1000 + i, i] for i in range(blocks + 1)], interval=BLOCK_INTERVAL)
        scenario = Scenario(timeline, make_blocks(blocks, 7))
        report = simulate_double_spend(channels(60), PenaltyPolicy(), AttackerStrategy(fee(70)), Fixed(5), scenario)
        built, averaged = histogram_work
        assert len(calls) == len(report.attacks) == 60  # one penalty per committed channel
        assert len({hist.counts for hist in built}) == len(built) == len(averaged) < len(calls)
        assert len(set(map(id, averaged))) == len(averaged)

    def test_empty_timeline_all_defended(self):
        report = simulate_double_spend(
            channels(1000),
            PenaltyPolicy(),
            AttackerStrategy(fee(50)),
            Fixed(5),
            empty_scenario(),
        )
        assert report.attacked == 1000
        assert report.compromised == 0
        assert report.defended == 1000
        # commitments in block 1, penalties in block 2
        assert {a.commitment_height for a in report.attacks} == {1}
        assert {a.decided_height for a in report.attacks} == {2}

    def test_delay_beyond_horizon_compromises_nothing(self):
        report = simulate_double_spend(
            channels(50),
            PenaltyPolicy(),
            AttackerStrategy(fee(70)),
            Fixed(10_000),
            congested_scenario(),
        )
        assert report.compromised == 0
        assert all(a.sweep_submit_height is None for a in report.attacks)

    def test_congestion_compromises_static_victims(self):
        report = simulate_double_spend(
            channels(100),
            PenaltyPolicy(),
            AttackerStrategy(fee(70)),
            Fixed(5),
            congested_scenario(),
        )
        assert report.compromised == 100
        for atk in report.attacks:
            assert atk.sweep_submit_height == atk.commitment_height + atk.delay
            assert atk.decided_height > atk.sweep_submit_height

    def test_dynamic_victims_defend(self):
        report = simulate_double_spend(
            channels(100),
            PenaltyPolicy(dynamic=True, step=1, beta=2.0),
            AttackerStrategy(fee(70)),
            Fixed(5),
            congested_scenario(),
        )
        assert report.compromised == 0
        assert report.defended == 100

    def test_outcome_exclusive_and_conserved(self):
        report = simulate_double_spend(
            channels(60),
            PenaltyPolicy(),
            AttackerStrategy(fee(70)),
            Fixed(30),
            congested_scenario(blocks=40),
        )
        assert report.compromised + report.defended + report.undecided == 60

    def test_penalty_causality(self, monkeypatch):
        # 10 commitments confirm per block, so two blocks leave 10 of 30 unconfirmed
        submitted = {}  # tx id -> (engine, submission instant)
        real_submit = ReplayEngine.submit

        def recording_submit(engine, tx_id, fee_rate, at):
            submitted[tx_id] = (engine, at)
            return real_submit(engine, tx_id, fee_rate, at)

        monkeypatch.setattr(ReplayEngine, "submit", recording_submit)
        scenario = congested_scenario(blocks=2, txs=10)
        report = simulate_double_spend(
            channels(30),
            PenaltyPolicy(),
            AttackerStrategy(fee(70)),
            Fixed(3),
            scenario,
        )
        timestamp_at = {entry.height: entry.timestamp for entry in scenario.trace}
        assert [atk.commitment_height for atk in report.attacks] == [1] * 10 + [2] * 10 + [None] * 10
        for atk in report.attacks:
            assert (atk.penalty is None) == (atk.commitment_height is None)
            if atk.penalty is not None:
                # a static penalty is never bumped, so it stays queued at its submission
                engine, at = submitted[atk.penalty]
                assert at == timestamp_at[atk.commitment_height]
                assert engine.tx(atk.penalty).queued_at == at

    def test_unconfirmed_commitments_stay_undecided(self):
        # commitment fee sits inside the jammed band and never confirms
        report = simulate_double_spend(
            channels(10),
            PenaltyPolicy(),
            AttackerStrategy(fee(20)),
            Fixed(5),
            congested_scenario(blocks=30),
        )
        assert report.undecided == 10
        assert report.horizon_exhausted

    def test_series_is_cumulative_compromised(self):
        report = simulate_double_spend(
            channels(40),
            PenaltyPolicy(),
            AttackerStrategy(fee(70)),
            Fixed(4),
            congested_scenario(),
        )
        values = [c for _, c in report.series]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert values[-1] == report.compromised

    def test_strict_expiry_withdraws_penalty(self):
        # penalties and sweeps share a jammed band that drains right after
        # the delay expires; the earlier-queued penalty wins the race unless
        # expiry invalidates it
        from conftest import make_timeline

        rows = [[0, 4000, 0]] * 8 + [[0, 0, 0]] * 40
        timeline = make_timeline(BANDS, rows, interval=600)
        trace = make_blocks(40, 2500)
        scn = Scenario(timeline, trace)
        args = (
            channels(5),
            PenaltyPolicy(),
            AttackerStrategy(fee(70), sweep=Static(fee(15))),
        )
        relaxed = simulate_double_spend(*args, Fixed(5), scn, strict_expiry=False)
        strict = simulate_double_spend(*args, Fixed(5), scn, strict_expiry=True)
        assert relaxed.defended == 5
        assert strict.compromised == 5

    @pytest.mark.parametrize("record_events", [False, True])
    def test_event_log_records_confirmations(self, monkeypatch, record_events):
        blocks = []
        real_apply_block = ReplayEngine.apply_block

        def recording_apply_block(engine, entry):
            confirmed = real_apply_block(engine, entry)
            blocks.append((entry.height, [tx_name(tx_id) for tx_id in confirmed]))
            return confirmed

        monkeypatch.setattr(ReplayEngine, "apply_block", recording_apply_block)
        report = simulate_double_spend(
            channels(30),
            PenaltyPolicy(),
            AttackerStrategy(fee(70)),
            Fixed(3),
            congested_scenario(txs=10),
            record_events=record_events,
        )
        assert any(not ids for _, ids in blocks)  # a block that confirms nothing
        if record_events:
            assert report.events == [(height, ids) for height, ids in blocks if ids]
        else:
            assert report.events is None

    def test_determinism(self):
        def run():
            report = simulate_double_spend(
                channels(80),
                PenaltyPolicy(dynamic=True, step=3, beta=1.2),
                AttackerStrategy(fee(70), sweep=Dynamic(fee(100), 4, 1.3)),
                CapacityScaled(max_delay=20, min_delay=5, max_funding=16_777_215),
                congested_scenario(blocks=70),
            )
            return report.to_json(profit_mode="per-channel", profit_sat=0)

        assert run() == run() == run()

    def test_report_is_the_stdlib_dump(self):
        # 4 blocks of 10 transactions leave channels undecided, some with no
        # commitment yet, so the report's int columns hold nulls
        report = simulate_double_spend(
            channels(60),
            PenaltyPolicy(),
            AttackerStrategy(fee(70)),
            Fixed(0),
            congested_scenario(blocks=4, txs=10),
        )
        assert report.undecided and report.compromised + report.defended
        assert any(a.commitment_height is None for a in report.attacks)
        doc = {
            "attacked": report.attacked,
            "compromised": report.compromised,
            "defended": report.defended,
            "undecided": report.undecided,
            "horizon_exhausted": report.horizon_exhausted,
            "per_channel": [
                {
                    "channel_id": a.channel_id,
                    "capacity_sat": a.capacity,
                    "delay": a.delay,
                    "outcome": a.outcome.value,
                    "commitment_height": a.commitment_height,
                    "decided_height": a.decided_height,
                }
                for a in report.attacks
            ],
            "profit_mode": "per-channel",
            "realized_profit_sat": -5,
            "manifest": "ds.manifest.json",
        }
        text = report.to_json(profit_mode="per-channel", profit_sat=-5, manifest="ds.manifest.json")
        assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"
        empty = DoubleSpendReport([], [], False)
        assert empty.to_json() == json.dumps(
            {"attacked": 0, "compromised": 0, "defended": 0, "undecided": 0,
             "horizon_exhausted": False, "per_channel": []},
            indent=2, sort_keys=True,
        ) + "\n"


class TestSchedule:
    @pytest.mark.parametrize("strict_expiry,blocks", [(False, 60), (True, 60), (False, 10)])
    def test_bumps_follow_each_transactions_own_cadence(self, monkeypatch, rng, strict_expiry, blocks):
        # 10 transactions per block confirm the commitments over blocks 1-4,
        # and delays of 0-8 blocks spread the sweeps, so penalties and sweeps
        # start their cadences at many heights; 10 blocks cut the race short
        bumped = []
        real_bump_group = ReplayEngine.bump_group

        def recording_bump_group(engine, ids, new_fee, at):
            bumped.extend((at, tx_id) for tx_id in ids)
            return real_bump_group(engine, ids, new_fee, at)

        monkeypatch.setattr(ReplayEngine, "bump_group", recording_bump_group)
        scenario = congested_scenario(blocks=blocks, txs=10)
        report = simulate_double_spend(
            [(f"c{i}", rng.randint(1, MAX_FUNDING_SAT)) for i in range(40)],
            PenaltyPolicy(dynamic=True, step=3, beta=1.2),
            AttackerStrategy(fee(70), sweep=Dynamic(fee(20), 2, 1.5)),
            CapacityScaled(max_delay=8, min_delay=0),
            scenario,
            strict_expiry=strict_expiry,
        )
        height_at = {entry.timestamp: entry.height for entry in scenario.trace}
        actual: dict[int, list[int]] = {}
        for at, tx_id in bumped:
            actual.setdefault(tx_id, []).append(height_at[at])

        def cadence(submitted, step, ends):
            # bumped every step blocks after submission while pending: not
            # in the block where it confirms or is withdrawn, nor after
            return list(range(submitted + step, ends, step))

        expected: dict[int, list[int]] = {}
        beyond = report.series[-1][0] + 1
        for atk in report.attacks:
            ends = atk.decided_height or beyond
            if atk.penalty is not None:
                # strict expiry withdraws the penalty when the sweep is submitted
                withdrawn = atk.sweep_submit_height if strict_expiry else None
                expected[atk.penalty] = cadence(atk.commitment_height, 3, withdrawn or ends)
            if atk.sweep is not None:
                expected[atk.sweep] = cadence(atk.sweep_submit_height, 2, ends)
        assert actual == {tx_id: hs for tx_id, hs in expected.items() if hs}
        assert {tx_id % 3 for tx_id in actual} == {PENALTY, SWEEP}
        assert len({atk.commitment_height for atk in report.attacks}) > 1
        if blocks == 10:
            assert report.undecided  # still racing when the window ends
        elif not strict_expiry:
            assert report.compromised and report.defended

    def test_zero_delay_sweeps_in_the_commitment_block(self):
        report = simulate_double_spend(
            channels(40),
            PenaltyPolicy(),
            AttackerStrategy(fee(70)),
            Fixed(0),
            congested_scenario(txs=10),
        )
        assert len({atk.commitment_height for atk in report.attacks}) > 1
        for atk in report.attacks:
            assert atk.commitment_height is not None
            assert atk.sweep_submit_height == atk.commitment_height


class TestTxName:
    def test_names_channel_and_role(self):
        assert [tx_name(i) for i in range(4)] == [
            "000000-commit", "000000-penalty", "000000-sweep", "000001-commit",
        ]
        assert tx_name(3 * 1_000_000 + 2) == "1000000-sweep"

    def test_id_order_is_name_order_below_a_million_channels(self, rng):
        ids = rng.sample(range(3 * 1_000_000), 2000)
        assert sorted(ids, key=tx_name) == sorted(ids)


class TestRealizedProfit:
    def outcomes(self, caps_compromised, caps_defended, caps_undecided=()):
        attacks = []
        for i, cap in enumerate(caps_compromised):
            attacks.append(
                ChannelAttack(f"w{i}", cap, 5, len(attacks), outcome=Outcome.COMPROMISED)
            )
        for i, cap in enumerate(caps_defended):
            attacks.append(
                ChannelAttack(f"l{i}", cap, 5, len(attacks), outcome=Outcome.DEFENDED)
            )
        for i, cap in enumerate(caps_undecided):
            attacks.append(ChannelAttack(f"u{i}", cap, 5, len(attacks)))
        return DoubleSpendReport(attacks, [], bool(caps_undecided))

    def test_per_channel_hand_example(self):
        # capacities 2, 4, 6 BTC; stealing the 6 nets zero overall
        btc = SAT_PER_BTC
        report = self.outcomes([6 * btc], [2 * btc, 4 * btc])
        assert realized_profit(report, PerChannel()) == 0

    def test_average_all_compromised(self):
        report = self.outcomes([0] * 7, [])
        assert realized_profit(report, AverageCapacity(1000)) == 7 * 500

    def test_average_break_even_at_half(self):
        report = self.outcomes([0] * 5, [0] * 5)
        assert realized_profit(report, AverageCapacity(123_456)) == 0

    def test_average_formula_randomized(self):
        rng = random.Random(99)
        for _ in range(20):
            a = rng.randint(1, 500)
            n = rng.randint(0, a)
            c = rng.randint(1, 10**7)
            report = self.outcomes([0] * n, [0] * (a - n))
            exact = Fraction(c, 2) * n - Fraction(c, 2) * (a - n)
            got = realized_profit(report, AverageCapacity(c))
            assert abs(got - exact) <= Fraction(1, 2)
            if exact.denominator == 1:
                assert got == exact

    def test_per_channel_bounds(self):
        rng = random.Random(7)
        for _ in range(50):
            caps = [rng.randint(1, 10**7) for _ in range(rng.randint(1, 40))]
            split = rng.randint(0, len(caps))
            report = self.outcomes(caps[:split], caps[split:])
            half_total = Fraction(sum(caps), 2)
            assert -half_total <= realized_profit(report, PerChannel()) <= half_total

    def test_undecided_requires_exclusion(self):
        report = self.outcomes([100], [100], caps_undecided=[100])
        with pytest.raises(ValueError, match="undecided"):
            realized_profit(report, PerChannel())
        assert realized_profit(report, PerChannel(), exclude_undecided=True) == 0

    def test_excluded_undecided_shrinks_attacked_count(self):
        report = self.outcomes([0] * 3, [0], caps_undecided=[0] * 6)
        # a=4 decided, n=3: c/2 * (2n - a) = c/2 * 2
        assert realized_profit(report, AverageCapacity(100), exclude_undecided=True) == 100


class TestExpectedProfit:
    def cut_with_capacity(self, cap):
        return Cut(1, Objective.CAPACITY, (0,), 1, cap)

    def test_half_probability_is_zero(self):
        assert expected_profit(self.cut_with_capacity(10**9), 0.5) == 0

    def test_certain_success(self):
        cap = int(1685.13 * SAT_PER_BTC)
        assert expected_profit(self.cut_with_capacity(cap), 1.0) == cap / 2

    def test_certain_failure(self):
        cap = 10**8
        assert expected_profit(self.cut_with_capacity(cap), 0.0) == -cap / 2

    def test_p_validated(self):
        with pytest.raises(ValueError):
            expected_profit(self.cut_with_capacity(1), 1.5)


class TestProfitVsK:
    def test_k_zero_row(self):
        g = generate_scale_free(30, 2, seed=4)
        rows = profit_vs_k(
            g,
            [0],
            PenaltyPolicy(),
            AttackerStrategy(fee(70)),
            Fixed(5),
            empty_scenario(),
        )
        assert rows == [
            {"k": 0, "attacked": 0, "compromised": 0, "defended": 0, "undecided": 0, "profit_sat": 0}
        ]

    def test_modes_agree_on_equal_capacities(self):
        report_channels = channels(20, capacity=1_000_000)
        scn = congested_scenario()
        report = simulate_double_spend(
            report_channels, PenaltyPolicy(), AttackerStrategy(fee(70)), Fixed(5), scn
        )
        per = realized_profit(report, PerChannel())
        avg = realized_profit(report, AverageCapacity(1_000_000))
        assert per == avg

    def test_table_over_ks(self):
        g = generate_scale_free(40, 2, seed=8)
        rows = profit_vs_k(
            g,
            [0, 1, 3],
            PenaltyPolicy(),
            AttackerStrategy(fee(70)),
            Fixed(5),
            congested_scenario(),
        )
        assert [r["k"] for r in rows] == [0, 1, 3]
        assert rows[1]["attacked"] > 0
        assert rows[1]["profit_sat"] > 0  # everything compromised under congestion

    def test_rows_match_independent_solves(self):
        # one greedy run to max(ks) serves every k: each row equals its own
        # solve and attack, both on the graph's columns and on the cut's file
        g = generate_scale_free(40, 2, seed=8, capacity_dist=UniformCapacity(100_000, 10_000_000))
        honest, attacker = PenaltyPolicy(), AttackerStrategy(fee(70))
        delay, scn = CapacityScaled(min_delay=1, max_delay=6), constant_scenario(BANDS, [0, 0, 0], 80, 20)
        ks = [3, 0, 1, 3, 7]
        rows = profit_vs_k(g, ks, honest, attacker, delay, scn)
        assert [r["k"] for r in rows] == ks
        assert rows[1] == {"k": 0, "attacked": 0, "compromised": 0, "defended": 0, "undecided": 0, "profit_sat": 0}
        for row in rows[:1] + rows[2:]:
            cut, _ = greedy_lopsided_cut(g, row["k"], Objective.CAPACITY)
            crossing = crossing_channels(g, cut.coalition)
            cut_file = read_cut_json(cut_to_json(g, cut))
            for attacked in ([(g.ids[ci], g.capacity[ci]) for ci in crossing], zip(cut_file.ids, cut_file.capacity)):
                report = simulate_double_spend(attacked, honest, attacker, delay, scn)
                assert row == {
                    "k": row["k"],
                    "attacked": report.attacked,
                    "compromised": report.compromised,
                    "defended": report.defended,
                    "undecided": report.undecided,
                    "profit_sat": realized_profit(report, PerChannel(), exclude_undecided=True),
                }
        assert 0 < rows[-1]["compromised"] < rows[-1]["attacked"]  # a mixed outcome
        assert profit_vs_k(g, [], honest, attacker, delay, scn) == []

    def test_negative_k_rejected(self):
        g = generate_scale_free(30, 2, seed=4)
        with pytest.raises(ValueError, match="non-negative"):
            profit_vs_k(g, [2, -1], PenaltyPolicy(), AttackerStrategy(fee(70)), Fixed(5), empty_scenario())
