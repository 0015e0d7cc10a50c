import math

import pytest

from conftest import constant_scenario, constant_timeline, fee, make_blocks
from lnme.mempool import ConstantAverage, ReplayEngine
from lnme.scenario import Scenario
from lnme.strategies import Dynamic, Static
from lnme.zombie import ZombieConfig, simulate_zombie, sweep_csv, sweep_zombie

BANDS = [0, 10, 50]


def empty_scenario(blocks=50, txs=2000):
    return constant_scenario(BANDS, [0, 0, 0], blocks, txs)


def congested_scenario(blocks=50, txs=2000, backlog=10**6):
    # every historical tx sits above a 20 sat/vByte closing fee
    return constant_scenario(BANDS, [0, 0, backlog], blocks, txs)


def mid_band_congestion(blocks=50, txs=2000, backlog=10**6):
    # the backlog sits inside [10, 50); fees of 50+ sail past it
    return constant_scenario(BANDS, [0, backlog, 0], blocks, txs)


class TestSimulateZombie:
    @pytest.mark.parametrize("strategy", [Static(fee(70)), Dynamic(fee(5), 2, 1.5)], ids=["static", "dynamic"])
    def test_replay_builds_no_histogram(self, histogram_work, strategy):
        # a snapshot per block, and dynamic fees climb past the mid-band
        # backlog only after six bumps
        report = simulate_zombie(ZombieConfig(3000, strategy, mid_band_congestion(blocks=30, backlog=3000)))
        assert report.blocks_to_close_all == (14 if isinstance(strategy, Dynamic) else 2)
        assert histogram_work == ([], [])

    @pytest.mark.parametrize("n", [1, 1999, 2000, 2001, 10911])
    def test_empty_mempool_limit(self, n):
        report = simulate_zombie(ZombieConfig(n, Static(fee(70)), empty_scenario()))
        assert report.blocks_to_close_all == math.ceil(n / 2000)
        assert not report.horizon_exhausted
        assert report.series[-1][1] == 0

    def test_saturated_never_closes(self):
        report = simulate_zombie(ZombieConfig(10, Static(fee(20)), congested_scenario(blocks=30)))
        assert report.horizon_exhausted
        assert report.blocks_to_close_all is None
        assert report.series[-1][1] == 10

    def test_series_non_increasing_and_sums_to_n(self):
        n = 4500
        report = simulate_zombie(ZombieConfig(n, Static(fee(70)), empty_scenario()))
        remaining = [r for _, r in report.series]
        assert all(a >= b for a, b in zip(remaining, remaining[1:]))
        decrements = [a - b for a, b in zip([n] + remaining, remaining)]
        assert sum(decrements) == n

    def test_dynamic_beta_near_one_equals_static(self):
        scn = congested_scenario(blocks=40, backlog=3000)
        static = simulate_zombie(ZombieConfig(100, Static(fee(20)), scn))
        dynamic = simulate_zombie(
            ZombieConfig(100, Dynamic(fee(20), step=2, beta=1 + 1e-9), scn)
        )
        assert dynamic.series == static.series
        assert dynamic.blocks_to_close_all == static.blocks_to_close_all
        assert dynamic.horizon_exhausted == static.horizon_exhausted

    def test_dynamic_bump_rescues_stuck_closings(self):
        # static 20 sat/vByte never clears; bumping crosses the backlog band
        scn = mid_band_congestion(blocks=40)
        static = simulate_zombie(ZombieConfig(10, Static(fee(20)), scn))
        dynamic = simulate_zombie(ZombieConfig(10, Dynamic(fee(20), step=2, beta=1.5), scn))
        assert static.horizon_exhausted
        assert not dynamic.horizon_exhausted

    def test_fee_monotone_on_constant_timeline(self):
        # fee 5 stays stuck, 15..45 clear slowly, 55..95 clear in one block
        scn = constant_scenario(BANDS, [5000, 300, 50], 200, 500)
        closures = []
        for f in range(5, 105, 10):
            report = simulate_zombie(ZombieConfig(300, Static(fee(f)), scn))
            closures.append(
                report.blocks_to_close_all if report.blocks_to_close_all is not None else 10**9
            )
        assert all(a >= b for a, b in zip(closures, closures[1:]))
        assert closures[0] == 10**9 and closures[1] > closures[-1]

    def test_smaller_step_never_slower(self):
        scn = constant_scenario(BANDS, [0, 4000, 0], 300, 400)
        closures = []
        for step in (1, 2, 5, 10, 20):
            report = simulate_zombie(
                ZombieConfig(200, Dynamic(fee(5), step=step, beta=1.1), scn)
            )
            closures.append(
                report.blocks_to_close_all if report.blocks_to_close_all is not None else 10**9
            )
        assert all(a <= b for a, b in zip(closures, closures[1:]))

    def test_blocks_before_start_are_skipped(self):
        timeline = constant_timeline(BANDS, [0, 0, 0], 30)
        trace = make_blocks(20, 2000)
        late_start = timeline.timestamps[0] + 5 * 600
        scn = Scenario(timeline, trace, start_timestamp=late_start)
        report = simulate_zombie(ZombieConfig(10, Static(fee(70)), scn))
        # the first five blocks precede the attack
        assert report.series[0][0] == trace.entries[5].height
        assert report.blocks_to_close_all == 1

    def test_timeline_shorter_than_trace_exhausts_horizon(self):
        timeline = constant_timeline(BANDS, [0, 0, 10**6], 10)
        trace = make_blocks(40, 2000)
        scn = Scenario(timeline, trace)
        report = simulate_zombie(ZombieConfig(10, Static(fee(20)), scn))
        assert report.horizon_exhausted
        assert len(report.series) <= 10

    def test_constant_average_capacity_mode(self):
        scn = constant_scenario(BANDS, [0, 0, 0], 50, 0, capacity_mode=ConstantAverage(100))
        report = simulate_zombie(ZombieConfig(1000, Static(fee(70)), scn))
        assert report.blocks_to_close_all == 10  # 1000 / 100, tx_count=0 ignored

    def test_channel_count_validated(self):
        with pytest.raises(ValueError):
            ZombieConfig(0, Static(fee(10)), empty_scenario())

    @pytest.mark.parametrize("beta", [1, 0.5, math.nan, math.inf])
    def test_dynamic_beta_must_be_finite_and_above_one(self, beta):
        with pytest.raises(ValueError, match="beta must be finite and > 1"):
            Dynamic(fee(10), 2, beta)


class TestEngineCalls:
    """The traced benchmark's zombie gates, at small n: one ``submit`` per
    victim, one ``apply_block`` per series row, and ``apply_block`` results
    whose lengths sum to n."""

    @pytest.mark.parametrize(
        "strategy, scenario, closes_at",
        [
            (Static(fee(70)), empty_scenario(), 3),
            # climbs past the mid-band backlog only after six bumps
            (Dynamic(fee(5), 2, 1.5), mid_band_congestion(blocks=30, backlog=3000), 15),
        ],
        ids=["static", "dynamic"],
    )
    def test_engine_calls_match_the_traced_gates(self, monkeypatch, strategy, scenario, closes_at):
        calls = {"submit": 0, "apply_block": 0, "bump_all": 0}
        confirmations = 0

        def counting(name):
            real = getattr(ReplayEngine, name)

            def wrapper(engine, *args):
                nonlocal confirmations
                calls[name] += 1
                result = real(engine, *args)
                if name == "apply_block":
                    confirmations += len(result)
                return result

            monkeypatch.setattr(ReplayEngine, name, wrapper)

        for name in calls:
            counting(name)
        n = 4500
        report = simulate_zombie(ZombieConfig(n, strategy, scenario))
        assert report.blocks_to_close_all == closes_at
        assert calls["submit"] == n
        assert calls["apply_block"] == len(report.series)
        assert confirmations == n
        assert (calls["bump_all"] > 0) == isinstance(strategy, Dynamic)


class TestSweep:
    def test_single_config_matches_simulate(self):
        cfg = ZombieConfig(100, Static(fee(70)), empty_scenario())
        [swept] = sweep_zombie([cfg])
        direct = simulate_zombie(cfg)
        assert swept.series == direct.series
        assert swept.blocks_to_close_all == direct.blocks_to_close_all

    def test_rows_follow_input_order(self):
        scn = empty_scenario()
        configs = [ZombieConfig(100, Static(fee(f)), scn) for f in (70, 30, 90)]
        reports = sweep_zombie(configs)
        assert [r.config_key for r in reports] == [c.key() for c in configs]

    def test_thread_count_does_not_change_output(self, monkeypatch):
        scn = constant_scenario(BANDS, [2000, 1000, 0], 80, 500)
        configs = [ZombieConfig(300, Static(fee(f)), scn) for f in range(10, 90, 10)]
        monkeypatch.setenv("LNME_THREADS", "1")
        serial = sweep_csv(sweep_zombie(configs))
        monkeypatch.setenv("LNME_THREADS", "8")
        threaded = sweep_csv(sweep_zombie(configs))
        assert serial == threaded

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError):
            sweep_zombie([])

    def test_csv_shape(self):
        scn = empty_scenario()
        configs = [
            ZombieConfig(10, Static(fee(70)), scn),
            ZombieConfig(10, Dynamic(fee(5), 3, 1.5), scn),
        ]
        text = sweep_csv(sweep_zombie(configs))
        lines = text.strip().split("\n")
        assert lines[0] == "n,fee,step,beta,blocks_to_close_all,horizon_exhausted"
        assert lines[1] == "10,70.00,,,1,false"
        assert lines[2].startswith("10,5.00,3,1.5,")
