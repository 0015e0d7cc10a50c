import math
from fractions import Fraction

import pytest

from conftest import T0, constant_timeline, fee, make_timeline
from lnme.mempool import (
    BlockEntry,
    BlockTrace,
    ConstantAverage,
    FeeHistogram,
    FeeRate,
    MonitoredTx,
    ReplayEngine,
    ReplayError,
    TimelineError,
    TxStatus,
    average_fee,
    higher_priority_count,
    load_block_trace,
    load_timeline,
)


class TestFeeRate:
    def test_fixed_point_parse(self):
        assert FeeRate.from_sat(70).centi == 7000
        assert FeeRate.from_sat("0.25").centi == 25
        assert FeeRate.from_sat(1.005).centi == 101  # half rounds up

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            FeeRate.from_sat(-1)

    def test_ordering(self):
        assert fee(10) < fee(12.5) < fee(70)

    def test_str(self):
        assert str(fee(70)) == "70.00"
        assert str(fee("12.3")) == "12.30"

    def test_bump_rounds_half_up(self):
        assert fee(100).bumped(1.1) == fee(110)
        assert fee(1).bumped(1.005) == FeeRate(101)  # 100.5 cents -> 101
        # tiny beta is a no-op after rounding
        assert fee(70).bumped(1 + 1e-9) == fee(70)

    def test_bump_monotone(self):
        f = fee(3)
        for _ in range(50):
            nxt = f.bumped(1.1)
            assert nxt >= f
            f = nxt
        assert f > fee(300)


class TestFeeHistogram:
    def test_band_index(self):
        hist = FeeHistogram((fee(0), fee(5), fee(10)), (1, 2, 3))
        assert hist.band_index(fee(0)) == 0
        assert hist.band_index(fee(4.99)) == 0
        assert hist.band_index(fee(5)) == 1
        assert hist.band_index(fee(1000)) == 2

    def test_band_index_below_all(self):
        hist = FeeHistogram((fee(5), fee(10)), (1, 2))
        assert hist.band_index(fee(1)) == -1

    def test_validation(self):
        with pytest.raises(ValueError):
            FeeHistogram((fee(5), fee(5)), (0, 0))
        with pytest.raises(ValueError):
            FeeHistogram((fee(0), fee(5)), (1,))
        with pytest.raises(ValueError):
            FeeHistogram((fee(0), fee(5)), (1, -1))


class TestAverageFee:
    def test_single_open_band(self):
        assert average_fee(FeeHistogram((fee(0), fee(10)), (0, 4))) == fee(10)

    def test_midpoint_weighting(self):
        hist = FeeHistogram((fee(0), fee(10), fee(20)), (2, 2, 0))
        assert average_fee(hist) == fee(10)  # (5*2 + 15*2) / 4

    def test_empty_fallback_lowest_edge(self):
        assert average_fee(FeeHistogram((fee(0), fee(10)), (0, 0))) == fee(0)
        assert average_fee(FeeHistogram((fee(3), fee(10)), (0, 0))) == fee(3)


class TestLoadTimeline:
    def test_basic(self):
        tl = load_timeline("timestamp,0,5\n1600000000,10,3\n")
        assert len(tl) == 1
        hist = tl.snapshot_at(1600000000)
        assert hist.counts == (10, 3)
        assert hist.band_edges == (fee(0), fee(5))

    def test_empty_data_rejected(self):
        with pytest.raises(TimelineError, match="non-empty"):
            load_timeline("timestamp,0,5\n")

    def test_out_of_order_names_timestamp(self):
        with pytest.raises(TimelineError, match="1600000100"):
            load_timeline("timestamp,0\n1600000200,1\n1600000100,2\n")

    def test_arity_mismatch(self):
        with pytest.raises(TimelineError, match="expected 3 fields"):
            load_timeline("timestamp,0,5\n1600000000,1\n")

    def test_negative_count(self):
        with pytest.raises(TimelineError, match="negative"):
            load_timeline("timestamp,0\n1600000000,-1\n")

    def test_bad_header(self):
        with pytest.raises(TimelineError, match="header"):
            load_timeline("time,0,5\n1600000000,1,2\n")


class TestSnapshotAt:
    def test_exact_and_between(self):
        tl = make_timeline([0, 5], [[1, 0], [2, 0], [3, 0]], start=100, interval=60)
        assert tl.snapshot_at(100).counts == (1, 0)
        assert tl.snapshot_at(159).counts == (1, 0)
        assert tl.snapshot_at(160).counts == (2, 0)

    def test_out_of_range(self):
        tl = make_timeline([0], [[1], [2]], start=100, interval=60)
        with pytest.raises(TimelineError):
            tl.snapshot_at(99)
        with pytest.raises(TimelineError):
            tl.snapshot_at(161)


class TestLoadBlockTrace:
    def test_single_entry(self):
        trace = load_block_trace("498084,1512657300,2100\n")
        assert trace.entries == [BlockEntry(498084, 1512657300, 2100)]

    def test_header_optional(self):
        trace = load_block_trace("height,timestamp,tx_count\n1,100,5\n2,200,6\n")
        assert len(trace) == 2

    def test_height_gap(self):
        with pytest.raises(TimelineError, match="gap"):
            load_block_trace("498084,100,5\n498086,200,6\n")

    def test_zero_tx_count_accepted(self):
        trace = load_block_trace("1,100,0\n")
        assert trace.entries[0].tx_count == 0

    def test_negative_tx_count(self):
        with pytest.raises(TimelineError, match="negative"):
            load_block_trace("1,100,-5\n")


class TestHigherPriorityCount:
    def test_top_band_empty_queue(self):
        hist = FeeHistogram((fee(0), fee(5), fee(10)), (9, 4, 6))
        tx = MonitoredTx(id="t", fee=fee(50), submitted_at=0, band=2, seq=0)
        assert higher_priority_count(hist, tx) == 0

    def test_band_arithmetic(self):
        hist = FeeHistogram((fee(0), fee(5), fee(10)), (9, 4, 6))
        tx = MonitoredTx(id="t", fee=fee(7), submitted_at=0, band=1, seq=0, _queue_pos=4)
        assert higher_priority_count(hist, tx) == 10

    def test_below_all_bands(self):
        hist = FeeHistogram((fee(5), fee(10)), (9, 4))
        tx = MonitoredTx(id="t", fee=fee(1), submitted_at=0, band=-1, seq=0, _queue_pos=7)
        assert higher_priority_count(hist, tx) == 13  # whole mempool, queue ignored


def simple_engine(rows, interval=60, **kw):
    tl = make_timeline([0, 10, 50], rows, start=T0, interval=interval)
    return ReplayEngine(tl, **kw)


class TestSubmitAndBump:
    def test_submit_into_empty_band(self):
        eng = simple_engine([[0, 0, 0]] * 3)
        tx = eng.submit("a", fee(70), T0)
        assert tx.same_band_ahead == 0

    def test_submit_behind_band_count(self):
        eng = simple_engine([[0, 12, 0]] * 3)
        tx = eng.submit("a", fee(20), T0)
        assert tx.same_band_ahead == 12

    def test_duplicate_id(self):
        eng = simple_engine([[0, 0, 0]] * 3)
        eng.submit("a", fee(70), T0)
        with pytest.raises(ReplayError, match="duplicate"):
            eng.submit("a", fee(70), T0)

    def test_bump_to_empty_band_resets_queue(self):
        eng = simple_engine([[0, 40, 0]] * 3)
        tx = eng.submit("a", fee(20), T0)
        assert tx.same_band_ahead == 40
        eng.bump("a", fee(60), T0)
        assert tx.same_band_ahead == 0
        assert tx.band == 2

    def test_bump_within_band_resets_to_current_count(self):
        eng = simple_engine([[0, 40, 0], [0, 25, 0], [0, 25, 0]])
        tx = eng.submit("a", fee(20), T0)
        eng.step_snapshot()
        assert tx.same_band_ahead == 25  # drained 15 by outflow
        eng.bump("a", fee(30), T0 + 60)
        assert tx.same_band_ahead == 25  # reset to the band's current count

    def test_bump_requires_fee_increase(self):
        eng = simple_engine([[0, 0, 0]] * 3)
        eng.submit("a", fee(20), T0)
        with pytest.raises(ReplayError, match="increase"):
            eng.bump("a", fee(20), T0)

    def test_bump_all_moves_every_pending_tx_into_one_cohort(self):
        eng = simple_engine([[0, 40, 9]] * 3)
        for tid, rate in (("c", 20), ("a", 12), ("b", 60)):
            eng.submit(tid, fee(rate), T0)
        eng.withdraw("c")
        eng.bump_all(fee(70), T0 + 60)
        moved = [eng.transactions[t] for t in ("a", "b")]
        assert [(tx.fee, tx.band, tx.queued_at, tx.same_band_ahead) for tx in moved] == [
            (fee(70), 2, T0 + 60, 9)
        ] * 2
        assert eng.transactions["c"].fee == fee(20)
        assert [tx.id for tx in eng.apply_block(BlockEntry(1, T0 + 60, 10))] == ["a"]

    def test_bump_all_requires_fee_above_every_pending_fee(self):
        eng = simple_engine([[0, 0, 0]] * 3)
        eng.submit("a", fee(20), T0)
        eng.submit("b", fee(60), T0)
        with pytest.raises(ReplayError, match="increase"):
            eng.bump_all(fee(60), T0)
        assert eng.transactions["a"].fee == fee(20)

    def test_bump_confirmed_tx_rejected(self):
        eng = simple_engine([[0, 0, 0]] * 3)
        eng.submit("a", fee(70), T0)
        eng.apply_block(BlockEntry(1, T0, 10))
        with pytest.raises(ReplayError, match="not pending"):
            eng.bump("a", fee(90), T0)


class TestDecay:
    def test_outflow_drains(self):
        eng = simple_engine([[0, 50, 0], [0, 30, 0]])
        tx = eng.submit("a", fee(20), T0)
        eng.step_snapshot()
        assert tx.same_band_ahead == 30

    def test_inflow_ignored(self):
        eng = simple_engine([[0, 30, 0], [0, 50, 0]])
        tx = eng.submit("a", fee(20), T0)
        eng.step_snapshot()
        assert tx.same_band_ahead == 30

    def test_floor_at_zero(self):
        eng = simple_engine([[0, 5, 0], [0, 0, 0], [0, 9, 0], [0, 0, 0]])
        tx = eng.submit("a", fee(20), T0)
        eng.step_snapshot()
        assert tx.same_band_ahead == 0
        eng.step_snapshot()  # counts rise to 9
        eng.step_snapshot()  # and drain again: stays floored
        assert tx.same_band_ahead == 0

    def test_step_past_end_rejected(self):
        eng = simple_engine([[0, 0, 0]])
        with pytest.raises(ReplayError):
            eng.step_snapshot()


class TestApplyBlock:
    def test_single_tx_confirms(self):
        eng = simple_engine([[0, 0, 0]] * 3)
        eng.submit("a", fee(70), T0)
        confirmed = eng.apply_block(BlockEntry(1, T0, 1))
        assert [tx.id for tx in confirmed] == ["a"]
        assert confirmed[0].confirmed_height == 1

    def test_capacity_limits_confirmations(self):
        eng = simple_engine([[0, 0, 0]] * 3)
        for i in range(10):
            eng.submit(f"t{i}", fee(70), T0)
        confirmed = eng.apply_block(BlockEntry(1, T0, 3))
        assert len(confirmed) == 3
        assert len(eng.pending()) == 7

    def test_congestion_blocks_confirmation(self):
        eng = simple_engine([[0, 0, 2100]] * 3)
        eng.submit("a", fee(70), T0)
        assert eng.apply_block(BlockEntry(1, T0, 2000)) == []

    def test_fifo_within_band(self):
        # same fee: earlier submission wins, even against a smaller id
        eng = simple_engine([[0, 0, 0]] * 5)
        eng.submit("z-early", fee(70), T0)
        eng.submit("a-late", fee(70), T0 + 60)
        confirmed = eng.apply_block(BlockEntry(1, T0 + 60, 1))
        assert [tx.id for tx in confirmed] == ["z-early"]

    def test_id_breaks_simultaneous_ties(self):
        eng = simple_engine([[0, 0, 0]] * 5)
        eng.submit("b", fee(70), T0)
        eng.submit("a", fee(70), T0)
        confirmed = eng.apply_block(BlockEntry(1, T0, 1))
        assert [tx.id for tx in confirmed] == ["a"]

    def test_higher_band_first(self):
        eng = simple_engine([[0, 0, 0]] * 3)
        eng.submit("low", fee(20), T0)
        eng.submit("high", fee(70), T0)
        confirmed = eng.apply_block(BlockEntry(1, T0, 2))
        assert [tx.id for tx in confirmed] == ["high", "low"]

    def test_lower_band_can_pass_blocked_higher_band(self):
        # the higher band is saturated but a lower-band tx still fits
        eng = simple_engine([[0, 0, 0], [0, 0, 0]])
        blocked = eng.submit("blocked", fee(70), T0)
        blocked._queue_pos = 10**6  # stuck behind a synthetic backlog
        eng.submit("nimble", fee(20), T0)
        confirmed = eng.apply_block(BlockEntry(1, T0, 5))
        assert [tx.id for tx in confirmed] == ["nimble"]

    def test_out_of_order_block_rejected(self):
        eng = simple_engine([[0, 0, 0]] * 3)
        eng.apply_block(BlockEntry(5, T0, 1))
        with pytest.raises(ReplayError, match="out of order"):
            eng.apply_block(BlockEntry(5, T0, 1))

    def test_withdraw_removes_from_race(self):
        eng = simple_engine([[0, 0, 0]] * 3)
        eng.submit("a", fee(70), T0)
        eng.withdraw("a")
        assert eng.apply_block(BlockEntry(1, T0, 5)) == []
        assert eng.transactions["a"].status is TxStatus.WITHDRAWN

    def test_event_log_records_confirmations(self):
        eng = simple_engine([[0, 0, 0]] * 3, record_events=True)
        eng.submit("a", fee(70), T0)
        eng.apply_block(BlockEntry(1, T0, 5))
        eng.apply_block(BlockEntry(2, T0 + 60, 5))
        assert eng.events == [(1, ["a"])]

    def test_constant_average_capacity(self):
        tl = constant_timeline([0, 10, 50], [0, 0, 0], 5)
        eng = ReplayEngine(tl, ConstantAverage(2))
        for i in range(5):
            eng.submit(f"t{i}", fee(70), T0)
        assert len(eng.apply_block(BlockEntry(1, T0, 999))) == 2  # tx_count ignored

    def test_fractional_average_accumulates(self):
        tl = constant_timeline([0, 10, 50], [0, 0, 0], 10)
        eng = ReplayEngine(tl, ConstantAverage(1.5))
        for i in range(6):
            eng.submit(f"t{i}", fee(70), T0)
        sizes = [len(eng.apply_block(BlockEntry(h, T0 + 600 * (h - 1), 0))) for h in range(1, 5)]
        assert sizes == [1, 2, 1, 2]

    @pytest.mark.parametrize("avg", [2000.1, 0.3])
    def test_constant_average_cumulative_capacity_is_exact(self, avg):
        # a float carry drifts one below floor(i * avg) in 2000 of these blocks
        eng = ReplayEngine(constant_timeline([0, 10, 50], [0, 0, 0], 2), ConstantAverage(avg))
        rate = Fraction(str(avg))
        total = 0
        for i in range(1, 20_001):
            total += eng._block_capacity(BlockEntry(i, T0, 0))
            assert total == math.floor(i * rate), f"block {i}"


class TestEngineProperties:
    def test_empty_mempool_limit(self):
        for n in (1, 1999, 2000, 2001):
            tl = constant_timeline([0, 10, 50], [0, 0, 0], 10)
            eng = ReplayEngine(tl)
            for i in range(n):
                eng.submit(f"t{i:05d}", fee(70), T0)
            blocks = 0
            while eng.pending():
                blocks += 1
                eng.apply_block(BlockEntry(blocks, T0 + 600 * (blocks - 1), 2000))
            assert blocks == math.ceil(n / 2000)

    def test_conservation(self):
        eng = simple_engine([[0, 7, 0]] * 10)
        for i in range(20):
            eng.submit(f"t{i:02d}", fee(20 if i % 2 else 70), T0)
        eng.withdraw("t03")
        for h in range(1, 6):
            eng.apply_block(BlockEntry(h, T0 + 60 * (h - 1), 3))
        statuses = [tx.status for tx in eng.transactions.values()]
        assert len(statuses) == 20
        assert all(
            s in (TxStatus.PENDING, TxStatus.CONFIRMED, TxStatus.WITHDRAWN) for s in statuses
        )
        confirmed = sum(1 for s in statuses if s is TxStatus.CONFIRMED)
        assert confirmed + len(eng.pending()) + 1 == 20

    def test_capacity_accounting_per_block(self):
        eng = simple_engine([[0, 0, 0]] * 20)
        for i in range(50):
            eng.submit(f"t{i:02d}", fee(70), T0)
        for h in range(1, 10):
            confirmed = eng.apply_block(BlockEntry(h, T0 + 60 * (h - 1), 7))
            assert len(confirmed) <= 7

    def test_determinism_across_reruns(self):
        def run():
            eng = simple_engine([[0, 9, 0]] * 30)
            for i in range(40):
                eng.submit(f"t{i:02d}", fee(20 if i % 3 else 70), T0)
            heights = {}
            for h in range(1, 25):
                ts = T0 + 60 * (h - 1)
                for tx in eng.apply_block(BlockEntry(h, ts, 4)):
                    heights[tx.id] = tx.confirmed_height
                if h % 5 == 0:
                    for tx in eng.pending():
                        eng.bump(tx.id, tx.fee.bumped(1.5), ts)
            return heights

        assert run() == run() == run()

    def test_bump_to_empty_band_never_later(self):
        # monotone priority in the restricted case: the target band is empty
        def confirmation_height(bump):
            eng = simple_engine([[0, 50, 0]] * 40)
            eng.submit("x", fee(20), T0)
            for h in range(1, 30):
                ts = T0 + 60 * (h - 1)
                if bump and h == 3:
                    eng.bump("x", fee(70), ts)
                for tx in eng.apply_block(BlockEntry(h, ts, 2)):
                    if tx.id == "x":
                        return tx.confirmed_height
            return None

        plain = confirmation_height(bump=False)
        bumped = confirmation_height(bump=True)
        assert bumped is not None
        assert plain is None or bumped <= plain
