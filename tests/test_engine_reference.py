"""Differential test: the optimized replay engine against a naive,
rule-literal reference over randomized scenarios.

The reference engine applies per-snapshot-step queue decay eagerly to every
pending transaction and evaluates every transaction's confirmation condition
independently each block, with no cohorts or cumulative-outflow shortcuts.
It bumps "every pending transaction" one transaction at a time and carries a
``ConstantAverage`` block size as an exact ``Fraction``. Any divergence in
confirmation order, confirmation heights, statuses or queue positions is a
bug in the optimized bookkeeping.
"""

import random
from bisect import bisect_right
from fractions import Fraction
from math import floor

import pytest

from conftest import fee, make_timeline
from lnme.mempool import BlockEntry, ConstantAverage, Historical, ReplayEngine, TxStatus

BAND_GRIDS = (
    [0, 5, 20, 60],
    [2, 5, 20, 60],  # fees below 2 sit under every band
)
SUBMIT_FEES = (1, 3, 8, 12, 15, 40, 80, 120)


class NaiveEngine:
    def __init__(self, timeline, capacity_mode=Historical()):
        self.tl = timeline
        self.idx = 0
        self.txs = {}
        self.blocks = 0
        self.rate = None
        if isinstance(capacity_mode, ConstantAverage):
            self.rate = Fraction(str(capacity_mode.avg_tx_per_block))

    def _band(self, fee_rate):
        return bisect_right(self.tl.band_edges, fee_rate) - 1

    def _advance(self, t):
        target = bisect_right(self.tl.timestamps, t) - 1
        while self.idx < target:
            old = self.tl.counts[self.idx]
            new = self.tl.counts[self.idx + 1]
            for tx in self.txs.values():
                if tx["status"] == "pending" and tx["band"] >= 0:
                    drop = max(0, int(old[tx["band"]]) - int(new[tx["band"]]))
                    tx["sba"] = max(0, tx["sba"] - drop)
            self.idx += 1

    def counts(self):
        return [int(c) for c in self.tl.counts[self.idx]]

    def submit(self, tx_id, fee_rate, t):
        self._advance(t)
        band = self._band(fee_rate)
        counts = self.counts()
        self.txs[tx_id] = {
            "fee": fee_rate,
            "band": band,
            "sba": counts[band] if band >= 0 else 0,
            "queued_at": t,
            "status": "pending",
            "height": None,
        }

    def bump(self, tx_id, new_fee, t):
        tx = self.txs[tx_id]
        assert tx["status"] == "pending" and new_fee > tx["fee"]
        self._advance(t)
        band = self._band(new_fee)
        counts = self.counts()
        tx.update(
            fee=new_fee,
            band=band,
            sba=counts[band] if band >= 0 else 0,
            queued_at=t,
        )

    def bump_all(self, new_fee, t):
        for tid, tx in self.txs.items():
            if tx["status"] == "pending":
                self.bump(tid, new_fee, t)

    def withdraw(self, tx_id):
        assert self.txs[tx_id]["status"] == "pending"
        self.txs[tx_id]["status"] = "withdrawn"

    def capacity(self, entry):
        if self.rate is None:
            return entry.tx_count
        self.blocks += 1
        return floor(self.blocks * self.rate) - floor((self.blocks - 1) * self.rate)

    def apply_block(self, entry):
        self._advance(entry.timestamp)
        counts = self.counts()
        remaining = self.capacity(entry)
        pending = [
            (tid, tx) for tid, tx in self.txs.items() if tx["status"] == "pending"
        ]
        pending.sort(key=lambda item: (-item[1]["band"], item[1]["sba"], item[1]["queued_at"], item[0]))
        confirmed = []
        for tid, tx in pending:
            above = sum(counts[tx["band"] + 1:]) if tx["band"] >= 0 else sum(counts)
            if above + tx["sba"] < remaining:
                tx["status"] = "confirmed"
                tx["height"] = entry.height
                confirmed.append(tid)
                remaining -= 1
        return confirmed

    def pending_fees(self):
        return [tx["fee"] for tx in self.txs.values() if tx["status"] == "pending"]


def random_timeline(rng, band_edges, snapshots=50, start=1_000_000, interval=60):
    counts = []
    level = [rng.randint(0, 30) for _ in band_edges]
    for _ in range(snapshots):
        level = [
            max(0, lv + rng.choice([-12, -6, -3, 0, 0, 3, 7])) for lv in level
        ]
        counts.append(list(level))
    return make_timeline(band_edges, counts, start=start, interval=interval)


def random_scenario(seed, mass_bumps=False):
    """Random events, several of them at one instant: submit bursts whose ids
    arrive out of lexical order, bumps of several transactions by one beta,
    withdrawals and, with ``mass_bumps``, bumps of every pending
    transaction to one new fee."""
    rng = random.Random(seed)
    timeline = random_timeline(rng, BAND_GRIDS[seed % len(BAND_GRIDS)])
    start = timeline.timestamps[0]
    end = timeline.timestamps[-1]
    fresh_ids = [f"tx{i:03d}" for i in range(1000)]
    rng.shuffle(fresh_ids)
    events = []
    t = start
    height = 1
    tx_ids = []
    while t <= end - 120:
        roll = rng.random()
        if roll < 0.35:
            burst_fees = rng.sample(SUBMIT_FEES, rng.choice([1, 1, 2]))
            for _ in range(rng.choice([1, 1, 2, 3, 5])):
                tid = fresh_ids.pop()
                tx_ids.append(tid)
                events.append(("submit", t, tid, fee(rng.choice(burst_fees))))
        elif roll < 0.50 and tx_ids:
            beta = rng.choice([1.5, 2.0, 4.0])
            for tid in rng.sample(tx_ids, min(len(tx_ids), rng.choice([1, 1, 2, 4]))):
                events.append(("bump", t, tid, beta))
        elif roll < 0.57 and tx_ids:
            events.append(("withdraw", t, rng.choice(tx_ids)))
        elif mass_bumps and roll < 0.64:
            events.append(("bump_all", t, rng.choice([1.5, 2.0])))
        else:
            events.append(("block", t, height, rng.randint(0, 10)))
            height += 1
        t += rng.randint(20, 150)
    return timeline, events


def replay_both(seed, capacity_mode=Historical(), mass_bumps=False):
    timeline, events = random_scenario(seed, mass_bumps)
    fast = ReplayEngine(timeline, capacity_mode)
    naive = NaiveEngine(timeline, capacity_mode)
    for event in events:
        kind = event[0]
        if kind == "submit":
            _, t, tid, fee_rate = event
            fast.submit(tid, fee_rate, t)
            naive.submit(tid, fee_rate, t)
        elif kind == "bump":
            _, t, tid, beta = event
            ref = naive.txs[tid]
            if ref["status"] != "pending":
                continue
            new_fee = ref["fee"].bumped(beta)
            if new_fee <= ref["fee"]:
                continue
            naive.bump(tid, new_fee, t)
            fast.bump(tid, new_fee, t)
        elif kind == "bump_all":
            _, t, beta = event
            fees = naive.pending_fees()
            if not fees:
                continue
            new_fee = max(fees).bumped(beta)  # above every pending fee
            naive.bump_all(new_fee, t)
            fast.bump_all(new_fee, t)
        elif kind == "withdraw":
            _, t, tid = event
            if naive.txs[tid]["status"] != "pending":
                continue
            naive.withdraw(tid)
            fast.withdraw(tid)
        else:
            _, t, height, capacity = event
            got = [tx.id for tx in fast.apply_block(BlockEntry(height, t, capacity))]
            want = naive.apply_block(BlockEntry(height, t, capacity))
            assert got == want, f"seed {seed} height {height}: {got} != {want}"
    statuses = {"pending": TxStatus.PENDING, "confirmed": TxStatus.CONFIRMED, "withdrawn": TxStatus.WITHDRAWN}
    for tid, ref in naive.txs.items():
        tx = fast.transactions[tid]
        assert tx.status is statuses[ref["status"]], f"seed {seed} {tid}"
        assert tx.fee == ref["fee"] and tx.band == ref["band"] and tx.queued_at == ref["queued_at"]
        if ref["status"] == "pending":
            assert tx.same_band_ahead == ref["sba"], f"seed {seed} {tid}"
        else:
            assert tx.confirmed_height == ref["height"], f"seed {seed} {tid}"


def test_matches_naive_reference_across_seeds():
    shared = 0  # same-instant, same-fee submits whose ids arrive in reverse
    for seed in range(30):
        replay_both(seed)
        submits = [e for e in random_scenario(seed)[1] if e[0] == "submit"]
        shared += sum(a[1] == b[1] and a[3] == b[3] and a[2] > b[2] for a, b in zip(submits, submits[1:]))
    assert shared >= 30


def test_bump_all_matches_per_transaction_bumps():
    for seed in range(30):
        replay_both(seed, mass_bumps=True)


@pytest.mark.parametrize("avg", [0.3, 1.5, 2.7, 4.1])
def test_constant_average_matches_exact_carry(avg):
    for seed in range(10):
        replay_both(seed, ConstantAverage(avg))
