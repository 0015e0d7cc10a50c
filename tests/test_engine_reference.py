"""Differential test: the optimized replay engine against a naive,
rule-literal reference over randomized scenarios.

The reference engine applies per-snapshot-step queue decay eagerly to every
pending transaction and evaluates every transaction's confirmation condition
independently each block, with no cohorts or cumulative-outflow shortcuts.
It bumps "every pending transaction" one transaction at a time and carries a
``ConstantAverage`` block size as an exact ``Fraction``. Any divergence in
confirmation order, confirmation heights, statuses or queue positions is a
bug in the optimized bookkeeping.

On top of that engine, ``reference_double_spend`` states the double-spend
race rule by rule, per block and per channel, and is compared with
``simulate_double_spend`` over random attacks.
"""

import random
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from math import floor

import pytest

from conftest import T0, fee, make_timeline
from lnme.doublespend import (
    COMMIT,
    MAX_FUNDING_SAT,
    PENALTY,
    SWEEP,
    AttackerStrategy,
    CapacityScaled,
    Fixed,
    PenaltyPolicy,
    simulate_double_spend,
    to_self_delay,
    tx_name,
)
from lnme.mempool import (
    BlockEntry,
    BlockTrace,
    ConstantAverage,
    Historical,
    ReplayEngine,
    ReplayError,
    TxStatus,
    _Cohort,
    average_fee,
)
from lnme.scenario import Scenario
from lnme.strategies import Dynamic, Static, initial_fee

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
            "submitted_at": t,
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

    def bump_group(self, tx_ids, new_fee, t):
        for tid in tx_ids:
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


def random_scenario(seed, mass_bumps=False, group_bumps=False):
    """Random events, several of them at one instant: submit bursts whose ids
    arrive out of lexical order, bumps of several transactions by one beta,
    withdrawals, with ``mass_bumps`` bumps of every pending transaction to
    one new fee, and with ``group_bumps`` bumps of a group of pending
    transactions to one new fee, drawn when the event is replayed. The
    clock stands still for a share of the events, and a burst may be
    followed at its own instant by a withdrawal and a same-fee replacement,
    by a bump of one of its transactions or, with ``group_bumps``, by a
    group bump."""
    rng = random.Random(seed)
    timeline = random_timeline(rng, BAND_GRIDS[seed % len(BAND_GRIDS)])
    fees = {rate: fee(rate) for rate in SUBMIT_FEES}  # one object per value, as the simulators pass them
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
            burst = []
            for _ in range(rng.choice([1, 1, 2, 3, 5])):
                tid = fresh_ids.pop()
                tx_ids.append(tid)
                burst.append(("submit", t, tid, fees[rng.choice(burst_fees)]))
            events += burst
            follow = rng.random()
            if follow < 0.25:  # one leaves, and a same-fee replacement re-joins its cohort
                _, _, gone, rate = rng.choice(burst)
                tid = fresh_ids.pop()
                tx_ids.append(tid)
                events += [("withdraw", t, gone), ("submit", t, tid, rate)]
            elif follow < 0.5:  # one is bumped at once, often inside its band
                events.append(("bump", t, rng.choice(burst)[2], 1.5))
            elif group_bumps and follow < 0.9:  # a group, often with a member of the burst
                events.append(("bump_group", t, rng.choice([1.05, 1.1, 1.5]), rng.random()))
        elif roll < 0.50 and tx_ids:
            beta = rng.choice([1.5, 2.0, 4.0])
            for tid in rng.sample(tx_ids, min(len(tx_ids), rng.choice([1, 1, 2, 4]))):
                events.append(("bump", t, tid, beta))
        elif roll < 0.57 and tx_ids:
            events.append(("withdraw", t, rng.choice(tx_ids)))
        elif mass_bumps and roll < 0.64:
            events.append(("bump_all", t, rng.choice([1.5, 2.0])))
        elif group_bumps and roll < 0.71:
            events.append(("bump_group", t, rng.choice([1.1, 1.5, 2.0]), rng.random()))
        else:
            events.append(("block", t, height, rng.randint(0, 10)))
            height += 1
        if rng.random() < 0.6:  # otherwise the next event shares this instant
            t += rng.randint(20, 150)
    return timeline, events


def draw_group(rng, naive, t):
    """A random group of pending transactions. Half the time it holds a
    transaction queued at t and no fee above that one's, so that a small
    beta keeps the group's target at that transaction's own cohort."""
    pending = [tid for tid, ref in naive.txs.items() if ref["status"] == "pending"]
    fresh = [tid for tid in pending if naive.txs[tid]["queued_at"] == t]
    if fresh and rng.random() < 0.5:
        anchor = rng.choice(fresh)
        top = naive.txs[anchor]["fee"]
        others = [tid for tid in pending if tid != anchor and naive.txs[tid]["fee"] <= top]
        return [anchor] + rng.sample(others, rng.randint(0, len(others)))
    return rng.sample(pending, rng.randint(1, len(pending))) if pending else []


def group_cases(naive, group, new_fee, t):
    """Which of the group-bump cases a group about to be bumped exercises."""
    cohort = {
        tid: (ref["band"], ref["queued_at"]) for tid, ref in naive.txs.items() if ref["status"] == "pending"
    }
    target = (naive._band(new_fee), t)
    sources = {cohort[tid] for tid in group}
    outsiders = set(cohort) - set(group)
    return {
        "group_from_several_cohorts": len(sources) > 1,
        "group_targets_own_cohort": target in sources,
        "group_merges_into_others": sources != {target} and any(cohort[tid] == target for tid in outsiders),
        "group_empties_a_source": any(
            key != target and all(cohort[tid] != key for tid in outsiders) for key in sources
        ),
    }


def replay_both(seed, capacity_mode=Historical(), mass_bumps=False, group_bumps=False):
    """Replay one random scenario on both engines and compare them. Returns
    a count per case: how often a transaction re-joined a ``(band, at)``
    cohort that a withdrawal left at that instant (``rejoined``), how often
    a submit joined the last submit's cohort without a lookup
    (``remembered``), how often a bump kept a transaction in its band at the
    instant it was submitted (``same_band``), and how often a group bump
    exercised each case of ``group_cases``."""
    timeline, events = random_scenario(seed, mass_bumps, group_bumps)
    fast = ReplayEngine(timeline, capacity_mode)
    naive = NaiveEngine(timeline, capacity_mode)
    left = set()  # (band, at) of cohorts that a withdrawal left at their instant
    cases = Counter()
    for event in events:
        kind = event[0]
        if kind == "submit":
            _, t, tid, fee_rate = event
            cases["rejoined"] += (naive._band(fee_rate), t) in left
            last = fast._last  # the remembered (fee, at, band, cohort), or None
            cases["remembered"] += last is not None and last[0] is fee_rate and last[1] == t
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
            band = naive._band(new_fee)
            cases["same_band"] += band == ref["band"] and ref["submitted_at"] == t
            cases["rejoined"] += band != ref["band"] and (band, t) in left
            naive.bump(tid, new_fee, t)
            fast.bump(tid, new_fee, t)
        elif kind == "bump_group":
            _, t, beta, pick = event
            group = draw_group(random.Random(pick), naive, t)
            if not group:
                continue
            top = max(naive.txs[tid]["fee"] for tid in group)
            new_fee = top.bumped(beta)
            if new_fee <= top:
                continue
            cases.update(group_cases(naive, group, new_fee, t))
            naive.bump_group(group, new_fee, t)
            fast.bump_group([fast.transactions[tid] for tid in group], new_fee, t)
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
            ref = naive.txs[tid]
            if ref["status"] != "pending":
                continue
            if ref["queued_at"] == t:
                left.add((ref["band"], t))
            naive.withdraw(tid)
            fast.withdraw(tid)
        else:
            _, t, height, capacity = event
            got = [tx.id for tx in fast.apply_block(BlockEntry(height, t, capacity))]
            want = naive.apply_block(BlockEntry(height, t, capacity))
            assert got == want, f"seed {seed} height {height}: {got} != {want}"
        # the kept snapshot view must follow every snapshot change
        assert fast.histogram() == fast.timeline.snapshot_at(fast.clock), f"seed {seed} {event}"
    statuses = {"pending": TxStatus.PENDING, "confirmed": TxStatus.CONFIRMED, "withdrawn": TxStatus.WITHDRAWN}
    for tid, ref in naive.txs.items():
        tx = fast.transactions[tid]
        assert tx.status is statuses[ref["status"]], f"seed {seed} {tid}"
        assert tx.fee == ref["fee"] and tx.band == ref["band"] and tx.queued_at == ref["queued_at"]
        if ref["status"] == "pending":
            assert fast.same_band_ahead(tid) == ref["sba"], f"seed {seed} {tid}"
        else:
            assert tx.confirmed_height == ref["height"], f"seed {seed} {tid}"
    return cases


def test_matches_naive_reference_across_seeds():
    shared = 0  # same-instant, same-fee submits whose ids arrive in reverse
    cases = Counter()
    for seed in range(30):
        cases += replay_both(seed)
        submits = [e for e in random_scenario(seed)[1] if e[0] == "submit"]
        shared += sum(a[1] == b[1] and a[3] == b[3] and a[2] > b[2] for a, b in zip(submits, submits[1:]))
    assert shared >= 30
    assert cases["rejoined"] >= 30
    assert cases["remembered"] >= 30
    assert cases["same_band"] >= 30


def test_submits_below_the_cohort_tail_match_naive_reference(monkeypatch):
    """A submit whose id sorts last in its cohort appends at the tail; one
    whose id sorts below the cohort's last id falls back to ``_Cohort.add``.
    Both paths run, in one fixed burst and across the shuffled ids of the
    random scenarios, and confirm what the naive engine confirms."""
    add = _Cohort.add
    fallbacks = 0

    def counting_add(cohort, tx):
        nonlocal fallbacks
        fallbacks += 1
        add(cohort, tx)

    monkeypatch.setattr(_Cohort, "add", counting_add)
    timeline = make_timeline([0, 5], [[4, 2], [1, 2]])
    start = timeline.timestamps[0]
    fast, naive = ReplayEngine(timeline), NaiveEngine(timeline)
    for tid in (5, 7, 3, 9, 1, 8, 10):  # 3, 1 and 8 land below the tail
        fast.submit(tid, fee(1), start)
        naive.submit(tid, fee(1), start)
    assert fallbacks == 3
    for height, t in ((1, start), (2, start + 60)):
        got = [tx.id for tx in fast.apply_block(BlockEntry(height, t, 9))]
        assert got == naive.apply_block(BlockEntry(height, t, 9))
    assert got == [7, 8, 9, 10]
    submits = 0
    for seed in range(30):
        replay_both(seed)
        submits += sum(e[0] == "submit" for e in random_scenario(seed)[1])
    assert fallbacks >= 3 + 30
    assert submits - (fallbacks - 3) >= 30


def test_bump_all_matches_per_transaction_bumps():
    for seed in range(30):
        replay_both(seed, mass_bumps=True)


GROUP_CASES = (
    "group_from_several_cohorts",
    "group_targets_own_cohort",
    "group_merges_into_others",
    "group_empties_a_source",
)


@pytest.mark.parametrize("capacity_mode", [Historical(), ConstantAverage(2.7)], ids=["historical", "constant"])
def test_bump_group_matches_per_transaction_bumps(capacity_mode):
    cases = Counter()
    for seed in range(30):
        cases += replay_both(seed, capacity_mode, group_bumps=True)
    assert {case: cases[case] >= 30 for case in GROUP_CASES} == dict.fromkeys(GROUP_CASES, True), cases


@pytest.mark.parametrize("avg", [0.3, 1.5, 2.7, 4.1, 3, Fraction(7, 3)])
def test_constant_average_matches_exact_carry(avg):
    for seed in range(10):
        replay_both(seed, ConstantAverage(avg))


class TestRememberedCohort:
    """A submit with the last submit's fee object, at that submit's instant,
    joins the remembered cohort with no lookup. Each case reuses one fee
    object across a change after which the engine must forget that cohort:
    a submit into a cohort that has left the queue would never confirm, and
    one at an instant the clock has left would skip the clock check."""

    ROWS = [[0, 4, 0], [0, 1, 0], [0, 0, 0]]  # band 1 drains 3 by T0 + 60
    BLOCKS = (BlockEntry(2, T0 + 60, 3), BlockEntry(3, T0 + 120, 3))

    def engines(self):
        timeline = make_timeline([0, 10, 50], self.ROWS)
        return ReplayEngine(timeline), NaiveEngine(timeline)

    @staticmethod
    def replay(fast, naive, blocks):
        """Each block's confirmed ids, the same on both engines."""
        confirmed = []
        for entry in blocks:
            got = [tx.id for tx in fast.apply_block(entry)]
            assert got == naive.apply_block(entry), entry
            confirmed.append(got)
        return confirmed

    def test_submit_after_bump_group_emptied_the_cohort(self):
        rate = fee(20)
        fast, naive = self.engines()
        for eng in (fast, naive):
            eng.submit("a", rate, T0)
        fast.bump_group([fast.transactions["a"]], fee(70), T0)
        naive.bump_group(["a"], fee(70), T0)
        for eng in (fast, naive):
            eng.submit("b", rate, T0)
        assert self.replay(fast, naive, (BlockEntry(1, T0, 3), *self.BLOCKS)) == [["a"], ["b"], []]

    def test_submit_after_bump_all(self):
        rate = fee(20)
        fast, naive = self.engines()
        for eng in (fast, naive):
            eng.submit("a", rate, T0)
            eng.bump_all(fee(70), T0)
            eng.submit("b", rate, T0)
        assert self.replay(fast, naive, (BlockEntry(1, T0, 3), *self.BLOCKS)) == [["a"], ["b"], []]

    def test_submit_after_a_block_dropped_the_withdrawn_cohort(self):
        rate = fee(20)
        fast, naive = self.engines()
        for eng in (fast, naive):
            eng.submit("a", rate, T0)
            eng.withdraw("a")
        assert self.replay(fast, naive, [BlockEntry(1, T0, 3)]) == [[]]
        assert 1 not in fast._bands  # the block dropped the emptied cohort
        for eng in (fast, naive):
            eng.submit("b", rate, T0)
        assert self.replay(fast, naive, self.BLOCKS) == [["b"], []]

    def test_submit_at_an_instant_the_clock_has_left(self):
        rate = fee(20)
        fast, naive = self.engines()
        for eng in (fast, naive):
            eng.submit("a", rate, T0)
        assert self.replay(fast, naive, [BlockEntry(1, T0 + 60, 0)]) == [[]]

        def state():
            cohorts = {
                (band, queued_at): (c.pos, c.mark, [tx.id for tx in c.live()])
                for band, by_time in fast._bands.items()
                for queued_at, c in by_time.items()
            }
            return fast.clock, dict(fast.transactions), cohorts

        before = state()
        with pytest.raises(ReplayError, match="precedes engine clock"):
            fast.submit("b", rate, T0)
        assert state() == before
        assert self.replay(fast, naive, self.BLOCKS) == [["a"], []]


# -- double-spend ----------------------------------------------------------------


def reference_double_spend(channels, honest, attacker, delay_policy, scenario, strict_expiry):
    """The double-spend race stated rule by rule on ``NaiveEngine``: one
    block at a time, one channel at a time, with no schedule and no groups.

    Channel i's commitment, penalty and sweep are transactions ``3*i +
    role``, so ties inside a cohort confirm in channel order and, within a
    channel, commitment before penalty before sweep; that tie order is part
    of the model. Every commitment is submitted at the attack start. In each
    block, in the order the block confirms them: a confirmed commitment
    submits its penalty at the average fee of the moment, and the first of a
    channel's penalty and sweep to confirm decides the channel and withdraws
    the other if it is still pending. Then each undecided channel whose
    dispute delay ends at this height submits its sweep (and, with
    ``strict_expiry``, withdraws its penalty). Then each pending penalty or
    sweep under a bumping policy is bumped when a whole number of its steps
    has passed since its submission. Returns each channel's (outcome,
    commitment height, decided height), the series, the horizon flag and
    the event log."""
    timeline = scenario.timeline
    engine = NaiveEngine(timeline, scenario.capacity_mode)
    count = len(channels)
    delay = [to_self_delay(capacity, delay_policy) for _, capacity in channels]
    outcome = ["undecided"] * count
    committed = [None] * count
    decided = [None] * count
    submitted = {}  # penalty or sweep id -> the height it was submitted at
    sweep = attacker.sweep
    cadence = {
        PENALTY: (honest.step, honest.beta) if honest.dynamic else None,
        SWEEP: (sweep.step, sweep.beta) if isinstance(sweep, Dynamic) else None,
    }
    for i in range(count):
        engine.submit(3 * i + COMMIT, attacker.commitment_fee, scenario.start())
    series, events = [], []
    for entry in scenario.attack_blocks():
        height, now = entry.height, entry.timestamp
        confirmed = engine.apply_block(entry)
        if confirmed:
            events.append((height, [tx_name(tx_id) for tx_id in confirmed]))
        for tx_id in confirmed:
            i, role = divmod(tx_id, 3)
            if role == COMMIT:
                committed[i] = height
                engine.submit(3 * i + PENALTY, average_fee(timeline.snapshot_at(now)), now)
                submitted[3 * i + PENALTY] = height
            elif outcome[i] == "undecided":
                outcome[i] = "compromised" if role == SWEEP else "defended"
                decided[i] = height
                loser = 3 * i + (PENALTY if role == SWEEP else SWEEP)
                if loser in engine.txs and engine.txs[loser]["status"] == "pending":
                    engine.withdraw(loser)
        for i in range(count):
            if outcome[i] == "undecided" and committed[i] is not None and height == committed[i] + delay[i]:
                engine.submit(3 * i + SWEEP, initial_fee(sweep), now)
                submitted[3 * i + SWEEP] = height
                if strict_expiry:
                    engine.withdraw(3 * i + PENALTY)
        for tx_id, at in submitted.items():
            rule = cadence[tx_id % 3]
            tx = engine.txs[tx_id]
            if rule and tx["status"] == "pending" and height > at and (height - at) % rule[0] == 0:
                new_fee = tx["fee"].bumped(rule[1])
                if new_fee > tx["fee"]:
                    engine.bump(tx_id, new_fee, now)
        series.append((height, outcome.count("compromised")))
        if "undecided" not in outcome:
            break
    per_channel = list(zip(outcome, committed, decided))
    return per_channel, series, "undecided" in outcome, events


def random_attack(seed):
    """A random double-spend: 1-25 channels over a random timeline and a
    block trace of consecutive heights, with random capacity mode, penalty
    and sweep policies, delay policy and expiry rule. Returns the channels
    as ``(channel_id, capacity)`` pairs and the simulator's other arguments."""
    rng = random.Random(seed)
    timeline = random_timeline(rng, BAND_GRIDS[seed % len(BAND_GRIDS)], snapshots=rng.randint(5, 40))
    t, entries = timeline.timestamps[0], []
    while t <= timeline.timestamps[-1]:
        entries.append(BlockEntry(len(entries) + 1, t, rng.randint(0, 40)))
        t += rng.choice([0, 30, 60, 60, 120])
    capacity_mode = rng.choice([Historical(), ConstantAverage(rng.choice([0.7, 4.1, 12.5, 30]))])
    scenario = Scenario(timeline, BlockTrace(entries), capacity_mode)
    channels = [(f"c{i}", rng.randint(1, MAX_FUNDING_SAT)) for i in range(rng.randint(1, 25))]
    honest = PenaltyPolicy()
    if rng.random() < 0.5:
        honest = PenaltyPolicy(dynamic=True, step=rng.randint(1, 4), beta=rng.choice([1.005, 1.1, 1.5, 2.0]))
    sweep_fee = fee(rng.choice(SUBMIT_FEES))
    sweep = Static(sweep_fee)
    if rng.random() < 0.5:
        sweep = Dynamic(sweep_fee, rng.randint(1, 4), rng.choice([1.005, 1.1, 1.5, 2.0]))
    attacker = AttackerStrategy(fee(rng.choice(SUBMIT_FEES)), sweep)
    if rng.random() < 0.5:
        delay_policy = Fixed(rng.randint(0, 8))
    else:
        max_delay = rng.randint(0, 8)
        delay_policy = CapacityScaled(MAX_FUNDING_SAT, max_delay, rng.randint(0, max_delay))
    return channels, honest, attacker, delay_policy, scenario, rng.random() < 0.3


def test_double_spend_matches_rule_literal_reference():
    cases = Counter()
    for seed in range(300):
        channels, honest, attacker, delay_policy, scenario, strict = random_attack(seed)
        report = simulate_double_spend(
            channels, honest, attacker, delay_policy, scenario, strict_expiry=strict, record_events=True
        )
        per_channel, series, exhausted, events = reference_double_spend(
            channels, honest, attacker, delay_policy, scenario, strict
        )
        got = [(a.outcome.value, a.commitment_height, a.decided_height) for a in report.attacks]
        assert got == per_channel, f"seed {seed}"
        assert report.series == series, f"seed {seed}"
        assert report.horizon_exhausted == exhausted, f"seed {seed}"
        assert report.events == events, f"seed {seed}"
        outcomes = Counter(outcome for outcome, _, _ in per_channel)
        cases.update(outcome for outcome in outcomes)
        cases["exhausted"] += exhausted
        cases["strict"] += strict
        cases["both_in_one_block"] += any(
            f"{name[:6]}-sweep" in confirmed
            for _, confirmed in events
            for name in confirmed
            if name.endswith("-penalty")
        )
    for case in ("compromised", "defended", "undecided", "exhausted", "strict", "both_in_one_block"):
        assert cases[case] >= 20, cases
