"""Differential test: the optimized replay engine against a naive,
rule-literal reference over randomized scenarios.

The reference engine applies per-snapshot-step queue decay eagerly to every
pending transaction and evaluates every transaction's confirmation condition
independently each block, with no cohorts or cumulative-outflow shortcuts.
It bumps one transaction at a time, so a group bump is one bump per pending
member, and carries a ``ConstantAverage`` block size as an exact
``Fraction``. The optimized engine keeps no id map, so its side is read
through ``Ledger``: the groups its submits return and the ids its blocks
confirm. Any divergence in confirmation order, confirmation heights,
statuses or queue positions is a bug in the optimized bookkeeping.

On top of that engine, ``reference_double_spend`` states the double-spend
race rule by rule, per block and per channel, and is compared with
``simulate_double_spend`` over random attacks.
"""

import random
from bisect import bisect_right
from collections import Counter, defaultdict
from fractions import Fraction
from math import floor

import pytest

from conftest import T0, Ledger, fee, make_timeline
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
    _Cohort,
    average_fee,
)
from lnme.scenario import Scenario
from lnme.strategies import Dynamic, Static, initial_fee
from lnme.zombie import ZombieConfig, simulate_zombie

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
        assert tx_id not in self.txs, f"duplicate transaction id {tx_id!r}"
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


def random_timeline(rng, band_edges, snapshots=50, start=1_000_000, interval=60, lift=0):
    """Random-walk band counts; ``lift`` is added to every count of the
    lowest band, which leaves its drops as they are."""
    counts = []
    level = [rng.randint(0, 30) for _ in band_edges]
    for _ in range(snapshots):
        level = [
            max(0, lv + rng.choice([-12, -6, -3, 0, 0, 3, 7])) for lv in level
        ]
        counts.append([level[0] + lift] + level[1:])
    return make_timeline(band_edges, counts, start=start, interval=interval)


def random_scenario(seed, lift=0, group_bumps=False):
    """Random events, several of them at one instant: submit bursts whose ids
    arrive out of lexical order or, for a share of the bursts, rise above
    every id before them (as the simulators' integer ids do), so that a
    submit can take the append path; bumps of the group of a random transaction
    by one beta, withdrawals and blocks. A burst pays one or two fee
    objects, so its runs of one fee object form one or more groups. The
    clock stands still for a share of the events, and a burst may be
    followed at its own instant by a withdrawal and a same-fee replacement,
    by a bump of the group of one of its transactions, or by a block, a
    same-fee submit and such a bump. With ``group_bumps`` every burst holds
    3 to 8 transactions and is followed by the last of these, and a share
    of the bursts pay a fee in two objects of one value, whose runs are
    groups apart. ``lift`` is ``random_timeline``'s."""
    rng = random.Random(seed)
    timeline = random_timeline(rng, BAND_GRIDS[seed % len(BAND_GRIDS)], lift=lift)
    fees = {rate: fee(rate) for rate in SUBMIT_FEES}  # one object per value, as the simulators pass them
    twins = {rate: fee(rate) for rate in SUBMIT_FEES}
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
            rates = rng.sample(SUBMIT_FEES, rng.choice([1, 1, 2]))
            burst_fees = [fees[rate] for rate in rates]
            if group_bumps and rng.random() < 0.3:
                burst_fees.append(twins[rates[0]])
            rising = rng.random() < 0.4
            burst = []
            for _ in range(rng.randint(3, 8) if group_bumps else rng.choice([1, 1, 2, 3, 5])):
                # "u..." sorts above every "tx..." id, and len(tx_ids) rises
                tid = f"u{len(tx_ids):04d}" if rising else fresh_ids.pop()
                tx_ids.append(tid)
                burst.append(("submit", t, tid, rng.choice(burst_fees)))
            events += burst
            follow = 0.7 if group_bumps else rng.random()
            if follow < 0.25:  # one leaves, and a same-fee replacement starts a group at its instant
                _, _, gone, rate = rng.choice(burst)
                tid = f"u{len(tx_ids):04d}" if rising else fresh_ids.pop()
                tx_ids.append(tid)
                events += [("withdraw", t, gone), ("submit", t, tid, rate)]
            elif follow < 0.6:  # a group is bumped at once, often inside its band
                events.append(("bump", t, rng.choice(burst)[2], rng.choice([1.05, 1.5])))
            elif follow < 0.85:
                # a block at the burst's instant, then a submit with one of its
                # fee objects, which starts a new group, and a bump of a group
                # of the burst that the block may have taken members from, and
                # a withdrawal too: the bump names the group by its highest
                # id, the last of them that a block confirms
                rate = rng.choice(burst)[3]
                paying = [tid for _, _, tid, paid in burst if paid is rate]
                member = max(paying)
                tid = f"u{len(tx_ids):04d}" if rising else fresh_ids.pop()
                tx_ids.append(tid)
                events += [("block", t, height, rng.randint(0, 60)), ("submit", t, tid, rate)]
                height += 1
                if len(paying) > 1 and rng.random() < 0.5:
                    events.append(("withdraw", t, rng.choice([tid for tid in paying if tid != member])))
                events.append(("bump", t, member, rng.choice([1.05, 1.5])))
        elif roll < 0.55 and tx_ids:
            beta = rng.choice([1.1, 1.5, 2.0, 4.0])
            for tid in rng.sample(tx_ids, min(len(tx_ids), rng.choice([1, 1, 2, 4]))):
                events.append(("bump", t, tid, beta))
        elif roll < 0.62 and tx_ids:
            events.append(("withdraw", t, rng.choice(tx_ids)))
        else:
            events.append(("block", t, height, rng.randint(0, 10)))
            height += 1
        if rng.random() < 0.6:  # otherwise the next event shares this instant
            t += rng.randint(20, 150)
    return timeline, events


TIED_FEES = ((80, 120), (8, 15))  # two fees of one band on both grids


def run_scenario(seed):
    """Random events of the simulators' shape: bursts of integer ids,
    each above every id before it, in runs of one fee object, so that a
    submit after a burst's first one of each fee is one append. Each
    burst is followed at its instant by a block and, seven times in ten, by
    a withdrawal of one of its ids or a bump of the group of one of them
    (most often the last group, the open one), before or after the block.
    So the withdrawal may take an id from the middle of its group's member
    list and the bump may rename the open group. Half the bursts pay two
    fees of one band, whose groups tie on position."""
    rng = random.Random(seed)
    timeline = random_timeline(rng, BAND_GRIDS[seed % len(BAND_GRIDS)])
    fees = {rate: fee(rate) for rate in SUBMIT_FEES}
    t, end = timeline.timestamps[0], timeline.timestamps[-1]
    events = []
    height = next_id = 1
    while t <= end - 120:
        rates = rng.choice(TIED_FEES) if rng.random() < 0.5 else rng.sample(SUBMIT_FEES, rng.choice([1, 2]))
        burst = []
        for rate in rates:
            for _ in range(rng.randint(1, 5)):
                burst.append(next_id)
                events.append(("submit", t, next_id, fees[rate]))
                next_id += 1
        after = [("block", t, height, rng.randint(0, 100))]
        height += 1
        follow = rng.random()
        if follow < 0.2:
            after.append(("withdraw", t, rng.choice(burst)))
        elif follow < 0.4:
            after.append(("bump", t, rng.choice(burst), 1.5))
        elif follow < 0.7:
            after.append(("bump", t, burst[-1], 1.5))
        rng.shuffle(after)
        events += after
        t += rng.randint(20, 150)
    return timeline, events


def replay_both(seed, capacity_mode=Historical(), lift=0, scenario=None):
    """Replay one random scenario on both engines and compare them.

    The replay keeps its own account of the groups: a run of submits with
    one fee object at one instant, with no other event in between, is one
    group, and every ``submit`` must return its run's group, a new one for
    a new run. A bump event bumps the group of its transaction on the fast
    engine, and each pending member of that group on the naive one.

    Returns a count per case: how often a transaction entered a band at an
    instant at which a withdrawal had left a cohort of that band
    (``rejoined``), how often a submit joined the last submit's group
    (``remembered``), how often a bump kept a group in its band at the
    instant it was submitted (``same_band``), how many block confirmations
    took a transaction queued in one band at one instant beside a pending
    transaction of another fee, whose cohorts tie on position (``tied``),
    how often a new group took the band, instant and fee of a group with a
    pending member (``equal_keys``), how often a bump found members of its
    group confirmed (``bumped_after_confirmation``) or withdrawn
    (``bumped_after_withdrawal``), how often a submit started a new group
    with the fee object and instant of the submit before it because a block
    came in between (``split_by_block``), and how often an id joined its
    group below the group's highest id (``out_of_order``), how often a
    submit started a new group with a fee equal to the submit's before it,
    at its instant, but in another object (``equal_fee_objects``), how
    often a withdrawal took an id that was not its group's first pending
    member (``mid_list``), and how often a bump renamed the group that the
    last submit joined, with nothing in between (``bumped_open_group``).
    ``scenario``, a ``(timeline, events)`` pair, replaces the random
    scenario."""
    timeline, events = scenario or random_scenario(seed, lift)
    fast = Ledger(timeline, capacity_mode)
    naive = NaiveEngine(timeline, capacity_mode)
    left = set()  # (band, at) of cohorts that a withdrawal left at their instant
    cases = Counter()
    groups = []  # the fast engine's groups, in the order their runs began
    members = []  # per group, the ids submitted into it
    group_of = {}  # id -> index of its group
    run = None  # (fee, at) of the open run
    split = None  # (fee, at) of the last run, while only blocks have come since

    for event in events:
        kind = event[0]
        if kind == "submit":
            _, t, tid, fee_rate = event
            cases["rejoined"] += (naive._band(fee_rate), t) in left
            last = fast._last  # the remembered (fee, at, cohort), or None
            cases["remembered"] += last is not None and last[0] is fee_rate and last[1] == t
            group = fast.submit(tid, fee_rate, t)
            naive.submit(tid, fee_rate, t)
            if run is not None and run[0] is fee_rate and run[1] == t:
                assert group is groups[-1], f"seed {seed} {event}"
                cases["out_of_order"] += tid < max(members[-1])
            else:
                assert all(group is not other for other in groups), f"seed {seed} {event}"
                key = (group.band, group.queued_at, group.fee)
                cases["equal_keys"] += any(
                    (other.band, other.queued_at, other.fee) == key for other in groups if len(other)
                )
                cases["split_by_block"] += split is not None and split[0] is fee_rate and split[1] == t
                cases["equal_fee_objects"] += run is not None and run[0] == fee_rate and run[1] == t
                groups.append(group)
                members.append([])
            group_of[tid] = len(groups) - 1
            members[-1].append(tid)
            run, split = (fee_rate, t), None
        elif kind == "bump":
            _, t, tid, beta = event
            ref = naive.txs[tid]
            if ref["status"] != "pending":
                continue
            new_fee = ref["fee"].bumped(beta)
            if new_fee <= ref["fee"]:
                continue
            run = split = None  # a bump ends the open run
            index = group_of[tid]
            statuses = [naive.txs[member]["status"] for member in members[index]]
            band = naive._band(new_fee)
            cases["same_band"] += band == ref["band"] and ref["submitted_at"] == t
            cases["rejoined"] += band != ref["band"] and (band, t) in left
            cases["bumped_after_confirmation"] += "confirmed" in statuses
            cases["bumped_after_withdrawal"] += "withdrawn" in statuses
            cases["bumped_open_group"] += fast._last is not None and fast._last[2] is groups[index]
            for member, status in zip(members[index], statuses):
                if status == "pending":
                    naive.bump(member, new_fee, t)
            fast.bump(groups[index], new_fee, t)
        elif kind == "withdraw":
            _, t, tid = event
            ref = naive.txs[tid]
            if ref["status"] != "pending":
                continue
            run = split = None  # a withdrawal ends the open run
            if ref["queued_at"] == t:
                left.add((ref["band"], t))
            group = groups[group_of[tid]]
            cases["mid_list"] += group.members[group.head] != tid
            naive.withdraw(tid)
            fast.withdraw(group, tid)
        else:
            split, run = run or split, None  # a block ends the open run, even at its instant
            _, t, height, capacity = event
            fees = defaultdict(set)  # (band, queued_at) -> fees pending there
            for ref in naive.txs.values():
                if ref["status"] == "pending":
                    fees[ref["band"], ref["queued_at"]].add(ref["fee"])
            got = fast.apply_block(BlockEntry(height, t, capacity))
            want = naive.apply_block(BlockEntry(height, t, capacity))
            assert got == want, f"seed {seed} height {height}: {got} != {want}"
            cases["tied"] += sum(len(fees[naive.txs[tid]["band"], naive.txs[tid]["queued_at"]]) > 1 for tid in want)
        # the kept snapshot view must follow every snapshot change
        assert fast.histogram() == fast.timeline.snapshot_at(fast.clock), f"seed {seed} {event}"
    assert fast.pending() == sorted(tid for tid, ref in naive.txs.items() if ref["status"] == "pending"), f"seed {seed}"
    for tid, ref in naive.txs.items():
        tx = fast.tx(tid)
        assert tx.status == ref["status"], f"seed {seed} {tid}"
        assert tx.fee == ref["fee"] and tx.band == ref["band"] and tx.queued_at == ref["queued_at"]
        if ref["status"] == "pending":
            assert fast.ahead(tid) == ref["sba"], f"seed {seed} {tid}"
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
    assert cases["tied"] >= 30


def test_submits_below_the_cohort_tail_match_naive_reference(monkeypatch):
    """A submit whose id sorts last in its cohort appends at the tail; one
    whose id sorts below the cohort's last id falls back to ``_Cohort.add``.
    Both paths run, in one fixed burst and across the shuffled ids of the
    random scenarios, and confirm what the naive engine confirms."""
    add = _Cohort.add
    fallbacks = 0

    def counting_add(cohort, tx_id):
        nonlocal fallbacks
        fallbacks += 1
        add(cohort, tx_id)

    monkeypatch.setattr(_Cohort, "add", counting_add)
    timeline = make_timeline([0, 5], [[4, 2], [1, 2]])
    start = timeline.timestamps[0]
    fast, naive = ReplayEngine(timeline), NaiveEngine(timeline)
    rate = fee(1)  # one fee object: the burst is one group
    for tid in (5, 7, 3, 9, 1, 8, 10):  # 3, 1 and 8 land below the tail
        fast.submit(tid, rate, start)
        naive.submit(tid, rate, start)
    assert fallbacks == 3
    for height, t in ((1, start), (2, start + 60)):
        got = fast.apply_block(BlockEntry(height, t, 9))
        assert got == naive.apply_block(BlockEntry(height, t, 9))
    assert got == [7, 8, 9, 10]
    submits = 0
    for seed in range(30):
        replay_both(seed)
        submits += sum(e[0] == "submit" for e in random_scenario(seed)[1])
    assert fallbacks >= 3 + 30
    assert submits - (fallbacks - 3) >= 30


def test_counts_near_int64_match_naive_reference():
    """A lowest band lifted by 2**62 puts every timeline past the cheap
    int64 bound on the cumulative outflow, max(counts) * (snapshots - 1);
    its drops stay small, so the exact sum lets it load, and replays on it
    confirm what the naive engine confirms."""
    for seed in range(10):
        timeline = random_scenario(seed, lift=2**62)[0]
        assert int(timeline.counts.max()) * (len(timeline) - 1) >= 2**63
        replay_both(seed, lift=2**62)
        replay_both(seed, ConstantAverage(2.7), lift=2**62)


@pytest.mark.parametrize("capacity_mode", [Historical(), ConstantAverage(40.5)], ids=["historical", "constant"])
def test_rising_id_bursts_match_naive_reference(capacity_mode):
    """Bursts of appended ids, then blocks, withdrawals from the middle of
    a member list and bumps of the open group at the bursts' instant."""
    cases = Counter()
    for seed in range(30):
        cases += replay_both(seed, capacity_mode, scenario=run_scenario(seed))
    want = ("remembered", "mid_list", "tied", "bumped_open_group")
    assert {case: cases[case] >= 30 for case in want} == dict.fromkeys(want, True), cases


GROUP_CASES = (
    "equal_keys",
    "bumped_after_confirmation",
    "bumped_after_withdrawal",
    "split_by_block",
    "out_of_order",
    "equal_fee_objects",
)


@pytest.mark.parametrize("capacity_mode", [Historical(), ConstantAverage(2.7)], ids=["historical", "constant"])
def test_group_bumps_match_per_transaction_bumps(capacity_mode):
    """Groups submitted as runs, some of their members confirmed or
    withdrawn, then bumped whole, against one bump per pending member."""
    cases = Counter()
    for seed in range(60):
        cases += replay_both(seed, capacity_mode, scenario=random_scenario(seed, group_bumps=True))
    assert {case: cases[case] >= 30 for case in GROUP_CASES} == dict.fromkeys(GROUP_CASES, True), cases


@pytest.mark.parametrize("avg", [0.3, 1.5, 2.7, 4.1, 3, Fraction(7, 3)])
def test_constant_average_matches_exact_carry(avg):
    for seed in range(10):
        replay_both(seed, ConstantAverage(avg))


class TestRememberedCohort:
    """A submit with the last submit's fee object, at that submit's instant,
    joins the remembered group. Each case reuses one fee object across a
    change after which the engine must forget that group: a submit into a
    group that a bump renamed would take the bumped fee, one into a cohort
    that has left the queue would never confirm, and one at an instant the
    clock has left would skip the clock check."""

    ROWS = [[0, 4, 0], [0, 1, 0], [0, 0, 0]]  # band 1 drains 3 by T0 + 60
    BLOCKS = (BlockEntry(2, T0 + 60, 3), BlockEntry(3, T0 + 120, 3))

    def engines(self):
        timeline = make_timeline([0, 10, 50], self.ROWS)
        return Ledger(timeline), NaiveEngine(timeline)

    @staticmethod
    def replay(fast, naive, blocks):
        """Each block's confirmed ids, the same on both engines."""
        confirmed = []
        for entry in blocks:
            got = fast.apply_block(entry)
            assert got == naive.apply_block(entry), entry
            confirmed.append(got)
        return confirmed

    def test_submit_after_a_bump_renamed_the_group(self):
        rate = fee(20)
        fast, naive = self.engines()
        group = fast.submit("a", rate, T0)
        naive.submit("a", rate, T0)
        fast.bump(group, fee(70), T0)
        naive.bump("a", fee(70), T0)
        for eng in (fast, naive):
            eng.submit("b", rate, T0)
        assert fast.tx("b").fee == fee(20)
        assert self.replay(fast, naive, (BlockEntry(1, T0, 3), *self.BLOCKS)) == [["a"], ["b"], []]

    def test_submit_after_a_block_dropped_the_withdrawn_cohort(self):
        rate = fee(20)
        fast, naive = self.engines()
        fast.withdraw(fast.submit("a", rate, T0), "a")
        naive.submit("a", rate, T0)
        naive.withdraw("a")
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
            cohorts = [
                (c.band, c.queued_at, c.fee, c.pos, c.mark, c.members[c.head:])
                for queued in fast._bands.values()
                for c in queued
            ]
            return fast.clock, fast.pending(), cohorts

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


def test_sweeps_at_the_penalties_fee_object_bump_on_their_own_cadence():
    """An empty snapshot's average fee is the timeline's lowest band edge,
    that very object. Sweeps priced with it, after a zero delay, are
    submitted in the commitments' block right after the penalties, at the
    penalties' fee object and instant, and must still form a group of their
    own: the penalties bump every block, the sweeps every fifth."""
    timeline = make_timeline([1, 10, 50], [[0, 0, 0]] + [[0, 50, 50]] * 60, interval=600)
    trace = BlockTrace([BlockEntry(i + 1, T0 + 600 * i, 5 if i == 0 else 60) for i in range(60)])
    scenario = Scenario(timeline, trace)
    channels = [(f"c{i}", 1000) for i in range(5)]
    honest = PenaltyPolicy(dynamic=True, step=1, beta=4.0)
    attacker = AttackerStrategy(fee(70), Dynamic(timeline.band_edges[0], 5, 1.5))
    report = simulate_double_spend(channels, honest, attacker, Fixed(0), scenario, record_events=True)
    per_channel, _, _, events = reference_double_spend(channels, honest, attacker, Fixed(0), scenario, False)
    assert [(a.outcome.value, a.commitment_height, a.decided_height) for a in report.attacks] == per_channel
    assert report.events == events
    assert events[1] == (5, [tx_name(3 * i + PENALTY) for i in range(5)])  # no sweep has caught up


def test_the_simulators_submit_each_id_once_per_engine(monkeypatch):
    """The engine keeps no id map and catches a duplicate id only inside
    one group, so unique ids are the simulators' duty: over random attacks
    and static and dynamic zombies, no engine is handed one id twice."""
    seen = defaultdict(list)  # engine -> the ids submitted to it, in order
    submit = ReplayEngine.submit

    def recording_submit(engine, tx_id, fee_rate, at):
        seen[engine].append(tx_id)
        return submit(engine, tx_id, fee_rate, at)

    monkeypatch.setattr(ReplayEngine, "submit", recording_submit)
    for seed in range(100):
        channels, honest, attacker, delay_policy, scenario, strict = random_attack(seed)
        simulate_double_spend(channels, honest, attacker, delay_policy, scenario, strict_expiry=strict)
    # 1 sat/vByte sits behind 5000 transactions until bumps lift it out of the band
    timeline = make_timeline([0, 10, 50], [[5000, 0, 0]] * 20, interval=600)
    scenario = Scenario(timeline, BlockTrace([BlockEntry(i + 1, T0 + 600 * i, 300) for i in range(20)]))
    for strategy in (Static(fee(1)), Static(fee(70)), Dynamic(fee(1), 1, 1.5), Dynamic(fee(1), 3, 2.0)):
        simulate_zombie(ZombieConfig(1000, strategy, scenario))
    assert len(seen) == 104
    assert {engine: len(ids) - len(set(ids)) for engine, ids in seen.items()} == dict.fromkeys(seen, 0)
    roles = Counter(tx_id % 3 for ids in list(seen.values())[:100] for tx_id in ids)
    assert min(roles[COMMIT], roles[PENALTY], roles[SWEEP]) > 100, roles
    assert [len(ids) for ids in list(seen.values())[100:]] == [1000] * 4
