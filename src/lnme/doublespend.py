"""Mass double-spend simulation: adversarial commitment transactions race
victim penalty transactions, and expired channels are swept.

All commitments enter the mempool at attack start. The moment a channel's
commitment confirms, its penalty transaction is submitted (watchtower
behavior) at the mempool-average fee of that moment. If the penalty is
still unconfirmed once the channel's dispute delay has elapsed, the sweep
transaction is submitted; whichever of penalty and sweep confirms first
decides the channel, and the loser is withdrawn from the mempool. A
channel is compromised only when its sweep actually confirms (funds
moved), defended when its penalty confirms first. When a channel's penalty
and sweep both confirm in one block, the first in the block's priority
order decides the channel; the second still took a unit of block room and
is still listed in the event log.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter

from .cut import Cut, Objective, crossing_channels, greedy_lopsided_cut
from .graph import LnGraph, dumps_with_records
from .mempool import FeeRate, ReplayEngine, _Cohort, average_fee, div_round_half_up
from .scenario import Scenario
from .strategies import Dynamic, FeeStrategy, Static, initial_fee

MAX_FUNDING_SAT = 16_777_215  # pre-wumbo channel-size cap, the scaling anchor
DEFAULT_MAX_DELAY = 2016
DEFAULT_MIN_DELAY = 144

DEFAULT_SWEEP_FEE = FeeRate.from_sat(100)


@dataclass(frozen=True)
class Fixed:
    """Same dispute delay for every channel."""

    blocks: int

    def __post_init__(self):
        if self.blocks < 0:
            raise ValueError("delay blocks must be >= 0")


@dataclass(frozen=True)
class CapacityScaled:
    """Dispute delay grows linearly with channel capacity, clamped to
    [min_delay, max_delay] blocks."""

    max_funding: int = MAX_FUNDING_SAT
    max_delay: int = DEFAULT_MAX_DELAY
    min_delay: int = DEFAULT_MIN_DELAY

    def __post_init__(self):
        if self.max_funding < 1:
            raise ValueError("max_funding must be >= 1")
        if not 0 <= self.min_delay <= self.max_delay:
            raise ValueError("delays must satisfy 0 <= min_delay <= max_delay")


DelayPolicy = Fixed | CapacityScaled


def to_self_delay(capacity: int, policy: DelayPolicy) -> int:
    """Dispute delay in blocks for a channel of the given capacity."""
    if capacity < 0:
        raise ValueError("capacity must be non-negative")
    if isinstance(policy, Fixed):
        return policy.blocks
    scaled = div_round_half_up(capacity * policy.max_delay, policy.max_funding)
    return min(policy.max_delay, max(policy.min_delay, scaled))


@dataclass(frozen=True)
class AttackerStrategy:
    """Shared commitment fee plus the sweep-transaction fee policy."""

    commitment_fee: FeeRate
    sweep: FeeStrategy = Static(DEFAULT_SWEEP_FEE)


@dataclass(frozen=True)
class PenaltyPolicy:
    """Victim response. The initial penalty fee is always the mempool
    average at submission, so only the bumping behavior is configurable."""

    dynamic: bool = False
    step: int = 7
    beta: float = 1.1

    def __post_init__(self):
        if self.dynamic:
            if self.step < 1:
                raise ValueError("step must be >= 1")
            if not (math.isfinite(self.beta) and self.beta > 1):
                raise ValueError("beta must be finite and > 1")


class Outcome(Enum):
    UNDECIDED = "undecided"
    COMPROMISED = "compromised"
    DEFENDED = "defended"


# Channel i's commitment, penalty and sweep are the engine transactions
# 3*i + COMMIT, PENALTY and SWEEP, so ties inside a cohort confirm in
# channel order, then commit < penalty < sweep.
COMMIT, PENALTY, SWEEP = range(3)
ROLES = ("commit", "penalty", "sweep")


def tx_name(tx_id: int) -> str:
    """Event-log name of a transaction id: the channel index, six digits
    wide, and the role."""
    i, role = divmod(tx_id, 3)
    return f"{i:06d}-{ROLES[role]}"


@dataclass
class ChannelAttack:
    """Per-channel race state between commitment, penalty, and sweep."""

    channel_id: str
    capacity: int
    delay: int
    index: int  # position in the attack, which keys its transactions
    outcome: Outcome = Outcome.UNDECIDED
    commitment_height: int | None = None
    sweep_submit_height: int | None = None
    decided_height: int | None = None
    # the engine groups of the penalty and the sweep, once submitted, which
    # name them to the engine; a penalty withdrawn on expiry clears its group
    penalty: _Cohort | None = field(default=None, compare=False, repr=False)
    sweep: _Cohort | None = field(default=None, compare=False, repr=False)


@dataclass
class DoubleSpendReport:
    attacks: list[ChannelAttack]
    series: list[tuple[int, int]]  # (block height, cumulative compromised)
    horizon_exhausted: bool
    events: list[tuple[int, list[str]]] | None = None  # (height, tx_name of each confirmed)

    @property
    def attacked(self) -> int:
        return len(self.attacks)

    @property
    def compromised(self) -> int:
        return sum(1 for a in self.attacks if a.outcome is Outcome.COMPROMISED)

    @property
    def defended(self) -> int:
        return sum(1 for a in self.attacks if a.outcome is Outcome.DEFENDED)

    @property
    def undecided(self) -> int:
        return sum(1 for a in self.attacks if a.outcome is Outcome.UNDECIDED)

    def series_csv(self) -> str:
        lines = ["height,cumulative_compromised"]
        lines += [f"{h},{c}" for h, c in self.series]
        return "\n".join(lines) + "\n"

    def events_jsonl(self) -> str:
        lines = [
            json.dumps({"height": h, "confirmed": ids}, sort_keys=True)
            for h, ids in (self.events or [])
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def to_json(
        self,
        profit_mode: str | None = None,
        profit_sat: int | None = None,
        manifest: str | None = None,
    ) -> str:
        """The report as the stdlib's indented dump, written by
        ``dumps_with_records`` from columns read off ``attacks``, with no
        dict per channel."""
        doc = {
            "attacked": self.attacked,
            "compromised": self.compromised,
            "defended": self.defended,
            "undecided": self.undecided,
            "horizon_exhausted": self.horizon_exhausted,
        }
        if profit_mode is not None:
            doc["profit_mode"] = profit_mode
            doc["realized_profit_sat"] = profit_sat
        if manifest:
            doc["manifest"] = manifest
        per_channel = {
            name: map(attrgetter(attr), self.attacks)
            for name, attr in (
                ("channel_id", "channel_id"),
                ("capacity_sat", "capacity"),
                ("delay", "delay"),
                ("outcome", "outcome.value"),
                ("commitment_height", "commitment_height"),
                ("decided_height", "decided_height"),
            )
        }
        return dumps_with_records(doc, "per_channel", per_channel) + "\n"


def simulate_double_spend(
    channels,
    honest: PenaltyPolicy,
    attacker: AttackerStrategy,
    delay_policy: DelayPolicy,
    scenario: Scenario,
    strict_expiry: bool = False,
    record_events: bool = False,
) -> DoubleSpendReport:
    """Race commitments, penalties, and sweeps over the scenario, one
    attack per ``(channel_id, capacity)`` pair of channels.

    Future work waits in one schedule keyed by the height at which it falls
    due: ``sweeps[h]`` holds the channels whose dispute delay ends at height
    h, and ``bumps[h]`` the ``(group, step, beta)`` entries of dynamic
    penalties and sweeps due for a bump. Each block submits its penalties
    as one uninterrupted run after its confirmations, and its sweeps as
    another, so each is one engine group (see ``ReplayEngine.submit``),
    with one fee and one cadence. Each block pops its own height, drops
    each due group that has no pending member left, bumps the others in one
    engine call each and files them again ``step`` heights on, so bumping
    (honest or sweep) counts from each transaction's own submission block.
    Popping exact heights misses nothing, because the block window is a run
    of consecutive heights and delays are non-negative. Each channel holds
    the groups of its penalty and sweep: once a block's confirmations are
    read, each channel decided in it withdraws its other transaction from
    that one's group, unless the block confirmed it too. With
    ``strict_expiry`` the penalty is withdrawn once the block's sweeps are
    submitted, and its group cleared, so an expired channel can no longer
    be defended; the default lets a late penalty still win the race until
    the sweep confirms. Neither run's order changes a queue position:
    nothing moves the clock in between.
    """
    scenario_start = scenario.start()
    blocks = scenario.attack_blocks()
    engine = ReplayEngine(scenario.timeline, scenario.capacity_mode)
    attacks: list[ChannelAttack] = []
    for i, (channel_id, capacity) in enumerate(channels):
        attacks.append(ChannelAttack(channel_id, capacity, to_self_delay(capacity, delay_policy), i))
        engine.submit(3 * i + COMMIT, attacker.commitment_fee, scenario_start)

    sweep = attacker.sweep
    # a fee object of its own, so that a block's sweeps never join the
    # group of its penalties, whose fee object is a snapshot's average
    sweep_fee = FeeRate(initial_fee(sweep).centi)
    sweeps: defaultdict[int, list[ChannelAttack]] = defaultdict(list)
    bumps: defaultdict[int, list[tuple[_Cohort, int, float]]] = defaultdict(list)
    series: list[tuple[int, int]] = []
    events: list[tuple[int, list[str]]] | None = [] if record_events else None
    compromised_total = 0
    undecided = len(attacks)
    for entry in blocks:
        height, now = entry.height, entry.timestamp
        confirmed = engine.apply_block(entry)
        if events is not None and confirmed:
            events.append((height, list(map(tx_name, confirmed))))
        committed: list[ChannelAttack] = []
        penalty_fee = None  # the average at ``now``, shared by this block's penalties
        losers: list[tuple[_Cohort, int]] = []  # (group, id) of each decided channel's other transaction
        for tx_id in confirmed:
            i, role = divmod(tx_id, 3)
            atk = attacks[i]
            if role == COMMIT:
                atk.commitment_height = height
                penalty_fee = average_fee(engine.histogram())
                committed.append(atk)
                sweeps[height + atk.delay].append(atk)
                continue
            if atk.outcome is not Outcome.UNDECIDED:
                continue
            swept = role == SWEEP
            atk.outcome = Outcome.COMPROMISED if swept else Outcome.DEFENDED
            atk.decided_height = height
            undecided -= 1
            compromised_total += swept
            group = atk.penalty if swept else atk.sweep
            if group is not None:
                losers.append((group, 3 * i + (PENALTY if swept else SWEEP)))
        if losers:
            # a loser is pending unless this block confirmed it too
            done = set(confirmed)
            for group, loser in losers:
                if loser not in done:
                    engine.withdraw(group, loser)
        for atk in committed:  # one run, so one group
            group = atk.penalty = engine.submit(3 * atk.index + PENALTY, penalty_fee, now)
        if honest.dynamic and committed:
            bumps[height + honest.step].append((group, honest.step, honest.beta))
        # each channel is filed once, and its penalty is pending while it is
        # undecided, so an undecided channel has no sweep yet
        expired = [atk for atk in sweeps.pop(height, ()) if atk.outcome is Outcome.UNDECIDED]
        for atk in expired:  # one run, so one group
            group = atk.sweep = engine.submit(3 * atk.index + SWEEP, sweep_fee, now)
            atk.sweep_submit_height = height
        if isinstance(sweep, Dynamic) and expired:
            bumps[height + sweep.step].append((group, sweep.step, sweep.beta))
        if strict_expiry:
            for atk in expired:
                engine.withdraw(atk.penalty, 3 * atk.index + PENALTY)
                atk.penalty = None
        # groups bumped at one instant tie on position and confirm in id
        # order, so their order is moot
        for group, step, beta in bumps.pop(height, ()):
            if not len(group):
                continue  # every member confirmed or was withdrawn
            new_fee = group.fee.bumped(beta)
            if new_fee > group.fee:
                engine.bump(group, new_fee, now)
            bumps[height + step].append((group, step, beta))
        series.append((height, compromised_total))
        if undecided == 0:
            break
    return DoubleSpendReport(attacks, series, undecided > 0, events)


@dataclass(frozen=True)
class AverageCapacity:
    """Profit from outcome counts and one average capacity per channel."""

    capacity_sat: int


@dataclass(frozen=True)
class PerChannel:
    """Profit from each attacked channel's actual capacity."""


ProfitMode = AverageCapacity | PerChannel


def realized_profit(report: DoubleSpendReport, mode: ProfitMode, exclude_undecided: bool = False) -> int:
    """Signed attacker profit in satoshis.

    A compromised channel wins half its capacity (the victim's expected
    balance); a defended channel forfeits the attacker's own half. Odd
    half-satoshi totals truncate toward zero, which keeps the result inside
    the [-sum(c)/2, +sum(c)/2] bounds. Undecided channels are an error
    unless explicitly excluded, in which case they drop out of the attacked
    count as well.
    """
    if report.undecided and not exclude_undecided:
        raise ValueError(
            f"{report.undecided} undecided channel(s); pass exclude_undecided=True to drop them"
        )
    if isinstance(mode, AverageCapacity):
        n = report.compromised
        a = report.compromised + report.defended if exclude_undecided else report.attacked
        twice = mode.capacity_sat * (2 * n - a)
    else:
        won = sum(a.capacity for a in report.attacks if a.outcome is Outcome.COMPROMISED)
        lost = sum(a.capacity for a in report.attacks if a.outcome is Outcome.DEFENDED)
        twice = won - lost
    return _halve_toward_zero(twice)


def _halve_toward_zero(twice: int) -> int:
    return twice // 2 if twice >= 0 else -((-twice) // 2)


def expected_profit(cut: Cut, p: float) -> float:
    """Expected satoshis gained when each attacked channel is stolen
    independently with probability p: (p - 1/2) times the cut capacity."""
    if not 0 <= p <= 1:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    return (p - 0.5) * cut.cut_capacity


def profit_vs_k(
    graph: LnGraph,
    ks,
    honest: PenaltyPolicy,
    attacker: AttackerStrategy,
    delay_policy: DelayPolicy,
    scenario: Scenario,
    profit_mode: ProfitMode = PerChannel(),
) -> list[dict]:
    """Solve the capacity cut greedily once, to the largest k, attack the
    channels crossing each k's prefix of that coalition, and report realized
    profit (undecided channels excluded). The greedy coalition at k is a
    prefix of the one at any larger k."""
    ks = list(ks)
    if min(ks, default=0) < 0:
        raise ValueError(f"k must be non-negative, got {min(ks)}")
    k_max = max(ks, default=0)
    coalition = greedy_lopsided_cut(graph, k_max, Objective.CAPACITY)[0].coalition if k_max else ()
    rows = []
    for k in ks:
        if k == 0:
            rows.append(
                {"k": 0, "attacked": 0, "compromised": 0, "defended": 0, "undecided": 0, "profit_sat": 0}
            )
            continue
        attacked = [(graph.ids[ci], graph.capacity[ci]) for ci in crossing_channels(graph, coalition[:k])]
        report = simulate_double_spend(attacked, honest, attacker, delay_policy, scenario)
        rows.append(
            {
                "k": k,
                "attacked": report.attacked,
                "compromised": report.compromised,
                "defended": report.defended,
                "undecided": report.undecided,
                "profit_sat": realized_profit(report, profit_mode, exclude_undecided=True),
            }
        )
    return rows
