"""Mempool congestion replay: fee-band timelines, block traces, and the
deterministic engine deciding when monitored transactions confirm.

Historical congestion is overlay data. Each timeline snapshot gives the
number of pending transactions per fee band; snapshots are never mutated
by a simulation. A monitored (simulated) transaction holds a queue
position inside its band: the band's historical count at submission,
drained over time by the band's snapshot-to-snapshot outflow (count
decreases count as confirmations; increases queue behind). Draining a
position by per-step outflow with a floor at zero is equivalent to
flooring once against cumulative outflow, which is what the engine stores,
so position updates are O(1).

A block confirms pending monitored transactions in priority order (fee
band descending, queue position ascending, submission time, id) while the
number of strictly-higher-priority historical transactions is below the
block's remaining capacity. Displaced historical transactions are not
re-queued; congestion is simply re-read from the next snapshot.

The engine queues cohorts, not transactions. A cohort is every
transaction that entered one band at one instant (a submission or a bump),
keyed by ``(band, queued_at)``; its members share a queue position and an
outflow mark, hence the same ``same_band_ahead`` for as long as they stay.
Inside a band, cohorts are ordered by ``(same_band_ahead, queued_at)`` and
members by id, which is the priority order above. With ``above``
historical transactions in higher bands, one block confirms
``max(0, min(live, remaining - above - same_band_ahead))`` of a cohort's
``live`` members, exactly what confirming them one by one would do. So
queue order and the confirmation test cost one step per cohort, however
many identical transactions a mass exit submits and bumps together.
"""

from __future__ import annotations

import csv
import io
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from operator import attrgetter

import numpy as np

SAT_CENTS = 100  # fee rates are fixed-point hundredths of sat/vByte

# Band lower edges (sat/vByte) of the public per-minute mempool dataset.
DEFAULT_BAND_EDGES_SAT = (
    0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 15, 20, 30, 40, 50, 60, 70, 80,
    100, 120, 150, 200, 250, 300, 350, 400, 500, 600, 700, 800,
    1000, 1200, 1400, 1700, 2000,
)


class TimelineError(ValueError):
    """A timeline or block-trace document violates its format."""


class ReplayError(RuntimeError):
    """An invalid replay-engine transition was requested."""


def _round_half_up(x: Fraction) -> int:
    return (2 * x.numerator + x.denominator) // (2 * x.denominator)


@dataclass(frozen=True, order=True)
class FeeRate:
    """Fee rate in hundredths of sat/vByte (fixed point, two decimals)."""

    centi: int

    def __post_init__(self):
        if self.centi < 0:
            raise ValueError("fee rate must be non-negative")

    @classmethod
    def from_sat(cls, value) -> "FeeRate":
        """Build from a sat/vByte number or numeric string, rounding half
        up to the 0.01 grid."""
        try:
            frac = Fraction(str(value)) * SAT_CENTS
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"not a fee rate: {value!r}") from None
        return cls(_round_half_up(frac))

    @property
    def sat(self) -> float:
        return self.centi / SAT_CENTS

    def bumped(self, beta) -> "FeeRate":
        """Multiply by beta, rounding half up to the fixed-point grid."""
        frac = Fraction(str(beta)) * self.centi
        return FeeRate(_round_half_up(frac))

    def __str__(self):
        return f"{self.centi // SAT_CENTS}.{self.centi % SAT_CENTS:02d}"


@dataclass(frozen=True)
class FeeHistogram:
    """Pending-transaction counts per fee band; the last band is open-ended
    above its lower edge."""

    band_edges: tuple[FeeRate, ...]
    counts: tuple[int, ...]

    def __post_init__(self):
        if not self.band_edges:
            raise ValueError("at least one band required")
        if len(self.counts) != len(self.band_edges):
            raise ValueError("one count per band required")
        if any(lo >= hi for lo, hi in zip(self.band_edges, self.band_edges[1:])):
            raise ValueError("band edges must be strictly ascending")
        if any(c < 0 for c in self.counts):
            raise ValueError("negative band count")

    def band_index(self, fee: FeeRate) -> int:
        """Band containing fee, or -1 when fee is below the lowest edge."""
        return bisect_right(self.band_edges, fee) - 1

    def total(self) -> int:
        return sum(self.counts)


def average_fee(histogram: FeeHistogram) -> FeeRate:
    """Count-weighted mean of band representative rates.

    A band's representative is the midpoint of its edges; the open-ended
    top band is represented by its lower edge. An empty mempool falls back
    to the lowest edge.
    """
    edges = histogram.band_edges
    total = histogram.total()
    if total == 0:
        return edges[0]
    acc = Fraction(0)
    for i, count in enumerate(histogram.counts):
        if count == 0:
            continue
        if i + 1 < len(edges):
            rep = Fraction(edges[i].centi + edges[i + 1].centi, 2)
        else:
            rep = Fraction(edges[i].centi)
        acc += count * rep
    return FeeRate(_round_half_up(acc / total))


class MempoolTimeline:
    """Time-ordered fee-band histograms sharing one band grid.

    Nominal cadence is one snapshot per minute; gaps are allowed. Per-band
    cumulative outflow is precomputed at construction.
    """

    def __init__(self, band_edges, timestamps, counts):
        edges = tuple(band_edges)
        if not edges:
            raise TimelineError("at least one band required")
        if any(lo >= hi for lo, hi in zip(edges, edges[1:])):
            raise TimelineError("band edges must be strictly ascending")
        ts = [int(t) for t in timestamps]
        if not ts:
            raise TimelineError("timeline must be non-empty")
        for prev, cur in zip(ts, ts[1:]):
            if cur <= prev:
                raise TimelineError(f"timestamp {cur} does not increase past {prev}")
        arr = np.asarray(counts, dtype=np.int64)
        if arr.shape != (len(ts), len(edges)):
            raise TimelineError(
                f"counts shape {arr.shape} does not match {len(ts)} snapshots x {len(edges)} bands"
            )
        if (arr < 0).any():
            raise TimelineError("negative band count")
        self.band_edges = edges
        self.timestamps = ts
        self.counts = arr
        if len(ts) > 1:
            drops = np.maximum(arr[:-1] - arr[1:], 0)
            self.cum_outflow = np.vstack(
                [np.zeros((1, len(edges)), np.int64), np.cumsum(drops, axis=0)]
            )
        else:
            self.cum_outflow = np.zeros((1, len(edges)), np.int64)

    @property
    def start(self) -> int:
        return self.timestamps[0]

    @property
    def end(self) -> int:
        return self.timestamps[-1]

    def index_at(self, t: int) -> int:
        if t < self.timestamps[0] or t > self.timestamps[-1]:
            raise TimelineError(
                f"timestamp {t} outside timeline range [{self.timestamps[0]}, {self.timestamps[-1]}]"
            )
        return bisect_right(self.timestamps, t) - 1

    def snapshot_at(self, t: int) -> FeeHistogram:
        """Latest snapshot with timestamp <= t (step interpolation)."""
        i = self.index_at(t)
        return FeeHistogram(self.band_edges, tuple(int(c) for c in self.counts[i]))

    def __len__(self):
        return len(self.timestamps)


def load_timeline(document: str) -> MempoolTimeline:
    """Parse timeline CSV: header ``timestamp,<edge_0>,<edge_1>,...`` naming
    band lower edges, then one row of per-band counts per snapshot."""
    reader = csv.reader(io.StringIO(document))
    header = next(reader, None)
    if header is None:
        raise TimelineError("empty document")
    if len(header) < 2 or header[0].strip() != "timestamp":
        raise TimelineError("header must be 'timestamp,<edge_0>,<edge_1>,...'")
    try:
        edges = tuple(FeeRate.from_sat(cell.strip()) for cell in header[1:])
    except ValueError as exc:
        raise TimelineError(f"bad band edge in header: {exc}") from None
    timestamps: list[int] = []
    rows: list[list[int]] = []
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(edges) + 1:
            raise TimelineError(f"line {lineno}: expected {len(edges) + 1} fields, got {len(row)}")
        t = _parse_int(row[0], lineno, "timestamp")
        if timestamps and t <= timestamps[-1]:
            raise TimelineError(f"line {lineno}: timestamp {t} out of order (after {timestamps[-1]})")
        counts = [_parse_int(cell, lineno, "count") for cell in row[1:]]
        if any(c < 0 for c in counts):
            raise TimelineError(f"line {lineno}: negative count")
        timestamps.append(t)
        rows.append(counts)
    if not timestamps:
        raise TimelineError("timeline must be non-empty")
    return MempoolTimeline(edges, timestamps, rows)


def _parse_int(cell: str, lineno: int, what: str) -> int:
    text = cell.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        value = float(text)
    except ValueError:
        raise TimelineError(f"line {lineno}: bad {what} {cell!r}") from None
    if value != int(value):
        raise TimelineError(f"line {lineno}: bad {what} {cell!r}")
    return int(value)


@dataclass(frozen=True)
class BlockEntry:
    height: int
    timestamp: int
    tx_count: int


class BlockTrace:
    """Historical block schedule: consecutive heights, non-decreasing
    timestamps, non-negative transaction counts."""

    def __init__(self, entries):
        entries = list(entries)
        for prev, cur in zip(entries, entries[1:]):
            if cur.height != prev.height + 1:
                raise TimelineError(f"height gap {prev.height} -> {cur.height}")
            if cur.timestamp < prev.timestamp:
                raise TimelineError(f"timestamp decreases at height {cur.height}")
        for e in entries:
            if e.tx_count < 0:
                raise TimelineError(f"negative tx_count at height {e.height}")
        self.entries: list[BlockEntry] = entries

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


BLOCK_TRACE_HEADER = ("height", "timestamp", "tx_count")


def load_block_trace(document: str) -> BlockTrace:
    """Parse block-trace CSV rows ``height,timestamp,tx_count`` (header
    optional)."""
    reader = csv.reader(io.StringIO(document))
    entries: list[BlockEntry] = []
    for lineno, row in enumerate(reader, start=1):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        cells = [cell.strip() for cell in row]
        if lineno == 1 and tuple(cells) == BLOCK_TRACE_HEADER:
            continue
        if len(cells) != 3:
            raise TimelineError(f"line {lineno}: expected 3 fields, got {len(cells)}")
        entries.append(
            BlockEntry(
                _parse_int(cells[0], lineno, "height"),
                _parse_int(cells[1], lineno, "timestamp"),
                _parse_int(cells[2], lineno, "tx_count"),
            )
        )
    if not entries:
        raise TimelineError("block trace must be non-empty")
    return BlockTrace(entries)


@dataclass(frozen=True)
class Historical:
    """Block capacity = the block's historical transaction count."""


@dataclass(frozen=True)
class ConstantAverage:
    """Every block fits a constant average number of transactions.

    The average is read from its decimal string, as ``FeeRate.from_sat``
    reads a fee, and fractional parts are carried exactly across blocks:
    the first i blocks fit ``floor(i * avg)`` transactions in total."""

    avg_tx_per_block: float

    def __post_init__(self):
        if self.avg_tx_per_block <= 0:
            raise ValueError("avg_tx_per_block must be positive")


CapacityMode = Historical | ConstantAverage


class TxStatus(Enum):
    PENDING = "pending"
    CONFIRMED = "confirmed"
    WITHDRAWN = "withdrawn"


@dataclass
class MonitoredTx:
    """A simulated transaction tracked against historical congestion.

    ``same_band_ahead`` is the number of historical transactions in this
    transaction's band that must confirm first: the band count observed at
    submission, drained by the band's outflow since then. ``queued_at``
    is the replace-by-fee re-submission time used for FIFO tie-breaking;
    ``submitted_at`` never changes.
    """

    id: str
    fee: FeeRate
    submitted_at: int
    band: int
    seq: int
    status: TxStatus = TxStatus.PENDING
    confirmed_height: int | None = None
    queued_at: int = 0
    _queue_pos: int = field(default=0, repr=False)
    _outflow_mark: int = field(default=0, repr=False)
    _outflows: list | None = field(default=None, repr=False)

    @property
    def same_band_ahead(self) -> int:
        if self.band < 0:
            return 0
        drained = 0 if self._outflows is None else self._outflows[self.band] - self._outflow_mark
        remaining = self._queue_pos - drained
        return remaining if remaining > 0 else 0


def higher_priority_count(histogram: FeeHistogram, tx: MonitoredTx) -> int:
    """Historical transactions that must confirm before tx: everything in
    strictly higher bands plus tx's remaining same-band queue."""
    above = sum(histogram.counts[tx.band + 1:]) if tx.band >= 0 else sum(histogram.counts)
    return above + tx.same_band_ahead


class _Cohort:
    """Transactions that entered one band at one instant, in id order.

    A transaction belongs to the cohort of its current ``(band,
    queued_at)`` while it is pending. Members that leave (bumped into
    another cohort, confirmed or withdrawn) stay in the list and are
    skipped. Every member was given the same queue position and outflow
    mark, and the cohort reads them from its first live member.
    """

    __slots__ = ("band", "queued_at", "members", "head", "in_order")

    def __init__(self, band: int, queued_at: int, members: list[MonitoredTx] | None = None):
        self.band = band
        self.queued_at = queued_at
        self.members = [] if members is None else members
        self.head = 0  # every member before head has left
        self.in_order = True  # members ascend by id

    def _holds(self, tx: MonitoredTx) -> bool:
        return tx.status is TxStatus.PENDING and tx.queued_at == self.queued_at and tx.band == self.band

    def add(self, tx: MonitoredTx) -> None:
        members = self.members
        if members and tx.id < members[-1].id:
            self.in_order = False
        members.append(tx)

    def live(self) -> list[MonitoredTx]:
        # _holds inlined here and in confirm: both visit every member
        band, queued_at, pending = self.band, self.queued_at, TxStatus.PENDING
        return [
            tx
            for tx in self.members[self.head:]
            if tx.status is pending and tx.queued_at == queued_at and tx.band == band
        ]

    def first(self) -> MonitoredTx | None:
        """The live member with the smallest id, or None once all left."""
        if not self.in_order:
            self.members = sorted(self.live(), key=attrgetter("id"))
            self.head = 0
            self.in_order = True
        members, i = self.members, self.head
        while i < len(members) and not self._holds(members[i]):
            i += 1
        self.head = i
        return members[i] if i < len(members) else None

    def confirm(self, room: int, height: int, out: list[MonitoredTx]) -> int:
        """Confirm up to room live members in id order (after ``first``),
        appending them to out; returns how many confirmed."""
        members, band, queued_at = self.members, self.band, self.queued_at
        pending, confirmed = TxStatus.PENDING, TxStatus.CONFIRMED
        i, took = self.head, 0
        while took < room and i < len(members):
            tx = members[i]
            i += 1
            if tx.status is pending and tx.queued_at == queued_at and tx.band == band:
                tx.status = confirmed
                tx.confirmed_height = height
                out.append(tx)
                took += 1
        self.head = i
        return took


class ReplayEngine:
    """Deterministic single-owner replay of monitored transactions.

    Event timestamps (submissions, bumps, blocks) must be non-decreasing
    and inside the timeline range. Distinct engines sharing a timeline may
    run in parallel; one engine must not be mutated concurrently.
    """

    def __init__(
        self,
        timeline: MempoolTimeline,
        capacity_mode: CapacityMode = Historical(),
        record_events: bool = False,
    ):
        self.timeline = timeline
        self.capacity_mode = capacity_mode
        self.record_events = record_events
        self.events: list[tuple[int, list[str]]] = []
        self.transactions: dict[str, MonitoredTx] = {}
        # band -> queued_at -> cohort
        self._bands: dict[int, dict[int, _Cohort]] = {}
        self._snap = 0
        self._clock = timeline.timestamps[0]
        self._counts = [int(c) for c in timeline.counts[0]]
        self._outflow = [int(c) for c in timeline.cum_outflow[0]]
        self._seq = 0
        self._last_height: int | None = None
        self._carry = Fraction(0)

    # -- snapshot cursor -------------------------------------------------

    @property
    def clock(self) -> int:
        return self._clock

    def _advance(self, t: int) -> None:
        if t < self._clock:
            raise ReplayError(f"event at {t} precedes engine clock {self._clock}")
        if t == self._clock:
            return
        idx = self.timeline.index_at(t)
        if idx != self._snap:
            self._snap = idx
            self._counts = [int(c) for c in self.timeline.counts[idx]]
            # in-place so transactions holding this list see fresh totals
            self._outflow[:] = [int(c) for c in self.timeline.cum_outflow[idx]]
        self._clock = t

    def step_snapshot(self) -> None:
        """Advance one snapshot, draining queue positions by per-band
        outflow: each pending transaction in a band loses max(0, old count
        minus new count), floored at zero."""
        if self._snap + 1 >= len(self.timeline.timestamps):
            raise ReplayError("no snapshot after the current one")
        self._advance(self.timeline.timestamps[self._snap + 1])

    def histogram(self) -> FeeHistogram:
        """Congestion at the engine clock."""
        return FeeHistogram(self.timeline.band_edges, tuple(self._counts))

    def _band_index(self, fee: FeeRate) -> int:
        return bisect_right(self.timeline.band_edges, fee) - 1

    # -- operations --------------------------------------------------------

    def submit(self, tx_id: str, fee: FeeRate, at: int) -> MonitoredTx:
        """Register a pending transaction; its queue position is the
        historical count of its band at the submission-time snapshot."""
        if tx_id in self.transactions:
            raise ReplayError(f"duplicate transaction id {tx_id!r}")
        self._advance(at)
        band = self._band_index(fee)
        pos, mark = self._position(band)
        tx = MonitoredTx(
            id=tx_id,
            fee=fee,
            submitted_at=at,
            band=band,
            seq=self._seq,
            queued_at=at,
            _queue_pos=pos,
            _outflow_mark=mark,
            _outflows=self._outflow,
        )
        self._seq += 1
        self.transactions[tx_id] = tx
        self._cohort(band, at).add(tx)
        return tx

    def bump(self, tx_id: str, new_fee: FeeRate, at: int) -> MonitoredTx:
        """Replace-by-fee: re-submission semantics, so the queue position
        resets to the new band's current historical count."""
        tx = self.transactions.get(tx_id)
        if tx is None or tx.status is not TxStatus.PENDING:
            raise ReplayError(f"transaction {tx_id!r} is not pending")
        if new_fee <= tx.fee:
            raise ReplayError(f"bump must increase the fee ({new_fee} <= {tx.fee})")
        self._advance(at)
        band = self._band_index(new_fee)
        if band != tx.band or at != tx.queued_at:
            # band and time only rise, so the old cohort never takes tx back
            tx.band = band
            tx.queued_at = at
            self._cohort(band, at).add(tx)
        tx.fee = new_fee
        tx._queue_pos, tx._outflow_mark = self._position(band)
        return tx

    def bump_all(self, new_fee: FeeRate, at: int) -> None:
        """Bump every pending transaction to new_fee, as one ``bump`` per
        pending transaction would, in one pass over the cohorts: afterwards
        all of them form the single cohort of new_fee's band at ``at``."""
        sources = [cohort for cohorts in self._bands.values() for cohort in cohorts.values()]
        movers = [tx for cohort in sources for tx in cohort.live()]
        if not movers:
            return
        top = FeeRate(max(map(attrgetter("fee.centi"), movers)))
        if new_fee <= top:
            raise ReplayError(f"bump must increase the fee ({new_fee} <= {top})")
        self._advance(at)
        band = self._band_index(new_fee)
        pos, mark = self._position(band)
        for tx in movers:
            tx.fee = new_fee
            tx.band = band
            tx.queued_at = at
            tx._queue_pos = pos
            tx._outflow_mark = mark
        merged = _Cohort(band, at, movers)
        merged.in_order = len(sources) == 1 and sources[0].in_order
        self._bands = {band: {at: merged}}

    def withdraw(self, tx_id: str) -> MonitoredTx:
        tx = self.transactions.get(tx_id)
        if tx is None or tx.status is not TxStatus.PENDING:
            raise ReplayError(f"transaction {tx_id!r} is not pending")
        tx.status = TxStatus.WITHDRAWN
        return tx

    def apply_block(self, entry: BlockEntry) -> list[MonitoredTx]:
        """Confirm monitored transactions that fit this block.

        A transaction confirms when the count of strictly-higher-priority
        historical transactions is below the block's remaining capacity;
        each confirmation consumes one capacity unit.
        """
        if self._last_height is not None and entry.height <= self._last_height:
            raise ReplayError(f"block {entry.height} out of order after {self._last_height}")
        self._advance(entry.timestamp)
        self._last_height = entry.height
        remaining = self._block_capacity(entry)
        confirmed: list[MonitoredTx] = []
        counts = self._counts
        suffix = [0] * (len(counts) + 1)
        for i in range(len(counts) - 1, -1, -1):
            suffix[i] = suffix[i + 1] + counts[i]
        for band in sorted(self._bands, reverse=True):
            above = suffix[band + 1]  # band -1 sits below the whole mempool
            if above >= remaining:
                break  # lower bands have even more above them
            for ahead, _, cohort in self._queue(band):
                room = remaining - above - ahead
                if room <= 0:
                    break  # cohorts ascend by position: the rest of the band fails too
                remaining -= cohort.confirm(room, entry.height, confirmed)
        if self.record_events and confirmed:
            self.events.append((entry.height, [tx.id for tx in confirmed]))
        return confirmed

    def pending(self) -> list[MonitoredTx]:
        """Pending transactions in submission order."""
        return [tx for tx in self.transactions.values() if tx.status is TxStatus.PENDING]

    # -- internals ---------------------------------------------------------

    def _position(self, band: int) -> tuple[int, int]:
        """Queue position and outflow mark of a transaction entering band now."""
        if band < 0:
            return 0, 0
        return self._counts[band], self._outflow[band]

    def _cohort(self, band: int, at: int) -> _Cohort:
        cohorts = self._bands.get(band)
        if cohorts is None:
            cohorts = self._bands[band] = {}
        cohort = cohorts.get(at)
        if cohort is None:
            cohort = cohorts[at] = _Cohort(band, at)
        return cohort

    def _queue(self, band: int) -> list[tuple[int, int, _Cohort]]:
        """The band's cohorts as (same_band_ahead, queued_at, cohort) in
        priority order, dropping cohorts that every member left."""
        cohorts = self._bands[band]
        order = []
        for queued_at, cohort in list(cohorts.items()):
            tx = cohort.first()
            if tx is None:
                del cohorts[queued_at]
            else:
                order.append((tx.same_band_ahead, queued_at, cohort))
        if not cohorts:
            del self._bands[band]
        order.sort()  # queued_at is unique in a band, so cohorts never compare
        return order

    def _block_capacity(self, entry: BlockEntry) -> int:
        mode = self.capacity_mode
        if isinstance(mode, Historical):
            return entry.tx_count
        # an exact carry keeps the cumulative capacity at floor(blocks * avg)
        self._carry += Fraction(str(mode.avg_tx_per_block))
        cap = int(self._carry)
        self._carry -= cap
        return cap
