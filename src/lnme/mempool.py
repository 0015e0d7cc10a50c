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
re-queued; congestion is simply re-read from the next snapshot. A
transaction id is the caller's key: any hashable value ordered against
the engine's other ids (the simulators use integers), so ties inside a
cohort confirm in id order.

The engine queues cohorts, not transactions. A cohort, keyed by ``(band,
queued_at, fee)``, holds the ids of exactly the pending transactions that
entered that band at that instant (a submission or a bump) at that fee, in
id order; bumps, withdrawals and confirmations take them out. Only the
cohort holds its members' fee, band, instant, queue position and outflow
mark, so all of them have the same ``same_band_ahead``. Inside a band,
cohorts are ordered by ``(same_band_ahead, queued_at)`` and members by id,
which is the priority order above. Cohorts of one band and one instant
tie on position (both took it from the same snapshot), so a block confirms
their members in id order across all of them, as one cohort would. With
``above`` historical transactions in higher bands, one block confirms
``max(0, min(live, remaining - above - same_band_ahead))`` of such a
group's ``live`` members, exactly what confirming them one by one would
do. So queue order and the confirmation test cost one step per cohort,
however many identical transactions a mass exit submits and bumps
together.

A transaction is its id. The engine's id map holds each id's ``home``:
its cohort while it is pending, whose member list holds the id too, and
nothing else. Once it has left, its home is a ``_Left`` record of the fee,
band and instant of its last cohort, its status and its confirmation height,
shared by the ids that a block confirms from one cohort, and by the ids
withdrawn from one cohort. A bump writes one map entry per id that moves,
and a bump of everything pending that sits in one cohort (``bump_all``)
renames that cohort in place and writes none. The must-increase check of a
bump reads one fee per source cohort. ``status(tx_id)`` reads an id's status
through its home, and ``tx(tx_id)`` builds a ``MonitoredTx`` snapshot of its
six values on request. The engine reads a status through the module
constants ``PENDING``, ``CONFIRMED`` and ``WITHDRAWN``, the ``TxStatus``
members read once: on CPython 3.11 reading a member through its class costs
about 200 ns a time. Statuses are compared by identity, never hashed, as an
``Enum`` member's hash runs Python code.

The id map is brought up to date on demand. A mass exit's submissions share
one ``FeeRate`` object and one instant, and take rising ids. The engine
remembers the cohort the last submit joined, as ``(fee, at, cohort)``, and
the highest id ever submitted, ``_top``. A submit with that same fee object
at that instant and an id above ``_top`` is new, as it is above every id
seen, and sorts last in that cohort: it is one list append and nothing else,
no clock move, lookup or map entry. The ids that join a cohort that way
since its last map write form the open run, ``(cohort, start)``: they are
``members[start:]``. A block writes no map entry either: each cohort it
takes ids from appends one ``(members, start, end, _Left)`` entry to a log.
Every read or write by id calls ``_index()`` first, which writes the run's
ids into the map, then the log over them, and leaves the run open and empty.
Edits that reorder a member list (an insert below the tail, a withdrawal, a
group bump) come only after ``_index()``, so the logged positions hold; a
withdrawal and a group bump then close the run, as the run's start no longer
marks its cohort's tail. ``status`` skips ``_index()`` for an id the map
holds while the log is empty, as the map is then right about it. So the 1M
submits and blocks of a mass exit that nothing reads by id write one map
entry in all. Any other submit checks for a duplicate id, then joins its
cohort by lookup, or by the remembered cohort, and opens a new run there.
The engine forgets the remembered cohort whenever a cohort leaves the queue
(a bump that empties it, or a block that finds it empty), when the run
closes, when ``bump_all`` renames a cohort, and when the clock moves, so a
submit at an instant the clock has left still raises.

Blocks and cohort positions read the current snapshot's counts as a plain
list. The ``FeeHistogram`` view of a snapshot is built only when
``histogram()`` is called, once per snapshot, and a histogram computes its
``average`` once, on first read.

A loaded timeline holds one array, its counts, and the list of its
timestamps. The counts are int32 while every count is below 2**31; the
first count that is not promotes the array, once, to int64, and every sum
of count drops is taken in int64. The engine carries each band's cumulative
outflow itself: it starts at zero at snapshot 0 and adds the timeline's
``outflow(i, j)`` whenever the clock moves from snapshot i to snapshot j.
``load_timeline`` takes a str or a text stream and reads either in one pass,
one slice of about ``TEXT_SLICE`` characters that ends at a line end at a
time: the header from the first line alone, then one numpy parse per slice
into one array sized by the most rows the source's length can hold (a
file's pages past the rows written are never touched). A slice numpy
cannot read whole hands the rest of the source to the cell-by-cell reader,
at that slice's first line. The whole text is never alive, nor a list of
every line, a text stream over the text (a copy at four bytes a character)
or a growing buffer.
"""

from __future__ import annotations

import math
import os
import warnings
from bisect import bisect_left, bisect_right, insort
from collections import Counter
from collections.abc import Hashable
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from heapq import merge
from itertools import chain, compress, count, groupby, islice, repeat
from operator import add, attrgetter, ge, is_, itemgetter
from typing import TextIO

import numpy as np

from .graph import csv_records

SAT_CENTS = 100  # fee rates are fixed-point hundredths of sat/vByte
# A parsed fee rate stays below 10**16 sat/vByte, more than every bitcoin
# there is (2.1e15 sat) per vByte.
FEE_LIMIT_DIGITS = 16

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


def div_round_half_up(num: int, den: int) -> int:
    """num / den rounded half up to an integer, for den >= 1."""
    return (2 * num + den) // (2 * den)


@lru_cache(maxsize=64, typed=True)
def _ratio(value) -> tuple[int, int]:
    """A beta or a block average as an exact integer ratio, read from its string.

    Typed, because equal keys of two types can print differently:
    ``1.1 == Fraction(1.1)``, but their strings are not the same number."""
    return Fraction(str(value)).as_integer_ratio()


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
        up to the 0.01 grid. The rate's size must stay below
        ``10**FEE_LIMIT_DIGITS`` sat/vByte. The size is read from the text
        before the number is built, so a huge exponent is refused at once
        and a tiny one gives 0.00 at once."""
        text = str(value)
        try:
            magnitude = Decimal(text).adjusted()  # the power of ten of the leading digit
        except InvalidOperation:
            if "/" not in text:  # neither a decimal nor a ratio such as "7/3"
                raise ValueError(f"not a fee rate: {value!r}") from None
            magnitude = 0
        if magnitude < -3:  # below 0.001 in size, which rounds to 0.00
            return cls(0)
        if magnitude < FEE_LIMIT_DIGITS:
            try:
                num, den = Fraction(text).as_integer_ratio()
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"not a fee rate: {value!r}") from None
            centi = div_round_half_up(num * SAT_CENTS, den)
            if abs(centi) < SAT_CENTS * 10**FEE_LIMIT_DIGITS:
                return cls(centi)
        raise ValueError(
            f"fee rate {value!r} out of range: its size must stay below 1e{FEE_LIMIT_DIGITS} sat/vByte"
        )

    def bumped(self, beta) -> "FeeRate":
        """Multiply by beta, rounding half up to the fixed-point grid."""
        num, den = _ratio(beta)
        return FeeRate(div_round_half_up(num * self.centi, den))

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
        if any(lo.centi >= hi.centi for lo, hi in zip(self.band_edges, self.band_edges[1:])):
            raise ValueError("band edges must be strictly ascending")
        if min(self.counts) < 0:
            raise ValueError("negative band count")

    def band_index(self, fee: FeeRate) -> int:
        """Band containing fee, or -1 when fee is below the lowest edge."""
        return bisect_right(self.band_edges, fee) - 1

    def total(self) -> int:
        return sum(self.counts)

    @cached_property
    def average(self) -> FeeRate:
        """Count-weighted mean of band representative rates, computed on
        first read and kept (outside the fields: equality and hash ignore it).

        A band's representative is the midpoint of its edges; the open-ended
        top band is represented by its lower edge. An empty mempool falls back
        to the lowest edge.
        """
        edges = self.band_edges
        total = self.total()
        if total == 0:
            return edges[0]
        # twice the count-weighted sum of midpoints, the top band counted at
        # its lower edge, so the sum stays an integer
        lows = [edge.centi for edge in edges]
        highs = lows[1:] + lows[-1:]
        acc2 = sum(count * (lo + hi) for count, lo, hi in zip(self.counts, lows, highs))
        return FeeRate(div_round_half_up(acc2, 2 * total))


def average_fee(histogram: FeeHistogram) -> FeeRate:
    """The histogram's ``average``: computed once per histogram however
    often it is asked for."""
    return histogram.average


class MempoolTimeline:
    """Time-ordered fee-band histograms sharing one band grid.

    Nominal cadence is one snapshot per minute; gaps are allowed. The
    timeline holds its counts as one array and nothing else of their size:
    int32 when every count is below 2**31, int64 otherwise. An int32 array
    is held as given; other counts are read as int64 and narrowed to int32
    when they fit. A list of ints is held as the timestamps as given, and
    checked for order and the int64 range in place, with no copy.
    ``outflow(i, j)`` sums the count drops between two snapshots on demand,
    in int64. A timeline whose cumulative outflow does not fit int64 is
    rejected.
    """

    def __init__(self, band_edges, timestamps, counts):
        edges = tuple(band_edges)
        if not edges:
            raise TimelineError("at least one band required")
        if any(lo >= hi for lo, hi in zip(edges, edges[1:])):
            raise TimelineError("band edges must be strictly ascending")
        ts = timestamps
        if type(ts) is not list or not all(map(is_, map(type, ts), repeat(int))):
            ts = [int(t) for t in timestamps]
        if not ts:
            raise TimelineError("timeline must be non-empty")
        # the first i with ts[i] >= ts[i + 1]; increasing timestamps fit
        # int64 when both ends do
        stalled = next(compress(count(), map(ge, ts, islice(ts, 1, None))), None)
        low, high = (ts[0], ts[-1]) if stalled is None else (min(ts), max(ts))
        if low < -(2**63) or high >= 2**63:
            raise TimelineError("timestamp does not fit in int64")
        if stalled is not None:
            raise TimelineError(f"timestamp {ts[stalled + 1]} does not increase past {ts[stalled]}")
        if isinstance(counts, np.ndarray) and counts.dtype == np.int32:
            arr = counts
        else:
            try:
                arr = np.asarray(counts, dtype=np.int64)
            except OverflowError:
                raise TimelineError("band count does not fit in int64") from None
        if arr.shape != (len(ts), len(edges)):
            raise TimelineError(
                f"counts shape {arr.shape} does not match {len(ts)} snapshots x {len(edges)} bands"
            )
        if arr.min() < 0:
            raise TimelineError("negative band count")
        top = int(arr.max())
        if arr.dtype != np.int32 and top < INT32_LIMIT:
            arr = arr.astype(np.int32)
        self.band_edges = edges
        self.timestamps = ts
        self.counts = arr
        # a band's cumulative outflow is at most max(counts) * (snapshots - 1);
        # only a timeline past that bound has its drops summed exactly
        if top * (len(ts) - 1) >= 2**63:
            totals = sum(drops.sum(axis=0, dtype=object) for drops in self._drops(0, len(ts) - 1))
            if max(totals) >= 2**63:
                raise TimelineError("cumulative outflow does not fit in int64")

    def outflow(self, i: int, j: int) -> list[int]:
        """Per band, the sum of the count drops from snapshot i to snapshot
        j >= i: the historical transactions that left the band in between.
        A jump of at most ``ROW_SLICE`` snapshots, as nearly every clock move
        is, takes one subtraction and one sum."""
        if j - i <= ROW_SLICE:
            drops = self.counts[i:j] - self.counts[i + 1:j + 1]
            return np.maximum(drops, 0, out=drops).sum(axis=0, dtype=np.int64).tolist()
        total = np.zeros(len(self.band_edges), np.int64)
        for drops in self._drops(i, j):
            total += drops.sum(axis=0, dtype=np.int64)
        return total.tolist()

    def _drops(self, i: int, j: int):
        """The count drops from snapshot i to snapshot j, floored at zero,
        as arrays of at most ``ROW_SLICE`` rows: no temporary grows with
        j - i. A drop between two counts of one width fits that width."""
        counts = self.counts
        for lo in range(i, j, ROW_SLICE):
            hi = min(lo + ROW_SLICE, j)
            drops = counts[lo:hi] - counts[lo + 1:hi + 1]
            yield np.maximum(drops, 0, out=drops)

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
        return FeeHistogram(self.band_edges, tuple(self.counts[i].tolist()))

    def __len__(self):
        return len(self.timestamps)


INT32_LIMIT = 2**31  # counts below it are held as int32
TEXT_SLICE = 1 << 16  # characters of the timeline read and parsed at a time
ROW_SLICE = 1 << 10  # snapshots whose count drops are summed at a time


def load_timeline(source: str | TextIO) -> MempoolTimeline:
    """Parse timeline CSV, given as a str or a text stream: header
    ``timestamp,<edge_0>,<edge_1>,...`` naming band lower edges, then one
    row of per-band counts per snapshot.

    The source is read once, one slice of about ``TEXT_SLICE`` characters
    at a time, and a stream is read to its end. Each slice of data rows is
    read by one numpy parse when numpy reads every cell cleanly as an int64,
    each row has the header's width, the timestamps increase and no count is
    negative. Otherwise the rows are read cell by cell from that slice's
    first line to the end, and that reading decides: it names the offending
    line (``line N: bad count ...``) and alone accepts integral floats such
    as ``5.0``, quoted cells and whitespace-only lines. Where the numpy
    parse succeeds, the cell-by-cell reading gives the same timeline.
    """
    slices = _text_slices(source)
    text = next(slices, "")
    cut = text.find("\n") + 1 or len(text)
    first, text = text[:cut], text[cut:]
    records = None
    if '"' in first:
        # a quoted header may span lines, so the csv reader reads it all
        records = csv_records(_lines(chain([first, text], slices)), TimelineError)
        header = next(records, None)
    else:
        header = next(csv_records(first, TimelineError), None)
    if header is None:
        raise TimelineError("empty document")
    if len(header) < 2 or header[0].strip() != "timestamp":
        raise TimelineError("header must be 'timestamp,<edge_0>,<edge_1>,...'")
    try:
        edges = tuple(FeeRate.from_sat(cell.strip()) for cell in header[1:])
    except ValueError as exc:
        raise TimelineError(f"bad band edge in header: {exc}") from None
    timestamps: list[int] = []
    counts = _CountRows(len(edges), _row_bound(source, len(edges)))
    lineno = 2  # of the first line not yet read
    if records is None:
        for text in chain([text], slices):
            rows = _read_rows_numpy(text, len(edges) + 1, timestamps[-1] if timestamps else None)
            if rows is None:
                # a stream cannot be read again: the cell-by-cell reading
                # takes over at this slice's first line
                records = csv_records(_lines(chain([text], slices)), TimelineError, lineno - 1)
                break
            counts.put(rows[:, 1:])
            timestamps += rows[:, 0].tolist()
            del rows  # before numpy parses the next slice
            lineno += text.count("\n")
    if records is not None:
        _read_rows_csv(records, lineno, len(edges) + 1, timestamps, counts)
    if not timestamps:
        raise TimelineError("timeline must be non-empty")
    return MempoolTimeline(edges, timestamps, counts.array())


def _text_slices(source: str | TextIO):
    """The text of source in slices of ``TEXT_SLICE`` characters, each run
    on to the end of its last line. A stream is read that way; a str is
    sliced where it lies, at the same places. No copy of the whole text, nor
    a text stream over it (a copy at four bytes a character), is ever
    made."""
    if isinstance(source, str):
        start = 0
        while start < len(source):
            end = source.find("\n", start + TEXT_SLICE - 1) + 1 or len(source)
            yield source[start:end]
            start = end
        return
    while text := source.read(TEXT_SLICE):
        while not text.endswith("\n") and (rest := source.readline()):
            text += rest
        yield text


def _lines(slices):
    """The lines of the slices, each with its line end, for a csv reader."""
    for text in slices:
        *lines, last = text.split("\n")
        for line in lines:
            yield line + "\n"
        if last:
            yield last


def _row_bound(source: str | TextIO, bands: int) -> int:
    """The most data rows the source can hold: a row holds a character per
    cell, a comma between cells and a line end. A str counts its lines too.
    A file holds no more characters than bytes, and the pages of the count
    array past the rows written are never touched, so never resident. A
    stream that is not a file gives 0, and the array grows as rows come."""
    row = 2 * bands + 2
    if isinstance(source, str):
        return min(source.count("\n") + 1, (len(source) + 1) // row)
    try:
        size = os.fstat(source.fileno()).st_size
    except (AttributeError, OSError):
        return 0
    return (size + 1) // row


class _CountRows:
    """The count rows of a timeline being read, in one array sized in
    advance: int32 while every count is below 2**31, promoted once to int64
    at the first count that is not. A source that outgrows the array (a
    stream of unknown size) doubles it."""

    def __init__(self, bands: int, rows: int):
        self._array = np.empty((rows, bands), np.int32)
        self._filled = 0
        self._rejected = None  # the first rows that do not fit int64

    def put(self, rows) -> None:
        """Append rows: an int64 array, or lists of non-negative ints."""
        if self._rejected is not None:
            return
        try:
            rows = np.asarray(rows, dtype=np.int64)
        except OverflowError:
            self._rejected = rows
            return
        if not len(rows):
            return
        array, filled = self._array, self._filled
        if array.dtype == np.int32 and rows.max() >= INT32_LIMIT:
            array = np.empty(array.shape, np.int64)
            array[:filled] = self._array[:filled]
            self._array = array
        end = filled + len(rows)
        if end > len(array):
            array.resize((max(end, 2 * len(array)), array.shape[1]), refcheck=False)
        array[filled:end] = rows
        self._filled = end

    def array(self):
        """The rows put, as the array trimmed in place; or the first rows
        that do not fit int64, which ``MempoolTimeline`` rejects after it
        has checked the band edges and the timestamps."""
        if self._rejected is not None:
            return self._rejected
        self._array.resize((self._filled, self._array.shape[1]), refcheck=False)
        return self._array


def _read_rows_numpy(text: str, width: int, last: int | None) -> np.ndarray | None:
    """The rows of one slice of text as numpy reads them, timestamp first,
    or None when the cell-by-cell reading must read them instead: a cell is
    not a plain int64, a row is not ``width`` cells wide, a timestamp does
    not increase past the one before (``last`` for the first row) or a
    count is negative. A slice of blank lines alone gives no rows: numpy
    would skip its lines, but warn that it holds no data. A lone "\\r"
    stays inside its line, and numpy fails it."""
    lines = text.split("\n")
    if lines.count("") + lines.count("\r") == len(lines):
        return np.empty((0, width), np.int64)
    try:
        # numpy 1.x reads 5.5 in an int column as 5, warning only; and with
        # comments=None numpy fails on '#' rows, which it would drop silently
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(lines, delimiter=",", dtype=np.int64, ndmin=2, comments=None)
    except (ValueError, OverflowError, Warning):
        return None
    if rows.shape[1] != width:
        return None
    stamps = rows[:, 0]
    if (last is not None and stamps[0] <= last) or (stamps[1:] <= stamps[:-1]).any():
        return None
    return None if rows[:, 1:].min() < 0 else rows


def _read_rows_csv(records, lineno: int, width: int, timestamps: list[int], counts: _CountRows) -> None:
    """Read the csv records, the first of them on line ``lineno``, cell by
    cell onto timestamps and counts, naming the first offending line."""
    batch: list[list[int]] = []
    for lineno, row in enumerate(records, start=lineno):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != width:
            raise TimelineError(f"line {lineno}: expected {width} fields, got {len(row)}")
        t = _parse_int(row[0], lineno, "timestamp")
        if timestamps and t <= timestamps[-1]:
            raise TimelineError(f"line {lineno}: timestamp {t} out of order (after {timestamps[-1]})")
        cells = [_parse_int(cell, lineno, "count") for cell in row[1:]]
        if any(c < 0 for c in cells):
            raise TimelineError(f"line {lineno}: negative count")
        timestamps.append(t)
        batch.append(cells)
        if len(batch) == ROW_SLICE:
            counts.put(batch)
            batch = []
    counts.put(batch)


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
    if not math.isfinite(value) or value != int(value):
        raise TimelineError(f"line {lineno}: bad {what} {cell!r}")
    return int(value)


@dataclass(frozen=True, slots=True)
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
    reader = csv_records(document, TimelineError)
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
        if not math.isfinite(self.avg_tx_per_block) or self.avg_tx_per_block <= 0:
            raise ValueError("avg_tx_per_block must be positive and finite")


CapacityMode = Historical | ConstantAverage


class TxStatus(Enum):
    PENDING = "pending"
    CONFIRMED = "confirmed"
    WITHDRAWN = "withdrawn"


# the members read once, for the per-transaction paths (see the module docstring)
PENDING, CONFIRMED, WITHDRAWN = TxStatus.PENDING, TxStatus.CONFIRMED, TxStatus.WITHDRAWN


TxId = Hashable  # and ordered against the engine's other ids


@dataclass(slots=True, eq=False)
class _Left:
    """Where a transaction that has left the queue left it: the fee, band
    and instant of its last cohort, its status, and its confirmation height
    (None unless confirmed). One record serves every member that a block
    confirms from one cohort, and every member withdrawn from one cohort."""

    fee: FeeRate
    band: int
    queued_at: int
    status: TxStatus
    confirmed_height: int | None


@dataclass(frozen=True, slots=True)
class MonitoredTx:
    """A snapshot of one transaction of a ``ReplayEngine``, built by
    ``ReplayEngine.tx`` on request: its id, the fee, band and instant of its
    cohort (``queued_at`` is the replace-by-fee re-submission time used for
    FIFO tie-breaking), its status and its confirmation height (None unless
    confirmed). The engine keeps no record per transaction."""

    id: TxId
    fee: FeeRate
    band: int
    status: TxStatus = TxStatus.PENDING
    confirmed_height: int | None = None
    queued_at: int = 0


class _Cohort:
    """The pending transactions that entered one band at one instant at one
    fee, keyed in the engine by ``(band, queued_at, fee)``.

    ``members[head:]`` are exactly the ids whose home is this cohort, in id
    order, whether or not the engine's id map says so yet (the open run
    and the confirmation log say what it has still to write); ids before
    ``head`` have confirmed or left. ``pos`` and ``mark`` are the band's
    count and cumulative outflow when the cohort took its key: the queue
    position every member holds, drained by the band's outflow since
    then. Cohorts of one band and one instant took them from
    the same snapshot, so they tie on position, and a block confirms their
    members in id order across them. ``status`` and ``confirmed_height``
    are the class's, as every member is pending.
    """

    __slots__ = ("band", "queued_at", "fee", "pos", "mark", "members", "head", "_withdrawn")
    status = PENDING
    confirmed_height = None

    def __init__(self, band: int, queued_at: int, fee: FeeRate, pos: int, mark: int, members: list[TxId]):
        self.members = members
        self.head = 0
        self.rename(band, queued_at, fee, pos, mark)

    def rename(self, band: int, queued_at: int, fee: FeeRate, pos: int, mark: int) -> None:
        """Take a new key and position; every member follows, untouched."""
        self.band = band
        self.queued_at = queued_at
        self.fee = fee
        self.pos = pos
        self.mark = mark
        self._withdrawn = None  # the _Left of members withdrawn under this key

    def ahead(self, outflow: list[int]) -> int:
        """Historical transactions of the band still queued before every
        member, given the band's current cumulative outflow."""
        if self.band < 0:
            return 0
        remaining = self.pos - (outflow[self.band] - self.mark)
        return remaining if remaining > 0 else 0

    def add(self, tx_id: TxId) -> None:
        """Insert an id among the live members in id order; ``submit``
        appends the common case, an id above every member's, itself."""
        insort(self.members, tx_id, lo=self.head)

    def remove(self, tx_id: TxId) -> None:
        members, head = self.members, self.head
        if head < len(members) and members[head] == tx_id:
            self.head = head + 1  # members mostly leave in id order
            return
        i = bisect_left(members, tx_id, lo=head)
        if i == len(members) or members[i] != tx_id:
            raise ReplayError(f"transaction {tx_id!r} is not in its cohort")
        del members[i]

    def withdrawn(self) -> _Left:
        """The home of the members withdrawn from this cohort, one for all."""
        if self._withdrawn is None:
            self._withdrawn = _Left(self.fee, self.band, self.queued_at, WITHDRAWN, None)
        return self._withdrawn

    def discard(self, ids: set[TxId]) -> None:
        """Take out the live members that are in ids, keeping id order."""
        self.members = [tx_id for tx_id in self.live() if tx_id not in ids]
        self.head = 0

    def merge(self, ids: list[TxId]) -> None:
        """Add ids, none of them a member yet, keeping id order."""
        members = self.members[self.head:]
        members += ids
        members.sort()  # a merge pass when both runs are in id order
        self.members = members
        self.head = 0

    def live(self) -> list[TxId]:
        return self.members[self.head:]

    def confirm(self, room: int, height: int, log: list) -> list[TxId]:
        """Confirm up to room members in id order, logging their positions
        with one shared ``_Left`` for the engine's id map; returns their
        ids."""
        head = self.head
        taken = self.members[head:head + room]
        self.head = end = head + len(taken)
        log.append((self.members, head, end, _Left(self.fee, self.band, self.queued_at, CONFIRMED, height)))
        return taken


def _confirm_tied(cohorts: list[_Cohort], room: int, height: int, log: list) -> list[TxId]:
    """Confirm up to room members of cohorts that tie on position, in id
    order across them, as one cohort holding all of them would. Each cohort
    gives up the prefix of its live members up to the last id taken."""
    runs = [cohort.members[cohort.head:cohort.head + room] for cohort in cohorts]
    taken = list(islice(merge(*runs), room))
    for cohort, run in zip(cohorts, runs):
        share = bisect_right(run, taken[-1])
        if share:
            cohort.confirm(share, height, log)
    return taken


class ReplayEngine:
    """Deterministic single-owner replay of monitored transactions.

    Event timestamps (submissions, bumps, blocks) must be non-decreasing
    and inside the timeline range. Distinct engines sharing a timeline may
    run in parallel; one engine must not be mutated concurrently.
    """

    def __init__(self, timeline: MempoolTimeline, capacity_mode: CapacityMode = Historical()):
        self.timeline = timeline
        self._edges = [edge.centi for edge in timeline.band_edges]  # bisected as ints
        self.capacity_mode = capacity_mode
        # each id's cohort, or how it left; up to date after _index()
        self._homes: dict[TxId, _Cohort | _Left] = {}
        self._top = None  # the highest id ever submitted
        # (cohort, start): members[start:] of cohort joined it by the fast
        # path of submit and are not in the id map yet
        self._run: tuple[_Cohort, int] | None = None
        # (members, start, end, left) per confirmation: members[start:end]
        # left that way, and the id map does not say so yet
        self._log: list[tuple[list[TxId], int, int, _Left]] = []
        # band -> (queued_at, fee.centi) -> cohort
        self._bands: dict[int, dict[tuple[int, int], _Cohort]] = {}
        self._snap = 0
        self._clock = timeline.timestamps[0]
        self._counts = timeline.counts[0].tolist()  # the current snapshot's band counts
        self._hist: FeeHistogram | None = None  # built by histogram() from _counts
        self._outflow = [0] * len(self._edges)  # each band's count drops since snapshot 0
        # (fee, at, cohort) of the last submit, while that cohort is queued
        # and holds the open run
        self._last: tuple[FeeRate, int, _Cohort] | None = None
        self._last_height: int | None = None
        self._avg = None  # the block average as an integer ratio num / den
        if isinstance(capacity_mode, ConstantAverage):
            self._avg = _ratio(capacity_mode.avg_tx_per_block)
        self._carry = 0  # blocks * num mod den

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
        self._last = None  # a later submit at the instant left behind must raise
        if idx != self._snap:
            self._outflow = list(map(add, self._outflow, self.timeline.outflow(self._snap, idx)))
            self._snap = idx
            self._counts = self.timeline.counts[idx].tolist()
            self._hist = None
        self._clock = t

    def histogram(self) -> FeeHistogram:
        """Congestion at the engine clock: the current snapshot, built on
        the first call and kept until the snapshot changes."""
        if self._hist is None:
            self._hist = FeeHistogram(self.timeline.band_edges, tuple(self._counts))
        return self._hist

    def _band_index(self, fee: FeeRate) -> int:
        return bisect_right(self._edges, fee.centi) - 1

    # -- operations --------------------------------------------------------

    def submit(self, tx_id: TxId, fee: FeeRate, at: int) -> None:
        """Register a pending transaction; its queue position is the
        historical count of its band at the submission-time snapshot.

        A submit with the last submit's fee object at the same instant and
        an id above every id submitted so far is new: it joins that
        submit's cohort, the open run, with one append and no lookup."""
        last = self._last
        if last is not None and last[0] is fee and last[1] == at and tx_id > self._top:
            last[2].members.append(tx_id)
            self._top = tx_id
            return
        self._index()
        homes = self._homes
        if tx_id in homes:
            raise ReplayError(f"duplicate transaction id {tx_id!r}")
        top = self._top
        rises = top is None or tx_id > top  # before any change: an id others cannot order raises here
        if last is not None and last[0] is fee and last[1] == at:
            cohort = last[2]
        else:
            self._advance(at)
            cohort = self._cohort(self._band_index(fee), at, fee)
        members = cohort.members
        if cohort.head == len(members) or tx_id > members[-1]:
            members.append(tx_id)
        else:
            cohort.add(tx_id)
        homes[tx_id] = cohort
        if rises:
            self._top = tx_id
        self._last = (fee, at, cohort)
        self._run = (cohort, len(members))

    def bump(self, tx_id: TxId, new_fee: FeeRate, at: int) -> None:
        """Replace-by-fee: re-submission semantics, so the queue position
        resets to the new band's current historical count. A one-member
        ``bump_group``."""
        self.bump_group([tx_id], new_fee, at)

    def bump_group(self, ids: list[TxId], new_fee: FeeRate, at: int) -> None:
        """Bump every transaction of ids to new_fee, as one ``bump`` per id
        would: afterwards all of them are in the cohort of new_fee's band at
        ``at`` and new_fee, which no member was in, as new_fee is above every
        member's fee. Nothing changes unless every id is a distinct pending
        transaction of this engine paying less than new_fee. The fee check
        reads one fee per source cohort, and each id that moves gets one map
        entry written, its home."""
        if not ids:
            return
        self._index()
        homes = list(map(self._homes.get, ids))
        # compared by identity: hashing an Enum member runs Python code
        if None in homes or not all(map(is_, map(attrgetter("status"), homes), repeat(PENDING))):
            bad = next(tx_id for tx_id, home in zip(ids, homes) if home is None or home.status is not PENDING)
            raise ReplayError(f"transaction {bad!r} is not pending")
        leaving = set(ids)
        if len(leaving) != len(ids):
            raise ReplayError("a transaction is listed twice in one bump")
        sources = Counter(homes)
        top = max(map(attrgetter("fee.centi"), sources))
        if new_fee.centi <= top:
            raise ReplayError(f"bump must increase the fee ({new_fee} <= {FeeRate(top)})")
        self._advance(at)
        for cohort, moving in sources.items():
            if moving == len(cohort.members) - cohort.head:
                self._drop(cohort)  # every live member leaves
            else:
                cohort.discard(leaving)
        target = self._cohort(self._band_index(new_fee), at, new_fee)
        self._homes.update(zip(ids, repeat(target)))
        target.merge(ids)
        self._close_run()

    def bump_all(self, new_fee: FeeRate, at: int) -> None:
        """Bump every pending transaction to new_fee, as one ``bump`` per
        pending transaction would: afterwards all of them form the single
        cohort of new_fee's band at ``at`` and new_fee.

        When one cohort holds every pending transaction, as in a mass exit,
        the fee check reads its fee and the cohort takes the new key and
        position in place: no id is touched. Pending transactions in
        several cohorts are bumped as one group."""
        sources = [
            cohort for cohorts in self._bands.values() for cohort in cohorts.values()
            if cohort.head < len(cohort.members)
        ]
        if len(sources) != 1:
            self.bump_group([tx_id for cohort in sources for tx_id in cohort.live()], new_fee, at)
            return
        cohort = sources[0]
        if new_fee.centi <= cohort.fee.centi:
            raise ReplayError(f"bump must increase the fee ({new_fee} <= {cohort.fee})")
        self._advance(at)
        band = self._band_index(new_fee)
        cohort.rename(band, at, new_fee, *self._position(band))
        self._last = None
        self._bands = {band: {(at, new_fee.centi): cohort}}

    def withdraw(self, tx_id: TxId) -> None:
        cohort = self._pending_home(tx_id)
        cohort.remove(tx_id)
        self._homes[tx_id] = cohort.withdrawn()
        self._close_run()

    def apply_block(self, entry: BlockEntry) -> list[TxId]:
        """Confirm monitored transactions that fit this block; returns their
        ids in priority order.

        A transaction confirms when the count of strictly-higher-priority
        historical transactions is below the block's remaining capacity;
        each confirmation consumes one capacity unit.
        """
        if self._last_height is not None and entry.height <= self._last_height:
            raise ReplayError(f"block {entry.height} out of order after {self._last_height}")
        self._advance(entry.timestamp)
        self._last_height = entry.height
        remaining = self._block_capacity(entry)
        confirmed: list[TxId] = []
        log = self._log
        counts = self._counts
        suffix = [0] * (len(counts) + 1)
        for i in range(len(counts) - 1, -1, -1):
            suffix[i] = suffix[i + 1] + counts[i]
        for band in sorted(self._bands, reverse=True):
            above = suffix[band + 1]  # band -1 sits below the whole mempool
            if above >= remaining:
                break  # lower bands have even more above them
            for ahead, tied in self._queue(band):
                room = remaining - above - ahead
                if room <= 0:
                    break  # groups ascend by position: the rest of the band fails too
                if len(tied) == 1:
                    taken = tied[0].confirm(room, entry.height, log)
                else:
                    taken = _confirm_tied(tied, room, entry.height, log)
                confirmed += taken
                remaining -= len(taken)
        return confirmed

    def pending(self) -> list[TxId]:
        """The ids of the pending transactions in submission order."""
        self._index()
        return [tx_id for tx_id, home in self._homes.items() if home.status is PENDING]

    def status(self, tx_id: TxId) -> TxStatus:
        """A transaction's status, read through its home. The id map holds
        an id's current home unless the id is in the open run or a logged
        confirmation took it, so an id the map holds while the log is empty
        is read at once, with no ``_index()`` call: the double-spend reads
        one status per bump-group member per bump."""
        home = None if self._log else self._homes.get(tx_id)
        if home is None:
            home = self._home(tx_id)
        return home.status

    def tx(self, tx_id: TxId) -> MonitoredTx:
        """A snapshot of a transaction's id, fee, band, status, confirmation
        height and instant, built from its home."""
        home = self._home(tx_id)
        return MonitoredTx(tx_id, home.fee, home.band, home.status, home.confirmed_height, home.queued_at)

    def same_band_ahead(self, tx_id: TxId) -> int:
        """Historical transactions in a pending transaction's band that must
        confirm before it: the band count when it entered its cohort,
        drained by the band's outflow since then, floored at zero."""
        return self._pending_home(tx_id).ahead(self._outflow)

    # -- internals ---------------------------------------------------------

    def _index(self) -> None:
        """Bring the id map up to date: the open run's ids into its cohort,
        then each logged confirmation over them, in the order they
        happened. The run stays open, empty, at the end of its cohort's
        member list. Every read or write by id, and every edit that
        reorders a member list, comes after this, so the logged positions
        still hold."""
        homes = self._homes
        if self._run is not None:
            cohort, start = self._run
            members = cohort.members
            if start < len(members):
                homes.update(zip(islice(members, start, None), repeat(cohort)))
                self._run = (cohort, len(members))
        if self._log:
            for members, start, end, left in self._log:
                homes.update(zip(islice(members, start, end), repeat(left)))
            self._log.clear()

    def _close_run(self) -> None:
        """Close the run and forget the last submit's cohort, after an edit
        that may have shortened a member list: the run's start may no longer
        mark its cohort's tail. The next submit looks its cohort up and opens
        a new run."""
        self._run = self._last = None

    def _home(self, tx_id: TxId) -> _Cohort | _Left:
        self._index()
        home = self._homes.get(tx_id)
        if home is None:
            raise ReplayError(f"unknown transaction {tx_id!r}")
        return home

    def _pending_home(self, tx_id: TxId) -> _Cohort:
        self._index()
        home = self._homes.get(tx_id)
        if home is None or home.status is not PENDING:
            raise ReplayError(f"transaction {tx_id!r} is not pending")
        return home

    def _position(self, band: int) -> tuple[int, int]:
        """Queue position and outflow mark of a cohort entering band now."""
        if band < 0:
            return 0, 0
        return self._counts[band], self._outflow[band]

    def _cohort(self, band: int, at: int, fee: FeeRate) -> _Cohort:
        cohorts = self._bands.get(band)
        if cohorts is None:
            cohorts = self._bands[band] = {}
        key = (at, fee.centi)
        cohort = cohorts.get(key)
        if cohort is None:
            cohort = cohorts[key] = _Cohort(band, at, fee, *self._position(band), [])
        return cohort

    def _drop(self, cohort: _Cohort) -> None:
        """Take the cohort out of its band, and forget the last submit's
        cohort: it may be this one."""
        cohorts = self._bands[cohort.band]
        del cohorts[cohort.queued_at, cohort.fee.centi]
        if not cohorts:
            del self._bands[cohort.band]
        self._last = None

    def _queue(self, band: int) -> list[tuple[int, list[_Cohort]]]:
        """The band's cohorts in priority order, as (same_band_ahead,
        cohorts) groups of the cohorts that entered the band at one instant
        and so tie on position; cohorts that every member left are
        dropped."""
        outflow = self._outflow
        order = []
        for cohort in list(self._bands[band].values()):
            if cohort.head == len(cohort.members):
                self._drop(cohort)
            else:
                order.append((cohort.ahead(outflow), cohort.queued_at, cohort.fee.centi, cohort))
        order.sort()  # (queued_at, fee) is unique in a band, so cohorts never compare
        return [(ahead, [entry[3] for entry in group]) for (ahead, _), group in groupby(order, itemgetter(0, 1))]

    def _block_capacity(self, entry: BlockEntry) -> int:
        if self._avg is None:
            return entry.tx_count
        # an integer carry keeps the cumulative capacity at floor(blocks * avg)
        num, den = self._avg
        cap, self._carry = divmod(self._carry + num, den)
        return cap
