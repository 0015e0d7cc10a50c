import argparse
import dataclasses
import hashlib
import io
import math
import sys
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import T0, Ledger, constant_timeline, fee, make_timeline
from lnme import cli, mempool
from lnme.mempool import (
    BlockEntry,
    BlockTrace,
    ConstantAverage,
    FeeHistogram,
    FeeRate,
    ReplayEngine,
    ReplayError,
    TimelineError,
    average_fee,
    div_round_half_up,
    load_block_trace,
    load_timeline,
)


class TestFeeRate:
    def test_fixed_point_parse(self):
        assert FeeRate.from_sat(70).centi == 7000
        assert FeeRate.from_sat("0.25").centi == 25
        assert FeeRate.from_sat(1.005).centi == 101  # half rounds up

    @pytest.mark.parametrize(
        "value", ["1e16", "9999999999999999.995", "1e5000", "1e4000000", 1e300, f"{10**20}/3"]
    )
    def test_size_beyond_the_limit_rejected(self, value):
        with pytest.raises(ValueError, match="out of range"):
            FeeRate.from_sat(value)

    @pytest.mark.parametrize("value, centi", [
        ("9999999999999999.99", 999999999999999999), ("1e-4000000", 0), ("-0.0009", 0), ("0.0049", 0),
        ("0.005", 1), ("7/3", 233),
    ])
    def test_sizes_inside_the_limit(self, value, centi):
        assert FeeRate.from_sat(value).centi == centi

    @pytest.mark.parametrize("value", ["1e" + "9" * 4000, "1e", "inf", "1/0"])
    def test_not_a_number_rejected(self, value):
        with pytest.raises(ValueError, match="not a fee rate"):
            FeeRate.from_sat(value)

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

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.floats(0, 100, allow_nan=False),
            st.decimals(0, 100, places=6),
            st.fractions(0, 100, max_denominator=10_000),
            st.integers(0, 100),
        ),
        st.integers(0, 10**9),
    )
    def test_bump_matches_fraction_of_decimal_string(self, beta, centi):
        frac = Fraction(str(beta)) * centi
        expected = (2 * frac.numerator + frac.denominator) // (2 * frac.denominator)
        assert FeeRate(centi).bumped(beta) == FeeRate(expected)

    def test_bump_ratio_cache_keeps_types_apart(self):
        # 0.7 reads as 7/10, but Fraction(0.7) is the binary value just below
        # it, so 5 cents times each lands on either side of the half-cent tie
        for _ in range(2):
            assert FeeRate(5).bumped(0.7) == FeeRate(4)
            assert FeeRate(5).bumped(Fraction(0.7)) == FeeRate(3)

    def test_bump_monotone(self):
        f = fee(3)
        for _ in range(50):
            nxt = f.bumped(1.1)
            assert nxt >= f
            f = nxt
        assert f > fee(300)


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 10**40), st.integers(1, 10**40))
def test_div_round_half_up_matches_fraction(num, den):
    assert div_round_half_up(num, den) == math.floor(Fraction(num, den) + Fraction(1, 2))


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

    def test_half_cent_ties_round_up(self):
        edges = (FeeRate(0), FeeRate(1))
        assert average_fee(FeeHistogram(edges, (1, 0))) == FeeRate(1)  # 0.5 cents
        assert average_fee(FeeHistogram((FeeRate(0), FeeRate(3)), (2, 0))) == FeeRate(2)  # 1.5
        assert average_fee(FeeHistogram(edges, (3, 1))) == FeeRate(1)  # 2.5 / 4 = 0.625

    def test_computed_once_per_histogram(self, histogram_work):
        _, averaged = histogram_work
        hist = FeeHistogram((fee(0), fee(10), fee(20)), (2, 2, 0))
        assert [average_fee(hist), average_fee(hist), hist.average] == [fee(10)] * 3
        assert averaged == [hist]

    def test_read_average_leaves_equality_and_hash(self):
        hist = FeeHistogram((fee(0), fee(10), fee(20)), (2, 2, 0))
        assert average_fee(hist) == fee(10)
        fresh = FeeHistogram((fee(0), fee(10), fee(20)), (2, 2, 0))
        assert hist == fresh and hash(hist) == hash(fresh)
        assert {hist: 1}[fresh] == 1
        assert dataclasses.replace(hist) == hist

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(0, 10**6), min_size=1, max_size=8, unique=True).flatmap(
            lambda lows: st.tuples(
                st.just(tuple(sorted(lows))),
                st.one_of(
                    st.just((0,) * len(lows)),
                    st.lists(st.integers(0, 10**9), min_size=len(lows), max_size=len(lows)).map(tuple),
                ),
            )
        )
    )
    def test_cached_average_matches_the_formula(self, grid):
        lows, counts = grid
        hist = FeeHistogram(tuple(map(FeeRate, lows)), counts)
        total = sum(counts)
        if total == 0:
            expected = lows[0]
        else:
            reps = [Fraction(lo + hi, 2) for lo, hi in zip(lows, lows[1:])] + [lows[-1]]
            mean = sum(count * rep for count, rep in zip(counts, reps)) / total
            expected = math.floor(mean + Fraction(1, 2))
        assert hist.average == FeeRate(expected)
        assert average_fee(hist) is hist.average


# Documents of plain integer rows, which the numpy parse reads whole.
PLAIN_DOCUMENTS = {
    "crlf-and-blank": "timestamp,0,5\r\n1600000000,7,3\r\n\n1600000060,2,4",
    "trailing-newline": "timestamp,0,5\n1600000000,7,3\n1600000060,2,4\n",
    "no-trailing-newline": "timestamp,0,5\n1600000000,7,3\n1600000060,2,4",
    "blank-lines": "timestamp,0,5\n\n1600000000,7,3\n\n\n1600000060,2,4\n\n",
    "crlf": "timestamp,0,5\r\n1600000000,7,3\r\n1600000060,2,4\r\n",
    "crlf-blank-lines": "timestamp,0,5\r\n\r\n1600000000,7,3\r\n\r\n1600000060,2,4\r\n\r\n",
    "single-row": "timestamp,0,5\n1600000000,7,3\n",
    "longer-than-a-slice": "timestamp,0,5\n" + "".join(
        f"{T0 + 60 * i},{i % 997},{i % 13}\n" for i in range(5_000)
    ),
}


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

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan"])
    def test_non_finite_count_names_line(self, cell):
        with pytest.raises(TimelineError, match=f"line 3: bad count '{cell}'"):
            load_timeline(f"timestamp,0,5\n1600000000,1,2\n1600000060,1,{cell}\n")

    @pytest.mark.parametrize("cell", ["1e30", "99999999999999999999"])
    def test_count_beyond_int64_rejected(self, cell):
        with pytest.raises(TimelineError, match="int64"):
            load_timeline(f"timestamp,0,5\n1600000000,1,{cell}\n")

    @pytest.mark.parametrize("document, message", [
        (f"timestamp,0,5\n1,{2**63},2\n2,x,3\n", "line 3: bad count 'x'"),
        (f"timestamp,0,5\n1,{2**63},2\n{2**63},1,1\n", "timestamp does not fit in int64"),
        (f"timestamp,5,0\n1,{2**63},2\n", "band edges must be strictly ascending"),
        (f"timestamp,0,5\n1,{2**63},2\n2,1,1\n", "band count does not fit in int64"),
    ], ids=["bad-line", "timestamp", "edges", "count"])
    @pytest.mark.parametrize("row_slice", [mempool.ROW_SLICE, 1])
    def test_a_count_beyond_int64_is_named_after_every_other_fault(self, monkeypatch, document, message, row_slice):
        # the cell-by-cell reading puts its rows in batches of ROW_SLICE; a
        # batch beyond int64 is held back until the timeline checks it, after
        # every line, the band edges and the timestamps
        monkeypatch.setattr(mempool, "ROW_SLICE", row_slice)
        with pytest.raises(TimelineError, match=f"^{message}$"):
            load_timeline(document)

    def test_timestamp_beyond_int64_rejected(self):
        with pytest.raises(TimelineError, match="timestamp does not fit in int64"):
            load_timeline("timestamp,0\n1,1\n99999999999999999999,1\n")

    def test_wrapping_cumulative_outflow_rejected(self):
        # two drops of 9e18 sum past 2**63 - 1: int64 would wrap to -446744073709551616
        with pytest.raises(TimelineError, match="cumulative outflow does not fit in int64"):
            load_timeline(WRAPPING_TIMELINE)

    def test_outflow_summed_exactly_past_the_bound(self):
        # max(counts) * (snapshots - 1) = 2**63 fails the cheap bound, yet
        # the one drop of 2**62 - 5 fits int64
        tl = load_timeline(NEAR_INT64_TIMELINE)
        assert tl.outflow(0, 3) == [2**62 - 5, 5]
        assert tl.outflow(2, 3) == [2**62 - 5, 0]

    def test_lone_carriage_return_is_timeline_error(self):
        with pytest.raises(TimelineError, match="line 2: new-line character"):
            load_timeline("timestamp,0\n1600000000,1\r1600000060,2\n")

    @pytest.mark.parametrize("document", list(PLAIN_DOCUMENTS.values()), ids=list(PLAIN_DOCUMENTS))
    @pytest.mark.parametrize("slice_chars", [mempool.TEXT_SLICE, 10])
    def test_plain_rows_skip_the_cell_parser(self, monkeypatch, document, slice_chars):
        with mock.patch.object(mempool, "_read_rows_numpy", lambda *slice_args: None):
            cells = parse_outcome(document)

        def refuse(cell, lineno, what):
            raise AssertionError("cell-by-cell parse ran")

        monkeypatch.setattr(mempool, "_parse_int", refuse)
        monkeypatch.setattr(mempool, "TEXT_SLICE", slice_chars)
        assert not isinstance(cells, str)  # a timeline, not a TimelineError
        assert parse_outcome(document) == cells

    def test_no_text_stream_is_alive_during_the_numpy_parse(self, monkeypatch):
        # a csv reader or a StringIO would hold the text at four bytes a character
        csv_records, loadtxt = mempool.csv_records, np.loadtxt
        open_readers, parses = [], []

        def tracked_records(document, error, offset=0):
            open_readers.append(document)
            try:
                yield from csv_records(document, error, offset)
            finally:
                open_readers.remove(document)

        def tracked_loadtxt(lines, **kwargs):
            parses.append((isinstance(lines, io.IOBase), len(open_readers)))
            return loadtxt(lines, **kwargs)

        monkeypatch.setattr(mempool, "csv_records", tracked_records)
        monkeypatch.setattr(np, "loadtxt", tracked_loadtxt)
        tl = load_timeline("timestamp,0,5\r\n1600000000,7,3\r\n\n1600000060,2,4\n\n")
        assert parses == [(False, 0)]
        assert tl.counts.tolist() == [[7, 3], [2, 4]]
        assert tl.outflow(0, 1) == [5, 0]

    @pytest.mark.parametrize("document, first_read", [
        ("timestamp,0,5\r\n1600000000,7,3\r\n1600000060,2,4\n", "timestamp,0,5\r\n"),
        ("timestamp,0,5", "timestamp,0,5"),
        # a quoted header may span lines, so the csv reader gets the whole document
        ('"timestamp","0","5\n"\n1,5,2\n', '"timestamp","0","5\n"\n1,5,2\n'),
    ], ids=["plain", "no-newline", "quoted"])
    def test_header_is_read_from_its_first_line_unless_quoted(self, monkeypatch, document, first_read):
        csv_records, read = mempool.csv_records, []

        def tracked_records(document, error, offset=0):
            if not isinstance(document, str):
                document = "".join(document)  # the lines the csv reader is given
            read.append(document)
            yield from csv_records(document, error, offset)

        monkeypatch.setattr(mempool, "csv_records", tracked_records)
        parse_outcome(document)
        assert read[0] == first_read

    def test_parse_holds_no_list_of_lines(self):
        # A list of the document's lines costs a str object (about 64 bytes
        # on these one-band rows) and a pointer per line. The numpy parse
        # splits one slice of the text at a time and fills one array sized
        # in advance, so what it allocates beyond what the timeline keeps
        # stays well below half of that list; a parse holding every line
        # would not.
        document = "timestamp,0\n" + "".join(f"{T0 + 60 * i},{i % 5000}\n" for i in range(20_000))
        lines = document.split("\n")
        line_list = sys.getsizeof(lines) + sum(map(sys.getsizeof, lines))
        del lines
        tracemalloc.start()
        try:
            tl = load_timeline(document)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(tl) == 20_000
        assert peak - held < line_list / 2

    def test_blank_lines_do_not_size_the_array(self):
        # 200,000 blank lines and one row: the array is sized by the rows
        # the text can hold, not by its line count (57.6 MB of 36 bands)
        header = "timestamp," + ",".join(map(str, mempool.DEFAULT_BAND_EDGES_SAT)) + "\n"
        row = f"{T0}," + ",".join(["7"] * len(mempool.DEFAULT_BAND_EDGES_SAT))
        tracemalloc.start()
        try:
            tl = load_timeline(header + "\n" * 200_000 + row + "\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tl.counts.tolist() == [[7] * len(mempool.DEFAULT_BAND_EDGES_SAT)]
        assert peak < 4 * 1024 * 1024

    def test_parse_holds_the_counts_and_a_slice(self):
        # 5,000 rows of the 36-band grid: 1.44 MB of counts. The timeline
        # keeps the counts and the timestamps and nothing else of their
        # size; the parse needs a few slices of text beyond them, however
        # many rows there are, and summing the outflow a few row slices.
        bands = len(mempool.DEFAULT_BAND_EDGES_SAT)
        document = "timestamp," + ",".join(map(str, mempool.DEFAULT_BAND_EDGES_SAT)) + "\n" + "".join(
            f"{T0 + 60 * i}," + ",".join(str((7 * i + 13 * b) % 5000) for b in range(bands)) + "\n"
            for i in range(5_000)
        )
        tracemalloc.start()
        try:
            tl = load_timeline(document)
            held, peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            outflow = tl.outflow(0, len(tl) - 1)
            summed = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert tl.counts.shape == (5_000, bands) and tl.counts.base is None
        assert tl.counts.dtype == np.int32
        timestamps = sys.getsizeof(tl.timestamps) + sum(map(sys.getsizeof, tl.timestamps))
        assert held <= tl.counts.nbytes + timestamps + 64 * 1024
        assert peak - held <= 8 * mempool.TEXT_SLICE
        assert summed <= 3 * mempool.ROW_SLICE * tl.counts.itemsize * bands
        assert outflow == direct_outflow(tl.counts.tolist(), len(tl) - 1)


WRAPPING_TIMELINE = (
    "timestamp,0\n1,9000000000000000000\n2,0\n3,9000000000000000000\n4,0\n"
)
NEAR_INT64_TIMELINE = f"timestamp,0,5\n1,{2**62},5\n2,{2**62},0\n3,{2**62},3\n4,5,3\n"


def parse_outcome(document):
    """What load_timeline makes of document: the timeline's fields, or the
    TimelineError message."""
    try:
        tl = load_timeline(document)
    except TimelineError as exc:
        return f"TimelineError: {exc}"
    return timeline_fields(tl)


def timeline_fields(tl):
    return tl.band_edges, tl.timestamps, tl.counts.tolist(), [tl.outflow(0, i) for i in range(len(tl))]


def both_parses(document):
    """parse_outcome of document with the numpy parse, then with the
    cell-by-cell parse alone."""
    fast = parse_outcome(document)
    with mock.patch.object(mempool, "_read_rows_numpy", lambda *slice_args: None):
        slow = parse_outcome(document)
    return fast, slow


HEADER = "timestamp,0,5\n"
CELL_ALPHABET = "0123456789+-.e, \t\n\r\"#_"


@st.composite
def timeline_documents(draw):
    """Timeline documents over the CSV alphabet: rows of mostly valid cells
    with hostile ones mixed in, or free text after a header."""
    hostile = st.one_of(
        st.text(CELL_ALPHABET, max_size=5),
        st.sampled_from(["5.0", " 5 ", "+5", '"5"', "5_0", "1e3", "-1", str(2**63), "9" * 20]),
    )

    def cell(valid):
        return draw(hostile) if draw(st.integers(0, 9)) == 0 else valid

    bands = draw(st.integers(1, 3))
    header = "timestamp," + ",".join(str(5 * i) for i in range(bands))
    if draw(st.integers(0, 3)) == 0:
        return header + "\n" + draw(st.text(CELL_ALPHABET, max_size=40))
    # mostly small counts, so most documents load; a large one can wrap the outflow
    small = st.integers(0, 50)
    count = st.one_of(small, small, small, st.integers(0, 2**63 - 1))
    lines, t = [header], T0
    for _ in range(draw(st.integers(0, 6))):
        t += draw(st.integers(-1, 100))
        lines.append(",".join([cell(str(t))] + [cell(str(draw(count))) for _ in range(bands)]))
    ends = st.sampled_from(["\n"] * 6 + ["\r\n", "\n\n", "\n \n", "\r"])
    return "".join(line + draw(ends) for line in lines[:-1]) + lines[-1] + draw(
        st.sampled_from(["", "\n", "\r\n"])
    )


# Documents that probe where the numpy parse must defer to the cell-by-cell one.
AGREEING_DOCUMENTS = [
    # line endings and blank lines
    HEADER + "1,1,2\r\n2,3,4\r\n",
    HEADER + "1,1,2\n\n2,3,4\n\n",
    HEADER + "1,1,2\n   \n2,3,4\n",
    HEADER + "1,1,2\n\t\n2,3,4\n",
    HEADER + "1,1,2\n2,3,4",
    "timestamp,0,5\r\n1,1,2\r\n\r\n2,3,4",
    HEADER + "1,1,2\r2,3,4\n",
    # cell syntax
    HEADER + "1,5.0,2\n",
    HEADER + "+1,+5,2\n",
    HEADER + "1, 5 ,2\n",
    HEADER + "1,\t5,2\n",
    HEADER + '1,"5",2\n',
    HEADER + "# note\n1,5,2\n",
    HEADER + "1,5,2 # note\n",
    HEADER + "1,5_000,2\n",
    HEADER + "1,1e3,2\n",
    HEADER + "1,5.5,2\n",
    HEADER + "1,nan,2\n",
    HEADER + "1,inf,2\n",
    HEADER + "1,\u0665,2\n",
    HEADER + "1,\uff15,2\n",
    # row shape
    HEADER + "1,5,2,\n",
    HEADER + "1,5\n",
    HEADER + "1,5,2\n2,5\n",
    HEADER + "1,5,2\n2,5,2,7\n",
    HEADER + "1,5,2\n",
    HEADER,
    "timestamp,0,5",
    '"timestamp","0","5"\n1,5,2\n',
    '"timestamp","0","5\n"\n1,5,2\n',
    # values
    HEADER + "1,-5,2\n",
    HEADER + "1,5,2\n1,5,2\n",
    HEADER + "2,5,2\n1,5,2\n",
    HEADER + "1,99999999999999999999,2\n",
    HEADER + "99999999999999999999,5,2\n",
    HEADER + "1,1e30,2\n",
    HEADER + "1,9223372036854775807,2\n2,0,0\n",
    WRAPPING_TIMELINE,
    NEAR_INT64_TIMELINE,
]


class TestParsePathsAgree:
    """The numpy parse of timeline rows against the cell-by-cell reference:
    equal timelines, or TimelineErrors with equal messages."""

    @pytest.mark.parametrize("document", AGREEING_DOCUMENTS)
    def test_documents(self, document):
        fast, slow = both_parses(document)
        assert fast == slow

    @settings(max_examples=400, deadline=None)
    @given(timeline_documents())
    def test_generated_documents(self, document):
        fast, slow = both_parses(document)
        assert fast == slow

    @pytest.mark.parametrize(
        "document, numpy_rows, expected",
        [
            # numpy 1.23-1.26 truncate 5.5 in an int column, warning only
            (HEADER + "1,5.5,2\n", [[1, 5, 2]], "TimelineError: line 2: bad count '5.5'"),
            # a warned result is dropped even where the cells are integral
            (HEADER + "1,5.0,2.0\n", [[1, 9, 9]], ((fee(0), fee(5)), [1], [[5, 2]], [[0, 0]])),
        ],
    )
    def test_numpy_warning_defers_to_cells(self, monkeypatch, document, numpy_rows, expected):
        def loadtxt(*args, **kwargs):
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated", DeprecationWarning)
            return np.array(numpy_rows, dtype=np.int64)

        monkeypatch.setattr(np, "loadtxt", loadtxt)
        assert parse_outcome(document) == expected


def read_file(path):
    """The timeline of the file at path as the CLI reads it, streamed; the
    manifest digest it records must be the SHA-256 of the file's bytes."""
    args = argparse.Namespace(timeline=str(path), digests={})
    tl = cli._read_timeline(args)
    assert args.digests == {"timeline": hashlib.sha256(path.read_bytes()).hexdigest()}
    return tl


def streamed_outcome(path):
    """What the CLI's streamed read makes of the file at path: the
    timeline's fields, or the TimelineError message."""
    try:
        tl = read_file(path)
    except TimelineError as exc:
        return f"TimelineError: {exc}"
    return timeline_fields(tl)


def slice_lines(document):
    """The line count of each slice that the numpy parse is given."""
    return [text.count("\n") for text in mempool._text_slices(document)]


class TestStreamedRead:
    """The CLI's streamed read of a timeline file against ``load_timeline``
    of the file's text, as ``Path.read_text`` decodes it: equal timelines, or
    TimelineErrors with equal messages."""

    @pytest.mark.parametrize("document", AGREEING_DOCUMENTS + list(PLAIN_DOCUMENTS.values()))
    @pytest.mark.parametrize("slice_chars", [mempool.TEXT_SLICE, 10])
    def test_documents(self, tmp_path, monkeypatch, document, slice_chars):
        monkeypatch.setattr(mempool, "TEXT_SLICE", slice_chars)
        path = tmp_path / "t.csv"
        path.write_text(document, newline="")
        assert streamed_outcome(path) == parse_outcome(path.read_text())

    @pytest.mark.parametrize("slice_chars", [1, 10, 64, mempool.TEXT_SLICE])
    def test_a_str_and_a_stream_are_sliced_alike(self, tmp_path, monkeypatch, slice_chars):
        monkeypatch.setattr(mempool, "TEXT_SLICE", slice_chars)
        document = PLAIN_DOCUMENTS["longer-than-a-slice"] + "\n\n1,2"
        path = tmp_path / "t.csv"
        path.write_text(document)
        with open(path) as stream:
            streamed = list(mempool._text_slices(stream))
        assert streamed == list(mempool._text_slices(document))
        assert "".join(streamed) == document
        assert all(text.endswith("\n") and len(text) >= slice_chars for text in streamed[:-1])

    def test_a_bad_cell_in_the_third_slice_names_its_line(self, tmp_path, monkeypatch):
        monkeypatch.setattr(mempool, "TEXT_SLICE", 64)
        rows = [f"{T0 + 60 * i},{i % 10},{3 * i % 10}" for i in range(40)]
        document = HEADER + "\n".join(rows) + "\n"
        lines = slice_lines(document)
        bad = 2 + sum(lines[:2])  # the third slice's second line; the header is line 1
        rows[bad - 2] = f"{T0 + 60 * (bad - 2)},x,{3 * (bad - 2) % 10}"  # 'x' for a one-digit count
        document = HEADER + "\n".join(rows) + "\n"
        assert slice_lines(document) == lines
        path = tmp_path / "t.csv"
        path.write_text(document)
        read_numpy, calls = mempool._read_rows_numpy, []

        def tracked(*args):
            rows = read_numpy(*args)
            calls.append(rows is not None)
            return rows

        monkeypatch.setattr(mempool, "_read_rows_numpy", tracked)
        expected = f"TimelineError: line {bad}: bad count 'x'"
        assert streamed_outcome(path) == expected
        assert calls == [True, True, False]  # the cell-by-cell reading took over at the third slice
        assert parse_outcome(document) == expected

    def test_crlf_split_across_a_read_boundary(self, tmp_path, monkeypatch):
        # the raw file is read io.DEFAULT_BUFFER_SIZE bytes at a time: put a
        # "\r\n" across the first boundary, by zero-padding the first count
        rows = [f"{T0 + 60 * i},{i % 50},{7 * i % 50}" for i in range(1_000)]
        document = "timestamp,0,5\r\n" + "\r\n".join(rows) + "\r\n"
        boundary = io.DEFAULT_BUFFER_SIZE - 1
        pad = boundary - document.rindex("\r", 0, boundary)
        rows[0] = f"{T0},{'0' * pad}0,0"
        document = "timestamp,0,5\r\n" + "\r\n".join(rows) + "\r\n"
        assert document[boundary:boundary + 2] == "\r\n"
        path = tmp_path / "t.csv"
        path.write_text(document, newline="")
        expected = parse_outcome(document.replace("\r\n", "\n"))
        for slice_chars in (mempool.TEXT_SLICE, 10):
            monkeypatch.setattr(mempool, "TEXT_SLICE", slice_chars)
            assert streamed_outcome(path) == expected
        # a stream that keeps its "\r\n": a slice's read ending on the "\r"
        # reads on to the "\n"
        monkeypatch.setattr(mempool, "TEXT_SLICE", len("timestamp,0,5\r\n" + rows[0]) + 1)
        assert document[:mempool.TEXT_SLICE].endswith("\r")
        with open(path, newline="") as stream:
            assert timeline_fields(load_timeline(stream)) == expected == parse_outcome(document)

    def test_a_timestamp_out_of_order_across_a_slice_boundary(self, tmp_path, monkeypatch):
        monkeypatch.setattr(mempool, "TEXT_SLICE", 10)  # every row starts a slice of its own
        document = HEADER + f"{T0},1,2\n{T0 + 60},3,4\n{T0 + 120},5,6\n{T0 + 60},7,8\n{T0 + 180},9,9\n"
        assert slice_lines(document) == [1, 1, 1, 1, 1, 1]
        path = tmp_path / "t.csv"
        path.write_text(document)
        expected = f"TimelineError: line 5: timestamp {T0 + 60} out of order (after {T0 + 120})"
        assert streamed_outcome(path) == parse_outcome(document) == expected

    @pytest.mark.parametrize("top, dtype", [(2**31 - 1, np.int32), (2**31, np.int64)])
    def test_a_count_of_2_31_promotes_the_array(self, tmp_path, monkeypatch, top, dtype):
        monkeypatch.setattr(mempool, "TEXT_SLICE", 10)  # the count arrives after int32 rows
        rows = [[7, 3], [2, 4], [top, 0], [5, top], [0, 1]]
        document = HEADER + "".join(f"{T0 + 60 * i},{a},{b}\n" for i, (a, b) in enumerate(rows))
        path = tmp_path / "t.csv"
        path.write_text(document)
        streamed, parsed = read_file(path), load_timeline(document)
        for tl in (streamed, parsed):
            assert tl.counts.dtype == dtype and tl.counts.base is None
            assert tl.counts.tolist() == rows
            assert tl.outflow(0, 4) == direct_outflow(rows, 4)
        assert timeline_fields(streamed) == timeline_fields(parsed)

    def test_near_int64_counts(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(NEAR_INT64_TIMELINE)
        tl = read_file(path)
        assert tl.counts.dtype == np.int64
        assert tl.outflow(0, 3) == [2**62 - 5, 5]
        assert timeline_fields(tl) == parse_outcome(NEAR_INT64_TIMELINE)

    def test_a_stream_of_unknown_size_grows_the_array(self, monkeypatch):
        monkeypatch.setattr(mempool, "TEXT_SLICE", 10)
        rows = [[i % 7, 3 * i % 11] for i in range(50)] + [[2**31, 0]] + [[i, i] for i in range(50)]
        document = HEADER + "".join(f"{T0 + 60 * i},{a},{b}\n" for i, (a, b) in enumerate(rows))
        stream = io.TextIOWrapper(io.BytesIO(document.encode()), encoding="ascii")
        assert mempool._row_bound(stream, 2) == 0  # no size: the array starts empty
        tl = load_timeline(stream)
        assert tl.counts.dtype == np.int64 and tl.counts.tolist() == rows
        assert timeline_fields(tl) == parse_outcome(document)

    def test_a_streamed_read_holds_the_counts_and_a_slice(self, tmp_path, monkeypatch):
        # The 36-band document of test_parse_holds_the_counts_and_a_slice,
        # read from its file. The count array is sized by the file's length,
        # and the pages past its rows are never written, so never resident;
        # tracemalloc counts them all the same. Beyond that reserve and what
        # the timeline keeps, the read needs a few slices of text, well under
        # the document's size.
        bands = len(mempool.DEFAULT_BAND_EDGES_SAT)
        document = "timestamp," + ",".join(map(str, mempool.DEFAULT_BAND_EDGES_SAT)) + "\n" + "".join(
            f"{T0 + 60 * i}," + ",".join(str((7 * i + 13 * b) % 5000) for b in range(bands)) + "\n"
            for i in range(5_000)
        )
        path = tmp_path / "t.csv"
        path.write_text(document)
        assert len(document) > 12 * mempool.TEXT_SLICE
        row_bound, bounds = mempool._row_bound, []
        monkeypatch.setattr(mempool, "_row_bound", lambda *args: bounds.append(row_bound(*args)) or bounds[-1])
        tracemalloc.start()
        try:
            tl = read_file(path)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert tl.counts.dtype == np.int32 and tl.counts.base is None
        assert bounds == [(path.stat().st_size + 1) // (2 * bands + 2)]  # the CLI's stream tells its size
        reserve = (bounds[0] - len(tl)) * bands * tl.counts.itemsize
        timestamps = sys.getsizeof(tl.timestamps) + sum(map(sys.getsizeof, tl.timestamps))
        assert held <= tl.counts.nbytes + timestamps + 64 * 1024
        assert peak - held <= reserve + 8 * mempool.TEXT_SLICE
        assert timeline_fields(tl) == parse_outcome(document)


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

    @pytest.mark.parametrize("cell", ["inf", "nan"])
    def test_non_finite_tx_count_names_line(self, cell):
        with pytest.raises(TimelineError, match=f"line 2: bad tx_count '{cell}'"):
            load_block_trace(f"1,100,5\n2,200,{cell}\n")

    def test_lone_carriage_return_is_timeline_error(self):
        with pytest.raises(TimelineError, match="line 1: new-line character"):
            load_block_trace("1,100,5\r2,200,6\n")


def simple_engine(rows, interval=60, **kw):
    tl = make_timeline([0, 10, 50], rows, start=T0, interval=interval)
    return Ledger(tl, **kw)


def cohorts(eng):
    """The engine's queued cohorts as (band, queued_at, fee, pending ids),
    band by band, each band's in creation order."""
    return [(c.band, c.queued_at, c.fee, c.members[c.head:]) for band in sorted(eng._bands) for c in eng._bands[band]]


def test_histogram_is_built_on_demand(histogram_work):
    built, _ = histogram_work
    eng = simple_engine([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    eng.submit("a", fee(20), T0)
    eng.apply_block(BlockEntry(1, T0 + 60, 0))
    eng.apply_block(BlockEntry(2, T0 + 120, 0))
    assert built == []
    assert eng.histogram().counts == (7, 8, 9)
    assert eng.histogram().counts == (7, 8, 9)
    assert [h.counts for h in built] == [(7, 8, 9)]


def test_histogram_is_kept_until_the_snapshot_changes():
    eng = simple_engine([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    first = eng.histogram()
    assert first == FeeHistogram((fee(0), fee(10), fee(50)), (1, 2, 3))
    eng.submit("a", fee(20), T0 + 30)  # the clock moves inside the first snapshot
    eng.apply_block(BlockEntry(1, T0 + 59, 0))
    assert eng.histogram() is first
    eng.apply_block(BlockEntry(2, T0 + 60, 0))
    assert eng.histogram().counts == (4, 5, 6)
    eng.apply_block(BlockEntry(3, T0 + 120, 0))
    assert eng.histogram().counts == (7, 8, 9)


class TestSubmitAndBump:
    def test_submit_into_empty_band(self):
        eng = simple_engine([[0, 0, 0]] * 3)
        eng.submit("a", fee(70), T0)
        assert eng.ahead("a") == 0

    def test_submit_behind_band_count(self):
        eng = simple_engine([[0, 12, 0]] * 3)
        eng.submit("a", fee(20), T0)
        assert eng.ahead("a") == 12

    def test_duplicate_id_in_its_group(self):
        eng = simple_engine([[0, 0, 0]] * 3)
        rate = fee(70)
        eng.submit("a", rate, T0)
        with pytest.raises(ReplayError, match="duplicate transaction id 'a'"):
            eng.submit("a", rate, T0)

    @pytest.mark.parametrize(
        "tx_id, at, error, match",
        [
            ("a", T0 + 100, ReplayError, "duplicate"),  # below the group's last id
            ("b", T0 + 100, ReplayError, "duplicate"),  # the group's last id
            ("late", T0 + 40, ReplayError, "precedes engine clock"),
            (7, T0 + 100, TypeError, "not supported"),  # an id the cohort's ids do not order against
        ],
        ids=["duplicate-inside-the-group", "duplicate-of-the-last-id", "before-the-clock", "unordered-id"],
    )
    def test_rejected_submit_changes_nothing(self, tx_id, at, error, match):
        eng = ReplayEngine(make_timeline([0, 10, 50], [[1, 2, 3], [4, 5, 6], [7, 8, 9]]))
        rate = fee(20)
        eng.submit("b", rate, T0 + 100)
        eng.submit("a", rate, T0 + 100)
        before = engine_state(eng)
        with pytest.raises(error, match=match):
            eng.submit(tx_id, rate, at)
        assert engine_state(eng) == before
        assert before[0] == T0 + 100 and before[3] == [(1, T0 + 100, fee(20), 5, 0, ["a", "b"])]
        assert eng.submit("c", rate, T0 + 100).members == ["a", "b", "c"]  # the group is still open

    @pytest.mark.parametrize("case", ["unknown", "another group", "confirmed", "withdrawn", "another engine"])
    def test_withdraw_needs_an_id_pending_in_its_group(self, case):
        eng = simple_engine([[0, 0, 0]] * 3)
        rate = fee(70)
        group = eng.submit("a", rate, T0)
        eng.submit("b", rate, T0)
        other = eng.submit("c", fee(20), T0)
        tx_id, match = "a", "not pending in this group"
        if case == "unknown":
            tx_id = "z"
        elif case == "another group":
            group = other
        elif case == "confirmed":
            assert eng.apply_block(BlockEntry(1, T0, 1)) == ["a"]
        elif case == "withdrawn":
            eng.withdraw(group, "a")
        else:
            group, match = ReplayEngine(eng.timeline).submit("a", rate, T0), "not queued in this engine"
        before = engine_state(eng)
        with pytest.raises(ReplayError, match=match):
            eng.withdraw(group, tx_id)
        assert engine_state(eng) == before

    def test_a_submit_holds_no_object_of_its_own(self):
        """Submits of rising ids that share one fee object and one instant
        each store one member-list slot: no id map entry and no object.

        The bytes that tracemalloc sees held after the submits are bounded
        by what grows with them plus what does not:
        - ``sys.getsizeof(cohort.members)``: the member list and its
          over-allocated slots, 8 bytes a slot; the ids are made before
          tracing;
        - ``SLACK``: the one cohort, its band's list and the remembered
          ``(fee, at, cohort)``, a few hundred bytes that do not grow with n.
        A map entry per id would exceed the bound by at least n * 24 bytes
        (a hash, a key and a value), 4.8 MB here, and even the smallest
        object per id by n * 16 bytes (a reference count and a type
        pointer), against a slack of 4 KiB."""
        n, SLACK = 200_000, 4096
        rate = fee(20)
        ids = list(range(n))
        eng = ReplayEngine(make_timeline([0, 10, 50], [[0, 0, 0]] * 3))
        submit = eng.submit
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for tx_id in ids:
                submit(tx_id, rate, T0)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        [[cohort]] = eng._bands.values()
        assert cohort.members == ids and cohort.head == 0
        assert held <= sys.getsizeof(cohort.members) + SLACK
        assert eng.pending() == ids

    def test_bump_to_empty_band_resets_queue(self):
        eng = simple_engine([[0, 40, 0]] * 3)
        group = eng.submit("a", fee(20), T0)
        assert eng.ahead("a") == 40
        assert eng.bump(group, fee(60), T0) is None
        assert eng.ahead("a") == 0
        assert eng.tx("a").band == 2

    def test_bump_within_band_resets_to_current_count(self):
        eng = simple_engine([[0, 40, 0], [0, 25, 0], [0, 25, 0]])
        group = eng.submit("a", fee(20), T0)
        eng.apply_block(BlockEntry(1, T0 + 60, 0))
        assert eng.ahead("a") == 25  # drained 15 by outflow
        eng.bump(group, fee(30), T0 + 60)
        assert eng.ahead("a") == 25  # reset to the band's current count

    def test_a_bump_moves_every_pending_member_of_its_group(self):
        eng = simple_engine([[0, 40, 9]] * 3)
        rate = fee(20)
        for tid in ("c", "a", "b"):
            group = eng.submit(tid, rate, T0)
        other = eng.submit("d", fee(12), T0)
        eng.withdraw(group, "c")
        eng.bump(group, fee(70), T0 + 60)
        moved = [eng.tx(t) for t in ("a", "b")]
        assert [(tx.fee, tx.band, tx.queued_at, eng.ahead(tx.id)) for tx in moved] == [
            (fee(70), 2, T0 + 60, 9)
        ] * 2
        assert eng.tx("c").fee == fee(20)
        assert (eng.tx("d").fee, other.fee) == (fee(12), fee(12))  # another group stays
        assert eng.apply_block(BlockEntry(1, T0 + 60, 10)) == ["a"]

    @pytest.mark.parametrize("first", [80, 70])
    def test_a_bump_must_rise_above_the_groups_last_fee(self, first):
        eng = simple_engine([[0, 0, 0]] * 3)
        rate = fee(20)
        for tid in ("a", "b"):
            group = eng.submit(tid, rate, T0)
        eng.bump(group, fee(first), T0)
        before = [(tx.fee, tx.band, tx.queued_at) for tx in map(eng.tx, eng.pending())]
        with pytest.raises(ReplayError, match=rf"increase the fee \(70.00 <= {first}.00\)"):
            eng.bump(group, fee(70), T0 + 60)
        assert [(tx.fee, tx.band, tx.queued_at) for tx in map(eng.tx, eng.pending())] == before

    def test_groups_bumped_into_one_band_and_instant_tie(self):
        eng = simple_engine([[0, 40, 9]] * 3)
        rate = fee(20)
        first = eng.submit("d", rate, T0)
        eng.submit("a", rate, T0)
        second = eng.submit("c", fee(60), T0)
        eng.submit("b", fee(20), T0)  # an equal fee, but another object: a group of its own
        eng.submit("e", fee(70), T0 + 60)
        eng.bump(first, fee(65), T0 + 60)
        eng.bump(second, fee(66), T0 + 60)
        assert cohorts(eng) == [
            (1, T0, fee(20), ["b"]),
            (2, T0 + 60, fee(70), ["e"]),
            (2, T0 + 60, fee(65), ["a", "d"]),
            (2, T0 + 60, fee(66), ["c"]),
        ]
        # the three cohorts at T0 + 60 tie on position: their ids confirm in order
        assert eng.apply_block(BlockEntry(1, T0 + 60, 19)) == ["a", "c", "d", "e"]


def engine_state(eng):
    """Everything a rejected submit, bump or withdrawal must leave as it
    found it."""
    queued = [
        (c.band, c.queued_at, c.fee, c.pos, c.mark, c.members[c.head:])
        for band in sorted(eng._bands)
        for c in eng._bands[band]
    ]
    return eng.clock, eng.histogram(), eng.pending(), queued


class TestGroups:
    """A group is the cohort that one run of submits joins with one fee
    object at one instant; anything else in between ends it, and a bump
    renames one group, whole."""

    ROWS = [[0, 4, 0], [0, 1, 0], [0, 0, 0]]

    @pytest.mark.parametrize("between", ["block", "withdrawal", "bump", "clock move"])
    def test_anything_between_two_submits_ends_the_group(self, between):
        eng = simple_engine(self.ROWS)
        rate = fee(20)
        group = eng.submit(1, rate, T0)
        at = T0
        if between == "block":
            assert eng.apply_block(BlockEntry(1, T0, 0)) == []  # at an unchanged instant
        elif between == "withdrawal":
            eng.withdraw(eng.submit(0, fee(12), T0), 0)
        elif between == "bump":
            eng.bump(eng.submit(0, fee(12), T0), fee(30), T0)
        else:
            at = T0 + 30
        later = eng.submit(2, rate, at)
        assert later is not group and eng.submit(3, rate, at) is later
        assert (later.fee, later.queued_at, len(group), len(later)) == (rate, at, 1, 2)
        eng.bump(later, fee(70), at)  # the first group stays where it is
        assert [(tx.fee, tx.band) for tx in map(eng.tx, (1, 2, 3))] == [(fee(20), 1), (fee(70), 2), (fee(70), 2)]

    def test_a_run_of_one_fee_object_is_one_group_whatever_its_id_order(self):
        eng = simple_engine(self.ROWS)
        rate = fee(20)
        groups = {eng.submit(tid, rate, T0) for tid in (5, 7, 3, 9, 1)}
        [group] = groups
        assert group.members == [1, 3, 5, 7, 9] and len(group) == 5
        assert eng.submit(2, fee(20), T0) is not group  # an equal fee, another object

    def test_an_id_below_the_groups_last_is_checked_and_inserted(self):
        eng = simple_engine(self.ROWS)
        rate = fee(70)
        for i in (2, 4, 6):
            group = eng.submit(i, rate, T0)
        with pytest.raises(ReplayError, match="duplicate transaction id 4"):
            eng.submit(4, rate, T0)
        assert eng.submit(3, rate, T0) is group  # below the last id: checked, then inserted in id order
        assert eng.submit(7, rate, T0) is group  # above it again: appended
        assert group.members == eng.pending() == [2, 3, 4, 6, 7]
        assert eng.apply_block(BlockEntry(1, T0, 5)) == [2, 3, 4, 6, 7]

    @pytest.mark.parametrize("case", ["withdrawn", "confirmed", "another engine", "fee not above"])
    def test_rejected_bump_changes_nothing(self, case):
        eng = simple_engine(self.ROWS)
        rate = fee(20)
        group = eng.submit("a", rate, T0)
        eng.submit("b", rate, T0)
        eng.submit("c", fee(60), T0)
        new_fee = fee(70)
        if case == "withdrawn":
            eng.withdraw(group, "a")
            eng.withdraw(group, "b")
            match = "no pending transaction"
        elif case == "confirmed":
            assert eng.apply_block(BlockEntry(1, T0, 7)) == ["c", "a", "b"]
            match = "no pending transaction"
        elif case == "another engine":
            group = ReplayEngine(eng.timeline).submit("a", rate, T0)  # pending, but in another engine
            match = "not queued in this engine"
        else:
            new_fee = fee(20)
            match = r"increase the fee \(20.00 <= 20.00\)"
        before = engine_state(eng)
        with pytest.raises(ReplayError, match=match):
            eng.bump(group, new_fee, T0 + 60)
        assert engine_state(eng) == before

    def test_a_group_a_block_dropped_is_not_queued(self):
        eng = simple_engine(self.ROWS)
        group = eng.submit("a", fee(60), T0)
        assert eng.apply_block(BlockEntry(1, T0, 1)) == ["a"]
        assert eng.apply_block(BlockEntry(2, T0, 1)) == []  # finds the group empty and drops it
        with pytest.raises(ReplayError, match="not queued in this engine"):
            eng.bump(group, fee(70), T0)


class TestDecay:
    def test_outflow_drains(self):
        eng = simple_engine([[0, 50, 0], [0, 30, 0]])
        eng.submit("a", fee(20), T0)
        eng.apply_block(BlockEntry(1, T0 + 60, 0))
        assert eng.ahead("a") == 30

    def test_inflow_ignored(self):
        eng = simple_engine([[0, 30, 0], [0, 50, 0]])
        eng.submit("a", fee(20), T0)
        eng.apply_block(BlockEntry(1, T0 + 60, 0))
        assert eng.ahead("a") == 30

    def test_floor_at_zero(self):
        eng = simple_engine([[0, 5, 0], [0, 0, 0], [0, 9, 0], [0, 0, 0]])
        eng.submit("a", fee(20), T0)
        eng.apply_block(BlockEntry(1, T0 + 60, 0))
        assert eng.ahead("a") == 0
        eng.apply_block(BlockEntry(2, T0 + 120, 0))  # counts rise to 9
        eng.apply_block(BlockEntry(3, T0 + 180, 0))  # and drain again: stays floored
        assert eng.ahead("a") == 0

    def test_block_past_end_rejected(self):
        eng = simple_engine([[0, 0, 0]])
        with pytest.raises(TimelineError, match="outside timeline range"):
            eng.apply_block(BlockEntry(1, T0 + 1, 0))


def direct_outflow(rows, j):
    """Each band's count drops from row 0 to row j, summed one row at a time."""
    total = [0] * len(rows[0])
    for old, new in zip(rows[:j], rows[1:j + 1]):
        total = [acc + max(0, a - b) for acc, a, b in zip(total, old, new)]
    return total


def check_carried_outflow(rows, visits):
    """Visit the timeline of rows at the non-decreasing (snapshot, seconds
    into it) instants of visits, submitting one transaction each, in the
    band that the visit's index picks. At every visit the engine's carried
    outflow, and every pending transaction's queue position, must equal a
    direct sum from row 0."""
    edges = [0, 10, 50][:len(rows[0])]
    eng = Ledger(make_timeline(edges, rows))
    entries = []  # (tx id, band, snapshot) per submit
    last = 0
    for n, (i, offset) in enumerate(visits):
        band = n % len(edges)
        eng.submit(n, fee(edges[band]), T0 + 60 * i + offset)
        entries.append((n, band, i))
        now = direct_outflow(rows, i)
        assert eng._outflow == now
        assert eng.timeline.outflow(last, i) == [b - a for a, b in zip(direct_outflow(rows, last), now)]
        last = i
        for tx_id, b, at in entries:
            drained = now[b] - direct_outflow(rows, at)[b]
            assert eng.ahead(tx_id) == max(0, rows[at][b] - drained)


class TestCarriedOutflow:
    """The engine's cumulative outflow, carried from snapshot 0 by adding
    ``MempoolTimeline.outflow`` at each snapshot change, against a direct
    sum from row 0."""

    ROWS = [[9, 4], [2, 6], [2, 1], [5, 0], [0, 3], [7, 7], [1, 2], [1, 0]]
    # int32 counts whose drops sum past 2**31 in both bands
    NEAR_INT32_ROWS = [
        [2**31 - 1, 0], [0, 2**31 - 1], [2**31 - 1, 2**31 - 2], [1, 0],
        [2**31 - 1, 2**31 - 1], [0, 5], [2**31 - 2, 0], [0, 0],
    ]
    VISITS = {
        "late-start": [(6, 0), (7, 0)],  # a first jump to a late start
        "repeated": [(0, 0), (0, 0), (0, 30), (3, 0), (3, 59), (3, 59), (7, 0)],  # repeated visits to one snapshot
        "whole": [(0, 0), (7, 0)],  # one jump across every row
        "stepwise": [(1, 10), (2, 0), (3, 0), (4, 0), (5, 0), (6, 0), (7, 0)],  # one snapshot at a time
    }

    @pytest.mark.parametrize("visits", list(VISITS.values()), ids=list(VISITS))
    @pytest.mark.parametrize("row_slice", [mempool.ROW_SLICE, 1, 3])
    def test_visits(self, monkeypatch, visits, row_slice):
        monkeypatch.setattr(mempool, "ROW_SLICE", row_slice)  # jumps longer than one slice
        check_carried_outflow(self.ROWS, visits)

    @pytest.mark.parametrize("visits", list(VISITS.values()), ids=list(VISITS))
    @pytest.mark.parametrize("row_slice", [mempool.ROW_SLICE, 1, 3])
    def test_int32_counts_near_the_limit(self, monkeypatch, visits, row_slice):
        monkeypatch.setattr(mempool, "ROW_SLICE", row_slice)
        tl = make_timeline([0, 10], self.NEAR_INT32_ROWS)
        assert tl.counts.dtype == np.int32
        assert tl.outflow(0, 7) == direct_outflow(self.NEAR_INT32_ROWS, 7)
        assert min(tl.outflow(0, 7)) >= 2**31  # summed in int64, past int32
        check_carried_outflow(self.NEAR_INT32_ROWS, visits)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 3).flatmap(lambda bands: st.lists(
            st.lists(st.integers(0, 20), min_size=bands, max_size=bands), min_size=1, max_size=12
        )).flatmap(lambda rows: st.tuples(
            st.just(rows),
            st.lists(st.tuples(st.integers(0, len(rows) - 1), st.integers(0, 59)), min_size=1, max_size=8),
            st.integers(1, 4),
        ))
    )
    def test_random_visits(self, case):
        rows, visits, row_slice = case
        last = len(rows) - 1  # the timeline ends at its last snapshot's instant
        visits = sorted((i, offset if i < last else 0) for i, offset in visits)
        with mock.patch.object(mempool, "ROW_SLICE", row_slice):
            check_carried_outflow(rows, visits)

    def test_a_jump_longer_than_a_slice(self):
        rows = [[(7 * i) % 11, (5 * i) % 13] for i in range(2 * mempool.ROW_SLICE + 5)]
        tl = make_timeline([0, 10], rows)
        assert tl.outflow(0, len(rows) - 1) == direct_outflow(rows, len(rows) - 1)
        assert tl.outflow(3, 3) == [0, 0]


class TestApplyBlock:
    def test_single_tx_confirms(self):
        eng = simple_engine([[0, 0, 0]] * 3)
        eng.submit("a", fee(70), T0)
        assert eng.apply_block(BlockEntry(1, T0, 1)) == ["a"]
        assert eng.tx("a").confirmed_height == 1

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
        assert confirmed == ["z-early"]

    def test_id_breaks_simultaneous_ties(self):
        eng = simple_engine([[0, 0, 0]] * 5)
        eng.submit("b", fee(70), T0)
        eng.submit("a", fee(70), T0)
        confirmed = eng.apply_block(BlockEntry(1, T0, 1))
        assert confirmed == ["a"]

    def test_integer_ids_break_ties_numerically(self):
        # as strings, "10" would sort before "9"
        eng = simple_engine([[0, 0, 0]] * 5)
        eng.submit(10, fee(70), T0)
        eng.submit(9, fee(70), T0)
        confirmed = eng.apply_block(BlockEntry(1, T0, 1))
        assert confirmed == [9]

    def test_higher_band_first(self):
        eng = simple_engine([[0, 0, 0]] * 3)
        eng.submit("low", fee(20), T0)
        eng.submit("high", fee(70), T0)
        confirmed = eng.apply_block(BlockEntry(1, T0, 2))
        assert confirmed == ["high", "low"]

    def test_lower_band_can_pass_blocked_higher_band(self):
        # the higher band is saturated but a lower-band tx still fits
        eng = simple_engine([[0, 0, 0], [0, 0, 0]])
        # stuck behind a synthetic backlog; the public API never puts a
        # cohort above its band's current count
        eng.submit("blocked", fee(70), T0).pos = 10**6
        eng.submit("nimble", fee(20), T0)
        confirmed = eng.apply_block(BlockEntry(1, T0, 5))
        assert confirmed == ["nimble"]

    def test_out_of_order_block_rejected(self):
        eng = simple_engine([[0, 0, 0]] * 3)
        eng.apply_block(BlockEntry(5, T0, 1))
        with pytest.raises(ReplayError, match="out of order"):
            eng.apply_block(BlockEntry(5, T0, 1))

    def test_withdraw_removes_from_race(self):
        eng = simple_engine([[0, 0, 0]] * 3)
        group = eng.submit("a", fee(70), T0)
        assert eng.withdraw(group, "a") is None
        assert eng.apply_block(BlockEntry(1, T0, 5)) == []
        assert eng.status("a") == "withdrawn" and eng.pending() == []

    def test_cohort_members_leave_from_the_middle(self):
        eng = simple_engine([[0, 0, 0]] * 3)
        rate = fee(20)
        for tid in ("d", "b", "e", "a", "c"):
            eng.submit(tid, rate, T0)
        eng.withdraw_id("c")
        eng.withdraw_id("b")
        assert cohorts(eng) == [(1, T0, fee(20), ["a", "d", "e"])]
        assert eng.apply_block(BlockEntry(1, T0 + 60, 10)) == ["a", "d", "e"]
        assert eng.status("c") == eng.status("b") == "withdrawn"

    @pytest.mark.parametrize("block_between", [False, True])
    def test_emptied_cohort_rejoined_at_its_instant_keeps_its_position(self, block_between):
        eng = simple_engine([[0, 40, 0], [0, 25, 0], [0, 25, 0]])
        rate = fee(20)
        emptied = eng.submit("a", rate, T0)
        eng.withdraw(emptied, "a")
        if block_between:  # drops the emptied cohort
            assert eng.apply_block(BlockEntry(1, T0, 5)) == []
        assert eng.submit("b", rate, T0) is not emptied  # the withdrawal ended the group
        assert cohorts(eng)[-1] == (1, T0, fee(20), ["b"])
        assert len(cohorts(eng)) == (1 if block_between else 2)
        assert eng.ahead("b") == 40
        eng.apply_block(BlockEntry(2, T0 + 60, 0))
        assert eng.ahead("b") == 25  # drained 15 by outflow
        assert eng.apply_block(BlockEntry(3, T0 + 60, 26)) == ["b"]

    def test_fees_of_one_band_and_instant_confirm_in_id_order(self):
        # three fees of band 1 at T0, one object each, give four groups (the
        # run of "b" and "d" is one), all behind the band's 3 historical
        # transactions: they tie, and confirm by id
        eng = simple_engine([[0, 3, 0]] * 3)
        rates = {rate: fee(rate) for rate in (20, 25, 30)}
        for tid, rate in (("e", 20), ("b", 30), ("d", 30), ("a", 20), ("c", 25)):
            eng.submit(tid, rates[rate], T0)
        assert len(cohorts(eng)) == 4
        confirmed = eng.apply_block(BlockEntry(1, T0, 6))  # room for 3 of the 5
        assert [(tx.id, tx.fee, tx.confirmed_height) for tx in map(eng.tx, confirmed)] == [
            ("a", fee(20), 1), ("b", fee(30), 1), ("c", fee(25), 1),
        ]
        assert eng.pending() == ["d", "e"]  # id order
        assert eng.apply_block(BlockEntry(2, T0 + 60, 10)) == ["d", "e"]

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

    @pytest.mark.parametrize("avg", [0, -3, math.inf, math.nan])
    def test_constant_average_must_be_positive_and_finite(self, avg):
        with pytest.raises(ValueError, match="positive and finite"):
            ConstantAverage(avg)

    @pytest.mark.parametrize("avg", [2000.1, 0.3])
    def test_constant_average_cumulative_capacity_is_exact(self, avg):
        # a float carry drifts one below floor(i * avg) in 2000 of these blocks
        eng = ReplayEngine(constant_timeline([0, 10, 50], [0, 0, 0], 2), ConstantAverage(avg))
        rate = Fraction(str(avg))
        total = 0
        for i in range(1, 20_001):
            total += eng._block_capacity(BlockEntry(i, T0, 0))
            assert total == math.floor(i * rate), f"block {i}"


class TestCohortHome:
    """A pending transaction lives in its group's member list, and the
    group holds its fee, band and instant: a bump renames the group and
    moves none of its members, and a member that left is not moved."""

    def test_a_bump_touches_no_member(self):
        eng = simple_engine([[0, 0, 9]] * 3)
        rate = fee(20)
        for i in range(5):
            cohort = eng.submit(i, rate, T0)
        members = cohort.members
        eng.bump(cohort, fee(70), T0 + 60)
        assert cohort.members is members and members == [0, 1, 2, 3, 4]  # renamed in place
        assert cohorts(eng) == [(2, T0 + 60, fee(70), [0, 1, 2, 3, 4])]
        assert [(tx.fee, tx.band, tx.queued_at, eng.ahead(tx.id)) for tx in map(eng.tx, range(5))] == [
            (fee(70), 2, T0 + 60, 9)
        ] * 5
        assert eng.apply_block(BlockEntry(1, T0 + 60, 12)) == [0, 1, 2]

    @pytest.mark.parametrize("leave", ["withdraw", "confirm"])
    def test_a_bump_after_a_member_left_moves_the_others(self, leave):
        eng = simple_engine([[0, 0, 0]] * 3)
        rate = fee(20)
        for tid in ("a", "b", "c"):
            cohort = eng.submit(tid, rate, T0)
        if leave == "withdraw":
            eng.withdraw(cohort, "a")
        else:
            assert eng.apply_block(BlockEntry(1, T0, 1)) == ["a"]
        eng.bump(cohort, fee(70), T0 + 60)
        assert cohorts(eng) == [(2, T0 + 60, fee(70), ["b", "c"])]
        eng.withdraw(cohort, "b")  # withdrawn under the cohort's new name
        with pytest.raises(ReplayError, match="'a' is not pending in this group"):
            eng.withdraw(cohort, "a")
        assert cohorts(eng) == [(2, T0 + 60, fee(70), ["c"])]
        assert [(tx.id, tx.fee) for tx in map(eng.tx, eng.pending())] == [("c", fee(70))]


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
        eng.withdraw_id("t03")
        for h in range(1, 6):
            eng.apply_block(BlockEntry(h, T0 + 60 * (h - 1), 3))
        statuses = [eng.status(f"t{i:02d}") for i in range(20)]
        assert set(statuses) <= {"pending", "confirmed", "withdrawn"}
        confirmed = statuses.count("confirmed")
        assert statuses.count("withdrawn") == 1
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
            groups = [eng.submit(f"t{i:02d}", fee(20 if i % 3 else 70), T0) for i in range(40)]
            heights = {}
            for h in range(1, 25):
                ts = T0 + 60 * (h - 1)
                for tx_id in eng.apply_block(BlockEntry(h, ts, 4)):
                    heights[tx_id] = eng.tx(tx_id).confirmed_height
                if h % 5 == 0:
                    for group in groups:
                        if len(group):
                            eng.bump(group, group.fee.bumped(1.5), ts)
            return heights

        assert run() == run() == run()

    def test_bump_to_empty_band_never_later(self):
        # monotone priority in the restricted case: the target band is empty
        def confirmation_height(bump):
            eng = simple_engine([[0, 50, 0]] * 40)
            group = eng.submit("x", fee(20), T0)
            for h in range(1, 30):
                ts = T0 + 60 * (h - 1)
                if bump and h == 3:
                    eng.bump(group, fee(70), ts)
                if "x" in eng.apply_block(BlockEntry(h, ts, 2)):
                    return eng.tx("x").confirmed_height
            return None

        plain = confirmation_height(bump=False)
        bumped = confirmation_height(bump=True)
        assert bumped is not None
        assert plain is None or bumped <= plain
