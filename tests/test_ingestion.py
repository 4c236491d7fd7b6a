"""Event-log parsing and inter-event duration extraction."""
import csv
import io
import math
import os
import re
import struct
import tempfile
import tracemalloc
from array import array
from contextlib import contextmanager
from functools import partial
from itertools import cycle
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tailfit import DurationSample, IngestSummary, interevent_durations, parse_events
from tailfit import floattext, ingestion, pool
from tailfit.ingestion import (
    EventBatch,
    check_malformed_fraction,
    read_durations_binary,
    read_durations_text,
    write_durations_binary,
    write_durations_text,
)

CSV = """actor,timestamp,direction
alice,100,outbound
alice,160,outbound
alice,160,inbound
alice,400,outbound
bob,7,outbound
bob,10,outbound
carol,5,outbound
"""


# The per-row pipeline the columnar one replaced, kept as the reference
# that the property tests below compare against.
class Event(NamedTuple):
    actor: str
    timestamp: float
    direction: str | None


def reference_parse_events(stream, summary):
    reader = csv.reader(stream)
    header = next(reader, None)
    if header is None:
        raise ValueError("empty input")
    columns = [c.strip().lower() for c in header]
    if "actor" not in columns or "timestamp" not in columns:
        raise ValueError("expected CSV header actor,timestamp[,direction]")
    i_actor = columns.index("actor")
    i_ts = columns.index("timestamp")
    i_dir = columns.index("direction") if "direction" in columns else None
    for row in reader:
        summary.events_read += 1
        try:
            actor = row[i_actor]
            timestamp = float(row[i_ts])
        except (IndexError, ValueError):
            summary.events_dropped += 1
            continue
        if not actor or not np.isfinite(timestamp) or timestamp < 0:
            summary.events_dropped += 1
            continue
        direction = row[i_dir] if i_dir is not None and len(row) > i_dir else None
        yield Event(actor, timestamp, direction)


def reference_interevent_durations(events, direction, summary):
    by_actor = {}
    for ev in events:
        if direction is not None and ev.direction != direction:
            continue
        by_actor.setdefault(ev.actor, array("d")).append(ev.timestamp)
    summary.actors = len(by_actor)

    def gaps(timestamps):
        ts = np.sort(np.frombuffer(timestamps, dtype=float))
        d = np.diff(ts)
        positive = d[d > 0]
        summary.zero_gaps_dropped += int(d.size - positive.size)
        summary.durations_emitted += int(positive.size)
        return positive

    pooled = [g for g in (gaps(ts) for ts in by_actor.values()) if g.size]
    if not pooled:
        raise ValueError("no positive inter-event durations in input")
    return DurationSample(np.sort(np.concatenate(pooled))), summary


def reference_read_durations_text(stream):
    values = array("d")
    bad = 0
    for line in stream:
        line = line.strip()
        if not line:
            continue
        try:
            values.append(float(line))
        except ValueError:
            bad += 1
    if not values:
        raise ValueError("no durations in input")
    if bad > len(values):
        raise ValueError(f"{bad} malformed duration lines")
    return DurationSample(np.sort(np.frombuffer(values, dtype=float)))


def reference_write_durations_text(s, stream):
    # repr of a Python float is the shortest exact decimal representation.
    stream.write("".join(f"{v!r}\n" for v in s.values.tolist()))


def outcome(fn, *args):
    """A call's result, or the type and message of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return (type(exc), str(exc))


def comparable(result):
    """A pipeline outcome with its sample as bytes, so that == compares
    it bit for bit."""
    if isinstance(result[0], type):
        return result
    sample, summary = result
    return sample.values.tobytes(), summary.to_dict()


def events_of(batches):
    """(actor, timestamp) of every event, in file order."""
    return [
        (b.actors[c], t) for b in batches for c, t in zip(b.codes.tolist(), b.timestamps.tolist())
    ]


def exact_events(batches):
    """events_of with each timestamp as its eight bytes, and the batches'
    counts of rows read and dropped."""
    batches = list(batches)
    counts = sum(b.rows for b in batches), sum(b.dropped for b in batches)
    return [(a, struct.pack("<d", t)) for a, t in events_of(batches)], counts


class TestParseEvents:
    def test_parses_records(self):
        batches = list(parse_events(io.StringIO(CSV)))
        assert sum(b.codes.size for b in batches) == 7
        b = batches[0]
        assert b.timestamps.dtype == np.float64 and b.codes.dtype == np.int32
        assert events_of(batches)[0] == ("alice", 100.0)

    def test_optional_direction_column(self):
        text = "actor,timestamp\nx,1\nx,2\n"
        assert events_of(parse_events(io.StringIO(text))) == [("x", 1.0), ("x", 2.0)]
        # A log without the column holds no event of a direction; its rows
        # are still counted.
        batches = list(parse_events(io.StringIO(text), "outbound"))
        assert events_of(batches) == [] and batches[0].rows == 2

    def test_malformed_lines_counted_and_skipped(self):
        text = "actor,timestamp\nx,1\nx,notanumber\n,5\nx,-3\nx,2\n"
        batches = list(parse_events(io.StringIO(text)))
        assert sum(b.codes.size for b in batches) == 2
        assert (sum(b.rows for b in batches), sum(b.dropped for b in batches)) == (5, 3)
        _, summary = interevent_durations(batches)
        assert summary.events_read == 5
        assert summary.events_dropped == 3
        # 3 of 5 lines malformed exceeds the half threshold.
        with pytest.raises(ValueError):
            check_malformed_fraction(summary)

    def test_minor_malformed_fraction_tolerated(self):
        text = "actor,timestamp\nx,1\nx,bad\nx,2\nx,3\nx,4\n"
        _, summary = interevent_durations(parse_events(io.StringIO(text)))
        check_malformed_fraction(summary)

    def test_rejects_missing_header(self):
        with pytest.raises(ValueError):
            list(parse_events(io.StringIO("time,who\n1,x\n")))

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError):
            list(parse_events(io.StringIO("")))


class TestIntereventDurations:
    def test_pooled_gaps(self):
        events = list(parse_events(io.StringIO(CSV)))
        sample, summary = interevent_durations(events)
        # alice: gaps 60, 0 (dropped), 240; bob: 3; carol: single event.
        np.testing.assert_array_equal(sample.values, [3.0, 60.0, 240.0])
        assert summary.zero_gaps_dropped == 1
        assert summary.durations_emitted == 3
        assert summary.actors == 3

    def test_parse_counts_reach_the_returned_summary(self):
        _, summary = interevent_durations(parse_events(io.StringIO(CSV + "dave\n")))
        assert (summary.events_read, summary.events_dropped) == (8, 1)

    def test_peak_memory_on_grouped_log(self):
        # 10^6 events of 200 actors, grouped by actor, in batches of
        # CHUNK_ROWS rows. The stage holds the columns, 12 bytes an event
        # (a float64 stamp and an int32 code), which grow up to 1/16 past
        # their size, and takes the gaps in place in the stamps column; so
        # nothing else event-sized. The passes over the columns take at
        # most 16 bytes a COUNT_BLOCK event (an int64 copy of the codes,
        # or a float64 copy of the stamps, and a bool mask), and a batch
        # at most 32 bytes a CHUNK_ROWS row (its codes, their int64 sort
        # order and copies) on top of that.
        n, actors = 10**6, 200
        rng = np.random.default_rng(19)
        codes = np.repeat(np.arange(actors, dtype=np.int32), n // actors)
        stamps = np.cumsum(np.floor(rng.exponential(50.0, n)))  # some gaps 0

        def batches():
            for lo in range(0, n, ingestion.CHUNK_ROWS):
                hi = min(n, lo + ingestion.CHUNK_ROWS)
                first, last = int(codes[lo]), int(codes[hi - 1])
                yield EventBatch(
                    stamps[lo:hi], codes[lo:hi] - first,
                    [f"u{a}" for a in range(first, last + 1)], hi - lo, 0,
                )

        tracemalloc.start()
        try:
            sample, summary = interevent_durations(batches())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        gaps = np.diff(stamps.reshape(actors, -1), axis=1)
        np.testing.assert_array_equal(sample.values, np.sort(gaps[gaps > 0]))
        assert summary.durations_emitted + summary.zero_gaps_dropped == n - actors
        assert peak <= 12 * n * 17 // 16 + 16 * ingestion.COUNT_BLOCK + 32 * ingestion.CHUNK_ROWS

    @pytest.mark.parametrize("grouped", [True, False])
    @pytest.mark.parametrize("late", [0, 1, 2])
    def test_out_of_order_stamps_match_lexsort(self, grouped, late):
        # Stamps out of file order within actors, over several gap blocks:
        # the descents lie in the first block only (late=0), at the start
        # of the last one (late=1), or right at a block boundary (late=2).
        # The gaps are written over the stamps from the last block back,
        # so the lexsort route must be chosen before any is written.
        block, actors = ingestion.COUNT_BLOCK, 7
        n = 3 * block + 123
        rng = np.random.default_rng(23 + late)
        codes = np.repeat(np.arange(actors, dtype=np.int32), -(-n // actors))[:n]
        stamps = np.cumsum(np.round(rng.exponential(1.0, n), 1))  # ties give zero gaps
        at = [5, 3 * block + 2, 2 * block][late]
        stamps[at], stamps[at + 1] = stamps[at + 1] + 0.5, stamps[at]
        if not grouped:
            shuffle = rng.permutation(n)
            codes, stamps = codes[shuffle], stamps[shuffle]
        # The reference: one lexsort by (actor, timestamp), one diff.
        order = np.lexsort((stamps, codes))
        ref_stamps, ref_codes = stamps[order], codes[order]
        within = ref_codes[1:] == ref_codes[:-1]
        ref_gaps = np.diff(ref_stamps)[within]
        names = [f"u{k}" for k in range(actors)]
        with mock.patch.object(np, "lexsort", wraps=np.lexsort) as lexsort:
            sample, summary = interevent_durations([EventBatch(stamps, codes, names, n, 0)])
        assert lexsort.call_count == 1
        np.testing.assert_array_equal(sample.values, np.sort(ref_gaps[ref_gaps > 0]))
        assert summary.to_dict() == {
            "events_read": n,
            "events_dropped": 0,
            "actors": actors,
            "durations_emitted": int(np.count_nonzero(ref_gaps)),
            "zero_gaps_dropped": int(np.count_nonzero(ref_gaps == 0)),
        }

    def test_direction_filter(self):
        sample, summary = interevent_durations(parse_events(io.StringIO(CSV), "outbound"))
        # alice outbound: 100,160,400 -> gaps 60, 240; bob: 3.
        np.testing.assert_array_equal(sample.values, [3.0, 60.0, 240.0])
        # Rows of any direction are read; none is malformed.
        assert (summary.events_read, summary.events_dropped) == (7, 0)

    def test_unsorted_timestamps_are_sorted_per_actor(self):
        events = parse_events(io.StringIO("actor,timestamp\na,50\na,10\na,30\n"))
        sample, _ = interevent_durations(events)
        np.testing.assert_array_equal(sample.values, [20.0, 20.0])

    def test_actors_in_first_seen_order_of_kept_events(self, tmp_path):
        # b's first event precedes a's first outbound one, in the numpy
        # block parser (a file) and in csv.reader's chunks (a stream). The
        # malformed row, of another direction, is counted all the same.
        text = "actor,timestamp,direction\na,1,inbound\nb,1,outbound\na,2,outbound\n"
        text += "b,3,outbound\na,5,outbound\n,7,inbound\n"
        path = tmp_path / "events.csv"
        path.write_text(text)
        with open(path) as fh:
            from_file = list(parse_events(fh, "outbound"))
        for batches in (from_file, list(parse_events(io.StringIO(text), "outbound"))):
            assert [(b.actors, b.rows, b.dropped) for b in batches] == [(["b", "a"], 6, 1)]

    def test_no_durations_raises(self):
        with pytest.raises(ValueError):
            interevent_durations(parse_events(io.StringIO("actor,timestamp\na,1\n")))

    @pytest.mark.parametrize(
        "actors, in_file_order, key_dtype, lexsorts",
        [
            (300, True, np.uint16, 0),  # radix sort of 16-bit codes
            (70000, True, np.int32, 0),  # more actors than 16 bits number
            (300, False, np.uint16, 1),  # stamps out of file order: lexsort
        ],
    )
    def test_gap_routes_give_lexsort_order(self, actors, in_file_order, key_dtype, lexsorts):
        rng = np.random.default_rng(actors)
        n = 3 * actors
        codes = rng.permutation(np.arange(n) % actors).astype(np.int32)
        stamps = np.round(rng.exponential(1.0, n), 1)  # ties give zero gaps
        if in_file_order:
            stamps = np.cumsum(stamps)
        names = [f"u{k}" for k in range(actors)]
        events = [Event(names[c], t, None) for c, t in zip(codes.tolist(), stamps.tolist())]
        want = reference_interevent_durations(events, None, IngestSummary(n))
        batch = EventBatch(stamps, codes, names, n, 0)
        with mock.patch.object(np, "argsort", wraps=np.argsort) as argsort, \
                mock.patch.object(np, "lexsort", wraps=np.lexsort) as lexsort:
            got = interevent_durations([batch])
        keys = [c.args[0] for c in argsort.call_args_list if c.kwargs.get("kind") == "stable"]
        assert [k.dtype for k in keys] == [key_dtype]
        assert lexsort.call_count == lexsorts
        assert comparable(got) == comparable(want)


    @pytest.mark.parametrize("actors", [1, 300, 70000])
    def test_grouped_log_takes_no_sort(self, actors):
        # Each actor's events in one run, actors in first-seen order: the
        # stable sort by actor would return the identity, so it is skipped
        # along with its gather.
        rng = np.random.default_rng(actors)
        n = 3 * actors
        codes = np.repeat(np.arange(actors, dtype=np.int32), 3)
        stamps = np.cumsum(np.round(rng.exponential(1.0, n), 1))
        names = [f"u{k}" for k in range(actors)]
        events = [Event(names[c], t, None) for c, t in zip(codes.tolist(), stamps.tolist())]
        want = reference_interevent_durations(events, None, IngestSummary(n))
        batch = EventBatch(stamps, codes, names, n, 0)
        with mock.patch.object(np, "argsort", wraps=np.argsort) as argsort, \
                mock.patch.object(np, "lexsort", wraps=np.lexsort) as lexsort:
            got = interevent_durations([batch])
        assert [c for c in argsort.call_args_list if c.kwargs.get("kind") == "stable"] == []
        assert lexsort.call_count == 0
        assert comparable(got) == comparable(want)


STAMPS = ["nan", "inf", "-3", "1_000", " 12 ", "", "x", "-0", "1e3", "2.5", "0"] + [
    str(k) for k in range(8)
]
# Stamps at and past the edges of the block parser's digits[.digits] form
# with a digit string of at most 2**53.
STAMPS += [
    ".5", "5.", ".", "007", "9007199254740992", "9007199254740993",
    "900719925474099.3", "1234567890.123456", "+1", "1.5e-3",
    # Past 2**53, where float64(M) / 10 is not the correctly rounded value;
    # 2**64 + 5, whose digits wrap a uint64 to 5.
    "1014403211915866.5", "18446744073709551621",
]
# The stamps of that form, so that whole blocks of them occur.
DIGIT_STAMPS = [s for s in STAMPS if s.replace(".", "", 1).isdigit()]
ACTORS = ["", "a", "b", "c,d", 'q"r', " e", "é"]
PLAIN_ACTORS = ["", "a", "b", " e", "é"]  # none is quoted in CSV
QUOTED_ACTORS = ACTORS + ["m\nn"]  # a newline in a quoted field
# Field values, and the values a filter asks for: their widths, case,
# a trailing NUL (which numpy's fixed-width byte keys ignore) or a
# character outside ASCII must tell them apart.
DIRECTIONS = ["outbound", "inbound", "", "Outbound", "outbound ", "ø"]
WANTED = [None, "outbound", "inbound", "", "outbound\0", "outbound ", "Outbound", "ø"]


# Rows the numpy block parser takes: ASCII, unquoted, digits[.digits] stamps.
BLOCK_ACTORS = [a for a in PLAIN_ACTORS if a.isascii()]
BLOCK_DIRECTIONS = [d for d in DIRECTIONS if d.isascii()]


@st.composite
def event_logs(draw, actors=ACTORS, stamps=STAMPS):
    """CSV text with columns in any order, extra columns, malformed stamps,
    short and long rows, blank lines, empty and quoted actors, and
    duplicate and unsorted timestamps, with or without a direction column.
    In half the draws every row is full, with a direction column, ASCII
    unquoted actors and digit stamps: blocks the numpy parser takes whole,
    so that its direction filter meets every requested value."""
    plain = draw(st.booleans())
    names = ["actor", "timestamp"]
    if plain or draw(st.booleans()):
        names.append("direction")
    names += ["extra"] * draw(st.integers(0, 2))
    names = draw(st.permutations(names))
    header = [draw(st.sampled_from([n, n.upper(), f" {n} "])) for n in names]
    rows = [header]
    if plain:
        actors, stamps, directions = BLOCK_ACTORS, DIGIT_STAMPS, BLOCK_DIRECTIONS
    else:
        directions = DIRECTIONS
    fields = {
        "actor": st.sampled_from(actors),
        "timestamp": st.sampled_from(stamps),
        "direction": st.sampled_from(directions),
        "extra": st.sampled_from(["", "z"]),
    }
    kinds = ["full"] if plain else ["full", "full", "full", "short", "long", "blank"]
    for _ in range(draw(st.integers(0, 40))):
        row = [draw(fields[n]) for n in names]
        kind = draw(st.sampled_from(kinds))
        if kind == "short":
            row = row[: draw(st.integers(1, len(row) - 1))]
        elif kind == "long":
            row.append(draw(fields["extra"]))
        elif kind == "blank":
            row = []
        rows.append(row)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


@st.composite
def duration_lines(draw):
    """Lines of a duration file: exact reprs, padded and underscored
    numbers, blank and malformed lines, and in half the cases one value
    that no sample may hold."""
    line = st.one_of(
        st.floats(min_value=1e-300, max_value=1e300).map(repr),
        st.sampled_from(["1_000", " 12 ", "", "  ", "x", "7"]),
    )
    lines = draw(st.lists(line, max_size=30))
    if draw(st.booleans()):
        bad = draw(st.sampled_from(["nan", "inf", "-3", "0"]))
        lines.insert(draw(st.integers(0, len(lines))), bad)
    return lines


class TestColumnarMatchesPerRow:
    @settings(max_examples=300, deadline=None)
    @given(event_logs(), st.sampled_from(WANTED), st.integers(1, 6))
    def test_same_sample_and_summary(self, text, direction, chunk):
        ref_summary = IngestSummary()
        expected = outcome(
            reference_interevent_durations,
            reference_parse_events(io.StringIO(text), ref_summary),
            direction,
            ref_summary,
        )
        with mock.patch.object(ingestion, "CHUNK_ROWS", chunk):
            got = outcome(lambda: interevent_durations(parse_events(io.StringIO(text), direction)))
        assert comparable(got) == comparable(expected)

    @settings(max_examples=200, deadline=None)
    @given(duration_lines(), st.integers(1, 6))
    def test_text_read_and_write_match_per_line(self, lines, chunk):
        text = "".join(f"{line}\n" for line in lines)
        with mock.patch.object(ingestion, "CHUNK_ROWS", chunk):
            expected = outcome(reference_read_durations_text, io.StringIO(text))
            got = outcome(read_durations_text, io.StringIO(text))
            if isinstance(expected, tuple):
                assert got == expected
                return
            assert got.values.tobytes() == expected.values.tobytes()
            buf = io.StringIO()
            write_durations_text(got, buf)
        assert buf.getvalue() == "".join(f"{v!r}\n" for v in expected.values.tolist())


class TestDurationIO:
    def test_text_roundtrip_exact(self):
        s = DurationSample(np.array([1.5, 2.25, 1e-3, 12345.678901234567]))
        buf = io.StringIO()
        write_durations_text(s, buf)
        buf.seek(0)
        back = read_durations_text(buf)
        np.testing.assert_array_equal(back.values, s.values)

    def test_binary_roundtrip_exact(self):
        s = DurationSample(np.array([0.1, 59.0, 3600.0, 9.99e99]))
        buf = io.BytesIO()
        write_durations_binary(s, buf)
        buf.seek(0)
        back = read_durations_binary(buf)
        np.testing.assert_array_equal(back.values, s.values)

    def test_binary_bad_magic(self):
        with pytest.raises(ValueError):
            read_durations_binary(io.BytesIO(b"NOPE" + b"\x00" * 16))

    def test_binary_truncated(self):
        s = DurationSample(np.array([1.0, 2.0]))
        buf = io.BytesIO()
        write_durations_binary(s, buf)
        data = buf.getvalue()[:-4]
        with pytest.raises(ValueError):
            read_durations_binary(io.BytesIO(data))

    def test_text_skips_blank_lines(self):
        back = read_durations_text(io.StringIO("1.0\n\n2.0\n"))
        np.testing.assert_array_equal(back.values, [1.0, 2.0])

    def test_text_empty_raises(self):
        with pytest.raises(ValueError):
            read_durations_text(io.StringIO(""))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_text_peak_memory(self, tmp_path, workers):
        # 10^6 durations of about 18 characters a line, read in blocks of
        # B = 256 KiB. The reader holds one float64 array, 8 bytes a line
        # of the file, and one range in flight. In this process that is
        # one block: its bytes, as read, joined with the carry and cut (3B),
        # its line offsets and values (32 bytes a line of at least 18
        # bytes, under 2B) and the kernel's temporaries on CHUNK_ROWS lines
        # (an index and a few bytes a character, under 8B): under 16B in
        # all. From two workers it is at most a range of each, an eighth
        # of the lines, as pickled bytes and as values: 4 bytes a line in
        # all, and the line count's block and mask (2B).
        n, block = 10**6, 1 << 18
        path = tmp_path / "durations.txt"
        values = np.exp(np.random.default_rng(5).normal(4.0, 1.0, n))
        with open(path, "w") as fh:
            write_durations_text(DurationSample(values), fh)
        extra = 16 * block if workers == 1 else 4 * n + 2 * block
        with mock.patch.object(pool, "_usable_cpus", lambda: 2), \
                mock.patch.object(ingestion, "BLOCK_BYTES", block), open(path) as fh:
            tracemalloc.start()
            try:
                sample = read_durations_text(fh, workers)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        np.testing.assert_array_equal(sample.values, np.sort(values))
        assert peak <= 8 * n + extra


def on_disk(data: bytes, run):
    """``run(path)`` with ``data`` in a file at ``path``."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "input")
        with open(path, "wb") as fh:
            fh.write(data)
        return run(path)


# "mixed" ends the lines with LF, CRLF and CR in turn.
LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r", "mixed"])


def with_line_ends(text: str, end: str, trailing: bool) -> bytes:
    ends = cycle(["\n", "\r\n", "\r"] if end == "mixed" else [end])
    text = re.sub("\n", lambda _: next(ends), text)
    if not trailing:
        text = text.rstrip("\r\n")
    return text.encode()


WORKERS = (1, 2, 3)


class TestWorkerRanges:
    """An event CSV file parsed in blocks, by numpy or by csv.reader, gives
    what the csv path gives on the same text; formatting and reading
    duration text in ranges by forked workers give the serial results
    exactly. The pool threshold is lowered to one byte and the CPU cap
    lifted, so that three workers really run on any host; CHUNK_ROWS is
    small, so that a range holds several chunks."""

    @contextmanager
    def small_pool(self, chunk):
        with mock.patch.multiple(ingestion, CHUNK_ROWS=chunk, POOL_MIN_BYTES=1):
            with mock.patch.object(pool, "_usable_cpus", lambda: 3):
                yield

    @settings(max_examples=200, deadline=None)
    @given(
        st.tuples(
            st.sampled_from([PLAIN_ACTORS, QUOTED_ACTORS]),
            st.sampled_from([STAMPS, DIGIT_STAMPS]),
        ).flatmap(lambda kinds: event_logs(*kinds)),
        st.sampled_from(WANTED),
        st.integers(1, 6),
        st.integers(8, 64),
        LINE_ENDS,
        st.booleans(),
    )
    # numpy's "S" keys compare equal without their trailing NULs; a field
    # that only starts with the value is another one.
    @example("actor,timestamp,direction\na,1,outbound\na,2,outbound\n", "outbound\0", 1, 64,
             "\n", True)
    @example("actor,timestamp,direction\na,1,outbound \na,2,outbound \n", "outbound", 1, 64,
             "\n", True)
    def test_parse_matches_serial(self, text, direction, chunk, block, end, trailing):
        # Blocks of a few dozen bytes: lines straddle the cuts, and blocks
        # the numpy parser takes mix with blocks it declines.
        data = with_line_ends(text, end, trailing)
        universal = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")

        def run(open_stream):
            with open_stream() as fh:
                got = [outcome(lambda: exact_events(parse_events(fh, direction)))]
            with open_stream() as fh:
                got.append(comparable(outcome(
                    lambda: interevent_durations(parse_events(fh, direction))
                )))
            return got

        with mock.patch.multiple(ingestion, CHUNK_ROWS=chunk, BLOCK_BYTES=block):
            blocks = on_disk(data, lambda path: run(partial(open, path, encoding="utf-8")))
            serial = run(lambda: io.StringIO(universal))
        assert blocks == serial

    @settings(max_examples=200, deadline=None)
    @given(event_logs(PLAIN_ACTORS), st.sampled_from(WANTED), st.integers(1, 6),
           st.integers(8, 64))
    def test_batches_number_their_actors_in_first_seen_order(self, text, direction, chunk, block):
        # What _columns relies on, from the numpy block parser (a file in
        # blocks of a few dozen bytes, with blocks it declines) and from
        # csv.reader (a stream): code k is the batch's k-th distinct actor,
        # and every listed actor has an event.
        def batches(open_stream):
            with open_stream() as fh:
                return outcome(lambda: list(parse_events(fh, direction)))

        with mock.patch.multiple(ingestion, CHUNK_ROWS=chunk, BLOCK_BYTES=block):
            from_file = on_disk(
                text.encode(), lambda path: batches(partial(open, path, encoding="utf-8"))
            )
            from_stream = batches(lambda: io.StringIO(text))
        for got in (from_file, from_stream):
            if isinstance(got, tuple):
                continue  # a header neither parser reads
            for b in got:
                assert b.codes.dtype == np.int32
                assert list(dict.fromkeys(b.codes.tolist())) == list(range(len(b.actors)))

    @settings(max_examples=40, deadline=None)
    @given(duration_lines(), st.integers(1, 6), LINE_ENDS, st.booleans())
    # Lines longer than a whole range (12 ranges of about 18 bytes), so that
    # the ranges they cross own no line.
    @example(["1.5", " " * 100 + "7", "2.25", "3" * 80], 1, "\n", True)
    def test_read_and_write_match_serial(self, lines, chunk, end, trailing):
        data = with_line_ends("".join(f"{line}\n" for line in lines), end, trailing)

        def read(path):
            results = []
            for workers in WORKERS:
                with open(path, encoding="utf-8") as fh:
                    got = outcome(read_durations_text, fh, workers)
                results.append(got if isinstance(got, tuple) else got.values.tobytes())
            return results

        def write(sample, workers):
            def run(path):
                with open(path, "w", encoding="utf-8") as fh:
                    write_durations_text(sample, fh, workers)
                with open(path, "rb") as fh:
                    return fh.read()

            return on_disk(b"", run)

        with self.small_pool(chunk):
            results = on_disk(data, read)
            assert results[1] == results[0]
            assert results[2] == results[0]
            if isinstance(results[0], tuple):
                return
            sample = DurationSample(np.frombuffer(results[0]))
            written = [write(sample, workers) for workers in WORKERS]
        assert written[0] == "".join(f"{v!r}\n" for v in sample.values.tolist()).encode()
        assert written[1] == written[0]
        assert written[2] == written[0]

    @contextmanager
    def pool_sizes(self):
        """The number of workers each read_durations_text call in the block
        starts in a pool (1 for none): the worker count it passes to
        run_ranges, capped as run_ranges caps it."""
        sizes = []

        def spy(task, ranges, workers):
            sizes.append(min(pool.usable_workers(workers), len(ranges)))
            return run_ranges(task, ranges, workers)

        run_ranges = ingestion.run_ranges
        with mock.patch.object(ingestion, "run_ranges", spy):
            yield sizes

    def test_other_encodings_take_one_range(self, tmp_path):
        path = tmp_path / "durations.txt"
        path.write_text("1.5\n" * 50, encoding="utf-16")
        with self.small_pool(1), self.pool_sizes() as sizes:
            with open(path, encoding="utf-16") as fh:
                assert read_durations_text(fh, 3).n == 50
            assert sizes in ([], [1])
            # The same lines in UTF-8 do go to the pool.
            path.write_text("1.5\n" * 50, encoding="utf-8")
            with open(path, encoding="utf-8") as fh:
                assert read_durations_text(fh, 3).n == 50
            assert sizes[-1] == 3

    def test_stream_takes_one_range(self):
        # A pipe has a file descriptor, but no size and no positions.
        read_fd, write_fd = os.pipe()
        with open(write_fd, "w") as fh:
            fh.write("1.5\n" * 50)
        with self.small_pool(1), self.pool_sizes() as sizes, open(read_fd) as fh:
            assert read_durations_text(fh, 3).n == 50
        assert sizes in ([], [1])

    def test_malformed_lines_counted_over_all_ranges(self, tmp_path):
        # The first ranges hold only malformed lines, the file fewer of
        # them than values; then the other way round.
        few, many = tmp_path / "few.txt", tmp_path / "many.txt"
        few.write_text("x\n" * 30 + "1.5\n" * 100)
        many.write_text("1.5\n" * 10 + "x\n" * 30)
        with self.small_pool(1):
            for workers in WORKERS:
                with open(few) as fh:
                    assert read_durations_text(fh, workers).n == 100
                with open(many) as fh, pytest.raises(ValueError, match="30 malformed"):
                    read_durations_text(fh, workers)

    def test_stream_past_its_start_is_read_from_there(self, tmp_path):
        # Lines already read from the stream are not parsed again, by the
        # block parser or in workers: the result is the serial one on the rest.
        events, durations = tmp_path / "events.csv", tmp_path / "durations.txt"
        rest = "actor,timestamp\n" + "".join(f"a{k % 7},{k * k % 97}\n" for k in range(300))
        events.write_text("# exported log\n" + rest)
        durations.write_text("7.25\n" * 40 + "".join(f"{k + 0.5}\n" for k in range(60)))
        want_events = comparable(interevent_durations(parse_events(io.StringIO(rest))))
        with self.small_pool(16):
            with open(events) as fh:
                fh.readline()
                assert comparable(interevent_durations(parse_events(fh))) == want_events
            for workers in WORKERS:
                with open(durations) as fh:
                    for _ in range(40):
                        fh.readline()
                    assert read_durations_text(fh, workers).values.tolist() == [
                        k + 0.5 for k in range(60)
                    ]

    def test_small_file_takes_one_range(self, tmp_path):
        path = tmp_path / "durations.txt"
        path.write_text("1.5\n" * 50)
        with mock.patch.object(pool, "_usable_cpus", lambda: 3), self.pool_sizes() as sizes:
            with open(path) as fh:
                assert read_durations_text(fh, 3).n == 50
            assert sizes == [1]
            with mock.patch.object(ingestion, "POOL_MIN_BYTES", path.stat().st_size):
                with open(path) as fh:
                    assert read_durations_text(fh, 3).n == 50
            assert sizes[-1] == 3

    def big_csv(self, tmp_path, bad_line: bytes) -> str:
        """A log whose bad line lies in one of its later blocks."""
        path = tmp_path / "events.csv"
        path.write_bytes(b"actor,timestamp\n" + b"a,1\n" * 5000 + bad_line + b"a,2\n" * 5000)
        return str(path)

    def parse_all(self, path, took):
        """Parse ``path`` in blocks of 4 KiB, appending to ``took`` whether
        the numpy parser took each block it was given."""
        real = ingestion._block_batch

        def block_batch(*args):
            batch = real(*args)
            took.append(batch is not None)
            return batch

        with mock.patch.multiple(ingestion, BLOCK_BYTES=4096, _block_batch=block_batch):
            with open(path, encoding="utf-8") as fh:
                return interevent_durations(parse_events(fh))

    @pytest.mark.parametrize(
        "line",
        [f"a,{stamp}\n" for stamp in STAMPS]
        # A lone CR, a short row beside a long one, a NUL, a CRLF.
        + ["a\rb,5\n", "a\nb,1,7\n", "a\0,3\n", "a,1\r\n"],
    )
    def test_edge_line_matches_csv_path(self, tmp_path, line):
        text = "actor,timestamp\n" + "a,1\nb,2\n" * 8 + line + "a,3\nb,4\n" * 8
        path = tmp_path / "events.csv"
        path.write_bytes(text.encode())
        universal = text.replace("\r\n", "\n").replace("\r", "\n")

        def parse(stream):
            # csv.reader raises csv.Error on a NUL before Python 3.11.
            try:
                batches = list(parse_events(stream))
            except csv.Error as exc:
                return type(exc)
            return exact_events(batches), comparable(interevent_durations(batches))

        with mock.patch.object(ingestion, "BLOCK_BYTES", 16), open(path) as fh:
            assert parse(fh) == parse(io.StringIO(universal))

    def test_rest_after_first_quote_takes_csv_path(self, tmp_path):
        # A quoted field may hold a newline, so csv.reader reads the file
        # from the block that holds its first quote on.
        text = "actor,timestamp\n" + "a,1\n" * 2000 + '"b\nc",2\n' + "a,3\nb\nc,4\n" * 600
        path = tmp_path / "events.csv"
        path.write_text(text)
        took = []
        got = self.parse_all(str(path), took)
        assert took == [True]  # the first block of rows; the second holds the quote
        assert comparable(got) == comparable(interevent_durations(parse_events(io.StringIO(text))))

    def test_decode_error_reaches_caller(self, tmp_path):
        path = self.big_csv(tmp_path, b"\xff\xfe,3\n")
        took = []
        with pytest.raises(UnicodeDecodeError):
            self.parse_all(path, took)
        # The blocks before the bad one were parsed by numpy.
        assert took[:-1] and all(took[:-1]) and not took[-1]

    def test_csv_error_reaches_caller(self, tmp_path):
        # A field over csv.field_size_limit() (a NUL byte raised csv.Error
        # only before Python 3.11).
        path = self.big_csv(tmp_path, b"a" * (csv.field_size_limit() + 1) + b",3\n")
        took = []
        with pytest.raises(csv.Error):
            self.parse_all(path, took)
        assert took[:-1] and all(took[:-1]) and not took[-1]


def float64_of_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# Any float64, with weight on the values where the shortest digits are
# hard: powers of two and their neighbours (a narrower interval below),
# values of few significant bits (exact decimal ties at 17 digits, such as
# 2**-25 = 2.98023223876953125e-08), subnormals, and the decimal exponents
# where repr switches layout (1e-4, 1e16).
ANY_FLOAT = st.one_of(
    st.floats(),
    st.integers(0, 2**64 - 1).map(float64_of_bits),
    st.builds(math.ldexp, st.integers(1, 2**12), st.integers(-1080, 1011)),
    st.builds(math.ldexp, st.integers(1, 16), st.integers(-90, -10)),
    st.tuples(st.integers(-1074, 1023), st.sampled_from([0.0, 1.0, math.inf])).map(
        lambda p: float(np.nextafter(math.ldexp(1.0, p[0]), p[1]))
    ),
    st.integers(1, 2**16).map(lambda t: t * 5e-324),
    st.sampled_from([1e-4, 1e-5, 1e15, 1e16, 9999999999999998.0, 0.0001000000000000001]).flatmap(
        lambda v: st.sampled_from([v, float(np.nextafter(v, 0)), float(np.nextafter(v, 2 * v))])
    ),
)


def kernel_field(field: str) -> bool:
    """Whether ``floattext.decimal_values`` takes ``field``: digits and at
    most one ".", at most 22 digits and 19 from the first nonzero one on."""
    digits = field.replace(".", "", 1)
    return (
        bool(digits)
        and digits.isascii()
        and digits.isdigit()
        and len(digits) <= 22
        and len(digits.lstrip("0")) <= 19
    )


def point(n: int, k: int) -> str:
    """n / 10**k written out in full."""
    digits = str(n).rjust(k + 1, "0")
    return f"{digits[:-k]}.{digits[-k:]}" if k else digits


def midpoint(m: int, e: int) -> str:
    """The exact midpoint (2m + 1) * 2**(e - 1) of m * 2**e and its upper
    neighbour, written out in full."""
    if e < 1:
        return point((2 * m + 1) * 5 ** (1 - e), 1 - e)
    return str((2 * m + 1) << (e - 1))


def with_last_digit_moved(text: str, by: int) -> str:
    head, last = text[:-1], text[-1]
    if last == ".":
        return text
    return head + str((int(last) + by) % 10)


# Decimal fields: the block parser's STAMPS; free digit strings; exact
# midpoints between neighbouring float64 values past 2**53 (ties, where
# float rounds to the even significand) and their last digit moved by
# one; and values just below a power of two, where the division
# float64(M) / 10**k lands on the power and the nearest float64 is below
# it, at half the spacing above.
DECIMAL_FIELD = st.one_of(
    st.sampled_from(STAMPS),
    st.tuples(st.text("0123456789", min_size=1, max_size=24), st.integers(0, 24)).map(
        lambda t: t[0][: t[1]] + "." + t[0][t[1]:] if t[1] < len(t[0]) else t[0]
    ),
    st.tuples(st.integers(2**52, 2**53 - 1), st.integers(-4, 11), st.sampled_from([0, 0, 1, -1])).map(
        lambda t: with_last_digit_moved(midpoint(t[0], t[1]), t[2])
    ),
    st.tuples(st.integers(50, 63), st.integers(0, 3), st.integers(1, 99)).map(
        lambda t: point(2 ** t[0] * 10 ** t[1] - t[2], t[1])
    ),
)


@st.composite
def duration_files(draw):
    """Lines of a duration file whose blocks the kernels take or decline:
    reprs, and among them blank lines, padded, underscored, exponent and
    too long numbers, nan, and what no sample may hold."""
    value = st.floats(min_value=1e-300, max_value=1e300).map(repr)
    odd = st.sampled_from(
        ["", "  ", "1_000", " 12 ", "nan", "1e-05", "x", "0", "-3", "12345678901234567890",
         "0.00000000000000000000012345", "18446744073709551621", "7"]
    )
    lines = draw(st.lists(st.one_of(value, value, value, odd), max_size=40))
    return "".join(f"{line}\n" for line in lines)


class TestFloatText:
    """The numpy kernels against repr and float, value by value, and the
    duration text layer on files against the per-line references."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(ANY_FLOAT, max_size=60))
    def test_shortest_lines_is_repr(self, values):
        got = floattext.shortest_lines(np.array(values, dtype=float))
        if all(map(math.isfinite, values)):
            assert got == "".join(f"{v!r}\n" for v in values).encode()
        else:
            assert got is None

    @settings(max_examples=300, deadline=None)
    @given(st.lists(DECIMAL_FIELD, min_size=1, max_size=40))
    def test_decimal_values_is_float(self, fields):
        block = "".join(f"{field}\n" for field in fields).encode()
        raw = np.frombuffer(block, np.uint8)
        ends = np.flatnonzero(raw == 10)
        starts = np.concatenate([[0], ends[:-1] + 1])
        got = floattext.decimal_values(raw, starts, ends - starts)
        if all(map(kernel_field, fields)):
            assert got.tobytes() == np.array([float(f) for f in fields]).tobytes()
        else:
            assert got is None

    @pytest.mark.parametrize(
        "field, value",
        [
            ("9007199254740993", 9007199254740992.0),  # a tie: to the even one
            ("1014403211915866.5", 1014403211915866.5),
            ("1125899906842623.9", 1125899906842623.875),  # below 2**50
            ("18014398509481986", 18014398509481984.0),  # a tie past 2**54
            ("18014398509481990", 18014398509481992.0),
            ("18446744073709551621", None),  # wraps a uint64 to 5
            ("0000000000000000000000", 0.0),
            ("0.000000000000000000001", 1e-21),  # 22 digits
        ],
    )
    def test_decimal_edge_fields(self, field, value):
        raw = np.frombuffer(field.encode(), np.uint8)
        got = floattext.decimal_values(raw, np.array([0]), np.array([raw.size]))
        if value is None:
            assert got is None
        else:
            assert got.tobytes() == np.array([float(field)]).tobytes() == np.array([value]).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(duration_files(), st.integers(8, 96), LINE_ENDS, st.booleans())
    def test_read_on_disk_is_reference(self, text, block, end, trailing):
        # Blocks of a few dozen bytes, so that blocks the kernel takes mix
        # with blocks it declines, in one process and in 2 or 3 workers.
        data = with_line_ends(text, end, trailing)
        universal = data.decode().replace("\r\n", "\n").replace("\r", "\n")
        want = outcome(reference_read_durations_text, io.StringIO(universal))

        def read(path):
            got = []
            for workers in WORKERS:
                with open(path, encoding="utf-8") as fh:
                    got.append(outcome(read_durations_text, fh, workers))
            return got

        with mock.patch.multiple(ingestion, BLOCK_BYTES=block, POOL_MIN_BYTES=1):
            with mock.patch.object(pool, "_usable_cpus", lambda: 3):
                got = on_disk(data, read)
        for result in got:
            if isinstance(want, tuple):
                assert result == want
            else:
                assert result.values.tobytes() == want.values.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(ANY_FLOAT.filter(lambda v: math.isfinite(v) and v > 0), min_size=1, max_size=60),
           st.integers(1, 8))
    def test_write_on_disk_is_reference(self, values, chunk):
        sample = DurationSample(np.array(values))
        want = io.StringIO()
        reference_write_durations_text(sample, want)

        def write(workers):
            def run(path):
                with open(path, "w", encoding="utf-8") as fh:
                    write_durations_text(sample, fh, workers)
                with open(path, "rb") as fh:
                    return fh.read()

            return on_disk(b"", run)

        with mock.patch.multiple(ingestion, CHUNK_ROWS=chunk, POOL_MIN_BYTES=1):
            with mock.patch.object(pool, "_usable_cpus", lambda: 3):
                for workers in WORKERS:
                    assert write(workers) == want.getvalue().encode()

    def test_blocks_mix_kernel_and_per_line_reads(self, tmp_path):
        path = tmp_path / "durations.txt"
        path.write_text("1.5\n" * 30 + "1e-05\n" + "2.25\n" * 30)
        real = floattext.decimal_values
        took = []

        def spy(*args):
            values = real(*args)
            took.append(values is not None)
            return values

        with mock.patch.multiple(ingestion, BLOCK_BYTES=64, decimal_values=spy), open(path) as fh:
            got = read_durations_text(fh)
        assert True in took and False in took
        assert got.values.tolist() == sorted([1.5] * 30 + [1e-05] + [2.25] * 30)
